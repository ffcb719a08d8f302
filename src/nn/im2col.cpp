#include "nn/im2col.hpp"

#include <algorithm>

namespace exaclim {
namespace {

// Valid output coordinates along one axis for an input displacement `d`
// (= k*dilation - pad): the o with 0 <= o*stride + d < in_sz, clamped to
// [0, out_sz]: the pixels a materialized im2col would copy rather than
// zero-fill.
void ValidOutRange(std::int64_t d, std::int64_t stride, std::int64_t in_sz,
                   std::int64_t out_sz, std::int64_t* lo, std::int64_t* hi) {
  *lo = d >= 0 ? 0 : (-d + stride - 1) / stride;
  *hi = in_sz > d ? (in_sz - d - 1) / stride + 1 : 0;
  *lo = std::min(*lo, out_sz);
  *hi = std::min(*hi, out_sz);
  if (*hi < *lo) *hi = *lo;
}

}  // namespace

void BuildImplicitRows(const ConvGeometry& g, GemmImplicitRow* rows) {
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  std::int64_t r = 0;
  for (std::int64_t c = 0; c < g.in_c; ++c) {
    for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
      for (std::int64_t kw = 0; kw < g.k_w; ++kw, ++r) {
        const std::int64_t dy = kh * g.dilation - g.pad;
        const std::int64_t dx = kw * g.dilation - g.pad;
        GemmImplicitRow& rd = rows[r];
        rd.offset = c * g.in_h * g.in_w + dy * g.in_w + dx;
        ValidOutRange(dy, g.stride, g.in_h, out_h, &rd.oy_lo, &rd.oy_hi);
        ValidOutRange(dx, g.stride, g.in_w, out_w, &rd.ox_lo, &rd.ox_hi);
      }
    }
  }
}

void BuildDataGradPlan(const ConvGeometry& g, const PackedGemmA* tap_panels,
                       std::vector<ConvPhase>* phases,
                       std::vector<GemmConvTap>* taps) {
  phases->clear();
  taps->clear();
  const std::int64_t s = g.stride;
  const std::int64_t out_h = g.OutH();
  const std::int64_t out_w = g.OutW();
  // Non-negative residue of a tap shift: the phase it lands on.
  const auto residue = [s](std::int64_t d) { return ((d % s) + s) % s; };
  for (std::int64_t py = 0; py < s; ++py) {
    for (std::int64_t px = 0; px < s; ++px) {
      ConvPhase ph;
      ph.py = py;
      ph.px = px;
      ph.grid_h = g.in_h > py ? (g.in_h - py + s - 1) / s : 0;
      ph.grid_w = g.in_w > px ? (g.in_w - px + s - 1) / s : 0;
      ph.first_tap = static_cast<std::int64_t>(taps->size());
      if (ph.grid_h == 0 || ph.grid_w == 0) continue;
      for (std::int64_t kh = 0; kh < g.k_h; ++kh) {
        const std::int64_t dy = kh * g.dilation - g.pad;
        if (residue(dy) != py) continue;
        for (std::int64_t kw = 0; kw < g.k_w; ++kw) {
          const std::int64_t dx = kw * g.dilation - g.pad;
          if (residue(dx) != px) continue;
          // Grid pixel (qy, qx) is input pixel (py + s*qy, px + s*qx),
          // fed by output pixel (qy + ey, qx + ex).
          const std::int64_t ey = (py - dy) / s;
          const std::int64_t ex = (px - dx) / s;
          GemmConvTap t;
          t.a = tap_panels + kh * g.k_w + kw;
          t.row.offset = ey * out_w + ex;
          t.row.oy_lo = std::max<std::int64_t>(0, -ey);
          t.row.oy_hi = std::max(t.row.oy_lo, std::min(ph.grid_h, out_h - ey));
          t.row.ox_lo = std::max<std::int64_t>(0, -ex);
          t.row.ox_hi = std::max(t.row.ox_lo, std::min(ph.grid_w, out_w - ex));
          if (t.row.oy_hi == t.row.oy_lo || t.row.ox_hi == t.row.ox_lo) {
            continue;
          }
          taps->push_back(t);
        }
      }
      ph.n_taps = static_cast<std::int64_t>(taps->size()) - ph.first_tap;
      if (ph.n_taps > 0) phases->push_back(ph);
    }
  }
}

}  // namespace exaclim
