#pragma once

#include <cstdint>
#include <vector>

#include "tensor/gemm_kernel.hpp"

namespace exaclim {

/// Parameters of a 2-D convolution window (square-independent: separate
/// height/width). Dilation implements atrous convolution (DeepLabv3+'s
/// ASPP); stride implements downscaling.
struct ConvGeometry {
  std::int64_t in_c = 0;
  std::int64_t in_h = 0;
  std::int64_t in_w = 0;
  std::int64_t k_h = 1;
  std::int64_t k_w = 1;
  std::int64_t stride = 1;
  std::int64_t pad = 0;
  std::int64_t dilation = 1;

  std::int64_t EffectiveKh() const { return dilation * (k_h - 1) + 1; }
  std::int64_t EffectiveKw() const { return dilation * (k_w - 1) + 1; }
  std::int64_t OutH() const {
    return (in_h + 2 * pad - EffectiveKh()) / stride + 1;
  }
  std::int64_t OutW() const {
    return (in_w + 2 * pad - EffectiveKw()) / stride + 1;
  }
  /// Rows of the im2col matrix (= columns of the weight matrix).
  std::int64_t PatchSize() const { return in_c * k_h * k_w; }
  std::int64_t OutPixels() const { return OutH() * OutW(); }

  /// Geometry identity keys the per-workspace implicit row-table cache.
  bool operator==(const ConvGeometry&) const = default;
};

/// Builds the PatchSize() implicit-GEMM row descriptors for `g` into
/// `rows` (DESIGN §15): per (ci, kh, kw) the image offset plus the valid
/// output-pixel rectangle, everything the engine's B-panel gather needs.
/// Geometry-dependent setup done once per geometry (into pooled scratch
/// — ConvWorkspace::ImplicitRows caches it), not once per batch element.
void BuildImplicitRows(const ConvGeometry& g, GemmImplicitRow* rows);

/// One stride phase of a convolution's input grid: the pixels
/// (py + stride*qy, px + stride*qx), grid_h x grid_w of them. A kernel
/// tap reaches the phase iff kh*dilation - pad ≡ py and
/// kw*dilation - pad ≡ px (mod stride); the phase's taps are
/// plan taps [first_tap, first_tap + n_taps).
struct ConvPhase {
  std::int64_t py = 0;
  std::int64_t px = 0;
  std::int64_t grid_h = 0;
  std::int64_t grid_w = 0;
  std::int64_t first_tap = 0;
  std::int64_t n_taps = 0;
};

/// Builds the implicit data-gradient plan of `g` (DESIGN §15): the
/// phases in (py, px) order, each listing its taps in (kh, kw) order —
/// Col2Im's accumulation order. Tap kh*k_w + kw gets A operand
/// tap_panels[kh*k_w + kw] and the B-row descriptor of output-gradient
/// channel 0 on its phase's grid (offset into the [out_h, out_w] plane,
/// valid grid window). At stride 1 the one phase is the whole image.
/// Phases with no pixels or no taps, and taps whose window on their
/// phase is empty, are left out: they would only add zeros.
void BuildDataGradPlan(const ConvGeometry& g, const PackedGemmA* tap_panels,
                       std::vector<ConvPhase>* phases,
                       std::vector<GemmConvTap>* taps);

}  // namespace exaclim
