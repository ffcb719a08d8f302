#pragma once

// The serialized gradient exchange, kept as the test oracle of the
// bucket engine (DESIGN §14). It runs the Horovod recipe the way the
// exchanger did before it had a single engine: negotiate the whole
// tensor order once, greedily fuse consecutive tensors of that order
// into buckets, then per bucket pack, round through binary16 under the
// FP16 wire, all-reduce in BucketTag(i)'s tag window, average, re-round
// and scatter back. It uses only public APIs (control plane, group and
// hybrid collectives, casts) and shares no code with the engine, which
// must match it bit for bit under either release policy.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "comm/collectives.hpp"
#include "common/error.hpp"
#include "hvd/control_plane.hpp"
#include "hvd/exchanger.hpp"
#include "hvd/hybrid.hpp"
#include "tensor/cast.hpp"

namespace exaclim {

/// Exchanges `params` over the full world of `comm` as the engine does
/// when every rank announces its tensors in `emission_order`. Returns
/// the number of fused buckets. Collective: every rank calls.
inline std::int64_t OracleExchange(Communicator& comm,
                                   const std::vector<Param*>& params,
                                   std::span<const int> emission_order,
                                   const ExchangerOptions& opts) {
  const RankGroup group = RankGroup::World(comm);
  const Deadline no_deadline(kNoTimeout);

  // One negotiation for the whole step.
  const std::unique_ptr<ControlPlane> control =
      MakeControlPlane(opts.hierarchical_control, opts.control_radix);
  const std::vector<int> order =
      control->NegotiateOrder(comm, emission_order);
  EXACLIM_CHECK(order.size() == params.size(), "oracle: order size");

  const int bpe = BytesPerElement(opts.wire_precision);
  const bool fp16 = opts.wire_precision == Precision::kFP16;
  const WireFormat wire = fp16 ? WireFormat::kFP16 : WireFormat::kFP32;
  const auto grad = [&](int id) -> Tensor& {
    return params[static_cast<std::size_t>(id)]->grad;
  };

  std::int64_t buckets = 0;
  std::size_t pos = 0;
  while (pos < order.size()) {
    // Greedy fusion: at least one tensor, then consecutive tensors while
    // the bucket stays within the byte threshold.
    std::size_t end = pos;
    std::int64_t bytes = 0;
    while (end < order.size()) {
      const std::int64_t t_bytes = grad(order[end]).NumElements() * bpe;
      if (end > pos && bytes + t_bytes > opts.fusion_threshold_bytes) break;
      bytes += t_bytes;
      ++end;
    }

    std::vector<float> fused;
    for (std::size_t k = pos; k < end; ++k) {
      const Tensor& g = grad(order[k]);
      fused.insert(fused.end(), g.Data().begin(), g.Data().end());
    }
    if (!fused.empty()) {
      if (fp16) RoundTripHalf(fused);
      const int tag = BucketTag(static_cast<int>(buckets));
      CollectiveResult r;
      switch (opts.transport) {
        case ReduceTransport::kMpiRing:
          r = TryGroupAllreduceRing(comm, group, fused, no_deadline, tag,
                                    DeadScan::kGroup, wire);
          break;
        case ReduceTransport::kMpiTree:
          r = TryGroupAllreduceTree(comm, group, fused, no_deadline, tag,
                                    DeadScan::kGroup, wire);
          break;
        case ReduceTransport::kHybrid:
          r = TryHybridAllreduce(comm, fused, opts.hybrid, no_deadline, tag,
                                 wire);
          break;
      }
      EXACLIM_CHECK(r.ok(), "oracle: bucket " << buckets << " failed");
      const float scale =
          opts.average ? 1.0f / static_cast<float>(comm.size()) : 1.0f;
      for (float& v : fused) v *= scale;
      if (fp16) RoundTripHalf(fused);

      std::size_t off = 0;
      for (std::size_t k = pos; k < end; ++k) {
        Tensor& g = grad(order[k]);
        std::copy(fused.begin() + static_cast<std::ptrdiff_t>(off),
                  fused.begin() +
                      static_cast<std::ptrdiff_t>(off + g.Data().size()),
                  g.Data().begin());
        off += g.Data().size();
      }
    }
    ++buckets;
    pos = end;
  }
  return buckets;
}

}  // namespace exaclim
