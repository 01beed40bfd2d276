#ifndef PROX_KERNELS_METRICS_H_
#define PROX_KERNELS_METRICS_H_

#include <cstdint>

namespace prox {
namespace kernels {

/// Counter/gauge bumpers for the batch kernels (docs/OBSERVABILITY.md
/// catalogues the names). Each caches its obs pointer in a function-local
/// static, so the hot-path cost is one relaxed atomic op.

/// Publishes `prox_simd_tier` — the numeric tier the dispatcher resolved
/// (0 scalar, 1 sse4.2, 2 avx2). Re-published on every batch so runtime
/// cap changes (PROX_SIMD, --simd) show up.
void PublishSimdTier(int tier);

/// `n` valuations were evaluated through the batch kernels.
void CountBatchEvals(uint64_t n);

/// Why an oracle left the batch kernels for the per-valuation scalar path:
/// the `reason` label of `prox_kernel_scalar_fallback_total`.
enum class FallbackReason : uint8_t {
  kNoLowering,      ///< candidate or p₀ has no BatchProgram (legacy trees)
  kNoBatchKind,     ///< the VAL-FUNC has no batch counterpart
  kLayoutMismatch,  ///< a lowered or packed layout differs from the base's
  kScalarCollapse,  ///< a group-key projection folds into one scalar
};

/// The label value: no_lowering, no_batch_kind, layout_mismatch or
/// scalar_collapse.
const char* FallbackReasonName(FallbackReason reason);

/// An oracle fell back to the per-valuation scalar path for one Distance
/// call, for `reason`.
void CountScalarFallback(FallbackReason reason, uint64_t n = 1);

/// Current counter values, for tests asserting that the batch path (or
/// the fallback) actually engaged — identity checks are vacuous if the
/// code under test silently took the other path. The fallback total sums
/// every reason.
uint64_t BatchEvalsForTesting();
uint64_t ScalarFallbacksForTesting();
uint64_t ScalarFallbacksForTesting(FallbackReason reason);

}  // namespace kernels
}  // namespace prox

#endif  // PROX_KERNELS_METRICS_H_
