#include "kernels/metrics.h"

#include <array>
#include <iterator>
#include <string>

#include "obs/metrics.h"

namespace prox {
namespace kernels {

void PublishSimdTier(int tier) {
  static obs::Gauge* g = obs::MetricsRegistry::Default().GetGauge(
      "prox_simd_tier",
      "SIMD tier the batch kernels dispatch to: 0 scalar, 1 sse4.2, 2 avx2 "
      "(min of CPU support, PROX_SIMD and the --simd cap).");
  g->Set(static_cast<double>(tier));
}

void CountBatchEvals(uint64_t n) {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "prox_kernel_batch_evals_total",
      "Valuations evaluated through the batched VAL-FUNC kernels.");
  c->Increment(n);
}

const char* FallbackReasonName(FallbackReason reason) {
  switch (reason) {
    case FallbackReason::kNoLowering:
      return "no_lowering";
    case FallbackReason::kNoBatchKind:
      return "no_batch_kind";
    case FallbackReason::kLayoutMismatch:
      return "layout_mismatch";
    case FallbackReason::kScalarCollapse:
      return "scalar_collapse";
  }
  return "unknown";
}

namespace {

constexpr FallbackReason kAllReasons[] = {
    FallbackReason::kNoLowering, FallbackReason::kNoBatchKind,
    FallbackReason::kLayoutMismatch, FallbackReason::kScalarCollapse};

obs::Counter* FallbackCounter(FallbackReason reason) {
  using Counters = std::array<obs::Counter*, std::size(kAllReasons)>;
  static const Counters counters = [] {
    Counters c{};
    for (FallbackReason r : kAllReasons) {
      c[static_cast<size_t>(r)] = obs::MetricsRegistry::Default().GetCounter(
          "prox_kernel_scalar_fallback_total",
          "Distance calls that fell back to the per-valuation scalar path, "
          "by reason.",
          std::string("reason=\"") + FallbackReasonName(r) + "\"");
    }
    return c;
  }();
  return counters[static_cast<size_t>(reason)];
}

}  // namespace

void CountScalarFallback(FallbackReason reason, uint64_t n) {
  FallbackCounter(reason)->Increment(n);
}

uint64_t BatchEvalsForTesting() {
  CountBatchEvals(0);  // ensure the counter exists
  return obs::MetricsRegistry::Default()
      .GetCounter("prox_kernel_batch_evals_total", "")
      ->value();
}

uint64_t ScalarFallbacksForTesting() {
  uint64_t total = 0;
  for (FallbackReason r : kAllReasons) total += ScalarFallbacksForTesting(r);
  return total;
}

uint64_t ScalarFallbacksForTesting(FallbackReason reason) {
  return FallbackCounter(reason)->value();
}

}  // namespace kernels
}  // namespace prox
