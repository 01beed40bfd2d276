#ifndef PROX_SUMMARIZE_DISTANCE_H_
#define PROX_SUMMARIZE_DISTANCE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "ir/term_pool.h"
#include "kernels/batch_eval.h"
#include "kernels/metrics.h"
#include "provenance/expression.h"
#include "summarize/mapping_state.h"
#include "summarize/val_func.h"

namespace prox {

/// \brief Computes dist^{h,φ}(p₀, p') (Definition 3.2.2) for candidate
/// summaries against a fixed original expression and valuation set.
///
/// Oracles pre-evaluate p₀ under every base valuation once; each candidate
/// then costs |V| evaluations of the (smaller) candidate expression. The
/// returned distances are normalized into [0,1] by VAL-FUNC's MaxError
/// bound, matching the normalized distances reported in §6.3.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// Average normalized VAL-FUNC of `cand` (= h(p₀) for the cumulative h in
  /// `state`) against the original expression.
  virtual double Distance(const ProvenanceExpression& cand,
                          const MappingState& state) = 0;

  /// The normalization constant (maximum possible error).
  virtual double max_error() const = 0;
};

/// Exact distance over an explicitly enumerated valuation class — the
/// thesis's evaluation setting, where V_Ann ("Cancel Single Annotation",
/// "Cancel Single Attribute") is polynomial in the input.
class EnumeratedDistance : public DistanceOracle {
 public:
  /// Valuations per reduction chunk. Fixed (never derived from the thread
  /// count) so the floating-point summation tree — and therefore the
  /// reported distance — is bit-identical at any parallelism level.
  static constexpr int64_t kReductionGrain = 8;

  /// \param p0 the original expression (must outlive the oracle)
  /// \param registry annotation registry (may grow while the oracle lives)
  /// \param val_func VAL-FUNC (must outlive the oracle)
  /// \param valuations the enumerated class V_Ann
  /// \param threads exec thread count (0 = process default, 1 = serial)
  EnumeratedDistance(const ProvenanceExpression* p0,
                     const AnnotationRegistry* registry,
                     const ValFunc* val_func,
                     std::vector<Valuation> valuations, int threads = 1);

  double Distance(const ProvenanceExpression& cand,
                  const MappingState& state) override;
  double max_error() const override { return max_error_; }

  size_t num_valuations() const { return valuations_.size(); }
  const std::vector<Valuation>& valuations() const { return valuations_; }
  /// Cached v(p₀) per valuation (used by the incremental scorer).
  const std::vector<EvalResult>& base_evals() const { return base_evals_; }
  /// Pre-materialized base valuations, aligned with base_evals(). Distance
  /// extends a copy per call (MappingState::TransformFrom) instead of
  /// re-materializing each sparse valuation per call per step.
  const std::vector<MaterializedValuation>& base_mats() const {
    return base_mats_;
  }
  const AnnotationRegistry* registry() const { return registry_; }

 private:
  /// Packs base_evals_ into per-chunk BlockEvals for the batch kernels
  /// (kernels/batch_eval.h), lazily and once — Distance runs concurrently
  /// on exec workers during candidate scoring. Sets base_blocks_ok_.
  void EnsureBaseBlocks();

  const ProvenanceExpression* p0_;
  const AnnotationRegistry* registry_;
  const ValFunc* val_func_;
  std::vector<Valuation> valuations_;
  std::vector<EvalResult> base_evals_;  // v(p₀) per valuation, cached
  std::vector<MaterializedValuation> base_mats_;  // materialized once
  double total_weight_ = 0.0;
  double max_error_ = 1.0;
  exec::PoolRef pool_;

  // Batch-kernel state (makes the oracle non-copyable; it is always used
  // in place). base_groups_ is the shared coordinate layout of every
  // base evaluation — candidates on the identity-on-groups path must
  // produce exactly this layout, and candidates of a group-key merge its
  // projection, which ProgramMatchesLayout checks.
  std::once_flag base_blocks_once_;
  bool base_blocks_ok_ = false;
  EvalResult::Kind base_kind_ = EvalResult::Kind::kScalar;
  std::vector<AnnotationId> base_groups_;
  std::vector<kernels::BlockEval> base_blocks_;  // one per grain-8 chunk
};

/// Monte-Carlo distance over *all* 2^n valuations — the sampling
/// approximation of Proposition 4.1.2. Each sample draws a uniform truth
/// valuation over p₀'s annotations, evaluates both expressions and
/// averages VAL-FUNC; Hoeffding's inequality bounds the sample count
/// needed for an (ε, δ) absolute-error guarantee on the normalized
/// distance.
class SampledDistance : public DistanceOracle {
 public:
  struct Options {
    double epsilon = 0.05;  ///< absolute error bound on normalized distance
    double delta = 0.05;    ///< failure probability
    int num_samples = 0;    ///< overrides the (ε, δ)-derived count when > 0
    uint64_t seed = 0x5EEDBA5E;
    int threads = 1;  ///< exec thread count (0 = process default)
  };

  /// Samples per reduction chunk; fixed for the same bit-identical-at-any-
  /// thread-count reason as EnumeratedDistance::kReductionGrain.
  static constexpr int64_t kSampleGrain = 16;

  /// Samples needed so that P(|d' − dist| > ε) < δ for a [0,1]-bounded
  /// estimator: ⌈ln(2/δ) / (2ε²)⌉.
  static int RequiredSamples(double epsilon, double delta);

  SampledDistance(const ProvenanceExpression* p0,
                  const AnnotationRegistry* registry, const ValFunc* val_func,
                  Options options);

  double Distance(const ProvenanceExpression& cand,
                  const MappingState& state) override;
  double max_error() const override { return max_error_; }

  int num_samples() const { return num_samples_; }

 private:
  const ProvenanceExpression* p0_;
  const AnnotationRegistry* registry_;
  const ValFunc* val_func_;
  Options options_;
  int num_samples_;
  std::vector<AnnotationId> annotations_;  // of p0
  EvalResult all_true_eval_;  // group-key structure for the identity check
  double max_error_ = 1.0;
  exec::PoolRef pool_;

  // Batch-kernel state. The base side has no cached per-valuation
  // evaluations (samples are drawn fresh), so the constructor adopts p₀
  // into prox::ir once and lowers it into base_program_; each chunk then
  // batch-evaluates base and candidate over the same valuation block.
  std::shared_ptr<ir::TermPool> batch_pool_;
  std::unique_ptr<ProvenanceExpression> p0_ir_;
  kernels::BatchProgram base_program_;
  bool base_program_ok_ = false;
  /// Why a candidate falls back when !base_program_ok_.
  kernels::FallbackReason base_fallback_ =
      kernels::FallbackReason::kNoLowering;
  EvalResult::Kind base_kind_ = EvalResult::Kind::kScalar;
  std::vector<AnnotationId> base_groups_;
};

}  // namespace prox

#endif  // PROX_SUMMARIZE_DISTANCE_H_
