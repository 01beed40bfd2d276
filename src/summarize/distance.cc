#include "summarize/distance.h"

#include <cmath>
#include <optional>

#include "exec/thread_pool.h"
#include "ir/adopt.h"
#include "kernels/metrics.h"
#include "obs/metrics.h"

namespace prox {

namespace {

/// Metric handles for the distance oracles (docs/OBSERVABILITY.md).
struct DistanceMetrics {
  obs::Counter* enumerated_calls;
  obs::Counter* enumerated_evals;
  obs::Counter* base_eval_reuse;
  obs::Counter* sampled_calls;
  obs::Counter* samples;

  static const DistanceMetrics& Get() {
    static const DistanceMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      DistanceMetrics m;
      m.enumerated_calls =
          r.GetCounter("prox_distance_enumerated_calls_total",
                       "EnumeratedDistance::Distance invocations.");
      m.enumerated_evals = r.GetCounter(
          "prox_distance_enumerated_evals_total",
          "Candidate-expression evaluations performed by the enumerated "
          "oracle (one per valuation per call).");
      m.base_eval_reuse = r.GetCounter(
          "prox_distance_base_eval_reuse_total",
          "Cached base evaluations fed to VAL-FUNC directly via the "
          "identity-on-groups fast path (no re-projection).");
      m.sampled_calls = r.GetCounter(
          "prox_distance_sampled_calls_total",
          "SampledDistance::Distance invocations.");
      m.samples = r.GetCounter(
          "prox_distance_samples_total",
          "Monte-Carlo valuations drawn by the sampled oracle.");
      return m;
    }();
    return m;
  }
};

/// True when the cumulative homomorphism fixes every group key of the
/// reference evaluation, making ProjectEvalResult the identity (scalar and
/// cost/bool results have no group keys, so they always qualify).
bool IdentityOnGroups(const EvalResult& reference, const MappingState& state) {
  if (reference.kind() != EvalResult::Kind::kVector) return true;
  for (const auto& coord : reference.coords()) {
    if (state.cumulative().Map(coord.group) != coord.group) return false;
  }
  return true;
}

/// How one Distance call prices its candidate on the batch kernels, or
/// why it cannot (`fallback` set).
struct BatchPlan {
  std::optional<kernels::FallbackReason> fallback;
  kernels::ValFuncBatchKind vf_kind = kernels::ValFuncBatchKind::kNone;
  kernels::BatchProgram program;
  /// Set when the cumulative homomorphism moves a group key: base blocks
  /// are folded onto `projection.groups` before pricing, as
  /// ProjectEvalResult folds each base evaluation on the scalar path.
  bool project = false;
  kernels::GroupProjection projection;
};

/// Lowers `cand` and checks it against the base layout — projected
/// through the cumulative homomorphism unless it fixes every group key.
/// `base_ok`/`base_fallback` report whether the oracle's own base side is
/// batchable.
BatchPlan PlanBatch(const ProvenanceExpression& cand, const ValFunc& val_func,
                    const MappingState& state, bool identity_on_groups,
                    bool base_ok, kernels::FallbackReason base_fallback,
                    EvalResult::Kind base_kind,
                    const std::vector<AnnotationId>& base_groups) {
  BatchPlan plan;
  plan.vf_kind = val_func.batch_kind();
  const kernels::BatchEvalFacade* facade = cand.AsBatchEval();
  if (facade == nullptr) {
    plan.fallback = kernels::FallbackReason::kNoLowering;
    return plan;
  }
  if (plan.vf_kind == kernels::ValFuncBatchKind::kNone) {
    plan.fallback = kernels::FallbackReason::kNoBatchKind;
    return plan;
  }
  if (!base_ok) {
    plan.fallback = base_fallback;
    return plan;
  }
  const std::vector<AnnotationId>* groups = &base_groups;
  if (!identity_on_groups) {
    plan.projection.Build(base_groups.data(), base_groups.size(),
                          state.cumulative());
    if (plan.projection.CollapsesToScalar()) {
      plan.fallback = kernels::FallbackReason::kScalarCollapse;
      return plan;
    }
    plan.project = true;
    groups = &plan.projection.groups;
  }
  plan.program = facade->LowerBatch();
  if (!kernels::ProgramMatchesLayout(plan.program, base_kind, groups->data(),
                                     groups->size())) {
    plan.fallback = kernels::FallbackReason::kLayoutMismatch;
  }
  return plan;
}

}  // namespace

EnumeratedDistance::EnumeratedDistance(const ProvenanceExpression* p0,
                                       const AnnotationRegistry* registry,
                                       const ValFunc* val_func,
                                       std::vector<Valuation> valuations,
                                       int threads)
    : p0_(p0),
      registry_(registry),
      val_func_(val_func),
      valuations_(std::move(valuations)),
      pool_(threads) {
  const size_t n = registry_->size();
  base_evals_.reserve(valuations_.size());
  base_mats_.reserve(valuations_.size());
  for (const auto& v : valuations_) {
    base_mats_.emplace_back(v, n);
    base_evals_.push_back(p0_->Evaluate(base_mats_.back()));
    total_weight_ += v.weight();
  }
  EvalResult all_true = p0_->Evaluate(MaterializedValuation(n));
  max_error_ = val_func_->MaxError(all_true);
  if (max_error_ <= 0.0) max_error_ = 1.0;
}

void EnumeratedDistance::EnsureBaseBlocks() {
  std::call_once(base_blocks_once_, [&] {
    base_kind_ = base_evals_[0].kind();
    if (base_kind_ == EvalResult::Kind::kVector) {
      base_groups_.reserve(base_evals_[0].coords().size());
      for (const auto& c : base_evals_[0].coords()) {
        base_groups_.push_back(c.group);
      }
    }
    const size_t count = base_evals_.size();
    const size_t num_chunks =
        (count + kReductionGrain - 1) / kReductionGrain;
    base_blocks_.resize(num_chunks);
    base_blocks_ok_ = true;
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t lo = c * kReductionGrain;
      const size_t w = std::min(count - lo, size_t{kReductionGrain});
      // Every base eval must share the layout of the first one; a
      // structurally heterogeneous valuation class keeps the scalar path.
      if (!kernels::PackEvalBlock(&base_evals_[lo], w, base_kind_,
                                  base_groups_.data(), base_groups_.size(),
                                  &base_blocks_[c])) {
        base_blocks_ok_ = false;
        base_blocks_.clear();
        return;
      }
    }
  });
}

double EnumeratedDistance::Distance(const ProvenanceExpression& cand,
                                    const MappingState& state) {
  const DistanceMetrics& metrics = DistanceMetrics::Get();
  metrics.enumerated_calls->Increment();
  if (valuations_.empty()) return 0.0;
  const size_t n = registry_->size();
  // When the cumulative homomorphism leaves every group key of the cached
  // base evaluations untouched (most merges group non-key annotations like
  // users), the projection is the identity and the cached results are fed
  // to VAL-FUNC directly.
  const bool identity_on_groups = IdentityOnGroups(base_evals_[0], state);
  metrics.enumerated_evals->Increment(valuations_.size());
  if (identity_on_groups) {
    metrics.base_eval_reuse->Increment(valuations_.size());
  }
  // Batch path: the candidate lowers once into a flat program and each
  // grain-8 chunk is evaluated in one pass over the program rows by the
  // SIMD kernels; a merge of group keys folds the packed base block onto
  // the merged groups first. Chunk boundaries, per-lane arithmetic and the
  // weighted fold order all replicate the scalar path, so the distance is
  // bit-identical (docs/KERNELS.md); what does not fit falls back, counted
  // by reason.
  EnsureBaseBlocks();
  const BatchPlan plan =
      PlanBatch(cand, *val_func_, state, identity_on_groups, base_blocks_ok_,
                kernels::FallbackReason::kLayoutMismatch, base_kind_,
                base_groups_);
  if (!plan.fallback) {
    const double penalty = val_func_->batch_mismatch_penalty();
    const double total = exec::DeterministicChunkSum(
        pool_.pool(), static_cast<int64_t>(valuations_.size()),
        kReductionGrain, [&](int64_t lo, int64_t hi) {
          thread_local kernels::ValuationBlock block;
          thread_local kernels::BlockEval cand_eval;
          thread_local kernels::BlockEval projected;
          const size_t w = static_cast<size_t>(hi - lo);
          block.Reset(n, w);
          for (size_t l = 0; l < w; ++l) {
            state.TransformLane(valuations_[static_cast<size_t>(lo) + l], l,
                                &block);
          }
          kernels::EvaluateBlock(plan.program, block, &cand_eval);
          const kernels::BlockEval* base =
              &base_blocks_[static_cast<size_t>(lo / kReductionGrain)];
          if (plan.project) {
            kernels::ProjectBlockEval(plan.program.agg, plan.projection,
                                      *base, &projected);
            base = &projected;
          }
          double err[kernels::kMaxLanes];
          kernels::ValFuncBlockErrors(plan.vf_kind, penalty, *base, cand_eval,
                                      err);
          double partial = 0.0;
          for (size_t l = 0; l < w; ++l) {
            partial +=
                valuations_[static_cast<size_t>(lo) + l].weight() * err[l];
          }
          return partial;
        });
    return (total / total_weight_) / max_error_;
  }
  kernels::CountScalarFallback(*plan.fallback);
  const double total = exec::DeterministicSum(
      pool_.pool(), static_cast<int64_t>(valuations_.size()), kReductionGrain,
      [&](int64_t i) {
        const Valuation& v = valuations_[static_cast<size_t>(i)];
        MaterializedValuation transformed =
            state.TransformFrom(v, base_mats_[static_cast<size_t>(i)], n);
        EvalResult summ = cand.Evaluate(transformed);
        if (identity_on_groups) {
          return v.weight() *
                 val_func_->Compute(base_evals_[static_cast<size_t>(i)], summ);
        }
        EvalResult orig = cand.ProjectEvalResult(
            base_evals_[static_cast<size_t>(i)], state.cumulative());
        return v.weight() * val_func_->Compute(orig, summ);
      });
  return (total / total_weight_) / max_error_;
}

int SampledDistance::RequiredSamples(double epsilon, double delta) {
  return static_cast<int>(
      std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon)));
}

SampledDistance::SampledDistance(const ProvenanceExpression* p0,
                                 const AnnotationRegistry* registry,
                                 const ValFunc* val_func, Options options)
    : p0_(p0),
      registry_(registry),
      val_func_(val_func),
      options_(options),
      pool_(options.threads) {
  num_samples_ = options_.num_samples > 0
                     ? options_.num_samples
                     : RequiredSamples(options_.epsilon, options_.delta);
  p0_->CollectAnnotations(&annotations_);
  all_true_eval_ = p0_->Evaluate(MaterializedValuation(registry_->size()));
  max_error_ = val_func_->MaxError(all_true_eval_);
  if (max_error_ <= 0.0) max_error_ = 1.0;
  // Base-side batch program: adopt p₀ into prox::ir (evaluates
  // byte-identically to the source representation) and lower it once for
  // the oracle's lifetime. Constructor runs on the main thread, which is
  // what interning into the fresh pool requires.
  batch_pool_ = std::make_shared<ir::TermPool>();
  p0_ir_ = ir::Adopt(*p0_, batch_pool_);
  const kernels::BatchEvalFacade* base_facade =
      p0_ir_ == nullptr ? nullptr : p0_ir_->AsBatchEval();
  if (base_facade != nullptr) {
    base_kind_ = all_true_eval_.kind();
    if (base_kind_ == EvalResult::Kind::kVector) {
      base_groups_.reserve(all_true_eval_.coords().size());
      for (const auto& c : all_true_eval_.coords()) {
        base_groups_.push_back(c.group);
      }
    }
    base_program_ = base_facade->LowerBatch();
    base_program_ok_ = kernels::ProgramMatchesLayout(
        base_program_, base_kind_, base_groups_.data(), base_groups_.size());
    base_fallback_ = kernels::FallbackReason::kLayoutMismatch;
  }
}

double SampledDistance::Distance(const ProvenanceExpression& cand,
                                 const MappingState& state) {
  const DistanceMetrics& metrics = DistanceMetrics::Get();
  metrics.sampled_calls->Increment();
  metrics.samples->Increment(num_samples_);
  const size_t n = registry_->size();
  // Same identity-on-groups fast path as the enumerated oracle: the group
  // keys of an evaluation are structural (they do not depend on which
  // annotations a valuation cancels), so the all-true evaluation decides
  // for every sample whether ProjectEvalResult is the identity.
  const bool identity_on_groups = IdentityOnGroups(all_true_eval_, state);
  if (identity_on_groups) {
    metrics.base_eval_reuse->Increment(num_samples_);
  }
  // Batch path: both sides of each grain-16 sample chunk are evaluated by
  // the SIMD kernels — the base through the pre-lowered p₀ program (then
  // folded onto the merged groups when a merge touches group keys), the
  // candidate through its own lowering. Sample s's Rng stream is
  // regenerated identically, so the drawn valuations — and the resulting
  // estimate — are bit-identical to the scalar path at any tier and any
  // thread count.
  const BatchPlan plan =
      PlanBatch(cand, *val_func_, state, identity_on_groups, base_program_ok_,
                base_fallback_, base_kind_, base_groups_);
  if (!plan.fallback) {
    const double penalty = val_func_->batch_mismatch_penalty();
    const double total = exec::DeterministicChunkSum(
        pool_.pool(), num_samples_, kSampleGrain,
        [&](int64_t lo, int64_t hi) {
          thread_local kernels::ValuationBlock base_block;
          thread_local kernels::ValuationBlock trans_block;
          thread_local kernels::BlockEval base_eval;
          thread_local kernels::BlockEval cand_eval;
          thread_local kernels::BlockEval projected;
          const size_t w = static_cast<size_t>(hi - lo);
          base_block.Reset(n, w);
          trans_block.Reset(n, w);
          for (size_t l = 0; l < w; ++l) {
            Rng rng(options_.seed, static_cast<uint64_t>(lo) + l);
            std::vector<AnnotationId> cancelled;
            for (AnnotationId a : annotations_) {
              if (rng.Bernoulli(0.5)) cancelled.push_back(a);
            }
            Valuation v(std::move(cancelled));
            base_block.FillLaneSparse(l, v);
            state.TransformLane(v, l, &trans_block);
          }
          kernels::EvaluateBlock(base_program_, base_block, &base_eval);
          kernels::EvaluateBlock(plan.program, trans_block, &cand_eval);
          const kernels::BlockEval* base = &base_eval;
          if (plan.project) {
            kernels::ProjectBlockEval(plan.program.agg, plan.projection,
                                      base_eval, &projected);
            base = &projected;
          }
          double err[kernels::kMaxLanes];
          kernels::ValFuncBlockErrors(plan.vf_kind, penalty, *base, cand_eval,
                                      err);
          double partial = 0.0;
          for (size_t l = 0; l < w; ++l) partial += err[l];
          return partial;
        });
    return (total / num_samples_) / max_error_;
  }
  kernels::CountScalarFallback(*plan.fallback);
  // Stream s of the seed drives sample s alone, so the estimate depends
  // only on (seed, num_samples) — not on thread count or sample order.
  const double total = exec::DeterministicSum(
      pool_.pool(), num_samples_, kSampleGrain, [&](int64_t s) {
        Rng rng(options_.seed, static_cast<uint64_t>(s));
        std::vector<AnnotationId> cancelled;
        for (AnnotationId a : annotations_) {
          if (rng.Bernoulli(0.5)) cancelled.push_back(a);
        }
        Valuation v(std::move(cancelled));
        EvalResult base = p0_->Evaluate(MaterializedValuation(v, n));
        MaterializedValuation transformed = state.Transform(v, n);
        EvalResult summ = cand.Evaluate(transformed);
        if (identity_on_groups) {
          return val_func_->Compute(base, summ);
        }
        EvalResult orig = cand.ProjectEvalResult(base, state.cumulative());
        return val_func_->Compute(orig, summ);
      });
  return (total / num_samples_) / max_error_;
}

}  // namespace prox
