#include "kernels/batch_eval.h"

#include <algorithm>
#include <utility>

#include "common/cpu_features.h"
#include "kernels/metrics.h"
#include "kernels/tier_entry.h"

namespace prox {
namespace kernels {

EvalResult BlockEval::Extract(size_t lane) const {
  switch (kind) {
    case EvalResult::Kind::kScalar:
      return EvalResult::Scalar(values[lane]);
    case EvalResult::Kind::kVector: {
      std::vector<EvalResult::Coord> coords;
      coords.reserve(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        coords.push_back(EvalResult::Coord{groups[g], values[g * stride + lane],
                                           counts[g * stride + lane]});
      }
      return EvalResult::Vector(std::move(coords));
    }
    case EvalResult::Kind::kCostBool:
      return EvalResult::CostBool(costs[lane], feasible[lane] != 0);
  }
  return EvalResult::Scalar(0.0);
}

void EvaluateBlock(const BatchProgram& program, const ValuationBlock& block,
                   BlockEval* out) {
  const common::SimdTier tier = common::ActiveSimdTier();
  PublishSimdTier(static_cast<int>(tier));
  switch (tier) {
    case common::SimdTier::kAvx2:
      internal::EvalBatchAvx2(program, block, out);
      break;
    case common::SimdTier::kSse42:
      internal::EvalBatchSse42(program, block, out);
      break;
    case common::SimdTier::kScalar:
      internal::EvalBatchScalar(program, block, out);
      break;
  }
  CountBatchEvals(block.width());
}

void ValFuncBlockErrors(ValFuncBatchKind kind, double ddp_max_error,
                        const BlockEval& base, const BlockEval& cand,
                        double* err) {
  switch (common::ActiveSimdTier()) {
    case common::SimdTier::kAvx2:
      internal::ValFuncErrorsAvx2(kind, ddp_max_error, base, cand, err);
      break;
    case common::SimdTier::kSse42:
      internal::ValFuncErrorsSse42(kind, ddp_max_error, base, cand, err);
      break;
    case common::SimdTier::kScalar:
      internal::ValFuncErrorsScalar(kind, ddp_max_error, base, cand, err);
      break;
  }
}

bool EvalMatchesLayout(const EvalResult& e, EvalResult::Kind kind,
                       const AnnotationId* groups, size_t num_groups) {
  if (e.kind() != kind) return false;
  if (kind != EvalResult::Kind::kVector) return true;
  const std::vector<EvalResult::Coord>& coords = e.coords();
  if (coords.size() != num_groups) return false;
  for (size_t g = 0; g < num_groups; ++g) {
    if (coords[g].group != groups[g]) return false;
  }
  return true;
}

bool ProgramMatchesLayout(const BatchProgram& p, EvalResult::Kind kind,
                          const AnnotationId* groups, size_t num_groups) {
  if (p.kind != kind) return false;
  if (kind != EvalResult::Kind::kVector) return true;
  if (p.num_groups != num_groups) return false;
  for (size_t g = 0; g < num_groups; ++g) {
    if (p.groups[g] != groups[g]) return false;
  }
  return true;
}

bool PackEvalBlock(const EvalResult* evals, size_t count,
                   EvalResult::Kind kind, const AnnotationId* groups,
                   size_t num_groups, BlockEval* out) {
  if (count > kMaxLanes) return false;
  const size_t stride = count <= 8 ? 8 : 16;
  out->kind = kind;
  out->width = count;
  out->stride = stride;
  out->feasible.fill(0);
  if (kind == EvalResult::Kind::kVector) {
    out->groups = groups;
    out->num_groups = num_groups;
    out->values.assign(num_groups * stride, 0.0);
    out->counts.assign(num_groups * stride, 0.0);
    out->costs.clear();
  } else {
    out->groups = nullptr;
    out->num_groups = 0;
    out->values.assign(kind == EvalResult::Kind::kScalar ? stride : 0, 0.0);
    out->counts.clear();
    out->costs.assign(kind == EvalResult::Kind::kCostBool ? stride : 0, 0.0);
  }
  for (size_t i = 0; i < count; ++i) {
    const EvalResult& e = evals[i];
    if (!EvalMatchesLayout(e, kind, groups, num_groups)) return false;
    switch (kind) {
      case EvalResult::Kind::kScalar:
        out->values[i] = e.scalar();
        break;
      case EvalResult::Kind::kVector: {
        const std::vector<EvalResult::Coord>& coords = e.coords();
        for (size_t g = 0; g < num_groups; ++g) {
          out->values[g * stride + i] = coords[g].value;
          out->counts[g * stride + i] = coords[g].count;
        }
        break;
      }
      case EvalResult::Kind::kCostBool:
        out->costs[i] = e.cost();
        out->feasible[i] = e.feasible() ? 0xFF : 0x00;
        break;
    }
  }
  return true;
}

void GroupProjection::Build(const AnnotationId* source, size_t num_source,
                            const Homomorphism& h) {
  slot.resize(num_source);
  first.assign(num_source, 0);
  groups.clear();
  for (size_t g = 0; g < num_source; ++g) groups.push_back(h.Map(source[g]));
  std::sort(groups.begin(), groups.end());
  groups.erase(std::unique(groups.begin(), groups.end()), groups.end());
  std::vector<uint8_t> taken(groups.size(), 0);
  for (size_t g = 0; g < num_source; ++g) {
    const size_t s = static_cast<size_t>(
        std::lower_bound(groups.begin(), groups.end(), h.Map(source[g])) -
        groups.begin());
    slot[g] = static_cast<uint32_t>(s);
    first[g] = taken[s] == 0 ? 1 : 0;
    taken[s] = 1;
  }
}

void ProjectBlockEval(AggKind agg, const GroupProjection& proj,
                      const BlockEval& base, BlockEval* out) {
  const size_t stride = base.stride;
  const size_t width = base.width;
  const size_t num_out = proj.groups.size();
  out->kind = EvalResult::Kind::kVector;
  out->width = width;
  out->stride = stride;
  out->groups = proj.groups.data();
  out->num_groups = num_out;
  out->values.assign(num_out * stride, 0.0);
  out->counts.assign(num_out * stride, 0.0);
  out->costs.clear();
  out->feasible.fill(0);
  // The same per-coordinate steps as ProjectAggregateEvalResult, with the
  // lane loop innermost. A slot's first-flag is structural (every source
  // coordinate marks its slot seen), so it is resolved per source group.
  for (size_t g = 0; g < proj.slot.size(); ++g) {
    const double* value = &base.values[g * stride];
    const double* count = &base.counts[g * stride];
    double* acc = &out->values[proj.slot[g] * stride];
    double* acc_count = &out->counts[proj.slot[g] * stride];
    if (agg == AggKind::kAvg) {
      // Coordinates carry averages; merge as count-weighted sums.
      for (size_t l = 0; l < width; ++l) {
        acc[l] += value[l] * count[l];
        acc_count[l] += count[l];
      }
    } else {
      // FoldAggregate's contribution is the coordinate value for every
      // non-AVG kind (COUNT reads it through AggValue::count).
      const bool first = proj.first[g] != 0;
      for (size_t l = 0; l < width; ++l) {
        acc[l] = FoldAggregate(agg, acc[l], AggValue{value[l], value[l]},
                               first);
      }
    }
  }
  if (agg != AggKind::kAvg) return;
  for (size_t s = 0; s < num_out; ++s) {
    double* acc = &out->values[s * stride];
    const double* acc_count = &out->counts[s * stride];
    for (size_t l = 0; l < width; ++l) {
      acc[l] = acc_count[l] > 0 ? acc[l] / acc_count[l] : 0.0;
    }
  }
}

}  // namespace kernels
}  // namespace prox
