#ifndef PROX_KERNELS_BATCH_EVAL_H_
#define PROX_KERNELS_BATCH_EVAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernels/valuation_block.h"
#include "provenance/agg_value.h"
#include "provenance/annotation.h"
#include "provenance/eval_result.h"
#include "provenance/guard.h"
#include "provenance/homomorphism.h"

namespace prox {
namespace kernels {

/// \brief prox::kernels — batched VAL-FUNC evaluation for the distance
/// hot path (docs/KERNELS.md).
///
/// The oracles spend their time evaluating one candidate expression under
/// many valuations. Instead of walking the expression once per valuation,
/// a candidate is *lowered* once per Distance call into a flat
/// BatchProgram (plain arrays of factor spans and per-row constants), and
/// each reduction chunk of 8/16 valuations is then evaluated in one pass
/// over the program rows — the term walk hoisted to the outer loop, the
/// per-valuation work vectorized across lanes.
///
/// Every kernel is bit-identical to the scalar per-valuation path by
/// construction: vectorization is across *lanes* (valuations), never
/// across a lane's own fold order, so each lane performs exactly the
/// floating-point operation sequence the scalar evaluator performs.
/// SSE4.2/AVX2 selection (common/cpu_features.h) therefore changes speed
/// only, never results; `PROX_SIMD=0` proves it.

/// One monomial as a borrowed factor span. Points into the expression's
/// TermPool arena; valid while the expression lives unmutated.
struct MonoSpan {
  const AnnotationId* data = nullptr;
  uint32_t len = 0;
};

/// Aggregate fold flavor, hoisted out of the per-row FoldAggregate switch
/// (kSum/kCount/kAvg all add; the contribution is pre-resolved per row).
enum class AggFold : uint8_t { kAdd, kMax, kMin };

/// One lowered aggregate term row. The guard comparison collapses to two
/// precomputed booleans: the guard value is `scalar` when the body
/// monomial is true and 0.0 otherwise, so the comparison outcome only
/// depends on the body bit.
struct AggBatchRow {
  MonoSpan mono;
  MonoSpan guard_mono;
  uint8_t has_guard = 0;
  uint8_t guard_if_true = 0;   ///< compare(scalar, op, threshold)
  uint8_t guard_if_false = 0;  ///< compare(0.0, op, threshold)
  uint32_t group = 0;          ///< dense group slot index
  double contribution = 0.0;   ///< kCount ? value.count : value.value
  double count_add = 0.0;      ///< value.count
};

/// One lowered DDP transition row; user rows carry their resolved cost.
struct DdpBatchRow {
  uint8_t user = 1;
  uint8_t nonzero = 1;
  AnnotationId cost_var = kNoAnnotation;
  double cost = 0.0;
  MonoSpan db;
};

struct PolyBatchRow {
  MonoSpan mono;
  uint64_t coeff = 0;
};

/// \brief A candidate expression lowered to flat arrays — everything the
/// batch kernels need, with virtual dispatch, id resolution and guard
/// comparisons paid once per Distance call instead of once per valuation.
///
/// Borrowed pointers (factor spans, the group array) reference the source
/// expression; the program must not outlive it.
struct BatchProgram {
  enum class Shape : uint8_t { kAggregate, kDdp, kPolynomial };

  Shape shape = Shape::kAggregate;
  /// Result kind: kScalar for polynomials and group-less aggregates,
  /// kVector for grouped aggregates, kCostBool for DDP.
  EvalResult::Kind kind = EvalResult::Kind::kScalar;

  // Aggregate rows (canonical row order — the scalar fold order).
  AggKind agg = AggKind::kSum;
  AggFold fold = AggFold::kAdd;
  std::vector<AggBatchRow> agg_rows;
  const AnnotationId* groups = nullptr;  ///< sorted; borrowed
  size_t num_groups = 0;

  // DDP rows, flattened with per-execution offsets (canonical order).
  std::vector<DdpBatchRow> ddp_rows;
  std::vector<uint32_t> ddp_exec_off;  ///< num_executions + 1 offsets

  // Polynomial rows (canonical order).
  std::vector<PolyBatchRow> poly_rows;
};

/// \brief The SoA result of evaluating a BatchProgram over a
/// ValuationBlock: lane `l`'s EvalResult, in columns.
///
/// Vector results store `values[g * stride + lane]` over the program's
/// group array; scalar results use `values[lane]`; cost/bool results use
/// `costs[lane]` and the `feasible` byte mask. Counts mirror EvalResult's
/// auxiliary coordinate counts (populated for vector results).
struct BlockEval {
  EvalResult::Kind kind = EvalResult::Kind::kScalar;
  size_t width = 0;
  size_t stride = 8;
  const AnnotationId* groups = nullptr;  ///< borrowed from the program
  size_t num_groups = 0;
  std::vector<double> values;
  std::vector<double> counts;
  std::vector<double> costs;
  std::array<uint8_t, kMaxLanes> feasible{};

  /// Reassembles lane `lane` as a plain EvalResult (tests, fallbacks).
  EvalResult Extract(size_t lane) const;
};

/// The batched VAL-FUNC reductions; kNone marks a ValFunc with no
/// bit-identical batch counterpart (oracles then keep the scalar path).
enum class ValFuncBatchKind : uint8_t {
  kNone,
  kL1,            ///< AbsoluteDifference
  kL2,            ///< Euclidean
  kDisagreement,  ///< Disagreement
  kDdp,           ///< DdpDifference
};

/// Replicates Guard::Evaluate's comparison step (`value OP threshold`) —
/// used by program lowering to fold a guard into two booleans.
inline bool EvalCompare(double value, CompareOp op, double threshold) {
  switch (op) {
    case CompareOp::kGt:
      return value > threshold;
    case CompareOp::kGe:
      return value >= threshold;
    case CompareOp::kLt:
      return value < threshold;
    case CompareOp::kLe:
      return value <= threshold;
    case CompareOp::kEq:
      return value == threshold;
    case CompareOp::kNe:
      return value != threshold;
  }
  return false;
}

/// \brief Implemented by expressions that can lower themselves into a
/// BatchProgram — the prox::ir flat classes. Exposed through
/// ProvenanceExpression::AsBatchEval() so the oracles gate on capability,
/// not on concrete types.
class BatchEvalFacade {
 public:
  virtual ~BatchEvalFacade() = default;

  /// Lowers the expression. O(terms); call once per Distance call and
  /// amortize over the valuation set.
  virtual BatchProgram LowerBatch() const = 0;
};

/// Evaluates `program` under every lane of `block`, dispatching to the
/// active SIMD tier (common/cpu_features.h). Bit-identical across tiers.
void EvaluateBlock(const BatchProgram& program, const ValuationBlock& block,
                   BlockEval* out);

/// Computes the per-lane VAL-FUNC error `err[l] = valfunc(base lane l,
/// cand lane l)` for lanes [0, cand.width). `base` and `cand` must have
/// the same kind, stride and (for vector results) group layout — the
/// oracles validate this once per call via MatchesLayout. `ddp_max_error`
/// is DdpDifferenceValFunc's feasibility-mismatch penalty (ignored for
/// other kinds).
void ValFuncBlockErrors(ValFuncBatchKind kind, double ddp_max_error,
                        const BlockEval& base, const BlockEval& cand,
                        double* err);

/// True when `e`'s shape equals the layout (kind, and for vectors the
/// exact sorted group-key array) — the precondition for feeding packed
/// base results and a candidate's BlockEval to ValFuncBlockErrors.
bool EvalMatchesLayout(const EvalResult& e, EvalResult::Kind kind,
                       const AnnotationId* groups, size_t num_groups);

/// Same check against a lowered program's output layout.
bool ProgramMatchesLayout(const BatchProgram& p, EvalResult::Kind kind,
                          const AnnotationId* groups, size_t num_groups);

/// Packs `count` (<= kMaxLanes) EvalResults into a BlockEval with the
/// given layout, validating each against it. Returns false (out
/// unspecified) on any mismatch. `groups` is borrowed by the result.
bool PackEvalBlock(const EvalResult* evals, size_t count,
                   EvalResult::Kind kind, const AnnotationId* groups,
                   size_t num_groups, BlockEval* out);

/// \brief The group layout a homomorphism folds a vector layout onto —
/// the aggregate projection of Example 5.2.1, resolved once per Distance
/// call when a merge touches group keys.
struct GroupProjection {
  std::vector<AnnotationId> groups;  ///< sorted unique images of the source
  std::vector<uint32_t> slot;        ///< source group g -> index in groups
  std::vector<uint8_t> first;        ///< g is the lowest source of its slot

  /// Projects the sorted source layout `source[0..num_source)` through h.
  void Build(const AnnotationId* source, size_t num_source,
             const Homomorphism& h);

  /// True when every source group maps to kNoAnnotation: the projected
  /// result is a scalar, which this layout does not represent.
  bool CollapsesToScalar() const {
    return groups.size() == 1 && groups[0] == kNoAnnotation;
  }
};

/// Folds `base` (a vector BlockEval over the projection's source layout)
/// onto `proj.groups`, lane by lane bit-identical to
/// ProjectAggregateEvalResult(agg, lane, h): source groups fold in
/// ascending order; AVG sums value·count and count, then divides (0.0 on
/// a zero count); every other kind folds with FoldAggregate and its
/// first-flag, and the projected count stays 0.0. `out` borrows
/// `proj.groups`.
void ProjectBlockEval(AggKind agg, const GroupProjection& proj,
                      const BlockEval& base, BlockEval* out);

}  // namespace kernels
}  // namespace prox

#endif  // PROX_KERNELS_BATCH_EVAL_H_
