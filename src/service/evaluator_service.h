#ifndef PROX_SERVICE_EVALUATOR_SERVICE_H_
#define PROX_SERVICE_EVALUATOR_SERVICE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "datasets/dataset.h"
#include "summarize/mapping_state.h"

namespace prox {

/// A provisioning assignment the user specifies in the summary view
/// (Figures 7.9 / 7.10): annotations to set false by name, and/or
/// attribute values whose carriers are all set false ("all Male users").
struct Assignment {
  std::vector<std::string> false_annotations;
  /// (attribute name, value) pairs, matched across all entity tables.
  std::vector<std::pair<std::string, std::string>> false_attributes;
};

/// The evaluation result the UI presents: one row per group (movie) with
/// its aggregated value, plus the wall time in nanoseconds (the UI reports
/// evaluation times in nanoseconds).
struct EvaluationReport {
  EvalResult result;
  std::vector<std::pair<std::string, double>> rows;
  int64_t eval_nanos = 0;
};

/// \brief The PROX evaluator (provisioning) service: applies hypothetical
/// truth valuations to an expression — original or summarized — and
/// reports the resulting aggregates, without re-running the application
/// (Section 2.3).
class EvaluatorService {
 public:
  explicit EvaluatorService(const Dataset* dataset) : dataset_(dataset) {}

  /// Builds the base valuation an Assignment denotes (over original
  /// annotations), resolving names in `registry`: the dataset's, or the
  /// overlay of the run whose summary is evaluated. Through an overlay, a
  /// name only the dataset knows (an original ingested after that run) is
  /// skipped: the summary does not mention it.
  Result<Valuation> ResolveAssignment(const Assignment& assignment,
                                      const AnnotationRegistry& registry) const;

  /// Evaluates `expr` under `assignment`. When `state` is given (the
  /// expression is a summary), the valuation is first transformed into
  /// v^{h,φ} so summary annotations receive their combined truth values —
  /// approximate provisioning on the summary — and names resolve in the
  /// state's registry (the summarizing run's overlay, annotation.h).
  /// Reads only; concurrent calls are safe while the dataset does not
  /// change. Instrumented: counted in
  /// `prox_service_requests_total` / `prox_service_errors_total`
  /// (service="evaluate"), timed by the "service.evaluate" trace span and
  /// the `prox_service_evaluate_duration_nanos` histogram; the inner
  /// expression evaluation is the "evaluate.apply" span, whose duration is
  /// EvaluationReport::eval_nanos.
  Result<EvaluationReport> Evaluate(const ProvenanceExpression& expr,
                                    const MappingState* state,
                                    const Assignment& assignment) const;

 private:
  Result<EvaluationReport> EvaluateImpl(const ProvenanceExpression& expr,
                                        const MappingState* state,
                                        const Assignment& assignment) const;

  const Dataset* dataset_;
};

}  // namespace prox

#endif  // PROX_SERVICE_EVALUATOR_SERVICE_H_
