#include "service/evaluator_service.h"

#include "obs/trace.h"
#include "service/service_metrics.h"

namespace prox {

Result<Valuation> EvaluatorService::ResolveAssignment(
    const Assignment& assignment, const AnnotationRegistry& reg) const {
  std::vector<AnnotationId> cancelled;

  for (const std::string& name : assignment.false_annotations) {
    auto found = reg.Find(name);
    if (!found.ok()) {
      // An original ingested after the summarizing run built its overlay:
      // the summary does not mention it, so cancelling it changes nothing.
      if (&reg != dataset_->registry.get() &&
          dataset_->registry->Find(name).ok()) {
        continue;
      }
      return found.status();
    }
    cancelled.push_back(found.value());
  }

  for (const auto& [attr_name, value] : assignment.false_attributes) {
    bool attr_known = false;
    for (const auto& [domain, table] : dataset_->ctx.tables) {
      auto attr = table.FindAttribute(attr_name);
      if (!attr.ok()) continue;
      attr_known = true;
      for (AnnotationId a : reg.AnnotationsInDomain(domain)) {
        uint32_t row = reg.entity_row(a);
        if (row == kNoEntity) continue;
        if (table.ValueNameOf(row, attr.value()) == value) {
          cancelled.push_back(a);
        }
      }
    }
    if (!attr_known) {
      return Status::NotFound("unknown attribute: " + attr_name);
    }
  }
  return Valuation(std::move(cancelled), "assignment");
}

Result<EvaluationReport> EvaluatorService::Evaluate(
    const ProvenanceExpression& expr, const MappingState* state,
    const Assignment& assignment) const {
  static obs::Counter* requests = ServiceRequests("evaluate");
  static obs::Histogram* duration =
      ServiceDuration("prox_service_evaluate_duration_nanos");
  requests->Increment();
  obs::TraceSpan span("service.evaluate");
  Result<EvaluationReport> result = EvaluateImpl(expr, state, assignment);
  duration->Observe(static_cast<double>(span.Close()));
  if (!result.ok()) {
    ServiceErrors("evaluate", result.status().code())->Increment();
  }
  return result;
}

Result<EvaluationReport> EvaluatorService::EvaluateImpl(
    const ProvenanceExpression& expr, const MappingState* state,
    const Assignment& assignment) const {
  const AnnotationRegistry& registry =
      state != nullptr ? state->registry() : *dataset_->registry;
  Valuation base;
  PROX_ASSIGN_OR_RETURN(base, ResolveAssignment(assignment, registry));

  const size_t n = registry.size();
  MaterializedValuation mat =
      state != nullptr ? state->Transform(base, n)
                       : MaterializedValuation(base, n);

  obs::TraceSpan eval_span("evaluate.apply");
  EvalResult result = expr.Evaluate(mat);
  const int64_t nanos = eval_span.Close();

  EvaluationReport report;
  report.eval_nanos = nanos;
  if (result.kind() == EvalResult::Kind::kVector) {
    for (const auto& coord : result.coords()) {
      std::string label = coord.group == kNoAnnotation
                              ? "*"
                              : registry.name(coord.group);
      report.rows.emplace_back(std::move(label), coord.value);
    }
  } else if (result.kind() == EvalResult::Kind::kScalar) {
    report.rows.emplace_back("*", result.scalar());
  } else {
    report.rows.emplace_back(result.feasible() ? "feasible" : "infeasible",
                             result.cost());
  }
  report.result = std::move(result);
  return report;
}

}  // namespace prox
