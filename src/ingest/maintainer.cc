#include "ingest/maintainer.h"

#include <chrono>

#include "ingest/ingest_metrics.h"
#include "obs/trace.h"

namespace prox {
namespace ingest {

SummaryMaintainer::SummaryMaintainer(ProxSession* session,
                                     MaintainOptions options)
    : session_(session), options_(options) {}

Result<ApplyReceipt> SummaryMaintainer::Ingest(const DeltaBatch& batch) {
  // Pin the size the current summary was computed over before the dataset
  // grows: a summary may have been produced directly through the session
  // (e.g. the serve summarize route) without this maintainer seeing it.
  if (summarized_size_ == 0 && session_->outcome() != nullptr) {
    summarized_size_ = session_->provenance_size();
  }
  PROX_ASSIGN_OR_RETURN(ApplyReceipt receipt, session_->Ingest(batch));
  current_size_ = receipt.expression_size;
  return receipt;
}

double SummaryMaintainer::delta_fraction() const {
  if (summarized_size_ <= 0 || current_size_ <= 0) return 0.0;
  const int64_t growth = current_size_ - summarized_size_;
  if (growth <= 0) return 0.0;
  return static_cast<double>(growth) / static_cast<double>(summarized_size_);
}

Result<MaintainReport> SummaryMaintainer::Resummarize(
    const SummarizationRequest& request) {
  obs::TraceSpan span("ingest.resummarize");
  const auto start = std::chrono::steady_clock::now();

  MaintainReport report;
  report.delta_fraction = delta_fraction();
  const bool have_prior = session_->outcome() != nullptr;
  report.warm =
      have_prior && report.delta_fraction <= options_.max_delta_fraction;

  Result<std::shared_ptr<const SummaryOutcome>> run =
      report.warm ? session_->Resummarize(request)
                  : session_->Summarize(request);
  if (!run.ok()) return run.status();
  if (!report.warm && have_prior) {
    // A prior summary existed but the delta outgrew the warm threshold:
    // that is the fall-back the metric tracks (a first-ever summarize is
    // not a fall-back).
    WarmstartFallbacks()->Increment();
  }

  const SummaryOutcome& outcome = *run.value();
  report.replayed_merges = outcome.warm_replayed_merges;
  report.continuation_steps = static_cast<int>(outcome.steps.size());
  report.final_size = outcome.final_size;
  report.final_distance = outcome.final_distance;

  summarized_size_ = session_->provenance_size();
  current_size_ = summarized_size_;

  const auto elapsed = std::chrono::steady_clock::now() - start;
  WarmstartResummarizeDuration()->Observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
          .count()));
  return report;
}

}  // namespace ingest
}  // namespace prox
