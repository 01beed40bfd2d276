#include "service/session.h"

#include "service/fingerprint.h"

namespace prox {

ProxSession::ProxSession(Dataset dataset)
    : dataset_(std::move(dataset)),
      selection_service_(&dataset_,
                         dataset_.domains.count("movie") ? "movie"
                         : dataset_.domains.count("page") ? "page"
                                                          : dataset_.domains
                                                                .begin()
                                                                ->first),
      summarization_service_(&dataset_),
      evaluator_service_(&dataset_),
      ingest_log_(&dataset_) {}

Result<int64_t> ProxSession::Select(const SelectionCriteria& criteria) {
  PROX_ASSIGN_OR_RETURN(selection_, selection_service_.Select(criteria));
  outcome_.reset();
  return selection_->Size();
}

int64_t ProxSession::SelectAll() {
  selection_ = dataset_.provenance->Clone();
  outcome_.reset();
  return selection_->Size();
}

Result<std::shared_ptr<const SummaryOutcome>> ProxSession::Summarize(
    const SummarizationRequest& request) {
  if (selection_ == nullptr) {
    return Status::FailedPrecondition("no provenance selected yet");
  }
  PROX_ASSIGN_OR_RETURN(
      SummaryOutcome outcome,
      summarization_service_.Summarize(*selection_, request));
  outcome_ = std::make_shared<const SummaryOutcome>(std::move(outcome));
  return outcome_;
}

Result<std::shared_ptr<const SummaryOutcome>> ProxSession::Resummarize(
    const SummarizationRequest& request) {
  if (selection_ == nullptr) {
    return Status::FailedPrecondition("no provenance selected yet");
  }
  if (outcome_ == nullptr) {
    return Status::FailedPrecondition(
        "no previous summary to warm-start from");
  }
  // On failure the previous outcome stays the latest.
  PROX_ASSIGN_OR_RETURN(
      SummaryOutcome outcome,
      summarization_service_.Resummarize(*selection_, request, *outcome_));
  outcome_ = std::make_shared<const SummaryOutcome>(std::move(outcome));
  return outcome_;
}

Result<ingest::ApplyReceipt> ProxSession::Ingest(
    const ingest::DeltaBatch& batch) {
  // Pin the pre-ingest fingerprint before the dataset grows, so chaining
  // always starts from the value cold requests were keyed under.
  if (fingerprint_memo_.empty()) {
    fingerprint_memo_ = ComputeDatasetFingerprint(dataset_);
  }
  PROX_ASSIGN_OR_RETURN(ingest::ApplyReceipt receipt,
                        ingest_log_.Append(batch));
  fingerprint_memo_ = ingest::ChainFingerprint(fingerprint_memo_,
                                               receipt.digest);
  if (selection_ != nullptr) {
    // The grown provenance replaces the selection wholesale; narrower
    // selections don't survive ingest (documented in the header).
    selection_ = dataset_.provenance->Clone();
  }
  return receipt;
}

std::string ProxSession::fingerprint() const {
  if (fingerprint_memo_.empty()) {
    fingerprint_memo_ = ComputeDatasetFingerprint(dataset_);
  }
  return fingerprint_memo_;
}

uint64_t ProxSession::next_ingest_sequence() const {
  return ingest_log_.next_sequence();
}

int64_t ProxSession::provenance_size() const {
  return dataset_.provenance->Size();
}

std::vector<std::string> ProxSession::DescribeGroups() const {
  std::vector<std::string> out;
  if (outcome_ == nullptr) return out;
  const AnnotationRegistry& reg = outcome_->registry();
  for (const auto& [summary, members] : outcome_->state.summaries()) {
    if (reg.name(summary).rfind("~scratch", 0) == 0) continue;
    std::string line = reg.name(summary) + " (size " +
                       std::to_string(members.size()) + "): ";
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) line += ", ";
      line += reg.name(members[i]);
    }
    out.push_back(std::move(line));
  }
  return out;
}

Result<std::string> ProxSession::SummaryExpression() const {
  if (outcome_ == nullptr) {
    return Status::FailedPrecondition("no summary computed yet");
  }
  return outcome_->summary->ToString(outcome_->registry());
}

Result<EvaluationReport> ProxSession::EvaluateOnSummary(
    const Assignment& assignment) const {
  if (outcome_ == nullptr) {
    return Status::FailedPrecondition("no summary computed yet");
  }
  return evaluator_service_.Evaluate(*outcome_->summary, &outcome_->state,
                                     assignment);
}

Result<EvaluationReport> ProxSession::EvaluateOnSelection(
    const Assignment& assignment) const {
  if (selection_ == nullptr) {
    return Status::FailedPrecondition("no provenance selected yet");
  }
  return evaluator_service_.Evaluate(*selection_, nullptr, assignment);
}

}  // namespace prox
