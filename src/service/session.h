#ifndef PROX_SERVICE_SESSION_H_
#define PROX_SERVICE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "ingest/delta.h"
#include "ingest/ingest_log.h"
#include "service/evaluator_service.h"
#include "service/selection_service.h"
#include "service/summarization_service.h"

namespace prox {

/// \brief A PROX user session: owns a dataset and drives the three-view
/// workflow of the web UI (Chapter 7) — select provenance, summarize it,
/// then inspect the summary's groups and evaluate assignments on it.
///
/// **Thread-safety contract.** Not internally synchronized: one member
/// call at a time. A concurrent caller serializes its calls itself —
/// engine::Engine runs every call on its session under its engine mutex
/// (engine/engine.h) — and a single-threaded caller needs nothing.
/// Summarization runs are request-pure (service/summarization_service.h):
/// each registers its annotations in its own overlay registry and only
/// reads the dataset.
///
/// The selection and the latest summary outcome are handed out as
/// `shared_ptr<const ...>`: a caller that keeps the copy keeps a
/// consistent view of it, whatever this session computes after.
class ProxSession {
 public:
  /// Takes ownership of the dataset.
  explicit ProxSession(Dataset dataset);

  /// Selection view: restricts the provenance and stores it as the
  /// summarization input; drops the latest outcome. Returns the
  /// selected expression's size.
  Result<int64_t> Select(const SelectionCriteria& criteria);

  /// Skips selection: uses the whole dataset provenance.
  int64_t SelectAll();

  /// Streaming ingest: validates and applies one delta batch to the
  /// dataset (monotone growth only), refreshes the selection to the grown
  /// provenance (a filtered selection is reset to select-all; callers
  /// re-Select if they need a narrower view), and chains the memoized
  /// dataset fingerprint with the batch digest. The published summary
  /// outcome is kept — it seeds the next warm Resummarize.
  Result<ingest::ApplyReceipt> Ingest(const ingest::DeltaBatch& batch);

  /// Summarization view: runs Algorithm 1 on the current selection,
  /// keeps the outcome as the latest and returns it.
  Result<std::shared_ptr<const SummaryOutcome>> Summarize(
      const SummarizationRequest& request);

  /// Re-runs summarization warm-started from the latest outcome's
  /// mapping state (docs/INGEST.md): the recorded merges are replayed
  /// instead of re-searched and the greedy loop continues from there.
  /// Requires a selection and a latest outcome; on failure that outcome
  /// is kept.
  Result<std::shared_ptr<const SummaryOutcome>> Resummarize(
      const SummarizationRequest& request);

  /// The latest summary outcome; nullptr before the first one (and after
  /// a Select).
  std::shared_ptr<const SummaryOutcome> outcome() const { return outcome_; }

  /// The current selection; nullptr before the first Select/SelectAll.
  std::shared_ptr<const ProvenanceExpression> selection() const {
    return selection_;
  }

  /// The dataset's content fingerprint (service/fingerprint.h), memoized:
  /// the slow FNV re-hash runs at most once per session, and after that
  /// every ingest advances the value by digest chaining instead of a
  /// whole-dataset re-hash.
  std::string fingerprint() const;

  /// Sequence number the next ingested batch must carry.
  uint64_t next_ingest_sequence() const;

  /// Current dataset provenance Size().
  int64_t provenance_size() const;

  /// Summary view, groups subview: one line per summary annotation with
  /// its member names (Figure 7.5).
  std::vector<std::string> DescribeGroups() const;

  /// Summary view, expression subview (Figure 7.8).
  Result<std::string> SummaryExpression() const;

  /// Evaluates an assignment on the summary (approximate provisioning).
  Result<EvaluationReport> EvaluateOnSummary(
      const Assignment& assignment) const;

  /// Evaluates the same assignment on the *original* selection, for
  /// comparing accuracy and usage time (Figures 7.9 / 7.10 show both).
  Result<EvaluationReport> EvaluateOnSelection(
      const Assignment& assignment) const;

  const Dataset& dataset() const { return dataset_; }

 private:
  Dataset dataset_;
  SelectionService selection_service_;
  SummarizationService summarization_service_;
  EvaluatorService evaluator_service_;
  ingest::IngestLog ingest_log_;

  std::shared_ptr<const ProvenanceExpression> selection_;
  std::shared_ptr<const SummaryOutcome> outcome_;
  /// Memoized dataset fingerprint ("" = not computed yet). Advanced by
  /// Ingest via digest chaining; never recomputed once set.
  mutable std::string fingerprint_memo_;
};

}  // namespace prox

#endif  // PROX_SERVICE_SESSION_H_
