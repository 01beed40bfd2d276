#ifndef PROX_INGEST_MAINTAINER_H_
#define PROX_INGEST_MAINTAINER_H_

#include <cstdint>

#include "common/status.h"
#include "ingest/delta.h"
#include "service/session.h"
#include "service/summarization_service.h"

namespace prox {
namespace ingest {

/// Warm-vs-cold policy of the maintainer (docs/INGEST.md).
struct MaintainOptions {
  /// Fall back to a full re-run when the expression grew by more than
  /// this fraction since the last summarize: past that point the previous
  /// mapping state explains too little of the data for a warm
  /// continuation to stay competitive, and a fresh greedy search is both
  /// cheaper to reason about and no slower.
  double max_delta_fraction = 0.25;
};

/// What one maintenance re-summarize did.
struct MaintainReport {
  bool warm = false;            ///< warm-started (vs full re-run)
  double delta_fraction = 0.0;  ///< growth fraction that drove the choice
  int replayed_merges = 0;      ///< merges replayed from the seed (warm)
  int continuation_steps = 0;   ///< greedy steps run after the replay
  int64_t final_size = 0;
  double final_distance = 0.0;
};

/// \brief Incremental summary maintenance over one ProxSession: forwards
/// delta batches into the session and decides, per re-summarize request,
/// between warm-starting from the previous outcome and falling back to a
/// full re-run once the accumulated delta fraction crosses the threshold.
///
/// Not internally synchronized: the maintainer's own bookkeeping
/// (delta-fraction counters) and the session it drives need external
/// serialization — the engine facade serializes calls under its engine
/// mutex; offline tools are single-threaded. Session outcomes are read as published
/// `shared_ptr<const SummaryOutcome>` copies, never raw pointers.
class SummaryMaintainer {
 public:
  explicit SummaryMaintainer(ProxSession* session,
                             MaintainOptions options = MaintainOptions());

  /// Applies one batch via ProxSession::Ingest and accrues its growth
  /// into the delta fraction.
  Result<ApplyReceipt> Ingest(const DeltaBatch& batch);

  /// Expression growth since the last successful re-summarize, as a
  /// fraction of the size the last summary was computed over (0.0 before
  /// any ingest).
  double delta_fraction() const;

  /// Re-summarizes the session's selection: warm when a previous outcome
  /// exists and delta_fraction() <= max_delta_fraction, cold otherwise
  /// (counted in `prox_warmstart_fallback_total`). Resets the delta
  /// accounting on success.
  Result<MaintainReport> Resummarize(const SummarizationRequest& request);

 private:
  ProxSession* session_;
  MaintainOptions options_;
  /// provenance Size() the last summary was computed over (0 = never).
  int64_t summarized_size_ = 0;
  /// provenance Size() after the most recent ingest (0 = none yet).
  int64_t current_size_ = 0;
};

}  // namespace ingest
}  // namespace prox

#endif  // PROX_INGEST_MAINTAINER_H_
