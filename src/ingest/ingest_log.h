#ifndef PROX_INGEST_INGEST_LOG_H_
#define PROX_INGEST_INGEST_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "datasets/dataset.h"
#include "ingest/delta.h"

namespace prox {
namespace ingest {

/// \brief The append path of the ingest subsystem: an ordered log of
/// applied delta batches over one live Dataset.
///
/// The log enforces the stream contract (docs/INGEST.md): batches carry
/// 1-based sequence numbers, gaps and replays are rejected with a typed
/// kSequence error, and each accepted batch is applied atomically via
/// ApplyBatch. The chained digest over accepted batches is the
/// delta-aware half of the serve-layer cache fingerprint.
///
/// Not internally synchronized — same contract as the Dataset it mutates
/// (engine::Engine serializes every session call under its engine
/// mutex).
class IngestLog {
 public:
  explicit IngestLog(Dataset* dataset) : dataset_(dataset) {}

  IngestLog(const IngestLog&) = delete;
  IngestLog& operator=(const IngestLog&) = delete;

  /// Sequence number the next batch must carry (1 for a fresh log).
  uint64_t next_sequence() const { return next_sequence_; }

  /// Receipts of every accepted batch, in stream order.
  const std::vector<ApplyReceipt>& receipts() const { return receipts_; }

  /// Validates and applies one batch. On success the receipt is recorded
  /// and the expected sequence advances; on failure the dataset and the
  /// log are untouched.
  Result<ApplyReceipt> Append(const DeltaBatch& batch);

 private:
  Dataset* dataset_;
  uint64_t next_sequence_ = 1;
  std::vector<ApplyReceipt> receipts_;
};

}  // namespace ingest
}  // namespace prox

#endif  // PROX_INGEST_INGEST_LOG_H_
