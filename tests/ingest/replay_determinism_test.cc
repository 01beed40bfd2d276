/// Replay determinism: the same delta stream applied to fresh sessions
/// always yields byte-identical canonical summary JSON — across worker
/// thread counts {1, 8}, across batch splits, and against a dataset grown
/// by ApplyBatch directly (the "batch-built" twin the ingest path must
/// match byte for byte). Re-run with PROX_SIMD=0 by the *_simd_off CTest
/// registration to pin the scalar tier to the same bytes.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ingest/delta.h"
#include "ingest/synthetic.h"
#include "engine/codec.h"
#include "service/session.h"

namespace prox {
namespace ingest {
namespace {

Dataset MovieLens() {
  MovieLensConfig config;
  config.num_users = 14;
  config.num_movies = 6;
  config.seed = 5;
  return MovieLensGenerator::Generate(config);
}

SummarizationRequest Request(int threads) {
  SummarizationRequest request;
  request.w_dist = 0.6;
  request.w_size = 0.4;
  request.max_steps = 12;
  request.threads = threads;
  return request;
}

std::string CanonicalSummaryJson(ProxSession& session) {
  return WriteJson(engine::SummaryOutcomeToJson(*session.outcome()));
}

/// Fresh session, ingest every batch through the session, summarize once.
std::string SummarizeAfterIngest(const std::vector<DeltaBatch>& batches,
                                 int threads) {
  ProxSession session(MovieLens());
  session.SelectAll();
  for (const DeltaBatch& batch : batches) {
    Result<ApplyReceipt> receipt = session.Ingest(batch);
    EXPECT_TRUE(receipt.ok()) << receipt.status().ToString();
  }
  EXPECT_TRUE(session.Summarize(Request(threads)).ok());
  return CanonicalSummaryJson(session);
}

std::vector<DeltaBatch> TwoBatchStream() {
  Dataset probe = MovieLens();
  std::vector<DeltaBatch> batches;
  Result<DeltaBatch> first = SyntheticMovieLensDelta(probe, 2, 2, 1);
  EXPECT_TRUE(first.ok()) << first.status().ToString();
  // The second batch references annotations the first introduced, so it
  // must be built against the grown dataset.
  EXPECT_TRUE(ApplyBatch(&probe, first.value(), 1).ok());
  Result<DeltaBatch> second = SyntheticMovieLensDelta(probe, 1, 3, 2);
  EXPECT_TRUE(second.ok()) << second.status().ToString();
  batches.push_back(first.value());
  batches.push_back(second.value());
  return batches;
}

TEST(ReplayDeterminismTest, ThreadCountsProduceIdenticalBytes) {
  const std::vector<DeltaBatch> batches = TwoBatchStream();
  const std::string serial = SummarizeAfterIngest(batches, 1);
  const std::string parallel = SummarizeAfterIngest(batches, 8);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(ReplayDeterminismTest, IngestPathMatchesBatchBuiltDataset) {
  const std::vector<DeltaBatch> batches = TwoBatchStream();
  const std::string streamed = SummarizeAfterIngest(batches, 1);

  // Batch-built twin: grow the dataset before the session exists, so no
  // ingest code runs on the serving path at all.
  Dataset direct = MovieLens();
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_TRUE(ApplyBatch(&direct, batches[i], i + 1).ok());
  }
  ProxSession session(std::move(direct));
  session.SelectAll();
  ASSERT_TRUE(session.Summarize(Request(1)).ok());
  EXPECT_EQ(streamed, CanonicalSummaryJson(session));
}

TEST(ReplayDeterminismTest, SplitAndWholeStreamsAgree) {
  // One big batch vs the same ops as two sequenced batches.
  Dataset probe = MovieLens();
  Result<DeltaBatch> whole = SyntheticMovieLensDelta(probe, 4, 2, 1);
  ASSERT_TRUE(whole.ok());

  DeltaBatch first, second;
  first.sequence = 1;
  second.sequence = 2;
  const size_t half = whole.value().ops.size() / 2;
  for (size_t i = 0; i < whole.value().ops.size(); ++i) {
    (i < half ? first : second).ops.push_back(whole.value().ops[i]);
  }

  const std::string one = SummarizeAfterIngest({whole.value()}, 1);
  const std::string two = SummarizeAfterIngest({first, second}, 1);
  EXPECT_EQ(one, two);
}

TEST(ReplayDeterminismTest, WikipediaStreamIsThreadCountInvariant) {
  WikipediaConfig config;
  config.num_users = 10;
  config.num_pages = 8;
  Dataset probe = WikipediaGenerator::Generate(config);
  Result<DeltaBatch> delta = SyntheticWikipediaDelta(probe, 2, 3, 1);
  ASSERT_TRUE(delta.ok());

  auto run = [&](int threads) {
    Dataset dataset = WikipediaGenerator::Generate(config);
    ProxSession session(std::move(dataset));
    session.SelectAll();
    EXPECT_TRUE(session.Ingest(delta.value()).ok());
    EXPECT_TRUE(session.Summarize(Request(threads)).ok());
    return CanonicalSummaryJson(session);
  };
  EXPECT_EQ(run(1), run(8));
}

}  // namespace
}  // namespace ingest
}  // namespace prox
