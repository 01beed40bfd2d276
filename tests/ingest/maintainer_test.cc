/// SummaryMaintainer tests: warm-start vs full-rerun distance parity on
/// all three dataset families, warm replay accounting, and the
/// delta-fraction fall-back to a full re-run.

#include <string>

#include <gtest/gtest.h>

#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ingest/delta.h"
#include "ingest/ingest_metrics.h"
#include "ingest/maintainer.h"
#include "ingest/synthetic.h"
#include "service/session.h"

namespace prox {
namespace ingest {
namespace {

Dataset MovieLens() {
  MovieLensConfig config;
  config.num_users = 16;
  config.num_movies = 6;
  config.seed = 21;
  return MovieLensGenerator::Generate(config);
}

Dataset Wikipedia() {
  WikipediaConfig config;
  config.num_users = 12;
  config.num_pages = 8;
  return WikipediaGenerator::Generate(config);
}

Dataset Ddp() {
  DdpConfig config;
  config.num_executions = 8;
  return DdpGenerator::Generate(config);
}

SummarizationRequest Request() {
  SummarizationRequest request;
  request.w_dist = 0.5;
  request.w_size = 0.5;
  request.max_steps = 64;
  request.threads = 1;
  return request;
}

/// Runs the warm path (summarize → ingest → warm resummarize) on one
/// session and the cold path (ingest the same delta → one full summarize)
/// on an identically generated twin, and checks the two end at the same
/// distance — the warm continuation loses nothing (docs/INGEST.md).
void CheckWarmColdParity(Dataset warm_ds, Dataset cold_ds,
                         const DeltaBatch& delta) {
  const SummarizationRequest request = Request();

  ProxSession warm_session(std::move(warm_ds));
  warm_session.SelectAll();
  ASSERT_TRUE(warm_session.Summarize(request).ok());
  SummaryMaintainer warm(&warm_session);
  Result<ApplyReceipt> receipt = warm.Ingest(delta);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_GT(warm.delta_fraction(), 0.0);
  Result<MaintainReport> report = warm.Resummarize(request);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().warm);
  EXPECT_GT(report.value().replayed_merges, 0);
  // Resetting the accounting: the next resummarize with no new ingest
  // sees no delta.
  EXPECT_EQ(warm.delta_fraction(), 0.0);

  ProxSession cold_session(std::move(cold_ds));
  cold_session.SelectAll();
  ASSERT_TRUE(cold_session.Ingest(delta).ok());
  cold_session.SelectAll();
  ASSERT_TRUE(cold_session.Summarize(request).ok());

  std::shared_ptr<const SummaryOutcome> cold = cold_session.outcome();
  EXPECT_NEAR(report.value().final_distance, cold->final_distance, 1e-9);
  EXPECT_EQ(report.value().final_size, cold->final_size);
}

TEST(SummaryMaintainerTest, WarmMatchesFullRerunOnMovieLens) {
  Dataset probe = MovieLens();
  Result<DeltaBatch> delta = SyntheticMovieLensDelta(probe, 2, 2, 1);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  CheckWarmColdParity(MovieLens(), MovieLens(), delta.value());
}

TEST(SummaryMaintainerTest, WarmMatchesFullRerunOnWikipedia) {
  Dataset probe = Wikipedia();
  Result<DeltaBatch> delta = SyntheticWikipediaDelta(probe, 2, 2, 1);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  CheckWarmColdParity(Wikipedia(), Wikipedia(), delta.value());
}

TEST(SummaryMaintainerTest, WarmMatchesFullRerunOnDdp) {
  Dataset probe = Ddp();
  Result<DeltaBatch> delta = SyntheticDdpDelta(probe, 2, 3, 1);
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  CheckWarmColdParity(Ddp(), Ddp(), delta.value());
}

TEST(SummaryMaintainerTest, LargeDeltaFallsBackToFullRerun) {
  Dataset dataset = MovieLens();
  Dataset probe = MovieLens();
  ProxSession session(std::move(dataset));
  session.SelectAll();
  ASSERT_TRUE(session.Summarize(Request()).ok());

  MaintainOptions options;
  options.max_delta_fraction = 0.0;  // any growth forces the fall-back
  SummaryMaintainer maintainer(&session, options);
  Result<DeltaBatch> delta = SyntheticMovieLensDelta(probe, 2, 2, 1);
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(maintainer.Ingest(delta.value()).ok());

  const uint64_t fallbacks_before = WarmstartFallbacks()->value();
  Result<MaintainReport> report = maintainer.Resummarize(Request());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().warm);
  EXPECT_EQ(report.value().replayed_merges, 0);
  EXPECT_EQ(WarmstartFallbacks()->value(), fallbacks_before + 1);
}

TEST(SummaryMaintainerTest, FirstSummarizeIsColdButNotAFallback) {
  Dataset dataset = MovieLens();
  ProxSession session(std::move(dataset));
  session.SelectAll();
  SummaryMaintainer maintainer(&session);

  const uint64_t fallbacks_before = WarmstartFallbacks()->value();
  Result<MaintainReport> report = maintainer.Resummarize(Request());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report.value().warm);
  EXPECT_EQ(WarmstartFallbacks()->value(), fallbacks_before);
}

}  // namespace
}  // namespace ingest
}  // namespace prox
