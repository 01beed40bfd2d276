#include "service/summarization_service.h"

#include <gtest/gtest.h>

#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"

namespace prox {
namespace {

TEST(SummarizationServiceTest, UsesDatasetDefaults) {
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 5;
  Dataset ds = MovieLensGenerator::Generate(config);
  SummarizationService svc(&ds);
  SummarizationRequest request;
  request.max_steps = 4;
  auto outcome = svc.Summarize(*ds.provenance, request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome.value().final_size, ds.provenance->Size());
}

TEST(SummarizationServiceTest, OverridingValuationClassWorks) {
  MovieLensConfig config;
  config.num_users = 10;
  config.num_movies = 4;
  Dataset ds = MovieLensGenerator::Generate(config);
  SummarizationService svc(&ds);
  SummarizationRequest request;
  request.max_steps = 3;
  request.valuation_class =
      SummarizationRequest::ValuationClassKind::kCancelSingleAnnotation;
  request.val_func = SummarizationRequest::ValFuncKind::kAbsoluteDifference;
  auto outcome = svc.Summarize(*ds.provenance, request);
  ASSERT_TRUE(outcome.ok());
}

TEST(SummarizationServiceTest, TargetSizeIsHonored) {
  MovieLensConfig config;
  config.num_users = 10;
  config.num_movies = 4;
  Dataset ds = MovieLensGenerator::Generate(config);
  SummarizationService svc(&ds);
  SummarizationRequest request;
  request.w_dist = 0.0;
  request.w_size = 1.0;
  request.target_size = ds.provenance->Size() / 2;
  request.max_steps = 1000;
  auto outcome = svc.Summarize(*ds.provenance, request);
  ASSERT_TRUE(outcome.ok());
  // Either the bound was reached or no more candidates existed.
  EXPECT_LE(outcome.value().final_size, ds.provenance->Size());
}

TEST(SummarizationServiceTest, WorksOnWikipediaDataset) {
  WikipediaConfig config;
  config.num_users = 10;
  config.num_pages = 8;
  Dataset ds = WikipediaGenerator::Generate(config);
  SummarizationService svc(&ds);
  SummarizationRequest request;
  request.w_dist = 1.0;
  request.w_size = 0.0;
  request.max_steps = 5;
  auto outcome = svc.Summarize(*ds.provenance, request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome.value().final_size, ds.provenance->Size());
}

TEST(SummarizationServiceTest, WorksOnDdpDataset) {
  DdpConfig config;
  config.num_executions = 5;
  Dataset ds = DdpGenerator::Generate(config);
  SummarizationService svc(&ds);
  SummarizationRequest request;
  request.w_dist = 0.5;
  request.w_size = 0.5;
  request.max_steps = 4;
  auto outcome = svc.Summarize(*ds.provenance, request);
  ASSERT_TRUE(outcome.ok());
  EXPECT_LE(outcome.value().final_size, ds.provenance->Size());
}

TEST(SummarizationServiceTest, SummaryAnnotationsVisibleInGroups) {
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 5;
  Dataset ds = MovieLensGenerator::Generate(config);
  SummarizationService svc(&ds);
  SummarizationRequest request;
  request.max_steps = 3;
  const size_t base_size = ds.registry->size();
  auto outcome = svc.Summarize(*ds.provenance, request);
  ASSERT_TRUE(outcome.ok());
  // Summary ids live in the run's own overlay registry; the dataset's
  // registry never grows.
  const AnnotationRegistry& registry = outcome.value().registry();
  EXPECT_EQ(&registry, outcome.value().overlay.get());
  EXPECT_EQ(ds.registry->size(), base_size);
  ASSERT_FALSE(outcome.value().state.summaries().empty());
  for (const auto& [summary, members] : outcome.value().state.summaries()) {
    EXPECT_GE(summary, base_size);
    EXPECT_TRUE(registry.is_summary(summary));
    EXPECT_GE(members.size(), 2u);
  }
}

}  // namespace
}  // namespace prox
