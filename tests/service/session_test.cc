#include "service/session.h"

#include <gtest/gtest.h>

#include "datasets/movielens.h"

namespace prox {
namespace {

ProxSession MakeSession() {
  MovieLensConfig config;
  config.num_users = 15;
  config.num_movies = 6;
  return ProxSession(MovieLensGenerator::Generate(config));
}

TEST(ProxSessionTest, SummarizeBeforeSelectFails) {
  ProxSession session = MakeSession();
  EXPECT_EQ(session.Summarize(SummarizationRequest{}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.SummaryExpression().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ProxSessionTest, FullWorkflowSelectSummarizeEvaluate) {
  ProxSession session = MakeSession();
  int64_t selected_size = session.SelectAll();
  EXPECT_GT(selected_size, 0);

  SummarizationRequest request;
  request.w_dist = 0.5;
  request.w_size = 0.5;
  request.max_steps = 5;
  auto summary_size = session.Summarize(request);
  ASSERT_TRUE(summary_size.ok());
  EXPECT_LE(summary_size.value()->final_size, selected_size);

  auto expr = session.SummaryExpression();
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(expr.value().empty());

  auto groups = session.DescribeGroups();
  EXPECT_FALSE(groups.empty());

  Assignment assignment;  // all-true
  auto on_summary = session.EvaluateOnSummary(assignment);
  auto on_selection = session.EvaluateOnSelection(assignment);
  ASSERT_TRUE(on_summary.ok());
  ASSERT_TRUE(on_selection.ok());
  EXPECT_FALSE(on_summary.value().rows.empty());
}

TEST(ProxSessionTest, SelectByCriteriaNarrowsInput) {
  ProxSession session = MakeSession();
  int64_t all = session.SelectAll();
  SelectionCriteria criteria;
  criteria.titles = {session.dataset().registry->name(
      session.dataset().registry->AnnotationsInDomain(
          session.dataset().domain("movie"))[0])};
  auto size = session.Select(criteria);
  ASSERT_TRUE(size.ok());
  EXPECT_LT(size.value(), all);
}

TEST(ProxSessionTest, GroupsViewSkipsScratchAnnotations) {
  ProxSession session = MakeSession();
  session.SelectAll();
  SummarizationRequest request;
  request.max_steps = 3;
  ASSERT_TRUE(session.Summarize(request).ok());
  for (const std::string& line : session.DescribeGroups()) {
    EXPECT_EQ(line.find("~scratch"), std::string::npos) << line;
  }
}

TEST(ProxSessionTest, ReselectingClearsSummary) {
  ProxSession session = MakeSession();
  session.SelectAll();
  SummarizationRequest request;
  request.max_steps = 2;
  ASSERT_TRUE(session.Summarize(request).ok());
  session.SelectAll();
  EXPECT_EQ(session.SummaryExpression().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ProxSessionTest, SummaryDistanceWithinBounds) {
  ProxSession session = MakeSession();
  session.SelectAll();
  SummarizationRequest request;
  request.w_dist = 1.0;
  request.w_size = 0.0;
  request.max_steps = 8;
  ASSERT_TRUE(session.Summarize(request).ok());
  std::shared_ptr<const SummaryOutcome> outcome = session.outcome();
  ASSERT_NE(outcome, nullptr);
  EXPECT_GE(outcome->final_distance, 0.0);
  EXPECT_LE(outcome->final_distance, 1.0);
}

}  // namespace
}  // namespace prox
