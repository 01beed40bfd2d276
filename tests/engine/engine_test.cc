/// The transport-agnostic facade (docs/EMBEDDING.md): JSON handlers
/// return the exact bytes the wire has always carried (newline-terminated
/// documents, typed error mapping, cache hit/miss outcomes), the typed
/// facade hands back value snapshots, and dataset boot specs are
/// reproducible across processes.

#include "engine/engine.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datasets/movielens.h"
#include "engine/codec.h"
#include "ingest/delta.h"
#include "ingest/synthetic.h"
#include "kernels/metrics.h"

namespace prox {
namespace engine {
namespace {

constexpr char kSummarizeBody[] = "{\"w_dist\":0.7,\"max_steps\":5}";

Dataset SmallDataset() {
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 5;
  config.seed = 7;
  return MovieLensGenerator::Generate(config);
}

JsonValue MustParse(const std::string& text) {
  auto parsed = ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? parsed.value() : JsonValue::Null();
}

TEST(EngineTest, SummarizeMissThenHitIsByteIdentical) {
  std::unique_ptr<Engine> engine = Engine::FromDataset(SmallDataset());
  Engine::Response cold = engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(cold.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.http_status, 200);
  EXPECT_EQ(cold.cache, Engine::Response::CacheOutcome::kMiss);
  ASSERT_FALSE(cold.body.empty());
  EXPECT_EQ(cold.body.back(), '\n');

  Engine::Response warm = engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cache, Engine::Response::CacheOutcome::kHit);
  EXPECT_EQ(warm.body, cold.body);

  JsonValue doc = MustParse(cold.body);
  EXPECT_NE(doc.Find("final_size"), nullptr);
  EXPECT_NE(doc.Find("groups"), nullptr);
}

TEST(EngineTest, ServedColdSummariesStayOnTheBatchKernels) {
  // The served dataset shape: cold summaries merge movies (group keys)
  // as well as users, and every candidate must still be priced by the
  // batch kernels — no Distance call may take the scalar fallback.
  MovieLensConfig config;
  config.num_users = 40;
  config.num_movies = 8;
  config.seed = 7;
  std::unique_ptr<Engine> engine =
      Engine::FromDataset(MovieLensGenerator::Generate(config));
  for (const char* body :
       {"{\"max_steps\":10,\"valuation_class\":\"cancel_single_attribute\"}",
        "{\"max_steps\":12}"}) {
    SCOPED_TRACE(body);
    const uint64_t fallbacks_before = kernels::ScalarFallbacksForTesting();
    const uint64_t batch_before = kernels::BatchEvalsForTesting();
    Engine::Response cold = engine->HandleSummarize(body);
    ASSERT_TRUE(cold.ok()) << cold.status.ToString();
    EXPECT_EQ(cold.cache, Engine::Response::CacheOutcome::kMiss);
    EXPECT_GT(kernels::BatchEvalsForTesting(), batch_before);
    EXPECT_EQ(kernels::ScalarFallbacksForTesting(), fallbacks_before);
  }
}

TEST(EngineTest, TypedErrorsRenderTheCanonicalDocument) {
  std::unique_ptr<Engine> engine = Engine::FromDataset(SmallDataset());

  Engine::Response malformed = engine->HandleSummarize("{nope");
  EXPECT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.http_status, 400);
  EXPECT_EQ(malformed.cache, Engine::Response::CacheOutcome::kNone);
  JsonValue error_doc = MustParse(malformed.body);
  ASSERT_NE(error_doc.Find("error"), nullptr);
  // The body is exactly the rendered StatusToJson document.
  std::string expected = WriteJson(StatusToJson(malformed.status));
  expected.push_back('\n');
  EXPECT_EQ(malformed.body, expected);

  Engine::Response unknown_field = engine->HandleSelect("{\"bogus\":1}");
  EXPECT_EQ(unknown_field.http_status, 400);
  EXPECT_EQ(unknown_field.status.code(), StatusCode::kInvalidArgument);

  // Groups before any summarize: FailedPrecondition → 409.
  Engine::Response no_summary = engine->HandleGroups();
  EXPECT_EQ(no_summary.http_status, 409);
  EXPECT_EQ(no_summary.status.code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, SelectNarrowsTheCacheKeyAndReportsTheSelection) {
  std::unique_ptr<Engine> engine = Engine::FromDataset(SmallDataset());
  Engine::Response all = engine->HandleSelect("{\"all\":true}");
  ASSERT_TRUE(all.ok()) << all.body;
  JsonValue all_doc = MustParse(all.body);
  ASSERT_NE(all_doc.Find("selection_key"), nullptr);
  EXPECT_EQ(all_doc.Find("selection_key")->string_value(), SelectAllKey());

  Engine::Response cold_all = engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(cold_all.ok());
  EXPECT_EQ(cold_all.cache, Engine::Response::CacheOutcome::kMiss);

  // A different selection must not hit the "all" entry.
  // Every generated title carries its "(year)" suffix, so this matches a
  // non-empty selection while keying differently from "all".
  Engine::Response narrowed =
      engine->HandleSelect("{\"title_substring\":\"(\"}");
  ASSERT_TRUE(narrowed.ok()) << narrowed.body;
  Engine::Response cold_narrow = engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(cold_narrow.ok());
  EXPECT_EQ(cold_narrow.cache, Engine::Response::CacheOutcome::kMiss);

  // Re-selecting all restores the original entry: hit, same bytes.
  ASSERT_TRUE(engine->HandleSelect("{\"all\":true}").ok());
  Engine::Response warm_all = engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(warm_all.ok());
  EXPECT_EQ(warm_all.cache, Engine::Response::CacheOutcome::kHit);
  EXPECT_EQ(warm_all.body, cold_all.body);
}

TEST(EngineTest, TypedFacadeMatchesTheJsonApiBytes) {
  std::unique_ptr<Engine> json_engine = Engine::FromDataset(SmallDataset());
  std::unique_ptr<Engine> typed_engine = Engine::FromDataset(SmallDataset());

  Engine::Response via_json = json_engine->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(via_json.ok()) << via_json.body;

  Result<SummarizationRequest> request =
      SummarizationRequestFromJson(MustParse(kSummarizeBody));
  ASSERT_TRUE(request.ok());
  Result<Engine::SummarizeOutcome> outcome =
      typed_engine->Summarize(request.value());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome.value().body, via_json.body);
  EXPECT_GT(outcome.value().final_size, 0);

  // The other typed views agree with the summarize document.
  JsonValue doc = MustParse(via_json.body);
  EXPECT_EQ(doc.Find("final_size")->int_value(),
            outcome.value().final_size);
  EXPECT_FALSE(typed_engine->DescribeGroups().empty());
  EXPECT_TRUE(typed_engine->SummaryExpression().ok());
  EXPECT_TRUE(typed_engine->SerializedSummary().ok());
  Result<Engine::StepSnapshot> step = typed_engine->SummaryAtStep(0);
  ASSERT_TRUE(step.ok()) << step.status().ToString();
  EXPECT_GT(step.value().size, 0);
}

TEST(EngineTest, StepAndSerializeBeforeSummarizeFailClosed) {
  std::unique_ptr<Engine> engine = Engine::FromDataset(SmallDataset());
  EXPECT_EQ(engine->SummaryAtStep(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->SerializedSummary().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine->SummaryAtStep(0).status().message(),
            "no summary computed yet");
}

TEST(EngineTest, CreateSpecsAreReproducibleAcrossEngines) {
  // Two engines booted from the same spec must agree on identity and on
  // summarize bytes — the property the C ABI round-trip relies on.
  Engine::Options options;
  options.dataset.family = DatasetSpec::Family::kMovieLens;
  Result<std::unique_ptr<Engine>> first = Engine::Create(options);
  Result<std::unique_ptr<Engine>> second = Engine::Create(options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value()->fingerprint(), second.value()->fingerprint());
  Engine::Response a = first.value()->HandleSummarize(kSummarizeBody);
  Engine::Response b = second.value()->HandleSummarize(kSummarizeBody);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.body, b.body);
}

TEST(EngineTest, OptionsFromJsonParsesAndRejects) {
  Result<Engine::Options> empty = Engine::OptionsFromJson("");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().dataset.family, DatasetSpec::Family::kMovieLens);

  Result<Engine::Options> full = Engine::OptionsFromJson(
      "{\"dataset\":{\"family\":\"wikipedia\",\"users\":6,\"groups\":4,"
      "\"seed\":3},\"cache_mb\":8}");
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.value().dataset.family, DatasetSpec::Family::kWikipedia);
  EXPECT_EQ(full.value().dataset.num_users, 6);
  EXPECT_TRUE(full.value().dataset.seed_set);
  EXPECT_EQ(full.value().cache.max_bytes, 8u * 1024 * 1024);

  EXPECT_FALSE(Engine::OptionsFromJson("{\"oops\":1}").ok());
  EXPECT_FALSE(
      Engine::OptionsFromJson("{\"dataset\":{\"family\":\"netflix\"}}").ok());
  EXPECT_FALSE(Engine::OptionsFromJson("[1,2]").ok());
  EXPECT_FALSE(Engine::OptionsFromJson("{nope").ok());

  // A snapshot path that does not exist fails closed at Create.
  Result<Engine::Options> missing = Engine::OptionsFromJson(
      "{\"dataset\":{\"snapshot\":\"/nonexistent/prox.snap\"}}");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(Engine::Create(missing.value()).ok());
}

/// True when `name` ends in a "#k" suffix (the registry-history marker
/// summary names used to carry).
bool HasHistorySuffix(const std::string& name) {
  const size_t hash = name.rfind('#');
  if (hash == std::string::npos || hash + 1 == name.size()) return false;
  for (size_t i = hash + 1; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
  }
  return true;
}

/// Every summary and member name a summarize body carries.
std::vector<std::string> NamesIn(const JsonValue& doc) {
  std::vector<std::string> names;
  for (const JsonValue& step : doc.Find("steps")->items()) {
    names.push_back(step.Find("summary")->string_value());
    for (const JsonValue& merged : step.Find("merged")->items()) {
      names.push_back(merged.string_value());
    }
  }
  for (const JsonValue& group : doc.Find("groups")->items()) {
    names.push_back(group.Find("name")->string_value());
    for (const JsonValue& member : group.Find("members")->items()) {
      names.push_back(member.string_value());
    }
  }
  return names;
}

TEST(EnginePurityTest, UncachedIdenticalSummariesAreByteIdentical) {
  // With the cache off every request runs Algorithm 1. Runs register in
  // their own overlay registries, so the fifth run on one engine returns
  // the first run's bytes.
  for (const char* family : {"movielens", "wikipedia", "ddp"}) {
    SCOPED_TRACE(family);
    Result<Engine::Options> options = Engine::OptionsFromJson(
        std::string("{\"dataset\":{\"family\":\"") + family +
        "\"},\"cache_mb\":0}");
    ASSERT_TRUE(options.ok()) << options.status().ToString();
    Result<std::unique_ptr<Engine>> engine = Engine::Create(options.value());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    Engine::Response first = engine.value()->HandleSummarize(kSummarizeBody);
    ASSERT_TRUE(first.ok()) << first.body;
    for (int i = 1; i < 5; ++i) {
      Engine::Response again = engine.value()->HandleSummarize(kSummarizeBody);
      ASSERT_TRUE(again.ok()) << again.body;
      EXPECT_EQ(again.cache, Engine::Response::CacheOutcome::kMiss);
      EXPECT_EQ(again.body, first.body) << "run " << i;
    }
  }
}

TEST(EnginePurityTest, DistinctMissesLeaveTheBaseRegistryAlone) {
  Dataset dataset = SmallDataset();
  // The registry lives on the heap and moves into the engine with the
  // dataset; the test reads it only while the engine is idle.
  const AnnotationRegistry* base = dataset.registry.get();
  const size_t base_size = base->size();
  std::unique_ptr<Engine> engine = Engine::FromDataset(std::move(dataset));

  for (int k = 1; k <= 50; ++k) {
    const std::string body = "{\"max_steps\":" + std::to_string(k % 9 + 1) +
                             ",\"target_size\":" + std::to_string(k) + "}";
    Engine::Response miss = engine->HandleSummarize(body);
    ASSERT_TRUE(miss.ok()) << miss.body;
    ASSERT_EQ(miss.cache, Engine::Response::CacheOutcome::kMiss) << body;
    for (const std::string& name : NamesIn(MustParse(miss.body))) {
      EXPECT_FALSE(HasHistorySuffix(name)) << name << " in " << body;
    }
  }
  EXPECT_EQ(base->size(), base_size);
  EXPECT_FALSE(HasHistorySuffix("Gender:F"));
  EXPECT_TRUE(HasHistorySuffix("Gender:F#3"));
}

TEST(EngineTest, EvaluateOnSummarySkipsOriginalsIngestedAfterTheRun) {
  Dataset twin = SmallDataset();
  Result<ingest::DeltaBatch> batch =
      ingest::SyntheticMovieLensDelta(twin, 1, 2, 1);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::string new_user;
  for (const ingest::DeltaOp& op : batch.value().ops) {
    if (op.kind == ingest::DeltaOpKind::kAddAnnotation) new_user = op.name;
  }
  ASSERT_FALSE(new_user.empty());

  std::unique_ptr<Engine> engine = Engine::FromDataset(SmallDataset());
  ASSERT_TRUE(engine->HandleSummarize(kSummarizeBody).ok());
  const std::string before = engine->HandleEvaluate(
      "{\"on\":\"summary\",\"assignment\":{\"false_annotations\":[]}}").body;
  // An ingest with no re-summary keeps the summary, whose overlay was
  // built before the new user existed.
  Engine::Response ingest =
      engine->HandleIngest(WriteJson(ingest::DeltaBatchToJson(batch.value())));
  ASSERT_TRUE(ingest.ok()) << ingest.body;

  // The summary does not mention the new user, so cancelling it changes
  // nothing; a name no registry knows still fails.
  Engine::Response named = engine->HandleEvaluate(
      "{\"on\":\"summary\",\"assignment\":{\"false_annotations\":[\"" +
      new_user + "\"]}}");
  ASSERT_TRUE(named.ok()) << named.body;
  JsonValue named_doc = MustParse(named.body);
  JsonValue before_doc = MustParse(before);
  EXPECT_EQ(WriteJson(*named_doc.Find("rows")),
            WriteJson(*before_doc.Find("rows")));
  Engine::Response unknown = engine->HandleEvaluate(
      "{\"on\":\"summary\",\"assignment\":{\"false_annotations\":"
      "[\"no-such-user\"]}}");
  EXPECT_EQ(unknown.status.code(), StatusCode::kNotFound) << unknown.body;

  // On the selection (the grown provenance) the new user resolves.
  EXPECT_TRUE(engine
                  ->HandleEvaluate("{\"on\":\"selection\",\"assignment\":{"
                                   "\"false_annotations\":[\"" +
                                   new_user + "\"]}}")
                  .ok());
}

}  // namespace
}  // namespace engine
}  // namespace prox
