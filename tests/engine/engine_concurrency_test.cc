/// The engine's locking under real concurrency (engine/engine.h): while a
/// slow cold summarize runs (MovieLens users=100, 32 steps), cache hits,
/// `/healthz` and groups return before it finishes, and evaluate waits
/// for the engine mutex; identical cold keys run once; an ingest beside
/// two closed-loop cold clients waits only for the colds queued before
/// it; and a warm re-summary after ingest keeps its final size and
/// distance bits. The suite carries the `tsan` CTest label
/// (scripts/tsan_exec_tests.sh).

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "datasets/movielens.h"
#include "engine/engine.h"
#include "engine/engine_metrics.h"
#include "ingest/delta.h"
#include "ingest/synthetic.h"
#include "serve/http.h"
#include "serve/router.h"

namespace prox {
namespace engine {
namespace {

constexpr int kUsers = 100;

/// A warm re-summary (32 steps) after one ingested user on users=100, as
/// the engine computed it while summaries still shared the dataset's
/// registry: the seed's summary ids then sat below the ingested user's,
/// where the overlay now puts them above.
constexpr int64_t kWarmFinalSize = 198;
constexpr double kWarmFinalDistance = 0x1.d4f3a293769cap-9;

/// The slow cold of the served path: w_dist 0.5, 32 steps. A larger
/// target_size keys differently without changing the work (the
/// expression never shrinks that far in 32 steps).
std::string SlowCold(int target_size = 1) {
  return "{\"max_steps\":32,\"target_size\":" + std::to_string(target_size) +
         "}";
}

std::unique_ptr<Engine> SlowEngine() {
  Engine::Options options;
  options.dataset.num_users = kUsers;
  Result<std::unique_ptr<Engine>> engine = Engine::Create(options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

double Inflight() { return RunsInflight()->value(); }

/// Polls `done` every millisecond for up to `timeout`.
bool WaitFor(const std::function<bool()>& done,
             std::chrono::seconds timeout = std::chrono::seconds(300)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// The body of an ingest batch (one new user, two ratings) valid against
/// a fresh users=100 engine, with the given resummarize directive.
std::string IngestBody(const std::string& resummarize_knobs) {
  MovieLensConfig config;
  config.num_users = kUsers;
  config.num_movies = 8;
  config.seed = 99;
  Dataset twin = MovieLensGenerator::Generate(config);
  Result<ingest::DeltaBatch> batch =
      ingest::SyntheticMovieLensDelta(twin, 1, 2, 1);
  EXPECT_TRUE(batch.ok()) << batch.status().ToString();
  JsonValue doc = ingest::DeltaBatchToJson(batch.value());
  if (!resummarize_knobs.empty()) {
    doc.Set("resummarize", ParseJson(resummarize_knobs).value());
  }
  return WriteJson(doc);
}

TEST(EngineConcurrencyTest, CheapReadsDoNotWaitForAColdRun) {
  std::unique_ptr<Engine> engine = SlowEngine();
  serve::Router router(engine.get());
  // A cheap cached key; its run also publishes the groups bytes.
  constexpr char kWarmKey[] = "{\"max_steps\":2}";
  ASSERT_TRUE(engine->HandleSummarize(kWarmKey).ok());

  obs::Histogram* wait = EngineWait();
  const uint64_t waits_before = wait->count();

  std::atomic<bool> cold_done{false};
  Engine::Response cold;
  std::thread cold_client([&] {
    cold = engine->HandleSummarize(SlowCold());
    cold_done = true;
  });
  ASSERT_TRUE(WaitFor([] { return Inflight() >= 1.0; }));

  Engine::Response hit = engine->HandleSummarize(kWarmKey);
  EXPECT_TRUE(hit.ok());
  EXPECT_EQ(hit.cache, Engine::Response::CacheOutcome::kHit);
  EXPECT_FALSE(cold_done) << "a cache hit waited for the cold run";

  serve::HttpRequest healthz;
  healthz.method = "GET";
  healthz.target = "/healthz";
  healthz.version = "HTTP/1.1";
  EXPECT_EQ(router.Handle(healthz).status, 200);
  EXPECT_FALSE(cold_done) << "/healthz waited for the cold run";

  Engine::Response groups = engine->HandleGroups();
  EXPECT_TRUE(groups.ok()) << groups.body;
  EXPECT_FALSE(cold_done) << "groups waited for the cold run";

  // Evaluate reads the session, so it queues on the engine mutex the run
  // holds and answers only after the run has published.
  Engine::Response evaluate = engine->HandleEvaluate(
      "{\"on\":\"selection\",\"assignment\":{\"false_annotations\":[]}}");
  EXPECT_TRUE(evaluate.ok()) << evaluate.body;
  EXPECT_EQ(Inflight(), 0.0) << "evaluate ran beside the cold run";
  EXPECT_NE(engine->HandleGroups().body, groups.body)
      << "the cold run's groups were not published";
  cold_client.join();

  ASSERT_TRUE(cold.ok()) << cold.body;
  EXPECT_EQ(cold.cache, Engine::Response::CacheOutcome::kMiss);
  // The cold and the evaluate each took the engine mutex once.
  EXPECT_EQ(wait->count(), waits_before + 2);
}

TEST(EngineConcurrencyTest, IdenticalColdKeysRunOnce) {
  Engine::Options options;
  options.dataset.num_users = 40;
  Result<std::unique_ptr<Engine>> engine = Engine::Create(options);
  ASSERT_TRUE(engine.ok());
  obs::Counter* runs = obs::MetricsRegistry::Default().GetCounter(
      "prox_summarize_runs_total", "Summarization runs started.");
  const uint64_t runs_before = runs->value();

  constexpr int kClients = 4;
  std::vector<Engine::Response> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      responses[i] = engine.value()->HandleSummarize("{\"max_steps\":12}");
    });
  }
  for (std::thread& client : clients) client.join();
  int misses = 0;
  for (const Engine::Response& response : responses) {
    ASSERT_TRUE(response.ok()) << response.body;
    EXPECT_EQ(response.body, responses[0].body);
    if (response.cache == Engine::Response::CacheOutcome::kMiss) ++misses;
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(runs->value(), runs_before + 1);
}

TEST(EngineConcurrencyTest, IngestCompletesBesideClosedLoopColds) {
  std::unique_ptr<Engine> engine = SlowEngine();

  // Two closed-loop clients keep a cold run in flight or queued at nearly
  // every instant, each on keys of its own.
  std::atomic<bool> stop{false};
  std::atomic<int> completed{0};
  auto cold_loop = [&](int first_target) {
    for (int k = first_target; !stop; k += 2) {
      Engine::Response response = engine->HandleSummarize(
          "{\"max_steps\":8,\"target_size\":" + std::to_string(k) + "}");
      EXPECT_TRUE(response.ok()) << response.body;
      ++completed;
    }
  };
  std::thread a(cold_loop, 1);
  std::thread b(cold_loop, 2);
  ASSERT_TRUE(WaitFor([] { return Inflight() >= 1.0; }));

  std::atomic<bool> ingested{false};
  std::atomic<int> completed_while_waiting{0};
  Engine::Response ingest;
  const std::string ingest_body = IngestBody("");
  std::thread writer([&] {
    const int before = completed.load();
    ingest = engine->HandleIngest(ingest_body);
    completed_while_waiting = completed.load() - before;
    ingested = true;
  });
  const bool in_time = WaitFor([&] { return ingested.load(); });
  // The colds keep going after the ingest, now keyed on the new version.
  const int completed_at_ingest = completed.load();
  const bool colds_resumed =
      WaitFor([&] { return completed.load() > completed_at_ingest; });
  stop = true;
  writer.join();
  a.join();
  b.join();

  EXPECT_TRUE(in_time) << "the ingest starved behind the cold clients";
  // The engine mutex is granted in arrival order, so the ingest waits for
  // at most the run in flight and the one queued before it (plus one
  // that finished just before it but was counted after).
  EXPECT_LE(completed_while_waiting.load(), 3);
  EXPECT_TRUE(colds_resumed);
  ASSERT_TRUE(ingest.ok()) << ingest.body;
  EXPECT_EQ(engine->fingerprint(),
            ParseJson(ingest.body).value().Find("fingerprint")->string_value());
  EXPECT_EQ(Inflight(), 0.0);
}

TEST(EngineConcurrencyTest, WarmResummaryAfterIngestKeepsItsBits) {
  std::unique_ptr<Engine> engine = SlowEngine();
  ASSERT_TRUE(engine->HandleSummarize(SlowCold()).ok());
  Engine::Response ingest = engine->HandleIngest(IngestBody(SlowCold()));
  ASSERT_TRUE(ingest.ok()) << ingest.body;
  Result<JsonValue> doc = ParseJson(ingest.body);
  ASSERT_TRUE(doc.ok());
  const JsonValue* summary = doc.value().Find("resummarize");
  ASSERT_NE(summary, nullptr);
  EXPECT_TRUE(summary->Find("warm")->bool_value());
  EXPECT_EQ(summary->Find("final_size")->int_value(), kWarmFinalSize);
  EXPECT_EQ(summary->Find("final_distance")->double_value(),
            kWarmFinalDistance);
}

}  // namespace
}  // namespace engine
}  // namespace prox
