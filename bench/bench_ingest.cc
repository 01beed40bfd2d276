/// \file Streaming ingest benchmarks (docs/INGEST.md): ApplyBatch and
/// digest microbenches, plus the `--json` self-checking baseline committed
/// as BENCH_ingest.json. The baseline measures, on all three dataset
/// families, the two ways a serving replica can answer a re-summarize
/// after a ~1% delta batch — warm-start the greedy continuation from the
/// previous mapping state (SummaryMaintainer) vs run Algorithm 1 from
/// scratch over the grown dataset — and enforces the docs/INGEST.md
/// contract: warm >= 3x faster than full on the largest config of every
/// family. Warm-start engagement is verified through the
/// `prox_warmstart_*` counters before anything is timed.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ingest/delta.h"
#include "ingest/ingest_metrics.h"
#include "ingest/maintainer.h"
#include "ingest/synthetic.h"
#include "obs/metrics.h"
#include "service/session.h"

using namespace prox;

namespace {

MovieLensConfig MovieLens(int users) {
  MovieLensConfig config;
  config.num_users = users;
  config.num_movies = 12;
  config.seed = 3;
  return config;
}

WikipediaConfig Wikipedia(int users) {
  WikipediaConfig config;
  config.num_users = users;
  config.num_pages = 30;
  config.edits_per_user = 4;
  config.seed = 11;
  return config;
}

DdpConfig Ddp(int executions) {
  DdpConfig config;
  config.num_executions = executions;
  config.num_db_vars = 12;
  config.num_cost_vars = 10;
  return config;
}

SummarizationRequest Request() {
  SummarizationRequest request;
  request.w_dist = 0.5;
  request.w_size = 0.5;
  request.max_steps = 32;
  request.threads = 1;
  return request;
}

/// The warm-start counter families the baseline checks for engagement
/// (same name+help as the summarizer's registration, so the registry hands
/// back the same counters).
obs::Counter* WarmstartRuns() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_warmstart_runs_total",
      "Summarization runs warm-started from a previous mapping state "
      "(docs/INGEST.md).");
}
obs::Counter* WarmstartReplayedMerges() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_warmstart_replayed_merges_total",
      "Merges replayed from warm-start seeds instead of re-searched.");
}

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_ingest: %s\n", what);
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// Interactive microbenches
// ---------------------------------------------------------------------------

void BM_ApplyBatch(benchmark::State& state) {
  const MovieLensConfig config = MovieLens(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    Dataset dataset = MovieLensGenerator::Generate(config);
    Result<ingest::DeltaBatch> delta =
        ingest::SyntheticMovieLensDelta(dataset, 2, 3, 1);
    if (!delta.ok()) state.SkipWithError(delta.status().ToString().c_str());
    state.ResumeTiming();
    Result<ingest::ApplyReceipt> receipt =
        ingest::ApplyBatch(&dataset, delta.value(), 1);
    if (!receipt.ok()) {
      state.SkipWithError(receipt.status().ToString().c_str());
    }
    benchmark::DoNotOptimize(receipt);
  }
}
BENCHMARK(BM_ApplyBatch)->Arg(40)->Arg(160)->Arg(400);

void BM_BatchDigest(benchmark::State& state) {
  Dataset dataset =
      MovieLensGenerator::Generate(MovieLens(static_cast<int>(state.range(0))));
  Result<ingest::DeltaBatch> delta =
      ingest::SyntheticMovieLensDelta(dataset, 4, 3, 1);
  if (!delta.ok()) {
    state.SkipWithError(delta.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ingest::BatchDigest(delta.value()));
  }
}
BENCHMARK(BM_BatchDigest)->Arg(40)->Arg(400);

// ---------------------------------------------------------------------------
// --json baseline mode (BENCH_ingest.json). Intercepted before
// benchmark::Initialize, like bench_store.
// ---------------------------------------------------------------------------

/// One timed run of `op` (warm and full re-summarize are both one-shot:
/// they consume the session state they start from).
double OnceNs(const std::function<void()>& op) {
  using Clock = std::chrono::steady_clock;
  auto start = Clock::now();
  op();
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

double Median3(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[1];
}

/// One dataset size within a family: how to build it and how to grow it
/// by a ~1% delta.
struct ConfigSpec {
  std::string label;
  std::function<Dataset()> make;
  std::function<Result<ingest::DeltaBatch>(const Dataset&)> delta;
};

struct ConfigResult {
  std::string label;
  double delta_fraction = 0.0;
  int replayed_merges = 0;
  int continuation_steps = 0;
  double full_ns = 0.0;
  double warm_ns = 0.0;
  double speedup = 0.0;
};

/// Warm path, once: prime a summary, ingest the delta, re-summarize
/// through the maintainer. Returns the report and the wall time of the
/// re-summarize alone.
ingest::MaintainReport RunWarmOnce(const ConfigSpec& spec, double* ns) {
  ProxSession session(spec.make());
  session.SelectAll();
  auto primed = session.Summarize(Request());
  Check(primed.ok(), "priming summarize failed");
  ingest::SummaryMaintainer maintainer(&session);
  Result<ingest::DeltaBatch> delta = spec.delta(session.dataset());
  Check(delta.ok(), "delta construction failed");
  Check(maintainer.Ingest(delta.value()).ok(), "ingest failed");
  ingest::MaintainReport out;
  *ns = OnceNs([&] {
    Result<ingest::MaintainReport> report = maintainer.Resummarize(Request());
    Check(report.ok(), "warm re-summarize failed");
    out = report.value();
  });
  Check(out.warm, "maintainer did not take the warm path");
  return out;
}

/// Full re-run, once: grow the dataset by the same delta before the
/// session exists, then time Algorithm 1 from scratch.
double RunFullOnce(const ConfigSpec& spec) {
  Dataset dataset = spec.make();
  Result<ingest::DeltaBatch> delta = spec.delta(dataset);
  Check(delta.ok(), "delta construction failed");
  Check(ingest::ApplyBatch(&dataset, delta.value(), 1).ok(),
        "direct ApplyBatch failed");
  ProxSession session(std::move(dataset));
  session.SelectAll();
  double ns = OnceNs([&] {
    Check(session.Summarize(Request()).ok(), "full summarize failed");
  });
  return ns;
}

ConfigResult MeasureConfig(const ConfigSpec& spec) {
  // Engagement pre-flight: the warm path must actually warm-start (report
  // AND counters) before any timing is trusted.
  const uint64_t runs_before = WarmstartRuns()->value();
  const uint64_t merges_before = WarmstartReplayedMerges()->value();
  double preflight_ns = 0.0;
  ingest::MaintainReport preflight = RunWarmOnce(spec, &preflight_ns);
  Check(WarmstartRuns()->value() == runs_before + 1,
        "prox_warmstart_runs_total did not advance on the warm path");
  Check(WarmstartReplayedMerges()->value() >
            merges_before + static_cast<uint64_t>(0),
        "prox_warmstart_replayed_merges_total did not advance");
  Check(preflight.replayed_merges > 0, "warm run replayed no merges");

  ConfigResult result;
  result.label = spec.label;
  result.delta_fraction = preflight.delta_fraction;
  result.replayed_merges = preflight.replayed_merges;
  result.continuation_steps = preflight.continuation_steps;

  // The pre-flight run doubles as the first warm sample: each warm sample
  // pays an untimed priming full run, which dominates the baseline's wall
  // time on the larger configs.
  std::vector<double> warm_runs = {preflight_ns};
  std::vector<double> full_runs;
  for (int rep = 0; rep < 3; ++rep) {
    if (rep < 2) {
      double ns = 0.0;
      RunWarmOnce(spec, &ns);
      warm_runs.push_back(ns);
    }
    full_runs.push_back(RunFullOnce(spec));
  }
  result.warm_ns = Median3(warm_runs);
  result.full_ns = Median3(full_runs);
  result.speedup = result.full_ns / result.warm_ns;
  return result;
}

struct FamilyResult {
  std::string family;
  std::vector<ConfigResult> configs;
};

int RunJsonBaseline() {
  std::vector<FamilyResult> families;

  {
    FamilyResult family{"movielens", {}};
    for (int users : {30, 60, 100}) {
      const int delta_users = std::max(1, users / 100);
      family.configs.push_back(MeasureConfig(ConfigSpec{
          "users=" + std::to_string(users),
          [users] { return MovieLensGenerator::Generate(MovieLens(users)); },
          [delta_users](const Dataset& dataset) {
            return ingest::SyntheticMovieLensDelta(dataset, delta_users, 3,
                                                   1);
          }}));
    }
    families.push_back(std::move(family));
  }
  {
    FamilyResult family{"wikipedia", {}};
    for (int users : {40, 80}) {
      const int delta_users = std::max(1, users / 100);
      family.configs.push_back(MeasureConfig(ConfigSpec{
          "users=" + std::to_string(users),
          [users] { return WikipediaGenerator::Generate(Wikipedia(users)); },
          [delta_users](const Dataset& dataset) {
            return ingest::SyntheticWikipediaDelta(dataset, delta_users, 3,
                                                   1);
          }}));
    }
    families.push_back(std::move(family));
  }
  {
    FamilyResult family{"ddp", {}};
    for (int executions : {12, 32}) {
      family.configs.push_back(MeasureConfig(ConfigSpec{
          "executions=" + std::to_string(executions),
          [executions] { return DdpGenerator::Generate(Ddp(executions)); },
          [](const Dataset& dataset) {
            return ingest::SyntheticDdpDelta(dataset, 1, 1, 1);
          }}));
    }
    families.push_back(std::move(family));
  }

  std::printf("{\n  \"bench\": \"bench_ingest --json\",\n");
  std::printf("  \"workload\": \"~1%% synthetic delta per family, "
              "w_dist 0.5, max_steps 32, threads 1\",\n");
  std::printf("  \"contract\": \"warm re-summarize >= 3x full re-run on "
              "the largest config of every family\",\n");
  std::printf("  \"families\": [\n");
  bool gate_ok = true;
  std::string gate_detail;
  for (size_t f = 0; f < families.size(); ++f) {
    const FamilyResult& family = families[f];
    std::printf("    {\"family\": \"%s\", \"configs\": [\n",
                family.family.c_str());
    for (size_t i = 0; i < family.configs.size(); ++i) {
      const ConfigResult& r = family.configs[i];
      std::printf("      {\"label\": \"%s\", \"delta_fraction\": %.4f, "
                  "\"replayed_merges\": %d, \"continuation_steps\": %d, "
                  "\"full_ns\": %.0f, \"warm_ns\": %.0f, "
                  "\"speedup\": %.2f}%s\n",
                  r.label.c_str(), r.delta_fraction, r.replayed_merges,
                  r.continuation_steps, r.full_ns, r.warm_ns, r.speedup,
                  i + 1 < family.configs.size() ? "," : "");
    }
    const ConfigResult& largest = family.configs.back();
    if (largest.speedup < 3.0) {
      gate_ok = false;
      gate_detail += (gate_detail.empty() ? "" : ", ") + family.family +
                     " " + largest.label;
    }
    std::printf("    ]}%s\n", f + 1 < families.size() ? "," : "");
  }
  std::printf("  ]\n}\n");

  if (!gate_ok) {
    std::fprintf(stderr,
                 "bench_ingest --json: FAIL warm speedup < 3.0 on the "
                 "largest config (%s)\n",
                 gate_detail.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return RunJsonBaseline();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
