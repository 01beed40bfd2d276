/// \file Experiment E12 — google-benchmark micro-benchmarks of the core
/// operations every experiment is built from: expression evaluation,
/// homomorphism application, distance estimation, equivalence grouping,
/// candidate generation, DDP evaluation and polynomial arithmetic.
///
/// The distance-oracle benches build their oracles with threads = 0 (the
/// process default), so the PROX_THREADS env var selects the parallelism:
/// `PROX_THREADS=1 bench_core_micro` measures the exact serial path,
/// `PROX_THREADS=$(nproc)` the parallel one. scripts/bench_smoke.sh runs
/// both and gates on serial regressions.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/cpu_features.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "engine/engine.h"
#include "ir/adopt.h"
#include "ir/term_pool.h"
#include "kernels/batch_eval.h"
#include "kernels/metrics.h"
#include "kernels/valuation_block.h"
#include "obs/metrics.h"
#include "semiring/polynomial.h"
#include "summarize/candidates.h"
#include "summarize/distance.h"
#include "summarize/equivalence.h"

using namespace prox;

namespace {

Dataset MakeMovies(int users) {
  MovieLensConfig config;
  config.num_users = users;
  config.num_movies = 12;
  config.seed = 3;
  return MovieLensGenerator::Generate(config);
}

void BM_AggregateEvaluate(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  MaterializedValuation v(ds.registry->size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.provenance->Evaluate(v));
  }
  state.SetItemsProcessed(state.iterations() * ds.provenance->Size());
}
BENCHMARK(BM_AggregateEvaluate)->Arg(20)->Arg(40)->Arg(80);

void BM_AggregateApplyHomomorphism(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  auto users = ds.registry->AnnotationsInDomain(ds.domain("user"));
  AnnotationId summary =
      ds.registry->AddSummary(ds.domain("user"), "Merged");
  Homomorphism h;
  h.Set(users[0], summary);
  h.Set(users[1], summary);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.provenance->Apply(h));
  }
}
BENCHMARK(BM_AggregateApplyHomomorphism)->Arg(20)->Arg(40)->Arg(80);

void BM_IrAggregateEvaluate(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  auto pool = std::make_shared<ir::TermPool>();
  auto flat = ir::Adopt(*ds.provenance, pool);
  MaterializedValuation v(ds.registry->size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat->Evaluate(v));
  }
  state.SetItemsProcessed(state.iterations() * flat->Size());
}
BENCHMARK(BM_IrAggregateEvaluate)->Arg(20)->Arg(40)->Arg(80);

void BM_IrAggregateApplyHomomorphism(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  auto pool = std::make_shared<ir::TermPool>();
  auto flat = ir::Adopt(*ds.provenance, pool);
  auto users = ds.registry->AnnotationsInDomain(ds.domain("user"));
  AnnotationId summary =
      ds.registry->AddSummary(ds.domain("user"), "Merged");
  Homomorphism h;
  h.Set(users[0], summary);
  h.Set(users[1], summary);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat->Apply(h));
  }
}
BENCHMARK(BM_IrAggregateApplyHomomorphism)->Arg(20)->Arg(40)->Arg(80);

void BM_EnumeratedDistanceOneCandidate(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations, /*threads=*/0);
  auto users = ds.registry->AnnotationsInDomain(ds.domain("user"));
  AnnotationId summary =
      ds.registry->AddSummary(ds.domain("user"), "Merged");
  MappingState mapping(ds.registry.get(), ds.phi);
  mapping.Merge({users[0], users[1]}, summary);
  Homomorphism h;
  h.Set(users[0], summary);
  h.Set(users[1], summary);
  auto cand = ds.provenance->Apply(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Distance(*cand, mapping));
  }
  state.counters["valuations"] = static_cast<double>(valuations.size());
}
BENCHMARK(BM_EnumeratedDistanceOneCandidate)->Arg(20)->Arg(40);

void BM_SampledDistanceOneCandidate(benchmark::State& state) {
  Dataset ds = MakeMovies(20);
  SampledDistance::Options options;
  options.num_samples = static_cast<int>(state.range(0));
  options.threads = 0;  // process default; PROX_THREADS selects parallelism
  SampledDistance oracle(ds.provenance.get(), ds.registry.get(),
                         ds.val_func.get(), options);
  auto users = ds.registry->AnnotationsInDomain(ds.domain("user"));
  AnnotationId summary =
      ds.registry->AddSummary(ds.domain("user"), "Merged");
  MappingState mapping(ds.registry.get(), ds.phi);
  mapping.Merge({users[0], users[1]}, summary);
  Homomorphism h;
  h.Set(users[0], summary);
  h.Set(users[1], summary);
  auto cand = ds.provenance->Apply(h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.Distance(*cand, mapping));
  }
}
BENCHMARK(BM_SampledDistanceOneCandidate)->Arg(100)->Arg(1000);

void BM_EquivalenceClasses(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  std::vector<AnnotationId> anns;
  ds.provenance->CollectAnnotations(&anns);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EquivalenceClasses(anns, valuations, *ds.registry));
  }
}
BENCHMARK(BM_EquivalenceClasses)->Arg(20)->Arg(80);

void BM_CandidateGeneration(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  CandidateGenerator gen(&ds.constraints, &ds.ctx);
  MappingState mapping(ds.registry.get(), ds.phi);
  CandidateOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Generate(*ds.provenance, mapping, options));
  }
}
BENCHMARK(BM_CandidateGeneration)->Arg(20)->Arg(40);

void BM_DdpEvaluate(benchmark::State& state) {
  DdpConfig config;
  config.num_executions = static_cast<int>(state.range(0));
  Dataset ds = DdpGenerator::Generate(config);
  MaterializedValuation v(ds.registry->size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.provenance->Evaluate(v));
  }
}
BENCHMARK(BM_DdpEvaluate)->Arg(8)->Arg(32);

// Batch kernels (docs/KERNELS.md): one EvaluateBlock pass over a grain-8
// valuation block vs eight per-valuation Evaluate() walks of the same
// flat expression — the raw speedup the oracles' batch path buys before
// any VAL-FUNC reduction. PROX_SIMD / --simd caps apply, so
// `PROX_SIMD=0 bench_core_micro` measures the scalar kernels.

void BM_BatchEvaluateBlock(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  auto pool = std::make_shared<ir::TermPool>();
  auto flat = ir::Adopt(*ds.provenance, pool);
  const kernels::BatchEvalFacade* facade = flat->AsBatchEval();
  if (facade == nullptr) {
    state.SkipWithError("no batch lowering");
    return;
  }
  const kernels::BatchProgram program = facade->LowerBatch();
  const size_t n = ds.registry->size();
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  const size_t width =
      std::min<size_t>(EnumeratedDistance::kReductionGrain,
                       valuations.size());
  kernels::ValuationBlock block;
  block.Reset(n, width);
  for (size_t l = 0; l < width; ++l) {
    block.FillLane(l, MaterializedValuation(valuations[l], n));
  }
  kernels::BlockEval evals;
  for (auto _ : state) {
    kernels::EvaluateBlock(program, block, &evals);
    benchmark::DoNotOptimize(evals.values.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(width));
}
BENCHMARK(BM_BatchEvaluateBlock)->Arg(20)->Arg(40)->Arg(80);

void BM_PerValuationEvaluateBlock(benchmark::State& state) {
  Dataset ds = MakeMovies(static_cast<int>(state.range(0)));
  auto pool = std::make_shared<ir::TermPool>();
  auto flat = ir::Adopt(*ds.provenance, pool);
  const size_t n = ds.registry->size();
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  const size_t width =
      std::min<size_t>(EnumeratedDistance::kReductionGrain,
                       valuations.size());
  std::vector<MaterializedValuation> mats;
  for (size_t l = 0; l < width; ++l) {
    mats.emplace_back(valuations[l], n);
  }
  for (auto _ : state) {
    for (const MaterializedValuation& mat : mats) {
      benchmark::DoNotOptimize(flat->Evaluate(mat));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(width));
}
BENCHMARK(BM_PerValuationEvaluateBlock)->Arg(20)->Arg(40)->Arg(80);

void BM_PolynomialMultiply(benchmark::State& state) {
  Polynomial a, b;
  for (int i = 0; i < state.range(0); ++i) {
    a += Polynomial::FromVar(static_cast<Polynomial::Var>(i));
    b += Polynomial::FromVar(static_cast<Polynomial::Var>(i + 100));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_PolynomialMultiply)->Arg(4)->Arg(16);

// --json baseline mode (BENCH_ir.json). google-benchmark rejects flags it
// does not know, so this is intercepted before benchmark::Initialize sees
// argv. It times the two operations the flat core exists for — Apply and
// Evaluate — legacy tree vs prox::ir on identical inputs, and self-checks
// the docs/IR.md performance contract: IR >= 1.5x on both.

double MinNsPerOp(const std::function<void()>& op) {
  // Warm up, size the inner loop to ~20ms, then take the best of 5 reps
  // (min is the right statistic for a noise-floor microbench baseline).
  op();
  using Clock = std::chrono::steady_clock;
  auto time_iters = [&](long iters) {
    auto start = Clock::now();
    for (long i = 0; i < iters; ++i) op();
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  long iters = 1;
  while (time_iters(iters) < 2e6 && iters < (1L << 30)) iters *= 4;
  double best = time_iters(iters);
  for (int rep = 1; rep < 5; ++rep) best = std::min(best, time_iters(iters));
  return best / static_cast<double>(iters);
}

int RunJsonBaseline() {
  struct Row {
    const char* op;
    int users;
    double legacy_ns;
    double ir_ns;
  };
  std::vector<Row> rows;
  for (int users : {20, 80}) {
    Dataset ds = MakeMovies(users);
    auto pool = std::make_shared<ir::TermPool>();
    auto flat = ir::Adopt(*ds.provenance, pool);
    auto user_anns = ds.registry->AnnotationsInDomain(ds.domain("user"));
    AnnotationId summary =
        ds.registry->AddSummary(ds.domain("user"), "Merged");
    Homomorphism h;
    h.Set(user_anns[0], summary);
    h.Set(user_anns[1], summary);
    MaterializedValuation v(ds.registry->size());
    rows.push_back({"apply", users,
                    MinNsPerOp([&] {
                      benchmark::DoNotOptimize(ds.provenance->Apply(h));
                    }),
                    MinNsPerOp([&] {
                      benchmark::DoNotOptimize(flat->Apply(h));
                    })});
    rows.push_back({"evaluate", users,
                    MinNsPerOp([&] {
                      benchmark::DoNotOptimize(ds.provenance->Evaluate(v));
                    }),
                    MinNsPerOp([&] {
                      benchmark::DoNotOptimize(flat->Evaluate(v));
                    })});
  }
  double min_speedup = 1e300;
  std::printf("{\n  \"bench\": \"bench_core_micro --json\",\n");
  std::printf("  \"workload\": \"MovieLens 12 movies, seed 3\",\n");
  std::printf("  \"contract\": \"ir >= 1.5x legacy on apply and evaluate\",\n");
  std::printf("  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    double speedup = r.legacy_ns / r.ir_ns;
    min_speedup = std::min(min_speedup, speedup);
    std::printf("    {\"op\": \"%s\", \"users\": %d, "
                "\"legacy_ns_per_op\": %.1f, \"ir_ns_per_op\": %.1f, "
                "\"speedup\": %.2f}%s\n",
                r.op, r.users, r.legacy_ns, r.ir_ns, speedup,
                i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n  \"min_speedup\": %.2f\n}\n", min_speedup);
  if (min_speedup < 1.5) {
    std::fprintf(stderr,
                 "bench_core_micro --json: FAIL min speedup %.2f < 1.5\n",
                 min_speedup);
    return 1;
  }
  return 0;
}

// --json-kernels baseline mode (BENCH_kernels.json). Times one full
// EnumeratedDistance candidate pricing — the batched kernel path vs the
// exact per-valuation scalar loop it replaced — on identical inputs, and
// self-checks the docs/KERNELS.md performance contract: batched >= 2x
// per-valuation on the largest user-merge config and on the group-key
// merge row (two movies merged, so the base evaluations are projected onto
// the merged groups). The batch engagement is verified through the
// prox_kernel_batch_evals_total counter first, so a silently disengaged
// fast path fails instead of benchmarking scalar vs scalar.
//
// The served row times what a client's cold request costs end to end
// below the wire: one users=100 summarize (w_dist 0.5, 32 steps) through
// Engine::HandleSummarize. Before timing, one untimed run must price at
// least 90% of its Distance calls on the kernel path, by the
// prox_distance_enumerated_calls_total and prox_kernel_scalar_fallback
// counters; the cache is off, and runs are request-pure, so every timed
// run repeats the same work.

struct ServedRow {
  int64_t distance_calls = 0;
  double kernel_share = 0.0;
  double wall_ms = 0.0;
};

bool MeasureServedCold(ServedRow* row) {
  constexpr char kBody[] = "{\"w_dist\":0.5,\"max_steps\":32}";
  engine::Engine::Options options;
  options.dataset.num_users = 100;
  options.cache.max_bytes = 0;
  Result<std::unique_ptr<engine::Engine>> created =
      engine::Engine::Create(options);
  if (!created.ok()) return false;
  engine::Engine& served = *created.value();

  auto distance_calls = [] {
    return obs::MetricsRegistry::Default().Snapshot().CounterValue(
        "prox_distance_enumerated_calls_total");
  };
  const double calls_before = distance_calls();
  const uint64_t fallbacks_before = kernels::ScalarFallbacksForTesting();
  if (!served.HandleSummarize(kBody).ok()) return false;
  const double calls = distance_calls() - calls_before;
  const double fallbacks = static_cast<double>(
      kernels::ScalarFallbacksForTesting() - fallbacks_before);
  row->distance_calls = static_cast<int64_t>(calls);
  row->kernel_share = calls > 0 ? 1.0 - fallbacks / calls : 0.0;
  if (row->kernel_share < 0.9) {
    std::fprintf(stderr,
                 "bench_core_micro --json-kernels: FAIL served cold run "
                 "priced %.3f of %.0f Distance calls on the kernels "
                 "(< 0.90)\n",
                 row->kernel_share, calls);
    return false;
  }

  using Clock = std::chrono::steady_clock;
  double best_ms = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    engine::Engine::Response response = served.HandleSummarize(kBody);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (!response.ok() ||
        response.cache != engine::Engine::Response::CacheOutcome::kMiss) {
      return false;
    }
    best_ms = rep == 0 ? ms : std::min(best_ms, ms);
  }
  row->wall_ms = best_ms;
  return true;
}

int RunKernelsJsonBaseline() {
  struct Row {
    int users;
    const char* merge;  // domain of the two merged annotations
    size_t valuations;
    double scalar_ns;
    double batched_ns;
  };
  std::vector<Row> rows;
  auto measure = [&](int users, const char* merge) {
    Dataset ds = MakeMovies(users);
    std::vector<Valuation> valuations =
        ds.valuation_class->Generate(*ds.provenance, ds.ctx);
    EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                              ds.val_func.get(), valuations, /*threads=*/1);
    auto anns = ds.registry->AnnotationsInDomain(ds.domain(merge));
    AnnotationId summary = ds.registry->AddSummary(ds.domain(merge), "Merged");
    MappingState mapping(ds.registry.get(), ds.phi);
    mapping.Merge({anns[0], anns[1]}, summary);
    auto pool = std::make_shared<ir::TermPool>();
    auto cand = ir::Adopt(*ds.provenance->Apply(mapping.cumulative()), pool);

    const uint64_t evals_before = kernels::BatchEvalsForTesting();
    benchmark::DoNotOptimize(oracle.Distance(*cand, mapping));
    if (kernels::BatchEvalsForTesting() == evals_before) {
      std::fprintf(stderr,
                   "bench_core_micro --json-kernels: FAIL batch path did "
                   "not engage at users=%d merge=%s\n",
                   users, merge);
      return false;
    }

    const double batched_ns = MinNsPerOp([&] {
      benchmark::DoNotOptimize(oracle.Distance(*cand, mapping));
    });
    // The per-valuation loop the batch path replaced, verbatim from the
    // oracle's fallback (serial): a group-key merge projects each cached
    // base evaluation onto the merged groups first.
    const bool project = std::string_view(merge) != "user";
    const std::vector<EvalResult>& base_evals = oracle.base_evals();
    const std::vector<MaterializedValuation>& base_mats = oracle.base_mats();
    const double scalar_ns = MinNsPerOp([&] {
      const size_t n = ds.registry->size();
      double total = 0.0;
      for (size_t i = 0; i < valuations.size(); ++i) {
        MaterializedValuation transformed =
            mapping.TransformFrom(valuations[i], base_mats[i], n);
        EvalResult summ = cand->Evaluate(transformed);
        if (!project) {
          total += valuations[i].weight() *
                   ds.val_func->Compute(base_evals[i], summ);
          continue;
        }
        EvalResult orig =
            cand->ProjectEvalResult(base_evals[i], mapping.cumulative());
        total += valuations[i].weight() * ds.val_func->Compute(orig, summ);
      }
      benchmark::DoNotOptimize(total);
    });
    rows.push_back({users, merge, valuations.size(), scalar_ns, batched_ns});
    return true;
  };
  for (int users : {20, 40, 80}) {
    if (!measure(users, "user")) return 1;
  }
  if (!measure(80, "movie")) return 1;
  ServedRow served;
  if (!MeasureServedCold(&served)) {
    std::fprintf(stderr,
                 "bench_core_micro --json-kernels: FAIL served cold row\n");
    return 1;
  }

  std::printf("{\n  \"bench\": \"bench_core_micro --json-kernels\",\n");
  std::printf("  \"workload\": \"MovieLens 12 movies, seed 3; one "
              "candidate (two users, or two movies, merged) priced against "
              "the full valuation class\",\n");
  std::printf("  \"simd_tier\": \"%s\",\n",
              common::SimdTierName(common::ActiveSimdTier()));
  std::printf("  \"contract\": \"batched distance >= 2x the per-valuation "
              "scalar loop on the largest user-merge config and on the "
              "group-key merge\",\n");
  std::printf("  \"results\": [\n");
  double largest_speedup = 0.0;
  double group_key_speedup = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    const double speedup = r.scalar_ns / r.batched_ns;
    // User rows are ordered smallest to largest; the group-key row is last.
    if (std::string_view(r.merge) == "user") {
      largest_speedup = speedup;
    } else {
      group_key_speedup = speedup;
    }
    std::printf("    {\"users\": %d, \"merge\": \"%s\", "
                "\"valuations\": %zu, "
                "\"scalar_ns_per_candidate\": %.1f, "
                "\"batched_ns_per_candidate\": %.1f, \"speedup\": %.2f}%s\n",
                r.users, r.merge, r.valuations, r.scalar_ns, r.batched_ns,
                speedup, i + 1 < rows.size() ? "," : "");
  }
  std::printf("  ],\n  \"largest_config_speedup\": %.2f,\n",
              largest_speedup);
  std::printf("  \"group_key_merge_speedup\": %.2f,\n", group_key_speedup);
  std::printf("  \"served_cold\": {\"path\": \"Engine::HandleSummarize, "
              "MovieLens users=100 movies=8 seed 99, w_dist 0.5, max_steps "
              "32, threads 1, cache off\", \"distance_calls\": %lld, "
              "\"kernel_share\": %.3f, \"wall_ms\": %.1f}\n}\n",
              static_cast<long long>(served.distance_calls),
              served.kernel_share, served.wall_ms);
  if (largest_speedup < 2.0 || group_key_speedup < 2.0) {
    std::fprintf(stderr,
                 "bench_core_micro --json-kernels: FAIL speedup under 2.0 "
                 "(largest config %.2f, group-key merge %.2f)\n",
                 largest_speedup, group_key_speedup);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") return RunJsonBaseline();
    if (std::string_view(argv[i]) == "--json-kernels") {
      return RunKernelsJsonBaseline();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
