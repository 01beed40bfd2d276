// Golden bit-identity for the batch kernels: the batched distance path
// must produce the exact bytes the legacy per-valuation path produces —
// summary expression text, bit-exact distances, and the /v1/summarize
// JSON body — at every SIMD tier (scalar, SSE4.2, AVX2 via the tier
// cap), at thread counts 1 and 8, on all three dataset families. The
// same binary runs a second time under PROX_SIMD=0 (CTest target
// prox_kernels_golden_simd_off), proving the kill switch forces the
// scalar tier without changing a byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/cpu_features.h"
#include "common/json.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "ir/adopt.h"
#include "ir/term_pool.h"
#include "kernels/metrics.h"
#include "engine/codec.h"
#include "obs/metrics.h"
#include "summarize/distance.h"
#include "summarize/summarizer.h"

namespace prox {
namespace {

struct GoldenRun {
  std::string expression;  // summary->ToString
  std::string json;        // /v1/summarize body (groups, steps, distances)
  double final_distance = 0.0;
  int64_t final_size = 0;
};

/// Scoped SIMD-tier cap; lifts back to the env/hardware decision on exit
/// (under the PROX_SIMD=0 CTest variant every "tier" below therefore
/// resolves to scalar — the identity assertions must still hold).
struct TierCap {
  explicit TierCap(common::SimdTier tier) { common::SetSimdTierCap(tier); }
  ~TierCap() { common::SetSimdTierCap(common::SimdTier::kAvx2); }
};

template <typename Generator, typename Config>
GoldenRun RunFamily(const Config& config, bool use_ir, int threads) {
  Dataset ds = Generator::Generate(config);
  std::vector<Valuation> valuations =
      ds.valuation_class->Generate(*ds.provenance, ds.ctx);
  EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                            ds.val_func.get(), valuations, threads);
  SummarizerOptions options;
  options.w_dist = 0.5;
  options.w_size = 0.5;
  options.max_steps = 6;
  options.phi = ds.phi;
  options.threads = threads;
  options.use_ir = use_ir;
  Summarizer summarizer(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                        &ds.constraints, &oracle, &valuations, options);
  SummaryOutcome outcome = summarizer.Run().MoveValue();

  GoldenRun run;
  run.expression = outcome.summary->ToString(*ds.registry);
  run.json = WriteJson(engine::SummaryOutcomeToJson(outcome, *ds.registry));
  run.final_distance = outcome.final_distance;
  run.final_size = outcome.final_size;
  return run;
}

template <typename Generator, typename Config>
void ExpectByteIdenticalAcrossTiers(const Config& config) {
  // Reference: the legacy pointer-tree path, serial. Legacy candidates
  // have no batch lowering, so this run never touches the kernels.
  const GoldenRun reference = RunFamily<Generator>(config, /*use_ir=*/false,
                                                   /*threads=*/1);
  EXPECT_FALSE(reference.expression.empty());
  EXPECT_FALSE(reference.json.empty());

  struct Variant {
    common::SimdTier tier;
    bool use_ir;
    int threads;
  };
  const Variant variants[] = {
      {common::SimdTier::kScalar, true, 1},
      {common::SimdTier::kSse42, true, 1},
      {common::SimdTier::kAvx2, true, 1},
      {common::SimdTier::kScalar, true, 8},
      {common::SimdTier::kAvx2, true, 8},
      {common::SimdTier::kAvx2, false, 8},  // legacy, parallel
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(std::string(v.use_ir ? "batch" : "legacy") + " tier=" +
                 common::SimdTierName(v.tier) + " threads=" +
                 std::to_string(v.threads));
    TierCap cap(v.tier);
    const GoldenRun run = RunFamily<Generator>(config, v.use_ir, v.threads);
    EXPECT_EQ(run.expression, reference.expression);
    EXPECT_EQ(run.json, reference.json);
    EXPECT_EQ(run.final_distance, reference.final_distance);  // bit-exact
    EXPECT_EQ(run.final_size, reference.final_size);
  }
}

TEST(GoldenKernelsTest, MovieLens) {
  MovieLensConfig config;
  config.num_users = 20;
  config.num_movies = 6;
  config.ratings_per_user = 3;
  ExpectByteIdenticalAcrossTiers<MovieLensGenerator>(config);
}

TEST(GoldenKernelsTest, Wikipedia) {
  WikipediaConfig config;
  config.num_users = 10;
  config.num_pages = 8;
  ExpectByteIdenticalAcrossTiers<WikipediaGenerator>(config);
}

TEST(GoldenKernelsTest, Ddp) {
  DdpConfig config;
  config.num_executions = 8;
  ExpectByteIdenticalAcrossTiers<DdpGenerator>(config);
}

TEST(GoldenKernelsTest, BatchPathActuallyEngages) {
  // Identity is vacuous if the batch path silently never runs. An IR run
  // must advance the batched-valuation counter; a legacy run (candidates
  // without a batch lowering) must advance the fallback counter instead.
  MovieLensConfig config;
  config.num_users = 12;
  config.num_movies = 4;
  config.ratings_per_user = 3;

  const uint64_t batch_before = kernels::BatchEvalsForTesting();
  RunFamily<MovieLensGenerator>(config, /*use_ir=*/true, /*threads=*/1);
  const uint64_t batch_after = kernels::BatchEvalsForTesting();
  EXPECT_GT(batch_after, batch_before);

  const uint64_t fallback_before = kernels::ScalarFallbacksForTesting(
      kernels::FallbackReason::kNoLowering);
  RunFamily<MovieLensGenerator>(config, /*use_ir=*/false, /*threads=*/1);
  EXPECT_GT(kernels::ScalarFallbacksForTesting(
                kernels::FallbackReason::kNoLowering),
            fallback_before);
  // The legacy run itself must not have gone through the kernels.
  EXPECT_EQ(kernels::BatchEvalsForTesting(), batch_after);
}

TEST(GoldenKernelsTest, GroupKeyMergesStayOnTheBatchPath) {
  // Merges of group keys (movies, pages) price against the base blocks
  // folded onto the merged groups, so IR runs take no fallback for any
  // reason — the projection-related ones (layout_mismatch,
  // scalar_collapse) included — while the runs do merge group keys.
  const kernels::FallbackReason reasons[] = {
      kernels::FallbackReason::kNoLowering,
      kernels::FallbackReason::kNoBatchKind,
      kernels::FallbackReason::kLayoutMismatch,
      kernels::FallbackReason::kScalarCollapse};
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* evals =
      registry.GetCounter("prox_distance_enumerated_evals_total", "");
  obs::Counter* reuse =
      registry.GetCounter("prox_distance_base_eval_reuse_total", "");
  auto expect_no_fallbacks = [&](const std::function<void()>& run) {
    uint64_t before[std::size(reasons)];
    for (size_t r = 0; r < std::size(reasons); ++r) {
      before[r] = kernels::ScalarFallbacksForTesting(reasons[r]);
    }
    const uint64_t batch_before = kernels::BatchEvalsForTesting();
    const uint64_t evals_before = evals->value();
    const uint64_t reuse_before = reuse->value();
    run();
    EXPECT_GT(kernels::BatchEvalsForTesting(), batch_before);
    // Fewer reused base evaluations than evaluations: some calls priced a
    // candidate whose merge moved a group key.
    EXPECT_LT(reuse->value() - reuse_before, evals->value() - evals_before);
    for (size_t r = 0; r < std::size(reasons); ++r) {
      EXPECT_EQ(kernels::ScalarFallbacksForTesting(reasons[r]), before[r])
          << kernels::FallbackReasonName(reasons[r]);
    }
  };

  MovieLensConfig movies;
  movies.num_users = 20;
  movies.num_movies = 6;
  movies.ratings_per_user = 3;
  WikipediaConfig pages;
  pages.num_users = 10;
  pages.num_pages = 8;
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_no_fallbacks([&] {
      RunFamily<MovieLensGenerator>(movies, /*use_ir=*/true, threads);
    });
    expect_no_fallbacks([&] {
      RunFamily<WikipediaGenerator>(pages, /*use_ir=*/true, threads);
    });
  }
}

TEST(GoldenKernelsTest, SampledOracleBitIdenticalAcrossTiers) {
  // The Monte-Carlo oracle regenerates each sample from (seed, index), so
  // distances are comparable across runs; they must be bit-identical
  // across tiers and thread counts too.
  MovieLensConfig config;
  config.num_users = 14;
  config.num_movies = 5;
  Dataset ds = MovieLensGenerator::Generate(config);
  // An IR candidate, so the candidate side has a batch lowering and the
  // batched path genuinely engages (a legacy candidate would fall back).
  auto pool = std::make_shared<ir::TermPool>();
  auto cand = ir::Adopt(*ds.provenance, pool);

  auto distance_at = [&](common::SimdTier tier, int threads) {
    TierCap cap(tier);
    SampledDistance::Options options;
    options.num_samples = 160;  // 10 grain-16 chunks
    options.threads = threads;
    SampledDistance oracle(ds.provenance.get(), ds.registry.get(),
                           ds.val_func.get(), options);
    MappingState state(ds.registry.get(), ds.phi);
    return oracle.Distance(*cand, state);
  };

  const double reference = distance_at(common::SimdTier::kScalar, 1);
  EXPECT_EQ(distance_at(common::SimdTier::kSse42, 1), reference);
  EXPECT_EQ(distance_at(common::SimdTier::kAvx2, 1), reference);
  EXPECT_EQ(distance_at(common::SimdTier::kAvx2, 8), reference);
  EXPECT_EQ(distance_at(common::SimdTier::kScalar, 8), reference);
}

}  // namespace
}  // namespace prox
