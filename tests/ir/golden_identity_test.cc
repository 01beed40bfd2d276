// Golden byte-identity: the flat prox::ir hot path must produce the exact
// bytes the legacy pointer-tree path produces — summary expression text,
// group names, distances, and the /v1/summarize JSON body — on all three
// dataset families, at thread counts 1 and 8. Every run regenerates its
// dataset from the same seed/config (summarization registers summary
// annotations, so a dataset cannot be reused across runs).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "datasets/ddp.h"
#include "datasets/movielens.h"
#include "datasets/wikipedia.h"
#include "engine/codec.h"
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
  run.json = WriteJson(engine::SummaryOutcomeToJson(outcome));
  run.final_distance = outcome.final_distance;
  run.final_size = outcome.final_size;
  return run;
}

template <typename Generator, typename Config>
void ExpectByteIdentical(const Config& config) {
  const GoldenRun reference = RunFamily<Generator>(config, /*use_ir=*/false,
                                                   /*threads=*/1);
  EXPECT_FALSE(reference.expression.empty());
  EXPECT_FALSE(reference.json.empty());

  struct Variant {
    bool use_ir;
    int threads;
  };
  const Variant variants[] = {{true, 1}, {true, 8}, {false, 8}};
  for (const Variant& v : variants) {
    const GoldenRun run = RunFamily<Generator>(config, v.use_ir, v.threads);
    SCOPED_TRACE(std::string(v.use_ir ? "ir" : "legacy") + " threads=" +
                 std::to_string(v.threads));
    EXPECT_EQ(run.expression, reference.expression);
    EXPECT_EQ(run.json, reference.json);
    EXPECT_EQ(run.final_distance, reference.final_distance);  // bit-exact
    EXPECT_EQ(run.final_size, reference.final_size);
  }
}

TEST(GoldenIdentityTest, MovieLens) {
  MovieLensConfig config;
  config.num_users = 20;
  config.num_movies = 6;
  config.ratings_per_user = 3;
  ExpectByteIdentical<MovieLensGenerator>(config);
}

TEST(GoldenIdentityTest, Wikipedia) {
  WikipediaConfig config;
  config.num_users = 10;
  config.num_pages = 8;
  ExpectByteIdentical<WikipediaGenerator>(config);
}

TEST(GoldenIdentityTest, Ddp) {
  DdpConfig config;
  config.num_executions = 8;
  ExpectByteIdentical<DdpGenerator>(config);
}

TEST(GoldenIdentityTest, DdpFromMachine) {
  DdpConfig config;
  config.from_machine = true;
  config.num_executions = 10;
  config.seed = 21;
  ExpectByteIdentical<DdpGenerator>(config);
}

TEST(GoldenIdentityTest, MovieLensWithIncrementalScoring) {
  // The incremental scorer snapshots the current expression through the
  // facade; it must stay bit-identical on the IR representation too.
  MovieLensConfig config;
  config.num_users = 16;
  config.num_movies = 5;
  config.ratings_per_user = 3;

  auto run = [&](bool use_ir) {
    Dataset ds = MovieLensGenerator::Generate(config);
    std::vector<Valuation> valuations =
        ds.valuation_class->Generate(*ds.provenance, ds.ctx);
    EnumeratedDistance oracle(ds.provenance.get(), ds.registry.get(),
                              ds.val_func.get(), valuations, 1);
    SummarizerOptions options;
    options.max_steps = 5;
    options.phi = ds.phi;
    options.incremental = SummarizerOptions::Incremental::kEuclidean;
    options.use_ir = use_ir;
    Summarizer summarizer(ds.provenance.get(), ds.registry.get(), &ds.ctx,
                          &ds.constraints, &oracle, &valuations, options);
    SummaryOutcome outcome = summarizer.Run().MoveValue();
    return WriteJson(engine::SummaryOutcomeToJson(outcome));
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace prox
