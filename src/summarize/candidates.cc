#include "summarize/candidates.h"

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace prox {

namespace {

/// Metric handles for candidate generation (docs/OBSERVABILITY.md).
struct CandidateMetrics {
  obs::Counter* generated;
  obs::Counter* rejected;
  obs::Counter* subsampled;

  static const CandidateMetrics& Get() {
    static const CandidateMetrics m = [] {
      auto& r = obs::MetricsRegistry::Default();
      CandidateMetrics m;
      m.generated = r.GetCounter(
          "prox_candidates_generated_total",
          "Constraint-allowed candidate merges emitted by Generate().");
      m.rejected = r.GetCounter(
          "prox_candidates_rejected_total",
          "Candidate merges rejected by the mapping constraints.");
      m.subsampled = r.GetCounter(
          "prox_candidates_subsampled_total",
          "Candidates dropped by the max_candidates uniform subsample.");
      return m;
    }();
    return m;
  }
};

/// Calls `emit` for every size-k subset of `items` (in lexicographic index
/// order). Aborts enumeration early once `emit` returns false.
template <typename Emit>
void ForEachSubset(const std::vector<AnnotationId>& items, int k, Emit emit) {
  const int n = static_cast<int>(items.size());
  if (k > n || k <= 0) return;
  std::vector<int> idx(k);
  for (int i = 0; i < k; ++i) idx[i] = i;
  for (;;) {
    std::vector<AnnotationId> subset(k);
    for (int i = 0; i < k; ++i) subset[i] = items[idx[i]];
    if (!emit(std::move(subset))) return;
    int i = k - 1;
    while (i >= 0 && idx[i] == n - k + i) --i;
    if (i < 0) return;
    ++idx[i];
    for (int j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

}  // namespace

std::vector<Candidate> CandidateGenerator::Generate(
    const ProvenanceExpression& current, const MappingState& state,
    const CandidateOptions& options) const {
  const CandidateMetrics& metrics = CandidateMetrics::Get();
  obs::TraceSpan generate_span("summarize.candidate_gen");
  std::vector<AnnotationId> anns;
  current.CollectAnnotations(&anns);

  // Bucket current annotations by domain; only domains with a rule can
  // yield candidates. Summary roots resolve in the state's registry (a
  // run's overlay), not the dataset's.
  std::map<DomainId, std::vector<AnnotationId>> by_domain;
  for (AnnotationId a : anns) {
    DomainId d = state.registry().domain(a);
    if (constraints_->HasRule(d)) by_domain[d].push_back(a);
  }

  std::vector<Candidate> out;
  for (const auto& [domain, roots] : by_domain) {
    ForEachSubset(roots, options.arity, [&](std::vector<AnnotationId> subset) {
      // Constraint check runs on the union of original members.
      std::vector<AnnotationId> members;
      for (AnnotationId root : subset) {
        auto ms = state.Members(root);
        members.insert(members.end(), ms.begin(), ms.end());
      }
      MergeDecision decision = constraints_->Evaluate(domain, members, *ctx_);
      if (decision.allowed) {
        Candidate c;
        c.roots = std::move(subset);
        c.domain = domain;
        c.decision = std::move(decision);
        out.push_back(std::move(c));
      } else {
        metrics.rejected->Increment();
      }
      return true;
    });
  }

  metrics.generated->Increment(out.size());
  if (options.max_candidates > 0 && out.size() > options.max_candidates) {
    metrics.subsampled->Increment(out.size() - options.max_candidates);
    // Deterministic uniform subsample (partial Fisher-Yates), preserving
    // the original order of the survivors for reproducibility.
    Rng rng(options.sample_seed);
    std::vector<size_t> indices(out.size());
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    for (size_t i = 0; i < options.max_candidates; ++i) {
      size_t j = i + rng.PickIndex(indices.size() - i);
      std::swap(indices[i], indices[j]);
    }
    indices.resize(options.max_candidates);
    std::sort(indices.begin(), indices.end());
    std::vector<Candidate> sampled;
    sampled.reserve(indices.size());
    for (size_t i : indices) sampled.push_back(std::move(out[i]));
    out = std::move(sampled);
  }
  return out;
}

}  // namespace prox
