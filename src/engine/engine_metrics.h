#ifndef PROX_ENGINE_ENGINE_METRICS_H_
#define PROX_ENGINE_ENGINE_METRICS_H_

#include "obs/metrics.h"

namespace prox {
namespace engine {

/// \file
/// Metric families owned by the engine layer (docs/OBSERVABILITY.md).
/// The names keep their historical `prox_serve_` prefix: dashboards and
/// the persisted-snapshot warm-hit accounting predate the engine/transport
/// split, and renaming a metric is a breaking change for every scrape
/// config. Same discipline as serve_metrics.h: labels are pre-rendered
/// strings, hot call sites cache the pointer in a function-local static.

/// `prox_serve_fingerprint_fallback_total` — DatasetFingerprint calls that
/// had no snapshot checksum hint and re-hashed the full provenance text.
inline obs::Counter* FingerprintFallbacks() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_fingerprint_fallback_total",
      "Dataset fingerprints computed by re-serializing the provenance "
      "because no snapshot checksum was available.");
}

/// `prox_serve_cache_hit_total`.
inline obs::Counter* CacheHits() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_cache_hit_total", "SummaryCache lookups served from cache.");
}

/// `prox_serve_cache_miss_total`.
inline obs::Counter* CacheMisses() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_cache_miss_total", "SummaryCache lookups that missed.");
}

/// `prox_serve_cache_evict_total`.
inline obs::Counter* CacheEvictions() {
  return obs::MetricsRegistry::Default().GetCounter(
      "prox_serve_cache_evict_total",
      "SummaryCache entries evicted to stay under the byte budget.");
}

/// `prox_serve_cache_bytes` — bytes currently cached across all shards.
inline obs::Gauge* CacheBytes() {
  return obs::MetricsRegistry::Default().GetGauge(
      "prox_serve_cache_bytes", "Bytes held by the SummaryCache.");
}

/// `prox_engine_wait_nanos` — how long a request waited for the engine
/// mutex before its work could start (cold summarize, evaluate, select,
/// ingest, the typed facade's views, snapshot persist). One observation
/// per acquisition; cache hits, `/healthz` and groups take no part.
inline obs::Histogram* EngineWait() {
  return obs::MetricsRegistry::Default().GetHistogram(
      "prox_engine_wait_nanos",
      "Time a request waited for the engine mutex before its work started.",
      obs::LatencyBucketsNanos());
}

/// `prox_engine_runs_inflight` — summarization runs in progress across
/// the process's engines (cold misses, the typed Summarize, re-summaries);
/// at most one per engine, since runs hold the engine mutex.
inline obs::Gauge* RunsInflight() {
  return obs::MetricsRegistry::Default().GetGauge(
      "prox_engine_runs_inflight",
      "Summarization runs in progress inside the engine.");
}

}  // namespace engine
}  // namespace prox

#endif  // PROX_ENGINE_ENGINE_METRICS_H_
