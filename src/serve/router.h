#ifndef PROX_SERVE_ROUTER_H_
#define PROX_SERVE_ROUTER_H_

#include <string>

#include "engine/engine.h"
#include "obs/flight_recorder.h"
#include "serve/http.h"
#include "serve/route_stats.h"

namespace prox {
namespace serve {

/// \brief Maps HTTP requests onto the prox::engine facade — the service
/// counterpart of the Chapter 7 web UI (docs/SERVING.md documents every
/// endpoint and schema):
///
///   POST /v1/select            selection view (criteria or {"all": true})
///   POST /v1/summarize         Algorithm 1 with the request's knobs
///   POST /v1/ingest            streaming delta batch (docs/INGEST.md);
///                              optional "resummarize" directive warm-
///                              starts the next summary in the same call
///   GET  /v1/summary/groups    groups subview of the latest summary
///   POST /v1/evaluate          approximate provisioning on summary or
///                              selection
///   GET  /v1/debug/requests    flight recorder (404 unless
///                              Options::debug_endpoints)
///   GET  /healthz              liveness
///   GET  /metrics              Prometheus text (prox::obs registry)
///
/// The router is pure transport: it parses HTTP, hands the body to the
/// Engine, and serializes the Engine's pre-rendered response — it never
/// touches the session, the summarizer, the cache or the ingest machinery
/// directly (scripts/check_layering.sh enforces that src/serve includes no
/// engine-internal headers). Domain responses come back from the Engine
/// byte-for-byte as before the engine/transport split; the engine's cache
/// outcome is surfaced as the `X-Prox-Cache: hit|miss` header.
///
/// Every request is traced: Handle builds an obs::RequestContext from the
/// inbound `traceparent` header (minting a fresh id when absent or
/// malformed), installs it for the handling thread so the request's spans
/// form a per-request tree, and returns the id as `X-Prox-Trace-Id`. The
/// same id keys the access-log line (when enabled), the route histogram
/// exemplar, and the flight-recorder entry. With obs recording off
/// (PROX_OBS=0) all of this is skipped — no context, no header, no log.
///
/// Thread-safe: Handle may be called from any number of server workers
/// (the Engine synchronizes domain work itself: engine/engine.h).
class Router {
 public:
  struct Options {
    /// Serves GET /v1/debug/requests; off by default because the flight
    /// recorder exposes request bodies' shapes and timings.
    bool debug_endpoints = false;
    obs::FlightRecorder::Options recorder;
    RouteStats::Options route_stats;
  };

  /// `engine` must outlive the router.
  explicit Router(engine::Engine* engine) : Router(engine, Options{}) {}
  Router(engine::Engine* engine, Options options);

  HttpResponse Handle(const HttpRequest& request);

  /// The current dataset fingerprint. By value: ingest advances it by
  /// digest chaining, so the string the caller saw may be replaced while
  /// they hold it.
  std::string dataset_fingerprint() const { return engine_->fingerprint(); }
  const Options& options() const { return options_; }
  obs::FlightRecorder& flight_recorder() { return recorder_; }
  RouteStats& route_stats() { return route_stats_; }

 private:
  /// The undecorated endpoint dispatch (no tracing, headers or logging).
  HttpResponse Dispatch(const HttpRequest& request);

  /// Serializes an engine response onto the wire: status, body,
  /// X-Prox-Cache when the engine consulted the SummaryCache.
  static HttpResponse FromEngine(engine::Engine::Response response);

  HttpResponse HandleMetrics();
  HttpResponse HandleDebugRequests();

  engine::Engine* engine_;
  Options options_;
  RouteStats route_stats_;
  obs::FlightRecorder recorder_;
};

}  // namespace serve
}  // namespace prox

#endif  // PROX_SERVE_ROUTER_H_
