/// \file host.cc
/// \brief Server side of the served-path benchmark (perfbench/README.md).
///
/// The shipped prox_server / prox_router binaries offer no hook around
/// their handler, so the benchmark composes the same public classes with
/// the same defaults itself:
///
///   serve --role=replica    engine::Engine + serve::Router + net::EpollServer
///   serve --role=balancer   net::Balancer + net::EpollServer
///
/// Both roles answer `GET /bench/stats` themselves (the request never
/// reaches the Router or Balancer): peak RSS, the Engine::Create time, and
/// the per-request span records collected since the previous call.
///
/// Tracing (--trace): a request whose W3C `traceparent` carries the
/// sampled flag (`-01`) is timed around Router::Handle / Balancer::Handle,
/// and, on a replica, the program's own obs spans closed on the handling
/// thread are summed per span name through an installed obs::TraceSink.
/// Requests without the flag, and every request of an untraced host, run
/// the shipped handler path; on a traced replica the installed sink sees
/// their spans and drops them at once.
///
/// Offline subcommands:
///   snapshot --out=PATH   boot, summarize each stdin line, persist the
///                         dataset plus warm cache (replicas boot from it)
///   deltas --count=N      print N synthetic MovieLens delta batches, each
///                         built against the dataset after the previous
///   oracle                answer each stdin line (`<target>\t<body>`, a
///                         summarize or evaluate) on a fresh engine and
///                         print the response body (the reference outcomes)
///
/// Every subcommand uses one dataset: MovieLens with 40 users and 8 movies
/// from generator seed 99 (the prox_server family at that shape).

#include <pthread.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "datasets/movielens.h"
#include "engine/engine.h"
#include "ingest/delta.h"
#include "ingest/synthetic.h"
#include "net/balancer.h"
#include "net/epoll_server.h"
#include "obs/trace.h"
#include "serve/http.h"
#include "serve/router.h"

using namespace prox;

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_host: %s\n", message.c_str());
  std::exit(1);
}

constexpr int kUsers = 40;
constexpr int kMovies = 8;
/// Each delta batch adds one user with two ratings: about 1% of the
/// dataset's expression.
constexpr int kDeltaUsers = 1;
constexpr int kDeltaRatings = 2;

struct Flags {
  std::string command;
  std::string role = "replica";
  std::vector<std::string> replicas;
  std::string snapshot;
  std::string out;
  int count = 0;
  bool trace = false;
};

Flags ParseFlags(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_host serve|snapshot|deltas|oracle ...");
  Flags flags;
  flags.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (name == "--role") {
      flags.role = value;
    } else if (name == "--replica") {
      flags.replicas.push_back(value);
    } else if (name == "--snapshot") {
      flags.snapshot = value;
    } else if (name == "--out") {
      flags.out = value;
    } else if (name == "--count") {
      char* end = nullptr;
      const long parsed = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0' || parsed < 0) Die("bad " + arg);
      flags.count = static_cast<int>(parsed);
    } else if (arg == "--trace") {
      flags.trace = true;
    } else {
      Die("unknown flag " + arg);
    }
  }
  return flags;
}

/// The generator shape Engine::Create builds from EngineOptions.
MovieLensConfig DatasetConfig() {
  MovieLensConfig config;
  config.num_users = kUsers;
  config.num_movies = kMovies;
  config.seed = 99;
  return config;
}

engine::Engine::Options EngineOptions(const Flags& flags) {
  engine::Engine::Options options;
  if (flags.snapshot.empty()) {
    options.dataset.num_users = kUsers;
    options.dataset.num_groups = kMovies;
  } else {
    options.dataset.snapshot_path = flags.snapshot;
  }
  return options;
}

/// Engine::Create, timed: the bench-side span for dataset generation or
/// snapshot load.
std::unique_ptr<engine::Engine> CreateEngine(const engine::Engine::Options& o,
                                             double* create_ms) {
  const int64_t start = NowNanos();
  Result<std::unique_ptr<engine::Engine>> booted = engine::Engine::Create(o);
  if (create_ms != nullptr) *create_ms = (NowNanos() - start) / 1e6;
  if (!booted.ok()) Die(booted.status().message());
  return booted.MoveValue();
}

std::vector<std::string> ReadLines(std::istream& in) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Span collection
// ---------------------------------------------------------------------------

/// The obs span names a traced replica request is broken down by.
constexpr const char* kSpanNames[] = {
    "serve.request",           "service.summarize",
    "service.evaluate",        "summarize.run",
    "summarize.candidate_gen", "summarize.candidate_eval",
    "ingest.apply",            "ingest.resummarize",
    "service.select",
};
constexpr int kNumSpans = sizeof(kSpanNames) / sizeof(kSpanNames[0]);

/// Span time of the request the current thread is handling, per name.
struct ThreadSpans {
  bool active = false;
  int64_t nanos[kNumSpans] = {};
};
thread_local ThreadSpans tls_spans;

/// Sums the program's obs spans into the handling thread's record while
/// a sampled request is being handled; drops every other span.
class SpanCollector : public obs::TraceSink {
 public:
  void OnSpanEnd(const obs::SpanRecord& span) override {
    if (!tls_spans.active) return;
    for (int i = 0; i < kNumSpans; ++i) {
      if (std::strcmp(span.name, kSpanNames[i]) == 0) {
        tls_spans.nanos[i] += span.duration_nanos;
        return;
      }
    }
  }
};

/// The sampled request's trace id (32 hex digits) when `traceparent`
/// is well-formed with the sampled flag set; empty otherwise.
std::string SampledTraceId(std::string_view traceparent) {
  // "00-<32 hex trace id>-<16 hex parent id>-<2 hex flags>"
  if (traceparent.size() != 55 || traceparent.substr(53) != "01") return "";
  return std::string(traceparent.substr(3, 32));
}

/// One handled request's bench-side record, rendered as a JSON array:
/// [trace id, handle ns, then one ns total per kSpanNames entry].
class RecordLog {
 public:
  void Add(const std::string& trace_id, int64_t handle_nanos,
           const int64_t* span_nanos) {
    std::string row = "[\"" + trace_id + "\"," + std::to_string(handle_nanos);
    for (int i = 0; span_nanos != nullptr && i < kNumSpans; ++i) {
      row += "," + std::to_string(span_nanos[i]);
    }
    row += "]";
    std::lock_guard<std::mutex> lock(mu_);
    rows_.push_back(std::move(row));
  }

  /// Renders and clears the collected rows.
  std::string Drain() {
    std::vector<std::string> rows;
    {
      std::lock_guard<std::mutex> lock(mu_);
      rows.swap(rows_);
    }
    std::string out = "[";
    for (size_t i = 0; i < rows.size(); ++i) {
      if (i > 0) out += ",";
      out += rows[i];
    }
    return out + "]";
  }

 private:
  std::mutex mu_;
  std::vector<std::string> rows_;
};

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

serve::HttpResponse StatsResponse(double create_ms, RecordLog* log) {
  JsonValue names = JsonValue::Array();
  for (const char* name : kSpanNames) names.Append(JsonValue::Str(name));
  serve::HttpResponse response;
  response.body = "{\"vm_hwm_kb\":" + std::to_string(PeakRssKb()) +
                  ",\"create_ms\":" + ShortestDouble(create_ms) +
                  ",\"spans\":" + WriteJson(names) +
                  ",\"requests\":" + log->Drain() + "}\n";
  return response;
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

int Serve(const Flags& flags) {
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGINT);
  sigaddset(&shutdown_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);

  SpanCollector collector;
  RecordLog log;
  double create_ms = 0.0;
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<net::Balancer> balancer;
  std::function<serve::HttpResponse(const serve::HttpRequest&)> inner;

  if (flags.role == "replica") {
    engine = CreateEngine(EngineOptions(flags), &create_ms);
    router = std::make_unique<serve::Router>(engine.get());
    inner = [&router](const serve::HttpRequest& r) {
      return router->Handle(r);
    };
    if (flags.trace) obs::SetDefaultTraceSink(&collector);
  } else if (flags.role == "balancer") {
    net::Balancer::Options options;
    options.replicas = flags.replicas;
    balancer = std::make_unique<net::Balancer>(options);
    if (Status status = balancer->Start(); !status.ok()) {
      Die(status.ToString());
    }
    inner = [&balancer](const serve::HttpRequest& r) {
      return balancer->Handle(r);
    };
  } else {
    Die("unknown --role " + flags.role);
  }

  const bool trace = flags.trace;
  const bool spans = flags.role == "replica";
  // The prox_server (replica) and prox_router (balancer) defaults.
  net::EpollServer::Options server_options;
  if (flags.role == "replica") server_options.max_inflight = 64;
  net::EpollServer server(
      server_options, [&](const serve::HttpRequest& request) {
        if (request.target == "/bench/stats") {
          return StatsResponse(create_ms, &log);
        }
        const std::string trace_id =
            trace ? SampledTraceId(request.Header("traceparent")) : "";
        if (trace_id.empty()) return inner(request);
        tls_spans = ThreadSpans{};
        tls_spans.active = spans;
        const int64_t start = NowNanos();
        serve::HttpResponse response = inner(request);
        const int64_t handle = NowNanos() - start;
        tls_spans.active = false;
        log.Add(trace_id, handle, spans ? tls_spans.nanos : nullptr);
        return response;
      });
  if (Status status = server.Start(); !status.ok()) Die(status.ToString());
  std::printf("READY %d\n", server.port());
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&shutdown_signals, &signal_number);
  server.Stop();
  if (balancer != nullptr) balancer->Stop();
  obs::SetDefaultTraceSink(nullptr);
  return 0;
}

int Snapshot(const Flags& flags) {
  if (flags.out.empty()) Die("snapshot needs --out=PATH");
  std::unique_ptr<engine::Engine> engine =
      CreateEngine(EngineOptions(flags), nullptr);
  for (const std::string& body : ReadLines(std::cin)) {
    engine::Engine::Response response = engine->HandleSummarize(body);
    if (!response.ok()) Die("warm summarize failed: " + response.body);
  }
  if (Status status = engine->PersistSnapshot(flags.out); !status.ok()) {
    Die(status.message());
  }
  return 0;
}

/// Prints `count` delta batches; each is built against the dataset with
/// the previous batches applied, the way a server sees them arrive.
int Deltas(const Flags& flags) {
  Dataset dataset = MovieLensGenerator::Generate(DatasetConfig());
  for (int i = 1; i <= flags.count; ++i) {
    const uint64_t sequence = static_cast<uint64_t>(i);
    Result<ingest::DeltaBatch> delta = ingest::SyntheticMovieLensDelta(
        dataset, kDeltaUsers, kDeltaRatings, sequence);
    if (!delta.ok()) Die(delta.status().message());
    Result<ingest::ApplyReceipt> applied =
        ingest::ApplyBatch(&dataset, delta.value(), sequence);
    if (!applied.ok()) Die(applied.status().message());
    std::printf("%s\n",
                WriteJson(ingest::DeltaBatchToJson(delta.value())).c_str());
  }
  return 0;
}

/// Each stdin line is `<target>\t<body>`: a fresh engine answers the
/// request and the response body is printed (one line each).
int Oracle(const Flags& flags) {
  for (const std::string& line : ReadLines(std::cin)) {
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) Die("oracle line needs <target>\\t<body>");
    const std::string target = line.substr(0, tab);
    const std::string body = line.substr(tab + 1);
    std::unique_ptr<engine::Engine> engine =
        CreateEngine(EngineOptions(flags), nullptr);
    engine::Engine::Response response =
        target == "/v1/evaluate" ? engine->HandleEvaluate(body)
                                 : engine->HandleSummarize(body);
    if (!response.ok()) Die("oracle request failed: " + response.body);
    std::fputs(response.body.c_str(), stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (flags.command == "serve") return Serve(flags);
  if (flags.command == "snapshot") return Snapshot(flags);
  if (flags.command == "deltas") return Deltas(flags);
  if (flags.command == "oracle") return Oracle(flags);
  Die("unknown subcommand " + flags.command);
}
