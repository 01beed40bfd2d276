/// \file load.cc
/// \brief Load generator of the served-path benchmark (perfbench/README.md).
///
/// Reads a request plan (JSON, stdin) and replays it against one HTTP
/// endpoint over loopback, then prints one JSON document with a row per
/// request (stdout). The plan is made of streams; each stream owns
/// `workers` threads, each with one keep-alive serve::ClientConnection,
/// that take the stream's requests in order from a shared cursor:
///
///   {"port": P, "trace_hi": "<16 hex>", "bodies": ["...", ...],
///    "streams": [{"workers": N, "port": P,
///                 "requests": [[due_us, method, target, body, keep,
///                               trace], ...]}, ...]}
///
/// A stream's optional "port" sends it to another endpoint than the
/// plan's.
///
/// An optional top-level "deadline_us" ends the plan early: a request
/// that would be sent at or after it is skipped (status -1), which is how
/// closed-loop streams, planned longer than they can run, are cut.
///
/// `due_us` >= 0 schedules a request at that offset from the common start
/// (open loop); -1 sends it as soon as the worker's previous request
/// completes (closed loop). `body` indexes "bodies" (-1 = empty). `keep`
/// asks for the response body in the output. `trace` 1 sends a sampled
/// W3C traceparent whose trace id is (trace_hi, row id); 0 sends none.
///
/// Output: {"rows": [[stream, index, due_ns, free_ns, send_ns, end_ns,
/// status, cache, body_fnv, body|null], ...]} with times in nanoseconds
/// from the start. `free_ns` is when the worker became free to take the
/// request; `status` 0 is a transport failure, -1 a skipped request;
/// `cache` 1 = X-Prox-Cache hit, 2 = miss, 0 = absent; `body_fnv` is the
/// body's FNV-1a 64 in hex.

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "serve/client.h"

using namespace prox;

namespace {

struct Request {
  int64_t due_ns = -1;
  std::string method;
  std::string target;
  int body = -1;
  bool keep = false;
  int trace = 0;
};

struct Row {
  int64_t due_ns = 0;
  int64_t free_ns = 0;
  int64_t send_ns = 0;
  int64_t end_ns = 0;
  int status = 0;
  int cache = 0;
  uint64_t fnv = 0;
  std::string body;
};

struct Stream {
  int workers = 1;
  int port = 0;
  std::vector<Request> requests;
  std::vector<Row> rows;
  std::atomic<size_t> next{0};
};

int64_t MonotonicNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void SleepUntil(int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = deadline_ns / 1000000000;
  ts.tv_nsec = deadline_ns % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_load: %s\n", message.c_str());
  std::exit(1);
}

struct Plan {
  int port = 0;
  int64_t deadline_ns = -1;
  std::string trace_hi;
  std::vector<std::string> bodies;
  std::vector<std::unique_ptr<Stream>> streams;
};

Plan ParsePlan(const std::string& text) {
  Result<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok()) Die("bad plan: " + parsed.status().message());
  const JsonValue& doc = parsed.value();
  Plan plan;
  plan.port = static_cast<int>(doc.Find("port")->int_value());
  plan.trace_hi = doc.Find("trace_hi")->string_value();
  if (const JsonValue* deadline = doc.Find("deadline_us")) {
    plan.deadline_ns = deadline->int_value() * 1000;
  }
  for (const JsonValue& body : doc.Find("bodies")->items()) {
    plan.bodies.push_back(body.string_value());
  }
  for (const JsonValue& entry : doc.Find("streams")->items()) {
    auto stream = std::make_unique<Stream>();
    stream->workers = static_cast<int>(entry.Find("workers")->int_value());
    const JsonValue* port = entry.Find("port");
    stream->port = static_cast<int>(
        port != nullptr ? port->int_value() : plan.port);
    for (const JsonValue& r : entry.Find("requests")->items()) {
      const std::vector<JsonValue>& f = r.items();
      Request request;
      const int64_t due_us = f[0].int_value();
      request.due_ns = due_us < 0 ? -1 : due_us * 1000;
      request.method = f[1].string_value();
      request.target = f[2].string_value();
      request.body = static_cast<int>(f[3].int_value());
      request.keep = f[4].bool_value();
      request.trace = static_cast<int>(f[5].int_value());
      stream->requests.push_back(std::move(request));
    }
    stream->rows.resize(stream->requests.size());
    plan.streams.push_back(std::move(stream));
  }
  return plan;
}

std::string RenderRequest(const Plan& plan, const Request& request,
                          uint64_t row_id) {
  const std::string& body =
      request.body >= 0 ? plan.bodies[request.body] : std::string();
  std::string out = request.method + " " + request.target + " HTTP/1.1\r\n";
  out += "Host: loopback\r\n";
  if (request.trace != 0) {
    char traceparent[80];
    std::snprintf(traceparent, sizeof(traceparent),
                  "traceparent: 00-%s%016" PRIx64 "-%016" PRIx64 "-01\r\n",
                  plan.trace_hi.c_str(), row_id, row_id);
    out += traceparent;
  }
  if (request.method == "POST") {
    out += "Content-Type: application/json\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

void RunWorker(const Plan& plan, size_t stream_index, int64_t start_ns) {
  // The default 50 us timer slack would land every scheduled send late,
  // and open-loop timing charges that lateness to the server.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  Stream& stream = *plan.streams[stream_index];
  serve::ClientConnection connection;
  int64_t previous_end = 0;
  for (;;) {
    const size_t i = stream.next.fetch_add(1);
    if (i >= stream.requests.size()) break;
    const Request& request = stream.requests[i];
    Row& row = stream.rows[i];
    row.free_ns = MonotonicNanos() - start_ns;
    row.due_ns = request.due_ns >= 0 ? request.due_ns : previous_end;
    if (plan.deadline_ns >= 0 &&
        std::max(row.due_ns, row.free_ns) >= plan.deadline_ns) {
      row.status = -1;
      continue;
    }
    if (row.due_ns > row.free_ns) SleepUntil(start_ns + row.due_ns);
    if (!connection.connected()) {
      auto connected =
          serve::ClientConnection::Connect("127.0.0.1", stream.port, 5000);
      if (connected.ok()) connection = std::move(connected.value());
    }
    const uint64_t row_id = (static_cast<uint64_t>(stream_index) << 32) | i;
    row.send_ns = MonotonicNanos() - start_ns;
    if (connection.connected() &&
        connection.SendRaw(RenderRequest(plan, request, row_id + 1)).ok()) {
      Result<serve::ClientResponse> response = connection.ReadResponse();
      if (response.ok()) {
        row.status = response.value().status;
        const std::string_view cache = response.value().Header("x-prox-cache");
        row.cache = cache == "hit" ? 1 : cache == "miss" ? 2 : 0;
        row.fnv = Fnv1a(response.value().body);
        if (request.keep) row.body = std::move(response.value().body);
        if (response.value().Header("connection") == "close") {
          connection.Close();
        }
      } else {
        connection.Close();
      }
    } else {
      connection.Close();
    }
    row.end_ns = MonotonicNanos() - start_ns;
    previous_end = row.end_ns;
  }
}

}  // namespace

int main() {
  const std::string text((std::istreambuf_iterator<char>(std::cin)),
                         std::istreambuf_iterator<char>());
  const Plan plan = ParsePlan(text);

  // Every worker starts on the same instant, far enough ahead for all
  // threads to be running.
  const int64_t start_ns = MonotonicNanos() + 20 * 1000000;
  std::vector<std::thread> threads;
  for (size_t s = 0; s < plan.streams.size(); ++s) {
    for (int w = 0; w < plan.streams[s]->workers; ++w) {
      threads.emplace_back(RunWorker, std::cref(plan), s, start_ns);
    }
  }
  for (std::thread& thread : threads) thread.join();

  std::string out = "{\"rows\":[";
  bool first = true;
  for (size_t s = 0; s < plan.streams.size(); ++s) {
    const Stream& stream = *plan.streams[s];
    for (size_t i = 0; i < stream.rows.size(); ++i) {
      const Row& r = stream.rows[i];
      char head[256];
      std::snprintf(head, sizeof(head),
                    "%s[%zu,%zu,%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
                    ",%d,%d,\"%016" PRIx64 "\",",
                    first ? "" : ",\n", s, i, r.due_ns, r.free_ns, r.send_ns,
                    r.end_ns, r.status, r.cache, r.fnv);
      out += head;
      if (stream.requests[i].keep) {
        AppendJsonString(r.body, &out);
      } else {
        out += "null";
      }
      out += "]";
      first = false;
    }
  }
  out += "]}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}
