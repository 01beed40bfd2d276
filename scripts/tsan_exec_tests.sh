#!/usr/bin/env bash
# Configure a dedicated ThreadSanitizer build (-DPROX_SANITIZE=thread) and
# run every CTest carrying the `tsan` label — the exec pool suite, the
# end-to-end determinism suite, the serve loopback suite (many worker
# threads against one session + cache), the ingest loopback suite
# (concurrent POST /v1/ingest writers vs summarize readers over one
# session, docs/INGEST.md), the legacy-vs-IR golden byte-identity suite
# (worker-overlay Apply at threads {1,8}), the batch-kernel golden
# suite (thread-local valuation blocks + call_once base packing on exec
# workers, docs/KERNELS.md), and the epoll transport loopback suite
# (event-loop shards + handler pool + blocking/epoll byte-identity,
# docs/NET.md), and the engine concurrency suite (cheap reads beside a
# slow cold run, identical cold keys run once, ingest beside closed-loop
# colds, docs/SERVING.md) — under TSan.
#
# Usage: scripts/tsan_exec_tests.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."

build_dir=${1:-build-tsan}

cmake -B "$build_dir" -S . \
  -DPROX_SANITIZE=thread \
  -DPROX_BUILD_BENCHMARKS=OFF \
  -DPROX_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" --target prox_exec_test prox_serve_loopback_test \
  prox_ingest_loopback_test prox_ir_golden_test prox_kernels_golden_test \
  prox_net_loopback_test prox_engine_concurrency_test -j
ctest --test-dir "$build_dir" -L tsan --output-on-failure
