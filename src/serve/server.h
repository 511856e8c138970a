#ifndef CRASHSIM_SERVE_SERVER_H_
#define CRASHSIM_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/crashsim.h"
#include "core/executor.h"
#include "core/tree_cache.h"
#include "graph/graph_io.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace crashsim {

class EventLog;        // util/event_log.h
class JsonValue;       // serve/json.h
struct RequestRecord;  // server.cc: one request's status, stages and stats

// crashsim_serve: the always-on query service (ROADMAP item 1, PR 7).
//
// One process binds a static graph (and optionally its temporal variant)
// once, then answers any number of concurrent top-k and temporal queries
// over a length-prefixed JSON protocol (serve/protocol.h, docs/SERVING.md).
// Every query routes through the PR-6 QueryExecutor — admission queue,
// deadline shedding, degradation, retries, MemoryBudget — and top-k queries
// share revReach trees and complete answers through the TreeCache, so N
// queries on a hot source run one BuildRevReach and one trial loop, not N.
//
// Determinism contract: with degradation disabled (degrade_at = 0) a topk
// response is bit-identical to `crashsim_cli topk` on the same graph with
// the same seed/options — the ctx-path scores are a pure function of
// (seed, source, candidate), the shared tree is bit-identical to a
// per-query build, and only complete, full-trial answers are cached. The
// CI smoke lane diffs exactly that.
//
// A second listener serves GET /metrics in Prometheus text format for
// scraping (cache.*, executor.*, serve.* and everything else in the
// registry), plus the PR-10 debug endpoints: GET /statusz (uptime, build
// info, executor ledger, cache occupancy, rolling per-minute latency
// percentiles, SLO burn) and GET /tracez (the most recent sampled request
// span trees). Unknown paths get 404, non-GET methods 405, and request
// heads split across arbitrarily many writes still parse.
//
// Request-scoped observability (docs/OBSERVABILITY.md): every request is
// assigned a monotonically increasing request_id at ingress, echoed in the
// response, stamped on QueryContext, and carried by a per-request
// RequestTrace (built only while /tracez is on) through the executor, tree
// cache, engine, and ParallelFor shards, so /tracez can reassemble the full
// ingress->executor->engine span tree. Requests that exceed slow_query_ms
// (or finish non-OK) additionally emit a structured slow_query line to the
// EventLog with the per-stage time split (queue wait / cache / walk /
// serialize) and the full QueryStats.

struct ServerOptions {
  // TCP listen address. Port 0 binds an ephemeral port (tests, smoke);
  // the bound port is reported by port() after Start().
  std::string host = "127.0.0.1";
  int port = 0;
  // /metrics HTTP listener; port 0 = ephemeral, -1 disables the listener.
  int metrics_port = 0;
  // Accepted connections beyond this are closed immediately after accept
  // (the executor's admission queue guards query concurrency; this guards
  // thread count).
  int max_connections = 64;
  // Hard ceiling on requested k.
  int64_t max_k = 1'000'000;
  // Deadline applied to requests that do not carry timeout_ms; 0 = none.
  int64_t default_timeout_ms = 0;

  // --- request-scoped observability ---
  // Structured event sink (util/event_log.h), borrowed — must outlive the
  // server. nullptr disables the slow-query log.
  EventLog* event_log = nullptr;
  // Requests slower than this (or finishing non-OK) emit a slow_query
  // event. 0 logs every request; -1 disables the slow-query log entirely.
  int64_t slow_query_ms = 500;
  // /tracez retains the most recent this-many sampled request span trees;
  // 0 disables per-request trace collection entirely.
  int tracez_capacity = 64;
  // Every Nth request is sampled into /tracez even when fast and OK
  // (slow/non-OK requests are always retained); 0 = only slow ones.
  int tracez_sample_every = 16;
  // /statusz SLO threshold: the burn rate is the fraction of the rolling
  // window's query requests slower than this.
  int64_t slo_ms = 500;

  ExecutorOptions executor;
  // capacity_bytes is honoured; c / prune_threshold are overridden from the
  // engine options so cache keys can never disagree with the engine.
  TreeCacheOptions cache;
  CrashSimOptions engine;

  [[nodiscard]] Status Validate() const;
};

class Server {
 public:
  // Takes ownership of the loaded graph(s). `temporal` may be empty; the
  // temporal endpoint then answers kInvalidArgument.
  Server(LoadedGraph graph, std::optional<LoadedTemporalGraph> temporal,
         const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the listeners and spawns the accept threads. kUnavailable when a
  // port cannot be bound, kInvalidArgument on bad options.
  [[nodiscard]] Status Start();

  // Graceful shutdown: stop accepting, let every in-flight request finish
  // and flush its response, then join all connection threads. Idempotent.
  void Shutdown();

  // Bound ports, valid after Start() (0 / -1 when not listening).
  int port() const { return port_; }
  int metrics_port() const { return metrics_port_; }

  struct Stats {
    int64_t connections_accepted = 0;
    int64_t connections_rejected = 0;
    int64_t requests = 0;
    int64_t errors = 0;  // responses with a non-OK status
  };
  Stats stats() const;

  const TreeCache& tree_cache() const { return *cache_; }
  const QueryExecutor& executor() const { return *executor_; }

 private:
  void AcceptLoop();
  void MetricsLoop();
  void ServeConnection(int fd);
  // Handles one parsed request; always returns a response object.
  std::string HandleRequest(const std::string& payload);
  std::string HandleTopK(const JsonValue& request, RequestRecord* record);
  std::string HandleTemporal(const JsonValue& request, RequestRecord* record);
  // The query lifecycle both ops share: range-checks timeout_ms, runs `run`
  // through the executor under the request's deadline, stats sink and id,
  // and fills the record's verdicts, stage split and QueryStats envelope
  // (`algo` on an n-node, m-edge graph).
  [[nodiscard]] StatusOr<QueryOutcome> RunQuery(
      const JsonValue& request, const char* algo, int64_t n, int64_t m,
      std::function<PartialResult(QueryContext*)> run, RequestRecord* record);
  // /statusz and /tracez bodies (serialized JSON).
  std::string BuildStatuszJson() const;
  std::string BuildTracezJson() const;

  const LoadedGraph graph_;
  const std::optional<LoadedTemporalGraph> temporal_;
  const ServerOptions options_;
  // Original id -> internal id, one map per graph.
  std::unordered_map<int64_t, NodeId> id_map_;
  std::unordered_map<int64_t, NodeId> temporal_id_map_;

  std::unique_ptr<CrashSim> engine_;       // shared; ctx-path is thread-safe
  std::unique_ptr<TreeCache> cache_;
  std::unique_ptr<QueryExecutor> executor_;

  // Request-id source: ingress assigns next_request_id_ + 1, so ids start
  // at 1 and 0 stays the "not request-scoped" sentinel of QueryContext.
  std::atomic<uint64_t> next_request_id_{0};
  std::unique_ptr<class TracezRing> tracez_;  // null when capacity == 0
  // Rolling per-minute latency windows behind /statusz: per-op percentiles
  // plus a two-bucket ({slo_ms}) window for the SLO burn rate.
  std::unique_ptr<SlidingHistogram> topk_window_;
  std::unique_ptr<SlidingHistogram> temporal_window_;
  std::unique_ptr<SlidingHistogram> slo_window_;
  std::atomic<int64_t> slo_breaches_total_{0};
  int64_t start_ns_ = 0;  // Start() time, for /statusz uptime

  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_done_{false};
  int listen_fd_ = -1;
  int metrics_fd_ = -1;
  int port_ = 0;
  int metrics_port_ = -1;
  std::thread accept_thread_;
  std::thread metrics_thread_;
  // One entry per spawned connection thread; `done` lets the accept loop
  // reap finished threads instead of holding every handle until shutdown.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  Mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_
      CRASHSIM_GUARDED_BY(conn_mu_);
  std::atomic<int> active_connections_{0};

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> connections_rejected_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> errors_{0};
};

}  // namespace crashsim

#endif  // CRASHSIM_SERVE_SERVER_H_
