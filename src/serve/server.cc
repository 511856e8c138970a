#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/baseline_temporal.h"
#include "core/crashsim_t.h"
#include "core/query_stats.h"
#include "core/temporal_query.h"
#include "serve/debugz.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "simrank/topk.h"
#include "util/event_log.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crashsim {

// The one record of a request: the handlers and RunQuery fill it in
// (status, executor verdicts, stage split, QueryStats), and the response
// stages, the rolling windows, the slow-query log and /tracez all
// project it.
struct RequestRecord {
  uint64_t request_id = 0;
  std::string op;  // "" until dispatch resolves it
  // Final status, set by Reject or Head.
  StatusCode status = StatusCode::kOk;
  bool admitted = true;
  bool degraded = false;
  int retries = 0;
  double queue_ms = 0.0;      // executor admission-queue wait
  double run_ms = 0.0;        // executor run time: cache + walk
  double cache_ms = 0.0;      // answer lookup/wait + tree lookup/build
  double walk_ms = 0.0;       // engine run minus cache time
  double serialize_ms = 0.0;  // response assembly after the engine
  Stopwatch serialize_timer;  // restarted when the executor returns
  // The engine's work counters and their envelope; envelope.query stays
  // "" unless the executor ran the query. Rendered as
  // crashsim.query_stats.v1 only when the slow-query event is emitted.
  QueryStatsEnvelope envelope;
  QueryStats stats;
};

namespace {

Counter& RequestsCounter() {
  static Counter& c = MetricsRegistry::Global().counter("serve.requests");
  return c;
}
Counter& ErrorsCounter() {
  static Counter& c = MetricsRegistry::Global().counter("serve.errors");
  return c;
}
Counter& ConnectionsCounter() {
  static Counter& c = MetricsRegistry::Global().counter("serve.connections");
  return c;
}
FixedHistogram& TopKLatencyHistogram() {
  static FixedHistogram& h = MetricsRegistry::Global().histogram(
      "serve.topk_us", LatencyBucketsMicros());
  return h;
}
FixedHistogram& TemporalLatencyHistogram() {
  static FixedHistogram& h = MetricsRegistry::Global().histogram(
      "serve.temporal_us", LatencyBucketsMicros());
  return h;
}

// Events a sampled request's collector holds: the ingress, executor, cache
// and engine spans plus per-shard spans. Deep per-level walk detail
// overflows by design and is reported as the trace's "dropped" count.
constexpr size_t kRequestTraceCapacity = 512;

// One day: the upper bound of a request's timeout_ms, and of the
// --timeout_ms / --default_timeout_ms flags. Past ~2^63 ns the deadline
// arithmetic would overflow.
constexpr int64_t kMaxTimeoutMs = 86'400'000;

// kInvalidArgument naming `name` unless lo <= value <= hi.
Status CheckRange(const char* name, int64_t value, int64_t lo,
                  int64_t hi = std::numeric_limits<int64_t>::max()) {
  if (value >= lo && value <= hi) return OkStatus();
  return InvalidArgumentError(
      hi == std::numeric_limits<int64_t>::max()
          ? StrFormat("%s must be >= %lld, got %lld", name,
                      static_cast<long long>(lo), static_cast<long long>(value))
          : StrFormat("%s must be in [%lld, %lld], got %lld", name,
                      static_cast<long long>(lo), static_cast<long long>(hi),
                      static_cast<long long>(value)));
}

// Binds a listening TCP socket on host:port (port 0 = ephemeral). On
// success stores the fd and the actually bound port.
Status BindListener(const std::string& host, int port, int* out_fd,
                    int* out_port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnavailableError(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  const auto fail = [fd](Status s) {
    close(fd);
    return s;
  };
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return fail(InvalidArgumentError("invalid listen address " + host));
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail(UnavailableError(StrFormat(
        "bind %s:%d failed: %s", host.c_str(), port, std::strerror(errno))));
  }
  if (listen(fd, 128) != 0) {
    return fail(UnavailableError(
        StrFormat("listen failed: %s", std::strerror(errno))));
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    return fail(UnavailableError(
        StrFormat("getsockname failed: %s", std::strerror(errno))));
  }
  *out_fd = fd;
  *out_port = static_cast<int>(ntohs(bound.sin_port));
  return OkStatus();
}

// Polls fd for readability in 50 ms slices until stop flips. Returns true
// when readable, false on stop / unrecoverable poll error.
bool WaitAcceptable(int fd, const std::atomic<bool>& stop) {
  while (!stop.load(std::memory_order_relaxed)) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = poll(&pfd, 1, 50);
    if (rc < 0 && errno != EINTR) return false;
    if (rc > 0) return true;
  }
  return false;
}

// The status part every response opens with: the request's id when it has
// one, the status, and the message when non-OK.
JsonValue StatusHead(const JsonValue* request, const Status& status) {
  JsonValue response = JsonValue::Object();
  if (request != nullptr) {
    if (const JsonValue* id = request->Find("id"); id != nullptr) {
      response.Set("id", *id);
    }
  }
  response.Set("status", JsonValue(std::string(StatusCodeName(status.code()))));
  if (!status.ok()) response.Set("message", JsonValue(status.message()));
  return response;
}

// Opens an answer or a ping: id, status, message when non-OK, op and
// request_id. Stores the status on the record.
JsonValue Head(const JsonValue& request, const Status& status,
               RequestRecord* record) {
  record->status = status.code();
  JsonValue response = StatusHead(&request, status);
  response.Set("op", JsonValue(record->op));
  response.Set("request_id",
               JsonValue(static_cast<int64_t>(record->request_id)));
  return response;
}

// Closes an answer: retries, the executor times, and the stage split.
std::string Finish(JsonValue response, RequestRecord* record) {
  response.Set("retries", JsonValue(static_cast<int64_t>(record->retries)));
  response.Set("queue_wait_ms", JsonValue(record->queue_ms));
  response.Set("run_ms", JsonValue(record->run_ms));
  record->serialize_ms = record->serialize_timer.ElapsedMillis();
  JsonValue stages = JsonValue::Object();
  stages.Set("queue_ms", JsonValue(record->queue_ms));
  stages.Set("cache_ms", JsonValue(record->cache_ms));
  stages.Set("walk_ms", JsonValue(record->walk_ms));
  stages.Set("serialize_ms", JsonValue(record->serialize_ms));
  response.Set("stages", std::move(stages));
  return response.Write();
}

// The whole response of a request that ends without an answer; stores the
// status on the record. It carries the request id too (the correlation
// contract the smoke lane checks), and, for a query the executor saw,
// whether it was admitted, for the client's retry policy.
std::string Reject(const Status& status, const JsonValue* request,
                   RequestRecord* record,
                   std::optional<bool> admitted = std::nullopt) {
  record->status = status.code();
  JsonValue response = StatusHead(request, status);
  if (admitted.has_value()) response.Set("admitted", JsonValue(*admitted));
  response.Set("request_id",
               JsonValue(static_cast<int64_t>(record->request_id)));
  return response.Write();
}

// Resolves a request's original source id through a graph's id map.
StatusOr<NodeId> LookupSource(const std::unordered_map<int64_t, NodeId>& ids,
                              int64_t original, const char* graph) {
  const auto it = ids.find(original);
  if (it == ids.end()) {
    return NotFoundError(StrFormat("source id %lld not present in the %s",
                                   static_cast<long long>(original), graph));
  }
  return it->second;
}

std::unordered_map<int64_t, NodeId> IdMap(
    const std::vector<int64_t>& original_ids) {
  std::unordered_map<int64_t, NodeId> ids;
  for (size_t i = 0; i < original_ids.size(); ++i) {
    ids.emplace(original_ids[i], static_cast<NodeId>(i));
  }
  return ids;
}

// Share of cache lookups served by a resident entry (0 before any lookup).
double HitRate(int64_t hits, int64_t misses, int64_t coalesced) {
  const int64_t lookups = hits + misses + coalesced;
  return lookups > 0
             ? static_cast<double>(hits) / static_cast<double>(lookups)
             : 0.0;
}

}  // namespace

Status ServerOptions::Validate() const {
  RETURN_IF_ERROR(CheckRange("port", port, 0, 65535));
  RETURN_IF_ERROR(CheckRange("metrics_port", metrics_port, -1, 65535));
  RETURN_IF_ERROR(CheckRange("max_connections", max_connections, 1));
  RETURN_IF_ERROR(CheckRange("max_k", max_k, 1));
  RETURN_IF_ERROR(CheckRange("default_timeout_ms", default_timeout_ms, 0,
                             kMaxTimeoutMs));
  RETURN_IF_ERROR(CheckRange("slow_query_ms", slow_query_ms, -1));
  RETURN_IF_ERROR(CheckRange("tracez_capacity", tracez_capacity, 0));
  RETURN_IF_ERROR(CheckRange("tracez_sample_every", tracez_sample_every, 0));
  RETURN_IF_ERROR(CheckRange("slo_ms", slo_ms, 1, kMaxTimeoutMs));
  RETURN_IF_ERROR(executor.Validate().WithContext("executor options"));
  RETURN_IF_ERROR(engine.Validate().WithContext("engine options"));
  TreeCacheOptions aligned = cache;
  aligned.c = engine.mc.c;
  aligned.prune_threshold = engine.tree_prune_threshold;
  RETURN_IF_ERROR(aligned.Validate().WithContext("cache options"));
  return OkStatus();
}

Server::Server(LoadedGraph graph, std::optional<LoadedTemporalGraph> temporal,
               const ServerOptions& options)
    : graph_(std::move(graph)),
      temporal_(std::move(temporal)),
      options_(options),
      id_map_(IdMap(graph_.original_ids)) {
  if (temporal_.has_value()) temporal_id_map_ = IdMap(temporal_->original_ids);
  engine_ = std::make_unique<CrashSim>(options_.engine);
  engine_->Bind(&graph_.graph);
  TreeCacheOptions cache_options = options_.cache;
  cache_options.c = options_.engine.mc.c;
  cache_options.prune_threshold = options_.engine.tree_prune_threshold;
  cache_ = std::make_unique<TreeCache>(&graph_.graph, cache_options);
  executor_ = std::make_unique<QueryExecutor>(options_.executor);
  if (options_.tracez_capacity > 0) {
    tracez_ = std::make_unique<TracezRing>(
        static_cast<size_t>(options_.tracez_capacity));
  }
  constexpr int kWindowSeconds = 60;
  topk_window_ = std::make_unique<SlidingHistogram>(LatencyBucketsMicros(),
                                                    kWindowSeconds);
  temporal_window_ = std::make_unique<SlidingHistogram>(LatencyBucketsMicros(),
                                                        kWindowSeconds);
  // Two buckets — (..slo] and (slo..] in microseconds — so the window burn
  // rate is exact at the threshold rather than rounded to a percentile
  // bucket. Start() rejects an slo_ms outside the clamp.
  slo_window_ = std::make_unique<SlidingHistogram>(
      std::vector<int64_t>{std::clamp<int64_t>(options_.slo_ms, 1,
                                               kMaxTimeoutMs) *
                           1000},
      kWindowSeconds);
}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  RETURN_IF_ERROR(options_.Validate());
  start_ns_ = SteadyNowNanos();
  RETURN_IF_ERROR(
      BindListener(options_.host, options_.port, &listen_fd_, &port_));
  if (options_.metrics_port >= 0) {
    Status s = BindListener(options_.host, options_.metrics_port, &metrics_fd_,
                            &metrics_port_);
    if (!s.ok()) {
      close(listen_fd_);
      listen_fd_ = -1;
      return s;
    }
    metrics_thread_ = std::thread([this] { MetricsLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return OkStatus();
}

void Server::Shutdown() {
  bool expected = false;
  if (!shutdown_done_.compare_exchange_strong(expected, true)) return;
  stop_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (metrics_thread_.joinable()) metrics_thread_.join();
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  if (metrics_fd_ >= 0) {
    close(metrics_fd_);
    metrics_fd_ = -1;
  }
  std::vector<std::unique_ptr<Connection>> pending;
  {
    const MutexLock lock(conn_mu_);
    pending.swap(connections_);
  }
  for (const auto& conn : pending) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void Server::AcceptLoop() {
  while (WaitAcceptable(listen_fd_, stop_)) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      connections_rejected_.fetch_add(1, std::memory_order_relaxed);
      close(fd);
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    ConnectionsCounter().Add(1);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    const MutexLock lock(conn_mu_);
    // Reap finished connection threads so a long-lived server does not
    // accumulate one joinable handle per connection it ever served.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    auto conn = std::make_unique<Connection>();
    Connection* raw = conn.get();
    connections_.push_back(std::move(conn));
    raw->thread = std::thread([this, fd, raw] {
      ServeConnection(fd);
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void Server::ServeConnection(int fd) {
  for (;;) {
    StatusOr<std::string> payload =
        ReadFrame(fd, kMaxFramePayloadBytes, &stop_);
    if (!payload.ok()) {
      // kUnavailable: the peer closed between frames (normal end).
      // kCancelled: shutdown while idle. Anything else is a framing fault;
      // best-effort report it, then drop the connection either way.
      if (payload.status().code() != StatusCode::kUnavailable &&
          payload.status().code() != StatusCode::kCancelled) {
        (void)WriteFrame(fd, StatusHead(nullptr, payload.status()).Write());
      }
      break;
    }
    // A request that started before shutdown is answered in full (the drain
    // guarantee); the loop re-checks stop_ at the next ReadFrame.
    const std::string response = HandleRequest(*payload);
    if (Status s = WriteFrame(fd, response); !s.ok()) break;
  }
  close(fd);
}

std::string Server::HandleRequest(const std::string& payload) {
  // Ingress: assign the request id and install the per-request trace
  // collector before any span opens, so the ingress span, the executor
  // spans (queries run synchronously on this thread), and the ParallelFor
  // worker shards (the scope propagates through Shard) all land in one
  // reassemblable tree. The collector exists only while /tracez is on; it
  // lives on this stack frame, and workers are joined before the epilogue
  // reads it (read-after-quiesce contract).
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::optional<RequestTrace> rtrace;
  std::optional<TraceRequestScope> trace_scope;
  if (tracez_ != nullptr) {
    rtrace.emplace(request_id, kRequestTraceCapacity);
    trace_scope.emplace(&*rtrace);
  }

  const Stopwatch timer;
  RequestRecord record;
  record.request_id = request_id;
  std::string response;
  {
    TRACE_SPAN("serve.request");
    requests_.fetch_add(1, std::memory_order_relaxed);
    RequestsCounter().Add(1);
    StatusOr<JsonValue> parsed = ParseJson(payload);
    if (!parsed.ok()) {
      response = Reject(parsed.status(), nullptr, &record);
    } else if (!parsed->is_object()) {
      response = Reject(InvalidArgumentError("request must be a JSON object"),
                        nullptr, &record);
    } else {
      record.op = parsed->GetString("op", "");
      if (record.op == "ping") {
        response = Head(*parsed, OkStatus(), &record).Write();
      } else if (record.op == "topk") {
        response = HandleTopK(*parsed, &record);
      } else if (record.op == "temporal") {
        response = HandleTemporal(*parsed, &record);
      } else {
        response = Reject(InvalidArgumentError(
                              "unknown op '" + record.op +
                              "' (expected ping | topk | temporal)"),
                          &*parsed, &record);
      }
    }
  }  // serve.request span closed: the trace is complete for reassembly

  // Epilogue: rolling windows, error accounting, slow-query log, /tracez.
  // The one elapsed reading every report of this request projects.
  const double elapsed_ms = timer.ElapsedSeconds() * 1e3;
  const char* const status = StatusCodeName(record.status);
  const bool ok = record.status == StatusCode::kOk;
  if (!ok) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    ErrorsCounter().Add(1);
  }
  if (record.op == "topk" || record.op == "temporal") {
    // Microseconds: a cached topk answers in a fraction of a millisecond.
    const auto latency_us = static_cast<int64_t>(elapsed_ms * 1e3);
    const bool topk = record.op == "topk";
    (topk ? TopKLatencyHistogram() : TemporalLatencyHistogram())
        .Record(latency_us);
    (topk ? topk_window_ : temporal_window_)->Record(latency_us);
    slo_window_->Record(latency_us);
    if (latency_us > options_.slo_ms * 1000) {
      slo_breaches_total_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const bool slow =
      options_.slow_query_ms >= 0 &&
      (elapsed_ms >= static_cast<double>(options_.slow_query_ms) || !ok);
  if (slow && options_.event_log != nullptr) {
    EventBuilder event("slow_query");
    event.UInt("request_id", request_id)
        .Str("op", record.op)
        .Str("status", status)
        .Double("elapsed_ms", elapsed_ms)
        .Double("queue_ms", record.queue_ms)
        .Double("cache_ms", record.cache_ms)
        .Double("walk_ms", record.walk_ms)
        .Double("serialize_ms", record.serialize_ms)
        .Bool("admitted", record.admitted)
        .Bool("degraded", record.degraded)
        .Int("retries", record.retries);
    if (!record.envelope.query.empty()) {
      record.envelope.elapsed_seconds = elapsed_ms / 1e3;
      event.Raw("query_stats", QueryStatsJson(record.envelope, record.stats));
    }
    options_.event_log->Log(event.Finish());
  }
  if (tracez_ != nullptr) {
    const int every = options_.tracez_sample_every;
    const bool sampled = every > 0 && request_id % every == 0;
    if (slow || sampled) {
      trace_scope.reset();  // uninstall before reading; this thread only
      TracezRing::Entry entry;
      entry.request_id = request_id;
      entry.op = record.op;
      entry.status = status;
      entry.elapsed_ms = elapsed_ms;
      entry.slow = slow;
      entry.span_tree = BuildSpanTreeJson(*rtrace);
      tracez_->Add(std::move(entry));
    }
  }
  return response;
}

StatusOr<QueryOutcome> Server::RunQuery(
    const JsonValue& request, const char* algo, int64_t n, int64_t m,
    std::function<PartialResult(QueryContext*)> run, RequestRecord* record) {
  const int64_t timeout_ms =
      request.GetInt("timeout_ms", options_.default_timeout_ms);
  RETURN_IF_ERROR(CheckRange("timeout_ms", timeout_ms, 0, kMaxTimeoutMs));
  QueryContext ctx = timeout_ms > 0
                         ? QueryContext(std::chrono::milliseconds(timeout_ms))
                         : QueryContext();
  ctx.set_stats(&record->stats);
  ctx.set_request_id(record->request_id);
  QueryRequest query;
  query.ctx = &ctx;
  query.run = std::move(run);
  QueryOutcome outcome = executor_->Execute(query);

  // Per-stage split for the response, the slow-query log, and replay
  // --latency_out: engine run time divides into cache (answer lookup or
  // coalesced wait, tree build, hit or wait — 0 for CrashSim-T, whose
  // per-request trees bypass the TreeCache) and walk (everything else — the
  // MC trial loop, ~0 on an answer hit); serialize covers response assembly
  // from here on.
  record->admitted = outcome.admitted;
  record->degraded = outcome.degraded;
  record->retries = outcome.retries;
  record->queue_ms = outcome.queue_wait_seconds * 1e3;
  record->run_ms = outcome.run_seconds * 1e3;
  record->cache_ms = record->stats.cache_wait_seconds * 1e3;
  record->walk_ms = std::max(0.0, record->run_ms - record->cache_ms);
  record->envelope.query = record->op;
  record->envelope.algo = algo;
  record->envelope.n = n;
  record->envelope.m = m;
  record->serialize_timer.Reset();
  return outcome;
}

std::string Server::HandleTopK(const JsonValue& request,
                               RequestRecord* record) {
  TRACE_SPAN("serve.topk");
  const int64_t original_source = request.GetInt("source", -1);
  const StatusOr<NodeId> source =
      LookupSource(id_map_, original_source, "graph");
  if (!source.ok()) return Reject(source.status(), &request, record);
  const int64_t k = request.GetInt("k", 10);
  if (Status s = CheckRange("k", k, 1, options_.max_k); !s.ok()) {
    return Reject(s, &request, record);
  }
  const StatusOr<QueryOutcome> outcome = RunQuery(
      request, "crashsim", graph_.graph.num_nodes(), graph_.graph.num_edges(),
      [this, node = *source](QueryContext* ctx) {
        // The answer-cache lookup runs inside the admitted task, so every
        // request still passes admission and shows in the executor ledger.
        // Any k is a projection of the one cached score vector.
        return CachedSingleSource(cache_.get(), engine_.get(), node, ctx);
      },
      record);
  if (!outcome.ok()) return Reject(outcome.status(), &request, record);
  const PartialResult& result = outcome->result;
  if (result.scores.empty()) {
    // Shed or failed before any scores existed.
    return Reject(result.status, &request, record, outcome->admitted);
  }

  JsonValue response = Head(request, result.status, record);
  response.Set("source", JsonValue(original_source));
  response.Set("k", JsonValue(k));
  JsonValue nodes = JsonValue::Array();
  JsonValue scores = JsonValue::Array();
  for (const auto& [score, v] :
       TopKOfScores(result.scores, *source, static_cast<int>(k))) {
    nodes.Append(JsonValue(graph_.original_ids[static_cast<size_t>(v)]));
    scores.Append(JsonValue(score));
  }
  response.Set("nodes", std::move(nodes));
  response.Set("scores", std::move(scores));
  response.Set("trials_done", JsonValue(result.trials_done));
  response.Set("trials_target", JsonValue(result.trials_target));
  response.Set("epsilon_achieved", JsonValue(result.epsilon_achieved));
  response.Set("degraded", JsonValue(outcome->degraded));
  response.Set("trial_fraction", JsonValue(outcome->trial_fraction));
  return Finish(std::move(response), record);
}

std::string Server::HandleTemporal(const JsonValue& request,
                                   RequestRecord* record) {
  TRACE_SPAN("serve.temporal");
  if (!temporal_.has_value()) {
    return Reject(
        InvalidArgumentError("server was started without a temporal graph"),
        &request, record);
  }
  const TemporalGraph& tg = temporal_->graph;
  const int64_t original_source = request.GetInt("source", -1);
  const StatusOr<NodeId> source =
      LookupSource(temporal_id_map_, original_source, "temporal graph");
  if (!source.ok()) return Reject(source.status(), &request, record);

  // Range-check the interval as int64 before narrowing: a silently wrapped
  // bound would answer a different interval than the one asked for.
  const int64_t snapshots = tg.num_snapshots();
  const int64_t begin = request.GetInt("begin", 0);
  const int64_t end = request.GetInt("end", -1);
  if (begin < 0 || begin >= snapshots || end < -1 || end >= snapshots) {
    return Reject(InvalidArgumentError(StrFormat(
                      "begin must be in [0, %lld) and end in [-1, %lld) "
                      "(-1 = last snapshot), got begin=%lld end=%lld",
                      static_cast<long long>(snapshots),
                      static_cast<long long>(snapshots),
                      static_cast<long long>(begin),
                      static_cast<long long>(end))),
                  &request, record);
  }
  TemporalQuery query;
  query.source = *source;
  query.begin_snapshot = static_cast<int>(begin);
  query.end_snapshot = static_cast<int>(end == -1 ? snapshots - 1 : end);
  query.theta = request.GetDouble("theta", 0.05);
  query.trend_tolerance = request.GetDouble("tolerance", 0.0);
  const std::string kind = request.GetString("kind", "threshold");
  const StatusOr<TemporalQueryKind> parsed_kind = ParseTemporalQueryKind(kind);
  if (!parsed_kind.ok()) return Reject(parsed_kind.status(), &request, record);
  query.kind = *parsed_kind;

  CrashSimTOptions temporal_options;
  temporal_options.crashsim = options_.engine;
  TemporalAnswer answer;
  const StatusOr<QueryOutcome> outcome = RunQuery(
      request, "crashsim-t", tg.num_nodes(),
      tg.num_edges(query.begin_snapshot),
      [&](QueryContext* ctx) {
        // CrashSim-T keeps per-interval state, so each request gets its own
        // engine instance (the static engine_ stays untouched).
        answer = CrashSimT(temporal_options).Answer(tg, query, ctx);
        PartialResult r;
        r.status = answer.status;
        return r;
      },
      record);
  if (!outcome.ok()) return Reject(outcome.status(), &request, record);
  if (!outcome->admitted) {
    return Reject(outcome->result.status, &request, record, false);
  }

  JsonValue response = Head(request, outcome->result.status, record);
  response.Set("source", JsonValue(original_source));
  response.Set("kind", JsonValue(kind));
  response.Set("begin", JsonValue(static_cast<int64_t>(query.begin_snapshot)));
  response.Set("end", JsonValue(static_cast<int64_t>(query.end_snapshot)));
  JsonValue nodes = JsonValue::Array();
  for (const NodeId v : answer.nodes) {
    nodes.Append(JsonValue(temporal_->original_ids[static_cast<size_t>(v)]));
  }
  response.Set("nodes", std::move(nodes));
  response.Set("snapshots_processed",
               JsonValue(static_cast<int64_t>(
                   answer.stats.snapshots_processed)));
  response.Set("scores_computed", JsonValue(answer.stats.scores_computed));
  return Finish(std::move(response), record);
}

void Server::MetricsLoop() {
  constexpr char kPrometheusType[] =
      "text/plain; version=0.0.4; charset=utf-8";
  while (WaitAcceptable(metrics_fd_, stop_)) {
    const int fd = accept(metrics_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    // Minimal but tolerant HTTP: reassemble the head across split writes,
    // then route GET /metrics | /statusz | /tracez; 404 unknown paths, 405
    // non-GET methods.
    StatusOr<std::string> head = ReadHttpRequestHead(fd);
    if (!head.ok()) {
      close(fd);
      continue;
    }
    const HttpRequestLine line = ParseHttpRequestLine(*head);
    if (line.method != "GET") {
      SendHttpResponse(fd, "HTTP/1.1 405 Method Not Allowed", "text/plain",
                       "only GET is supported here\n");
    } else if (line.path == "/metrics") {
      SendHttpResponse(fd, "HTTP/1.1 200 OK", kPrometheusType,
                       MetricsRegistry::Global().ExportPrometheusText());
    } else if (line.path == "/statusz") {
      SendHttpResponse(fd, "HTTP/1.1 200 OK", "application/json",
                       BuildStatuszJson());
    } else if (line.path == "/tracez") {
      SendHttpResponse(fd, "HTTP/1.1 200 OK", "application/json",
                       BuildTracezJson());
    } else {
      SendHttpResponse(fd, "HTTP/1.1 404 Not Found", "text/plain",
                       "served paths: /metrics /statusz /tracez\n");
    }
    close(fd);
  }
}

std::string Server::BuildStatuszJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue(std::string("crashsim.statusz.v1")));
  out.Set("uptime_seconds",
          JsonValue(static_cast<double>(SteadyNowNanos() - start_ns_) / 1e9));

  JsonValue build = JsonValue::Object();
  build.Set("compiler", JsonValue(std::string(__VERSION__)));
  build.Set("cxx_standard", JsonValue(static_cast<int64_t>(__cplusplus)));
#ifdef NDEBUG
  build.Set("assertions", JsonValue(false));
#else
  build.Set("assertions", JsonValue(true));
#endif
  out.Set("build", std::move(build));

  JsonValue graph = JsonValue::Object();
  graph.Set("nodes", JsonValue(static_cast<int64_t>(graph_.graph.num_nodes())));
  graph.Set("edges", JsonValue(graph_.graph.num_edges()));
  graph.Set("temporal_snapshots",
            JsonValue(static_cast<int64_t>(
                temporal_.has_value() ? temporal_->graph.num_snapshots() : 0)));
  out.Set("graph", std::move(graph));

  JsonValue server = JsonValue::Object();
  server.Set("connections_accepted",
             JsonValue(connections_accepted_.load(std::memory_order_relaxed)));
  server.Set("connections_rejected",
             JsonValue(connections_rejected_.load(std::memory_order_relaxed)));
  server.Set("active_connections",
             JsonValue(static_cast<int64_t>(
                 active_connections_.load(std::memory_order_relaxed))));
  server.Set("requests", JsonValue(requests_.load(std::memory_order_relaxed)));
  server.Set("errors", JsonValue(errors_.load(std::memory_order_relaxed)));
  server.Set("last_request_id",
             JsonValue(static_cast<int64_t>(
                 next_request_id_.load(std::memory_order_relaxed))));
  out.Set("server", std::move(server));

  // The executor admission ledger: every submitted query lands in exactly
  // one of admitted / shed / expired / cancelled, and every admitted one in
  // completed / failed (plus the live running/queued gauges).
  const QueryExecutor::Stats exec = executor_->stats();
  JsonValue executor = JsonValue::Object();
  executor.Set("submitted", JsonValue(exec.submitted));
  executor.Set("admitted", JsonValue(exec.admitted));
  executor.Set("shed_queue_full", JsonValue(exec.shed_queue_full));
  executor.Set("shed_deadline", JsonValue(exec.shed_deadline));
  executor.Set("expired_in_queue", JsonValue(exec.expired_in_queue));
  executor.Set("cancelled_in_queue", JsonValue(exec.cancelled_in_queue));
  executor.Set("degraded", JsonValue(exec.degraded));
  executor.Set("retries", JsonValue(exec.retries));
  executor.Set("completed", JsonValue(exec.completed));
  executor.Set("failed", JsonValue(exec.failed));
  executor.Set("running", JsonValue(static_cast<int64_t>(exec.running)));
  executor.Set("queued", JsonValue(static_cast<int64_t>(exec.queued)));
  out.Set("executor", std::move(executor));

  const TreeCache::Stats cache = cache_->stats();
  JsonValue cache_json = JsonValue::Object();
  cache_json.Set("hits", JsonValue(cache.hits));
  cache_json.Set("misses", JsonValue(cache.misses));
  cache_json.Set("coalesced", JsonValue(cache.coalesced));
  cache_json.Set("evictions", JsonValue(cache.evictions));
  cache_json.Set("bytes", JsonValue(cache.bytes));
  cache_json.Set("trees", JsonValue(cache.trees));
  cache_json.Set("hit_rate",
                 JsonValue(HitRate(cache.hits, cache.misses, cache.coalesced)));
  // Per-kind entry for cached answers; both kinds share capacity_bytes.
  JsonValue answers = JsonValue::Object();
  answers.Set("hits", JsonValue(cache.answer_hits));
  answers.Set("misses", JsonValue(cache.answer_misses));
  answers.Set("coalesced", JsonValue(cache.answer_coalesced));
  answers.Set("evictions", JsonValue(cache.answer_evictions));
  answers.Set("bytes", JsonValue(cache.answer_bytes));
  answers.Set("entries", JsonValue(cache.answers));
  answers.Set("hit_rate",
              JsonValue(HitRate(cache.answer_hits, cache.answer_misses,
                                cache.answer_coalesced)));
  cache_json.Set("answers", std::move(answers));
  cache_json.Set("resident_bytes", JsonValue(cache.resident_bytes()));
  cache_json.Set("capacity_bytes",
                 JsonValue(cache_->options().capacity_bytes));
  out.Set("cache", std::move(cache_json));

  // Rolling per-minute latency percentiles (SlidingHistogram windows; the
  // cumulative-since-start view lives in /metrics).
  JsonValue latency = JsonValue::Object();
  const auto window_json = [](const SlidingHistogram& window) {
    const FixedHistogram::Snapshot snap = window.WindowSnapshot();
    JsonValue w = JsonValue::Object();
    w.Set("count", JsonValue(snap.total));
    // The windows hold microseconds; report the bucket bound in ms.
    for (const auto& [key, q] : {std::pair{"p50_ms", 0.50},
                                 std::pair{"p95_ms", 0.95},
                                 std::pair{"p99_ms", 0.99}}) {
      w.Set(key, JsonValue(static_cast<double>(
                               SlidingHistogram::SnapshotQuantile(snap, q)) /
                           1e3));
    }
    return w;
  };
  latency.Set("window_seconds",
              JsonValue(static_cast<int64_t>(topk_window_->window_seconds())));
  latency.Set("topk", window_json(*topk_window_));
  latency.Set("temporal", window_json(*temporal_window_));
  out.Set("latency", std::move(latency));

  // SLO burn: fraction of the window's query requests over the threshold.
  // The slo window's single bound is exactly slo_ms (in microseconds), so
  // "over" is the overflow bucket — no percentile rounding at the
  // threshold.
  const FixedHistogram::Snapshot slo = slo_window_->WindowSnapshot();
  const int64_t window_breaches =
      slo.cumulative.size() >= 2
          ? slo.total - slo.cumulative[slo.cumulative.size() - 2]
          : 0;
  JsonValue slo_json = JsonValue::Object();
  slo_json.Set("threshold_ms", JsonValue(options_.slo_ms));
  slo_json.Set("window_total", JsonValue(slo.total));
  slo_json.Set("window_breaches", JsonValue(window_breaches));
  slo_json.Set("window_burn_rate",
               JsonValue(slo.total > 0
                             ? static_cast<double>(window_breaches) /
                                   static_cast<double>(slo.total)
                             : 0.0));
  slo_json.Set("breaches_total",
               JsonValue(slo_breaches_total_.load(std::memory_order_relaxed)));
  out.Set("slo", std::move(slo_json));

  return out.Write();
}

std::string Server::BuildTracezJson() const {
  JsonValue out = JsonValue::Object();
  out.Set("schema", JsonValue(std::string("crashsim.tracez.v1")));
  out.Set("capacity",
          JsonValue(static_cast<int64_t>(
              tracez_ != nullptr ? tracez_->capacity() : 0)));
  out.Set("sample_every",
          JsonValue(static_cast<int64_t>(options_.tracez_sample_every)));
  JsonValue traces = JsonValue::Array();
  if (tracez_ != nullptr) {
    for (TracezRing::Entry& entry : tracez_->Snapshot()) {
      JsonValue t = JsonValue::Object();
      t.Set("request_id", JsonValue(static_cast<int64_t>(entry.request_id)));
      t.Set("op", JsonValue(entry.op));
      t.Set("status", JsonValue(entry.status));
      t.Set("elapsed_ms", JsonValue(entry.elapsed_ms));
      t.Set("slow", JsonValue(entry.slow));
      t.Set("trace", std::move(entry.span_tree));
      traces.Append(std::move(t));
    }
  }
  out.Set("traces", std::move(traces));
  return out.Write();
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_rejected =
      connections_rejected_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace crashsim
