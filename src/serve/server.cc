#include "serve/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
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
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace crashsim {
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
      "serve.topk_ms", ExponentialBuckets(1, 2.0, 14));
  return h;
}
FixedHistogram& TemporalLatencyHistogram() {
  static FixedHistogram& h = MetricsRegistry::Global().histogram(
      "serve.temporal_ms", ExponentialBuckets(1, 2.0, 14));
  return h;
}

// Events a sampled request's collector holds: the ingress, executor, cache
// and engine spans plus per-shard spans. Deep per-level walk detail
// overflows by design and is reported as the trace's "dropped" count.
constexpr size_t kRequestTraceCapacity = 512;

// Binds a listening TCP socket on host:port (port 0 = ephemeral). On
// success stores the fd and the actually bound port.
Status BindListener(const std::string& host, int port, int* out_fd,
                    int* out_port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return UnavailableError(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  const int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return InvalidArgumentError("invalid listen address " + host);
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status s = UnavailableError(StrFormat(
        "bind %s:%d failed: %s", host.c_str(), port, std::strerror(errno)));
    close(fd);
    return s;
  }
  if (listen(fd, 128) != 0) {
    const Status s = UnavailableError(
        StrFormat("listen failed: %s", std::strerror(errno)));
    close(fd);
    return s;
  }
  sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const Status s = UnavailableError(
        StrFormat("getsockname failed: %s", std::strerror(errno)));
    close(fd);
    return s;
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

JsonValue ErrorResponse(const Status& status, const JsonValue* request) {
  JsonValue response = JsonValue::Object();
  if (request != nullptr) {
    if (const JsonValue* id = request->Find("id"); id != nullptr) {
      response.Set("id", *id);
    }
  }
  response.Set("status", JsonValue(std::string(StatusCodeName(status.code()))));
  response.Set("message", JsonValue(status.message()));
  return response;
}

// Error responses carry the request id too ("every response carries a
// request_id" is the correlation contract the smoke lane checks).
std::string FinishError(JsonValue response, uint64_t request_id) {
  response.Set("request_id", JsonValue(static_cast<int64_t>(request_id)));
  return response.Write();
}

// Pulls the "status" field back out of a serialized response. Our own
// compact serializer always renders it as "status":"<name>", so a find is
// exact — this keeps status accounting uniform across every handler path.
std::string ExtractResponseStatus(const std::string& response) {
  static constexpr char kKey[] = "\"status\":\"";
  const size_t pos = response.find(kKey);
  if (pos == std::string::npos) return "";
  const size_t begin = pos + sizeof(kKey) - 1;
  const size_t end = response.find('"', begin);
  if (end == std::string::npos) return "";
  return response.substr(begin, end - begin);
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
  if (port < 0 || port > 65535) {
    return InvalidArgumentError(StrFormat("port must be in [0, 65535], got %d",
                                          port));
  }
  if (metrics_port < -1 || metrics_port > 65535) {
    return InvalidArgumentError(StrFormat(
        "metrics_port must be in [-1, 65535], got %d", metrics_port));
  }
  if (max_connections < 1) {
    return InvalidArgumentError(StrFormat(
        "max_connections must be >= 1, got %d", max_connections));
  }
  if (max_k < 1) {
    return InvalidArgumentError(
        StrFormat("max_k must be >= 1, got %lld",
                  static_cast<long long>(max_k)));
  }
  if (default_timeout_ms < 0) {
    return InvalidArgumentError(
        StrFormat("default_timeout_ms must be >= 0, got %lld",
                  static_cast<long long>(default_timeout_ms)));
  }
  if (slow_query_ms < -1) {
    return InvalidArgumentError(
        StrFormat("slow_query_ms must be >= -1, got %lld",
                  static_cast<long long>(slow_query_ms)));
  }
  if (tracez_capacity < 0) {
    return InvalidArgumentError(StrFormat(
        "tracez_capacity must be >= 0, got %d", tracez_capacity));
  }
  if (tracez_sample_every < 0) {
    return InvalidArgumentError(StrFormat(
        "tracez_sample_every must be >= 0, got %d", tracez_sample_every));
  }
  if (slo_ms < 1) {
    return InvalidArgumentError(StrFormat(
        "slo_ms must be >= 1, got %lld", static_cast<long long>(slo_ms)));
  }
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
      options_(options) {
  for (size_t i = 0; i < graph_.original_ids.size(); ++i) {
    id_map_.emplace(graph_.original_ids[i], static_cast<NodeId>(i));
  }
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
  topk_window_ = std::make_unique<SlidingHistogram>(
      ExponentialBuckets(1, 2.0, 14), kWindowSeconds);
  temporal_window_ = std::make_unique<SlidingHistogram>(
      ExponentialBuckets(1, 2.0, 14), kWindowSeconds);
  // Two buckets — (..slo] and (slo..] — so the window burn rate is exact
  // at the threshold rather than rounded to a percentile bucket.
  slo_window_ = std::make_unique<SlidingHistogram>(
      std::vector<int64_t>{std::max<int64_t>(options_.slo_ms, 1)},
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
  CRASHSIM_LOG(Info) << "crashsim_serve listening on " << options_.host << ":"
                     << port_ << " (metrics port " << metrics_port_ << ", "
                     << graph_.graph.num_nodes() << " nodes, "
                     << graph_.graph.num_edges() << " edges)";
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
        (void)WriteFrame(fd, ErrorResponse(payload.status(), nullptr).Write());
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
      response = FinishError(ErrorResponse(parsed.status(), nullptr),
                             request_id);
    } else if (!parsed->is_object()) {
      response = FinishError(
          ErrorResponse(InvalidArgumentError("request must be a JSON object"),
                        nullptr),
          request_id);
    } else {
      const std::string op = parsed->GetString("op", "");
      record.op = op;
      if (op == "ping") {
        JsonValue pong = JsonValue::Object();
        if (const JsonValue* id = parsed->Find("id"); id != nullptr) {
          pong.Set("id", *id);
        }
        pong.Set("status", JsonValue(std::string("OK")));
        pong.Set("op", JsonValue(std::string("ping")));
        pong.Set("request_id", JsonValue(static_cast<int64_t>(request_id)));
        response = pong.Write();
      } else if (op == "topk") {
        response = HandleTopK(*parsed, request_id, &record);
      } else if (op == "temporal") {
        response = HandleTemporal(*parsed, request_id, &record);
      } else {
        response = FinishError(
            ErrorResponse(InvalidArgumentError(
                              "unknown op '" + op +
                              "' (expected ping | topk | temporal)"),
                          &*parsed),
            request_id);
      }
    }
  }  // serve.request span closed: the trace is complete for reassembly

  // Epilogue: rolling windows, error accounting, slow-query log, /tracez.
  // The one elapsed reading every report of this request projects.
  const double elapsed_ms = timer.ElapsedSeconds() * 1e3;
  std::string status = ExtractResponseStatus(response);
  if (status.empty()) status = "UNKNOWN";
  if (status != "OK") {
    errors_.fetch_add(1, std::memory_order_relaxed);
    ErrorsCounter().Add(1);
  }
  const bool is_query = record.op == "topk" || record.op == "temporal";
  if (is_query) {
    const auto latency = static_cast<int64_t>(elapsed_ms);
    const bool topk = record.op == "topk";
    (topk ? TopKLatencyHistogram() : TemporalLatencyHistogram())
        .Record(latency);
    (topk ? topk_window_ : temporal_window_)->Record(latency);
    slo_window_->Record(latency);
    if (latency > options_.slo_ms) {
      slo_breaches_total_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const bool slow =
      options_.slow_query_ms >= 0 &&
      (elapsed_ms >= static_cast<double>(options_.slow_query_ms) ||
       status != "OK");
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

std::string Server::HandleTopK(const JsonValue& request, uint64_t request_id,
                               RequestRecord* record) {
  TRACE_SPAN("serve.topk");
  const int64_t original_source = request.GetInt("source", -1);
  const auto it = id_map_.find(original_source);
  if (it == id_map_.end()) {
    return FinishError(
        ErrorResponse(
            NotFoundError(StrFormat("source id %lld not present in the "
                                    "graph",
                                    static_cast<long long>(original_source))),
            &request),
        request_id);
  }
  const NodeId source = it->second;
  const int64_t k = request.GetInt("k", 10);
  if (k < 1 || k > options_.max_k) {
    return FinishError(
        ErrorResponse(InvalidArgumentError(StrFormat(
                          "k must be in [1, %lld], got %lld",
                          static_cast<long long>(options_.max_k),
                          static_cast<long long>(k))),
                      &request),
        request_id);
  }
  const int64_t timeout_ms =
      request.GetInt("timeout_ms", options_.default_timeout_ms);
  if (timeout_ms < 0) {
    return FinishError(
        ErrorResponse(InvalidArgumentError("timeout_ms must be >= 0"),
                      &request),
        request_id);
  }

  // QueryContext is neither copyable nor movable; emplace the right ctor.
  std::optional<QueryContext> ctx;
  if (timeout_ms > 0) {
    ctx.emplace(std::chrono::milliseconds(timeout_ms));
  } else {
    ctx.emplace();
  }
  ctx->set_stats(&record->stats);
  ctx->set_request_id(request_id);
  QueryRequest query;
  query.ctx = &*ctx;
  query.run = [this, source](QueryContext* run_ctx) -> PartialResult {
    // The answer-cache lookup runs inside the admitted task, so every
    // request still passes admission and shows in the executor ledger. Any
    // k is a projection of the one cached score vector.
    return CachedSingleSource(cache_.get(), engine_.get(), source, run_ctx);
  };
  const QueryOutcome outcome = executor_->Execute(query);

  // Per-stage split for the response, the slow-query log, and replay
  // --latency_out: engine run time divides into cache (answer lookup or
  // coalesced wait, tree build, hit or wait) and walk (everything else — the
  // MC trial loop, ~0 on an answer hit); serialize covers response assembly
  // below.
  record->admitted = outcome.admitted;
  record->degraded = outcome.degraded;
  record->retries = outcome.retries;
  record->queue_ms = outcome.queue_wait_seconds * 1e3;
  record->cache_ms = record->stats.cache_wait_seconds * 1e3;
  record->walk_ms =
      std::max(0.0, outcome.run_seconds * 1e3 - record->cache_ms);
  record->envelope.query = "topk";
  record->envelope.algo = "crashsim";
  record->envelope.n = graph_.graph.num_nodes();
  record->envelope.m = graph_.graph.num_edges();

  if (outcome.result.scores.empty()) {
    // Shed or failed before any scores existed: plain error response, with
    // the admission outcome attached for the client's retry policy.
    JsonValue response = ErrorResponse(outcome.result.status, &request);
    response.Set("admitted", JsonValue(outcome.admitted));
    return FinishError(std::move(response), request_id);
  }

  const Stopwatch serialize_timer;
  JsonValue nodes = JsonValue::Array();
  JsonValue scores = JsonValue::Array();
  for (const auto& [score, v] : TopKOfScores(outcome.result.scores, source,
                                             static_cast<int>(k))) {
    nodes.Append(JsonValue(graph_.original_ids[static_cast<size_t>(v)]));
    scores.Append(JsonValue(score));
  }
  JsonValue response = JsonValue::Object();
  if (const JsonValue* id = request.Find("id"); id != nullptr) {
    response.Set("id", *id);
  }
  response.Set("status", JsonValue(std::string(
                             StatusCodeName(outcome.result.status.code()))));
  if (!outcome.result.status.ok()) {
    response.Set("message", JsonValue(outcome.result.status.message()));
  }
  response.Set("op", JsonValue(std::string("topk")));
  response.Set("request_id", JsonValue(static_cast<int64_t>(request_id)));
  response.Set("source", JsonValue(original_source));
  response.Set("k", JsonValue(k));
  response.Set("nodes", std::move(nodes));
  response.Set("scores", std::move(scores));
  response.Set("trials_done", JsonValue(outcome.result.trials_done));
  response.Set("trials_target", JsonValue(outcome.result.trials_target));
  response.Set("epsilon_achieved", JsonValue(outcome.result.epsilon_achieved));
  response.Set("degraded", JsonValue(outcome.degraded));
  response.Set("trial_fraction", JsonValue(outcome.trial_fraction));
  response.Set("retries", JsonValue(static_cast<int64_t>(outcome.retries)));
  response.Set("queue_wait_ms",
               JsonValue(outcome.queue_wait_seconds * 1e3));
  response.Set("run_ms", JsonValue(outcome.run_seconds * 1e3));
  record->serialize_ms = serialize_timer.ElapsedSeconds() * 1e3;
  JsonValue stages = JsonValue::Object();
  stages.Set("queue_ms", JsonValue(record->queue_ms));
  stages.Set("cache_ms", JsonValue(record->cache_ms));
  stages.Set("walk_ms", JsonValue(record->walk_ms));
  stages.Set("serialize_ms", JsonValue(record->serialize_ms));
  response.Set("stages", std::move(stages));
  return response.Write();
}

std::string Server::HandleTemporal(const JsonValue& request,
                                   uint64_t request_id,
                                   RequestRecord* record) {
  TRACE_SPAN("serve.temporal");
  if (!temporal_.has_value()) {
    return FinishError(
        ErrorResponse(InvalidArgumentError(
                          "server was started without a temporal graph"),
                      &request),
        request_id);
  }
  const TemporalGraph& tg = temporal_->graph;
  const int64_t original_source = request.GetInt("source", -1);
  NodeId source = -1;
  for (size_t i = 0; i < temporal_->original_ids.size(); ++i) {
    if (temporal_->original_ids[i] == original_source) {
      source = static_cast<NodeId>(i);
      break;
    }
  }
  if (source < 0) {
    return FinishError(
        ErrorResponse(NotFoundError(StrFormat(
                          "source id %lld not present in the temporal graph",
                          static_cast<long long>(original_source))),
                      &request),
        request_id);
  }

  // Range-check the interval as int64 before narrowing: a silently wrapped
  // bound would answer a different interval than the one asked for.
  const int64_t snapshots = tg.num_snapshots();
  const int64_t begin = request.GetInt("begin", 0);
  const int64_t end = request.GetInt("end", -1);
  if (begin < 0 || begin >= snapshots || end < -1 || end >= snapshots) {
    return FinishError(
        ErrorResponse(InvalidArgumentError(StrFormat(
                          "begin must be in [0, %lld) and end in [-1, %lld) "
                          "(-1 = last snapshot), got begin=%lld end=%lld",
                          static_cast<long long>(snapshots),
                          static_cast<long long>(snapshots),
                          static_cast<long long>(begin),
                          static_cast<long long>(end))),
                      &request),
        request_id);
  }
  TemporalQuery query;
  query.source = source;
  query.begin_snapshot = static_cast<int>(begin);
  query.end_snapshot =
      static_cast<int>(end == -1 ? snapshots - 1 : end);
  query.theta = request.GetDouble("theta", 0.05);
  query.trend_tolerance = request.GetDouble("tolerance", 0.0);
  const std::string kind = request.GetString("kind", "threshold");
  if (kind == "threshold") {
    query.kind = TemporalQueryKind::kThreshold;
  } else if (kind == "increasing") {
    query.kind = TemporalQueryKind::kTrendIncreasing;
  } else if (kind == "decreasing") {
    query.kind = TemporalQueryKind::kTrendDecreasing;
  } else {
    return FinishError(
        ErrorResponse(InvalidArgumentError(
                          "unknown kind '" + kind +
                          "' (threshold | increasing | decreasing)"),
                      &request),
        request_id);
  }
  const int64_t timeout_ms =
      request.GetInt("timeout_ms", options_.default_timeout_ms);
  if (timeout_ms < 0) {
    return FinishError(
        ErrorResponse(InvalidArgumentError("timeout_ms must be >= 0"),
                      &request),
        request_id);
  }

  std::optional<QueryContext> ctx;
  if (timeout_ms > 0) {
    ctx.emplace(std::chrono::milliseconds(timeout_ms));
  } else {
    ctx.emplace();
  }
  ctx->set_request_id(request_id);
  ctx->set_stats(&record->stats);
  CrashSimTOptions temporal_options;
  temporal_options.crashsim = options_.engine;
  TemporalAnswer answer;
  QueryRequest query_request;
  query_request.ctx = &*ctx;
  query_request.run = [&](QueryContext* run_ctx) -> PartialResult {
    // CrashSim-T keeps per-interval state, so each request gets its own
    // engine instance (the static engine_ stays untouched).
    CrashSimT engine(temporal_options);
    answer = engine.Answer(tg, query, run_ctx);
    PartialResult r;
    r.status = answer.status;
    return r;
  };
  const QueryOutcome outcome = executor_->Execute(query_request);

  record->admitted = outcome.admitted;
  record->degraded = outcome.degraded;
  record->retries = outcome.retries;
  record->queue_ms = outcome.queue_wait_seconds * 1e3;
  // Temporal queries build per-request trees (no shared cache), so the
  // whole engine run counts as walk time.
  record->walk_ms = outcome.run_seconds * 1e3;
  record->envelope.query = "temporal";
  record->envelope.algo = "crashsim-t";
  record->envelope.n = tg.num_nodes();

  if (!outcome.admitted) {
    JsonValue response = ErrorResponse(outcome.result.status, &request);
    response.Set("admitted", JsonValue(false));
    return FinishError(std::move(response), request_id);
  }
  const Stopwatch serialize_timer;
  JsonValue nodes = JsonValue::Array();
  for (const NodeId v : answer.nodes) {
    nodes.Append(JsonValue(temporal_->original_ids[static_cast<size_t>(v)]));
  }
  JsonValue response = JsonValue::Object();
  if (const JsonValue* id = request.Find("id"); id != nullptr) {
    response.Set("id", *id);
  }
  response.Set("status", JsonValue(std::string(
                             StatusCodeName(outcome.result.status.code()))));
  if (!outcome.result.status.ok()) {
    response.Set("message", JsonValue(outcome.result.status.message()));
  }
  response.Set("op", JsonValue(std::string("temporal")));
  response.Set("request_id", JsonValue(static_cast<int64_t>(request_id)));
  response.Set("source", JsonValue(original_source));
  response.Set("kind", JsonValue(kind));
  response.Set("begin", JsonValue(static_cast<int64_t>(query.begin_snapshot)));
  response.Set("end", JsonValue(static_cast<int64_t>(query.end_snapshot)));
  response.Set("nodes", std::move(nodes));
  response.Set("snapshots_processed",
               JsonValue(static_cast<int64_t>(
                   answer.stats.snapshots_processed)));
  response.Set("scores_computed", JsonValue(answer.stats.scores_computed));
  response.Set("retries", JsonValue(static_cast<int64_t>(outcome.retries)));
  response.Set("queue_wait_ms",
               JsonValue(outcome.queue_wait_seconds * 1e3));
  response.Set("run_ms", JsonValue(outcome.run_seconds * 1e3));
  record->serialize_ms = serialize_timer.ElapsedSeconds() * 1e3;
  JsonValue stages = JsonValue::Object();
  stages.Set("queue_ms", JsonValue(record->queue_ms));
  stages.Set("cache_ms", JsonValue(record->cache_ms));
  stages.Set("walk_ms", JsonValue(record->walk_ms));
  stages.Set("serialize_ms", JsonValue(record->serialize_ms));
  response.Set("stages", std::move(stages));
  return response.Write();
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
    w.Set("p50_ms",
          JsonValue(SlidingHistogram::SnapshotQuantile(snap, 0.50)));
    w.Set("p95_ms",
          JsonValue(SlidingHistogram::SnapshotQuantile(snap, 0.95)));
    w.Set("p99_ms",
          JsonValue(SlidingHistogram::SnapshotQuantile(snap, 0.99)));
    return w;
  };
  latency.Set("window_seconds",
              JsonValue(static_cast<int64_t>(topk_window_->window_seconds())));
  latency.Set("topk", window_json(*topk_window_));
  latency.Set("temporal", window_json(*temporal_window_));
  out.Set("latency", std::move(latency));

  // SLO burn: fraction of the window's query requests over the threshold.
  // The slo window's single bound is exactly slo_ms, so "over" is the
  // overflow bucket — no percentile rounding at the threshold.
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
