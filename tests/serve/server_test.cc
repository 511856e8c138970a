#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/crashsim.h"
#include "graph/generators.h"
#include "graph/temporal_graph.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "util/event_log.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/top_k.h"
#include "testing/temp_path.h"

namespace crashsim {
namespace {

using std::chrono::milliseconds;

// An owned client connection to a test server.
class Client {
 public:
  explicit Client(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return connected_; }

  // One request/response round trip; returns the parsed response object.
  StatusOr<JsonValue> Call(const JsonValue& request) {
    ASSIGN_OR_RETURN(std::string payload, CallRaw(request.Write()));
    return ParseJson(payload);
  }

  // The same round trip on raw frame payloads, as they cross the wire.
  StatusOr<std::string> CallRaw(const std::string& payload) {
    RETURN_IF_ERROR(WriteFrame(fd_, payload));
    return ReadFrame(fd_);
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

// 300-node graph with original ids offset by 1000, so tests exercise the
// original<->internal id mapping rather than an identity one.
LoadedGraph TestGraph() {
  Rng rng(11);
  LoadedGraph loaded;
  loaded.graph = ErdosRenyi(300, 1500, /*undirected=*/false, &rng);
  loaded.original_ids.resize(static_cast<size_t>(loaded.graph.num_nodes()));
  std::iota(loaded.original_ids.begin(), loaded.original_ids.end(),
            int64_t{1000});
  return loaded;
}

LoadedTemporalGraph TestTemporalGraph() {
  Rng rng(13);
  TemporalGraphBuilder builder(40, /*undirected=*/true);
  for (int t = 0; t < 4; ++t) {
    const Graph g = ErdosRenyi(40, 120 + 10 * t, /*undirected=*/true, &rng);
    builder.AddSnapshot(g.Edges());
  }
  LoadedTemporalGraph loaded;
  loaded.graph = builder.Build();
  loaded.original_ids.resize(static_cast<size_t>(loaded.graph.num_nodes()));
  std::iota(loaded.original_ids.begin(), loaded.original_ids.end(),
            int64_t{500});
  return loaded;
}

ServerOptions TestServerOptions() {
  ServerOptions opt;
  opt.engine.mc.trials_override = 150;
  opt.engine.mc.seed = 23;
  // Deterministic responses: no degradation shrinking trial budgets.
  opt.executor.degrade_at = 0.0;
  opt.executor.max_concurrent = 8;
  opt.executor.max_queue = 32;
  opt.metrics_port = 0;
  return opt;
}

JsonValue TopKRequest(int64_t source, int64_t k) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue(std::string("topk")));
  request.Set("source", JsonValue(source));
  request.Set("k", JsonValue(k));
  return request;
}

// One raw HTTP exchange with the metrics listener; returns the whole
// response (status line, headers, body). split=true dribbles the request a
// few bytes at a time to exercise partial-read tolerance.
std::string RawHttp(int port, const std::string& payload, bool split = false) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  if (split) {
    for (size_t i = 0; i < payload.size(); i += 7) {
      const std::string piece = payload.substr(i, 7);
      send(fd, piece.data(), piece.size(), 0);
      std::this_thread::sleep_for(milliseconds(5));
    }
  } else {
    send(fd, payload.data(), payload.size(), 0);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string HttpGet(int port, const std::string& path, bool split = false) {
  return RawHttp(port, "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n", split);
}

// The body after the header terminator (empty when none).
std::string HttpBody(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(ServerOptionsTest, ValidateRejectsBadValues) {
  ServerOptions opt = TestServerOptions();
  opt.port = 70000;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.max_connections = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.max_k = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.executor.max_concurrent = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.slow_query_ms = -2;  // -1 (disabled) is the lowest legal value
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.tracez_capacity = -1;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.slo_ms = 0;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  opt = TestServerOptions();
  opt.default_timeout_ms = 86'400'001;  // crashsim_serve's flag stops at a day
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(TestServerOptions().Validate().ok());
}

TEST(ServerTest, StartPingShutdown) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue(std::string("ping")));
  request.Set("id", JsonValue(int64_t{42}));
  StatusOr<JsonValue> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("status", ""), "OK");
  EXPECT_EQ(response->GetInt("id", -1), 42);

  server.Shutdown();
  server.Shutdown();  // idempotent
}

TEST(ServerTest, TopKIsBitIdenticalToDirectEngine) {
  LoadedGraph loaded = TestGraph();
  const ServerOptions options = TestServerOptions();

  // Direct, uncached reference on an identically configured engine.
  CrashSim reference(options.engine);
  reference.Bind(&loaded.graph);
  QueryContext ctx;
  const NodeId source = 7;  // original id 1007
  const PartialResult direct = reference.SingleSource(source, &ctx);
  ASSERT_TRUE(direct.status.ok());
  TopK<NodeId> selector(10);
  for (NodeId v = 0; v < loaded.graph.num_nodes(); ++v) {
    if (v != source) selector.Offer(direct.scores[static_cast<size_t>(v)], v);
  }
  const auto expected = selector.Sorted();

  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  StatusOr<JsonValue> response = client.Call(TopKRequest(1007, 10));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->GetString("status", ""), "OK");

  const JsonValue* nodes = response->Find("nodes");
  const JsonValue* scores = response->Find("scores");
  ASSERT_NE(nodes, nullptr);
  ASSERT_NE(scores, nullptr);
  ASSERT_EQ(nodes->items().size(), expected.size());
  ASSERT_EQ(scores->items().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(nodes->items()[i].as_int(),
              loaded.original_ids[static_cast<size_t>(expected[i].second)]);
    // %.17g serialisation round-trips doubles exactly: bit-identical.
    EXPECT_EQ(scores->items()[i].as_number(), expected[i].first);
  }
  EXPECT_EQ(response->GetInt("trials_done", -1), direct.trials_done);
  server.Shutdown();
}

TEST(ServerTest, UnknownSourceAndBadRequestsReportCleanErrors) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  StatusOr<JsonValue> response = client.Call(TopKRequest(99999, 5));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "NOT_FOUND");

  response = client.Call(TopKRequest(1003, 0));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT");

  JsonValue bad_op = JsonValue::Object();
  bad_op.Set("op", JsonValue(std::string("frobnicate")));
  response = client.Call(bad_op);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT");

  // Temporal endpoint without a temporal graph loaded.
  JsonValue temporal = JsonValue::Object();
  temporal.Set("op", JsonValue(std::string("temporal")));
  temporal.Set("source", JsonValue(int64_t{1003}));
  response = client.Call(temporal);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT");

  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.requests, 4);
  EXPECT_EQ(stats.errors, 4);
  server.Shutdown();
}

TEST(ServerTest, MalformedFrameGetsErrorResponse) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  // A valid frame whose payload is a JSON string, not an object.
  StatusOr<JsonValue> response = client.Call(JsonValue(std::string("{nope")));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT");
  server.Shutdown();
}

TEST(ServerTest, TemporalQueryRoundTrip) {
  LoadedTemporalGraph temporal = TestTemporalGraph();
  ServerOptions options = TestServerOptions();
  options.engine.mc.trials_override = 80;

  // Static graph is required; serve the first snapshot's projection.
  LoadedGraph loaded;
  loaded.graph = temporal.graph.Snapshot(0);
  loaded.original_ids = temporal.original_ids;

  Server server(std::move(loaded), TestTemporalGraph(), options);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue(std::string("temporal")));
  request.Set("source", JsonValue(int64_t{503}));
  request.Set("kind", JsonValue(std::string("threshold")));
  request.Set("theta", JsonValue(0.02));
  StatusOr<JsonValue> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("status", ""), "OK");
  EXPECT_EQ(response->GetInt("snapshots_processed", -1), 4);
  EXPECT_EQ(response->GetInt("begin", -1), 0);
  EXPECT_EQ(response->GetInt("end", -1), 3);
  const JsonValue* nodes = response->Find("nodes");
  ASSERT_NE(nodes, nullptr);
  // Every answered node must be an original id of the temporal graph.
  for (const JsonValue& node : nodes->items()) {
    const int64_t id = node.as_int();
    EXPECT_GE(id, 500);
    EXPECT_LT(id, 540);
  }
  server.Shutdown();
}

TEST(ServerTest, TemporalIntervalOutOfRangeIsRejectedNotWrapped) {
  LoadedTemporalGraph temporal = TestTemporalGraph();  // 4 snapshots
  LoadedGraph loaded;
  loaded.graph = temporal.graph.Snapshot(0);
  loaded.original_ids = temporal.original_ids;
  Server server(std::move(loaded), std::move(temporal), TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  // 2^32 and 2^32 + 3 narrow to 0 and 3 as int; -7 is not the documented
  // "last snapshot" sentinel (-1). None may be answered as another interval.
  const std::pair<int64_t, int64_t> intervals[] = {
      {int64_t{4294967296}, 3}, {0, int64_t{4294967299}}, {0, -7}};
  for (const auto& [begin, end] : intervals) {
    JsonValue request = JsonValue::Object();
    request.Set("op", JsonValue(std::string("temporal")));
    request.Set("source", JsonValue(int64_t{503}));
    request.Set("begin", JsonValue(begin));
    request.Set("end", JsonValue(end));
    StatusOr<JsonValue> response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT")
        << "begin=" << begin << " end=" << end;
  }
  server.Shutdown();
}

TEST(ServerTest, ConcurrentHotSourceClientsShareOneTree) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  std::vector<std::string> replies(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client(server.port());
      if (!client.connected()) return;
      StatusOr<JsonValue> response = client.Call(TopKRequest(1007, 10));
      if (!response.ok()) return;
      // Keep only the semantic payload: timing fields legitimately differ
      // between clients; the answer must not.
      JsonValue semantic = JsonValue::Object();
      for (const char* key : {"status", "nodes", "scores", "trials_done",
                              "epsilon_achieved", "degraded"}) {
        if (const JsonValue* v = response->Find(key); v != nullptr) {
          semantic.Set(key, *v);
        }
      }
      replies[static_cast<size_t>(i)] = semantic.Write();
    });
  }
  for (std::thread& t : threads) t.join();

  // All clients answered, identically (scores are a pure function of
  // (seed, source, candidate), shared tree or not).
  for (int i = 0; i < kClients; ++i) {
    ASSERT_FALSE(replies[static_cast<size_t>(i)].empty()) << "client " << i;
    EXPECT_EQ(replies[static_cast<size_t>(i)], replies[0]);
  }
  // One tree build and one trial loop: everyone else hit the cached answer
  // or coalesced onto its computation, so no other client reached the tree.
  const TreeCache::Stats cache = server.tree_cache().stats();
  EXPECT_EQ(cache.misses, 1);
  EXPECT_EQ(cache.hits + cache.coalesced, 0);
  EXPECT_EQ(cache.answer_misses, 1);
  EXPECT_EQ(cache.answer_hits + cache.answer_coalesced, kClients - 1);
  server.Shutdown();
}

// Any k is a projection of one cached score vector: k=3 and then k=10 on
// the same source return prefix-consistent, byte-identical nodes and scores
// (both equal to the uncached engine), and the second request runs no walks
// — its query_stats in the slow-query log show an answer-cache hit.
TEST(ServerTest, RepeatedTopKIsServedFromTheCachedAnswer) {
  LoadedGraph loaded = TestGraph();
  const ServerOptions base = TestServerOptions();
  CrashSim reference(base.engine);
  reference.Bind(&loaded.graph);
  QueryContext ctx;
  const NodeId source = 7;  // original id 1007
  const PartialResult direct = reference.SingleSource(source, &ctx);
  ASSERT_TRUE(direct.status.ok());
  TopK<NodeId> selector(10);
  for (NodeId v = 0; v < loaded.graph.num_nodes(); ++v) {
    if (v != source) selector.Offer(direct.scores[static_cast<size_t>(v)], v);
  }
  const auto expected = selector.Sorted();

  const test::TempPath temp("answer_cache.jsonl");
  EventLog::Options log_options;
  log_options.path = temp.path();
  EventLog event_log(log_options);
  ASSERT_TRUE(event_log.ok());
  ServerOptions options = base;
  options.event_log = &event_log;
  options.slow_query_ms = 0;  // log every request with its query_stats
  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  const StatusOr<JsonValue> small = client.Call(TopKRequest(1007, 3));
  const StatusOr<JsonValue> large = client.Call(TopKRequest(1007, 10));
  const TreeCache::Stats cache = server.tree_cache().stats();
  server.Shutdown();
  event_log.Flush();
  ASSERT_TRUE(small.ok() && large.ok());
  ASSERT_EQ(small->GetString("status", ""), "OK");
  ASSERT_EQ(large->GetString("status", ""), "OK");
  EXPECT_EQ(cache.answer_misses, 1);
  EXPECT_EQ(cache.answer_hits, 1);
  EXPECT_EQ(cache.misses, 1);

  const std::vector<JsonValue>& large_nodes = large->Find("nodes")->items();
  const std::vector<JsonValue>& large_scores = large->Find("scores")->items();
  const std::vector<JsonValue>& small_nodes = small->Find("nodes")->items();
  const std::vector<JsonValue>& small_scores = small->Find("scores")->items();
  ASSERT_EQ(large_nodes.size(), expected.size());
  ASSERT_EQ(small_nodes.size(), 3u);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(large_nodes[i].as_int(),
              loaded.original_ids[static_cast<size_t>(expected[i].second)]);
    EXPECT_EQ(large_scores[i].as_number(), expected[i].first);
    if (i < small_nodes.size()) {
      EXPECT_EQ(small_nodes[i].Write(), large_nodes[i].Write());
      EXPECT_EQ(small_scores[i].Write(), large_scores[i].Write());
    }
  }
  EXPECT_EQ(large->GetInt("trials_done", -1), direct.trials_done);

  // The event log's query_stats: the first request walked, the second did
  // not, and its cache section records the answer hit.
  const int64_t small_id = small->GetInt("request_id", 0);
  const int64_t large_id = large->GetInt("request_id", 0);
  std::ifstream in(temp.path());
  std::string line;
  int seen = 0;
  while (std::getline(in, line)) {
    StatusOr<JsonValue> event = ParseJson(line);
    ASSERT_TRUE(event.ok()) << line;
    const int64_t id = event->GetInt("request_id", 0);
    if (id != small_id && id != large_id) continue;
    ++seen;
    const JsonValue* stats = event->Find("query_stats");
    ASSERT_NE(stats, nullptr) << line;
    const JsonValue* work = stats->Find("work");
    const JsonValue* cache_stats = stats->Find("cache");
    ASSERT_NE(work, nullptr) << line;
    ASSERT_NE(cache_stats, nullptr) << line;
    if (id == small_id) {
      EXPECT_GT(work->GetInt("walks", -1), 0);
      EXPECT_EQ(cache_stats->GetInt("answer_misses", -1), 1);
    } else {
      EXPECT_EQ(work->GetInt("walks", -1), 0);
      EXPECT_EQ(cache_stats->GetInt("answer_hits", -1), 1);
      EXPECT_EQ(cache_stats->GetInt("misses", -1), 0);  // tree untouched
    }
  }
  EXPECT_EQ(seen, 2);
}

TEST(ServerTest, GracefulShutdownDrainsInFlightQuery) {
  FailpointScope failpoints(3);
  // Make the query slow enough that shutdown starts while it is running.
  FailpointSpec slow;
  slow.action = FailpointAction::kLatency;
  slow.probability = 1.0;
  slow.latency_ms = 300;
  ASSERT_TRUE(ConfigureFailpoint("rev_reach.build", slow).ok());

  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  std::thread shutdown_thread([&server] {
    std::this_thread::sleep_for(milliseconds(100));
    server.Shutdown();
  });
  // Sent before shutdown begins, answered in full after it: the drain
  // guarantee.
  StatusOr<JsonValue> response = client.Call(TopKRequest(1007, 5));
  shutdown_thread.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("status", ""), "OK");
  ASSERT_NE(response->Find("scores"), nullptr);
  EXPECT_EQ(response->Find("scores")->items().size(), 5u);
}

TEST(ServerTest, MetricsEndpointServesPrometheusText) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.metrics_port(), 0);

  // Prime at least one serve.* metric.
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    JsonValue ping = JsonValue::Object();
    ping.Set("op", JsonValue(std::string("ping")));
    ASSERT_TRUE(client.Call(ping).ok());
  }

  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.metrics_port()));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string get = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(send(fd, get.data(), get.size(), 0),
            static_cast<ssize_t>(get.size()));
  std::string body;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    body.append(buf, static_cast<size_t>(n));
  }
  close(fd);

  EXPECT_NE(body.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(body.find("crashsim_serve_requests_total"), std::string::npos);
  EXPECT_NE(body.find("# TYPE"), std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, ResponsesCarryRequestIdAndStageBreakdown) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  StatusOr<JsonValue> first = client.Call(TopKRequest(1007, 5));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->GetString("status", ""), "OK");
  const int64_t first_id = first->GetInt("request_id", 0);
  EXPECT_GT(first_id, 0);
  const JsonValue* stages = first->Find("stages");
  ASSERT_NE(stages, nullptr);
  for (const char* key : {"queue_ms", "cache_ms", "walk_ms", "serialize_ms"}) {
    EXPECT_GE(stages->GetDouble(key, -1.0), 0.0) << key;
  }

  // Ids are assigned at ingress and strictly increase; error responses get
  // one too, so every reply is correlatable with the event log.
  StatusOr<JsonValue> second = client.Call(TopKRequest(99999, 5));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->GetString("status", ""), "NOT_FOUND");
  EXPECT_GT(second->GetInt("request_id", 0), first_id);
  server.Shutdown();
}

TEST(ServerTest, StatuszReportsLedgerCacheAndRollingLatency) {
  ServerOptions options = TestServerOptions();
  options.tracez_sample_every = 1;
  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Call(TopKRequest(1007, 5)).ok());
    ASSERT_TRUE(client.Call(TopKRequest(1007, 5)).ok());
  }

  const std::string response = HttpGet(server.metrics_port(), "/statusz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  StatusOr<JsonValue> doc = ParseJson(HttpBody(response));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("schema", ""), "crashsim.statusz.v1");
  EXPECT_GE(doc->GetDouble("uptime_seconds", -1.0), 0.0);
  const JsonValue* graph = doc->Find("graph");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->GetInt("nodes", 0), 300);
  const JsonValue* executor = doc->Find("executor");
  ASSERT_NE(executor, nullptr);
  EXPECT_EQ(executor->GetInt("submitted", -1), 2);
  EXPECT_EQ(executor->GetInt("completed", -1), 2);
  const JsonValue* cache = doc->Find("cache");
  ASSERT_NE(cache, nullptr);
  // The repeat is served from the cached answer, so the tree sees one
  // lookup: the build.
  EXPECT_EQ(cache->GetInt("misses", -1), 1);
  EXPECT_EQ(cache->GetInt("hits", -1), 0);
  const JsonValue* answers = cache->Find("answers");
  ASSERT_NE(answers, nullptr);
  EXPECT_EQ(answers->GetInt("misses", -1), 1);
  EXPECT_EQ(answers->GetInt("hits", -1), 1);
  EXPECT_EQ(answers->GetInt("entries", -1), 1);
  EXPECT_EQ(cache->GetInt("resident_bytes", -1),
            cache->GetInt("bytes", -1) + answers->GetInt("bytes", -1));
  const JsonValue* latency = doc->Find("latency");
  ASSERT_NE(latency, nullptr);
  const JsonValue* topk_window = latency->Find("topk");
  ASSERT_NE(topk_window, nullptr);
  EXPECT_EQ(topk_window->GetInt("count", -1), 2);
  EXPECT_GE(topk_window->GetDouble("p99_ms", -1.0),
            topk_window->GetDouble("p50_ms", -1.0));
  const JsonValue* slo = doc->Find("slo");
  ASSERT_NE(slo, nullptr);
  EXPECT_EQ(slo->GetInt("window_total", -1), 2);
  server.Shutdown();
}

TEST(ServerTest, TracezReassemblesIngressToEngineSpanTree) {
  ServerOptions options = TestServerOptions();
  options.tracez_sample_every = 1;  // sample every request
  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  int64_t request_id = 0;
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    StatusOr<JsonValue> response = client.Call(TopKRequest(1007, 5));
    ASSERT_TRUE(response.ok());
    request_id = response->GetInt("request_id", 0);
    ASSERT_GT(request_id, 0);
  }

  StatusOr<JsonValue> doc =
      ParseJson(HttpBody(HttpGet(server.metrics_port(), "/tracez")));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("schema", ""), "crashsim.tracez.v1");
  EXPECT_EQ(doc->GetInt("capacity", -1), 64);
  const JsonValue* traces = doc->Find("traces");
  ASSERT_NE(traces, nullptr);
  ASSERT_FALSE(traces->items().empty());

  // Find the sampled entry for our request and walk its span tree: the
  // ingress span must contain the executor span — the request id crossed
  // the server -> executor -> engine boundary intact.
  bool found = false;
  for (const JsonValue& entry : traces->items()) {
    if (entry.GetInt("request_id", -1) != request_id) continue;
    found = true;
    EXPECT_EQ(entry.GetString("op", ""), "topk");
    EXPECT_EQ(entry.GetString("status", ""), "OK");
    const JsonValue* tree = entry.Find("trace");
    ASSERT_NE(tree, nullptr);
    EXPECT_EQ(tree->GetInt("request_id", -1), request_id);
    std::vector<std::string> names;
    const JsonValue* threads = tree->Find("threads");
    ASSERT_NE(threads, nullptr);
    std::function<void(const JsonValue&)> walk =
        [&](const JsonValue& span) {
          names.push_back(span.GetString("name", ""));
          if (const JsonValue* children = span.Find("children");
              children != nullptr) {
            for (const JsonValue& child : children->items()) walk(child);
          }
        };
    for (const JsonValue& thread : threads->items()) {
      const JsonValue* spans = thread.Find("spans");
      ASSERT_NE(spans, nullptr);
      for (const JsonValue& span : spans->items()) walk(span);
    }
    EXPECT_NE(std::find(names.begin(), names.end(), "serve.request"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "executor.query"),
              names.end());
  }
  EXPECT_TRUE(found) << "request " << request_id << " not sampled";
  server.Shutdown();
}

TEST(ServerTest, HttpListenerHandles404And405AndSplitWrites) {
  Server server(TestGraph(), std::nullopt, TestServerOptions());
  ASSERT_TRUE(server.Start().ok());
  const int port = server.metrics_port();

  EXPECT_NE(HttpGet(port, "/nope").find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(RawHttp(port, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  // A request line dribbled 7 bytes at a time must still be served.
  const std::string split = HttpGet(port, "/statusz", /*split=*/true);
  EXPECT_NE(split.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(HttpBody(split).find("crashsim.statusz.v1"), std::string::npos);
  server.Shutdown();
}

TEST(ServerTest, SlowQueryEventsLandInTheEventLog) {
  const test::TempPath temp("slow_query.jsonl");
  const std::string& path = temp.path();
  EventLog::Options log_options;
  log_options.path = path;
  EventLog event_log(log_options);
  ASSERT_TRUE(event_log.ok());

  ServerOptions options = TestServerOptions();
  options.event_log = &event_log;
  options.slow_query_ms = 0;  // everything is "slow": log every request
  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  int64_t ok_id = 0;
  int64_t error_id = 0;
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    StatusOr<JsonValue> ok_response = client.Call(TopKRequest(1007, 5));
    ASSERT_TRUE(ok_response.ok());
    ok_id = ok_response->GetInt("request_id", 0);
    StatusOr<JsonValue> error_response = client.Call(TopKRequest(99999, 5));
    ASSERT_TRUE(error_response.ok());
    error_id = error_response->GetInt("request_id", 0);
  }
  server.Shutdown();
  event_log.Flush();

  // Both requests produced a slow_query line carrying their request id, the
  // op, the status, and the per-stage breakdown.
  std::ifstream in(path);
  std::string line;
  bool saw_ok = false;
  bool saw_error = false;
  while (std::getline(in, line)) {
    StatusOr<JsonValue> event = ParseJson(line);
    ASSERT_TRUE(event.ok()) << line;
    if (event->GetString("event", "") != "slow_query") continue;
    EXPECT_EQ(event->GetString("schema", ""), "crashsim.event.v1");
    for (const char* key :
         {"queue_ms", "cache_ms", "walk_ms", "serialize_ms"}) {
      EXPECT_GE(event->GetDouble(key, -1.0), 0.0) << key;
    }
    const int64_t id = event->GetInt("request_id", 0);
    if (id == ok_id) {
      saw_ok = true;
      EXPECT_EQ(event->GetString("status", ""), "OK");
      EXPECT_EQ(event->GetString("op", ""), "topk");
    } else if (id == error_id) {
      saw_error = true;
      EXPECT_EQ(event->GetString("status", ""), "NOT_FOUND");
    }
  }
  EXPECT_TRUE(saw_ok);
  EXPECT_TRUE(saw_error);
}

TEST(ServerTest, SlowQueryStatsShareTheRequestElapsedReading) {
  const test::TempPath temp("one_clock.jsonl");
  EventLog::Options log_options;
  log_options.path = temp.path();
  EventLog event_log(log_options);
  ASSERT_TRUE(event_log.ok());

  LoadedTemporalGraph temporal = TestTemporalGraph();
  LoadedGraph loaded;
  loaded.graph = temporal.graph.Snapshot(0);
  loaded.original_ids = temporal.original_ids;
  // query_stats names the graph each op ran on: the static graph for topk,
  // the interval's first snapshot for temporal (as crashsim_cli reports).
  const int64_t static_edges = loaded.graph.num_edges();
  const int64_t begin_edges = temporal.graph.Snapshot(1).num_edges();
  ASSERT_NE(static_edges, begin_edges);
  ServerOptions options = TestServerOptions();
  options.engine.mc.trials_override = 80;
  options.event_log = &event_log;
  options.slow_query_ms = 0;  // log every request
  Server server(std::move(loaded), std::move(temporal), options);
  ASSERT_TRUE(server.Start().ok());
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    JsonValue temporal_request = JsonValue::Object();
    temporal_request.Set("op", JsonValue(std::string("temporal")));
    temporal_request.Set("source", JsonValue(int64_t{503}));
    temporal_request.Set("begin", JsonValue(int64_t{1}));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(client.Call(TopKRequest(500 + i, 5)).ok());
      ASSERT_TRUE(client.Call(temporal_request).ok());
    }
  }
  server.Shutdown();
  event_log.Flush();

  // The event's elapsed_ms and its query_stats.elapsed_seconds are the same
  // reading, so they agree to the precision they are printed with (%.6g
  // for elapsed_ms).
  std::ifstream in(temp.path());
  std::string line;
  int checked = 0;
  while (std::getline(in, line)) {
    StatusOr<JsonValue> event = ParseJson(line);
    ASSERT_TRUE(event.ok()) << line;
    if (event->GetString("event", "") != "slow_query") continue;
    const JsonValue* stats = event->Find("query_stats");
    ASSERT_NE(stats, nullptr) << line;
    const double elapsed_ms = event->GetDouble("elapsed_ms", -1.0);
    const double stats_ms = stats->GetDouble("elapsed_seconds", -1.0) * 1e3;
    EXPECT_GT(elapsed_ms, 0.0) << line;
    EXPECT_NEAR(stats_ms, elapsed_ms, 1e-5 * elapsed_ms) << line;
    const bool topk = event->GetString("op", "") == "topk";
    EXPECT_EQ(stats->GetInt("n", -1), 40) << line;
    EXPECT_EQ(stats->GetInt("m", -1), topk ? static_edges : begin_edges)
        << line;
    ++checked;
  }
  EXPECT_EQ(checked, 6);
}

// A timeout_ms past a day would overflow the deadline's nanosecond clock
// (9223372036854 ms is ~2^63 ns); both query ops reject it up front, with
// the range crashsim_cli --timeout_ms accepts.
TEST(ServerTest, TimeoutMsOutsideItsRangeIsRejected) {
  LoadedTemporalGraph temporal = TestTemporalGraph();
  LoadedGraph loaded;
  loaded.graph = temporal.graph.Snapshot(0);
  loaded.original_ids = temporal.original_ids;
  ServerOptions options = TestServerOptions();
  options.engine.mc.trials_override = 80;
  Server server(std::move(loaded), std::move(temporal), options);
  ASSERT_TRUE(server.Start().ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  for (const char* op : {"topk", "temporal"}) {
    for (const int64_t timeout_ms :
         {int64_t{9223372036854}, int64_t{86'400'001}, int64_t{-1}}) {
      JsonValue request = TopKRequest(503, 3);
      request.Set("op", JsonValue(std::string(op)));
      request.Set("timeout_ms", JsonValue(timeout_ms));
      const StatusOr<JsonValue> response = client.Call(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->GetString("status", ""), "INVALID_ARGUMENT")
          << op << " timeout_ms=" << timeout_ms;
    }
    JsonValue request = TopKRequest(503, 3);
    request.Set("op", JsonValue(std::string(op)));
    request.Set("timeout_ms", JsonValue(int64_t{86'400'000}));
    const StatusOr<JsonValue> response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->GetString("status", ""), "OK") << op;
  }
  server.Shutdown();
}

// /statusz percentiles resolve the sub-millisecond hot path: the p50 of a
// topk source repeated from the answer cache is within one factor-2 bucket
// of what the client itself measured around the same calls. Each server
// reading is shorter than its round trip and a bucket bound is under twice
// the value it holds, so with an odd count of calls (the cache fill plus
// 20 repeats) the inequality holds at any load.
TEST(ServerTest, StatuszResolvesSubMillisecondLatency) {
  ServerOptions options = TestServerOptions();
  options.tracez_capacity = 0;
  Server server(TestGraph(), std::nullopt, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<double> client_ms;
  {
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < 21; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const StatusOr<JsonValue> response = client.Call(TopKRequest(1007, 5));
      client_ms.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
      ASSERT_TRUE(response.ok());
      ASSERT_EQ(response->GetString("status", ""), "OK");
    }
  }
  std::sort(client_ms.begin(), client_ms.end());
  const double client_median = client_ms[10];

  StatusOr<JsonValue> doc =
      ParseJson(HttpBody(HttpGet(server.metrics_port(), "/statusz")));
  server.Shutdown();
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* latency = doc->Find("latency");
  ASSERT_NE(latency, nullptr);
  const JsonValue* topk = latency->Find("topk");
  ASSERT_NE(topk, nullptr);
  EXPECT_EQ(topk->GetInt("count", -1), 21);
  const double p50_ms = topk->GetDouble("p50_ms", -1.0);
  EXPECT_GT(p50_ms, 0.0);
  EXPECT_LE(p50_ms, 2.0 * client_median)
      << "client median " << client_median << " ms";
}

// The top-level keys of a compact JSON object, in wire order.
std::string TopLevelKeys(const std::string& json) {
  std::string keys;
  int depth = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') {
      size_t end = i + 1;
      while (json[end] != '"') end += json[end] == '\\' ? 2 : 1;
      if (depth == 1 && json[end + 1] == ':') {
        keys += (keys.empty() ? "" : ",") + json.substr(i + 1, end - i - 1);
      }
      i = end;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      --depth;
    }
  }
  return keys;
}

// Replaces every timing value with '#': what is left of a response is a
// pure function of the request and the seed.
std::string MaskTimings(std::string json) {
  for (const char* key : {"queue_wait_ms", "run_ms", "queue_ms", "cache_ms",
                          "walk_ms", "serialize_ms"}) {
    const std::string needle = std::string("\"") + key + "\":";
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos)) {
      pos += needle.size();
      json.replace(pos, json.find_first_of(",}", pos) - pos, "#");
    }
  }
  return json;
}

// The wire format of every response shape, pinned: the ordered top-level
// keys; the whole response (timings masked) wherever it carries no scores,
// and its tail where it does; and the status and op of the request's
// slow-query event.
TEST(ServerTest, ResponseShapesAreStableOnTheWire) {
  struct Shape {
    std::string request;  // raw frame payload
    std::string keys;
    // The whole masked response, or for answers its masked tail.
    std::string masked;
    std::string event_status;
    std::string event_op;
  };
  const std::string kAnswerTail =
      "\"retries\":0,\"queue_wait_ms\":#,\"run_ms\":#,\"stages\":{"
      "\"queue_ms\":#,\"cache_ms\":#,\"walk_ms\":#,\"serialize_ms\":#}}";
  const std::vector<Shape> with_temporal = {
      {R"j({"op":"ping","id":1})j", "id,status,op,request_id",
       R"j({"id":1,"status":"OK","op":"ping","request_id":1})j", "OK", "ping"},
      {"{nope", "status,message,request_id",
       R"j({"status":"INVALID_ARGUMENT","message":"JSON parse error at byte 1: expected a string object key","request_id":2})j",
       "INVALID_ARGUMENT", ""},
      {R"j({"id":3,"op":"frobnicate"})j", "id,status,message,request_id",
       R"j({"id":3,"status":"INVALID_ARGUMENT","message":"unknown op 'frobnicate' (expected ping | topk | temporal)","request_id":3})j",
       "INVALID_ARGUMENT", "frobnicate"},
      {R"j({"id":4,"op":"topk","source":503,"k":3})j",
       "id,status,op,request_id,source,k,nodes,scores,trials_done,"
       "trials_target,epsilon_achieved,degraded,trial_fraction,retries,"
       "queue_wait_ms,run_ms,stages",
       "\"degraded\":false,\"trial_fraction\":1," + kAnswerTail, "OK", "topk"},
      {R"j({"id":5,"op":"topk","source":99999,"k":3})j",
       "id,status,message,request_id",
       R"j({"id":5,"status":"NOT_FOUND","message":"source id 99999 not present in the graph","request_id":5})j",
       "NOT_FOUND", "topk"},
      {R"j({"id":6,"op":"topk","source":503,"k":0})j",
       "id,status,message,request_id",
       R"j({"id":6,"status":"INVALID_ARGUMENT","message":"k must be in [1, 1000000], got 0","request_id":6})j",
       "INVALID_ARGUMENT", "topk"},
      {R"j({"id":7,"op":"topk","source":504,"k":3})j",
       "id,status,message,admitted,request_id",
       R"j({"id":7,"status":"RESOURCE_EXHAUSTED","message":"failpoint executor.admit fired (hit 0)","admitted":false,"request_id":7})j",
       "RESOURCE_EXHAUSTED", "topk"},
      {R"j({"id":8,"op":"temporal","source":503,"theta":0.02})j",
       "id,status,op,request_id,source,kind,begin,end,nodes,"
       "snapshots_processed,scores_computed,retries,queue_wait_ms,run_ms,"
       "stages",
       kAnswerTail, "OK", "temporal"},
      {R"j({"id":9,"op":"temporal","source":503,"kind":"sideways"})j",
       "id,status,message,request_id",
       R"j({"id":9,"status":"INVALID_ARGUMENT","message":"unknown kind 'sideways' (threshold | increasing | decreasing)","request_id":9})j",
       "INVALID_ARGUMENT", "temporal"},
  };
  const std::vector<Shape> without_temporal = {
      {R"j({"id":10,"op":"temporal","source":1003})j",
       "id,status,message,request_id",
       R"j({"id":10,"status":"INVALID_ARGUMENT","message":"server was started without a temporal graph","request_id":1})j",
       "INVALID_ARGUMENT", "temporal"},
  };

  for (const bool temporal_graph : {true, false}) {
    SCOPED_TRACE(temporal_graph ? "with temporal graph" : "static only");
    const test::TempPath temp("wire_format.jsonl");
    EventLog::Options log_options;
    log_options.path = temp.path();
    EventLog event_log(log_options);
    ASSERT_TRUE(event_log.ok());
    ServerOptions options = TestServerOptions();
    options.engine.mc.trials_override = 80;
    options.event_log = &event_log;
    options.slow_query_ms = 0;  // every request logs its event
    std::optional<LoadedTemporalGraph> temporal;
    LoadedGraph loaded = TestGraph();
    if (temporal_graph) {
      temporal = TestTemporalGraph();
      loaded.graph = temporal->graph.Snapshot(0);
      loaded.original_ids = temporal->original_ids;
    }
    const std::vector<Shape>& shapes =
        temporal_graph ? with_temporal : without_temporal;
    FailpointScope failpoints(5);
    std::vector<int64_t> request_ids;
    {
      Server server(std::move(loaded), std::move(temporal), options);
      ASSERT_TRUE(server.Start().ok());
      Client client(server.port());
      ASSERT_TRUE(client.connected());
      for (const Shape& shape : shapes) {
        if (shape.keys.find("admitted") != std::string::npos) {
          FailpointSpec shed;
          shed.code = StatusCode::kResourceExhausted;
          shed.max_fires = 1;
          ASSERT_TRUE(ConfigureFailpoint("executor.admit", shed).ok());
        }
        const StatusOr<std::string> raw = client.CallRaw(shape.request);
        ASSERT_TRUE(raw.ok()) << raw.status().ToString();
        EXPECT_EQ(TopLevelKeys(*raw), shape.keys) << shape.request;
        const std::string masked = MaskTimings(*raw);
        if (shape.masked.front() == '{') {
          EXPECT_EQ(masked, shape.masked) << shape.request;
        } else {
          EXPECT_NE(masked.find(shape.masked), std::string::npos)
              << shape.request << " -> " << masked;
        }
        const StatusOr<JsonValue> parsed = ParseJson(*raw);
        ASSERT_TRUE(parsed.ok());
        request_ids.push_back(parsed->GetInt("request_id", 0));
      }
      server.Shutdown();
    }
    event_log.Flush();

    std::ifstream in(temp.path());
    std::string line;
    size_t seen = 0;
    while (std::getline(in, line)) {
      StatusOr<JsonValue> event = ParseJson(line);
      ASSERT_TRUE(event.ok()) << line;
      if (event->GetString("event", "") != "slow_query") continue;
      const auto it = std::find(request_ids.begin(), request_ids.end(),
                                event->GetInt("request_id", 0));
      ASSERT_NE(it, request_ids.end()) << line;
      const Shape& shape = shapes[static_cast<size_t>(it - request_ids.begin())];
      EXPECT_EQ(event->GetString("status", "?"), shape.event_status) << line;
      EXPECT_EQ(event->GetString("op", "?"), shape.event_op) << line;
      ++seen;
    }
    EXPECT_EQ(seen, shapes.size());
  }
}

}  // namespace
}  // namespace crashsim
