// servebench_native — the compiled half of the serving benchmark
// (servebench/README.md). Three subcommands:
//
//   generate   writes the pinned dataset: a static and a temporal edge list
//              plus a small JSON index of the node ids each file holds.
//   reference  answers a list of requests in-process with a freshly bound
//              CrashSim / CrashSimT built from the server's options; the
//              benchmark's correctness gate compares these with the server.
//   trace      replays requests in-process through the calls the server
//              makes (graph loaders, CrashSim::Bind, QueryExecutor::Execute,
//              TreeCache::GetOrBuild, CrashSim::PartialWithTree, TopK,
//              CrashSimT::Answer, JsonValue parse), wrapping each call in a
//              span and attaching a QueryStats sink to every query; then
//              times JsonValue::Write on the server's own response payloads.
//
// Requests are read from a file of framed-protocol payloads, one JSON
// object per line. Every output is JSON so run.py can aggregate it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/crashsim.h"
#include "core/crashsim_t.h"
#include "core/executor.h"
#include "core/query_context.h"
#include "core/query_stats.h"
#include "core/temporal_query.h"
#include "core/tree_cache.h"
#include "datasets/datasets.h"
#include "graph/graph_io.h"
#include "serve/json.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/top_k.h"

namespace crashsim {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "servebench_native: %s\n", message.c_str());
  return 2;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Millis(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --- options shared by every subcommand -----------------------------------

// Engine flags carry the same names and defaults as crashsim_serve's.
void DefineEngineFlags(FlagSet* flags) {
  flags->DefineString("graph", "", "static edge-list file");
  flags->DefineString("temporal", "", "temporal edge-list file (optional)");
  flags->DefineBool("undirected", false, "treat edges as undirected");
  flags->DefineDouble("c", 0.6, "SimRank decay factor");
  flags->DefineDouble("epsilon", 0.025, "max absolute error");
  flags->DefineDouble("delta", 0.01, "failure probability");
  flags->DefineInt("trials", 0, "Monte-Carlo trials (0 = from epsilon/delta)");
  flags->DefineInt("threads", 1, "CrashSim candidate-evaluation threads");
  flags->DefineInt("batch_size", 64, "CrashSim SoA walk lanes per thread");
  flags->DefineInt("seed", 42, "RNG seed");
  flags->DefineBool("paper_mode", false, "paper-verbatim revReach recurrence");
  flags->DefineString("requests", "", "request payloads, one JSON per line");
}

CrashSimOptions EngineOptions(const FlagSet& flags) {
  CrashSimOptions options;
  options.mc.c = flags.GetDouble("c");
  options.mc.epsilon = flags.GetDouble("epsilon");
  options.mc.delta = flags.GetDouble("delta");
  options.mc.trials_override = flags.GetInt("trials");
  options.mc.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  options.mode = flags.GetBool("paper_mode") ? RevReachMode::kPaper
                                             : RevReachMode::kCorrected;
  options.num_threads = static_cast<int>(flags.GetInt("threads"));
  options.batch_size = static_cast<int>(flags.GetInt("batch_size"));
  return options;
}

StatusOr<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return NotFoundError("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// The graphs a server would hold, plus its original-id lookups.
struct Graphs {
  LoadedGraph graph;
  std::optional<LoadedTemporalGraph> temporal;
  std::unordered_map<int64_t, NodeId> static_ids;
  std::unordered_map<int64_t, NodeId> temporal_ids;
};

StatusOr<Graphs> LoadGraphs(const FlagSet& flags) {
  auto graph_or = LoadEdgeListFile(flags.GetString("graph"),
                                   flags.GetBool("undirected"));
  if (!graph_or.ok()) return graph_or.status();
  Graphs graphs{std::move(*graph_or), std::nullopt, {}, {}};
  if (!flags.GetString("temporal").empty()) {
    auto temporal_or = LoadTemporalEdgeListFile(flags.GetString("temporal"),
                                                flags.GetBool("undirected"));
    if (!temporal_or.ok()) return temporal_or.status();
    graphs.temporal.emplace(std::move(*temporal_or));
  }
  for (size_t i = 0; i < graphs.graph.original_ids.size(); ++i) {
    graphs.static_ids.emplace(graphs.graph.original_ids[i],
                              static_cast<NodeId>(i));
  }
  if (graphs.temporal.has_value()) {
    for (size_t i = 0; i < graphs.temporal->original_ids.size(); ++i) {
      graphs.temporal_ids.emplace(graphs.temporal->original_ids[i],
                                  static_cast<NodeId>(i));
    }
  }
  return graphs;
}

// Decodes a temporal request the way Server::HandleTemporal does.
StatusOr<TemporalQuery> DecodeTemporal(const JsonValue& request,
                                       const Graphs& graphs) {
  if (!graphs.temporal.has_value()) {
    return InvalidArgumentError("temporal request without --temporal");
  }
  const auto it = graphs.temporal_ids.find(request.GetInt("source", -1));
  if (it == graphs.temporal_ids.end()) {
    return NotFoundError("temporal source not in the graph");
  }
  TemporalQuery query;
  query.source = it->second;
  query.begin_snapshot = static_cast<int>(request.GetInt("begin", 0));
  const int64_t end = request.GetInt("end", -1);
  query.end_snapshot = end < 0 ? graphs.temporal->graph.num_snapshots() - 1
                               : static_cast<int>(end);
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
    return InvalidArgumentError("unknown temporal kind " + kind);
  }
  return query;
}

// Server::HandleTopK's selection: the k best nodes other than the source.
std::vector<std::pair<double, NodeId>> SelectTopK(
    const std::vector<double>& scores, NodeId source, int64_t k) {
  TopK<NodeId> selector(static_cast<size_t>(k));
  for (NodeId v = 0; v < static_cast<NodeId>(scores.size()); ++v) {
    if (v != source) selector.Offer(scores[static_cast<size_t>(v)], v);
  }
  return selector.Sorted();
}

// --- generate ---------------------------------------------------------------

JsonValue IdArray(const std::vector<int64_t>& ids) {
  JsonValue out = JsonValue::Array();
  for (const int64_t id : ids) out.Append(JsonValue(id));
  return out;
}

int RunGenerate(int argc, char** argv) {
  FlagSet flags;
  flags.DefineString("dataset", "hepth", "Table III stand-in name");
  flags.DefineDouble("scale", 0.2, "fraction of the published size");
  flags.DefineInt("snapshots", 0, "snapshot count override (0 = published)");
  flags.DefineInt("gen_seed", 7, "generator seed");
  flags.DefineBool("undirected", false, "load the files as undirected");
  flags.DefineString("static_out", "", "static edge-list output");
  flags.DefineString("temporal_out", "", "temporal edge-list output");
  flags.DefineString("index_out", "", "node-id index output (JSON)");
  if (!flags.Parse(argc, argv)) return 1;
  const Dataset ds = MakeDataset(
      flags.GetString("dataset"), flags.GetDouble("scale"),
      static_cast<int>(flags.GetInt("snapshots")),
      static_cast<uint64_t>(flags.GetInt("gen_seed")));
  {
    std::ofstream out(flags.GetString("static_out"));
    WriteEdgeList(ds.static_graph, out);
    if (!out) return Fail("cannot write " + flags.GetString("static_out"));
    std::ofstream tout(flags.GetString("temporal_out"));
    WriteTemporalEdgeList(ds.temporal, tout);
    if (!tout) return Fail("cannot write " + flags.GetString("temporal_out"));
  }
  // Index the ids through the same loaders the server uses, so the request
  // generator only ever names nodes the server knows.
  auto graph_or = LoadEdgeListFile(flags.GetString("static_out"),
                                   flags.GetBool("undirected"));
  if (!graph_or.ok()) return Fail(graph_or.status().ToString());
  auto temporal_or = LoadTemporalEdgeListFile(flags.GetString("temporal_out"),
                                              flags.GetBool("undirected"));
  if (!temporal_or.ok()) return Fail(temporal_or.status().ToString());
  JsonValue index = JsonValue::Object();
  index.Set("nodes",
            JsonValue(static_cast<int64_t>(graph_or->graph.num_nodes())));
  index.Set("edges", JsonValue(graph_or->graph.num_edges()));
  index.Set("snapshots", JsonValue(static_cast<int64_t>(
                             temporal_or->graph.num_snapshots())));
  index.Set("static_ids", IdArray(graph_or->original_ids));
  index.Set("temporal_ids", IdArray(temporal_or->original_ids));
  std::ofstream out(flags.GetString("index_out"));
  out << index.Write() << "\n";
  if (!out) return Fail("cannot write " + flags.GetString("index_out"));
  return 0;
}

// --- reference --------------------------------------------------------------

// One answer line per request: {"nodes": [...], "scores": [...]} for top-k,
// {"nodes": [...]} for temporal, both in original ids and rendered by the
// same JsonValue writer as the server's responses.
int RunReference(int argc, char** argv) {
  FlagSet flags;
  DefineEngineFlags(&flags);
  if (!flags.Parse(argc, argv)) return 1;
  auto lines_or = ReadLines(flags.GetString("requests"));
  if (!lines_or.ok()) return Fail(lines_or.status().ToString());
  auto graphs_or = LoadGraphs(flags);
  if (!graphs_or.ok()) return Fail(graphs_or.status().ToString());
  const Graphs& graphs = *graphs_or;
  const CrashSimOptions options = EngineOptions(flags);
  if (Status s = options.Validate(); !s.ok()) return Fail(s.ToString());
  CrashSim engine(options);
  engine.Bind(&graphs.graph.graph);

  for (const std::string& line : *lines_or) {
    auto request_or = ParseJson(line);
    if (!request_or.ok()) return Fail(request_or.status().ToString());
    const JsonValue& request = *request_or;
    JsonValue answer = JsonValue::Object();
    JsonValue nodes = JsonValue::Array();
    if (request.GetString("op", "") == "topk") {
      const auto it = graphs.static_ids.find(request.GetInt("source", -1));
      if (it == graphs.static_ids.end()) return Fail("unknown source");
      QueryContext ctx;
      const PartialResult result = engine.SingleSource(it->second, &ctx);
      if (!result.complete()) return Fail(result.status.ToString());
      JsonValue scores = JsonValue::Array();
      for (const auto& [score, v] :
           SelectTopK(result.scores, it->second, request.GetInt("k", 10))) {
        nodes.Append(
            JsonValue(graphs.graph.original_ids[static_cast<size_t>(v)]));
        scores.Append(JsonValue(score));
      }
      answer.Set("nodes", std::move(nodes));
      answer.Set("scores", std::move(scores));
    } else {
      auto query_or = DecodeTemporal(request, graphs);
      if (!query_or.ok()) return Fail(query_or.status().ToString());
      CrashSimTOptions temporal_options;
      temporal_options.crashsim = options;
      CrashSimT temporal_engine(temporal_options);
      const TemporalAnswer result =
          temporal_engine.Answer(graphs.temporal->graph, *query_or);
      if (!result.complete()) return Fail(result.status.ToString());
      for (const NodeId v : result.nodes) {
        nodes.Append(
            JsonValue(graphs.temporal->original_ids[static_cast<size_t>(v)]));
      }
      answer.Set("nodes", std::move(nodes));
    }
    std::printf("%s\n", answer.Write().c_str());
  }
  return 0;
}

// --- trace ------------------------------------------------------------------

// Graph load + static Bind repetitions; their medians are the setup layers.
constexpr int kLoadReps = 3;
// Temporal requests whose first snapshot a probe re-binds, outside their
// spans, to measure the per-snapshot Bind that CrashSimT::Answer pays.
constexpr int kBindProbes = 8;

// One timed call. Spans of a request share `request`; `parent` is the id of
// the enclosing span within that request (-1 for a root).
struct Span {
  int64_t request = 0;
  int id = 0;
  int parent = -1;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Per-worker span buffer; spans stay in memory until the replay ends.
class SpanLog {
 public:
  // Runs fn() inside a span and returns its result.
  template <typename Fn>
  auto Record(int64_t request, int parent, const char* name, Fn&& fn) {
    const int id = next_id_++;
    const int64_t start = NowNanos();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      spans_.push_back({request, id, parent, name, start, NowNanos()});
    } else {
      auto result = fn();
      spans_.push_back({request, id, parent, name, start, NowNanos()});
      return result;
    }
  }
  // Span ids restart per request; the root span of a request gets id 0.
  void BeginRequest() { next_id_ = 0; }
  int NextId() const { return next_id_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int next_id_ = 0;
  std::vector<Span> spans_;
};

// Per-request outcome: the executor verdicts plus the QueryStats sink.
struct RequestResult {
  int64_t request = 0;
  std::string op;
  bool ok = false;
  bool degraded = false;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  QueryStats stats;
};

// The server's query path without the socket: the same executor, tree
// cache and engines, configured from the same flags. Responses are not
// assembled here; RunTrace times the writer on the server's own payloads.
class Replayer {
 public:
  Replayer(const Graphs* graphs, const CrashSimOptions& engine_options,
           const ExecutorOptions& executor_options, int64_t cache_bytes,
           CrashSim* engine)
      : graphs_(graphs),
        engine_options_(engine_options),
        engine_(engine),
        executor_(executor_options) {
    TreeCacheOptions cache_options;
    cache_options.capacity_bytes = cache_bytes;
    cache_options.c = engine_options.mc.c;
    cache_options.prune_threshold = engine_options.tree_prune_threshold;
    cache_ = std::make_unique<TreeCache>(&graphs->graph.graph, cache_options);
  }

  RequestResult Handle(int64_t request_id, const std::string& payload,
                       SpanLog* log) {
    RequestResult result;
    result.request = request_id;
    log->BeginRequest();
    log->Record(request_id, -1, "serve.request", [&] {
      auto parsed = log->Record(request_id, 0, "serve.json_parse",
                                [&] { return ParseJson(payload); });
      if (!parsed.ok()) return;
      result.op = parsed->GetString("op", "");
      if (result.op == "topk") {
        HandleTopK(*parsed, log, &result);
      } else if (result.op == "temporal") {
        HandleTemporal(*parsed, log, &result);
      }
    });
    return result;
  }

  const TreeCache& cache() const { return *cache_; }

 private:
  void HandleTopK(const JsonValue& request, SpanLog* log,
                  RequestResult* result) {
    const int64_t request_id = result->request;
    const auto it = graphs_->static_ids.find(request.GetInt("source", -1));
    if (it == graphs_->static_ids.end()) return;
    const NodeId source = it->second;
    QueryContext ctx;
    ctx.set_stats(&result->stats);
    ctx.set_request_id(static_cast<uint64_t>(request_id));
    QueryRequest query;
    query.ctx = &ctx;
    const int execute_id = log->NextId();
    query.run = [&](QueryContext* run_ctx) -> PartialResult {
      StatusOr<TreeCache::TreePtr> tree =
          log->Record(request_id, execute_id, "tree_cache.get_or_build", [&] {
            return cache_->GetOrBuild(source, engine_->LMax(),
                                      engine_options_.mode, run_ctx);
          });
      if (!tree.ok()) {
        PartialResult r;
        r.status = tree.status();
        return r;
      }
      std::vector<NodeId> all(
          static_cast<size_t>(graphs_->graph.graph.num_nodes()));
      std::iota(all.begin(), all.end(), 0);
      return log->Record(
          request_id, execute_id, "crashsim.partial_with_tree",
          [&] { return engine_->PartialWithTree(**tree, all, run_ctx); });
    };
    const QueryOutcome outcome =
        log->Record(request_id, 0, "executor.execute",
                    [&] { return executor_.Execute(query); });
    SetOutcome(outcome, result);
    if (outcome.result.scores.empty()) return;
    log->Record(request_id, 0, "topk.select", [&] {
      return SelectTopK(outcome.result.scores, source,
                        request.GetInt("k", 10));
    });
  }

  void HandleTemporal(const JsonValue& request, SpanLog* log,
                      RequestResult* result) {
    const int64_t request_id = result->request;
    auto query_or = DecodeTemporal(request, *graphs_);
    if (!query_or.ok()) return;
    const TemporalQuery& temporal_query = *query_or;
    QueryContext ctx;
    ctx.set_stats(&result->stats);
    ctx.set_request_id(static_cast<uint64_t>(request_id));
    CrashSimTOptions temporal_options;
    temporal_options.crashsim = engine_options_;
    TemporalAnswer answer;
    QueryRequest query;
    query.ctx = &ctx;
    const int execute_id = log->NextId();
    query.run = [&](QueryContext* run_ctx) -> PartialResult {
      answer = log->Record(request_id, execute_id, "crashsim_t.answer", [&] {
        CrashSimT engine(temporal_options);
        return engine.Answer(graphs_->temporal->graph, temporal_query, run_ctx);
      });
      PartialResult r;
      r.status = answer.status;
      return r;
    };
    const QueryOutcome outcome =
        log->Record(request_id, 0, "executor.execute",
                    [&] { return executor_.Execute(query); });
    SetOutcome(outcome, result);
  }

  static void SetOutcome(const QueryOutcome& outcome, RequestResult* result) {
    result->ok = outcome.admitted && outcome.result.status.ok();
    result->degraded = outcome.degraded;
    result->queue_ms = outcome.queue_wait_seconds * 1e3;
    result->run_ms = outcome.run_seconds * 1e3;
  }

  const Graphs* const graphs_;
  const CrashSimOptions engine_options_;
  CrashSim* const engine_;
  QueryExecutor executor_;
  std::unique_ptr<TreeCache> cache_;
};

JsonValue SpanJson(const Span& span, int64_t origin_ns) {
  JsonValue out = JsonValue::Object();
  out.Set("request", JsonValue(span.request));
  out.Set("id", JsonValue(static_cast<int64_t>(span.id)));
  out.Set("parent", JsonValue(static_cast<int64_t>(span.parent)));
  out.Set("name", JsonValue(std::string(span.name)));
  out.Set("start_ms", JsonValue(Millis(span.start_ns - origin_ns)));
  out.Set("dur_ms", JsonValue(Millis(span.end_ns - span.start_ns)));
  return out;
}

JsonValue ResultJson(const RequestResult& r) {
  const QueryStats& s = r.stats;
  JsonValue out = JsonValue::Object();
  out.Set("request", JsonValue(r.request));
  out.Set("op", JsonValue(r.op));
  out.Set("ok", JsonValue(r.ok));
  out.Set("degraded", JsonValue(r.degraded));
  out.Set("queue_ms", JsonValue(r.queue_ms));
  out.Set("run_ms", JsonValue(r.run_ms));
  out.Set("trials_run", JsonValue(s.trials_run));
  out.Set("trials_target", JsonValue(s.trials_target));
  out.Set("tree_builds", JsonValue(s.tree_builds));
  out.Set("tree_build_ms", JsonValue(s.tree_build_seconds * 1e3));
  out.Set("tree_bytes", JsonValue(s.tree_bytes));
  out.Set("walks_sampled", JsonValue(s.walks_sampled));
  out.Set("walk_steps", JsonValue(s.walk_steps));
  out.Set("tree_hits", JsonValue(s.tree_hits));
  out.Set("candidates_evaluated", JsonValue(s.candidates_evaluated));
  out.Set("cache_hits", JsonValue(s.cache_hits));
  out.Set("cache_misses", JsonValue(s.cache_misses));
  out.Set("cache_coalesced", JsonValue(s.cache_coalesced));
  out.Set("snapshots_processed",
          JsonValue(static_cast<int64_t>(s.snapshots_processed)));
  out.Set("source_tree_rebuilds",
          JsonValue(static_cast<int64_t>(s.source_tree_rebuilds)));
  out.Set("delta_prune_hits", JsonValue(s.delta_prune_hits));
  out.Set("difference_prune_hits", JsonValue(s.difference_prune_hits));
  out.Set("scores_computed", JsonValue(s.scores_computed));
  int64_t candidates = 0;
  for (const QueryStats::SnapshotStats& snap : s.snapshots) {
    candidates += snap.candidates;
  }
  out.Set("snapshot_candidates", JsonValue(candidates));
  return out;
}

int RunTrace(int argc, char** argv) {
  FlagSet flags;
  DefineEngineFlags(&flags);
  flags.DefineString("warmup", "", "requests replayed before measuring");
  flags.DefineString("responses", "",
                     "server response payloads, one per line, to time "
                     "JsonValue::Write on");
  flags.DefineString("out_dir", "", "where spans.jsonl and requests.jsonl go");
  flags.DefineIntInRange("connections", 1, 1, 64, "concurrent replay workers");
  flags.DefineDouble("seconds", 5.0, "measured replay duration");
  flags.DefineIntInRange("min_requests", 1, 1, 1 << 24,
                         "keep replaying past --seconds until this many");
  flags.DefineIntInRange("max_concurrent", 4, 1, 1024, "executor slots");
  flags.DefineIntInRange("max_queue", 16, 0, 1 << 20, "executor queue");
  flags.DefineDouble("degrade_at", 2.0, "executor degradation load factor");
  flags.DefineDouble("degrade_min_fraction", 0.25, "degraded trial floor");
  flags.DefineIntInRange("max_retries", 2, 0, 100, "executor retry budget");
  flags.DefineIntInRange("memory_budget_mb", 0, 0, 1 << 20,
                         "per-query memory budget in MiB (0 = unlimited)");
  flags.DefineIntInRange("cache_mb", 256, 0, 1 << 20,
                         "tree cache capacity in MiB (0 = unbounded)");
  if (!flags.Parse(argc, argv)) return 1;

  auto lines_or = ReadLines(flags.GetString("requests"));
  if (!lines_or.ok()) return Fail(lines_or.status().ToString());
  auto responses_or = ReadLines(flags.GetString("responses"));
  if (!responses_or.ok()) return Fail(responses_or.status().ToString());
  std::vector<std::string> warmup;
  if (!flags.GetString("warmup").empty()) {
    auto warmup_or = ReadLines(flags.GetString("warmup"));
    if (!warmup_or.ok()) return Fail(warmup_or.status().ToString());
    warmup = std::move(*warmup_or);
  }
  const CrashSimOptions engine_options = EngineOptions(flags);
  if (Status s = engine_options.Validate(); !s.ok()) return Fail(s.ToString());
  ExecutorOptions executor_options;
  executor_options.max_concurrent =
      static_cast<int>(flags.GetInt("max_concurrent"));
  executor_options.max_queue = static_cast<int>(flags.GetInt("max_queue"));
  executor_options.degrade_at = flags.GetDouble("degrade_at");
  executor_options.degrade_min_fraction =
      flags.GetDouble("degrade_min_fraction");
  executor_options.max_retries = static_cast<int>(flags.GetInt("max_retries"));
  executor_options.memory_budget_bytes =
      flags.GetInt("memory_budget_mb") * (1 << 20);
  if (Status s = executor_options.Validate(); !s.ok()) {
    return Fail(s.ToString());
  }

  // Setup layers: graph load and the static engine's Bind, repeated so the
  // medians are steady. The last repetition's graphs and engine serve.
  const int64_t origin = NowNanos();
  SpanLog setup_log;
  std::optional<Graphs> graphs;
  std::unique_ptr<CrashSim> engine;
  for (int rep = 0; rep < kLoadReps; ++rep) {
    graphs.reset();
    engine.reset();
    setup_log.BeginRequest();
    auto graphs_or = setup_log.Record(-1, -1, "graph.load",
                                      [&] { return LoadGraphs(flags); });
    if (!graphs_or.ok()) return Fail(graphs_or.status().ToString());
    graphs.emplace(std::move(*graphs_or));
    engine = std::make_unique<CrashSim>(engine_options);
    setup_log.Record(-1, -1, "crashsim.bind",
                     [&] { engine->Bind(&graphs->graph.graph); });
  }

  Replayer replayer(&*graphs, engine_options, executor_options,
                    flags.GetInt("cache_mb") * (1 << 20), engine.get());
  // Warm-up requests fill the tree cache like the server's warm-up does;
  // their spans are dropped, their QueryStats kept (phase "warmup").
  std::vector<RequestResult> warmup_results;
  {
    SpanLog discard;
    for (size_t i = 0; i < warmup.size(); ++i) {
      warmup_results.push_back(replayer.Handle(-static_cast<int64_t>(i) - 1,
                                               warmup[i], &discard));
      if (!warmup_results.back().ok) {
        return Fail("warm-up request failed: " + warmup[i]);
      }
    }
  }

  // Measured phase: closed loop, each worker takes the next request as soon
  // as its previous one returns, like one client connection.
  const std::vector<std::string>& requests = *lines_or;
  const int workers = static_cast<int>(flags.GetInt("connections"));
  const auto min_requests = static_cast<size_t>(flags.GetInt("min_requests"));
  std::atomic<size_t> next{0};
  std::vector<SpanLog> logs(static_cast<size_t>(workers));
  std::vector<std::vector<RequestResult>> results(static_cast<size_t>(workers));
  const int64_t start = NowNanos();
  const int64_t deadline =
      start + static_cast<int64_t>(flags.GetDouble("seconds") * 1e9);
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= requests.size()) return;
          if (i >= min_requests && NowNanos() >= deadline) return;
          results[static_cast<size_t>(w)].push_back(replayer.Handle(
              static_cast<int64_t>(i), requests[i],
              &logs[static_cast<size_t>(w)]));
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double measured_seconds = Millis(NowNanos() - start) / 1e3;

  // Per-snapshot Bind cost of the temporal requests: CrashSimT::Answer binds
  // every snapshot internally, so a probe re-binds each sampled request's
  // first snapshot outside the request's own spans.
  SpanLog probe_log;
  if (graphs->temporal.has_value()) {
    int probes = 0;
    for (size_t i = 0; i < requests.size() && i < next.load() &&
                       probes < kBindProbes;
         ++i) {
      auto parsed = ParseJson(requests[i]);
      if (!parsed.ok() || parsed->GetString("op", "") != "temporal") continue;
      const Graph snapshot = graphs->temporal->graph.Snapshot(
          static_cast<int>(parsed->GetInt("begin", 0)));
      CrashSim probe(engine_options);
      probe_log.BeginRequest();
      probe_log.Record(static_cast<int64_t>(i), -1, "crashsim.bind",
                       [&] { probe.Bind(&snapshot); });
      ++probes;
    }
  }

  // The response writer, timed on the bytes the server sent: each payload
  // is parsed outside the span and written inside it.
  SpanLog write_log;
  for (size_t i = 0; i < responses_or->size(); ++i) {
    auto response = ParseJson((*responses_or)[i]);
    if (!response.ok()) return Fail(response.status().ToString());
    write_log.BeginRequest();
    write_log.Record(static_cast<int64_t>(i), -1, "serve.json_write",
                     [&] { return response->Write(); });
  }

  const std::string out_dir = flags.GetString("out_dir");
  std::ofstream spans_out(out_dir + "/spans.jsonl");
  std::ofstream requests_out(out_dir + "/requests.jsonl");
  int64_t completed = 0;
  int64_t failed = 0;
  for (const auto& [log, phase] : {std::pair{&setup_log, "setup"},
                                    std::pair{&probe_log, "probe"},
                                    std::pair{&write_log, "write"}}) {
    for (const Span& span : log->spans()) {
      JsonValue line = SpanJson(span, origin);
      line.Set("phase", JsonValue(std::string(phase)));
      spans_out << line.Write() << "\n";
    }
  }
  for (const RequestResult& r : warmup_results) {
    JsonValue line = ResultJson(r);
    line.Set("phase", JsonValue(std::string("warmup")));
    requests_out << line.Write() << "\n";
  }
  for (size_t w = 0; w < logs.size(); ++w) {
    for (const Span& span : logs[w].spans()) {
      JsonValue line = SpanJson(span, origin);
      line.Set("phase", JsonValue(std::string("request")));
      spans_out << line.Write() << "\n";
    }
    for (const RequestResult& r : results[w]) {
      JsonValue line = ResultJson(r);
      line.Set("phase", JsonValue(std::string("measured")));
      requests_out << line.Write() << "\n";
      (r.ok && !r.degraded ? completed : failed) += 1;
    }
  }
  if (!spans_out || !requests_out) return Fail("cannot write " + out_dir);

  const TreeCache::Stats cache = replayer.cache().stats();
  JsonValue summary = JsonValue::Object();
  summary.Set("measured_seconds", JsonValue(measured_seconds));
  summary.Set("completed", JsonValue(completed));
  summary.Set("failed", JsonValue(failed));
  summary.Set("cache_hits", JsonValue(cache.hits));
  summary.Set("cache_misses", JsonValue(cache.misses));
  summary.Set("cache_coalesced", JsonValue(cache.coalesced));
  summary.Set("cache_evictions", JsonValue(cache.evictions));
  summary.Set("cache_bytes", JsonValue(cache.bytes));
  std::printf("%s\n", summary.Write().c_str());
  if (failed > 0) {
    return Fail(std::to_string(failed) + " replayed requests failed");
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: servebench_native <generate|reference|trace> [flags]\n");
  return 1;
}

}  // namespace
}  // namespace crashsim

int main(int argc, char** argv) {
  if (argc < 2) return crashsim::Usage();
  const std::string command = argv[1];
  if (command == "generate") return crashsim::RunGenerate(argc - 1, argv + 1);
  if (command == "reference") return crashsim::RunReference(argc - 1, argv + 1);
  if (command == "trace") return crashsim::RunTrace(argc - 1, argv + 1);
  return crashsim::Usage();
}
