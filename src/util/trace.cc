#include "util/trace.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace crashsim {
namespace {

// Collector overflow, exported as crashsim_trace_dropped_events_total so
// silent truncation is visible on /metrics.
Counter& TraceDropCounter() {
  static Counter& c =
      MetricsRegistry::Global().counter("trace.dropped_events");
  return c;
}

// Small process-unique id of the calling thread, drawn on its first
// recorded event. Nothing else is kept per thread.
uint32_t TraceThreadId() {
  static std::atomic<uint32_t> next_tid{0};
  thread_local const uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

namespace trace_internal {

thread_local constinit RequestTrace* g_request_trace = nullptr;

}  // namespace trace_internal

void RequestTrace::Append(const char* name, TraceEvent::Phase phase,
                          uint64_t flow_id) {
  // Claim-then-write: claims are ordered per thread, so the slots filtered
  // by tid reconstruct each thread's bracketed sequence. Publication to the
  // reader is external (the quiesce contract in the header), so relaxed
  // claim ordering suffices.
  const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
  if (i >= capacity_) {
    TraceDropCounter().Add(1);
    return;
  }
  events_[i] = {name, SteadyNowNanos(), flow_id, TraceThreadId(), phase};
}

std::map<uint32_t, std::vector<TraceEvent>> TraceEventsByThread(
    const RequestTrace& trace) {
  std::map<uint32_t, std::vector<TraceEvent>> by_tid;
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace.event(i);
    by_tid[e.tid].push_back(e);
  }
  return by_tid;
}

namespace {

// Walks one thread's events, calling span(name, begin_ns, end_ns, depth,
// child_ns) for every span in close order. Orphan end events are skipped;
// spans still open at the end of the sequence (the collector filled up, or
// the export ran inside an open span) are closed at the thread's last
// timestamp, so every begin yields exactly one span.
template <typename SpanFn>
void WalkSpans(const std::vector<TraceEvent>& events, SpanFn&& span) {
  struct Open {
    const char* name;
    int64_t begin_ns;
    int64_t child_ns = 0;
  };
  std::vector<Open> stack;
  int64_t last_ts = 0;
  for (const TraceEvent& e : events) {
    last_ts = std::max(last_ts, e.ts_ns);
    if (e.phase == TraceEvent::Phase::kBegin) {
      stack.push_back({e.name, e.ts_ns});
    } else if (e.phase == TraceEvent::Phase::kEnd) {
      if (stack.empty()) continue;  // orphan end
      const Open top = stack.back();
      stack.pop_back();
      const int64_t dur = e.ts_ns - top.begin_ns;
      if (!stack.empty()) stack.back().child_ns += dur;
      span(top.name, top.begin_ns, e.ts_ns, stack.size(), top.child_ns);
    }
  }
  while (!stack.empty()) {
    const Open top = stack.back();
    stack.pop_back();
    const int64_t dur = last_ts - top.begin_ns;
    if (!stack.empty()) stack.back().child_ns += dur;
    span(top.name, top.begin_ns, last_ts, stack.size(), top.child_ns);
  }
}

std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

// One Chrome trace-event object. ts/dur are microseconds with nanosecond
// precision (the format takes doubles).
void AppendChromeEvent(std::string* out, bool* first, const char* name,
                       const char* phase, uint32_t tid, int64_t ts_ns,
                       int64_t epoch_ns, const char* extra) {
  if (!*first) *out += ",\n";
  *first = false;
  *out += StrFormat(
      "  {\"name\": \"%s\", \"cat\": \"crashsim\", \"ph\": \"%s\", "
      "\"pid\": 1, \"tid\": %u, \"ts\": %.3f%s}",
      JsonEscape(name).c_str(), phase, tid,
      static_cast<double>(ts_ns - epoch_ns) / 1e3, extra);
}

}  // namespace

uint64_t NewTraceFlowId() {
  static std::atomic<uint64_t> next_flow_id{1};
  return next_flow_id.fetch_add(1, std::memory_order_relaxed);
}

void TraceFlowOut(uint64_t flow_id) {
  RequestTrace* const trace = trace_internal::g_request_trace;
  if (trace != nullptr && flow_id != 0) {
    trace->Append("flow", TraceEvent::Phase::kFlowOut, flow_id);
  }
}

void TraceFlowIn(uint64_t flow_id) {
  RequestTrace* const trace = trace_internal::g_request_trace;
  if (trace != nullptr && flow_id != 0) {
    trace->Append("flow", TraceEvent::Phase::kFlowIn, flow_id);
  }
}

std::string ExportChromeTrace(const RequestTrace& trace) {
  // Relative timestamps: microsecond offsets from the first recorded event.
  int64_t epoch_ns = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i == 0 || trace.event(i).ts_ns < epoch_ns) {
      epoch_ns = trace.event(i).ts_ns;
    }
  }

  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  for (const auto& [tid, events] : TraceEventsByThread(trace)) {
    // Duration events, re-bracketed by the walker so unmatched begins are
    // closed and orphan ends vanish: Perfetto rejects unbalanced B/E.
    std::vector<std::pair<int64_t, std::string>> spans;  // (ts, rendered B/E)
    WalkSpans(events,
              [&](const char* name, int64_t begin_ns, int64_t end_ns,
                  size_t /*depth*/, int64_t /*child_ns*/) {
                std::string b;
                bool bf = true;
                AppendChromeEvent(&b, &bf, name, "B", tid, begin_ns,
                                  epoch_ns, "");
                spans.push_back({begin_ns, std::move(b)});
                std::string e;
                bool ef = true;
                AppendChromeEvent(&e, &ef, name, "E", tid, end_ns, epoch_ns,
                                  "");
                spans.push_back({end_ns, std::move(e)});
              });
    // WalkSpans emits in close order; B events must precede nested E events
    // with equal timestamps, so sort stably by timestamp.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (auto& [ts, rendered] : spans) {
      if (!first) out += ",\n";
      first = false;
      out += rendered;
    }
    for (const TraceEvent& e : events) {
      if (e.phase == TraceEvent::Phase::kFlowOut) {
        AppendChromeEvent(&out, &first, e.name, "s", tid, e.ts_ns, epoch_ns,
                          StrFormat(", \"id\": %llu",
                                    static_cast<unsigned long long>(e.flow_id))
                              .c_str());
      } else if (e.phase == TraceEvent::Phase::kFlowIn) {
        AppendChromeEvent(&out, &first, e.name, "f", tid, e.ts_ns, epoch_ns,
                          StrFormat(", \"bp\": \"e\", \"id\": %llu",
                                    static_cast<unsigned long long>(e.flow_id))
                              .c_str());
      }
    }
  }
  out += "\n]}\n";
  return out;
}

std::vector<TraceAggregateRow> AggregateTrace(const RequestTrace& trace) {
  std::map<std::string, TraceAggregateRow> by_name;
  for (const auto& [tid, events] : TraceEventsByThread(trace)) {
    WalkSpans(events, [&](const char* name, int64_t begin_ns,
                            int64_t end_ns, size_t /*depth*/,
                            int64_t child_ns) {
      TraceAggregateRow& row = by_name[name];
      if (row.name.empty()) row.name = name;
      ++row.count;
      const int64_t dur = end_ns - begin_ns;
      row.total_ns += dur;
      row.self_ns += dur - child_ns;
    });
  }
  std::vector<TraceAggregateRow> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(),
            [](const TraceAggregateRow& a, const TraceAggregateRow& b) {
              return a.self_ns > b.self_ns;
            });
  return rows;
}

std::string ExportTraceAggregateTable(const RequestTrace& trace) {
  const std::vector<TraceAggregateRow> rows = AggregateTrace(trace);
  std::string out = StrFormat("%-32s %8s %12s %12s\n", "span", "count",
                              "total_ms", "self_ms");
  for (const TraceAggregateRow& row : rows) {
    out += StrFormat("%-32s %8lld %12.3f %12.3f\n", row.name.c_str(),
                     static_cast<long long>(row.count),
                     static_cast<double>(row.total_ns) / 1e6,
                     static_cast<double>(row.self_ns) / 1e6);
  }
  if (trace.dropped() > 0) {
    out += StrFormat("(%lld event(s) dropped: buffer full)\n",
                     static_cast<long long>(trace.dropped()));
  }
  return out;
}

}  // namespace crashsim
