#!/usr/bin/env python3
"""servebench: what a crashsim_serve client sees, end to end and per layer.

    python3 servebench/run.py --workload topk_hot --seed 1 --seconds 30 \
        --trace 0

Builds crashsim_serve and servebench_native from this checkout (into
.bench_build/), generates the pinned dataset, starts the real server with
every flag pinned, drives it in a closed loop from one process over the
framed-JSON protocol, checks every answer, and prints one JSON result as
the last line of stdout:

  --trace 0   end-to-end metrics (see workloads.END_TO_END);
  --trace 1   per-layer metrics (workloads.PER_LAYER): the same untraced
              server run, plus a traced in-process replay of the same
              requests through servebench_native.

Exit status is 0 only when the run completed and every check passed.
See servebench/README.md for the workloads and the metric definitions.
"""

import argparse
import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "servebench")
SERVER_WAIT_S = 60      # launch-to-listening ceiling
HARD_CAP_S = 120        # measured phase never runs longer than this
T0 = time.perf_counter()


class BenchError(Exception):
    """The run could not be completed (not a correctness verdict)."""


def log(message):
    print(f"servebench [{time.perf_counter() - T0:6.1f}s]: {message}",
          file=sys.stderr, flush=True)


# --- build ---------------------------------------------------------------

def run_logged(args, log_path):
    with open(log_path, "a") as out:
        proc = subprocess.run(args, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT)
    if proc.returncode != 0:
        with open(log_path) as f:
            tail = f.read()[-3000:]
        raise BenchError(f"{' '.join(args[:3])} failed:\n{tail}")


def build():
    """Configures (once) and builds the two binaries; returns their paths."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured from another checkout
                os.makedirs(BUILD_DIR)
    log_path = os.path.join(BUILD_DIR, "build.log")
    if not os.path.exists(cache):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"], log_path)
    run_logged(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                "--target", "crashsim_serve", "servebench_native"], log_path)
    return (os.path.join(BUILD_DIR, "crashsim_tools", "crashsim_serve"),
            os.path.join(BUILD_DIR, "servebench_native"))


def host_fingerprint():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$",
                         line)
            if m:
                cache[m.group(1)] = m.group(2)
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "compiler": version, "build_type": cache.get("CMAKE_BUILD_TYPE")}


# --- dataset -------------------------------------------------------------

def dataset(native):
    """Generates the pinned dataset once per checkout; returns its paths."""
    key = hashlib.sha256(json.dumps(wl.DATASET, sort_keys=True).encode() +
                         str(os.stat(native).st_mtime_ns).encode())
    data_dir = os.path.join(BUILD_ROOT, "data", key.hexdigest()[:16])
    paths = {n: os.path.join(data_dir, f) for n, f in
             (("graph", "static.el"), ("temporal", "temporal.tel"),
              ("index", "index.json"))}
    if not os.path.exists(paths["index"]):
        tmp = data_dir + f".tmp{os.getpid()}"
        os.makedirs(tmp, exist_ok=True)
        d = wl.DATASET
        args = [native, "generate", f"--dataset={d['dataset']}",
                f"--scale={d['scale']}", f"--snapshots={d['snapshots']}",
                f"--gen_seed={d['gen_seed']}",
                f"--undirected={str(d['undirected']).lower()}",
                f"--static_out={os.path.join(tmp, 'static.el')}",
                f"--temporal_out={os.path.join(tmp, 'temporal.tel')}",
                f"--index_out={os.path.join(tmp, 'index.json')}"]
        proc = subprocess.run(args, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"dataset generation failed: {proc.stderr}")
        if os.path.exists(data_dir):
            shutil.rmtree(tmp)
        else:
            os.rename(tmp, data_dir)
    with open(paths["index"]) as f:
        index = json.load(f)
    return paths, index


def flag_args(flags):
    out = []
    for name, value in flags.items():
        if isinstance(value, bool):
            value = str(value).lower()
        out.append(f"--{name}={value}")
    return out


ENGINE_FLAGS = ("c", "epsilon", "delta", "trials", "seed", "paper_mode",
                "threads", "batch_size")
SERVING_FLAGS = ("max_concurrent", "max_queue", "degrade_at",
                  "degrade_min_fraction", "max_retries", "memory_budget_mb",
                  "cache_mb")


# --- server --------------------------------------------------------------

class Server:
    """One crashsim_serve process; started in the constructor."""

    def __init__(self, binary, args, run_dir):
        self.stderr = open(os.path.join(run_dir, "server.stderr"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                                     stderr=self.stderr, cwd=run_dir)
        line = b""
        deadline = start + SERVER_WAIT_S
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(left, 0))
            if not ready:
                self.stop()
                raise BenchError("server did not start listening in time")
            chunk = os.read(self.proc.stdout.fileno(), 1)
            if not chunk:
                self.stop()
                raise BenchError("server exited during setup; see "
                                 "server.stderr in the run directory")
            line += chunk
        self.setup_s = time.perf_counter() - start
        m = re.match(rb"listening port=(\d+) metrics_port=(\d+)", line)
        if not m:
            self.stop()
            raise BenchError(f"unexpected server banner {line!r}")
        self.port, self.metrics_port = int(m.group(1)), int(m.group(2))

    def cpu_seconds(self):
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def rss_peak_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def scrape(self):
        """Counters and gauges of GET /metrics, by registry name."""
        with socket.create_connection(("127.0.0.1", self.metrics_port),
                                      timeout=30) as s:
            s.sendall(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
            data = b""
            while True:
                chunk = s.recv(65536)
                if not chunk:
                    break
                data += chunk
        body = data.split(b"\r\n\r\n", 1)[1].decode()
        values = {}
        for line in body.splitlines():
            if line.startswith("#") or not line.strip() or "{" in line:
                continue
            name, value = line.rsplit(" ", 1)
            if name.startswith("crashsim_"):
                values[name[len("crashsim_"):]] = float(value)
        return values

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


def connect(port):
    s = socket.create_connection(("127.0.0.1", port), timeout=120)
    s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return s


def recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise BenchError("server closed the connection")
        buf += chunk
    return bytes(buf)


def call(sock, request):
    """One framed request/response round trip; returns the raw payload."""
    payload = json.dumps(request, separators=(",", ":")).encode()
    sock.sendall(struct.pack(">I", len(payload)) + payload)
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    return recv_exact(sock, length)


def drive(port, requests, connections, seconds, min_n):
    """Closed loop: each connection sends its next request once the previous
    answer arrived. Stops taking requests after `seconds` once `min_n` have
    completed (or the stream ends). Returns (samples, start, end)."""
    lock = threading.Lock()
    stream = iter(requests)
    samples = []
    errors = []
    start = time.perf_counter()
    deadline, hard_deadline = start + seconds, start + HARD_CAP_S

    def worker():
        try:
            with connect(port) as sock:
                while True:
                    with lock:
                        now = time.perf_counter()
                        if now >= hard_deadline or (
                                now >= deadline and len(samples) >= min_n):
                            return
                        request = next(stream, None)
                    if request is None:
                        return
                    t0 = time.perf_counter()
                    raw = call(sock, request)
                    t1 = time.perf_counter()
                    with lock:
                        samples.append((request, raw, (t1 - t0) * 1e3, t1))
        except (OSError, BenchError) as e:
            errors.append(str(e))

    workers = [threading.Thread(target=worker) for _ in range(connections)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    if errors:
        raise BenchError(f"load generator: {errors[0]}")
    end = max(s[3] for s in samples) if samples else start
    return samples, start, end


# --- correctness ---------------------------------------------------------

def check_response(request, response, trials):
    """Problems with one answer, as a list of strings (empty when fine)."""
    problems = []
    if response.get("status") != "OK":
        return [f"status {response.get('status')}: {response.get('message')}"]
    if response.get("source") != request["source"]:
        problems.append("source not echoed")
    if request["op"] == "topk":
        if response.get("degraded") is not False:
            problems.append("degraded answer")
        if not (response.get("trials_done") == response.get("trials_target")
                == trials):
            problems.append(f"trials {response.get('trials_done')}/"
                            f"{response.get('trials_target')} != {trials}")
        if response.get("k") != request["k"] or \
                len(response.get("nodes", [])) != request["k"]:
            problems.append("wrong k")
    else:
        # CrashSim-T stops early once no candidate is left; OK means the
        # answer covers the whole window either way.
        window = request["end"] - request["begin"] + 1
        if not 1 <= response.get("snapshots_processed", 0) <= window:
            problems.append(f"snapshots {response.get('snapshots_processed')}"
                            f" outside [1, {window}]")
    return problems


def reference_answers(native, graph_args, flags, requests, run_dir):
    path = os.path.join(run_dir, "verify.jsonl")
    with open(path, "w") as f:
        for r in requests:
            f.write(json.dumps(r) + "\n")
    args = ([native, "reference", f"--requests={path}"] + graph_args +
            flag_args({k: flags[k] for k in ENGINE_FLAGS}))
    proc = subprocess.run(args, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"reference run failed: {proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines()]


def verify_sample(name, seed, native, graph_args, flags, samples, run_dir):
    """Bit-identity of a seeded sample of answers against in-process
    CrashSim / CrashSimT. Returns (mismatch descriptions, requests that
    mismatched)."""
    rng = random.Random(f"verify:{name}:{seed}")
    pool = sorted(samples, key=lambda p: p[0]["id"])
    chosen = rng.sample(pool, min(wl.WORKLOADS[name]["verify"], len(pool)))
    answers = reference_answers(native, graph_args, flags,
                                [r for r, _ in chosen], run_dir)
    problems = []
    wrong = 0
    for (request, response), answer in zip(chosen, answers):
        keys = ["nodes", "scores"] if request["op"] == "topk" else ["nodes"]
        differ = [k for k in keys if response.get(k) != answer.get(k)]
        if differ:
            wrong += 1
            problems.append(f"request {request['id']}: {', '.join(differ)} "
                            f"differ from the in-process engine")
    if len(answers) != len(chosen):
        problems.append("reference answered fewer requests than asked")
    return problems, wrong


def check_ledger(before, after, sent):
    """The executor ledger must balance and show no shed or degraded work."""
    d = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    ex = {k: d.get(f"executor_{k}_total", 0) for k in (
        "submitted", "admitted", "completed", "failed", "shed_queue_full",
        "shed_deadline", "expired_in_queue", "cancelled_in_queue",
        "degraded")}
    problems = []
    outcomes = (ex["completed"] + ex["failed"] + ex["shed_queue_full"] +
                ex["shed_deadline"] + ex["expired_in_queue"] +
                ex["cancelled_in_queue"])
    if ex["submitted"] != outcomes:
        problems.append(f"executor ledger does not balance: submitted "
                        f"{ex['submitted']} vs outcomes {outcomes}")
    if ex["submitted"] != sent:
        problems.append(f"executor saw {ex['submitted']} of {sent} requests")
    if ex["shed_queue_full"] + ex["shed_deadline"] or ex["degraded"]:
        problems.append("executor shed or degraded requests")
    return problems, d


# --- metrics -------------------------------------------------------------

def stage_sum(stages):
    return (stages["queue_ms"] + stages["cache_ms"] + stages["walk_ms"] +
            stages["serialize_ms"])


def tail(values, what):
    value = wl.tail_percentile(values)
    if value is None:
        raise BenchError(f"{what}: {len(values)} samples are too few for "
                         f"p{int(wl.TAIL_QUANTILE * 100)}")
    return value


def server_layer_metrics(answers, delta, after, attempted):
    """Layer metrics of the untraced run. Counts are per answer (or per
    request attempted), so they do not grow with throughput or run length."""
    stages = [r["stages"] for _, r, _ in answers]
    ok = max(len(answers), 1)
    hits = delta.get("cache_hits_total", 0)
    lookups = (hits + delta.get("cache_misses_total", 0) +
               delta.get("cache_coalesced_total", 0))
    return {
        "serve.unattributed_ms.p50": wl.median(
            [ms - stage_sum(r["stages"]) for _, r, ms in answers]),
        "serve.serialize_ms.p50": wl.median(
            [s["serialize_ms"] for s in stages]),
        "serve.response_bytes": wl.median(
            [r["_bytes"] for _, r, _ in answers]),
        "executor.queue_ms.p50": wl.median([s["queue_ms"] for s in stages]),
        "executor.queue_ms.p95": tail([s["queue_ms"] for s in stages],
                                      "executor.queue_ms"),
        "executor.run_ms.p50": wl.median([r["run_ms"] for _, r, _ in answers]),
        "executor.admitted_frac": (
            delta.get("executor_admitted_total", 0) / attempted),
        "executor.shed_frac": (
            (delta.get("executor_shed_queue_full_total", 0) +
             delta.get("executor_shed_deadline_total", 0)) / attempted),
        "executor.degraded_frac": (
            delta.get("executor_degraded_total", 0) / attempted),
        "tree_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "tree_cache.cache_ms.p50": wl.median([s["cache_ms"] for s in stages]),
        "tree_cache.misses_per_query": delta.get("cache_misses_total", 0) / ok,
        "tree_cache.coalesced_per_query": (
            delta.get("cache_coalesced_total", 0) / ok),
        "tree_cache.evictions_per_query": (
            delta.get("cache_evictions_total", 0) / ok),
        "tree_cache.resident_mb": after.get("cache_bytes", 0) / 2 ** 20,
        "parallel.shards_per_query": (
            delta.get("parallel_shards_total", 0) / ok),
        "parallel.inline_calls_per_query": (
            delta.get("parallel_inline_calls_total", 0) / ok),
    }


def traced_layer_metrics(trace_dir, untraced_stage_mean):
    with open(os.path.join(trace_dir, "spans.jsonl")) as f:
        spans = [json.loads(line) for line in f]
    with open(os.path.join(trace_dir, "requests.jsonl")) as f:
        records = [json.loads(line) for line in f]
    measured = [r for r in records if r["phase"] == "measured"]
    if not measured:
        raise BenchError("traced replay completed no requests")
    if any(not r["ok"] or r["degraded"] for r in records):
        raise BenchError("traced replay had a failed or degraded request")

    def durations(name, phase="request"):
        return [s["dur_ms"] for s in spans
                if s["name"] == name and s["phase"] == phase]

    def mean(key):
        return sum(r[key] for r in measured) / len(measured)

    built = [r for r in records if r["tree_builds"] > 0]
    bind_ms = wl.median(durations("crashsim.bind", "probe"))
    walk_spans = {s["request"]: s["dur_ms"] for s in spans
                  if s["name"] == "crashsim.partial_with_tree"}
    answer_spans = {s["request"]: s["dur_ms"] for s in spans
                    if s["name"] == "crashsim_t.answer"}
    walk_ms = []
    for r in measured:
        if r["request"] in walk_spans:
            walk_ms.append(walk_spans[r["request"]])
        elif r["request"] in answer_spans:
            # CrashSimT::Answer binds and builds trees internally; its walk
            # time is what remains after the tree builds it reports and one
            # probed Bind per processed snapshot.
            walk_ms.append(max(0.0, answer_spans[r["request"]] -
                               r["tree_build_ms"] -
                               r["snapshots_processed"] * bind_ms))
    steps = sum(r["walk_steps"] for r in measured)
    totals = durations("serve.request")
    return {
        "serve.json_parse_us": wl.median(durations("serve.json_parse")) * 1e3,
        "serve.json_write_us": wl.median(
            durations("serve.json_write", "write")) * 1e3,
        "rev_reach.build_ms.p50": wl.median(
            [r["tree_build_ms"] / r["tree_builds"] for r in built]),
        "rev_reach.tree_kb": wl.median(
            [r["tree_bytes"] / 1024.0 for r in built]),
        "rev_reach.builds_per_query": mean("tree_builds"),
        "crashsim.walk_ms.p50": wl.median(walk_ms),
        "crashsim.walks_per_query": mean("walks_sampled"),
        "crashsim.walk_steps_per_query": mean("walk_steps"),
        "crashsim.tree_hits_per_query": mean("tree_hits"),
        "crashsim.ns_per_walk_step": (sum(walk_ms) * 1e6 / steps
                                      if steps else 0.0),
        "crashsim.bind_ms.p50": bind_ms,
        "crashsim.setup_bind_ms": wl.median(
            durations("crashsim.bind", "setup")),
        "topk.select_us.p50": wl.median(durations("topk.select")) * 1e3,
        "crashsim_t.answer_ms.p50": wl.median(list(answer_spans.values())),
        "crashsim_t.snapshots_per_query": mean("snapshots_processed"),
        "crashsim_t.candidates_per_query": mean("snapshot_candidates"),
        "crashsim_t.source_tree_rebuilds_per_query": mean(
            "source_tree_rebuilds"),
        "crashsim_t.delta_prune_hits_per_query": mean("delta_prune_hits"),
        "crashsim_t.difference_prune_hits_per_query": mean(
            "difference_prune_hits"),
        "graph.load_s": wl.median(durations("graph.load", "setup")) / 1e3,
        "trace.overhead_frac": (sum(totals) / len(totals)) /
                               untraced_stage_mean - 1.0,
    }


# --- one run -------------------------------------------------------------

def run(name, seed, seconds, trace, run_dir):
    serve_bin, native = build()
    log("built")
    paths, index = dataset(native)
    spec = wl.WORKLOADS[name]
    flags = wl.server_flags(name)
    undirected = wl.DATASET["undirected"]
    graph_args = [f"--graph={paths['graph']}",
                  f"--undirected={str(undirected).lower()}"]
    if spec["temporal"]:
        graph_args.append(f"--temporal={paths['temporal']}")
    server_args = (graph_args + ["--port=0", "--metrics_port=0",
                                 "--event_log=events.jsonl"] +
                   flag_args(flags))
    warmup, stream = wl.make_requests(name, index, seed)
    min_n = wl.min_samples()

    # Setup: launch the server repeatedly; the last one serves.
    setups = []
    for _ in range(spec["setup_reps"]):
        if setups:
            server.stop()
        server = Server(serve_bin, server_args, run_dir)
        setups.append(server.setup_s)
    log(f"setup: {setups}")
    try:
        warm = drive(server.port, warmup, spec["connections"], HARD_CAP_S,
                     len(warmup))[0]
        if any(json.loads(raw).get("status") != "OK" for _, raw, _, _ in warm):
            raise BenchError("a warm-up request failed")
        before = server.scrape()
        cpu_before = server.cpu_seconds()
        samples, start, end = drive(server.port, stream, spec["connections"],
                                    seconds, min_n)
        cpu_s = server.cpu_seconds() - cpu_before
        after = server.scrape()
        rss_mb = server.rss_peak_mb()
    finally:
        server.stop()
    log(f"measured {len(samples)} requests in {end - start:.1f}s")

    problems = []
    answers = []
    payloads = []  # the server's raw bytes of each good answer
    for request, raw, ms in ((r, raw, ms) for r, raw, ms, _ in samples):
        response = json.loads(raw)
        response["_bytes"] = len(raw)
        issues = check_response(request, response, flags["trials"])
        problems.extend(f"request {request['id']}: {p}" for p in issues)
        if not issues:
            answers.append((request, response, ms))
            payloads.append(raw)
    ledger_problems, delta = check_ledger(before, after, len(samples))
    problems.extend(ledger_problems)
    wrong = 0
    if answers:
        sample_problems, wrong = verify_sample(
            name, seed, native, graph_args, flags,
            [(q, r) for q, r, _ in answers], run_dir)
        problems.extend(sample_problems)
    log("verified")
    attempted, ok = len(samples), len(answers)
    failed = attempted - ok + wrong

    if trace:
        metrics = server_layer_metrics(answers, delta, after,
                                       max(attempted, 1))
        trace_dir = os.path.join(run_dir, "trace")
        os.makedirs(trace_dir)
        files = {}
        for label, reqs in (("stream", stream), ("warmup", warmup)):
            files[label] = os.path.join(run_dir, f"{label}.jsonl")
            with open(files[label], "w") as f:
                for r in reqs:
                    f.write(json.dumps(r, separators=(",", ":")) + "\n")
        files["responses"] = os.path.join(run_dir, "responses.jsonl")
        with open(files["responses"], "wb") as f:
            f.write(b"".join(raw + b"\n" for raw in payloads))
        args = ([native, "trace", f"--requests={files['stream']}",
                 f"--warmup={files['warmup']}", f"--out_dir={trace_dir}",
                 f"--responses={files['responses']}",
                 f"--connections={spec['connections']}",
                 f"--seconds={seconds}", f"--min_requests={min_n}"] +
                graph_args +
                flag_args({k: flags[k] for k in ENGINE_FLAGS + SERVING_FLAGS}))
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=HARD_CAP_S + 60)
        if proc.returncode != 0:
            raise BenchError(f"traced replay failed: {proc.stderr[-2000:]}")
        stage_mean = (sum(stage_sum(r["stages"]) for _, r, _ in answers) /
                      max(ok, 1))
        metrics.update(traced_layer_metrics(trace_dir, stage_mean))
        catalog = wl.PER_LAYER
    else:
        latencies = [ms for _, _, ms in answers]
        metrics = {
            "throughput_rps": ok / (end - start),
            "latency_p50_ms": wl.median(latencies),
            "latency_p95_ms": tail(latencies, "latency"),
            "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
            "setup_s": wl.median(setups),
            "server_cpu_ms_per_req": cpu_s * 1e3 / max(ok, 1),
            "server_rss_peak_mb": rss_mb,
        }
        catalog = wl.END_TO_END
    result = {
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in catalog},
    }
    info = {"host": host_fingerprint(), "workload": name, "seed": seed,
            "dataset": {k: index[k] for k in ("nodes", "edges", "snapshots")},
            "server_flags": flags}
    return result, problems, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The run directory (server logs, request files, spans) is kept only
    # when the run fails, for diagnosis.
    run_dir = os.path.join(BUILD_ROOT, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        os.makedirs(run_dir)
        result, problems, info = run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), run_dir)
    except BenchError as e:
        log(f"error: {e}; run directory kept: {run_dir}")
        return 1
    for p in problems[:20]:
        log(f"check failed: {p}")
    if result["correct"]:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        log(f"run directory kept: {run_dir}")
    print(json.dumps(info))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
