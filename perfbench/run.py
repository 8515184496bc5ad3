#!/usr/bin/env python3
"""The repository benchmark: drives the real `cqc` binary on seeded inputs,
checks every answer against an oracle that never calls the solver, and
prints the metrics by name with their units.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds `cqc` (and, for --trace 1, the
in-process replay in perfbench/tracer) from source under .bench_build/, and
keeps its inputs and scratch files under .bench_run/.  The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones,
with the names and units BENCHMARK.json lists (perfbench/layers.json says
which end-to-end metric each layer should move).
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import corpus  # noqa: E402
import serve_client  # noqa: E402

WORKLOADS = ("serve-cached", "solve-portfolio", "count-enumerate")
BUILD_DIR = os.path.join(".bench_build", "dune")
RUN_ROOT = ".bench_run"
SETUP_REPEATS = 61
# One client connection: with more requests in flight than the host has
# cores, the daemon's forked workers and the client contend for them and
# the loop measures the scheduler.
CONNECTIONS = 1


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(trace):
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "cqc.ml"))):
        fail("run from the repository root: dune-project or bin/cqc.ml is missing")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    targets = ["./bin/cqc.exe"] + (["./perfbench/tracer/trace.exe"] if trace else [])
    os.makedirs(".bench_build", exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR), "--profile", "bench",
         "--display", "quiet", *targets],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed", 3)
    exe = lambda rel: os.path.abspath(os.path.join(BUILD_DIR, "default", rel))  # noqa: E731
    return exe("bin/cqc.exe"), exe("perfbench/tracer/trace.exe")


# --------------------------------------------------------------------------
# Statistics


TAIL_LADDER = (99.0, 90.0, 50.0)


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[min(len(sorted_values), int(rank)) - 1]


def tail(latencies):
    """The highest percentile of the ladder with at least ten samples
    beyond it: (percentile, value)."""
    xs = sorted(latencies)
    for q in TAIL_LADDER:
        if len(xs) * (100.0 - q) / 100.0 >= 10:
            return q, percentile(xs, q)
    return 50.0, percentile(xs, 50.0)


class Tally:
    """Per-operation outcomes of one measured run."""

    def __init__(self):
        self.latencies = []  # seconds, completed operations only
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.answers = 0
        self.problems = []
        self.sigterm_resent = 0

    def record(self, latency, ok, wrong=False, answers=0, problem=None):
        self.attempted += 1
        if ok:
            self.latencies.append(latency)
            self.answers += answers
        else:
            self.failed += 1
            self.wrong += wrong
            if problem and len(self.problems) < 5:
                self.problems.append(problem)


# --------------------------------------------------------------------------
# Inputs


def interleave(cases, seed):
    """A well-mixed replay order: each family's instances are spread evenly
    over the cycle, so any stretch of it has about the corpus's mix."""
    rng = random.Random(seed ^ 0x5EED)
    families = {}
    for c in cases:
        families.setdefault(c.get("family", c["op"]), []).append(c)
    keyed = []
    for members in families.values():
        rng.shuffle(members)
        offset = rng.random()
        for i, c in enumerate(members):
            keyed.append(((i + offset) / len(members), rng.random(), c))
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [c for _, _, c in keyed]


def write_inputs(run_dir, cases):
    """Write each distinct structure once; cases get file paths."""
    paths = {}
    os.makedirs(os.path.join(run_dir, "inputs"), exist_ok=True)
    for c in cases:
        for side in ("a", "b"):
            s = c.get(side)
            if s is None:
                continue
            text = s.text()
            path = paths.get(text)
            if path is None:
                path = os.path.join("inputs", f"s{len(paths)}.st")
                with open(os.path.join(run_dir, path), "w") as f:
                    f.write(text)
                paths[text] = path
            c[side + "_path"] = path


def generate(workload, seed, scale, run_dir):
    cases = {
        "serve-cached": corpus.serve_cached,
        "solve-portfolio": corpus.solve_portfolio,
        "count-enumerate": corpus.count_enumerate,
    }[workload](seed, scale)
    for c in cases:
        if "a" in c:
            c["check"] = corpus.hom_checker(c["a"], c["b"])
    if workload == "serve-cached":
        for c in cases:
            c["body"] = serve_client.body(c)
    else:
        cases = interleave(cases, seed)
        write_inputs(run_dir, cases)
    return cases


# --------------------------------------------------------------------------
# One-shot CLI invocations


def cli_args(cqc, c):
    if c["op"] == "solve":
        return [cqc, "solve", "--certify", c["a_path"], c["b_path"]]
    if c["op"] == "contain":
        return [cqc, "contain", "--certify", c["q1"], c["q2"]]
    if c["op"] == "count":
        return [cqc, "count", c["a_path"], c["b_path"]]
    return [cqc, "enumerate", "--format", "jsonl", c["a_path"], c["b_path"]]


def check_decision(c, out):
    """(ok, answers, problem) for a solve or contain invocation's stdout."""
    if c["op"] == "contain":
        first = out.split("\n", 1)[0]
        if not first.startswith("Q1 <= Q2: "):
            return False, 0, "unparsable contain output"
        got = first.split()[3] == "true"
        return got == c["expect"], int(got), f"contain said {got}"
    witness = None
    sat = None
    for line in out.splitlines():
        if line.startswith("homomorphism: "):
            sat = True
            witness = [int(x) for x in line[len("homomorphism: "):].strip("()").split(",") if x.strip()]
        elif line.startswith("no homomorphism"):
            sat = False
    if sat is None:
        return False, 0, "no verdict in solve output"
    if sat != c["expect"]:
        return False, 0, f"{c['family']}: solver said {sat}, oracle {c['expect']}"
    if sat and not c["check"](witness):
        return False, 0, f"{c['family']}: witness is not a homomorphism"
    return True, int(sat), None


class Drain:
    """Streams `cqc enumerate --format jsonl` output, keeping every line to
    check that the answers are distinct, and fully checking the first
    answer of each chunk read."""

    def __init__(self, c):
        self.c = c
        self.lines = 0
        self.seen = set()
        self.tail = b""
        self.last = b""
        self.bad = 0

    def feed(self, chunk):
        data = self.tail + chunk
        cut = data.rfind(b"\n") + 1
        whole, self.tail = data[:cut], data[cut:]
        if whole:
            lines = whole.split(b"\n")
            lines.pop()
            self.lines += len(lines)
            self.seen.update(lines)
            if lines[0].startswith(b'{"hom"') and not self.c["check"](json.loads(lines[0])["hom"]):
                self.bad += 1
            self.last = lines[-1]

    def verdict(self):
        try:
            done = json.loads(self.last)
        except ValueError:
            return False, 0, "no summary frame"
        answers = self.lines - 1
        distinct = len(self.seen) - 1
        expect = self.c["expect"]
        if (self.bad or not done.get("done") or done.get("count") != expect or answers != expect
                or distinct != expect):
            return False, 0, f"{self.c['family']}: streamed {answers} ({distinct} distinct), oracle {expect}"
        return True, answers, None


def invoke(cqc, c, run_dir):
    """Run one invocation to completion; returns (latency, ok, wrong,
    answers, problem, rusage)."""
    drain = Drain(c) if c["op"] == "enumerate" else None
    out = []
    t0 = time.perf_counter()
    proc = subprocess.Popen(cli_args(cqc, c), cwd=run_dir, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    fd = proc.stdout.fileno()
    while True:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        if drain:
            drain.feed(chunk)
        else:
            out.append(chunk)
    err = proc.stderr.read()
    _, status, ru = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0:
        msg = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
        return latency, False, False, 0, f"exit {proc.returncode}: {msg[0]}", ru
    if drain:
        ok, answers, problem = drain.verdict()
    elif c["op"] == "count":
        text = b"".join(out).decode()
        got = int(text.split("=")[1]) if text.startswith("#hom = ") else None
        ok, answers, problem = got == c["expect"], 0, f"count {got}, oracle {c['expect']}"
    else:
        ok, answers, problem = check_decision(c, b"".join(out).decode())
    return latency, ok, not ok, answers, None if ok else problem, ru


def measure_cli(cqc, cases, run_dir, seconds, tally):
    """Cycle through the cases for `seconds`.  `cpu_s_per_op` is the mean
    over the cases run of each case's median CPU time, so neither a burst
    of contention nor where the run stops in the cycle moves it."""
    peak_kb = 0
    busy = 0.0
    per_case = {}
    cpu_per_case = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        k = i % len(cases)
        latency, ok, wrong, answers, problem, ru = invoke(cqc, cases[k], run_dir)
        tally.record(latency, ok, wrong=wrong, answers=answers, problem=problem)
        peak_kb = max(peak_kb, ru.ru_maxrss)
        busy += latency
        per_case.setdefault(k, []).append(latency)
        cpu_per_case.setdefault(k, []).append(ru.ru_utime + ru.ru_stime)
        i += 1
    cpu = statistics.mean(statistics.median(v) for v in cpu_per_case.values())
    return {"peak_kb": peak_kb, "cpu_s_per_op": cpu, "busy_s": busy, "per_case": per_case}


# --------------------------------------------------------------------------
# Workloads


def startup_probe(workload, run_dir):
    """A trivial invocation of the one-shot workload's command: a one-vertex
    self-loop into itself.  Timing it shows process start-up and anything
    the program does before its first answer."""
    loop = corpus.graph(1, [(0, 0)])
    with open(os.path.join(run_dir, "probe.st"), "w") as f:
        f.write(loop.text())
    c = {"family": "start-up probe", "a_path": "probe.st", "b_path": "probe.st"}
    if workload == "count-enumerate":
        c.update(op="count", expect=1)
    else:
        c.update(op="solve", expect=True, check=corpus.hom_checker(loop, loop))
    return c


def time_setups(workload, count, run_dir, cqc, tally, keep_daemon=False):
    """Time the program's own set-up `count` times: on serve-cached the
    daemon's start up to its first ping reply, on the one-shot workloads the
    start-up probe.  Returns the times and, with `keep_daemon`, the last
    daemon, left running."""
    times = []
    daemon = None
    for i in range(count):
        if workload == "serve-cached":
            t0 = time.perf_counter()
            daemon = serve_client.Daemon(cqc, run_dir)
            times.append(time.perf_counter() - t0)
            if not (keep_daemon and i == count - 1):
                stop_daemon(daemon, tally, "after set-up")
        else:
            latency, ok, wrong, _, problem, _ = invoke(cqc, startup_probe(workload, run_dir), run_dir)
            times.append(latency)
            if not ok:
                tally.record(0.0, False, wrong=wrong, problem=f"start-up probe: {problem}")
    return times, daemon if keep_daemon else None


def e2e_metrics(tally, seconds_busy, cpu_s_per_op, peak_kb, setup_s):
    """The end-to-end metrics, and the wall-clock figures printed for
    people only: on a shared host they follow the time the hypervisor
    steals, so they do not repeat from run to run and gate nothing."""
    lat = sorted(tally.latencies) or [0.0]
    q, tail_value = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "cpu_ms_per_op": 1e3 * cpu_s_per_op,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    wall = {
        "ops_per_s": (f"{len(tally.latencies) / seconds_busy:.6g}", "1/s"),
        "latency_p50_ms": (f"{1e3 * percentile(lat, 50):.6g}", "ms"),
        "latency_tail_ms": (f"{1e3 * tail_value:.6g}", f"ms  (p{q:g} of {len(lat)} samples)"),
        "answers_per_s": (f"{tally.answers / seconds_busy:.6g}", "1/s"),
        "failed_share": (f"{tally.failed}/{tally.attempted}", ""),
    }
    return metrics, wall


def stop_daemon(daemon, tally, when):
    """Drain the daemon; one that does not exit 0 is a failed operation."""
    if not daemon.stop():
        tally.record(0.0, False, problem=f"daemon drain {when}: {daemon.exit_detail}")
    tally.sigterm_resent += daemon.resent


def run_serve(cases, daemon, seconds, tally):
    """Returns the loop's figures, the daemon's CPU seconds per completed
    request (its reaped workers included) and its peak RSS."""
    cpu0 = daemon.cpu_before
    info = serve_client.closed_loop(daemon.socket_path, cases, seconds, CONNECTIONS, tally)
    stop_daemon(daemon, tally, "after the run")
    cpu = (serve_client.children_cpu() - cpu0) / max(1, len(tally.latencies))
    return info, cpu, daemon.maxrss_kb


def end_to_end(workload, args, cqc, run_dir):
    """Generate the inputs (untimed: that is the benchmark's work, not the
    program's), time half the set-ups, measure, then time the other half.
    setup_s is the median of all of them, so it spans the host conditions
    of the whole run rather than those of its first second."""
    tally = Tally()
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cases = generate(workload, args.seed, args.scale, run_dir)
    before = SETUP_REPEATS - SETUP_REPEATS // 2
    setup_times, daemon = time_setups(workload, before, run_dir, cqc, tally,
                                      keep_daemon=workload == "serve-cached")
    if workload == "serve-cached":
        try:
            info, cpu, peak_kb = run_serve(cases, daemon, args.seconds, tally)
        finally:
            daemon.stop()
        busy = info["wall_s"]
    else:
        info = measure_cli(cqc, cases, run_dir, args.seconds, tally)
        cpu, peak_kb, busy = info["cpu_s_per_op"], info["peak_kb"], info["busy_s"]
    after, _ = time_setups(workload, SETUP_REPEATS // 2, run_dir, cqc, tally)
    setup_s = statistics.median(setup_times + after)
    metrics, wall = e2e_metrics(tally, busy, cpu, peak_kb, setup_s)
    return tally, metrics, wall


# --------------------------------------------------------------------------
# Traced run


def ops_file(workload, cases, run_dir):
    lines = []
    for c in cases:
        if workload == "serve-cached":
            lines.append("serve\t" + serve_client.frame(c, 0))
        elif c["op"] == "contain":
            lines.append(f"contain\t{c['q1']}\t{c['q2']}")
        else:
            lines.append(f"{c['op']}\t{c['a_path']}\t{c['b_path']}")
    path = os.path.join(run_dir, "ops.tsv")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def check_replay(cases, results_path, tally):
    """The replay's answers, checked against the same oracle."""
    with open(results_path) as f:
        for line in f:
            i, answer, status = line.rstrip("\n").split("\t")
            c = cases[int(i)]
            if c["op"] in ("solve", "contain"):
                expect = "sat" if c["expect"] else "unsat"
            elif c["op"] == "enumerate" and "limit" in c:
                expect = str(min(c["limit"], c["expect"]))
            else:
                expect = str(c["expect"])
            ok = answer == expect and status == "ok"
            tally.record(0.0, ok, wrong=answer != expect,
                         problem=None if ok else f"replay op {i}: {answer}/{status}, oracle {expect}")


def self_times(spans_path):
    """Per span name: [self time ns, total time ns, calls].  A span's self
    time is its duration minus the time its child spans cover.  Also adds
    "route_self": per op, the solve's time minus the separate shrink's,
    clamped at zero (a solve can decide before it shrinks)."""
    rows = []
    with open(spans_path) as f:
        for line in f:
            name, start, stop, parent, _op = line.rstrip("\n").split("\t")
            rows.append((name, float(stop) - float(start), int(parent)))
    child = [0.0] * len(rows)
    per_op = {}
    for name, dur, parent in rows:
        if parent >= 0:
            child[parent] += dur
            if name in ("core.solve", "preprocess.shrink"):
                per_op.setdefault(parent, {})[name] = dur
    layers = {}
    for i, (name, dur, _) in enumerate(rows):
        s = layers.setdefault(name, [0.0, 0.0, 0])
        s[0] += dur - child[i]
        s[1] += dur
        s[2] += 1
    route = [max(0.0, d["core.solve"] - d.get("preprocess.shrink", 0.0))
             for d in per_op.values() if "core.solve" in d]
    layers["route_self"] = [0.0, sum(route), len(route)]
    return layers


def layer_metrics(layers, summary, extra):
    """The per-layer metrics, named as in BENCHMARK.json's per_layer."""
    counters = summary["counters"]
    passes = max(1, summary["passes_traced"])

    def mean_ms(name):
        s = layers.get(name)
        return s[1] / s[2] / 1e6 if s and s[2] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def total(name):
        s = layers.get(name)
        return s[1] if s else 0.0

    solve_calls = counters.get("solve.calls", 0)
    attempts = counters.get("solve.attempts", 0)
    attributed = sum(s[0] for name, s in layers.items() if name != "op")
    m = {
        "relational.parse_ms": mean_ms("relational.parse"),
        "cq.parse_ms": mean_ms("cq.parse"),
        "preprocess.shrink_ms": mean_ms("preprocess.shrink"),
        "preprocess.useful_share": ratio(counters.get("shrink.useful", 0), counters.get("shrink.calls", 0)),
        "preprocess.shrink_ratio": ratio(counters.get("shrink.shrunk", 0), counters.get("shrink.raw", 0)),
        "preprocess.bailouts": ratio(counters.get("shrink.bailouts", 0), counters.get("shrink.calls", 0)),
        "core.solve_ms": mean_ms("core.solve"),
        "core.route_self_ms": mean_ms("route_self"),
        "core.nodes_per_op": ratio(counters.get("solve.nodes", 0), solve_calls),
        "core.wasted_attempt_share": ratio(counters.get("solve.wasted", 0), attempts),
        "certificate.check_ms": mean_ms("certificate.check"),
        "certificate.size": ratio(counters.get("certificate.size", 0), counters.get("certificate.checks", 0)),
        "enumerate.plan_ms": mean_ms("enumerate.plan"),
        "enumerate.count_ms": mean_ms("enumerate.count"),
        "enumerate.ns_per_answer": ratio(total("enumerate.drain"),
                                         passes * counters.get("enumerate.answers", 0)),
        "serve.handle_inproc_ms": mean_ms("serve.handle_inproc"),
        "serve.fork_pipe_ms": mean_ms("serve.fork_pipe"),
        "serve.cache_lookup_ms": mean_ms("serve.cache_lookup"),
        "trace.unattributed_share": 1.0 - ratio(attributed, summary["wall_traced_ns"]),
        "trace.overhead": ratio(summary["wall_traced_ns"] / passes,
                                summary["wall_untraced_ns"] / max(1, summary["passes_untraced"])),
    }
    for family in ROUTE_FAMILIES:
        m[f"core.decided_share.{family}"] = ratio(counters.get(f"decided.{family}", 0), solve_calls)
    m.update(extra)
    return m


ROUTE_FAMILIES = ("preprocess", "schaefer-direct", "booleanized", "hell-nesetril",
                  "acyclic-yannakakis", "treewidth-dp", "consistency", "backtracking")


def traced(workload, args, cqc, tracer, run_dir):
    """Per-layer run: a short pass through the real binary for the figures
    only it can give, then the in-process replay with spans."""
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cases = generate(workload, args.seed, args.scale, run_dir)
    real_s = args.seconds / 3.0
    extra = {"serve.server_elapsed_share": 0.0, "serve.cache_hit_share": 0.0,
             "enumerate.output_share": 0.0}
    if workload == "serve-cached":
        daemon = serve_client.Daemon(cqc, run_dir)
        tally = Tally()
        try:
            info = serve_client.closed_loop(daemon.socket_path, cases, real_s, CONNECTIONS, tally)
        finally:
            stop_daemon(daemon, tally, "after the run")
        extra["serve.server_elapsed_share"] = info["server_ms"] / max(1e-9, info["client_ms"])
        extra["serve.cache_hit_share"] = info["hits"] / max(1, info["hits"] + info["misses"])
        replay = cases[:400]
    else:
        tally = Tally()
        info = measure_cli(cqc, cases, run_dir, real_s, tally)
        replay = cases
    ops = ops_file(workload, replay, run_dir)
    spans = os.path.join(run_dir, "spans.tsv")
    results = os.path.join(run_dir, "results.tsv")
    proc = subprocess.run([tracer, ops, f"{args.seconds - real_s:.3f}", spans, results],
                          cwd=run_dir, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"tracer failed: {proc.stderr[-2000:]}", 4)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    check_replay(replay, results, tally)
    if workload == "count-enumerate":
        # CLI time of each enumerate op not spent in parse, plan or drain.
        inproc = {}
        with open(spans) as f:
            for line in f:
                name, start, stop, _parent, op = line.rstrip("\n").split("\t")
                if name in ("relational.parse", "enumerate.plan", "enumerate.drain"):
                    inproc.setdefault(int(op), []).append(float(stop) - float(start))
        passes = max(1, summary["passes_traced"])
        cli = info["per_case"]
        both = [i for i in cli if replay[i]["op"] == "enumerate" and i in inproc]
        cli_ms = sum(statistics.mean(cli[i]) for i in both) * 1e3
        lib_ms = sum(sum(inproc[i]) / passes for i in both) / 1e6
        extra["enumerate.output_share"] = 1.0 - lib_ms / cli_ms if cli_ms else 0.0
    return tally, layer_metrics(self_times(spans), summary, extra), None


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=tuple(corpus.SCALES), default="full",
                    help="input sizes; 'tiny' is for the benchmark's self-test")
    args = ap.parse_args()
    # On SIGTERM, unwind through the finally blocks that stop the daemon.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    cqc, tracer = build(args.trace == 1)
    run_dir = os.path.abspath(os.path.join(RUN_ROOT, args.workload))
    with open("BENCHMARK.json") as f:
        listed = json.load(f)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        tally, values, wall = traced(args.workload, args, cqc, tracer, run_dir)
    else:
        tally, values, wall = end_to_end(args.workload, args, cqc, run_dir)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        fail(f"no value for {', '.join(missing)}", 4)
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in listed}
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    if wall:
        print("wall clock, not gated (it follows the host's steal time):")
        for name, (value, unit) in wall.items():
            print(f"  {name:34s} {value:>14s} {unit}")
    for p in tally.problems:
        print(f"problem: {p}")
    if tally.sigterm_resent:
        print(f"known defect: cqc serve missed a SIGTERM {tally.sigterm_resent} time(s); it was sent again")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
