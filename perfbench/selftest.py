#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny size, end-to-end and
traced, must check every answer, fail none, and print exactly the metrics
BENCHMARK.json names; perfbench/layers.json must describe exactly its
per-layer metrics.  A copy of the benchmark without the repository
around it must fail without printing a result.

    python3 perfbench/selftest.py        (from the repository root)
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(args, cwd="."):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    if list(layers) != [m["name"] for m in spec["per_layer"]]:
        failures.append("layers.json does not describe exactly BENCHMARK.json's per_layer metrics")
    for name, layer in layers.items():
        for metric, workload in layer["moves"]:
            if metric not in wanted[0] or workload not in workloads:
                failures.append(f"layers.json: {name} moves an unknown {metric} on {workload}")
        if not workloads.issuperset(layer.get("no_change", [])):
            failures.append(f"layers.json: {name} names an unknown workload")
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run(["--workload", w["name"], "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--scale", "tiny"])
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: {proc.stdout[-800:]}")
            if set(result["metrics"]) != wanted[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ wanted[trace])}")
            print(f"ok  {label}: {result['attempted']} ops checked")
    bare = os.path.abspath(os.path.join(".bench_run", "bare"))
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
                           "--workload", spec["workloads"][0]["name"], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("a copy without the repository did not fail cleanly")
    else:
        print("ok  without the repository: exit", proc.returncode)
    shutil.rmtree(bare)
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
