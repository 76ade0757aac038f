#!/usr/bin/env python3
"""Self-test of the benchmark at smoke scale (a few seconds in all).

  python3 benchsuite/smoke_test.py --worker _build/default/benchsuite/suite.exe

`dune runtest` runs it.  It checks that:
  - every workload prints each BENCHMARK.json metric with its unit, in
    untraced and traced runs;
  - rpc and incast simulate identical results under one seed and
    different results under another;
  - a broken output (a stranded request) makes the command exit non-zero;
  - the spans in bench-trace.json nest inside their parents.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(worker, cwd, *args):
    cmd = [sys.executable, RUN, "--smoke", "--seconds", "0", "--worker",
           worker] + list(args)
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd)
    last = proc.stdout.strip().splitlines()[-1:]
    return proc.returncode, json.loads(last[0]) if last else None, proc


def check_metrics(result, spec, what):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{what}: metrics {got} != BENCHMARK.json {want}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail(f"{what}: {k} = {v['value']!r}")


def check_nesting(path):
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e["ph"] == "X"]
    if not events:
        fail("bench-trace.json holds no spans")
    by_id = {(e["pid"], e["args"]["id"]): e for e in events}
    eps = 1e-3  # microseconds of float rounding
    for e in events:
        parent = e["args"]["parent"]
        if parent == 0:
            continue
        p = by_id.get((e["pid"], parent))
        if p is None:
            fail(f"span {e['name']} has no parent {parent}")
        if e["ts"] < p["ts"] - eps or \
                e["ts"] + e["dur"] > p["ts"] + p["dur"] + eps:
            fail(f"span {e['name']} lies outside its parent {p['name']}")
    return sum(1 for e in events if e["args"]["parent"] != 0)


def simulated(worker, workload, seed):
    proc = subprocess.run([worker, "iter", workload, str(seed), "--smoke"],
                          capture_output=True, text=True, check=True)
    parts = json.loads(proc.stdout.strip().splitlines()[-1])["parts"]
    return [p["results"] for p in parts]


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--worker", required=True)
    worker = os.path.abspath(p.parse_args().worker)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    info = subprocess.run([worker, "info"], capture_output=True, text=True,
                          check=True)
    if list(json.loads(info.stdout)["workloads"]) != workloads:
        fail("BENCHMARK.json workloads differ from the worker's")

    with tempfile.TemporaryDirectory() as cwd:
        nested = 0
        for w in workloads:
            for trace, spec in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
                code, result, proc = run(worker, cwd, "--workload", w,
                                         "--seed", "1", "--trace", trace)
                if code != 0 or result is None or not result["correct"]:
                    fail(f"{w} --trace {trace} exited {code}:\n"
                         + proc.stdout[-2000:] + proc.stderr[-2000:])
                check_metrics(result, spec, f"{w} --trace {trace}")
            nested += check_nesting(os.path.join(cwd, "bench-trace.json"))
        if nested == 0:
            fail("no workload recorded a nested span")

        for w in ("rpc", "incast"):
            a, b = simulated(worker, w, 1), simulated(worker, w, 1)
            if a != b:
                fail(f"{w}: seed 1 simulated different results twice")
            if simulated(worker, w, 2) == a:
                fail(f"{w}: seeds 1 and 2 simulated the same results")

        code, result, _ = run(worker, cwd, "--workload", "rpc", "--seed", "1",
                              "--trace", "0", "--inject", "strand")
        if code == 0 or result is None or result["correct"] or \
                result["failed"] == 0:
            fail(f"stranded requests went unnoticed (exit {code}, {result})")
    print("benchmark smoke test: ok")


if __name__ == "__main__":
    main()
