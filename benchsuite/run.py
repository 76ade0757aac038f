#!/usr/bin/env python3
"""The benchmark suite's command: builds the worker, runs one workload in
child processes, checks the outputs and prints the metrics.

  python3 benchsuite/run.py --workload W --seed N --seconds S --trace 0|1
      One run.  The last line of stdout is the JSON result; the command
      exits non-zero when an output check fails.  --trace 1 reports the
      per-layer metrics instead and writes bench-trace.json.
  python3 benchsuite/run.py --runs N --out FILE [--workload W ...]
      A run set: every workload (or the named ones) with seeds 1..N,
      recorded with a header so only like sets are ever compared.
  python3 benchsuite/run.py --compare BASE NEW
      Medians and quartiles of two run sets against BENCHMARK.json's bounds.

See benchsuite/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SPAWNS = 11
MIN_ROUNDS = 2
TRACE_FILE = "bench-trace.json"

# BENCHMARK.json declares the workloads and every metric with its unit
# and bound.
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
BOUNDS = {m["name"]: m for m in SPEC["end_to_end"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class Failure(Exception):
    """The run cannot produce a result."""


def log(msg):
    print(msg, flush=True)


def build():
    """Builds the worker from the checkout's sources with dune."""
    exe = os.path.join(ROOT, "_build", "default", "benchsuite", "suite.exe")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled",
           "./benchsuite/suite.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError as e:
        raise Failure(f"cannot run dune: {e}")
    if proc.returncode != 0 or not os.path.exists(exe):
        raise Failure("build failed:\n" + proc.stdout + proc.stderr)
    return exe


def worker_json(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise Failure(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n"
                      + proc.stderr[-4000:])
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise Failure(f"{' '.join(cmd[1:])} printed nothing")
    return json.loads(lines[-1])


def time_setup(worker, workload, seed, flags):
    """Median over fresh processes of process start to first event."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        proc = subprocess.run([worker, "setup", workload, str(seed)] + flags,
                              capture_output=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise Failure(f"setup of {workload} exited {proc.returncode}:\n"
                          + proc.stderr.decode()[-4000:])
    return statistics.median(times)


def part_outcomes(iters):
    return [part for it in iters for part in it["parts"]]


def verdict(iters):
    """Output checks: every part passed its own checks, and every repeat
    of a part simulated exactly the same results."""
    problems = []
    first = {}
    for part in part_outcomes(iters):
        problems += part["broken"]
        if part["attempted"] < 1:
            problems.append(f"{part['name']} attempted nothing")
        seen = first.setdefault(part["name"], part["results"])
        if part["results"] != seen:
            problems.append(f"{part['name']} simulated different results when "
                            "repeated")
    return problems


def result_line(correct, iters, metrics, units):
    parts = part_outcomes(iters)
    return json.dumps({
        "correct": correct,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })


def untraced_run(worker, args, flags):
    """Repeats every part in its own process, round after round, for at
    least MIN_ROUNDS rounds and --seconds.  Other tenants of the host slow
    it down in bursts shorter than a part, so the fastest repeat of each
    part is the steadiest estimate of its cost; wall_s sums them."""
    info = worker_json([worker, "info"] + flags)
    parts = info["workloads"][args.workload]["parts"]
    setup_s = time_setup(worker, args.workload, args.seed, flags)
    reps = [[] for _ in parts]
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        for i, rs in enumerate(reps):
            rs.append(worker_json([worker, "iter", args.workload,
                                   str(args.seed), "--part", str(i)] + flags))
        rounds += 1
        log(f"round {rounds}: " + ", ".join(
            f"{name} {rs[-1]['wall_s']:.3f} s" for name, rs in zip(parts, reps)))
    metrics = {
        "wall_s": sum(min(r["wall_s"] for r in rs) for rs in reps),
        "setup_s": setup_s,
        "peak_heap_mb": max(statistics.median(r["peak_heap_mb"] for r in rs)
                            for rs in reps),
        "alloc_mb": sum(statistics.median(r["alloc_mb"] for r in rs)
                        for rs in reps),
    }
    return [r for rs in reps for r in rs], metrics


def chrome_trace(passes):
    """The benchmark's own spans as Chrome trace events (Perfetto)."""
    t_base = min(s["t0"] for _, it in passes for s in it["spans"])
    events = []
    for pid, (label, it) in enumerate(passes, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 1, "args": {"name": label}})
        for s in it["spans"]:
            dur = s["t1"] - s["t0"]
            events.append({
                "name": s["name"], "ph": "X", "pid": pid, "tid": 1,
                "ts": (s["t0"] - t_base) * 1e6, "dur": dur * 1e6,
                "args": {"id": s["id"], "parent": s["parent"],
                         "events": s["events"],
                         "events_per_s": s["events"] / dur if dur > 0 else 0},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def traced_run(worker, args, flags):
    plain = worker_json([worker, "iter", args.workload, str(args.seed),
                         "--spans"] + flags)
    log(f"untraced: wall {plain['wall_s']:.3f} s, {plain['events']} events")
    traced = worker_json([worker, "traced", args.workload, str(args.seed)]
                         + flags)
    log(f"traced: wall {traced['wall_s']:.3f} s")
    wall, events = plain["wall_s"], plain["events"]
    bare = traced["bare_ns_per_event"]
    metrics = {
        "engine.events": events,
        "engine.events_per_s": events / wall,
        "engine.minor_words_per_event": plain["minor_words"] / max(events, 1),
        "engine.bare_ns_per_event": bare,
        "engine.host_share_pct": 100 * events * bare / (wall * 1e9),
        "obs.timeline_mb": sum(p["results"].get("timeline_bytes", 0)
                               for p in plain["parts"]) / 1e6,
        "trace.overhead_pct": 100 * (traced["wall_s"] - wall) / wall,
    }
    metrics.update(plain["layers"])
    metrics.update(traced["layers"])
    with open(TRACE_FILE, "w") as f:
        json.dump(chrome_trace([("untraced iteration", plain),
                                ("traced iteration", traced)]), f)
    log(f"wrote {TRACE_FILE}")
    return [plain, traced], metrics


def one_run(args):
    worker = args.worker or build()
    flags = (["--smoke"] if args.smoke else []) + (
        ["--inject", args.inject] if args.inject else [])
    if args.trace:
        run, units = traced_run, PER_LAYER
    else:
        run, units = untraced_run, END_TO_END
    iters, metrics = run(worker, args, flags)
    missing = set(units) - set(metrics)
    if missing:
        raise Failure(f"metrics missing: {sorted(missing)}")
    results = {}
    for part in part_outcomes(iters):
        results.setdefault(part["name"], part["results"])
    for name, r in results.items():
        log(f"  {name}: " + ", ".join(f"{k} {v:.6g}" for k, v in r.items()))
    problems = verdict(iters)
    for p in problems:
        log(f"OUTPUT CHECK FAILED: {p}")
    metrics = {k: metrics[k] for k in units}
    for k, v in metrics.items():
        log(f"{k} {v} {units[k]}")
    print(result_line(not problems, iters, metrics, units), flush=True)
    return 0 if not problems else 1


# ---------------------------------------------------------------- run sets

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_set(args):
    worker = args.worker or build()
    flags = ["--smoke"] if args.smoke else []
    info = worker_json([worker, "info"] + flags)
    header = {
        "mode": "smoke" if args.smoke else "full",
        "runs": args.runs,
        "seeds": list(range(1, args.runs + 1)),
        "seconds": args.seconds,
        "ocaml": info["ocaml"],
        "workloads": info["workloads"],
    }
    names = args.workload_list or WORKLOADS
    out = {"header": header, "runs": {}}
    status = 0
    for w in names:
        rows = []
        for seed in header["seeds"]:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0", "--worker", worker] + flags
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1:]
            if proc.returncode != 0 or not last:
                log(f"{w} seed {seed}: exit {proc.returncode}")
                status = 1
            if last:
                r = json.loads(last[0])
                r["seed"] = seed
                rows.append(r)
        out["runs"][w] = rows
        for name in END_TO_END:
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = quartiles(vals)
            log(f"{w:7} {name:13} median {med:.6g} {END_TO_END[name]}  "
                f"spread {(q3 - q1) / med:.2%} (bound {BOUNDS[name]['bound']:.0%})")
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    log(f"wrote {args.out}")
    return status


def compare(base_path, new_path):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if base["header"] != new["header"]:
        diff = [k for k in sorted(set(base["header"]) | set(new["header"]))
                if base["header"].get(k) != new["header"].get(k)]
        log(f"refusing to compare: headers differ in {', '.join(diff)}")
        return 2
    regressions = 0
    log(f"{'workload':8} {'metric':13} {'base median [q1, q3]':>32} "
        f"{'new median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict")
    for w, base_rows in base["runs"].items():
        new_rows = new["runs"].get(w, [])
        for name, spec in BOUNDS.items():
            b = [r["metrics"][name]["value"] for r in base_rows]
            n = [r["metrics"][name]["value"] for r in new_rows]
            if not b or not n:
                continue
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            sign = 1 if spec["better"] == "lower" else -1
            worse = sign * (nmed - bmed) / bmed
            noisy = (bq3 - bq1) / bmed > spec["bound"]
            # A spread wider than the bound cannot tell a change from noise
            # unless every new run reads worse than every base run.
            if worse > spec["bound"] and (
                    not noisy or min(sign * x for x in n) > max(sign * x for x in b)):
                v = "REGRESSION"
                regressions += 1
            elif noisy:
                v = "unresolved"
            else:
                v = "ok"
            log(f"{w:8} {name:13} {bmed:12.6g} [{bq1:.6g}, {bq3:.6g}]"
                f" {nmed:12.6g} [{nq1:.6g}, {nq3:.6g}] {(nmed - bmed) / bmed:+8.2%}"
                f" {spec['bound']:6.0%}  {v}")
    return 1 if regressions else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", dest="workload_list",
                   choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--runs", type=int)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs, for the self-test")
    p.add_argument("--inject", choices=["strand"],
                   help="break the rpc output on purpose (self-test)")
    p.add_argument("--worker", help="use this worker instead of building it")
    args = p.parse_args()
    try:
        if args.compare:
            return compare(*args.compare)
        if args.runs:
            if not args.out:
                p.error("--runs needs --out")
            return run_set(args)
        if not args.workload_list or len(args.workload_list) != 1:
            p.error("one --workload is required")
        args.workload = args.workload_list[0]
        return one_run(args)
    except Failure as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
