#!/usr/bin/env python3
"""Stability record for the benchmark.

Runs the benchmark command of BENCHMARK.json once per seed and workload
with tracing off, then a few more times on one seed with tracing off
(same-seed repeats, which separate host noise from input content), then
twice per workload with tracing on (same seed). It writes, per workload
and metric, the median and quartiles of the seed sweep, the spread
(q3 - q1) / median against the metric's bound, the same figures for the
same-seed repeats, and whether the exact-count per-layer metrics (units
"count" and "count/count") repeated exactly. Host facts from each run's
info line (nproc, GOMAXPROCS, CPU model, Go version, steal ticks) are
kept per run.

Run from the root of a checkout:

    python3 perfbench/stability.py --seeds 1-10 --repeats 3 --traced-repeats 2 \
        --out perfbench/stability.json

and, for a second sweep to compare medians with:

    python3 perfbench/stability.py --seeds 1-10 --repeats 0 --traced-repeats 0 \
        --out perfbench/stability-second.json
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(s):
    out = []
    for part in s.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    lines = [l for l in p.stdout.splitlines() if l.startswith("{")]
    info = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
    res = json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "wall_s": round(time.time() - t0, 1),
            "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: v["value"] for k, v in res["metrics"].items()},
            "host": {k: info.get(k) for k in ("nproc", "gomaxprocs", "cpu_model", "go_version", "steal_ticks")},
            "write_p50_ms": info.get("write_p50_ms")}


def summarize(runs, specs):
    out = {}
    for name, spec in specs.items():
        vals = [r["metrics"][name] for r in runs if name in r["metrics"]]
        if len(vals) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        row = {"median": q2, "q1": q1, "q3": q3, "unit": spec["unit"]}
        if q2:
            row["spread"] = (q3 - q1) / abs(q2)
        if "bound" in spec:
            row["bound"] = spec["bound"]
            row["within_third_of_bound"] = row.get("spread", 0) < spec["bound"] / 3
        out[name] = row
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--repeat-seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--traced-seed", type=int, default=1)
    ap.add_argument("--traced-repeats", type=int, default=2)
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    record = {"seconds": seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for w in names:
        runs = []
        for seed in record["seeds"]:
            r = run(bench, w, seed, 0, seconds)
            runs.append(r)
            print(w, seed, r["wall_s"], {k: round(v, 4) for k, v in r["metrics"].items()}, file=sys.stderr)
        repeats_runs = []
        for _ in range(args.repeats):
            r = run(bench, w, args.repeat_seed, 0, seconds)
            repeats_runs.append(r)
            print(w, "repeat", args.repeat_seed, r["wall_s"], file=sys.stderr)
        traced = [run(bench, w, args.traced_seed, 1, seconds) for _ in range(args.traced_repeats)]
        exact = [n for n, m in layer.items() if m["unit"] in ("count", "count/count")]
        repeats = {n: len({t["metrics"][n] for t in traced}) == 1 for n in exact}
        record["workloads"][w] = {
            "end_to_end": summarize(runs, e2e),
            "same_seed": {"seed": args.repeat_seed, "end_to_end": summarize(repeats_runs, e2e)},
            "per_layer": {n: [t["metrics"][n] for t in traced] for n in layer},
            "traced_seed": args.traced_seed,
            "exact_counts_repeat": repeats,
            "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs + repeats_runs + traced),
            "runs": runs + repeats_runs + traced,
        }
        for n, row in record["workloads"][w]["end_to_end"].items():
            print(f"  {w} {n}: median {row['median']:.6g} spread {row.get('spread', 0):.3f} bound {row.get('bound')}", file=sys.stderr)
    text = json.dumps(record, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    main()
