#!/usr/bin/env python3
"""Record sets of benchmark runs and compare them.

    # ten untraced runs per workload, one seed each, appended to a file
    python3 perfbench/compare.py record --out runs/parent.jsonl --seeds 1-10 \\
        [--workloads compile-zoo,serve-gemv] [--root CHECKOUT]

    # run-to-run spread of one set, against each metric's bound
    python3 perfbench/compare.py spread runs/parent.jsonl

    # parent against change, per workload x end-to-end metric
    python3 perfbench/compare.py diff runs/parent.jsonl runs/change.jsonl

Each record holds one run's detail line (provenance and every end-to-end
metric of its workload) and its result line. `diff` pairs runs by
(workload, seed) and prints, per workload and metric, both sides' median
and quartiles, the pairs the change won, and a verdict:

- improved:   the change wins at least 9 in 10 pairs (ties count for
              neither; with no seed in common, every change run beats
              every parent run) and the medians differ by more than the
              parent's own quartile spread;
- worse:      the change's median is worse than the parent's by more
              than the metric's bound;
- unresolved: the run-to-run spread (quartile distance over median) of
              either side is wider than the bound, unless every change
              run reads better than every parent run;
- no worse:   otherwise.

Runs last BENCHMARK.json's run_seconds. Measure both sides with the
same benchmark code, and alternate which side runs first (record one
seed on each side in turn). `diff` refuses two sets whose runs differ
in run length or were traced.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Direction and bound (share of the parent's median) of the end-to-end
# metrics each workload reports; setup_s, work_s and peak_rss_mb take
# theirs from BENCHMARK.json. On a shared 2-core host a fixed CPU task
# varies by 20-30 % from second to second, so timings get the widest
# bound. Metrics not listed (correctness diagnostics such as
# infer.argmax_agree) are printed without a verdict.
TIMING_BOUND = 0.25
BOUNDS = {name: ("lower", TIMING_BOUND) for name in [
    "compile_s", "keygen_s", "infer_p50_s", "encrypt_p50_ms", "decrypt_p50_ms",
    "serve.low.p50_ms", "serve.low.tail_ms", "serve.high.p50_ms", "serve.high.tail_ms"]}
BOUNDS["serve.sat_rps"] = ("higher", TIMING_BOUND)


def benchmark_spec(root="."):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def bounds():
    b = dict(BOUNDS)
    for m in benchmark_spec(os.path.dirname(HERE))["end_to_end"]:
        b[m["name"]] = (m["better"], m["bound"])
    return b


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(args):
    root = os.path.abspath(args.root)
    spec = benchmark_spec(root)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for w in workloads:
                cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                         "--seconds", str(seconds), "--trace", "0"]
                r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
                lines = r.stdout.rstrip("\n").split("\n")
                if r.returncode != 0:
                    print("%s seed %d: exit %d" % (w, seed, r.returncode), file=sys.stderr)
                    continue
                detail = next(json.loads(l)["perfbench"] for l in lines if l.startswith('{"perfbench"'))
                rec = {"workload": w, "seed": seed, "detail": detail, "result": json.loads(lines[-1])}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print("%s seed %d: %s" % (w, seed, " ".join(
                    "%s=%.4g" % (k, v["value"]) for k, v in rec["result"]["metrics"].items())))


def load(path):
    """{workload: {seed: {metric: value}}}, end-to-end detail and result
    metrics merged, plus fail_ratio, and the set of (seconds, trace)
    the runs were made with."""
    runs = {}
    setups = set()
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            prov = rec["detail"]["provenance"]
            setups.add((prov["seconds"], prov["trace"]))
            values = {k: v["value"] for k, v in rec["detail"]["e2e"].items()}
            values.update({k: v["value"] for k, v in rec["result"]["metrics"].items()})
            values["fail_ratio"] = rec["detail"]["fail_ratio"]
            runs.setdefault(rec["workload"], {})[rec["seed"]] = values
    return runs, setups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def spread_cmd(args):
    b = bounds()
    runs, _ = load(args.file)
    worst = "steady"
    print("%-16s %-22s %4s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "n", "q1", "median", "q3", "spread", "bound", "status"))
    for w in sorted(runs):
        names = sorted(set().union(*(v.keys() for v in runs[w].values())))
        for name in names:
            vals = [v[name] for v in runs[w].values() if name in v]
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            better, bound = b.get(name, (None, None))
            if bound is None:
                status = ""
            elif s < bound / 3:
                status = "steady"
            elif s <= bound:
                status = "within bound"
                worst = "within bound" if worst == "steady" else worst
            else:
                status = "TOO WIDE"
                worst = "TOO WIDE"
            print("%-16s %-22s %4d %12.5g %12.5g %12.5g %8.4f %6s  %s" % (
                w, name, len(vals), q1, q2, q3, s, "" if bound is None else bound, status))
    print("overall: %s" % worst)


def verdict(name, parent, change, pairs, better, bound):
    """[pairs] is None when the two sets share no seed; then nothing is
    won and a gain needs every change run to beat every parent run."""
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    wins = None if pairs is None else sum(1 for p, c in pairs if sign * (c - p) > 0)
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if name == "fail_ratio":
        return wins, ("worse" if cm > pm else "no worse")
    if sign * (cm - pm) < -bound * abs(pm):
        return wins, "worse"
    won_most = all_better if wins is None else wins >= 0.9 * len(pairs)
    if won_most and abs(cm - pm) > (p3 - p1) and sign * (cm - pm) > 0:
        return wins, "improved"
    if max(spread(parent), spread(change)) > bound and not all_better:
        return wins, "unresolved"
    return wins, "no worse"


def diff_cmd(args):
    b = bounds()
    b["fail_ratio"] = ("lower", 0.0)
    (parent, p_setups), (change, c_setups) = load(args.parent), load(args.change)
    setups = p_setups | c_setups
    if len(setups) != 1 or any(traced for _, traced in setups):
        print("diff: both sets must be untraced runs of one run length; found (seconds, traced) %s"
              % sorted(setups), file=sys.stderr)
        return 2
    counts = {}
    print("%-16s %-22s %-29s %-29s %6s  %s" % (
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "won", "verdict"))
    for w in sorted(set(parent) & set(change)):
        common = sorted(set(parent[w]) & set(change[w]))
        names = sorted(set.intersection(*(set(v) for v in
                                          list(parent[w].values()) + list(change[w].values()))))
        for name in names:
            pv = [parent[w][s][name] for s in sorted(parent[w])]
            cv = [change[w][s][name] for s in sorted(change[w])]
            pairs = [(parent[w][s][name], change[w][s][name]) for s in common] or None
            fmt = lambda v: "%9.4g/%9.4g/%9.4g" % quartiles(v)
            if name in b:
                wins, v = verdict(name, pv, cv, pairs, *b[name])
                won = "-" if wins is None else "%d/%d" % (wins, len(pairs))
                counts[v] = counts.get(v, 0) + 1
            else:
                won, v = "", "(not gated)"
            print("%-16s %-22s %-29s %-29s %6s  %s" % (w, name, fmt(pv), fmt(cv), won, v))
    print("verdicts: " + ", ".join("%s %d" % kv for kv in sorted(counts.items())))
    return 1 if counts.get("worse") or counts.get("unresolved") else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    r.add_argument("--workloads", default="")
    r.add_argument("--root", default=".", help="checkout to run in")
    s = sub.add_parser("spread")
    s.add_argument("file")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "record":
        record(args)
    elif args.cmd == "spread":
        spread_cmd(args)
    else:
        sys.exit(diff_cmd(args))


if __name__ == "__main__":
    main()
