#!/usr/bin/env python3
"""Build and run one benchmark run, from the root of a checkout.

    python3 perfbench/run.py --workload compile-zoo|resnet20-infer|serve-gemv \\
        --seed N --seconds S --trace 0|1

Builds perfbench.exe and the ace_serve daemon from source into
.bench_build (dune, release profile, no shared cache), runs the workload
and forwards its output. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
Files the run writes (traces, the daemon's socket and metric flush) go to
perfbench/out. Exits non-zero without a result if anything is missing or
wrong.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["compile-zoo", "resnet20-infer", "serve-gemv"]
BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join("perfbench", "out")
TARGETS = ["./perfbench/perfbench.exe", "./bin/ace_serve.exe"]
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources the benchmark builds, for provenance when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    paths = ["dune-project"]
    for top in ("lib", "bin", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in sorted(paths):
        h.update(p.encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "--cache", "disabled"] + TARGETS
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail("build failed: " + " ".join(cmd))
    return [os.path.join(BUILD_DIR, "default", t[2:]) for t in TARGETS]


def run(exe, argv):
    """Run the benchmark in its own process group, so a timeout also stops
    the daemon it may have started; wait for every process to end."""
    proc = subprocess.Popen([exe] + argv, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("perfbench.exe exited with %d" % proc.returncode)
    return out


def validate(lines, expected):
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys: %s" % sorted(result))
    if result["attempted"] < 1:
        fail("nothing attempted")
    for name, m in result["metrics"].items():
        if name not in expected or expected[name] != m["unit"]:
            fail("metric %s (%s) is not in BENCHMARK.json" % (name, m["unit"]))
    missing = sorted(set(expected) - set(result["metrics"]))
    if missing:
        fail("metrics missing: %s" % ", ".join(missing))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isdir("bin")):
        fail("run from the root of a checkout: dune-project, lib/ and bin/ are needed")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    key = "per_layer" if args.trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[key]}
    exe, serve_exe = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    out = run(exe, ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--serve-exe", serve_exe, "--out", OUT_DIR,
                    "--commit", commit(), "--source-digest", source_digest()])
    lines = out.rstrip("\n").split("\n")
    validate(lines, expected)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
