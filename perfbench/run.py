#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs it.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S
  python3 perfbench/run.py --selftest

The first form runs one workload in its own process and prints, as the
last line of stdout, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1
(spans go to .bench_build/traces/).  "all" runs every workload in turn and
prints one table.  --selftest checks determinism at a small size.  See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["compile_batch", "serve_mix", "report_sweep"]


def run_timeout(seconds):
    """A run spends three set-ups, a 2 s warm-up, the timed phase, verify and
    a probe of a quarter of the timed phase; 170 s at --seconds 10."""
    return 150 + 2 * seconds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds perfbench; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "Experiments.h")):
        log("error: no schedfilter sources under %s/src" % ROOT)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("error: build step failed: %s" % " ".join(cmd))
            return False
    return True


def source_hash():
    """sha256 over every file of src/ and perfbench/, path and bytes."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def revision():
    """The git commit when the checkout is a repository, else "none"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def run_workload(workload, seed, seconds, trace, extra=(), echo=True):
    """Runs one workload process; returns (exit code, stdout lines)."""
    tmp = os.path.join(BUILD_ROOT, "run-%d" % os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--tmp", tmp,
           "--revision", revision(), "--source-hash", source_hash()]
    if trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    cmd += list(extra)
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=run_timeout(seconds))
        code, out = r.returncode, r.stdout
    except subprocess.TimeoutExpired as e:
        log("error: %s did not finish within %d s"
            % (workload, run_timeout(seconds)))
        code = 124
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    return code, lines


def result_of(lines):
    """The final JSON object, or None when the run printed none."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    return res if isinstance(res, dict) and "metrics" in res else None


def run_all(seed, seconds):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for w in WORKLOADS:
        code, lines = run_workload(w, seed, seconds, 0, echo=False)
        res = result_of(lines)
        if code or res is None:
            log("error: workload %s failed (exit %d)" % (w, code))
            return 1
        for line in lines:
            if line.startswith("metric error_rate"):
                rows.append((w, "error_rate", line.split()[2], "ratio"))
        for name, m in res["metrics"].items():
            rows.append((w, name, "%.6g" % m["value"], m["unit"]))
            total["metrics"]["%s.%s" % (w, name)] = m
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
    for row in rows:
        print("%-14s %-18s %14s %s" % row)
    print(json.dumps(total))
    return 0


def selftest(seed):
    """Determinism at a small size: a seed run twice, and at 1 and 4 jobs,
    gives identical deterministic results; another seed gives other spec
    fingerprints; every run is correct and emits exactly the metrics
    BENCHMARK.json lists."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
             1: [(m["name"], m["unit"]) for m in spec["per_layer"]]}
    failures = []

    def check(ok, what):
        log("%s: %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    def run(w, s, jobs, trace):
        code, lines = run_workload(w, s, 1, trace,
                                   ["--small", "--jobs", str(jobs)], echo=False)
        res = result_of(lines)
        det = [l for l in lines if l.startswith("deterministic ")]
        check(code == 0 and res is not None and res["correct"],
              "%s seed %d jobs %d trace %d runs correctly" % (w, s, jobs, trace))
        got = [(n, m["unit"]) for n, m in (res or {"metrics": {}})["metrics"].items()]
        check(got == names[trace],
              "%s trace %d emits the metrics BENCHMARK.json lists" % (w, trace))
        return json.loads(det[0][len("deterministic "):]) if det else None

    for w in WORKLOADS:
        one = run(w, seed, 1, 1)
        four = run(w, seed, 4, 1)
        again = run(w, seed, 4, 1)
        other = run(w, seed + 1, 4, 0)
        check(one is not None and one == four,
              "%s: 1 job and 4 jobs give identical deterministic results" % w)
        check(four is not None and four == again,
              "%s: the same seed twice gives identical results" % w)
        check(one is not None and other is not None and
              all(a != b for a, b in zip(one["spec_fingerprints"],
                                         other["spec_fingerprints"])),
              "%s: another seed gives other spec fingerprints" % w)
    print("selftest: %s" % ("FAIL (%d)" % len(failures) if failures else "ok"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")
    if not build():
        return 2
    if args.selftest:
        return selftest(args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    code, lines = run_workload(args.workload, args.seed, args.seconds,
                               args.trace)
    if result_of(lines) is None:
        log("error: %s printed no result (exit %d)" % (args.workload, code))
        return code or 1
    print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
