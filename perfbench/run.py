#!/usr/bin/env python3
"""Build and run the benchmark; diff result files; self-test the checks.

Run from the root of the repository:

  python3 perfbench/run.py --workload list-read --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py ... --out results.jsonl     # also append the run
  python3 perfbench/run.py --diff before.jsonl after.jsonl
  python3 perfbench/run.py --self-test

A run builds perfbench/perfbench.exe with the release profile into
.bench_build, runs it, prints a stamp line (host nproc, OCaml version,
profile, commit, seed) and then, as the last line, the result object with
the keys correct, attempted, failed and metrics. The exit code is nonzero
when the build fails or any correctness check fails.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["list-read", "map-churn", "map-churn-async", "kv-open"]
# Units whose values are timings or rates: diffed as medians with
# quartiles. Every other unit is a count and is shown exactly.
TIME_UNITS = {"s", "ms", "us", "ns", "Mops/s", "share"}


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_tree():
    for p in ["dune-project", "lib", os.path.join("perfbench", "dune")]:
        if not os.path.exists(p):
            die("run from the repository root: %s is missing" % p)


def build():
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(r.stdout.decode(errors="replace")[-4000:])
        die("build failed")


def ocaml_version():
    try:
        return subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=30).stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def commit():
    """The git commit when there is one; otherwise a digest of the sources."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, timeout=30)
        if r.returncode == 0:
            return r.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ["lib", "perfbench", "dune-project"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "tree:" + h.hexdigest()[:16]


def run_once(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.fault:
        cmd += ["--fault", args.fault]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=175)
    except subprocess.TimeoutExpired:
        die("benchmark timed out", 1)
    lines = r.stdout.decode(errors="replace").strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("benchmark printed no result (exit %d)" % r.returncode, 1)
    return r.returncode, out


def cmd_run(args):
    check_tree()
    if args.workload not in WORKLOADS:
        die("unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)))
    build()
    code, out = run_once(args)
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "ocaml": ocaml_version(),
        "profile": "release", "commit": commit(),
    }
    result = {k: out[k] for k in ["correct", "attempted", "failed", "metrics"]}
    print(json.dumps({"stamp": stamp, "detail": out.get("detail", {}),
                      "failures": out.get("failures", [])}))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"stamp": stamp, "result": result,
                                "detail": out.get("detail", {})}) + "\n")
    print(json.dumps(result), flush=True)
    ok = code == 0 and out["correct"] and out["failed"] == 0
    sys.exit(0 if ok else 1)


def load(path):
    rows = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["stamp"]["workload"], rec["stamp"]["trace"])
            for name, mv in rec["result"]["metrics"].items():
                rows.setdefault(key + (name,), (mv["unit"], []))[1].append(mv["value"])
    return rows


def describe(unit, values):
    if unit in TIME_UNITS:
        if len(values) >= 2:
            q1, q2, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q2 = q3 = values[0]
        return "%.4g [%.4g, %.4g] n=%d" % (q2, q1, q3, len(values)), statistics.median(values)
    distinct = sorted(set(values))
    shown = ", ".join("%.6g" % v for v in distinct[:4]) + (" ..." if len(distinct) > 4 else "")
    return "exact {%s} n=%d" % (shown, len(values)), statistics.median(values)


def cmd_diff(a_path, b_path):
    a, b = load(a_path), load(b_path)
    print("%-16s %-5s %-40s %-8s %-34s %-34s %s" % (
        "workload", "trace", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "B/A"))
    for key in sorted(set(a) | set(b)):
        ua, va = a.get(key, (None, []))
        ub, vb = b.get(key, (None, []))
        unit = ua or ub
        da, ma = describe(unit, va) if va else ("-", None)
        db, mb = describe(unit, vb) if vb else ("-", None)
        ratio = "%.3f" % (mb / ma) if ma and mb is not None else "-"
        print("%-16s %-5s %-40s %-8s %-34s %-34s %s" % (key[0], key[1], key[2], unit, da, db, ratio))


def cmd_self_test():
    """A seeded fault must make the command exit nonzero; a clean run must not."""
    check_tree()
    build()
    me = os.path.abspath(__file__)
    cases = [
        ("clean map-churn", ["--workload", "map-churn"], True),
        ("killed mutator", ["--workload", "map-churn", "--fault", "kill"], False),
        ("UAF detector off", ["--workload", "list-read", "--fault", "uaf-off"], False),
        ("UAF detector off, kv-open", ["--workload", "kv-open", "--fault", "uaf-off"], False),
    ]
    failed = 0
    for name, extra, want_ok in cases:
        r = subprocess.run([sys.executable, me, "--seed", "1", "--seconds", "1", "--trace", "0"]
                           + extra, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=178)
        good = (r.returncode == 0) == want_ok
        failed += not good
        print("%s: %s (exit %d)" % ("ok" if good else "FAIL", name, r.returncode))
    sys.exit(1 if failed else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--fault", choices=["kill", "uaf-off"],
                   help="arm a seeded defect; the run must then fail")
    p.add_argument("--out", help="append the stamped result to this JSONL file")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two result files")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.diff:
        cmd_diff(*args.diff)
    elif args.self_test:
        cmd_self_test()
    elif args.workload:
        cmd_run(args)
    else:
        p.error("--workload, --diff or --self-test is required")


if __name__ == "__main__":
    main()
