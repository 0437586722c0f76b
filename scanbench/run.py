#!/usr/bin/env python3
"""Builds the scan benchmark from source and runs one workload.

Run from the repository root:

    python3 scanbench/run.py --workload table3 --seed 1 --seconds 30 --trace 0

The last line of stdout is the result object (see scanbench/README.md).
Steadiness mode repeats a workload on K seeds and prints each end-to-end
metric's median and quartiles against its bound in BENCHMARK.json:

    python3 scanbench/run.py --workload crawl --steadiness 10
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message, code=2):
    print(f"scanbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the scanner's src/ directory is missing beside scanbench/")
    out = os.path.join(build_dir(), "scanbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "scanbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "scanbench")


def run_timeout_s(seconds):
    """Time a run may take: --seconds, then as long again for set-up and
    the minimum pass counts, plus a margin (170 s at --seconds 30)."""
    return 2 * seconds + 110


def source_id():
    """The git commit, suffixed with a hash of src/ and scanbench/ when
    either differs from it; the hash alone outside git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                "--", "src", "scanbench"],
                               capture_output=True, text=True)
        if head.returncode == 0 and dirty.returncode == 0:
            commit = head.stdout.strip()
            if dirty.stdout.strip():
                commit += "-dirty+" + tree_hash()
            return commit
    return tree_hash()


def tree_hash():
    digest = hashlib.sha256()
    for top in ("src", "scanbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, echo=True):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", os.path.join(build_dir(), "results"),
           "--commit", source_id()]
    timeout = run_timeout_s(seconds)
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {timeout}s", 3)
    sys.stderr.write(r.stderr)
    if echo:
        sys.stdout.write(r.stdout)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result


def steadiness(binary, args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for k in range(args.steadiness):
        seed = args.first_seed + k
        code, result = run_once(binary, args.workload, seed, args.seconds, 0,
                                echo=False)
        if code != 0 or not result or not result["correct"]:
            fail(f"{args.workload} seed {seed} failed (exit {code})", 1)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
            flush=True)
    print(f"\n{args.workload}: {args.steadiness} seeds from {args.first_seed}")
    print(f"{'metric':16} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name, 0.0)
        mark = "ok" if spread < bound / 3 else ("wide" if spread <= bound
                                                 else "OVER")
        print(f"{name:16} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} "
              f"{bound:6.2f} {mark}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table3", "crawl", "paths"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K",
                        help="run K seeds and print medians and quartiles")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    binary = build()
    if args.steadiness > 0:
        steadiness(binary, args)
        return
    code, result = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace)
    if result is None:
        code = code or 1
    sys.exit(code)


if __name__ == "__main__":
    main()
