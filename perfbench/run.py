#!/usr/bin/env python3
"""Build and run the mmph loopback benchmark.

    python3 perfbench/run.py --workload churn-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed. The benchmark binary's
report goes to stdout; the last line is the result JSON with the keys
correct, attempted, failed and metrics. The exit code is non-zero when the
build fails, a run fails or any output check misses.

--smoke runs every workload of BENCHMARK.json for a few seconds, untraced
and traced, with all output checks on, and checks that the metric names
and units printed match BENCHMARK.json.
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
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    nproc = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", out, "-j", nproc], check=True,
                   stdout=sys.stderr, timeout=850)
    return os.path.join(out, "mmph_perfbench")


def revision():
    """git HEAD when available, else a digest of the sources built."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "include", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, setups, rev):
    """Runs the benchmark binary once; returns (exit code, stdout lines).

    setups=None keeps the binary's default of 5 set-ups, whose median is
    setup_s; only the smoke test passes 1.
    """
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--revision", rev]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out after %d s" % RUN_TIMEOUT_S)
        return 1, []
    if proc.stderr:
        log(proc.stderr.rstrip())
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def smoke(binary, rev):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_once(binary, workload, 1, 3, trace, 1, rev)
            result = parse_result(lines)
            want = {m["name"]: m["unit"] for m in bench[key]}
            problems = []
            if code != 0:
                problems.append("exit code %d" % code)
            if result is None:
                problems.append("no result line")
            else:
                got = {name: m.get("unit") for name, m in result["metrics"].items()}
                if got != want:
                    problems.append("metrics differ from BENCHMARK.json %s: missing %s, extra %s" % (
                        key, sorted(set(want) - set(got)),
                        sorted(set(got) - set(want) | {n for n in got if n in want and got[n] != want[n]})))
                if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                    problems.append("correct=%s attempted=%s failed=%s" % (
                        result["correct"], result["attempted"], result["failed"]))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-11s trace %d  %s" % (workload, trace, status), flush=True)
            if problems:
                ok = False
                for line in lines[:-1]:
                    print("  | " + line)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    try:
        binary = build(build_dir())
    except (OSError, subprocess.SubprocessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    rev = revision()
    if args.smoke:
        return smoke(binary, rev)

    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace, None, rev)
    result = parse_result(lines)
    if result is None:
        for line in lines:
            log(line)
        log("perfbench: run produced no result (exit code %d)" % code)
        return code or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
