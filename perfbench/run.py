#!/usr/bin/env python3
"""Run the repository benchmark (see perfbench/README.md).

One workload, as BENCHMARK.json's command runs it; the last line of
standard output is the result as one JSON object:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Every workload once, printing each metric by name with its unit:

    python3 perfbench/run.py --all [--seed 1] [--seconds 20] [--trace 0]

The correctness gate's self-test (a corrupted prediction must trip it):

    python3 perfbench/run.py --self-test

The program is built from the checkout's sources into .bench_build/
(first run only; later runs rebuild what changed). Each run also writes
a result file with the host record to .bench_out/, which
perfbench/compare.py reads; traced runs write their spans there too.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
RUNS = os.path.join(ROOT, ".bench_run")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd):
    """Run a build step; show its output only when it fails."""
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True,
                       env={**os.environ, "TMPDIR": tmp})
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail(f"build step failed: {' '.join(cmd)}")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: the program's sources (CMakeLists.txt, src/) are "
              "not in this checkout", file=sys.stderr)
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "-j", str(nproc()), "--target",
               "perfbench_driver", "facile_server", "facile_lb"])


def nproc():
    return len(os.sched_getaffinity(0))


def affinity():
    cpus = sorted(os.sched_getaffinity(0))
    ranges, start = [], cpus[0]
    for a, b in zip(cpus, cpus[1:] + [None]):
        if b != a + 1:
            ranges.append(f"{start}" if start == a else f"{start}-{a}")
            start = b
    return ",".join(ranges)


def cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    """git HEAD when the checkout is a repository, else a source digest."""
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True)
        lines = p.stdout.split()
        if p.returncode == 0 and os.path.realpath(lines[0]) == \
                os.path.realpath(ROOT):
            return lines[1]
    except (OSError, IndexError):
        pass
    h = hashlib.sha1()
    for top in ["CMakeLists.txt", "src", "examples", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-sha1-" + h.hexdigest()


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    return {"nproc": nproc(), "cpu_model": model, "affinity": affinity(),
            "compiler": f"{compiler} ({version})",
            "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "commit": commit()}


def run_one(workload, seed, seconds, trace):
    """Run the driver once; returns the parsed result (with its info)."""
    os.makedirs(OUT, exist_ok=True)
    run_dir = os.path.join(RUNS, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [DRIVER, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--bin-dir", os.path.relpath(os.path.join(BUILD, "facile"), ROOT),
           "--run-dir", os.path.relpath(run_dir, ROOT),
           "--out-dir", os.path.relpath(OUT, ROOT)]
    # Its own session, so a timeout can stop the servers it spawned too.
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         start_new_session=True)
    try:
        stdout, _ = p.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{workload} did not finish within {DRIVER_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} printed no result (exit {p.returncode})")
    result = json.loads(lines[-1])
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": host(), **result,
              "exit_code": p.returncode}
    name = f"{workload}-seed{seed}-trace{trace}-{time.time_ns()}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(record, f, indent=1)
    return result, p.returncode


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    build()
    if args.self_test:
        p = subprocess.run([DRIVER, "selftest"], cwd=ROOT)
        sys.exit(p.returncode)
    if args.all:
        ok = True
        for w in workloads():
            result, code = run_one(w, args.seed, args.seconds, args.trace)
            ok = ok and code == 0 and result["correct"]
            print(f"{w}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
        sys.exit(0 if ok else 1)
    if args.workload not in workloads():
        fail(f"unknown workload {args.workload!r}; one of {workloads()}")
    result, code = run_one(args.workload, args.seed, args.seconds, args.trace)
    result.pop("info", None)
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
