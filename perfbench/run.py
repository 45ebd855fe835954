#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload vgg2d|unet3d|serve_rpc --seed N \
        --seconds S --trace 0|1 --tol T --rate R
    python3 perfbench/run.py --selftest

The frozen values of --tol and --rate are part of the command in
BENCHMARK.json. The script builds perfbench/ (which compiles the library
from ../src) into .bench_build/perfbench, runs one workload and prints
the program's envelope line and, last, its result line. It exits non-zero
when the sources are missing, the build fails, any output is wrong, the
run is invalid (see README.md), or the result line does not match
BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def jobs():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout", 2)
    out = BUILD / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as f:
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", str(jobs())])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if r.returncode != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd)}); log in {log}")
    return out


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in {".h", ".cpp", ".txt", ".py"}:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def check_result(line, trace):
    """The result line must carry exactly BENCHMARK.json's metrics."""
    res = json.loads(line)
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(res) != keys:
        fail(f"result keys {sorted(res)} != {sorted(keys)}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if want != got:
        fail(f"metrics do not match BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in want if k in got and want[k] != got[k])}")


def main():
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark helpers' self-tests")
    ap.add_argument("--workload", choices=["vgg2d", "unet3d", "serve_rpc"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--tol", type=float)
    ap.add_argument("--rate", type=float)
    a = ap.parse_args()

    if a.selftest:
        out = build()
        sys.exit(subprocess.run([str(out / "perfbench_selftest")],
                                timeout=RUN_TIMEOUT_S).returncode)

    missing = [n for n in ("workload", "seed", "seconds", "trace", "tol", "rate")
               if getattr(a, n) is None]
    if missing:
        fail("missing " + ", ".join("--" + m.replace("_", "-") for m in missing)
             + " (the frozen values are in BENCHMARK.json's command)", 2)

    out = build()
    tag = f"{a.workload}-seed{a.seed}"
    cmd = [str(out / "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--tol", repr(a.tol), "--rate", repr(a.rate),
           # Relative paths: the unix socket path must fit in sun_path.
           "--sock", os.path.relpath(BUILD / f"perfbench-{os.getpid()}.sock"),
           "--trace-out", os.path.relpath(BUILD / f"trace-{tag}.json")]
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha(),
               PERFBENCH_SRC_DIGEST=source_digest())
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s")
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    if r.returncode != 0 or not lines:
        # To stderr: a failed or invalid run's numbers must not be read
        # as a result.
        sys.stderr.write(r.stdout)
        fail(f"perfbench exited with code {r.returncode}")
    check_result(lines[-1], a.trace == 1)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
