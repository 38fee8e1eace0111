#!/usr/bin/env python3
"""Build tinygroupsd and the perfbench driver from this checkout, then run
one benchmark workload (or, with --selfcheck, every workload briefly).

Run from the root of the checkout:

    python3 perfbench/run.py --workload read-steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selfcheck

Everything the benchmark builds or writes stays under .bench_build/ in the
checkout: the Go build cache, the binaries, the daemons' data dirs and the
traces. The last line of standard output is the result JSON.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["read-steady", "epoch-churn"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    """Build both binaries; returns (daemon, driver) paths."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(
            os.path.join(ROOT, "cmd", "tinygroupsd")):
        fail("run from the root of a tinygroups checkout (no go.mod or cmd/tinygroupsd here)")
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")
    env = go_env()
    for d in ("gocache", "gopath", "tmp", "bin"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    daemon = os.path.join(BUILD, "bin", "tinygroupsd")
    driver = os.path.join(BUILD, "bin", "perfbench")
    for cwd, out, pkg in ((ROOT, daemon, "./cmd/tinygroupsd"), (BENCH_DIR, driver, ".")):
        r = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            fail("build of %s failed:\n%s" % (pkg, r.stdout))
    return daemon, driver


def source_digest():
    """sha256 over the checkout's Go sources and module files."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return r.stdout.strip() or "unknown"


def run_driver(driver, daemon, args, capture=False):
    cmd = [driver, "--daemon", daemon, "--work", os.path.join(BUILD, "work"),
           "--commit", commit(), "--source-digest", source_digest()] + args
    if capture:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return subprocess.run(cmd)


def selfcheck(driver, daemon):
    """Run each workload briefly, untraced and traced, and assert every
    metric BENCHMARK.json names is printed with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in WORKLOADS:
        p50 = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run_driver(driver, daemon, ["--workload", w, "--seed", "7", "--seconds", "1",
                                            "--trace", str(trace)], capture=True)
            lines = r.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            problems = []
            if r.returncode != 0 or res.get("correct") is not True:
                problems.append("exit %d, correct=%s: %s" % (r.returncode, res.get("correct"),
                                                             r.stderr.strip().splitlines()[-1:]))
            got = res.get("metrics", {})
            for m in spec[key]:
                if m["name"] not in got:
                    problems.append("missing " + m["name"])
                elif got[m["name"]].get("unit") != m["unit"]:
                    problems.append("%s unit %s, want %s" % (m["name"], got[m["name"]].get("unit"), m["unit"]))
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                problems.append("unlisted metrics " + ", ".join(sorted(extra)))
            print("%-12s trace=%d %s" % (w, trace, "ok" if not problems else "; ".join(problems)))
            ok = ok and not problems
            p50[trace] = got.get("read_p50_ms" if trace == 0 else "trace.read_p50_ms", {}).get("value")
        if None not in (p50.get(0), p50.get(1)):
            print("%-12s tracing overhead on read p50: %+.4f ms (traced %.4f, untraced %.4f)"
                  % (w, p50[1] - p50[0], p50[1], p50[0]))
    print("selfcheck: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    daemon, driver = build()
    if args == ["--selfcheck"]:
        sys.exit(selfcheck(driver, daemon))
    sys.exit(run_driver(driver, daemon, args).returncode)


if __name__ == "__main__":
    main()
