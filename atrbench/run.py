#!/usr/bin/env python3
"""ATR anchor-selection benchmark: build on first use, then run one workload.

Run from the repository root:

    python3 atrbench/run.py --workload gas-facebook --seed 1 --seconds 5 --trace 0

Workloads: gas-facebook, baseplus-pokec, baselines-pokec (see
atrbench/README.md). The benchmark and the library sources under src/main
are compiled together by sbt into atrbench/target; the resulting classpath
is cached in .bench_build/atrbench and rebuilt when any source changes.
Each run is one fresh JVM; the last line of stdout is the JSON result.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
LIB_SRC = os.path.join(ROOT, "src", "main")
STATE = os.path.join(ROOT, ".bench_build", "atrbench")
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 170  # a run must end within 180 s, not counting a build

# module opens that spark-submit passes to a Java 17 Spark application
OPENS_FILE = os.path.join(HERE, "java-opens.txt")


def fail(msg, code=2):
    print(f"atrbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads, in a stable order."""
    roots = [os.path.join(HERE, "src"), LIB_SRC]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties"), OPENS_FILE]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def classpath(src_hash):
    """Classpath of the built benchmark; builds with sbt when stale."""
    cp_file = os.path.join(STATE, "classpath")
    stamp = os.path.join(STATE, "stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == src_hash:
                with open(cp_file) as fh:
                    return fh.read().strip()
    os.makedirs(STATE, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"]
    try:
        code, out = run_bounded(cmd, BUILD_TIMEOUT_S, cwd=HERE, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    lines = [l for l in out.splitlines() if l.strip()]
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if code != 0 or not lines or "classes" not in lines[-1]:
        fail(f"build failed (sbt exit {code})", 3)
    with open(cp_file, "w") as fh:
        fh.write(lines[-1].strip())
    with open(stamp, "w") as fh:
        fh.write(src_hash)
    return lines[-1].strip()


def commit_id(src_hash):
    git = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"{git}+src.{src_hash[:12]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(LIB_SRC, "scala", "repro")):
        fail(f"no library sources under {os.path.relpath(LIB_SRC, ROOT)}; run from the repository root")
    src_hash = source_hash()
    cp = classpath(src_hash)

    out_dir = os.path.join(STATE, "out")
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # A fixed heap with a fixed young generation: adaptive sizing made call
    # times drift by a quarter within one run.
    cmd = ["java", "-Xms1g", "-Xmx1g", "-Xmn600m", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy",
           "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}"]
    with open(OPENS_FILE) as fh:
        cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in fh.read().split()]
    cmd += ["-cp", cp, "atrbench.Main", "--workload", args.workload,
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out_dir, "--commit", commit_id(src_hash)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        code, out = run_bounded(cmd, RUN_LIMIT_S, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_LIMIT_S} s", 4)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark exited with {code}", code)
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(out)
        fail("benchmark printed no JSON result", 5)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
