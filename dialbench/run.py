#!/usr/bin/env python3
"""Run one workload of the DIALITE benchmark and print its metrics.

    python3 dialbench/run.py --workload paper-demo --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The first run builds the benchmark and
the repository's main sources with sbt (offline) into `.bench_build/`; later
runs reuse that build while the sources are unchanged. The JVM then runs one
workload (see dialbench/METRICS.md) and the last line of stdout is the JSON
result. `--wrong-expected` swaps one reference result for a wrong one, to
show that a mismatch is counted as a failed op.
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
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
SOURCES = ROOT / "src" / "main" / "scala" / "repro"
WORKLOADS = ("paper-demo", "lake-pipeline", "tpch-reintegrate")
RUN_LIMIT_S = 175      # a run that is not a first build must end within this
BUILD_LIMIT_S = 840    # the first run of a checkout also builds
HEAP = "2g"

# Spark on Java 17 needs these modules opened (as spark-submit does).
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
              "java.net", "java.nio", "java.util", "java.util.concurrent",
              "java.util.concurrent.atomic", "sun.nio.ch", "sun.nio.cs",
              "sun.security.action", "sun.util.calendar")
]


def fail(msg, code=2):
    print(f"dialbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-1 over the main sources and the benchmark's own build inputs."""
    h = hashlib.sha1()
    files = sorted(p for d in (SOURCES, BENCH / "src") for p in d.rglob("*") if p.is_file())
    files += [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_bounded(cmd, limit, **kw):
    """Runs `cmd` in its own process group; kills the group after `limit` s."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = p.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"{cmd[0]} did not finish within {limit:.0f} s", 3)
    return p.returncode, out


def build(digest):
    """Compiles with sbt and caches the runtime classpath for `digest`."""
    cp_file = BUILD / f"classpath-{digest}.txt"
    if cp_file.exists():
        return cp_file.read_text().strip(), False
    tmp = BUILD / "sbt-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    # sbt keeps its global state inside the checkout too.
    env["SBT_OPTS"] = " ".join([
        env.get("SBT_OPTS", ""), "-Dsbt.offline=true", "-Dsbt.server.autostart=false",
        f"-Dsbt.global.base={BUILD / 'sbt-global'}", f"-Djava.io.tmpdir={tmp}",
        "-XX:-UsePerfData", "-Xmx2g"]).strip()
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
         "export Runtime/fullClasspath"],
        BUILD_LIMIT_S, cwd=BENCH, env=env, stdout=subprocess.PIPE,
        stderr=sys.stderr, text=True)
    sys.stderr.write(out)
    lines = [l for l in out.splitlines() if ".jar" in l and not l.startswith("[")]
    if code != 0 or not lines:
        fail("build failed", 4)
    BUILD.mkdir(parents=True, exist_ok=True)
    tmp = cp_file.with_suffix(".tmp")
    tmp.write_text(lines[-1])
    tmp.replace(cp_file)
    return lines[-1], True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args()

    if not SOURCES.is_dir():
        fail(f"no program sources at {SOURCES.relative_to(ROOT)}; "
             "run from a full checkout of the repository")
    started = time.monotonic()
    digest = source_digest()
    classpath, built = build(digest)

    work = BUILD / f"run-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(work / "spark-local"))
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    spans = BUILD / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    cmd = [str(java), f"-Xms{HEAP}", f"-Xmx{HEAP}", f"-Djava.io.tmpdir={tmp}", "-XX:-UsePerfData",
           *JAVA_OPENS, "-cp", classpath, "dialbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--spans-out", str(spans),
           "--source-sha", digest, "--git-sha", git_sha()]
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    limit = RUN_LIMIT_S if built else RUN_LIMIT_S - (time.monotonic() - started)
    try:
        code, out = run_bounded(cmd, limit, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.rstrip("\n").splitlines()
    if code != 0 or not lines:
        fail(f"benchmark exited with code {code}", 5)
    if set(json.loads(lines[-1])) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 5)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
