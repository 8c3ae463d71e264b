#!/usr/bin/env python3
"""Run one workload of the Zidian benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run builds the program
and the benchmark from source with sbt (offline) into the checkout; later
runs reuse the build while the sources are unchanged. The benchmark then
runs in one JVM with one local-mode Spark session. Its standard output ends with
one JSON line: {"correct", "attempted", "failed", "metrics"}. Outside a
checkout that holds the program's sources it exits with status 2.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
TMP = OUT / "tmp"  # temporary files of sbt and the JVM stay in the checkout
MAIN = "perfbench.Main"
# Inputs of the build: the program's root build and sources, and ours.
SOURCES = [ROOT / "build.sbt", ROOT / "project" / "build.properties", ROOT / "src" / "main",
           ROOT / "jobs", HERE / "build.sbt", HERE / "project" / "build.properties", HERE / "src"]
# Spark's launcher passes these module options on JDK 17; a plain java
# command must pass them itself.
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
         "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
         "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
         "java.base/sun.security.action", "java.base/sun.util.calendar"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    for base in SOURCES:
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compile with sbt unless the last build used the same sources."""
    stamp, cp_file = OUT / "build.stamp", OUT / "classpath.txt"
    want = source_stamp()
    if stamp.exists() and cp_file.exists() and stamp.read_text() == want:
        return cp_file.read_text().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline=true" not in opts:
        opts += " -Dsbt.offline=true"
    env["SBT_OPTS"] = f"{opts} -Djava.io.tmpdir={TMP}".strip()
    try:
        proc = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                              cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 1)
    written = HERE / "target" / "runtime-classpath.txt"
    if proc.returncode != 0 or not written.exists():
        fail(f"build failed (sbt exit {proc.returncode})", 1)
    cp = written.read_text().strip()
    cp_file.write_text(cp)
    stamp.write_text(want)
    return cp


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources under {ROOT}: run from a source checkout")
    TMP.mkdir(parents=True, exist_ok=True)
    cp = build()
    cmd = ["java", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={TMP}", *[f"--add-opens={m}=ALL-UNNAMED" for m in OPENS],
           f"-Dspark.local.dir={OUT / 'spark-local'}", f"-Dspark.sql.warehouse.dir={OUT / 'warehouse'}",
           "-cp", cp, MAIN, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    if a.trace == "1":
        cmd += ["--trace-out", str(OUT / "traces" / f"{a.workload}-seed{a.seed}.jsonl")]
    proc = subprocess.Popen(cmd, cwd=OUT, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                print(last, flush=True)
            last = line.rstrip("\n")
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or last is None:
        fail(f"benchmark exited with {proc.returncode}", 1)
    result = json.loads(last)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
