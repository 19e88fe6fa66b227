#!/usr/bin/env python3
"""Run one workload of the correlation-sketch benchmark.

    python3 corrbench/run.py --workload query-rp --seed 1 --seconds 10 --trace 0

Run it from the root of the repository. The first run builds the library
sources and the benchmark with sbt (offline) into corrbench/target;
later runs reuse that build while no source file changed. Every timed run
launches the JVM straight from the prebuilt classpath with a pinned heap,
never through `sbt run`. The JVM prints notes and, as its last line, one
JSON object; this script passes them through and exits non-zero when the
build or any output check failed.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TARGET = BENCH / "target"
LIBRARY = ROOT / "src" / "main" / "scala"
WORKLOADS = ("ingest-tpch", "query-rp", "query-risk")
HEAP = "2g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Spark on Java 17 needs these packages opened; spark-submit adds them itself.
JAVA_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    )
] + ["-Djdk.reflect.useDirectMethodHandle=false"]


def fail(msg):
    print(f"corrbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_stamp():
    """Hash of every file the build reads, so an edit triggers a rebuild."""
    files = [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for base in (LIBRARY, BENCH / "src" / "main"):
        files += [p for p in base.rglob("*") if p.is_file()]
    h = hashlib.sha256()
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def spark_home():
    """SPARK_HOME, or else the Spark installation of a spark-submit on PATH."""
    if os.environ.get("SPARK_HOME"):
        return os.environ["SPARK_HOME"]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = Path(d) / "spark-submit"
        home = submit.resolve().parent.parent
        if submit.is_file() and (home / "jars").is_dir():
            return str(home)
    fail("no Spark installation found: set SPARK_HOME")


def build():
    if not LIBRARY.is_dir():
        fail(f"library sources not found at {LIBRARY.relative_to(ROOT)}; run from the repository root")
    stamp = source_stamp()
    stamp_file = TARGET / "build.stamp"
    classpath = TARGET / "classpath.txt"
    if classpath.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return classpath.read_text().strip()
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.repository.config="
                   + str(Path.home() / ".sbt" / "repositories") + " -Dsbt.offline=true -Xmx2g")
    try:
        subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "writeClasspath"],
                       cwd=BENCH, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S, check=True)
    except (subprocess.SubprocessError, OSError) as e:
        fail(f"build failed: {e}")
    stamp_file.write_text(stamp)
    return classpath.read_text().strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    classpath = build()
    work = TARGET / "run"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}", f"-Dcorrbench.workdir={work}",
           "-Dspark.driver.host=127.0.0.1", *JAVA_OPENS,
           "-cp", classpath, "corrbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
