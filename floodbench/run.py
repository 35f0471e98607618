#!/usr/bin/env python3
"""Run one workload of the Flood benchmark and print its result.

    python3 floodbench/run.py --workload osm-olap [--seed 1] [--seconds 20] [--trace 0]

Run it from the root of the repository. The first run builds the benchmark
(sbt, offline) into .bench_build/; later runs reuse the build while the
sources are unchanged. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. Every run also writes
its full record (data checksum, pinned and learned layouts, sample counts)
to .bench_build/results/, and a traced run (--trace 1) its spans.
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
WORKLOADS = ["osm-olap", "tpch-scan"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Java 17 module opens that Spark needs (as in the repository's build.sbt).
ADD_OPENS = [
    f"--add-opens={m}=ALL-UNNAMED"
    for m in [
        "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
        "java.base/java.io", "java.base/java.net", "java.base/java.nio",
        "java.base/java.util", "java.base/java.util.concurrent",
        "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
        "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
        "java.base/sun.util.calendar",
    ]
]


def fail(msg):
    print(f"floodbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a stable order."""
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (ROOT / "src" / "main" / "scala", HERE / "src" / "main" / "scala"):
        files += sorted(p for p in d.rglob("*.scala") if p.is_file())
    return files


def spark_home():
    """The Spark distribution whose spark-submit is on PATH (it has jars/)."""
    for d in os.environ.get("PATH", "").split(os.pathsep):
        bin_dir = Path(d)
        if (bin_dir / "spark-submit").is_file() and (bin_dir.parent / "jars").is_dir():
            return str(bin_dir.parent)
    fail("set SPARK_HOME to a Spark distribution (no spark-submit with jars/ on PATH)")


def run_group(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd[:3])} ...")
    return proc.returncode, out


def build():
    """Compile with sbt unless the sources match the last build; return the classpath."""
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail(f"no program sources under {ROOT / 'src/main/scala/repro'}; run from a full checkout")
    digest = hashlib.sha256()
    for p in sources():
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    stamp = digest.hexdigest()
    cp_file, stamp_file = BUILD / "classpath.txt", BUILD / "stamp.txt"
    if cp_file.exists() and stamp_file.exists() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    BUILD.mkdir(exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    if "SPARK_HOME" not in env:
        env["SPARK_HOME"] = spark_home()
    env["SBT_OPTS"] = "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g -XX:-UsePerfData"
    code, out = run_group(
        ["sbt", "--batch", "--no-server", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, text=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out)
        fail(f"build failed (sbt exit code {code})")
    cp_file.write_text(lines[-1].strip())
    stamp_file.write_text(stamp)
    return lines[-1].strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="workload seed: data and queries (default 1)")
    ap.add_argument("--seconds", type=float, default=20, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: traced run printing the per-layer metrics")
    args = ap.parse_args()

    cp = build()
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-XX:-UsePerfData", *ADD_OPENS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           "-cp", cp, "floodbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(BUILD / "results")]
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out if code == 0 else "".join(l + "\n" for l in lines if not l.startswith("{")))
        fail(f"benchmark exited with code {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
