#!/usr/bin/env python3
"""Run one workload of the WarpGate benchmark and print its result line.

    python3 perfbench/run.py --workload xs-systems --seed 1 --seconds 6 --trace 0

Builds the program and the benchmark's Scala code from source when a source
changed (see build.py), then runs the benchmark in one JVM with Spark in
local mode on every core. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the
per-layer metrics of a traced run, whose spans are written under
``.bench_build/perfbench/work/traces``. Progress and a readable copy of the
metrics go to standard error.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

import build

RUN_TIMEOUT_S = 170
HEAP = "4g"


def check_metrics(result: dict, trace: bool) -> None:
    """The metrics must be exactly those BENCHMARK.json names, in its units."""
    spec_file = build.ROOT / "BENCHMARK.json"
    if not spec_file.exists():
        return
    spec = json.loads(spec_file.read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"extra {extra}, unit mismatch {units}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    try:
        cp = build.ensure_built()
    except build.BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        return 2

    work = build.OUT / "work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = ["java", f"-Xmx{HEAP}", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dperfbench.work={work}",
           f"-Dlog4j2.configurationFile={build.BENCH_DIR / 'log4j2.properties'}",
           *build.JAVA_OPENS,
           "-cp", cp, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)

    def stop(*_):
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()

    signal.signal(signal.SIGTERM, lambda *a: (stop(), sys.exit(143)))
    signal.signal(signal.SIGINT, lambda *a: (stop(), sys.exit(130)))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop()
        print(f"[perfbench] run exceeded {RUN_TIMEOUT_S} s; stopped", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"[perfbench] benchmark exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 1

    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        print("[perfbench] no result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
        check_metrics(result, args.trace == "1")
    except (ValueError, KeyError, TypeError) as e:
        print(f"[perfbench] bad result line: {e}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
