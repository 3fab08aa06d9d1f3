"""Quick self-check of the benchmark (about half a minute).

Run from the repository root:

    python3 perfbench/selfcheck.py

Runs every workload at a tiny size in both modes and verifies the output
contract: the last stdout line is one JSON object with exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; its metric names and
units are exactly the ``end_to_end`` (``--trace 0``) or ``per_layer``
(``--trace 1``) lists of BENCHMARK.json; every value is a finite number; and
on the unchanged program every output check passes.  It also checks that
BENCHMARK.json agrees with the metric tables in run.py, that the benchmark
fails without printing a result when the program is missing, and that the
traced run fails when a function it hooks has been renamed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def check_result(stdout, expected, label):
    errors = []
    result = json.loads(stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{label}: attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{label}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name, {}).get("unit") \
                or isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"{label}: bad metric {name}: {m}")
    return errors


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    errors = []
    if {n: (m["unit"], m["better"]) for n, m in end_to_end.items()} != run.END_TO_END:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if {n: (m["unit"], m["better"]) for n, m in per_layer.items()} != run.per_layer_spec():
        errors.append("BENCHMARK.json per_layer differs from run.per_layer_spec()")
    if {w["name"] for w in bench["workloads"]} != set(workloads.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in workloads.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = f"{name} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                capture_output=True, text=True, timeout=300,
            )
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            errors += check_result(proc.stdout, expected, label)
            print(f"ok {label}")

    # without the program the benchmark must fail and print no result
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".bench_out")) as empty:
        shutil.copytree(HERE, os.path.join(empty, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(root, "BENCHMARK.json"), empty)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "campaign-n7", "--seconds", "1"],
            cwd=empty, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
        else:
            print("ok without src/: exit", proc.returncode)

        # a function the tracer hooks is renamed: the traced run must fail
        shutil.copytree(os.path.join(root, "src"), os.path.join(empty, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        module = os.path.join(empty, "src", "beamalloc", "experiment.py")
        with open(module, encoding="utf-8") as fh:
            text = fh.read()
        with open(module, "w", encoding="utf-8") as fh:
            fh.write(text.replace("_write_aggregate", "_write_aggregate_renamed"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "campaign-n7", "--seconds", "1",
             "--trace", "1", "--tiny"],
            cwd=empty, capture_output=True, text=True, timeout=300,
        )
        if proc.returncode != 1 or "_write_aggregate" not in proc.stdout:
            errors.append(f"renamed hook: exit {proc.returncode}, stdout {proc.stdout[-500:]!r}")
        else:
            print("ok renamed hook: exit", proc.returncode)

    for e in errors:
        print("FAIL " + e)
    print("selfcheck " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
