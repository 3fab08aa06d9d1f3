"""beamalloc benchmark: one workload per call, closed loop, output-checked.

Run from the repository root:

    python3 perfbench/run.py --workload campaign-n7 --seed 0 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs a fixed amount of the same work twice per unit, untraced and then traced,
checks that both produce the same outputs, and reports per-layer spans and
counts plus the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines above it print every metric with its unit and the
provenance of the run.  Exit status: 0 when every output check passed, 1 when
one failed, 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calibration
import tracing
import workloads

# Printed by every --trace 0 run and gated in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed for information where the workload has them ("n/a" elsewhere).
REPORT_ONLY = {
    "labels_per_s": ("1/s", "higher"),
    "train_s_per_epoch": ("s", "lower"),
    "eval_model_ms_per_sample": ("ms", "lower"),
    "eval_surrogate_ms_per_sample": ("ms", "lower"),
    "surrogate_satisfaction_pct": ("%", "higher"),
    "failed_share": ("share", "lower"),
}

# Spans that run on every workload get their times in the per-layer result;
# the others report their call count there and their times in result.json.
TIMED_SPANS = (
    "cli.main", "experiment.parse_config", "experiment.make_trial", "channel.drop_users",
    "channel.build_channel", "precoding.make_zf", "precoding.make_rzf",
    "feasibility.build_demand_system", "feasibility.check_feasible",
    "waterfill.waterfill", "allocators.joint_opt_zf", "allocators.joint_opt_rzf",
    "metrics.rates",
)
PARENT_SPANS = ("experiment.make_trial", "allocators.joint_opt_zf", "allocators.joint_opt_rzf")
# cli.main wraps the untraced reference job, so it has no layers below it
SELF_TIME_LAYERS = tuple(layer for layer in tracing.LAYERS if layer not in ("cli", "surrogate"))
COUNTS = {
    "experiment.make_trial.redraws": ("count", "lower"),
    "experiment.bytes_written": ("B", "lower"),
    "feasibility.check_feasible.feasible_share": ("share", "higher"),
    "allocators.iterations": ("count", "lower"),
    "allocators.not_converged": ("count", "lower"),
    "allocators.congested_share": ("share", "lower"),
    "surrogate.train.epochs": ("count", "lower"),
    "surrogate.predict_powers.fallbacks": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}
SETUP_REPEATS = 10
# Reference time of calibration.SETUP_PROBE (its median on the 2-core Xeon VM
# the benchmark was written on, unpinned); setup_s is rescaled to it.
SETUP_PROBE_REFERENCE_S = 0.55
# One BLAS thread: on the shared 2-core VM, waking a second OpenBLAS thread for
# the program's small matrices costs more than it saves (N=37 blocks ran 30%
# slower with 2 threads) and makes run times erratic.  A caller's setting wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from beamalloc.experiment import parse_config
parse_config(sys.argv[2])
print(repr(time.monotonic()))
"""


def per_layer_spec():
    """name -> (unit, better) for every --trace 1 metric, in output order."""
    spec = {f"{s}.calls": ("count", "lower") for s in tracing.SPAN_NAMES}
    for s in TIMED_SPANS:
        spec[f"{s}.busy_s"] = ("s", "lower")
        spec[f"{s}.p50_us"] = ("us", "lower")
        spec[f"{s}.p99_us"] = ("us", "lower")
    for s in PARENT_SPANS:
        spec[f"{s}.self_s"] = ("s", "lower")
    for layer in SELF_TIME_LAYERS:
        spec[f"{layer}.self_s"] = ("s", "lower")
    spec.update(COUNTS)
    return spec


def measure_setup(src, cfg_path, repeats):
    """Set-up time at the reference machine speed, and the measured set-up
    times and set-up/probe ratios it is made from.

    Each repeat times two fresh interpreters, in alternating order: the
    program's set-up (import beamalloc, parse the workload config) and the
    set-up probe (import the program's third-party dependencies), each from
    process start until it prints.  One unmeasured warm-up of each fills the
    bytecode cache, which users also have after their first run.  The probe
    does the same kind of work and runs next to each sample in time, so the
    median of their ratios follows the program and not the machine's drift."""

    def child(*argv):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, "-c", *argv], check=True, capture_output=True, text=True, timeout=120,
        )
        return float(out.stdout.strip().splitlines()[-1]) - start

    setup, probe = (_SETUP_CHILD, src, cfg_path), (calibration.SETUP_PROBE,)
    child(*setup)
    child(*probe)
    own, ratios = [], []
    for i in range(repeats):
        if i % 2:
            ref = child(*probe)
            own.append(child(*setup))
        else:
            own.append(child(*setup))
            ref = child(*probe)
        ratios.append(own[-1] / ref)
    return SETUP_PROBE_REFERENCE_S * statistics.median(ratios), own, ratios


def pin_cpu():
    """Pin this process, and so the calibration worker and set-up children it
    starts, to one CPU.  On a VM whose cores run at different and changing
    speeds, the machine-speed probes only follow the jobs when they share
    their CPU.  The workloads are single-process with one BLAS thread, so
    pinning takes no parallelism from them.  Returns the CPU, or None."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def blas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in libs if p.startswith("/")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads", "MKL_Get_Max_Threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def provenance(root, w, args, nproc, pinned_cpu):
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", root, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "beamalloc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "pinned_cpu": pinned_cpu,
        "workload": {**w.__dict__, "qos_sweep": workloads.SWEEP},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def per_layer_values(tracer, totals):
    stats = tracer.span_stats()
    counts = tracer.counts
    values = {f"{s}.calls": stats[s]["calls"] for s in tracing.SPAN_NAMES}
    for s in TIMED_SPANS:
        for field in ("busy_s", "p50_us", "p99_us"):
            values[f"{s}.{field}"] = stats[s][field]
    for s in PARENT_SPANS:
        values[f"{s}.self_s"] = stats[s]["self_s"]
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_s"] = sum(
            v["self_s"] for name, v in stats.items() if name.startswith(layer + ".")
        )
    n_checks = stats["feasibility.check_feasible"]["calls"]
    values.update({
        "experiment.make_trial.redraws": counts["experiment.make_trial.redraws"],
        "experiment.bytes_written": totals["bytes_written"],
        "feasibility.check_feasible.feasible_share":
            counts["feasibility.check_feasible.feasible"] / n_checks if n_checks else 0.0,
        "allocators.iterations": counts["allocators.iterations"],
        "allocators.not_converged": counts["allocators.not_converged"],
        "allocators.congested_share":
            counts["allocators.congested"] / counts["allocators.calls"]
            if counts["allocators.calls"] else 0.0,
        "surrogate.train.epochs": counts["surrogate.train.epochs"],
        "surrogate.predict_powers.fallbacks": counts["surrogate.predict_powers.fallbacks"],
        "trace.overhead_pct":
            100.0 * (totals["traced_s"] / totals["plain_s"] - 1.0) if totals["plain_s"] else 0.0,
    })
    return values, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at a tiny size (benchmark self-check only)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "beamalloc", "__init__.py")):
        print(f"perfbench: no src/beamalloc under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    pinned_cpu = pin_cpu()
    sys.path.insert(0, src)
    import beamalloc
    from beamalloc import experiment as ex

    if os.path.dirname(os.path.abspath(beamalloc.__file__)) != os.path.join(src, "beamalloc"):
        print(f"perfbench: imported beamalloc from {beamalloc.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = workloads.tiny(w)
    work_dir = os.path.join(root, ".bench_out", f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cfg_path = os.path.join(work_dir, "workload.cfg")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(w.config_text(os.path.join(work_dir, "out")))

    outcome = workloads.Outcome()
    tracer = tracing.Tracer()
    if args.trace:
        cfg = tracer.wrap("experiment.parse_config", ex.parse_config)(cfg_path)
    else:
        setup, setup_s, setup_ratios = measure_setup(
            src, cfg_path, 1 if args.tiny else SETUP_REPEATS)
        cfg = ex.parse_config(cfg_path)

    from beamalloc import cli

    reference = (workloads.campaign_reference if w.kind == "campaign"
                 else workloads.surrogate_reference)
    cli_main = cli.main
    if args.trace:
        cli.main = tracer.wrap("cli.main", cli_main)
    try:
        reference(cfg, w, os.path.join(work_dir, "reference"), outcome)
    finally:
        cli.main = cli_main

    if args.trace:
        trace = workloads.trace_campaign if w.kind == "campaign" else workloads.trace_surrogate
        totals = trace(ex, cfg, w, args.seed, args.seconds, work_dir, tracer, outcome)
        values, stats = per_layer_values(tracer, totals)
        # a span that stops being reached would describe no work at all
        silent = [s for s in TIMED_SPANS if stats[s]["calls"] == 0]
        if silent:
            outcome.add(0, 1, "timed spans recorded no call: " + ", ".join(silent))
        spec = per_layer_spec()
        tracer.write_spans(os.path.join(work_dir, "spans.txt"))
        extra = {"spans": stats, "totals": totals}
    else:
        loop = (workloads.run_campaign_workload if w.kind == "campaign"
                else workloads.run_surrogate_workload)
        with calibration.Calibration() as calib:
            run = loop(ex, cfg, w, args.seed, args.seconds, work_dir, outcome, calib)
        metrics = {"setup_s": setup, **run.pop("metrics")}
        run["raw"]["setup_s"] = statistics.median(setup_s)
        extra = {**run, "setup_speed": setup / run["raw"]["setup_s"],
                 "setup_samples_s": setup_s, "setup_probe_ratios": setup_ratios}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["failed_share"] = outcome.failed / outcome.attempted if outcome.attempted else 1.0
        spec = {**END_TO_END, **REPORT_ONLY}
        values = metrics

    correct = outcome.failed == 0 and outcome.attempted > 0 and all(
        name in values for name in (spec if args.trace else END_TO_END)
    )
    prov = provenance(root, w, args, nproc, pinned_cpu)
    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (unit, better) in spec.items():
        shown = f"{values[name]:.6g} {unit}" if name in values else "n/a"
        print(f"  {name:<48} {shown}  ({better} is better)")
    if not args.trace:
        print(f"  machine speed {extra['machine_speed']:.4f} (jobs), {extra['setup_speed']:.4f}"
              " (set-up) x reference; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in extra["raw"].items()))
    else:
        print("  span                                 calls     busy_s     self_s     p50_us     p99_us")
        for name, st in stats.items():
            print(f"  {name:<34} {st['calls']:>7} {st['busy_s']:>10.4f} {st['self_s']:>10.4f}"
                  f" {st['p50_us']:>10.1f} {st['p99_us']:>10.1f}")
    print(f"  operations attempted {outcome.attempted}, failed {outcome.failed}")
    for message in outcome.messages:
        print("  check: " + message.replace("\n", "\n    "))
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "correct": correct, "attempted": outcome.attempted,
                   "failed": outcome.failed, "metrics": values, **extra,
                   "messages": outcome.messages}, fh, indent=1, sort_keys=True)
    gated = spec if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": gated[name][0]}
                    for name in gated if name in values},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
