"""Benchmark workloads, their closed measurement loops and output checks.

Every workload drives the public CLI-path functions of ``beamalloc``
(``parse_config``, ``run_campaign``, ``gen_dataset``, ``train_models``,
``eval_model``) one job after another in a single process; the reference
job that each run checks first goes through the ``beamalloc`` command-line
entry point (``cli.main``) instead.  Inputs are a
pure function of the benchmark seed: seed ``s`` draws trial seeds from
``1 + s * SEED_STRIDE`` upward, so seed 0 reproduces the program's default
``base_seed = 1`` and is the seed the stored reference was made with.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, replace

SEED_STRIDE = 100_000
REL_TOL = 1e-9
BUDGET_REL_TOL = 1e-9
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

SWEEP = "200, 400, 600, 800, 1000, 1200"

@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "campaign" | "surrogate"
    n: int  # N = K
    atmospherics: bool
    block: int  # campaign: trials per run_campaign call; surrogate: n_train
    n_test: int = 0
    epochs: int = 0
    ref_block: int = 0  # reference job at seed 0 (campaign trials / n_train)
    ref_test: int = 0
    ref_epochs: int = 0
    trace_seconds_per_unit: float = 1.0  # sizes the fixed traced work

    def config_text(self, out_dir: str) -> str:
        lines = [
            f"system.n_beams = {self.n}",
            f"system.n_users = {self.n}",
            f"system.atmospherics = {'true' if self.atmospherics else 'false'}",
            f"qos.sweep = {SWEEP}",
            "qos.omega_frac = 0.02",
            "strategies = equal, sumopt, satisset, joint",
            "precoders = zf, rzf",
            f"n_trials = {self.block}",
            "base_seed = 1",
            f"output.dir = {out_dir}",
            "output.record_timing = false",
        ]
        if self.kind == "surrogate":
            lines += [
                f"surrogate.n_train = {self.block}",
                f"surrogate.n_test = {self.n_test}",
                "surrogate.xi_mbps = 250",
                "surrogate.hidden = 128, 64",
                f"surrogate.epochs = {self.epochs}",
                # no early stopping: every pass trains the same number of epochs
                f"surrogate.patience = {self.epochs}",
            ]
        return "\n".join(lines) + "\n"


# Why each workload exists is recorded in BENCHMARK.json.  Sizes keep one job
# (a campaign block, or one gen-data -> train -> eval pass) between about 0.2 s
# and 1 s on a 2-core VM so that a run holds many jobs and reports their median.
WORKLOADS = {
    "campaign-n7": Workload(
        "campaign-n7", "campaign", 7, False, block=20, ref_block=5,
        trace_seconds_per_unit=1.5,
    ),
    "campaign-n37-atmos": Workload(
        "campaign-n37-atmos", "campaign", 37, True, block=8, ref_block=2,
        trace_seconds_per_unit=1.5,
    ),
    "surrogate-n7": Workload(
        "surrogate-n7", "surrogate", 7, False, block=150, n_test=75, epochs=20,
        ref_block=40, ref_test=50, ref_epochs=2, trace_seconds_per_unit=3.0,
    ),
}

TINY = {
    "campaign-n7": dict(block=2, ref_block=5),
    "campaign-n37-atmos": dict(block=1, ref_block=2),
    "surrogate-n7": dict(block=20, n_test=10, epochs=2),
}


def tiny(w: Workload) -> Workload:
    """Same workload at a size that runs in about a second (self-check)."""
    return Workload(**{**w.__dict__, **TINY[w.name], "trace_seconds_per_unit": 1e9})


class Outcome:
    """Operations attempted and failed (trials, labels, eval samples)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, attempted, failed, message=None):
        self.attempted += attempted
        self.failed += failed
        if message and len(self.messages) < 50:
            self.messages.append(message)


# ---------------------------------------------------------------------------
# file comparison helpers

def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _is_int(text):
    return text.lstrip("-").isdigit()


def same_value(a: str, b: str) -> bool:
    """Integers and strings exactly, other numbers within REL_TOL relative."""
    if a == b:
        return True
    if _is_int(a) and _is_int(b):
        return False
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare_csv(path, ref_path, skip_columns=()):
    """Row-wise comparison; returns the indices of rows that differ (a missing
    or extra row counts as differing) and a message, or ([], None)."""
    header, rows = read_csv(path)
    ref_header, ref_rows = read_csv(ref_path)
    if header != ref_header:
        return list(range(max(len(rows), len(ref_rows)))), f"{path}: header {header} != {ref_header}"
    keep = [i for i, h in enumerate(header) if h not in skip_columns]
    bad = [
        i for i in range(max(len(rows), len(ref_rows)))
        if i >= len(rows) or i >= len(ref_rows)
        or not all(same_value(rows[i][j], ref_rows[i][j]) for j in keep)
    ]
    return bad, (f"{path}: {len(bad)} rows differ from {ref_path}" if bad else None)


# ---------------------------------------------------------------------------
# campaign

def campaign_cells(cfg):
    return [
        (pk, strategy, xi)
        for pk in cfg.precoders
        for xi in cfg.qos_sweep
        for strategy in cfg.strategies
    ]


def check_campaign(out_dir, cfg, base_seed, n_trials):
    """Structural check of one run_campaign output against its own inputs.
    Returns the set of trial indices whose rows (or cells) are wrong and a
    message, or an empty set and None."""
    k = cfg.system.n_users
    cells = campaign_cells(cfg)
    header, rows = read_csv(os.path.join(out_dir, "per_trial.csv"))
    bad = set()
    if len(rows) != n_trials * len(cells):
        return set(range(n_trials)), f"per_trial.csv has {len(rows)} rows"
    col = {h: i for i, h in enumerate(header)}
    sums = {}
    for i, row in enumerate(rows):
        t, cell = divmod(i, len(cells))
        pk, strategy, xi = cells[cell]
        try:
            n_sat = int(row[col["n_satisfied"]])
            congested = int(row[col["congested"]])
            values = [float(row[col[c]]) for c in ("sum_rate_mbps", "jain", "lambda_obj")]
            ok = (
                int(row[col["trial"]]) == t
                and int(row[col["seed"]]) == base_seed + t
                and row[col["precoder"]] == pk
                and row[col["strategy"]] == strategy
                and float(row[col["xi_mbps"]]) == xi
                and 0 <= n_sat <= k
                and congested == int(n_sat < k)
                and all(math.isfinite(v) for v in values)
                and values[0] > 0
                and 0 < values[1] <= 1 + 1e-12
                and float(row[col["runtime_ms"]]) == 0.0
            )
        except (KeyError, ValueError, IndexError):
            ok = False
        if not ok:
            bad.add(t)
            continue
        acc = sums.setdefault((pk, strategy, xi), [0, 0.0, 0.0, 0.0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += congested
        acc[2] += n_sat / k
        acc[3] += values[0]
        acc[4] += values[1]
        acc[5] += values[2]
    # the aggregate must be the per-cell means of the per-trial rows
    header, agg = read_csv(os.path.join(out_dir, "aggregate.csv"))
    col = {h: i for i, h in enumerate(header)}
    names = ("n_trials", "congestion_prob", "satisfaction_prob", "mean_sum_rate_mbps",
             "mean_jain", "mean_lambda")
    agg_ok = len(agg) == len(cells) and not bad
    for row in agg if agg_ok else ():
        key = (row[col["precoder"]], row[col["strategy"]], float(row[col["xi_mbps"]]))
        acc = sums.get(key)
        if acc is None or int(row[col["n_trials"]]) != acc[0]:
            agg_ok = False
            break
        expect = [acc[0]] + [v / acc[0] for v in acc[1:]]
        got = [float(row[col[c]]) for c in names]
        split = float(row[col["mean_sum_rate_satisfied_mbps"]]) + float(
            row[col["mean_sum_rate_unsatisfied_mbps"]]
        )
        # per-trial values are printed with 10 significant digits
        if not all(math.isclose(g, e, rel_tol=1e-8, abs_tol=1e-12) for g, e in zip(got, expect)) \
                or not math.isclose(split, got[3], rel_tol=1e-8):
            agg_ok = False
            break
    if not agg_ok:
        return set(range(n_trials)), "aggregate.csv does not match per_trial.csv"
    return bad, (f"{len(bad)} trials with malformed rows" if bad else None)


def run_cli(argv, outcome):
    """Run one ``beamalloc`` command through the CLI entry point, as a user
    would; returns its standard output, or None (counted by the caller) when
    it exits non-zero."""
    from beamalloc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        outcome.messages.append(f"beamalloc {' '.join(argv)} exited {code}: {err.getvalue()}")
        return None
    return out.getvalue()


def reference_config(w, out_dir):
    """Config file of the workload's reference job (seed 0, reference size)."""
    ref = replace(w, block=w.ref_block, n_test=w.ref_test, epochs=w.ref_epochs)
    path = os.path.join(out_dir, "reference.cfg")
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ref.config_text(out_dir))
    return path


def campaign_reference(cfg, w, out_dir, outcome):
    """Run the stored reference job (seed 0) through ``beamalloc run`` and
    compare its CSVs with the stored reference."""
    ref = os.path.join(REFERENCE_DIR, w.name)
    try:
        if run_cli(["run", "--config", reference_config(w, out_dir)], outcome) is None:
            outcome.add(w.ref_block, w.ref_block)
            return
        bad_rows, msg = compare_csv(
            os.path.join(out_dir, "per_trial.csv"), os.path.join(ref, "per_trial.csv")
        )
        bad_cells, msg2 = compare_csv(
            os.path.join(out_dir, "aggregate.csv"), os.path.join(ref, "aggregate.csv")
        )
    except Exception:  # noqa: BLE001 - any failure of the program is a failed trial
        outcome.add(w.ref_block, w.ref_block, "reference campaign raised:\n" + traceback.format_exc())
        return
    per_trial = len(campaign_cells(cfg))
    bad = {i // per_trial for i in bad_rows}
    if bad_cells:
        bad = set(range(w.ref_block))
    outcome.add(w.ref_block, len(bad), msg or msg2)


def campaign_block(ex, cfg, base_seed, n_trials, out_dir):
    cfg.base_seed, cfg.n_trials, cfg.out_dir = base_seed, n_trials, out_dir
    t0 = time.perf_counter()
    ex.run_campaign(cfg)
    return time.perf_counter() - t0


def run_campaign_workload(ex, cfg, w, seed, seconds, work_dir, outcome, calib):
    """Closed loop of run_campaign blocks for `seconds`; block b covers trials
    base + b*block ... base + (b+1)*block - 1."""
    base = 1 + seed * SEED_STRIDE
    block_dir = os.path.join(work_dir, "block")
    jobs, speeds = [], []  # wall seconds per block; machine speed before it
    start = time.perf_counter()
    b = 0
    while b == 0 or time.perf_counter() - start < seconds:
        first = base + b * w.block
        b += 1
        n_samples = len(calib.samples)
        calib.sample()
        try:
            dt = campaign_block(ex, cfg, first, w.block, block_dir)
            bad, msg = check_campaign(block_dir, cfg, first, w.block)
        except Exception:  # noqa: BLE001
            outcome.add(w.block, w.block, f"block at seed {first} raised:\n" + traceback.format_exc())
            continue
        outcome.add(w.block, len(bad), msg)
        jobs.append(dt)
        speeds.append(calib.speed_of(n_samples))

    def summary(scales):
        t = [dt * scale for dt, scale in zip(jobs, scales)]
        return {
            "trials_per_s": statistics.median(w.block / x for x in t),
            "pipeline_s": statistics.median(t),
        }

    return summarise(summary, jobs, speeds, calib)


def summarise(summary, job_s, speeds, calib):
    """Figures of a run at the reference machine speed and as measured.
    `summary(scales)` builds them from the time of job i multiplied by
    `scales[i]`; each job is scaled by the machine speed measured right
    before it, so drift within a run cancels job by job.  The times of each
    job and the calibration samples are kept for result.json."""
    out = {"jobs": len(job_s), "job_s": job_s, "job_speed": speeds,
           "calibration_s": calib.samples}
    if not job_s:
        return {"metrics": {}, "raw": {}, "machine_speed": 0.0, **out}
    return {"metrics": summary(speeds), "raw": summary([1.0] * len(job_s)),
            "machine_speed": statistics.median(speeds), **out}


# ---------------------------------------------------------------------------
# surrogate pipeline

def read_eval(path):
    header, rows = read_csv(path)
    col = {h: i for i, h in enumerate(header)}
    return {
        row[col["method"]]: {h: row[i] for h, i in col.items()} for row in rows
    }


def check_dataset(path, cfg, base_seed):
    """Every label: right seed and strategy, finite gains, p >= 0 and the
    budget used exactly (joint allocators always spend P_max).  Returns the
    number of bad labels."""
    k, n = cfg.system.n_users, cfg.system.n_beams
    p_max = cfg.system.p_max_w
    expected = [
        (base_seed + i, f"joint_{pk}")
        for i in range(cfg.surrogate.n_train + cfg.surrogate.n_test)
        for pk in cfg.precoders
    ]
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    bad = abs(len(lines) - len(expected))
    for rec, (s, strategy) in zip(lines, expected):
        p, x = rec["p_star"], rec["x"]
        ok = (
            rec["seed"] == s and rec["strategy"] == strategy
            and len(p) == k and len(x) == k * n
            and all(math.isfinite(v) for v in x)
            and min(p) >= 0.0
            and abs(sum(p) - p_max) <= BUDGET_REL_TOL * p_max
        )
        bad += not ok
    return bad


def surrogate_pass(ex, cfg, base_seed, out_dir, probe=lambda: None):
    """gen-data -> train -> eval (every trained model), as the CLI runs them;
    `probe` runs untimed before each stage."""
    cfg.base_seed, cfg.out_dir = base_seed, out_dir
    out = {}
    probe()
    t0 = time.perf_counter()
    ex.gen_dataset(cfg)
    out["gen"] = time.perf_counter() - t0
    probe()
    t0 = time.perf_counter()
    trained = ex.train_models(cfg)
    out["train"] = time.perf_counter() - t0
    probe()
    t0 = time.perf_counter()
    out["evals"] = [ex.eval_model(cfg, trained[s][0]) for s in sorted(trained)]
    out["eval"] = time.perf_counter() - t0
    out["total"] = out["gen"] + out["train"] + out["eval"]
    out["epochs"] = sum(len(report.train_losses) for _, report in trained.values())
    return out


def check_surrogate(cfg, base_seed, out_dir, timing):
    """Checks the dataset, the epochs trained (when `timing` has them) and the
    eval CSVs of one pass.  Returns (failed labels, failed eval samples,
    message, eval rows)."""
    surr = cfg.surrogate
    n_models = len(cfg.precoders)
    bad_labels = check_dataset(os.path.join(out_dir, surr.dataset_path), cfg, base_seed)
    rows = {}
    bad_eval = 0
    if timing.get("epochs", surr.epochs * n_models) != surr.epochs * n_models:
        bad_eval = surr.n_test * n_models
    for path in timing["evals"]:
        r = read_eval(path)
        rows.update(r)
        try:
            ok = len(r) == 2 and all(
                float(v["qos"]) == surr.xi_mbps
                and float(v["time_ms"]) > 0
                and float(v["sum_rate"]) > 0
                and 0 <= float(v["satisfaction_pct"]) <= 100
                for v in r.values()
            )
        except (KeyError, ValueError):
            ok = False
        bad_eval += 0 if ok else surr.n_test
    if len(timing["evals"]) != n_models:
        bad_eval = surr.n_test * n_models
    msg = f"{bad_labels} bad labels, {bad_eval} bad eval samples" if bad_labels or bad_eval else None
    return bad_labels, bad_eval, msg, rows


def surrogate_ops(cfg):
    surr = cfg.surrogate
    n_models = len(cfg.precoders)
    return (surr.n_train + surr.n_test) * n_models, surr.n_test * n_models


def set_surrogate_size(cfg, n_train, n_test, epochs):
    cfg.surrogate.n_train, cfg.surrogate.n_test = n_train, n_test
    cfg.surrogate.epochs = cfg.surrogate.patience = epochs


def surrogate_reference(cfg, w, out_dir, outcome):
    """Small gen-data -> train -> eval at seed 0 through the ``beamalloc``
    commands; the model rows of each eval CSV (solver output, no training
    involved) must match the stored reference."""
    saved = (cfg.surrogate.n_train, cfg.surrogate.n_test, cfg.surrogate.epochs)
    set_surrogate_size(cfg, w.ref_block, w.ref_test, w.ref_epochs)
    labels, samples = surrogate_ops(cfg)
    try:
        ref_cfg = reference_config(w, out_dir)
        ran = run_cli(["gen-data", "--config", ref_cfg], outcome) is not None
        trained = run_cli(["train", "--config", ref_cfg], outcome) if ran else None
        # `beamalloc train` prints "<strategy>: <model path> (best epoch ...)"
        models = [line.split(": ", 1)[1].rsplit(" (", 1)[0]
                  for line in (trained or "").splitlines()]
        evals = []
        for model in models:
            printed = run_cli(["eval", "--model", model, "--config", ref_cfg], outcome)
            if printed is not None:
                evals.append(printed.strip().removeprefix("wrote "))
        bad_labels, bad_eval, msg, _ = check_surrogate(cfg, 1, out_dir, {"evals": evals})
        for path in evals:
            name = os.path.basename(path)
            ref_rows = read_eval(os.path.join(REFERENCE_DIR, w.name, name))
            got = read_eval(path)
            for method, ref in ref_rows.items():
                if not method.startswith("model_"):
                    continue
                row = got.get(method, {})
                if not all(same_value(row.get(c, ""), ref[c])
                           for c in ("method", "qos", "sum_rate", "satisfaction_pct")):
                    bad_eval += w.ref_test
                    msg = f"{path}: {method} row differs from the reference"
        outcome.add(labels + samples, min(labels + samples, bad_labels + bad_eval), msg)
    except Exception:  # noqa: BLE001
        outcome.add(labels + samples, labels + samples,
                    "reference pipeline raised:\n" + traceback.format_exc())
    finally:
        set_surrogate_size(cfg, *saved)


def run_surrogate_workload(ex, cfg, w, seed, seconds, work_dir, outcome, calib):
    """Closed loop of whole gen-data -> train -> eval passes, each on fresh
    trial seeds, for `seconds`."""
    base = 1 + seed * SEED_STRIDE
    per_pass = w.block + w.n_test
    pass_dir = os.path.join(work_dir, "pass")
    labels, samples = surrogate_ops(cfg)
    passes, speeds = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        first = base + i * per_pass
        i += 1
        n_samples = len(calib.samples)
        try:
            timing = surrogate_pass(ex, cfg, first, pass_dir, calib.sample)
            bad_labels, bad_eval, msg, rows = check_surrogate(cfg, first, pass_dir, timing)
        except Exception:  # noqa: BLE001
            outcome.add(labels + samples, labels + samples,
                        f"pass at seed {first} raised:\n" + traceback.format_exc())
            continue
        outcome.add(labels + samples, bad_labels + bad_eval, msg)
        timing["rows"] = rows
        passes.append(timing)
        speeds.append(calib.speed_of(n_samples))
    med = statistics.median

    def summary(scales):
        def eval_mean(p, prefix, column):
            return statistics.fmean(
                float(v[column]) for m, v in p["rows"].items() if m.startswith(prefix)
            )

        scaled = list(zip(passes, scales))
        return {
            "trials_per_s": med(per_pass / (p["gen"] * s) for p, s in scaled),
            "labels_per_s": med(labels / (p["gen"] * s) for p, s in scaled),
            "pipeline_s": med(p["total"] * s for p, s in scaled),
            "train_s_per_epoch": med(p["train"] * s / p["epochs"] for p, s in scaled),
            "eval_model_ms_per_sample":
                med(eval_mean(p, "model_", "time_ms") * s for p, s in scaled),
            "eval_surrogate_ms_per_sample":
                med(eval_mean(p, "surrogate_", "time_ms") * s for p, s in scaled),
            "surrogate_satisfaction_pct":
                med(eval_mean(p, "surrogate_", "satisfaction_pct") for p in passes),
        }

    stages = [{k: p[k] for k in ("gen", "train", "eval")} for p in passes]
    return summarise(summary, stages, speeds, calib)


# ---------------------------------------------------------------------------
# traced run: each unit of work runs untraced, then traced on the same inputs

def bad_allocations(allocations):
    """Trial ids of allocations that break p >= 0, n_satisfied <= K, or a
    tight budget when P_max > 0; one entry per bad allocation."""
    bad = []
    for res, k, p_max, trial in allocations:
        p = res.powers
        ok = (
            bool((p >= 0).all())
            and len(res.satisfied) <= k
            and (p_max <= 0 or abs(float(p.sum()) - p_max) <= BUDGET_REL_TOL * p_max)
        )
        if not ok:
            bad.append(trial)
    return bad


def _same_bytes(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _traced(tracer, job, *args):
    undo = tracer.install()
    try:
        return job(*args)
    finally:
        tracer.remove(undo)


def trace_campaign(ex, cfg, w, seed, seconds, work_dir, tracer, outcome):
    """A fixed number of blocks (from `seconds`, not from machine speed, so
    counts repeat exactly per seed)."""
    base = 1 + seed * SEED_STRIDE
    plain_dir, traced_dir = os.path.join(work_dir, "plain"), os.path.join(work_dir, "traced")
    totals = {"plain_s": 0.0, "traced_s": 0.0, "bytes_written": 0}
    for b in range(max(1, round(seconds / w.trace_seconds_per_unit))):
        first = base + b * w.block
        try:
            totals["plain_s"] += campaign_block(ex, cfg, first, w.block, plain_dir)
            totals["traced_s"] += _traced(tracer, campaign_block, ex, cfg, first, w.block, traced_dir)
            bad, msg = check_campaign(plain_dir, cfg, first, w.block)
            for name in ("per_trial.csv", "aggregate.csv"):
                path = os.path.join(traced_dir, name)
                totals["bytes_written"] += os.path.getsize(path)
                if not _same_bytes(path, os.path.join(plain_dir, name)):
                    bad, msg = set(range(w.block)), f"traced {name} differs from the untraced run"
            bad |= {t - first for t in bad_allocations(tracer.allocations)}
        except Exception:  # noqa: BLE001
            bad, msg = set(range(w.block)), f"block at seed {first} raised:\n" + traceback.format_exc()
        tracer.allocations.clear()
        outcome.add(w.block, len(bad), msg)
    return totals


def trace_surrogate(ex, cfg, w, seed, seconds, work_dir, tracer, outcome):
    base = 1 + seed * SEED_STRIDE
    per_pass = w.block + w.n_test
    labels, samples = surrogate_ops(cfg)
    plain_dir, traced_dir = os.path.join(work_dir, "plain"), os.path.join(work_dir, "traced")
    totals = {"plain_s": 0.0, "traced_s": 0.0, "bytes_written": 0}
    for i in range(max(1, round(seconds / w.trace_seconds_per_unit))):
        first = base + i * per_pass
        try:
            plain = surrogate_pass(ex, cfg, first, plain_dir)
            traced = _traced(tracer, surrogate_pass, ex, cfg, first, traced_dir)
            totals["plain_s"] += plain["total"]
            totals["traced_s"] += traced["total"]
            bad_labels, bad_eval, msg, rows = check_surrogate(cfg, first, plain_dir, plain)
            dataset = cfg.surrogate.dataset_path
            totals["bytes_written"] += os.path.getsize(os.path.join(traced_dir, dataset))
            same = _same_bytes(os.path.join(plain_dir, dataset), os.path.join(traced_dir, dataset))
            for a, b in zip(plain["evals"], traced["evals"]):
                ra, rb = read_eval(a), read_eval(b)
                same &= all(
                    {c: v for c, v in ra[m].items() if c != "time_ms"}
                    == {c: v for c, v in rb.get(m, {}).items() if c != "time_ms"}
                    for m in ra
                )
            if not same:
                bad_labels, bad_eval = labels, samples
                msg = "traced pass outputs differ from the untraced pass"
            bad = bad_labels + bad_eval + len(bad_allocations(tracer.allocations))
        except Exception:  # noqa: BLE001
            bad, msg = labels + samples, f"pass at seed {first} raised:\n" + traceback.format_exc()
        tracer.allocations.clear()
        outcome.add(labels + samples, min(bad, labels + samples), msg)
    return totals
