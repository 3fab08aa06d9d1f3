"""Campaign harness: flat-file config, Monte-Carlo runs, dataset generation,
surrogate training and the model-vs-surrogate evaluation table.

Config files are flat `key = value` lines with dotted section prefixes
(`system.n_beams = 7`); see README for the full key list.  Per-trial seeds
are `base_seed + trial_index`, so any single trial can be replayed.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import allocators, metrics, surrogate
from .channel import AttenuationOverflowError, apply_atmosphere, build_channel, cloud_attenuation_db, drop_users
from .config import InvalidConfigError, SystemConfig
from .feasibility import sinr_targets
from .precoding import Precoder, PrecoderSingularError, effective_gains, make_rzf, make_zf

_REDRAW_STRIDE = 2654435761  # seed offset per conditioning redraw
_MAX_REDRAWS = 64

# strategy -> allocator name, looked up in `allocators` at call time so that a
# rebound module attribute (a wrapped or replaced allocator) takes effect
KNOWN_STRATEGIES = {
    "equal": "equal_power",
    "sumopt": "sum_opt",
    "satisset": "satis_set_opt",
    "joint": "joint_opt",
}
KNOWN_PRECODERS = ("zf", "rzf")
DEMAND_FREE_STRATEGIES = ("sumopt", "equal")  # powers do not depend on the demands

# each CSV's header and its row format, one field per column: floats as
# .10g, the congested flag as 0/1, ints and text as is
PER_TRIAL_COLUMNS = (
    "trial,seed,precoder,strategy,xi_mbps,sum_rate_mbps,"
    "n_satisfied,congested,jain,lambda_obj,runtime_ms"
)
PER_TRIAL_ROW = "{},{},{},{},{:.10g},{:.10g},{},{:d},{:.10g},{:.10g},{:.10g}"
# (precoder, strategy, xi) and then the MetricsSummary fields in order
AGGREGATE_COLUMNS = (
    "precoder,strategy,xi_mbps,n_trials,congestion_prob,satisfaction_prob,"
    "mean_sum_rate_mbps,mean_sum_rate_satisfied_mbps,mean_sum_rate_unsatisfied_mbps,"
    "mean_jain,mean_lambda"
)
AGGREGATE_ROW = "{},{},{:.10g},{},{:.10g},{:.10g},{:.10g},{:.10g},{:.10g},{:.10g},{:.10g}"
EVAL_COLUMNS = "method,qos,time_ms,sum_rate,satisfaction_pct"
EVAL_ROW = "{},{:.10g},{:.10g},{:.10g},{:.10g}"


class ConfigError(InvalidConfigError):
    """Configuration file problem, with a file:line prefix where possible."""


@contextmanager
def _float_range(finding: str):
    """Raise numpy's float errors instead of warning: with validated settings
    an overflow, a division by zero, an invalid operation or a singular solve
    means that some setting leaves the float range, a ConfigError."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            yield
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise ConfigError(f"{finding}: {exc}") from exc


@dataclass
class SurrogateSection(surrogate.TrainingConfig):
    """The `surrogate.*` keys: the training settings plus the dataset split."""

    n_train: int = 5000
    n_test: int = 1000
    xi_mbps: float = 250.0
    dataset_path: str = "dataset.jsonl"
    model_dir: str = "."


@dataclass
class ExperimentConfig:
    system: SystemConfig = field(default_factory=SystemConfig)
    qos_sweep: tuple = (200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0)
    qos_per_user: tuple | None = None
    omega_frac: float = 0.02
    strategies: tuple = tuple(KNOWN_STRATEGIES)
    precoders: tuple = KNOWN_PRECODERS
    n_trials: int = 200
    base_seed: int = 1
    out_dir: str = "out"
    record_timing: bool = False
    surrogate: SurrogateSection = field(default_factory=SurrogateSection)

    def validate(self):
        if self.n_trials < 1:
            raise ConfigError("n_trials must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        # a repeated name would add its rows twice to one aggregate cell
        for what, names, known in (("strategy", self.strategies, KNOWN_STRATEGIES),
                                   ("precoder", self.precoders, KNOWN_PRECODERS)):
            if not names:
                raise ConfigError(f"at least one {what} is required")
            for name in names:
                if name not in known or names.count(name) > 1:
                    raise ConfigError(f"{'repeated' if name in known else 'unknown'} {what} {name!r}")
        if not self.qos_sweep and self.qos_per_user is None:
            raise ConfigError("qos.sweep or qos.per_user must be set")
        if self.system.p_max_w <= 0:
            raise ConfigError("system.p_max_w must be > 0 for a campaign")
        if not math.isfinite(self.system.wavelength_m):  # the channel amplitudes would be inf
            raise ConfigError(f"system.carrier_ghz = {self.system.carrier_ghz:g} puts the wavelength beyond the float range")
        if self.system.atmospherics:  # the cloud model's permittivity terms overflow far from any real carrier
            with _float_range(f"system.carrier_ghz = {self.system.carrier_ghz:g} overflows the cloud model"):
                cloud_attenuation_db(90.0, self.system.carrier_ghz)
        if self.qos_per_user is not None and len(self.qos_per_user) != self.system.n_users:
            raise ConfigError(
                f"qos.per_user has {len(self.qos_per_user)} values, "
                f"expected n_users = {self.system.n_users}"
            )
        if any(xi <= 0 for xi in (*self.qos_sweep, *(self.qos_per_user or ()))):
            raise ConfigError("qos.sweep and qos.per_user demands must be > 0")
        if self.omega_frac < 0:
            raise ConfigError("qos.omega_frac must be >= 0")
        bw = self.system.bandwidth_mhz
        for key, xs in (("qos.sweep", self.qos_sweep), ("qos.per_user", self.qos_per_user or ()),
                        ("surrogate.xi_mbps", (self.surrogate.xi_mbps,))):
            with np.errstate(over="ignore"):  # an overflow is the finding here, not a warning
                bad = [xi for xi in xs if not np.isfinite(sinr_targets(xi * (1.0 + self.omega_frac), bw))]
            if bad:
                raise ConfigError(f"{key}: demand {bad[0]:g} Mbps relaxed by qos.omega_frac = {self.omega_frac:g} "
                                  f"needs an SINR beyond the float range at system.bandwidth_mhz = {bw:g}")
        xis = [xi for _, xi in self.demand_points()]
        for key, xs in (("qos.sweep", xis[: len(self.qos_sweep)]), ("qos.per_user", xis)):
            if len(set(xs)) < len(xs):
                raise ConfigError(f"{key}: two demand points share a mean demand; their aggregate rows would merge")
        s = self.surrogate
        for ok, msg in (
            (s.n_train >= 1, "n_train must be >= 1"),
            (s.n_test >= 0, "n_test must be >= 0"),
            (s.batch_size >= 1, "batch_size must be >= 1"),
            (s.epochs >= 1, "epochs must be >= 1"),
            (s.patience >= 1, "patience must be >= 1"),
            (all(h >= 1 for h in s.hidden), "hidden widths must be >= 1"),
            (0 <= s.val_fraction < 1, "val_fraction must be in [0, 1)"),
            (s.n_train < 2 or not 0 <= s.val_fraction < 1 or round(s.val_fraction * s.n_train) < s.n_train,
             "val_fraction must leave at least one training sample"),
            (s.learning_rate > 0, "learning_rate must be > 0"),
            (s.xi_mbps > 0, "xi_mbps must be > 0"),
            (s.seed >= 0, "seed must be >= 0"),
        ):
            if not ok:
                raise ConfigError(f"surrogate.{msg}")

    def demand_points(self) -> list:
        """(QoSProfile, mean demand xi_mbps) per qos.sweep value, then qos.per_user."""
        qoss = [allocators.QoSProfile.uniform(xi, self.system.n_users, self.omega_frac)
                for xi in self.qos_sweep]
        if self.qos_per_user is not None:
            qoss.append(allocators.QoSProfile.per_user(self.qos_per_user, self.omega_frac))
        return [(qos, float(np.mean(qos.demands))) for qos in qoss]


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def _float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {text!r}")
    return x


def _tuple_of(conv):
    return lambda text: tuple(conv(part.strip()) for part in text.split(",") if part.strip())


_SCALAR_CONVERTERS = {bool: _bool, int: int, float: _float, str: str}

# config key -> (section, attribute, converter from the value text); section
# "" is a top-level ExperimentConfig field
_KEYS = {
    f"{section}.{f.name}": (section, f.name, _SCALAR_CONVERTERS.get(type(f.default)))
    for section, cls in (("system", SystemConfig), ("surrogate", SurrogateSection))
    for f in fields(cls)
}
_KEYS.update(
    {
        "surrogate.hidden": ("surrogate", "hidden", _tuple_of(int)),
        "qos.sweep": ("", "qos_sweep", _tuple_of(_float)),
        "qos.per_user": ("", "qos_per_user", _tuple_of(_float)),
        "qos.omega_frac": ("", "omega_frac", _float),
        "strategies": ("", "strategies", _tuple_of(str)),
        "precoders": ("", "precoders", _tuple_of(str)),
        "n_trials": ("", "n_trials", int),
        "base_seed": ("", "base_seed", int),
        "output.dir": ("", "out_dir", str),
        "output.record_timing": ("", "record_timing", _bool),
    }
)


def parse_config(path: str) -> ExperimentConfig:
    """Parse a flat dotted-key config file with line-precise errors."""
    values = {"": {}, "system": {}, "surrogate": {}}
    key_lines = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    with fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            if "=" not in line:
                raise ConfigError(f"{where}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _KEYS:
                raise ConfigError(f"{where}: unknown key {key!r}")
            if key_lines.setdefault(key, line_no) != line_no:
                raise ConfigError(f"{where}: {key!r} is already set on line {key_lines[key]}")
            section, name, convert = _KEYS[key]
            try:
                values[section][name] = convert(value.strip())
            except ValueError as exc:
                raise ConfigError(f"{where}: invalid value for {key!r}: {exc}") from exc
    try:
        system = SystemConfig(**values["system"])
    except InvalidConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    cfg = ExperimentConfig(system=system, surrogate=SurrogateSection(**values["surrogate"]), **values[""])
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# trial generation

@dataclass(frozen=True)
class Trial:
    seed: int
    channel: np.ndarray  # real (N, K)
    redraws: int
    zf: Precoder  # the ZF precoder whose construction passed the conditioning test


def make_trial(system: SystemConfig, seed: int) -> Trial:
    """Drop users and build the channel, redrawing deterministically until the
    ZF construction passes its conditioning test; both precoders then see the
    same channels, and the trial keeps that ZF precoder."""
    for attempt in range(_MAX_REDRAWS):
        eff_seed = seed + attempt * _REDRAW_STRIDE
        drop = drop_users(system, eff_seed)
        H = build_channel(drop, system)
        if system.atmospherics:
            try:
                H = apply_atmosphere(H, drop, system, eff_seed)
            except AttenuationOverflowError as exc:
                # the beam layout, not the draw, puts users near the horizon
                raise ConfigError(
                    f"{exc} at system.beam_radius_km = {system.beam_radius_km:g} (seed {seed})"
                ) from exc
        try:
            zf = make_zf(H, cond_cap=system.cond_cap)
        except PrecoderSingularError:
            continue
        # sigma^2 / ||h_k||^2 bounds every inverse gain sigma^2 / g_k of a unit-norm precoder from below
        if not system.noise_power_w / np.square(H).sum(axis=0).max() > 0:
            raise ConfigError(f"system.noise_power_w = {system.noise_power_w:g} rounds an inverse gain to 0 (seed {seed})")
        return Trial(seed=seed, channel=H, redraws=attempt, zf=zf)
    raise ConfigError(
        f"no drop meets system.cond_cap = {system.cond_cap:g} in {_MAX_REDRAWS} redraws (seed {seed})"
    )


def build_precoder(trial: Trial, system: SystemConfig, kind: str) -> Precoder:
    if kind == "zf":
        return trial.zf
    if kind == "rzf":
        return make_rzf(trial.channel, system.noise_power_w, system.p_max_w)
    raise ConfigError(f"unknown precoder {kind!r}")


# ---------------------------------------------------------------------------
# campaign

def _solve(strategy, link, W, qos, system, joint=None):
    """(result, wall ms) of one allocator call, looked up at call time.  Given
    joint's (result, ms), satisset is taken from joint's result instead, in
    joint's ms plus its own."""
    t0 = time.perf_counter()
    if strategy == "satisset" and joint is not None:
        res, ms = allocators.satis_set_from_joint(link, W, qos, system, joint[0]), joint[1]
    else:
        res, ms = getattr(allocators, KNOWN_STRATEGIES[strategy])(link, W, qos, system), 0.0
    return res, ms + (time.perf_counter() - t0) * 1e3


def _split_sums(r, mask, counts):
    """Per-row sums of the masked entries of `r`, `counts` of them per row:
    each row-count group's compacted (rows, count) block summed along its last
    axis adds a row's terms as its compaction's sum does (a masked sum may not);
    compacting the rows stable-sorted by count lays the blocks out one after another."""
    order = counts.argsort(kind="stable")
    terms = r[order][mask[order]]
    out = np.zeros(len(r))
    i = j = 0
    for m, n in enumerate(np.bincount(counts).tolist()):
        if m and n:
            out[order[i:i + n]] = terms[j:j + m * n].reshape(n, m).sum(axis=-1)
        i, j = i + n, j + m * n
    return out


def _score_block(rows, sumopt_rates, seed, system):
    """(scores, n_satisfied) of one block's rows of (strategy, qos, xi_mbps,
    result, ms), each row scored against its own qos, not the one its result
    was solved for.  `scores` is (rows, 7), in MetricsSummary column order:
    congested, n_satisfied/K, sum rate, the satisfied and unsatisfied sums,
    Jain and Lambda, along the last axis of the stacked (rows, K) rates."""
    r = np.array([row[3].rates_mbps for row in rows])
    if not (r.any(axis=-1).all() and sumopt_rates.any()):
        # Jain is undefined on a row of zero rates, Lambda on a zero sum-rate reference
        raise ConfigError(f"system.p_max_w = {system.p_max_w:g} rounds every rate to 0 (seed {seed})")
    demands = np.array([row[1].demands for row in rows])
    sat = allocators.satisfied_mask(r, demands)
    n_sat = sat.sum(axis=-1)
    k = r.shape[1]
    scores = np.column_stack((
        n_sat < k, n_sat / k, r.sum(axis=-1), _split_sums(r, sat, n_sat), _split_sums(r, ~sat, k - n_sat),
        metrics.jain(r / demands), metrics.lambda_objective(r, n_sat, sumopt_rates),
    ))
    return scores, n_sat


def _campaign_blocks(cfg: ExperimentConfig, points):
    """(t, seed, precoder, rows, sum-opt rates) of each (trial, precoder) block
    in trial order, with rows (strategy, qos, xi_mbps, result, ms) for every
    strategy at each demand point; each block builds its Link once.  A row
    keeps the (result, ms) of the solve that produced its powers: demand-free
    strategies are solved once per block for every demand point, and satisset,
    when joint is listed, is taken from joint's solve: its congested result,
    or its feasible minimum powers with the surplus split equally."""
    system = cfg.system
    ref_qos = allocators.QoSProfile.uniform(1.0, system.n_users, cfg.omega_frac)
    solve_order = sorted(cfg.strategies, key=lambda s: s != "joint")  # joint first
    shared = [s for s in DEMAND_FREE_STRATEGIES if s == "sumopt" or s in cfg.strategies]
    for t in range(cfg.n_trials):
        seed = cfg.base_seed + t
        trial = make_trial(system, seed)
        for pk in cfg.precoders:
            W = build_precoder(trial, system, pk)
            link = effective_gains(trial.channel, W)
            fixed = {s: _solve(s, link, W, ref_qos, system) for s in shared}
            rows = []
            for qos, xi in points:
                cell = dict(fixed)
                for strategy in solve_order:
                    if strategy not in cell:
                        cell[strategy] = _solve(strategy, link, W, qos, system, cell.get("joint"))
                rows += [(s, qos, xi, *cell[s]) for s in cfg.strategies]
            yield t, seed, pk, rows, fixed["sumopt"][0].rates_mbps


@_float_range("a system.*, qos.* or surrogate.* value leaves the float range")
def run_campaign(cfg: ExperimentConfig) -> dict:
    """Full Monte-Carlo sweep; writes the per-trial and aggregated CSVs and
    returns their paths.  Each block's rows are appended to a temporary file
    that replaces `per_trial.csv` after the last block, and its scores are
    added to its precoder's running column sums, trial after trial."""
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    points = cfg.demand_points()
    sums = dict.fromkeys(cfg.precoders, 0.0)  # each becomes a (rows, 7) array at its first block
    per_trial_path = os.path.join(cfg.out_dir, "per_trial.csv")
    agg_path = os.path.join(cfg.out_dir, "aggregate.csv")
    tmp_path = f"{per_trial_path}.{os.getpid()}.tmp"
    fh = open(tmp_path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(PER_TRIAL_COLUMNS + "\n")
            for t, seed, pk, rows, sumopt_rates in _campaign_blocks(cfg, points):
                scores, n_sat = _score_block(rows, sumopt_rates, seed, cfg.system)
                sums[pk] += scores
                _write_per_trial(fh, t, seed, pk, rows, scores, n_sat, cfg.record_timing)
        os.replace(tmp_path, per_trial_path)
    except BaseException:
        os.remove(tmp_path)  # a failed run leaves the earlier outputs as they were
        raise
    cells = [(s, xi) for _, xi in points for s in cfg.strategies]  # a block's rows, in order
    _write_aggregate(agg_path, {(pk, *cell): sums[pk][i] for pk in cfg.precoders
                                for i, cell in enumerate(cells)}, cfg.n_trials)
    return {"per_trial": per_trial_path, "aggregate": agg_path}


def _write_csv(path, columns, row_format, rows):
    line = row_format + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(columns + "\n")
        fh.writelines(line.format(*row) for row in rows)


def _write_per_trial(fh, t, seed, pk, rows, scores, n_satisfied, record_timing):
    """Append one block's rows to the open per-trial CSV."""
    line = PER_TRIAL_ROW + "\n"
    fh.writelines(
        line.format(t, seed, pk, strategy, xi, s[2], n, int(s[0]), s[5], s[6], ms if record_timing else 0.0)
        for (strategy, _, xi, _, ms), s, n in zip(rows, scores.tolist(), n_satisfied.tolist())
    )


def _write_aggregate(path, cells, n_trials):
    """One row per (precoder, strategy, xi) cell: its key, then the
    MetricsSummary of its per-trial column sums."""
    rows = ((*key, *vars(metrics.aggregate(cells[key], n_trials)).values()) for key in sorted(cells))
    _write_csv(path, AGGREGATE_COLUMNS, AGGREGATE_ROW, rows)


# ---------------------------------------------------------------------------
# surrogate dataset / training / evaluation

def fingerprint(cfg: ExperimentConfig) -> str:
    """Eight hex digits naming every setting a dataset label depends on
    besides its seed: the `system.*` values, `qos.omega_frac` and
    `surrogate.xi_mbps`.  Numbers are hashed as floats, so 200 and 200.0 agree."""
    import zlib  # already loaded by numpy; only gen-data and eval need it

    values = (*astuple(cfg.system), cfg.omega_frac, cfg.surrogate.xi_mbps)
    return f"{zlib.crc32(repr(tuple(map(float, values))).encode()):08x}"


def _require_fingerprint(path: str, whose: str, found: str, expected: str) -> None:
    if found != expected:
        raise ConfigError(
            f"{path}: {whose} fingerprint {found or '(none)'} does not match the config's "
            f"{expected}; a system.*, qos.omega_frac or surrogate.xi_mbps value differs, "
            "so re-run gen-data and train under this config"
        )


@_float_range("a system.*, qos.* or surrogate.* value leaves the float range")
def gen_dataset(cfg: ExperimentConfig) -> str:
    """Label (gain vector -> joint-optimizer powers) pairs, one trial per
    seed, for every configured precoder."""
    cfg.validate()
    system = cfg.system
    surr = cfg.surrogate
    qos = allocators.QoSProfile.uniform(surr.xi_mbps, system.n_users, cfg.omega_frac)
    fp = fingerprint(cfg)
    records = []
    for i in range(surr.n_train + surr.n_test):
        seed = cfg.base_seed + i
        trial = make_trial(system, seed)
        for pk in cfg.precoders:
            W = build_precoder(trial, system, pk)
            res = allocators.joint_opt(trial.channel, W, qos, system)
            records.append(
                surrogate.DatasetRecord(
                    x=surrogate.gains_vector(trial.channel),
                    p_star=res.powers,
                    seed=seed,
                    strategy=f"joint_{pk}",
                    fingerprint=fp,
                )
            )
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, surr.dataset_path)
    surrogate.save_dataset(records, path)
    return path


def _dataset_groups(cfg: ExperimentConfig) -> tuple:
    """(path, {label strategy: its records in file order}); a missing,
    unreadable or corrupt file is a ConfigError."""
    path = os.path.join(cfg.out_dir, cfg.surrogate.dataset_path)
    try:
        records = surrogate.load_dataset(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot read the dataset ({exc}); re-run gen-data") from exc
    groups = {}
    for r in records:
        groups.setdefault(r.strategy, []).append(r)
    return path, groups


def train_models(cfg: ExperimentConfig) -> dict:
    """Train one surrogate per label strategy present in the dataset, on the
    first n_train records of its group; returns {strategy: (model_path, report)}."""
    surr = cfg.surrogate
    path, groups = _dataset_groups(cfg)
    if not groups:
        raise ConfigError(f"{path}: dataset is empty")
    out = {}
    os.makedirs(os.path.join(cfg.out_dir, surr.model_dir), exist_ok=True)
    for strategy in sorted(groups):
        with _float_range(f"surrogate.learning_rate = {surr.learning_rate:g} diverges training the {strategy} model"):
            model, report = surrogate.train(groups[strategy][: surr.n_train], surr)
        model_path = os.path.normpath(os.path.join(cfg.out_dir, surr.model_dir, f"model_{strategy}.npz"))
        surrogate.save_model(model, model_path)
        out[strategy] = (model_path, report)
    return out


@_float_range("a system.*, qos.* or surrogate.* value leaves the float range")
def eval_model(cfg: ExperimentConfig, model_path: str) -> str:
    """Compare the model-based solver with the surrogate on the test split
    (rates, satisfaction, per-sample latency) and write the eval CSV.  Each
    channel is read from its record, H = x.reshape(K, N).T, so no trial is
    replayed; the config, the model and the records must share a fingerprint.
    Both rows are scored by one rule from their samples' (n, K) rates."""
    try:
        model = surrogate.load_model(model_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{model_path}: cannot read the model ({exc}); re-run train") from exc
    strategy = model.strategy
    pk = strategy.removeprefix("joint_")
    if not strategy.startswith("joint_") or pk not in KNOWN_PRECODERS:
        raise ConfigError(f"{model_path}: unknown label strategy {strategy!r}")
    fp = fingerprint(cfg)
    _require_fingerprint(model_path, "the model's", model.fingerprint, fp)
    system = cfg.system
    surr = cfg.surrogate
    dataset_path, groups = _dataset_groups(cfg)
    test_split = groups.get(strategy, [])[surr.n_train : surr.n_train + surr.n_test]
    if not test_split:
        raise ConfigError("dataset has no test split for this model")
    k, n_beams = system.n_users, system.n_beams
    qos = allocators.QoSProfile.uniform(surr.xi_mbps, k, cfg.omega_frac)

    model_ms = 0.0
    links, model_rates = [], []
    for rec in test_split:
        _require_fingerprint(dataset_path, f"the seed-{rec.seed} record's", rec.fingerprint, fp)
        H = rec.x.reshape(k, n_beams).T
        W = (make_zf(H, cond_cap=system.cond_cap) if pk == "zf"
             else make_rzf(H, system.noise_power_w, system.p_max_w))
        t0 = time.perf_counter()
        link = effective_gains(H, W)
        res = allocators.joint_opt(link, W, qos, system)
        model_ms += (time.perf_counter() - t0) * 1e3
        links.append((link, W))
        model_rates.append(res.rates_mbps)
    gains = np.stack([rec.x for rec in test_split])
    t0 = time.perf_counter()
    powers = surrogate.predict_powers(model, gains, system.p_max_w)
    surro_ms = (time.perf_counter() - t0) * 1e3
    surro_rates = np.array([metrics.rates(link, W, p, system) for (link, W), p in zip(links, powers)])

    n = len(test_split)
    rows = [
        (f"{method}_{pk}", float(surr.xi_mbps), ms / n, float(r.sum(axis=-1).mean()),
         100.0 * int(allocators.satisfied_mask(r, qos.demands).sum()) / (n * k))
        for method, ms, r in (("model", model_ms, np.array(model_rates)), ("surrogate", surro_ms, surro_rates))
    ]
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"eval_{pk}.csv")
    _write_csv(path, EVAL_COLUMNS, EVAL_ROW, rows)
    return path
