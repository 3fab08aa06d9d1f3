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
import zlib
from contextlib import ExitStack, contextmanager
from dataclasses import astuple, dataclass, field, fields
from itertools import chain, islice

import numpy as np

from . import allocators, metrics, surrogate
from .channel import AttenuationOverflowError, apply_atmosphere, build_channel, cloud_attenuation_db, drop_users
from .config import InvalidConfigError, SystemConfig
from .feasibility import sinr_targets
from .precoding import Link, Precoder, PrecoderSingularError, effective_gains, make_rzf, make_zf

_REDRAW_STRIDE = 2654435761  # seed offset per conditioning redraw
_MAX_REDRAWS = 64
# trials whose blocks are scored, summed and written together, or labeled in
# one pass; a chunk holds their rates, so this bounds its memory
_CHUNK_TRIALS = 32

KNOWN_STRATEGIES = ("equal", "sumopt", "satisset", "joint")
# a strategy whose powers do not depend on the demands -> its allocator, looked up in `allocators` at
# call time so that a rebound attribute takes effect; joint and satisset come from `joint_opt_block`
DEMAND_FREE_STRATEGIES = {"sumopt": "sum_opt", "equal": "equal_power"}
# precoder kind -> its construction from an (N, K) channel or a (T, N, K) stack by this module's make_zf/make_rzf, read at call time
PRECODERS = {
    "zf": lambda H, system: make_zf(H, cond_cap=system.cond_cap),
    "rzf": lambda H, system: make_rzf(H, system.noise_power_w, system.p_max_w),
}
KNOWN_PRECODERS = tuple(PRECODERS)
# a dataset row's or a model's label strategy -> the precoder its labels were made under
LABEL_STRATEGIES = {f"joint_{pk}": pk for pk in PRECODERS}

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
    strategies: tuple = KNOWN_STRATEGIES
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


def make_trial(system: SystemConfig, seed: int, first: tuple | None = None) -> Trial:
    """Drop users and build the channel, redrawing deterministically until the
    ZF construction passes its conditioning test; both precoders then see the
    same channels, and the trial keeps that ZF precoder.  `first` is the first
    attempt's (drop, channel, ZF precoder): the channel None if it is still to be
    built, the precoder None if the channel still takes its atmosphere and ZF."""
    for attempt in range(_MAX_REDRAWS):
        eff_seed = seed + attempt * _REDRAW_STRIDE
        drop, H, zf = first if first and not attempt else (drop_users(system, eff_seed), None, None)
        if zf is None:
            if H is None:
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
                zf = PRECODERS["zf"](H, system)
            except PrecoderSingularError:
                continue
        # sigma^2 / ||h_k||^2 bounds every inverse gain sigma^2 / g_k of a unit-norm precoder from below
        if not system.noise_power_w / np.square(H).sum(axis=0).max() > 0:
            raise ConfigError(f"system.noise_power_w = {system.noise_power_w:g} rounds an inverse gain to 0 (seed {seed})")
        return Trial(seed=seed, channel=H, redraws=attempt, zf=zf)
    raise ConfigError(
        f"no drop meets system.cond_cap = {system.cond_cap:g} in {_MAX_REDRAWS} redraws (seed {seed})"
    )


def _make_trials(system: SystemConfig, seeds):
    """make_trial of each seed, in order, their first drops' channels and ZF precoders built in one pass
    per batch (`build_channel`, each trial's atmosphere, then `make_zf`): a chunk of seeds, capped at 2,048
    channel entries (a whole chunk at N = K = 7, one trial at 37).  Where a pass fails, each trial builds
    what it could not, so the first failing seed in order raises and a row that fails ZF redraws alone."""
    step = max(1, min(_CHUNK_TRIALS, 2048 // (system.n_beams * system.n_users)))
    for i in range(0, len(seeds), step):
        batch = seeds[i:i + step]
        drops = [drop_users(system, seed) for seed in batch]
        firsts = [(drop, None, None) for drop in drops]
        try:
            channels = build_channel(drops, system)
            firsts = [(drop, H, None) for drop, H in zip(drops, channels)]
            if system.atmospherics:
                channels = np.stack([apply_atmosphere(H, drop, system, seed) for seed, drop, H in zip(batch, drops, channels)])
            zf = PRECODERS["zf"](channels, system)
            firsts = [(drop, H, zf[j]) for j, (drop, H) in enumerate(zip(drops, channels))]
        except (ArithmeticError, np.linalg.LinAlgError, AttenuationOverflowError):
            pass
        for seed, first in zip(batch, firsts):
            yield make_trial(system, seed, first)


def build_precoder(trial: Trial, system: SystemConfig, kind: str) -> Precoder:
    """The trial's precoder of `kind`: its ZF one, or one built from its channel."""
    if kind not in PRECODERS:
        raise ConfigError(f"unknown precoder {kind!r}")
    return trial.zf if kind == "zf" else PRECODERS[kind](trial.channel, system)


def _chunk_link(trials, system: SystemConfig, kind: str):
    """The stacked Link of a chunk of trials under their precoders of `kind`, row for row and bit
    for bit each trial's own: their ZF precoders (np.stack keeps each row's layout), or one pass over their channels."""
    H = np.stack([t.channel for t in trials])
    W = PRECODERS[kind](H, system) if kind != "zf" else Precoder(
        np.stack([t.zf.W for t in trials]), np.stack([t.zf.raw_norms for t in trials]), "zf")
    return effective_gains(H, W)


# ---------------------------------------------------------------------------
# campaign

def _timed(fn, *args):
    """(fn(*args), its wall ms)."""
    t0 = time.perf_counter()
    return fn(*args), (time.perf_counter() - t0) * 1e3


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


def _score_chunk(blocks, rates, sumopt_rates, demands, system):
    """(scores, n_satisfied) of a chunk's rows, block after block: each
    block's rows of `rates` scored against the block's `demands` rows and its
    own sum-opt rates.  `scores` is (rows, 7), in MetricsSummary column order:
    congested, n_satisfied/K, sum rate, the satisfied and unsatisfied sums,
    Jain and Lambda, each taken along a row's own K rates, so a row's scores
    do not depend on the rows it is stacked with."""
    r, refs = np.array(rates), np.array(sumopt_rates)  # (blocks, rows, K), (blocks, K)
    # Jain is undefined on a row of zero rates, Lambda on a zero sum-rate reference
    zero = ~(r.any(axis=-1).all(axis=-1) & refs.any(axis=-1))
    if zero.any():
        seed = blocks[zero.argmax()][1]
        raise ConfigError(f"system.p_max_w = {system.p_max_w:g} rounds every rate to 0 (seed {seed})")
    sat = allocators.satisfied_mask(r, demands)  # demands and references broadcast over the blocks
    n_sat = sat.sum(axis=-1)
    jains, lams = metrics.jain(r / demands), metrics.lambda_objective(r, n_sat, refs[:, None])
    k = r.shape[-1]
    r, sat, n_sat = r.reshape(-1, k), sat.reshape(-1, k), n_sat.ravel()
    scores = np.column_stack((
        n_sat < k, n_sat / k, r.sum(axis=-1), _split_sums(r, sat, n_sat), _split_sums(r, ~sat, k - n_sat),
        jains.ravel(), lams.ravel(),
    ))
    return scores, n_sat


def _chunks(stream, n):
    """Lists of the next `n` items of the iterator `stream`.  An error that
    `stream` raises comes after a list of the items before it, so a caller that
    handles each list in turn reports the first failure in stream order."""
    while True:
        chunk = []
        try:
            chunk.extend(islice(stream, n))
        except Exception:
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk


def _campaign_blocks(cfg: ExperimentConfig, points):
    """((t, seed, precoder), rates, ms, sum-opt rates) of each (trial, precoder) block in trial
    order, with one row of rates and ms for every strategy at each demand point, point after
    point.  A block's Link is its row of its chunk's stacked Link, and it keeps no allocation
    result.  Demand-free strategies are solved once per block for every point, in the ms of that
    solve; joint and satisset come from one `allocators.joint_opt_block` pass per precoder over the
    chunk's trials x points (looked up at call time, one or both listed), each row in the pass's
    ms over its entries.  Where the chunk's Links fail, each trial is a pass of its own, in turn."""
    system = cfg.system
    ref_qos = allocators.QoSProfile.uniform(1.0, system.n_users, cfg.omega_frac)
    qoss = [qos for qos, _ in points]
    shared = [s for s in DEMAND_FREE_STRATEGIES if s == "sumopt" or s in cfg.strategies]
    joint = "joint" in cfg.strategies or "satisset" in cfg.strategies
    seeds = range(cfg.base_seed, cfg.base_seed + cfg.n_trials)
    for trials in _chunks(_make_trials(system, seeds), _CHUNK_TRIALS):
        try:
            groups = [(trials, [_chunk_link(trials, system, pk) for pk in cfg.precoders])]
        except (ArithmeticError, np.linalg.LinAlgError):  # the first failing trial raises after the earlier ones' rows
            groups = (([trial], [_chunk_link([trial], system, pk) for pk in cfg.precoders]) for trial in trials)
        for group, links in groups:
            fixed = [[{s: _timed(getattr(allocators, DEMAND_FREE_STRATEGIES[s]), li, li.precoder, ref_qos, system)
                       for s in shared} for li in (link[i] for link in links)] for i in range(len(group))]
            passes = [_timed(allocators.joint_opt_block, link, link.precoder, qoss, system,
                             [row[j]["sumopt"][0] for row in fixed]) for j, link in enumerate(links)] if joint else []
            for i, trial in enumerate(group):
                for j, pk in enumerate(cfg.precoders):
                    cells = {s: [(res.rates_mbps, ms)] * len(points) for s, (res, ms) in fixed[i][j].items()}
                    if joint:
                        (_, served, _), ms = passes[j]
                        for s, block_rates in zip(("joint", "satisset"), served[:, i]):
                            cells[s] = [(r, ms / (len(group) * len(points))) for r in block_rates]
                    rows = [cells[s][d] for d in range(len(points)) for s in cfg.strategies]
                    rates, ms = [r for r, _ in rows], [row_ms for _, row_ms in rows]
                    yield (trial.seed - cfg.base_seed, trial.seed, pk), rates, ms, cells["sumopt"][0][0]


@_float_range("a system.*, qos.* or surrogate.* value leaves the float range")
def run_campaign(cfg: ExperimentConfig) -> dict:
    """Full Monte-Carlo sweep; writes the per-trial and aggregated CSVs and
    returns their paths.  The trials are scored in chunks, one pass each; their rows are appended
    to a new file published as `per_trial.csv` after `aggregate.csv`, so a run that fails keeps both
    earlier files, and each block's scores join its precoder's running column sums in trial order."""
    cfg.validate()
    points = cfg.demand_points()
    cells = [(s, xi) for _, xi in points for s in cfg.strategies]  # a block's rows, in order
    demands = np.array([qos.demands for qos, _ in points for _ in cfg.strategies])  # and their demands
    sums = dict.fromkeys(cfg.precoders, 0.0)  # each becomes a (rows, 7) array at its first block
    per_trial_path = os.path.join(cfg.out_dir, "per_trial.csv")
    agg_path = os.path.join(cfg.out_dir, "aggregate.csv")
    with surrogate.publish(per_trial_path) as fh:
        fh.write(PER_TRIAL_COLUMNS + "\n")
        for chunk in _chunks(_campaign_blocks(cfg, points), _CHUNK_TRIALS * len(cfg.precoders)):
            blocks, rates, ms, refs = zip(*chunk)
            scores, n_sat = _score_chunk(blocks, rates, refs, demands, cfg.system)
            for (_, _, pk), block_scores in zip(blocks, scores.reshape(len(blocks), len(cells), -1)):
                sums[pk] += block_scores
            _write_per_trial(fh, blocks, cells, scores, n_sat, ms, cfg.record_timing)
        _write_aggregate(agg_path, {(pk, *cell): sums[pk][i] for pk in cfg.precoders
                                    for i, cell in enumerate(cells)}, cfg.n_trials)
    return {"per_trial": per_trial_path, "aggregate": agg_path}


def _write_csv(path, columns, row_format, rows):
    line = row_format + "\n"
    with surrogate.publish(path) as fh:
        fh.write(columns + "\n")
        fh.writelines(line.format(*row) for row in rows)


def _write_per_trial(fh, blocks, cells, scores, n_satisfied, ms, record_timing):
    """Append one chunk's rows to the open per-trial CSV: each block's
    (t, seed, precoder) with each of its cells' (strategy, xi_mbps), in order."""
    line = PER_TRIAL_ROW + "\n"
    keys = ((*block, *cell) for block in blocks for cell in cells)
    fh.writelines(
        line.format(*key, s[2], n, int(s[0]), s[5], s[6], row_ms if record_timing else 0.0)
        for key, s, n, row_ms in zip(keys, scores.tolist(), n_satisfied.tolist(), chain.from_iterable(ms))
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
    seed, for every configured precoder.  The trials are drawn in chunks; each
    precoder labels a chunk in one `allocators.joint_opt_block` pass over its stacked
    Link, a grid of the trials x one point, and the rows are kept trial by trial, precoder by precoder."""
    cfg.validate()
    system, surr = cfg.system, cfg.surrogate
    qos = allocators.QoSProfile.uniform(surr.xi_mbps, system.n_users, cfg.omega_frac)
    fp = fingerprint(cfg)
    seeds = range(cfg.base_seed, cfg.base_seed + surr.n_train + surr.n_test)
    rows = []
    for trials in _chunks(_make_trials(system, seeds), _CHUNK_TRIALS):
        labels = [allocators.joint_opt_block(link, link.precoder, [qos], system)[0][0, :, 0]
                  for link in (_chunk_link(trials, system, pk) for pk in cfg.precoders)]
        gains = [surrogate.gains_vector(trial.channel) for trial in trials]  # shared by a trial's rows
        rows += [(gains[i], p[i], trial.seed, f"joint_{pk}", fp)
                 for i, trial in enumerate(trials) for pk, p in zip(cfg.precoders, labels)]
    path = os.path.join(cfg.out_dir, surr.dataset_path)
    surrogate.save_dataset(surrogate.dataset_from_rows(rows), path)
    return path


def _load_dataset(cfg: ExperimentConfig) -> tuple:
    """(dataset columns, the config's fingerprint); a missing, unreadable, corrupt or empty file, or
    a row of another label strategy than joint_<precoder> or of another fingerprint (the first such
    row's seed is named), is a ConfigError."""
    path = os.path.join(cfg.out_dir, cfg.surrogate.dataset_path)
    try:
        data = surrogate.load_dataset(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: cannot read the dataset ({exc}); re-run gen-data") from exc
    if not data["strategy"].size:
        raise ConfigError(f"{path}: dataset is empty")
    i = (~np.isin(data["strategy"], list(LABEL_STRATEGIES))).argmax()  # the first unknown row, or row 0
    if (strategy := str(data["strategy"][i])) not in LABEL_STRATEGIES:
        raise ConfigError(f"{path}: the seed-{data['seed'][i]} record's label strategy {strategy!r} is none "
                          f"of {', '.join(LABEL_STRATEGIES)}; re-run gen-data")
    fp = fingerprint(cfg)
    i = (data["fingerprint"] != fp).argmax()  # the first foreign row, or row 0 if none is
    _require_fingerprint(path, f"the seed-{data['seed'][i]} record's", data["fingerprint"][i], fp)
    return data, fp


def _split(data: dict, strategy: str, surr: SurrogateSection) -> tuple:
    """(train rows, test rows) of `strategy`: its first n_train rows, then the next n_test."""
    return np.split(np.flatnonzero(data["strategy"] == strategy), [surr.n_train, surr.n_train + surr.n_test])[:2]


def train_models(cfg: ExperimentConfig) -> dict:
    """Train one surrogate per label strategy present in the dataset, on the first n_train rows of
    that strategy, then save them all, publishing the files together; returns {strategy: (model_path, report)}."""
    surr = cfg.surrogate
    data, fp = _load_dataset(cfg)
    out = {}
    for strategy in sorted(set(data["strategy"].tolist())):
        rows = _split(data, strategy, surr)[0]
        with _float_range(f"surrogate.learning_rate = {surr.learning_rate:g} diverges training the {strategy} model"):
            model, report = surrogate.train(data["x"][rows], data["p_star"][rows], surr)
        model.strategy, model.fingerprint = strategy, fp
        out[strategy] = (model, report)
    with ExitStack() as published:  # every model's temp file is written before any is published
        for strategy, (model, report) in out.items():
            model_path = os.path.normpath(os.path.join(cfg.out_dir, surr.model_dir, f"model_{strategy}.npz"))
            surrogate.save_model(model, published.enter_context(surrogate.publish(model_path, binary=True)))
            out[strategy] = (model_path, report)
    return out


@_float_range("a system.*, qos.* or surrogate.* value leaves the float range")
def eval_model(cfg: ExperimentConfig, model_path: str) -> str:
    """Compare the model-based solver with the surrogate on the test split
    (rates, satisfaction, per-sample latency) and write the eval CSV.  Each
    channel is read from its dataset row, H = x.reshape(K, N).T, so no trial is
    replayed; the config, the model and the dataset must share a fingerprint.
    Both methods' (n, K) powers are scored in one rates call over the stacked
    test links, and each row by one rule from its method's rates."""
    try:
        model = surrogate.load_model(model_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{model_path}: cannot read the model ({exc}); re-run train") from exc
    strategy = model.strategy
    pk = LABEL_STRATEGIES.get(strategy)
    if pk is None:
        raise ConfigError(f"{model_path}: unknown label strategy {strategy!r}")
    _require_fingerprint(model_path, "the model's", model.fingerprint, fingerprint(cfg))
    system, surr = cfg.system, cfg.surrogate
    data = _load_dataset(cfg)[0]
    test = _split(data, strategy, surr)[1]
    if not test.size:
        raise ConfigError("dataset has no test split for this model")
    k, n_beams = system.n_users, system.n_beams
    qos = allocators.QoSProfile.uniform(surr.xi_mbps, k, cfg.omega_frac)

    gains = data["x"][test]
    channels = gains.reshape(len(test), k, n_beams).swapaxes(1, 2)
    Ws = PRECODERS[pk](channels, system)
    model_ms = 0.0
    model_powers, Qs = [], []
    for i, H in enumerate(channels):
        W = Ws[i]
        t0 = time.perf_counter()
        link = effective_gains(H, W)
        res = allocators.joint_opt(link, W, qos, system)
        model_ms += (time.perf_counter() - t0) * 1e3
        model_powers.append(res.powers)
        Qs.append(link.Q)
    powers, surro_ms = _timed(surrogate.predict_powers, model, gains, system.p_max_w)
    Q = np.stack(Qs)  # the loop's links, as rows of one
    served = metrics.rates(Link(Ws, Q, Q.diagonal(0, -2, -1)), Ws, np.array((model_powers, powers)), system)  # (2, n, K)

    rows = [
        (f"{method}_{pk}", float(surr.xi_mbps), ms / len(r), float(r.sum(axis=-1).mean()),
         100.0 * int(allocators.satisfied_mask(r, qos.demands).sum()) / r.size)
        for method, ms, r in zip(("model", "surrogate"), (model_ms, surro_ms), served)
    ]
    path = os.path.join(cfg.out_dir, f"eval_{pk}.csv")
    _write_csv(path, EVAL_COLUMNS, EVAL_ROW, rows)
    return path
