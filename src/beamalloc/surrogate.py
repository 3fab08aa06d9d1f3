"""Learned allocator: a fully connected network mapping channel gain vectors
to near-optimal power vectors, trained on allocator-produced labels.

Pipeline: stack per-user gain magnitudes, min-max normalize with training-set
statistics, run the affine/ReLU stack, denormalize with the label statistics,
clip negatives and rescale to the full power budget.  Training minimizes the
MSE between normalized predictions and normalized labels with mini-batch Adam
and reverse-mode gradients through the stack.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

MODEL_FORMAT_VERSION = 3

# Adam moment decay rates and denominator guard
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class NormStats:
    """Min-max statistics fitted on the training split only."""

    x_min: np.ndarray
    x_max: np.ndarray
    p_min: np.ndarray
    p_max: np.ndarray


@dataclass
class SurrogateModel:
    weights: list  # per layer, shape (fan_in, fan_out)
    biases: list  # per layer, shape (fan_out,)
    norm_stats: NormStats
    strategy: str = ""  # the label strategy of its training rows
    fingerprint: str = ""  # and their fingerprint


@dataclass
class TrainingConfig:
    hidden: tuple = (128, 64)
    batch_size: int = 256
    learning_rate: float = 1e-3
    epochs: int = 200
    patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0


@dataclass
class TrainingReport:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = 0


def gains_vector(H: np.ndarray) -> np.ndarray:
    """The whole (N, K) channel, user-major (K blocks of N): H = x.reshape(K, N).T."""
    return H.T.reshape(-1)


def fit_norm_stats(x: np.ndarray, p: np.ndarray) -> NormStats:
    return NormStats(x.min(axis=0), x.max(axis=0), p.min(axis=0), p.max(axis=0))


def _minmax(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Coordinate-wise min-max scaling; degenerate coordinates map to 0."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != lo.shape[0]:
        raise ValueError(f"input length {v.shape[-1]} does not match stats ({lo.shape[0]})")
    span = hi - lo
    out = np.zeros_like(v)
    nz = span > 0
    out[..., nz] = (v[..., nz] - lo[nz]) / span[nz]
    return out


def normalize(x: np.ndarray, stats: NormStats) -> np.ndarray:
    return _minmax(x, stats.x_min, stats.x_max)


def normalize_powers(p: np.ndarray, stats: NormStats) -> np.ndarray:
    return _minmax(p, stats.p_min, stats.p_max)


def denormalize_powers(p_norm: np.ndarray, stats: NormStats) -> np.ndarray:
    return p_norm * (stats.p_max - stats.p_min) + stats.p_min


def _activations(weights, biases, x) -> list:
    """Layer outputs of the stack for a batch `x`, input first and network
    output last: affine + ReLU per hidden layer, affine output."""
    acts = [x]
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if i < last else z)
    return acts


def forward(model: SurrogateModel, x_in: np.ndarray) -> np.ndarray:
    """Network output for one input vector or a batch of them."""
    x = np.atleast_2d(np.asarray(x_in, dtype=float))
    a = _activations(model.weights, model.biases, x)[-1]
    return a[0] if np.ndim(x_in) == 1 else a


def project_budget(p_hat: np.ndarray, p_max_total: float) -> tuple[np.ndarray, int]:
    """Rescale nonnegative predictions to consume the budget exactly.

    `p_hat` is one power vector or a batch of them in rows.  Negative raw
    predictions are clipped first.  A row that is all zero after clipping
    falls back to equal power; the second return value counts those rows.
    """
    p = np.maximum(np.asarray(p_hat, dtype=float), 0.0)
    total = p.sum(axis=-1, keepdims=True)
    fell_back = total <= 0
    # a fallback row rescales all ones over its length: an equal split
    p = np.where(fell_back, 1.0, p)
    total = np.where(fell_back, p.shape[-1], total)
    return p * (p_max_total / total), int(fell_back.sum())


def _init_model(layer_sizes, rng) -> tuple[list, list]:
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)  # He init for the ReLU stack
        weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _loss_and_grads(weights, biases, x, t):
    """MSE loss (mean over the batch of squared error norms) and gradients."""
    n_layers = len(weights)
    acts = _activations(weights, biases, x)
    diff = acts[-1] - t
    batch = x.shape[0]
    loss = float(np.sum(diff**2) / batch)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite loss in forward pass")
    grad_w = [None] * n_layers
    grad_b = [None] * n_layers
    delta = 2.0 * diff / batch
    for i in reversed(range(n_layers)):
        grad_w[i] = acts[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            # acts[i] = max(z, 0) is positive exactly where the ReLU passes
            delta = (delta @ weights[i].T) * (acts[i] > 0)
    return loss, grad_w, grad_b


def _mse(weights, biases, x, t):
    return float(np.sum((_activations(weights, biases, x)[-1] - t) ** 2) / x.shape[0])


def train(x: np.ndarray, p_star: np.ndarray,
          tcfg: TrainingConfig | None = None) -> tuple[SurrogateModel, TrainingReport]:
    """Fit the network on the gain rows `x` (n, N·K) and their label powers
    `p_star` (n, K); deterministic per tcfg.seed.

    Normalization statistics come from the training split only; validation
    loss drives early stopping (best weights are kept).
    """
    tcfg = tcfg or TrainingConfig()
    x_all, p_all = np.asarray(x, dtype=float), np.asarray(p_star, dtype=float)
    n = len(x_all)
    if not n:
        raise ValueError("empty dataset")
    if not (np.isfinite(x_all).all() and np.isfinite(p_all).all()):
        raise ValueError("dataset contains non-finite gains or labels")
    rng = np.random.default_rng(tcfg.seed)
    n_val = max(1, int(round(tcfg.val_fraction * n))) if n > 1 else 0
    perm = rng.permutation(n)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    stats = fit_norm_stats(x_all[train_idx], p_all[train_idx])
    x_n, t_n = normalize(x_all, stats), normalize_powers(p_all, stats)  # elementwise: split after
    x_tr, t_tr, x_va, t_va = x_n[train_idx], t_n[train_idx], x_n[val_idx], t_n[val_idx]

    layer_sizes = [x_all.shape[1], *tcfg.hidden, p_all.shape[1]]
    weights, biases = _init_model(layer_sizes, rng)
    params = weights + biases  # the same arrays, updated in place
    ms = [np.zeros_like(q) for q in params]
    vs = [np.zeros_like(q) for q in params]

    report = TrainingReport()
    best_val = np.inf
    best = ([w.copy() for w in weights], [b.copy() for b in biases])
    stale = 0
    step = 0
    n_tr = len(train_idx)
    for epoch in range(tcfg.epochs):
        order = rng.permutation(n_tr)
        epoch_loss = 0.0
        for lo in range(0, n_tr, tcfg.batch_size):
            idx = order[lo : lo + tcfg.batch_size]
            try:
                loss, gw, gb = _loss_and_grads(weights, biases, x_tr[idx], t_tr[idx])
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"training diverged: non-finite loss at epoch {epoch}, step {step}"
                ) from exc
            epoch_loss += loss * len(idx)
            step += 1
            bc1 = 1.0 - ADAM_BETA1**step
            bc2 = 1.0 - ADAM_BETA2**step
            for i, g in enumerate(gw + gb):
                ms[i] = ADAM_BETA1 * ms[i] + (1 - ADAM_BETA1) * g
                vs[i] = ADAM_BETA2 * vs[i] + (1 - ADAM_BETA2) * g**2
                params[i] -= tcfg.learning_rate * (ms[i] / bc1) / (np.sqrt(vs[i] / bc2) + ADAM_EPS)
        report.train_losses.append(epoch_loss / n_tr)
        val = _mse(weights, biases, x_va, t_va) if n_val else report.train_losses[-1]
        report.val_losses.append(val)
        if val < best_val - 1e-12:
            best_val = val
            best = ([w.copy() for w in weights], [b.copy() for b in biases])
            report.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= tcfg.patience:
                break
    return SurrogateModel(weights=best[0], biases=best[1], norm_stats=stats), report


def predict_powers(model: SurrogateModel, gains: np.ndarray, p_max_total: float) -> np.ndarray:
    """Gain vector(s) -> budget-tight power vector(s)."""
    raw = forward(model, normalize(gains, model.norm_stats))
    return project_budget(denormalize_powers(raw, model.norm_stats), p_max_total)[0]


# ---------------------------------------------------------------------------
# serialization

DATASET_COLUMNS = ("x", "p_star", "seed", "strategy", "fingerprint")


@contextmanager
def publish(path, binary=False):
    """Write `path` as a new file in its directory, made if missing: yield a handle on a fresh
    `<path>.<pid>.tmp`, then unlink `path` and rename the temp file into place.  If the body or the
    unlink raises, the temp file is removed and `path` keeps its bytes.  No file holding data is
    truncated or renamed over (on ext4 with auto_da_alloc either forces a writeback); none is fsynced."""
    tmp = f"{path}.{os.getpid()}.tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        with suppress(FileNotFoundError):
            os.unlink(path)
    except BaseException:
        os.unlink(tmp)
        raise
    os.rename(tmp, path)  # a stop just before it leaves the whole new file at tmp


def dataset_from_rows(rows) -> dict:
    """Columns from (x, p_star, seed, strategy, fingerprint) rows: `x` (n, N·K) holds each whole
    channel user-major (x.reshape(K, N).T == H), `p_star` (n, K) its label powers, `seed` (n,) ints
    (object past int64), `strategy` and `fingerprint` (n,) text."""
    cols = list(zip(*rows)) or [()] * len(DATASET_COLUMNS)
    return {k: np.array(v, dtype=t) for k, v, t in zip(DATASET_COLUMNS, cols, (float, float, None, str, str))}


# (blake2b digest of one dataset file's bytes, the columns they parse to): one immutable tuple, read
# once per call, so a concurrent save cannot pair one file's digest with another file's columns
_dataset_memo = (None, None)


def _parsed_as(x, p, seeds, strategies, fingerprints) -> dict | None:
    """The columns `load_dataset` parses from the rows `save_dataset` writes from these, or None where
    that is not plain: `x` and `p_star` must be 2-D float arrays without NaN (each row a flat list
    whose reprs read back as the same doubles; a NaN keeps no sign), seeds ints and text str."""
    if not (all(type(a) is np.ndarray and a.ndim == 2 and a.dtype.kind == "f" and not np.isnan(a).any()
                for a in (x, p))
            and all(type(s) is int for s in seeds)
            and all(type(t) is str for t in chain(strategies, fingerprints))):
        return None
    return dataset_from_rows(zip(x, p, seeds, strategies, fingerprints))  # float rows read as doubles exactly


def save_dataset(data: dict, path) -> None:
    """One JSON line per row, `json.dumps` of its dict with keys in DATASET_COLUMNS order: `tolist` writes
    seeds as ints, text as strings and floats at full repr, one row of `x` and `p_star` at a time, and a
    row whose `x` has the bits of the row before reuses its text.  The columns a load of the new file
    parses are remembered under a digest of the bytes written, so loading it back parses nothing."""
    import hashlib  # here, not at the top, so that `import beamalloc` does not load `_hashlib`

    global _dataset_memo
    rest = [data[k].tolist() for k in DATASET_COLUMNS[2:]]
    digest, last, x_text = hashlib.blake2b(digest_size=16), None, ""
    with publish(path, binary=True) as fh:
        for x, p, *tail in zip(data["x"], data["p_star"], *rest):
            key = (x.dtype, x.shape, x.tobytes())  # bits, not values: -0.0 == 0.0 prints apart
            if key != last:
                last, x_text = key, json.dumps(x.tolist())
            others = json.dumps(dict(zip(DATASET_COLUMNS[1:], (p.tolist(), *tail))))
            line = f'{{"x": {x_text}, {others[1:]}\n'.encode()  # json.dumps of the whole row's dict
            digest.update(line)
            fh.write(line)
    memo = _parsed_as(data["x"], data["p_star"], *rest)
    if memo is not None:
        _dataset_memo = (digest.digest(), memo)


def load_dataset(path) -> dict:
    """The columns of a JSON-lines dataset; other keys (such as the `xi` demands older datasets
    carried) are ignored, and a missing fingerprint reads as "".  A line that does not parse, whose seed is
    not a JSON integer, or whose `x` or `p_star` is not a flat list as long as the first row's raises
    ValueError naming path:line and, for a length, the first row's line.  The parse is a function of
    the file's bytes: when they are those last saved or parsed in this process, it returns copies of
    those columns and parses nothing."""
    import hashlib

    global _dataset_memo
    with open(path, "rb") as fh:
        raw = fh.read()
    digest = hashlib.blake2b(raw, digest_size=16).digest()
    memo_digest, columns = _dataset_memo
    if memo_digest != digest:
        columns = _parse_dataset(path, raw)
        _dataset_memo = (digest, columns)
    return {k: v.copy() for k, v in columns.items()}


def _parse_dataset(path, raw: bytes) -> dict:
    rows, first = [], None
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8") as fh:  # universal newlines, as open(path) reads
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                x, p = (np.asarray(obj[k], dtype=float) for k in ("x", "p_star"))
                first = first or (line_no, x.shape, p.shape)
                if (x.shape, p.shape) != first[1:] or (x.ndim, p.ndim) != (1, 1):
                    raise ValueError(f"x and p_star of shapes {x.shape} and {p.shape}, not flat lists as long as "
                                     f"line {first[0]}'s {first[1]} and {first[2]}")
                if type(obj["seed"]) is not int:  # a JSON integer only: not 12.7, true or "12"
                    raise ValueError(f"seed {json.dumps(obj['seed'])} is not an integer")
                rows.append((x, p, obj["seed"], str(obj["strategy"]), str(obj.get("fingerprint", ""))))
            except (KeyError, ValueError, TypeError, OverflowError) as exc:
                raise ValueError(f"{path}:{line_no}: bad dataset record: {exc}") from exc
    return dataset_from_rows(rows)


def save_model(model: SurrogateModel, path) -> None:
    """One uncompressed npz archive (format 3): `format_version`, `strategy` and `fingerprint`
    as 0-d arrays, then `weight<i>` and `bias<i>` per layer and the NormStats arrays, published at
    `path`, or written into `path` if it is an open binary handle (such as one `publish` yields)."""
    layers = {f"weight{i}": w for i, w in enumerate(model.weights)}
    layers.update((f"bias{i}", b) for i, b in enumerate(model.biases))
    with nullcontext(path) if hasattr(path, "write") else publish(path, binary=True) as fh:  # np.savez adds .npz to a name
        np.savez(fh, allow_pickle=False, format_version=MODEL_FORMAT_VERSION, strategy=model.strategy,
                 fingerprint=model.fingerprint, **layers, **vars(model.norm_stats))


def load_model(path) -> SurrogateModel:
    """Read a format-3 model; a file that is not one raises ValueError naming the cause."""
    try:
        with open(path, "rb") as fh:  # np.load leaves a path it opened open when the zip is bad
            if fh.read(1) == b"{":
                raise ValueError("a format-2 JSON model")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as z:
                a = {k: z[k] for k in z.files}
    except (EOFError, TypeError, zipfile.BadZipFile) as exc:  # empty, .npy or truncated
        raise ValueError(f"not a whole npz archive ({exc})") from exc
    if a.get("format_version", np.array(None)).tolist() != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {a.get('format_version')}")
    n = sum(k.startswith("weight") for k in a) or 1
    s = [a.get(k, np.empty(0)).size for k in ["x_min", *(f"bias{i}" for i in range(n))]]  # layer widths
    want = {"strategy": (), "fingerprint": (), "x_min": s[:1], "x_max": s[:1]}
    for i in range(n):  # each bias before its weight, so a missing bias is named as such
        want[f"bias{i}"], want[f"weight{i}"] = s[i + 1 : i + 2], s[i : i + 2]
    want.update(p_min=s[-1:], p_max=s[-1:])
    for k, shape in want.items():
        v, kind = a.get(k), "U" if k in ("strategy", "fingerprint") else "f"
        if v is None or v.shape != tuple(shape) or v.dtype.kind != kind:
            raise ValueError(f"{k}: missing" if v is None else f"{k}: {v.dtype} array of shape {v.shape}, "
                             f"expected {'text' if kind == 'U' else 'float'} of shape {tuple(shape)}")
    return SurrogateModel(
        [a[f"weight{i}"] for i in range(n)], [a[f"bias{i}"] for i in range(n)],
        NormStats(*(a[k] for k in ("x_min", "x_max", "p_min", "p_max"))), str(a["strategy"]), str(a["fingerprint"]),
    )
