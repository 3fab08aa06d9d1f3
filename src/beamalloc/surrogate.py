"""Learned allocator: a fully connected network mapping channel gain vectors
to near-optimal power vectors, trained on allocator-produced labels.

Pipeline: stack per-user gain magnitudes, min-max normalize with training-set
statistics, run the affine/ReLU stack, denormalize with the label statistics,
clip negatives and rescale to the full power budget.  Training minimizes the
MSE between normalized predictions and normalized labels with mini-batch Adam
and reverse-mode gradients through the stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class DatasetRecord:
    x: np.ndarray  # the whole channel, user-major: x.reshape(K, N).T == H
    p_star: np.ndarray  # label powers, length K
    seed: int
    strategy: str
    fingerprint: str = ""  # of the settings the labels depend on besides the seed


@dataclass
class SurrogateModel:
    weights: list  # per layer, shape (fan_in, fan_out)
    biases: list  # per layer, shape (fan_out,)
    norm_stats: NormStats
    strategy: str = ""
    fingerprint: str = ""  # copied from the training records


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


def train(
    records: list[DatasetRecord],
    tcfg: TrainingConfig | None = None,
) -> tuple[SurrogateModel, TrainingReport]:
    """Fit the network on allocator labels; deterministic per tcfg.seed.

    Normalization statistics come from the training split only; validation
    loss drives early stopping (best weights are kept).
    """
    tcfg = tcfg or TrainingConfig()
    if not records:
        raise ValueError("empty dataset")
    x_all = np.stack([r.x for r in records]).astype(float)
    p_all = np.stack([r.p_star for r in records]).astype(float)
    if not (np.isfinite(x_all).all() and np.isfinite(p_all).all()):
        raise ValueError("dataset contains non-finite gains or labels")
    rng = np.random.default_rng(tcfg.seed)
    n = len(records)
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
    model = SurrogateModel(
        weights=best[0],
        biases=best[1],
        norm_stats=stats,
        strategy=records[0].strategy,
        fingerprint=records[0].fingerprint,
    )
    return model, report


def predict_powers(model: SurrogateModel, gains: np.ndarray, p_max_total: float) -> np.ndarray:
    """Gain vector(s) -> budget-tight power vector(s)."""
    raw = forward(model, normalize(gains, model.norm_stats))
    return project_budget(denormalize_powers(raw, model.norm_stats), p_max_total)[0]


# ---------------------------------------------------------------------------
# serialization

def save_dataset(records: list[DatasetRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps({"x": r.x.tolist(), "p_star": r.p_star.tolist(), "seed": int(r.seed),
                                 "strategy": r.strategy, "fingerprint": r.fingerprint}) + "\n")


def load_dataset(path) -> list[DatasetRecord]:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                records.append(
                    DatasetRecord(
                        x=np.asarray(obj["x"], dtype=float),
                        p_star=np.asarray(obj["p_star"], dtype=float),
                        seed=int(obj["seed"]),
                        strategy=str(obj["strategy"]),
                        fingerprint=str(obj.get("fingerprint", "")),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: bad dataset record: {exc}") from exc
    return records


def save_model(model: SurrogateModel, path) -> None:
    """One uncompressed npz archive (format 3): `format_version`, `strategy` and `fingerprint`
    as 0-d arrays, then `weight<i>` and `bias<i>` per layer and the NormStats arrays."""
    layers = {f"weight{i}": w for i, w in enumerate(model.weights)}
    layers.update((f"bias{i}", b) for i, b in enumerate(model.biases))
    with open(path, "wb") as fh:  # through a handle: np.savez adds .npz to a bare name
        np.savez(fh, allow_pickle=False, format_version=MODEL_FORMAT_VERSION, strategy=model.strategy,
                 fingerprint=model.fingerprint, **layers, **vars(model.norm_stats))


def load_model(path) -> SurrogateModel:
    """Read a format-3 model; a file that is not one raises ValueError naming the cause."""
    import zipfile  # loaded with numpy already

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
