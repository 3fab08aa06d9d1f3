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

from .allocators import score_allocation
from .config import SystemConfig
from .metrics import rates
from .precoding import Precoder

MODEL_FORMAT_VERSION = 1

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
    x: np.ndarray  # stacked |h_kn| gains, length K*N
    p_star: np.ndarray  # label powers, length K
    seed: int
    strategy: str
    xi: np.ndarray  # demands used when labeling


@dataclass
class SurrogateModel:
    weights: list  # per layer, shape (fan_in, fan_out)
    biases: list  # per layer, shape (fan_out,)
    norm_stats: NormStats
    strategy: str = ""

    @property
    def layer_sizes(self) -> list:
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]


@dataclass
class TrainingConfig:
    hidden: tuple = (128, 64)
    batch_size: int = 256
    learning_rate: float = 1e-3
    max_epochs: int = 200
    patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0


@dataclass
class TrainingReport:
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    best_epoch: int = 0
    stopped_early: bool = False


def gains_vector(channel) -> np.ndarray:
    """Stack per-user gain magnitudes |h_kn|, user-major (K blocks of N)."""
    return np.abs(channel.H).T.reshape(-1)


def fit_norm_stats(x: np.ndarray, p: np.ndarray) -> NormStats:
    return NormStats(
        x_min=x.min(axis=0),
        x_max=x.max(axis=0),
        p_min=p.min(axis=0),
        p_max=p.max(axis=0),
    )


def _minmax(v: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    span = hi - lo
    out = np.zeros_like(v, dtype=float)
    nz = span > 0
    out[..., nz] = (v[..., nz] - lo[nz]) / span[nz]
    return out


def normalize(x: np.ndarray, stats: NormStats) -> np.ndarray:
    """Coordinate-wise min-max scaling; degenerate coordinates map to 0."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != stats.x_min.shape[0]:
        raise ValueError(
            f"input length {x.shape[-1]} does not match stats ({stats.x_min.shape[0]})"
        )
    return _minmax(x, stats.x_min, stats.x_max)


def normalize_powers(p: np.ndarray, stats: NormStats) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != stats.p_min.shape[0]:
        raise ValueError("power length does not match stats")
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
    x_tr = normalize(x_all[train_idx], stats)
    t_tr = normalize_powers(p_all[train_idx], stats)
    x_va = normalize(x_all[val_idx], stats) if n_val else None
    t_va = normalize_powers(p_all[val_idx], stats) if n_val else None

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
    for epoch in range(tcfg.max_epochs):
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
                report.stopped_early = True
                break
    model = SurrogateModel(
        weights=best[0],
        biases=best[1],
        norm_stats=stats,
        strategy=records[0].strategy,
    )
    return model, report


def predict_powers(model: SurrogateModel, gains: np.ndarray, p_max_total: float) -> np.ndarray:
    """Gain vector(s) -> budget-tight power vector(s)."""
    raw = forward(model, normalize(gains, model.norm_stats))
    return project_budget(denormalize_powers(raw, model.norm_stats), p_max_total)[0]


def predict(model: SurrogateModel, channel, W: Precoder, qos, cfg: SystemConfig):
    """Full pipeline to an AllocationResult (rates use true interference)."""
    p = predict_powers(model, gains_vector(channel), cfg.p_max_w)
    return score_allocation(p, rates(channel, W, p, cfg), qos, "surrogate")


# ---------------------------------------------------------------------------
# serialization

def save_dataset(records: list[DatasetRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(
                json.dumps(
                    {
                        "x": list(map(float, r.x)),
                        "p_star": list(map(float, r.p_star)),
                        "seed": int(r.seed),
                        "strategy": r.strategy,
                        "xi": list(map(float, r.xi)),
                    }
                )
            )
            fh.write("\n")


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
                        xi=np.asarray(obj["xi"], dtype=float),
                    )
                )
            except (KeyError, ValueError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: bad dataset record: {exc}") from exc
    return records


def save_model(model: SurrogateModel, path) -> None:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "strategy": model.strategy,
        "layer_sizes": model.layer_sizes,
        "weights": [w.reshape(-1).tolist() for w in model.weights],  # row-major
        "biases": [b.tolist() for b in model.biases],
        "norm_stats": {
            "x_min": model.norm_stats.x_min.tolist(),
            "x_max": model.norm_stats.x_max.tolist(),
            "p_min": model.norm_stats.p_min.tolist(),
            "p_max": model.norm_stats.p_max.tolist(),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> SurrogateModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format: {doc.get('format_version')}")
    sizes = doc["layer_sizes"]
    weights = [
        np.asarray(w, dtype=float).reshape(fi, fo)
        for w, fi, fo in zip(doc["weights"], sizes[:-1], sizes[1:])
    ]
    biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
    ns = doc["norm_stats"]
    stats = NormStats(
        x_min=np.asarray(ns["x_min"], dtype=float),
        x_max=np.asarray(ns["x_max"], dtype=float),
        p_min=np.asarray(ns["p_min"], dtype=float),
        p_max=np.asarray(ns["p_max"], dtype=float),
    )
    return SurrogateModel(
        weights=weights, biases=biases, norm_stats=stats, strategy=doc.get("strategy", "")
    )
