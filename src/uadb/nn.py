"""Small fully-connected network trained from scratch with backpropagation.

Architecture d -> hidden -> hidden -> 1 (hidden = 128 by default), rectifier
activations, logistic output so scores land in (0, 1). The optimizer is
adaptive-moment estimation with decay rates 0.9/0.999 and stabilizer 1e-8.
Mini-batch shuffling, weight init, and therefore entire training runs are
deterministic given the seeds. A finite-difference gradient check validates
the analytic backward pass.

Targets are continuous values in [0, 1], not hard classes. Both losses
treat them as soft targets; cross-entropy is the default because its output
gradient (p - y) stays large when predictions are far off, while the squared
error gradient carries an extra p(1 - p) factor that throttles learning
under tight step budgets. Squared error remains available as an option.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .detectors import ScoreVector
from .rng import Stream, derive

# output clamp: keeps forward inside the open interval and log-losses finite
_OUTPUT_EPS = 1e-12

# init shape: symmetric fan-in-scaled weights everywhere, and a small block
# of first-layer units with nonzero offsets (see init_mlp)
_INIT_GAIN = 3.0
_INIT_OFFSET_UNITS = 18

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

CHECKPOINT_FORMAT = "uadb-mlp"
CHECKPOINT_VERSION = 2


class Loss(enum.Enum):
    SQUARED_ERROR = "squared-error"
    CROSS_ENTROPY = "cross-entropy"


@dataclass(frozen=True)
class TrainSpec:
    epochs: int = 10
    batch_size: int = 256
    learning_rate: float = 0.001
    loss: Loss = Loss.CROSS_ENTROPY
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"need epochs >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"need batch_size >= 1, got {self.batch_size}")
        if not self.learning_rate > 0:
            raise ValueError(f"need learning_rate > 0, got {self.learning_rate}")


def _shapes(d: int, hidden: int) -> list[tuple[int, ...]]:
    """Layout of the flat parameter vector: [W1, b1, W2, b2, W3, b3]."""
    return [(d, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, 1), (1,)]


@dataclass
class MlpModel:
    """One flat float64 parameter vector theta = [W1, b1, W2, b2, W3, b3], plus init metadata.

    weights[i] (shape (fan_in, fan_out)) and biases[i] (shape (fan_out,))
    are views into theta, so an edit to either shows in the other.
    """

    theta: np.ndarray
    d: int
    hidden: int = 128
    seed: int = 0
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = _shapes(self.d, self.hidden)
        parts = np.split(self.theta, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
        views = [part.reshape(shape) for part, shape in zip(parts, shapes)]
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def n_params(self) -> int:
        return self.theta.size

    def copy(self) -> "MlpModel":
        return MlpModel(self.theta.copy(), self.d, self.hidden, self.seed)


def init_mlp(d: int, seed: int = 0, hidden: int = 128) -> MlpModel:
    """Weights ~ Uniform(-3/sqrt(fan_in), +3/sqrt(fan_in)); biases mostly zero.

    The last 18 first-layer units draw bias offsets from the same bounded
    distribution as their weights; every other bias starts at exactly zero.
    A rectifier stack with all-zero biases computes a positively homogeneous
    function (f(a*x) = a*f(x) for a >= 0), which can only rank points
    monotonically along rays through the origin; the offset block breaks
    that degeneracy while keeping most units radial. Deterministic per
    (d, seed, hidden).
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    if hidden < 1:
        raise ValueError(f"need hidden >= 1, got {hidden}")
    sizes = [d, hidden, hidden, 1]
    parts = []
    for layer in range(3):
        fan_in, fan_out = sizes[layer], sizes[layer + 1]
        bound = _INIT_GAIN / math.sqrt(fan_in)
        u = Stream(derive(seed, layer)).uniform(fan_in * fan_out)
        if layer == 0:
            ub = Stream(derive(seed, 7, layer)).uniform(fan_out)
            b = ub * 2.0 * bound - bound
            b[: max(fan_out - _INIT_OFFSET_UNITS, 0)] = 0.0
        else:
            b = np.zeros(fan_out)
        parts += [u * 2.0 * bound - bound, b]
    return MlpModel(np.concatenate(parts), d, hidden, seed)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_trace(m: MlpModel, X: np.ndarray):
    """Forward pass keeping pre/post-activation values for backprop."""
    z1 = X @ m.weights[0] + m.biases[0]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ m.weights[1] + m.biases[1]
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ m.weights[2] + m.biases[2]
    p = np.clip(_sigmoid(z3), _OUTPUT_EPS, 1.0 - _OUTPUT_EPS)
    return z1, a1, z2, a2, p


def forward(m: MlpModel, X: np.ndarray) -> ScoreVector:
    """Score each row; output strictly inside (0, 1)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.d:
        raise ValueError(f"expected shape (n, {m.d}), got {X.shape}")
    return ScoreVector(_forward_trace(m, X)[-1][:, 0], normalized=True)


def _loss(m: MlpModel, X: np.ndarray, y: np.ndarray, loss: Loss) -> float:
    """Full-batch loss value."""
    pv = _forward_trace(m, X)[-1][:, 0]
    if loss is Loss.SQUARED_ERROR:
        return float(np.mean((pv - y) ** 2))
    return float(-np.mean(y * np.log(pv) + (1.0 - y) * np.log(1.0 - pv)))


def _grads(m: MlpModel, X: np.ndarray, y: np.ndarray, loss: Loss) -> np.ndarray:
    """Full-batch analytic gradient, laid out like theta."""
    n = X.shape[0]
    z1, a1, z2, a2, p = _forward_trace(m, X)
    pv = p[:, 0]
    if loss is Loss.SQUARED_ERROR:
        g3 = (2.0 * (pv - y) * pv * (1.0 - pv) / n)[:, None]
    else:
        g3 = ((pv - y) / n)[:, None]
    gW3 = a2.T @ g3
    gb3 = g3.sum(axis=0)
    g2 = (g3 @ m.weights[2].T) * (z2 > 0.0)
    gW2 = a1.T @ g2
    gb2 = g2.sum(axis=0)
    g1 = (g2 @ m.weights[1].T) * (z1 > 0.0)
    gW1 = X.T @ g1
    gb1 = g1.sum(axis=0)
    return np.concatenate([g.ravel() for g in (gW1, gb1, gW2, gb2, gW3, gb3)])


def train(m: MlpModel, X: np.ndarray, y: ScoreVector, spec: TrainSpec) -> MlpModel:
    """Run epochs of shuffled mini-batch adaptive-moment steps; returns a new model.

    Optimizer moment state starts fresh at every call. The input model is
    not modified, so callers can chain calls to continue training.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.d:
        raise ValueError(f"expected shape (n, {m.d}), got {X.shape}")
    if not y.normalized:
        raise ValueError("training targets must be normalized to [0, 1]")
    n = X.shape[0]
    if len(y) != n:
        raise ValueError(f"target length {len(y)} != row count {n}")
    yv = y.values

    out = m.copy()
    moment1 = np.zeros_like(out.theta)
    moment2 = np.zeros_like(out.theta)
    step = 0
    n_batches = math.ceil(n / spec.batch_size)
    for epoch in range(spec.epochs):
        order = Stream(derive(spec.seed, epoch)).permutation(n)
        for b in range(n_batches):
            batch = order[b * spec.batch_size : (b + 1) * spec.batch_size]
            g = _grads(out, X[batch], yv[batch], spec.loss)
            step += 1
            c1 = 1.0 - _ADAM_BETA1**step
            c2 = 1.0 - _ADAM_BETA2**step
            moment1 *= _ADAM_BETA1
            moment1 += (1.0 - _ADAM_BETA1) * g
            moment2 *= _ADAM_BETA2
            moment2 += (1.0 - _ADAM_BETA2) * (g * g)
            out.theta -= spec.learning_rate * (moment1 / c1) / (np.sqrt(moment2 / c2) + _ADAM_EPS)
    return out


def gradient_check(
    m: MlpModel, X: np.ndarray, y: ScoreVector, loss: Loss = Loss.CROSS_ENTROPY
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Intended for tiny models/batches; cost is two loss evaluations per
    parameter with step 1e-5.
    """
    X = np.asarray(X, dtype=np.float64)
    yv = y.values
    h = 1e-5
    worst = 0.0
    probe = m.copy()
    theta = probe.theta
    for i, g in enumerate(_grads(m, X, yv, loss)):
        keep = theta[i]
        theta[i] = keep + h
        hi = _loss(probe, X, yv, loss)
        theta[i] = keep - h
        lo = _loss(probe, X, yv, loss)
        theta[i] = keep
        fd = (hi - lo) / (2.0 * h)
        worst = max(worst, abs(g - fd) / max(abs(g) + abs(fd), 1e-6))
    return worst


def save_checkpoint(m: MlpModel, path: str | Path) -> None:
    """JSON checkpoint; decimal repr round-trips float64 exactly."""
    blob = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "d": m.d,
        "hidden": m.hidden,
        "seed": m.seed,
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
    }
    Path(path).write_text(json.dumps(blob), encoding="utf-8")


def load_checkpoint(path: str | Path) -> MlpModel:
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    if blob.get("format") != CHECKPOINT_FORMAT or blob.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: not a version-{CHECKPOINT_VERSION} {CHECKPOINT_FORMAT} checkpoint")
    arrays = [np.array(a, dtype=np.float64) for pair in zip(blob["weights"], blob["biases"]) for a in pair]
    if [a.shape for a in arrays] != _shapes(blob["d"], blob["hidden"]):
        raise ValueError(f"{path}: weight shapes do not match declared architecture")
    return MlpModel(np.concatenate([a.ravel() for a in arrays]), blob["d"], blob["hidden"], blob["seed"])
