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
import math
from dataclasses import dataclass, field

import numpy as np

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
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"need finite learning_rate > 0, got {self.learning_rate}")


def _shapes(d: int, hidden: int) -> list[tuple[int, ...]]:
    """Layout of the flat parameter vector: [W1, b1, W2, b2, W3, b3]."""
    return [(d, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, 1), (1,)]


@dataclass
class MlpModel:
    """One flat float64 parameter vector theta = [W1, b1, W2, b2, W3, b3] for input width d.

    weights[i] (shape (fan_in, fan_out)) and biases[i] (shape (fan_out,))
    are views into theta, so an edit to either shows in the other.
    """

    theta: np.ndarray
    d: int
    hidden: int = 128
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        shapes = _shapes(self.d, self.hidden)
        parts = np.split(self.theta, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
        views = [part.reshape(shape) for part, shape in zip(parts, shapes)]
        self.weights, self.biases = views[0::2], views[1::2]

    def copy(self) -> "MlpModel":
        return MlpModel(self.theta.copy(), self.d, self.hidden)


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
    return MlpModel(np.concatenate(parts), d, hidden)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _layers(m: MlpModel, X: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Output for each row of X; a1 and a2 (rows, hidden) receive the two hidden activations."""
    np.matmul(X, m.weights[0], out=a1)
    a1 += m.biases[0]
    np.maximum(a1, 0.0, out=a1)
    np.matmul(a1, m.weights[1], out=a2)
    a2 += m.biases[1]
    np.maximum(a2, 0.0, out=a2)
    z3 = a2 @ m.weights[2] + m.biases[2]
    return np.clip(_sigmoid(z3), _OUTPUT_EPS, 1.0 - _OUTPUT_EPS)[:, 0]


def forward(m: MlpModel, X: np.ndarray) -> np.ndarray:
    """Score each row; output strictly inside (0, 1)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.d:
        raise ValueError(f"expected shape (n, {m.d}), got {X.shape}")
    return _layers(m, X, np.empty((X.shape[0], m.hidden)), np.empty((X.shape[0], m.hidden)))


def _unit_targets(y, what: str) -> np.ndarray:
    """y as a 1-d float64 array with every entry in [0, 1] (NaN fails)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"{what} must be 1-d, got shape {y.shape}")
    if not np.all((y >= 0.0) & (y <= 1.0)):
        raise ValueError(f"{what} must lie in [0, 1]")
    return y


def _loss(m: MlpModel, X: np.ndarray, y: np.ndarray, loss: Loss) -> float:
    """Full-batch loss value."""
    pv = forward(m, X)
    if loss is Loss.SQUARED_ERROR:
        return float(np.mean((pv - y) ** 2))
    return float(-np.mean(y * np.log(pv) + (1.0 - y) * np.log(1.0 - pv)))


class _Workspace:
    """Buffers for the gradient of any batch of up to `rows` rows, allocated once per train call.

    Three (rows, hidden) blocks hold a1, a2 and g2; g1 reuses a2's block
    once a2 is dead. The ReLU masks come from a > 0, which equals z > 0.
    The flat gradient is laid out like theta, with per-layer views.
    """

    def __init__(self, m: MlpModel, rows: int):
        self.a1, self.a2, self.g2 = (np.empty((rows, m.hidden)) for _ in range(3))
        self.mask = np.empty((rows, m.hidden), dtype=bool)
        self.grad = MlpModel(np.empty_like(m.theta), m.d, m.hidden)

    def gradient(self, m: MlpModel, X: np.ndarray, y: np.ndarray, loss: Loss) -> np.ndarray:
        """Analytic gradient of the mean loss over the rows of X; a view into the workspace."""
        n = X.shape[0]
        a1, a2, g2, mask = self.a1[:n], self.a2[:n], self.g2[:n], self.mask[:n]
        pv = _layers(m, X, a1, a2)
        if loss is Loss.SQUARED_ERROR:
            g3 = (2.0 * (pv - y) * pv * (1.0 - pv) / n)[:, None]
        else:
            g3 = ((pv - y) / n)[:, None]
        gw, gb = self.grad.weights, self.grad.biases
        np.matmul(a2.T, g3, out=gw[2])
        np.sum(g3, axis=0, out=gb[2])
        np.greater(a2, 0.0, out=mask)
        np.matmul(g3, m.weights[2].T, out=g2)
        g2 *= mask
        np.matmul(a1.T, g2, out=gw[1])
        np.sum(g2, axis=0, out=gb[1])
        np.greater(a1, 0.0, out=mask)
        g1 = np.matmul(g2, m.weights[1].T, out=a2)
        g1 *= mask
        np.matmul(X.T, g1, out=gw[0])
        np.sum(g1, axis=0, out=gb[0])
        return self.grad.theta


def train(m: MlpModel, X: np.ndarray, y: np.ndarray, spec: TrainSpec) -> MlpModel:
    """Run epochs of shuffled mini-batch adaptive-moment steps; returns a new model.

    y holds one soft target in [0, 1] per row of X. Optimizer moment state
    starts fresh at every call. The input model is not modified, so callers
    can chain calls to continue training.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != m.d:
        raise ValueError(f"expected shape (n, {m.d}), got {X.shape}")
    n = X.shape[0]
    yv = _unit_targets(y, "training targets")
    if yv.size != n:
        raise ValueError(f"target length {yv.size} != row count {n}")

    out = m.copy()
    workspace = _Workspace(out, min(spec.batch_size, n))
    moment1 = np.zeros_like(out.theta)
    moment2 = np.zeros_like(out.theta)
    scratch = np.empty_like(out.theta)
    step = 0
    n_batches = math.ceil(n / spec.batch_size)
    for epoch in range(spec.epochs):
        order = Stream(derive(spec.seed, epoch)).permutation(n)
        for b in range(n_batches):
            batch = order[b * spec.batch_size : (b + 1) * spec.batch_size]
            g = workspace.gradient(out, X[batch], yv[batch], spec.loss)
            step += 1
            c1 = 1.0 - _ADAM_BETA1**step
            c2 = 1.0 - _ADAM_BETA2**step
            moment1 *= _ADAM_BETA1
            np.multiply(g, 1.0 - _ADAM_BETA1, out=scratch)
            moment1 += scratch
            moment2 *= _ADAM_BETA2
            np.multiply(g, g, out=scratch)
            scratch *= 1.0 - _ADAM_BETA2
            moment2 += scratch
            # theta -= lr * (moment1 / c1) / (sqrt(moment2 / c2) + eps), in g once it is dead
            np.divide(moment2, c2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += _ADAM_EPS
            np.divide(moment1, c1, out=g)
            g *= spec.learning_rate
            g /= scratch
            out.theta -= g
    return out


def gradient_check(
    m: MlpModel, X: np.ndarray, y: np.ndarray, loss: Loss = Loss.CROSS_ENTROPY
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Intended for tiny models/batches; cost is two loss evaluations per
    parameter with step 1e-5.
    """
    X = np.asarray(X, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    h = 1e-5
    worst = 0.0
    probe = m.copy()
    theta = probe.theta
    for i, g in enumerate(_Workspace(m, X.shape[0]).gradient(m, X, yv, loss)):
        keep = theta[i]
        theta[i] = keep + h
        hi = _loss(probe, X, yv, loss)
        theta[i] = keep - h
        lo = _loss(probe, X, yv, loss)
        theta[i] = keep
        fd = (hi - lo) / (2.0 * h)
        worst = max(worst, abs(g - fd) / max(abs(g) + abs(fd), 1e-6))
    return worst
