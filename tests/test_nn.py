"""Network initialization, forward/backward correctness, training behavior."""

import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import full_batch_loss, gradient_check, run_python

from uadb import Loss, TrainSpec, aucroc
from uadb.nn import (
    _FORWARD_BLOCK,
    MlpModel,
    _layers,
    _sigmoid,
    _Workspace,
    forward,
    init_mlp,
    train,
)
from uadb.rng import Stream, derive


def _tiny_batch(seed: int, n: int = 6, d: int = 3):
    stream = Stream(seed)
    X = stream.normal(n * d).reshape(n, d)
    y = stream.uniform(n)
    return X, y


def _grads(m, X, y, loss):
    """The analytic gradient train steps with, from a workspace sized to the batch."""
    return _Workspace(m, len(X)).gradient(m, X, y, loss).copy()


# ---------------------------------------------------------------------------
# initialization


def test_init_deterministic():
    a = init_mlp(4, seed=11)
    b = init_mlp(4, seed=11)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)
    c = init_mlp(4, seed=12)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_shapes_and_weight_bounds():
    m = init_mlp(5, seed=0, hidden=16)
    assert [w.shape for w in m.weights] == [(5, 16), (16, 16), (16, 1)]
    assert [b.shape for b in m.biases] == [(16,), (16,), (1,)]
    for w in m.weights:
        bound = 3.0 / math.sqrt(w.shape[0])
        assert np.all(np.abs(w) <= bound)


def test_init_bias_structure():
    """Deep-layer biases start at zero; a small trailing block of first-layer
    units carries bounded offsets so the network is not purely radial."""
    m = init_mlp(3, seed=2)
    assert np.all(m.biases[1] == 0.0)
    assert np.all(m.biases[2] == 0.0)
    b1 = m.biases[0]
    assert np.all(b1[:110] == 0.0)
    offsets = b1[110:]
    bound = 3.0 / math.sqrt(3)
    assert np.any(offsets != 0.0)
    assert np.all(np.abs(offsets) <= bound)


# sha256 over init_mlp(d, seed, hidden).theta across the grid below, in itertools.product order
_INIT_GOLDEN = "05a24332fa34d020d2bd7b62226d9fd5f45e65cd70e447df5238705f7846098e"


def test_init_golden_digest_over_widths_and_seeds():
    """Pins every init draw, also at widths the booster never uses: hidden <= 18 makes every
    first-layer bias an offset, 19 all but one."""
    digest = hashlib.sha256()
    for d, seed, hidden in itertools.product((1, 2, 7, 130), (0, 1, 2**63, 12345), (1, 3, 16, 18, 19, 128)):
        digest.update(init_mlp(d, seed, hidden).theta.tobytes())
    assert digest.hexdigest() == _INIT_GOLDEN


def test_init_validation():
    with pytest.raises(ValueError):
        init_mlp(0)
    with pytest.raises(ValueError):
        init_mlp(2, hidden=0)


def test_model_metadata():
    m = init_mlp(3, seed=1, hidden=8)
    assert m.d == 3
    assert m.theta.size == 3 * 8 + 8 + 8 * 8 + 8 + 8 * 1 + 1
    c = m.copy()
    c.weights[0][0, 0] += 1.0
    assert m.weights[0][0, 0] != c.weights[0][0, 0]


def test_weight_views_share_theta():
    m = init_mlp(3, seed=4, hidden=8)
    X = Stream(5).normal(18).reshape(6, 3)
    before = forward(m, X)
    c = m.copy()
    m.weights[0][1, 2] += 1.0
    m.weights[2] *= 2.0
    assert m.theta[1 * 8 + 2] == c.theta[1 * 8 + 2] + 1.0
    assert np.array_equal(m.theta[-9:-1], 2.0 * c.theta[-9:-1])
    assert not np.array_equal(forward(m, X), before)
    assert np.array_equal(forward(c, X), before)  # the copy kept its own buffer
    c.theta[:] = 0.0
    assert np.all(m.biases[0] == init_mlp(3, seed=4, hidden=8).biases[0])


# ---------------------------------------------------------------------------
# forward


def test_forward_open_interval_and_zero_input():
    m = init_mlp(4, seed=3)
    p = forward(m, np.zeros((2, 4)))
    assert np.all(p > 0.0) and np.all(p < 1.0)
    stream = Stream(5)
    p = forward(m, stream.normal(80).reshape(20, 4))
    assert np.all(p > 0.0) and np.all(p < 1.0)
    assert np.all(np.isfinite(p))


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_the_two_branch_form_bit_for_bit():
    edges = np.array([0.0, np.inf, 710.0, 745.2, 5e-324])
    z = np.concatenate([edges, -edges, [np.nan]])
    scales = (1e-300, 1e-20, 0.1, 1.0, 100.0, 1e5)
    z = np.concatenate([z] + [Stream(i).normal(10**5 // len(scales)) * scale for i, scale in enumerate(scales)])
    got, want = _sigmoid(z), _two_branch_sigmoid(z)
    number = ~np.isnan(z)  # a NaN stays NaN; its sign bit carries nothing
    assert np.array_equal(np.isnan(got), ~number)
    assert np.array_equal(got[number].view(np.uint64), want[number].view(np.uint64))
    assert (got[0], got[1], got[len(edges) + 1]) == (0.5, 1.0, 0.0)


def test_forward_empty_input():
    m = init_mlp(2, seed=0)
    assert len(forward(m, np.empty((0, 2)))) == 0


def test_forward_batching_invariance():
    m = init_mlp(3, seed=7)
    X = Stream(8).normal(30).reshape(10, 3)
    whole = forward(m, X)
    rows = np.array([forward(m, X[i : i + 1])[0] for i in range(10)])
    np.testing.assert_allclose(whole, rows, atol=1e-12)


# no row, one block (255, 256), a one-row tail that joins its block (257, 513, 2049), many blocks (50001)
_BLOCK_ROWS = (0, 1, 2, 255, 256, 257, 513, 2047, 2048, 2049, 50001)
_BLOCK_WIDTHS = (1, 2, 130)


def _block_mismatches() -> list[tuple[int, int, str]]:
    """(n, d, memory order) of each case where forward differs from one _layers call over all rows."""
    mismatches = []
    for n, d in itertools.product(_BLOCK_ROWS, _BLOCK_WIDTHS):
        m = init_mlp(d, seed=d)
        X = Stream(derive(n, d)).normal(n * d).reshape(n, d)
        orders = {"C": X, "F": np.asfortranarray(X)} if (n, d) == (2049, 130) else {"C": X}
        for order, Xo in orders.items():
            whole = _layers(m, Xo, np.empty((n, m.hidden)), np.empty((n, m.hidden)))
            if not np.array_equal(forward(m, Xo), whole):
                mismatches.append((n, d, order))
    return mismatches


def test_forward_blocks_equal_one_call_over_all_rows():
    # at one BLAS thread, pinned in a child process: with more, the one call splits its rows
    # between threads, and on some kernels that changes their bits
    tests = str(Path(__file__).resolve().parent)
    script = f"import sys; sys.path.insert(0, {tests!r}); import test_nn; print(test_nn._block_mismatches())"
    proc = run_python("-c", script, OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_forward_memory_holds_its_output_and_two_blocks():
    # n rows cost only their (n,) output: the activations stay two blocks long whatever n is
    n = 50_000
    m = init_mlp(8, seed=1)
    X = Stream(2).normal(n * 8).reshape(n, 8)
    tracemalloc.start()
    try:
        forward(m, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    budget = 8 * n + 2 * 8 * (_FORWARD_BLOCK + 1) * m.hidden + 128 * 1024
    assert peak < budget, f"peak {peak / 1e6:.2f} MB over a {budget / 1e6:.2f} MB budget"


def test_forward_dimension_check():
    m = init_mlp(3, seed=0)
    with pytest.raises(ValueError):
        forward(m, np.zeros((2, 4)))


def test_doubling_output_weights_sharpens_predictions():
    m = init_mlp(3, seed=9)
    X = Stream(10).normal(24).reshape(8, 3)
    before = forward(m, X)
    sharp = m.copy()
    sharp.weights[2] *= 2.0
    after = forward(sharp, X)
    assert np.all(np.abs(after - 0.5) >= np.abs(before - 0.5))


# ---------------------------------------------------------------------------
# gradients


def test_gradient_check_random_tiny_models_both_losses():
    # Hidden width >= 16 keeps every sample off the exact ReLU kink
    # (an all-inactive first layer would put layer-2 pre-activations at
    # exactly zero, where finite differences stop being a valid oracle).
    for seed in range(5):
        m = init_mlp(2 + seed % 3, seed=seed, hidden=16 + seed % 4)
        X, y = _tiny_batch(seed + 50, n=5, d=m.d)
        for loss in Loss:
            assert gradient_check(m, X, y, loss) < 1e-4


def test_gradient_independent_finite_difference():
    """Independent route: perturb one weight by hand, difference the loss."""
    m = init_mlp(2, seed=21, hidden=3)
    X, y = _tiny_batch(77, n=4, d=2)

    h = 1e-6
    base = full_batch_loss(m, X, y, Loss.CROSS_ENTROPY)
    grads = MlpModel(_grads(m, X, y, Loss.CROSS_ENTROPY), m.d, m.hidden)
    probe = m.copy()
    probe.weights[0][1, 2] += h
    fd = (full_batch_loss(probe, X, y, Loss.CROSS_ENTROPY) - base) / h

    assert grads.weights[0][1, 2] == pytest.approx(fd, rel=1e-3)


def test_gradient_zero_at_exact_fit():
    """Squared error with y = forward(X): the analytic gradient vanishes."""
    m = init_mlp(3, seed=30, hidden=4)
    X, _ = _tiny_batch(31, n=6, d=3)
    y = forward(m, X)

    assert np.abs(_grads(m, X, y, Loss.SQUARED_ERROR)).max() < 1e-8


def test_gradient_batch_order_invariance():
    m = init_mlp(2, seed=40, hidden=3)
    X, y = _tiny_batch(41, n=8, d=2)
    perm = Stream(42).permutation(8)

    v1 = full_batch_loss(m, X, y, Loss.CROSS_ENTROPY)
    v2 = full_batch_loss(m, X[perm], y[perm], Loss.CROSS_ENTROPY)
    assert v1 == pytest.approx(v2, abs=1e-12)
    g1 = _grads(m, X, y, Loss.CROSS_ENTROPY)
    g2 = _grads(m, X[perm], y[perm], Loss.CROSS_ENTROPY)
    np.testing.assert_allclose(g1, g2, atol=1e-12)


@pytest.mark.parametrize("loss", list(Loss))
def test_train_steps_along_the_checked_gradient(loss):
    """One full-batch step of train moves theta by -lr * g / (|g| + eps), g the gradient gradient_check verifies."""
    m = init_mlp(3, seed=80, hidden=16)
    X, y = _tiny_batch(81, n=7, d=3)
    assert gradient_check(m, X, y, loss) < 1e-4
    g = _grads(m, X, y, loss)
    spec = TrainSpec(epochs=1, batch_size=7, learning_rate=0.01, loss=loss)
    # the first adaptive-moment step: moment1 / c1 = g and sqrt(moment2 / c2) = |g|, up to rounding
    np.testing.assert_allclose(train(m, X, y, spec).theta, m.theta - 0.01 * g / (np.abs(g) + 1e-8), rtol=0, atol=1e-12)


@pytest.mark.parametrize("loss", list(Loss))
def test_gradient_of_a_batch_smaller_than_the_workspace(loss):
    m = init_mlp(2, seed=82, hidden=16)
    X, y = _tiny_batch(83, n=9, d=2)
    workspace = _Workspace(m, 9)
    workspace.gradient(m, X, y, loss)  # leaves every buffer full of the 9-row batch
    short = workspace.gradient(m, X[:4], y[:4], loss)
    assert np.array_equal(short, _grads(m, X[:4], y[:4], loss))
    assert gradient_check(m, X[:4], y[:4], loss) < 1e-4


# ---------------------------------------------------------------------------
# training


def test_train_pulls_outputs_toward_constant_target():
    m = init_mlp(2, seed=50)
    X = Stream(51).normal(120).reshape(60, 2)
    y = np.full(60, 0.5)
    before = np.abs(forward(m, X) - 0.5).mean()
    out = train(m, X, y, TrainSpec(seed=52))
    after = np.abs(forward(out, X) - 0.5).mean()
    assert after < before


def test_train_separates_two_blobs():
    stream = Stream(60)
    a = stream.normal(80).reshape(40, 2) * 0.3
    b = stream.normal(80).reshape(40, 2) * 0.3 + 3.0
    X = np.vstack([a, b])
    y = np.array([0.0] * 40 + [1.0] * 40)
    m = train(init_mlp(2, seed=61), X, y, TrainSpec(seed=62))
    assert aucroc(forward(m, X), y.astype(np.int64)) > 0.95


def test_train_deterministic_and_pure():
    m = init_mlp(2, seed=70)
    X, y = _tiny_batch(71, n=20, d=2)
    snapshot = [w.copy() for w in m.weights]
    out1 = train(m, X, y, TrainSpec(seed=72))
    out2 = train(m, X, y, TrainSpec(seed=72))
    for w1, w2 in zip(out1.weights, out2.weights):
        assert np.array_equal(w1, w2)
    for w, s in zip(m.weights, snapshot):
        assert np.array_equal(w, s)  # input model untouched
    out3 = train(m, X, y, TrainSpec(seed=73))
    assert not np.array_equal(out1.weights[0], out3.weights[0])


def _per_tensor_adam_train(m, X, y, spec):
    """Reference training loop: one moment pair and one Adam update per weight/bias tensor."""
    out = m.copy()
    params = [out.weights[0], out.biases[0], out.weights[1], out.biases[1], out.weights[2], out.biases[2]]
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    step = 0
    n = X.shape[0]
    for epoch in range(spec.epochs):
        order = Stream(derive(spec.seed, epoch)).permutation(n)
        for b in range(math.ceil(n / spec.batch_size)):
            batch = order[b * spec.batch_size : (b + 1) * spec.batch_size]
            g = MlpModel(_grads(out, X[batch], y[batch], spec.loss), m.d, m.hidden)
            grads = [g.weights[0], g.biases[0], g.weights[1], g.biases[1], g.weights[2], g.biases[2]]
            step += 1
            c1 = 1.0 - 0.9**step
            c2 = 1.0 - 0.999**step
            for p, g, m1, m2 in zip(params, grads, moment1, moment2):
                m1 *= 0.9
                m1 += (1.0 - 0.9) * g
                m2 *= 0.999
                m2 += (1.0 - 0.999) * (g * g)
                p -= spec.learning_rate * (m1 / c1) / (np.sqrt(m2 / c2) + 1e-8)
    return out


@pytest.mark.parametrize("loss", list(Loss))
def test_train_matches_per_tensor_adam(loss):
    m = init_mlp(3, seed=74, hidden=16)
    X, y = _tiny_batch(75, n=50, d=3)
    spec = TrainSpec(epochs=3, batch_size=16, learning_rate=0.01, loss=loss, seed=76)
    assert np.array_equal(train(m, X, y, spec).theta, _per_tensor_adam_train(m, X, y, spec).theta)


def test_train_spec_validation():
    with pytest.raises(ValueError):
        TrainSpec(epochs=0)
    with pytest.raises(ValueError):
        TrainSpec(batch_size=0)
    with pytest.raises(ValueError):
        TrainSpec(learning_rate=0.0)
    with pytest.raises(ValueError, match="need finite learning_rate > 0"):
        TrainSpec(learning_rate=math.inf)


def test_train_requires_normalized_targets():
    m = init_mlp(2, seed=0)
    X, _ = _tiny_batch(1, n=4, d=2)
    for bad in (1.5, -0.2, np.nan):
        with pytest.raises(ValueError, match=r"training targets must lie in \[0, 1\]"):
            train(m, X, np.array([0.1, 0.2, bad, 0.4]), TrainSpec())


def test_default_loss_is_cross_entropy():
    assert TrainSpec().loss is Loss.CROSS_ENTROPY
    assert Loss.CROSS_ENTROPY.value == "cross-entropy"
    assert Loss.SQUARED_ERROR.value == "squared-error"
