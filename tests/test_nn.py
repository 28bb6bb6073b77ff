"""Network initialization, forward/backward correctness, training behavior."""

import math

import numpy as np
import pytest

from uadb import Loss, ScoreVector, TrainSpec, aucroc
from uadb.nn import (
    MlpModel,
    _grads,
    _loss,
    forward,
    gradient_check,
    init_mlp,
    load_checkpoint,
    save_checkpoint,
    train,
)
from uadb.rng import Stream, derive


def _tiny_batch(seed: int, n: int = 6, d: int = 3):
    stream = Stream(seed)
    X = stream.normal(n * d).reshape(n, d)
    y = ScoreVector(stream.uniform(n), normalized=True)
    return X, y


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


def test_init_validation():
    with pytest.raises(ValueError):
        init_mlp(0)
    with pytest.raises(ValueError):
        init_mlp(2, hidden=0)


def test_model_metadata():
    m = init_mlp(3, seed=1, hidden=8)
    assert m.d == 3
    assert m.n_params == 3 * 8 + 8 + 8 * 8 + 8 + 8 * 1 + 1
    c = m.copy()
    c.weights[0][0, 0] += 1.0
    assert m.weights[0][0, 0] != c.weights[0][0, 0]


def test_weight_views_share_theta():
    m = init_mlp(3, seed=4, hidden=8)
    X = Stream(5).normal(18).reshape(6, 3)
    before = forward(m, X).values
    c = m.copy()
    m.weights[0][1, 2] += 1.0
    m.weights[2] *= 2.0
    assert m.theta[1 * 8 + 2] == c.theta[1 * 8 + 2] + 1.0
    assert np.array_equal(m.theta[-9:-1], 2.0 * c.theta[-9:-1])
    assert not np.array_equal(forward(m, X).values, before)
    assert np.array_equal(forward(c, X).values, before)  # the copy kept its own buffer
    c.theta[:] = 0.0
    assert np.all(m.biases[0] == init_mlp(3, seed=4, hidden=8).biases[0])


# ---------------------------------------------------------------------------
# forward


def test_forward_open_interval_and_zero_input():
    m = init_mlp(4, seed=3)
    p = forward(m, np.zeros((2, 4))).values
    assert np.all(p > 0.0) and np.all(p < 1.0)
    stream = Stream(5)
    p = forward(m, stream.normal(80).reshape(20, 4)).values
    assert np.all(p > 0.0) and np.all(p < 1.0)
    assert np.all(np.isfinite(p))


def test_forward_empty_input():
    m = init_mlp(2, seed=0)
    assert len(forward(m, np.empty((0, 2)))) == 0


def test_forward_batching_invariance():
    m = init_mlp(3, seed=7)
    X = Stream(8).normal(30).reshape(10, 3)
    whole = forward(m, X).values
    rows = np.array([forward(m, X[i : i + 1]).values[0] for i in range(10)])
    np.testing.assert_allclose(whole, rows, atol=1e-12)


def test_forward_dimension_check():
    m = init_mlp(3, seed=0)
    with pytest.raises(ValueError):
        forward(m, np.zeros((2, 4)))


def test_doubling_output_weights_sharpens_predictions():
    m = init_mlp(3, seed=9)
    X = Stream(10).normal(24).reshape(8, 3)
    before = forward(m, X).values
    sharp = m.copy()
    sharp.weights[2] *= 2.0
    after = forward(sharp, X).values
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
    base = _loss(m, X, y.values, Loss.CROSS_ENTROPY)
    grads = MlpModel(_grads(m, X, y.values, Loss.CROSS_ENTROPY), m.d, m.hidden)
    probe = m.copy()
    probe.weights[0][1, 2] += h
    fd = (_loss(probe, X, y.values, Loss.CROSS_ENTROPY) - base) / h

    assert grads.weights[0][1, 2] == pytest.approx(fd, rel=1e-3)


def test_gradient_zero_at_exact_fit():
    """Squared error with y = forward(X): the analytic gradient vanishes."""
    m = init_mlp(3, seed=30, hidden=4)
    X, _ = _tiny_batch(31, n=6, d=3)
    y = ScoreVector(forward(m, X).values, normalized=True)

    assert np.abs(_grads(m, X, y.values, Loss.SQUARED_ERROR)).max() < 1e-8


def test_gradient_batch_order_invariance():
    m = init_mlp(2, seed=40, hidden=3)
    X, y = _tiny_batch(41, n=8, d=2)
    perm = Stream(42).permutation(8)

    v1 = _loss(m, X, y.values, Loss.CROSS_ENTROPY)
    v2 = _loss(m, X[perm], y.values[perm], Loss.CROSS_ENTROPY)
    assert v1 == pytest.approx(v2, abs=1e-12)
    g1 = _grads(m, X, y.values, Loss.CROSS_ENTROPY)
    g2 = _grads(m, X[perm], y.values[perm], Loss.CROSS_ENTROPY)
    np.testing.assert_allclose(g1, g2, atol=1e-12)


# ---------------------------------------------------------------------------
# training


def test_train_pulls_outputs_toward_constant_target():
    m = init_mlp(2, seed=50)
    X = Stream(51).normal(120).reshape(60, 2)
    y = ScoreVector(np.full(60, 0.5), normalized=True)
    before = np.abs(forward(m, X).values - 0.5).mean()
    out = train(m, X, y, TrainSpec(seed=52))
    after = np.abs(forward(out, X).values - 0.5).mean()
    assert after < before


def test_train_separates_two_blobs():
    stream = Stream(60)
    a = stream.normal(80).reshape(40, 2) * 0.3
    b = stream.normal(80).reshape(40, 2) * 0.3 + 3.0
    X = np.vstack([a, b])
    y = np.array([0.0] * 40 + [1.0] * 40)
    m = train(init_mlp(2, seed=61), X, ScoreVector(y, normalized=True), TrainSpec(seed=62))
    assert aucroc(forward(m, X).values, y.astype(np.int64)) > 0.95


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
            g = MlpModel(_grads(out, X[batch], y.values[batch], spec.loss), m.d, m.hidden)
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


def test_train_requires_normalized_targets():
    m = init_mlp(2, seed=0)
    X, _ = _tiny_batch(1, n=4, d=2)
    with pytest.raises(ValueError):
        train(m, X, ScoreVector(np.array([0.1, 0.2, 0.3, 0.4])), TrainSpec())


def test_default_loss_is_cross_entropy():
    assert TrainSpec().loss is Loss.CROSS_ENTROPY
    assert Loss.CROSS_ENTROPY.value == "cross-entropy"
    assert Loss.SQUARED_ERROR.value == "squared-error"


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    X, y = _tiny_batch(81, n=10, d=3)
    m = train(init_mlp(3, seed=80), X, y, TrainSpec(seed=82))
    path = tmp_path / "model.json"
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert back.hidden == m.hidden and back.seed == m.seed
    for w1, w2 in zip(m.weights, back.weights):
        assert np.array_equal(w1, w2)
    for b1, b2 in zip(m.biases, back.biases):
        assert np.array_equal(b1, b2)


def test_checkpoint_resave_is_byte_identical(tmp_path):
    X, y = _tiny_batch(83, n=10, d=3)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_checkpoint(train(init_mlp(3, seed=84, hidden=8), X, y, TrainSpec(seed=85)), first)
    save_checkpoint(load_checkpoint(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_foreign_blob(tmp_path):
    path = tmp_path / "model.json"
    save_checkpoint(init_mlp(2, seed=91, hidden=4), path)
    import json

    current = json.loads(path.read_text(encoding="utf-8"))
    # a foreign format, and a version-1 blob from before the activation field was dropped
    for blob in ({"format": "other", "version": 1}, {**current, "version": 1, "activation": "relu"}):
        path.write_text(json.dumps(blob), encoding="utf-8")
        with pytest.raises(ValueError, match="not a version-2 uadb-mlp checkpoint"):
            load_checkpoint(path)


def test_checkpoint_shape_mismatch(tmp_path):
    m = init_mlp(2, seed=90, hidden=4)
    path = tmp_path / "model.json"
    save_checkpoint(m, path)
    import json

    blob = json.loads(path.read_text(encoding="utf-8"))
    blob["d"] = 3  # declared architecture no longer matches stored arrays
    path.write_text(json.dumps(blob), encoding="utf-8")
    with pytest.raises(ValueError):
        load_checkpoint(path)
