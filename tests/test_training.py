"""Trainer semantics: update rule, schedule, determinism, resume, robust path."""

import gc
import weakref

import numpy as np
import pytest

from hesslens import autodiff as ad
from hesslens import training as tr
from hesslens.dataio import synth_blobs
from hesslens.errors import ConfigError, ContractError, DivergenceError
from hesslens.nn import build_model
from hesslens.training import (
    TrainConfig,
    metrics_rows,
    sgd_train,
)

from oracles import tiny_models


def tiny_setup(model_index=0, n_train=48, n_test=24, seed=1):
    model = tiny_models()[model_index]
    c, h, w = model.in_shape
    data = synth_blobs(n_train, n_test, in_shape=(c, h, w),
                       classes=model.classes, seed=seed, separation=1.0,
                       noise=0.1)
    return model, data


def cfg(**kw):
    base = dict(model="t", batch_size=16, lr=0.05, momentum=0.9, epochs=3,
                target_loss=-1.0, halve_every=0, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# ------------------------------------------------------------- update rule


def test_single_fullbatch_step_matches_hand_update():
    model, data = tiny_setup()
    n = data.x_train.shape[0]
    config = cfg(batch_size=n, epochs=1, momentum=0.0, lr=0.1)
    result = sgd_train(model, data, config)

    theta0 = model.init_params(config.seed)
    node = ad.constant(theta0.data)
    loss = model.batch_loss_node(node, ad.constant(data.x_train),
                                 data.y_train, mode="train", bn_state={})
    (g,) = ad.grad(loss, [node])
    expected = theta0.data - 0.1 * g.value
    assert np.allclose(result.theta.data, expected, rtol=1e-13, atol=1e-15)


def test_momentum_recursion_over_epochs():
    model, data = tiny_setup()
    n = data.x_train.shape[0]
    config = cfg(batch_size=n, epochs=3, momentum=0.9, lr=0.05)
    result = sgd_train(model, data, config)

    theta = model.init_params(config.seed).data.copy()
    vel = np.zeros_like(theta)
    for _ in range(3):
        node = ad.constant(theta)
        loss = model.batch_loss_node(node, ad.constant(data.x_train),
                                     data.y_train, mode="train", bn_state={})
        (g,) = ad.grad(loss, [node])
        vel = 0.9 * vel + g.value
        theta = theta - 0.05 * vel
    assert np.allclose(result.theta.data, theta, rtol=1e-12, atol=1e-14)
    assert np.allclose(result.momentum, vel, rtol=1e-12, atol=1e-14)


def test_partial_trailing_batch_is_used(monkeypatch):
    model, data = tiny_setup(n_train=10)
    calls = []
    real = tr._batch_step_grad

    def counting(model_, theta, xb, yb, bn_state):
        calls.append(xb.shape[0])
        return real(model_, theta, xb, yb, bn_state)

    monkeypatch.setattr(tr, "_batch_step_grad", counting)
    sgd_train(model, data, cfg(batch_size=4, epochs=2))
    assert calls == [4, 4, 2, 4, 4, 2]


def test_lr_halving_schedule():
    model, data = tiny_setup()
    config = cfg(epochs=6, halve_every=2, lr=0.08)
    result = sgd_train(model, data, config)
    lrs = [row["lr"] for row in result.history]
    assert lrs == [0.08, 0.08, 0.04, 0.04, 0.02, 0.02]


# ------------------------------------------------------ stopping and errors


def test_target_loss_stops_early():
    model, data = tiny_setup()
    config = cfg(epochs=50, target_loss=5.0)  # reached after the first epoch
    result = sgd_train(model, data, config)
    assert result.converged
    assert result.epochs_run == 1
    assert len(result.history) == 1
    assert result.final_loss <= 5.0


def test_epoch_cap_without_convergence():
    model, data = tiny_setup()
    result = sgd_train(model, data, cfg(epochs=2, target_loss=-1.0))
    assert not result.converged
    assert result.epochs_run == 2
    assert len(result.history) == 2


def test_divergence_raises():
    model, data = tiny_setup()
    with pytest.raises(DivergenceError):
        sgd_train(model, data, cfg(lr=1e6, epochs=10))


@pytest.mark.parametrize("field,value", [
    ("batch_size", 0),
    ("lr", 0.0),
    ("lr", float("nan")),
    ("lr", float("inf")),
    ("momentum", 1.0),
    ("momentum", -0.1),
    ("epochs", 0),
    ("halve_every", -1),
    ("attack", "pgd"),
    ("eps", -0.5),
    ("eps", float("nan")),
    ("eps", float("inf")),
    ("lambda1_every", -1),
    ("lambda1_tol", 0.0),
    ("lambda1_iters", 0),
])
def test_config_validation(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        cfg(**{field: value}).validate()


# ------------------------------------------------------------- determinism


def test_training_is_bitwise_deterministic():
    model, data = tiny_setup()
    config = cfg(epochs=3)
    a = sgd_train(model, data, config)
    b = sgd_train(model, data, config)
    assert np.array_equal(a.theta.data, b.theta.data)
    assert np.array_equal(a.momentum, b.momentum)
    assert [r["train_loss"] for r in a.history] == [r["train_loss"] for r in b.history]


def test_seed_changes_trajectory():
    model, data = tiny_setup()
    a = sgd_train(model, data, cfg(epochs=2, seed=0))
    b = sgd_train(model, data, cfg(epochs=2, seed=1))
    assert not np.array_equal(a.theta.data, b.theta.data)


def test_resume_matches_straight_run():
    model, data = tiny_setup()
    straight = sgd_train(model, data, cfg(epochs=4))
    half = sgd_train(model, data, cfg(epochs=2))
    resumed = sgd_train(model, data, cfg(epochs=4), init=half.state)
    assert np.array_equal(resumed.theta.data, straight.theta.data)
    assert np.array_equal(resumed.momentum, straight.momentum)
    assert resumed.epochs_run == straight.epochs_run


def test_resume_matches_straight_run_with_batchnorm():
    model, data = tiny_setup(model_index=4)  # includes a batchnorm layer
    straight = sgd_train(model, data, cfg(epochs=4, batch_size=12))
    half = sgd_train(model, data, cfg(epochs=2, batch_size=12))
    resumed = sgd_train(model, data, cfg(epochs=4, batch_size=12),
                        init=half.state)
    assert np.array_equal(resumed.theta.data, straight.theta.data)
    for key in straight.bn_state:
        for stat in straight.bn_state[key]:
            assert np.array_equal(resumed.bn_state[key][stat],
                                  straight.bn_state[key][stat])


def test_resume_refuses_a_negative_epoch():
    # resumed at epoch -3 with halve_every 1, the schedule ran at 8x lr
    model, data = tiny_setup()
    state = sgd_train(model, data, cfg(epochs=1)).state
    state.epoch = -3
    with pytest.raises(ContractError, match="^init.epoch must be non-negative, got -3"):
        sgd_train(model, data, cfg(epochs=1, halve_every=1), init=state)


# ------------------------------------------------------------- robust path


def test_robust_with_zero_eps_is_bitwise_plain():
    model, data = tiny_setup()
    plain = sgd_train(model, data, cfg(epochs=2))
    robust = sgd_train(model, data, cfg(epochs=2, attack="fgsm", eps=0.0))
    assert np.array_equal(plain.theta.data, robust.theta.data)


def test_lambda1_trace_does_not_depend_on_released_values(monkeypatch):
    # the lambda1 probe's graphs drop and remake values between products;
    # graphs that keep every value give bitwise the same fgsm epoch
    model = build_model("c1_desk")
    data = synth_blobs(80, 16, in_shape=model.in_shape, classes=model.classes,
                       seed=3)
    config = TrainConfig(model="c1_desk", batch_size=32, epochs=1, attack="fgsm",
                         eps=0.02, lambda1_every=1, lambda1_iters=20, seed=0)
    released = sgd_train(model, data, config)
    monkeypatch.setattr(ad, "release_unread", lambda root, wrt: [])
    kept = sgd_train(model, data, config)
    assert not np.isnan(released.history[0]["lambda1"])
    assert metrics_rows(released.history) == metrics_rows(kept.history)
    assert released.theta.data.tobytes() == kept.theta.data.tobytes()


def test_robust_with_positive_eps_changes_trajectory():
    model, data = tiny_setup()
    plain = sgd_train(model, data, cfg(epochs=2))
    robust = sgd_train(model, data, cfg(epochs=2, attack="fgsm", eps=0.1))
    assert not np.array_equal(plain.theta.data, robust.theta.data)


# ------------------------------------------------------- curvature trace


def test_lambda1_trace_cadence_and_carry_forward():
    model, data = tiny_setup()
    config = cfg(epochs=4, lambda1_every=2, lambda1_iters=50)
    result = sgd_train(model, data, config)
    lam = [row["lambda1"] for row in result.history]
    assert np.isfinite(lam[0]) and np.isfinite(lam[2])
    assert lam[1] == lam[0]  # carried forward between measurements
    assert lam[3] == lam[2]


def test_lambda1_disabled_yields_nan():
    model, data = tiny_setup()
    result = sgd_train(model, data, cfg(epochs=2))
    assert all(np.isnan(row["lambda1"]) for row in result.history)


# --------------------------------------------------------------- reporting


def test_metrics_rows_formatting():
    history = [
        {"epoch": 0, "lr": 0.05, "train_loss": 1.5, "train_acc": 0.25,
         "test_loss": 1.625, "test_acc": 0.2, "lambda1": float("nan")},
        {"epoch": 1, "lr": 0.05, "train_loss": 0.75, "train_acc": 0.5,
         "test_loss": 1.0, "test_acc": 0.4, "lambda1": 3.5},
    ]
    rows = metrics_rows(history)
    assert rows[0] == {"epoch": "0", "lr": "0.05", "train_loss": "1.5",
                       "train_acc": "0.25", "test_loss": "1.625",
                       "test_acc": "0.2", "lambda1": ""}
    assert rows[1]["lambda1"] == "3.5"


@pytest.mark.parametrize("name", ["m1_desk", "c1_desk"])
def test_training_step_graph_is_freed_without_the_cyclic_collector(monkeypatch, name):
    model = build_model(name)
    refs = []
    im2col = ad.im2col

    def spy(x, geom):
        out = im2col(x, geom)
        refs.append(weakref.ref(out.value))
        return out

    monkeypatch.setattr(ad, "im2col", spy)
    rng = np.random.default_rng(0)
    x = rng.random((4,) + model.in_shape)
    y = rng.integers(0, model.classes, 4)
    gc.disable()
    try:
        tr._batch_step_grad(model, model.init_params(0), x, y, model.new_bn_state())
        alive = [r for r in refs if r() is not None]
    finally:
        gc.enable()
    assert len(refs) == 2 and not alive
