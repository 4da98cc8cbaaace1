"""Eval-mode passes over many samples run in chunks of at most SAMPLE_CHUNK."""

import numpy as np
import pytest

from hesslens import autodiff as ad
from hesslens.attacks import attack_batch, batch_input_gradients
from hesslens.nn import SAMPLE_CHUNK, Model, build_model

from oracles import random_batch

N = 150  # two full chunks and a partial one


def perturbed_bn(model, seed):
    """Running statistics away from their initial values (None without BN)."""
    rng = np.random.default_rng(seed)
    bn = model.new_bn_state()
    for st in bn.values():
        st["mean"] += rng.standard_normal(st["mean"].shape)
        st["var"] *= rng.uniform(0.5, 2.0, st["var"].shape)
    return bn or None


def test_eval_passes_never_forward_more_than_a_chunk(monkeypatch):
    model = build_model("m1_desk")
    theta = model.init_params(0)
    x, y = random_batch(model, N, 1)
    rows, jac_rows = [], []
    forward, input_jacobians = Model.forward, Model.input_jacobians

    def spy_forward(self, theta, x, *args, **kwargs):
        rows.append(x.value.shape[0])
        return forward(self, theta, x, *args, **kwargs)

    def spy_jacobians(self, theta, x, *args, **kwargs):
        jac_rows.append(len(x))
        return input_jacobians(self, theta, x, *args, **kwargs)

    monkeypatch.setattr(Model, "forward", spy_forward)
    monkeypatch.setattr(Model, "input_jacobians", spy_jacobians)
    model.loss_and_accuracy(theta, x, y)
    batch_input_gradients(model, theta, x, y)
    attack_batch(model, theta, x, y, "l2hess", eps=1.0)
    assert max(rows) <= SAMPLE_CHUNK
    assert sum(rows) == 3 * N  # every sample once per pass
    assert max(jac_rows) <= SAMPLE_CHUNK and sum(jac_rows) == N


@pytest.mark.parametrize("preset", ["m1_desk", "c1_desk"])
def test_default_chunks_match_one_pass(preset):
    model = build_model(preset)
    theta = model.init_params(2)
    bn = perturbed_bn(model, 3)
    x, y = random_batch(model, N, 4)
    loss, acc = model.loss_and_accuracy(theta, x, y, bn_state=bn)
    whole_loss, whole_acc = model.loss_and_accuracy(theta, x, y, bn_state=bn, chunk=N)
    assert loss == pytest.approx(whole_loss, rel=1e-12)
    assert acc == whole_acc


def test_chunked_input_gradients_match_per_sample():
    model = build_model("m1_desk")
    theta = model.init_params(5)
    x, y = random_batch(model, N, 6)
    g = batch_input_gradients(model, theta, x, y)
    loss_fn = model.make_input_loss()
    for i in range(N):
        _, gi = ad.input_gradient(loss_fn, theta, x[i], int(y[i]))
        assert np.allclose(g[i], gi.reshape(g[i].shape), rtol=1e-12,
                           atol=1e-12 * np.abs(gi).max())


def test_newton_attack_across_a_chunk_boundary_matches_each_sample_alone():
    model = build_model("m1_desk")
    theta = model.init_params(7)
    rng = np.random.default_rng(8)
    n = SAMPLE_CHUNK + 6
    x = 0.3 + 0.4 * rng.random((n,) + model.in_shape)
    y = rng.integers(0, model.classes, n)
    batch = attack_batch(model, theta, x, y, "l2hess", eps=0.5)
    for i in range(n):
        one = attack_batch(model, theta, x[i : i + 1], y[i : i + 1], "l2hess",
                           eps=0.5)
        assert np.allclose(batch.x_adv[i], one.x_adv[0], rtol=0, atol=1e-12)
        assert batch.dampings[i] == pytest.approx(one.dampings[0], rel=1e-12)
