"""Eval-mode passes over many samples run in chunks of at most SAMPLE_CHUNK."""

import gc
import tracemalloc

import numpy as np
import pytest

from hesslens import autodiff as ad
from hesslens import nn
from hesslens.attacks import attack_batch, batch_input_gradients
from hesslens.nn import SAMPLE_CHUNK, Model, build_model
from hesslens.errors import NumericError
from hesslens.spectrum import ThetaHvpOperator, theta_spectrum

from oracles import hvp_theta, input_gradient, random_batch

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
def test_default_chunks_match_one_pass(monkeypatch, preset):
    model = build_model(preset)
    theta = model.init_params(2)
    bn = perturbed_bn(model, 3)
    x, y = random_batch(model, N, 4)
    loss, acc = model.loss_and_accuracy(theta, x, y, bn_state=bn)
    monkeypatch.setattr(nn, "SAMPLE_CHUNK", N)
    whole_loss, whole_acc = model.loss_and_accuracy(theta, x, y, bn_state=bn)
    assert loss == pytest.approx(whole_loss, rel=1e-12)
    assert acc == whole_acc


def test_chunked_input_gradients_match_per_sample():
    model = build_model("m1_desk")
    theta = model.init_params(5)
    x, y = random_batch(model, N, 6)
    g = batch_input_gradients(model, theta, x, y)
    loss_fn = model.make_input_loss()
    for i in range(N):
        _, gi = input_gradient(loss_fn, theta, x[i], int(y[i]))
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


@pytest.mark.parametrize("preset", ["m1_desk", "c1_desk"])
def test_chunked_theta_hvps_match_one_graph(preset):
    model = build_model(preset)
    theta = model.init_params(9)
    bn = perturbed_bn(model, 10)
    loss_fn = model.make_theta_loss(bn_state=bn)
    v = np.random.default_rng(11).standard_normal(model.param_count)
    # a batch of one chunk is one unweighted graph: bitwise the oracle's
    x, y = random_batch(model, SAMPLE_CHUNK, 12)
    h = ThetaHvpOperator(model, theta, (x, y), bn_state=bn)(v)
    assert h.tobytes() == hvp_theta(loss_fn, theta, (x, y), v).data.tobytes()
    # N rows in three chunks, the last ragged: sum_c (n_c / N) H_c v
    x, y = random_batch(model, N, 13)
    op = ThetaHvpOperator(model, theta, (x, y), bn_state=bn)
    want = hvp_theta(loss_fn, theta, (x, y), v).data
    assert np.allclose(op(v), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    whole, _ = model.loss_and_accuracy(theta, x, y, bn_state=bn)
    assert op.loss == pytest.approx(whole, rel=1e-12)


def traced_peak(run):
    """Peak traced bytes of ``run()`` and the bytes it left allocated, with
    every graph freed by reference counts alone."""
    gc.disable()
    tracemalloc.start()
    try:
        run()
        current, peak = tracemalloc.get_traced_memory()
        return peak, current
    finally:
        tracemalloc.stop()
        gc.enable()


def test_theta_operator_holds_one_chunk_product_graph():
    # c1_desk on 320 rows, the lambda1 probe of robust training: one graph
    # for the whole batch peaked at 255 MiB through one product; chunk
    # graphs with every value kept took 133 MiB and peaked at 156 MiB, and
    # with the input's patch matrices kept 74 and 97 MiB.  Kept 17.4 MiB;
    # sweeps that held every value until they returned peaked at 40.7 MiB in
    # the build and 32.0 MiB more in a product, releasing ones at 33.3 and
    # 16.1 MiB
    model = build_model("c1_desk")
    theta = model.init_params(0)
    batch = random_batch(model, 320, 0)
    v = np.random.default_rng(1).standard_normal(model.param_count)
    ops = []
    build, kept = traced_peak(lambda: ops.append(
        ThetaHvpOperator(model, theta, batch, bn_state=model.new_bn_state())))
    product, _ = traced_peak(lambda: ops[0](v))
    assert kept <= 19 * 2**20
    assert build <= 36 * 2**20
    assert product <= 19 * 2**20


# MiB traced on SAMPLE_CHUNK rows: sweeps that held every value until they
# returned peaked at (fgsm, l2hess) 22.2 and 36.0 MiB on m1_desk and 40.5 and
# 72.3 MiB on c1_desk; releasing ones at 11.3, 21.7 and 20.8, 48.8 MiB
@pytest.mark.parametrize("preset,name,bound", [
    ("m1_desk", "fgsm", 13), ("m1_desk", "l2hess", 24),
    ("c1_desk", "fgsm", 24), ("c1_desk", "l2hess", 54)])
def test_one_attack_chunk_peaks(preset, name, bound):
    model = build_model(preset)
    theta = model.init_params(0)
    bn = perturbed_bn(model, 1)
    x, y = random_batch(model, SAMPLE_CHUNK, 2)

    def run():
        attack_batch(model, theta, x, y, name, eps=0.1, bn_state=bn)

    run()  # lazy set-up outside the traced call
    assert traced_peak(run)[0] <= bound * 2**20


# fgsm10 is left out: it keeps its iterates for the whole batch by design
@pytest.mark.parametrize("preset", ["m1_desk", "c1_desk"])
@pytest.mark.parametrize("name,bound", [("fgsm", 1.25), ("l2grad", 1.25),
                                        ("l2hess", 1.10), ("evaluation", 1.10)])
def test_chunk_loops_hold_one_chunk_graph(preset, name, bound):
    # fgsm on m1_desk: 22.1 MiB at one chunk; at three chunks 43.9 MiB when
    # the next chunk's graph was recorded before the last one was freed,
    # 22.9 MiB with one graph at a time (l2hess on c1_desk: 72.3, 90.3, 75.3)
    model = build_model(preset)
    theta = model.init_params(0)
    bn = perturbed_bn(model, 1)
    x, y = random_batch(model, 3 * SAMPLE_CHUNK, 2)

    def run(n):
        if name == "evaluation":
            model.loss_and_accuracy(theta, x[:n], y[:n], bn_state=bn)
        else:
            attack_batch(model, theta, x[:n], y[:n], name, eps=0.1, bn_state=bn)

    run(SAMPLE_CHUNK)  # lazy set-up outside the traced calls
    one, three = (traced_peak(lambda: run(n))[0] for n in (SAMPLE_CHUNK, 3 * SAMPLE_CHUNK))
    assert three <= bound * one


@pytest.mark.parametrize("preset", ["m1_desk", "c1_desk"])
def test_a_product_without_its_remade_values_fails_loudly(monkeypatch, preset):
    # the input's patch matrix is dropped between products; a product that
    # skipped remaking it would read NaN, never a stale or zero buffer
    model = build_model(preset)
    theta = model.init_params(0)
    batch = random_batch(model, N, 2)
    bn = model.new_bn_state() or None
    op = ThetaHvpOperator(model, theta, batch, bn_state=bn)
    assert all(remade for _, _, remade in op._chunks)
    monkeypatch.setattr(ad, "remake", lambda nodes: None)
    assert np.all(np.isnan(op(np.ones(model.param_count))))
    with pytest.raises(NumericError, match="non-finite"):
        theta_spectrum(model, theta, batch, k=1, max_iter=5, bn_state=bn)
