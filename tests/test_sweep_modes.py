"""The lean sweeps of ``autodiff.grad`` give the bytes of a full recorded graph.

Input gradients sweep once with ``record=False, release=True``, input
Jacobians and θ-HVP products with ``record=False``, and the θ-HVP operator
records its gradient graphs with ``release=True``; a training step records
and keeps its whole graph.  Each output here is compared with the same
computation when every ``grad`` records and keeps its whole graph.
"""

import numpy as np
import pytest

from hesslens import autodiff as ad
from hesslens import training
from hesslens.attacks import attack_batch, batch_input_gradients
from hesslens.dataio import synth_blobs
from hesslens.errors import DivergenceError, NumericError
from hesslens.nn import SAMPLE_CHUNK, build_model
from hesslens.spectrum import ThetaHvpOperator, theta_spectrum
from hesslens.training import TrainConfig, sgd_train

from oracles import random_batch

N = SAMPLE_CHUNK + 32  # a full chunk and a partial one


def full_graphs(monkeypatch):
    """Make every ``grad`` record and keep its whole graph."""
    grad = ad.grad

    def recorded(output, wrt, record=True, release=False):
        out = grad(output, wrt)
        return out if record else [g.value for g in out]

    monkeypatch.setattr(ad, "grad", recorded)


def as_bytes(x):
    if isinstance(x, dict):
        return b"".join(as_bytes(x[k]) for k in sorted(x))
    if isinstance(x, (list, tuple)):
        return b"".join(as_bytes(v) for v in x)
    return np.asarray(x).tobytes()


def outputs(preset):
    model = build_model(preset)
    theta = model.init_params(3)
    x, y = random_batch(model, N, 4)
    v = np.random.default_rng(5).standard_normal(model.param_count)
    bn = model.new_bn_state()
    step = training._batch_step_grad(model, theta, x[:32], y[:32], bn)
    op = ThetaHvpOperator(model, theta, (x, y), bn_state=bn or None)
    data = synth_blobs(N, 16, in_shape=model.in_shape, seed=6, separation=3.0, noise=0.2)
    run = sgd_train(model, data, TrainConfig(
        batch_size=32, lr=0.01, epochs=2, target_loss=0.0, attack="fgsm", eps=0.1,
        lambda1_every=1, lambda1_iters=5))
    return {
        "training step": (step, bn),
        "input gradients": batch_input_gradients(model, theta, x, y, bn or None),
        "input jacobians": model.input_jacobians(theta, x[:8], bn or None),
        "operator build": (op.loss, [g.value for _, g, _ in op._chunks]),
        "product": (op(v), op(2.0 * v)),
        "fgsm epochs": ([h["lambda1"] for h in run.history], run.theta.data,
                        run.bn_state),
    }


@pytest.mark.parametrize("preset", ["m1_desk", "c1_desk"])
def test_lean_sweeps_give_the_full_graphs_bytes(monkeypatch, preset):
    lean = outputs(preset)
    full_graphs(monkeypatch)
    full = outputs(preset)
    assert all(np.all(np.isfinite(lam)) for lam in lean["fgsm epochs"][0])
    for name in full:
        assert as_bytes(lean[name]) == as_bytes(full[name]), name


def test_value_sweeps_return_arrays(monkeypatch):
    # a consumed graph cannot be fed to a rule or differentiated again by
    # mistake, which would give zeros with no error
    model = build_model("m1_desk")
    theta = model.init_params(0)
    x, y = random_batch(model, 8, 1)
    calls = []
    grad = ad.grad

    def spy(output, wrt, record=True, release=False):
        out = grad(output, wrt, record, release)
        calls.append((record, out))
        return out

    monkeypatch.setattr(ad, "grad", spy)
    training._batch_step_grad(model, theta, x, y, model.new_bn_state())
    batch_input_gradients(model, theta, x, y)
    model.input_jacobians(theta, x)
    ThetaHvpOperator(model, theta, (x, y))(np.ones(model.param_count))
    ad.value_and_grad(model.make_theta_loss(), theta, (x, y))
    values = [out for record, out in calls if not record]
    assert len(values) == 3 + model.classes
    for (g,) in values:
        assert type(g) is np.ndarray
        with pytest.raises(AttributeError):
            ad.mul(g, ad.constant(np.ones_like(g)))
    assert sum(record for record, _ in calls) == 2  # the step and the operator's build


@pytest.mark.parametrize("preset", ["m1_desk", "c1_desk"])
def test_an_over_eager_release_fails_loudly(monkeypatch, preset):
    # with no value counted as read, a release drops values that the rules
    # then read: they give NaN, which the callers' checks turn into errors
    model = build_model(preset)
    theta = model.init_params(0)
    x, y = random_batch(model, N, 2)
    bn = model.new_bn_state() or None
    monkeypatch.setattr(ad, "_reads", lambda node, active: ())
    assert np.any(np.isnan(batch_input_gradients(model, theta, x, y, bn)))
    op = ThetaHvpOperator(model, theta, (x, y), bn_state=bn)
    assert np.any(np.isnan(op(np.ones(model.param_count))))
    with pytest.raises(NumericError, match="non-finite"):
        theta_spectrum(model, theta, (x, y), k=1, max_iter=5, bn_state=bn)
    # an fgsm step along a NaN input gradient fails in the attack itself
    with pytest.raises(NumericError, match="non-finite length of the input gradient"):
        attack_batch(model, theta, x, y, "fgsm", eps=0.1, bn_state=bn)
    data = synth_blobs(N, 16, in_shape=model.in_shape, seed=3, separation=3.0, noise=0.2)
    with pytest.raises(DivergenceError, match="non-finite"):
        sgd_train(model, data, TrainConfig(batch_size=32, lr=0.01, epochs=1,
                                           attack="fgsm", eps=0.1))
