import numpy as np
import pytest

from hesslens import autodiff as ad
from hesslens import nn, training
from hesslens.errors import ConfigError, DimensionError, NumericError
from hesslens.nn import (
    BN_EPS,
    BN_MOMENTUM,
    LayerSpec,
    Model,
    ModelConfig,
    build_model,
    c1_desk,
    m1_desk,
    softmax,
    softmax_ce_grad,
    softmax_ce_hessian,
)
from hesslens.spectrum import ThetaHvpOperator
from oracles import (
    batch_loss_value,
    fd_grad,
    hvp_input,
    input_gradient,
    input_hessian,
    kink_margin,
    param_view,
    random_batch,
    ref_ce,
    ref_softmax,
)


def test_preset_parameter_counts():
    assert build_model("m1_desk").param_count == 54314
    assert build_model("c1_desk").param_count == 14474


def test_preset_shapes_and_flow():
    m = build_model("m1_desk")
    assert m.in_shape == (1, 28, 28) and m.classes == 10
    c = build_model("c1_desk")
    assert c.in_shape == (3, 32, 32) and c.classes == 10
    x, _ = random_batch(c, 2, 0)
    logits = c.forward(ad.constant(c.init_params(0).data), ad.constant(x),
                       mode="eval", bn_state=c.new_bn_state())
    assert logits.value.shape == (2, 10)


def test_unknown_preset_and_bad_config():
    with pytest.raises(ConfigError):
        build_model("nope")
    with pytest.raises(ConfigError):
        Model(ModelConfig("bad", (1, 4, 4), 3, (LayerSpec("fc", out=7),)))
    with pytest.raises(ConfigError):
        Model(ModelConfig("bad2", (1, 4, 4), 2,
                          (LayerSpec("fc", out=2), LayerSpec("conv", k=3,
                                                             stride=1, out=2))))


def test_forward_rejects_wrong_input_shape():
    m = build_model("m1_desk")
    theta = m.init_params(0)
    with pytest.raises(DimensionError):
        m.forward(ad.constant(theta.data), ad.constant(np.zeros((2, 3, 32, 32))))


def test_init_is_deterministic_and_structured():
    m = build_model("c1_desk")
    a = m.init_params(5)
    b = m.init_params(5)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, m.init_params(6).data)
    assert np.array_equal(param_view(a, "L3.batchnorm.gamma"), np.ones(16))
    assert np.array_equal(param_view(a, "L3.batchnorm.beta"), np.zeros(16))
    assert np.array_equal(param_view(a, "L0.conv.b"), np.zeros(16))
    w = param_view(a, "L0.conv.w")
    assert abs(w.std() - np.sqrt(2.0 / w.shape[0])) < 0.01


# ---------------------------------------------------------------------------
# Softmax cross-entropy closed forms.
# ---------------------------------------------------------------------------


def test_softmax_matches_reference_and_is_shift_invariant():
    rng = np.random.default_rng(0)
    for scale in (1.0, 30.0, 300.0):
        z = rng.standard_normal(10) * scale
        assert np.allclose(softmax(z), ref_softmax(z), rtol=1e-12, atol=1e-300)
        assert np.allclose(softmax(z + 123.0), softmax(z), rtol=1e-9)


def test_ce_value_and_grad_match_finite_differences():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(10) * 3.0
    y = 4
    g = softmax_ce_grad(z, y)
    g_fd = fd_grad(lambda q: ref_ce(q, y), z)
    assert np.allclose(g, g_fd, rtol=1e-6, atol=1e-9)


def test_ce_hessian_structure():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(10) * 5.0
    h = softmax_ce_hessian(z)
    assert np.array_equal(h, h.T)
    assert np.all(np.abs(h.sum(axis=1)) < 1e-15)
    assert np.min(np.linalg.eigvalsh(h)) >= -1e-14
    # and it is the Jacobian of the gradient
    h_fd = np.stack([fd_grad(lambda q: softmax_ce_grad(q, 0)[i], z)
                     for i in range(10)])
    assert np.allclose(h, h_fd, rtol=1e-5, atol=1e-8)


def test_ce_closed_forms_take_a_batch_axis():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((6, 10)) * 4.0
    y = rng.integers(0, 10, 6)
    g, h = softmax_ce_grad(z, y), softmax_ce_hessian(z)
    assert g.shape == (6, 10) and h.shape == (6, 10, 10)
    for i in range(6):
        assert np.array_equal(g[i], softmax_ce_grad(z[i], int(y[i])))
        assert np.array_equal(h[i], softmax_ce_hessian(z[i]))


def test_batch_ce_node_matches_per_sample_closed_form():
    m = build_model("m1_desk")
    theta = m.init_params(1)
    x, y = random_batch(m, 5, 3)
    loss = batch_loss_value(m, theta.data, x, y)
    z = m.logits(theta, x)
    want = np.mean([ref_ce(z[i], y[i]) for i in range(5)])
    assert loss == pytest.approx(want, rel=1e-12)


def test_model_gradient_matches_finite_differences_m1():
    m = build_model("m1_desk")
    theta = m.init_params(2)
    x, y = random_batch(m, 3, 4)
    loss_fn = m.make_theta_loss()
    _, g = ad.value_and_grad(loss_fn, theta, (x, y))
    rng = np.random.default_rng(5)
    idx = rng.integers(0, theta.size, 25)
    h = 1e-6
    for i in idx:
        tp, tm = theta.data.copy(), theta.data.copy()
        tp[i] += h
        tm[i] -= h
        fd = (batch_loss_value(m, tp, x, y) - batch_loss_value(m, tm, x, y)) / (2 * h)
        assert g.data[i] == pytest.approx(fd, rel=2e-5, abs=1e-9)


def test_model_gradient_matches_finite_differences_c1_train_mode():
    m = build_model("c1_desk")
    theta = m.init_params(3)
    bn = m.new_bn_state()
    x, y = random_batch(m, 4, 6)
    loss_fn = m.make_theta_loss(mode="train", bn_state=bn)
    _, g = ad.value_and_grad(loss_fn, theta, (x, y))
    rng = np.random.default_rng(7)
    idx = rng.integers(0, theta.size, 15)
    h = 1e-6
    for i in idx:
        tp, tm = theta.data.copy(), theta.data.copy()
        tp[i] += h
        tm[i] -= h
        fd = (batch_loss_value(m, tp, x, y, mode="train", bn_state=bn)
              - batch_loss_value(m, tm, x, y, mode="train", bn_state=bn)) / (2 * h)
        assert g.data[i] == pytest.approx(fd, rel=5e-5, abs=1e-9)


# ---------------------------------------------------------------------------
# Batch normalization semantics.
# ---------------------------------------------------------------------------


def test_bn_train_mode_normalizes_batch():
    cfg = ModelConfig("bn_only", (2, 4, 4), 32,
                      (LayerSpec("batchnorm"), LayerSpec("fc", out=32)))
    m = Model(cfg)
    theta = m.init_params(0)
    # identity fc so logits expose the normalized activations
    wv = param_view(theta, "L1.fc.w")
    wv[:] = np.eye(32)
    x = np.random.default_rng(8).random((6, 2, 4, 4)) * 3.0
    out = m.forward(ad.constant(theta.data), ad.constant(x), mode="train",
                    bn_state=m.new_bn_state()).value
    act = out.reshape(6, 2, 4, 4)
    mu = act.mean(axis=(0, 2, 3))
    var = act.var(axis=(0, 2, 3))
    assert np.all(np.abs(mu) < 1e-12)
    assert np.allclose(var, 1.0, atol=1e-3)  # eps makes it slightly below 1


def test_bn_running_stats_update_rule():
    m = build_model("c1_desk")
    theta = m.init_params(0)
    bn = m.new_bn_state()
    x, y = random_batch(m, 6, 9)
    tag = "L3.batchnorm"
    before = {k: v.copy() for k, v in bn[tag].items()}
    m.forward(ad.constant(theta.data), ad.constant(x), mode="train",
              bn_state=bn, update_running=True)
    after = bn[tag]
    assert not np.array_equal(after["mean"], before["mean"])
    # invert the blend to recover the batch mean, then re-blend exactly
    batch_mean = (after["mean"] - (1 - BN_MOMENTUM) * before["mean"]) / BN_MOMENTUM
    expect = (1 - BN_MOMENTUM) * before["mean"] + BN_MOMENTUM * batch_mean
    assert np.allclose(after["mean"], expect, rtol=1e-12)
    # eval mode must not touch the stats
    snapshot = {k: v.copy() for k, v in bn[tag].items()}
    m.forward(ad.constant(theta.data), ad.constant(x), mode="eval", bn_state=bn)
    assert np.array_equal(bn[tag]["mean"], snapshot["mean"])


def test_eval_mode_requires_bn_state_for_bn_models():
    m = build_model("c1_desk")
    x, _ = random_batch(m, 2, 0)
    with pytest.raises(ConfigError):
        m.forward(ad.constant(m.init_params(0).data), ad.constant(x), mode="eval")


def test_eval_network_is_locally_affine_in_input():
    # away from kinks, logits(x + t u) must be exactly linear in t
    m = build_model("c1_desk")
    theta = m.init_params(4)
    bn = m.new_bn_state()
    rng = np.random.default_rng(11)
    x = rng.random((1, 3, 32, 32))
    u = rng.standard_normal((1, 3, 32, 32)) * 1e-4

    def logits_at(t):
        return m.logits(theta, x + t * u, bn_state=bn)

    z0, z1, z2 = logits_at(0.0), logits_at(0.5), logits_at(1.0)
    assert np.allclose(z1, (z0 + z2) / 2, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# Input-space curvature.
# ---------------------------------------------------------------------------


def test_input_jacobian_matches_finite_differences():
    m = build_model("m1_desk")
    theta = m.init_params(5)
    rng = np.random.default_rng(12)
    x = rng.random(m.in_shape)
    jac, z = m.input_jacobian(theta, x)
    assert jac.shape == (10, 784)
    assert np.allclose(z, m.logits(theta, x[None])[0], atol=1e-12)
    h = 1e-6
    for k in (0, 3, 9):
        for i in (10, 400, 700):
            xp, xm = x.reshape(-1).copy(), x.reshape(-1).copy()
            xp[i] += h
            xm[i] -= h
            zp = m.logits(theta, xp.reshape((1,) + m.in_shape))[0, k]
            zm = m.logits(theta, xm.reshape((1,) + m.in_shape))[0, k]
            assert jac[k, i] == pytest.approx((zp - zm) / (2 * h), rel=1e-4,
                                              abs=1e-10)


@pytest.mark.parametrize("preset", ["m1_desk", "c1_desk"])
def test_input_jacobians_match_per_sample(preset):
    m = build_model(preset)
    theta = m.init_params(9)
    rng = np.random.default_rng(16)
    bn = m.new_bn_state()
    for st in bn.values():
        st["mean"] += rng.standard_normal(st["mean"].shape)
        st["var"] *= rng.uniform(0.5, 2.0, st["var"].shape)
    bn = bn or None
    x = rng.random((4,) + m.in_shape)
    jac, z = m.input_jacobians(theta, x, bn_state=bn)
    assert jac.shape == (4, m.classes, m.input_dim) and z.shape == (4, m.classes)
    for b in range(4):
        jb, zb = m.input_jacobian(theta, x[b], bn_state=bn)
        assert np.allclose(jac[b], jb, rtol=1e-12, atol=1e-14 * np.abs(jb).max())
        assert np.allclose(z[b], zb, rtol=1e-12, atol=1e-14)


def test_input_jacobians_reject_non_finite_parameters():
    m = build_model("m1_desk")
    theta = m.init_params(10)
    data = theta.data.copy()
    data[0] = np.nan
    x = np.random.default_rng(17).random((2,) + m.in_shape)
    with pytest.raises(NumericError):
        m.input_jacobians(theta.with_data(data), x)


def test_input_hessian_psd_low_rank_and_consistent_with_hvp():
    m = build_model("m1_desk")
    theta = m.init_params(6)
    rng = np.random.default_rng(13)
    x = rng.random(m.in_shape)
    y = 3
    h = input_hessian(m, theta, x)
    assert h.shape == (784, 784)
    assert np.max(np.abs(h - h.T)) < 1e-14
    w = np.linalg.eigvalsh(h)
    assert w[0] >= -1e-10 * max(1.0, w[-1])
    assert np.sum(w > 1e-10 * max(1.0, w[-1])) <= 10
    u = rng.standard_normal(784)
    loss_fn = m.make_input_loss()
    hu = hvp_input(loss_fn, theta, (x, y), u.reshape(m.in_shape)).reshape(-1)
    assert np.allclose(h @ u, hu, rtol=1e-10, atol=1e-12)


def test_zero_parameters_give_zero_input_gradient():
    m = build_model("m1_desk")
    theta = m.init_params(0).with_data(np.zeros(m.param_count))
    loss_fn = m.make_input_loss()
    _, g = input_gradient(loss_fn, theta, np.full(m.in_shape, 0.5), 2)
    assert np.array_equal(g, np.zeros_like(g))


def test_kink_margin_positive_and_detects_proximity():
    m = build_model("m1_desk")
    theta = m.init_params(7)
    x, _ = random_batch(m, 2, 14)
    margin = kink_margin(m, theta, x)
    assert margin > 0
    # zero input with zero biases sits exactly on every relu kink
    zero_theta = theta.with_data(np.zeros(m.param_count))
    assert kink_margin(m, zero_theta, np.zeros((1,) + m.in_shape)) == 0.0


def test_loss_and_accuracy_chunking_is_consistent(monkeypatch):
    m = build_model("m1_desk")
    theta = m.init_params(8)
    x, y = random_batch(m, 30, 15)
    monkeypatch.setattr(nn, "SAMPLE_CHUNK", 7)
    l1, a1 = m.loss_and_accuracy(theta, x, y)
    monkeypatch.setattr(nn, "SAMPLE_CHUNK", 512)
    l2, a2 = m.loss_and_accuracy(theta, x, y)
    assert l1 == pytest.approx(l2, rel=1e-12)
    assert a1 == a2


@pytest.mark.parametrize("name", ["m1_desk", "c1_desk"])
def test_conv_outputs_are_batch_innermost_views(monkeypatch, name):
    # ReLU follows every convolution in both presets, so its 4-d inputs are
    # exactly the conv outputs: (out, out_h, out_w, B) with no transposed view
    model = build_model(name)
    seen = []
    relu = ad.relu

    def spy(x):
        seen.append(x.value)
        return relu(x)

    monkeypatch.setattr(ad, "relu", spy)
    x, _ = random_batch(model, 3, 0)
    model.forward(ad.constant(model.init_params(0).data), ad.constant(x),
                  mode="train")
    conv_outs = [v for v in seen if v.ndim == 4]
    assert len(conv_outs) == 2
    for v in conv_outs:
        assert v.shape[-1] == 3 and v.flags.c_contiguous


def _nodes_made(fn):
    """Nodes the engine records while ``fn`` runs, off its global id counter."""
    start = next(ad._ids)
    fn()
    return next(ad._ids) - start - 1


@pytest.mark.parametrize("name", ["m1_desk", "c1_desk"])
def test_graph_nodes_per_step_and_hvp(name):
    # every node a forward pass records is paid for again in the gradient and
    # in each Hessian-vector product, so a change that adds one shows here.
    # A product lowers its chunk's input again into the released patch
    # matrix's node itself (autodiff.remake), so it records no node for that
    step, hvp = {"m1_desk": (84, 115), "c1_desk": (169, 181)}[name]
    model = build_model(name)
    theta = model.init_params(0)
    batch = random_batch(model, 64, 0)
    bn_state = model.new_bn_state()
    assert _nodes_made(lambda: training._batch_step_grad(
        model, theta, *batch, bn_state)) == step
    op = ThetaHvpOperator(model, theta, batch, bn_state=bn_state)
    assert _nodes_made(lambda: op(np.ones(model.param_count))) == hvp
