"""Attack correctness against closed forms and dense linear-algebra oracles."""

import numpy as np
import pytest

from hesslens.attacks import (
    ATTACK_NAMES,
    Damping,
    _step,
    attack_batch,
    batch_input_gradients,
    cg_solve,
    eps_preset,
    evaluate_adversarial,
)
from hesslens.errors import (
    ConfigError,
    ContractError,
    NumericError,
    PSDViolationError,
    ZeroDirectionError,
)
from hesslens.nn import build_model, softmax_ce_grad, softmax_ce_hessian
from hesslens.spectrum import InputHvpOperator

from oracles import input_gradient, input_hessian, perturbed_bn_state, tiny_models


def small_model():
    # t_fc: 1x3x3 input, 3 classes, 104 params — cheap enough for dense oracles
    return tiny_models()[0]


def interior_batch(model, n, seed):
    """Inputs away from the [0, 1] walls so small perturbations never clamp."""
    rng = np.random.default_rng(seed)
    x = 0.3 + 0.4 * rng.random((n,) + model.in_shape)
    y = rng.integers(0, model.classes, n)
    return x, y


# ---------------------------------------------------------------- cg_solve


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 30))
    a = a @ a.T + 30 * np.eye(30)
    b = rng.standard_normal(30)
    z, iters, converged, resid = cg_solve(lambda v: a @ v, b, tol=1e-10, max_iter=200)
    assert converged
    assert iters <= 200
    ref = np.linalg.solve(a, b)
    assert np.linalg.norm(z - ref) <= 1e-7 * np.linalg.norm(ref)
    assert resid <= 1e-10 * np.linalg.norm(b)


def test_cg_zero_rhs_is_trivial():
    z, iters, converged, resid = cg_solve(lambda v: 2.0 * v, np.zeros(7))
    assert converged and iters == 0 and resid == 0.0
    assert np.all(z == 0.0)


def test_cg_rejects_indefinite_operator():
    a = np.diag([1.0, -1.0, 3.0])
    b = np.array([0.0, 1.0, 0.0])
    with pytest.raises(PSDViolationError):
        cg_solve(lambda v: a @ v, b)


def test_cg_reports_nonconvergence():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((40, 40))
    a = a @ a.T + 1e-3 * np.eye(40)
    b = rng.standard_normal(40)
    z, iters, converged, resid = cg_solve(lambda v: a @ v, b, tol=1e-14, max_iter=2)
    assert not converged and iters == 2 and resid > 0.0


def test_cg_exact_on_identity_in_one_step():
    b = np.arange(1.0, 6.0)
    z, iters, converged, _ = cg_solve(lambda v: v, b, tol=1e-12)
    assert converged and iters == 1
    assert np.allclose(z, b, atol=1e-14)


# ----------------------------------------------------- gradient-based steps


def test_fgsm_closed_form():
    model = small_model()
    theta = model.init_params(seed=3)
    x, y = interior_batch(model, 6, seed=4)
    g = batch_input_gradients(model, theta, x, y)
    report = attack_batch(model, theta, x, y, "fgsm", eps=0.05)
    expected = np.clip(x + 0.05 * np.sign(g), 0.0, 1.0)
    assert np.array_equal(report.x_adv, expected)
    assert report.norm == "linf"
    assert np.all(report.pre_clamp_norms <= 0.05 + 1e-15)


def test_batch_gradients_match_per_sample():
    model = small_model()
    theta = model.init_params(seed=5)
    x, y = interior_batch(model, 5, seed=6)
    g = batch_input_gradients(model, theta, x, y)
    loss_fn = model.make_input_loss()
    for i in range(5):
        _, gi = input_gradient(loss_fn, theta, x[i], int(y[i]))
        assert np.allclose(g[i], gi.reshape(g[i].shape), rtol=1e-12, atol=1e-14)


def test_fgsm_zero_gradient_leaves_input_unchanged():
    # an all-zero parameter vector makes the logits constant in the input,
    # so the gradient is exactly zero and sign(0) must contribute nothing
    model = small_model()
    theta = model.init_params(seed=0).with_data(np.zeros(model.param_count))
    x, y = interior_batch(model, 4, seed=7)
    report = attack_batch(model, theta, x, y, "fgsm", eps=0.1)
    assert np.array_equal(report.x_adv, x)
    assert np.all(report.pre_clamp_norms == 0.0)


def test_fgsm10_stays_inside_ball_and_box():
    model = small_model()
    theta = model.init_params(seed=8)
    rng = np.random.default_rng(9)
    # include points near the box walls so both projections are exercised
    x = rng.random((8,) + model.in_shape)
    y = rng.integers(0, model.classes, 8)
    eps = 0.08
    report = attack_batch(model, theta, x, y, "fgsm10", eps=eps)
    assert np.all(report.x_adv >= 0.0) and np.all(report.x_adv <= 1.0)
    assert np.max(np.abs(report.x_adv - x)) <= eps + 1e-12
    assert np.all(report.pre_clamp_norms <= eps + 1e-12)


def test_fgsm10_not_weaker_than_fgsm_on_average():
    model = small_model()
    theta = model.init_params(seed=10)
    x, y = interior_batch(model, 32, seed=11)
    one = attack_batch(model, theta, x, y, "fgsm", eps=0.1)
    ten = attack_batch(model, theta, x, y, "fgsm10", eps=0.1)
    loss_one, _ = model.loss_and_accuracy(theta, one.x_adv, y)
    loss_ten, _ = model.loss_and_accuracy(theta, ten.x_adv, y)
    assert loss_ten >= loss_one - 1e-6


def test_l2grad_norm_and_direction():
    model = small_model()
    theta = model.init_params(seed=12)
    x, y = interior_batch(model, 5, seed=13)
    eps = 0.02
    report = attack_batch(model, theta, x, y, "l2grad", eps=eps)
    g = batch_input_gradients(model, theta, x, y)
    delta = report.x_adv - x
    for i in range(5):
        d = delta[i].reshape(-1)
        gi = g[i].reshape(-1)
        assert abs(np.linalg.norm(d) - eps) <= 1e-12
        cos = d @ gi / (np.linalg.norm(d) * np.linalg.norm(gi))
        assert cos >= 1.0 - 1e-12
    assert np.allclose(report.pre_clamp_norms, eps, atol=1e-12)


def test_l2grad_zero_gradient_raises():
    model = small_model()
    theta = model.init_params(seed=0).with_data(np.zeros(model.param_count))
    x, y = interior_batch(model, 3, seed=14)
    with pytest.raises(ZeroDirectionError):
        attack_batch(model, theta, x, y, "l2grad", eps=0.1)


def test_l2_step_refuses_only_an_all_zero_row():
    rng = np.random.default_rng(15)
    d = rng.standard_normal((4, 6))
    d[1] *= 1e-40  # a normal length, below the old 1e-30 threshold
    d[2] *= 1e-200  # a squared length that underflows to 0
    d[3, :] = [0.0, 0.0, 5e-324, 0.0, 0.0, -5e-324]  # subnormal entries only
    step = _step(d, 2.8, "l2", "direction")
    for i in (0, 1):
        want = 2.8 * d[i] / np.sqrt(np.sum(d[i] ** 2))
        assert step[i].tobytes() == want.tobytes()
    for i in (2, 3):
        unit = d[i] / np.abs(d[i]).max()
        assert np.allclose(step[i], 2.8 * unit / np.linalg.norm(unit), rtol=1e-15, atol=0)
    assert np.allclose(np.linalg.norm(step, axis=1), 2.8, rtol=1e-15)
    d[3] = 0.0
    with pytest.raises(ZeroDirectionError, match="sample index 3"):
        _step(d, 2.8, "l2", "direction")


# --------------------------------------------------------- curvature steps


def dense_newton_direction(model, theta, xi, yi, mu):
    h = input_hessian(model, theta, xi)
    _, g = input_gradient(model.make_input_loss(), theta, xi, yi)
    g = g.reshape(-1)
    return np.linalg.solve(h + mu * np.eye(h.shape[0]), g)


@pytest.mark.parametrize("damping", [
    Damping(), Damping(damping_scale=0.0, damping_floor=1e-6)],
    ids=["default", "floor"])
@pytest.mark.parametrize("preset", ["m1_desk", "c1_desk"])
def test_newton_direction_is_the_dense_solve(preset, damping):
    model = build_model(preset)
    theta = model.init_params(seed=40)
    bn = perturbed_bn_state(model, 41) if preset == "c1_desk" else None
    x, y = interior_batch(model, 3, seed=42)
    eps = 0.01  # small enough that no pixel leaves [0, 1]
    l2 = attack_batch(model, theta, x, y, "l2hess", eps, bn_state=bn,
                      damping=damping)
    signed = attack_batch(model, theta, x, y, "fhsm", eps, bn_state=bn,
                          damping=damping)
    for i in range(3):
        h = input_hessian(model, theta, x[i], bn_state=bn)
        jac, z = model.input_jacobian(theta, x[i], bn_state=bn)
        ref = np.linalg.solve(h + l2.dampings[i] * np.eye(h.shape[0]),
                              jac.T @ softmax_ce_grad(z, int(y[i])))
        ref /= np.linalg.norm(ref)
        step = (l2.x_adv[i] - x[i]).reshape(-1) / eps
        assert np.linalg.norm(step - ref) <= 1e-10
        big = np.abs(ref) > 1e-9
        sign = np.sign(signed.x_adv[i] - x[i]).reshape(-1)
        assert np.array_equal(sign[big], np.sign(ref[big]))


@pytest.mark.parametrize("name", ["fhsm", "l2hess"])
def test_newton_attacks_match_dense_solve(name):
    model = small_model()
    theta = model.init_params(seed=15)
    x, y = interior_batch(model, 4, seed=16)
    eps = 0.01
    report = attack_batch(model, theta, x, y, name, eps=eps)
    for i in range(4):
        # the recorded damping pins down the exact system the solver saw
        z = dense_newton_direction(model, theta, x[i], int(y[i]),
                                   report.dampings[i])
        delta = (report.x_adv[i] - x[i]).reshape(-1)
        if name == "fhsm":
            big = np.abs(z) > 1e-9 * np.abs(z).max()
            # x_adv - x re-rounds, so compare sign and magnitude separately
            assert np.array_equal(np.sign(delta[big]), np.sign(z)[big])
            assert np.allclose(np.abs(delta[big]), eps, rtol=1e-12)
        else:
            ref = eps * z / np.linalg.norm(z)
            assert np.allclose(delta, ref, rtol=1e-6, atol=1e-12)


def test_fhsm_with_huge_damping_reduces_to_fgsm():
    # (H + mu I) z = g with mu >> ||H|| gives z ~ g / mu, so the signed
    # step must agree with the signed-gradient step coordinate-wise
    model = small_model()
    theta = model.init_params(seed=17)
    x, y = interior_batch(model, 4, seed=18)
    eps = 0.03
    damping = Damping(damping_scale=1e9, damping_floor=1e9)
    fhsm = attack_batch(model, theta, x, y, "fhsm", eps=eps, damping=damping)
    fgsm = attack_batch(model, theta, x, y, "fgsm", eps=eps)
    g = batch_input_gradients(model, theta, x, y)
    live = np.abs(g) > 1e-12 * np.abs(g).reshape(4, -1).max(axis=1).reshape(
        -1, *([1] * (x.ndim - 1)))
    assert np.array_equal(fhsm.x_adv[live], fgsm.x_adv[live])


def test_newton_report_metadata():
    model = small_model()
    theta = model.init_params(seed=19)
    x, y = interior_batch(model, 3, seed=20)
    damping = Damping(damping_floor=0.5, damping_scale=0.0)
    report = attack_batch(model, theta, x, y, "l2hess", eps=0.01, damping=damping)
    assert np.all(report.dampings == 0.5)


@pytest.mark.parametrize("name", ["fhsm", "l2hess"])
def test_newton_attack_on_a_batch_matches_each_sample_alone(name):
    model = tiny_models()[2]  # t_conv: im2col/col2im in the Jacobian passes
    theta = model.init_params(seed=28)
    x, y = interior_batch(model, 5, seed=29)
    batch = attack_batch(model, theta, x, y, name, eps=0.01)
    for i in range(5):
        one = attack_batch(model, theta, x[i : i + 1], y[i : i + 1], name,
                           eps=0.01)
        assert np.allclose(batch.x_adv[i], one.x_adv[0], rtol=0, atol=1e-12)
        assert np.allclose(batch.dampings[i], one.dampings[0], rtol=1e-12)


def test_newton_damping_is_scaled_exact_top_eigenvalue():
    model = build_model("m1_desk")
    theta = model.init_params(seed=30)
    x, y = interior_batch(model, 3, seed=31)
    report = attack_batch(model, theta, x, y, "l2hess", eps=0.5,
                          damping=Damping(damping_scale=0.25))
    for i in range(3):
        lam1 = np.linalg.eigvalsh(input_hessian(model, theta, x[i]))[-1]
        assert report.dampings[i] == pytest.approx(0.25 * lam1, rel=1e-10)


def test_explicit_rank_c_operator_matches_double_backprop_hvp():
    model = build_model("m1_desk")
    theta = model.init_params(seed=32)
    x, y = interior_batch(model, 2, seed=33)
    jac, logits = model.input_jacobians(theta, x)
    rng = np.random.default_rng(34)
    for i in range(2):
        op = InputHvpOperator(model, theta, (x[i], int(y[i])))
        s = softmax_ce_hessian(logits[i])
        for _ in range(3):
            v = rng.standard_normal(model.input_dim)
            hv = op(v)
            explicit = jac[i].T @ (s @ (jac[i] @ v))
            assert np.linalg.norm(explicit - hv) <= 1e-12 * np.linalg.norm(hv)


@pytest.mark.parametrize("name", ["fhsm", "l2hess"])
def test_newton_attack_rejects_non_finite_parameters(name):
    model = small_model()
    theta = model.init_params(seed=35)
    data = theta.data.copy()
    data[-1] = np.inf
    x, y = interior_batch(model, 2, seed=36)
    with pytest.raises(NumericError):
        attack_batch(model, theta.with_data(data), x, y, name, eps=0.01)


@pytest.mark.parametrize("field,value", [
    ("damping_scale", -1.0),
    ("damping_scale", float("nan")), ("damping_floor", 0.0),
    ("damping_floor", -1.0), ("damping_floor", float("nan")),
    ("damping_floor", float("inf"))])
def test_bad_cg_params_rejected(field, value):
    model = small_model()
    theta = model.init_params(seed=37)
    x, y = interior_batch(model, 2, seed=38)
    with pytest.raises(ContractError, match=field):
        attack_batch(model, theta, x, y, "fhsm", eps=0.01,
                     damping=Damping(**{field: value}))


# ----------------------------------------------------------- shared contract


@pytest.mark.parametrize("name", ATTACK_NAMES)
def test_eps_zero_is_identity(name):
    model = small_model()
    theta = model.init_params(seed=21)
    x, y = interior_batch(model, 3, seed=22)
    report = attack_batch(model, theta, x, y, name, eps=0.0)
    assert np.array_equal(report.x_adv, x)
    assert np.all(report.pre_clamp_norms == 0.0)


def test_clamp_applies_but_pre_clamp_norm_is_recorded():
    model = small_model()
    theta = model.init_params(seed=23)
    rng = np.random.default_rng(24)
    x = np.clip(0.97 + 0.03 * rng.random((4,) + model.in_shape), 0.0, 1.0)
    y = rng.integers(0, model.classes, 4)
    report = attack_batch(model, theta, x, y, "fgsm", eps=0.2)
    assert np.all(report.x_adv <= 1.0)
    assert np.max(report.pre_clamp_norms) == pytest.approx(0.2)
    # up-moving pixels start above 0.8, so they must have hit the wall
    clipped = report.x_adv == 1.0
    assert np.any(clipped)
    assert np.all(np.abs(report.x_adv - x)[clipped] < 0.2)


def test_unknown_attack_and_negative_eps_rejected():
    model = small_model()
    theta = model.init_params(seed=0)
    x, y = interior_batch(model, 2, seed=25)
    with pytest.raises(ConfigError):
        attack_batch(model, theta, x, y, "pgd", eps=0.1)
    with pytest.raises(ConfigError):
        attack_batch(model, theta, x, y, "fgsm", eps=-0.1)


@pytest.mark.parametrize("name", ATTACK_NAMES)
@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_non_finite_eps_rejected(name, eps):
    model = small_model()
    theta = model.init_params(seed=0)
    x, y = interior_batch(model, 2, seed=25)
    with pytest.raises(ConfigError, match="^eps must be non-negative and finite"):
        attack_batch(model, theta, x, y, name, eps=eps)


def test_eps_presets():
    assert eps_preset((1, 28, 28), "linf") == 0.1
    assert eps_preset((1, 28, 28), "l2") == 2.8
    assert eps_preset((3, 32, 32), "linf") == 0.02
    assert eps_preset((3, 32, 32), "l2") == 1.2
    with pytest.raises(ConfigError):
        eps_preset((1, 8, 8), "linf")


def test_evaluate_adversarial_self_and_transfer():
    model = small_model()
    theta = model.init_params(seed=26)
    x, y = interior_batch(model, 40, seed=27)
    ev = evaluate_adversarial(model, theta, x, y, "fgsm", 0.1)
    assert 0.0 <= ev.adversarial_accuracy <= ev.clean_accuracy <= 1.0
    # perturbations generated on a constant-output source model are zero,
    # so the transfer evaluation must reproduce the clean accuracy
    zero = theta.with_data(np.zeros(model.param_count))
    tr = evaluate_adversarial(model, theta, x, y, "fgsm", 0.1,
                              source=(model, zero, None))
    assert tr.adversarial_accuracy == tr.clean_accuracy
