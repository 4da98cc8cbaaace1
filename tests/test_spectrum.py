import numpy as np
import pytest

from hesslens.errors import ContractError, NumericError
from hesslens.nn import build_model
from hesslens.spectrum import (
    InputHvpOperator,
    ThetaHvpOperator,
    input_lambda1_over,
    input_spectrum,
    power_iteration_topk,
    spectrum_rows,
    theta_spectrum,
)
from hesslens.tensorops import dense_sym_eig
from oracles import dense_from_hvp, hvp_theta, perturbed_bn_state, random_batch, tiny_models


def sym(rng, n, values=None):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if values is None:
        values = rng.standard_normal(n) * 3.0
    return (q * values) @ q.T, np.asarray(values, dtype=np.float64)


def top_by_magnitude(values, k):
    return values[np.argsort(-np.abs(values), kind="stable")][:k]


def test_matches_dense_on_mixed_sign_spectrum():
    rng = np.random.default_rng(0)
    a, values = sym(rng, 60)
    pairs = power_iteration_topk(lambda v: a @ v, 60, k=20, tol=1e-8,
                                 max_iter=5000, seed=1)
    got = np.array([p.value for p in pairs])
    want = top_by_magnitude(values, 20)
    assert np.max(np.abs(got - want)) <= 1e-4 * abs(want[0])
    assert all(p.converged for p in pairs)
    # eigen-residuals and orthonormality of the returned vectors
    vs = np.stack([p.vector for p in pairs])
    assert np.max(np.abs(vs @ vs.T - np.eye(20))) < 1e-10
    for p in pairs:
        assert np.linalg.norm(a @ p.vector - p.value * p.vector) <= \
            1e-3 * abs(want[0])


def test_handles_clustered_eigenvalues():
    rng = np.random.default_rng(2)
    values = np.array([5.0, 4.9, -4.79, 1.0, 0.5] + [0.1] * 35)
    a, _ = sym(rng, 40, values)
    pairs = power_iteration_topk(lambda v: a @ v, 40, k=5, tol=1e-9,
                                 max_iter=8000, seed=3)
    got = np.array([p.value for p in pairs])
    assert np.allclose(got, [5.0, 4.9, -4.79, 1.0, 0.5], atol=5e-4)


def test_converged_implies_accurate_even_on_pathological_cluster():
    # relative gap 2e-4: any pair that claims convergence must actually sit
    # on the spectrum; stalling pairs must be flagged, not reported wrong
    rng = np.random.default_rng(20)
    values = np.array([5.0, 4.999, 4.998] + [0.5] * 27)
    a, _ = sym(rng, 30, values)
    pairs = power_iteration_topk(lambda v: a @ v, 30, k=4, tol=1e-8,
                                 max_iter=800, seed=21)
    for p in pairs:
        if p.converged:
            assert np.min(np.abs(values - p.value)) <= 1e-3
    # the whole spectrum lives in two clusters; every reported value should
    # at least land inside one of them
    for p in pairs:
        assert min(abs(p.value - 5.0), abs(p.value - 0.5)) < 0.3


def test_exactly_degenerate_pair_spans_the_eigenspace():
    rng = np.random.default_rng(4)
    values = np.array([3.0, 3.0, 1.0, 0.2, 0.2, 0.1])
    a, _ = sym(rng, 6, values)
    pairs = power_iteration_topk(lambda v: a @ v, 6, k=3, tol=1e-9,
                                 max_iter=5000, seed=5)
    got = np.array([p.value for p in pairs])
    assert np.allclose(got, [3.0, 3.0, 1.0], atol=1e-6)
    v0, v1 = pairs[0].vector, pairs[1].vector
    assert abs(v0 @ v1) < 1e-8
    assert np.linalg.norm(a @ v0 - 3.0 * v0) < 1e-6
    assert np.linalg.norm(a @ v1 - 3.0 * v1) < 1e-6


def test_rank_deficient_operator_reports_zero_tail():
    rng = np.random.default_rng(6)
    b = rng.standard_normal((10, 3))
    a = b @ b.T  # rank 3 PSD
    pairs = power_iteration_topk(lambda v: a @ v, 10, k=6, tol=1e-8,
                                 max_iter=2000, seed=7)
    got = np.array([p.value for p in pairs])
    want = top_by_magnitude(np.linalg.eigvalsh(a), 6)
    assert np.allclose(got[:3], want[:3], atol=1e-6 * abs(want[0]))
    assert np.all(np.abs(got[3:]) <= 1e-8 * abs(want[0]))
    assert all(p.converged for p in pairs)


def test_zero_operator():
    pairs = power_iteration_topk(lambda v: np.zeros_like(v), 5, k=3, tol=1e-6,
                                 max_iter=100, seed=8)
    assert [p.value for p in pairs] == [0.0, 0.0, 0.0]
    assert all(p.converged for p in pairs)


def test_identity_operator_all_ones():
    pairs = power_iteration_topk(lambda v: v, 7, k=7, tol=1e-10, max_iter=100,
                                 seed=9)
    assert np.allclose([p.value for p in pairs], 1.0, atol=1e-12)
    vs = np.stack([p.vector for p in pairs])
    assert np.max(np.abs(vs @ vs.T - np.eye(7))) < 1e-10


def test_k_clamps_to_dimension():
    a = np.diag([2.0, 1.0])
    pairs = power_iteration_topk(lambda v: a @ v, 2, k=20, tol=1e-10,
                                 max_iter=500, seed=10)
    assert len(pairs) == 2


def test_nonfinite_operator_raises():
    def bad(v):
        return v * np.nan

    with pytest.raises(NumericError):
        power_iteration_topk(bad, 4, k=1, tol=1e-6, max_iter=10, seed=0)


def test_seed_determinism_is_bitwise():
    rng = np.random.default_rng(11)
    a, _ = sym(rng, 30)
    p1 = power_iteration_topk(lambda v: a @ v, 30, k=5, tol=1e-8,
                              max_iter=2000, seed=12)
    p2 = power_iteration_topk(lambda v: a @ v, 30, k=5, tol=1e-8,
                              max_iter=2000, seed=12)
    for q1, q2 in zip(p1, p2):
        assert q1.value == q2.value
        assert np.array_equal(q1.vector, q2.vector)
        assert q1.iterations == q2.iterations


def test_unconverged_pairs_are_flagged():
    rng = np.random.default_rng(13)
    a, _ = sym(rng, 25)
    pairs = power_iteration_topk(lambda v: a @ v, 25, k=2, tol=1e-14,
                                 max_iter=2, seed=14)
    assert not all(p.converged for p in pairs)


def test_results_sorted_by_magnitude():
    a = np.diag([1.0, -8.0, 3.0, -2.0])
    pairs = power_iteration_topk(lambda v: a @ v, 4, k=4, tol=1e-10,
                                 max_iter=1000, seed=15)
    mags = [abs(p.value) for p in pairs]
    assert mags == sorted(mags, reverse=True)
    assert pairs[0].value == pytest.approx(-8.0, abs=1e-8)


class CountingOperator:
    """Diagonal operator in a random orthonormal basis that counts products."""

    def __init__(self, values, seed):
        rng = np.random.default_rng(seed)
        self.values = np.asarray(values, dtype=np.float64)
        # a product of Householder reflections: orthogonal, no dense matrix
        self.reflectors = [u / np.linalg.norm(u) for u in
                           rng.standard_normal((3, len(values)))]
        self.calls = 0

    def _rotate(self, v, reflectors):
        for u in reflectors:
            v = v - 2.0 * (u @ v) * u
        return v

    def __call__(self, v):
        self.calls += 1
        w = self.values * self._rotate(v, self.reflectors)
        return self._rotate(w, self.reflectors[::-1])


def test_hvp_budget_on_well_separated_spectrum():
    rng = np.random.default_rng(22)
    top = [10.0, -8.0, 6.0, 5.0, 4.0]
    op = CountingOperator(top + list(rng.uniform(-1.0, 1.0, 1995)), seed=23)
    pairs = power_iteration_topk(op, 2000, k=5, tol=1e-3, max_iter=500,
                                 seed=24)
    assert op.calls <= 60
    assert all(p.converged and p.iterations == op.calls for p in pairs)
    assert np.allclose([p.value for p in pairs], top, rtol=1e-3)


def test_repeated_eigenvalue_without_breakdown():
    rng = np.random.default_rng(25)
    values = np.array([3.0, 3.0, 1.0] + list(rng.uniform(-0.5, 0.5, 197)))
    a, _ = sym(rng, 200, values)
    pairs = power_iteration_topk(lambda v: a @ v, 200, k=3, tol=1e-10,
                                 max_iter=200, seed=26)
    assert np.allclose([p.value for p in pairs], [3.0, 3.0, 1.0], atol=1e-6)
    assert all(p.converged for p in pairs)
    # the two returned vectors span the whole eigenspace of 3
    q, _ = np.linalg.qr(np.stack([pairs[0].vector, pairs[1].vector], axis=1))
    w, u = np.linalg.eigh(a)
    space = u[:, np.abs(w - 3.0) < 1e-8]
    assert space.shape[1] == 2
    assert np.allclose(np.abs(np.linalg.svd(q.T @ space)[1]), 1.0, atol=1e-6)


def test_residuals_are_the_direct_certificate():
    rng = np.random.default_rng(27)
    a, values = sym(rng, 80)
    for tol, max_iter in ((1e-8, 500), (1e-14, 6)):
        pairs = power_iteration_topk(lambda v: a @ v, 80, k=4, tol=tol,
                                     max_iter=max_iter, seed=28)
        scale = np.max(np.abs(values))
        for p in pairs:
            direct = np.linalg.norm(a @ p.vector - p.value * p.vector)
            assert abs(p.residual - direct) <= 1e-12 * scale
            assert p.converged == (p.residual <= 0.5 * np.sqrt(tol) * max(
                abs(p.value), 0.01 * abs(pairs[0].value)))


@pytest.mark.parametrize("setting", [{"k": 0}, {"tol": 0.0}, {"tol": -1.0},
                                     {"max_iter": 0}])
def test_bad_settings_raise(setting):
    kwargs = dict(k=2, tol=1e-6, max_iter=10, seed=0)
    kwargs.update(setting)
    with pytest.raises(ContractError):
        power_iteration_topk(lambda v: v, 5, **kwargs)


# ---------------------------------------------------------------------------
# Operators over real models.
# ---------------------------------------------------------------------------


def test_theta_operator_agrees_with_hvp_function():
    m = tiny_models()[0]
    theta = m.init_params(0)
    x, y = random_batch(m, 6, 1)
    op = ThetaHvpOperator(m, theta, (x, y))
    loss_fn = m.make_theta_loss()
    rng = np.random.default_rng(2)
    for _ in range(3):
        v = rng.standard_normal(m.param_count)
        assert np.allclose(op(v), hvp_theta(loss_fn, theta, (x, y), v).data,
                           rtol=1e-12, atol=1e-14)
    assert op.applies == 3
    assert float(op.loss.value) > 0


def test_theta_spectrum_matches_dense_oracle_on_tiny_model():
    m = tiny_models()[2]
    theta = m.init_params(1)
    x, y = random_batch(m, 8, 3)
    op = ThetaHvpOperator(m, theta, (x, y))
    dense = dense_from_hvp(op, m.param_count)
    vals, _ = dense_sym_eig(dense)
    want = top_by_magnitude(vals, 10)
    res = theta_spectrum(m, theta, (x, y), k=10, tol=1e-9, max_iter=20000,
                         seed=4)
    assert res.kind == "theta" and res.dim == m.param_count
    assert np.max(np.abs(res.eigenvalues - want)) <= 1e-4 * abs(want[0])


def test_input_operator_shape_roundtrip_and_spectrum_rank():
    m = build_model("m1_desk")
    theta = m.init_params(3)
    rng = np.random.default_rng(5)
    x = rng.random(m.in_shape)
    op = InputHvpOperator(m, theta, (x, 4))
    assert op.dim == 784
    v = rng.standard_normal(784)
    assert op(v).shape == (784,)
    res = input_spectrum(m, theta, (x, 4), k=12, tol=1e-8, seed=6)
    lam = res.eigenvalues
    # ten classes: at most ten nonzero directions
    assert np.all(np.abs(lam[10:]) <= 1e-8 * max(1.0, abs(lam[0])))
    assert lam[0] > 0


def test_input_lambda1_over_samples():
    m = build_model("m1_desk")
    theta = m.init_params(4)
    x, y = random_batch(m, 5, 7)
    out = input_lambda1_over(m, theta, x, y, [0, 2, 4])
    assert out.shape == (3,)
    assert np.all(out > 0)


@pytest.mark.parametrize("preset", ["m1_desk", "c1_desk"])
def test_input_spectrum_is_the_dense_input_hessian_spectrum(preset):
    m = build_model(preset)
    theta = m.init_params(11)
    bn = perturbed_bn_state(m, 12) if preset == "c1_desk" else None
    x = np.random.default_rng(13).random(m.in_shape)
    res = input_spectrum(m, theta, (x, 2), k=12, seed=14, bn_state=bn)
    dense = np.linalg.eigvalsh(m.input_hessian(theta, x, bn_state=bn))[::-1][:12]
    lam = res.eigenvalues
    assert res.kind == "input" and res.dim == m.input_dim and res.hvps == 0
    assert np.max(np.abs(lam - dense)) <= 1e-12 * dense[0]
    op = InputHvpOperator(m, theta, (x, 2), bn_state=bn)
    vecs = np.stack([p.vector for p in res.pairs])
    for p in res.pairs:
        direct = np.linalg.norm(op(p.vector) - p.value * p.vector)
        assert direct <= 1e-12 * lam[0]
        assert p.residual <= 1e-12 * lam[0] and p.converged and p.iterations == 0
    assert np.max(np.abs(vecs @ vecs.T - np.eye(12))) <= 1e-12


def test_input_spectrum_tail_past_the_rank_is_exact_and_seeded():
    m = build_model("m1_desk")
    theta = m.init_params(15)
    x = np.random.default_rng(16).random(m.in_shape)
    a = input_spectrum(m, theta, (x, 0), k=14, seed=17)
    b = input_spectrum(m, theta, (x, 0), k=14, seed=17)
    c = input_spectrum(m, theta, (x, 0), k=14, seed=18)
    # S 1 = 0 makes the rank at most classes - 1
    assert np.all(a.eigenvalues[:9] > 0) and np.all(a.eigenvalues[9:] == 0.0)
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    for p, q in zip(a.pairs, b.pairs):
        assert p.vector.tobytes() == q.vector.tobytes()
    assert not np.array_equal(a.pairs[-1].vector, c.pairs[-1].vector)
    assert np.array_equal(a.pairs[0].vector, c.pairs[0].vector)


def test_input_spectrum_of_zero_parameters_is_all_zero_and_converged():
    m = build_model("m1_desk")
    theta = m.init_params(0).with_data(np.zeros(m.param_count))
    x = np.random.default_rng(19).random(m.in_shape)
    res = input_spectrum(m, theta, (x, 1), k=3, seed=20)
    assert res.eigenvalues.tolist() == [0.0, 0.0, 0.0]
    assert res.converged_all and [p.residual for p in res.pairs] == [0.0] * 3
    vecs = np.stack([p.vector for p in res.pairs])
    assert np.max(np.abs(vecs @ vecs.T - np.eye(3))) <= 1e-12


@pytest.mark.parametrize("setting", [{"k": 0}, {"tol": 0.0}, {"tol": -1.0}])
def test_input_spectrum_bad_settings_raise(setting):
    m = tiny_models()[0]
    x, y = random_batch(m, 1, 21)
    with pytest.raises(ContractError):
        input_spectrum(m, m.init_params(0), (x[0], int(y[0])), **setting)


def test_input_lambda1_over_is_the_dense_top_eigenvalue():
    m = build_model("m1_desk")
    theta = m.init_params(22)
    x, y = random_batch(m, 4, 23)
    out = input_lambda1_over(m, theta, x, y, [3, 0, 2])
    want = [np.linalg.eigvalsh(m.input_hessian(theta, x[i]))[-1] for i in (3, 0, 2)]
    assert np.max(np.abs(out - want)) <= 1e-12 * max(want)


def test_spectrum_rows_formatting():
    a = np.diag([2.0, -1.0])
    res = theta_spectrum  # noqa: F841  (rows come from a real result below)
    m = tiny_models()[0]
    theta = m.init_params(5)
    x, y = random_batch(m, 4, 8)
    r = theta_spectrum(m, theta, (x, y), k=2, tol=1e-6, max_iter=500, seed=9)
    rows = spectrum_rows(r)
    assert rows[0]["index"] == "0"
    assert float(rows[0]["eigenvalue"]) == r.pairs[0].value
    assert rows[0]["converged"] in ("0", "1")
