"""Line/plane loss scans and the zeroth-order curvature cross-check."""

import warnings

import numpy as np
import pytest

from hesslens import landscape
from hesslens.dataio import synth_blobs
from hesslens.errors import DimensionError, ZeroDirectionError
from hesslens.landscape import (
    grid,
    interpolate_models,
    line_rows,
    plane_rows,
    quadratic_coefficient,
    random_direction,
    scan_1d,
    scan_2d,
    unit_direction,
)
from hesslens.spectrum import theta_spectrum

from oracles import tiny_models


class QuadraticModel:
    """Stand-in whose loss is an explicit quadratic form: the scan and the
    fit can then be checked against closed-form coefficients."""

    def __init__(self, h, g, c=0.7):
        self.h = h
        self.g = g
        self.c = c
        self.param_count = h.shape[0]

    def loss_and_accuracy(self, theta, x, y, bn_state=None):
        th = np.asarray(theta, dtype=np.float64)
        val = self.c + self.g @ th + 0.5 * th @ self.h @ th
        return float(val), 0.0


def quad_setup(dim=12, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((dim, dim))
    h = q @ q.T + np.eye(dim)
    g = rng.standard_normal(dim)
    return QuadraticModel(h, g), rng.standard_normal(dim)


def trained_setup():
    model = tiny_models()[0]
    c, hh, w = model.in_shape
    data = synth_blobs(40, 10, in_shape=(c, hh, w), classes=model.classes,
                       seed=3, separation=1.0, noise=0.1)
    theta = model.init_params(seed=5)
    batch = (data.x_train, data.y_train)
    return model, theta, batch


# ------------------------------------------------------------------- grid


def test_grid_contains_exact_zero_and_endpoints():
    ts = grid(0.5, 41)
    assert ts.shape == (41,)
    assert ts[0] == -0.5 and ts[-1] == 0.5
    assert ts[20] == 0.0


def test_grid_is_exact_and_symmetric_for_random_radii():
    rng = np.random.default_rng(0)
    for radius in 10.0 ** rng.uniform(-4.0, 0.0, 500):
        for points in (11, 41):
            ts = grid(radius, points)
            assert ts[points // 2] == 0.0
            assert ts[0] == -radius and ts[-1] == radius
            assert np.array_equal(ts, -ts[::-1])


@pytest.mark.parametrize("points", [2, 4, 40, 1, 0])
def test_grid_rejects_even_or_tiny_point_counts(points):
    with pytest.raises(DimensionError):
        grid(1.0, points)


def test_unit_direction_normalizes_and_rejects_zero():
    d = unit_direction([3.0, 4.0])
    assert np.allclose(d, [0.6, 0.8])
    with pytest.raises(ZeroDirectionError):
        unit_direction(np.zeros(5))


def test_random_direction_is_unit_and_seeded():
    a = random_direction(100, seed=7)
    b = random_direction(100, seed=7)
    c = random_direction(100, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert abs(np.linalg.norm(a) - 1.0) < 1e-12


# ------------------------------------------------------------------ scans


def test_scan_1d_quadratic_closed_form():
    model, theta = quad_setup()
    d = np.zeros(model.param_count)
    d[2] = 2.0  # unit_direction must normalize this
    ts = grid(0.3, 9)
    scan = scan_1d(model, theta, d, ts, batch=(None, None))
    e2 = np.zeros(model.param_count)
    e2[2] = 1.0
    for t, got in zip(ts, scan.losses):
        point = theta + t * e2
        want = model.c + model.g @ point + 0.5 * point @ model.h @ point
        assert got == pytest.approx(want, rel=1e-12)


def test_scan_grid_zero_is_bitwise_base_loss():
    model, theta, batch = trained_setup()
    ts = grid(0.4, 11)
    d = random_direction(model.param_count, seed=1)
    scan = scan_1d(model, theta, d, ts, batch)
    assert scan.losses[5] == scan.base_loss  # exact, not approximate


def test_scan_1d_direction_length_mismatch():
    model, theta, batch = trained_setup()
    with pytest.raises(DimensionError):
        scan_1d(model, theta, np.ones(3), grid(0.1, 3), batch)


def test_scan_2d_direction_length_mismatch():
    model, theta, batch = trained_setup()
    d = np.ones(model.param_count)
    for d1, d2 in ((np.ones(1), d), (d, np.ones(1)), (d, np.ones(3))):
        with pytest.raises(DimensionError):
            landscape.scan_2d(model, theta, d1, d2, grid(0.1, 3), grid(0.1, 3), batch)


def test_scan_2d_center_and_axes_match_1d():
    model, theta = quad_setup()
    rng = np.random.default_rng(2)
    d1 = rng.standard_normal(model.param_count)
    d2 = rng.standard_normal(model.param_count)
    ts = grid(0.2, 5)
    plane = scan_2d(model, theta, d1, d2, ts, ts, batch=(None, None))
    line1 = scan_1d(model, theta, d1, ts, batch=(None, None))
    line2 = scan_1d(model, theta, d2, ts, batch=(None, None))
    assert plane.losses.shape == (5, 5)
    assert plane.losses[2, 2] == plane.base_loss
    assert np.allclose(plane.losses[:, 2], line1.losses, rtol=1e-12)
    assert np.allclose(plane.losses[2, :], line2.losses, rtol=1e-12)


def test_scans_evaluate_each_grid_point_once(monkeypatch):
    model, theta = quad_setup()
    rng = np.random.default_rng(3)
    d1 = rng.standard_normal(model.param_count)
    d2 = rng.standard_normal(model.param_count)
    calls = []
    batch_loss = landscape._batch_loss

    def counted(*args):
        calls.append(args)
        return batch_loss(*args)

    monkeypatch.setattr(landscape, "_batch_loss", counted)
    points = 5
    ts = grid(0.2, points)
    line = scan_1d(model, theta, d1, ts, batch=(None, None))
    assert len(calls) == points
    assert line.base_loss == line.losses[points // 2]
    calls.clear()
    plane = scan_2d(model, theta, d1, d2, ts, ts, batch=(None, None))
    assert len(calls) == points**2
    assert plane.base_loss == plane.losses[points // 2, points // 2]
    # a grid without t = 0 pays one more evaluation for the base loss
    calls.clear()
    line = scan_1d(model, theta, d1, ts + 0.01, batch=(None, None))
    assert len(calls) == points + 1
    assert line.base_loss == model.loss_and_accuracy(theta, None, None)[0]
    # interpolation reads the first model's loss off t = 0 in the same way
    other = theta + d2
    calls.clear()
    line = interpolate_models(model, theta, other, ts, batch=(None, None))
    assert len(calls) == points
    assert line.base_loss == line.losses[points // 2]
    calls.clear()
    line = interpolate_models(model, theta, other, ts + 0.01, batch=(None, None))
    assert len(calls) == points + 1
    assert line.base_loss == model.loss_and_accuracy(theta, None, None)[0]


def test_interpolate_endpoints_are_the_models():
    model, theta, batch = trained_setup()
    other = model.init_params(seed=11)
    ts = np.array([0.0, 0.25, 0.5, 1.0])
    scan = interpolate_models(model, theta, other, ts, batch)
    la, _ = model.loss_and_accuracy(theta.data, *batch)
    lb, _ = model.loss_and_accuracy(other.data, *batch)
    assert scan.losses[0] == la
    assert scan.losses[-1] == lb
    assert scan.base_loss == scan.losses[0]


def test_interpolate_length_mismatch():
    model, theta, batch = trained_setup()
    with pytest.raises(DimensionError):
        interpolate_models(model, theta, np.zeros(theta.data.size + 1), [0.0],
                           batch)


# ---------------------------------------------------------- curvature fit


def test_quadratic_coefficient_exact_on_parabola():
    ts = grid(1.0, 21)
    losses = 3.0 + 0.5 * ts + 0.5 * 4.25 * ts**2
    assert quadratic_coefficient(ts, losses) == pytest.approx(4.25, rel=1e-10)


@pytest.mark.parametrize("radius", [1e-150, 1e150])
def test_quadratic_coefficient_is_exact_at_any_radius(radius):
    ts = grid(radius, 9)
    losses = radius * ts + 0.5 * 4.25 * ts**2  # both terms at the same scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = quadratic_coefficient(ts, losses)
    assert fit == pytest.approx(4.25, rel=1e-10)


def test_fit_recovers_eigenvalue_on_quadratic_model():
    model, theta = quad_setup()
    lam, vecs = np.linalg.eigh(model.h)
    v1 = vecs[:, -1]
    ts = grid(0.1, 9)
    scan = scan_1d(model, theta, v1, ts, batch=(None, None))
    assert quadratic_coefficient(scan.ts, scan.losses) == pytest.approx(
        lam[-1], rel=1e-8)


def test_fit_along_top_eigenvector_of_trained_net():
    model, theta, batch = trained_setup()
    res = theta_spectrum(model, theta, batch, k=1, tol=1e-8, max_iter=2000,
                         seed=0)
    pair = res.pairs[0]
    ts = grid(2e-3, 9)  # small radius keeps the scan inside one linear region
    scan = scan_1d(model, theta, pair.vector, ts, batch)
    fit = quadratic_coefficient(scan.ts, scan.losses)
    assert fit == pytest.approx(pair.value, rel=0.05)


# -------------------------------------------------------------- reporting


def test_line_rows_format():
    model, theta = quad_setup()
    scan = scan_1d(model, theta, np.ones(model.param_count), grid(0.5, 3),
                   batch=(None, None))
    rows = line_rows(scan)
    assert [r["t"] for r in rows] == ["-0.5", "0.0", "0.5"]
    assert rows[1]["loss"] == repr(scan.base_loss)


def test_plane_rows_cover_grid_in_row_major_order():
    model, theta = quad_setup()
    ts = grid(0.5, 3)
    scan = scan_2d(model, theta, np.ones(model.param_count),
                   np.arange(model.param_count) + 1.0, ts, ts,
                   batch=(None, None))
    rows = plane_rows(scan)
    assert len(rows) == 9
    assert rows[0]["i"] == "0" and rows[0]["j"] == "0"
    assert rows[-1]["i"] == "2" and rows[-1]["j"] == "2"
    assert rows[4]["loss"] == repr(scan.base_loss)
