"""Loss evaluations along lines and planes in parameter space.

Scans evaluate the eval-mode batch loss at ``theta + t * d`` over a fixed
grid (always containing t = 0, whose value is the unperturbed loss by
construction, not by approximation).  Directions are normalized once;
normalizer running statistics stay frozen at the base checkpoint so the
scan sees a fixed function of the parameters.

A small quadratic fit along the top eigenvector recovers the corresponding
eigenvalue from pure loss evaluations, which cross-checks the
derivative-based spectrum against zeroth-order information.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import param_data
from .errors import DimensionError, ZeroDirectionError
from .tensorops import make_rng


@dataclass
class LineScan:
    ts: np.ndarray
    losses: np.ndarray
    base_loss: float


@dataclass
class PlaneScan:
    ts1: np.ndarray
    ts2: np.ndarray
    losses: np.ndarray  # shape (len(ts1), len(ts2))
    base_loss: float


def grid(radius, points):
    """Symmetric grid of ``points`` values spanning [-radius, radius].

    ``points`` must be odd; the middle value is exactly 0 and the ends are
    exactly -radius and radius.
    """
    if points < 3 or points % 2 == 0:
        raise DimensionError("points must be odd and at least 3")
    h = points // 2
    return radius * (np.arange(-h, h + 1) / h)


def unit_direction(d):
    d = np.asarray(d, dtype=np.float64).reshape(-1)
    n = float(np.linalg.norm(d))
    if n == 0.0:
        raise ZeroDirectionError("scan direction has zero norm")
    return d / n


def random_direction(dim, seed):
    return unit_direction(make_rng((seed, "landscape")).standard_normal(dim))


def _batch_loss(model, theta_data, batch, bn_state):
    x, y = batch
    loss, _ = model.loss_and_accuracy(theta_data, x, y, bn_state=bn_state)
    return loss


def _base_loss(losses, at_base, model, base, batch, bn_state):
    """The loss at ``base``: the grid's value where ``at_base`` marks an
    exact t = 0, else one more evaluation."""
    hits = losses[at_base]
    return float(hits[0]) if hits.size else _batch_loss(model, base, batch, bn_state)


def scan_1d(model, theta, direction, ts, batch, bn_state=None):
    """Loss along ``theta + t * direction`` for every t in ``ts``."""
    base = param_data(theta)
    d = unit_direction(direction)
    if d.shape[0] != base.shape[0]:
        raise DimensionError("direction length does not match parameter count")
    ts = np.asarray(ts, dtype=np.float64)
    losses = np.zeros_like(ts)
    for i, t in enumerate(ts):
        point = base if t == 0.0 else base + t * d
        losses[i] = _batch_loss(model, point, batch, bn_state)
    return LineScan(ts, losses, _base_loss(losses, ts == 0.0, model, base, batch, bn_state))


def scan_2d(model, theta, d1, d2, ts1, ts2, batch, bn_state=None):
    """Loss over the plane ``theta + t1 * d1 + t2 * d2``."""
    base = param_data(theta)
    u = unit_direction(d1)
    v = unit_direction(d2)
    if u.shape[0] != base.shape[0] or v.shape[0] != base.shape[0]:
        raise DimensionError("direction length does not match parameter count")
    ts1 = np.asarray(ts1, dtype=np.float64)
    ts2 = np.asarray(ts2, dtype=np.float64)
    losses = np.zeros((ts1.shape[0], ts2.shape[0]))
    for i, a in enumerate(ts1):
        for j, b in enumerate(ts2):
            point = base if (a == 0.0 and b == 0.0) else base + a * u + b * v
            losses[i, j] = _batch_loss(model, point, batch, bn_state)
    at_base = np.outer(ts1 == 0.0, ts2 == 0.0)
    return PlaneScan(ts1, ts2, losses,
                     _base_loss(losses, at_base, model, base, batch, bn_state))


def interpolate_models(model, theta_a, theta_b, ts, batch, bn_state=None):
    """Loss along the straight segment between two parameter vectors.

    ``t = 0`` is the first model, ``t = 1`` the second; values outside
    [0, 1] extrapolate the same line.  ``base_loss`` is the first model's
    loss, read off the grid where ``ts`` holds 0.
    """
    a = param_data(theta_a)
    b = param_data(theta_b)
    if a.shape != b.shape:
        raise DimensionError("endpoint parameter vectors differ in length")
    ts = np.asarray(ts, dtype=np.float64)
    losses = np.zeros_like(ts)
    for i, t in enumerate(ts):
        losses[i] = _batch_loss(model, (1.0 - t) * a + t * b, batch, bn_state)
    return LineScan(ts, losses, _base_loss(losses, ts == 0.0, model, a, batch, bn_state))


def quadratic_coefficient(ts, losses):
    """Second derivative of the best-fit parabola through a line scan.

    Along a unit eigenvector the loss is locally L0 + g t + lam t^2 / 2, so
    this recovers the eigenvalue lam from function values alone.
    """
    coeffs = np.polyfit(np.asarray(ts, np.float64), np.asarray(losses, np.float64), 2)
    return 2.0 * float(coeffs[0])


def line_rows(scan):
    return [{"t": repr(float(t)), "loss": repr(float(v))}
            for t, v in zip(scan.ts, scan.losses)]


def plane_rows(scan):
    rows = []
    for i, a in enumerate(scan.ts1):
        for j, b in enumerate(scan.ts2):
            rows.append({
                "i": str(i), "j": str(j),
                "t1": repr(float(a)), "t2": repr(float(b)),
                "loss": repr(float(scan.losses[i, j])),
            })
    return rows
