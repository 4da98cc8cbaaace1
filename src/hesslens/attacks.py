"""White-box input perturbations, gradient- and curvature-based.

Five attacks share one interface.  All of them move each input by at most
``eps`` in their norm and clamp the result to the valid pixel range [0, 1]
afterwards; the step norm before clamping is recorded so the effect of the
clamp stays observable.

* ``fgsm``   — one signed-gradient step of size eps (L-inf).
* ``fgsm10`` — ten signed-gradient steps of eps/10, re-projected onto the
  eps-ball around the original input after every step (L-inf).
* ``l2grad`` — one step of length eps along the normalized gradient (L2).
* ``fhsm``   — signed Newton direction: solve (H + mu I) z = g on the input
  Hessian, then step eps * sign(z) (L-inf).
* ``l2hess`` — the same Newton direction, normalized to length eps (L2).

The Newton attacks use the rank-C structure of the eval-mode input Hessian,
``H = J^T S J`` with J the (C, D) logit Jacobian and ``S = diag(p) - p p^T``
(C is the class count).  One forward and C reverse passes give J for a whole
chunk of samples; the Newton step is then exact C x C algebra, batched.
With ``J^T = Q R`` (Q has orthonormal columns) ``H = Q (R S R^T) Q^T`` and
``g = Q R (p - e_y)``, so ``(H + mu I) z = g`` is solved by ``z = Q w`` with
``(R S R^T + mu I) w = R (p - e_y)``.  ``R S R^T`` is PSD with the nonzero
spectrum of H, so the system's eigenvalues are all at least mu: it is always
solvable and no iteration can fail.  The damping ``mu = max(damping_scale *
lambda1, damping_floor)`` bounds the Newton step.  As mu grows the solve
degenerates to z ~ g / mu, so the signed variant falls back to the plain
signed-gradient direction — a useful consistency check.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, PSDViolationError, ZeroDirectionError
from .nn import SAMPLE_CHUNK, softmax_ce_grad
from .spectrum import projected_input_hessians

# Unused; patched by name by perfbench/spans.py until ROADMAP item 1 lands.
from .spectrum import InputHvpOperator, power_iteration_topk  # noqa: F401

ATTACK_NORMS = {
    "fgsm": "linf",
    "fgsm10": "linf",
    "l2grad": "l2",
    "fhsm": "linf",
    "l2hess": "l2",
}
ATTACK_NAMES = tuple(ATTACK_NORMS)

# Default perturbation budgets per input geometry, chosen so the two norms
# are comparably strong on each dataset family.
EPS_PRESETS = {
    (1, 28, 28): {"linf": 0.1, "l2": 2.8},
    (3, 32, 32): {"linf": 0.02, "l2": 1.2},
}


def eps_preset(in_shape, norm):
    key = tuple(in_shape)
    if key not in EPS_PRESETS or norm not in EPS_PRESETS[key]:
        raise ConfigError(f"no eps preset for shape {key} and norm {norm!r}")
    return EPS_PRESETS[key][norm]


@dataclass(frozen=True)
class Damping:
    """Newton-attack damping ``mu = max(damping_scale * lambda1, damping_floor)``."""

    damping_scale: float = 1e-3
    damping_floor: float = 1e-6

    def validate(self):
        """Raise :class:`ContractError` unless every control is usable."""
        for key, ok, requirement in (
            ("damping_scale", 0 <= self.damping_scale < np.inf,
             "non-negative and finite"),
            ("damping_floor", 0 < self.damping_floor < np.inf,
             "positive and finite"),
        ):
            if not ok:
                raise ContractError(f"Damping.{key} must be {requirement}, "
                                    f"got {getattr(self, key)!r}")
        return self


@dataclass
class AttackReport:
    name: str
    eps: float
    norm: str
    x_adv: np.ndarray
    pre_clamp_norms: np.ndarray
    dampings: np.ndarray = None
    # Always None; perfbench/workloads.py reads it until ROADMAP item 1 lands.
    cg_converged: np.ndarray = None


# Unused; patched by name by perfbench/spans.py until ROADMAP item 1 lands.
def cg_solve(apply_a, b, tol=1e-6, max_iter=50):
    """Conjugate gradients for symmetric positive-definite ``A z = b``.

    Returns ``(z, iterations, converged, residual_norm)``.  A non-positive
    curvature value ``p^T A p`` aborts with :class:`PSDViolationError`
    because it falsifies the positive-definiteness the method relies on.
    """
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    z = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return z, 0, True, 0.0
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    for i in range(1, max_iter + 1):
        ap = np.asarray(apply_a(p), dtype=np.float64).reshape(-1)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise PSDViolationError(
                f"non-positive curvature p^T A p = {pap:.3e} at CG step {i}"
            )
        alpha = rs / pap
        z += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol * bnorm:
            return z, i, True, float(np.sqrt(rs_new))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return z, max_iter, False, float(np.sqrt(rs))


def batch_input_gradients(model, theta, x, y, bn_state=None):
    """Per-sample loss gradients w.r.t. the inputs, eval mode, in chunks of
    ``SAMPLE_CHUNK`` samples."""
    data = theta.data if isinstance(theta, ad.ParamVector) else theta
    y = np.asarray(y)
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    for lo in range(0, x.shape[0], SAMPLE_CHUNK):
        xb = np.asarray(x[lo : lo + SAMPLE_CHUNK], dtype=np.float64)
        yb = y[lo : lo + SAMPLE_CHUNK]
        xn = ad.leaf(xb)
        loss = model.batch_loss_node(ad.constant(data), xn, yb, mode="eval",
                                     bn_state=bn_state)
        (g,) = ad.grad(loss, [xn])
        # the loss is a mean, so scale back to per-sample gradients
        out[lo : lo + SAMPLE_CHUNK] = g.value * xb.shape[0]
    return out


def _per_sample_l2(v):
    return np.sqrt((v.reshape(v.shape[0], -1) ** 2).sum(axis=1))


def _per_sample_linf(v):
    return np.abs(v.reshape(v.shape[0], -1)).max(axis=1)


def attack_batch(model, theta, x, y, name, eps, bn_state=None, damping=None):
    """Run one attack over a batch; returns an :class:`AttackReport`."""
    if name not in ATTACK_NORMS:
        raise ConfigError(f"unknown attack {name!r} (have {sorted(ATTACK_NORMS)})")
    if eps < 0:
        raise ConfigError("eps must be non-negative")
    damping = (damping or Damping()).validate()
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if name == "fgsm":
        g = batch_input_gradients(model, theta, x, y, bn_state)
        delta = eps * np.sign(g)
        x_adv = np.clip(x + delta, 0.0, 1.0)
        return AttackReport(name, eps, "linf", x_adv, _per_sample_linf(delta))
    if name == "fgsm10":
        x_adv = x.copy()
        step = eps / 10.0
        for _ in range(10):
            g = batch_input_gradients(model, theta, x_adv, y, bn_state)
            x_adv = x_adv + step * np.sign(g)
            x_adv = np.clip(x_adv, x - eps, x + eps)
            x_adv = np.clip(x_adv, 0.0, 1.0)
        return AttackReport(name, eps, "linf", x_adv, _per_sample_linf(x_adv - x))
    if name == "l2grad":
        g = batch_input_gradients(model, theta, x, y, bn_state)
        norms = _per_sample_l2(g)
        bad = np.flatnonzero(norms <= 1e-30)
        if bad.size:
            raise ZeroDirectionError(
                f"zero input gradient for sample index {int(bad[0])}"
            )
        delta = eps * g / norms.reshape(-1, *([1] * (x.ndim - 1)))
        x_adv = np.clip(x + delta, 0.0, 1.0)
        return AttackReport(name, eps, "l2", x_adv, _per_sample_l2(delta))
    return _newton_attack(model, theta, x, y, name, eps, bn_state, damping)


def _newton_directions(jac, logits, y, damping):
    """Damped Newton directions (B, D) and dampings (B,) from (B, C, D) logit
    Jacobians: ``z = Q w`` with ``(R S R^T + mu I) w = R (p - e_y)``."""
    q, r, h, lam1 = projected_input_hessians(jac, logits)
    mu = np.maximum(damping.damping_scale * lam1, damping.damping_floor)
    w = np.linalg.solve(h + mu[:, None, None] * np.eye(h.shape[1]),
                        r @ softmax_ce_grad(logits, y)[:, :, None])
    return (q @ w)[:, :, 0], mu


def _newton_attack(model, theta, x, y, name, eps, bn_state, damping):
    n = x.shape[0]
    z = np.empty((n, model.input_dim))
    mus = np.empty(n)
    for lo in range(0, n, SAMPLE_CHUNK):
        hi = lo + SAMPLE_CHUNK
        jac, logits = model.input_jacobians(theta, x[lo:hi], bn_state)
        z[lo:hi], mus[lo:hi] = _newton_directions(jac, logits, y[lo:hi], damping)
    if name == "fhsm":
        delta = eps * np.sign(z)
        norms = _per_sample_linf(delta)
    else:  # l2hess
        zn = _per_sample_l2(z)
        bad = np.flatnonzero(zn <= 1e-30)
        if bad.size:
            raise ZeroDirectionError(
                f"zero Newton direction for sample index {int(bad[0])}"
            )
        delta = eps * z / zn[:, None]
        norms = _per_sample_l2(delta)
    x_adv = np.clip(x + delta.reshape(x.shape), 0.0, 1.0)
    return AttackReport(name, eps, ATTACK_NORMS[name], x_adv, norms, mus)


@dataclass
class AdversarialEval:
    attack: str
    eps: float
    clean_accuracy: float
    adversarial_accuracy: float
    report: AttackReport = field(repr=False, default=None)


def evaluate_adversarial(model, theta, x, y, name, eps, bn_state=None,
                         damping=None, source=None):
    """Accuracy before/after an attack.

    ``source``, when given as ``(model, theta, bn_state)``, generates the
    perturbations on that model instead (transfer setting); evaluation is
    always on the target ``model``/``theta``.
    """
    gen_model, gen_theta, gen_bn = (model, theta, bn_state) if source is None else source
    report = attack_batch(gen_model, gen_theta, x, y, name, eps, bn_state=gen_bn,
                          damping=damping)
    _, clean = model.loss_and_accuracy(theta, x, y, bn_state=bn_state)
    _, adv = model.loss_and_accuracy(theta, report.x_adv, y, bn_state=bn_state)
    return AdversarialEval(name, eps, clean, adv, report)
