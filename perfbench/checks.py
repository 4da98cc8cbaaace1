"""Correctness checks on what the benchmarked commands and calls returned.

Each check takes plain arrays and returns a list of failure messages (empty
when the output is right).  The references are computed here, apart from
the code under test: finite differences of the loss or its gradient, a
dense linear solve, the closed-form softmax cross-entropy gradient, or a
property the method must have.  None compares against a saved copy of an
earlier output.
"""

import numpy as np


def _fail(cond, message):
    return [] if cond else [message]


def loss_falls(before, after, what="training loss"):
    return _fail(np.isfinite(after) and after < before,
                 f"{what} did not fall: {before!r} -> {after!r}")


def bit_identical(arrays, what="parameters"):
    first = arrays[0]
    for i, other in enumerate(arrays[1:], start=1):
        if first.shape != other.shape or first.tobytes() != other.tobytes():
            return [f"rerun {i} of the same {what} is not bit-identical to rerun 0"]
    return []


def gradient_matches_fd(loss_at, theta, grad, direction, h=1e-6, rtol=1e-5):
    """Directional derivative ``grad . d`` against a central difference of the loss."""
    d = direction / np.linalg.norm(direction)
    exact = float(grad @ d)
    fd = (loss_at(theta + h * d) - loss_at(theta - h * d)) / (2.0 * h)
    err = abs(exact - fd)
    return _fail(err <= rtol * max(abs(exact), abs(fd)),
                 f"gradient . d = {exact!r} but central difference gives {fd!r}")


def within_box_and_ball(x, x_adv, eps, norm, what="perturbation", rtol=1e-9):
    """``x_adv`` lies in [0, 1] and within ``eps`` of ``x`` in ``norm``."""
    x = x.reshape(x.shape[0], -1)
    x_adv = x_adv.reshape(x_adv.shape[0], -1)
    out = _fail(bool(np.all((x_adv >= 0.0) & (x_adv <= 1.0))),
                f"{what}: x_adv leaves [0, 1]")
    d = x_adv - x
    size = np.abs(d).max(axis=1) if norm == "linf" else np.sqrt((d * d).sum(axis=1))
    worst = int(np.argmax(size))
    out += _fail(bool(np.all(size <= eps * (1.0 + rtol))),
                 f"{what}: sample {worst} moved {size[worst]!r} > eps {eps!r} ({norm})")
    return out


def norms_equal_eps(norms, eps, what, rtol=1e-9):
    bad = np.flatnonzero(np.abs(np.asarray(norms) - eps) > rtol * eps)
    return _fail(bad.size == 0,
                 f"{what}: pre-clamp norm of sample {bad[:1].tolist()} is not eps {eps!r}")


def step_matches(x, x_adv, reference, eps, norm, what, rtol):
    """The step ``x_adv - x`` follows ``reference`` on pixels the clamp left alone.

    L-inf steps must be ``eps * sign(reference)`` wherever the reference is
    clearly non-zero (``|r_i| > rtol * max|r|``; a near-zero component of an
    approximate solve may take either sign).  L2 steps must be
    ``eps * reference / |reference|`` to within ``rtol * eps`` per pixel.
    """
    d = (x_adv - x).reshape(-1)
    r = reference.reshape(-1)
    inside = (x_adv.reshape(-1) > 0.0) & (x_adv.reshape(-1) < 1.0)
    if norm == "linf":
        clear = inside & (np.abs(r) > rtol * np.abs(r).max())
        wrong = int(np.sum(np.abs(d[clear] - eps * np.sign(r[clear])) > 1e-12))
        return _fail(wrong == 0, f"{what}: signed step disagrees with the reference "
                                 f"on {wrong} pixels")
    want = eps * r / np.linalg.norm(r)
    err = float(np.max(np.abs(d[inside] - want[inside]), initial=0.0))
    return _fail(err <= rtol * eps,
                 f"{what}: step differs from the reference direction by {err!r} (eps {eps!r})")


# -- input-space closed forms ------------------------------------------------------


def softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def input_gradient(jac, logits, label):
    """``J^T (p - e_y)``: the softmax cross-entropy gradient w.r.t. the input."""
    r = softmax(logits)
    r[label] -= 1.0
    return jac.T @ r


def newton_direction(jac, logits, label, mu):
    """Dense solve of ``(J^T (diag p - p p^T) J + mu I) z = J^T (p - e_y)``."""
    p = softmax(logits)
    s = np.diag(p) - np.outer(p, p)
    h = jac.T @ s @ jac
    h[np.diag_indices_from(h)] += mu
    return np.linalg.solve(h, input_gradient(jac, logits, label))


def fgsm10_reference(jac_at, x, label, eps, steps=10):
    """Ten signed steps of eps/10 along ``J^T (p - e_y)``, each projected on the ball and box."""
    xa = x.copy()
    for _ in range(steps):
        jac, logits = jac_at(xa)
        g = input_gradient(jac, logits, label).reshape(x.shape)
        xa = np.clip(np.clip(xa + eps / steps * np.sign(g), x - eps, x + eps), 0.0, 1.0)
    return xa


def same_point(got, want, what, atol=1e-12):
    err = float(np.max(np.abs(got - want)))
    return _fail(err <= atol, f"{what}: differs from the reference by {err!r}")


# -- spectrum -------------------------------------------------------------------------


def spectrum_pairs(values, vectors, hv_of, tol, orth_tol=1e-8):
    """Sorted by |lambda|, orthonormal, and each ``|Hv - lambda v|`` within the certificate.

    ``hv_of(v)`` computes the product apart from the solver (finite
    differences of the gradient).  The certificate threshold is the one the
    solver documents: ``0.5 * sqrt(tol) * max(|lambda|, 0.01 * max|lambda|)``.
    """
    values = np.asarray(values, dtype=np.float64)
    mags = np.abs(values)
    out = _fail(bool(np.all(mags[:-1] >= mags[1:])),
                f"eigenvalues are not sorted by magnitude: {values.tolist()}")
    gram = vectors @ vectors.T
    off = float(np.max(np.abs(gram - np.eye(len(values)))))
    out += _fail(off <= orth_tol, f"eigenvectors are not orthonormal (max |V V^T - I| = {off:.3e})")
    scale = float(mags.max())
    for i, (lam, v) in enumerate(zip(values, vectors)):
        resid = float(np.linalg.norm(hv_of(v) - lam * v))
        limit = 0.5 * np.sqrt(tol) * max(abs(lam), 0.01 * scale)
        out += _fail(resid <= limit,
                     f"pair {i}: |Hv - lambda v| = {resid:.3e} exceeds certificate {limit:.3e}")
    return out


def parabola_curvature(ts, losses, lam, rtol=0.2):
    """A quadratic fit of a small line scan along v1 recovers lambda1."""
    curv = 2.0 * float(np.polyfit(ts, losses, 2)[0])
    return _fail(abs(curv - lam) <= rtol * abs(lam),
                 f"parabola fit gives curvature {curv!r}, top eigenvalue is {lam!r}")


def tracked_lambda1(result):
    """The eigenvalue tracker stopped on its certificate, before its step cap."""
    pair = result.pairs[0]
    return _fail(pair.converged and pair.iterations < result.max_iter,
                 f"tracked lambda1 took {pair.iterations} of {result.max_iter} steps "
                 f"(converged flag {pair.converged})")


def base_loss(ts, losses, direct, rtol=1e-9):
    at = np.asarray(losses)[np.asarray(ts) == 0.0]
    if at.size == 0:
        return ["landscape.csv has no t=0 row"]
    at0 = float(at[0])
    return _fail(abs(at0 - direct) <= rtol * max(abs(direct), 1e-300),
                 f"scan loss at t=0 is {at0!r}, direct loss is {direct!r}")
