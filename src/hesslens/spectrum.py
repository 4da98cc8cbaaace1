"""Top-k Hessian eigenpairs, each with a directly recomputed residual.

The parameter Hessian is only touched through Hessian-vector products, by
matrix-free block Lanczos with full reorthogonalization.  The eval-mode
input Hessian ``J^T S J`` (J the C x D logit Jacobian, ``S = diag(p) -
p p^T``) is solved exactly from the SVD of the C x D matrix ``S^1/2 J``.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (
    CapacityError,
    ContractError,
    DegenerateDirectionError,
    DegenerateSpectrumError,
    NumericError,
)
from .nn import SAMPLE_CHUNK, softmax_ce_hessian, softmax_ce_hessian_sqrt
from .tensorops import make_rng, orthonormalize_against, random_unit_vector

RESAMPLE_LIMIT = 5


@dataclass
class EigenPair:
    value: float
    vector: np.ndarray
    iterations: int  # Hessian-vector products the whole solve used
    converged: bool
    residual: float = float("nan")  # ||H v - value v||, nan when not computed


@dataclass
class SpectrumResult:
    pairs: list
    dim: int
    k: int
    tol: float
    max_iter: int
    seed: int
    kind: str  # "theta" or "input"
    meta: dict = field(default_factory=dict)
    elapsed: float = 0.0  # wall seconds; informational only, never serialized

    @property
    def eigenvalues(self):
        return np.array([p.value for p in self.pairs], dtype=np.float64)

    @property
    def converged_all(self):
        return all(p.converged for p in self.pairs)

    @property
    def top(self):
        return self.pairs[0].value if self.pairs else 0.0

    @property
    def hvps(self):
        """Hessian-vector products the solve used."""
        return self.pairs[0].iterations if self.pairs else 0


def power_iteration_topk(apply_h, dim, k=20, tol=1e-4, max_iter=500, seed=0):
    """Leading ``k`` eigenpairs (by magnitude) of a symmetric operator.

    ``apply_h(v) -> H v`` is the only access to the matrix.  The solver is
    block Lanczos with full reorthogonalization and block size ``k``: the
    basis starts as ``k`` random orthonormal vectors drawn from ``seed`` and
    grows by one vector per product, the image ``H v_j`` orthonormalized
    against the whole basis.  When an image adds no new direction
    (breakdown: a Krylov space of a low-rank, identity or zero operator is
    exhausted) the basis continues from a fresh random direction.  A block
    of ``k`` rather than one vector is what finds every copy of a repeated
    eigenvalue.

    Every image is kept, so for a Ritz vector ``v = V s`` the product
    ``H v = (H V) s`` is exact and each pair's residual ``||H v - lam v||``
    is recomputed directly.  After each product the top-``k`` Ritz pairs of
    the span of the basis vectors with known images are certified: for a
    symmetric operator the residual bounds the distance from the value to
    the true spectrum, and a pair is ``converged`` when its residual is at
    most ``0.5 * sqrt(tol) * max(|lam|, 0.01 * max|lam|)``.  The solve stops
    once all ``k`` pairs are converged or after ``max(max_iter, k)``
    products, so ``max_iter`` is a budget of Hessian-vector products for the
    whole solve, and every pair's ``iterations`` is the products used.

    Values are signed and sorted by decreasing magnitude; a fixed ``seed``
    gives bitwise-identical values, vectors and counts.
    """
    if dim <= 0:
        raise CapacityError("operator dimension must be positive")
    _check_k_tol(k, tol)
    if max_iter < 1:
        raise ContractError(f"max_iter must be at least 1, got {max_iter!r}")
    k = min(int(k), dim)
    size = min(max(int(max_iter), k), dim)  # basis vectors whose images are taken
    rng = make_rng(seed)

    def checked_apply(v):
        w = np.asarray(apply_h(v), dtype=np.float64).reshape(-1)
        if w.shape[0] != dim:
            raise CapacityError(
                f"operator returned length {w.shape[0]}, expected {dim}"
            )
        if not np.all(np.isfinite(w)):
            raise NumericError("operator returned non-finite values")
        return w

    # Basis, images and projected matrix grow together by doubling, so each
    # step costs O(dim * m) for m basis vectors and nothing is re-stacked.
    rows = min(2 * k, size)
    basis = np.empty((rows, dim))
    images = np.empty((rows, dim))
    proj = np.empty((rows, rows))
    for j in range(k):
        basis[j] = _fresh_direction(rng, dim, basis[:j])
    n = k  # basis vectors so far; images are known for the first m
    for m in range(size):
        # a copy: an operator may keep or change its argument, and a view
        # would pin or overwrite the whole basis buffer
        w = checked_apply(basis[m].copy())
        images[m] = w
        col = basis[:m + 1] @ w
        proj[m, :m + 1] = col
        proj[:m + 1, m] = col
        if n < size:
            try:
                nxt = orthonormalize_against(w, basis[:n])
            except DegenerateDirectionError:
                nxt = _fresh_direction(rng, dim, basis[:n])
            if n == rows:
                rows = min(2 * rows, size)
                basis = _grown(basis, (rows, dim))
                images = _grown(images, (rows, dim))
                proj = _grown(proj, (rows, rows))
            basis[n] = nxt
            n += 1
        if m + 1 >= k:
            pairs = _ritz_pairs(basis[:m + 1], images[:m + 1],
                                proj[:m + 1, :m + 1], k, tol, m + 1)
            if all(p.converged for p in pairs):
                break
    return pairs


def _check_k_tol(k, tol):
    if k < 1:
        raise ContractError(f"k must be at least 1, got {k!r}")
    if not tol > 0:
        raise ContractError(f"tol must be positive, got {tol!r}")


def _grown(a, shape):
    """A larger uninitialized 2-d array holding ``a`` in its top-left corner."""
    out = np.empty(shape)
    out[:a.shape[0], :a.shape[1]] = a
    return out


def _ritz_pairs(basis, images, proj, k, tol, hvps):
    """Top-``k`` Ritz pairs of span(basis) with directly computed residuals."""
    values, rot = np.linalg.eigh(proj)
    order = np.argsort(-np.abs(values), kind="stable")[:k]
    values, rot = values[order], rot[:, order]
    vecs = rot.T @ basis
    residuals = np.linalg.norm(rot.T @ images - values[:, None] * vecs, axis=1)
    return _certified_pairs(values, vecs, residuals, tol, hvps)


def _certified_pairs(values, vecs, residuals, tol, hvps):
    """Eigenpairs with the residual certificate of :func:`power_iteration_topk`."""
    bound = 0.5 * np.sqrt(tol) * np.maximum(np.abs(values), 0.01 * abs(float(values[0])))
    return [EigenPair(float(lam), vec, hvps, bool(r <= b), float(r))
            for lam, vec, r, b in zip(values, vecs, residuals, bound)]


def _fresh_direction(rng, dim, basis):
    for _ in range(RESAMPLE_LIMIT):
        try:
            return orthonormalize_against(random_unit_vector(rng, dim), basis)
        except DegenerateDirectionError:
            continue
    raise DegenerateSpectrumError(
        f"could not draw a direction orthogonal to {len(basis)} basis vectors"
    )


# ---------------------------------------------------------------------------
# Hessian-vector-product operators that record the forward and gradient
# graphs once and reuse them for every product.
# ---------------------------------------------------------------------------


class ThetaHvpOperator:
    """H v products for the parameter Hessian of a model on a fixed batch."""

    def __init__(self, model, theta, batch, mode="eval", bn_state=None):
        self.theta_node = ad.leaf(theta.data if isinstance(theta, ad.ParamVector)
                                  else np.asarray(theta, dtype=np.float64))
        x, y = batch
        self.loss = model.batch_loss_node(self.theta_node, ad.constant(x), y,
                                          mode=mode, bn_state=bn_state)
        if not np.isfinite(self.loss.value):
            raise NumericError("non-finite loss while building Hessian operator")
        (self.grad_node,) = ad.grad(self.loss, [self.theta_node])
        self.dim = self.theta_node.value.shape[0]
        self.applies = 0

    def __call__(self, v):
        gv = ad.sum_all(ad.mul(self.grad_node, ad.constant(v)))
        (h,) = ad.grad(gv, [self.theta_node])
        self.applies += 1
        return h.value


class InputHvpOperator:
    """H v products for the loss Hessian w.r.t. one input sample (a reference
    for :func:`input_spectrum`; ``perfbench/spans.py`` patches it by name)."""

    def __init__(self, model, theta, sample, bn_state=None):
        x, y = sample
        data = theta.data if isinstance(theta, ad.ParamVector) else theta
        self.x_node = ad.leaf(np.asarray(x, dtype=np.float64))
        loss_fn = model.make_input_loss(bn_state=bn_state)
        self.loss = loss_fn(ad.constant(data), self.x_node, y)
        if not np.isfinite(self.loss.value):
            raise NumericError("non-finite loss while building Hessian operator")
        (self.grad_node,) = ad.grad(self.loss, [self.x_node])
        self.dim = int(np.prod(self.x_node.value.shape))
        self.applies = 0

    def __call__(self, v):
        vv = np.asarray(v, dtype=np.float64).reshape(self.x_node.value.shape)
        gv = ad.sum_all(ad.mul(self.grad_node, ad.constant(vv)))
        (h,) = ad.grad(gv, [self.x_node])
        self.applies += 1
        return h.value.reshape(-1)


def theta_spectrum(model, theta, batch, k=20, tol=1e-4, max_iter=500, seed=0,
                   mode="eval", bn_state=None, meta=None):
    """Top-k parameter-Hessian eigenpairs of the batch loss."""
    start = time.perf_counter()
    op = ThetaHvpOperator(model, theta, batch, mode=mode, bn_state=bn_state)
    pairs = power_iteration_topk(op, op.dim, k=k, tol=tol, max_iter=max_iter,
                                 seed=seed)
    info = {"model": model.config.name, "batch_size": int(len(batch[1])),
            "mode": mode}
    info.update(meta or {})
    return SpectrumResult(pairs, op.dim, k, tol, max_iter, seed, "theta", info,
                          time.perf_counter() - start)


def input_spectrum(model, theta, sample, k=10, tol=1e-4, seed=0, bn_state=None,
                   meta=None):
    """Top-k input-Hessian eigenpairs of the per-sample loss (eval mode), exact.

    ``J^T S J = A^T A`` with ``A = S^1/2 J``: the eigenpairs are the squared
    singular values and right singular vectors of A.  Pairs past the rank
    (singular values at most ``max(C, D) * eps * sigma_1``) are exact zeros
    with vectors drawn from ``seed``.  ``iterations`` and ``hvps`` are 0.
    """
    start = time.perf_counter()
    _check_k_tol(k, tol)
    jac, z = model.input_jacobian(theta, sample[0], bn_state=bn_state)
    dim = jac.shape[1]
    a = softmax_ce_hessian_sqrt(z) @ jac
    a -= a.mean(axis=0)  # exact as S 1 = 0; drops roundoff S^1/2 leaves along 1
    _, sigma, vt = np.linalg.svd(a, full_matrices=False)
    n = min(int(k), dim)
    rank = min(int(np.sum(sigma > max(jac.shape) * np.finfo(float).eps * sigma[0])), n)
    rows = list(vt[:rank])
    rng = make_rng(seed)
    while len(rows) < n:
        rows.append(_fresh_direction(rng, dim, rows))
    vecs = np.array(rows)
    values = np.append(sigma[:rank] ** 2, np.zeros(n - rank))
    hv = vecs @ jac.T @ softmax_ce_hessian(z) @ jac  # rows (J^T S J v)^T
    residuals = np.linalg.norm(hv - values[:, None] * vecs, axis=1)
    pairs = _certified_pairs(values, vecs, residuals, tol, 0)
    info = {"model": model.config.name, "label": int(sample[1]), **(meta or {})}
    return SpectrumResult(pairs, dim, k, tol, 0, seed, "input", info,
                          time.perf_counter() - start)


def projected_input_hessians(jac, logits):
    """``(Q, R, R S R^T, lambda1)`` per sample from (B, C, D) Jacobians and
    (B, C) logits, with ``J^T = Q R``: ``J^T S J = Q (R S R^T) Q^T`` exactly,
    and lambda1 (clipped at 0) is the top eigenvalue of both."""
    q, r = np.linalg.qr(np.swapaxes(jac, 1, 2))
    h = r @ softmax_ce_hessian(logits) @ np.swapaxes(r, 1, 2)
    return q, r, h, np.maximum(np.linalg.eigvalsh(h)[:, -1], 0.0)


def input_lambda1_over(model, theta, x, y, indices, bn_state=None):
    """Exact largest input-Hessian eigenvalue of each selected sample, one
    Jacobian pass per ``SAMPLE_CHUNK`` samples (the labels do not enter)."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(len(indices), dtype=np.float64)
    for lo in range(0, len(indices), SAMPLE_CHUNK):
        jac, z = model.input_jacobians(theta, x[indices[lo : lo + SAMPLE_CHUNK]], bn_state)
        out[lo : lo + SAMPLE_CHUNK] = projected_input_hessians(jac, z)[3]
    return out


def spectrum_rows(result):
    """CSV-ready rows: index, eigenvalue, iterations (solve HVPs), converged flag."""
    return [
        {
            "index": str(i),
            "eigenvalue": repr(float(p.value)),
            "iterations": str(p.iterations),
            "converged": "1" if p.converged else "0",
        }
        for i, p in enumerate(result.pairs)
    ]
