"""Top-k Hessian eigenpairs, each with a directly recomputed residual.

The parameter Hessian is only touched through Hessian-vector products, by
matrix-free block Lanczos with full reorthogonalization.  A product is
double backprop through gradient graphs recorded once, one per
``SAMPLE_CHUNK`` rows of the batch, each weighted by its share of the rows.
The eval-mode input Hessian ``J^T S J`` (J the C x D logit Jacobian,
``S = diag(p) - p p^T``) is solved exactly on C x C algebra: with
``J^T = Q R`` it is ``Q (R S R^T) Q^T``.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    CapacityError,
    ContractError,
    DegenerateDirectionError,
    DegenerateSpectrumError,
    NumericError,
)
from .nn import SAMPLE_CHUNK, softmax_ce_hessian
from .tensorops import make_rng, orthonormalize_against, random_unit_vector

RESAMPLE_LIMIT = 5
EPS = np.finfo(np.float64).eps


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
    ``H v = (H V) s`` is exact.  After each product the top-``k`` Ritz pairs
    of the span of the basis vectors with known images are screened with
    ``||H v - lam v||^2 = s^T G s - lam^2``, where ``G = (HV)^T (HV)`` is
    the Gram matrix of the images, kept one column per product: algebra on
    m x m matrices for m products, which cancellation limits to about
    ``sqrt(m * eps) * |lam_1|``.  Only when the screen passes are the Ritz
    vectors formed and each residual ``||H v - lam v||`` recomputed
    directly, and that direct residual is the certificate: for a symmetric
    operator it bounds the distance from the value to the true spectrum,
    and a pair is ``converged`` when its residual is at most
    ``0.5 * sqrt(tol) * max(|lam|, 0.01 * max|lam|)``.  The solve stops
    once all ``k`` pairs are converged or after ``max(max_iter, k)``
    products, so ``max_iter`` is a budget of Hessian-vector products for the
    whole solve, and every pair's ``iterations`` is the products used.  The
    basis, images and m x m matrices grow by one block of ``k`` rows when
    full, so at most a block of rows is allocated and unused.  The basis and
    images grow in place (``ndarray.resize``), so no growth leaves a freed
    copy behind as a heap hole that the next, larger block cannot fit.  NumPy
    refuses that while anything else holds a reference to the array, as an
    active profiler or tracer does; the array then grows by copy, with the
    same values.

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

    # The basis runs k vectors ahead of the images; proj = V^T H V and the
    # Gram matrix are as wide as the images.
    basis = np.empty((min(2 * k, size), dim))
    images = np.empty((k, dim))
    proj = np.empty((k, k))
    gram = np.empty((k, k))
    for j in range(k):
        basis[j] = _fresh_direction(rng, dim, basis[:j])
    n = k  # basis vectors so far; images are known for the first m + 1
    for m in range(size):
        # a copy: an operator may keep or change its argument, and a view
        # would pin or overwrite the whole basis buffer
        w = checked_apply(basis[m].copy())
        if m == len(images):
            rows = min(m + k, size)
            try:
                images.resize((rows, dim))
            except ValueError:  # another reference, such as a profiler's
                images = _grown(images, (rows, dim))
            proj = _grown(proj, (rows, rows))
            gram = _grown(gram, (rows, rows))
        images[m] = w
        _border(proj, basis, w, m)
        _border(gram, images, w, m)
        if n < size:
            try:
                nxt = orthonormalize_against(w, basis[:n])
            except DegenerateDirectionError:
                nxt = _fresh_direction(rng, dim, basis[:n])
            if n == len(basis):
                try:
                    basis.resize((min(n + k, size), dim))
                except ValueError:
                    basis = _grown(basis, (min(n + k, size), dim))
            basis[n] = nxt
            n += 1
        if m + 1 < k:
            continue
        values, rot = _top_ritz(proj[:m + 1, :m + 1], k)
        # the screen cancels to about sqrt(m * eps) * |lam_1| after m
        # products; four times that as slack keeps it from delaying the stop
        slack = 4.0 * np.sqrt((m + 1) * EPS) * abs(values[0])
        last = m + 1 == size
        if last or np.all(_screened_residuals(values, rot, gram[:m + 1, :m + 1])
                          <= _bounds(values, tol) + slack):
            vecs = rot.T @ basis[:m + 1]
            residuals = np.linalg.norm(rot.T @ images[:m + 1] - values[:, None] * vecs,
                                       axis=1)
            pairs = _certified_pairs(values, vecs, residuals, tol, m + 1)
            if last or all(p.converged for p in pairs):
                return pairs


def _check_k_tol(k, tol):
    if k < 1:
        raise ContractError(f"k must be at least 1, got {k!r}")
    if not tol > 0:
        raise ContractError(f"tol must be positive, got {tol!r}")


def _border(mat, vs, w, m):
    """Fill row and column ``m`` of the symmetric ``mat`` with ``vs[:m + 1] @ w``."""
    col = vs[:m + 1] @ w
    mat[m, :m + 1] = col
    mat[:m + 1, m] = col


def _grown(a, shape):
    """A larger uninitialized 2-d array holding ``a`` in its top-left corner."""
    out = np.empty(shape)
    out[:a.shape[0], :a.shape[1]] = a
    return out


def _top_ritz(proj, k):
    """Top-``k`` Ritz values by magnitude and their coordinate columns."""
    values, rot = np.linalg.eigh(proj)
    order = np.argsort(-np.abs(values), kind="stable")[:k]
    return values[order], rot[:, order]


def _screened_residuals(values, rot, gram):
    """``||H v - lam v||`` of each Ritz pair ``v = V s`` from the Gram matrix
    ``G = (HV)^T (HV)`` alone: ``s^T G s - lam^2``, exact for orthonormal V
    and ``lam = s^T V^T H V s``, clipped at 0 where roundoff makes it negative."""
    return np.sqrt(np.maximum(np.einsum("ij,ij->j", rot, gram @ rot) - values ** 2, 0.0))


def _bounds(values, tol):
    """Residual each pair may have and count as converged."""
    return 0.5 * np.sqrt(tol) * np.maximum(np.abs(values), 0.01 * abs(float(values[0])))


def _certified_pairs(values, vecs, residuals, tol, hvps):
    """Eigenpairs with the residual certificate of :func:`power_iteration_topk`."""
    return [EigenPair(float(lam), vec, hvps, bool(r <= b), float(r))
            for lam, vec, r, b in zip(values, vecs, residuals, _bounds(values, tol))]


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
    """H v products for the eval-mode parameter Hessian of a model on a fixed
    batch.

    The batch is recorded as one loss-and-gradient graph per
    ``SAMPLE_CHUNK`` rows.  Eval-mode rows are independent, so the Hessian
    of the mean loss is ``sum_c (n_c / N) H_c`` over chunks of ``n_c`` of
    the ``N`` rows, and a product builds and frees one chunk's graph at a
    time.  A batch of at most ``SAMPLE_CHUNK`` rows is one unweighted graph.
    A chunk's gradient is recorded by a sweep that releases (see
    :func:`~hesslens.autodiff.grad`), so forward values that sweep does not
    read are dropped before it; then every other value that a product does
    not read is dropped (:func:`~hesslens.autodiff.release_unread`), and so
    are the values that depend on the input rows alone: the transposed
    input, the first convolution's patch matrix and its transpose.  Each
    product remakes those for its chunk and drops them again, so the kept
    graphs hold no patch matrix of the input at the cost of one lowering of
    it per chunk and product.  ``loss`` is the batch's mean loss.
    """

    def __init__(self, model, theta, batch, bn_state=None):
        self.theta_node = ad.constant(ad.param_data(theta))
        x, y = np.asarray(batch[0]), np.asarray(batch[1])
        n = len(x)
        if n == 0:
            raise ContractError("a Hessian operator needs at least one sample")
        # (n_c / N, gradient node of the chunk's mean loss, its remade nodes)
        self._chunks = []
        self.loss = 0.0
        for lo in range(0, n, SAMPLE_CHUNK):
            hi = min(lo + SAMPLE_CHUNK, n)
            loss = model.batch_loss_node(self.theta_node, ad.constant(x[lo:hi]),
                                         y[lo:hi], mode="eval", bn_state=bn_state)
            (g,) = ad.grad(loss, [self.theta_node], release=True)
            weight = (hi - lo) / n
            self.loss += weight * float(loss.value)
            self._chunks.append((weight, g, ad.release_unread(g, [self.theta_node])))
        self.dim = self.theta_node.value.shape[0]
        self.applies = 0

    def __call__(self, v):
        v = ad.constant(v)
        hs = [weight * self._product(g, remade, v) for weight, g, remade in self._chunks]
        self.applies += 1
        return sum(hs[1:], hs[0])

    def _product(self, grad_node, remade, v):
        """One chunk's H_c v; its product graph and remade values are freed
        on return."""
        ad.remake(remade)
        (h,) = ad.grad(ad.sum_all(ad.mul(grad_node, v)), [self.theta_node],
                       record=False)
        ad.drop(remade)
        return h


class InputHvpOperator:
    """H v products for the loss Hessian w.r.t. one input sample (a reference
    for :func:`input_spectrum`; ``perfbench/spans.py`` patches it by name)."""

    def __init__(self, model, theta, sample, bn_state=None):
        x, y = sample
        self.x_node = ad.constant(np.asarray(x, dtype=np.float64))
        loss_fn = model.make_input_loss(bn_state=bn_state)
        self.loss = loss_fn(ad.constant(ad.param_data(theta)), self.x_node, y)
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
                   bn_state=None):
    """Top-k eigenpairs of the eval-mode parameter Hessian of the batch loss."""
    start = time.perf_counter()
    op = ThetaHvpOperator(model, theta, batch, bn_state=bn_state)
    pairs = power_iteration_topk(op, op.dim, k=k, tol=tol, max_iter=max_iter,
                                 seed=seed)
    return SpectrumResult(pairs, op.dim, k, tol, max_iter, seed, "theta",
                          time.perf_counter() - start)


def input_spectrum(model, theta, sample, k=10, tol=1e-4, seed=0, bn_state=None):
    """Top-k input-Hessian eigenpairs of the per-sample loss (eval mode), exact.

    From :func:`projected_input_hessians`: the eigenpairs ``(w, u)`` of the
    C x C matrix ``R S R^T`` give the eigenpairs ``(w, Q u)`` of
    ``J^T S J``.  Pairs past the rank (values at most ``max(C, D) * eps *
    w_1``) are exact zeros with vectors drawn from ``seed``.  ``iterations``
    and ``hvps`` are 0.
    """
    start = time.perf_counter()
    _check_k_tol(k, tol)
    jac, z = model.input_jacobian(theta, sample[0], bn_state=bn_state)
    dim = jac.shape[1]
    q, _, h, _ = projected_input_hessians(jac[None], z[None])
    w, u = np.linalg.eigh(h[0])
    w, u = w[::-1], u[:, ::-1]
    n = min(int(k), dim)
    rank = min(int(np.sum(w > max(jac.shape) * EPS * max(w[0], 0.0))), n)
    rows = list((q[0] @ u[:, :rank]).T)
    rng = make_rng(seed)
    while len(rows) < n:
        rows.append(_fresh_direction(rng, dim, rows))
    vecs = np.array(rows)
    values = np.append(w[:rank], np.zeros(n - rank))
    hv = vecs @ jac.T @ softmax_ce_hessian(z) @ jac  # rows (J^T S J v)^T
    residuals = np.linalg.norm(hv - values[:, None] * vecs, axis=1)
    pairs = _certified_pairs(values, vecs, residuals, tol, 0)
    return SpectrumResult(pairs, dim, k, tol, 0, seed, "input",
                          time.perf_counter() - start)


def projected_input_hessians(jac, logits):
    """``(Q, R, R S R^T, lambda1)`` per sample from (B, C, D) Jacobians and
    (B, C) logits, with ``J^T = Q R``: ``J^T S J = Q (R S R^T) Q^T`` exactly,
    and lambda1 (clipped at 0) is the top eigenvalue of both."""
    q, r = np.linalg.qr(np.swapaxes(jac, 1, 2))
    h = r @ softmax_ce_hessian(logits) @ np.swapaxes(r, 1, 2)
    return q, r, h, np.maximum(np.linalg.eigvalsh(h)[:, -1], 0.0)


SPECTRUM_FIELDS = ("index", "eigenvalue", "iterations", "converged", "residual", "hvps")


def spectrum_rows(result):
    """CSV-ready rows: index, eigenvalue, iterations (solve HVPs), converged
    flag, the residual certificate ``||H v - lam v||`` and the solve's HVPs."""
    return [
        {
            "index": str(i),
            "eigenvalue": repr(float(p.value)),
            "iterations": str(p.iterations),
            "converged": "1" if p.converged else "0",
            "residual": repr(float(p.residual)),
            "hvps": str(result.hvps),
        }
        for i, p in enumerate(result.pairs)
    ]
