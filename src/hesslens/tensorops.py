"""Dense float64 kernels and the deterministic RNG used everywhere else.

All arrays are 64-bit reals.  The RNG is counter-based (Philox) so that a
seed fully determines the stream on every platform.
"""

import hashlib

import numpy as np

from .errors import ContractError, DegenerateDirectionError, DimensionError

ORTHO_RTOL = 1e-14


def as_vector(v):
    """Return ``v`` as a contiguous 1-d float64 array."""
    a = np.ascontiguousarray(v, dtype=np.float64)
    if a.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got shape {a.shape}")
    return a


def orthonormalize_against(v, basis):
    """Project ``v`` off a mutually orthonormal ``basis`` and normalize.

    ``basis`` is a 2-d array of rows or a sequence of vectors.  The block
    projection ``u -= B^T (B u)`` is applied twice (classical Gram-Schmidt
    with re-orthogonalization, two matrix-vector products a pass) so the
    returned unit vector overlaps every basis member by at most ~1e-10 even
    when ``v`` is nearly inside their span.  If what is left after projecting
    has norm below ``ORTHO_RTOL`` relative to the input, the direction is
    degenerate and the caller must resample.
    """
    u = as_vector(v).copy()
    scale = float(np.linalg.norm(u))
    if scale == 0.0:
        raise DegenerateDirectionError("cannot orthonormalize the zero vector")
    b = np.asarray(basis, dtype=np.float64)
    if b.size == 0:
        b = b.reshape(0, u.shape[0])
    if b.ndim != 2 or b.shape[1] != u.shape[0]:
        raise DimensionError("basis vector length does not match v")
    for _ in range(2):
        u -= b.T @ (b @ u)
    residual = float(np.linalg.norm(u))
    if residual < ORTHO_RTOL * max(scale, 1.0):
        raise DegenerateDirectionError(
            f"residual norm {residual:.3e} after projection; resample the direction"
        )
    return u / residual


def make_rng(seed):
    """Deterministic counter-based generator.

    ``seed`` may be an integer or any nested tuple of integers and strings;
    structured seeds are folded through SHA-256, so derived streams such as
    ``(run_seed, "shuffle")`` are independent yet fully reproducible (no
    dependence on process state or Python's randomized string hashing).
    """
    if isinstance(seed, (int, np.integer)):
        key = int(seed) & (1 << 64) - 1
    else:
        digest = hashlib.sha256(repr(_canonical_seed(seed)).encode()).digest()
        key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key))


def _canonical_seed(seed):
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    if isinstance(seed, str):
        return seed
    if isinstance(seed, (tuple, list)):
        return tuple(_canonical_seed(s) for s in seed)
    raise ContractError(f"unsupported seed component {type(seed).__name__}")


def random_unit_vector(rng, n):
    """Unit vector drawn from the rotation-invariant distribution."""
    while True:
        v = rng.standard_normal(n)
        s = float(np.linalg.norm(v))
        if s > 1e-12:
            return v / s
