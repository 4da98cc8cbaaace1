import numpy as np
import pytest

from hesslens.errors import (
    ContractError,
    DegenerateDirectionError,
    DimensionError,
)
from hesslens.tensorops import (
    as_vector,
    make_rng,
    orthonormalize_against,
    random_unit_vector,
)


def test_as_vector_rejects_matrix():
    with pytest.raises(DimensionError):
        as_vector(np.ones((2, 2)))


def test_orthonormalize_produces_unit_orthogonal_vector():
    rng = np.random.default_rng(1)
    basis = []
    for _ in range(5):
        v = orthonormalize_against(rng.standard_normal(40), basis)
        basis.append(v)
    v = np.stack(basis)
    gram = v @ v.T
    assert np.max(np.abs(gram - np.eye(5))) < 1e-13


def test_block_orthonormalize_matches_the_per_vector_projection():
    rng = np.random.default_rng(2)
    basis, _ = np.linalg.qr(rng.standard_normal((60, 12)))
    basis = basis.T
    v = rng.standard_normal(60) + basis.T @ rng.standard_normal(12) * 1e3
    u = v.copy()
    for _ in range(2):
        for b in basis:
            u -= np.dot(b, u) * b
    want = u / np.linalg.norm(u)
    for given in (basis, list(basis)):
        got = orthonormalize_against(v, given)
        assert np.max(np.abs(got - want)) < 1e-12
        assert np.max(np.abs(basis @ got)) < 1e-13
    with pytest.raises(DimensionError):
        orthonormalize_against(v, basis[:, :59])


def test_orthonormalize_degenerate_direction_raises():
    e0 = np.zeros(8)
    e0[0] = 1.0
    with pytest.raises(DegenerateDirectionError):
        orthonormalize_against(e0 * 2.0, [e0])
    with pytest.raises(DegenerateDirectionError):
        orthonormalize_against(np.zeros(8), [])


def test_make_rng_deterministic_and_stream_separated():
    a = make_rng(7).standard_normal(5)
    b = make_rng(7).standard_normal(5)
    assert np.array_equal(a, b)
    c = make_rng((7, "shuffle")).standard_normal(5)
    d = make_rng((7, "blobs")).standard_normal(5)
    assert not np.array_equal(c, d)
    assert not np.array_equal(a, c)
    # structured seeds are order-sensitive and reproducible
    assert np.array_equal(make_rng((1, "x", 2)).random(3),
                          make_rng((1, "x", 2)).random(3))


def test_make_rng_rejects_unhashable_seed_parts():
    with pytest.raises(ContractError):
        make_rng((1, 2.5))


def test_random_unit_vector():
    rng = make_rng(3)
    v = random_unit_vector(rng, 100)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
