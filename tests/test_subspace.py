"""Linear algebra tests, including brute-force cross-checks of enumeration."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from drinfeld.errors import DomainError
from drinfeld.fields import field
from drinfeld.subspace import (
    apply_matrix,
    count_subspaces,
    iter_subspaces,
    matrix_inverse,
    rref,
    subspace,
    zero_space,
)

F2 = field(2)
F3 = field(3)


def vectors(F, n):
    return st.tuples(*[st.integers(0, F.q - 1) for _ in range(n)])


def test_rref_canonical_form():
    rows, pivots = rref(F2, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert pivots == [0, 1]
    assert rows == [(1, 0, 1), (0, 1, 1)]
    rows, pivots = rref(F3, [(2, 1, 0), (1, 2, 0)])
    assert rows == [(1, 2, 0)]
    assert pivots == [0]


def test_subspace_equality_independent_of_generators():
    a = subspace(F2, 3, [(1, 1, 0), (0, 1, 1)])
    b = subspace(F2, 3, [(1, 0, 1), (1, 1, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.dim == 2 and a.codim == 1


def test_membership_brute_force():
    W = subspace(F3, 3, [(1, 2, 0), (0, 0, 1)])
    explicit = set()
    for c1 in F3.elements():
        for c2 in F3.elements():
            v = [0, 0, 0]
            for c, b in ((c1, (1, 2, 0)), (c2, (0, 0, 1))):
                v = [F3.add(x, F3.mul(c, y)) for x, y in zip(v, b)]
            explicit.add(tuple(v))
    for v in product(F3.elements(), repeat=3):
        assert W.contains(v) == (v in explicit)
    assert set(W.vectors()) == explicit


@given(vectors(F3, 4), vectors(F3, 4))
def test_coset_representative_is_linear_and_constant_on_cosets(v, w):
    W = subspace(F3, 4, [(1, 0, 2, 1), (0, 1, 1, 1)])
    rv = W.reduce_vector(v)
    assert W.contains(tuple(F3.sub(a, b) for a, b in zip(v, rv)))
    sums = tuple(F3.add(a, b) for a, b in zip(v, w))
    assert W.reduce_vector(sums) == tuple(
        F3.add(a, b) for a, b in zip(rv, W.reduce_vector(w))
    )
    if W.contains(w):
        assert W.reduce_vector(sums) == rv


def test_coset_coords_roundtrip():
    W = subspace(F2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    assert W.nonpivots() == (1, 3)
    space = list(product(F2.elements(), repeat=4))
    assert len({W.coset_coords(v) for v in space}) == 2**W.codim
    for v in space:
        for u in space:
            diff = tuple(F2.sub(a, b) for a, b in zip(v, u))
            assert (W.coset_coords(v) == W.coset_coords(u)) == W.contains(diff)


def test_sum_and_intersection_brute_force():
    a = subspace(F2, 4, [(1, 0, 1, 0), (0, 1, 0, 0)])
    b = subspace(F2, 4, [(1, 1, 1, 0), (0, 0, 0, 1)])
    s = a.sum_with(b)
    i = a.intersect(b)
    va, vb = set(a.vectors()), set(b.vectors())
    assert set(i.vectors()) == va & vb
    span = set()
    for x in va:
        for y in vb:
            span.add(tuple(F2.add(p, q) for p, q in zip(x, y)))
    assert set(s.vectors()) == span
    assert s.dim + i.dim == a.dim + b.dim


def test_subspace_counts_match_gaussian_binomials():
    for q, F in ((2, F2), (3, F3)):
        for n in range(1, 5):
            for k in range(n + 1):
                got = list(iter_subspaces(F, n, k))
                assert len(got) == count_subspaces(q, n, k)
                assert len(set(got)) == len(got)
                assert all(W.dim == k for W in got)


def test_hyperplane_count_frozen():
    assert len(list(iter_subspaces(F2, 4, 3))) == 15
    assert len(list(iter_subspaces(F3, 3, 2))) == 13
    assert count_subspaces(2, 4, 2) == 35


def test_complete_basis_spans():
    W = subspace(F3, 4, [(1, 0, 1, 2), (0, 1, 0, 1)])
    ext = W.complete_basis()
    total = subspace(F3, 4, list(W.basis) + ext)
    assert total.dim == 4
    assert len(ext) == W.codim


def test_matrix_inverse():
    m = [(1, 1), (0, 1)]
    mi = matrix_inverse(F2, m)
    assert mi == [(1, 1), (0, 1)]
    m3 = [(1, 2, 0), (0, 1, 0), (1, 0, 1)]
    mi3 = matrix_inverse(F3, m3)
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        assert apply_matrix(F3, mi3, apply_matrix(F3, m3, e)) == e
    with pytest.raises(DomainError):
        matrix_inverse(F2, [(1, 1), (1, 1)])


def test_zero_and_full_space():
    z = zero_space(F2, 3)
    f = subspace(F2, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert z.dim == 0 and f.dim == 3
    assert f.contains((1, 1, 1))
    assert not z.contains((1, 0, 0))
