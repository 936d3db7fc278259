"""Group engine tests against pure-python permutation oracles."""

import numpy as np
import pytest

from drinfeld.errors import CapExceeded, DomainError
from drinfeld.fields import field
from drinfeld.fingroup import (
    AdditiveQuotientGroup,
    FactorDescriptor,
    ProductGroup,
    QuotientGroup,
    SubgroupAsGroup,
    SymmetricGroup,
    TableGroup,
    all_subgroups,
    as_code_array,
    closure,
    composition_factors,
    conj_orbit,
    core_in,
    derived_subgroup,
    is_normal,
    minimal_proper_index,
    normal_closure,
    orders_arr,
    pow_arr,
    psl2_order_param,
    psl2_orders_up_to,
    small_generating_set,
)

S3 = SymmetricGroup(3)
S4 = SymmetricGroup(4)
S5 = SymmetricGroup(5)


def compose(a, b):
    """Permutation composition as functions: apply b, then a."""
    return tuple(a[b[i]] for i in range(len(a)))


def brute_closure(gens, n):
    idp = tuple(range(n))
    els = {idp} | set(gens)
    frontier = set(els)
    while frontier:
        new = set()
        for a in frontier:
            for g in gens:
                c = compose(a, g)
                if c not in els:
                    new.add(c)
        els |= new
        frontier = new
    return els


def codes(G, perms):
    return [int(G.perm_to_code(p)) for p in perms]


def code_set(G, perms):
    return set(codes(G, perms))


CYC3 = (1, 2, 0, 3)  # 3-cycle on the first three points of S4
SWAP01 = (1, 0, 2, 3)
FOUR_CYCLE = (1, 2, 3, 0)
DBL = (1, 0, 3, 2)  # (0 1)(2 3)

V4 = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]


def s4_gens():
    return codes(S4, [SWAP01, FOUR_CYCLE])


def test_symmetric_group_composition_matches_oracle():
    perms = [(1, 2, 0), (0, 2, 1), (2, 1, 0)]
    for a in perms:
        for b in perms:
            ca, cb = S3.perm_to_code(a), S3.perm_to_code(b)
            assert S3.mul(ca, cb) == S3.perm_to_code(compose(a, b))
    for a in perms:
        c = S3.perm_to_code(a)
        assert S3.mul(c, S3.inv(c)) == S3.identity_code()
    assert S3.order() == 6
    assert S4.order() == 24
    assert SymmetricGroup(7).order() == 5040


def test_symmetric_group_degree_cap():
    with pytest.raises(DomainError):
        SymmetricGroup(8)


@pytest.mark.parametrize(
    "gens,n",
    [
        ([(1, 0, 2, 3)], 4),
        ([(1, 2, 0, 3)], 4),
        ([(1, 0, 2, 3), (1, 2, 3, 0)], 4),
        ([(1, 2, 0, 3), (0, 2, 3, 1)], 4),
        ([(1, 0, 3, 2), (2, 3, 0, 1)], 4),
    ],
)
def test_closure_matches_brute_force(gens, n):
    G = SymmetricGroup(n)
    got = set(closure(G, codes(G, gens)).tolist())
    assert got == code_set(G, brute_closure(gens, n))


def test_closure_cap():
    with pytest.raises(CapExceeded):
        closure(S4, s4_gens(), cap=10)
    # seeds already above the cap are refused even though they are closed
    with pytest.raises(CapExceeded):
        closure(S4, S4.elements(), cap=10)
    assert closure(S4, s4_gens(), cap=24).size == 24


def test_normal_closure_frozen_values():
    gens = s4_gens()
    # a transposition generates everything as a normal subgroup
    assert normal_closure(S4, gens, codes(S4, [SWAP01])).size == 24
    # a double transposition generates the Klein four group
    got = normal_closure(S4, gens, codes(S4, [DBL]))
    assert set(got.tolist()) == code_set(S4, V4)
    # a 3-cycle generates the alternating group
    assert normal_closure(S4, gens, codes(S4, [CYC3])).size == 12


def test_conj_orbit_is_conjugacy_class():
    gens = s4_gens()
    orbit = conj_orbit(S4, gens, codes(S4, [SWAP01]))
    assert orbit.size == 6  # six transpositions
    orbit = conj_orbit(S4, gens, codes(S4, [DBL]))
    assert orbit.size == 3
    with pytest.raises(CapExceeded, match="conjugation orbit grew past the cap"):
        conj_orbit(S4, gens, codes(S4, [SWAP01]), cap=5)


def test_is_normal():
    gens = s4_gens()
    a4 = closure(S4, codes(S4, [CYC3, DBL]))
    assert a4.size == 12
    assert is_normal(S4, gens, a4)
    s3_sub = closure(S4, codes(S4, [SWAP01, CYC3]))
    assert s3_sub.size == 6
    assert not is_normal(S4, gens, s3_sub)


def test_core_frozen_values():
    gens = s4_gens()
    # S3 inside S4 has trivial core
    s3_sub = closure(S4, codes(S4, [SWAP01, CYC3]))
    assert core_in(S4, gens, s3_sub).size == 1
    # the dihedral Sylow 2-subgroup cores down to the Klein four group
    d4 = closure(S4, codes(S4, [FOUR_CYCLE, (2, 1, 0, 3)]))
    assert d4.size == 8
    core = core_in(S4, gens, d4)
    assert set(core.tolist()) == code_set(S4, V4)
    # a normal subgroup is its own core
    a4 = closure(S4, codes(S4, [CYC3, DBL]))
    assert np.array_equal(core_in(S4, gens, a4), a4)


def brute_derived(G, arr):
    comms = set()
    for a in arr:
        for b in arr:
            comms.add(G.commutator(int(a), int(b)))
    return closure(G, sorted(comms))


def test_derived_subgroup_matches_all_pairs_oracle():
    full = S4.elements()
    got = derived_subgroup(S4, full)
    assert got.size == 12  # the alternating group
    assert np.array_equal(got, brute_derived(S4, full))
    a4 = got
    got2 = derived_subgroup(S4, a4)
    assert set(got2.tolist()) == code_set(S4, V4)
    assert np.array_equal(got2, brute_derived(S4, a4))
    v4 = got2
    assert derived_subgroup(S4, v4).size == 1


def test_orders_distribution_s4():
    orders = orders_arr(S4, S4.elements())
    counts = {int(o): int((orders == o).sum()) for o in np.unique(orders)}
    assert counts == {1: 1, 2: 9, 3: 8, 4: 6}


def test_pow_arr():
    els = S4.elements()
    cubes = pow_arr(S4, els, 3)
    for c, c3 in zip(els, cubes):
        expect = S4.mul(S4.mul(int(c), int(c)), int(c))
        assert int(c3) == expect
    invs = pow_arr(S4, els, -1)
    assert np.array_equal(invs, S4.inv_arr(els))


def test_small_generating_set():
    a4 = closure(S4, codes(S4, [CYC3, DBL]))
    gens = small_generating_set(S4, a4)
    assert len(gens) <= 3
    assert np.array_equal(closure(S4, gens), a4)
    with pytest.raises(DomainError):
        small_generating_set(S4, as_code_array(codes(S4, [SWAP01, CYC3])))


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def test_table_group_and_cyclic_invariants():
    C12 = TableGroup(cyclic_table(12))
    assert C12.order() == 12
    assert C12.identity_code() == 0
    with pytest.raises(DomainError):
        TableGroup([[1, 1], [1, 1]])


def test_quotient_group_s4_mod_v4():
    gens = s4_gens()
    v4 = normal_closure(S4, gens, codes(S4, [DBL]))
    Q = QuotientGroup(S4, S4.elements(), v4)
    assert Q.order() == 6
    # the quotient is a symmetric group on three letters: derived part has order 3
    assert derived_subgroup(Q, Q.elements()).size == 3
    # quotient of quotient: (S4/V4) / derived has order 2
    d = derived_subgroup(Q, Q.elements())
    Q2 = QuotientGroup(Q, Q.elements(), d)
    assert Q2.order() == 2


def test_subgroup_as_group_view():
    a4 = closure(S4, codes(S4, [CYC3, DBL]))
    H = SubgroupAsGroup(S4, a4)
    assert H.order() == 12
    assert H.identity_code() == S4.identity_code()
    inner = SubgroupAsGroup(H, a4)
    assert inner.parent is S4  # views flatten


def test_product_group():
    P = ProductGroup(S3, S3)
    assert P.order() == 36
    c3 = S3.perm_to_code((1, 2, 0))
    e = S3.identity_code()
    g = P.pack(np.int64(c3), np.int64(e))
    sub = closure(P, [int(g)])
    assert sub.size == 3
    sl = P.first_factor_slice(sub)
    assert set(sl.tolist()) == code_set(S3, {(0, 1, 2), (1, 2, 0), (2, 0, 1)})
    # diagonal subgroup: slice at the identity is trivial
    swap = S3.perm_to_code((1, 0, 2))
    diag = closure(P, [int(P.pack(np.int64(swap), np.int64(swap))), int(P.pack(np.int64(c3), np.int64(c3)))])
    assert diag.size == 6
    assert P.first_factor_slice(diag).size == 1
    with pytest.raises(CapExceeded):
        P.elements()


def test_additive_quotient_group():
    from drinfeld.subspace import subspace, zero_space

    F3 = field(3)
    W = subspace(F3, 2, [(1, 2)])
    Q = AdditiveQuotientGroup(W)
    assert Q.order() == 3
    assert Q.vector_to_code((1, 2)) == 0
    assert Q.vector_to_code((1, 0)) == 1  # reduces to (0, 1)
    a = Q.vector_to_code((0, 1))
    assert Q.mul(a, a) == Q.vector_to_code((0, 2))
    Z = AdditiveQuotientGroup(zero_space(F3, 3))
    assert Z.order() == 27


def test_composition_factors_s4():
    fs = composition_factors(S4)
    assert [f.order for f in fs] == [2, 2, 2, 3]
    assert all(f.kind == "cyclic_prime" for f in fs)


def test_composition_factors_s5():
    fs = composition_factors(S5)
    assert [(f.kind, f.order) for f in fs] == [
        ("cyclic_prime", 2),
        ("psl2_family", 60),
    ]
    assert fs[1].param == 4


def test_composition_factors_a5_simple():
    a5 = closure(S5, codes(S5, [(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]))
    assert a5.size == 60
    fs = composition_factors(S5, a5)
    assert len(fs) == 1 and fs[0].kind == "psl2_family" and fs[0].order == 60


def test_psl2_order_helpers():
    assert psl2_order_param(60) == 4
    assert psl2_order_param(168) == 7
    assert psl2_order_param(360) == 9
    assert psl2_order_param(504) == 8
    assert psl2_order_param(2520) is None
    assert psl2_order_param(100) is None
    assert psl2_orders_up_to(2, 6) == [6]
    assert psl2_orders_up_to(3, 12) == [12]
    assert psl2_orders_up_to(2, 60) == [6, 60]  # s = 2 gives the order of the A5 group
    assert psl2_orders_up_to(2, 2520) == [6, 60, 504]
    assert psl2_orders_up_to(3, 60) == [12]
    assert psl2_orders_up_to(5, 59) == []


def test_all_subgroups_counts():
    assert len(all_subgroups(S3)) == 6
    assert len(all_subgroups(S4)) == 30
    assert minimal_proper_index(S4) == 2
    big = SymmetricGroup(7)
    with pytest.raises(CapExceeded):
        all_subgroups(big)


def test_factor_descriptor_sorting():
    a = FactorDescriptor("cyclic_prime", 2, 2)
    b = FactorDescriptor("psl2_family", 60, 4)
    assert sorted([b, a], key=lambda f: f.sort_key())[0] == a
