"""Automorphism tests.

compose_with_inverse is checked against the direct route: evaluating the
original homomorphism on the automorphism-inverse image of each matrix.
Closed-form quasi-level transforms are checked against recomputing the
quasi-level of the transported handle from scratch.
"""

import numpy as np
import pytest
from helpers import count_calls, random_gl2, random_poly, random_sl2

from drinfeld import autos
from drinfeld.amalgam import (
    ReductionHom,
    TableHom,
    hom_from_json,
    hom_to_json,
)
from drinfeld.autos import (
    ContragredientAuto,
    DetTwistAuto,
    InnerAuto,
    NonStandardAuto,
    RingAuto,
    apply_auto,
    auto_from_json,
    auto_to_json,
    compose_with_inverse,
    corner_map_between,
    corner_map_search,
    quasi_levels_agree,
    refute_genuineness,
    transform_quasi_level,
)
from drinfeld.config import DEFAULT_CONFIG, RunConfig
from drinfeld.errors import CapExceeded, DomainError
from drinfeld.fields import field
from drinfeld.mat2 import mat_over_polys, translation, weyl
from drinfeld.poly import Poly, one, poly_from_string, residue_ring, t_power
from drinfeld.subgroups import (
    CongruenceReport,
    from_quasilevel_abelian,
    is_congruence,
    principal_congruence_handle,
    quasi_level,
)
from drinfeld.poly import MonicIdeal
from drinfeld.subspace import iter_subspaces, subspace, zero_space
from drinfeld.verify import campaign_pairs

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def P(F, s):
    return poly_from_string(F, s)


def sample_autos(F):
    g = translation(F, P(F, "01")) * weyl(F)
    out = [
        InnerAuto(g),
        ContragredientAuto(),
        RingAuto(F.label, 1, 1, 0),
    ]
    if F.q > 2:
        out.append(RingAuto(F.label, F.q - 1, 1, 0))
    if F.n > 1:
        out.append(RingAuto(F.label, 1, 0, 1))
    swap = NonStandardAuto(F.label, (one(F), t_power(F, 2), t_power(F, 1)))
    out.append(swap)
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_autos_are_multiplicative(q):
    F = field(q)
    rng = np.random.default_rng(101 + q)
    for auto in sample_autos(F):
        for _ in range(25):
            m1 = random_sl2(F, rng)
            m2 = random_sl2(F, rng)
            assert auto.apply_matrix(m1 * m2) == auto.apply_matrix(m1) * auto.apply_matrix(m2)


def test_det_twist_multiplicative_on_gl():
    rng = np.random.default_rng(107)
    tw = DetTwistAuto(1)
    tw.validate(F3, "GL")
    for _ in range(25):
        m1 = random_gl2(F3, rng)
        m2 = random_gl2(F3, rng)
        assert tw.apply_matrix(m1 * m2) == tw.apply_matrix(m1) * tw.apply_matrix(m2)


@pytest.mark.parametrize("q", [2, 3])
def test_inverse_roundtrip(q):
    F = field(q)
    rng = np.random.default_rng(113 + q)
    for auto in sample_autos(F):
        inv = auto.inverse()
        for _ in range(10):
            m = random_sl2(F, rng)
            assert inv.apply_matrix(auto.apply_matrix(m)) == m


def test_ring_auto_with_frobenius():
    a = RingAuto(F4.label, 1, 0, 1)
    a.validate(F4, "SL")
    p = Poly(F4, [2, 3, 1])
    img = a.apply_poly(p)
    assert img == Poly(F4, [F4.frob(2), F4.frob(3), 1])
    assert a.inverse().apply_poly(img) == p
    b = RingAuto(F4.label, 2, 3, 1)
    t = Poly(F4, [0, 1])
    assert b.inverse().apply_poly(b.apply_poly(t)) == t


HOM_CASES = [
    (2, "001"),
    (2, "111"),
    (3, "01"),
    (3, "001"),
]


@pytest.mark.parametrize("q,mod", HOM_CASES)
def test_compose_matches_direct_route(q, mod):
    F = field(q)
    hom = ReductionHom(residue_ring(P(F, mod)), "SL")
    rng = np.random.default_rng(127 * q + mod.count("1"))
    for auto in sample_autos(F):
        composed = compose_with_inverse(hom, auto)
        inv = auto.inverse()
        assert composed.validate()
        for _ in range(20):
            m = random_sl2(F, rng)
            assert composed.eval_matrix(m) == hom.eval_matrix(inv.apply_matrix(m))


def test_compose_det_twist_gl():
    hom = ReductionHom(residue_ring(P(F3, "01")), "GL")
    tw = DetTwistAuto(1)
    composed = compose_with_inverse(hom, tw)
    assert composed.validate()
    k2 = tw.inverse_exponent(F3)
    inv_like = DetTwistAuto(k2)
    rng = np.random.default_rng(131)
    for _ in range(20):
        m = random_gl2(F3, rng)
        assert composed.eval_matrix(m) == hom.eval_matrix(inv_like.apply_matrix(m))


def test_compose_table_hom_nonstandard():
    handle = from_quasilevel_abelian(zero_space(F2, 3), P(F2, "0001"))
    swap = NonStandardAuto(F2.label, (one(F2), t_power(F2, 2), t_power(F2, 1)))
    composed = compose_with_inverse(handle.hom, swap)
    assert composed.validate()
    inv = swap.inverse()
    rng = np.random.default_rng(137)
    for _ in range(25):
        m = random_sl2(F2, rng)
        assert composed.eval_matrix(m) == handle.hom.eval_matrix(inv.apply_matrix(m))


def test_standard_autos_preserve_congruence_status():
    g = translation(F2, P(F2, "01")) * weyl(F2)
    noncong = from_quasilevel_abelian(
        subspace(F2, 3, [(1, 0, 0), (0, 1, 0)]), P(F2, "0001")
    )
    cong = from_quasilevel_abelian(
        subspace(F2, 3, [(0, 1, 0), (0, 0, 1)]), P(F2, "0001")
    )
    for auto in (InnerAuto(g), RingAuto(F2.label, 1, 1, 0), ContragredientAuto()):
        assert not is_congruence(apply_auto(auto, noncong)).congruence
        assert is_congruence(apply_auto(auto, cong)).congruence


def test_inner_auto_fixes_kernel_handles():
    # handles standing for kernels are normal, so conjugation fixes them
    handle = from_quasilevel_abelian(subspace(F2, 2, [(0, 1)]), P(F2, "001"))
    g = translation(F2, P(F2, "011"))
    moved = apply_auto(InnerAuto(g), handle)
    ql1, ql2 = quasi_level(handle), quasi_level(moved)
    assert quasi_levels_agree(ql1, ql2)


def test_ring_auto_transform_quasi_level():
    handle = from_quasilevel_abelian(subspace(F3, 2, [(1, 1)]), P(F3, "001"))
    ql = quasi_level(handle)
    shift = RingAuto(F3.label, 1, 1, 0)
    scaled = RingAuto(F3.label, 2, 0, 0)
    for auto in (shift, scaled):
        moved = apply_auto(auto, handle)
        assert quasi_levels_agree(quasi_level(moved), transform_quasi_level(auto, ql))


def test_nonstandard_transform_quasi_level_dual_route():
    cases = [
        (F2, "0001", [(1, 0, 0), (0, 1, 0)]),
        (F2, "0001", [(1, 0, 1)]),
        (F3, "001", [(1, 1)]),
    ]
    for F, mod, rows in cases:
        handle = from_quasilevel_abelian(subspace(F, len(rows[0]), rows), P(F, mod))
        ql = quasi_level(handle)
        swap = NonStandardAuto(F.label, (one(F), t_power(F, 2), t_power(F, 1)))
        moved = apply_auto(swap, handle)
        assert quasi_levels_agree(quasi_level(moved), transform_quasi_level(swap, ql))


def test_nonstandard_transform_on_principal_handle():
    hom = ReductionHom(residue_ring(P(F2, "001")), "SL")
    handle = principal_congruence_handle(hom, MonicIdeal(P(F2, "01")))
    ql = quasi_level(handle)
    bump = NonStandardAuto(
        F2.label, (one(F2), Poly(F2, [0, 1, 0, 1]))
    )  # t -> t + t^3
    moved = apply_auto(bump, handle)
    assert quasi_levels_agree(quasi_level(moved), transform_quasi_level(bump, ql))


def test_det_twist_transform_is_identity_on_quasi_level():
    handle = from_quasilevel_abelian(subspace(F2, 2, [(0, 1)]), P(F2, "001"))
    ql = quasi_level(handle)
    assert transform_quasi_level(DetTwistAuto(0), ql) is ql


def test_no_closed_form_for_conjugation():
    handle = from_quasilevel_abelian(subspace(F2, 2, [(0, 1)]), P(F2, "001"))
    ql = quasi_level(handle)
    with pytest.raises(DomainError):
        transform_quasi_level(InnerAuto(weyl(F2)), ql)


def test_validate_rejections():
    with pytest.raises(DomainError):
        RingAuto(F2.label, 0, 1, 0).validate(F2, "SL")
    with pytest.raises(DomainError):
        RingAuto(F2.label, 1, 0, 1).validate(F2, "SL")
    with pytest.raises(DomainError):
        RingAuto(F3.label, 1, 1, 0).validate(F2, "SL")
    with pytest.raises(DomainError):
        NonStandardAuto(F2.label, (t_power(F2, 1),)).validate(F2, "SL")
    degenerate = NonStandardAuto(F2.label, (one(F2), one(F2)))
    with pytest.raises(DomainError):
        degenerate.validate(F2, "SL")
    with pytest.raises(DomainError):
        DetTwistAuto(1).validate(F4, "GL")
    sing = mat_over_polys(F2, (P(F2, "01"), P(F2, "0"), P(F2, "0"), P(F2, "1")))
    with pytest.raises(DomainError):
        InnerAuto(sing).validate(F2, "SL")


def test_auto_json_roundtrip():
    autos = sample_autos(F3) + [DetTwistAuto(1)]
    for auto in autos:
        back = auto_from_json(auto_to_json(auto))
        assert back == auto
    composite = [autos[1], autos[2]]
    assert auto_from_json(auto_to_json(composite)) == composite


def test_corner_map_between_properties():
    src = [Poly(F3, [1, 1])]
    tgt = [t_power(F3, 1)]
    phi = corner_map_between(F3, 2, src, tgt, True)
    assert phi.apply_poly(one(F3)) == one(F3)
    assert phi.apply_poly(src[0]) == tgt[0]
    inv = phi.inverse()
    rng = np.random.default_rng(139)
    for _ in range(20):
        p = random_poly(F3, rng, max_deg=4)
        assert inv.apply_poly(phi.apply_poly(p)) == p


def test_refutation_q2_conductor3():
    m = P(F2, "0001")
    noncong_rows = [
        [(1, 0, 0), (0, 1, 0)],
        [(1, 0, 0), (0, 1, 1)],
        [(1, 0, 1), (0, 1, 0)],
        [(1, 0, 1), (0, 1, 1)],
    ]
    for rows in noncong_rows:
        h = from_quasilevel_abelian(subspace(F2, 3, rows), m)
        out = refute_genuineness(h)
        assert out.status == "refuted"
        assert out.report.congruence
        assert isinstance(out.auto, NonStandardAuto)
        # replay the certificate from scratch
        replay = is_congruence(apply_auto(out.auto, h))
        assert replay.congruence


def test_refutation_q3_conductor2():
    m = P(F3, "001")
    expected = {
        ((1, 0),): "no_refutation_found",
        ((1, 1),): "refuted",
        ((1, 2),): "refuted",
        ((0, 1),): "already_congruence",
    }
    for rows, status in expected.items():
        h = from_quasilevel_abelian(subspace(F3, 2, list(rows)), m)
        assert refute_genuineness(h).status == status


def test_search_decides_candidates_at_the_transported_quasi_level(monkeypatch):
    # every candidate is decided at the level the transform law gives and
    # never recomputed; check the law against recomputing from scratch.
    # Candidates after t -> t + 1 over F_3 have conductors of degree 12
    # (3^12 residues each); those are left to the enumeration cap.
    seen = []

    def record(moved, ql, config):
        seen.append((moved, ql))
        return CongruenceReport(False, ql, 0, None)

    monkeypatch.setattr(autos, "congruence_at", record)
    for F, d in ((F2, 3), (F2, 4), (F3, 2)):
        for W in [*iter_subspaces(F, d, d - 1), *iter_subspaces(F, d, d - 2)]:
            h = from_quasilevel_abelian(W, t_power(F, d))
            corner_map_search(h, quasi_level(h))
    small = RunConfig(enum_cap=2**10)
    checked = 0
    for moved, ql in seen:
        try:
            recomputed = quasi_level(moved, small)
        except CapExceeded:
            continue
        assert quasi_levels_agree(ql, recomputed)
        checked += 1
    assert checked > 300


def test_search_recomputes_quasi_levels_only_for_shifts_and_hits(monkeypatch):
    calls = count_calls(monkeypatch, quasi_level)
    h = from_quasilevel_abelian(subspace(F3, 2, [(1, 0)]), P(F3, "001"))
    ql = quasi_level(h)
    outcome = corner_map_search(h, ql)
    assert outcome.status == "no_refutation_found" and outcome.tried > len(calls)
    # one per substitution t -> a t + b other than the identity
    assert len(calls) == len(F3.units()) * len(F3.elements()) - 1
    calls.clear()
    h = from_quasilevel_abelian(subspace(F2, 3, [(1, 0, 0), (0, 1, 0)]), P(F2, "0001"))
    assert corner_map_search(h, quasi_level(h)).status == "refuted"
    assert len(calls) == 1


def test_applied_handles_keep_index():
    h = from_quasilevel_abelian(subspace(F2, 3, [(1, 0, 0), (0, 1, 0)]), P(F2, "0001"))
    swap = NonStandardAuto(F2.label, (one(F2), t_power(F2, 2), t_power(F2, 1)))
    moved = apply_auto(swap, h)
    assert moved.index_in_domain() == h.index_in_domain() == 2


def test_reduction_hom_conversion_in_apply():
    hom = ReductionHom(residue_ring(P(F3, "001")), "SL")
    handle = principal_congruence_handle(hom, MonicIdeal(P(F3, "01")))
    shift = RingAuto(F3.label, 1, 1, 0)
    moved = apply_auto(shift, handle)
    assert is_congruence(moved).congruence
    assert moved.index_in_domain() == handle.index_in_domain()


def test_campaign_homs_pass_validation():
    # homs built inside the program are not re-checked, so check here that
    # the builders make valid tables: the abelian handles and their images
    # under the campaign's substitutions and corner maps
    for handle, auto in campaign_pairs(DEFAULT_CONFIG):
        assert handle.hom.validate()
        assert compose_with_inverse(handle.hom, auto).validate()


def test_search_validates_nothing_and_loader_validates_once(monkeypatch):
    calls = []
    validate = TableHom.validate

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(TableHom, "validate", counting)
    h = from_quasilevel_abelian(subspace(F2, 3, [(1, 0, 0)]), P(F2, "0001"))
    outcome = refute_genuineness(h)
    assert outcome.tried > 0
    assert calls == []
    hom_from_json(hom_to_json(h.hom))
    assert len(calls) == 1
