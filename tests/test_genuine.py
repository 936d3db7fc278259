"""Verdict engine tests.

Index-arithmetic rules are checked on hand-computed fact tuples, the
factor certificate on synthetic groups with known composition series,
and the full pipeline on handles whose congruence status was already
cross-validated against the transversal oracle.  Low-index scans are
frozen against counts derived by hand from the subspace patterns.
"""

import json

import numpy as np
import pytest

from helpers import count_calls, schreier_congruence_image, span_key

from drinfeld.amalgam import ReductionHom
from drinfeld.autos import InnerAuto, RingAuto, apply_auto, auto_from_json
from drinfeld.config import RunConfig
from drinfeld.errors import DomainError
from drinfeld.fields import field
from drinfeld.fingroup import SymmetricGroup, all_subgroups, closure, is_normal
from drinfeld.genuine import (
    Verdict,
    diagonal_torus_inside,
    divisibility_filter,
    facts_lookup,
    factor_certificate_from_quotient,
    handle_is_normal,
    low_index_scan,
    pgl2_order,
    psl2_order,
    quick_criteria,
    recheck_certificate,
    verdict,
    verdict_to_json,
)
from drinfeld.mat2 import mat_over_polys, translation
from drinfeld.matgroups import ResidueMatrixGroup
from drinfeld.poly import MonicIdeal, one, poly_from_string, residue_ring, t_power
from drinfeld.subgroups import (
    SubgroupHandle,
    congruence_image,
    from_quasilevel_abelian,
    is_congruence,
    largest_ideal_inside,
    principal_congruence_handle,
    quasi_level,
    scalar_congruence_handle,
)
from drinfeld.subspace import iter_subspaces, subspace

F2 = field(2)
F3 = field(3)


def P(F, s):
    return poly_from_string(F, s)


def abelian_handle(F, mod_str, rows):
    m = P(F, mod_str)
    W = subspace(F, m.degree, rows)
    return from_quasilevel_abelian(W, m)


def test_fractional_linear_orders():
    assert [psl2_order(q) for q in (2, 3, 4, 5, 7, 8, 9)] == [
        6, 12, 60, 60, 168, 504, 360,
    ]
    assert pgl2_order(5) == 120
    # the quartic divisor in the GL rule is q times the projective order
    assert 5 * pgl2_order(5) == 5**4 - 5**2


def test_divisibility_filter_examples():
    rule, d = divisibility_filter(5, "SL", 120, normal=True)
    assert rule == "normal-index-divisibility" and d["required_divisor"] == 300
    rule, d = divisibility_filter(2, "SL", 2, normal=True)
    assert rule == "normal-index-divisibility" and d["required_divisor"] == 4
    assert divisibility_filter(5, "GL", 600, normal=True) is None
    assert divisibility_filter(3, "SL", 9, normal=True) is None
    # prime fields bound the index of any subgroup, normal or not
    rule, d = divisibility_filter(5, "SL", 9, normal=False)
    assert rule == "small-index-core" and d["bound"] == 10
    assert divisibility_filter(4, "SL", 3, normal=False) is None
    assert divisibility_filter(5, "SL", 10, normal=False) is None


def test_quick_criteria_examples():
    rule, _ = quick_criteria(5, "SL", 7, normal=True)
    assert rule == "coprime-index"
    rule, d = quick_criteria(4, "GL", 6, normal=True, torus_inside=False)
    assert rule == "missing-simple-order" and d["simple_order"] == 60
    assert quick_criteria(2, "SL", 2, normal=True) is None
    rule, _ = quick_criteria(4, "GL", 6, normal=True, torus_inside=True)
    assert rule == "missing-simple-order"  # coprime rule needs gcd(6,4)=1
    rule, d = quick_criteria(5, "GL", 3, normal=True, torus_inside=True)
    assert rule == "coprime-index-with-torus"
    # index below the smallest proper subgroup index, not necessarily normal
    rule, d = quick_criteria(9, "SL", 5, normal=False)
    assert rule == "index-below-minimal" and d["minimal_proper_index"] == 6
    assert quick_criteria(9, "SL", 6, normal=False) is None
    # a subgroup of index dividing the unit group order evades the GL rule
    assert quick_criteria(4, "GL", 3, normal=True, torus_inside=False) is None


def test_minimal_proper_index_table():
    expected = {2: 2, 3: 3, 4: 5, 5: 5, 7: 7, 8: 9, 9: 6, 11: 11, 13: 14, 16: 17}
    for q, m in expected.items():
        assert facts_lookup("minimal-proper-index", q=q) == m
    assert facts_lookup("minimal-proper-index", q=25) == 26
    with pytest.raises(DomainError):
        facts_lookup("minimal-proper-index", q=6)


def test_facts_lookup_reference_values():
    assert facts_lookup("rank-zero", kind="GL", g=0, delta=1) is True
    assert facts_lookup("rank-zero", kind="GL", g=1, delta=2) is False
    assert facts_lookup("rank-zero", kind="SL", g=0, delta=3, q=2) is True
    assert facts_lookup("rank-zero", kind="SL", g=0, delta=3, q=3) is False
    assert facts_lookup("coordinate-fixed-part", g=0, delta=1) == {"n0": 0, "dim": 1}
    assert facts_lookup("coordinate-fixed-part", g=1, delta=1) == {"n0": 1, "dim": 1}
    assert facts_lookup("noncongruence-minimum", q=2) == 2
    with pytest.raises(DomainError):
        facts_lookup("noncongruence-minimum", q=3)
    assert facts_lookup("normal-noncongruence-minimum", q=2) == 2
    assert facts_lookup("normal-noncongruence-minimum", q=3) == 3
    assert facts_lookup("normal-noncongruence-minimum", q=5) == 60
    assert facts_lookup("genuine-minimum-lower-bound", q=5) == 10
    with pytest.raises(DomainError):
        facts_lookup("genuine-minimum-lower-bound", q=4)
    assert facts_lookup("normal-genuine-minimum-lower-bound", q=2) == 4
    assert facts_lookup("normal-genuine-minimum-lower-bound", q=5) == 300
    assert facts_lookup("normal-genuine-minimum-lower-bound", kind="GL", q=5) == 600
    with pytest.raises(DomainError):
        facts_lookup("no-such-fact")


def test_factor_certificate_on_synthetic_quotients():
    # S7 has an alternating factor of order 2520, outside every family
    cert = factor_certificate_from_quotient(SymmetricGroup(7), 2, 100_000)
    assert cert is not None
    rule, d = cert
    assert rule == "composition-factor"
    assert d["factor_order"] == 2520
    assert d["family_orders_checked"] == [6, 60, 504]
    v = Verdict("Genuine", rule, d, ("factor-certificate",))
    assert recheck_certificate(v)

    # the special linear group over the four element field is its own
    # fractional linear group, so its order collides and certifies nothing
    G4 = ResidueMatrixGroup(residue_ring(t_power(field(2, 2), 1)), "SL")
    assert factor_certificate_from_quotient(G4, 4, 100_000) is None
    # ... but over the cubic-field family at q=2 the order 60 never appears
    cert = factor_certificate_from_quotient(G4, 8, 100_000)
    assert cert is not None and cert[1]["factor_order"] == 60

    # purely cyclic factors certify nothing
    assert factor_certificate_from_quotient(SymmetricGroup(3), 2, 100_000) is None


def test_recheck_rejects_tampered_certificates():
    cert = factor_certificate_from_quotient(SymmetricGroup(7), 2, 100_000)
    rule, d = cert
    bad = dict(d, factor_order=504)  # collides with the family
    assert not recheck_certificate(Verdict("Genuine", rule, bad, ()))
    bad = dict(d, family_orders_checked=[6, 60])
    assert not recheck_certificate(Verdict("Genuine", rule, bad, ()))
    ok = Verdict("Genuine", "coprime-index", {"q": 5, "index": 7, "kind": "SL"}, ())
    assert recheck_certificate(ok)
    assert not recheck_certificate(
        Verdict("Genuine", "coprime-index", {"q": 5, "index": 10, "kind": "SL"}, ())
    )
    assert not recheck_certificate(Verdict("Unknown", "no-decision", None, ()))


def test_verdict_principal_congruence_kernel():
    hom = ReductionHom(residue_ring(P(F2, "01")), "SL")
    h = principal_congruence_handle(hom, MonicIdeal(P(F2, "01")))
    v = verdict(h)
    assert v.outcome == "NotGenuine" and v.reason == "is-congruence"
    assert "congruence:True" in v.provenance
    data = verdict_to_json(v)
    assert data["outcome"] == "NotGenuine" and data["provenance"] == list(v.provenance)


def test_verdict_index_two_and_three_trichotomy():
    # index q normal noncongruence handles exist for q <= 3, but the
    # square of q never divides their index, so none can be genuine
    h2 = abelian_handle(F2, "0001", [(1, 0, 0), (0, 1, 0)])
    v2 = verdict(h2)
    assert v2.outcome == "NotGenuine" and v2.reason == "normal-index-divisibility"
    assert v2.certificate["required_divisor"] == 4
    assert "congruence:False" in v2.provenance

    h3 = abelian_handle(F3, "001", [(1, 0)])
    v3 = verdict(h3)
    assert v3.outcome == "NotGenuine" and v3.reason == "normal-index-divisibility"
    assert v3.certificate["required_divisor"] == 9


def test_verdict_refutation_witness_and_replay():
    h = abelian_handle(F2, "0001", [(0, 1, 0)])  # span{t} below t^3
    v = verdict(h)
    assert v.outcome == "NotGenuine" and v.reason == "congruence-witness"
    cert = v.certificate
    assert cert["status"] == "refuted"
    # replay the witness end to end from its serialized form
    auto = auto_from_json(cert["auto"])
    moved = apply_auto(auto, h)
    assert is_congruence(moved).congruence
    assert not is_congruence(h).congruence


def test_verdict_honest_unknown():
    h = abelian_handle(F2, "0001", [(1, 0, 0)])  # span{1} below t^3
    v = verdict(h)
    assert v.outcome == "Unknown" and v.reason == "no-decision"
    assert any(p.startswith("refutation:no_refutation_found") for p in v.provenance)


def test_verdict_derives_quasi_level_and_congruence_once(monkeypatch):
    h = abelian_handle(F2, "00001", [(1, 0, 0, 0), (0, 1, 0, 0)])  # span{1, t} below t^4
    ql_calls = count_calls(monkeypatch, quasi_level)
    image_calls = count_calls(monkeypatch, congruence_image)
    v = verdict(h, RunConfig(search_budget=0))
    assert v.provenance[1] == "congruence:False"
    assert v.provenance[-1] == "refutation:no_refutation_found:0"
    assert len(ql_calls) == 1
    assert len(image_calls) == 1


def test_verdict_keeps_quasi_level_when_congruence_hits_cap(monkeypatch):
    h = abelian_handle(F2, "00001", [(1, 0, 0, 0), (0, 1, 0, 0)])
    ql_calls = count_calls(monkeypatch, quasi_level)
    image_calls = count_calls(monkeypatch, congruence_image)
    # the product closure at level t^4 passes 2000 elements; the core has 4
    v = verdict(h, RunConfig(search_budget=0, group_cap=2000))
    assert v.outcome == "Unknown" and v.reason == "cap-exceeded"
    prov = list(v.provenance)
    skipped = prov.index("congruence:cap-skipped")
    assert "codimension:pass" in prov[skipped + 1 :]
    assert len(ql_calls) == 1
    assert len(image_calls) == 1


def test_verdict_invariant_under_standard_automorphisms():
    h = abelian_handle(F2, "0001", [(0, 1, 0)])
    base = verdict(h)
    conj = InnerAuto(translation(F2, P(F2, "01")))
    shifted = RingAuto(F2.label, 1, 1, 0)  # t -> t + 1
    for auto in (conj, shifted):
        moved = apply_auto(auto, h)
        v = verdict(moved)
        assert (v.outcome, v.reason) == (base.outcome, base.reason)


def test_verdict_non_normal_small_index():
    # order-two subgroup generated by the Weyl flip is not normal in the
    # six element constant quotient; index 3 < 4 settles it immediately
    hom = ReductionHom(residue_ring(P(F2, "01")), "SL")
    G = hom.target
    w = hom.eval_matrix(mat_over_polys(F2, (0, 1, 1, 0)))
    h = SubgroupHandle(hom, [G.identity_code(), w], name="flip")
    assert not handle_is_normal(h)
    v = verdict(h)
    assert v.outcome == "NotGenuine" and v.reason == "small-index-core"
    assert v.provenance[0] == "non-normal"


def test_verdict_non_normal_preimages_are_congruence():
    # every handle over a residue reduction contains the kernel, so even
    # a non-normal pick is settled as congruence before core passing
    hom = ReductionHom(residue_ring(P(F2, "001")), "SL")
    G = hom.target
    els = G.elements()
    pick = None
    for sub in all_subgroups(G, max_order=64):
        if 4 <= els.size // sub.size and not is_normal(G, list(els), sub):
            pick = sub
            break
    assert pick is not None
    h = SubgroupHandle(hom, pick, name="non-normal pick")
    v = verdict(h)
    assert v.provenance[0] == "non-normal"
    assert v.outcome == "NotGenuine" and v.reason == "is-congruence"


def test_verdict_non_normal_core_reduction():
    # starve the congruence decision so the pipeline has to pass to the
    # normal core; the verdicts must stay consistent under one config
    hom = ReductionHom(residue_ring(P(F2, "001")), "SL")
    G = hom.target
    els = G.elements()
    pick = None
    for sub in all_subgroups(G, max_order=64):
        if 4 <= els.size // sub.size and not is_normal(G, list(els), sub):
            pick = sub
            break
    assert pick is not None
    h = SubgroupHandle(hom, pick, name="non-normal pick")
    starved = RunConfig(enum_cap=2)
    v = verdict(h, starved)
    assert "core-reduction" in v.provenance
    assert "congruence:cap-skipped" in v.provenance
    core_handle = SubgroupHandle(hom, h.core())
    inner = verdict(core_handle, starved)
    assert (v.outcome, v.reason) == (inner.outcome, inner.reason)


def test_verdict_requires_proper_subgroup():
    hom = ReductionHom(residue_ring(P(F2, "01")), "SL")
    h = SubgroupHandle(
        hom, closure(hom.target, hom.image_generators()), name="everything"
    )
    with pytest.raises(DomainError):
        verdict(h)


def test_torus_containment_probe():
    hom = ReductionHom(residue_ring(P(F3, "01")), "GL")
    full = SubgroupHandle(
        hom, closure(hom.target, hom.image_generators()), name="full"
    )
    assert diagonal_torus_inside(full)
    scal = scalar_congruence_handle(P(F3, "01"), kind="GL")
    assert not diagonal_torus_inside(scal)


def test_scan_q2_matches_hand_counts():
    rep = low_index_scan(2, "SL", max_index=4, bound=t_power(F2, 3))
    assert rep["minima"]["noncongruence"] == 2
    assert rep["minima"]["certified_genuine"] is None
    entries = rep["entries"]
    assert len(entries) == 14
    idx2 = [e for e in entries if e["index"] == 2]
    # seven distinct quasi-levels of codimension one below t^3: the three
    # containing the class of t^2 are congruence, the other four are not
    assert len(idx2) == 7
    assert sum(1 for e in idx2 if e["congruence"]) == 3
    assert all(
        e["reason"] == "normal-index-divisibility"
        for e in idx2
        if not e["congruence"]
    )
    idx4 = [e for e in entries if e["index"] == 4]
    assert len(idx4) == 7
    witnesses = [e for e in idx4 if e["reason"] == "congruence-witness"]
    unknowns = [e for e in idx4 if e["outcome"] == "Unknown"]
    assert len(witnesses) == 5 and len(unknowns) == 1


def test_scan_is_deterministic():
    a = low_index_scan(2, "SL", max_index=4, bound=t_power(F2, 3))
    b = low_index_scan(2, "SL", max_index=4, bound=t_power(F2, 3))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_scan_q3_codimension_one():
    rep = low_index_scan(3, "SL", max_index=3, bound=t_power(F3, 2))
    entries = rep["entries"]
    # one handle below t, three new ones below t^2 after deduplication
    assert len(entries) == 4
    assert rep["minima"]["noncongruence"] == 3
    noncong = [e for e in entries if e["congruence"] is False]
    assert len(noncong) == 3
    assert all(e["reason"] == "normal-index-divisibility" for e in noncong)


def test_scan_cross_checked_against_transversal_oracle():
    # the scan's congruence labels at modulus t^4 rest on the slice
    # computation; spot-check two of them against the independent oracle
    for rows, expect in [
        ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)], False),
        ([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], True),
    ]:
        h = abelian_handle(F2, "00001", rows)
        rep = is_congruence(h)
        assert rep.congruence is expect
        oracle = schreier_congruence_image(h.hom, rep.quasi_level.level)
        inside = np.isin(oracle, h.subgroup).all()
        assert bool(inside) is expect


def test_scan_principal_kernels_included():
    rep = low_index_scan(2, "SL", max_index=6, bound=t_power(F2, 1))
    fams = {e["family"] for e in rep["entries"]}
    assert "principal-kernel" in fams
    pk = [e for e in rep["entries"] if e["family"] == "principal-kernel"]
    assert pk == [
        {
            "family": "principal-kernel",
            "modulus": "01",
            "index": 6,
            "congruence": True,
            "outcome": "NotGenuine",
            "reason": "is-congruence",
        }
    ]


@pytest.mark.parametrize(
    "F, factors",
    [
        (F2, ["01"] * 5),
        (F2, ["01", "11", "111"]),
        (F2, ["01", "01", "111"]),
        (F3, ["01"] * 3 + ["11"]),
        (F3, ["101", "21"]),
    ],
    ids=["F2-t^5", "F2-t(t+1)(t^2+t+1)", "F2-t^2(t^2+t+1)", "F3-t^3(t+1)", "F3-(t^2+1)(t+2)"],
)
def test_scan_level_rule_keeps_the_first_modulus_per_span(F, factors):
    # W + (m) is one set for every modulus m its level divides; the scan
    # judges it once, at the smallest such m, where the level of W is m
    bound = one(F)
    for f in factors:
        bound = bound * P(F, f)
    by_key, by_level, seen = [], [], set()
    for m in MonicIdeal(bound).divisors():
        d = m.gen.degree
        for W in [*iter_subspaces(F, d, d - 1), *iter_subspaces(F, d, d - 2)]:
            key = span_key(F, bound.degree, W, m.gen)
            if key not in seen:
                seen.add(key)
                by_key.append((m, W))
            if largest_ideal_inside(F, m, W) == m:
                by_level.append((m, W))
    assert by_level == by_key


def test_scan_requires_bound():
    with pytest.raises(DomainError):
        low_index_scan(2, "SL", max_index=4, bound=None)
