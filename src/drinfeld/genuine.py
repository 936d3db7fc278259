"""Verdict engine: can an automorphism move a subgroup onto a congruence one?

A handle is judged along a fixed pipeline.  Cheap arithmetic filters run
first (index divisibility, quasi-level codimension), then the congruence
decision, then positive certificates (index criteria, a composition-factor
obstruction), and finally the corner-map refutation search.  Every verdict
records which rules were consulted, and a Genuine outcome always carries a
certificate that can be rechecked from the stored facts alone.

The quasi-level and the congruence report are derived once per handle and
shared: the codimension filter reads the quasi-level (even when a cap
stopped the congruence decision), and the refutation search starts from
it instead of re-deciding congruence.

Outcomes read as statements about the handle's subgroup H inside its
ambient matrix group X:

* ``Genuine``     -- every automorphic image of H is a non-congruence
                     subgroup (and in particular H itself is one).
* ``NotGenuine``  -- some automorphic image is congruence: either H is
                     congruence already, a necessary condition for
                     genuineness fails, or an explicit witness map exists.
* ``Unknown``     -- nothing decisive within the configured budgets.
"""

from dataclasses import dataclass
from math import gcd

from .autos import corner_map_search, refutation_to_json
from .config import DEFAULT_CONFIG
from .errors import CapExceeded, DomainError
from .fields import field_from_label, prime_factors
from .fingroup import (
    QuotientGroup,
    composition_factors,
    is_normal,
    psl2_order,
    psl2_orders_up_to,
)
from .amalgam import ReductionHom
from .mat2 import diag_mat
from .poly import MonicIdeal, digits_text, residue_ring
from .subgroups import (
    SubgroupHandle,
    congruence_at,
    from_quasilevel_abelian,
    largest_ideal_inside,
    principal_congruence_handle,
    quasi_level,
)
from .subspace import iter_subspaces

__all__ = [
    "Verdict",
    "verdict",
    "verdict_to_json",
    "divisibility_filter",
    "quick_criteria",
    "factor_certificate",
    "factor_certificate_from_quotient",
    "recheck_certificate",
    "facts_lookup",
    "low_index_scan",
    "psl2_order",
    "pgl2_order",
]


def pgl2_order(q):
    return q * (q * q - 1)


@dataclass(frozen=True)
class Verdict:
    outcome: str  # "Genuine" | "NotGenuine" | "Unknown"
    reason: str  # identifier of the deciding rule
    certificate: dict | None
    provenance: tuple


def verdict_to_json(v):
    return {
        "outcome": v.outcome,
        "reason": v.reason,
        "certificate": v.certificate,
        "provenance": list(v.provenance),
    }


def divisibility_filter(q, kind, index, normal):
    """Necessary index conditions for genuineness; a miss settles NotGenuine.

    For normal subgroups the ambient kind fixes a divisor the index must
    carry.  For arbitrary subgroups over a prime field, an index below 2p
    forces the normal core's index to divide (2p-1)!, which lacks the p^2
    factor the normal condition demands, so the core (and with it the
    subgroup) cannot be genuine either.
    """
    if normal:
        required = facts_lookup("normal-genuine-minimum-lower-bound", kind=kind, q=q)
        if index % required:
            return (
                "normal-index-divisibility",
                {"q": q, "kind": kind, "index": index, "required_divisor": required},
            )
    if prime_factors(q) == [q] and index < 2 * q:
        return (
            "small-index-core",
            {"q": q, "kind": kind, "index": index, "bound": 2 * q},
        )
    return None


def quick_criteria(q, kind, index, normal, proper=True, torus_inside=None):
    """First index-based criterion that certifies genuineness, if any.

    Premises are taken at face value; the caller owns their truth.  The
    torus flag records whether the subgroup contains every constant
    diagonal matrix (only consulted in the GL kind).
    """
    m_val = facts_lookup("minimal-proper-index", q=q)
    if kind == "GL":
        if normal and proper and gcd(index, q) == 1 and torus_inside:
            return (
                "coprime-index-with-torus",
                {"q": q, "index": index, "kind": kind, "torus_inside": True},
            )
        if q > 3 and normal and (q - 1) % index and index % psl2_order(q):
            return (
                "missing-simple-order",
                {
                    "q": q,
                    "index": index,
                    "kind": kind,
                    "simple_order": psl2_order(q),
                },
            )
        return None
    if normal and proper and gcd(index, q) == 1:
        return ("coprime-index", {"q": q, "index": index, "kind": kind})
    if q > 3 and normal and proper and index % psl2_order(q):
        return (
            "missing-simple-order",
            {"q": q, "index": index, "kind": kind, "simple_order": psl2_order(q)},
        )
    if q > 3 and proper and index < m_val:
        return (
            "index-below-minimal",
            {"q": q, "index": index, "kind": kind, "minimal_proper_index": m_val},
        )
    return None


def factor_certificate_from_quotient(Q, q, cap):
    """Certificate from a composition factor no congruence image can have.

    Quotients of the ambient group by automorphic images of normal
    congruence subgroups only ever produce cyclic factors of prime order
    or fractional linear factors over extensions of F_q.  A non-cyclic
    factor whose order misses that family is therefore decisive.  The
    check is order-based and sound-negative: a colliding order yields no
    certificate rather than a guess.
    """
    for f in composition_factors(Q, cap=cap):
        if f.kind == "cyclic_prime":
            continue
        family = psl2_orders_up_to(q, f.order)
        if f.order not in family:
            return (
                "composition-factor",
                {
                    "q": q,
                    "factor_order": f.order,
                    "factor_kind": f.kind,
                    "quotient_order": int(Q.order()),
                    "family_orders_checked": family,
                },
            )
    return None


def factor_certificate(handle, config=DEFAULT_CONFIG):
    """Run the composition-factor obstruction on a normal handle."""
    im = handle.image(config.group_cap)
    sub = handle.intersection(config.group_cap)
    Q = QuotientGroup(handle.target, im, sub)
    return factor_certificate_from_quotient(Q, handle.F.q, config.group_cap)


def recheck_certificate(v):
    """Re-derive a Genuine verdict from its stored certificate facts.

    Returns True when the certificate still justifies the outcome.  Index
    criteria are replayed through quick_criteria; factor certificates are
    replayed against the recorded family orders.
    """
    if v.outcome != "Genuine" or not v.certificate:
        return False
    cert = v.certificate
    if v.reason == "composition-factor":
        q = cert["q"]
        order = cert["factor_order"]
        if cert["factor_kind"] == "cyclic_prime":
            return False
        expected = psl2_orders_up_to(q, order)
        return order not in expected and expected == cert["family_orders_checked"]
    hit = quick_criteria(
        cert["q"],
        cert["kind"],
        cert["index"],
        normal=True,
        proper=True,
        torus_inside=cert.get("torus_inside"),
    )
    return hit is not None and hit[0] == v.reason


def handle_is_normal(handle, config=DEFAULT_CONFIG):
    gens = handle.hom.image_generators()
    return is_normal(handle.target, gens, handle.intersection(config.group_cap))


def diagonal_torus_inside(handle):
    """Does the subgroup contain every invertible constant diagonal matrix?"""
    F = handle.F
    return all(
        handle.contains_matrix(diag_mat(F, a, b))
        for a in F.units()
        for b in F.units()
    )


def _not_genuine(reason, detail, provenance):
    return Verdict("NotGenuine", reason, detail, tuple(provenance))


def _congruence_step(handle, config, prov):
    """Quasi-level and congruence report; None for whatever a cap stopped."""
    ql = rep = None
    try:
        ql = quasi_level(handle, config)
        rep = congruence_at(handle, ql, config)
        prov.append(f"congruence:{rep.congruence}")
    except CapExceeded:
        prov.append("congruence:cap-skipped")
    return ql, rep


def verdict(handle, config=DEFAULT_CONFIG):
    """Judge one handle along the full pipeline."""
    prov = []
    index = handle.index_in_domain(config.group_cap)
    if index == 1:
        raise DomainError("the verdict pipeline needs a proper subgroup")
    q = handle.F.q
    kind = handle.kind
    normal = handle_is_normal(handle, config)
    prov.append("normal" if normal else "non-normal")

    if not normal:
        hit = divisibility_filter(q, kind, index, normal=False)
        prov.append(f"divisibility:{hit[0] if hit else 'pass'}")
        if hit:
            return _not_genuine(hit[0], hit[1], prov)
        _, rep = _congruence_step(handle, config, prov)
        if rep is not None and rep.congruence:
            return _not_genuine("is-congruence", None, prov)
        core_handle = SubgroupHandle(
            handle.hom,
            handle.core(config.group_cap),
            name=f"core of {handle.name}" if handle.name else "normal core",
        )
        prov.append("core-reduction")
        inner = verdict(core_handle, config)
        return Verdict(
            inner.outcome,
            inner.reason,
            inner.certificate,
            tuple(prov) + inner.provenance,
        )

    ql, rep = _congruence_step(handle, config, prov)
    if rep is not None and rep.congruence:
        return _not_genuine("is-congruence", None, prov)

    div_hit = divisibility_filter(q, kind, index, normal=True)
    prov.append(f"divisibility:{div_hit[0] if div_hit else 'pass'}")
    codim_hit = ql is not None and ql.prime_codim < 2 * handle.F.n
    if ql is None:
        prov.append("codimension:cap-skipped")
    else:
        prov.append(f"codimension:{'low' if codim_hit else 'pass'}")
    torus = diagonal_torus_inside(handle) if kind == "GL" else None
    quick_hit = quick_criteria(
        q, kind, index, normal=True, proper=True, torus_inside=torus
    )
    prov.append(f"quick-criteria:{quick_hit[0] if quick_hit else 'none'}")
    if quick_hit and (div_hit or codim_hit):
        raise AssertionError(
            "a genuineness criterion and a filter both fired on one handle"
        )
    if div_hit:
        return _not_genuine(div_hit[0], div_hit[1], prov)
    if codim_hit:
        return _not_genuine(
            "quasi-level-codimension",
            {"prime_codim": ql.prime_codim, "needed": 2 * handle.F.n},
            prov,
        )
    if rep is None:
        return Verdict("Unknown", "cap-exceeded", None, tuple(prov))
    if quick_hit:
        return Verdict("Genuine", quick_hit[0], quick_hit[1], tuple(prov))

    try:
        fc = factor_certificate(handle, config)
        prov.append(f"factor-certificate:{fc[0] if fc else 'none'}")
    except CapExceeded:
        fc = None
        prov.append("factor-certificate:cap-skipped")
    if fc:
        return Verdict("Genuine", fc[0], fc[1], tuple(prov))

    outcome = corner_map_search(handle, ql, config)
    prov.append(f"refutation:{outcome.status}:{outcome.tried}")
    if outcome.status == "refuted":
        return _not_genuine("congruence-witness", refutation_to_json(outcome), prov)
    return Verdict("Unknown", "no-decision", None, tuple(prov))


_MINIMAL_PROPER_INDEX = {2: 2, 3: 3, 4: 5, 5: 5, 7: 7, 8: 9, 9: 6, 11: 11, 13: 14, 16: 17}
_FACT_FLAGS = {"q": "--q", "g": "--genus", "delta": "--punctures"}


def facts_lookup(key, **kw):
    """Reference values used across the verdict rules.

    Keys: minimal-proper-index(q), rank-zero(kind,g,delta,q),
    coordinate-fixed-part(g,delta), noncongruence-minimum(q),
    normal-noncongruence-minimum(kind,q), genuine-minimum-lower-bound(q),
    normal-genuine-minimum-lower-bound(kind,q), psl2-order(q),
    pgl2-order(q).  q must be a prime power, g at least 0 and delta at
    least 1; a missing parameter is named by its command-line flag.
    """
    if kw.get("q") is not None and len(prime_factors(kw["q"])) != 1:
        raise DomainError(f"--q {kw['q']} is not a prime power")
    if kw.get("g") is not None and kw["g"] < 0:
        raise DomainError(f"--genus {kw['g']} is negative")
    if kw.get("delta") is not None and kw["delta"] < 1:
        raise DomainError(f"--punctures {kw['delta']} is below 1")

    def need(name):
        if kw.get(name) is None:
            raise DomainError(f"fact {key} needs {_FACT_FLAGS[name]}")
        return kw[name]

    if key == "minimal-proper-index":
        q = need("q")
        if q in _MINIMAL_PROPER_INDEX:
            return _MINIMAL_PROPER_INDEX[q]
        if q > 11:
            return q + 1
        raise DomainError(f"no minimal proper index tabulated for q={q}")
    if key == "psl2-order":
        return psl2_order(need("q"))
    if key == "pgl2-order":
        return pgl2_order(need("q"))
    if key == "rank-zero":
        kind = kw.get("kind", "GL")
        g, delta = need("g"), need("delta")
        if kind == "GL":
            return (g, delta) in {(1, 1), (0, 1), (0, 2), (0, 3)}
        base = {(0, 1), (0, 2)}
        if need("q") % 2 == 0:
            base |= {(0, 3), (1, 1)}
        return (g, delta) in base
    if key == "coordinate-fixed-part":
        g, delta = need("g"), need("delta")
        # the least n0 >= 0 with delta * n0 >= 2g - 1
        n0 = max(0, -((1 - 2 * g) // delta))
        return {"n0": n0, "dim": n0 * delta + 1 - g}
    if key == "noncongruence-minimum":
        q = need("q")
        if q == 2:
            return 2
        raise DomainError(f"no noncongruence minimum tabulated for q={q}")
    if key == "normal-noncongruence-minimum":
        q = need("q")
        if kw.get("kind", "SL") != "SL":
            raise DomainError("normal noncongruence minimum tabulated for SL only")
        return q if q <= 3 else psl2_order(q)
    if key == "genuine-minimum-lower-bound":
        q = need("q")
        if prime_factors(q) != [q]:
            raise DomainError("the genuine minimum bound needs a prime field")
        return 2 * q
    if key == "normal-genuine-minimum-lower-bound":
        q = need("q")
        if kw.get("kind", "SL") == "SL":
            return q * psl2_order(q) if q > 3 else q * q
        return q * q * (q * q - 1) if q > 3 else q * q
    raise DomainError(f"unknown fact key: {key}")


def _codim_subspaces(F, d, codim):
    if codim == 1:
        yield from iter_subspaces(F, d, d - 1)
        return
    seen = set()
    for h1 in iter_subspaces(F, d, d - 1):
        for h2 in iter_subspaces(F, d, d - 1):
            if h1 == h2:
                continue
            W = h1.intersect(h2)
            key = W.basis
            if key not in seen:
                seen.add(key)
                yield W


def low_index_scan(q, kind="SL", max_index=4, bound=None, config=DEFAULT_CONFIG):
    """Classify every representable handle up to the index and modulus bound.

    Two families are scanned: kernels of abelian translation quotients
    (all quasi-level subspaces of codimension one and two below each
    modulus dividing the bound; prime fields only) and principal
    reduction kernels.  A subspace W is kept at modulus m only when its
    level is m itself: the set W + (m) arises from exactly the moduli its
    level divides, so this judges each set once, at its smallest modulus.
    Minima are over the scanned class only; they are lower-bound
    evidence, not global minima.
    """
    F = field_from_label(str(q))
    if bound is None:
        raise DomainError("the scan needs a monic modulus bound")
    if not isinstance(bound, MonicIdeal):
        bound = MonicIdeal(bound)
    entries = []
    moduli = [m for m in bound.divisors() if m.gen.degree >= 1]

    def judge(handle, family, modulus, extra=None):
        try:
            v = verdict(handle, config)
            if "congruence:True" in v.provenance:
                cong = True
            elif "congruence:False" in v.provenance:
                cong = False
            else:
                cong = None
            entry = {
                "family": family,
                "modulus": modulus.gen.digits_str(),
                "index": handle.index_in_domain(config.group_cap),
                "congruence": cong,
                "outcome": v.outcome,
                "reason": v.reason,
            }
        except CapExceeded:
            entry = {
                "family": family,
                "modulus": modulus.gen.digits_str(),
                "index": None,
                "congruence": None,
                "outcome": "CapSkipped",
                "reason": "cap-exceeded",
            }
        entries.append({**entry, **(extra or {})})

    if q <= 3 and kind == "SL":
        for m in moduli:
            d = m.gen.degree
            for codim in (1, 2):
                if q**codim > max_index or codim > d:
                    continue
                for W in _codim_subspaces(F, d, codim):
                    if largest_ideal_inside(F, m, W) != m:
                        continue
                    handle = from_quasilevel_abelian(W, m.gen, kind)
                    basis = [digits_text(row) for row in W.basis]
                    judge(handle, "abelian-quotient", m, {"basis": basis})

    for m in moduli:
        hom = ReductionHom(residue_ring(m.gen), kind)
        try:
            handle = principal_congruence_handle(hom, m, config)
            if handle.index_in_domain(config.group_cap) > max_index:
                continue
        except CapExceeded:
            continue
        judge(handle, "principal-kernel", m)

    entries.sort(
        key=lambda e: (
            e["index"] if e["index"] is not None else 10**9,
            e["family"],
            e["modulus"],
            e["reason"],
        )
    )

    def minimum(pred):
        vals = [e["index"] for e in entries if e["index"] is not None and pred(e)]
        return min(vals) if vals else None

    report = {
        "field": F.label,
        "kind": kind,
        "max_index": max_index,
        "modulus_bound": bound.gen.digits_str(),
        "scope": "scanned-class-minima",
        "entries": entries,
        "minima": {
            "noncongruence": minimum(lambda e: e["congruence"] is False),
            "certified_genuine": minimum(lambda e: e["outcome"] == "Genuine"),
            "undecided": minimum(lambda e: e["outcome"] == "Unknown"),
        },
    }
    return report
