"""Matrix group tests: exhaustive determinant-filter oracle vs generator closure."""

import numpy as np
import pytest

from drinfeld.config import DEFAULT_CONFIG
from drinfeld.errors import CapExceeded, DomainError
from drinfeld.fields import field
from drinfeld.mat2 import diag_mat, mat_over_polys, reduce_mat, translation, weyl
from drinfeld.matgroups import ResidueMatrixGroup, mat_code
from drinfeld.poly import one, poly_from_string, poly_gcd, residue_ring
from drinfeld.verify import order_facts

from helpers import code_entries, lifted, reduced

F2 = field(2)
F3 = field(3)


def ring(F, s):
    return residue_ring(poly_from_string(F, s))


def exhaustive_oracle(R, kind):
    """All codes whose matrix satisfies the determinant condition, with the
    determinant taken over F_q[t] and reduced."""
    out = []
    for code in range(R.size**4):
        det = lifted(R, code).det() % R.modulus
        ok = det == one(R.F) if kind == "SL" else poly_gcd(det, R.modulus).degree == 0
        if ok:
            out.append(code)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize(
    "F,mod,kind,expected",
    [
        (F2, "01", "SL", 6),
        (F2, "001", "SL", 48),
        (F2, "011", "SL", 36),
        (F2, "111", "SL", 60),
        (F3, "01", "SL", 24),
        (F3, "01", "GL", 48),
        (F2, "01", "GL", 6),
        (F3, "001", "SL", 648),
        (F2, "0001", "SL", 384),
        (F3, "0001", "SL", 17496),
    ],
)
def test_orders_match_formula_and_closure(F, mod, kind, expected):
    G = ResidueMatrixGroup(ring(F, mod), kind)
    assert G.order_formula() == expected
    assert G.elements().size == expected


@pytest.mark.parametrize(
    "F,mod,kind",
    [
        (F2, "01", "SL"),
        (F2, "001", "SL"),
        (F2, "011", "SL"),
        (F2, "111", "SL"),
        (F3, "01", "SL"),
        (F3, "01", "GL"),
        (F2, "011", "GL"),
        (F3, "001", "SL"),
    ],
)
def test_closure_equals_exhaustive_filter(F, mod, kind):
    R = ring(F, mod)
    G = ResidueMatrixGroup(R, kind)
    assert np.array_equal(G.elements(), exhaustive_oracle(R, kind))


def test_op_matches_matrix_multiplication():
    R = ring(F3, "001")
    G = ResidueMatrixGroup(R, "SL")
    els = G.elements()
    rng = np.random.default_rng(7)
    pick = rng.choice(els, size=40)
    for x in pick[:20]:
        for y in pick[20:]:
            prod = G.mul(int(x), int(y))
            assert lifted(R, prod) == reduced(R, lifted(R, x) * lifted(R, y))


def test_inv_matches_matrix_inverse():
    R = ring(F2, "111")
    G = ResidueMatrixGroup(R, "SL")
    els = G.elements()
    invs = G.inv_arr(els)
    identity = mat_over_polys(R.F, (1, 0, 0, 1))
    for x, xi in zip(els[:50], invs[:50]):
        assert reduced(R, lifted(R, x) * lifted(R, xi)) == identity
    assert np.all(G.op(els, invs) == G.identity_code())


def test_member_mask_on_all_elements():
    for kind in ("SL", "GL"):
        G = ResidueMatrixGroup(ring(F2, "001"), kind)
        els = G.elements()
        assert bool(G.member_mask(els).all())
        if kind == "SL":
            dets = G.det_arr(els)
            assert np.all(dets == 1)


@pytest.mark.parametrize("F,mod", [(F2, "001"), (F3, "01"), (F2, "011")])
@pytest.mark.parametrize("kind", ["SL", "GL"])
def test_member_mask_matches_enumeration(F, mod, kind):
    R = ring(F, mod)
    G = ResidueMatrixGroup(R, kind)
    codes = np.arange(-3, R.size**4 + 3, dtype=np.int64)
    assert np.array_equal(G.member_mask(codes), np.isin(codes, G.elements()))


def test_member_mask_rejects_codes_outside():
    R = ring(F3, "01")
    det2 = mat_code(reduce_mat(diag_mat(F3, 2, 1), R))
    codes = np.array([-1, R.size**4, det2], dtype=np.int64)
    assert not ResidueMatrixGroup(R, "SL").member_mask(codes).any()
    assert ResidueMatrixGroup(R, "GL").member_mask(codes).tolist() == [False, False, True]


def test_gl_contains_sl_with_unit_index():
    R = ring(F3, "01")
    sl = ResidueMatrixGroup(R, "SL").elements()
    gl = ResidueMatrixGroup(R, "GL").elements()
    assert np.isin(sl, gl).all()
    assert gl.size == sl.size * len(R.units())


def test_unit_group_generators():
    # the GL2 generators beyond SL2 are diagonals diag(u, 1) whose entries
    # u generate the unit group of the ring
    for F, mod in ((F2, "0001"), (F3, "001"), (F2, "011")):
        R = ring(F, mod)
        mats = [code_entries(R, g) for g in ResidueMatrixGroup(R, "GL").generators()]
        gens = [a for a, *rest in mats if rest == [0, 0, 1]]
        have = {1}
        frontier = [1]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = R.mul(x, g)
                    if y not in have:
                        have.add(y)
                        new.append(y)
            frontier = new
        assert have == set(R.units())


def test_order_facts_enumerates(monkeypatch):
    # criterion 1 counts the groups by enumeration, not by the order formula
    calls = []
    enumerate_ = ResidueMatrixGroup.elements

    def counted(self, cap=DEFAULT_CONFIG.group_cap):
        calls.append(self)
        return enumerate_(self, cap)

    monkeypatch.setattr(ResidueMatrixGroup, "elements", counted)
    passed, expected, computed = order_facts(DEFAULT_CONFIG, {})
    assert passed and computed == [6, 24, 48, 36]
    assert len(calls) == 4


def test_cap_refusal_before_any_work():
    R = ring(F3, "00001")  # modulus t^4: SL2 order 472392, over the default cap
    G = ResidueMatrixGroup(R, "SL")
    assert G.order_formula() == 472392
    with pytest.raises(CapExceeded):
        G.elements(100_000)
    with pytest.raises(CapExceeded):
        G.elements()


def test_cap_checked_on_cached_enumeration():
    R = ring(F2, "0001")  # modulus t^3: SL2 order 384
    G = ResidueMatrixGroup(R, "SL")
    # small cap first, then large, then small again: each call obeys its own cap
    with pytest.raises(CapExceeded):
        G.elements(100)
    assert G.elements(384).size == 384
    with pytest.raises(CapExceeded):
        ResidueMatrixGroup(R, "SL").elements(383)


def test_mat_code_roundtrip():
    R = ring(F3, "001")
    G = ResidueMatrixGroup(R, "SL")
    for code in (0, 1, 17, R.size**4 - 1):
        entries = code_entries(R, code)
        assert mat_code((R, *entries)) == code
        assert G.encode(*entries) == code
        assert G.decode(code) == entries


def test_weyl_conjugates_translations():
    R = ring(F2, "001")
    G = ResidueMatrixGroup(R, "SL")
    w = mat_code(reduce_mat(weyl(F2), R))
    tr = poly_from_string(F2, "01")
    t = mat_code(reduce_mat(translation(F2, tr), R))
    # conjugating an upper translation gives the matching lower one
    assert code_entries(R, G.mul(G.mul(G.inv(w), t), w)) == (1, 0, R.reduce_poly(-tr), 1)


def test_kind_validation():
    with pytest.raises(DomainError):
        ResidueMatrixGroup(ring(F2, "01"), "XL")
