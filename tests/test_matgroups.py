"""Matrix group tests: exhaustive determinant-filter oracle vs generator closure."""

import numpy as np
import pytest

from drinfeld.config import DEFAULT_CONFIG
from drinfeld.errors import CapExceeded, DomainError
from drinfeld.fields import field
from drinfeld.mat2 import Mat2
from drinfeld.matgroups import ResidueMatrixGroup, code_mat, mat_code
from drinfeld.poly import poly_from_string, residue_ring
from drinfeld.verify import order_facts

F2 = field(2)
F3 = field(3)


def ring(F, s):
    return residue_ring(poly_from_string(F, s))


def exhaustive_oracle(R, kind):
    """All codes whose matrix satisfies the determinant condition."""
    out = []
    for code in range(R.size**4):
        m = code_mat(R, code)
        det = m.det()
        ok = det == 1 if kind == "SL" else R.is_unit(det)
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
            assert code_mat(R, prod) == code_mat(R, int(x)) * code_mat(R, int(y))


def test_inv_matches_matrix_inverse():
    R = ring(F2, "111")
    G = ResidueMatrixGroup(R, "SL")
    els = G.elements()
    invs = G.inv_arr(els)
    for x, xi in zip(els[:50], invs[:50]):
        assert code_mat(R, int(xi)) == code_mat(R, int(x)).inv()
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
    det2 = mat_code(Mat2(R, 2, 0, 0, 1))
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
        mats = [code_mat(R, g) for g in ResidueMatrixGroup(R, "GL").generators()]
        gens = [m.a for m in mats if (m.b, m.c, m.d) == (0, 0, 1)]
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
    for code in (0, 1, 17, R.size**4 - 1):
        assert mat_code(code_mat(R, code)) == code


def test_weyl_conjugates_translations():
    R = ring(F2, "001")
    G = ResidueMatrixGroup(R, "SL")
    from drinfeld.mat2 import translation, weyl

    w = mat_code(weyl(R))
    tr = R.reduce_poly(poly_from_string(F2, "01"))
    t = mat_code(translation(R, tr))
    got = G.conj(t, w)
    m = code_mat(R, got)
    # conjugating an upper translation gives the matching lower one
    assert m.b == 0 and m.a == 1 and m.d == 1
    assert m.c == R.neg(tr)


def test_kind_validation():
    with pytest.raises(DomainError):
        ResidueMatrixGroup(ring(F2, "01"), "XL")
