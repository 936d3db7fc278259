"""Division-step decomposition and homomorphism tests.

The central consistency check: evaluating through the division steps and
translation tables must agree with native entrywise reduction, across
moduli whose t-power sequences are trivial, terminating, and cyclic.
"""

import numpy as np
import pytest

from drinfeld.amalgam import (
    ReductionHom,
    TableHom,
    hom_from_json,
    hom_to_json,
    matrix_to_word,
    reduction_as_table_hom,
    target_from_json,
    target_to_json,
)
from drinfeld.errors import DomainError, ValidationError
from drinfeld.fields import field
from drinfeld.fingroup import closure
from drinfeld.mat2 import borel_mat, diag_mat, mat_over_polys, reduce_mat, translation, weyl
from drinfeld.matgroups import ResidueMatrixGroup, mat_code
from drinfeld.poly import poly_from_string, residue_ring, zero
from drinfeld.subgroups import from_quasilevel_abelian
from drinfeld.subspace import subspace

from helpers import lifted, random_gl2, random_poly, random_sl2, reduced

F2 = field(2)
F3 = field(3)
F4 = field(2, 2)


def P(F, s):
    return poly_from_string(F, s)


def rebuild(F, word):
    """The product of the division steps and the last triangular factor."""
    *steps, (alpha, beta, corner) = word
    m = mat_over_polys(F, (1, 0, 0, 1))
    for q in steps:
        m = m * (weyl(F).inv() if q is None else translation(F, q))
    return m * borel_mat(F, alpha, beta, corner)


def test_decomposition_worked_example():
    m = mat_over_polys(F2, (P(F2, "1"), P(F2, "0"), P(F2, "01"), P(F2, "1")))
    word = matrix_to_word(m)
    assert word == (None, P(F2, "01"), None, (1, 1, zero(F2)))
    assert rebuild(F2, word) == m


def test_identity_decomposes_to_empty_word():
    m = mat_over_polys(F3, (1, 0, 0, 1))
    assert matrix_to_word(m) == ((1, 1, zero(F3)),)


@pytest.mark.parametrize("F", [F2, F3])
def test_roundtrip_many_matrices(F):
    rng = np.random.default_rng(11 + F.q)
    for _ in range(400):
        m = random_sl2(F, rng)
        assert rebuild(F, matrix_to_word(m)) == m


def test_roundtrip_gl_matrices():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = random_gl2(F3, rng)
        assert rebuild(F3, matrix_to_word(m)) == m


def test_word_length_bound():
    # the steps plus the last factor
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = random_sl2(F2, rng, steps=8, max_deg=3)
        d = max(e.degree for e in m.entries())
        assert len(matrix_to_word(m)) <= 2 * d + 3


def test_nonunit_determinant_rejected():
    m = mat_over_polys(F2, (P(F2, "01"), P(F2, "0"), P(F2, "0"), P(F2, "1")))
    with pytest.raises(DomainError):
        matrix_to_word(m)


MODULI = {
    2: ["01", "001", "011", "111", "0001"],
    3: ["01", "001", "011", "101"],
}


@pytest.mark.parametrize("q,mods", sorted(MODULI.items()))
def test_reduction_hom_word_path_matches_direct(q, mods):
    F = field(2) if q == 2 else field(3)
    rng = np.random.default_rng(29 * q)
    for mod in mods:
        h = ReductionHom(residue_ring(P(F, mod)), "SL")
        for _ in range(60):
            m = random_sl2(F, rng)
            assert lifted(h.ring, h.eval_matrix(m)) == reduced(h.ring, m)


@pytest.mark.parametrize("q,mods", sorted(MODULI.items()))
def test_table_hom_matches_reduction(q, mods):
    F = field(2) if q == 2 else field(3)
    rng = np.random.default_rng(31 * q)
    for mod in mods:
        R = residue_ring(P(F, mod))
        red = ReductionHom(R, "SL")
        tab = reduction_as_table_hom(R, "SL")
        for _ in range(40):
            a = random_poly(F, rng, max_deg=7)
            assert tab.translation_image(a) == red.translation_image(a)
        # the first quotient of [[t+1, 1], [t, 1]] is the constant 1
        fixed = mat_over_polys(F, (P(F, "11"), P(F, "1"), P(F, "01"), P(F, "1")))
        for m in [fixed] + [random_sl2(F, rng) for _ in range(40)]:
            assert tab.eval_matrix(m) == red.eval_matrix(m)


def test_table_hom_translation_additive_with_folding():
    R = residue_ring(P(F2, "011"))  # cyclic t-power sequence
    tab = reduction_as_table_hom(R, "SL")
    rng = np.random.default_rng(41)
    T = tab.target
    for _ in range(200):
        a = random_poly(F2, rng, max_deg=8)
        b = random_poly(F2, rng, max_deg=8)
        assert tab.translation_image(a + b) == T.mul(
            tab.translation_image(a), tab.translation_image(b)
        )


def test_gl_reduction_and_tables():
    R = residue_ring(P(F3, "001"))
    red = ReductionHom(R, "GL")
    tab = reduction_as_table_hom(R, "GL")
    rng = np.random.default_rng(43)
    for _ in range(40):
        m = random_gl2(F3, rng)
        assert tab.eval_matrix(m) == red.eval_matrix(m)
    # SL-kind homs refuse determinant-two matrices
    sl = ReductionHom(R, "SL")
    m = diag_mat(F3, 2, 1)
    with pytest.raises(DomainError):
        sl.eval_matrix(m)


def test_conductor_values():
    assert (
        reduction_as_table_hom(residue_ring(P(F2, "001")), "SL").conductor.gen
        == P(F2, "001")
    )
    assert (
        reduction_as_table_hom(residue_ring(P(F2, "011")), "SL").conductor.gen
        == P(F2, "011")
    )
    # modulus t^2+t+1: powers of t cycle with length three and no tail
    h = reduction_as_table_hom(residue_ring(P(F2, "111")), "SL")
    assert h.pre_len == 0 and h.cyc_len == 3
    assert h.conductor.gen == P(F2, "1001")
    assert (h.conductor.gen % P(F2, "111")).is_zero()


def test_conductor_kills_multiples():
    for mod in ("001", "011", "111"):
        R = residue_ring(P(F2, mod))
        tab = reduction_as_table_hom(R, "SL")
        rng = np.random.default_rng(47)
        for _ in range(30):
            a = random_poly(F2, rng, max_deg=4)
            killed = tab.conductor.gen * a
            assert tab.translation_image(killed) == tab.target.identity_code()


def test_image_generators_closure_is_full_sl():
    R = residue_ring(P(F2, "001"))
    red = ReductionHom(R, "SL")
    assert closure(red.target, red.image_generators()).size == 48
    tab = reduction_as_table_hom(R, "SL")
    assert closure(tab.target, tab.image_generators()).size == 48


def test_gl_image_is_proper_for_higher_modulus():
    # determinants of reduced matrices stay in the constants, so the image
    # of the unit-determinant group is smaller than full GL2 of the ring
    for F, mod, image, order in ((F2, "001", 48, 96), (F3, "001", 1296, 3888)):
        R = residue_ring(P(F, mod))
        red = ReductionHom(R, "GL")
        im = closure(red.target, red.image_generators())
        full = ResidueMatrixGroup(R, "GL").elements()
        assert (im.size, full.size) == (image, order)
        assert np.isin(im, full).all()


# -- validation rule triggers


def tampered(hom, **kw):
    """Load a copy of the hom with some tables replaced; tables are
    validated where they enter, so the rules run in hom_from_json."""
    built = TableHom(
        hom.F,
        kw.get("kind", hom.kind),
        hom.target,
        kw.get("const_table", hom.const_table),
        kw.get("pre_tables", hom.pre_tables),
        kw.get("cyc_tables", hom.cyc_tables),
    )
    return hom_from_json(hom_to_json(built))


def base_hom():
    return reduction_as_table_hom(residue_ring(P(F2, "001")), "SL")


def test_validation_tables_shape():
    h = base_hom()
    with pytest.raises(ValidationError) as err:
        tampered(h, pre_tables=[h.pre_tables[0], h.pre_tables[1][:1]])
    assert err.value.rule == "tables-shape"


def test_validation_codes_in_target():
    h = base_hom()
    bad = [h.pre_tables[0], (0, -5)]
    with pytest.raises(ValidationError) as err:
        tampered(h, pre_tables=bad)
    assert err.value.rule == "codes-in-target"


def test_validation_codes_in_additive_quotient_target():
    # a code past q^k agrees with a quotient element in every base-q digit
    # the group operation reads, but names no element of the quotient
    h = from_quasilevel_abelian(subspace(F2, 3, [(1, 0, 0)]), P(F2, "0001")).hom
    data = hom_to_json(h)
    data["pre_tables"][1][1] += h.target.size
    with pytest.raises(ValidationError) as err:
        hom_from_json(data)
    assert err.value.rule == "codes-in-target"


def test_validation_translation_zero():
    h = base_hom()
    t0 = h.pre_tables[0]
    with pytest.raises(ValidationError) as err:
        tampered(h, pre_tables=[(t0[1], t0[0]), h.pre_tables[1]])
    assert err.value.rule == "translation-zero"


def test_validation_translation_additive():
    R = residue_ring(P(F3, "001"))
    h = reduction_as_table_hom(R, "SL")
    t0 = list(h.pre_tables[0])
    t0[2] = t0[1]  # now 1+1 does not land on the table entry for 2
    with pytest.raises(ValidationError) as err:
        tampered(h, pre_tables=[tuple(t0), h.pre_tables[1]])
    assert err.value.rule == "translation-additive"


def test_validation_translation_commute():
    h = base_hom()
    R = h.target.R
    G = h.target
    w = mat_code(reduce_mat(weyl(R.F), R))
    w_inv = G.inv(w)
    # conjugated into lower triangulars
    lower = tuple(G.mul(G.mul(w_inv, v), w) for v in h.pre_tables[1])
    with pytest.raises(ValidationError) as err:
        tampered(h, pre_tables=[h.pre_tables[0], lower])
    assert err.value.rule == "translation-commute"


def test_validation_const_complete():
    h = base_hom()
    table = dict(h.const_table)
    table.pop((0, 1, 1, 0))
    with pytest.raises(ValidationError) as err:
        tampered(h, const_table=table)
    assert err.value.rule == "const-complete"


def test_validation_const_mult():
    h = base_hom()
    table = dict(h.const_table)
    table[(0, 1, 1, 0)] = h.target.identity_code()
    with pytest.raises(ValidationError) as err:
        tampered(h, const_table=table)
    assert err.value.rule == "const-mult"


def test_validation_diag_conjugation():
    # over F_4 a Frobenius twist of one translation slot stays additive and
    # commuting but conflicts with conjugation by diagonals
    R = residue_ring(P(F4, "001"))
    h = reduction_as_table_hom(R, "SL")
    t1 = h.pre_tables[1]
    twisted = tuple(t1[F4.frob(c)] for c in range(4))
    with pytest.raises(ValidationError) as err:
        tampered(h, pre_tables=[h.pre_tables[0], twisted])
    assert err.value.rule == "diag-conjugation"


def test_validation_borel_consistency():
    h = base_hom()
    e = h.target.identity_code()
    trivial = {k: e for k in h.const_table}
    with pytest.raises(ValidationError) as err:
        tampered(h, const_table=trivial)
    assert err.value.rule == "borel-consistency"


def test_reduction_tables_pass_validation():
    for F, mod, kind in (
        (F2, "001", "SL"),
        (F2, "011", "SL"),
        (F2, "111", "SL"),
        (F3, "001", "SL"),
        (F3, "01", "GL"),
        (F4, "001", "SL"),
    ):
        h = reduction_as_table_hom(residue_ring(P(F, mod)), kind)
        assert h.validate()


# -- serialization


def test_hom_json_roundtrip_reduction():
    h = ReductionHom(residue_ring(P(F3, "001")), "SL")
    data = hom_to_json(h)
    h2 = hom_from_json(data)
    rng = np.random.default_rng(53)
    for _ in range(20):
        m = random_sl2(F3, rng)
        assert h.eval_matrix(m) == h2.eval_matrix(m)


def test_hom_json_roundtrip_tables():
    h = reduction_as_table_hom(residue_ring(P(F2, "011")), "SL")
    data = hom_to_json(h)
    h2 = hom_from_json(data)
    assert h2.pre_tables == h.pre_tables
    assert h2.cyc_tables == h.cyc_tables
    assert h2.const_table == h.const_table
    rng = np.random.default_rng(59)
    for _ in range(20):
        m = random_sl2(F2, rng)
        assert h.eval_matrix(m) == h2.eval_matrix(m)


def test_target_json_roundtrip():
    from drinfeld.fingroup import AdditiveQuotientGroup, SymmetricGroup

    t = ResidueMatrixGroup(residue_ring(P(F2, "001")), "SL")
    t2 = target_from_json(target_to_json(t))
    assert t2.R is t.R and t2.kind == t.kind
    W = subspace(F3, 3, [(1, 2, 0)])
    a = AdditiveQuotientGroup(W)
    a2 = target_from_json(target_to_json(a))
    assert a2.W == a.W
    s = SymmetricGroup(5)
    s2 = target_from_json(target_to_json(s))
    assert s2.n == 5
