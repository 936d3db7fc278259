"""Subgroup handle tests.

The congruence-image computation has two fully independent routes: the
product-group slice used by the library, and a Schreier transversal
construction implemented here that lifts coset representatives to actual
polynomial matrices and closes the images of the kernel generators.
"""

import numpy as np
import pytest
from helpers import derived_constant_class

from drinfeld.amalgam import ReductionHom, t_power_cycle
from drinfeld.config import RunConfig
from drinfeld.errors import CapExceeded, DomainError
from drinfeld.fields import field
from drinfeld.fingroup import closure
from drinfeld.mat2 import translation, weyl
from drinfeld.poly import MonicIdeal, Poly, one, poly_from_string, residue_ring, t_power
from drinfeld.subgroups import (
    SubgroupHandle,
    abelianized_constant_class,
    congruence_image,
    from_quasilevel_abelian,
    handle_from_codes,
    handle_from_json,
    handle_to_json,
    is_congruence,
    ideal_basis,
    largest_ideal_inside,
    prime_coordinates,
    principal_congruence_handle,
    quasi_level,
    scalar_congruence_handle,
    sl_part_image,
)
from drinfeld.subspace import iter_subspaces, subspace, zero_space

F2 = field(2)
F3 = field(3)


def P(F, s):
    return poly_from_string(F, s)


def ideal(F, s):
    return MonicIdeal(P(F, s))


from helpers import schreier_congruence_image


SLICE_CASES = [
    (2, "001", "01"),
    (2, "001", "001"),
    (2, "0001", "01"),
    (2, "0001", "001"),
    (2, "111", "01"),
    (2, "01", "11"),
    (3, "001", "01"),
    (3, "01", "011"),
]


@pytest.mark.parametrize("q,hom_mod,id_mod", SLICE_CASES)
def test_slice_matches_schreier_oracle(q, hom_mod, id_mod):
    F = field(q)
    hom = ReductionHom(residue_ring(P(F, hom_mod)), "SL")
    idl = ideal(F, id_mod)
    slice_arr = congruence_image(hom, idl)
    oracle = schreier_congruence_image(hom, idl)
    assert np.array_equal(slice_arr, oracle)


def test_slice_matches_schreier_for_table_hom():
    h = from_quasilevel_abelian(zero_space(F2, 3), P(F2, "0001")).hom
    for id_mod in ("01", "001", "0001"):
        idl = ideal(F2, id_mod)
        assert np.array_equal(
            congruence_image(h, idl), schreier_congruence_image(h, idl)
        )


def test_known_kernel_image_sizes():
    hom = ReductionHom(residue_ring(P(F2, "001")), "SL")
    assert congruence_image(hom, ideal(F2, "01")).size == 8
    assert congruence_image(hom, ideal(F2, "001")).size == 1
    hom3 = ReductionHom(residue_ring(P(F2, "0001")), "SL")
    assert congruence_image(hom3, ideal(F2, "01")).size == 64
    assert congruence_image(hom3, ideal(F2, "001")).size == 8
    # coprime modulus: the kernel covers the whole quotient
    hom_irr = ReductionHom(residue_ring(P(F2, "111")), "SL")
    assert congruence_image(hom_irr, ideal(F2, "01")).size == 60
    hom_t = ReductionHom(residue_ring(P(F3, "01")), "SL")
    assert congruence_image(hom_t, ideal(F3, "11")).size == 24


def test_unit_ideal_slice_is_sl_image():
    hom = ReductionHom(residue_ring(P(F2, "001")), "SL")
    full = congruence_image(hom, ideal(F2, "1"))
    assert np.array_equal(full, sl_part_image(hom))
    assert full.size == 48
    with pytest.raises(DomainError):
        congruence_image(hom, MonicIdeal(Poly(F2, [0])))


def test_abelian_translation_quotient_images():
    # modulus t^3 over F_2 with nothing quotiented away beyond it
    handle = from_quasilevel_abelian(zero_space(F2, 3), P(F2, "0001"))
    h = handle.hom
    # the kernels at t^2 and t^3 both map onto the classes of t^2 A
    assert congruence_image(h, ideal(F2, "0001")).size == 2
    assert congruence_image(h, ideal(F2, "001")).size == 2
    assert congruence_image(h, ideal(F2, "01")).size == 4


def test_prime_coordinates_roundtrip():
    mod = P(F3, "0001")
    a = P(F3, "1201")
    vec = prime_coordinates(F3, a, mod)
    assert vec == (1, 2, 0)
    basis = ideal_basis(F3, one(F3), 3)
    assert [prime_coordinates(F3, b, mod) for b in basis] == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_ideal_basis_spans_the_multiples():
    # over F_4 (n = 2) the basis of (g) below t^3 spans exactly the prime
    # coordinates of g * a for every a of degree below 3 - deg g
    F4 = field(2, 2)
    mod = t_power(F4, 3)
    g = Poly(F4, [2, 1])
    basis = [prime_coordinates(F4, b, mod) for b in ideal_basis(F4, g, 3)]
    span = subspace(field(2), 6, basis)
    assert span.dim == len(basis) == 4
    cofactors = [Poly(F4, [a, b]) for a in range(4) for b in range(4)]
    multiples = {prime_coordinates(F4, g * a, mod) for a in cofactors}
    assert set(span.vectors()) == multiples


def test_largest_ideal_inside():
    cond = ideal(F2, "0001")
    W = subspace(field(2), 3, [(0, 1, 0), (0, 0, 1)])
    assert largest_ideal_inside(F2, cond, W).gen == P(F2, "01")
    W2 = subspace(field(2), 3, [(0, 0, 1)])
    assert largest_ideal_inside(F2, cond, W2).gen == P(F2, "001")
    W3 = subspace(field(2), 3, [(1, 1, 0)])
    assert largest_ideal_inside(F2, cond, W3).gen == P(F2, "0001")
    full = subspace(field(2), 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert largest_ideal_inside(F2, cond, full).gen == P(F2, "1")


def test_principal_congruence_handle_properties():
    hom = ReductionHom(residue_ring(P(F2, "001")), "SL")
    h = principal_congruence_handle(hom, ideal(F2, "01"))
    assert h.subgroup.size == 8
    ql = quasi_level(h)
    assert ql.level.gen == P(F2, "01")
    assert ql.is_ideal()
    assert ql.contains(P(F2, "01")) and not ql.contains(P(F2, "1"))
    assert ql.contains(P(F2, "0101011"))
    rep = is_congruence(h)
    assert rep.congruence and rep.witness is None
    assert h.index_in_domain() == 6
    assert h.contains_matrix(translation(F2, P(F2, "01")))
    assert not h.contains_matrix(weyl(F2))


def test_reduction_handles_are_always_congruence():
    # preimages under entrywise reduction contain the reduction kernel
    rng = np.random.default_rng(7)
    hom = ReductionHom(residue_ring(P(F3, "01")), "SL")
    G = hom.target
    full = G.elements()
    for _ in range(10):
        seeds = rng.choice(full, size=2)
        U = closure(G, [int(x) for x in seeds])
        h = SubgroupHandle(hom, U)
        assert is_congruence(h).congruence


def test_scalar_congruence_handle():
    h = scalar_congruence_handle(P(F3, "01"), "SL")
    assert h.subgroup.size == 2
    ql = quasi_level(h)
    assert ql.level.gen == P(F3, "01")
    assert ql.W.dim == 0
    assert is_congruence(h).congruence
    assert h.index_in_domain() == 12


def test_full_and_trivial_subgroup_handles():
    hom = ReductionHom(residue_ring(P(F2, "01")), "SL")
    full = SubgroupHandle(hom, hom.target.elements())
    assert full.index_in_domain() == 1
    assert is_congruence(full).congruence
    assert quasi_level(full).level.gen == P(F2, "1")
    trivial = SubgroupHandle(hom, [hom.target.identity_code()])
    assert trivial.index_in_domain() == 6
    rep = is_congruence(trivial)
    assert rep.congruence
    assert rep.quasi_level.level.gen == P(F2, "01")


def test_hyperplane_pattern_q2_conductor3():
    m = P(F2, "0001")
    noncong = 0
    for W in iter_subspaces(F2, 3, 2):
        h = from_quasilevel_abelian(W, m)
        assert h.index_in_domain() == 2
        rep = is_congruence(h)
        assert rep.congruence == W.contains((0, 0, 1))
        if not rep.congruence:
            noncong += 1
            assert rep.witness is not None
            assert rep.quasi_level.level.gen == P(F2, "0001")
    assert noncong == 4


def test_hyperplane_pattern_q2_conductor2_all_congruence():
    m = P(F2, "001")
    for W in iter_subspaces(F2, 2, 1):
        assert is_congruence(from_quasilevel_abelian(W, m)).congruence


def test_hyperplane_pattern_q3_conductor2():
    m = P(F3, "001")
    outcomes = {}
    for W in iter_subspaces(F3, 2, 1):
        rep = is_congruence(from_quasilevel_abelian(W, m))
        outcomes[W.basis] = rep.congruence
    assert outcomes == {
        ((1, 0),): False,
        ((1, 1),): False,
        ((1, 2),): False,
        ((0, 1),): True,
    }


def test_constant_class_map_matches_the_derived_subgroup():
    # read off the division steps, against a coset walk over the derived group
    for F in (F2, F3):
        expected = derived_constant_class(F)
        assert len(expected) == F.q * (F.q**2 - 1)
        assert list(abelianized_constant_class(F).items()) == list(expected.items())
    with pytest.raises(DomainError):
        abelianized_constant_class(field(2, 2))


def test_from_quasilevel_rejects_bad_input():
    with pytest.raises(DomainError):
        from_quasilevel_abelian(zero_space(F2, 2), P(F2, "001"), kind="GL")
    with pytest.raises(DomainError):
        from_quasilevel_abelian(zero_space(field(2, 2), 2), P(field(2, 2), "001"))
    with pytest.raises(DomainError):
        from_quasilevel_abelian(zero_space(F2, 3), P(F2, "001"))


def test_quasi_level_cap():
    handle = from_quasilevel_abelian(zero_space(F2, 3), P(F2, "0001"))
    with pytest.raises(CapExceeded):
        quasi_level(handle, RunConfig(enum_cap=4))


def test_image_cap_checked_on_cached_image():
    h = from_quasilevel_abelian(subspace(F2, 3, [(1, 0, 0)]), P(F2, "0001"))
    assert h.image(100_000).size == 4
    with pytest.raises(CapExceeded):
        h.image(2)


def test_handle_checks_closedness():
    hom = ReductionHom(residue_ring(P(F2, "01")), "SL")
    w = hom.eval_matrix(weyl(F2))
    t1 = hom.eval_matrix(translation(F2, P(F2, "1")))
    with pytest.raises(DomainError):
        handle_from_codes(hom, [hom.target.identity_code(), w, t1])
    with pytest.raises(DomainError):
        handle_from_codes(hom, [hom.target.identity_code(), -1])
    with pytest.raises(DomainError):
        handle_from_codes(hom, [])


def test_handle_json_roundtrip():
    h = scalar_congruence_handle(P(F3, "01"), "SL")
    h2 = handle_from_json(handle_to_json(h))
    assert np.array_equal(h2.subgroup, h.subgroup)
    assert h2.name == h.name
    assert is_congruence(h2).congruence
    ha = from_quasilevel_abelian(subspace(F2, 3, [(1, 0, 0)]), P(F2, "0001"))
    ha2 = handle_from_json(handle_to_json(ha))
    r1, r2 = is_congruence(ha), is_congruence(ha2)
    assert r1.congruence == r2.congruence
    assert r1.quasi_level.level.gen == r2.quasi_level.level.gen


def test_gl_congruence_image():
    hom = ReductionHom(residue_ring(P(F3, "001")), "GL")
    # the kernel of reduction mod t has determinant one, so its image
    # agrees with the one computed through the determinant-one handle
    slice_gl = congruence_image(hom, ideal(F3, "01"))
    oracle = schreier_congruence_image(hom, ideal(F3, "01"))
    assert np.array_equal(slice_gl, oracle)
    assert slice_gl.size == 648 // 24


def test_table_hom_period_bound_is_tight_enough():
    # cyclic modulus with pre-period zero: generators must cover a full cycle
    hom = ReductionHom(residue_ring(P(F2, "111")), "SL")
    pre, cyc, _ = t_power_cycle(hom.ring)
    assert (pre, cyc) == (0, 3)
    assert hom.translation_period() == (0, 3)
