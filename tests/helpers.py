"""Shared random generators, the transversal-based image oracle, the
derived-subgroup reference for the constant class map, the scan's former
span-key rule and a call counter."""

import sys
from math import lcm

from drinfeld.amalgam import ReductionHom
from drinfeld.fingroup import closure, derived_subgroup
from drinfeld.mat2 import (
    diag_mat,
    domain_generator_matrices,
    mat_over_polys,
    translation,
    weyl,
)
from drinfeld.matgroups import ResidueMatrixGroup
from drinfeld.poly import Poly, residue_ring, t_power
from drinfeld.subspace import subspace


def schreier_congruence_image(hom, modulus_ideal):
    """Oracle: image of the reduction kernel via transversal lifts.

    Walks the coset graph of the kernel modulo the given ideal, keeping a
    polynomial-matrix representative per coset, then closes the images of
    the standard kernel generators rep * g * rep(coset after g)^-1.
    Completely independent of the product-group slice the library uses.
    """
    R = residue_ring(modulus_ideal.gen)
    Q = ResidueMatrixGroup(R, hom.kind)
    pi = ReductionHom(R, hom.kind)
    pre1, cyc1 = hom.translation_period()
    pre2, cyc2 = pi.translation_period()
    bound = max(pre1, pre2) + lcm(cyc1, cyc2)
    gens = domain_generator_matrices(hom.F, hom.kind, bound)
    gen_codes = [pi.eval_matrix(g) for g in gens]
    reps = {Q.identity_code(): mat_over_polys(hom.F, (1, 0, 0, 1))}
    frontier = [Q.identity_code()]
    while frontier:
        new = []
        for y in frontier:
            for g, gc in zip(gens, gen_codes):
                z = Q.mul(y, gc)
                if z not in reps:
                    reps[z] = reps[y] * g
                    new.append(z)
        frontier = new
    imgs = set()
    for y, rep in reps.items():
        for g, gc in zip(gens, gen_codes):
            z = rep * g
            back = reps[Q.mul(y, gc)]
            imgs.add(hom.eval_matrix(z * back.inv()))
    return closure(hom.target, sorted(imgs))


def derived_constant_class(F):
    """Reference class map of SL2(F_q), q <= 3, onto F_q: the least k with
    x T(1)^-k in the derived subgroup, found by a coset walk."""
    G0 = ResidueMatrixGroup(residue_ring(t_power(F, 1)), "SL")
    elems = G0.elements()
    D = derived_subgroup(G0, elems)
    t1_inv = G0.inv(int(G0.encode(1, 1, 0, 1)))
    classes = {}
    for code in elems:
        y = int(code)
        for k in range(F.q):
            if y in D:
                break
            y = G0.mul(y, t1_inv)
        else:
            raise AssertionError("the quotient by the derived group is not cyclic of size q")
        classes[tuple(int(v) for v in G0.decode(int(code)))] = k
    return classes


def span_key(F, bound_degree, W, modulus):
    """Reference label of the set W + (modulus) over a prime field: its
    span below the bound degree, which the modulus divides.  The scan once
    kept the first subspace per label; it now keeps a subspace whose level
    is its modulus."""
    rows = [row + (0,) * (bound_degree - len(row)) for row in W.basis]
    for i in range(bound_degree - modulus.degree):
        rows.append((modulus * t_power(F, i)).coeff_vector(bound_degree))
    return subspace(F, bound_degree, rows).basis


def random_poly(F, rng, max_deg=3):
    deg = int(rng.integers(0, max_deg + 1))
    return Poly(F, [int(rng.integers(0, F.q)) for _ in range(deg + 1)])


def random_sl2(F, rng, steps=6, max_deg=3):
    m = mat_over_polys(F, (1, 0, 0, 1))
    for _ in range(steps):
        k = int(rng.integers(0, 3))
        if k == 0:
            m = m * translation(F, random_poly(F, rng, max_deg))
        elif k == 1:
            m = m * weyl(F)
        else:
            a = int(rng.integers(1, F.q))
            m = m * diag_mat(F, a, F.inv(a))
    return m


def random_gl2(F, rng, steps=6, max_deg=3):
    m = random_sl2(F, rng, steps, max_deg)
    u = int(rng.integers(1, F.q))
    return m * diag_mat(F, u, 1)


# -- residue matrices checked through polynomial arithmetic


def code_entries(R, code):
    """Residue entries a, b, c, d of the matrix code ((a*S + b)*S + c)*S + d,
    by plain division, S the ring size."""
    code, d = divmod(int(code), R.size)
    code, c = divmod(code, R.size)
    a, b = divmod(code, R.size)
    return a, b, c, d


def lifted(R, code):
    """The polynomial matrix whose entries lift those of the matrix code."""
    return mat_over_polys(R.F, [R.lift(e) for e in code_entries(R, code)])


def reduced(R, m):
    """The polynomial matrix of remainders of m's entries mod R's modulus."""
    return mat_over_polys(R.F, [e % R.modulus for e in m.entries()])


def count_calls(monkeypatch, fn):
    """Replace fn in every drinfeld module that binds it; return the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "drinfeld" or name.startswith("drinfeld.")):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, counted)
    return calls
