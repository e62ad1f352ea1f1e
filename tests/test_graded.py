"""The scalar graded path against the k[x] toolkit (SNF, Bareiss) as oracle.

Every degree-0 map of graded free modules is a scalar matrix plus two
degree vectors; these checks draw random graded inputs over F_5 and Q and
require the same answers from both paths.
"""

import random

import pytest

from facto.factorizations import FacMap, fac_hom_basis, fac_validate
from facto.fields import GF, QQ
from facto.modules import HypersurfaceConfig
from facto.poly import Polynomial
from facto.polymat import (
    GradedMatrix,
    NoSolution,
    PolyMatrix,
    graded_solve,
    rank_over_fractions,
    solve_right,
)
from facto.randgen import random_factorization

FIELDS = [GF(5), QQ]
PAIRS = [(2, 2), (3, 2), (3, 3)]


def random_graded(field, rng, src_degs, tgt_degs, density=0.6):
    """Random scalars at the positions a degree-0 map may use."""
    coeffs = [
        [field.from_int(rng.randrange(1, 5))
         if a >= b and rng.random() < density else field.zero
         for a in src_degs]
        for b in tgt_degs
    ]
    return GradedMatrix.from_coeffs(field, coeffs, src_degs, tgt_degs)


def random_degs(rng, n):
    return [rng.randrange(0, 4) for _ in range(n)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_closing_map_is_the_snf_solution(field):
    rng = random.Random(21)
    for rep in range(30):
        d, l = PAIRS[rep % len(PAIRS)]
        cfg = HypersurfaceConfig(d, field)
        x = random_factorization(cfg, l, rng)
        product = x.maps[0]
        for a in x.maps[1:]:
            product = a @ product
        omega = PolyMatrix.scalar(field, x.m, Polynomial.monomial(field, d))
        out = fac_validate(list(x.maps), cfg)
        assert out.closing.mat == solve_right(product.mat, omega)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_graded_solve_agrees_with_solve_right(field):
    rng = random.Random(22)
    solved = unsolvable = 0
    for _ in range(150):
        tgt = random_degs(rng, rng.randrange(1, 4))
        a = random_graded(field, rng, random_degs(rng, rng.randrange(0, 4)), tgt)
        src_b = random_degs(rng, rng.randrange(1, 3))
        if rng.random() < 0.5:
            b = a @ random_graded(field, rng, src_b, a.src_degs)
        else:
            b = random_graded(field, rng, src_b, tgt)
        try:
            want = solve_right(a.mat, b.mat)
        except NoSolution:
            with pytest.raises(NoSolution):
                graded_solve(a, b)
            unsolvable += 1
            continue
        got = graded_solve(a, b)
        assert a @ got == b
        if a.is_injective():  # the solution is unique
            assert got.mat == want
        solved += 1
    assert solved > 20 and unsolvable > 20


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_is_injective_is_full_rank_over_fractions(field):
    rng = random.Random(23)
    for _ in range(100):
        a = random_graded(field, rng, random_degs(rng, rng.randrange(0, 4)),
                          random_degs(rng, rng.randrange(1, 4)))
        assert a.is_injective() == (rank_over_fractions(a.mat) == len(a.src_degs))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_facmap_is_iso_is_unit_determinants(field):
    rng = random.Random(24)
    isos = others = 0
    for rep in range(12):
        d, l = PAIRS[rep % len(PAIRS)]
        cfg = HypersurfaceConfig(d, field)
        x = random_factorization(cfg, l, rng, m_max=2)
        y = random_factorization(cfg, l, rng, m_max=2) if rep % 2 else x
        basis = fac_hom_basis(x, y)
        for _ in range(8):
            f = FacMap.zero(x, y)
            for g in basis:
                f = f + g.scale(field.from_int(rng.randrange(0, 3)))
            want = all(len(c.src_degs) == len(c.tgt_degs) and c.mat.det().is_unit()
                       for c in f.components)
            assert f.is_iso() == want
            isos += want
            others += not want
    assert isos > 5 and others > 5
