"""Seeded random generators for factorizations, chains, and split sequences.

Used by the property-test harness and the CLI selftest.  Everything is
driven by an explicit `random.Random` instance for reproducibility.
"""

from __future__ import annotations

import random
from itertools import accumulate
from operator import sub

from . import linalg
from .chains import MonoChain
from .factorizations import FacMap, Factorization, fac_build, fac_validate, omega_map
from .modules import (
    HypersurfaceConfig,
    ModuleMap,
    RModule,
    hom_basis,
    kernel,
)
from .polymat import GradedMatrix


def random_unimodular(field, degs, rng: random.Random) -> GradedMatrix:
    """Graded automorphism of ⊕S(-a): unit diagonal, entries raising degree."""
    n = len(degs)
    entries = linalg.zeros(field, n, n)
    for i in range(n):
        # a draw that is 0 in F_2 or F_3 becomes 1; the draws stay the same
        unit = field.from_int(rng.randrange(1, 5))
        entries[i][i] = field.one if field.is_zero(unit) else unit
    for r in range(n):
        for c in range(n):
            e = degs[c] - degs[r]
            if r != c and e > 0 and rng.random() < 0.5:
                entries[r][c] = field.from_int(rng.randrange(-2, 3))
    return GradedMatrix(field, entries, degs, degs)


def rank1_factorization(cfg, powers, deg0: int = 0) -> Factorization:
    """x^{a_0}, ..., x^{a_{l-1}} with sum of powers <= d; closing x^{rest}."""
    maps = []
    cur = [deg0]
    for a in powers:
        maps.append(omega_map(cfg.field, cur, a))
        cur = [s - a for s in cur]
    return fac_build(maps, cfg, f"rank-1 factorization with powers {powers}")


def random_factorization(cfg: HypersurfaceConfig, l: int, rng: random.Random,
                         m_max: int = 3, window: int = 2) -> Factorization:
    """A sum of m rank-1 factorizations x^{a_0}, ..., x^{a_{l-1}} (powers
    summing to at most d, start degree in [0, window]), conjugated by
    unimodular changes U_k, with U_k^-1 = U_k.solve(identity).  The sum's
    maps are the identity scalars from degs[k] to degs[k+1], and only the
    conjugated maps are validated."""
    F = cfg.field
    m = rng.randrange(1, m_max + 1)
    parts = []  # per rank-1 part, its generator degrees at positions 0..l
    for _ in range(m):
        powers = []
        for _ in range(l):
            powers.append(rng.randrange(0, cfg.d - sum(powers) + 1))
        parts.append(list(accumulate(powers, sub, initial=rng.randrange(0, window + 1))))
    degs = list(zip(*parts))
    one = linalg.identity(F, m)
    # conjugate: A'^k = U_{k+1} A^k U_k^{-1} keeps validity and the iso class
    us = [random_unimodular(F, degs[k], rng) for k in range(l + 1)]
    maps = []
    for k in range(l):
        u_inv = us[k].solve(GradedMatrix.identity(F, degs[k]))
        maps.append(us[k + 1] @ GradedMatrix(F, one, degs[k], degs[k + 1]) @ u_inv)
    return fac_build(maps, cfg, "conjugated factorization")


def random_module(cfg: HypersurfaceConfig, rng: random.Random,
                  max_summands: int = 2, window: int = 2) -> RModule:
    return RModule(
        cfg,
        [
            (rng.randrange(1, cfg.d + 1), rng.randrange(0, window + 1))
            for _ in range(rng.randrange(0, max_summands + 1))
        ],
    )


def random_chain(cfg: HypersurfaceConfig, length: int, rng: random.Random,
                 max_summands: int = 2) -> MonoChain:
    """Valid chain built by stacking kernels of random maps under the top."""
    top = random_module(cfg, rng, max_summands)
    objs = [top]
    incls = []
    for _ in range(length - 1):
        cur = objs[0]
        tgt = random_module(cfg, rng, max_summands)
        basis = hom_basis(cur, tgt)
        if basis and rng.random() < 0.8:
            f = basis[0].scale(cfg.field.from_int(rng.randrange(-2, 3)))
            for g in basis[1:]:
                f = f + g.scale(cfg.field.from_int(rng.randrange(-2, 3)))
            incl = kernel(f)
        else:
            incl = ModuleMap.identity(cur)
        objs.insert(0, incl.src)
        incls.insert(0, incl)
    return MonoChain(cfg, objs, incls)


def random_split_ses(cfg: HypersurfaceConfig, l: int, rng: random.Random,
                     m_max: int = 2, tries: int = 50):
    """Termwise split SES X >-> Y ->> Z with Y a triangular extension.

    Returns (i, p) as FacMaps.  Falls back to the plain direct sum when no
    random triangular perturbation yields a valid factorization.
    """
    F = cfg.field
    x = random_factorization(cfg, l, rng, m_max=m_max)
    z = random_factorization(cfg, l, rng, m_max=m_max)

    def build(h_list):
        maps = []
        for k in range(l):
            a, b = x.maps[k], z.maps[k]
            bot = GradedMatrix.zero(F, a.src_degs, b.tgt_degs).hstack(b)
            maps.append(a.hstack(h_list[k]).vstack(bot))
        return fac_validate(maps, cfg)

    y = None
    for _ in range(tries):
        h_list = []
        for k in range(l):
            entries = linalg.zeros(F, x.m, z.m)
            for r in range(x.m):
                for c in range(z.m):
                    e = z.degs(k)[c] - x.degs(k + 1)[r]
                    if e >= 0 and rng.random() < 0.4:
                        entries[r][c] = F.from_int(rng.randrange(-2, 3))
            h_list.append(
                GradedMatrix(F, entries, z.degs(k), x.degs(k + 1))
            )
        cand = build(h_list)
        if isinstance(cand, Factorization):
            y = cand
            break
    if y is None:
        y = x.direct_sum(z)

    def block_incl(k):
        top = GradedMatrix.identity(F, x.degs(k))
        return top.vstack(GradedMatrix.zero(F, x.degs(k), z.degs(k)))

    def block_proj(k):
        left = GradedMatrix.zero(F, x.degs(k), z.degs(k))
        return left.hstack(GradedMatrix.identity(F, z.degs(k)))

    i = FacMap(x, y, [block_incl(k) for k in range(l + 1)])
    p = FacMap(y, z, [block_proj(k) for k in range(l + 1)])
    return i, p
