"""The monomorphism category of graded R-modules.

A `MonoChain` is a diagram U^1 >-> U^2 >-> ... >-> U^n of monomorphisms of
graded k[x]/(x^d)-modules.  A length-0 chain (one object, no maps) is the
plain module category, so the 2-factor case needs no special-casing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import linalg
from .endo import is_local, search_iso, stable_hom_table
from .modules import (
    HypersurfaceConfig,
    ModuleMap,
    RModule,
    expect_json,
    hom_positions,
    is_mono_epi,
    lift,
    projective_cover,
)


@dataclass(frozen=True)
class ChainViolation:
    index: int
    reason: str

    def __bool__(self):
        return False


class MonoChain:
    """n objects and n-1 connecting monomorphisms."""

    __slots__ = ("cfg", "objects", "maps")

    def __init__(self, cfg: HypersurfaceConfig, objects, maps, check: bool = True):
        self.cfg = cfg
        self.objects = tuple(objects)
        self.maps = tuple(maps)
        if not self.objects:
            raise ValueError("a chain needs at least one object")
        if len(self.maps) != len(self.objects) - 1:
            raise ValueError("need exactly one map per consecutive pair")
        if check:
            bad = chain_validate(self)
            if bad is not True:
                raise ValueError(f"invalid chain at {bad.index}: {bad.reason}")

    @property
    def length(self) -> int:
        return len(self.objects)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.objects)

    def shift(self, t: int) -> "MonoChain":
        objs = [m.shift(t) for m in self.objects]
        maps = [
            ModuleMap(objs[i], objs[i + 1], f.blocks, check=False)
            for i, f in enumerate(self.maps)
        ]
        return MonoChain(self.cfg, objs, maps, check=False)

    def direct_sum(self, other: "MonoChain") -> "MonoChain":
        if other.length != self.length:
            raise ValueError("chain lengths differ")
        objs = [a.direct_sum(b) for a, b in zip(self.objects, other.objects)]
        maps = [f.direct_sum(g) for f, g in zip(self.maps, other.maps)]
        return MonoChain(self.cfg, objs, maps, check=False)

    def min_degree(self):
        degs = [s for m in self.objects for _, s in m.summands]
        return min(degs, default=0)

    def __eq__(self, other):
        return (
            isinstance(other, MonoChain)
            and self.cfg == other.cfg
            and self.objects == other.objects
            and self.maps == other.maps
        )

    def __repr__(self):
        return "MonoChain(" + " >-> ".join(repr(m) for m in self.objects) + ")"

    def to_json(self):
        return {
            "objects": [m.to_json() for m in self.objects],
            "maps": [f.to_json() for f in self.maps],
        }

    @classmethod
    def from_json(cls, cfg: HypersurfaceConfig, data) -> "MonoChain":
        expect_json(data, dict, "chain")
        objects = [RModule.from_json(cfg, m)
                   for m in expect_json(data["objects"], list, "chain objects")]
        maps = [ModuleMap.from_json(cfg, f)
                for f in expect_json(data["maps"], list, "chain maps")]
        return cls(cfg, objects, maps)

    @classmethod
    def zero(cls, cfg: HypersurfaceConfig, length: int) -> "MonoChain":
        z = RModule.zero(cfg)
        objs = [z] * length
        maps = [ModuleMap.zero(z, z)] * (length - 1)
        return cls(cfg, objs, maps, check=False)


def chain_validate(u: MonoChain):
    """True, or a ChainViolation locating the first failure."""
    for i, f in enumerate(u.maps):
        if f.src != u.objects[i] or f.tgt != u.objects[i + 1]:
            return ChainViolation(i, "map endpoints do not match objects")
        if not f.commutes_with_x():
            return ChainViolation(i, "map is not R-linear")
        mono, _ = is_mono_epi(f)
        if not mono:
            return ChainViolation(i, "map is not a monomorphism")
    return True


def mu_trivial(a: RModule, n: int, length: int) -> MonoChain:
    """Trivial chain: `length - n` zeros, then `a` repeated with identities."""
    if not (1 <= n <= length):
        raise ValueError("need 1 <= n <= length")
    cfg = a.cfg
    z = RModule.zero(cfg)
    objs = [z] * (length - n) + [a] * n
    maps = []
    for i in range(length - 1):
        if objs[i].is_zero():
            maps.append(ModuleMap.zero(objs[i], objs[i + 1]))
        else:
            maps.append(ModuleMap.identity(a))
    return MonoChain(cfg, objs, maps, check=False)


def iota_embed(u: MonoChain) -> MonoChain:
    """Prepend a zero object (the fully faithful extension by zero)."""
    z = RModule.zero(u.cfg)
    objs = [z] + list(u.objects)
    maps = [ModuleMap.zero(z, u.objects[0])] + list(u.maps)
    return MonoChain(u.cfg, objs, maps, check=False)


# chain maps ----------------------------------------------------------------


class ChainMap:
    """Componentwise ModuleMaps commuting with the chain monos."""

    __slots__ = ("src", "tgt", "parts")

    def __init__(self, src: MonoChain, tgt: MonoChain, parts, check: bool = True):
        if src.length != tgt.length:
            raise ValueError("chain lengths differ")
        self.src = src
        self.tgt = tgt
        self.parts = tuple(parts)
        if len(self.parts) != src.length:
            raise ValueError("need one component per object")
        if check:
            for i, f in enumerate(self.parts):
                if f.src != src.objects[i] or f.tgt != tgt.objects[i]:
                    raise ValueError(f"component {i} endpoints mismatch")
            for i in range(src.length - 1):
                if tgt.maps[i] @ self.parts[i] != self.parts[i + 1] @ src.maps[i]:
                    raise ValueError(f"square {i} does not commute")

    @classmethod
    def identity(cls, u: MonoChain) -> "ChainMap":
        return cls(u, u, [ModuleMap.identity(m) for m in u.objects], check=False)

    def __matmul__(self, other: "ChainMap") -> "ChainMap":
        return ChainMap(
            other.src, self.tgt,
            [f @ g for f, g in zip(self.parts, other.parts)], check=False,
        )

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.parts)

    def __eq__(self, other):
        return (
            isinstance(other, ChainMap)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.parts == other.parts
        )

    def to_json(self):
        return {"parts": [f.to_json() for f in self.parts]}


# hom spaces ------------------------------------------------------------------


def _hom_walks(u: MonoChain, v: MonoChain):
    """(chain_composites(u), chain_walks(v)): what `_top_rows` reads."""
    wv = chain_walks(v)
    return (wv[0] if v is u else chain_composites(u)), wv


def _top_rows(u: MonoChain, v: MonoChain, walks):
    """(positions, rows): the system of chain maps u -> v on the top
    component, which fixes a map; `walks` is `_hom_walks(u, v)`.

    A chain map is fixed by its top component phi: U^(n-1) -> V^(n-1), as
    every alpha^v_j = alpha^v_{j -> n-1} is a mono.  Conversely phi
    extends iff phi alpha^u_j lands in im alpha^v_j for each j < n-1: then
    f^j is the lift of phi alpha^u_j through alpha^v_j (`modules.lift`),
    and the squares commute after alpha^v_(j+1), a mono.  R is self-injective, so
    im alpha^v_j is the intersection of the kernels of the maps eta:
    V^(n-1) -> R(-s) that kill it, the rows of `chain_walks`.  So phi, in
    the elementary basis at `positions` (`modules.hom_positions`), extends
    iff eta phi alpha^u_j = 0: the coefficient of x^(s_c - s) in the image
    of each generator c of U^j with 0 <= s_c - s < d, one row eta[q]
    alpha^u_j[t][c] over the positions (q, t) each.
    """
    if u.cfg != v.cfg:
        raise ValueError("config mismatch")
    if u.length != v.length:
        raise ValueError("chain lengths differ")
    cu, (_, killing) = walks
    F, d = u.cfg.field, u.cfg.d
    positions = hom_positions(u.objects[-1], v.objects[-1])
    return positions, [
        [F.mul(eta[q], cu[j].blocks[t][c]) for q, t in positions]
        for (j, s), etas in killing.items() if j >= 0
        for c, (_, sc) in enumerate(cu[j].src.summands) if 0 <= sc - s < d
        for eta in etas]


def _top_basis(u: MonoChain, v: MonoChain, walks):
    """The top components phi of a k-basis of chain maps u -> v, as block
    matrices (`ModuleMap.blocks`): the nullspace of `_top_rows` (see the
    `endo` docstring)."""
    positions, rows = _top_rows(u, v, walks)
    F, a, b = u.cfg.field, u.objects[-1], v.objects[-1]
    return [linalg.scatter(F, len(b.summands), len(a.summands), positions, sol)
            for sol in linalg.nullspace(F, rows, cols=len(positions))]


def chain_hom_basis(u: MonoChain, v: MonoChain):
    """k-basis of ChainMaps u -> v: each top component phi of `_top_basis`
    extended by the lifts of phi alpha^u_j through alpha^v_j (`_top_rows`),
    so the maps are built without re-checking their squares."""
    walks = _hom_walks(u, v)
    cu, (cv, _) = walks
    a, b = u.objects[-1], v.objects[-1]
    tops = [ModuleMap(a, b, blocks, check=False) for blocks in _top_basis(u, v, walks)]
    return [ChainMap(u, v, [lift(beta, phi @ alpha) for alpha, beta in zip(cu, cv[:-1])]
                     + [phi], check=False) for phi in tops]


def chain_hom_dim(u: MonoChain, v: MonoChain) -> int:
    """dim Hom(u, v) = len(chain_hom_basis(u, v)), by one rank over the
    unknowns of the top component (`_top_rows`)."""
    positions, rows = _top_rows(u, v, _hom_walks(u, v))
    return len(positions) - linalg.rank(u.cfg.field, rows)


# projectivity -----------------------------------------------------------------


def chain_projective_test(u: MonoChain) -> bool:
    """True iff u is projective: every object is free.

    A projective chain is a sum of trivial chains on free modules, so its
    objects are free and its monos split with free cokernels.  Those
    follow from the objects alone: R is self-injective, so a mono out of a
    free module splits, and its cokernel is a summand of a free module,
    which is free over the graded local ring R.
    """
    return all(m.is_free() for m in u.objects)


def chain_projective_cover(u: MonoChain):
    """(P, p): projective chain P = sum of trivial chains on the free covers.

    Component k of P is Q^0 + ... + Q^k with inclusion-as-prefix monos; the
    epi p^k = (prefix-composites o q^j)_j, one block per free cover q^j.
    """
    n = u.length
    covers = [projective_cover(m) for m in u.objects]  # (Q^k, q^k)
    p_chain = functools.reduce(MonoChain.direct_sum, [
        mu_trivial(q_mod, n - j, n) for j, (q_mod, _) in enumerate(covers)])

    parts = []
    for k in range(n):
        # p^k = (alpha^{k-1}...alpha^j o q^j)_{j<=k} assembled column-blockwise
        blocks = [[] for _ in u.objects[k].summands]
        for j in range(k + 1):
            g = covers[j][1]  # Q^j -> U^j
            for i in range(j, k):
                g = u.maps[i] @ g
            for row, grow in zip(blocks, g.blocks):
                row.extend(grow)
        parts.append(ModuleMap(p_chain.objects[k], u.objects[k], blocks, check=False))
    return p_chain, ChainMap(p_chain, u, parts)


def chain_composites(u: MonoChain):
    """[alpha^u_{j -> n-1} for j = 0..n-1]: the composites of u's monos from
    U^j into the top U^(n-1), the identity for j = n-1."""
    out = [ModuleMap.identity(u.objects[-1])]
    for f in reversed(u.maps):
        out.append(out[-1] @ f)
    return out[::-1]


def chain_walks(u: MonoChain):
    """(composites, killing): `chain_composites(u)` and, keyed by (j, s),
    the maps top -> R(-s) that kill the image of U^j (`_killing`; every
    map for j = -1), for j = -1..n-2.  The Hom system (`_top_rows`) reads
    the target's rows and `chain_stable_hom_dim` the source's.  Only the
    degrees s with Hom(top, R(-s)) != 0 are keyed: s_t - d < s <= s_t +
    e_t - d for a summand (e_t, s_t) of the top, as gen_t -> x^(s_t - s)
    must survive in R(-s) and die under x^(e_t)."""
    comps, top, d = chain_composites(u), u.objects[-1], u.cfg.d
    degrees = {s for e, t in top.summands for s in range(t - d + 1, t + e - d + 1)}
    return comps, {(j, s): _killing(top, comps[j] if j >= 0 else None, s)
                   for j in range(-1, u.length - 1) for s in degrees}


def _killing(top: RModule, alpha, s: int):
    """The maps h: top -> R(-s), as coefficient rows in the elementary basis
    (`modules.hom_positions`, whose positions into R(-s) are the summands
    (e_t, s_t) with 0 <= s_t - s < d <= s_t - s + e_t), with h o alpha = 0
    (any h if alpha is None): one equation per generator c of alpha's
    source whose image monomial survives in R(-s), 0 <= s_c - s < d."""
    F, d = top.cfg.field, top.cfg.d
    free = [t for t, (e, st) in enumerate(top.summands) if 0 <= st - s < d <= st - s + e]
    rows = [] if alpha is None else [
        [alpha.blocks[t][c] for t in free]
        for c, (_, sc) in enumerate(alpha.src.summands) if 0 <= sc - s < d]
    return [linalg.scatter(F, 1, len(top.summands), [(0, t) for t in free], sol)[0]
            for sol in linalg.nullspace(F, rows, cols=len(free))]


def chain_stable_hom_dim(u: MonoChain, v: MonoChain) -> int:
    """dim Hom(u, v) modulo maps factoring through a projective chain.
    Builds no hom basis and no projective cover.

    Every such map factors through v's projective cover, the sum over j of
    the trivial chains mu_j(Q^j) on the free covers q^j: Q^j ->> V^j, with
    p's block j at k equal to alpha^v_{j -> k} q^j (`chain_projective_cover`).
    A chain map u -> mu_j(Q) is h alpha^u_{k -> n-1} at k >= j and 0 below,
    for an h: U^(n-1) -> Q with h alpha^u_{j-1 -> n-1} = 0.  Q is free, so h
    is a row per generator r of Q, each a map into R(-s_r) that kills the
    image of U^(j-1): the source's rows of `chain_walks` at (j - 1, s_r),
    none if s_r is not keyed there, as then Hom(U^(n-1), R(-s_r)) = 0.  A
    chain map is fixed by its top component, as every alpha^v is a mono,
    and a module map by its normalized blocks: so the maps through the
    cover are measured by the blocks of alpha^v_{j -> n-1} e_r eta at the
    surviving positions, one outer product of column r of alpha^v_{j ->
    n-1} and a killing row eta each.  Returns dim Hom(u, v)
    (`chain_hom_dim`, on the same walks) minus their rank (`_stable_dim`).
    """
    wu = chain_walks(u)
    return _stable_dim(u, v, (wu, wu if v is u else chain_walks(v)))


def chain_stable_hom_table(us):
    """[[chain_stable_hom_dim(u, v) for v in us] for u in us] (`endo.stable_hom_table`)."""
    return stable_hom_table(us, chain_walks, _stable_dim)


def _stable_dim(u: MonoChain, v: MonoChain, walks) -> int:
    """chain_stable_hom_dim(u, v) on (chain_walks(u), chain_walks(v)); a block
    matrix holds the entries (q, c) where x^(s_c - s_q) gen_q survives."""
    (cu, killing), wv = walks
    F = u.cfg.field
    positions, rows = _top_rows(u, v, (cu, wv))
    hom = len(positions) - linalg.rank(F, rows)
    if not hom:
        return 0
    positions = [(q, c) for q, (e, s) in enumerate(v.objects[-1].summands)
                 for c, (_, t) in enumerate(u.objects[-1].summands) if 0 <= t - s < e]
    return hom - linalg.rank(F, [
        [F.mul(alpha.blocks[q][r], eta[c]) for q, c in positions]
        for j, (obj, alpha) in enumerate(zip(v.objects, wv[0]))
        for r, (_, s) in enumerate(obj.summands)
        for eta in killing.get((j - 1, s), ())])


# isomorphism and indecomposability --------------------------------------------


def _chain_fingerprint(u: MonoChain):
    """The objects' normal forms: equal on isomorphic chains."""
    return tuple(obj.sorted_summands() for obj in u.objects)


def chain_iso_test(u: MonoChain, v: MonoChain) -> bool:
    """True iff u and v are isomorphic as chains.

    Necessary check: the fingerprints (componentwise normal forms) agree.
    Then searches the top components of a hom basis (`_top_basis`) for an
    invertible block matrix (see the `endo` docstring).  Each f^j is the
    restriction of f^top to U^j, so when f^top is an iso every f^j is a
    mono between modules of equal dimension, and f is an iso iff f^top
    is.
    """
    if u.cfg != v.cfg:
        raise ValueError("config mismatch")
    if _chain_fingerprint(u) != _chain_fingerprint(v):
        return False
    if u.is_zero():
        return True
    return search_iso(u.cfg.field, _top_basis(u, v, _hom_walks(u, v)))


def chain_is_indecomposable(u: MonoChain) -> bool:
    """u is nonzero and End(u) is local (see endo.is_local), read on the
    block matrices of the top component (see the `endo` docstring)."""
    if u.is_zero():
        return False
    return is_local(u.cfg.field, _top_basis(u, u, _hom_walks(u, u)))
