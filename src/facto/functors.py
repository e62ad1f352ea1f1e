"""The cokernel functor, its exact sequence, and reconstruction.

`cok` sends a factorization X to the chain of monomorphisms between the
cokernels of its leading composites X^0 -> X^k.  `_cokernels` fixes the
coordinates of these cokernels once, as the projections P from the free
covers and their sections M that `modules.presentation_cokernel` (a graded
elimination on the generators) returns, and `cok`, `induced_cok_map`,
`jq_sequence` and `to_ldiagram` all read them from there: the map that g
induces between two cokernels is the generator product P_tgt g M_src.
`reconstruct` inverts cok up to isomorphism: it is the flag factorization
(`flag_factorization`, shared with the census) of the preimages, in the
free cover P of the chain's last module U^l, of 0 and of the images of the
other modules, each the kernel of P ->> cok(U^k -> U^l) (`modules.preimage`).
Submodules of P come here as inclusions, from `preimage` or the census's
`submodule`, and `span_preimage_inclusion` reads their preimages in S^m off
the inclusions' generators: this module reads no degree piece.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .chains import MonoChain, chain_composites, chain_validate, iota_embed
from .factorizations import (
    FacMap,
    Factorization,
    FactorizationError,
    _walk,
    adjunction_transport,
    fac_build,
    prefix,
)
from .modules import (
    HypersurfaceConfig,
    ModuleMap,
    RealizationError,
    RModule,
    preimage,
    rank,
    presentation_cokernel,
    reduced_module_map,
)
from .polymat import GradedMatrix, NoSolution


def _cokernels(x: Factorization):
    """The (projection X^k ->> U^k, section) pairs of
    presentation_cokernel(X^0 -> X^k) on the free covers, for k = 1..l:
    the one place that fixes the coordinates of cok(x)."""
    return [presentation_cokernel(g, x.cfg) for g in _walk(x, 0, x.l)[1:]]


def _induced(g: GradedMatrix, src, tgt) -> ModuleMap:
    """The map between the cokernels of src and tgt ((projection, section)
    pairs from `_cokernels`) that g induces on their free covers, on the
    generators: each generator of src's cokernel is the projection of its
    section's column, so its image is P_tgt g M_src."""
    (p, m), (q, _) = src, tgt
    F = g.field
    return ModuleMap(p.tgt, q.tgt, linalg.mat_mul(F, q.blocks, linalg.mat_mul(F, g.coeffs, m)))


def cok(x: Factorization) -> MonoChain:
    """The chain U^1 >-> ... >-> U^l of cokernels of the leading composites."""
    return _cok_chain(x, _cokernels(x))


def _cok_chain(x: Factorization, coks) -> MonoChain:
    """cok(x) from its cokernels `coks` (`_cokernels(x)`), validated."""
    maps = [_induced(x.maps[k], coks[k - 1], coks[k]) for k in range(1, x.l)]
    chain = MonoChain(x.cfg, [p.tgt for p, _ in coks], maps, check=False)
    bad = chain_validate(chain)
    if bad is not True:
        raise RealizationError(f"cokernel chain invalid at {bad.index}: "
                               f"{bad.reason}")
    return chain


# the (j, q) sequence ---------------------------------------------------------


def jq_sequence(x: Factorization):
    """(j, q, chain): nu^l(X^0) >-> X ->> iota(cok X), componentwise exact.

    j is a FacMap with components the leading composites; q is the list of
    presentation epis X^k ->> U^k (U^0 = 0) onto the chain iota(cok x).
    """
    cfg = x.cfg
    F = cfg.field
    l = x.l
    j = adjunction_transport(
        "nu_l_left", x, GradedMatrix.identity(F, x.degs(0)), forward=False
    )
    coks = _cokernels(x)
    chain = iota_embed(_cok_chain(x, coks))
    q = [ModuleMap.zero(RModule.free(cfg, x.degs(0)), chain.objects[0])] + [p for p, _ in coks]
    # componentwise exactness: q^k o jbar^k = 0 and rank counts match
    for k in range(l + 1):
        jbar = reduced_module_map(j.components[k], cfg)
        if not (q[k] @ jbar).is_zero():
            raise RealizationError("q o j != 0")
        if rank(jbar) + rank(q[k]) != jbar.tgt.dim:
            raise RealizationError("jq sequence not exact")
    return j, q, chain


@dataclass(frozen=True)
class LDiagram:
    """(iota, rho, chain): X^0 >-> X^l ->> U^l with the chain ending at U^l."""

    iota: GradedMatrix
    rho: ModuleMap
    chain: MonoChain

    def validate(self, cfg: HypersurfaceConfig) -> bool:
        ibar = reduced_module_map(self.iota, cfg)
        if not (self.rho @ ibar).is_zero():
            return False
        if rank(ibar) + rank(self.rho) != ibar.tgt.dim:
            return False
        return self.chain.objects[-1] == self.rho.tgt


def to_ldiagram(x: Factorization) -> LDiagram:
    coks = _cokernels(x)
    return LDiagram(iota=prefix(x, x.l), rho=coks[-1][0], chain=_cok_chain(x, coks))


# reconstruction ----------------------------------------------------------------


def _minimal_generators(field, columns, degrees, m):
    """Greedy minimal generating set: ascending degree, drop span members.

    columns are the scalar vectors of homogeneous columns of the given
    degrees.  x^t times a column keeps its scalar vector, so a column lies
    in the S-span of the kept ones, all of lower or equal degree, iff its
    vector lies in the k-span of theirs.
    """
    order = sorted(range(len(columns)), key=lambda i: degrees[i])
    span = linalg.Echelon(field)
    kept_cols, kept_degs = [], []
    for i in order:
        if span.add(columns[i]):
            kept_cols.append(columns[i])
            kept_degs.append(degrees[i])
    if len(kept_cols) != m:
        raise FactorizationError(
            f"preimage module has rank {len(kept_cols)}, expected {m}")
    return list(zip(*kept_cols)), kept_degs


def span_preimage_inclusion(cfg, incl: ModuleMap):
    """Free basis of the preimage in S^m of a submodule of R^m.

    incl is the inclusion of the submodule into the free R-module R^m on
    degs_l (as `modules.submodule` and `modules.preimage` return it); its
    generators and the omega-multiples of R^m's generators generate the
    preimage.  Returns the inclusion GradedMatrix X^k >-> X^l.
    """
    F, degs_l = cfg.field, [s for _, s in incl.tgt.summands]
    columns = [list(col) for col in zip(*incl.blocks)]
    degrees = [s for _, s in incl.src.summands]
    for j, s in enumerate(degs_l):
        columns.append(linalg.unit_vector(F, len(degs_l), j))
        degrees.append(s + cfg.d)
    coeffs, kept_degs = _minimal_generators(F, columns, degrees, len(degs_l))
    return GradedMatrix(F, coeffs, kept_degs, degs_l)


def flag_factorization(cfg, incls) -> Factorization:
    """The factorization whose X^k is the source of the k-th of the
    inclusions `incls` X^k >-> X^l (GradedMatrices into one free S^m, as
    `span_preimage_inclusion` builds them) and whose X^l is S^m itself:
    A^k is incl_k divided by incl_(k+1) (`GradedMatrix.solve`).  Raises
    FactorizationError if a member does not lie in the next, or is not
    square and injective, or the maps do not form a factorization."""
    # no inclusion gives no map, which fac_build rejects
    incls = incls + [GradedMatrix.identity(cfg.field, g.tgt_degs) for g in incls[-1:]]
    try:
        maps = [b.solve(a) for a, b in zip(incls, incls[1:])]
    except NoSolution as e:
        raise FactorizationError(f"flag member does not lie in the next: {e}") from None
    return fac_build(maps, cfg, "flag factorization")


def reconstruct(u: MonoChain) -> Factorization:
    """A factorization X with cok(X) chain-isomorphic to u (minimal cover).

    X is the flag factorization of the preimages, in the free cover P of
    U^l, of 0 and of the images of U^1, ..., U^(l-1): each the kernel of
    P ->> cok(U^k -> U^l) (`modules.preimage`).
    """
    top = u.objects[-1]
    comps = [ModuleMap.zero(RModule.zero(u.cfg), top)] + chain_composites(u)[:-1]
    return flag_factorization(u.cfg, [span_preimage_inclusion(u.cfg, preimage(g))
                                      for g in comps])


# exactness of cok ------------------------------------------------------------


def induced_cok_map(f: FacMap) -> list:
    """Componentwise maps cok(src) -> cok(tgt) induced by a FacMap."""
    return [_induced(g, s, t) for g, s, t in
            zip(f.components[1:], _cokernels(f.src), _cokernels(f.tgt))]


def cok_exactness_check(i: FacMap, p: FacMap) -> bool:
    """cok preserves a termwise split SES X >-> Y ->> Z componentwise.

    Checks: induced composite zero, the left map mono, the right map epi,
    and exact rank counts in every component, one rank per map.
    """
    if i.tgt != p.src:
        raise ValueError("malformed SES: middle objects differ")
    for fi, fp in zip(induced_cok_map(i), induced_cok_map(p)):
        if not (fp @ fi).is_zero():
            return False
        rk_i, rk_p = rank(fi), rank(fp)
        if (rk_i, rk_p, rk_i + rk_p) != (fi.src.dim, fp.tgt.dim, fi.tgt.dim):
            return False
    return True
