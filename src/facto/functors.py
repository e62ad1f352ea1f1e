"""The cokernel functor, its exact sequence, and reconstruction.

`cok` sends a factorization X to the chain of monomorphisms between the
cokernels of its leading composites X^0 -> X^k.  `reconstruct` inverts it
up to isomorphism by taking preimages (pullbacks) of the chain inside a
minimal free cover of its last module.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .chains import MonoChain, chain_validate, iota_embed
from .factorizations import FacMap, Factorization, FactorizationError, fac_build, prefix
from .modules import (
    HypersurfaceConfig,
    ModuleMap,
    RealizationError,
    RModule,
    decompose,
    homogeneous_kernel,
    is_mono_epi,
    map_ker_cok_im,
    presentation_cokernel,
    projective_cover,
    subspace_realization,
)
from .polymat import GradedMatrix, graded_solve


def reduced_module_map(g: GradedMatrix, cfg: HypersurfaceConfig) -> ModuleMap:
    """g mod x^d as a map of free R-modules on g's degree vectors."""
    src = RModule.free(cfg, g.src_degs)
    tgt = RModule.free(cfg, g.tgt_degs)
    return ModuleMap(src, tgt, g.coeffs, check=False)


def _section_of(field, proj):
    """Right inverse of a surjective realization matrix, one column at a time."""
    rows = len(proj)
    cols = len(proj[0]) if rows else 0
    sec = [[field.zero] * rows for _ in range(cols)]
    for j in range(rows):
        sol = linalg.solve(field, proj, linalg.unit_vector(field, rows, j))
        if sol is None:
            raise RealizationError("projection is not surjective")
        for i in range(cols):
            sec[i][j] = sol[i]
    return sec


def cok(x: Factorization) -> MonoChain:
    """The chain U^1 >-> ... >-> U^l of cokernels of the leading composites."""
    cfg = x.cfg
    F = cfg.field
    l = x.l
    mods, projs = [], []
    for k in range(1, l + 1):
        m, proj = presentation_cokernel(prefix(x, k), cfg)
        mods.append(m)
        projs.append(proj)
    maps = []
    for k in range(1, l):
        # induced map U^k -> U^{k+1}: lift along the cover, push, project
        lift = _section_of(F, projs[k - 1])
        abar = reduced_module_map(x.maps[k], cfg).realization()
        mat = linalg.mat_mul(F, projs[k], linalg.mat_mul(F, abar, lift))
        f = ModuleMap.from_realization(mods[k - 1], mods[k], mat)
        if not is_mono_epi(f)[0]:
            raise RealizationError("induced cokernel map is not mono")
        maps.append(f)
    chain = MonoChain(cfg, mods, maps, check=False)
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
    from .factorizations import adjunction_transport

    j = adjunction_transport(
        "nu_l_left", x, GradedMatrix.identity(F, x.degs(0)), forward=False
    )
    chain = iota_embed(cok(x))
    q = []
    for k in range(l + 1):
        free_k = RModule.free(cfg, x.degs(k))
        if k == 0:
            q.append(ModuleMap.zero(free_k, chain.objects[0]))
            continue
        mod, proj = presentation_cokernel(prefix(x, k), cfg)
        if mod != chain.objects[k]:
            raise RealizationError(f"cokernel {k} differs from the chain's")
        q.append(ModuleMap.from_realization(free_k, mod, proj))
    # componentwise exactness: q^k o jbar^k = 0 and rank counts match
    for k in range(l + 1):
        jbar = reduced_module_map(j.components[k], cfg)
        comp = q[k] @ jbar
        if not comp.is_zero():
            raise RealizationError("q o j != 0")
        free_dim = RModule.free(cfg, x.degs(k)).dim
        rk_j = linalg.rank(F, jbar.realization()) if free_dim else 0
        rk_q = linalg.rank(F, q[k].realization()) if free_dim else 0
        if rk_j + rk_q != free_dim:
            raise RealizationError("jq sequence not exact")
    return j, q, chain


@dataclass(frozen=True)
class LDiagram:
    """(iota, rho, chain): X^0 >-> X^l ->> U^l with the chain ending at U^l."""

    iota: GradedMatrix
    rho: ModuleMap
    chain: MonoChain

    def validate(self, cfg: HypersurfaceConfig) -> bool:
        F = cfg.field
        ibar = reduced_module_map(self.iota, cfg)
        if not (self.rho @ ibar).is_zero():
            return False
        free_dim = ibar.tgt.dim
        rk_i = linalg.rank(F, ibar.realization()) if free_dim else 0
        rk_r = linalg.rank(F, self.rho.realization()) if free_dim else 0
        if rk_i + rk_r != free_dim:
            return False
        return self.chain.objects[-1] == self.rho.tgt


def to_ldiagram(x: Factorization) -> LDiagram:
    cfg = x.cfg
    chain = cok(x)
    mod, proj = presentation_cokernel(prefix(x, x.l), cfg)
    rho = ModuleMap.from_realization(RModule.free(cfg, x.degs(x.l)), mod, proj)
    return LDiagram(iota=prefix(x, x.l), rho=rho, chain=chain)


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


def span_preimage_inclusion(cfg, degs_l, kvecs):
    """Free basis of the preimage in S^m of an x-stable homogeneous span.

    kvecs: vectors in the realization of the free R-cover on degs_l; the
    preimage adds omega-multiples of the generators.  Returns the inclusion
    GradedMatrix X^k >-> X^l.
    """
    F = cfg.field
    d = cfg.d
    m = len(degs_l)
    free = RModule.free(cfg, degs_l)
    fdegs, fx = free.basis_degrees(), free.x_matrix()
    # chain tops of the span generate it over R
    sdegs, sx, incl = subspace_realization(F, fdegs, fx, kvecs)
    summands, basis = decompose(F, d, sdegs, sx)
    tops, top_degs = [], []
    pos = 0
    for e, s in summands:
        top = linalg.mat_vec(F, incl, basis[pos])
        tops.append(top)
        top_degs.append(s)
        pos += e
    # a top of degree s has the scalar of x^(s - t) at generator j of degree t
    columns = [
        [v[j * d + s - t] if 0 <= s - t < d else F.zero for j, t in enumerate(degs_l)]
        for v, s in zip(tops, top_degs)
    ]
    degrees = list(top_degs)
    # plus the omega-multiples of the cover's generators
    for j in range(m):
        columns.append(linalg.unit_vector(F, m, j))
        degrees.append(degs_l[j] + d)
    coeffs, kept_degs = _minimal_generators(F, columns, degrees, m)
    return GradedMatrix.from_coeffs(F, coeffs, kept_degs, degs_l)


def _preimage_inclusion(cfg, degs_l, proj_to_quotient):
    """Free basis of the preimage in S^m of ker(proj) on the free cover.

    proj_to_quotient: realization matrix from the free cover of X^l onto a
    quotient module; returns the inclusion GradedMatrix X^k >-> X^l.
    """
    fdegs = RModule.free(cfg, degs_l).basis_degrees()
    return span_preimage_inclusion(
        cfg, degs_l, homogeneous_kernel(cfg.field, fdegs, proj_to_quotient))


def reconstruct(u: MonoChain) -> Factorization:
    """A factorization X with cok(X) chain-isomorphic to u (minimal cover)."""
    cfg = u.cfg
    F = cfg.field
    l = u.length
    top = u.objects[-1]
    degs_l = [s for _, s in top.summands]
    _, p = projective_cover(top)

    inclusions = []  # X^k >-> X^l for k = 0..l-1
    for k in range(l):
        if k == 0:
            # preimage of 0: kernel of p itself
            quot_proj = p.realization()
        else:
            comp = ModuleMap.identity(u.objects[k - 1])
            for i in range(k - 1, l - 1):
                comp = u.maps[i] @ comp
            _, (_, proj), _ = map_ker_cok_im(comp)
            quot_proj = linalg.mat_mul(F, proj.realization(), p.realization())
        inclusions.append(_preimage_inclusion(cfg, degs_l, quot_proj))
    inclusions.append(GradedMatrix.identity(F, degs_l))

    maps = [graded_solve(inclusions[k + 1], inclusions[k]) for k in range(l)]
    return fac_build(maps, cfg, "reconstruction")


# exactness of cok ------------------------------------------------------------


def induced_cok_map(f: FacMap) -> list:
    """Componentwise maps cok(src) -> cok(tgt) induced by a FacMap."""
    cfg = f.src.cfg
    F = cfg.field
    l = f.src.l
    src_chain = cok(f.src)
    tgt_chain = cok(f.tgt)
    out = []
    for k in range(1, l + 1):
        _, proj_s = presentation_cokernel(prefix(f.src, k), cfg)
        _, proj_t = presentation_cokernel(prefix(f.tgt, k), cfg)
        lift = _section_of(F, proj_s)
        fbar = reduced_module_map(f.components[k], cfg).realization()
        mat = linalg.mat_mul(F, proj_t, linalg.mat_mul(F, fbar, lift))
        out.append(
            ModuleMap.from_realization(
                src_chain.objects[k - 1], tgt_chain.objects[k - 1], mat
            )
        )
    return out


def cok_exactness_check(i: FacMap, p: FacMap) -> bool:
    """cok preserves a termwise split SES X >-> Y ->> Z componentwise.

    Checks: induced composite zero, the left map mono, the right map epi,
    and exact rank counts in every component.
    """
    if i.tgt != p.src:
        raise ValueError("malformed SES: middle objects differ")
    F = i.src.cfg.field
    ibar = induced_cok_map(i)
    pbar = induced_cok_map(p)
    for fi, fp in zip(ibar, pbar):
        if not (fp @ fi).is_zero():
            return False
        mono, _ = is_mono_epi(fi)
        _, epi = is_mono_epi(fp)
        if not (mono and epi):
            return False
        rk_i = linalg.rank(F, fi.realization()) if fi.tgt.dim else 0
        rk_p = linalg.rank(F, fp.realization()) if fp.src.dim else 0
        if rk_i + rk_p != fi.tgt.dim:
            return False
    return True
