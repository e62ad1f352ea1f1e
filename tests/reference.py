"""Reference code the tests check the library against.

The library holds a subspace of a realization as its degree pieces
{s: vectors of T_s}, reads a module map as its pieces T_s -> T_s and
reads x off the summands as shift blocks.  The ambient forms below write
a realization as one vector space, graded by a list of degrees, with x
and each map as one matrix (`x_matrix`, `realization`): they are the
earlier ambient implementations (the census's listing of x-stable
subspaces among them) and the adapters between the two forms.
`jordan_by_kernels` is the earlier Jordan decomposition on degree pieces,
which took the kernel of every power of x on every piece.
`projection_splits` tries every set of summands on ambient vectors, an
oracle for the census's drop of split flags.  `stable_dim` is the
earlier stable hom, taken on a hom basis and an explicit cover: the
oracle for the closed forms.  `presentation_cokernel_by_quotient` is the
earlier cokernel of a presentation, a quotient of the realization, and
`cok_by_quotient` the cokernel functor built on it: the oracles for the
graded elimination on generators.  `quotient` and `complement` take that
quotient of a realization by an x-stable span, and
`map_ker_cok_im_by_quotient` is the earlier kernel, cokernel and image of
a module map built on them.  `_flag_factorizations` and `_flag_chains`
list every flag object within bounds, with nothing pruned: the census's
exhaustive oracle.  `scalars` and `block_diagonal` are the earlier
k-matrix views of a map on all of its components, which the iso and
locality oracles read.  `preimage_by_annihilator` is the earlier preimage
of an image under a cover, degree by degree through the annihilator of the
image's pieces (`_image`): the oracle for `modules.preimage`, the kernel
of a cokernel's projection.  `graded_solve` is the earlier division by a
graded map, one elimination per source degree of the right-hand side and
for maps of any shape: the oracle for `GradedMatrix.solve`.  `from_poly`
is the bridge from the k[x] toolkit to the graded path: it converts a
homogeneous `PolyMatrix`, rejecting other entries as `graded_check` finds
them.  `fac_validate_ranking_first` is the earlier validation, which ranks
every factor before it divides x^d by their product: the oracle for
`fac_validate`'s reasons.  `random_factorization_by_parts` is the earlier
random factorization, a direct sum of validated rank-1 factorizations
conjugated as `randgen.random_factorization` does: the oracle for its
draws.  `parser_by_name_chain` is the earlier `facto` argument parser,
which listed the commands' help in one dict and their own options in a
chain of `if name == ...`: the oracle for `cli._parser`, built from one
table.  The rest are helpers that only tests use.
pytest does not collect this module; tests import it by name.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from facto import census, linalg
from facto.census import (
    _chain_build,
    _fac_build,
    _fac_tops,
    _field_elements,
    _subspace_flags,
    _subspaces_containing,
    _top_modules,
)
from facto.chains import ChainMap, MonoChain
from facto.factorizations import (
    FacMap,
    Factorization,
    Invalid,
    _walk,
    adjunction_transport,
    fac_build,
    omega_map,
)
from facto.fields import Field
from facto.functors import _minimal_generators
from facto.modules import (
    HypersurfaceConfig,
    ModuleMap,
    RModule,
    NotAnnihilated,
    _normal_form,
    _shifts,
    decompose,
    hom_basis,
    presentation_cokernel,
    projective_cover,
    reduced_module_map,
    submodule,
)
from facto.pieces import (
    NO_FILL,
    NOT_NILPOTENT,
    RealizationError,
    ambient,
    assemble,
    bases,
    indices_by_degree,
    sub_shifts,
)
from facto.poly import Polynomial
from facto.polymat import GradedMatrix, NoSolution, PolyMatrix, solve_right
from facto.randgen import random_unimodular, rank1_factorization


# -- ambient realizations ------------------------------------------------------


def x_matrix(m: RModule):
    """The ambient matrix of x on m's realization."""
    F = m.cfg.field
    n = m.dim
    idx = {b: k for k, b in enumerate(m.basis)}
    out = linalg.zeros(F, n, n)
    for k, (t, i) in enumerate(m.basis):
        nxt = idx.get((t, i + 1))
        if nxt is not None:
            out[nxt][k] = F.one
    return out


def realization(f: ModuleMap):
    """The ambient dim(tgt) x dim(src) matrix of f over k."""
    F = f.src.cfg.field
    m = linalg.zeros(F, f.tgt.dim, f.src.dim)
    tgt_idx = {b: k for k, b in enumerate(f.tgt.basis)}
    for col, (t, i) in enumerate(f.src.basis):
        st = f.src.summands[t][1]
        for u, (eu, su) in enumerate(f.tgt.summands):
            c = f.blocks[u][t]
            if F.is_zero(c):
                continue
            j = st - su + i
            if j < eu:
                m[tgt_idx[(u, j)]][col] = c
    return m


def scalars(f):
    """A map's components as k-matrices: a module map's degree pieces in
    ascending degree, a chain map's parts' pieces in turn, a factorization
    map's scalars of each f^j."""
    if isinstance(f, FacMap):
        return [g.coeffs for g in f.components]
    if isinstance(f, ChainMap):
        return [m for g in f.parts for m in scalars(g)]
    return list(f.pieces().values())


def block_diagonal(field: Field, blocks):
    """The square matrix with the given square blocks on its diagonal: on
    `scalars(f)`, the ambient matrix of f up to one fixed permutation of
    the basis."""
    n = sum(len(b) for b in blocks)
    out = linalg.zeros(field, n, n)
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def from_realization(src: RModule, tgt: RModule, real) -> ModuleMap:
    """Recover block form from a realization matrix; validates agreement.
    The entries off the degree blocks must be 0, and the blocks go to
    `from_pieces`."""
    F = src.cfg.field
    sdegs, tdegs = src.basis_degrees(), tgt.basis_degrees()
    if len(real) != len(tdegs) or any(len(row) != len(sdegs) for row in real) \
            or any(not F.is_zero(c) and tdegs[r] != sdegs[k]
                   for r, row in enumerate(real) for k, c in enumerate(row)):
        raise ValueError("realization is not a degree-0 equivariant map")
    rows = tgt.pieces()
    return ModuleMap.from_pieces(src, tgt, {
        s: [[real[r][c] for c in cols] for r in rows.get(s, ())]
        for s, cols in src.pieces().items()})


def embed(field, n, idx, v):
    """The length-n ambient vector with v on the coordinates idx."""
    out = [field.zero] * n
    for c, val in zip(idx, v):
        out[c] = val
    return out


def split(field, degs, vectors):
    """Homogeneous ambient `vectors` as {s: [vectors of T_s]}, zero vectors
    dropped; RealizationError if one is not homogeneous."""
    pieces = indices_by_degree(degs)
    out = {}
    for v in vectors:
        support = [k for k, c in enumerate(v) if not field.is_zero(c)]
        if not support:
            continue
        s = degs[support[0]]
        if any(degs[k] != s for k in support):
            raise RealizationError("vector is not homogeneous")
        out.setdefault(s, []).append([v[k] for k in pieces[s]])
    return out


def to_ambient(field, m: RModule, space):
    """The vectors of the pieces `space` {s: vectors of T_s}, written out in
    m's realization, in ascending degree."""
    pieces = m.pieces()
    return [embed(field, m.dim, pieces[s], v) for s, vecs in space.items() for v in vecs]


def _degree_kernel(field, n, cols, mat):
    """Basis of the kernel of `mat` on the coordinates `cols` (one degree),
    each vector written out in all n coordinates."""
    return [embed(field, n, cols, v) for v in linalg.nullspace(
        field, [[row[c] for c in cols] for row in mat], cols=len(cols))]


def homogeneous_components(field, degs, vectors):
    """Split possibly-redundant homogeneous vectors into per-degree bases."""
    pieces = indices_by_degree(degs)
    return {s: [embed(field, len(degs), pieces[s], r) for r in ech.rows]
            for s, ech in bases(field, split(field, degs, vectors)).items()}


def homogeneous_kernel(field, degs, mat):
    """Homogeneous basis of the kernel of `mat` (columns graded by degs),
    degree by degree."""
    return [w for cols in indices_by_degree(degs).values()
            for w in _degree_kernel(field, len(degs), cols, mat)]


def subspace_realization(field, degs, xmat, vectors):
    """(sub_degs, sub_x, inclusion) for an x-stable homogeneous span."""
    pieces, _, shifts = ambient(field, degs, xmat, len(degs))
    basis = bases(field, split(field, degs, vectors))
    dims, sx = sub_shifts(field, shifts, basis)
    sdegs = [s for s, k in dims.items() for _ in range(k)]
    spieces, k = indices_by_degree(sdegs), len(sdegs)
    incl = assemble(field, pieces, spieces,
                    {s: [list(c) for c in zip(*basis[s].rows)] for s in dims},
                    len(degs), k)
    return sdegs, assemble(field, spieces, spieces, sx, k, k, step=1), incl


def complement(field, dims, shifts, bases):
    """(dims, shifts, proj) of the quotient by the span with per-degree
    bases `bases`.  In each degree the complement is the unit vectors that
    the span's piece misses, taken greedily in order, and proj[s] is the
    projection along the span onto their coordinates; x on the quotient is
    proj x on the complement's columns.

    The span's Echelon rows have unit pivot columns, so its annihilator has
    the basis e_f - sum_r row_r[f] e_(p_r) over the non-pivot columns f.
    The reduced row echelon form of that basis is the projection: it kills
    the span, its pivot columns are the greedy complement (a unit vector is
    missed iff its column is independent of the earlier ones), and it is
    the identity there.
    """
    qdims, local, proj = {}, {}, {}
    for s, n in dims.items():
        ech = bases.get(s)
        rows, pivots = (ech.rows, ech.pivots) if ech is not None else ([], [])
        ann = []
        for f in range(n):
            if f not in pivots:
                q = [field.zero] * n
                q[f] = field.one
                for row, p in zip(rows, pivots):
                    q[p] = field.neg(row[f])
                ann.append(q)
        proj[s], local[s] = linalg.rref(field, ann)
        if local[s]:
            qdims[s] = len(local[s])
    qshifts = {s: linalg.mat_mul(field, proj[s + 1],
                                 [[row[c] for c in local[s]] for row in x])
               for s, x in shifts.items() if s in qdims and s + 1 in qdims}
    return qdims, qshifts, proj


def quotient(m: RModule, spans) -> ModuleMap:
    """The projection of m onto the normal-form quotient by the span of the
    x-stable `spans`, {s: vectors of T_s}."""
    F = m.cfg.field
    dims = {s: len(idx) for s, idx in m.pieces().items()}
    qdims, qshifts, proj = complement(F, dims, _shifts(m), bases(F, spans))
    quo, to_real = _normal_form(m.cfg, qdims, qshifts)
    return ModuleMap.from_pieces(m, quo, {
        s: linalg.solve(F, to_real[s], p) if s in qdims else []
        for s, p in proj.items()})


def map_ker_cok_im_by_quotient(f: ModuleMap):
    """Kernel, cokernel and image in normal form, with structure maps, as
    `modules.map_ker_cok_im` returns them: the image is the normal form of
    the realization's span of f's columns, and the cokernel the quotient of
    the realization by that span."""
    src, tgt, F = f.src, f.tgt, f.src.cfg.field
    dims = src.pieces()
    incl = submodule(src, {s: linalg.nullspace(F, mat, cols=len(dims[s]))
                           for s, mat in f.pieces().items()})
    image = _image(f)
    imod, _ = _normal_form(tgt.cfg, *sub_shifts(F, _shifts(tgt), bases(F, image)))
    proj = quotient(tgt, image)
    if incl.src.dim + imod.dim != src.dim:
        raise RealizationError("rank-nullity violated")
    return (incl.src, incl), (proj.tgt, proj), imod


def quotient_realization(field, degs, xmat, sub_vectors):
    """(q_degs, q_x, projection) for the quotient by a submodule span; see
    `complement`."""
    pieces, dims, shifts = ambient(field, degs, xmat, len(degs))
    qdims, qx, proj = complement(field, dims, shifts,
                                 bases(field, split(field, degs, sub_vectors)))
    qdegs = [s for s, k in qdims.items() for _ in range(k)]
    qpieces, k = indices_by_degree(qdegs), len(qdegs)
    return (qdegs, assemble(field, qpieces, qpieces, qx, k, k, step=1),
            assemble(field, qpieces, pieces, proj, k, len(degs)))


def stable_graded_subspaces(field, degs, xmat):
    """All x-stable homogeneous subspaces of a graded realization.

    Returned as lists of ambient vectors; enumeration walks the degrees
    upward, at each level listing the subspaces containing the x-image of
    the level below.
    """
    elements = _field_elements(field)
    by_deg = {}
    for i, s in enumerate(degs):
        by_deg.setdefault(s, []).append(i)
    levels = sorted(by_deg)
    results = []

    def rec(li, lower, chosen):
        if li == len(levels):
            results.append([v for level in chosen for v in level])
            return
        cols = by_deg[levels[li]]
        n = len(cols)
        lower_local = [[v[c] for c in cols] for v in lower]
        for local in _subspaces_containing(field, n, lower_local, elements):
            ambient = []
            for lv in local:
                w = [field.zero] * len(degs)
                for idx, c in enumerate(cols):
                    w[c] = lv[idx]
                ambient.append(w)
            nxt = []
            if li + 1 < len(levels) and levels[li + 1] == levels[li] + 1:
                nxt = [linalg.mat_vec(field, xmat, w) for w in ambient]
            rec(li + 1, nxt, chosen + [ambient])

    rec(0, [], [])
    del rec  # no closure cycle keeps the spaces alive
    return results


def projection_splits(field, top: RModule, flag_vectors):
    """Whether the projection pi_S onto some proper nonempty set S of the
    summands of `top` maps every member of a flag into itself: every S is
    tried, on each member's ambient vectors (`flag_vectors`, one list per
    member), with Echelon.contains."""
    owner = [t for t, _ in top.basis]
    members = []
    for vecs in flag_vectors:
        ech = linalg.Echelon(field)
        for v in vecs:
            ech.add(v)
        members.append((ech, vecs))
    return any(all(ech.contains([a if S >> owner[c] & 1 else field.zero
                                 for c, a in enumerate(v)])
                   for ech, vecs in members for v in vecs)
               for S in range(1, 2 ** len(top.summands) - 1))


def _preimage_by_jordan_tops(c, degs_l, kvecs):
    """Reference: the free basis of the preimage read off the chain tops of
    `decompose` on the span's realization, plus the omega-multiples."""
    F, d, m = c.field, c.d, len(degs_l)
    free = RModule.free(c, degs_l)
    sdegs, sx, incl = subspace_realization(F, free.basis_degrees(), x_matrix(free), kvecs)
    summands, basis = decompose(F, d, sdegs, sx)
    tops, top_degs, pos = [], [], 0
    for e, s in summands:
        tops.append(linalg.mat_vec(F, incl, basis[pos]))
        top_degs.append(s)
        pos += e
    columns = [[v[j * d + s - t] if 0 <= s - t < d else F.zero
                for j, t in enumerate(degs_l)] for v, s in zip(tops, top_degs)]
    degrees = list(top_degs)
    for j in range(m):
        columns.append(linalg.unit_vector(F, m, j))
        degrees.append(degs_l[j] + d)
    coeffs, kept_degs = _minimal_generators(F, columns, degrees, m)
    return GradedMatrix(F, coeffs, kept_degs, degs_l)


def jordan_by_kernels(field, d, dims, shifts):
    """Homogeneous Jordan decomposition of a graded nilpotent x.

    Returns (summands, to_real): the sorted (length, degree) pairs of the
    normal form, and for each degree s the matrix whose columns are the
    normal form's basis of T_s (one x^i v per chain v that reaches s, in
    summand order) in the given coordinates of T_s.  From the longest
    length j down, in each degree s the chains of length j start at the
    vectors of ker x^j that extend ker x^(j-1) plus the images in T_s of
    the longer chains; each kernel of each power on each piece is taken
    once, and the chains are checked to fill every piece independently.
    """
    # powers[s][j]: x^j on T_s, a dim T_(s+j) x dim T_s matrix, up to the
    # first that is 0
    powers = {}
    for s, n in dims.items():
        p = [linalg.identity(field, n)]
        while any(not field.is_zero(c) for row in p[-1] for c in row):
            if len(p) > d:
                raise RealizationError(NOT_NILPOTENT)
            x = shifts.get(s + len(p) - 1)
            p.append(linalg.mat_mul(field, x, p[-1]) if x is not None else [])
        powers[s] = p
    nil = max((len(p) - 1 for p in powers.values()), default=0)  # x^nil = 0

    def kernels_of(s):
        """ker x^j on T_s for j = 0..nil: 0 at j = 0, a nullspace while
        x^j != 0 (0 on a line), and all of T_s from then on."""
        n, p = dims[s], powers[s]
        whole = [linalg.unit_vector(field, n, i) for i in range(n)]
        out = [[]]
        for j in range(1, nil + 1):
            if j >= len(p) - 1:
                out.append(whole)
            else:
                out.append(linalg.nullspace(field, p[j], cols=n) if n > 1 else [])
        return out

    kernels = {s: kernels_of(s) for s in dims}
    # chains: [length, start degree, x^i v for i = 0, 1, ...]; on level j
    # every chain found so far (each longer than j) takes one more step of x,
    # by the shift block of the degree it has reached
    chains = []
    for j in range(nil, 0, -1):
        longer = {}  # s: the images x^(length - j) v in T_s, in chain order
        for _, start, seq in chains:
            at = start + len(seq) - 1  # the degree of seq[-1]
            seq.append(linalg.mat_vec(field, shifts[at], seq[-1]))
            longer.setdefault(at + 1, []).append(seq[-1])
        for s in dims:
            low, high, images = kernels[s][j - 1], kernels[s][j], longer.get(s, [])
            # the images of longer chains are independent modulo ker x^(j-1),
            # so when the counts fill ker x^j no chain starts here
            if len(high) == len(low) + len(images):
                continue
            ech = linalg.Echelon(field)
            for v in low + images:
                ech.add(v)
            for w in high:
                if ech.add(w):
                    chains.append([j, s, [w]])

    chains.sort(key=lambda c: (c[0], c[1]))
    if sum(length for length, _, _ in chains) != sum(dims.values()):
        raise RealizationError(NO_FILL)
    cols = {s: [] for s in dims}
    for _, s, seq in chains:
        for i, v in enumerate(seq):
            cols[s + i].append(v)
    to_real = {}
    for s, vecs in cols.items():
        to_real[s] = [list(row) for row in zip(*vecs)]
        if linalg.rank(field, to_real[s]) != dims[s]:
            raise RealizationError("Jordan chains are linearly dependent")
    return [(length, s) for length, s, _ in chains], to_real


# -- stable homs on explicit covers ---------------------------------------------


def stable_dim(field: Field, hom_basis, cover, x, y) -> int:
    """dim Hom(x, y) modulo the maps that factor through cover(y).

    hom_basis(a, b) is a k-basis of Hom(a, b); cover(y) is (P, p) with
    p: P -> y through which every map from a projective to y factors (a
    projective cover, or a counit for a smaller ideal).  Returns
    |Hom(x, y)| - dim span{p o g : g in Hom(x, P)}, the span taken over
    the flattened `scalars` of the composites.

    On the explicit covers it is the reference for the closed forms
    `modules.stable_hom_dim`, `fac_stable_hom_dim`, `chain_stable_hom_dim`
    and, with `nu_l_counit`, the left side of `census.hom_dim_compare`.
    """
    homs = hom_basis(x, y)
    if not homs:
        return 0
    proj, p = cover(y)
    through = linalg.Echelon(field)
    for g in hom_basis(x, proj):
        through.add([c for m in scalars(p @ g) for row in m for c in row])
    return len(homs) - through.dim


def nu_l_counit(y: Factorization):
    """(nu^l(Y^0), the counit nu^l(Y^0) -> Y): the identity of Y^0 taken
    back through the nu_l_left adjunction."""
    j = adjunction_transport(
        "nu_l_left", y, GradedMatrix.identity(y.cfg.field, y.degs(0)), forward=False
    )
    return j.src, j


# -- helpers only tests use ------------------------------------------------------


def module_iso(m: RModule, n: RModule) -> bool:
    if m.cfg != n.cfg:
        raise ValueError("config mismatch")
    return m.sorted_summands() == n.sorted_summands()


def _image(f: ModuleMap):
    """{s: the columns of f's degree piece s}, which span im f there."""
    return {s: [list(c) for c in zip(*mat)] for s, mat in f.pieces().items()}


def preimage_by_annihilator(p: ModuleMap, f: ModuleMap):
    """The preimage under p of the image of f (a map into p.tgt), as
    {s: a basis of its piece in degree s of p.src}: in each degree, the
    kernel of (the annihilator of the image's piece) o (p's piece)."""
    F = p.src.cfg.field
    image, src, tgt = _image(f), p.src.pieces(), p.tgt.pieces()
    out = {}
    for s, mat in p.pieces().items():
        ann = linalg.nullspace(F, image.get(s, []), cols=len(tgt.get(s, ())))
        out[s] = linalg.nullspace(F, linalg.mat_mul(F, ann, mat), cols=len(src[s]))
    return out


def bar_p_epic(m: RModule):
    """P/x^d P covering m; over k[x] this coincides with the projective cover."""
    return projective_cover(m)


def lift_along_epi(p: ModuleMap, f: ModuleMap):
    """g with p o g = f, or None when no lift exists."""
    if p.tgt != f.tgt:
        raise ValueError("targets differ")
    F = p.src.cfg.field
    cand = hom_basis(f.src, p.src)
    cols = [[c for row in (p @ g).blocks for c in row] for g in cand]
    target = [c for row in f.blocks for c in row]
    if not target:
        return ModuleMap.zero(f.src, p.src)
    coeffs = linalg.solve(F, [[col[r] for col in cols] for r in range(len(target))],
                          [[c] for c in target])
    if coeffs is None:
        return None
    blocks = linalg.combination(F, [c for c, in coeffs], [h.blocks for h in cand],
                                len(p.src.summands), len(f.src.summands))
    return ModuleMap(f.src, p.src, blocks, check=False)


def module_from_presentation(a: GradedMatrix, cfg: HypersurfaceConfig) -> RModule:
    """Normal form of cok(A) for a graded map of free S-modules."""
    return presentation_cokernel(a, cfg)[0].tgt


def presentation_cokernel_by_quotient(a: GradedMatrix,
                                      cfg: HypersurfaceConfig) -> ModuleMap:
    """The projection from the free cover onto cok(A) in normal form.

    The cokernel is the quotient of the free cover ⊕R(-b_j) by the image
    of a mod x^d, which the realization's columns span: the columns of a
    and their x-multiples.  Raises NotAnnihilated if x^d does not kill
    the cokernel.
    """
    F = cfg.field
    # x^d * I on the target, as the map from the target shifted up by d
    omega = GradedMatrix(
        F, linalg.identity(F, len(a.tgt_degs)), [t + cfg.d for t in a.tgt_degs],
        a.tgt_degs,
    )
    try:
        graded_solve(a, omega)
    except NoSolution:
        raise NotAnnihilated("x^d does not factor through the presentation")
    abar = reduced_module_map(a, cfg)
    return quotient(abar.tgt, _image(abar))


def factor_through(p: ModuleMap, q: ModuleMap) -> ModuleMap:
    """The map phi with q = phi o p, for an epi p and a map q on p's
    source, degree by degree: phi_s is q_s times a right inverse of p_s."""
    F = p.src.cfg.field
    down, up, pieces = p.pieces(), q.pieces(), {}
    for s, idx in p.tgt.pieces().items():
        lift = linalg.solve(F, down[s], linalg.identity(F, len(idx)),
                            cols=len(down[s][0]))
        if lift is None:
            raise RealizationError("projection is not surjective")
        pieces[s] = linalg.mat_mul(F, up[s], lift) if up.get(s) else []
    return ModuleMap.from_pieces(p.tgt, q.tgt, pieces)


def cok_by_quotient(x: Factorization):
    """(projections, chain): cok(x) with its cokernels taken by
    `presentation_cokernel_by_quotient`, each map lifted along one
    projection, pushed through X^k -> X^(k+1) mod x^d and projected along
    the next, degree by degree."""
    coks = [presentation_cokernel_by_quotient(g, x.cfg) for g in _walk(x, 0, x.l)[1:]]
    maps = [factor_through(p, q @ reduced_module_map(x.maps[k], x.cfg))
            for k, (p, q) in enumerate(zip(coks, coks[1:]), start=1)]
    return coks, MonoChain(x.cfg, [p.tgt for p in coks], maps)


def _hom_positions(x: Factorization, y: Factorization):
    """Admissible monomial positions (row, col) of each component of a map
    x -> y: the entries where the source degree reaches the target's."""
    return [[(r, c) for r, t in enumerate(y.degs(j)) for c, s in enumerate(x.degs(j)) if s >= t]
            for j in range(x.l + 1)]


def _hom_slots(x: Factorization, y: Factorization):
    """The positions of `_hom_positions` as (j, row, col) triples."""
    return [(j, r, c) for j, pos in enumerate(_hom_positions(x, y)) for r, c in pos]


def _facmap_to_vector(f: FacMap, slots):
    return [f.components[j].coeffs[r][c] for j, r, c in slots]


def graded_solve(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """The graded X with A X = B; raises NoSolution if none exists.

    Column c of X may use row r only where a.src_degs[r] <= b.src_degs[c],
    so the columns of B with one source degree share one k-linear
    elimination over the columns of A that reach them.  Free coordinates
    are set to zero; when A is injective the solution is unique.
    """
    if a.tgt_degs != b.tgt_degs:
        raise ValueError("target degree mismatch between A and B")
    F = a.field
    F.check(b.field)
    out = linalg.zeros(F, len(a.src_degs), len(b.src_degs))
    by_deg = {}
    for c, s in enumerate(b.src_degs):
        by_deg.setdefault(s, []).append(c)
    for s, cols in by_deg.items():
        reach = [r for r, t in enumerate(a.src_degs) if t <= s]
        aug = [[arow[r] for r in reach] + [brow[c] for c in cols]
               for arow, brow in zip(a.coeffs, b.coeffs)]
        red, pivots = linalg.rref(F, aug)
        if pivots and pivots[-1] >= len(reach):
            raise NoSolution(f"a column of source degree {s} is out of reach")
        for row, p in zip(red, pivots):
            for q, c in enumerate(cols):
                out[reach[p]][c] = row[len(reach) + q]
    return GradedMatrix(F, out, b.src_degs, a.src_degs)


def fac_validate_ranking_first(maps, cfg: HypersurfaceConfig, twist: int = 0):
    """`fac_validate` that ranks every factor before the division: NonMonic
    k for the first factor of less than full rank, then NoClosing if x^d
    does not factor through the product."""
    F = cfg.field
    if type(twist) is not int:
        return Invalid(f"twist {twist!r} is not an integer")
    if not maps:
        return Invalid("need at least one map")
    for k, a in enumerate(maps):
        if len(a.src_degs) != len(a.tgt_degs):
            return Invalid(f"NonSquare {k}")
    for k in range(len(maps) - 1):
        if maps[k].tgt_degs != maps[k + 1].src_degs:
            return Invalid(f"DegreeChainMismatch {k}")
    for k, a in enumerate(maps):
        if not a.is_injective():
            return Invalid(f"NonMonic {k}")
    product = maps[0]
    for a in maps[1:]:
        product = a @ product
    try:
        closing = product.shift(-cfg.d).solve(omega_map(F, maps[-1].tgt_degs, cfg.d))
    except NoSolution:
        return Invalid("NoClosing")
    return Factorization(cfg, maps, closing, twist)


def random_factorization_by_parts(cfg: HypersurfaceConfig, l: int, rng,
                                  m_max: int = 3, window: int = 2) -> Factorization:
    """Direct sum of m validated rank-1 factorizations, conjugated by
    unimodular changes U_k, with U_k^-1 = U_k.solve(identity)."""
    m = rng.randrange(1, m_max + 1)
    parts = []
    for _ in range(m):
        left = cfg.d
        powers = []
        for _ in range(l):
            a = rng.randrange(0, left + 1)
            powers.append(a)
            left -= a
        parts.append(
            rank1_factorization(cfg, powers, deg0=rng.randrange(0, window + 1))
        )
    x = parts[0]
    for p in parts[1:]:
        x = x.direct_sum(p)
    us = [random_unimodular(cfg.field, list(x.degs(k)), rng) for k in range(l + 1)]
    maps = []
    for k in range(l):
        u_inv = us[k].solve(GradedMatrix.identity(cfg.field, x.degs(k)))
        maps.append(us[k + 1] @ x.maps[k] @ u_inv)
    return fac_build(maps, cfg, "conjugated factorization")


def try_solve_right(a: PolyMatrix, b: PolyMatrix):
    try:
        return solve_right(a, b)
    except NoSolution:
        return None


@dataclass(frozen=True)
class Violation:
    position: tuple[int, int]
    expected_degree: int

    def __bool__(self):
        return False


def graded_check(mat, src_degs=None, tgt_degs=None):
    """True, or a Violation at the first entry of `mat` that is not a
    monomial of degree src_degs[i] - tgt_degs[j].

    `mat` is a PolyMatrix with its degree vectors, or a GradedMatrix, whose
    `.mat` is checked against its own vectors.
    """
    if isinstance(mat, GradedMatrix):
        mat, src_degs, tgt_degs = mat.mat, mat.src_degs, mat.tgt_degs
    for j, b in enumerate(tgt_degs):
        for i, a in enumerate(src_degs):
            p = mat.entries[j][i]
            want = a - b
            if p.is_zero():
                continue
            if want < 0 or p.degree != want or not p.is_monomial():
                return Violation(position=(j, i), expected_degree=want)
    return True


def from_poly(mat: PolyMatrix, src_degs, tgt_degs) -> GradedMatrix:
    """The graded map of a homogeneous polynomial matrix: the bridge from
    the k[x] toolkit to the graded path.  Raises ValueError on degree
    vectors of the wrong length, or on an entry that is not a monomial of
    degree a_i - b_j."""
    if len(src_degs) != mat.cols or len(tgt_degs) != mat.rows:
        raise ValueError("degree vector length mismatch")
    bad = graded_check(mat, src_degs, tgt_degs)
    if bad is not True:
        raise ValueError(
            f"entry {bad.position} not homogeneous of degree {bad.expected_degree}"
        )
    coeffs = [
        [p.coeff(a - b) for a, p in zip(src_degs, row)]
        for b, row in zip(tgt_degs, mat.entries)
    ]
    return GradedMatrix(mat.field, coeffs, src_degs, tgt_degs)


def homothety(field: Field, degs, power: int) -> GradedMatrix:
    """x^power * I as a map ⊕S(-a) -> ⊕S(-(a+power))... i.e. degs -> degs shifted."""
    mono = Polynomial.monomial(field, power)
    return from_poly(PolyMatrix.scalar(field, len(degs), mono),
                     [a + power for a in degs], degs)


def from_ints(field: Field, ints) -> Polynomial:
    return Polynomial(field, [field.from_int(n) for n in ints])


def _all_flag_objects(cfg: HypersurfaceConfig, tops, length: int, build):
    """build(cfg, top, spaces)(flag), shifted to minimum degree 0, for every
    flag of `length` x-stable graded subspaces of each top in `tops`: no
    top, orbit or flag is pruned."""
    F = cfg.field
    for top in tops:
        spaces = census.stable_graded_subspaces(F, top) if length else []
        make = build(cfg, top, spaces)
        for flag in _subspace_flags(F, spaces, length):
            x = make(flag)
            yield x.shift(-x.min_degree())


def _flag_factorizations(cfg: HypersurfaceConfig, l: int, m_max: int,
                         window: int):
    """Every flag factorization within bounds, shifted to minimum degree 0.

    Ranks run to m_max and the last degree vector over [0, window]
    normalized to minimum 0; every valid graded factorization with those
    invariants appears at least once.
    """
    return _all_flag_objects(cfg, _fac_tops(cfg, m_max, window), l, _fac_build)


def _flag_chains(cfg: HypersurfaceConfig, l: int, dim_max: int, window: int):
    """Every flag chain of l-1 monos with top dimension <= dim_max and top
    generator degrees over [0, window], shifted to minimum degree 0."""
    tops = _top_modules(cfg, dim_max, window)
    return _all_flag_objects(cfg, tops, l - 1, _chain_build)


def parser_by_name_chain() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="facto",
        description="graded matrix factorizations of x^d and chains of "
        "monomorphisms over k[x]/(x^d)",
    )
    sub = p.add_subparsers(dest="command", required=True)
    specs = {
        "validate": "validate a factorization file and print its closing map",
        "cok": "apply the cokernel functor to a factorization",
        "reconstruct": "rebuild a factorization from a chain of monos",
        "rotate": "rotate a factorization (--steps, negative for inverse)",
        "nu": "build the projective factorization nu^k on given degrees",
        "resolve": "nu-resolution of a factorization (--side epic|monic)",
        "stable-hom": "stable hom dimension between two objects in a file",
        "census": "classify both sides within bounds and match them",
        "selftest": "run randomized property checks",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--field", default="fp:5",
                        help="q or fp:<p> (default fp:5)")
        sp.add_argument("--d", type=int, default=None, help="exponent of x^d")
        sp.add_argument("--l", type=int, default=None,
                        help="factorizations have l+1 factors")
        sp.add_argument("--in", dest="infile", default=None,
                        help="input JSON file")
        sp.add_argument("--out", default=None, help="output file (atomic)")
        sp.add_argument("--seed", type=int, default=0, help={
            "census": "accepted; the census is exact and does not depend on it",
            "selftest": "seed of the random inputs that the checks run on",
        }.get(name, "accepted; this command is deterministic and ignores it"))
        if name == "rotate":
            sp.add_argument("--steps", type=int, default=1)
        if name == "nu":
            sp.add_argument("--k", type=int, default=None)
            sp.add_argument("--degs", default=None,
                            help="comma-separated generator degrees")
        if name == "resolve":
            sp.add_argument("--side", choices=("epic", "monic"),
                            default="epic")
        if name == "census":
            sp.add_argument("--bounds", default="m=1,dim=2,window=2",
                            help="m=<int>,dim=<int>,window=<int>")
    return p
