"""Finitely generated graded modules over R = k[x]/(x^d).

An `RModule` is a direct sum of cyclic pieces (R/(x^e))(-s), recorded as a
list of (e, s) pairs.  A `ModuleMap` is a k-matrix on generators: it is
R-linear by a closed-form condition on its entries, and composition is
the matrix product.  Each module also carries a realization as a graded
k-vector space with a degree-raising x-operator, a view derived from the
generators.  A realization is the direct sum of its degree pieces T_s, and
x is a set of shift blocks T_s -> T_{s+1}, so kernels, submodules, Jordan
normal forms and ranks reduce to small exact linear algebra on one piece
at a time (`pieces`); the Jordan normal form is one ascending sweep with
one elimination per shift block, and no power of x is formed.  A map is
read there as its pieces T_s -> T_s (`ModuleMap.pieces`), a subspace as
{s: vectors of T_s}, and every submodule is built by `submodule`, which
returns the inclusion with its source in normal form; `kernel` is the
submodule of the nullspaces of a map's pieces.  A cokernel is no quotient
of a realization: `presentation_cokernel` is a graded elimination on the
generators of a presentation, a homogeneous matrix over k[x] (the column
reduction of persistence), which reads the normal form, the projection
and a section off the generators and decides by itself whether x^d kills
the cokernel.  The cokernel of a module map f and its image src / ker f
are eliminations of the presentations `_relations` of f and of ker f's
inclusion, and the preimage of im g in the free cover P of g's target is
the kernel of P ->> cok g (`preimage`).  Mono and epi are read on the
generators too, on the socles and the heads (`is_mono_epi`).  With `lift`,
which solves a map through a mono piece by piece, the realization stays in
this module: the other modules take submodules as inclusions and read no
degree piece, except the census, which lists subspaces piece by piece.
The zero module (no summands) is a first-class value.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .fields import Field
from .pieces import (
    RealizationError,
    ambient,
    assemble,
    bases,
    indices_by_degree,
    jordan,
    sub_shifts,
)
from .polymat import GradedMatrix, declared_int, expect_json


class NotAnnihilated(Exception):
    """The presented cokernel is not killed by x^d."""


@dataclass(frozen=True)
class HypersurfaceConfig:
    """Fixes f = x^d: tau is the grade shift by d, omega is x^d."""

    d: int
    field: Field

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")


class RModule:
    """Direct sum of (R/(x^e_t))(-s_t); summand order is kept as given."""

    __slots__ = ("cfg", "summands", "_basis")

    def __init__(self, cfg: HypersurfaceConfig, summands):
        summands = tuple((int(e), int(s)) for e, s in summands)
        for e, _ in summands:
            if not (1 <= e <= cfg.d):
                raise ValueError(f"socle length {e} outside [1, {cfg.d}]")
        self.cfg = cfg
        self.summands = summands
        # flattened realization basis: (summand index, power) pairs
        self._basis = tuple(
            (t, i) for t, (e, _) in enumerate(summands) for i in range(e)
        )

    # structure ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._basis)

    @property
    def basis(self):
        return self._basis

    def basis_degrees(self):
        return [self.summands[t][1] + i for t, i in self._basis]

    def pieces(self):
        """The degree pieces T_s of the realization: {s: the flat indices of
        its basis}, in ascending s.  T_s holds one basis vector x^(s - s_t)
        gen_t for each summand t that reaches degree s, in summand order."""
        return indices_by_degree(self.basis_degrees())

    def is_zero(self) -> bool:
        return not self.summands

    def is_free(self) -> bool:
        return all(e == self.cfg.d for e, _ in self.summands)

    def sorted_summands(self):
        return tuple(sorted(self.summands))

    def shift(self, t: int) -> "RModule":
        return RModule(self.cfg, [(e, s + t) for e, s in self.summands])

    def direct_sum(self, other: "RModule") -> "RModule":
        if other.cfg != self.cfg:
            raise ValueError("config mismatch")
        return RModule(self.cfg, self.summands + other.summands)

    def min_degree(self):
        return min((s for _, s in self.summands), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, RModule)
            and self.cfg == other.cfg
            and self.summands == other.summands
        )

    def __hash__(self):
        return hash((self.cfg, self.summands))

    def __repr__(self):
        if not self.summands:
            return "RModule(0)"
        body = " + ".join(f"R/(x^{e})(-{s})" for e, s in self.summands)
        return f"RModule({body}; d={self.cfg.d})"

    def to_json(self):
        return {"d": self.cfg.d, "summands": [list(p) for p in self.summands]}

    @classmethod
    def from_json(cls, cfg: HypersurfaceConfig, data) -> "RModule":
        if declared_int(expect_json(data, dict, "module"), "d", cfg.d) != cfg.d:
            raise ValueError("module d does not match config")
        summands = expect_json(data["summands"], list, "module summands")
        for p in summands:
            if any(type(v) is not int for v in expect_json(p, list, "summand")):
                raise TypeError(f"summand {p!r}: entries must be integers")
        return cls(cfg, [tuple(p) for p in summands])

    @classmethod
    def zero(cls, cfg: HypersurfaceConfig) -> "RModule":
        return cls(cfg, ())

    @classmethod
    def free(cls, cfg: HypersurfaceConfig, gen_degs) -> "RModule":
        return cls(cfg, [(cfg.d, s) for s in gen_degs])


# module maps ------------------------------------------------------------


class ModuleMap:
    """Degree-0 x-equivariant map, stored by generator-image coefficients.

    blocks[u][t] is the scalar c in gen_t -> c * x^(s_t - s_u) * gen_u.
    The blocks are normalized (entries whose monomial image is zero are
    dropped), validity is the closed form of `commutes_with_x`, and
    composition is the product of the block matrices.  The block matrix
    is the generator matrix that iso, locality, mono and epi tests read;
    its only k-matrix view on the realization is `pieces()`, degree by
    degree, which serves kernels, images and ranks.
    """

    __slots__ = ("src", "tgt", "blocks")

    def __init__(self, src: RModule, tgt: RModule, blocks, check: bool = True):
        if src.cfg != tgt.cfg:
            raise ValueError("config mismatch")
        F = src.cfg.field
        norm = []
        for u, (eu, su) in enumerate(tgt.summands):
            row = []
            for t, (et, st) in enumerate(src.summands):
                c = blocks[u][t]
                j0 = st - su
                if not F.is_zero(c) and (j0 < 0 or j0 >= eu):
                    if j0 < 0:
                        raise ValueError(
                            f"no degree-0 map from summand {t} to {u} (negative twist)"
                        )
                    c = F.zero  # image monomial already vanishes
                row.append(c)
            norm.append(tuple(row))
        self.src = src
        self.tgt = tgt
        self.blocks = tuple(norm)
        if check and not self.commutes_with_x():
            raise ValueError("map does not commute with x (not R-linear)")

    def pieces(self):
        """The realization degree by degree: {s: the matrix T_s(src) ->
        T_s(tgt)} for every degree s of src, with no rows where tgt has no
        degree s.  The row of x^j gen_u and the column of x^i gen_t in one
        degree meet at blocks[u][t], as j - i = s_t - s_u."""
        src = self.src.pieces()
        return self._pieces(src, src if self.tgt == self.src else self.tgt.pieces())

    def _pieces(self, src_pieces, tgt_pieces):
        """`pieces()` on the given `RModule.pieces` of src and tgt."""
        tb, sb = self.tgt.basis, self.src.basis
        out = {}
        for s, cols in src_pieces.items():
            ts = [sb[c][0] for c in cols]
            out[s] = [[self.blocks[tb[k][0]][t] for t in ts]
                      for k in tgt_pieces.get(s, ())]
        return out

    def commutes_with_x(self) -> bool:
        """Whether the map is R-linear: x^e_t gen_t = 0 must go to
        c x^(s_t - s_u + e_t) gen_u = 0, so every nonzero block (u, t) has
        s_t - s_u + e_t >= e_u.  On the realization only the columns of
        x^(e_t - 1) gen_t can fail x f = f x, and the blocks of different u
        land in different rows there, so no two terms cancel."""
        F = self.src.cfg.field
        return all(F.is_zero(c) or st - su + et >= eu
                   for (eu, su), row in zip(self.tgt.summands, self.blocks)
                   for (et, st), c in zip(self.src.summands, row))

    @classmethod
    def from_pieces(cls, src: RModule, tgt: RModule, pieces) -> "ModuleMap":
        """Recover block form from the realization's degree pieces, written
        as `pieces()` writes them; validates agreement.  The column of gen_t
        lies in degree s_t, and its rows there are the x^(s_t - s_u) gen_u."""
        F = src.cfg.field
        blocks = [[F.zero] * len(src.summands) for _ in tgt.summands]
        src_pieces, tgt_pieces = src.pieces(), tgt.pieces()
        for s, cols in src_pieces.items():
            for c, k in enumerate(cols):
                t, i = src.basis[k]
                if i == 0:
                    for row, kk in zip(pieces[s], tgt_pieces.get(s, ())):
                        blocks[tgt.basis[kk][0]][t] = row[c]
        f = cls(src, tgt, blocks)
        if f._pieces(src_pieces, tgt_pieces) != pieces:
            raise ValueError("realization is not a degree-0 equivariant map")
        return f

    # constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, src: RModule, tgt: RModule) -> "ModuleMap":
        F = src.cfg.field
        return cls(
            src, tgt, [[F.zero] * len(src.summands) for _ in tgt.summands], check=False
        )

    @classmethod
    def identity(cls, m: RModule) -> "ModuleMap":
        return cls(m, m, linalg.identity(m.cfg.field, len(m.summands)), check=False)

    # arithmetic -----------------------------------------------------------

    def __matmul__(self, other: "ModuleMap") -> "ModuleMap":
        """The block product: every term g_wv f_vt of gen_t's image is the
        monomial x^(s_t - s_w) gen_w."""
        if other.tgt != self.src:
            raise ValueError("composition mismatch")
        if self.src.is_zero():
            return ModuleMap.zero(other.src, self.tgt)
        return ModuleMap(other.src, self.tgt,
                         linalg.mat_mul(self.src.cfg.field, self.blocks,
                                        other.blocks), check=False)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        if self.src != other.src or self.tgt != other.tgt:
            raise ValueError("shape mismatch")
        F = self.src.cfg.field
        blocks = [
            [F.add(a, b) for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.blocks, other.blocks)
        ]
        return ModuleMap(self.src, self.tgt, blocks, check=False)

    def scale(self, c) -> "ModuleMap":
        F = self.src.cfg.field
        return ModuleMap(
            self.src, self.tgt, [[F.mul(c, b) for b in row] for row in self.blocks],
            check=False,
        )

    def __neg__(self) -> "ModuleMap":
        return self.scale(self.src.cfg.field.from_int(-1))

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return self + (-other)

    def direct_sum(self, other: "ModuleMap") -> "ModuleMap":
        F = self.src.cfg.field
        src = self.src.direct_sum(other.src)
        tgt = self.tgt.direct_sum(other.tgt)
        ns, no = len(self.src.summands), len(other.src.summands)
        blocks = []
        for u in range(len(self.tgt.summands)):
            blocks.append(list(self.blocks[u]) + [F.zero] * no)
        for u in range(len(other.tgt.summands)):
            blocks.append([F.zero] * ns + list(other.blocks[u]))
        return ModuleMap(src, tgt, blocks, check=False)

    def is_zero(self) -> bool:
        F = self.src.cfg.field
        return all(F.is_zero(c) for row in self.blocks for c in row)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.blocks == other.blocks
        )

    def __repr__(self):
        return f"ModuleMap({self.src} -> {self.tgt}, blocks={self.blocks})"

    def to_json(self):
        F = self.src.cfg.field
        return {
            "src": self.src.to_json(),
            "tgt": self.tgt.to_json(),
            "blocks": [[F.to_json(c) for c in row] for row in self.blocks],
        }

    @classmethod
    def from_json(cls, cfg: HypersurfaceConfig, data) -> "ModuleMap":
        expect_json(data, dict, "module map")
        src = RModule.from_json(cfg, data["src"])
        tgt = RModule.from_json(cfg, data["tgt"])
        rows = expect_json(data["blocks"], list, "map blocks")
        blocks = [[cfg.field.parse(c) for c in expect_json(row, list, "block row")]
                  for row in rows]
        if len(blocks) != len(tgt.summands) or any(
                len(row) != len(src.summands) for row in blocks):
            raise ValueError("map blocks do not match the summands")
        return cls(src, tgt, blocks)


# submodules on degree pieces (`pieces`) -----------------------------------


def _shifts(m: RModule):
    """x on m's degree pieces, read off the summands: the 0/1 blocks
    T_s -> T_{s+1} sending x^i gen_t (flat index k) to x^(i+1) gen_t (flat
    index k + 1) while i + 1 < e_t."""
    F = m.cfg.field
    pieces = m.pieces()
    out = {}
    for s, cols in pieces.items():
        rows = pieces.get(s + 1)
        if rows is None:
            continue
        at = {k: r for r, k in enumerate(rows)}
        out[s] = block = linalg.zeros(F, len(rows), len(cols))
        for c, k in enumerate(cols):
            t, i = m.basis[k]
            if i + 1 < m.summands[t][0]:
                block[at[k + 1]][c] = F.one
    return out


def _normal_form(cfg: HypersurfaceConfig, dims, shifts):
    """(module, to_real): `pieces.jordan` with its summands as a module."""
    summands, to_real = jordan(cfg.field, cfg.d, dims, shifts)
    return RModule(cfg, summands), to_real


def submodule(m: RModule, spans) -> ModuleMap:
    """The inclusion of the normal-form submodule of m spanned by the
    x-stable `spans`, {s: vectors of T_s}.  The inclusion depends on the
    order in which `spans` fill each degree's Echelon, not only on the
    subspace (a recombined piece may give another, isomorphic one): the
    census passes RREF pieces, so its reports are functions of the
    subspaces, and `kernel` passes `linalg.nullspace` output."""
    F = m.cfg.field
    basis = bases(F, spans)
    dims, shifts = sub_shifts(F, _shifts(m), basis)
    sub, to_real = _normal_form(m.cfg, dims, shifts)
    return ModuleMap.from_pieces(sub, m, {
        s: linalg.mat_mul(F, [list(c) for c in zip(*basis[s].rows)], to_real[s])
        for s in dims})


# ambient realizations -------------------------------------------------------


def decompose(field, d, degs, xmat):
    """Homogeneous Jordan decomposition of a graded nilpotent x-operator.

    Returns (summands, basis) where summands is the sorted list of
    (length, degree) pairs and basis the list of columns realizing the
    normal form: for each summand, the chain v, xv, ..., x^(e-1)v.
    """
    mod, to_real = realization_to_module(HypersurfaceConfig(d, field), degs, xmat)
    return list(mod.summands), [list(col) for col in zip(*to_real)]


def realization_to_module(cfg: HypersurfaceConfig, degs, xmat):
    """Normal-form module plus the change of basis into the realization.

    Returns (module, to_real): to_real maps normal-form coordinates into
    the given realization, and is invertible, as the Jordan chains are a
    basis of every degree piece.
    """
    pieces, dims, shifts = ambient(cfg.field, degs, xmat, cfg.d)
    mod, to_real = _normal_form(cfg, dims, shifts)
    return mod, assemble(cfg.field, pieces, mod.pieces(), to_real,
                         len(degs), len(degs))


# operations ---------------------------------------------------------------


def kernel(f: ModuleMap) -> ModuleMap:
    """The inclusion of ker f: the nullspace of each degree piece of f,
    passed through `submodule`."""
    F, dims = f.src.cfg.field, f.src.pieces()
    return submodule(f.src, {s: linalg.nullspace(F, mat, cols=len(dims[s]))
                             for s, mat in f.pieces().items()})


def _relations(g: ModuleMap) -> GradedMatrix:
    """cok g presented over S on g's target generators: g's generator
    images at their source degrees s_t, then x^(e_u) gen_u at degree
    s_u + e_u for each target summand u."""
    F, tgt = g.src.cfg.field, g.tgt.summands
    return GradedMatrix(
        F, [list(row) + unit for row, unit in zip(g.blocks, linalg.identity(F, len(tgt)))],
        [s for _, s in g.src.summands] + [s + e for e, s in tgt], [s for _, s in tgt])


def map_ker_cok_im(f: ModuleMap):
    """Kernel, cokernel and image in normal form, with structure maps.

    Returns ((ker, incl), (cok, proj), im) where incl: ker -> src and
    proj: tgt -> cok are ModuleMaps; im comes with no inclusion map.  The
    kernel is a submodule of the realization (`kernel`); the cokernel and
    the image im f = src / ker f are graded eliminations of their
    presentations (`_relations`, `presentation_cokernel`), so the
    rank-nullity check compares two independent algorithms.
    """
    if not f.commutes_with_x():
        raise RealizationError("map is not R-linear: its kernel need not be x-stable")
    cfg, incl = f.src.cfg, kernel(f)
    p, _ = presentation_cokernel(_relations(f), cfg)
    imod = presentation_cokernel(_relations(incl), cfg)[0].tgt
    if incl.src.dim + imod.dim != f.src.dim:
        raise RealizationError("rank-nullity violated")
    return (incl.src, incl), (p.tgt, ModuleMap(f.tgt, p.tgt, p.blocks)), imod


def preimage(g: ModuleMap) -> ModuleMap:
    """The inclusion of the preimage of im g in the free cover P of g's
    target: ker(P ->> cok g), the kernel of the projection that the graded
    elimination of g's presentation (`_relations`) returns."""
    return kernel(presentation_cokernel(_relations(g), g.src.cfg)[0])


def lift(mono: ModuleMap, f: ModuleMap):
    """The map g with mono o g = f, or None when f does not factor through
    the mono: solved degree by degree on the pieces, where a degree that
    the mono's source lacks must carry a zero piece of f."""
    F, up, pieces = f.src.cfg.field, mono.pieces(), {}
    for s, mat in f.pieces().items():
        pieces[s] = linalg.solve(F, up.get(s, [[] for _ in mat]), mat)
        if pieces[s] is None:
            return None
    return ModuleMap.from_pieces(f.src, mono.src, pieces)


def rank(f: ModuleMap) -> int:
    """The k-rank of f: the sum of the ranks of its degree pieces."""
    return sum(linalg.rank(f.src.cfg.field, m) for m in f.pieces().values())


def is_mono_epi(f: ModuleMap):
    """(mono, epi) for R-linear f.  A nonzero submodule meets the socle, so
    f is mono iff injective on the socles, where block (u, t) counts iff
    s_t + e_t = s_u + e_u; by Nakayama f is epi iff onto the heads m / xm,
    where it counts iff s_t = s_u.  One rank of a generator matrix each."""
    F, src, tgt = f.src.cfg.field, f.src.summands, f.tgt.summands
    socles = [[c if st + et == su + eu else F.zero for (et, st), c in zip(src, row)]
              for (eu, su), row in zip(tgt, f.blocks)]
    heads = [[c if st == su else F.zero for (_, st), c in zip(src, row)]
             for (_, su), row in zip(tgt, f.blocks)]
    return linalg.rank(F, socles) == len(src), linalg.rank(F, heads) == len(tgt)


def hom_basis(m: RModule, n: RModule):
    """k-basis of degree-0 x-equivariant maps m -> n: the elementary maps
    gen_t -> x^j gen_u, j = s_t - s_u, with 0 <= j < e_u <= j + e_t.

    A map is fixed by where it sends the generators, and gen_t (degree
    s_t, killed by x^e_t) can go to c x^j gen_u in summand u: nonzero iff
    j < e_u, of degree s_t iff j = s_t - s_u >= 0, killed by x^e_t iff
    j + e_t >= e_u.  The order is row-major in (u, t), which is the order
    of the realization's commuting linear system: its nullspace has one
    free unknown per map, the last entry (x^(e_u-1) gen_u, x^(e_u-1-j)
    gen_t), and these positions increase with (u, t) as e_u - 1 - j < e_t.
    """
    F = m.cfg.field
    return [ModuleMap(m, n, linalg.scatter(F, len(n.summands), len(m.summands),
                                           [pos], [F.one]), check=False)
            for pos in hom_positions(m, n)]


def hom_positions(m: RModule, n: RModule):
    """The block positions (u, t) of `hom_basis`'s elementary maps, in its
    order."""
    if m.cfg != n.cfg:
        raise ValueError("config mismatch")
    return [(u, t) for u, (eu, su) in enumerate(n.summands)
            for t, (et, st) in enumerate(m.summands)
            if 0 <= st - su < eu <= st - su + et]


def projective_cover(m: RModule):
    """(P, p): the free module on m's generators and the canonical epi."""
    p_mod = RModule.free(m.cfg, [s for _, s in m.summands])
    return p_mod, ModuleMap(p_mod, m, linalg.identity(m.cfg.field, len(m.summands)))


def stable_hom_dim(m: RModule, n: RModule) -> int:
    """dim of Hom(m, n) modulo maps factoring through a projective.

    Every such map factors through the cover p: P = sum_u R(-s_u) ->> n,
    and p sends the elementary maps gen_t -> x^j gen'_u that span Hom(m, P),
    j = s_t - s_u and j + e_t >= d, to those of `hom_basis`, or to 0.  So
    the quotient counts the basis maps with j + e_t < d.
    """
    return sum(m.summands[t][1] - n.summands[u][1] + m.summands[t][0] < m.cfg.d
               for u, t in hom_positions(m, n))


# presentations ------------------------------------------------------------


def reduced_module_map(g: GradedMatrix, cfg: HypersurfaceConfig) -> ModuleMap:
    """g mod x^d as a map of free R-modules on g's degree vectors."""
    src = RModule.free(cfg, g.src_degs)
    tgt = RModule.free(cfg, g.tgt_degs)
    return ModuleMap(src, tgt, g.coeffs, check=False)


def presentation_cokernel(a: GradedMatrix, cfg: HypersurfaceConfig):
    """(projection, M): the projection from the free cover onto cok(A) in
    normal form, by a graded elimination on the generators, and its
    section on generators, the scalar matrix M whose column u writes the
    generator of summand u in the cover's generators, so that the
    projection's blocks times M are the identity.

    The rows of a are the cover's generators, of degrees b_j, and its
    columns the relations, of degrees a_i: entry c is c x^(a_i - b_j).
    The relations are reduced in ascending degree, as in the column
    reduction of persistence (Zomorodian-Carlsson), each written in the
    current basis g of the cover:
    - a term on a generator g_q pivoted earlier is x^(a_i - a_q) times q's
      relation x^(t_q) g_q, so it is cleared;
    - if a term is left, the relation pivots on its youngest generator p,
      of the largest degree b_p (the last one on ties).  Every term has
      b_j <= b_p, so the relation is c_p x^(a_i - b_p) g_p' with g_p' =
      g_p + sum_j (c_j / c_p) x^(b_p - b_j) g_j.  Taking g_p' for g_p keeps
      degrees and leaves the earlier relations as they are; it is a row
      operation on P (the coordinates of the cover's generators in g) and
      on the later relations, and a column operation on M.  Then g_p has
      length t_p = a_i - b_p.
    So cok(A) is the sum of S/(x^(t_p))(-b_p) over the pivots p and of
    S(-b_j) over the generators never pivoted, and x^d kills it iff every
    generator is pivoted with t_p <= d; else NotAnnihilated is raised.
    The summands with t_p >= 1 are sorted into normal form.
    """
    F, degs = cfg.field, a.tgt_degs
    n = len(degs)
    rels = [list(row) for row in a.coeffs]
    p_rows, m_rows = linalg.identity(F, n), linalg.identity(F, n)
    length, free = {}, set(range(n))
    for i in sorted(range(len(a.src_degs)), key=a.src_degs.__getitem__):
        support = [j for j in free if not F.is_zero(rels[j][i])]
        if not support:
            continue
        p = max(support, key=lambda j: (degs[j], j))
        inv = F.inv(rels[p][i])
        for j in support:
            if j != p:
                c = F.mul(rels[j][i], inv)
                rels[j] = [F.sub(v, F.mul(c, w)) for v, w in zip(rels[j], rels[p])]
                p_rows[j] = [F.sub(v, F.mul(c, w)) for v, w in zip(p_rows[j], p_rows[p])]
                for row in m_rows:
                    row[p] = F.add(row[p], F.mul(c, row[j]))
        free.discard(p)
        length[p] = a.src_degs[i] - degs[p]
    if free or any(t > cfg.d for t in length.values()):
        raise NotAnnihilated("x^d does not factor through the presentation")
    kept = sorted((t, degs[p], p) for p, t in length.items() if t)
    proj = ModuleMap(RModule.free(cfg, degs), RModule(cfg, [(t, s) for t, s, _ in kept]),
                     [p_rows[p] for _, _, p in kept], check=False)
    return proj, [[row[p] for _, _, p in kept] for row in m_rows]
