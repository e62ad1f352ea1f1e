"""Finitely generated graded modules over R = k[x]/(x^d).

An `RModule` is a direct sum of cyclic pieces (R/(x^e))(-s), recorded as a
list of (e, s) pairs.  A `ModuleMap` is a k-matrix on generators: it is
R-linear by a closed-form condition on its entries, and composition is
the matrix product.  Each module also carries a realization as a graded
k-vector space with a degree-raising x-operator, a view derived from the
generators; kernels, images, cokernels and ranks reduce to plain exact
linear algebra on these realizations.  Every submodule and quotient is
built by `submodule` and `quotient`, which return the inclusion and the
projection with the other end in normal form.  The zero module (no
summands) is a first-class value.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .endo import stable_dim
from .fields import Field
from .polymat import GradedMatrix, NoSolution, expect_json, graded_solve


class NotAnnihilated(Exception):
    """The presented cokernel is not killed by x^d."""


class RealizationError(Exception):
    """A realization breaks a module invariant: a vector that is not
    homogeneous, an x-operator that is not graded nilpotent of order <= d,
    or a span that is not x-stable; also a module computation that fails
    one of its own consistency checks."""


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

    def x_matrix(self):
        F = self.cfg.field
        n = self.dim
        idx = {b: k for k, b in enumerate(self._basis)}
        m = linalg.zeros(F, n, n)
        for k, (t, i) in enumerate(self._basis):
            nxt = idx.get((t, i + 1))
            if nxt is not None:
                m[nxt][k] = F.one
        return m

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
        if expect_json(data, dict, "module").get("d", cfg.d) != cfg.d:
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


def module_iso(m: RModule, n: RModule) -> bool:
    if m.cfg != n.cfg:
        raise ValueError("config mismatch")
    return m.sorted_summands() == n.sorted_summands()


# module maps ------------------------------------------------------------


class ModuleMap:
    """Degree-0 x-equivariant map, stored by generator-image coefficients.

    blocks[u][t] is the scalar c in gen_t -> c * x^(s_t - s_u) * gen_u.
    The blocks are normalized (entries whose monomial image is zero are
    dropped), validity is the closed form of `commutes_with_x`, and
    composition is the product of the block matrices.  The realization is
    a view derived from the blocks, for kernels, images, ranks and
    `scalars()`.
    """

    __slots__ = ("src", "tgt", "blocks", "_real")

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
        self._real = None
        if check and not self.commutes_with_x():
            raise ValueError("map does not commute with x (not R-linear)")

    # realization ---------------------------------------------------------

    def realization(self):
        """dim(tgt) x dim(src) matrix over k."""
        if self._real is not None:
            return self._real
        F = self.src.cfg.field
        m = linalg.zeros(F, self.tgt.dim, self.src.dim)
        tgt_idx = {b: k for k, b in enumerate(self.tgt.basis)}
        for col, (t, i) in enumerate(self.src.basis):
            st = self.src.summands[t][1]
            for u, (eu, su) in enumerate(self.tgt.summands):
                c = self.blocks[u][t]
                if F.is_zero(c):
                    continue
                j = st - su + i
                if j < eu:
                    m[tgt_idx[(u, j)]][col] = c
        self._real = m
        return m

    def scalars(self):
        """The components as k-matrices: the realization alone."""
        return [self.realization()]

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
    def from_realization(cls, src: RModule, tgt: RModule, real) -> "ModuleMap":
        """Recover block form from a realization matrix; validates agreement."""
        F = src.cfg.field
        tgt_idx = {b: k for k, b in enumerate(tgt.basis)}
        src_idx = {b: k for k, b in enumerate(src.basis)}
        blocks = []
        for u, (eu, su) in enumerate(tgt.summands):
            row = []
            for t, (et, st) in enumerate(src.summands):
                j0 = st - su
                if 0 <= j0 < eu:
                    row.append(real[tgt_idx[(u, j0)]][src_idx[(t, 0)]])
                else:
                    row.append(F.zero)
            blocks.append(row)
        f = cls(src, tgt, blocks)
        if f.realization() != [r[:] for r in real]:
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


# realization helpers ------------------------------------------------------


def _by_degree(degs):
    out = {}
    for k, s in enumerate(degs):
        out.setdefault(s, []).append(k)
    return out


def _degree_kernel(field, n, cols, mat):
    """Basis of the kernel of `mat` on the coordinates `cols` (one degree),
    each vector written out in all n coordinates."""
    out = []
    for v in linalg.nullspace(field, [[row[c] for c in cols] for row in mat],
                              cols=len(cols)):
        w = [field.zero] * n
        for c, val in zip(cols, v):
            w[c] = val
        out.append(w)
    return out


def homogeneous_components(field, degs, vectors):
    """Split possibly-redundant homogeneous vectors into per-degree bases."""
    comps = {}
    for v in vectors:
        support = [k for k, c in enumerate(v) if not field.is_zero(c)]
        if not support:
            continue
        s = degs[support[0]]
        if any(degs[k] != s for k in support):
            raise RealizationError("vector is not homogeneous")
        comps.setdefault(s, linalg.Echelon(field)).add(v)
    return {s: [r[:] for r in e.rows] for s, e in comps.items()}


def decompose(field, d, degs, xmat):
    """Homogeneous Jordan decomposition of a graded nilpotent x-operator.

    Returns (summands, basis) where summands is the sorted list of
    (length, degree) pairs and basis the list of columns realizing the
    normal form: for each summand, the chain v, xv, ..., x^(e-1)v.
    """
    n = len(degs)
    if n == 0:
        return [], []
    # powers of x, whose per-degree kernels fix the chains
    powers = [linalg.identity(field, n)]
    while not all(field.is_zero(c) for row in powers[-1] for c in row):
        powers.append(linalg.mat_mul(field, xmat, powers[-1]))
        if len(powers) > d + 1:
            raise RealizationError("operator is not nilpotent of order <= d")
    nil = len(powers) - 1  # x^nil == 0

    pieces = sorted(_by_degree(degs).items())
    # kernels[j][i]: the kernel of x^j in degree pieces[i], computed once
    kernels = [[_degree_kernel(field, n, c, p) for _, c in pieces] for p in powers]
    chains = []  # (start vector, length, degree)
    for j in range(nil, 0, -1):
        for (s, _), low, high in zip(pieces, kernels[j - 1], kernels[j]):
            ech = linalg.Echelon(field)
            for v in low:
                ech.add(v)
            for v, length, sv in chains:
                if sv + (length - j) == s and length > j:
                    ech.add(linalg.mat_vec(field, powers[length - j], v))
            for w in high:
                if ech.add(w):
                    chains.append((w, j, s))

    chains.sort(key=lambda c: (c[1], c[2]))
    summands = [(length, s) for _, length, s in chains]
    basis = []
    for v, length, _ in chains:
        for i in range(length):
            basis.append(linalg.mat_vec(field, powers[i], v))
    if sum(e for e, _ in summands) != n:
        raise RealizationError("Jordan chains do not fill the space "
                               "(the operator does not raise degrees by 1)")
    return summands, basis


def realization_to_module(cfg: HypersurfaceConfig, degs, xmat):
    """Normal-form module plus the change of basis into the realization.

    Returns (module, to_real): to_real maps normal-form coordinates into
    the given realization, and is checked to be invertible.
    """
    summands, basis = decompose(cfg.field, cfg.d, degs, xmat)
    mod = RModule(cfg, summands)
    to_real = [list(row) for row in zip(*basis)]
    if linalg.rank(cfg.field, to_real) != len(degs):
        raise RealizationError("Jordan chains are linearly dependent")
    return mod, to_real


def subspace_realization(field, degs, xmat, vectors):
    """(sub_degs, sub_x, inclusion) for an x-stable homogeneous span."""
    comps = homogeneous_components(field, degs, vectors)
    basis, sdegs = [], []
    for s in sorted(comps):
        for v in comps[s]:
            basis.append(v)
            sdegs.append(s)
    k = len(basis)
    incl = [[basis[c][r] for c in range(k)] for r in range(len(degs))]
    # coordinates of x * basis vector in the sub-basis
    sx = linalg.solve(field, incl, linalg.mat_mul(field, xmat, incl), cols=k)
    if sx is None:
        raise RealizationError("span is not x-stable")
    return sdegs, sx, incl


def quotient_realization(field, degs, xmat, sub_vectors):
    """(q_degs, q_x, projection) for the quotient by a submodule span.

    In each degree the complement is the standard basis vectors that the
    span's piece misses, and the projection rows are the complement's rows
    of the inverse of [span piece | complement] on that degree's
    coordinates.  q_x is the projection of x on the complement's columns."""
    n = len(degs)
    comps = homogeneous_components(field, degs, sub_vectors)
    comp_cols, proj = [], []  # complement: standard basis indices
    for s, cols in sorted(_by_degree(degs).items()):
        sub_basis = comps.get(s, [])
        ech = linalg.Echelon(field)
        for v in sub_basis:
            ech.add(v)
        local = [c for c in cols if ech.add(linalg.unit_vector(field, n, c))]
        full = [[v[r] for v in sub_basis] + [field.one if c == r else field.zero
                                            for c in local] for r in cols]
        inv = linalg.invert(field, full)
        if inv is None:
            raise RealizationError("quotient complement does not span")
        for row in inv[len(sub_basis):]:
            out = [field.zero] * n
            for c, val in zip(cols, row):
                out[c] = val
            proj.append(out)
        comp_cols += local
    q_degs = [degs[c] for c in comp_cols]
    q_x = linalg.mat_mul(field, proj, [[row[c] for c in comp_cols] for row in xmat])
    return q_degs, q_x, proj


def submodule(m: RModule, vecs) -> ModuleMap:
    """The inclusion of the normal-form submodule spanned by the x-stable
    homogeneous `vecs` (vectors in m's realization)."""
    F = m.cfg.field
    sdegs, sx, incl = subspace_realization(F, m.basis_degrees(), m.x_matrix(), vecs)
    sub, to_real = realization_to_module(m.cfg, sdegs, sx)
    return ModuleMap.from_realization(sub, m, linalg.mat_mul(F, incl, to_real))


def quotient(m: RModule, vecs) -> ModuleMap:
    """The projection onto the normal-form quotient of m by the span of
    the x-stable homogeneous `vecs` (vectors in m's realization)."""
    F = m.cfg.field
    qdegs, qx, proj = quotient_realization(F, m.basis_degrees(), m.x_matrix(), vecs)
    quo, to_real = realization_to_module(m.cfg, qdegs, qx)
    return ModuleMap.from_realization(m, quo, linalg.solve(F, to_real, proj))


# operations ---------------------------------------------------------------


def _image_vectors(f: ModuleMap):
    """Homogeneous spanning set of the image inside tgt's realization."""
    return [list(col) for col in zip(*f.realization())]


def homogeneous_kernel(field, degs, mat):
    """Homogeneous basis of the kernel of `mat` (columns graded by degs),
    degree by degree."""
    return [w for _, cols in sorted(_by_degree(degs).items())
            for w in _degree_kernel(field, len(degs), cols, mat)]


def map_ker_cok_im(f: ModuleMap):
    """Kernel, cokernel and image in normal form, with structure maps.

    Returns ((ker, incl), (cok, proj), im) where incl: ker -> src and
    proj: tgt -> cok are ModuleMaps; im comes with no inclusion map.
    """
    src, tgt, F = f.src, f.tgt, f.src.cfg.field
    incl = submodule(src, homogeneous_kernel(F, src.basis_degrees(), f.realization()))
    ivecs = _image_vectors(f)
    sdegs, sx, _ = subspace_realization(F, tgt.basis_degrees(), tgt.x_matrix(), ivecs)
    imod, _ = realization_to_module(tgt.cfg, sdegs, sx)
    proj = quotient(tgt, ivecs)
    if incl.src.dim + imod.dim != src.dim:
        raise RealizationError("rank-nullity violated")
    return (incl.src, incl), (proj.tgt, proj), imod


def is_mono_epi(f: ModuleMap):
    F = f.src.cfg.field
    r = f.realization()
    rk = linalg.rank(F, r) if r else 0
    return rk == f.src.dim, rk == f.tgt.dim


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


def bar_p_epic(m: RModule):
    """P/x^d P covering m; over k[x] this coincides with the projective cover."""
    return projective_cover(m)


def stable_hom_dim(m: RModule, n: RModule) -> int:
    """dim of Hom(m, n) modulo maps factoring through a projective.

    Every map through a projective factors through the projective cover
    of n, so the quotient is Hom(m, n) / (p o Hom(m, P(n))).
    """
    return stable_dim(m.cfg.field, hom_basis, projective_cover, m, n)


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


# presentations ------------------------------------------------------------


def reduced_module_map(g: GradedMatrix, cfg: HypersurfaceConfig) -> ModuleMap:
    """g mod x^d as a map of free R-modules on g's degree vectors."""
    src = RModule.free(cfg, g.src_degs)
    tgt = RModule.free(cfg, g.tgt_degs)
    return ModuleMap(src, tgt, g.coeffs, check=False)


def module_from_presentation(a: GradedMatrix, cfg: HypersurfaceConfig) -> RModule:
    """Normal form of cok(A) for a graded map of free S-modules."""
    return presentation_cokernel(a, cfg).tgt


def presentation_cokernel(a: GradedMatrix, cfg: HypersurfaceConfig) -> ModuleMap:
    """The projection from the free cover onto cok(A) in normal form.

    The cokernel is the quotient of the free cover ⊕R(-b_j) by the image
    of a mod x^d, which the realization's columns span: the columns of a
    and their x-multiples.  Raises NotAnnihilated if x^d does not kill
    the cokernel.
    """
    F = cfg.field
    # x^d * I on the target, as the map from the target shifted up by d
    omega = GradedMatrix.from_coeffs(
        F, linalg.identity(F, len(a.tgt_degs)), [t + cfg.d for t in a.tgt_degs],
        a.tgt_degs,
    )
    try:
        graded_solve(a, omega)
    except NoSolution:
        raise NotAnnihilated("x^d does not factor through the presentation")
    abar = reduced_module_map(a, cfg)
    return quotient(abar.tgt, _image_vectors(abar))
