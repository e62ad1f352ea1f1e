"""(l+1)-factor graded matrix factorizations of x^d.

A `Factorization` holds square injective GradedMatrices A^0..A^{l-1}
together with the unique closing map A^l satisfying
(A^{l-1} ... A^0) * A^l = x^d * I.  The integer `twist` records an overall
degree-shift power so that rotating l+1 times is observably the shift
functor; `rot_phase` tracks where in the rotation cycle the object sits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from .endo import is_local, search_iso, stable_dim
from .fields import Field
from .modules import HypersurfaceConfig
from .polymat import GradedMatrix, graded_solve


class FactorizationError(Exception):
    """A construction that should give a valid factorization or map did not."""


@dataclass(frozen=True)
class Invalid:
    reason: str

    def __bool__(self):
        return False


class Factorization:
    """Valid factorization; use fac_validate to construct from raw maps."""

    __slots__ = ("cfg", "l", "maps", "closing", "twist", "rot_phase")

    def __init__(self, cfg, maps, closing, twist=0, rot_phase=0):
        self.cfg = cfg
        self.l = len(maps)
        self.maps = tuple(maps)  # A^0 .. A^{l-1}
        self.closing = closing   # A^l : X^l -> tau X^0
        self.twist = twist
        self.rot_phase = rot_phase % (self.l + 1)

    @property
    def m(self) -> int:
        return len(self.maps[0].src_degs)

    def degs(self, k: int):
        """Generator degrees of X^k, k in 0..l."""
        if k < self.l:
            return self.maps[k].src_degs
        return self.maps[self.l - 1].tgt_degs

    def all_degs(self):
        return [list(self.degs(k)) for k in range(self.l + 1)]

    def is_zero(self) -> bool:
        return self.m == 0

    def min_degree(self):
        return min((s for k in range(self.l + 1) for s in self.degs(k)), default=0)

    def shift(self, t: int) -> "Factorization":
        return Factorization(
            self.cfg,
            [a.shift(t) for a in self.maps],
            self.closing.shift(t),
            self.twist,
            self.rot_phase,
        )

    def direct_sum(self, other: "Factorization") -> "Factorization":
        if other.cfg != self.cfg or other.l != self.l:
            raise ValueError("shape mismatch")
        if other.twist != self.twist:
            raise ValueError("twist mismatch")
        return Factorization(
            self.cfg,
            [a.direct_sum(b) for a, b in zip(self.maps, other.maps)],
            self.closing.direct_sum(other.closing),
            self.twist,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Factorization)
            and self.cfg == other.cfg
            and self.maps == other.maps
            and self.closing == other.closing
            and self.twist == other.twist
        )

    def __repr__(self):
        return (
            f"Factorization(l={self.l}, m={self.m}, twist={self.twist}, "
            f"maps={list(self.maps)})"
        )

    def to_json(self):
        return {
            "d": self.cfg.d,
            "l": self.l,
            "m": self.m,
            "twist": self.twist,
            "degs": self.all_degs(),
            "maps": [a.to_json() for a in self.maps],
        }

    @classmethod
    def from_json(cls, cfg: HypersurfaceConfig, data):
        if data.get("d", cfg.d) != cfg.d:
            raise ValueError("factorization d does not match config")
        maps = [GradedMatrix.from_json(cfg.field, a) for a in data["maps"]]
        out = fac_validate(maps, cfg, twist=data.get("twist", 0))
        if isinstance(out, Invalid):
            raise ValueError(f"invalid factorization: {out.reason}")
        return out


def prefix(x: Factorization, j: int) -> GradedMatrix:
    """A^{j-1} ... A^0 : X^0 -> X^j (identity for j = 0)."""
    return between(x, 0, j)


def between(x: Factorization, a: int, b: int) -> GradedMatrix:
    """A^{b-1} ... A^a : X^a -> X^b for 0 <= a <= b <= l."""
    g = GradedMatrix.identity(x.cfg.field, x.degs(a))
    for k in range(a, b):
        g = x.maps[k] @ g
    return g


def fac_validate(maps, cfg: HypersurfaceConfig, twist: int = 0):
    """Build a Factorization from A^0..A^{l-1}, or report why it fails."""
    F = cfg.field
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
    # (A^{l-1}..A^0) A^l = x^d I: the scalars of A^l invert the product's,
    # and A^l : X^l -> tau X^0, as tau lowers degree vectors by d
    inverse = linalg.invert(F, [list(row) for row in product.coeffs])
    src, tgt = maps[-1].tgt_degs, [s - cfg.d for s in maps[0].src_degs]
    for b, row in zip(tgt, inverse):
        for a, c in zip(src, row):
            if a < b and not F.is_zero(c):
                return Invalid("NoClosing")
    closing = GradedMatrix.from_coeffs(F, inverse, src, tgt)
    return Factorization(cfg, maps, closing, twist)


def fac_build(maps, cfg: HypersurfaceConfig, what: str) -> Factorization:
    """fac_validate(maps, cfg) for maps that a construction guarantees to
    be valid; FactorizationError naming `what` if they are not."""
    out = fac_validate(maps, cfg)
    if not isinstance(out, Factorization):
        raise FactorizationError(f"{what} is invalid: {out.reason}")
    return out


@dataclass(frozen=True)
class ZigzagViolation:
    k: int

    def __bool__(self):
        return False


def omega_map(field: Field, src_degs, d: int) -> GradedMatrix:
    """x^d * I as the map X -> tau X: the identity with degrees dropped by d."""
    return GradedMatrix.from_coeffs(
        field, linalg.identity(field, len(src_degs)), src_degs, [s - d for s in src_degs]
    )


def zigzag_check(x: Factorization):
    """omega_{X^k} = tau(A^{k-1}..A^0) A^l A^{l-1}..A^k for every k."""
    F = x.cfg.field
    for k in range(x.l):
        lhs = prefix(x, k).shift(-x.cfg.d) @ x.closing @ between(x, k, x.l)
        rhs = omega_map(F, x.degs(k), x.cfg.d)
        if lhs != rhs:
            return ZigzagViolation(k)
    return True


def nu(cfg: HypersurfaceConfig, l: int, k: int, degs) -> Factorization:
    """Trivial factorization nu^k(A) on the free module with given degrees."""
    if not (0 <= k <= l):
        raise ValueError("k out of range")
    F = cfg.field
    maps = []
    cur = list(degs)
    for j in range(l):
        if j == k:
            maps.append(omega_map(F, cur, cfg.d))
            cur = [s - cfg.d for s in cur]
        else:
            maps.append(GradedMatrix.identity(F, cur))
    return fac_build(maps, cfg, "nu")


def rotate(x: Factorization, inverse: bool = False) -> Factorization:
    """Theta(X) = (X^1, ..., X^l, tau X^0); Theta^{l+1} = tau (twist + 1)."""
    d = x.cfg.d
    if not inverse:
        maps = list(x.maps[1:]) + [x.closing]
        closing = x.maps[0].shift(-d)  # tau(A^0)
        phase, twist = x.rot_phase + 1, x.twist
        if phase == x.l + 1:
            # a full cycle applied tau once: renormalize degrees, log the twist
            phase, twist = 0, twist + 1
            maps = [a.shift(d) for a in maps]
            closing = closing.shift(d)
        return Factorization(x.cfg, maps, closing, twist, phase)
    maps = [x.closing.shift(d)] + list(x.maps[:-1])  # tau^{-1}(A^l)
    closing = x.maps[-1]
    phase, twist = x.rot_phase - 1, x.twist
    if phase < 0:
        phase, twist = x.l, twist - 1
        maps = [a.shift(-d) for a in maps]
        closing = closing.shift(-d)
    return Factorization(x.cfg, maps, closing, twist, phase)


def contract(x: Factorization) -> Factorization:
    """gamma(X) = (X^0 -> X^l by the full composite), same closing; l = 1."""
    return Factorization(x.cfg, [prefix(x, x.l)], x.closing, x.twist)


# morphisms -------------------------------------------------------------------


class FacMap:
    """Componentwise graded maps f^0..f^l with commuting squares."""

    __slots__ = ("src", "tgt", "components")

    def __init__(self, src: Factorization, tgt: Factorization, components,
                 check: bool = True):
        if src.l != tgt.l:
            raise ValueError("shape mismatch")
        self.src = src
        self.tgt = tgt
        self.components = tuple(components)
        if len(self.components) != src.l + 1:
            raise ValueError("need l+1 components")
        if check:
            for j in range(src.l):
                lhs = tgt.maps[j] @ self.components[j]
                rhs = self.components[j + 1] @ src.maps[j]
                if lhs != rhs:
                    raise ValueError(f"square {j} does not commute")
            # the closing square follows from the others; check it anyway
            lhs = self.components[0].shift(-src.cfg.d) @ src.closing
            rhs = tgt.closing @ self.components[src.l]
            if lhs != rhs:
                raise FactorizationError(
                    "closing square broken despite commuting squares")

    @classmethod
    def identity(cls, x: Factorization) -> "FacMap":
        F = x.cfg.field
        comps = [GradedMatrix.identity(F, x.degs(k)) for k in range(x.l + 1)]
        return cls(x, x, comps, check=False)

    @classmethod
    def zero(cls, src: Factorization, tgt: Factorization) -> "FacMap":
        F = src.cfg.field
        comps = [
            GradedMatrix.zero(F, src.degs(k), tgt.degs(k))
            for k in range(src.l + 1)
        ]
        return cls(src, tgt, comps, check=False)

    def __matmul__(self, other: "FacMap") -> "FacMap":
        return FacMap(
            other.src, self.tgt,
            [f @ g for f, g in zip(self.components, other.components)],
            check=False,
        )

    def __add__(self, other: "FacMap") -> "FacMap":
        return FacMap(
            self.src, self.tgt,
            [f + g for f, g in zip(self.components, other.components)],
            check=False,
        )

    def scale(self, c) -> "FacMap":
        return FacMap(
            self.src, self.tgt, [f.scale(c) for f in self.components], check=False
        )

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components)

    def is_iso(self) -> bool:
        return all(f.is_iso() for f in self.components)

    def scalars(self):
        """The components as k-matrices: the scalars of each f^j."""
        return [f.coeffs for f in self.components]

    def __eq__(self, other):
        return (
            isinstance(other, FacMap)
            and self.src == other.src
            and self.tgt == other.tgt
            and self.components == other.components
        )

    def to_json(self):
        return {"components": [f.to_json() for f in self.components]}


# hom spaces ------------------------------------------------------------------


def _hom_slots(x: Factorization, y: Factorization):
    """Admissible monomial positions (j, row, col) of a map x -> y."""
    slots = []
    for j in range(x.l + 1):
        xd, yd = x.degs(j), y.degs(j)
        for r in range(len(yd)):
            for c in range(len(xd)):
                if xd[c] - yd[r] >= 0:
                    slots.append((j, r, c))
    return slots


def _facmap_to_vector(f: FacMap, slots):
    return [f.components[j].coeffs[r][c] for j, r, c in slots]


def _vector_to_facmap(x, y, slots, vec):
    F = x.cfg.field
    mats = [linalg.zeros(F, len(y.degs(j)), len(x.degs(j))) for j in range(x.l + 1)]
    for (j, r, c), val in zip(slots, vec):
        mats[j][r][c] = val
    comps = [
        GradedMatrix.from_coeffs(F, mats[j], x.degs(j), y.degs(j))
        for j in range(x.l + 1)
    ]
    return FacMap(x, y, comps)


def fac_hom_basis(x: Factorization, y: Factorization):
    """k-basis of Hom(x, y): solve the commuting squares coefficientwise."""
    if x.cfg != y.cfg or x.l != y.l:
        raise ValueError("shape mismatch")
    F = x.cfg.field
    slots = _hom_slots(x, y)
    if not slots:
        return []
    idx = {s: i for i, s in enumerate(slots)}
    rows = []
    for j in range(x.l):
        # (B^j f^j - f^{j+1} A^j)[r][c] = 0, one scalar equation per position
        b, a = y.maps[j], x.maps[j]
        for r in range(len(y.degs(j + 1))):
            for c in range(len(x.degs(j))):
                row = [F.zero] * len(slots)
                touched = False
                for s in range(len(y.degs(j))):
                    co = b.coeffs[r][s]
                    if not F.is_zero(co) and (j, s, c) in idx:
                        k = idx[(j, s, c)]
                        row[k] = F.add(row[k], co)
                        touched = True
                for s in range(len(x.degs(j))):
                    co = a.coeffs[s][c]
                    if not F.is_zero(co) and (j + 1, r, s) in idx:
                        k = idx[(j + 1, r, s)]
                        row[k] = F.sub(row[k], co)
                        touched = True
                if touched:
                    rows.append(row)
    sols = linalg.nullspace(F, rows, cols=len(slots))
    return [_vector_to_facmap(x, y, slots, v) for v in sols]


# adjunction transports ---------------------------------------------------------


def adjunction_transport(which: str, x: Factorization, data, k: int = None,
                         forward: bool = True):
    """The three adjunctions of the trivial factorizations, both directions.

    which = "nu_l_left":  Hom(nu^l(A), X) = Hom(A, X^0);       g <-> g^0
    which = "nu_k_left":  Hom(nu^{k-1}(A), X) = Hom(tau A, X^k); g <-> g^k
    which = "nu_k_right": Hom(X^k, B) = Hom(X, nu^k(B));        g^k <-> g

    Forward take a FacMap and return a GradedMatrix; backward take a
    GradedMatrix and rebuild the FacMap by the composition formulas.
    """
    F = x.cfg.field
    d = x.cfg.d
    l = x.l
    if which == "nu_l_left":
        if forward:
            return data.components[0]
        h = data  # A -> X^0
        comps = [prefix(x, j) @ h for j in range(l + 1)]
        src = nu(x.cfg, l, l, h.src_degs)
        return FacMap(src, x, comps)
    if which == "nu_k_left":
        if k is None or not (1 <= k <= l):
            raise ValueError("need k in 1..l")
        if forward:
            return data.components[k]
        h = data  # tau A -> X^k
        g0 = (x.closing @ between(x, k, l) @ h).shift(d)  # tau^{-1}(...)
        comps = [g0]
        for j in range(1, l + 1):
            # at j = k the source chain map is omega_A, and g^k is h itself
            comps.append(h if j == k else x.maps[j - 1] @ comps[-1])
        src = nu(x.cfg, l, k - 1, [s + d for s in h.src_degs])
        return FacMap(src, x, comps)
    if which == "nu_k_right":
        if k is None or not (0 <= k <= l):
            raise ValueError("need k in 0..l")
        if forward:
            return data.components[k]
        h = data  # X^k -> B
        comps = []
        for j in range(l + 1):
            if j <= k:
                comps.append(h @ between(x, j, k))
            else:
                comps.append(
                    (h @ prefix(x, k)).shift(-d) @ x.closing @ between(x, j, l)
                )
        tgt = nu(x.cfg, l, k, h.tgt_degs)
        return FacMap(x, tgt, comps)
    raise ValueError(f"unknown adjunction {which!r}")


# nu-resolutions -----------------------------------------------------------------


class NuResolution(NamedTuple):
    middle: Factorization     # the trivial-sum object
    map: FacMap               # epic middle -> X, or monic X -> middle
    complement: Factorization  # kernel (epic side) / cokernel (monic side)
    complement_map: FacMap    # inclusion into / projection from middle


def fac_projective_cover(x: Factorization):
    """(P, p): P = nu^l(X^0) + sum_k nu^{k-1}(tau^{-1} X^k) and the epi
    p: P ->> X whose summands are the counits of the nu-adjunctions."""
    F = x.cfg.field
    pieces = [
        adjunction_transport(
            "nu_l_left", x, GradedMatrix.identity(F, x.degs(0)), forward=False
        )
    ] + [
        adjunction_transport(
            "nu_k_left", x, GradedMatrix.identity(F, x.degs(k)), k=k,
            forward=False,
        )
        for k in range(1, x.l + 1)
    ]
    middle = functools.reduce(Factorization.direct_sum, [q.src for q in pieces])
    comps = [
        functools.reduce(GradedMatrix.hstack, [q.components[j] for q in pieces])
        for j in range(x.l + 1)
    ]
    return middle, FacMap(middle, x, comps)


def nu_resolution(x: Factorization, side: str = "epic") -> NuResolution:
    """Lemma-style termwise split resolution by trivial factorizations.

    side="epic":  nu^l(X^0) + sum_k nu^{k-1}(tau^{-1} X^k) ->> X, plus kernel.
    side="monic": X >-> sum_k nu^k(X^k), plus cokernel.
    """
    F = x.cfg.field
    l = x.l
    if side == "epic":
        middle, p = fac_projective_cover(x)
        # kernel: at slot j the epi restricted to summand j is the identity,
        # so i_j := (inclusion of the other slots) - (slot j) o p^j
        ker_maps = []
        incl_comps = []
        for j in range(l + 1):
            incl_comps.append(_kernel_inclusion(F, middle, x, p, j))
        for j in range(l):
            # solve phi^j o i_j = i_{j+1} o psi^j for psi^j
            rhs = middle.maps[j] @ incl_comps[j]
            ker_maps.append(graded_solve(incl_comps[j + 1], rhs))
        ker = fac_build(ker_maps, x.cfg, "kernel")
        incl = FacMap(ker, middle, incl_comps)
        return NuResolution(middle, p, ker, incl)

    if side == "monic":
        pieces = [
            adjunction_transport(
                "nu_k_right", x, GradedMatrix.identity(F, x.degs(k)), k=k,
                forward=False,
            )
            for k in range(l + 1)
        ]
        middle = functools.reduce(Factorization.direct_sum,
                                  [q.tgt for q in pieces])
        comps = [
            functools.reduce(GradedMatrix.vstack, [q.components[j] for q in pieces])
            for j in range(l + 1)
        ]
        mono = FacMap(x, middle, comps)
        proj_comps = [_cokernel_projection(F, middle, x, mono, j) for j in range(l + 1)]
        cok_maps = []
        for j in range(l):
            # solve chi^j o q_j = q_{j+1} o phi^j on a right inverse of q_j
            rhs = proj_comps[j + 1] @ middle.maps[j]
            sec = _complement_section(F, middle, x, j)
            chi = (rhs @ sec)
            cok_maps.append(chi)
        cok = fac_build(cok_maps, x.cfg, "cokernel")
        proj = FacMap(middle, cok, proj_comps)
        return NuResolution(middle, mono, cok, proj)

    raise ValueError("side must be 'epic' or 'monic'")


def _select(field, degs, idx):
    """Inclusion of the generators `idx` of ⊕S(-degs) into the whole sum."""
    coeffs = [[field.one if r == i else field.zero for i in idx]
              for r in range(len(degs))]
    return GradedMatrix.from_coeffs(field, coeffs, [degs[i] for i in idx], degs)


def _select_rows(field, degs, idx):
    """Projection of ⊕S(-degs) onto its generators `idx`."""
    coeffs = [[field.one if c == i else field.zero for c in range(len(degs))]
              for i in idx]
    return GradedMatrix.from_coeffs(field, coeffs, degs, [degs[i] for i in idx])


def _slot(m, j):
    """Generators of the slot-j copy of X^j in middle's position j."""
    return range(j * m, (j + 1) * m)


def _other_slots(middle, m, j):
    return [i for i in range(middle.m) if i not in _slot(m, j)]


def _kernel_inclusion(field, middle, x, p, j):
    """Columns: for each non-j slot one identity block plus -p^j at slot j."""
    sec = _complement_section(field, middle, x, j)
    return sec - _slot_section(field, middle, x, j) @ (p.components[j] @ sec)


def _complement_section(field, middle, x, j):
    """Inclusion of the non-j slots into middle's position j."""
    return _select(field, middle.degs(j), _other_slots(middle, x.m, j))


def _cokernel_projection(field, middle, x, mono, j):
    """proj of non-j slots composed with (id - m^j r_j), r_j = slot-j row."""
    degs = middle.degs(j)
    proj = _select_rows(field, degs, _other_slots(middle, x.m, j))
    r_j = _select_rows(field, degs, _slot(x.m, j))
    return proj - (proj @ mono.components[j]) @ r_j


def termwise_split_check(res: NuResolution, side: str) -> bool:
    """The SES is termwise split exact: composite zero + unimodular splitting."""
    F = res.middle.cfg.field
    l = res.middle.l
    if side == "epic":
        if not (res.map @ res.complement_map).is_zero():
            return False
        x = res.map.tgt
        for j in range(l + 1):
            # [slot-j section | kernel inclusion] must be unimodular
            sec = _slot_section(F, res.middle, x, j)
            if not sec.hstack(res.complement_map.components[j]).is_iso():
                return False
        return True
    if not (res.complement_map @ res.map).is_zero():
        return False
    x = res.map.src
    for j in range(l + 1):
        big = res.map.components[j].hstack(_complement_section(F, res.middle, x, j))
        if not big.is_iso():
            return False
    return True


def _slot_section(field, middle, x, j):
    """Inclusion of slot j (an X^j copy) into middle's position j."""
    return _select(field, middle.degs(j), _slot(x.m, j))


# stable homs --------------------------------------------------------------------


def fac_stable_hom_dim(x: Factorization, y: Factorization) -> int:
    """dim Hom(x, y) modulo maps factoring through projectives."""
    return stable_dim(x.cfg.field, fac_hom_basis, fac_projective_cover, x, y)


def fac_projective_test(x: Factorization) -> bool:
    """x is projective iff its identity dies in the stable category."""
    return fac_stable_hom_dim(x, x) == 0


# isomorphism and indecomposability -----------------------------------------------


def fac_iso_test(x: Factorization, y: Factorization, seed: int = 0) -> bool:
    """True iff x and y are isomorphic in Fac (twist ignored)."""
    if x.cfg != y.cfg or x.l != y.l:
        return False
    if x.m != y.m:
        return False
    for k in range(x.l + 1):
        if sorted(x.degs(k)) != sorted(y.degs(k)):
            return False
    if x.is_zero():
        return True
    return search_iso(x.cfg.field, [f.scalars() for f in fac_hom_basis(x, y)],
                      seed)


def fac_is_indecomposable(x: Factorization) -> bool:
    """x is nonzero and End(x) is local (see endo.is_local)."""
    if x.is_zero():
        return False
    F = x.cfg.field
    return is_local(F, [linalg.block_diagonal(F, f.scalars())
                        for f in fac_hom_basis(x, x)])
