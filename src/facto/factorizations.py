"""(l+1)-factor graded matrix factorizations of x^d.

A `Factorization` holds square injective GradedMatrices A^0..A^{l-1}
together with the unique closing map A^l satisfying
(A^{l-1} ... A^0) * A^l = x^d * I.  The integer `twist` records an overall
degree-shift power so that rotating l+1 times is observably the shift
functor; `rot_phase` tracks where in the rotation cycle the object sits.

The maps X^0 -> X^1 -> ... -> X^l -> tau X^0 form a cycle, and every
structure map of the trivial factorizations nu^k is a composite around
it, read off one walk (`_walk`): the zigzag identities, the units and
counits of the nu-adjunctions, the projective cover and the injective
hull, whose blocks are these composites.  A map is fixed by its
component f^l: Hom spaces are solved there (`_hom_rows`) and the other
components read off the walks into and out of X^l (`fac_walks`), whose
scalars the stable homs read too, with no cover built.  Sums of nu^k are
built from the definition (`_nu_sum`), never re-validated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from . import linalg
from .endo import is_local, search_iso, stable_hom_table
from .fields import Field
from .modules import HypersurfaceConfig
from .polymat import GradedMatrix, NoSolution, declared_int, expect_json


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
        if other.rot_phase != self.rot_phase:
            raise ValueError("rot_phase mismatch")
        return Factorization(
            self.cfg,
            [a.direct_sum(b) for a, b in zip(self.maps, other.maps)],
            self.closing.direct_sum(other.closing),
            self.twist,
            self.rot_phase,
        )

    def __eq__(self, other):
        return (
            isinstance(other, Factorization)
            and self.cfg == other.cfg
            and self.maps == other.maps
            and self.closing == other.closing
            and self.twist == other.twist
            and self.rot_phase == other.rot_phase
        )

    def __repr__(self):
        return (
            f"Factorization(l={self.l}, m={self.m}, twist={self.twist}, "
            f"maps={list(self.maps)})"
        )

    def to_json(self):
        """The JSON form; "rot_phase" is written only when it is nonzero."""
        out = {
            "d": self.cfg.d,
            "l": self.l,
            "m": self.m,
            "twist": self.twist,
            "degs": self.all_degs(),
            "maps": [a.to_json() for a in self.maps],
        }
        if self.rot_phase:
            out["rot_phase"] = self.rot_phase
        return out

    @classmethod
    def from_json(cls, cfg: HypersurfaceConfig, data):
        """Read the JSON form.  The "l", "m" and "degs" that `to_json`
        writes are optional, and checked against the maps when present."""
        if declared_int(expect_json(data, dict, "factorization"), "d", cfg.d) != cfg.d:
            raise ValueError("factorization d does not match config")
        maps = [GradedMatrix.from_json(cfg.field, a) for a in data["maps"]]
        out = fac_validate(maps, cfg, twist=data.get("twist", 0))
        if isinstance(out, Invalid):
            raise ValueError(f"invalid factorization: {out.reason}")
        for key, value in (("l", out.l), ("m", out.m)):
            if declared_int(data, key, value) != value:
                raise ValueError(f"factorization {key} does not match its maps")
        degs = out.all_degs()
        declared = data.get("degs", degs)
        if declared != degs or any(type(s) is not int for ds in declared for s in ds):
            raise ValueError("factorization degs do not match its maps")
        phase = data.get("rot_phase", 0)
        if type(phase) is not int or not 0 <= phase <= out.l:
            raise ValueError(f"rot_phase {phase!r} is not an integer in [0, {out.l}]")
        out.rot_phase = phase
        return out


def prefix(x: Factorization, j: int) -> GradedMatrix:
    """A^{j-1} ... A^0 : X^0 -> X^j (identity for j = 0)."""
    return between(x, 0, j)


def between(x: Factorization, a: int, b: int) -> GradedMatrix:
    """A^{b-1} ... A^a : X^a -> X^b for 0 <= a <= b <= l."""
    return _walk(x, a, b - a)[-1]


def _walk(x: Factorization, a: int, steps: int):
    """The composites X^a -> X^(a+s) around the cycle, s = 0..steps, each
    one product after the last: past X^l come the closing map, then the
    tau(A^k), so position l+1+k is tau X^k."""
    out = [GradedMatrix.identity(x.cfg.field, x.degs(a))]
    for p in range(a, a + steps):
        t, r = divmod(p, x.l + 1)
        step = (x.maps[r] if r < x.l else x.closing).shift(-x.cfg.d * t)
        out.append(step @ out[-1] if p > a else step)
    return out


def fac_validate(maps, cfg: HypersurfaceConfig, twist: int = 0):
    """Build a Factorization from A^0..A^{l-1}, or report why it fails.
    The closing map A^l : X^l -> tau X^0 is x^d divided by the product;
    the factors are ranked only when that division fails."""
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
    product = maps[0]
    for a in maps[1:]:
        product = a @ product
    # tau lowers degree vectors by d.  The factors are square and the
    # product's scalar matrix is theirs multiplied, so it is invertible iff
    # each factor's is: the first factor of lower rank names the failure
    try:
        closing = product.shift(-cfg.d).solve(omega_map(F, maps[-1].tgt_degs, cfg.d))
    except NoSolution:
        k = next((k for k, a in enumerate(maps) if not a.is_injective()), None)
        return Invalid("NoClosing" if k is None else f"NonMonic {k}")
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
    return GradedMatrix(
        field, linalg.identity(field, len(src_degs)), src_degs, [s - d for s in src_degs]
    )


def zigzag_check(x: Factorization):
    """omega_{X^k} = tau(A^{k-1}..A^0) A^l A^{l-1}..A^k, the loop around
    the cycle at k, for every k."""
    for k in range(x.l):
        if _walk(x, k, x.l + 1)[-1] != omega_map(x.cfg.field, x.degs(k), x.cfg.d):
            return ZigzagViolation(k)
    return True


def nu(cfg: HypersurfaceConfig, l: int, k: int, degs) -> Factorization:
    """Trivial factorization nu^k(A) on the free module with given degrees."""
    if not (0 <= k <= l):
        raise ValueError("k out of range")
    if l < 1:
        raise FactorizationError("nu is invalid: need at least one map")
    return _nu_sum(cfg, l, [(k, degs)])


def _nu_sum(cfg: HypersurfaceConfig, l: int, parts) -> Factorization:
    """The sum of nu^k(A) over the pairs (k, degrees of A) in `parts`: every
    structure map and the closing map (into position l+1, tau X^0) has
    identity scalars, and A's degrees drop by d past position k."""
    F, d = cfg.field, cfg.d
    degs = [[s - d if j > k else s for k, a in parts for s in a] for j in range(l + 2)]
    one = linalg.identity(F, len(degs[0]))
    maps = [GradedMatrix(F, one, degs[j], degs[j + 1]) for j in range(l + 1)]
    return Factorization(cfg, maps[:l], maps[l])


def rotate(x: Factorization, inverse: bool = False) -> Factorization:
    """Theta(X) = (X^1, ..., X^l, tau X^0); Theta^{l+1} = tau (twist + 1),
    so Theta^{-1} = Theta^l tau^{-1}: l rotations of X with twist - 1."""
    if inverse:
        x = Factorization(x.cfg, x.maps, x.closing, x.twist - 1, x.rot_phase)
        for _ in range(x.l):
            x = rotate(x)
        return x
    d = x.cfg.d
    maps = list(x.maps[1:]) + [x.closing]
    closing = x.maps[0].shift(-d)  # tau(A^0)
    phase, twist = x.rot_phase + 1, x.twist
    if phase == x.l + 1:
        # a full cycle applied tau once: renormalize degrees, log the twist
        phase, twist = 0, twist + 1
        maps = [a.shift(d) for a in maps]
        closing = closing.shift(d)
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


def _hom_walks(x: Factorization, y: Factorization):
    """(fac_walks(x), fac_walks(y)), with one walk when y is x."""
    w = fac_walks(x)
    return w, w if y is x else fac_walks(y)


def _hom_rows(x: Factorization, y: Factorization, walks):
    """(free, rows): the Hom(x, y) system on component l, which fixes a
    map; `walks` is (fac_walks(x), fac_walks(y)).

    The scalars of X^k -> X^l are into_x[k], those of X^l -> tau X^k are
    frm_x[k], and frm_x[k] into_x[k] is the identity: the loop around the
    cycle is x^d I (`fac_walks`).  The squares give f^l into_x[k] =
    into_y[k] f^k, so f^k = frm_y[k] f^l into_x[k], and a map is fixed by
    f^l.  Conversely these f^k make every square commute: into_x[k] =
    into_x[k+1] A^k, and B^k frm_y[k] = frm_y[k+1], as both are the walk
    from Y^l to tau Y^(k+1) (the loop at Y^l when k + 1 = l); the closing
    square holds as into_x[0] C_x, the loop at X^l, is the identity and
    frm_y[0] = C_y.
    So an admissible f^l, at the positions `free` (a, b) where deg X^l[b]
    >= deg Y^l[a], extends iff each f^k, k = 0..l-1, is 0 at the positions
    (r, c) where deg X^k[c] < deg Y^k[r]: one row frm_y[k][r][a]
    into_x[k][b][c] over `free` per such position.
    """
    if x.cfg != y.cfg or x.l != y.l:
        raise ValueError("shape mismatch")
    (into, _), (_, frm) = walks
    F, l = x.cfg.field, x.l
    free = [(a, b) for a, t in enumerate(y.degs(l)) for b, s in enumerate(x.degs(l)) if s >= t]
    return free, [[F.mul(frm[k][r][a], into[k][b][c]) for a, b in free]
                  for k in range(l) for r, t in enumerate(y.degs(k))
                  for c, s in enumerate(x.degs(k)) if s < t]


def _top_basis(x: Factorization, y: Factorization, walks):
    """The components f^l of a k-basis of Hom(x, y), as k-matrices: the
    nullspace of `_hom_rows` (see the `endo` docstring)."""
    free, rows = _hom_rows(x, y, walks)
    F = x.cfg.field
    return [linalg.scatter(F, y.m, x.m, free, sol)
            for sol in linalg.nullspace(F, rows, cols=len(free))]


def fac_hom_basis(x: Factorization, y: Factorization):
    """k-basis of Hom(x, y): each f^l of `_top_basis` extended by the
    walks, f^k = frm_y[k] f^l into_x[k] (`_hom_rows`), so the maps are built
    without re-checking their squares."""
    walks = _hom_walks(x, y)
    (into, _), (_, frm) = walks
    F = x.cfg.field
    return [FacMap(x, y, [GradedMatrix(
        F, linalg.mat_mul(F, linalg.mat_mul(F, frm[k], top), into[k]), x.degs(k), y.degs(k))
        for k in range(x.l + 1)], check=False) for top in _top_basis(x, y, walks)]


def fac_hom_dim(x: Factorization, y: Factorization) -> int:
    """dim Hom(x, y) = len(fac_hom_basis(x, y)), by one rank over the
    unknowns of component l (`_hom_rows`)."""
    return _modulo_cover(x, y, _hom_walks(x, y), ())


# adjunction transports ---------------------------------------------------------


def adjunction_transport(which: str, x: Factorization, data, k: int = None,
                         forward: bool = True):
    """The three adjunctions of the trivial factorizations, both directions.

    which = "nu_l_left":  Hom(nu^l(A), X) = Hom(A, X^0);       g <-> g^0
    which = "nu_k_left":  Hom(nu^{k-1}(A), X) = Hom(tau A, X^k); g <-> g^k
    which = "nu_k_right": Hom(X^k, B) = Hom(X, nu^k(B));        g^k <-> g

    Forward take a FacMap and return a GradedMatrix; backward take a
    GradedMatrix h and compose it with the composites around the cycle
    (`_walk`) out of, or into, position k.
    """
    d = x.cfg.d
    l = x.l
    if which == "nu_l_left":
        if forward:
            return data.components[0]
        h = data  # A -> X^0
        comps = [g @ h for g in _walk(x, 0, l)]
        return FacMap(nu(x.cfg, l, l, h.src_degs), x, comps)
    if which == "nu_k_left":
        if k is None or not (1 <= k <= l):
            raise ValueError("need k in 1..l")
        if forward:
            return data.components[k]
        h = data  # tau A -> X^k
        walk = [g @ h for g in _walk(x, k, l)]
        # before position k, nu^{k-1}(A) is A: take the maps into tau X^j back
        comps = [walk[j - k] if j >= k else walk[j + l + 1 - k].shift(d)
                 for j in range(l + 1)]
        return FacMap(nu(x.cfg, l, k - 1, [s + d for s in h.src_degs]), x, comps)
    if which == "nu_k_right":
        if k is None or not (0 <= k <= l):
            raise ValueError("need k in 0..l")
        if forward:
            return data.components[k]
        h = data  # X^k -> B
        # past position k, nu^k(B) is tau B
        comps = [(h if j <= k else h.shift(-d)) @ _walk(x, j, (k - j) % (l + 1))[-1]
                 for j in range(l + 1)]
        return FacMap(x, nu(x.cfg, l, k, h.tgt_degs), comps)
    raise ValueError(f"unknown adjunction {which!r}")


# nu-resolutions -----------------------------------------------------------------


class NuResolution(NamedTuple):
    middle: Factorization     # the trivial-sum object
    map: FacMap               # epic middle -> X, or monic X -> middle
    complement: Factorization  # kernel (epic side) / cokernel (monic side)
    complement_map: FacMap    # inclusion into / projection from middle


def fac_projective_cover(x: Factorization):
    """(P, p): P = nu^l(X^0) + sum_k nu^{k-1}(tau^{-1} X^k) and the epi
    p: P ->> X whose summands are the counits of the nu-adjunctions.

    The block of p^j on summand k is the composite X^k -> X^j on the walk
    from k, taken back by tau^{-1} when k > j.  The counits are the block
    columns of p, and the walk's composites make every square commute, so
    p is built unchecked.
    """
    d, l = x.cfg.d, x.l
    middle = _nu_sum(x.cfg, l, [(l, x.degs(0))] + [
        (k - 1, [s + d for s in x.degs(k)]) for k in range(1, l + 1)])
    walks = [_walk(x, k, l) for k in range(l + 1)]
    comps = [functools.reduce(GradedMatrix.hstack, [
        w[j - k] if k <= j else w[j + l + 1 - k].shift(d) for k, w in enumerate(walks)])
        for j in range(l + 1)]
    return middle, FacMap(middle, x, comps, check=False)


def _injective_hull(x: Factorization):
    """(I, i): I = sum_k nu^k(X^k) and the mono i: X >-> I whose block from
    X^j to summand k is the composite X^j -> X^k on the walk from j (the
    units of the nu_k_right adjunctions); the walk makes its squares
    commute, so i is built unchecked."""
    l = x.l
    middle = _nu_sum(x.cfg, l, [(k, x.degs(k)) for k in range(l + 1)])
    comps = [functools.reduce(GradedMatrix.vstack, [w[(k - j) % (l + 1)] for k in range(l + 1)])
             for j, w in enumerate(_walk(x, j, l) for j in range(l + 1))]
    return middle, FacMap(x, middle, comps, check=False)


def _slot(middle: Factorization, m: int, j: int):
    """(mine, rest) at position j of a nu-resolution's middle: the indices
    of slot j (summand j's copy of X^j, generators j*m .. j*m + m - 1) and
    of the other slots, in order."""
    mine = range(j * m, (j + 1) * m)
    return mine, [i for i in range(len(middle.degs(j))) if i not in mine]


def nu_resolution(x: Factorization, side: str = "epic") -> NuResolution:
    """Lemma-style termwise split resolution by trivial factorizations.

    side="epic":  the projective cover nu^l(X^0) + sum_k nu^{k-1}(tau^{-1}
                  X^k) ->> X, plus its kernel.
    side="monic": the injective hull X >-> sum_k nu^k(X^k), plus its
                  cokernel.

    At position j the structure map is the identity on slot j (`_slot`),
    so the complement is read off the other slots by slot index.  With s
    and t the inclusions of slot j and of the rest, r the projection onto
    the rest, and phi the middle's maps, whose scalars are the identity:
    - kernel: i_j = t - s p^j t, the identity on the rest's rows and -p^j
      on slot j's; the kernel maps are r phi^j i_j, the unique psi with
      phi^j i_j = i_{j+1} psi (as r i_{j+1} = id): the rows of i_j at the
      rest of position j+1;
    - cokernel: q_j = r - r m^j s_row, the identity on the rest's columns
      and minus the rest's rows of m^j on slot j's; the cokernel maps are
      q_{j+1} phi^j t (as q_j t = id): the columns of q_{j+1} at the rest
      of position j.
    These identities are the complement map's squares: it is built unchecked.
    """
    if side not in ("epic", "monic"):
        raise ValueError("side must be 'epic' or 'monic'")
    middle, f = fac_projective_cover(x) if side == "epic" else _injective_hull(x)
    F, m = x.cfg.field, x.m
    comps, rests = [], []
    for j in range(x.l + 1):
        degs, (mine, rest) = middle.degs(j), _slot(middle, m, j)
        fj, sub = f.components[j].coeffs, [degs[i] for i in rest]
        if side == "epic":
            coeffs = [[F.neg(fj[i - j * m][k]) for k in rest] if i in mine
                      else [F.one if k == i else F.zero for k in rest]
                      for i in range(len(degs))]
            comps.append(GradedMatrix(F, coeffs, sub, degs))
        else:
            coeffs = [[F.neg(fj[i][k - j * m]) if k in mine
                       else F.one if k == i else F.zero for k in range(len(degs))]
                      for i in rest]
            comps.append(GradedMatrix(F, coeffs, degs, sub))
        rests.append(rest)
    if side == "epic":
        ker = fac_build([GradedMatrix(F, [g.coeffs[i] for i in rest], g.src_degs, h.src_degs)
                         for g, h, rest in zip(comps, comps[1:], rests[1:])],
                        x.cfg, "kernel")
        return NuResolution(middle, f, ker, FacMap(ker, middle, comps, check=False))
    cok = fac_build([GradedMatrix(F, [[row[i] for i in rest] for row in h.coeffs],
                                  g.tgt_degs, h.tgt_degs)
                     for g, h, rest in zip(comps, comps[1:], rests)],
                    x.cfg, "cokernel")
    return NuResolution(middle, f, cok, FacMap(middle, cok, comps, check=False))


def termwise_split_check(res: NuResolution, side: str) -> bool:
    """The SES mono >-> middle ->> epi is termwise split exact: epi mono = 0
    and, at each position, epi has the section as a right inverse and
    [section | mono] is an iso; the section is the inclusion of slot j
    (epic side) or of the other slots (monic side).  Both are read by slot
    index: epi's columns at the section must be the identity, and as the
    section's columns are unit vectors, [section | mono] is an iso iff the
    degrees match and mono's rows off the section have full rank."""
    if side == "epic":
        x, mono, epi = res.map.tgt, res.complement_map, res.map
    else:
        x, mono, epi = res.map.src, res.map, res.complement_map
    if not (epi @ mono).is_zero():
        return False
    F = x.cfg.field
    for j in range(res.middle.l + 1):
        degs, (mine, rest) = res.middle.degs(j), _slot(res.middle, x.m, j)
        section = mine if side == "epic" else rest
        e, g, sec_degs = epi.components[j], mono.components[j], [degs[i] for i in section]
        if (e.src_degs != degs or tuple(sec_degs) != e.tgt_degs
                or [[row[i] for i in section] for row in e.coeffs]
                != linalg.identity(F, len(section))):
            return False
        off = [row for i, row in enumerate(g.coeffs) if i not in section]
        if (g.tgt_degs != degs or sorted(sec_degs + list(g.src_degs)) != sorted(degs)
                or (linalg.rank(F, off) if off else 0) != len(g.src_degs)):
            return False
    return True


# stable homs --------------------------------------------------------------------


def fac_walks(x: Factorization):
    """(into, frm): the scalars of the walks through X^l that `_hom_rows`
    and `_cover_rows` read, into[k] of the composite X^k -> X^l and frm[k]
    of X^l -> tau X^k, for k = 0..l (both the identity at k = l).  One
    backward pass gives into, into[k] = into[k+1] A^k, and one walk from
    X^l gives frm, so the cost is linear in l."""
    F = x.cfg.field
    into = [linalg.identity(F, x.m)]
    for a in reversed(x.maps):
        into.append(linalg.mat_mul(F, into[-1], a.coeffs))
    frm = [g.coeffs for g in _walk(x, x.l, x.l)]  # X^l, tau X^0, ..., tau X^(l-1)
    return into[::-1], frm[1:] + frm[:1]


def fac_stable_hom_dim(x: Factorization, y: Factorization) -> int:
    """dim Hom(x, y) modulo the maps that factor through projectives.
    Builds no hom basis and no projective cover.

    Every such map factors through y's projective cover p: P ->> Y, with
    P = nu^l(Y^0) + sum_{i>=1} nu^(i-1)(tau^-1 Y^i) (`fac_projective_cover`),
    whose block from summand i is the walk of y from i.  A map into
    nu^k(A) is g^j = h o walk_x(j -> k) for a graded h: X^k -> A (the
    nu_k_right adjunction, `adjunction_transport`), and h is a sum of
    elementary maps e_r e_c^T at the admissible positions, deg X^k[c] >=
    deg A[r].  So the maps through P are spanned by one composite per
    summand i, with k = l and A = Y^0 for i = 0 and k = i - 1 and A =
    tau^-1 Y^i otherwise, and per admissible (r, c).

    A map of factorizations is fixed by its component f^l (`_hom_rows`).
    So the span is measured on component l, where the composite is the
    walk of y from i to l after h after the walk of x from l to k, with
    the scalars into_y[i] e_r e_c^T frm_x[k] (`fac_walks`): the outer
    product of column r of into_y[i] and row c of frm_x[k].  Returns dim
    Hom(x, y) (`fac_hom_dim`, on the same walks and component) minus the
    rank of these outer products (`_modulo_cover`).
    """
    return _modulo_cover(x, y, _hom_walks(x, y), range(x.l + 1))


def fac_hom_dim_mod_nu_l(x: Factorization, y: Factorization) -> int:
    """dim Hom(x, y) modulo the maps through nu^l objects, which factor
    through the counit nu^l(Y^0) -> Y, summand 0 of y's projective cover."""
    return _modulo_cover(x, y, _hom_walks(x, y), [0])


def fac_stable_hom_table(xs):
    """[[fac_stable_hom_dim(x, y) for y in xs] for x in xs] (`endo.stable_hom_table`)."""
    return stable_hom_table(xs, fac_walks, lambda x, y, walks: _modulo_cover(
        x, y, walks, range(x.l + 1)))


def _modulo_cover(x: Factorization, y: Factorization, walks, summands) -> int:
    """dim Hom(x, y) minus the rank of the maps through the given summands
    of y's projective cover (`_cover_rows`), on (fac_walks(x), fac_walks(y))."""
    F = x.cfg.field
    free, rows = _hom_rows(x, y, walks)
    hom = len(free) - linalg.rank(F, rows)
    if not hom:
        return 0
    return hom - linalg.rank(F, [row for i in summands for row in _cover_rows(x, y, walks, i)])


def _cover_rows(x: Factorization, y: Factorization, walks, i: int):
    """The outer products on component l that `fac_stable_hom_dim` reads
    for summand i of y's projective cover: nu^l(Y^0), the counit, for i =
    0, and nu^(i-1)(tau^-1 Y^i) otherwise."""
    (_, frm), (into, _) = walks
    F = x.cfg.field
    k, degs = (x.l, y.degs(0)) if i == 0 else (i - 1, [s + x.cfg.d for s in y.degs(i)])
    return [[F.mul(a, e) for a in col for e in frm[k][c]]
            for col, t in zip(zip(*into[i]), degs)
            for c, s in enumerate(x.degs(k)) if s >= t]


def fac_projective_test(x: Factorization) -> bool:
    """x is projective iff its identity dies in the stable category."""
    return fac_stable_hom_dim(x, x) == 0


# isomorphism and indecomposability -----------------------------------------------


def _fac_fingerprint(x: Factorization):
    """The sorted degrees of each X^k: equal on isomorphic factorizations."""
    return tuple(tuple(sorted(x.degs(k))) for k in range(x.l + 1))


def fac_iso_test(x: Factorization, y: Factorization) -> bool:
    """True iff x and y are isomorphic in Fac (twist ignored).

    Necessary check: the configs and fingerprints (the sorted degrees of
    each X^k, so l and m too) agree.  Then searches the components f^l of
    a hom basis (`_top_basis`) for invertible scalars (see the `endo`
    docstring): each f^k is frm_y[k] f^l into_x[k] with both walks
    invertible, so f is an iso iff f^l is."""
    if x.cfg != y.cfg or _fac_fingerprint(x) != _fac_fingerprint(y):
        return False
    if x.is_zero():
        return True
    return search_iso(x.cfg.field, _top_basis(x, y, _hom_walks(x, y)))


def fac_is_indecomposable(x: Factorization) -> bool:
    """x is nonzero and End(x) is local (see endo.is_local), read on
    component l: f -> f^l embeds End(x) as an algebra in the k-matrices."""
    if x.is_zero():
        return False
    return is_local(x.cfg.field, _top_basis(x, x, _hom_walks(x, x)))
