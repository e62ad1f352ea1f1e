import functools
import random

import pytest

from facto.factorizations import (
    FacMap,
    Factorization,
    FactorizationError,
    Invalid,
    NuResolution,
    ZigzagViolation,
    _injective_hull,
    _nu_sum,
    adjunction_transport,
    between,
    contract,
    fac_build,
    fac_hom_basis,
    fac_iso_test,
    fac_projective_cover,
    fac_projective_test,
    fac_stable_hom_dim,
    fac_validate,
    nu,
    nu_resolution,
    omega_map,
    prefix,
    rotate,
    termwise_split_check,
    zigzag_check,
)
from facto.fields import GF, QQ
from facto.modules import HypersurfaceConfig
from facto.poly import Polynomial
from facto.polymat import GradedMatrix, NoSolution, PolyMatrix
from facto.randgen import (
    random_factorization,
    random_unimodular,
    rank1_factorization,
)
from reference import _hom_slots, fac_validate_ranking_first, from_poly, graded_solve


def cfg(d, field=QQ):
    return HypersurfaceConfig(d, field)


def mono_mat(field, power, degs_src):
    """x^power * I as a GradedMatrix on the given source degrees."""
    return from_poly(
        PolyMatrix.scalar(field, len(degs_src), Polynomial.monomial(field, power)),
        degs_src,
        [s - power for s in degs_src],
    )


def xx(c):
    """The classical factorization (x, x) of x^2 with deg vector (0) -> (1)."""
    return fac_validate([mono_mat(c.field, 1, [0])], c)


def rank1(c, powers, degs0=None):
    """Rank-1 factorization x^{a_0}, ..., x^{a_{l-1}} (closing x^{a_l})."""
    F = c.field
    degs = degs0 or [0]
    maps = []
    cur = list(degs)
    for a in powers:
        maps.append(mono_mat(F, a, cur))
        cur = [s - a for s in cur]
    return fac_validate(maps, c)


# -- validation -----------------------------------------------------------------


def test_validate_classical_xx():
    c = cfg(2)
    x = xx(c)
    assert isinstance(x, Factorization)
    assert x.closing.mat == PolyMatrix.scalar(QQ, 1, Polynomial.x(QQ))
    assert x.degs(0) == (0,) and x.degs(1) == (-1,)


def test_validate_nu0_alias():
    c = cfg(2)
    x = fac_validate([mono_mat(QQ, 2, [0])], c)
    assert isinstance(x, Factorization)
    assert x.closing.mat == PolyMatrix.identity(QQ, 1)


def test_validate_lower_triangular():
    c = cfg(2)
    F = QQ
    mat = PolyMatrix(F, [
        [Polynomial.x(F), Polynomial.zero(F)],
        [Polynomial.one(F), Polynomial.x(F)],
    ])
    a = from_poly(mat, [1, 2], [0, 1])
    x = fac_validate([a], c)
    assert isinstance(x, Factorization)
    prod = x.maps[0].mat @ x.closing.mat
    assert prod == PolyMatrix.scalar(F, 2, Polynomial.monomial(F, 2))
    # A^1 = [[x, 0], [-1, x]]
    assert x.closing.mat.entries[1][0] == -Polynomial.one(F)


def test_validate_non_monic():
    c = cfg(2)
    F = QQ
    mat = PolyMatrix(F, [
        [Polynomial.x(F), Polynomial.x(F)],
        [Polynomial.x(F), Polynomial.x(F)],
    ])
    a = from_poly(mat, [0, 0], [-1, -1])
    out = fac_validate([a], c)
    assert isinstance(out, Invalid) and "NonMonic" in out.reason


def test_validate_no_closing():
    c = cfg(2)
    F = QQ
    a = mono_mat(F, 3, [0])  # x^3 does not divide x^2
    out = fac_validate([a], c)
    assert isinstance(out, Invalid) and out.reason == "NoClosing"


def _corruptions(x, rng):
    """x's maps, then with one map damaged four ways: a nonzero entry
    zeroed, a row zeroed, a row copied over another of no larger target
    degree (the map stays graded), and the map shifted by one; last, the
    final map times x^(d+1), which x^d cannot close."""
    k = rng.randrange(x.l)
    a = x.maps[k]
    F, m = a.field, len(a.src_degs)

    def with_map(b):
        return list(x.maps[:k]) + [b] + list(x.maps[k + 1:])

    def with_coeffs(coeffs):
        return with_map(GradedMatrix(F, coeffs, a.src_degs, a.tgt_degs))

    yield list(x.maps)
    nonzero = [(r, c) for r in range(m) for c in range(m) if not F.is_zero(a.coeffs[r][c])]
    r, c = rng.choice(nonzero)
    yield with_coeffs([[F.zero if (i, j) == (r, c) else v for j, v in enumerate(row)]
                       for i, row in enumerate(a.coeffs)])
    yield with_coeffs([[F.zero] * m if i == r else row for i, row in enumerate(a.coeffs)])
    if m > 1:
        r, s = rng.sample(range(m), 2)
        if a.tgt_degs[r] > a.tgt_degs[s]:
            r, s = s, r
        yield with_coeffs([a.coeffs[s] if i == r else row for i, row in enumerate(a.coeffs)])
    yield with_map(a.shift(rng.choice((-1, 1))))
    b = x.maps[-1]
    yield list(x.maps[:-1]) + [GradedMatrix(F, b.coeffs, b.src_degs,
                                            [t - x.cfg.d - 1 for t in b.tgt_degs])]


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_validate_equals_ranking_every_factor_first(field):
    """Dividing first and ranking the factors only when the division fails
    gives the reasons and closings of ranking every factor first: the
    product of square factors is invertible iff each factor is."""
    rng = random.Random(43)
    reasons = set()
    for d in (2, 3, 4):
        c = cfg(d, field)
        for l in (1, 2, 3):
            for _ in range(8):
                x = random_factorization(c, l, rng)
                for maps in _corruptions(x, rng):
                    got = fac_validate(maps, c)
                    assert got == fac_validate_ranking_first(maps, c), (d, l, maps)
                    reasons.add(got.reason.split()[0] if isinstance(got, Invalid) else "valid")
    assert reasons == {"valid", "NonMonic", "NoClosing", "DegreeChainMismatch"}


def test_validating_a_valid_factorization_ranks_no_factor(monkeypatch):
    """A valid factorization is decided by the one division: no factor's
    rank is taken."""
    rng = random.Random(7)
    xs = [random_factorization(cfg(d, field), l, rng)
          for field in (GF(2), GF(5), QQ) for d in (2, 3) for l in (1, 2, 3)]

    def forbidden(self):
        raise AssertionError("is_injective called")

    monkeypatch.setattr(GradedMatrix, "is_injective", forbidden)
    for x in xs:
        assert fac_validate(list(x.maps), x.cfg, twist=x.twist) == x


# -- zigzag ----------------------------------------------------------------------


def test_zigzag_trivials_and_xx():
    c2, c3 = cfg(2), cfg(3)
    for k in range(3):
        assert zigzag_check(nu(c3, 2, k, [0, 1])) is True
    assert zigzag_check(xx(c2)) is True
    assert zigzag_check(rank1(c3, [1, 1])) is True


# -- nu --------------------------------------------------------------------------


def test_nu_shapes():
    c = cfg(2)
    x = nu(c, 1, 0, [0])
    assert x.maps[0].mat == PolyMatrix.scalar(QQ, 1, Polynomial.monomial(QQ, 2))
    y = nu(c, 1, 1, [0])
    assert y.maps[0].mat == PolyMatrix.identity(QQ, 1)
    assert y.closing.mat == PolyMatrix.scalar(QQ, 1, Polynomial.monomial(QQ, 2))
    z = nu(c, 2, 1, [0])
    assert z.maps[0].mat == PolyMatrix.identity(QQ, 1)
    assert z.maps[1].mat == PolyMatrix.scalar(QQ, 1, Polynomial.monomial(QQ, 2))
    assert z.closing.mat == PolyMatrix.identity(QQ, 1)


# -- rotation --------------------------------------------------------------------


def test_rotate_swap():
    c = cfg(3)
    x = rank1(c, [1])  # (x, x^2)
    y = rotate(x)
    assert y.maps[0].mat == PolyMatrix.scalar(QQ, 1, Polynomial.monomial(QQ, 2))
    assert y.closing.mat == PolyMatrix.scalar(QQ, 1, Polynomial.monomial(QQ, 1))


def test_rotate_full_cycle_is_twist():
    for d, l in ((2, 1), (2, 2), (3, 2)):
        c = cfg(d)
        x = rank1(c, [1] * l)
        y = x
        for _ in range(l + 1):
            y = rotate(y)
        assert y.maps == x.maps
        assert y.closing == x.closing
        assert y.twist == x.twist + 1


def test_rotate_inverse():
    c = cfg(3)
    x = rank1(c, [1, 1])
    assert rotate(rotate(x), inverse=True) == x
    assert rotate(rotate(x, inverse=True)) == x
    y = x
    for _ in range(3):
        y = rotate(y, inverse=True)
    assert y.maps == x.maps and y.twist == x.twist - 1


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
@pytest.mark.parametrize("l", [1, 2, 3])
def test_rotate_inverse_from_every_phase(l, field):
    """Theta and Theta^-1 undo each other from each phase 0..l, phase and
    twist included; Theta^-1 steps the phase back and, from phase 0, the
    twist down."""
    x = random_factorization(cfg(3, field), l, random.Random(l), m_max=2)
    for phase in range(l + 1):
        back = rotate(x, inverse=True)
        assert rotate(rotate(x), inverse=True) == x
        assert rotate(back) == x
        assert (back.rot_phase, back.twist) == ((phase - 1) % (l + 1),
                                                x.twist - (phase == 0))
        x = rotate(x)


def test_equality_compares_the_rotation_phase():
    """Equal maps and twist at different phases are different objects: their
    JSON differs and their direct sum raises."""
    x = rank1_factorization(cfg(3, GF(5)), [1, 1])
    y = Factorization(x.cfg, x.maps, x.closing, x.twist, 1)
    assert x != y and x.to_json() != y.to_json()
    assert x == Factorization(x.cfg, x.maps, x.closing, x.twist, 3)
    with pytest.raises(ValueError, match="rot_phase"):
        y.direct_sum(x)


# -- direct sum / contraction -------------------------------------------------------


def test_direct_sum_xx():
    c = cfg(2)
    x = xx(c)
    s = x.direct_sum(x)
    assert s.m == 2
    assert zigzag_check(s) is True


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_direct_sum_keeps_the_rotation_phase(field):
    """Theta x + Theta y sits at phase 1 like its summands, so rotating it
    twice at l = 2 gives Theta^3 x + Theta^3 y, with twist 1; summands at
    different phases raise ValueError, as different twists do."""
    rng = random.Random(45)
    c = cfg(3, field)
    x, y = (random_factorization(c, 2, rng, m_max=2) for _ in range(2))
    s = rotate(x).direct_sum(rotate(y))
    assert s.rot_phase == 1
    thrice = [functools.reduce(lambda z, _: rotate(z), range(3), z) for z in (x, y)]
    expect = thrice[0].direct_sum(thrice[1])
    assert rotate(rotate(s)) == expect
    assert (expect.twist, expect.rot_phase) == (1, 0)
    with pytest.raises(ValueError, match="rot_phase"):
        x.direct_sum(rotate(y))


def test_contract():
    c = cfg(3)
    x = rank1(c, [1, 1])  # l=2: (x, x, x)
    g = contract(x)
    assert g.l == 1
    assert g.maps[0].mat == PolyMatrix.scalar(QQ, 1, Polynomial.monomial(QQ, 2))
    assert g.closing == x.closing
    assert contract(xx(cfg(2))) == xx(cfg(2))


# -- hom spaces ----------------------------------------------------------------------


def test_hom_contains_identity():
    c = cfg(2, GF(5))
    x = xx(c)
    basis = fac_hom_basis(x, x)
    assert len(basis) == 1  # End((x,x)) in degree 0 is the scalars
    assert fac_iso_test(x, x)


def test_hom_to_zero():
    c = cfg(2)
    x = xx(c)
    maps = [from_poly(PolyMatrix(QQ, []), [], [])]
    z = fac_validate(maps, c)
    assert isinstance(z, Factorization)
    assert fac_hom_basis(x, z) == []


# -- adjunctions ------------------------------------------------------------------------


def random_rank1(c, l, rng):
    powers = []
    left = c.d
    for _ in range(l):
        a = rng.randrange(0, left + 1)
        powers.append(a)
        left -= a
    return rank1(c, powers, degs0=[rng.randrange(-1, 2)])


def random_fac(c, l, rng, m_max=2):
    """Random valid factorization as a direct sum of shifted rank-1 pieces."""
    parts = [random_rank1(c, l, rng) for _ in range(rng.randrange(1, m_max + 1))]
    x = parts[0]
    for p in parts[1:]:
        x = x.direct_sum(p)
    return x


def test_adjunction_unit_nu_l():
    c = cfg(2)
    a_degs = [0]
    x = nu(c, 1, 1, a_degs)
    g = FacMap.identity(x)
    h = adjunction_transport("nu_l_left", x, g, forward=True)
    assert h == GradedMatrix.identity(QQ, a_degs)


def test_adjunction_round_trips():
    rng = random.Random(2)
    for d, l in ((2, 1), (3, 2)):
        c = cfg(d, GF(5))
        for _ in range(10):
            x = random_fac(c, l, rng)
            # nu_l_left: start from arbitrary h: A -> X^0
            h = GradedMatrix.identity(c.field, x.degs(0))
            g = adjunction_transport("nu_l_left", x, h, forward=False)
            assert adjunction_transport("nu_l_left", x, g, forward=True) == h
            # nu_k_left for each k
            for k in range(1, l + 1):
                hk = GradedMatrix.identity(c.field, x.degs(k))
                gk = adjunction_transport("nu_k_left", x, hk, k=k, forward=False)
                back = adjunction_transport("nu_k_left", x, gk, k=k, forward=True)
                assert back == hk
            # nu_k_right for each k
            for k in range(l + 1):
                hk = GradedMatrix.identity(c.field, x.degs(k))
                gk = adjunction_transport("nu_k_right", x, hk, k=k, forward=False)
                back = adjunction_transport("nu_k_right", x, gk, k=k, forward=True)
                assert back == hk


def test_adjunction_naturality():
    # transport(h o g^k-shape) = postcompose: spot-check with nu_k_right
    rng = random.Random(4)
    c = cfg(2, GF(5))
    x = random_fac(c, 1, rng)
    for k in (0, 1):
        h = GradedMatrix.identity(c.field, x.degs(k))
        g = adjunction_transport("nu_k_right", x, h, k=k, forward=False)
        # naturality in B: postcomposing with 2*id on B
        two = from_poly(
            PolyMatrix.scalar(c.field, x.m, Polynomial(c.field, [c.field.from_int(2)])),
            x.degs(k), x.degs(k),
        )
        g2 = adjunction_transport("nu_k_right", x, two @ h, k=k, forward=False)
        # past position k the components land in tau B, so shift the scalar
        lhs = [
            (two if j <= k else two.shift(-2)) @ comp
            for j, comp in enumerate(g.components)
        ]
        assert list(g2.components) == lhs


# -- nu-resolutions -----------------------------------------------------------------------


def test_nu_resolution_xx():
    c = cfg(2)
    x = xx(c)
    res = nu_resolution(x, side="epic")
    # source = nu^1(S(0)) + nu^0(S(-1)): both trivial
    assert res.middle.m == 2
    assert termwise_split_check(res, "epic")
    assert zigzag_check(res.complement) is True
    assert fac_projective_test(res.middle)


def test_nu_resolution_random():
    rng = random.Random(8)
    for d, l in ((2, 1), (2, 2), (3, 2)):
        c = cfg(d, GF(5))
        for _ in range(8):
            x = random_fac(c, l, rng)
            for side in ("epic", "monic"):
                res = nu_resolution(x, side=side)
                assert termwise_split_check(res, side)
                assert zigzag_check(res.complement) is True
                if side == "epic":
                    assert (res.map @ res.complement_map).is_zero()
                else:
                    assert (res.complement_map @ res.map).is_zero()


@pytest.mark.parametrize("side", ["epic", "monic"])
def test_termwise_split_check_rejects_a_zero_epi(side):
    """A zero epi (epic side) or a zero projection onto the cokernel (monic
    side) keeps the composite zero and [section | mono] an iso, but the
    sequence is no longer exact: the check must see the epi itself."""
    x = random_factorization(cfg(3, GF(5)), 2, random.Random(1))
    res = nu_resolution(x, side=side)
    assert termwise_split_check(res, side)
    if side == "epic":
        bad = res._replace(map=FacMap.zero(res.middle, x))
    else:
        bad = res._replace(complement_map=FacMap.zero(res.middle, res.complement))
    assert not termwise_split_check(bad, side)


def test_projective_cover_is_the_epic_half_of_the_resolution():
    rng = random.Random(12)
    for field in (GF(5), QQ):
        for d, l in ((2, 1), (2, 2), (3, 2)):
            c = cfg(d, field)
            for _ in range(3):
                x = random_fac(c, l, rng)
                middle, p = fac_projective_cover(x)
                assert fac_projective_test(middle)
                for j, pj in enumerate(p.components):
                    # surjective onto the free X^j iff it has a right inverse
                    try:
                        graded_solve(pj, GradedMatrix.identity(field, x.degs(j)))
                    except NoSolution:
                        pytest.fail(f"component {j} of the cover is not onto")
                res = nu_resolution(x, side="epic")
                assert (res.middle, res.map) == (middle, p)


def test_nu_resolution_trivial_input():
    c = cfg(2)
    x = nu(c, 1, 1, [0])
    res = nu_resolution(x, side="epic")
    assert termwise_split_check(res, "epic")
    assert fac_projective_test(x)


# -- stable homs ------------------------------------------------------------------------------


def test_stable_hom_trivials_vanish():
    c = cfg(2, GF(5))
    x = xx(c)
    for k in (0, 1):
        t = nu(c, 1, k, [0])
        assert fac_stable_hom_dim(x, t) == 0
        assert fac_stable_hom_dim(t, x) == 0
        assert fac_projective_test(t)


def test_stable_end_xx():
    # stable End of (x,x) matches stable End of the module k: dimension 1
    c = cfg(2, GF(5))
    x = xx(c)
    assert fac_stable_hom_dim(x, x) == 1
    assert not fac_projective_test(x)


def test_stable_hom_additive():
    rng = random.Random(13)
    c = cfg(2, GF(5))
    for _ in range(5):
        x = random_fac(c, 1, rng)
        y = random_fac(c, 1, rng)
        z = random_fac(c, 1, rng)
        assert (
            fac_stable_hom_dim(x.direct_sum(y), z)
            == fac_stable_hom_dim(x, z) + fac_stable_hom_dim(y, z)
        )


# -- iso ---------------------------------------------------------------------------------------


def test_iso_shift_sensitive():
    c = cfg(2, GF(5))
    x = xx(c)
    assert fac_iso_test(x, x)
    assert not fac_iso_test(x, x.shift(1))


def test_iso_sum_reorder():
    c = cfg(2, GF(5))
    x = xx(c)
    t = nu(c, 1, 0, [0])
    assert fac_iso_test(x.direct_sum(t), t.direct_sum(x))


def test_json_round_trip():
    c = cfg(2, GF(5))
    x = xx(c).direct_sum(nu(c, 1, 0, [0]))
    y = Factorization.from_json(c, x.to_json())
    assert y == x


@pytest.mark.parametrize("data", [[1], "mf", None], ids=repr)
def test_json_that_is_no_object_is_a_type_error(data):
    """The reader's own check, as the readers of the maps and modules
    make theirs; it raised AttributeError from a missing `get`."""
    with pytest.raises(TypeError, match="factorization: expected a JSON object"):
        Factorization.from_json(cfg(2, GF(5)), data)


# -- oracles for the composites around the cycle and the shared hom solver ------------


def _transport_step_by_step(which, x, h, k=None):
    """Reference: the backward adjunction transports, each built along its
    own route from prefixes, tails and the closing map."""
    d, l = x.cfg.d, x.l
    if which == "nu_l_left":
        comps = [prefix(x, j) @ h for j in range(l + 1)]
        return FacMap(nu(x.cfg, l, l, h.src_degs), x, comps)
    if which == "nu_k_left":
        comps = [(x.closing @ between(x, k, l) @ h).shift(d)]
        for j in range(1, l + 1):
            comps.append(h if j == k else x.maps[j - 1] @ comps[-1])
        return FacMap(nu(x.cfg, l, k - 1, [s + d for s in h.src_degs]), x, comps)
    comps = [h @ between(x, j, k) if j <= k else
             (h @ prefix(x, k)).shift(-d) @ x.closing @ between(x, j, l)
             for j in range(l + 1)]
    return FacMap(x, nu(x.cfg, l, k, h.tgt_degs), comps)


def _trivial_sum_by_adjunctions(x, side):
    """Reference: the projective cover (epic) or the injective hull (monic)
    assembled from one adjunction transport of an identity per summand."""
    F, l = x.cfg.field, x.l
    if side == "epic":
        pieces = [_transport_step_by_step(
            "nu_l_left" if k == 0 else "nu_k_left", x,
            GradedMatrix.identity(F, x.degs(k)), k) for k in range(l + 1)]
        middle = functools.reduce(Factorization.direct_sum, [q.src for q in pieces])
        comps = [functools.reduce(GradedMatrix.hstack, [q.components[j] for q in pieces])
                 for j in range(l + 1)]
        return middle, FacMap(middle, x, comps)
    pieces = [_transport_step_by_step("nu_k_right", x,
                                      GradedMatrix.identity(F, x.degs(k)), k)
              for k in range(l + 1)]
    middle = functools.reduce(Factorization.direct_sum, [q.tgt for q in pieces])
    comps = [functools.reduce(GradedMatrix.vstack, [q.components[j] for q in pieces])
             for j in range(l + 1)]
    return middle, FacMap(x, middle, comps)


def _resolution_by_solving(x, side):
    """Reference: the kernel maps solved by graded_solve against the kernel
    inclusions, and the cokernel projection (id - m^j r_j) on the other
    slots, over the adjunction-built middles."""
    F, m, l = x.cfg.field, x.m, x.l
    middle, f = _trivial_sum_by_adjunctions(x, side)

    def select(j, idx, rows=False):
        degs = middle.degs(j)
        sub = [degs[i] for i in idx]
        if rows:
            coeffs = [[F.one if c == i else F.zero for c in range(len(degs))]
                      for i in idx]
            return GradedMatrix(F, coeffs, degs, sub)
        coeffs = [[F.one if r == i else F.zero for i in idx] for r in range(len(degs))]
        return GradedMatrix(F, coeffs, sub, degs)

    def slot(j):
        return range(j * m, (j + 1) * m)

    def others(j):
        return [i for i in range(middle.m) if i not in slot(j)]

    if side == "epic":
        incl = [select(j, others(j)) - select(j, slot(j)) @ (
            f.components[j] @ select(j, others(j))) for j in range(l + 1)]
        maps = [graded_solve(incl[j + 1], middle.maps[j] @ incl[j]) for j in range(l)]
        ker = fac_build(maps, x.cfg, "kernel")
        return NuResolution(middle, f, ker, FacMap(ker, middle, incl))
    proj = [select(j, others(j), True)
            - (select(j, others(j), True) @ f.components[j]) @ select(j, slot(j), True)
            for j in range(l + 1)]
    maps = [proj[j + 1] @ middle.maps[j] @ select(j, others(j)) for j in range(l)]
    cok = fac_build(maps, x.cfg, "cokernel")
    return NuResolution(middle, f, cok, FacMap(middle, cok, proj))


def _zigzag_by_prefixes(x):
    """Reference: the zigzag identities from prefixes and tails."""
    for k in range(x.l):
        lhs = prefix(x, k).shift(-x.cfg.d) @ x.closing @ between(x, k, x.l)
        if lhs != omega_map(x.cfg.field, x.degs(k), x.cfg.d):
            return ZigzagViolation(k)
    return True


def _fac_hom_basis_by_slots(x, y):
    """Reference: one equation per position of B^j f^j - f^{j+1} A^j,
    written by looking every term up among the slots."""
    from facto.linalg import nullspace, zeros

    F = x.cfg.field
    slots = _hom_slots(x, y)
    if not slots:
        return []
    idx = {s: i for i, s in enumerate(slots)}
    rows = []
    for j in range(x.l):
        b, a = y.maps[j], x.maps[j]
        for r in range(len(y.degs(j + 1))):
            for c in range(len(x.degs(j))):
                row = [F.zero] * len(slots)
                for s in range(len(y.degs(j))):
                    if (j, s, c) in idx:
                        k = idx[(j, s, c)]
                        row[k] = F.add(row[k], b.coeffs[r][s])
                for s in range(len(x.degs(j))):
                    if (j + 1, r, s) in idx:
                        k = idx[(j + 1, r, s)]
                        row[k] = F.sub(row[k], a.coeffs[s][c])
                rows.append(row)
    out = []
    for vec in nullspace(F, rows, cols=len(slots)):
        mats = [zeros(F, len(y.degs(j)), len(x.degs(j))) for j in range(x.l + 1)]
        for (j, r, c), val in zip(slots, vec):
            mats[j][r][c] = val
        out.append(FacMap(x, y, [GradedMatrix(F, mats[j], x.degs(j), y.degs(j))
                                 for j in range(x.l + 1)]))
    return out


def _oracle_inputs(field, rng):
    """nu^k, rank-1 and conjugated random factorizations, l = 1..3."""
    for d, l in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (3, 3)):
        c = cfg(d, field)
        yield nu(c, l, rng.randrange(l + 1),
                 [rng.randrange(-1, 2) for _ in range(rng.randrange(1, 3))])
        yield random_rank1(c, l, rng)
        for m_max in (1, 2, 3):
            yield random_factorization(c, l, rng, m_max=m_max)


ORACLE_FIELDS = [GF(2), GF(3), GF(5), QQ]


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_resolutions_equal_the_adjunction_built_ones(field):
    """Cover, hull, kernel and cokernel field by field, and the split check."""
    rng = random.Random(61)
    for x in _oracle_inputs(field, rng):
        assert fac_projective_cover(x) == _trivial_sum_by_adjunctions(x, "epic")
        for side in ("epic", "monic"):
            got, want = nu_resolution(x, side), _resolution_by_solving(x, side)
            assert got.middle == want.middle, (x, side)
            assert got.map == want.map, (x, side)
            assert got.complement == want.complement, (x, side)
            assert got.complement_map == want.complement_map, (x, side)
            assert termwise_split_check(got, side) is True
            # without the map that the splitting is built from, the check fails
            broken = (got._replace(complement_map=FacMap.zero(got.complement, got.middle))
                      if side == "epic" else got._replace(map=FacMap.zero(x, got.middle)))
            assert termwise_split_check(broken, side) is False


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_resolution_complement_maps_pass_the_square_checks(field):
    """nu_resolution builds its complement maps unchecked; rebuilt with the
    check, every square commutes, the closing one included."""
    rng = random.Random(63)
    for x in _oracle_inputs(field, rng):
        for side in ("epic", "monic"):
            g = nu_resolution(x, side).complement_map
            assert FacMap(g.src, g.tgt, g.components, check=True) == g, (x, side)


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_cover_and_hull_maps_pass_the_square_checks(field):
    """fac_projective_cover and _injective_hull build their maps unchecked;
    rebuilt with the check, every square commutes, the closing one included."""
    rng = random.Random(64)
    for x in _oracle_inputs(field, rng):
        for _, f in (fac_projective_cover(x), _injective_hull(x)):
            assert FacMap(f.src, f.tgt, f.components, check=True) == f, x


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_transports_and_zigzags_equal_the_step_by_step_ones(field):
    rng = random.Random(62)
    for x in _oracle_inputs(field, rng):
        assert zigzag_check(x) is _zigzag_by_prefixes(x) is True
        for k in range(x.l + 1):
            h = GradedMatrix.identity(field, x.degs(k))
            # a random unimodular h as well as the identity
            u = random_unimodular(field, x.degs(k), rng)
            for g in (h, u):
                which = "nu_l_left" if k == 0 else "nu_k_left"
                assert (adjunction_transport(which, x, g, k=k or None, forward=False)
                        == _transport_step_by_step(which, x, g, k))
                assert (adjunction_transport("nu_k_right", x, g, k=k, forward=False)
                        == _transport_step_by_step("nu_k_right", x, g, k))


@pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=repr)
def test_a_wrong_closing_map_breaks_both_zigzag_checks_alike(field):
    rng = random.Random(63)
    two = field.from_int(2)
    for x in _oracle_inputs(field, rng):
        bad = Factorization(x.cfg, x.maps, x.closing.scale(two), x.twist)
        assert zigzag_check(bad) == _zigzag_by_prefixes(bad) == ZigzagViolation(0)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_fac_hom_basis_equals_the_slot_equations(field):
    """The same FacMaps in the same order, on pairs with every l and d."""
    rng = random.Random(64)
    sizes = []
    xs = list(_oracle_inputs(field, rng))
    for x in xs:
        for y in rng.sample([y for y in xs if y.l == x.l and y.cfg == x.cfg], 3):
            got = fac_hom_basis(x, y)
            assert got == _fac_hom_basis_by_slots(x, y), (x, y)
            sizes.append(len(got))
    assert max(sizes) >= 4 and 0 in sizes


# -- trivial factorizations built from the definition ------------------------------


def _nu_inputs(field):
    """(cfg, l, k, degs): every k for l = 1..3, d = 1..3, degree vectors
    from empty to three generators."""
    for d in (1, 2, 3):
        c = cfg(d, field)
        for l in (1, 2, 3):
            for k in range(l + 1):
                for degs in ([], [0], [2, -1], [1, 1, 0]):
                    yield c, l, k, degs


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_nu_equals_its_validated_maps(field):
    """nu is built unchecked; fac_validate of its maps gives the same object,
    the closing map included."""
    for c, l, k, degs in _nu_inputs(field):
        x = nu(c, l, k, degs)
        y = fac_validate(list(x.maps), c)
        assert isinstance(y, Factorization), (l, k, degs, y)
        assert y == x and y.closing == x.closing, (l, k, degs)
        assert zigzag_check(x) is True


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_nu_sum_equals_the_direct_sum_of_its_parts(field):
    rng = random.Random(65)
    for c, l, _, _ in _nu_inputs(field):
        parts = [(rng.randrange(l + 1), [rng.randrange(-1, 3) for _ in range(rng.randrange(3))])
                 for _ in range(rng.randrange(1, 5))]
        want = functools.reduce(Factorization.direct_sum, [_nu_sum(c, l, [p]) for p in parts])
        got = _nu_sum(c, l, parts)
        assert got == want and got.closing == want.closing, (l, parts)
        assert got == fac_validate(list(got.maps), c), (l, parts)


def test_nu_without_maps_is_still_invalid():
    with pytest.raises(FactorizationError, match="nu is invalid: need at least one map"):
        nu(cfg(2), 0, 0, [0])
    with pytest.raises(ValueError, match="k out of range"):
        nu(cfg(2), 1, 2, [0])


def test_trivial_sums_are_built_without_validation(monkeypatch):
    """nu, the cover and the hull make no fac_validate or fac_build call and
    no direct_sum fold; the cover and hull maps keep their square check."""
    rng = random.Random(66)
    xs = [random_factorization(cfg(d, GF(5)), l, rng) for d, l in ((2, 1), (3, 2), (2, 3))]

    def forbidden(*args, **kwargs):
        raise AssertionError("called")

    for name in ("fac_validate", "fac_build"):
        monkeypatch.setattr(f"facto.factorizations.{name}", forbidden)
    monkeypatch.setattr(Factorization, "direct_sum", forbidden)
    for x in xs:
        nu(x.cfg, x.l, x.l, x.degs(0))
        for _, f in (fac_projective_cover(x), _injective_hull(x)):
            assert FacMap(f.src, f.tgt, f.components, check=True) == f


# -- nu-resolutions by slot index against the slot-product construction --------


def _slots_by_matrices(middle, m, j):
    """(s, s_row, t, r) at position j: the 0/1 GradedMatrices of the
    inclusion of slot j and the projection onto it, then of the other
    slots (r t = id, r s = 0)."""
    F = middle.cfg.field
    degs = middle.degs(j)
    mine = range(j * m, (j + 1) * m)
    out = ()
    for idx in (mine, [i for i in range(len(degs)) if i not in mine]):
        sub = [degs[i] for i in idx]
        incl = [[F.one if r == i else F.zero for i in idx] for r in range(len(degs))]
        proj = [[F.one if c == i else F.zero for c in range(len(degs))] for i in idx]
        out += (GradedMatrix(F, incl, sub, degs),
                GradedMatrix(F, proj, degs, sub))
    return out


def _resolution_by_slot_products(x, side):
    """Reference: the complement and its map as products with the slot
    matrices, i_j = t - s p^j t with kernel maps r phi^j i_j, or
    q_j = r - r m^j s_row with cokernel maps q_{j+1} phi^j t."""
    middle, f = fac_projective_cover(x) if side == "epic" else _injective_hull(x)
    sel = [_slots_by_matrices(middle, x.m, j) for j in range(x.l + 1)]
    if side == "epic":
        incl = [t - s @ (f.components[j] @ t) for j, (s, _, t, _) in enumerate(sel)]
        ker = fac_build([r @ middle.maps[j] @ incl[j]
                         for j, (_, _, _, r) in enumerate(sel[1:])], x.cfg, "kernel")
        return NuResolution(middle, f, ker, FacMap(ker, middle, incl))
    proj = [r - (r @ f.components[j]) @ s_row for j, (_, s_row, _, r) in enumerate(sel)]
    cok = fac_build([proj[j + 1] @ middle.maps[j] @ t
                     for j, (_, _, t, _) in enumerate(sel[:-1])], x.cfg, "cokernel")
    return NuResolution(middle, f, cok, FacMap(middle, cok, proj))


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_resolutions_by_slot_index_equal_the_slot_products(field):
    """Middle, map, complement and complement map have equal JSON, l = 1..3,
    both sides; a zero epi and a zero projection still fail the split
    check."""
    rng = random.Random(71)
    count = 0
    for d in (2, 3):
        for l in (1, 2, 3):
            c = cfg(d, field)
            for x in [random_rank1(c, l, rng)] + [random_factorization(c, l, rng, m_max=m)
                                                  for m in (1, 2, 3)]:
                for side in ("epic", "monic"):
                    got, want = nu_resolution(x, side), _resolution_by_slot_products(x, side)
                    assert got.middle.to_json() == want.middle.to_json(), (x, side)
                    assert got.map.to_json() == want.map.to_json(), (x, side)
                    assert got.complement.to_json() == want.complement.to_json(), (x, side)
                    assert (got.complement_map.to_json()
                            == want.complement_map.to_json()), (x, side)
                    assert termwise_split_check(got, side) is True
                    bad = (got._replace(map=FacMap.zero(got.middle, x)) if side == "epic"
                           else got._replace(complement_map=FacMap.zero(
                               got.middle, got.complement)))
                    assert termwise_split_check(bad, side) is False
                    count += 1
    assert count == 2 * 3 * 4 * 2
