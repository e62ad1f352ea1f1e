import functools
import random

import pytest

from facto.factorizations import (
    FacMap,
    Factorization,
    Invalid,
    NuResolution,
    ZigzagViolation,
    _hom_slots,
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
from facto.polymat import GradedMatrix, NoSolution, PolyMatrix, graded_solve
from facto.randgen import random_factorization, random_unimodular


def cfg(d, field=QQ):
    return HypersurfaceConfig(d, field)


def mono_mat(field, power, degs_src):
    """x^power * I as a GradedMatrix on the given source degrees."""
    return GradedMatrix(
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
    a = GradedMatrix(mat, [1, 2], [0, 1])
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
    a = GradedMatrix(mat, [0, 0], [-1, -1])
    out = fac_validate([a], c)
    assert isinstance(out, Invalid) and "NonMonic" in out.reason


def test_validate_no_closing():
    c = cfg(2)
    F = QQ
    a = mono_mat(F, 3, [0])  # x^3 does not divide x^2
    out = fac_validate([a], c)
    assert isinstance(out, Invalid) and out.reason == "NoClosing"


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


# -- direct sum / contraction -------------------------------------------------------


def test_direct_sum_xx():
    c = cfg(2)
    x = xx(c)
    s = x.direct_sum(x)
    assert s.m == 2
    assert zigzag_check(s) is True


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
    maps = [GradedMatrix(PolyMatrix(QQ, []), [], [], check=False)]
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
        two = GradedMatrix(
            PolyMatrix.scalar(c.field, x.m, Polynomial(c.field, [c.field.from_int(2)])),
            x.degs(k), x.degs(k), check=False,
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
            return GradedMatrix.from_coeffs(F, coeffs, degs, sub)
        coeffs = [[F.one if r == i else F.zero for i in idx] for r in range(len(degs))]
        return GradedMatrix.from_coeffs(F, coeffs, sub, degs)

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
        out.append(FacMap(x, y, [GradedMatrix.from_coeffs(F, mats[j], x.degs(j), y.degs(j))
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
