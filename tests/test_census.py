import random

import pytest

from facto.census import (
    Bounds,
    _all_subspaces,
    _fac_tops,
    _flag_chain,
    _flag_factorization,
    _generators,
    _local_stabilizer,
    _splits,
    _subspace_flags,
    _top_modules,
    class_census,
    enumerate_chains,
    enumerate_factorizations,
    hom_dim_compare,
    stable_graded_subspaces,
)
from facto.chains import chain_is_indecomposable, chain_projective_test
from facto.factorizations import (
    FacMap,
    fac_hom_basis,
    fac_is_indecomposable,
    fac_projective_test,
    nu,
)
from facto.fields import GF, QQ
from facto.endo import is_local
from facto.linalg import Echelon, combination, mat_vec, nullspace
from facto.modules import HypersurfaceConfig, RModule, hom_basis
from facto.randgen import random_factorization, rank1_factorization


def cfg(d, field=GF(5)):
    return HypersurfaceConfig(d, field)


def test_bounds_parse():
    b = Bounds.parse("m=1,dim=3,window=3")
    assert (b.m, b.dim, b.window) == (1, 3, 3)
    with pytest.raises(ValueError):
        Bounds.parse("m=1,dim=3")
    with pytest.raises(ValueError):
        Bounds.parse("m=1,dim=x,window=2")
    with pytest.raises(ValueError):
        Bounds.parse("m=1,dim=2,window=1,m=3")


def test_all_subspaces_counts():
    F2, F5 = GF(2), GF(5)
    assert len(_all_subspaces(F2, 2, [F2.from_int(i) for i in range(2)])) == 5
    assert len(_all_subspaces(F5, 2, [F5.from_int(i) for i in range(5)])) == 8
    # the sum of the Gaussian binomials, counted before any is listed
    assert len(_all_subspaces(F2, 6, range(2))) == 2825
    with pytest.raises(ValueError, match="417199 subspaces"):
        _all_subspaces(F2, 8, range(2))


def test_stable_subspaces_of_cyclic():
    c = cfg(2)
    r = RModule.free(c, [0])
    spaces = stable_graded_subspaces(c.field, r.basis_degrees(), r.x_matrix())
    # 0, the socle, and R itself
    assert sorted(len(v) for v in spaces) == [0, 1, 2]


def _span(field, vecs):
    ech = Echelon(field)
    for v in vecs:
        ech.add(v)
    return ech


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
def test_generators_are_a_complement_of_xV(field):
    """On random x-stable subspaces V of random tops, the chosen generators
    have x-closure V, and there are dim V - dim xV of them."""
    rng = random.Random(17)
    seen = 0
    for _ in range(12):
        d = rng.randrange(2, 5)
        top = RModule(cfg(d, field), [(rng.randrange(1, d + 1), rng.randrange(0, 2))
                                      for _ in range(rng.randrange(1, 3))])
        xm = top.x_matrix()
        spaces = stable_graded_subspaces(field, top.basis_degrees(), xm)
        for vecs in rng.sample(spaces, min(6, len(spaces))):
            gens = _generators(field, xm, vecs)
            closure, layer = [], gens
            for _ in range(d):
                closure += layer
                layer = [mat_vec(field, xm, v) for v in layer]
            space = _span(field, vecs)
            assert _span(field, closure).dim == space.dim
            assert all(space.contains(v) for v in closure)
            x_dim = _span(field, [mat_vec(field, xm, v) for v in vecs]).dim
            assert len(gens) == space.dim - x_dim
            seen += len(gens) > 1
    assert seen  # some V need more than one generator


def test_enumerate_factorizations_d2_l1():
    c = cfg(2)
    facs = enumerate_factorizations(c, 1, 1, 0)
    nonzero = [x for x in facs if not x.is_zero()]
    # (x, x), (x^2, 1), (1, x^2) up to shift
    assert len(nonzero) == 3
    assert sorted(x.maps[0].mat.entries[0][0].degree for x in nonzero) == [0, 1, 2]


def test_enumerate_factorizations_d3_l1():
    c = cfg(3)
    facs = enumerate_factorizations(c, 1, 1, 0)
    assert len([x for x in facs if not x.is_zero()]) == 4


def test_enumerate_factorizations_needs_finite_field():
    with pytest.raises(ValueError):
        enumerate_factorizations(cfg(2, QQ), 1, 1, 0)


def test_enumerate_chains_d2_l1():
    c = cfg(2)
    chains = enumerate_chains(c, 1, 2, 0)
    # 0, k, k^2, R
    assert len(chains) == 4


def test_census_classical():
    for d in (2, 3, 4):
        c = cfg(d)
        rep = class_census(c, 1, Bounds(m=1, dim=d, window=d))
        assert len(rep.fac_classes) == d - 1
        assert len(rep.chain_classes) == d - 1
        assert len(rep.matching) == d - 1
        assert rep.fac_hom_table == rep.chain_hom_table
        assert rep.to_table()
        assert rep.to_json()["matching"]


def test_census_l2_d2():
    c = cfg(2)
    rep = class_census(c, 2, Bounds(m=2, dim=2, window=2))
    assert rep.matching
    # every chain class within bounds got hit
    hit = {j for _, j in rep.matching}
    assert hit == set(range(len(rep.chain_classes)))


def test_hom_dim_compare_fixed():
    c = cfg(2)
    x = rank1_factorization(c, [1])
    lhs, rhs, ok = hom_dim_compare(x, x)
    assert ok and lhs == rhs
    y = nu(c, 1, 1, [0])
    lhs, rhs, ok = hom_dim_compare(x, y)
    assert ok and lhs == 0 and rhs == 0


def test_hom_dim_compare_random():
    rng = random.Random(61)
    for d, l in ((2, 1), (2, 2), (3, 2)):
        c = cfg(d)
        for _ in range(6):
            x = random_factorization(c, l, rng, m_max=2)
            y = random_factorization(c, l, rng, m_max=2)
            lhs, rhs, ok = hom_dim_compare(x, y)
            assert ok, (lhs, rhs)


def _classes_by_dedup_first(c, l, bounds):
    """The class lists as deduplicating every flag object first gives them."""
    facs = [x for x in enumerate_factorizations(c, l, bounds.m, bounds.window)
            if fac_is_indecomposable(x) and not fac_projective_test(x)]
    chains = [u for u in enumerate_chains(c, l, bounds.dim, bounds.window)
              if chain_is_indecomposable(u) and not chain_projective_test(u)]
    return [x.to_json() for x in facs], [u.to_json() for u in chains]


@pytest.mark.parametrize("d, field", [(2, GF(5)), (2, GF(2)), (3, GF(2))],
                         ids=repr)
def test_census_classes_equal_dedup_first_oracle(d, field):
    """Filtering flag objects by End(X) before dedup keeps the same
    classes, in the same order, as filtering the deduplicated lists."""
    c = cfg(d, field)
    bounds = Bounds(m=2, dim=3, window=2)
    rep = class_census(c, 2, bounds)
    assert _classes_by_dedup_first(c, 2, bounds) == (
        rep.to_json()["fac_classes"], rep.to_json()["chain_classes"])


@pytest.mark.parametrize("d", [2, 3])
def test_census_does_not_depend_on_the_seed(d):
    c, bounds = cfg(d), Bounds(m=2, dim=3, window=2)
    assert (class_census(c, 2, bounds, seed=0).to_json()
            == class_census(c, 2, bounds, seed=7).to_json())


def _stabilizer_decisions(c, tops, length, build):
    """(stabilizer decision, built object) for every raw flag of `tops`."""
    F = c.field
    for key, top in tops:
        spaces = (stable_graded_subspaces(F, top.basis_degrees(),
                                          top.x_matrix()) if length else [])
        local = _local_stabilizer(F, top, spaces)
        for flag in _subspace_flags(F, spaces, length, top.basis_degrees()):
            yield local(flag), build(c, key, [spaces[i] for i in flag])


@pytest.mark.parametrize("d, field", [(2, GF(5)), (3, GF(2))], ids=repr)
def test_flag_stabilizer_decides_indecomposability(d, field):
    """The census keeps a flag iff its stabilizer in End(top) is local;
    that must be fac_is_indecomposable / chain_is_indecomposable of the
    object the flag builds, on every raw flag of both sides."""
    c = cfg(d, field)
    bounds = Bounds(m=2, dim=3, window=2)
    facs = list(_stabilizer_decisions(
        c, _fac_tops(c, bounds.m, bounds.window), 2, _flag_factorization))
    tops = _top_modules(c, bounds.dim, bounds.window)
    chains = list(_stabilizer_decisions(c, ((t, t) for t in tops), 1,
                                        _flag_chain))
    for got, x in facs:
        assert got == fac_is_indecomposable(x), x
    for got, u in chains:
        assert got == chain_is_indecomposable(u), u
    # both answers occur on both sides
    assert {got for got, _ in facs} == {got for got, _ in chains} == {True, False}


def _l2_census_sides(c, bounds):
    """(tops, flag length, build, indecomposability test) of both sides of
    an l=2 census, as class_census walks them."""
    tops = [t for t in _top_modules(c, bounds.dim, bounds.window)
            if t.min_degree() == 0]
    return [(list(_fac_tops(c, bounds.m, bounds.window)), 2, _flag_factorization,
             fac_is_indecomposable),
            ([(t, t) for t in tops], 1, _flag_chain, chain_is_indecomposable)]


def test_splits_reads_the_degree_intervals():
    c = cfg(3)
    assert not _splits(RModule.zero(c))
    assert not _splits(RModule(c, [(3, 1)]))
    # [0, 0] and [1, 1] share no degree; [0, 1] and [1, 1] share 1
    assert _splits(RModule(c, [(1, 0), (1, 1)]))
    assert not _splits(RModule(c, [(2, 0), (1, 1)]))
    # a free summand spans d degrees: [0, 2] reaches [2, 4] but not [3, 5]
    assert not _splits(RModule.free(c, [2, 0]))
    assert _splits(RModule.free(c, [3, 0]))
    assert _splits(RModule(c, [(1, 4), (2, 0), (1, 1)]))


@pytest.mark.parametrize("d, field, window", [(2, GF(3), 2), (3, GF(2), 3)],
                         ids=repr)
def test_split_tops_carry_only_decomposable_flags(d, field, window):
    """On a top that `_splits`, every flag fails keep and builds a
    decomposable object, on both sides: class_census may skip it."""
    c = cfg(d, field)
    for tops, length, build, indecomposable in _l2_census_sides(
            c, Bounds(m=2, dim=3, window=window)):
        split = [(key, top) for key, top in tops if _splits(top)]
        decisions = list(_stabilizer_decisions(c, split, length, build))
        assert split and decisions
        for got, x in decisions:
            assert not got and not indecomposable(x), x


@pytest.mark.parametrize("d, field", [(2, GF(5)), (3, GF(5)), (3, GF(2))],
                         ids=repr)
def test_memoized_keep_equals_a_fresh_decision(d, field, monkeypatch):
    """One keep per top answers repeated head bases from its memo; on
    every flag of the tops of a criterion-2 census it agrees with a fresh
    keep, and it calls is_local less often than there are flags."""
    c = cfg(d, field)
    F = c.field
    calls = []
    monkeypatch.setattr("facto.census.is_local",
                        lambda *args: calls.append(1) or is_local(*args))
    flags = memo_calls = 0
    for tops, length, _, _ in _l2_census_sides(c, Bounds(m=2, dim=3, window=2)):
        for _, top in tops:
            spaces = stable_graded_subspaces(F, top.basis_degrees(),
                                             top.x_matrix())
            keep = _local_stabilizer(F, top, spaces)
            for flag in _subspace_flags(F, spaces, length, top.basis_degrees()):
                before = len(calls)
                got = keep(flag)
                memo_calls += len(calls) - before
                assert got == _local_stabilizer(F, top, spaces)(flag), (top, flag)
                flags += 1
    assert memo_calls < flags


@pytest.mark.parametrize("d, field", [(2, GF(5)), (3, GF(2))], ids=repr)
def test_degree_prefilter_keeps_the_flags(d, field):
    """Comparing dim V_s <= dim W_s before row reduction yields the same
    flags in the same order as plain containment of every pair."""
    c = cfg(d, field)
    for tops, _, _, _ in _l2_census_sides(c, Bounds(m=2, dim=3, window=2)):
        for _, top in tops:
            degs = top.basis_degrees()
            spaces = stable_graded_subspaces(field, degs, top.x_matrix())
            inside = [[all(_span(field, w).contains(v) for v in vecs)
                       for w in spaces] for vecs in spaces]
            plain = [(i,) for i in range(len(spaces))]
            for length in (1, 2, 3):
                assert list(_subspace_flags(field, spaces, length, degs)) == plain
                plain = [f + (j,) for f in plain for j in range(len(spaces))
                         if inside[f[-1]][j]]


def _full_stabilizer(field, top, flag):
    """Reference: the flag's stabilizer in End(top) from conditions on every
    vector of every V, as n x n realizations."""
    homs = [f.realization() for f in hom_basis(top, top)]
    n = top.dim
    rows = []
    for vecs in flag:
        annihilator = nullspace(field, vecs, cols=n)
        for v in vecs:
            cols = [mat_vec(field, annihilator, mat_vec(field, h, v))
                    for h in homs]
            rows += [[col[r] for col in cols] for r in range(len(annihilator))]
    return [combination(field, c, homs, n, n)
            for c in nullspace(field, rows, cols=len(homs))]


def _head(top, phi):
    """phi on top / x top, read off the realization: the coefficient of
    gen_u in phi(gen_t), 0 between generators of different degrees."""
    gens = [top.basis.index((t, 0)) for t in range(len(top.summands))]
    degs = top.basis_degrees()
    return [[phi[a][b] if degs[a] == degs[b] else top.cfg.field.zero
             for b in gens] for a in gens]


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
def test_local_stabilizer_equals_the_full_stabilizer_oracle(field, monkeypatch):
    """Conditions on generators only, decided on End(T/xT), agree with the
    full stabilizer in End(T): is_local gets one head per basis vector of
    it, the heads span its image in End(T/xT), and the answer is is_local
    on the full stabilizer; on random flags of random tops with up to
    three summands."""
    heads = []
    monkeypatch.setattr("facto.census.is_local",
                        lambda F, basis: heads.append(basis) or is_local(F, basis))
    rng = random.Random(5)
    answers = set()
    for _ in range(14):
        d = rng.randrange(2, 5)
        top = RModule(cfg(d, field), [(rng.randrange(1, d + 1), rng.randrange(0, 3))
                                      for _ in range(rng.randrange(1, 4))])
        if top.dim > (6 if field.p == 2 else 4):
            continue
        spaces = stable_graded_subspaces(field, top.basis_degrees(),
                                         top.x_matrix())
        flags = list(_subspace_flags(field, spaces, 2, top.basis_degrees()))
        for flag in rng.sample(flags, min(40, len(flags))):
            # a fresh keep per flag: a memo hit would not reach is_local
            got = _local_stabilizer(field, top, spaces)(flag)
            full = _full_stabilizer(field, top, [spaces[i] for i in flag])
            assert got == is_local(field, full), (top, flag)
            # one head per stabilizer basis vector, spanning the image
            assert len(heads[-1]) == len(full)
            image = _span(field, [sum(_head(top, phi), []) for phi in full])
            mine = _span(field, [sum(h, []) for h in heads[-1]])
            assert mine.dim == image.dim and all(
                image.contains(row) for row in mine.rows), (top, flag)
            answers.add(got)
    assert answers == {True, False}


@pytest.mark.parametrize("d", [2, 3])
def test_fac_hom_basis_maps_pass_the_square_check(d):
    """fac_hom_basis builds its maps unchecked, as its solver writes the
    squares; rebuilt with the check, each basis map of each pair of
    criterion-2 classes still passes it."""
    facs = class_census(cfg(d), 2, Bounds(m=2, dim=3, window=2)).fac_classes
    count = 0
    for x in facs:
        for y in facs:
            for f in fac_hom_basis(x, y):
                FacMap(x, y, f.components, check=True)
                count += 1
    assert count > len(facs)


def test_census_agrees_across_fields_at_d4():
    """l=2, d=4: F_2 and F_5 give the same classes, matching and tables."""
    bounds = Bounds(m=2, dim=4, window=3)
    reps = [class_census(cfg(4, field), 2, bounds) for field in (GF(2), GF(5))]
    summaries = [(len(r.fac_classes), len(r.chain_classes), r.matching,
                  r.fac_hom_table, r.chain_hom_table) for r in reps]
    assert summaries[0] == summaries[1]
    assert len(reps[0].matching) == len(reps[0].chain_classes)


def test_ringel_schmidt_count_at_d2():
    """The l=2 chains at d=2 are the invariant subspaces of a nilpotent
    operator with x^2 = 0, the category S(2) of Ringel-Schmidt
    (Crelle 614, 2008).  It has 5 indecomposables: (0 <= k), (k = k),
    (0 <= R), (soc R <= R) and (R = R), with R = k[x]/(x^2); the two
    projective-injectives are (0 <= R) and (R = R).

    Grading: S(2) has finite type, so by Gabriel's covering theory its
    Z-cover (the graded chains) has every indecomposable gradable, and
    push-down is a bijection from graded indecomposables up to shift to
    the ungraded ones.  Each indecomposable has a top of dimension <= 2
    generated in degree 0 once shifted, inside dim=4, window=2, so the
    census finds exactly the 3 nonprojective classes, and the
    equivalence makes cok match each of them with a factorization.
    """
    rep = class_census(cfg(2, GF(2)), 2, Bounds(m=3, dim=4, window=2))
    assert len(rep.chain_classes) == 3
    assert len(rep.fac_classes) == len(rep.matching) == 3
    assert {j for _, j in rep.matching} == {0, 1, 2}
    assert rep.fac_hom_table == rep.chain_hom_table


def test_ringel_schmidt_count_at_d3():
    """The l=2 chains at d=3 form S(3), which has 10 indecomposables
    (Ringel-Schmidt, Crelle 614, 2008); two of them, (0 <= R) and (R = R)
    with R = k[x]/(x^3), are projective-injective, so at most 8 classes
    are nonprojective.

    Sharpness: push-down sends a graded indecomposable to an ungraded
    one, and two graded ones that are not shifts of each other to
    non-isomorphic ones (the shifts of an indecomposable are its only
    graded forms), projectives to projectives and nonprojectives to
    nonprojectives.  So the graded classes up to shift are at most the 8
    ungraded nonprojective ones, within any bounds; finding 8 shows that
    m=3, dim=6, window=3 miss none.  The equivalence then matches each
    with a factorization under cok, with equal stable hom tables.
    """
    rep = class_census(cfg(3, GF(2)), 2, Bounds(m=3, dim=6, window=3))
    assert len(rep.chain_classes) == 8
    assert len(rep.fac_classes) == len(rep.matching) == 8
    assert {j for _, j in rep.matching} == set(range(8))
    assert rep.fac_hom_table == rep.chain_hom_table
