import functools
import hashlib
import itertools
import json
import random

import pytest

from facto import census
from facto.census import (
    Bounds,
    _all_subspaces,
    _chain_build,
    _dedup,
    _fac_build,
    _fac_tops,
    _generators,
    _local_stabilizer,
    _primitive_root,
    _reconstruction_in_bounds,
    _splits,
    _subspace_flags,
    _top_modules,
    class_census,
    enumerate_chains,
    enumerate_factorizations,
    hom_dim_compare,
    stable_graded_subspaces,
)
from facto.chains import (
    _chain_fingerprint,
    chain_is_indecomposable,
    chain_iso_test,
    chain_projective_test,
)
from facto.factorizations import (
    FacMap,
    _fac_fingerprint,
    fac_hom_basis,
    fac_is_indecomposable,
    fac_iso_test,
    fac_projective_test,
    nu,
    rotate,
)
from facto.fields import GF, QQ
from facto.endo import is_local
from facto.functors import reconstruct
from facto.linalg import Echelon, combination, mat_mul, mat_vec, nullspace, rref
from facto.functors import span_preimage_inclusion
from facto.modules import (
    HypersurfaceConfig,
    RModule,
    _shifts,
    hom_basis,
    realization_to_module,
    submodule,
)
from facto.randgen import random_chain, random_factorization, rank1_factorization
from reference import (
    _flag_chains,
    _flag_factorizations,
    _preimage_by_jordan_tops,
    from_realization,
    projection_splits,
    realization,
    split,
    subspace_realization,
    to_ambient,
    x_matrix,
)
from reference import stable_graded_subspaces as ambient_stable_graded_subspaces


def cfg(d, field=GF(5)):
    return HypersurfaceConfig(d, field)


# one report per census that several tests read
_cached_census = functools.cache(class_census)


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
    spaces = stable_graded_subspaces(c.field, r)
    # 0, the socle, and R itself
    assert sorted(sum(map(len, v.values())) for v in spaces) == [0, 1, 2]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5)], ids=repr)
def test_piece_subspaces_equal_the_ambient_listing(field):
    """On the chain tops and the free tops of the criterion-2 censuses
    (d=2, 3; m=2, dim=3, window=2), stable_graded_subspaces lists the
    ambient reference's subspaces, in its order, each as the RREFs of its
    degree pieces; and the submodule and the preimage inclusion built from
    each one's pieces equal those built from its ambient vectors."""
    bounds = Bounds(m=2, dim=3, window=2)
    built = 0
    for d in (2, 3):
        c = cfg(d, field)
        tops = list(_fac_tops(c, bounds.m, bounds.window))
        tops += _top_modules(c, bounds.dim, bounds.window)
        for top in tops:
            degs, xm = top.basis_degrees(), x_matrix(top)
            spaces = stable_graded_subspaces(field, top)
            want = ambient_stable_graded_subspaces(field, degs, xm)
            assert spaces == [{s: _rref(field, rows) for s, rows in
                               split(field, degs, vecs).items()} for vecs in want], top
            for space in spaces:
                vecs = to_ambient(field, top, space)
                sdegs, sx, incl = subspace_realization(field, degs, xm, vecs)
                sub, to_real = realization_to_module(c, sdegs, sx)
                assert submodule(top, space) == from_realization(
                    sub, top, mat_mul(field, incl, to_real)), (top, vecs)
                if top.is_free() and top.summands:
                    degs_l = [s for _, s in top.summands]
                    assert span_preimage_inclusion(c, submodule(top, space)) == (
                        _preimage_by_jordan_tops(c, degs_l, vecs)), (top, vecs)
                built += 1
    assert built > 100


def _rref(field, rows):
    return tuple(map(tuple, rref(field, rows)[0]))


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
        xm = x_matrix(top)
        spaces = stable_graded_subspaces(field, top)
        for pieces in rng.sample(spaces, min(6, len(spaces))):
            gens = to_ambient(field, top, _generators(field, _shifts(top), pieces))
            vecs = to_ambient(field, top, pieces)
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


@pytest.mark.parametrize("call, says", [
    (lambda: enumerate_factorizations(cfg(3000), 2, 1, 0), "m\\*d = 3000"),
    (lambda: enumerate_chains(cfg(2), 2, 2000, 0), "dim = 2000"),
    (lambda: enumerate_factorizations(cfg(2), 3000, 1, 0), "l = 3000"),
    (lambda: enumerate_chains(cfg(2), 3000, 1, 0), "l = 3000"),
], ids=["fac-m*d", "chain-dim", "fac-l", "chain-l"])
def test_enumerators_reject_sizes_beyond_the_census_limit(call, says):
    """The public enumerators check MAX_CENSUS_SIZE as class_census does,
    so a huge top is a ValueError and not a RecursionError."""
    with pytest.raises(ValueError, match=says):
        call()


@pytest.mark.parametrize("l", [0, -1])
def test_census_needs_at_least_one_map(l):
    """l < 1 is a ValueError before any enumeration, not an empty report,
    an empty list or a FactorizationError."""
    for call in (lambda: class_census(cfg(2), l, Bounds(m=2, dim=3, window=2)),
                 lambda: enumerate_factorizations(cfg(2), l, 2, 2),
                 lambda: enumerate_chains(cfg(2), l, 3, 2)):
        with pytest.raises(ValueError, match=f"l = {l}"):
            call()


def test_enumerate_chains_d2_l1():
    c = cfg(2)
    # the indecomposables k and R; the raw flag chains also give 0 and k^2
    assert len(enumerate_chains(c, 1, 2, 0)) == 2
    assert len(_dedup(_flag_chains(c, 1, 2, 0), _chain_fingerprint,
                      chain_iso_test)) == 4


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
    facs = [x for x in _dedup(_flag_factorizations(c, l, bounds.m, bounds.window),
                              _fac_fingerprint, fac_iso_test)
            if fac_is_indecomposable(x) and not fac_projective_test(x)]
    chains = [u for u in _dedup(_flag_chains(c, l, bounds.dim, bounds.window),
                                _chain_fingerprint, chain_iso_test)
              if chain_is_indecomposable(u) and not chain_projective_test(u)]
    return [x.to_json() for x in facs], [u.to_json() for u in chains]


@pytest.mark.parametrize("d, field", [(2, GF(5)), (3, GF(5)), (2, GF(7)),
                                      (2, GF(2)), (3, GF(2))], ids=repr)
def test_census_classes_equal_dedup_first_oracle(d, field):
    """Filtering flag objects by End(X) before dedup keeps the same
    classes, in the same order, as filtering the deduplicated lists."""
    c = cfg(d, field)
    bounds = Bounds(m=2, dim=3, window=2)
    rep = class_census(c, 2, bounds)
    assert _classes_by_dedup_first(c, 2, bounds) == (
        rep.to_json()["fac_classes"], rep.to_json()["chain_classes"])


def _torus_least_flags(field, top, spaces, length):
    """Reference: the flags of `spaces` (the RREF pieces of the x-stable
    subspaces of `top`) that no summand projection splits
    (`projection_splits`) and that no scaling of the summands of top by
    units, out of all (p-1)^g of them, maps to a lex-smaller flag."""
    index = {tuple(v.items()): i for i, v in enumerate(spaces)}
    owner = {s: [top.basis[k][0] for k in idx] for s, idx in top.pieces().items()}
    moves = [[index[tuple((s, _rref(field, [
        [field.mul(a, lam[owner[s][c]]) for c, a in enumerate(row)] for row in rows]))
        for s, rows in v.items())] for v in spaces]
        for lam in itertools.product(range(1, field.p), repeat=len(top.summands))]
    return [flag for flag in _subspace_flags(field, spaces, length)
            if all(tuple(move[i] for i in flag) >= flag for move in moves)
            and not projection_splits(field, top, [to_ambient(field, top, spaces[i])
                                                   for i in flag])]


@pytest.mark.parametrize("p, d, top, length", [
    (3, 3, [(3, 0), (3, 1)], 2),
    (3, 3, [(2, 0), (1, 0), (1, 1)], 2),
    (3, 2, [(2, 0), (2, 0), (2, 1)], 3),
    (5, 2, [(2, 0), (2, 0)], 3),
    (5, 3, [(3, 0), (3, 1)], 2),
    (5, 3, [(3, 0), (2, 0), (1, 1)], 1),
    (7, 2, [(2, 0), (2, 1)], 3),
    (7, 3, [(2, 0), (2, 1)], 2),
    (7, 2, [(2, 0), (1, 0), (1, 1)], 1),
], ids=repr)
def test_torus_pruned_flags_are_the_lex_least_of_each_orbit(p, d, top, length):
    """Given its top, _subspace_flags lists exactly the flags that no
    summand projection splits and that are lex-least in their orbit under
    the whole torus (F_p^*)^g of the top, on free and non-free tops, flags
    of length 1 to 3; and it drops some."""
    field = GF(p)
    top = RModule(cfg(d, field), top)
    spaces = stable_graded_subspaces(field, top)
    got = list(_subspace_flags(field, spaces, length, top))
    assert got == _torus_least_flags(field, top, spaces, length)
    assert len(got) < len(list(_subspace_flags(field, spaces, length)))


def test_primitive_root_generates_the_units():
    for p in range(2, 200):
        if all(p % q for q in range(2, p)):
            w = _primitive_root(GF(p))
            assert next(k for k in range(1, p) if pow(w, k, p) == 1) == p - 1, p
    assert _primitive_root(GF(2)) == 1
    assert _primitive_root(GF(2 ** 31 - 1)) == 7


def test_primitive_root_is_found_once_per_enumeration(monkeypatch):
    """Each enumerator looks the unit up once for its field, not per top,
    and not at all for flags of no member, which also need no finite field."""
    calls = []
    monkeypatch.setattr(census, "_primitive_root",
                        lambda field, real=_primitive_root: calls.append(field) or real(field))
    c = cfg(3)
    assert len(list(_fac_tops(c, 2, 2))) > 1
    assert enumerate_factorizations(c, 2, 2, 2)
    assert calls == [GF(5)]
    assert enumerate_chains(c, 2, 3, 2)
    assert calls == [GF(5)] * 2
    assert enumerate_chains(c, 1, 3, 2) and enumerate_chains(cfg(3, QQ), 1, 3, 2)
    assert calls == [GF(5)] * 2


# sha256 of json.dumps(report.to_json(), sort_keys=True), recorded from the
# census as it was before flags were listed up to the torus of their top:
# regression pins of the reports, not independent counts
PINNED_REPORTS = [
    (2, 2, Bounds(m=2, dim=3, window=2),
     "a0dfc187c422592d2edac2f53c01e7054864ae510be572c3037419d4c69a1ae3"),
    (2, 3, Bounds(m=2, dim=3, window=2),
     "9163ea88d360fc9402c501ea1006ee7b0f38d9d783aa21f6446bd2094e6c42d6"),
    (3, 3, Bounds(m=2, dim=3, window=2),
     "6f6b5fd4161d194404c16550a1a56b4481f2d88e58b376f2616a30031cc4c0d7"),
    (2, 4, Bounds(m=2, dim=4, window=3),
     "cf6c0c607f2d7f713ac586425a95ac1c293831b6005115d6d2f1843461ec8893"),
]


@pytest.mark.parametrize("field", [GF(2), GF(5)], ids=repr)
def test_matching_tries_every_chain_class_of_a_fingerprint(field):
    """_match pairs each canonical cok with the one isomorphic chain class
    among the classes of its fingerprint: the two socle_or_side chains
    share their objects and are not isomorphic, in both orders; a cok with
    no partner in bounds, a cok with two and a class hit twice raise
    MatchFailure."""
    from facto.census import MatchFailure, _match
    from test_chains import socle_or_side

    u, v = (socle_or_side(HypersurfaceConfig(2, field), side) for side in (0, 1))
    bounds = Bounds(m=0, dim=0, window=0)  # nothing is in bounds
    assert _match([u, v], [v, u], bounds) == [(0, 1), (1, 0)]
    assert _match([v, u], [v, u], bounds) == [(0, 0), (1, 1)]
    assert _match([u], [v], bounds) == []
    with pytest.raises(MatchFailure):
        _match([u], [v], Bounds(m=2, dim=3, window=1))
    with pytest.raises(MatchFailure):
        _match([u], [u, u], bounds)
    with pytest.raises(MatchFailure):
        _match([u, u], [v, u], bounds)


@pytest.mark.parametrize("l, d, bounds, digest", PINNED_REPORTS,
                         ids=[f"l{l}-d{d}" for l, d, _, _ in PINNED_REPORTS])
def test_census_report_matches_its_pinned_digest(l, d, bounds, digest):
    rep = class_census(cfg(d), l, bounds)
    text = json.dumps(rep.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# the census workload's censuses (F_5), Ringel-Schmidt d=3 over F_2, and
# l=3, d=3 over F_5
CERTIFIED = [(2, 2, GF(5), Bounds(m=2, dim=3, window=2)),
             (2, 3, GF(5), Bounds(m=2, dim=3, window=2)),
             (1, 2, GF(5), Bounds(m=1, dim=2, window=2)),
             (1, 3, GF(5), Bounds(m=1, dim=3, window=3)),
             (1, 4, GF(5), Bounds(m=1, dim=4, window=4)),
             (2, 3, GF(2), Bounds(m=3, dim=6, window=3)),
             (3, 3, GF(5), Bounds(m=2, dim=3, window=2)),
             (3, 4, GF(2), Bounds(m=2, dim=4, window=3))]


@pytest.mark.parametrize("l, d, field, bounds", CERTIFIED,
                         ids=[f"l{l}-d{d}-{f!r}" for l, d, f, _ in CERTIFIED])
def test_distinct_stable_hom_rows_certify_non_isomorphism(l, d, field, bounds):
    """If X is isomorphic to Y, then Hom(X, Z) and Hom(Y, Z) are isomorphic
    in the stable category for every Z, so their rows of the stable hom
    table are equal.  Classes are normalized to minimum degree 0 and an
    isomorphism preserves degrees, so pairwise distinct rows certify that
    the classes are pairwise non-isomorphic, up to shift, without the iso
    search: they are pairwise distinct here."""
    rep = class_census(cfg(d, field), l, bounds)
    rows = [tuple(row) for row in rep.fac_hom_table]
    assert len(rows) == len(rep.fac_classes) > 0
    assert len(set(rows)) == len(rows)


@pytest.mark.parametrize("d", [2, 3])
def test_census_does_not_depend_on_the_seed(d):
    c, bounds = cfg(d), Bounds(m=2, dim=3, window=2)
    assert (class_census(c, 2, bounds, seed=0).to_json()
            == class_census(c, 2, bounds, seed=7).to_json())


def test_census_classes_come_from_the_enumerators(monkeypatch):
    """class_census reaches its classes through the public enumerators,
    looked up on the census module as the bench's spans bind them."""
    calls = []
    for name in ("enumerate_factorizations", "enumerate_chains"):
        real = getattr(census, name)
        monkeypatch.setattr(census, name, lambda *a, real=real, name=name: (
            calls.append(name) or real(*a)))
    rep = class_census(cfg(2), 2, Bounds(m=2, dim=3, window=2))
    assert sorted(calls) == ["enumerate_chains", "enumerate_factorizations"]
    assert rep.matching


def test_census_builds_each_member_inclusion_once(monkeypatch):
    """On l=3 censuses, each enumerator takes a member's submodule, and
    the factorization side its preimage in S^m, at most once per (top,
    subspace)."""
    side, built = [None], []
    for name in ("enumerate_factorizations", "enumerate_chains"):
        real = getattr(census, name)
        monkeypatch.setattr(census, name, lambda *a, real=real, name=name: (
            side.__setitem__(0, name) or real(*a)))
    sub, pre = census.submodule, census.span_preimage_inclusion
    monkeypatch.setattr(census, "submodule", lambda top, space: (
        built.append((side[0], "submodule", top.summands,
                      tuple((s, tuple(map(tuple, vecs))) for s, vecs in space.items())))
        or sub(top, space)))
    monkeypatch.setattr(census, "span_preimage_inclusion", lambda c, incl: (
        built.append((side[0], "span_preimage_inclusion", incl.tgt.summands,
                      incl.src.summands, incl.blocks))
        or pre(c, incl)))
    for d, field, bounds in ((3, GF(5), Bounds(m=2, dim=3, window=2)),
                             (2, GF(2), Bounds(m=3, dim=4, window=2))):
        built.clear()
        class_census(cfg(d, field), 3, bounds)
        assert {b[:2] for b in built} == {
            ("enumerate_factorizations", "submodule"),
            ("enumerate_factorizations", "span_preimage_inclusion"),
            ("enumerate_chains", "submodule")}
        assert len(built) == len(set(built))


def _fac_in_bounds(x, bounds):
    """The partner test on a reconstruction x: shifted to minimum degree 0,
    it is within the factorization bounds."""
    x = x.shift(-x.min_degree())
    return x.m <= bounds.m and all(s <= bounds.window for s in x.degs(x.l))


def test_partner_bounds_read_off_the_top_equal_a_reconstruction():
    """_reconstruction_in_bounds(v) agrees with _fac_in_bounds of
    reconstruct(v), for m and window in 0..3, on the chain classes of nine
    censuses and on random chains over F_2, F_5 and Q."""
    chains = [u for l, d, p, dim, window in (
        (2, 2, 5, 3, 2), (2, 3, 5, 3, 2), (1, 2, 5, 2, 2), (1, 3, 5, 3, 3),
        (1, 4, 5, 4, 4), (2, 3, 2, 6, 3), (3, 3, 5, 3, 2), (2, 4, 5, 3, 2),
        (2, 4, 2, 4, 3)) for u in enumerate_chains(cfg(d, GF(p)), l, dim, window)]
    rng = random.Random(23)
    for field in (GF(2), GF(5), QQ):
        for _ in range(30):
            c = cfg(rng.randrange(1, 5), field)
            chains.append(random_chain(c, rng.randrange(1, 4), rng, max_summands=3))
    answers = set()
    for v in chains:
        x = reconstruct(v)
        for m in range(4):
            for window in range(4):
                bounds = Bounds(m=m, dim=0, window=window)
                want = _fac_in_bounds(x, bounds)
                assert _reconstruction_in_bounds(v, bounds) == want, (v, bounds)
                answers.add(want)
    assert answers == {True, False}


def _stabilizer_decisions(c, tops, length, build):
    """(stabilizer decision, built object) for every raw flag of `tops`."""
    F = c.field
    for top in tops:
        spaces = stable_graded_subspaces(F, top) if length else []
        local = _local_stabilizer(F, top, spaces)
        make = build(c, top, spaces)
        for flag in _subspace_flags(F, spaces, length):
            yield local(flag), make(flag)


@pytest.mark.parametrize("d, field", [(2, GF(5)), (3, GF(2))], ids=repr)
def test_flag_stabilizer_decides_indecomposability(d, field):
    """The census keeps a flag iff its stabilizer in End(top) is local;
    that must be fac_is_indecomposable / chain_is_indecomposable of the
    object the flag builds, on every raw flag of both sides."""
    c = cfg(d, field)
    bounds = Bounds(m=2, dim=3, window=2)
    facs = list(_stabilizer_decisions(
        c, _fac_tops(c, bounds.m, bounds.window), 2, _fac_build))
    tops = _top_modules(c, bounds.dim, bounds.window)
    chains = list(_stabilizer_decisions(c, tops, 1, _chain_build))
    for got, x in facs:
        assert got == fac_is_indecomposable(x), x
    for got, u in chains:
        assert got == chain_is_indecomposable(u), u
    # both answers occur on both sides
    assert {got for got, _ in facs} == {got for got, _ in chains} == {True, False}


def _census_sides(c, bounds, l=2):
    """(tops, flag length, build, indecomposability test) of both sides of
    a census, as class_census walks them."""
    tops = [t for t in _top_modules(c, bounds.dim, bounds.window)
            if t.min_degree() == 0]
    return [(list(_fac_tops(c, bounds.m, bounds.window)), l, _fac_build,
             fac_is_indecomposable),
            (tops, l - 1, _chain_build, chain_is_indecomposable)]


def test_splits_reads_the_degree_intervals():
    c = cfg(3)
    assert not _splits(RModule.zero(c), 2)
    assert not _splits(RModule(c, [(3, 1)]), 2)
    # [0, 0] and [1, 1] share no degree; [0, 1] and [1, 1] share only 1
    assert _splits(RModule(c, [(1, 0), (1, 1)]), 2)
    assert _splits(RModule(c, [(2, 0), (1, 1)]), 2)
    # a free summand spans d degrees: [0, 2] shares 1 and 2 with [1, 3],
    # only 2 with [2, 4], and none with [3, 5]
    assert not _splits(RModule.free(c, [1, 0]), 2)
    assert _splits(RModule.free(c, [2, 0]), 2)
    assert _splits(RModule.free(c, [3, 0]), 2)
    assert _splits(RModule(c, [(1, 4), (2, 0), (1, 1)]), 2)
    # N^n, n >= 2, splits iff min(length, dim N) <= 2
    assert _splits(RModule.free(c, [0, 0]), 2)
    assert not _splits(RModule.free(c, [0, 0]), 3)
    assert _splits(RModule(c, [(1, 0)] * 3), 1)


@pytest.mark.parametrize("d, field, window, l", [
    pytest.param(2, GF(3), 2, 2, id="2-GF(3)-2"),
    pytest.param(3, GF(2), 3, 2, id="3-GF(2)-3"),
    pytest.param(2, GF(3), 2, 3, id="2-GF(3)-2-l3"),
    pytest.param(3, GF(2), 3, 3, id="3-GF(2)-3-l3"),
])
def test_split_tops_carry_only_decomposable_flags(d, field, window, l):
    """On a top that `_splits`, every flag fails keep and builds a
    decomposable object, on both sides: class_census may skip it.  The
    split tops include one whose intervals share one degree (touching)
    and, where min(l, d) <= 2, the homogeneous free top R^2."""
    c = cfg(d, field)
    for tops, length, build, indecomposable in _census_sides(
            c, Bounds(m=2, dim=3, window=window), l):
        split = [top for top in tops if _splits(top, length)]
        decisions = list(_stabilizer_decisions(c, split, length, build))
        assert split and decisions
        for got, x in decisions:
            assert not got and not indecomposable(x), x
        split_tops = {top.sorted_summands() for top in split}
        if build is _fac_build:
            assert ((d, 0), (d, d - 1)) in split_tops  # touching in degree d - 1
            assert (((d, 0), (d, 0)) in split_tops) == (min(l, d) <= 2)
        else:
            assert ((1, 1), (2, 0)) in split_tops  # touching in degree 1


def test_homogeneous_rule_needs_the_width_condition():
    """At l=3, d=3 the flags on R^2 form representations of [3] x [3], a
    poset of width 3, and some flag builds an indecomposable factorization
    over F_2: R^2 does not split at length 3."""
    c = cfg(3, GF(2))
    top = RModule.free(c, [0, 0])
    assert _splits(top, 2) and not _splits(top, 3)
    assert any(got and fac_is_indecomposable(x) for got, x in
               _stabilizer_decisions(c, [top], 3, _fac_build))


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
    for tops, length, _, _ in _census_sides(c, Bounds(m=2, dim=3, window=2)):
        for top in tops:
            spaces = stable_graded_subspaces(F, top)
            keep = _local_stabilizer(F, top, spaces)
            for flag in _subspace_flags(F, spaces, length):
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
    for tops, _, _, _ in _census_sides(c, Bounds(m=2, dim=3, window=2)):
        for top in tops:
            spaces = stable_graded_subspaces(field, top)
            vectors = [to_ambient(field, top, v) for v in spaces]
            inside = [[all(_span(field, w).contains(v) for v in vecs)
                       for w in vectors] for vecs in vectors]
            plain = [(i,) for i in range(len(spaces))]
            for length in (1, 2, 3):
                assert list(_subspace_flags(field, spaces, length)) == plain
                plain = [f + (j,) for f in plain for j in range(len(spaces))
                         if inside[f[-1]][j]]


def _full_stabilizer(field, top, flag):
    """Reference: the flag's stabilizer in End(top) from conditions on every
    vector of every V, as n x n realizations."""
    homs = [realization(f) for f in hom_basis(top, top)]
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


def _random_tops(field, rng, count):
    """Random tops with up to three summands, small enough to list every
    flag of."""
    for _ in range(count):
        d = rng.randrange(2, 5)
        top = RModule(cfg(d, field), [(rng.randrange(1, d + 1), rng.randrange(0, 3))
                                      for _ in range(rng.randrange(1, 4))])
        if top.dim <= (6 if field.p == 2 else 4):
            yield top


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
def test_local_stabilizer_equals_the_full_stabilizer_oracle(field, monkeypatch):
    """Conditions on generators only, decided on End(T/xT), agree with the
    full stabilizer in End(T): the answer is is_local on the full
    stabilizer; and on a top with at least two summands each fresh keep
    calls is_local once, with one head per basis vector of the stabilizer,
    and the heads span its image in End(T/xT) (a one-generator top accepts
    every flag unsolved); on random flags of random tops with up to three
    summands."""
    heads = []
    monkeypatch.setattr("facto.census.is_local",
                        lambda F, basis: heads.append(basis) or is_local(F, basis))
    rng = random.Random(5)
    answers = set()
    for top in _random_tops(field, rng, 14):
        spaces = stable_graded_subspaces(field, top)
        flags = list(_subspace_flags(field, spaces, 2))
        for flag in rng.sample(flags, min(40, len(flags))):
            # a fresh keep per flag: a memo hit would not reach is_local
            before = len(heads)
            got = _local_stabilizer(field, top, spaces)(flag)
            full = _full_stabilizer(field, top, [to_ambient(field, top, spaces[i])
                                                 for i in flag])
            assert got == is_local(field, full), (top, flag)
            answers.add(got)
            if len(top.summands) < 2:
                continue
            assert len(heads) == before + 1, (top, flag)
            # one head per stabilizer basis vector, spanning the image
            assert len(heads[-1]) == len(full)
            image = _span(field, [sum(_head(top, phi), []) for phi in full])
            mine = _span(field, [sum(h, []) for h in heads[-1]])
            assert mine.dim == image.dim and all(
                image.contains(row) for row in mine.rows), (top, flag)
    assert answers == {True, False}


def _criterion2_tops(field):
    """The tops of both sides of the criterion-2 censuses (l=2, d=2 and 3,
    m=2, dim=3, window=2) over `field`, split or not."""
    return [top for d in (2, 3) for side in _census_sides(
        cfg(d, field), Bounds(m=2, dim=3, window=2))
        for top in side[0]]


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5)], ids=repr)
def test_summand_splits_rejects_only_nonlocal_stabilizers(field):
    """Given its top and no torus (omega = 1), _subspace_flags drops exactly
    the flags that some summand projection splits (`projection_splits`,
    every proper nonempty set of summands tried on ambient vectors), and
    each of them has a full stabilizer in End(T) that is not local: on
    every flag of the tops of the criterion-2 censuses over F_5, and on
    every flag of random tops over F_2 and F_3."""
    if field.p == 5:
        tops = _criterion2_tops(field)
    else:
        tops = list(_random_tops(field, random.Random(9), 14))
    rejected = kept = 0
    for top in tops:
        spaces = stable_graded_subspaces(field, top)
        for length in (1, 2):
            listed = set(_subspace_flags(field, spaces, length, top, 1))
            for flag in _subspace_flags(field, spaces, length):
                vectors = [to_ambient(field, top, spaces[i]) for i in flag]
                splits = projection_splits(field, top, vectors)
                assert (flag not in listed) == splits, (top, flag)
                if not splits:
                    kept += 1
                    continue
                assert not is_local(field, _full_stabilizer(field, top, vectors)), (top, flag)
                rejected += 1
    assert rejected and kept


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(5)], ids=repr)
def test_listed_subspaces_are_distinct_rref_pieces(field):
    """Every piece that stable_graded_subspaces lists is its own RREF, as a
    tuple of row tuples, and no top lists one subspace twice: the torus's
    index of spaces and _subspace_flags' piece comparison rely on both; on
    the criterion-2 tops over F_5 and on random tops over F_2 and F_3."""
    if field.p == 5:
        tops = _criterion2_tops(field)
    else:
        tops = list(_random_tops(field, random.Random(9), 14))
    pieces = 0
    for top in tops:
        spaces = stable_graded_subspaces(field, top)
        assert len({tuple(sorted(v.items())) for v in spaces}) == len(spaces), top
        for space in spaces:
            for rows in space.values():
                assert rows and rows == _rref(field, rows), (top, space)
                pieces += 1
    assert pieces > 100


@pytest.mark.parametrize("d", [2, 3])
def test_fac_hom_basis_maps_pass_the_square_check(d):
    """fac_hom_basis builds its maps unchecked, as its solver writes the
    squares; rebuilt with the check, each basis map of each pair of
    criterion-2 classes still passes it."""
    facs = _cached_census(cfg(d), 2, Bounds(m=2, dim=3, window=2)).fac_classes
    count = 0
    for x in facs:
        for y in facs:
            for f in fac_hom_basis(x, y):
                FacMap(x, y, f.components, check=True)
                count += 1
    assert count > len(facs)


def test_census_agrees_across_fields_at_d4():
    """l=2, d=4: F_2 and F_5 give the same classes, matching and tables at
    m=2, dim=4, window=3, and so do F_2 and F_3 at m=3, dim=6, window=3,
    with all 18 Ringel-Schmidt classes matched."""
    for bounds, fields in ((Bounds(m=2, dim=4, window=3), (GF(2), GF(5))),
                           (Bounds(m=3, dim=6, window=3), (GF(2), GF(3)))):
        reps = [_cached_census(cfg(4, field), 2, bounds) for field in fields]
        summaries = [(len(r.fac_classes), len(r.chain_classes), r.matching,
                      r.fac_hom_table, r.chain_hom_table) for r in reps]
        assert summaries[0] == summaries[1]
        assert len(reps[0].matching) == len(reps[0].chain_classes)
    assert len(reps[0].fac_classes) == len(reps[0].matching) == 18


@pytest.mark.parametrize("l, d, field, bounds", [
    (2, 2, GF(5), Bounds(m=2, dim=3, window=2)),
    (2, 3, GF(5), Bounds(m=2, dim=3, window=2)),
    (3, 3, GF(5), Bounds(m=2, dim=3, window=2)),
    (2, 4, GF(5), Bounds(m=2, dim=4, window=3)),
    (3, 4, GF(2), Bounds(m=2, dim=4, window=3)),
    (2, 4, GF(2), Bounds(m=3, dim=6, window=3)),
], ids=["l2-d2-F5", "l2-d3-F5", "l3-d3-F5", "l2-d4-F5", "l3-d4-F2", "ringel-schmidt-d4-F2"])
def test_rotation_permutes_the_classes(l, d, field, bounds):
    """Theta = rotate is an autoequivalence of the stable category, so it
    permutes the indecomposable nonprojective classes up to shift: Theta X,
    shifted to minimum degree 0, is isomorphic to exactly one class (the
    classes are indecomposable, so fac_iso_test is exact), the map is a
    permutation other than the identity, and its (l+1)-th power is the
    identity, as Theta^(l+1) = tau is a shift."""
    classes = _cached_census(cfg(d, field), l, bounds).fac_classes
    theta = []
    for x in classes:
        y = rotate(x)
        y = y.shift(-y.min_degree())
        hits = [j for j, z in enumerate(classes) if fac_iso_test(y, z)]
        assert len(hits) == 1, (x, hits)
        theta += hits
    identity = list(range(len(classes)))
    assert sorted(theta) == identity != theta
    power = identity
    for _ in range(l + 1):
        power = [theta[i] for i in power]
    assert power == identity


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


def test_ringel_schmidt_count_at_d4():
    """The l=2 chains at d=4 form S(4), which has 20 indecomposables
    (Ringel-Schmidt, Crelle 614, 2008); two of them, (0 <= R) and (R = R)
    with R = k[x]/(x^4), are projective-injective, so at most 18 are
    nonprojective.

    Sharpness, as at d=3: push-down sends graded indecomposables that are
    not shifts of each other to non-isomorphic ungraded ones, and keeps
    projectivity, so there are at most 18 graded nonprojective classes up
    to shift within any bounds.  The census classes are pairwise
    non-isomorphic nonprojective indecomposables, decided exactly, so
    finding 18 shows that m=3, dim=6, window=3 miss none.  The
    equivalence then matches each with a factorization under cok, with
    equal stable hom tables.
    """
    rep = _cached_census(cfg(4, GF(2)), 2, Bounds(m=3, dim=6, window=3))
    assert len(rep.chain_classes) == 18
    assert len(rep.fac_classes) == len(rep.matching) == 18
    assert {j for _, j in rep.matching} == set(range(18))
    assert rep.fac_hom_table == rep.chain_hom_table


def test_ringel_schmidt_count_at_d5():
    """The l=2 chains at d=5 form S(5), which has 50 indecomposables
    (Ringel-Schmidt, Crelle 614, 2008); two of them, (0 <= R) and (R = R)
    with R = k[x]/(x^5), are projective-injective, so at most 48 are
    nonprojective.

    Sharpness, as at d=3 and d=4: push-down sends graded indecomposables
    that are not shifts of each other to non-isomorphic ungraded ones, and
    keeps projectivity, so there are at most 48 graded nonprojective
    classes up to shift within any bounds.  The census finds 48 pairwise
    non-isomorphic nonprojective indecomposable factorizations, so
    m=3, window=3 miss none.  The chain side holds only the classes whose
    top fits in dim=7, so its count is not pinned; the equivalence matches
    each of them with a factorization under cok, with equal stable hom
    tables.
    """
    rep = class_census(cfg(5, GF(2)), 2, Bounds(m=3, dim=7, window=3))
    assert len(rep.fac_classes) == 48
    assert {j for _, j in rep.matching} == set(range(len(rep.chain_classes)))
    assert rep.fac_hom_table == rep.chain_hom_table
