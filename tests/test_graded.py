"""The scalar graded path against the k[x] toolkit (SNF, Bareiss) as oracle.

Every degree-0 map of graded free modules is a scalar matrix plus two
degree vectors; these checks draw random graded inputs over F_5 and Q and
require the same answers from both paths.  The JSON form is read and
written on the scalars, against the polynomial matrix's JSON as oracle.
`GradedMatrix.solve` is checked against the per-degree `graded_solve` of
tests/reference.py, over F_2 too.
"""

import json
import random
from fractions import Fraction

import pytest

from facto.cli import main
from facto.factorizations import FacMap, fac_hom_basis, fac_validate
from facto.fields import GF, QQ, FieldError
from facto.modules import HypersurfaceConfig
from facto.poly import Polynomial
from facto.polymat import (
    GradedMatrix,
    NoSolution,
    PolyMatrix,
    rank_over_fractions,
    solve_right,
)
from facto.randgen import random_factorization
from reference import from_poly, graded_solve

FIELDS = [GF(5), QQ]
PAIRS = [(2, 2), (3, 2), (3, 3)]


def random_graded(field, rng, src_degs, tgt_degs, density=0.6):
    """Random scalars at the positions a degree-0 map may use."""
    coeffs = [
        [field.from_int(rng.randrange(1, 5))
         if a >= b and rng.random() < density else field.zero
         for a in src_degs]
        for b in tgt_degs
    ]
    return GradedMatrix(field, coeffs, src_degs, tgt_degs)


def random_degs(rng, n):
    return [rng.randrange(0, 4) for _ in range(n)]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_closing_map_is_the_snf_solution(field):
    rng = random.Random(21)
    for rep in range(30):
        d, l = PAIRS[rep % len(PAIRS)]
        cfg = HypersurfaceConfig(d, field)
        x = random_factorization(cfg, l, rng)
        product = x.maps[0]
        for a in x.maps[1:]:
            product = a @ product
        omega = PolyMatrix.scalar(field, x.m, Polynomial.monomial(field, d))
        out = fac_validate(list(x.maps), cfg)
        assert out.closing.mat == solve_right(product.mat, omega)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_graded_solve_agrees_with_solve_right(field):
    rng = random.Random(22)
    solved = unsolvable = 0
    for _ in range(150):
        tgt = random_degs(rng, rng.randrange(1, 4))
        a = random_graded(field, rng, random_degs(rng, rng.randrange(0, 4)), tgt)
        src_b = random_degs(rng, rng.randrange(1, 3))
        if rng.random() < 0.5:
            b = a @ random_graded(field, rng, src_b, a.src_degs)
        else:
            b = random_graded(field, rng, src_b, tgt)
        try:
            want = solve_right(a.mat, b.mat)
        except NoSolution:
            with pytest.raises(NoSolution):
                graded_solve(a, b)
            unsolvable += 1
            continue
        got = graded_solve(a, b)
        assert a @ got == b
        if a.is_injective():  # the solution is unique
            assert got.mat == want
        solved += 1
    assert solved > 20 and unsolvable > 20


def _square_injective_maps(field, rng):
    """Square injective graded maps: randgen's unimodulars, products of a
    random factorization's maps, preimage inclusions of the images of
    random maps (`span_preimage_inclusion` of `preimage`), and over F_p
    those of every census space of small free tops."""
    from facto.census import stable_graded_subspaces
    from facto.functors import span_preimage_inclusion
    from facto.modules import ModuleMap, RModule, hom_basis, preimage, submodule
    from facto.randgen import random_module, random_unimodular

    for _ in range(20):
        yield random_unimodular(field, random_degs(rng, rng.randrange(0, 4)), rng)
    for rep in range(12):
        d, l = PAIRS[rep % len(PAIRS)]
        c = HypersurfaceConfig(d, field)
        x = random_factorization(c, l, rng)
        product = x.maps[0]
        for a in x.maps[1:]:
            product = a @ product
            yield product
        src, tgt = random_module(c, rng), random_module(c, rng)
        g = ModuleMap.zero(src, tgt)
        for h in hom_basis(src, tgt):
            g = g + h.scale(field.from_int(rng.randrange(-2, 3)))
        yield span_preimage_inclusion(c, preimage(g))
    if field != QQ:
        for d, degs in ((2, [0, 1]), (3, [0]), (3, [0, 1])):
            top = RModule.free(HypersurfaceConfig(d, field), degs)
            for space in stable_graded_subspaces(field, top):
                yield span_preimage_inclusion(top.cfg, submodule(top, space))


@pytest.mark.parametrize("field", [GF(2), GF(5), QQ], ids=repr)
def test_solve_equals_graded_solve_on_square_injective_maps(field):
    """GradedMatrix.solve, one elimination of [C | B], against the
    per-degree `graded_solve`: the same X, or NoSolution from both, for
    right-hand sides that factor through the map and random ones."""
    rng = random.Random(39)
    maps = solved = unsolvable = 0
    for a in _square_injective_maps(field, rng):
        assert len(a.src_degs) == len(a.tgt_degs) and a.is_injective()
        maps += 1
        low, high = min(a.tgt_degs, default=0), max(a.src_degs, default=0)
        src_b = [rng.randrange(low, high + 2) for _ in range(rng.randrange(1, 3))]
        for b in (a @ random_graded(field, rng, src_b, a.src_degs),
                  random_graded(field, rng, src_b, a.tgt_degs)):
            try:
                want = graded_solve(a, b)
            except NoSolution:
                with pytest.raises(NoSolution):
                    a.solve(b)
                unsolvable += 1
                continue
            assert a.solve(b) == want
            solved += 1
    assert maps > 40 and solved > 40 and unsolvable > 10


def test_solve_refuses_what_has_no_unique_graded_solution():
    """NoSolution on a singular map (b = 0 included), on a map that is not
    square, on a target mismatch, and on a b that does not factor through
    the map: x * I divides no identity."""
    F = GF(5)
    one, zero = F.one, F.zero
    singular = GradedMatrix(F, [[one, one], [one, one]], [0, 0], [0, 0])
    tall = GradedMatrix(F, [[one], [zero]], [0], [0, 0])
    x_id = GradedMatrix(F, [[one]], [1], [0])
    cases = [(singular, GradedMatrix.identity(F, [0, 0])),
             (singular, GradedMatrix.zero(F, [0], [0, 0])),
             (tall, GradedMatrix(F, [[one], [zero]], [0], [0, 0])),
             (GradedMatrix.identity(F, [0]), GradedMatrix.identity(F, [1])),
             (x_id, GradedMatrix.identity(F, [0]))]
    for a, b in cases:
        with pytest.raises(NoSolution):
            a.solve(b)
    assert x_id.solve(x_id @ x_id.shift(1)) == x_id.shift(1)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_is_injective_is_full_rank_over_fractions(field):
    rng = random.Random(23)
    for _ in range(100):
        a = random_graded(field, rng, random_degs(rng, rng.randrange(0, 4)),
                          random_degs(rng, rng.randrange(1, 4)))
        assert a.is_injective() == (rank_over_fractions(a.mat) == len(a.src_degs))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_facmap_is_iso_is_unit_determinants(field):
    rng = random.Random(24)
    isos = others = 0
    for rep in range(12):
        d, l = PAIRS[rep % len(PAIRS)]
        cfg = HypersurfaceConfig(d, field)
        x = random_factorization(cfg, l, rng, m_max=2)
        y = random_factorization(cfg, l, rng, m_max=2) if rep % 2 else x
        basis = fac_hom_basis(x, y)
        for _ in range(8):
            f = FacMap.zero(x, y)
            for g in basis:
                f = f + g.scale(field.from_int(rng.randrange(0, 3)))
            want = all(len(c.src_degs) == len(c.tgt_degs) and c.mat.det().is_unit()
                       for c in f.components)
            assert f.is_iso() == want
            isos += want
            others += not want
    assert isos > 5 and others > 5


# JSON on the scalars ----------------------------------------------------------

JSON_FIELDS = [GF(2), GF(5), GF(2**31 - 1), QQ]


def _scalar(field, rng):
    if field == QQ:
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
    return rng.randrange(field.p)


def _old_to_json(g):
    """The JSON that went through the polynomial matrix."""
    data = g.mat.to_json()
    data["src_degs"] = list(g.src_degs)
    data["tgt_degs"] = list(g.tgt_degs)
    return data


def _old_from_json(field, data):
    return from_poly(PolyMatrix.from_json(field, data), data["src_degs"], data["tgt_degs"])


@pytest.mark.parametrize("field", JSON_FIELDS, ids=repr)
def test_json_agrees_with_the_polynomial_matrix(field):
    """Random graded matrices, 0 x 0, m x 0 and 0 x n included, with
    negative degrees: the same JSON, read back to the same map on both
    paths.  A 0 x n map writes "cols": n, where the polynomial path writes
    0 and reads neither back, so it round-trips on the scalar path alone
    (the "cols": 0 document stays malformed, see the malformed cases)."""
    rng = random.Random(25)
    shapes = [(0, 0), (1, 0), (3, 0), (0, 2)] + [
        (rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(60)]
    for rows, cols in shapes:
        src = [rng.randrange(-3, 4) for _ in range(cols)]
        tgt = [rng.randrange(-3, 4) for _ in range(rows)]
        coeffs = [[_scalar(field, rng) if a >= b and rng.random() < 0.7
                   else field.zero for a in src] for b in tgt]
        g = GradedMatrix(field, coeffs, src, tgt)
        data = g.to_json()
        oracle = rows or not cols
        if oracle:
            assert data == _old_to_json(g)
        assert data["cols"] == cols
        data = json.loads(json.dumps(data))
        assert GradedMatrix.from_json(field, data) == g
        if oracle:
            assert _old_from_json(field, data) == g


def _doc(**changes):
    """A valid 2 x 2 map over F_5 (source degrees 2, 0; target 0, 0) with
    some keys replaced; entries=(j, i, value) replaces one entry."""
    data = {"rows": 2, "cols": 2, "src_degs": [2, 0], "tgt_degs": [0, 0],
            "entries": [[[0, 0, 3], [1]], [[], [4]]]}
    if "entry" in changes:
        j, i, value = changes.pop("entry")
        data["entries"][j][i] = value
    data.update(changes)
    return data


_MALFORMED = {
    "entry is a number": (GF(5), _doc(entry=(0, 1, 3))),
    "entry is a string": (GF(5), _doc(entry=(0, 1, "1"))),
    "entry is null": (GF(5), _doc(entry=(0, 1, None))),
    "float coefficient": (GF(5), _doc(entry=(0, 0, [0, 0, 1.5]))),
    "non-numeric coefficient": (GF(5), _doc(entry=(0, 0, [0, 0, "x"]))),
    "zero denominator": (QQ, _doc(entry=(0, 1, ["1/0"]))),
    "row is a number": (GF(5), _doc(entries=[7, [[], [4]]])),
    "entries is a number": (GF(5), _doc(entries=5)),
    "ragged": (GF(5), _doc(entries=[[[0, 0, 3], [1]], [[], [4], []]])),
    "declared rows": (GF(5), _doc(rows=3)),
    "declared cols": (GF(5), _doc(cols=1)),
    "short src_degs": (GF(5), _doc(src_degs=[2])),
    "long tgt_degs": (GF(5), _doc(tgt_degs=[0, 0, 0])),
    "src_degs is a number": (GF(5), _doc(src_degs=2)),
    "not homogeneous": (GF(5), _doc(entry=(0, 0, [1, 0, 3]))),
    "wrong degree": (GF(5), _doc(entry=(0, 1, [0, 1]))),
    "negative degree": (GF(5), _doc(tgt_degs=[0, 1])),
    "float degree": (GF(5), _doc(src_degs=[2.0, 0])),
    "string degree": (GF(5), _doc(src_degs=["2", 0])),
    "no entries": (GF(5), {"src_degs": [], "tgt_degs": []}),
    "no src_degs": (GF(5), {"entries": [], "tgt_degs": []}),
    "not an object": (GF(5), [[[1]]]),
    # the polynomial path writes "cols": 0 for a 0 x 2 map
    "0 x 2 map read back": (GF(5), _old_to_json(GradedMatrix.zero(GF(5), [0, 1], []))),
}


def _outcome(read, field, data):
    try:
        return read(field, data)
    except Exception as e:  # noqa: BLE001 - the class is the outcome
        return type(e)


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_json_fails_as_on_the_polynomial_path(case, tmp_path):
    """Each malformed map raises the exception class of the polynomial
    path, and `facto validate` exits 1 on a file that holds it."""
    field, data = _MALFORMED[case]
    got = _outcome(GradedMatrix.from_json, field, data)
    assert isinstance(got, type) and issubclass(got, Exception)
    assert got is _outcome(_old_from_json, field, data)
    if case == "entry is a number":
        assert got is FieldError
    path = tmp_path / "mf.json"
    path.write_text(json.dumps({"maps": [data], "twist": 0}))
    spec = "q" if field == QQ else "fp:5"
    assert main(["validate", "--field", spec, "--d", "2", "--in", str(path)]) == 1


def test_json_message_names_the_entry():
    with pytest.raises(ValueError, match=r"entry \(0, 1\) not homogeneous of degree 0"):
        GradedMatrix.from_json(GF(5), _doc(entry=(0, 1, [0, 1])))


@pytest.mark.parametrize("data", [
    _doc(entry=(0, 1, [1, 0, 0])),  # trailing zeros
    _doc(entry=(1, 0, [0, 0, 0])),  # a zero with padding
    _doc(entry=(1, 1, ["9"])),  # a residue as a string
    {k: v for k, v in _doc().items() if k not in ("rows", "cols")},
], ids=["trailing zeros", "padded zero", "string residue", "shape omitted"])
def test_lenient_json_reads_as_on_the_polynomial_path(data):
    assert GradedMatrix.from_json(GF(5), data) == _old_from_json(GF(5), data)


@pytest.mark.parametrize("degs", [[2.0, 0], [True, 0]], ids=["float", "bool"])
def test_non_integer_degrees_are_rejected_on_zero_maps(degs):
    """The polynomial path read these degrees only where every entry they
    reach is zero; the scalar path rejects them everywhere."""
    data = _doc(src_degs=degs, entries=[[[], [1]], [[], [4]]])
    assert _old_from_json(GF(5), data).src_degs == tuple(degs)
    with pytest.raises(TypeError):
        GradedMatrix.from_json(GF(5), data)
