"""Acceptance suite: the ten headline checks, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
complete; each criterion is a single test with a hard assertion.
"""

import random
import time

from facto.census import (
    Bounds,
    class_census,
    enumerate_factorizations,
    hom_dim_compare,
)
from facto.chains import chain_iso_test
from facto.factorizations import (
    FacMap,
    adjunction_transport,
    fac_hom_basis,
    fac_projective_test,
    fac_stable_hom_dim,
    fac_validate,
    nu_resolution,
    rotate,
    termwise_split_check,
    zigzag_check,
)
from facto.fields import GF, QQ
from facto.functors import cok, cok_exactness_check, reconstruct
from facto.linalg import Echelon
from facto.modules import HypersurfaceConfig
from facto.poly import Polynomial
from facto.polymat import GradedMatrix, PolyMatrix, snf
from facto.randgen import (
    random_chain,
    random_factorization,
    random_split_ses,
    random_unimodular,
)

F5 = GF(5)
PAIRS = ((2, 1), (2, 2), (3, 1), (3, 2))


def _report(num: int, name: str, ok: bool, extra: str = ""):
    line = f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f"  ({extra})"
    print(line)
    assert ok, line


def test_criterion_1_classical_census():
    start = time.time()
    ok = True
    for d in (2, 3, 4):
        t0 = time.time()
        rep = class_census(
            HypersurfaceConfig(d, F5), 1, Bounds(m=1, dim=d, window=d)
        )
        expect = {(i,) for i in range(1, d)}
        got = {u.objects[0].summands[0][:1] for u in rep.chain_classes}
        ok = ok and (
            len(rep.fac_classes) == d - 1
            and len(rep.chain_classes) == d - 1
            and len(rep.matching) == d - 1
            and got == expect
            and time.time() - t0 < 60
        )
    _report(1, "classical census", ok, f"{time.time() - start:.1f}s")


def test_criterion_2_nfold_census():
    start = time.time()
    ok = True
    for d in (2, 3):
        rep = class_census(
            HypersurfaceConfig(d, F5), 2, Bounds(m=2, dim=3, window=2)
        )
        ok = ok and rep.fac_hom_table == rep.chain_hom_table
        ok = ok and len(rep.matching) == len(rep.chain_classes)
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    _report(2, "n-fold census", ok, f"{elapsed:.1f}s")


def test_criterion_3_round_trip_a():
    rng = random.Random(3)
    ok = True
    for d, l in PAIRS:
        cfg = HypersurfaceConfig(d, F5)
        for _ in range(200):
            u = random_chain(cfg, l, rng)
            if not chain_iso_test(cok(reconstruct(u)), u):
                ok = False
                break
    _report(3, "round trip A", ok, "200 chains per (d, l)")


def test_criterion_4_round_trip_b():
    rng = random.Random(4)
    ok = True
    for d, l in PAIRS:
        cfg = HypersurfaceConfig(d, F5)
        probes = enumerate_factorizations(cfg, l, 1, 1)
        probes = [p for p in probes if not p.is_zero()]
        for _ in range(50):
            x = random_factorization(cfg, l, rng, m_max=2)
            y = reconstruct(cok(x))
            for p in probes:
                if fac_stable_hom_dim(x, p) != fac_stable_hom_dim(y, p):
                    ok = False
                if fac_stable_hom_dim(p, x) != fac_stable_hom_dim(p, y):
                    ok = False
    _report(4, "round trip B", ok, "200 X against enumerated probes")


def test_criterion_5_zigzag_and_rotation():
    rng = random.Random(5)
    ok = True
    for d, l in PAIRS:
        cfg = HypersurfaceConfig(d, F5)
        for _ in range(50):
            x = random_factorization(cfg, l, rng)
            if zigzag_check(x) is not True:
                ok = False
            y = x
            for _ in range(l + 1):
                y = rotate(y)
                if zigzag_check(y) is not True:
                    ok = False
            if not (
                y.maps == x.maps
                and y.closing == x.closing
                and y.twist == x.twist + 1
            ):
                ok = False
    _report(5, "zigzag and rotation", ok, "200 objects, full cycles")


def test_criterion_6_adjunctions():
    rng = random.Random(6)
    ok = True
    for which in ("nu_l_left", "nu_k_left", "nu_k_right"):
        for rep in range(100):
            d, l = PAIRS[rep % len(PAIRS)]
            cfg = HypersurfaceConfig(d, F5)
            x = random_factorization(cfg, l, rng, m_max=2)
            k = rng.randrange(1, l + 1) if which != "nu_l_left" else None
            h = GradedMatrix.identity(
                F5, x.degs(0) if which == "nu_l_left" else x.degs(k)
            )
            g = adjunction_transport(which, x, h, k=k, forward=False)
            h2 = adjunction_transport(which, x, g, k=k, forward=True)
            if h2 != h:
                ok = False
            # naturality: transport commutes with scaling the chain map
            two = F5.from_int(2)
            if adjunction_transport(
                which, x, g.scale(two), k=k, forward=True
            ) != h2 + h2:
                ok = False
    _report(6, "adjunctions", ok, "100 instances per transport")


def test_criterion_7_nu_resolution():
    rng = random.Random(7)
    ok = True
    for rep in range(100):
        d, l = PAIRS[rep % len(PAIRS)]
        cfg = HypersurfaceConfig(d, F5)
        x = random_factorization(cfg, l, rng, m_max=2)
        res = nu_resolution(x, side="epic")
        if not termwise_split_check(res, "epic"):
            ok = False
        if not fac_projective_test(res.middle):
            ok = False
        kernel = res.complement
        if not fac_validate(list(kernel.maps), cfg, twist=kernel.twist):
            ok = False
        if zigzag_check(kernel) is not True:
            ok = False
    _report(7, "nu resolutions", ok, "100 epics, kernels validated")


def test_criterion_8_cok_exactness():
    rng = random.Random(8)
    ok = True
    for d, l in PAIRS:
        cfg = HypersurfaceConfig(d, F5)
        for _ in range(100):
            i, p = random_split_ses(cfg, l, rng)
            if not cok_exactness_check(i, p):
                ok = False
    _report(8, "exactness of cok", ok, "100 split SES per (d, l)")


def _random_poly_matrix(field, rng):
    rows = rng.randrange(1, 6)
    cols = rng.randrange(1, 6)
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if rng.random() < 0.35:
                row.append(Polynomial.zero(field))
            else:
                deg = rng.randrange(0, 5)
                coeffs = [field.from_int(rng.randrange(-4, 5))
                          for _ in range(deg)]
                coeffs.append(field.from_int(rng.randrange(1, 5)))
                row.append(Polynomial(field, coeffs))
        entries.append(row)
    return PolyMatrix(field, entries)


def test_criterion_9_snf():
    rng = random.Random(9)
    start = time.time()
    ok = True
    for field in (QQ, F5):
        for _ in range(250):
            a = _random_poly_matrix(field, rng)
            u, dmat, v = snf(a)
            if u @ a @ v != dmat:
                ok = False
            if not (u.det().is_unit() and v.det().is_unit()):
                ok = False
            diag = [dmat.entries[i][i] for i in range(min(dmat.rows, dmat.cols))]
            for p, q in zip(diag, diag[1:]):
                if p.is_zero():
                    ok = ok and q.is_zero()
                else:
                    ok = ok and p.leading() == field.one and p.divides(q)
    elapsed = time.time() - start
    ok = ok and elapsed < 30
    _report(9, "Smith normal form", ok, f"500 matrices, {elapsed:.1f}s")


def test_criterion_10_quotient_ideal():
    rng = random.Random(10)
    ok = True
    for rep in range(100):
        d, l = PAIRS[rep % len(PAIRS)]
        cfg = HypersurfaceConfig(d, F5)
        x = random_factorization(cfg, l, rng, m_max=2)
        y = random_factorization(cfg, l, rng, m_max=2)
        # counit nu^l(Y^0) -> Y, once through E itself and once through a
        # (trivially isomorphic) projective cover of E
        j = adjunction_transport(
            "nu_l_left", y, GradedMatrix.identity(F5, y.degs(0)),
            forward=False,
        )
        u = random_unimodular(F5, y.degs(0), rng)
        nu_u = FacMap(j.src, j.src, [u] * (l + 1))
        j_cov = FacMap(j.src, y, [a @ b for a, b in
                                  zip(j.components, nu_u.components)])
        from reference import _facmap_to_vector, _hom_slots

        slots = _hom_slots(x, y)
        dims = []
        for counit in (j, j_cov):
            ech = Echelon(F5)
            for g in fac_hom_basis(x, j.src):
                ech.add(_facmap_to_vector(counit @ g, slots))
            dims.append(ech.dim)
        if dims[0] != dims[1]:
            ok = False
        lhs, rhs, eq = hom_dim_compare(x, y)
        if not eq:
            ok = False
    _report(10, "quotient-ideal equality", ok, "100 hom spaces")
