"""Seeded inputs, operations and output checks for each workload.

A workload's `build_*(seed, ...)` returns a `Stream`: the operations of
one timed pass, each on its own freshly generated input, plus warm-up
operations on further inputs that the pass never sees.  Every operation
carries its own check.  Checks use properties of the output, the classical
classification for the l=1 census, or (for the CLI) the library call the
command wraps, made in the check; none compares the code with its own
earlier output.

Inputs come from randgen, with one RNG per (seed, slot), so that input i
does not depend on how many inputs a run draws.  Operations call facto
through module attributes (`factorizations.fac_validate(...)`), so that
the wrappers spans.Instrumentation binds in facto's modules see them.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from facto import census, chains, cli, factorizations, functors, randgen
from facto.census import Bounds
from facto.chains import MonoChain
from facto.factorizations import Factorization
from facto.fields import GF, QQ
from facto.modules import HypersurfaceConfig
from facto.poly import Polynomial
from facto.polymat import GradedMatrix, PolyMatrix

F5 = GF(5)
# (d, l) pairs of the object and CLI streams
PAIRS = ((2, 2), (3, 2), (3, 3), (4, 2))
OBJECT_KINDS = ("validate", "zigzag", "round_trip", "stable_hom", "nu_resolution",
                "hom_dim_compare", "cok_exactness")
CLI_KINDS = ("validate", "cok", "reconstruct", "rotate", "resolve",
             "stable-hom", "nu")
# (l, d, bounds): criterion 2 first, then criterion 1
CENSUSES = (
    (2, 2, Bounds(m=2, dim=3, window=2)),
    (2, 3, Bounds(m=2, dim=3, window=2)),
    (1, 2, Bounds(m=1, dim=2, window=2)),
    (1, 3, Bounds(m=1, dim=3, window=3)),
    (1, 4, Bounds(m=1, dim=4, window=4)),
)


@dataclass
class Op:
    """One operation: `run()` is timed, `check(result)` decides pass/fail."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    inputs: tuple = ()  # the generated objects, for reproducibility checks


@dataclass
class Stream:
    ops: list  # one timed pass, in order
    block: int = 1  # ops per round: every kind and (d, l) pair once
    gen_failed: int = 0
    tally: Counter = field(default_factory=Counter)  # census class counts
    warm_up: list = field(default_factory=list)  # run once during set-up


def slot_rng(seed, slot):
    """The RNG of one input: a function of the seed and the slot only."""
    return random.Random(f"{seed}:{slot}")


# census ---------------------------------------------------------------------


def _census_check(l, d, tally):
    def check(rep):
        tally["fac_classes"] += len(rep.fac_classes)
        tally["chain_classes"] += len(rep.chain_classes)
        tally["matched"] += len(rep.matching)
        if rep.fac_hom_table != rep.chain_hom_table:
            return False
        if len(rep.matching) != len(rep.chain_classes):
            return False
        if l != 1:
            return True
        # classical: the indecomposable nonprojective R-modules are
        # R/x^i for 1 <= i < d, one class each up to shift
        tops = sorted(u.objects[0].summands for u in rep.chain_classes)
        return (len(rep.fac_classes) == d - 1
                and tops == [((i, 0),) for i in range(1, d)])
    return check


def census_op(cfg, l, bounds, seed, tally) -> Op:
    """One class_census call; MatchFailure raises and so fails the op."""
    return Op(f"census_l{l}_d{cfg.d}",
              lambda: census.class_census(cfg, l, bounds, seed=seed),
              _census_check(l, cfg.d, tally))


def build_census(seed: int, passes: int) -> Stream:
    """Every census of criteria 2 and 1, `passes` times; one operation is
    one census.  Pass k seeds the iso search with seed + k, so that no call
    repeats an earlier one."""
    stream = Stream(ops=[], block=len(CENSUSES))
    for k in range(passes):
        for l, d, bounds in CENSUSES:
            stream.ops.append(census_op(HypersurfaceConfig(d, F5), l, bounds,
                                        seed + k, stream.tally))
    # the smallest census over another field: the same code paths on
    # objects that the timed pass never builds
    stream.warm_up = [census_op(HypersurfaceConfig(2, GF(7)), 1,
                                Bounds(m=1, dim=2, window=2), seed, Counter())]
    return stream


# objects over F_5 and Q ---------------------------------------------------------


def _probes(cfg, l):
    """Rank-1 factorizations x^{a_0}, ..., x^{a_{l-1}} with sum a_k <= d."""
    return [randgen.rank1_factorization(cfg, list(powers))
            for powers in itertools.product(range(cfg.d + 1), repeat=l)
            if sum(powers) <= cfg.d]


def _x_power_identity(x: Factorization) -> bool:
    """Defining property: A^l A^{l-1} ... A^0 = x^d on X^0."""
    product = x.maps[0]
    for a in x.maps[1:]:
        product = a @ product
    F = x.cfg.field
    omega = PolyMatrix.scalar(F, x.m, Polynomial.monomial(F, x.cfg.d))
    return (x.closing @ product).mat == omega


def _object_op(kind, cfg, l, rng, probes) -> Op:
    def fac():
        return randgen.random_factorization(cfg, l, rng)

    if kind == "validate":
        x = fac()
        return Op(kind,
                  lambda: factorizations.fac_validate(list(x.maps), cfg,
                                                      twist=x.twist),
                  lambda out: isinstance(out, Factorization)
                  and out.closing == x.closing and _x_power_identity(out),
                  inputs=(x,))
    if kind == "zigzag":
        x = fac()
        return Op(kind, lambda: factorizations.zigzag_check(x),
                  lambda out: out is True, inputs=(x,))
    if kind == "round_trip":
        u = randgen.random_chain(cfg, l, rng)
        return Op(kind,
                  lambda: chains.chain_iso_test(
                      functors.cok(functors.reconstruct(u)), u),
                  lambda out: out is True, inputs=(u,))
    if kind == "stable_hom":
        x = fac()
        p = rng.choice(probes)

        def stable_homs():
            y = functors.reconstruct(functors.cok(x))
            dim = factorizations.fac_stable_hom_dim
            return dim(x, p), dim(y, p), dim(p, x), dim(p, y)
        return Op(kind, stable_homs,
                  lambda out: out[0] == out[1] and out[2] == out[3],
                  inputs=(x, p))
    if kind == "nu_resolution":
        x = fac()
        return Op(kind,
                  lambda: [factorizations.termwise_split_check(
                      factorizations.nu_resolution(x, side), side)
                      for side in ("epic", "monic")],
                  lambda out: out == [True, True], inputs=(x,))
    if kind == "hom_dim_compare":
        x, y = fac(), fac()
        return Op(kind, lambda: census.hom_dim_compare(x, y),
                  lambda out: out[2] is True and out[0] == out[1],
                  inputs=(x, y))
    if kind == "cok_exactness":
        i, p = randgen.random_split_ses(cfg, l, rng)
        return Op(kind, lambda: functors.cok_exactness_check(i, p),
                  lambda out: out is True, inputs=(i, p))
    raise ValueError(f"unknown operation kind {kind}")


def _round_robin(kinds, slots):
    """(slot, kind, (d, l)): kinds cycle fastest, then the (d, l) pairs."""
    for i in slots:
        yield i, kinds[i % len(kinds)], PAIRS[(i // len(kinds)) % len(PAIRS)]


def _build(kinds, count, make_op, start) -> Stream:
    """`count` timed operations on fresh inputs start, start+1, ..., in
    rounds of every kind on every (d, l) pair (the runner asks for whole
    rounds from a start at a round's beginning), then one warm-up operation
    per kind on the inputs after them.
    A failed draw is a failed operation; it is never re-seeded away."""
    stream = Stream(ops=[], block=len(kinds) * len(PAIRS))
    slots = range(start, start + count + len(kinds))
    for i, kind, pair in _round_robin(kinds, slots):
        try:
            op = make_op(i, kind, pair)
        except Exception:  # noqa: BLE001 - a failed draw is a failed op
            print(f"failure: input {i} ({kind}) not generated", file=sys.stderr)
            traceback.print_exc()
            stream.gen_failed += 1
            continue
        (stream.ops if i < start + count else stream.warm_up).append(op)
    return stream


def build_objects(field_name: str, seed: int, count: int,
                  start: int = 0) -> Stream:
    fld = {"f5": F5, "q": QQ}[field_name]
    cfgs = {pair: HypersurfaceConfig(pair[0], fld) for pair in PAIRS}
    probes = {pair: _probes(cfgs[pair], pair[1]) for pair in PAIRS}
    return _build(OBJECT_KINDS, count, lambda i, kind, pair: _object_op(
        kind, cfgs[pair], pair[1], slot_rng(seed, i), probes[pair]), start)


# CLI ------------------------------------------------------------------------------


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


def _rotated(x, steps):
    for _ in range(abs(steps)):
        x = factorizations.rotate(x, inverse=steps < 0)
    return x


def _cli_op(kind, i, cfg, l, rng, probes, workdir) -> Op:
    """Input file and argv of one CLI call; the check makes the library call
    that the output must agree with, after the timed call."""
    d = cfg.d
    src = os.path.join(workdir, f"in-{i}.json")
    out = os.path.join(workdir, f"out-{kind}.json")
    base = [kind, "--field", "fp:5", "--d", str(d), "--in", src, "--out", out]
    if kind == "nu":
        k = rng.randrange(0, l + 1)
        degs = [rng.randrange(0, 3) for _ in range(rng.randrange(1, 3))]
        argv = [kind, "--field", "fp:5", "--d", str(d), "--l", str(l),
                "--k", str(k), "--degs", ",".join(map(str, degs)),
                "--out", out]
        return _cli_check(kind, argv, out,
                          lambda o: Factorization.from_json(cfg, o)
                          == factorizations.nu(cfg, l, k, degs))
    if kind == "reconstruct":
        u = randgen.random_chain(cfg, l, rng)
        _write_json(src, u.to_json())
        return _cli_check(kind, base, out,
                          lambda o: Factorization.from_json(cfg, o)
                          == functors.reconstruct(u))
    x = randgen.random_factorization(cfg, l, rng)
    if kind == "stable-hom":
        p = rng.choice(probes)
        _write_json(src, {"x": x.to_json(), "y": p.to_json()})
        return _cli_check(
            kind, base, out,
            lambda o: o == {"stable_hom_dim":
                            factorizations.fac_stable_hom_dim(x, p)})
    _write_json(src, x.to_json())
    if kind == "validate":
        return _cli_check(
            kind, base, out,
            lambda o: o["valid"] is True and o["m"] == x.m
            and GradedMatrix.from_json(cfg.field, o["closing"]) == x.closing)
    if kind == "cok":
        return _cli_check(kind, base, out,
                          lambda o: MonoChain.from_json(cfg, o)
                          == functors.cok(x))
    if kind == "rotate":
        steps = rng.choice([s for s in range(-l - 1, l + 2) if s])
        return _cli_check(kind, base + ["--steps", str(steps)], out,
                          lambda o: Factorization.from_json(cfg, o)
                          == _rotated(x, steps))
    if kind == "resolve":
        side = rng.choice(("epic", "monic"))
        return _cli_check(
            kind, base + ["--side", side], out,
            lambda o: o["termwise_split_exact"] is True
            and o["side"] == side
            and Factorization.from_json(cfg, o["middle"])
            == factorizations.nu_resolution(x, side).middle)
    raise ValueError(f"unknown CLI command {kind}")


def _cli_check(kind, argv, out, agrees) -> Op:
    """Exit code 0, then --out loads back and agrees with the library."""
    def check(code):
        if code != 0:
            return False
        try:
            return bool(agrees(_read_json(out)))
        finally:
            os.unlink(out)
    return Op(kind, lambda: cli.main(argv), check)


def build_cli(seed: int, count: int, workdir: str, start: int = 0) -> Stream:
    cfgs = {pair: HypersurfaceConfig(pair[0], F5) for pair in PAIRS}
    probes = {pair: _probes(cfgs[pair], pair[1]) for pair in PAIRS}
    return _build(CLI_KINDS, count, lambda i, kind, pair: _cli_op(
        kind, i, cfgs[pair], pair[1], slot_rng(seed, i), probes[pair],
        workdir), start)
