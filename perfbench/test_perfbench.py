"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

import io
import json
import os
import sys
from collections import Counter
from contextlib import redirect_stdout

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import facto.census  # noqa: E402
import facto.factorizations  # noqa: E402
import facto.functors  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from facto.census import Bounds  # noqa: E402
from facto.fields import GF  # noqa: E402
from facto.modules import HypersurfaceConfig  # noqa: E402


def _serialize(obj):
    if hasattr(obj, "components"):  # FacMap: components plus both ends
        return [obj.to_json(), obj.src.to_json(), obj.tgt.to_json()]
    return obj.to_json()


def _object_inputs(field_name, seed, start=0):
    stream = workloads.build_objects(field_name, seed, 28, start)
    assert stream.gen_failed == 0
    return json.dumps([[op.kind] + [_serialize(o) for o in op.inputs]
                       for op in stream.ops], sort_keys=True).encode()


def test_same_seed_gives_identical_object_inputs():
    for field_name in ("f5", "q"):
        first = _object_inputs(field_name, 7)
        assert first == _object_inputs(field_name, 7)
        assert first != _object_inputs(field_name, 8)
        # set-up shares start at other slots and so draw other inputs
        assert first != _object_inputs(field_name, 7, start=56)


def test_same_seed_gives_identical_cli_files(tmp_path):
    def files(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        stream = workloads.build_cli(seed, 14, str(workdir))
        assert stream.gen_failed == 0 and len(stream.ops) == 14
        return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}

    first = files(3, "a")
    assert first and first == files(3, "b")
    assert first != files(4, "c")


def test_self_time_on_synthetic_span_tree():
    # class_census [0, 10] > fac_iso_test [1, 5] > matmul [2, 3]
    #                      > fac_iso_test [6, 9] > fac_iso_test [7, 8]
    ticks = iter([0, 1, 2, 3, 5, 6, 7, 8, 9, 10])
    rec = spans.SpanRecorder(clock=lambda: next(ticks))
    census = rec.make_wrapper("class_census")
    iso = rec.make_wrapper("fac_iso_test")
    matmul = rec.make_wrapper("matmul")

    leaf = matmul(lambda: None)
    inner_iso = iso(lambda: None)
    first_iso = iso(lambda: leaf())
    second_iso = iso(lambda: inner_iso())
    census(lambda: (first_iso(), second_iso()))()

    assert len(rec) == 5
    self_s, incl_s = rec.self_times()
    assert self_s == {"class_census": 3, "fac_iso_test": 3 + 2 + 1, "matmul": 1}
    # the nested fac_iso_test is not counted twice in inclusive time
    assert incl_s["fac_iso_test"] == 4 + 3
    layers = rec.layer_self_times()
    assert layers["census"] == 3
    assert layers["factorizations"] == 6
    assert layers["polymat"] == 1
    assert sum(layers.values()) == 10  # self times partition the root span


def test_wall_is_rounds_times_the_median_round():
    stats = run.RunStats()
    # three rounds of two operations: 1 + 1, 1 + 2 and a slow 5 + 5
    stats.op_times = [1.0, 1.0, 1.0, 2.0, 5.0, 5.0]
    assert stats.rounds(2) == [2.0, 3.0, 10.0]
    assert stats.work_s(2) == 3 * 3.0


def test_checks_are_neither_spanned_nor_counted():
    x = workloads._object_op("zigzag", HypersurfaceConfig(2, GF(5)), 2,
                             workloads.slot_rng(0, 0), []).inputs[0]
    op = workloads.Op("probe", lambda: facto.factorizations.zigzag_check(x),
                      lambda out: out is True
                      and facto.functors.cok(x) is not None)
    stream = workloads.Stream(ops=[op])
    untraced, traced, rec, counted, counter = run.traced_runs(stream)
    assert untraced.failed == traced.failed == counted.failed == 0
    assert counter.calls["zigzag_check"] == 1
    assert counter.calls["cok"] == 0
    assert set(rec.names[rec.name_id[i]] for i in range(len(rec))) \
        .isdisjoint({"cok"})


def _small_census_op():
    return workloads.census_op(HypersurfaceConfig(2, GF(5)), 1,
                               Bounds(m=2, dim=2, window=1), 0, Counter())


def test_census_call_of_fac_iso_test_is_spanned():
    original = facto.census.fac_iso_test
    rec = spans.SpanRecorder()
    inst = spans.Instrumentation()
    rec.install(inst)
    try:
        assert facto.census.fac_iso_test is not original
        # rank-2 sums are split by the iso test inside class_census
        op = _small_census_op()
        assert op.check(op.run())
    finally:
        inst.restore()
    assert facto.census.fac_iso_test is original
    assert facto.factorizations.fac_iso_test is original
    iso_id = rec.names.index("fac_iso_test")
    census_id = rec.names.index("class_census")
    iso_spans = [i for i in range(len(rec)) if rec.name_id[i] == iso_id]
    assert iso_spans
    for i in iso_spans:  # each one sits below the class_census span
        while rec.parent[i] >= 0:
            i = rec.parent[i]
        assert rec.name_id[i] == census_id


# the functions each kind of object operation calls itself
TOP_LEVEL = {
    "validate": ["fac_validate"],
    "zigzag": ["zigzag_check"],
    "round_trip": ["reconstruct", "cok", "chain_iso_test"],
    "stable_hom": ["cok", "reconstruct", "fac_stable_hom_dim"],
    "nu_resolution": ["nu_resolution", "termwise_split_check"],
    "hom_dim_compare": ["hom_dim_compare"],
    "cok_exactness": ["cok_exactness_check"],
}


def test_every_operation_kind_is_spanned_and_counted(tmp_path):
    objects = workloads.build_objects("f5", 5, len(workloads.OBJECT_KINDS))
    cli_ops = workloads.build_cli(5, len(workloads.CLI_KINDS), str(tmp_path))
    cases = ([(op, TOP_LEVEL[op.kind]) for op in objects.ops]
             + [(op, ["main"]) for op in cli_ops.ops]
             + [(_small_census_op(), ["class_census"])])
    assert len(cases) == len(TOP_LEVEL) + len(workloads.CLI_KINDS) + 1
    for op, labels in cases:
        rec, counter = spans.SpanRecorder(), spans.CallCounter()
        for wrapper in (rec, counter):
            inst = spans.Instrumentation()
            wrapper.install(inst)
            try:
                out = op.run()
            finally:
                inst.restore()
            assert op.check(out), op.kind
        top = Counter(rec.names[rec.name_id[i]] for i in range(len(rec))
                      if rec.parent[i] < 0)
        spanned = Counter(rec.names[rec.name_id[i]] for i in range(len(rec)))
        for label in labels:
            assert top[label] >= 1, (op.kind, label)
            assert counter.calls[label] == spanned[label], (op.kind, label)


def test_failing_checks_count_instead_of_aborting(monkeypatch):
    def boom():
        raise RuntimeError("forced")

    ops = [workloads.Op("pass", lambda: 1, lambda out: out == 1),
           workloads.Op("false", lambda: 1, lambda out: out == 2),
           workloads.Op("raise", boom, lambda out: True)]
    monkeypatch.setattr(run, "set_up", lambda *args: (
        workloads.Stream(ops=list(ops)), run.RunStats(), 0.0))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "objects-f5", "--seed", "0",
                         "--seconds", "0.05"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["attempted"] >= 3 and result["failed"] >= 2
    fail_frac = [line for line in out.getvalue().splitlines()
                 if line.startswith("fail_frac")]
    assert float(fail_frac[0].split()[1]) == pytest.approx(
        result["failed"] / result["attempted"], abs=1e-6)


def test_counts_repeat_exactly_for_the_same_seed():
    def counts():
        stream = workloads.build_objects("f5", 11, 14)
        _, _, _, _, counter = run.traced_runs(stream)
        return counter.calls, counter.scalar_ops, counter.true_results

    first = counts()
    assert first[1]["fields"] > 0 and first[1]["poly"] > 0
    assert first == counts()


def _facto_namespaces():
    """Every facto module's and class's attributes."""
    out = {}
    for name, mod in sys.modules.items():
        if not name.startswith("facto."):
            continue
        out[name] = dict(vars(mod))
        for attr, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == name:
                out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_every_instrumented_function_is_restored():
    before = _facto_namespaces()
    inst = spans.Instrumentation()
    spans.SpanRecorder().install(inst)
    spans.CallCounter().install(inst)
    assert _facto_namespaces() != before
    inst.restore()
    assert _facto_namespaces() == before
