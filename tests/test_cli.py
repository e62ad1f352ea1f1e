import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import facto.cli
from facto.cli import _parser, main
from facto.factorizations import (
    Factorization,
    FactorizationError,
    nu,
    nu_resolution,
    rotate,
)
from facto.fields import GF
from facto.functors import cok
from facto.modules import HypersurfaceConfig, RealizationError
from facto.randgen import random_chain, random_factorization, rank1_factorization
from reference import parser_by_name_chain


@pytest.fixture
def xx_file(tmp_path):
    c = HypersurfaceConfig(2, GF(5))
    x = rank1_factorization(c, [1])
    path = tmp_path / "mf.json"
    path.write_text(json.dumps(x.to_json()))
    return path


def test_validate_ok(xx_file, capsys):
    assert main(["validate", "--field", "fp:5", "--d", "2",
                 "--in", str(xx_file)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True and "closing" in out


def test_validate_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", "--field", "fp:5", "--d", "2",
                 "--in", str(bad)]) == 1
    assert "malformed JSON" in capsys.readouterr().err


IN_COMMANDS = {
    "validate": [], "cok": [], "reconstruct": [], "rotate": ["--steps", "1"],
    "resolve": ["--side", "epic"], "stable-hom": [],
}


@pytest.mark.parametrize("data", [b"\xff\xfe{}", b"{\"maps\": \"\xc3\"}",
                                  b"\xef\xbb\xbf{}"],
                         ids=["utf16-bom", "truncated-utf8", "utf8-bom"])
@pytest.mark.parametrize("command", sorted(IN_COMMANDS))
def test_undecodable_input_is_malformed_json(command, data, tmp_path, capsys):
    """Bytes that are not UTF-8 (or start with a BOM, which JSON rejects as
    before) in --in exit 1 with the malformed-JSON error line, for every
    command that reads --in."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    assert main([command, "--field", "fp:5", "--d", "2", "--l", "2",
                 "--in", str(bad), *IN_COMMANDS[command]]) == 1
    assert capsys.readouterr().err.startswith(f"error: malformed JSON in {bad}")


def test_out_file_is_private_and_a_failed_write_leaves_nothing(xx_file, tmp_path,
                                                               monkeypatch, capsys):
    """--out gets the stdout text and a newline in a 0600 file; a write that
    fails is an input error and removes the temp file."""
    argv = ["cok", "--field", "fp:5", "--d", "2", "--in", str(xx_file)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()
    assert out.stat().st_mode & 0o777 == 0o600

    def fail(fd, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(facto.cli.os, "write", fail)
    again = tmp_path / "again.json"
    assert main(argv + ["--out", str(again)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {again}")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mf.json", "out.json"]


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", "--field", "fp:5", "--d", "2",
                 "--in", str(tmp_path / "none.json")]) == 1


def test_validate_invalid_factorization(tmp_path, capsys):
    c = HypersurfaceConfig(2, GF(5))
    x = rank1_factorization(c, [1])
    data = x.to_json()
    data["maps"][0]["entries"] = [[[]]]  # zero map is not injective
    path = tmp_path / "bad_mf.json"
    path.write_text(json.dumps(data))
    assert main(["validate", "--field", "fp:5", "--d", "2",
                 "--in", str(path)]) == 1
    assert "invalid factorization" in capsys.readouterr().err


def test_cok_and_reconstruct_round_trip(xx_file, tmp_path, capsys):
    chain_file = tmp_path / "chain.json"
    assert main(["cok", "--field", "fp:5", "--d", "2", "--in", str(xx_file),
                 "--out", str(chain_file)]) == 0
    chain = json.loads(chain_file.read_text())
    assert chain["objects"][0]["summands"] == [[1, -1]]
    assert main(["reconstruct", "--field", "fp:5", "--d", "2",
                 "--in", str(chain_file)]) == 0
    data = json.loads(capsys.readouterr().out)
    c = HypersurfaceConfig(2, GF(5))
    x = Factorization.from_json(c, data)
    assert cok(x).objects[0].summands == ((1, -1),)


def test_rotate_round_trip(xx_file, capsys):
    assert main(["rotate", "--field", "fp:5", "--d", "2", "--in", str(xx_file),
                 "--steps", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["twist"] == 1


@pytest.mark.parametrize("twist", ["a", None, [1], 1.5, True], ids=repr)
@pytest.mark.parametrize("command", [["rotate", "--steps", "2"], ["validate"]],
                         ids=lambda argv: argv[0])
def test_non_integer_twist_is_an_input_error(command, twist, xx_file):
    """Two steps turn the l = 1 factorization once round, which adds 1 to
    the twist; a twist that is not an integer (bool included) is rejected
    when the file is read."""
    data = json.loads(xx_file.read_text())
    data["twist"] = twist
    xx_file.write_text(json.dumps(data))
    code, out, err = _run(command + ["--field", "fp:5", "--d", "2",
                                     "--in", str(xx_file)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("phase", ["1", None, 1.5, True, -1, 2, [1]], ids=repr)
@pytest.mark.parametrize("command", [["rotate", "--steps", "1"], ["cok"], ["validate"]],
                         ids=lambda argv: argv[0])
def test_malformed_rot_phase_is_an_input_error(command, phase, xx_file):
    """A rotation phase is an integer in [0, l] (l = 1 here, so 2 is out
    of range, and a bool is no integer), rejected when the file is read."""
    data = json.loads(xx_file.read_text())
    data["rot_phase"] = phase
    xx_file.write_text(json.dumps(data))
    code, out, err = _run(command + ["--field", "fp:5", "--d", "2",
                                     "--in", str(xx_file)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "rot_phase" in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [["validate"], ["cok"], ["rotate", "--steps", "1"],
                                     ["resolve", "--side", "epic"]],
                         ids=lambda argv: argv[0])
def test_mismatched_d_is_an_input_error(command, xx_file):
    """A factorization file's "d" must be --d: every command that reads
    one rejects the file with the same error line."""
    data = json.loads(xx_file.read_text())
    data["d"] = 3
    xx_file.write_text(json.dumps(data))
    args = ["--field", "fp:5", "--d", "2", "--in", str(xx_file)]
    code, out, err = _run(command + args)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "d does not match" in err and err.count("\n") == 1
    assert err == _run(["cok"] + args)[2]


def test_integer_twist_still_rotates(xx_file, capsys):
    data = json.loads(xx_file.read_text())
    data["twist"] = 3
    xx_file.write_text(json.dumps(data))
    assert main(["rotate", "--field", "fp:5", "--d", "2", "--in", str(xx_file),
                 "--steps", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["twist"] == 4


def test_nu_command(capsys):
    assert main(["nu", "--field", "fp:5", "--d", "2", "--l", "2",
                 "--k", "1", "--degs", "0,1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["l"] == 2 and data["m"] == 2
    assert main(["nu", "--field", "fp:5", "--d", "2", "--l", "2",
                 "--k", "5", "--degs", "0"]) == 1


def test_resolve_command(xx_file, capsys):
    assert main(["resolve", "--field", "fp:5", "--d", "2",
                 "--in", str(xx_file), "--side", "monic"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["termwise_split_exact"] is True


def test_stable_hom_command(xx_file, tmp_path, capsys):
    pair = tmp_path / "pair.json"
    mf = json.loads(xx_file.read_text())
    pair.write_text(json.dumps({"x": mf, "y": mf}))
    assert main(["stable-hom", "--field", "fp:5", "--d", "2",
                 "--in", str(pair)]) == 0
    assert json.loads(capsys.readouterr().out)["stable_hom_dim"] == 1


def test_census_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["census", "--field", "fp:5", "--d", "3", "--l", "1",
                 "--bounds", "m=1,dim=3,window=3", "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert "matched pairs:         2" in table
    report = json.loads(out.read_text())
    assert len(report["matching"]) == 2
    assert report["fac_hom_table"] == report["chain_hom_table"]


def test_census_over_a_large_prime_runs_in_bounded_memory():
    """The census never lists the elements of F_p: over p = 2^31 - 1, at
    d=2 the bounds dim=1 give no subspace a free entry, and at dim=2 the
    only top with a 2-dimensional piece, k^2, is skipped before its
    subspaces are listed (it splits), so these runs need no more memory
    than over F_5.  At d=3 the unsplit free top R(0) + R(-1) has pieces
    F_p^2 (p + 3 subspaces each), so m=2 is refused with an error line
    before anything is listed.  Each run is a child process whose address
    space is capped, so a regression fails here instead of exhausting the
    host."""
    cap = 512 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(facto.cli.__file__)))

    def census(d, bounds):
        return subprocess.run(
            [sys.executable, "-c",
             "import sys; from facto.cli import main; sys.exit(main(sys.argv[1:]))",
             "census", "--field", "fp:2147483647", "--d", str(d), "--l", "2",
             "--bounds", bounds],
            preexec_fn=limit, env=env, capture_output=True, text=True, timeout=300)

    for dim, matched in [(1, 2), (2, 3)]:
        proc = census(2, f"m=1,dim={dim},window=0")
        assert proc.returncode == 0, proc.stderr
        assert f"matched pairs:         {matched}" in proc.stdout
    proc = census(3, "m=2,dim=1,window=1")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def test_census_huge_window_runs_in_bounded_memory(tmp_path):
    """A window far beyond what a non-split top reaches is clamped on the
    census path: the run exits 0 in a child process with a capped address
    space, with the classes, matching and tables of the clamped window
    (max(dim - 2, 0) = 0 for chain tops, (m - 1) max(d - 2, 0) = 0 for
    factorization tops)."""
    cap = 512 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(facto.cli.__file__)))

    def census(window):
        out = tmp_path / f"window{window}.json"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from facto.cli import main; sys.exit(main(sys.argv[1:]))",
             "census", "--field", "fp:2", "--d", "2", "--l", "1",
             "--bounds", f"m=1,dim=1,window={window}", "--out", str(out)],
            preexec_fn=limit, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report.pop("bounds")["window"] == window
        return report

    huge = census(999999999)
    assert huge == census(0)
    assert huge["matching"]


@pytest.mark.parametrize("args, code, says", [
    ("--d 100000000 --l 2 --bounds m=0,dim=1,window=0", 0, "chain classes:         2"),
    ("--d 3000 --l 2 --bounds m=1,dim=1,window=0", 1, "error: m*d = 3000"),
    ("--d 1 --l 2 --bounds m=0,dim=2000,window=0", 1, "error: dim = 2000"),
    ("--d 2 --l 3000 --bounds m=1,dim=1,window=0", 1, "error: l = 3000"),
], ids=["huge-d", "huge-m*d", "huge-dim", "huge-l"])
def test_census_size_limit_exits_without_a_traceback(args, code, says):
    """A huge d with no free top runs to a report, as nothing of dimension
    d is built; m*d, dim or l beyond MAX_CENSUS_SIZE is an error line that
    names the bound.  Each run is a child process with a 1 GiB address
    space."""
    cap = 2**30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(facto.cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from facto.cli import main; sys.exit(main(sys.argv[1:]))",
         "census", "--field", "fp:5", *args.split()],
        preexec_fn=limit, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert says in (proc.stderr if code else proc.stdout)


_HUGE = 10**9
_TRIVIAL = {"d": _HUGE, "maps": [{"rows": 1, "cols": 1, "entries": [[[1]]],
                                  "src_degs": [0], "tgt_degs": [0]}]}
_CHAIN = {"objects": [{"summands": [[1, 0]]}], "maps": []}


@pytest.mark.parametrize("args, data, says", [
    ("cok", _TRIVIAL, "(l+1)*m*d = 2000000000"),
    ("validate", _TRIVIAL, "(l+1)*m*d = 2000000000"),
    ("reconstruct", {"objects": [{"summands": [[_HUGE, 0]]}], "maps": []},
     "(l+1)*m*d = 2000000000"),
    ("stable-hom", {"x": _CHAIN, "y": _CHAIN}, "(l+1)*m*d = 2000000000"),
    ("nu --l 1 --k 0 --degs 0", None, "(l+1)*m*d = 2000000000"),
    ("nu --l 1 --k 0 --degs " + ",".join(["0"] * 50000), None,
     "(l+1)*m*d = 100000000000000"),
    ("selftest --l 2", None, "(l+1)*m*d = 12000000000"),
], ids=["cok", "validate", "reconstruct", "stable-hom-chains", "nu-huge-d",
        "nu-huge-degs", "selftest"])
def test_size_limit_exits_without_a_traceback(args, data, says, tmp_path):
    """--d 10^9 on inputs of a few bytes, or 50000 --degs, is an error line
    that names MAX_CLI_SIZE, before a module, matrix or polynomial of that
    size is built.  Each run is a child process with a 1 GiB address
    space."""
    cap = 2**30

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(facto.cli.__file__)))
    path = tmp_path / "in.json"
    if data is not None:
        path.write_text(json.dumps(data))
    command, *rest = args.split()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from facto.cli import main; sys.exit(main(sys.argv[1:]))",
         command, "--field", "fp:5", "--d", str(_HUGE), *rest,
         *(["--in", str(path)] if data is not None else [])],
        preexec_fn=limit, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == (f"error: {says} is above the cli's bound "
                           f"{facto.cli.MAX_CLI_SIZE}\n")


@pytest.mark.parametrize("extra, code", [(0, 0), (1, 1)])
def test_size_limit_is_inclusive(extra, code, capsys):
    """nu at d = 2, l = 1 on m degrees has (l+1)*m*d = 4m: accepted up to
    MAX_CLI_SIZE, refused one generator beyond."""
    m = facto.cli.MAX_CLI_SIZE // 4 + extra
    assert main(["nu", "--field", "fp:5", "--d", "2", "--l", "1", "--k", "0",
                 "--degs", ",".join(["0"] * m)]) == code
    if code:
        assert _one_line_error(capsys)
    else:
        out = json.loads(capsys.readouterr().out)
        assert Factorization.from_json(HypersurfaceConfig(2, GF(5)), out).m == m


@pytest.mark.parametrize("target", ["missing/x.json", "dir"])
def test_census_out_unwritable_is_an_input_error(target, tmp_path, capsys):
    """--out into a missing directory, or onto a directory, exits 1 with an
    error line and leaves no temp file behind."""
    (tmp_path / "dir").mkdir()
    assert main(["census", "--field", "fp:2", "--d", "2", "--l", "1",
                 "--bounds", "m=1,dim=1,window=0",
                 "--out", str(tmp_path / target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write")
    assert captured.out == ""  # checked before the census runs
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir"]


def test_out_file_is_compact_sorted_json(xx_file, tmp_path):
    """--out holds json.dumps(<library result>, sort_keys=True) and a
    newline: one line through the C encoder."""
    c = HypersurfaceConfig(2, GF(5))
    x = Factorization.from_json(c, json.loads(xx_file.read_text()))
    res = nu_resolution(x, "epic")
    expected = {
        "cok": cok(x).to_json(),
        "rotate": rotate(x).to_json(),
        "nu": nu(c, 2, 1, [0, 1]).to_json(),
        "resolve": {"side": "epic", "middle": res.middle.to_json(),
                    "map": res.map.to_json(), "termwise_split_exact": True},
    }
    base = ["--field", "fp:5", "--d", "2"]
    argvs = {
        "cok": ["cok", *base, "--in", str(xx_file)],
        "rotate": ["rotate", *base, "--in", str(xx_file)],
        "nu": ["nu", *base, "--l", "2", "--k", "1", "--degs", "0,1"],
        "resolve": ["resolve", *base, "--in", str(xx_file), "--side", "epic"],
    }
    for command, argv in argvs.items():
        out = tmp_path / f"{command}.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == json.dumps(expected[command], sort_keys=True) + "\n"


def test_census_bad_bounds(capsys):
    assert main(["census", "--field", "fp:5", "--d", "2", "--l", "1",
                 "--bounds", "m=1"]) == 1


def test_census_repeated_bounds_key(capsys):
    assert main(["census", "--field", "fp:5", "--d", "2", "--l", "1",
                 "--bounds", "m=1,dim=2,window=1,m=3"]) == 1
    assert "repeat" in capsys.readouterr().err


def test_no_partial_output_on_error(tmp_path):
    out = tmp_path / "never.json"
    assert main(["cok", "--field", "fp:5", "--d", "2",
                 "--in", str(tmp_path / "missing.json"),
                 "--out", str(out)]) == 1
    assert not out.exists()


def test_deterministic_output(xx_file, capsys):
    main(["cok", "--field", "fp:5", "--d", "2", "--in", str(xx_file)])
    first = capsys.readouterr().out
    main(["cok", "--field", "fp:5", "--d", "2", "--in", str(xx_file)])
    assert capsys.readouterr().out == first


def test_selftest(capsys):
    assert main(["selftest", "--field", "fp:5", "--d", "2", "--l", "1",
                 "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "pass" in out


def test_selftest_over_f2(capsys):
    assert main(["selftest", "--field", "fp:2", "--d", "2", "--l", "2"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("side", ["x", "y"])
def test_stable_hom_non_object(side, xx_file, tmp_path, capsys):
    mf = json.loads(xx_file.read_text())
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"x": mf, "y": mf, side: [1, 2]}))
    assert main(["stable-hom", "--field", "fp:5", "--d", "2",
                 "--in", str(pair)]) == 1
    assert _one_line_error(capsys)


def _write_pair(tmp_path, x, y):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"x": x.to_json(), "y": y.to_json()}))
    return str(pair)


@pytest.mark.parametrize("seed", [0, 11])
def test_stable_hom_chains_of_different_lengths(seed, tmp_path, capsys):
    c = HypersurfaceConfig(2, GF(5))
    rng = random.Random(seed)
    u, v = random_chain(c, 2, rng), random_chain(c, 3, rng)
    assert main(["stable-hom", "--field", "fp:5", "--d", "2",
                 "--in", _write_pair(tmp_path, u, v)]) == 1
    assert _one_line_error(capsys)


def test_stable_hom_factorizations_of_different_l(tmp_path, capsys):
    c = HypersurfaceConfig(2, GF(5))
    x, y = rank1_factorization(c, [1]), rank1_factorization(c, [1, 0])
    assert main(["stable-hom", "--field", "fp:5", "--d", "2",
                 "--in", _write_pair(tmp_path, x, y)]) == 1
    assert _one_line_error(capsys)


@pytest.mark.parametrize("error", [FactorizationError, RealizationError])
def test_broken_library_invariant_exits_2(error, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise error("kernel is invalid")

    monkeypatch.setattr("facto.cli.nu", broken)
    assert main(["nu", "--field", "fp:5", "--d", "2", "--l", "1",
                 "--k", "0", "--degs", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failure: ") and err.count("\n") == 1


def test_census_l_zero(capsys):
    assert main(["census", "--field", "fp:5", "--d", "2", "--l", "0"]) == 1
    assert _one_line_error(capsys)


def test_nu_l_zero(capsys):
    assert main(["nu", "--field", "fp:5", "--d", "2", "--l", "0",
                 "--k", "0", "--degs", "0"]) == 1
    assert _one_line_error(capsys)


@pytest.mark.parametrize("objects", [[5], "ab"])
def test_reconstruct_malformed_objects(objects, tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"objects": objects, "maps": []}))
    assert main(["reconstruct", "--field", "fp:5", "--d", "2",
                 "--in", str(path)]) == 1
    assert _one_line_error(capsys)


def test_rational_zero_denominator(xx_file, tmp_path, capsys):
    data = json.loads(xx_file.read_text())
    data["maps"][0]["entries"][0][0] = ["1/0"]
    path = tmp_path / "mf.json"
    path.write_text(json.dumps(data))
    assert main(["cok", "--field", "q", "--d", "2", "--in", str(path)]) == 1
    assert _one_line_error(capsys)


@pytest.mark.parametrize("field", ["fp:5", "q"])
@pytest.mark.parametrize("command", ["validate", "cok", "reconstruct"])
def test_boolean_scalar_is_an_input_error(command, field, xx_file, tmp_path):
    """A JSON true or false is no field element, as it is no degree: a map
    entry [0, true] (x) or a block entry true is refused, not read as 1."""
    if command == "reconstruct":
        # k(-1) >-> R/(x^2) onto the socle, its one block entry true
        data = {"objects": [{"d": 2, "summands": [[1, 1]]}, {"d": 2, "summands": [[2, 0]]}],
                "maps": [{"src": {"d": 2, "summands": [[1, 1]]},
                          "tgt": {"d": 2, "summands": [[2, 0]]}, "blocks": [[True]]}]}
    else:
        data = json.loads(xx_file.read_text())
        data["maps"][0]["entries"][0][0] = [0, True]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out, err = _run([command, "--field", field, "--d", "2", "--in", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# (d, command, paths set to true) on an l = 1, rank-1 factorization (one
# 1 x 1 map) or, for reconstruct, its cok
_DECLARED_TRUE = {
    "map rows": (2, "validate", [("maps", 0, "rows")]),
    "map cols": (2, "validate", [("maps", 0, "cols")]),
    "map rows and cols": (2, "validate", [("maps", 0, "rows"), ("maps", 0, "cols")]),
    "factorization d": (1, "validate", [("d",)]),
    "factorization m": (1, "cok", [("m",)]),
    "factorization l": (1, "rotate", [("l",)]),
    "module d": (1, "reconstruct", [("objects", 0, "d")]),
}


@pytest.mark.parametrize("case", sorted(_DECLARED_TRUE))
def test_boolean_declared_integer_is_an_input_error(case, tmp_path):
    """A declared "rows", "cols", "d", "l" or "m" of JSON true is no 1: the
    file is refused, as a boolean degree, summand or scalar is."""
    d, command, paths = _DECLARED_TRUE[case]
    x = rank1_factorization(HypersurfaceConfig(d, GF(5)), [1])
    data = (cok(x) if command == "reconstruct" else x).to_json()
    for path in paths:
        data = _replace(data, path, True)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    code, out, err = _run([command, "--field", "fp:5", "--d", str(d), "--in", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "not an integer" in err and err.count("\n") == 1


@pytest.mark.parametrize("declared", [
    {"m": 99}, {"l": 7}, {"degs": [[0]]}, {"m": 99, "l": 7, "degs": [[0]]},
    {"degs": [[0], [0], [-1]]}, {"degs": [[False], [0], [-2]]}, {"degs": [[0.0], [0], [-2]]},
    {"degs": [0, 0, -2]}, {"m": 1.0},
], ids=repr)
def test_declared_shape_must_match_the_maps(declared, tmp_path):
    """The "l", "m" and "degs" that a factorization file declares are those
    of its maps (l = 2, m = 1, degs [[0], [0], [-2]]), value and type."""
    cfg = HypersurfaceConfig(3, GF(5))
    data = random_factorization(cfg, 2, random.Random(1), m_max=1).to_json()
    assert (data["l"], data["m"], data["degs"]) == (2, 1, [[0], [0], [-2]])
    path = tmp_path / "mf.json"
    path.write_text(json.dumps(data))
    argv = ["validate", "--field", "fp:5", "--d", "3", "--in", str(path)]
    assert _run(argv)[0] == 0
    path.write_text(json.dumps({**data, **declared}))
    code, out, err = _run(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def _run(argv):
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_parser_built_once_without_leaking_defaults(xx_file, tmp_path):
    assert _parser() is _parser()
    chain = tmp_path / "chain.json"
    base = ["--field", "fp:5", "--d", "2"]
    calls = [
        ["cok", *base, "--in", str(xx_file), "--out", str(chain)],
        ["rotate", *base, "--in", str(xx_file), "--steps", "-2"],
        ["rotate", *base, "--in", str(xx_file)],
        ["nu", *base, "--l", "2", "--k", "1", "--degs", "0,1"],
        ["nu", *base, "--l", "2"],
        ["resolve", *base, "--in", str(xx_file), "--side", "monic"],
        ["resolve", *base, "--in", str(xx_file)],
        ["reconstruct", *base, "--in", str(chain)],
        ["census", *base, "--l", "1"],
        ["validate", "--d", "2", "--in", str(xx_file)],
        ["validate", "--field", "q", "--d", "2", "--in", str(xx_file)],
    ]
    shared = [_run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        _parser.cache_clear()
        fresh.append(_run(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]


_COMMAND_NAMES = ["validate", "cok", "reconstruct", "rotate", "nu", "resolve",
                  "stable-hom", "census", "selftest"]
_PARSE_CASES = [
    [], ["-h"], ["bogus"], ["--bogus"], ["-h", "validate"], ["rot", "--d", "2"],
    ["validate", "--bogus", "1"], ["validate", "--fie", "fp:5", "--d", "2"],
    ["validate", "--d", "x"], ["validate", "-d", "2"], ["validate", "--", "--d", "2"],
    ["resolve", "--side", "up"], ["--", "nu", "--d", "2", "--l", "1", "--k", "0", "--degs", "0"],
    ["validate", "--field", "q", "--d=2", "--in", "mf.json", "--out", "o.json"],
    ["rotate", "--d", "2", "--in", "mf.json", "--steps", "-2", "--seed", "4"],
    ["nu", "--d", "3", "--l", "2", "--k", "1", "--degs", "0,1"],
    ["resolve", "--d", "2", "--in", "mf.json", "--side", "monic"],
    ["census", "--l", "1", "--bounds", "m=1,dim=1,window=1"],
    ["selftest", "--seed", "3", "--d", "2"],
    *([name, "--help"] for name in _COMMAND_NAMES),
]


def _parse_outcome(parser, argv):
    """(parsed options or SystemExit code, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parser.parse_args(argv))
        except SystemExit as e:
            result = e.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=lambda argv: " ".join(argv) or "(no argv)")
def test_parse_is_unchanged(argv):
    """The parser built from the command table parses, prints help and
    reports usage errors as the earlier parser, which listed the commands'
    help and own options apart, did on the same Python."""
    assert _parse_outcome(_parser(), argv) == _parse_outcome(parser_by_name_chain(), argv)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)

_FUZZ_CFG = HypersurfaceConfig(2, GF(5))
_FAC = random_factorization(_FUZZ_CFG, 2, random.Random(3), m_max=2).to_json()
_CHAIN = random_chain(_FUZZ_CFG, 2, random.Random(3)).to_json()
_VALID = {
    "validate": _FAC,
    "cok": _FAC,
    "reconstruct": _CHAIN,
    "rotate": _FAC,
    "resolve": _FAC,
    "stable-hom": {"x": _FAC, "y": _FAC},
}


def _nodes(doc, path=()):
    """Paths to every node of a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _fuzz_call(tmp_path, command, doc, field="fp:5"):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(doc))
    return _run([command, "--field", field, "--d", "2", "--in", str(path)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(_VALID)), doc=_JSON)
def test_fuzz_arbitrary_json_exits_1(tmp_path_factory, command, doc):
    code, _, err = _fuzz_call(tmp_path_factory.mktemp("fuzz"), command, doc)
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(_VALID)), data=st.data(),
       field=st.sampled_from(["fp:5", "q"]))
def test_fuzz_damaged_input_never_crashes(tmp_path_factory, command, data,
                                          field):
    """A valid input with one node replaced: any outcome but a traceback."""
    valid = _VALID[command]
    paths = list(_nodes(valid))
    path = paths[data.draw(st.integers(0, len(paths) - 1))]
    doc = _replace(valid, path, data.draw(_JSON))
    code, _, err = _fuzz_call(tmp_path_factory.mktemp("fuzz"), command, doc,
                              field)
    assert code in (0, 1, 2)
    if code:
        assert err.count("\n") == 1


@pytest.mark.parametrize("summand", [[1.7, True], [1, "0"]])
def test_reconstruct_non_integer_summand(summand, tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({"objects": [{"summands": [summand]}],
                                "maps": []}))
    assert main(["reconstruct", "--field", "fp:5", "--d", "2",
                 "--in", str(path)]) == 1
    assert _one_line_error(capsys)


def test_census_broken_module_invariant_exits_2(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RealizationError("span is not x-stable")

    monkeypatch.setattr("facto.census.class_census", broken)
    assert main(["census", "--field", "fp:5", "--d", "2", "--l", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("failure: ") and err.count("\n") == 1


def test_census_seed_help_says_it_does_not_matter(capsys):
    """--seed is accepted everywhere; its help says what it does per command."""
    for command, says in (("census", "does not depend on it"),
                          ("selftest", "seed of the random inputs"),
                          ("resolve", "this command is deterministic and ignores it")):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert says in " ".join(capsys.readouterr().out.split()), command


@pytest.mark.parametrize("spec", ["fp:abc", "fp:", "fp:5.0", "fp:1e3", "fp:4"])
def test_bad_modulus_is_an_input_error(spec):
    """A modulus that is not an integer (or not a prime) is one error line,
    never a traceback."""
    code, out, err = _run(["nu", "--field", spec, "--d", "2", "--l", "1",
                           "--k", "0", "--degs", "0"])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if spec == "fp:4":
        assert "modulus must be a prime" in err


def _rotate_cli(path, steps):
    code, out, err = _run(["rotate", "--field", "fp:5", "--d", "3", "--in", str(path),
                           "--steps", str(steps)])
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_rotate_steps_equal_single_rotations(l, tmp_path):
    """--steps N gives the same file as N single rotations, for |N| past
    three full cycles and a starting twist of 2."""
    c = HypersurfaceConfig(3, GF(5))
    x = random_factorization(c, l, random.Random(l), m_max=2)
    path = tmp_path / "mf.json"
    path.write_text(json.dumps(dict(x.to_json(), twist=2)))
    x = Factorization.from_json(c, json.loads(path.read_text()))
    for steps in range(-3 * (l + 1) - 1, 3 * (l + 1) + 2):
        y = x
        for _ in range(abs(steps)):
            y = rotate(y, inverse=steps < 0)
        assert _rotate_cli(path, steps) == y.to_json(), steps


@pytest.mark.parametrize("l", [1, 2, 3])
def test_chained_rotates_equal_one_rotate(l, tmp_path):
    """--steps a, then --steps b on its output, gives the file that one
    --steps a+b gives: the output keeps its rotation phase, written only
    when it is nonzero, so the second call goes on with the first one's
    cycle instead of starting a new one."""
    c = HypersurfaceConfig(3, GF(5))
    x = random_factorization(c, l, random.Random(l), m_max=2)
    path, mid = tmp_path / "mf.json", tmp_path / "mid.json"
    path.write_text(json.dumps(x.to_json()))
    single = {n: _rotate_cli(path, n) for n in range(-8, 9)}
    for n, data in single.items():
        assert data.get("rot_phase", 0) == n % (l + 1) and data.get("rot_phase") != 0
    for a in range(-4, 5):
        mid.write_text(json.dumps(single[a]))
        for b in range(-4, 5):
            assert _rotate_cli(mid, b) == single[a + b], (a, b)


@pytest.mark.parametrize("sign", [1, -1])
def test_rotate_huge_steps_return_at_once(sign, tmp_path):
    """Theta^{l+1} = tau: 10^12 steps are 10^12 // (l+1) twists and the
    remainder in single rotations."""
    c = HypersurfaceConfig(3, GF(5))
    x = random_factorization(c, 2, random.Random(7), m_max=2)
    path = tmp_path / "mf.json"
    path.write_text(json.dumps(x.to_json()))
    start = time.perf_counter()
    got = _rotate_cli(path, sign * 10**12)
    assert time.perf_counter() - start < 1
    q, r = divmod(10**12, 3)
    y = x
    for _ in range(r):
        y = rotate(y, inverse=sign < 0)
    assert got == dict(y.to_json(), twist=y.twist + sign * q)
