import json

import pytest

from facto.cli import main
from facto.factorizations import Factorization
from facto.fields import GF
from facto.functors import cok
from facto.modules import HypersurfaceConfig
from facto.randgen import rank1_factorization


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


def test_census_bad_bounds(capsys):
    assert main(["census", "--field", "fp:5", "--d", "2", "--l", "1",
                 "--bounds", "m=1"]) == 1


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


def test_census_l_zero(capsys):
    assert main(["census", "--field", "fp:5", "--d", "2", "--l", "0"]) == 1
    assert _one_line_error(capsys)


def test_nu_l_zero(capsys):
    assert main(["nu", "--field", "fp:5", "--d", "2", "--l", "0",
                 "--k", "0", "--degs", "0"]) == 1
    assert _one_line_error(capsys)
