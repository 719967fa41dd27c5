import json
from pathlib import Path

import numpy as np
import pytest

from karycap import random_game, save_game
from karycap.cli import main


@pytest.fixture
def min2_path(tmp_path, m2):
    path = str(tmp_path / "min2.json")
    save_game(m2, path)
    return path


@pytest.fixture
def additive_path(tmp_path):
    path = str(tmp_path / "add.json")
    save_game(random_game(3, 2, 2, "additive"), path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfo:
    def test_min_game_summary(self, capsys, min2_path):
        code, out, _ = run(capsys, "info", min2_path)
        doc = json.loads(out)
        assert code == 0
        assert doc["n"] == 2 and doc["k"] == 2 and doc["table_size"] == 9
        assert doc["v_top"] == 2.0
        assert doc["is_kary_capacity"] is False

    def test_scaled_min_game_is_capacity(self, capsys, tmp_path, m2):
        from karycap import MultichoiceGame

        path = str(tmp_path / "half.json")
        save_game(MultichoiceGame(2, 2, m2.values / 2.0), path)
        code, out, _ = run(capsys, "info", path)
        assert code == 0 and json.loads(out)["is_kary_capacity"] is True

    def test_heterogeneous_echoes_k_list(self, capsys, tmp_path):
        doc = {"n": 2, "k": [1, 2], "values": [0, 1, 1, 2, 2, 3]}
        path = tmp_path / "het.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "info", str(path))
        assert code == 0 and json.loads(out)["k_list"] == [1, 2]

    def test_truncated_table(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "k": 2, "values": [0.0] * 5}))
        code, _, err = run(capsys, "info", str(path))
        assert code == 1 and "length mismatch" in err

    def test_nonzero_origin_without_normalize(self, capsys, tmp_path):
        path = tmp_path / "off.json"
        path.write_text(json.dumps({"n": 1, "k": 1, "values": [0.5, 1.0]}))
        code, _, err = run(capsys, "info", str(path))
        assert code == 1 and "normalize" in err
        code, out, _ = run(capsys, "info", str(path), "--normalize")
        assert code == 0 and json.loads(out)["v_zero"] == 0.5


class TestImportance:
    def test_min_game(self, capsys, min2_path):
        code, out, _ = run(capsys, "importance", min2_path)
        doc = json.loads(out)
        assert code == 0
        assert doc["importance"] == [2.0, 2.0]
        assert doc["efficiency_rhs"] == 4.0
        assert doc["efficiency_gap"] <= 1e-9

    def test_additive_game(self, capsys, tmp_path):
        from karycap import MultichoiceGame

        path = str(tmp_path / "sum.json")
        save_game(
            MultichoiceGame.from_function(2, 2, lambda x: float(x[0] + x[1])), path
        )
        code, out, _ = run(capsys, "importance", path)
        doc = json.loads(out)
        assert doc["importance"] == [4.0, 4.0] and doc["efficiency_rhs"] == 8.0

    def test_csv_format(self, capsys, min2_path):
        code, out, _ = run(capsys, "importance", min2_path, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "attribute,value"
        assert lines[1].startswith("1,2")


class TestInteraction:
    def test_single_set_all_methods(self, capsys, min2_path):
        for method in ("closed_form", "derivative_sum", "recursive", "cellsum"):
            code, out, _ = run(
                capsys, "interaction", min2_path, "--set", "1,2", "--method", method
            )
            doc = json.loads(out)
            assert code == 0 and abs(doc["interactions"]["1+2"] - 2.0) <= 1e-9

    def test_order_sweep(self, capsys, additive_path):
        code, out, _ = run(capsys, "interaction", additive_path, "--order", "2")
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["interactions"]["1+2"]) <= 1e-9

    def test_singleton_matches_importance(self, capsys, min2_path):
        code, out, _ = run(capsys, "interaction", min2_path, "--set", "1")
        assert code == 0 and json.loads(out)["interactions"]["1"] == 2.0

    def test_out_of_range_set(self, capsys, min2_path):
        code, _, err = run(capsys, "interaction", min2_path, "--set", "1,7")
        assert code == 1 and "outside" in err

    def test_malformed_set_is_usage_error(self, capsys, min2_path):
        code, _, err = run(capsys, "interaction", min2_path, "--set", "1,x")
        assert code == 2

    def test_requires_order_or_set(self, capsys, min2_path):
        with pytest.raises(SystemExit) as exc:
            main(["interaction", min2_path])
        assert exc.value.code == 2


class TestChoquet:
    def test_hand_values(self, capsys, min2_path):
        code, out, _ = run(capsys, "choquet", min2_path, "--point", "0.5,0.3")
        assert code == 0 and out.strip() == "0.3"
        code, out, _ = run(capsys, "choquet", min2_path, "--point", "1.5,0.5")
        assert code == 0 and out.strip() == "0.5"

    def test_lattice_point(self, capsys, min2_path):
        code, out, _ = run(capsys, "choquet", min2_path, "--point", "1,1")
        assert code == 0 and out.strip() == "1"

    def test_out_of_range(self, capsys, min2_path):
        code, _, err = run(capsys, "choquet", min2_path, "--point", "2.5,0")
        assert code == 1
        code, _, err = run(capsys, "choquet", min2_path, "--point", "nan,0.5")
        assert code == 1 and "must lie in" in err


class TestVerify:
    def test_all_axioms_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--axioms", "all", "--trials", "5",
            "--seed", "42", "--n", "3", "--k", "2",
        )
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is True
        assert [r["axiom"] for r in doc["reports"]] == ["L", "N", "I", "S", "E", "R"]
        assert all(r["max_gap"] <= 1e-9 for r in doc["reports"])

    def test_efficiency_on_min_game(self, capsys, min2_path):
        code, out, _ = run(
            capsys, "verify", min2_path, "--axioms", "E", "--trials", "2", "--seed", "1"
        )
        assert code == 0 and json.loads(out)["passed"] is True

    def test_deterministic_rerun(self, capsys):
        args = ("verify", "--axioms", "R", "--trials", "1", "--seed", "9",
                "--n", "3", "--k", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_unknown_axiom(self, capsys):
        code, _, err = run(capsys, "verify", "--axioms", "Q")
        assert code == 2 and "unknown axiom" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--axioms", "E", "--trials", "2", "--seed", "3",
            "--format", "csv",
        )
        assert code == 0 and out.splitlines()[0] == "axiom,trials,max_gap,passed,failures"


class TestIntegralCheck:
    def test_min_game_pair(self, capsys, min2_path):
        code, out, _ = run(
            capsys, "integral-check", min2_path, "--set", "1,2",
            "--samples", "1000", "--seed", "7",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["closed_form"] == 2.0 and abs(doc["z_score"]) <= 3.0

    def test_min_game_singleton(self, capsys, min2_path):
        code, out, _ = run(
            capsys, "integral-check", min2_path, "--set", "1",
            "--samples", "20000", "--seed", "7",
        )
        doc = json.loads(out)
        assert code == 0 and abs(doc["estimate"] - 2.0) <= 0.05

    def test_additive_pair(self, capsys, additive_path):
        code, out, _ = run(
            capsys, "integral-check", additive_path, "--set", "1,2",
            "--samples", "100", "--seed", "3",
        )
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["estimate"]) <= 1e-12 and doc["std_error"] <= 1e-12


class TestConvert:
    def test_round_trip_is_byte_identical(self, capsys, tmp_path):
        game = random_game(55, 3, 2, "general")
        src = str(tmp_path / "src.json")
        save_game(game, src)
        out1 = str(tmp_path / "a.json")
        out2 = str(tmp_path / "b.json")
        assert main(["convert", src, "--out", out1]) == 0
        assert main(["convert", out1, "--out", out2]) == 0
        assert Path(out1).read_text() == Path(out2).read_text()
        reloaded = json.loads(Path(out2).read_text())
        assert np.array_equal(np.asarray(reloaded["values"]), game.values)

    def test_heterogeneous_to_canonical(self, capsys, tmp_path):
        doc = {"n": 2, "k": [1, 2], "values": [0, 1, 1, 2, 2, 3]}
        src = tmp_path / "het.json"
        src.write_text(json.dumps(doc))
        dst = str(tmp_path / "canon.json")
        assert main(["convert", str(src), "--out", dst]) == 0
        canon = json.loads(Path(dst).read_text())
        assert canon["k"] == 2 and len(canon["values"]) == 9

    def test_write_to_stdout(self, capsys, min2_path):
        code, out, _ = run(capsys, "convert", min2_path)
        doc = json.loads(out)
        assert code == 0 and doc["values"][4] == 1.0


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "info", "/does/not/exist.json")
        assert code == 1

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["interaction"])
        assert exc.value.code == 2

    def test_report_written_to_file(self, capsys, min2_path, tmp_path):
        out_path = str(tmp_path / "report.json")
        code, out, _ = run(capsys, "importance", min2_path, "--out", out_path)
        assert code == 0 and out == ""
        assert json.loads(Path(out_path).read_text())["importance"] == [2.0, 2.0]
