import json
import sys
from pathlib import Path

import numpy as np
import pytest

from karycap import MultichoiceGame, indices, min_game, random_game, save_game
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


def usage_error(capsys, *argv):
    """Exit code, stdout and stderr of an argv that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


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
        code, out, _ = run(capsys, "info", str(path), "--format", "csv")
        assert code == 0 and "k_list,1,2" in out.splitlines()

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["info", "GAME"], ["n", "k", "table_size", "v_zero", "v_top", "is_kary_capacity"]),
            (["integral-check", "GAME", "--set", "1,2", "--samples", "100"],
             ["estimate", "std_error", "closed_form", "z_score"]),
        ],
        ids=lambda a: a[0],
    )
    def test_csv_key_value_rows(self, capsys, min2_path, argv, keys):
        argv = [min2_path if a == "GAME" else a for a in argv]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        rows = [line.split(",") for line in out.splitlines()]
        assert code == 0 and rows[0] == ["key", "value"]
        assert [row[0] for row in rows[1:]] == keys

    def test_truncated_table(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "k": 2, "values": [0.0] * 5}))
        code, _, err = run(capsys, "info", str(path))
        assert code == 1 and "length mismatch" in err

    def test_deeply_nested_file_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"n": 1, "k": 1, "values": ' + "[" * 5_000 + "]" * 5_000 + "}")
        code, out, err = run(capsys, "info", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_huge_n_is_one_error_line(self, capsys, tmp_path):
        # n past the float range once escaped the size guard as an OverflowError
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**400, "k": 1, "values": [0, 1]}))
        code, out, err = run(capsys, "info", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err

    def test_n_past_the_digit_limit_is_one_error_line(self, capsys, tmp_path):
        # Python refuses to read a 5,000-digit integer: once a plain ValueError
        path = tmp_path / "digits.json"
        path.write_text('{"n": ' + "9" * 5_000 + ', "k": 1, "values": [0, 1]}')
        code, out, err = run(capsys, "info", str(path))
        assert code == 1 and out == "" and err.startswith("error: not valid JSON: ")
        assert err.count("\n") == 1

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

    def test_order_one_rows_are_the_importance_rows(self, capsys, tmp_path, monkeypatch):
        # each verb indexes the game by one all-coalition pass, not per coalition
        path = str(tmp_path / "g.json")
        save_game(random_game(17, 4, 3, "general"), path)
        calls = []
        for name in ("_index_array", "_closed_form"):
            served = getattr(indices, name)
            monkeypatch.setattr(indices, name,
                                lambda *a, f=served, name=name: calls.append(name) or f(*a))
        rows = []
        for argv in (["importance", path], ["interaction", path, "--order", "1"]):
            calls.clear()
            code, out, _ = run(capsys, *argv, "--format", "csv")
            assert code == 0 and calls == ["_index_array"]
            rows.append(out.splitlines()[1:5])
        assert rows[0] == rows[1]

    def test_order_out_of_range_exits_1(self, capsys, min2_path):
        code, out, err = run(capsys, "interaction", min2_path, "--order", "3")
        assert code == 1 and out == "" and "max order 3 outside 1..2" in err

    def test_every_order_route_honours_the_limit(self, capsys, tmp_path):
        # at 4 bits the 64-entry table of min_game(3, 3) is refused as it
        # loads; the 16-entry min_game(4, 1) loads at 4 bits and every route's
        # own guard refuses its whole report, or the 2^4 - 1 reduced games of
        # a recursive query; so do the one-pass routes' guards on the 8-entry
        # min_game(3, 1) at 3 bits, and derivative_sum's on min_game(3, 3)
        for game, bits, methods, query in [
            (min_game(3, 3), 4, indices.METHODS, ["--order", "3"]),
            (min_game(4, 1), 4, indices.METHODS, ["--order", "4"]),
            (min_game(4, 1), 4, ("recursive",), ["--set", "1,2,3,4"]),
            (min_game(3, 1), 3, ("closed_form", "cellsum"), ["--order", "3"]),
            (min_game(3, 3), 6, ("derivative_sum",), ["--order", "3"]),
        ]:
            path = str(tmp_path / "g.json")
            save_game(game, path)
            for method in methods:
                code, out, err = run(capsys, "interaction", path, *query,
                                     "--method", method, "--limit", str(bits))
                assert code == 1 and out == "", (method, bits, query)
                assert err.startswith("error: ") and err.count("\n") == 1
                assert f"beyond the {bits}-bit limit" in err

    def test_singleton_matches_importance(self, capsys, min2_path):
        code, out, _ = run(capsys, "interaction", min2_path, "--set", "1")
        assert code == 0 and json.loads(out)["interactions"]["1"] == 2.0

    def test_out_of_range_set(self, capsys, min2_path):
        code, _, err = run(capsys, "interaction", min2_path, "--set", "1,7")
        assert code == 1 and "outside" in err

    def test_malformed_set_is_usage_error(self, capsys, min2_path):
        # argparse refuses it before the file is read, with its usage line
        for argv, message in [
            (["interaction", min2_path, "--set", "1,x"],
             'argument --set: cannot parse coalition "1,x"; expected e.g. "1,3"'),
            (["integral-check", min2_path, "--set", "1;2"], 'cannot parse coalition "1;2"'),
            (["interaction", "/does/not/exist.json", "--set", ""], 'cannot parse coalition ""'),
            (["choquet", min2_path, "--point", "0.5,x"], 'argument --point: cannot parse point'),
        ]:
            code, out, err = usage_error(capsys, *argv)
            assert code == 2 and out == "" and err.startswith("usage: karycap")
            assert message in err

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

    def test_limit_reaches_the_trial_games(self, capsys):
        code, out, err = run(
            capsys, "verify", "--n", "4", "--k", "3", "--limit", "4",
            "--trials", "1", "--axioms", "N",
        )
        # the trial game's 4**4-entry table is refused, before any partner
        assert code == 1 and out == "" and "256 entries, beyond the 4-bit limit" in err

    def test_huge_n_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "verify", "--trials", "1", "--n", str(10**400))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "beyond the 28-bit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", str(10**399), "--limit", str(10**400)],  # past what numpy indexes
            ["--axioms", "L", "--n", "50", "--k", "1", "--limit", "60"],  # an 8 PiB table
        ],
        ids=["n-past-numpy-index", "table-past-memory"],
    )
    def test_raised_limit_refusal_is_one_error_line(self, capsys, argv):
        # once an OverflowError and a MemoryError, each with a traceback
        code, out, err = run(capsys, "verify", "--trials", "1", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_finite_tolerance_is_the_verdict(self, capsys):
        # every gap exceeds a negative tolerance, and none of a random game's exceeds 1
        for tol, want in [("-1", 1), ("1", 0)]:
            code, out, _ = run(capsys, "verify", "--trials", "2", f"--tol={tol}")
            assert code == want and json.loads(out)["passed"] is (want == 0)

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "GAME"],
            ["verify", "--axioms", "E", "--trials", "1"],
            ["integral-check", "GAME", "--set", "1,2", "--samples", "100"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_nan_tolerance_is_refused(self, capsys, min2_path, argv):
        # no gap exceeds nan or inf, so no verb that reads --tol takes a non-finite one;
        # "--tol=" keeps argparse from reading -inf as an option
        argv = [min2_path if a == "GAME" else a for a in argv]
        for tol, refusal in [("nan", "is not a number"), ("inf", "is not finite"),
                             ("-inf", "is not finite")]:
            code, out, err = usage_error(capsys, *argv, f"--tol={tol}")
            assert code == 2 and out == "" and f"tolerance {tol} {refusal}" in err

    def test_unknown_axiom(self, capsys):
        code, out, err = usage_error(capsys, "verify", "--axioms", "Q")
        assert code == 2 and out == "" and "unknown axiom name(s): Q" in err

    @pytest.mark.parametrize("names", [",", " , "])
    def test_axiom_list_naming_none_is_refused(self, capsys, names):
        # a run of no checks would otherwise pass
        code, out, err = usage_error(capsys, "verify", "--axioms", names)
        assert code == 2 and out == "" and "names no axiom" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--axioms", "E", "--trials", "2", "--seed", "3",
            "--format", "csv",
        )
        header = out.splitlines()[0]
        assert code == 0 and header == "axiom,trials,max_gap,closed_form_gap,passed,failures"


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

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e6])
    @pytest.mark.parametrize("seed, n, k, T", [(13, 4, 2, "1"), (21, 4, 2, "1"), (27, 3, 3, "1,2")])
    def test_additive_games_pass_at_every_scale(self, capsys, tmp_path, scale, seed, n, k, T):
        # a constant integrand per cell: the standard error is rounding noise,
        # so the verdict allows tol * max(1, max|v|) beyond three of them
        path = str(tmp_path / "add.json")
        save_game(MultichoiceGame(n, k, random_game(seed, n, k, "additive").values * scale), path)
        code, out, _ = run(
            capsys, "integral-check", path, "--set", T, "--samples", "50", "--seed", "1"
        )
        doc = json.loads(out)
        assert code == 0
        assert list(doc) == ["estimate", "std_error", "closed_form", "z_score"]

    @pytest.mark.parametrize(
        "extra, message",
        [(["--samples", "20000000"], "26-bit"), (["--samples", "200", "--limit", "10"], "10-bit")],
    )
    def test_sampling_over_the_limit_is_refused(self, capsys, min2_path, extra, message):
        code, out, err = run(capsys, "integral-check", min2_path, "--set", "1", *extra)
        assert code == 1 and out == ""
        assert err.startswith("error: query needs") and message in err
        assert "Choquet evaluations" in err

    def test_raised_limit_admits_the_sampling(self, capsys, min2_path):
        code, out, _ = run(
            capsys, "integral-check", min2_path, "--set", "1",
            "--samples", "200", "--limit", "11",
        )
        assert code == 0 and abs(json.loads(out)["z_score"]) <= 3.0


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

    def test_write_to_stdout(self, capsys, min2_path, tmp_path):
        code, out, _ = run(capsys, "convert", min2_path)
        doc = json.loads(out)
        assert code == 0 and doc["values"][4] == 1.0
        assert out == json.dumps(doc) + "\n" and not sys.stdout.closed
        dst = tmp_path / "out.json"
        assert main(["convert", min2_path, "--out", str(dst)]) == 0
        assert dst.read_text() == out


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "info", "/does/not/exist.json")
        assert code == 1

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["interaction"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["importance", "--tol", "1"], ["choquet", "--point", "1,1", "--format", "csv"]],
    )
    def test_flag_the_verb_does_not_read_is_usage_error(self, capsys, min2_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], min2_path, *argv[1:]])
        assert exc.value.code == 2

    # numpy warns on the way: the pass and the sums run outside np.errstate
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("verb", ["importance", "verify"])
    def test_overflowing_sum_is_one_error_line(self, capsys, tmp_path, verb):
        # a table near the float range overflows math.fsum: once a traceback
        path = str(tmp_path / "near.json")
        save_game(MultichoiceGame(3, 2, random_game(3, 3, 2).values * 1.7e308), path)
        code, out, err = run(capsys, verb, path)
        assert code == 1 and out == ""
        assert err == "error: intermediate overflow in fsum\n"

    def test_report_written_to_file(self, capsys, min2_path, tmp_path):
        out_path = str(tmp_path / "report.json")
        code, out, _ = run(capsys, "importance", min2_path, "--out", out_path)
        assert code == 0 and out == ""
        assert json.loads(Path(out_path).read_text())["importance"] == [2.0, 2.0]
