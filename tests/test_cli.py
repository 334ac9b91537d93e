import argparse
import json
import os
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import lpindex
from lpindex import (
    Mat2,
    cli,
    compute_mp,
    critical,
    estimate_index,
    make_exponent,
    numerical_radius,
    op_norm,
    remark_counterexample,
    verify_claim_region,
)
from lpindex.cli import SWEEP_COLUMNS, _fmt17, _sweep_row, _verify_row, main
from lpindex.core import _GRID
from lpindex.index import SURROGATE_N


@pytest.fixture(autouse=True)
def single_worker(monkeypatch):
    monkeypatch.setenv("LPINDEX_WORKERS", "1")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


class TestMp:
    def test_reference_values(self, capsys):
        doc = run_json(capsys, "mp", "1.16")
        assert doc["command"] == "mp"
        assert doc["settings"]["tol"] == 1e-10
        res = doc["result"]
        assert res["t0"] == pytest.approx(0.073924, abs=1e-5)
        assert res["mp"] == pytest.approx(0.558064, abs=1e-5)
        assert not res["degenerate"]

    def test_degenerate_p2(self, capsys):
        res = run_json(capsys, "mp", "2")["result"]
        assert res["mp"] == 0.0
        assert res["degenerate"]

    def test_conjugate_pair(self, capsys):
        m3 = run_json(capsys, "mp", "3")["result"]["mp"]
        m15 = run_json(capsys, "mp", "1.5")["result"]["mp"]
        assert abs(m3 - m15) <= 1e-12

    def test_invalid_p_exits_2(self, capsys):
        assert main(["mp", "0.8"]) == 2
        capsys.readouterr()

    def test_settings_header(self, capsys):
        # no search: no starts, no seed
        assert run_json(capsys, "mp", "1.3", "--tol", "1e-9")["settings"] == {"tol": 1e-9, "grid_n": 4096}


class TestRadius:
    def test_rotation_reference(self, capsys):
        res = run_json(capsys, "radius", "1.16", "0", "1", "-1", "0")["result"]
        assert res["value"] == pytest.approx(0.558064, abs=1e-5)

    def test_identity(self, capsys):
        res = run_json(capsys, "radius", "2", "1", "0", "0", "1")["result"]
        assert res["value"] == pytest.approx(1.0, abs=1e-12)

    def test_cross_command_consistency(self, capsys):
        r = run_json(capsys, "radius", "3", "0", "1", "-1", "0")["result"]["value"]
        m = run_json(capsys, "mp", "3")["result"]["mp"]
        assert abs(r - m) <= 1e-12

    def test_bad_p_exits_2(self, capsys):
        assert main(["radius", "1", "0", "1", "-1", "0"]) == 2
        capsys.readouterr()

    def test_settings_header(self, capsys):
        doc = run_json(capsys, "radius", "1.3", "0", "1", "-1", "0")
        assert doc["settings"] == {"tol": 1e-10, "grid_n": 4096}


class TestOpnorm:
    def test_diagonal(self, capsys):
        res = run_json(capsys, "opnorm", "2", "3", "0", "0", "-4")["result"]
        assert res["norm"] == pytest.approx(4.0, abs=1e-12)
        assert res["witness"]["x1"] == pytest.approx(0.0, abs=1e-9)

    def test_settings_header(self, capsys):
        doc = run_json(capsys, "opnorm", "1.3", "1", "2", "3", "4", "--tol", "1e-8")
        assert doc["settings"] == {"tol": 1e-8, "grid_n": 4096}


class TestIndex:
    def test_hilbert_case(self, capsys):
        res = run_json(capsys, "index", "2", "--starts", "6")["result"]
        assert res["value"] <= 1e-6

    def test_gap_at_p3(self, capsys):
        res = run_json(capsys, "index", "3", "--starts", "8")["result"]
        assert abs(res["gap"]) <= 1e-3

    def test_reports_agreement_of_starts(self, capsys):
        # the 8-start agreement fields are held by test_result_is_the_library_dataclass
        res = run_json(capsys, "index", "3", "--starts", "2")["result"]
        assert res["top3_spread"] is None and not res["converged"]
        assert res["near_best"] in (1, 2)

    def test_bad_starts_exit_2(self, capsys):
        assert main(["index", "3", "--starts", "0"]) == 2
        capsys.readouterr()

    def test_settings_header(self, capsys):
        doc = run_json(capsys, "index", "2", "--starts", "2", "--seed", "3")
        settings = {"tol": 1e-10, "grid_n": 4096, "starts": 2, "seed": 3, "surrogate_n": SURROGATE_N}
        assert doc["settings"] == settings


class TestCounterexample:
    def test_default_is_below(self, capsys):
        res = run_json(capsys, "counterexample")["result"]
        assert res["is_below"] is True
        assert res["ratio"] == pytest.approx(0.557895, abs=1e-5)

    def test_p13_not_below(self, capsys):
        res = run_json(capsys, "counterexample", "--p", "1.3")["result"]
        assert res["is_below"] is False

    def test_bit_identical_output(self, capsys):
        _, out1 = run(capsys, "counterexample", "--p", "1.16")
        _, out2 = run(capsys, "counterexample", "--p", "1.16")
        assert out1 == out2

    def test_out_of_window_exits_2(self, capsys):
        assert main(["counterexample", "--p", "2.5"]) == 2
        capsys.readouterr()

    def test_settings_header(self, capsys):
        # the remark is a fixed matrix: no starts, no seed
        assert run_json(capsys, "counterexample")["settings"] == {"tol": 1e-10, "grid_n": 4096}


def _expected_mp():
    e = make_exponent(1.16)
    return {"p": e.p, "q": e.q, **asdict(compute_mp(e, tol=1e-10))}


def _expected_operator(compute):
    T = Mat2(1.0, 2.0, 3.0, 4.0)
    r = compute(T, make_exponent(1.3), tol=1e-8)
    return {"p": 1.3, "matrix": asdict(T), **asdict(r)}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["mp", "1.16"], _expected_mp),
        (["radius", "1.3", "1", "2", "3", "4", "--tol", "1e-8"], lambda: _expected_operator(numerical_radius)),
        (["opnorm", "1.3", "1", "2", "3", "4", "--tol", "1e-8"], lambda: _expected_operator(op_norm)),
        (["index", "3", "--starts", "8"], lambda: asdict(estimate_index(make_exponent(3.0), starts=8, seed=0))),
        (["counterexample"], lambda: asdict(remark_counterexample(1.16))),
    ],
    ids=["mp", "radius", "opnorm", "index", "counterexample"],
)
def test_result_is_the_library_dataclass(capsys, argv, expected):
    res = run_json(capsys, *argv)["result"]
    want = expected()
    assert res == want
    # json.dumps writes keys in order and floats by repr, which round-trips
    # doubles, so equal text means the same key order and the same bits
    assert json.dumps(res) == json.dumps(want)


@pytest.mark.parametrize(
    "argv",
    [
        ["mp", "1.5", "--tol", "0"],
        ["mp", "1.5", "--tol", "nan"],
        ["radius", "1.5", "0", "1", "-1", "0", "--tol", "0"],
        ["opnorm", "1.5", "1", "0", "0", "1", "--tol", "nan"],
        ["index", "3", "--starts", "2", "--tol", "nan"],
        ["radius", "1.5", "inf", "1", "-1", "0"],
        ["opnorm", "1.5", "1", "nan", "0", "1"],
        ["sweep", "--pmax", "inf"],
        ["radius", "1.3", "1e308", "1e308", "1e308", "1e308"],
        ["opnorm", "1.3", "1e308", "1e308", "1e308", "1e308"],
        ["mp", "1.5", "--tol", "inf"],
        ["radius", "1.5", "0", "1", "-1", "0", "--tol", "inf"],
        ["index", "3", "--starts", "2", "--tol", "inf"],
    ],
)
def test_invalid_input_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "np.float64(" not in captured.err
    if "1e308" in argv:
        assert captured.err.startswith("error: the entries overflow float64: ")


@pytest.mark.parametrize("value", ["abc", "0"])
@pytest.mark.parametrize("argv", [["verify", "--n", "4"], ["sweep", "--n", "4", "--starts", "2"]])
def test_malformed_workers_exits_2(capsys, monkeypatch, tmp_path, argv, value):
    monkeypatch.setenv("LPINDEX_WORKERS", value)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: LPINDEX_WORKERS must be a positive integer, got {value!r}\n"
    assert not any(tmp_path.iterdir())


class TestVerify:
    def test_row_scans_the_grid_once(self, monkeypatch):
        # lemma21_bounds and the three claims share one compute_mp for the row's
        # exponent, which evaluates the grid once and refines nothing (its other
        # calls are the bisection's scalar points)
        sizes = []
        objective = critical.objective

        def counting(t, e):
            sizes.append(np.size(t))
            return objective(t, e)

        monkeypatch.setattr(critical, "objective", counting)
        critical.compute_mp.cache_clear()
        assert _verify_row(1.3)["ok"]
        assert [n for n in sizes if n > 1] == [_GRID.size]

    def test_small_grid_passes(self, capsys):
        code, out = run(capsys, "verify", "--pmin", "1.25", "--pmax", "1.45", "--n", "4")
        assert code == 0
        assert "4/4" in out

    def test_bad_range_exits_2(self, capsys):
        assert main(["verify", "--pmin", "1.05", "--pmax", "1.4"]) == 2
        capsys.readouterr()
        assert main(["verify", "--pmin", "1.3", "--pmax", "1.6"]) == 2
        capsys.readouterr()

    def test_range_is_the_hypothesis_interval(self, capsys, monkeypatch):
        # the command checks the same interval and band as the claim it runs,
        # so a range just outside 6/5 fails before any row is run
        rows = []
        monkeypatch.setattr(cli, "_verify_row", rows.append)
        assert main(["verify", "--pmin", "1.1999999995", "--pmax", "1.3"]) == 2
        assert rows == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: verify needs 1.2 <= pmin <= pmax <= 1.5, got ")

    @pytest.mark.parametrize(
        "p, inside", [(1.2 - 5e-13, True), (1.5 + 5e-13, True), (1.2 - 2e-12, False), (1.5 + 2e-12, False)]
    )
    def test_one_band_in_every_layer(self, capsys, p, inside):
        # the lemma, claim 3 and the command widen the hypothesis interval by the same band
        e = make_exponent(p)
        assert critical.lemma21_bounds(e).in_hypothesis is inside
        if inside:
            verify_claim_region(3, e)
        else:
            with pytest.raises(ValueError, match="claim 3 requires p in"):
                verify_claim_region(3, e)
        assert main(["verify", "--pmin", repr(p), "--pmax", repr(p), "--n", "1"]) == (0 if inside else 2)
        capsys.readouterr()


class TestSweep:
    def test_two_rows_csv_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        doc = run_json(
            capsys,
            "sweep",
            "--pmin", "1.3", "--pmax", "3", "--n", "2",
            "--starts", "4",
            "--out", str(out_path),
        )
        assert doc["rows"] == 2
        lines = out_path.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        # recomputing a parsed row reproduces every deterministic column bit-for-bit
        fields = lines[1].split(",")
        p = float(fields[0])
        row = _sweep_row((p, 4, 0, 1e-10))
        for col, field in zip(SWEEP_COLUMNS, fields):
            assert _fmt17(row[col]) == field

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_identical_runs_write_identical_files(self, capsys, tmp_path, fmt):
        outs = [tmp_path / f"run{i}.{fmt}" for i in (1, 2)]
        for out_path in outs:
            run_json(
                capsys,
                "sweep",
                "--pmin", "1.3", "--pmax", "3", "--n", "2",
                "--starts", "2",
                "--format", fmt,
                "--out", str(out_path),
            )
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        run_json(
            capsys,
            "sweep",
            "--pmin", "1.4", "--pmax", "1.6", "--n", "2",
            "--starts", "2",
            "--format", "json",
            "--out", str(out_path),
        )
        rows = json.loads(out_path.read_text())
        assert len(rows) == 2
        assert set(rows[0]) == set(SWEEP_COLUMNS)

    def test_unwritable_path_exits_2(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(
            ["sweep", "--pmin", "1.3", "--pmax", "1.4", "--n", "2", "--starts", "2",
             "--out", str(target)]
        )
        assert code == 2
        capsys.readouterr()

    def test_settings_header(self, capsys, tmp_path):
        # every row runs estimate_index, so sweep reports the surrogate grid too
        doc = run_json(
            capsys,
            "sweep",
            "--pmin", "1.3", "--pmax", "1.4", "--n", "2",
            "--starts", "2", "--seed", "5",
            "--out", str(tmp_path / "sweep.csv"),
        )
        settings = {"tol": 1e-10, "grid_n": 4096, "starts": 2, "seed": 5, "surrogate_n": SURROGATE_N}
        assert doc["settings"] == settings

    def test_n_below_two_exits_2(self, capsys):
        assert main(["sweep", "--pmin", "1.3", "--pmax", "1.4", "--n", "1"]) == 2
        capsys.readouterr()


# The function each grid command runs once per p, replaced in cli to count the rows.
GRID_ROWS = {"verify": "_verify_row", "sweep": "_sweep_row", "breakdown": "verify_claim_region"}


class TestGridRule:
    """verify, sweep and breakdown take their p-grid from one rule, checked before any row runs."""

    @pytest.fixture
    def rows(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        calls = []

        def install(command):
            row = getattr(cli, GRID_ROWS[command])

            def recording(*args, **kwargs):
                calls.append(args)
                return row(*args, **kwargs)

            monkeypatch.setattr(cli, GRID_ROWS[command], recording)
            return calls

        return install

    @staticmethod
    def _main(command, *argv):
        extra = ["--starts", "2"] if command == "sweep" else []
        return main([command, *argv, *extra])

    @pytest.mark.parametrize("command", sorted(GRID_ROWS))
    def test_one_point_needs_equal_ends(self, capsys, rows, command):
        calls = rows(command)
        assert self._main(command, "--pmin", "1.2", "--pmax", "1.5", "--n", "1") == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 2, or 1 when pmin == pmax, got 1\n"

    @pytest.mark.parametrize("command", sorted(GRID_ROWS))
    def test_one_point_grid_runs_one_row(self, capsys, rows, command):
        calls = rows(command)
        assert self._main(command, "--pmin", "1.3", "--pmax", "1.3", "--n", "1") == 0
        assert len(calls) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", sorted(GRID_ROWS))
    def test_empty_grid_exits_2(self, capsys, rows, command):
        calls = rows(command)
        assert self._main(command, "--n", "0") == 2
        assert calls == []
        assert capsys.readouterr().err == "error: n must be >= 2, or 1 when pmin == pmax, got 0\n"

    @pytest.mark.parametrize(
        "bound", [["--pmin", "1"], ["--pmin", "nan"], ["--pmax", "inf"]], ids=["pmin=1", "pmin=nan", "pmax=inf"]
    )
    @pytest.mark.parametrize("command", ["sweep", "breakdown"])
    def test_bad_range_exits_2(self, capsys, rows, command, bound):
        calls = rows(command)
        assert self._main(command, *bound) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: need 1 < pmin <= pmax < inf, got [")


class TestProcessPool:
    """Grid commands print and write the same bytes through cli's process pool as serially."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []

        class Recording(cli.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                made.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Recording)
        return made

    def _by_workers(self, monkeypatch, command):
        outs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("LPINDEX_WORKERS", workers)
            outs.append(command())
        return outs

    def test_verify_stdout(self, capsys, monkeypatch, pools):
        serial, pooled = self._by_workers(monkeypatch, lambda: run(capsys, "verify", "--n", "8"))
        assert pools == [2]
        assert serial[0] == 0 and serial[1].count("  ok") == 8
        assert pooled == serial

    def test_sweep_file(self, capsys, monkeypatch, pools, tmp_path):
        # both runs write to one path, so stdout names the same file
        out_path = tmp_path / "sweep.csv"

        def sweep():
            code, out = run(capsys, "sweep", "--n", "4", "--starts", "2", "--out", str(out_path))
            return code, out, out_path.read_bytes()

        serial, pooled = self._by_workers(monkeypatch, sweep)
        assert pools == [2]
        assert serial[0] == 0 and json.loads(serial[1])["rows"] == 4
        assert pooled == serial


def _python_m_lpindex(*argv):
    src = str(Path(lpindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.Popen(
        [sys.executable, "-m", "lpindex", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )


class TestBreakdown:
    """The scan of claim 3's region below 6/5, serial, one row per p as it is computed."""

    def test_defaults(self, capsys):
        code, out = run(capsys, "breakdown")
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("violations found for 15 scanned p, largest violating p = 1.170000 ")

    def test_rejects_infinite_pmax(self):
        proc = _python_m_lpindex("breakdown", "--pmax", "inf")
        out, err = proc.communicate()
        assert proc.returncode == 2
        assert out == b""
        assert b"error: need 1 < pmin <= pmax < inf" in err
        assert b"Traceback" not in err

    def test_rejects_small_grid(self):
        # each row is the region's infimum, not a grid search: there is no grid to
        # size, so --grid-n of any size is rejected
        proc = _python_m_lpindex("breakdown", "--grid-n", "3")
        out, err = proc.communicate()
        assert proc.returncode == 2
        assert out == b""
        assert b"error: unrecognized arguments: --grid-n 3" in err
        assert b"Traceback" not in err

    def test_closed_stdout_exits_141_without_traceback(self):
        with _python_m_lpindex("breakdown") as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == cli.EXIT_BROKEN_PIPE
        assert err == b""

    def test_scan_across_p2_exits_2(self):
        # claim 3 has no t0 at p = 2, where the grid's middle point lands
        proc = _python_m_lpindex("breakdown", "--pmin", "1.9", "--pmax", "2.1", "--n", "3")
        _, err = proc.communicate()
        assert proc.returncode == 2
        assert err.startswith(b"error: claim 3 is undefined at p = 2")
        assert b"Traceback" not in err


class TestEntrypoint:
    def test_exit_code_and_output(self):
        proc = _python_m_lpindex("mp", "1.3")
        out, err = proc.communicate()
        assert proc.returncode == 0, err
        assert json.loads(out)["result"]["p"] == 1.3

    def test_closed_stdout_exits_141_without_traceback(self):
        # the reader is gone before anything is written, as in `lpindex verify | head -1`
        with _python_m_lpindex("mp", "1.3") as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert err == b""


def test_readme_cli_examples_parse():
    # the sh block under README's `## CLI` shows every command, with flags the parser still has
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    parser = cli.build_parser()
    shown = set()
    for line in (line for line in block.splitlines() if line.startswith("lpindex ")):
        argv = shlex.split(line, comments=True)[1:]
        parser.parse_args(argv)
        shown.add(argv[0])
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert shown == set(commands)
