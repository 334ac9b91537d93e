import argparse
import concurrent.futures
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
        # no search: no starts, no seed; tol is the fallback's fixed DEFAULT_TOL
        assert run_json(capsys, "mp", "1.3")["settings"] == {"tol": 1e-10, "grid_n": 4096}

    def test_takes_no_tol(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mp", "1.5", "--tol", "1e-9"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: unrecognized arguments: --tol 1e-9" in captured.err


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

    def test_branch_at_tiny_scale(self, capsys):
        # the second branch is the larger here at every scale, 1e-12 included,
        # and its maximizer 0.916368 is the one found at scale 1
        res = run_json(capsys, "radius", "50", "--", "1e-12", "2e-12", "-3e-12", "5e-13")["result"]
        unit = run_json(capsys, "radius", "50", "--", "1", "2", "-3", "0.5")["result"]
        assert res["branch"] == unit["branch"] == "second"
        assert res["t_star"] == pytest.approx(unit["t_star"], abs=1e-6)
        assert res["t_star"] == pytest.approx(0.916368, abs=1e-6)

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
        code, out = run(capsys, "index", "3", "--starts", "8")
        assert code == 0
        assert abs(json.loads(out)["result"]["gap"]) <= 1e-3
        # the rotation minimizer's zero d prints as 0.0, not -0.0
        assert '"minimizer": {"a": 0.0, "b": 1.0, "c": -1.0, "d": 0.0}' in out

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
    return {"p": e.p, "q": e.q, **asdict(compute_mp(e))}


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
        ["opnorm", "1.5", "1", "0", "0", "1", "--tol", "0"],
        ["index", "3", "--starts", "2", "--tol", "0"],
        ["radius", "1.5", "0", "1", "-1", "0", "--tol", "0"],
        ["opnorm", "1.5", "1", "0", "0", "1", "--tol", "nan"],
        ["index", "3", "--starts", "2", "--tol", "nan"],
        ["radius", "1.5", "inf", "1", "-1", "0"],
        ["opnorm", "1.5", "1", "nan", "0", "1"],
        ["sweep", "--pmax", "inf"],
        ["radius", "1.3", "1e308", "1e308", "1e308", "1e308"],
        ["opnorm", "1.3", "1e308", "1e308", "1e308", "1e308"],
        ["sweep", "--n", "2", "--starts", "2", "--tol", "nan"],
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

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_out_fails_before_any_row(self, capsys, monkeypatch, tmp_path, where):
        def no_rows(item):
            raise AssertionError("a row ran before --out was checked")

        monkeypatch.setattr(cli, "_sweep_row", no_rows)
        target = tmp_path / "missing" / "x.csv" if where == "missing-dir" else tmp_path
        code = main(["sweep", "--n", "3", "--starts", "8", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}")
        assert not (tmp_path / "missing").exists()

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
    def test_one_point_runs_once(self, capsys, rows, command):
        # equal ends with n > 1 would run one exponent n times
        calls = rows(command)
        assert self._main(command, "--pmin", "1.3", "--pmax", "1.3", "--n", "5") == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be 1 when pmin == pmax, got 5\n"

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

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                made.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        # cli imports the pool on its first pooled map, from the package
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
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
    """The scan of claim 3's F = G manifold below 6/5, serial; every row is computed before the first is printed."""

    def test_defaults(self, capsys):
        code, out = run(capsys, "breakdown")
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("violations found for 15 scanned p, largest violating p = 1.170000 ")

    def test_fine_step_labels_every_row(self, capsys):
        # a step of 5e-8 prints p with 8 decimals, so the three rows keep three labels
        code, out = run(capsys, "breakdown", "--pmin", "1.1706333", "--pmax", "1.1706334", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        assert [line.split()[0] for line in lines[1:4]] == ["1.17063330", "1.17063335", "1.17063340"]
        # the header's p stays right-aligned over the wider labels
        assert lines[0].index("p  ") + 1 == len("  1.17063330")

    def test_fine_step_states_its_resolution(self, capsys):
        # a step of 5e-5 is printed with the 5 decimals it needs, not as 0.0000; 1.17065 holds, so it
        # brackets the break above 1.1706
        code, out = run(capsys, "breakdown", "--pmin", "1.1706", "--pmax", "1.1707", "--n", "3")
        assert code == 0
        assert out.splitlines()[-1] == (
            "violations found for 1 scanned p, largest violating p = 1.170600 (resolution 0.00005, not certified)"
        )

    def test_violating_top_row_states_no_resolution(self, capsys):
        # p* = 1.17063... lies above the grid, so no scanned p brackets the break and the step is no resolution
        code, out = run(capsys, "breakdown", "--pmin", "1.16", "--pmax", "1.17", "--n", "2")
        assert code == 0
        assert out.splitlines()[-1] == (
            "violations found for 2 scanned p, largest violating p = 1.170000 (break not bracketed, not certified)"
        )

    def test_no_checked_p_above_states_no_resolution(self, capsys):
        # a one-point scan has no step to bracket with, and p = 2 above the violating p is not checked
        code, out = run(capsys, "breakdown", "--pmin", "1.16", "--pmax", "1.16", "--n", "1")
        assert code == 0
        assert out.splitlines()[-1] == (
            "violations found for 1 scanned p, largest violating p = 1.160000 (break not bracketed, not certified)"
        )
        code, out = run(capsys, "breakdown", "--pmin", "1.16", "--pmax", "2", "--n", "2")
        assert code == 0
        assert out.splitlines()[-1] == (
            "violations found for 1 scanned p, largest violating p = 1.160000 "
            "(break not bracketed, not certified); p = 2 undefined, not checked"
        )

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

    def test_scan_across_p2_prints_an_undefined_row(self, capsys):
        # claim 3 has no t0 at p = 2, where the grid's middle point lands: that row
        # is undefined, neither holding nor violated, and the rows beside it are
        # those of one-point scans
        code, out = run(capsys, "breakdown", "--pmin", "1.9", "--pmax", "2.1", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[2] == "  2.000000             -   0.000000000             -  undefined"
        for row, p in ((1, "1.9"), (3, "2.1")):
            code, single = run(capsys, "breakdown", "--pmin", p, "--pmax", p, "--n", "1")
            assert code == 0
            assert single.splitlines()[1] == lines[row]
            assert lines[row].endswith("  holds")
        assert lines[-1] == "no violation found at the scanned p; p = 2 undefined, not checked"

    @pytest.mark.parametrize("p", ["1.1706333", "1.9999999999"])
    def test_one_point_scan_labels_its_exponent_in_full(self, capsys, p):
        # no step to size the decimals by: p gets as many as read back as p, so
        # 1.9999999999 is not labelled as the p = 2 row, 2.000000
        code, out = run(capsys, "breakdown", "--pmin", p, "--pmax", p, "--n", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split()[0] == p
        assert lines[0].index("p  ") + 1 == len(f"  {p}")
        assert lines[-1] == "no violation found at the scanned p"

    def test_one_point_scan_at_p2_checks_nothing(self, capsys):
        # the one row is undefined, so the summary says that no p was checked
        code, out = run(capsys, "breakdown", "--pmin", "2", "--pmax", "2", "--n", "1")
        assert code == 0
        assert out.splitlines()[1:] == [
            "  2.000000             -   0.000000000             -  undefined",
            "no p checked: claim 3 is undefined at p = 2",
        ]

    def test_rows_within_the_holds_band_of_p2_are_undefined(self, capsys):
        # M_p <= HOLDS_BAND within about 3e-12 of p = 2, where holds would pass any
        # infimum >= 0: those rows are undefined like p = 2's, and none is checked
        code, out = run(capsys, "breakdown", "--pmin", "1.999999999999", "--pmax", "2.000000000001", "--n", "3")
        assert code == 0
        assert out.splitlines()[1:] == [
            f"  {p}             -   0.000000000             -  undefined"
            for p in ("1.999999999999", "2.000000000000", "2.000000000001")
        ] + ["no p checked: claim 3 is undefined at p = 2"]
        code, out = run(capsys, "breakdown", "--pmin", "1.999999999999", "--pmax", "1.999999999999", "--n", "1")
        assert code == 0
        assert out.splitlines()[1:] == [
            "  1.999999999999             -   0.000000000             -  undefined",
            "no p checked: claim 3 is undefined at p = 2",
        ]


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


def test_readme_library_example_runs():
    # the python block under README's `## Library` runs, and its comments hold
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert abs(scope["v"] - scope["cp"].mp) <= 1e-12
    assert scope["rep"].holds is False


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
