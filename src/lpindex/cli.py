"""Command-line front end: single-point computations, sweeps, the verify battery and the breakdown scan.

Single-point commands and sweep print one JSON object to stdout with a
settings header of what they used: tol and grid_n (the maximizer's grid
cells), and for index and sweep also starts, seed and surrogate_n, so every
output is self-describing; verify and breakdown print their tables only.  A
single-point result is the library's result dataclass, field for field, after
the exponent and matrix the command was given.  Sweeps write CSV or JSON files
with all numeric fields at 17 significant digits, which round-trips doubles
exactly, so identical runs write identical files.  verify, sweep and breakdown
take their p-grid from one rule, _grid.  The verify battery exits 0 only if
every check passes; breakdown is a scan and exits 0 whatever it finds; invalid
arguments exit 2, and a stdout closed before the output is written (a reader
such as `head` that stops early) exits 141, 128 + SIGPIPE as a shell reports
it.  verify and sweep parallelize over p; set LPINDEX_WORKERS to a positive
integer to pin the process count (default: available parallelism; any other
value is an error).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np

from .core import DEFAULT_GRID_N, DEFAULT_TOL, Mat2, make_exponent
from .critical import HYPOTHESIS_RANGE, compute_mp, in_range, lemma21_bounds
from .index import SURROGATE_N, estimate_index, remark_counterexample, verify_claim_region
from .norms import op_norm
from .radius import numerical_radius

SWEEP_COLUMNS = ("p", "q", "t0", "mp", "lower_bound", "index_estimate", "gap")

# The per-axis grid of the sampled claim search that the vertex enumeration
# replaced; read only as a provenance field by perfbench's VerifyBattery.sizes()
VERIFY_CLAIM_GRID = 12

EXIT_BROKEN_PIPE = 141


def _fmt17(x) -> str:
    return format(float(x), ".17g")


def _settings(tol: float, **used) -> dict:
    """The settings header: tol, the maximizer's grid cells, then the other settings used."""
    return {"tol": tol, "grid_n": DEFAULT_GRID_N, **used}


def _print_json(command: str, settings: dict, **fields) -> None:
    print(json.dumps({"command": command, "settings": settings, **fields}))


def _workers() -> int:
    raw = os.environ.get("LPINDEX_WORKERS")
    if raw is not None:
        try:
            n = int(raw)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"LPINDEX_WORKERS must be a positive integer, got {raw!r}")
        return n
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _pmap(fn, items):
    """Order-preserving map, parallel over processes when it pays off."""
    workers = min(_workers(), len(items))
    if workers <= 1 or len(items) < 4:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


def _step(pmin: float, pmax: float, n: int) -> float:
    return (pmax - pmin) / max(n - 1, 1)


def _grid(pmin: float, pmax: float, n: int) -> list[float]:
    """The n equispaced exponents from pmin to pmax; one point only when pmin == pmax."""
    if not (1.0 < pmin <= pmax < math.inf):
        raise ValueError(f"need 1 < pmin <= pmax < inf, got [{pmin}, {pmax}]")
    if not (n >= 2 or (n == 1 and pmin == pmax)):
        raise ValueError(f"n must be >= 2, or 1 when pmin == pmax, got {n}")
    step = _step(pmin, pmax, n)
    return [pmin + i * step for i in range(n)]


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# ----------------------------------------------------------------- commands


def cmd_mp(args) -> int:
    e = make_exponent(args.p)
    cp = compute_mp(e, tol=args.tol)
    _print_json("mp", _settings(args.tol), result={"p": e.p, "q": e.q, **asdict(cp)})
    return 0


def cmd_operator(args) -> int:
    e = make_exponent(args.p)
    T = Mat2(args.a, args.b, args.c, args.d)
    # entries near the largest double overflow in the objective: FloatingPointError, no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            r = args.compute(T, e, tol=args.tol)
        except FloatingPointError as exc:
            return _fail(f"the entries overflow float64: {exc}")
    _print_json(args.command, _settings(args.tol), result={"p": e.p, "matrix": asdict(T), **asdict(r)})
    return 0


def cmd_index(args) -> int:
    e = make_exponent(args.p)
    est = estimate_index(e, starts=args.starts, seed=args.seed, tol=args.tol)
    settings = _settings(args.tol, starts=args.starts, seed=args.seed, surrogate_n=SURROGATE_N)
    _print_json("index", settings, result=asdict(est))
    return 0


def cmd_counterexample(args) -> int:
    rec = remark_counterexample(args.p)
    _print_json("counterexample", _settings(DEFAULT_TOL), result=asdict(rec))
    return 0


def _verify_row(p: float) -> dict:
    e = make_exponent(p)
    rep = lemma21_bounds(e)
    row = {
        "p": p,
        "lemma_margin": rep.margin,
        "lemma_ok": rep.all_hold,
    }
    for cid in (1, 2, 3):
        cr = verify_claim_region(cid, e)
        row[f"claim{cid}_gap"] = cr.infimum_found - cr.target
        row[f"claim{cid}_ok"] = cr.holds
    row["ok"] = row["lemma_ok"] and all(row[f"claim{cid}_ok"] for cid in (1, 2, 3))
    return row


def cmd_verify(args) -> int:
    if not (in_range(args.pmin) and in_range(args.pmax) and args.pmin <= args.pmax):
        lo, hi = HYPOTHESIS_RANGE
        return _fail(f"verify needs {lo} <= pmin <= pmax <= {hi}, got [{args.pmin}, {args.pmax}]")
    ps = _grid(args.pmin, args.pmax, args.n)
    rows = _pmap(_verify_row, ps)
    n_pass = 0
    for row in rows:
        status = "ok" if row["ok"] else "FAIL"
        n_pass += row["ok"]
        print(
            f"p={row['p']:.12g}  lemma_margin={row['lemma_margin']:.6e}  "
            f"claim_gaps=({row['claim1_gap']:.6e}, {row['claim2_gap']:.6e}, "
            f"{row['claim3_gap']:.6e})  {status}"
        )
    print(f"verify: {n_pass}/{len(rows)} p-values passed on [{args.pmin:.12g}, {args.pmax:.12g}]")
    return 0 if n_pass == len(rows) else 1


def _sweep_row(item) -> dict:
    p, starts, seed, tol = item
    e = make_exponent(p)
    cp = compute_mp(e, tol=tol)
    est = estimate_index(e, starts=starts, seed=seed, tol=tol)
    lower = max(2.0 ** (-1.0 / e.p), 2.0 ** (-1.0 / e.q)) * cp.mp
    return dict(zip(SWEEP_COLUMNS, (p, e.q, cp.t0, cp.mp, lower, est.value, est.gap)))


def _write_sweep(path: str, rows: list[dict], fmt: str) -> None:
    """Write the rows as CSV lines or a JSON array, every cell a _fmt17 number."""
    cells = [[_fmt17(row[col]) for col in SWEEP_COLUMNS] for row in rows]
    if fmt == "json":
        objs = ("  {" + ", ".join(f'"{col}": {x}' for col, x in zip(SWEEP_COLUMNS, r)) + "}" for r in cells)
        text = "[\n" + ",\n".join(objs) + "\n]\n"
    else:
        text = "".join(",".join(r) + "\n" for r in [SWEEP_COLUMNS, *cells])
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def cmd_sweep(args) -> int:
    ps = _grid(args.pmin, args.pmax, args.n)
    out = f"sweep.{args.format}" if args.out is None else args.out
    rows = _pmap(_sweep_row, [(p, args.starts, args.seed, args.tol) for p in ps])
    try:
        _write_sweep(out, rows, args.format)
    except OSError as exc:
        return _fail(f"cannot write {out}: {exc}")
    max_gap = max(abs(row["gap"]) for row in rows)
    settings = _settings(args.tol, starts=args.starts, seed=args.seed, surrogate_n=SURROGATE_N)
    _print_json("sweep", settings, rows=len(rows), out=out, format=args.format, max_abs_gap=max_gap)
    return 0


def cmd_breakdown(args) -> int:
    """Scan claim 3's region for where the lower-bound route fails, one float64 infimum per p.

    Not a proof: only the p-step is a resolution, so the largest violating p is known to within one step.
    """
    ps = _grid(args.pmin, args.pmax, args.n)
    violating = []
    print(f"{'p':>10}  {'inf_found':>12}  {'target':>12}  {'gap':>12}  status")
    for p in ps:
        rep = verify_claim_region(3, make_exponent(p), force=True)
        gap = rep.infimum_found - rep.target
        status = "holds" if rep.holds else "VIOLATED"
        print(f"{p:>10.6f}  {rep.infimum_found:>12.9f}  {rep.target:>12.9f}  {gap:>+12.3e}  {status}")
        if not rep.holds:
            violating.append(p)
            w = rep.worst_point
            print(f"{'':>10}  witness (a,b,c,d) = ({w.a:.6f}, {w.b:.6f}, {w.c:.6f}, {w.d:.6f})")
    if not violating:
        print("no violation found at the scanned p")
    else:
        step = _step(args.pmin, args.pmax, args.n)
        print(
            f"violations found for {len(violating)} scanned p, "
            f"largest violating p = {max(violating):.6f} (resolution {step:.4f}, not certified)"
        )
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpindex",
        description="Numerical radius, operator norms, and the numerical index of the real l_p plane.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # the options that several commands share, each declared once
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=DEFAULT_TOL)
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--starts", type=int, default=64)
    search.add_argument("--seed", type=int, default=0)

    p_mp = sub.add_parser("mp", parents=[tol], help="critical point t0 and value mp for one exponent")
    p_mp.add_argument("p", type=float)
    p_mp.set_defaults(fn=cmd_mp)

    for name, compute, hlp in (
        ("radius", numerical_radius, "numerical radius of (a b; c d)"),
        ("opnorm", op_norm, "operator norm of (a b; c d)"),
    ):
        sp = sub.add_parser(name, parents=[tol], help=hlp)
        for arg in ("p", "a", "b", "c", "d"):
            sp.add_argument(arg, type=float)
        sp.set_defaults(fn=cmd_operator, compute=compute)

    p_idx = sub.add_parser("index", parents=[search, tol], help="estimate the numerical index at one exponent")
    p_idx.add_argument("p", type=float)
    p_idx.set_defaults(fn=cmd_index)

    p_ver = sub.add_parser("verify", help="run the bracket and claim-region battery on a p-grid")
    p_ver.add_argument("--pmin", type=float, default=HYPOTHESIS_RANGE[0])
    p_ver.add_argument("--pmax", type=float, default=HYPOTHESIS_RANGE[1])
    p_ver.add_argument("--n", type=int, default=100)
    p_ver.set_defaults(fn=cmd_verify)

    p_sw = sub.add_parser("sweep", parents=[search, tol], help="tabulate t0, mp, and index estimates over a p-grid")
    p_sw.add_argument("--pmin", type=float, default=1.2)
    p_sw.add_argument("--pmax", type=float, default=6.0)
    p_sw.add_argument("--n", type=int, default=25)
    p_sw.add_argument("--out", type=str, default=None)
    p_sw.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sw.set_defaults(fn=cmd_sweep)

    p_ce = sub.add_parser("counterexample", help="evaluate the fixed breakdown matrix")
    p_ce.add_argument("--p", type=float, default=1.16)
    p_ce.set_defaults(fn=cmd_counterexample)

    p_bd = sub.add_parser("breakdown", help="scan claim 3's region below 6/5 for where the lower-bound route fails")
    p_bd.add_argument("--pmin", type=float, default=1.10)
    p_bd.add_argument("--pmax", type=float, default=1.21)
    p_bd.add_argument("--n", type=int, default=23)
    p_bd.set_defaults(fn=cmd_breakdown)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FloatingPointError) as exc:
        return _fail(str(exc))


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull so that the flush at
        # exit cannot fail again (Python's docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
