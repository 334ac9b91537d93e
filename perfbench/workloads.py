"""The benchmark's three workloads: seeded inputs, the calls into lpindex, and their checks.

Each workload is a sequence of rounds. A round is the unit a run repeats until
its time is up, so every run weighs the inputs of a round equally:

* radius_corpus  - one 2x2 operator at each of the eight corpus exponents.
* index_search   - one 64-start index estimate at each of the seven theorem exponents.
* verify_battery - one in-process ``lpindex verify`` call on a 100-row p-grid,
                   plus the p = 1.16 breakdown checks.

All calls go through module attributes (``norms.op_norm``, ``cli.main``, ...)
so that the traced run sees them when it wraps those attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import resource
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from lpindex import cli, core, index, norms, radius

RADIUS_PS = (1.1, 1.2, 4.0 / 3.0, 1.5, 2.0, 3.0, 6.0, 10.0)
THEOREM_PS = (1.2, 1.3, 1.5, 2.0, 3.0, 4.0, 6.0)
RADIUS_ROUNDS = 1024
INDEX_ROUNDS = 64
INDEX_STARTS = 64
VERIFY_ROUNDS = 64
VERIFY_ROWS = 100
BREAKDOWN_P = 1.16
# Reference values of the p = 1.16 breakdown (paper's remark, acceptance criterion 1).
REMARK_T0, REMARK_MP, REMARK_RATIO = 0.073924, 0.558064, 0.557895


@dataclass
class Item:
    """One checked unit of work.

    ``seconds`` is None for a check that is not an item (the verify command
    check); such units count as attempted but not as items per second.
    """

    seconds: float | None
    outputs: tuple[float, ...]
    failures: list[str] = field(default_factory=list)


def _guarded(item_fn, *args):
    """Run one item; an exception becomes a failed item instead of ending the run."""
    try:
        return item_fn(*args)
    except Exception as exc:  # a raising item is a failed item, the run goes on
        return Item(None, (), [f"raised {type(exc).__name__}: {exc}"])


def digest(items: list[Item]) -> str:
    """sha256 over every output bit of the given items, in order."""
    h = hashlib.sha256()
    for it in items:
        h.update(struct.pack(f"<{len(it.outputs)}d", *it.outputs))
    return h.hexdigest()[:16]


# ------------------------------------------------------------- radius_corpus


def _operator(kind: int, rng: np.random.Generator) -> core.Mat2:
    if kind == 0:
        return core.Mat2(0.0, 0.0, 0.0, 0.0)
    if kind == 1:
        theta, s = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.1, 10.0)
        c, n = s * math.cos(theta), s * math.sin(theta)
        return core.Mat2(c, -n, n, c)
    if kind == 2:
        a, d = rng.uniform(-10.0, 10.0, 2)
        return core.Mat2(a, 0.0, 0.0, d)
    if kind == 3:
        u = rng.uniform(-math.sqrt(10.0), math.sqrt(10.0), 2)
        v = rng.uniform(-math.sqrt(10.0), math.sqrt(10.0), 2)
        return core.Mat2(u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])
    return core.Mat2(*rng.uniform(-10.0, 10.0, 4))


class RadiusCorpus:
    """Closed-form radius vs. the duality-map oracle, op_norm and the interpolation bound.

    Each round takes one operator kind: 12 of 16 rounds draw uniform entries
    in [-10, 10]; the others are the zero operator, a scaled rotation, a
    diagonal and a rank-one operator, each new per exponent.
    """

    name = "radius_corpus"
    trace_rounds = 256
    uses_pool = False

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.exponents = [core.make_exponent(p) for p in RADIUS_PS]
        self.rounds = [[_operator(r % 16, rng) for _ in RADIUS_PS] for r in range(RADIUS_ROUNDS)]

    def sizes(self) -> dict:
        return {"rounds": len(self.rounds), "cases_per_round": len(RADIUS_PS), "grid_n": core.DEFAULT_GRID_N}

    def run_round(self, r: int, workers: int):
        """Yield the round's items as they complete."""
        operators = self.rounds[r % len(self.rounds)]
        return (_guarded(self._case, e, T) for e, T in zip(self.exponents, operators))

    @staticmethod
    def _case(e: core.Exponent, T: core.Mat2) -> Item:
        t0 = time.perf_counter()
        v = radius.numerical_radius(T, e).value
        o = radius.radius_oracle(T, e)
        n = norms.op_norm(T, e).norm
        rt = norms.riesz_thorin_bound(T, e)
        item = Item(time.perf_counter() - t0, (v, o, n, rt))
        case = f"p={e.p!r} T={T.as_tuple()!r}"
        if not abs(v - o) <= 1e-7:
            item.failures.append(f"{case}: |radius {v!r} - oracle {o!r}| = {abs(v - o):.3e} > 1e-7")
        if not v <= n + 1e-10:
            item.failures.append(f"{case}: radius {v!r} > opnorm {n!r} + 1e-10")
        if not n <= rt + 1e-10:
            item.failures.append(f"{case}: opnorm {n!r} > interpolation bound {rt!r} + 1e-10")
        if e.p == 2.0:
            sv = float(np.linalg.norm(np.array([[T.a, T.b], [T.c, T.d]]), 2))
            if not abs(n - sv) <= 1e-12 * sv:
                item.failures.append(f"{case}: opnorm {n!r} != largest singular value {sv!r}")
        return item


# -------------------------------------------------------------- index_search


def reference_mp(p: float, n: int = 1 << 17) -> float:
    """M_p from a dense grid, independent of lpindex; below the true maximum by O(1/n^2)."""
    t = np.linspace(0.0, 1.0, n + 1)
    return float(np.max(np.abs(t ** (p - 1.0) - t) / (1.0 + t**p)))


class IndexSearch:
    """64-start estimates of n(l_p^2) over the theorem exponents, checked against M_p.

    Every estimate gets its own Halton seed, drawn from the workload seed.
    """

    name = "index_search"
    trace_rounds = 1
    uses_pool = False

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.exponents = [core.make_exponent(p) for p in THEOREM_PS]
        self.halton_seeds = rng.integers(0, 2**31, size=(INDEX_ROUNDS, len(THEOREM_PS))).tolist()
        self._ref_mp: dict[float, float] = {}

    def sizes(self) -> dict:
        return {"rounds": len(self.halton_seeds), "estimates_per_round": len(THEOREM_PS),
                "starts": INDEX_STARTS}

    def run_round(self, r: int, workers: int):
        """Yield the round's items as they complete."""
        seeds = self.halton_seeds[r % len(self.halton_seeds)]
        return (_guarded(self._estimate, e, s) for e, s in zip(self.exponents, seeds))

    def _estimate(self, e: core.Exponent, seed: int) -> Item:
        t0 = time.perf_counter()
        est = index.estimate_index(e, starts=INDEX_STARTS, seed=seed)
        m = est.minimizer
        item = Item(time.perf_counter() - t0, (est.value, est.mp, m.a, m.b, m.c, m.d))
        p, mp, value = e.p, est.mp, est.value
        if p not in self._ref_mp:
            self._ref_mp[p] = reference_mp(p)
        ref = self._ref_mp[p]
        lower = max(2.0 ** (-1.0 / e.p), 2.0 ** (-1.0 / e.q)) * mp
        if not (ref - 1e-12 <= mp <= ref + 1e-8):
            item.failures.append(f"p={p}: M_p {mp!r} disagrees with the grid reference {ref!r}")
        if not (lower - 1e-6 <= value <= mp + 1e-6):
            item.failures.append(
                f"p={p} seed={seed}: estimate {value!r} outside [{lower!r}, M_p={mp!r}] +- 1e-6")
        if not value >= mp - 1e-3:
            item.failures.append(f"p={p} seed={seed}: estimate {value!r} < M_p - 1e-3 (M_p={mp!r})")
        if p == 2.0 and not abs(value) <= 1e-6:
            item.failures.append(f"p=2 seed={seed}: |estimate| = {abs(value):.3e} > 1e-6")
        return item


# ------------------------------------------------------------ verify_battery


def _timed_row(job):
    """Pool-side item timer: run one verify row; return it with its duration and its process's peak RSS.

    Module level so that the process pool can pickle it by reference.
    """
    fn, arg = job
    t0 = time.perf_counter()
    row = fn(arg)
    seconds = time.perf_counter() - t0
    return row, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class VerifyBattery:
    """In-process ``lpindex verify`` on seeded 100-row p-grids in [1.2, 1.5], through cli's pool.

    The rows are captured and timed one by one by substituting ``cli._pmap``
    with a wrapper that maps ``_timed_row`` over the same items; cli still
    chooses serial or pooled execution itself.  Each round adds one command
    check: exit code 0, the summary line, the forced claim-3 breakdown at
    p = 1.16 and the remark's reference values.
    """

    name = "verify_battery"
    trace_rounds = 2
    uses_pool = True

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        ends = rng.uniform(0.0, 0.01, size=(VERIFY_ROUNDS, 2))
        self.argvs = [
            ["verify", "--pmin", repr(1.2 + lo), "--pmax", repr(1.5 - hi), "--n", str(VERIFY_ROWS)]
            for lo, hi in ends.tolist()
        ]
        self.breakdown_e = core.make_exponent(BREAKDOWN_P)
        self.pmap_wall_s = 0.0
        self.row_rss_kb = 0  # largest peak RSS of a process that ran a row

    def sizes(self) -> dict:
        return {"rounds": len(self.argvs), "rows_per_round": VERIFY_ROWS, "claim_grid": cli.VERIFY_CLAIM_GRID}

    def run_round(self, r: int, workers: int) -> list[Item]:
        argv = self.argvs[r % len(self.argvs)]
        captured = []
        original_pmap = cli._pmap

        def capturing_pmap(fn, items):
            t0 = time.perf_counter()
            out = original_pmap(_timed_row, [(fn, it) for it in items])
            self.pmap_wall_s += time.perf_counter() - t0
            captured.extend(out)
            return [row for row, *_ in out]

        stdout = io.StringIO()
        saved_workers = os.environ.get("LPINDEX_WORKERS")
        os.environ["LPINDEX_WORKERS"] = str(workers)
        cli._pmap = capturing_pmap
        try:
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
        except Exception as exc:  # the command check below reports it as a failure
            rc = f"an exception, {type(exc).__name__}: {exc}"
        finally:
            cli._pmap = original_pmap
            if saved_workers is None:
                del os.environ["LPINDEX_WORKERS"]
            else:
                os.environ["LPINDEX_WORKERS"] = saved_workers

        items = []
        fields = ("p", "lemma_margin", "claim1_gap", "claim2_gap", "claim3_gap")
        for row, seconds, rss_kb in captured:
            self.row_rss_kb = max(self.row_rss_kb, rss_kb)
            item = Item(seconds, tuple(float(row[k]) for k in fields))
            if not row["ok"]:
                item.failures.append(
                    f"p={row['p']!r}: row not ok (lemma_ok={row['lemma_ok']}, "
                    f"claims={[row[f'claim{c}_ok'] for c in (1, 2, 3)]})"
                )
            items.append(item)
        items.append(_guarded(self._command_check, argv, rc, stdout.getvalue(), len(captured)))
        return items

    def _command_check(self, argv, rc, out: str, n_rows: int) -> Item:
        forced = index.verify_claim_region(3, self.breakdown_e, force=True)
        rec = index.remark_counterexample(BREAKDOWN_P)
        item = Item(None, (forced.infimum_found, forced.target, rec.t0, rec.mp, rec.ratio))
        lines = out.splitlines()
        if rc != 0:
            item.failures.append(f"{' '.join(argv)} exited {rc}")
        summary = f"verify: {VERIFY_ROWS}/{VERIFY_ROWS} "
        if n_rows != VERIFY_ROWS or not lines or not lines[-1].startswith(summary):
            item.failures.append(f"{' '.join(argv)}: {n_rows} rows, summary {lines[-1:]!r}")
        if forced.holds:
            item.failures.append(f"forced claim 3 at p={BREAKDOWN_P} holds; the breakdown must show")
        references = (("t0", rec.t0, REMARK_T0), ("mp", rec.mp, REMARK_MP), ("ratio", rec.ratio, REMARK_RATIO))
        for label, got, want in references:
            if not abs(got - want) <= 1e-5:
                item.failures.append(f"remark {label} = {got!r}, reference {want} +- 1e-5")
        if not rec.is_below:
            item.failures.append("remark ratio is not below M_p at p = 1.16")
        return item


WORKLOADS = {w.name: w for w in (RadiusCorpus, IndexSearch, VerifyBattery)}
