import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lpindex

PACKAGE = Path(lpindex.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    """The `from .module import _name` imports of one module, as "module._name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_private_imports_finds_a_private_name(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from .core import DEFAULT_GRID_N, _prescan\nfrom . import cli\nfrom os import _exit\n")
    assert private_imports(mod) == ["core._prescan"]


def test_modules_import_no_private_names_of_each_other():
    found = {path.name: private_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_every_public_name_resolves():
    assert [name for name in lpindex.__all__ if not hasattr(lpindex, name)] == []


def test_dataclasses_are_frozen():
    # README promises that dataclass results are frozen; __init__ only
    # re-exports and __main__ runs the CLI when imported
    modules = [importlib.import_module(f"lpindex.{path.stem}") for path in PACKAGE.glob("[!_]*.py")]
    thawed = [
        f"{mod.__name__}.{c.__name__}"
        for mod in modules
        for _, c in inspect.getmembers(mod, inspect.isclass)
        if c.__module__ == mod.__name__ and dataclasses.is_dataclass(c) and not c.__dataclass_params__.frozen
    ]
    assert thawed == []


# Every command that maps serially: verify's 3 rows are below the pool's 4-row threshold.
SERIAL_COMMANDS = [
    "mp 1.16",
    "radius 1.3 1 2 3 4",
    "opnorm 2 3 0 0 -4",
    "index 3 --starts 4",
    "counterexample",
    "breakdown --pmin 1.16 --pmax 1.18 --n 3",
    "verify --n 3",
]


@pytest.mark.parametrize("command", SERIAL_COMMANDS, ids=[c.split()[0] for c in SERIAL_COMMANDS])
def test_serial_command_loads_no_process_pool(command):
    # a fresh interpreter runs the command through cli.main, then prints the
    # process-pool packages it loaded: the pool is imported on its first use
    script = (
        "import contextlib, io, sys\n"
        "from lpindex import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({command.split()!r})\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'concurrent', 'multiprocessing'}))\n"
        "sys.exit(code)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "LPINDEX_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


BENCHMARK = Path(__file__).resolve().parent.parent / "perfbench"


def lpindex_modules(tree: ast.AST) -> dict[str, str]:
    """The names that `from lpindex import ...` binds in a parsed module, each mapped to its lpindex module."""
    return {
        a.asname or a.name: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "lpindex"
        for a in node.names
    }


def benchmark_hooks() -> set[tuple[str, str]]:
    """The lpindex (module, attr) pairs that perfbench reaches, read off its source without importing it.

    Each attribute of a name that `from lpindex import ...` binds, and the attr of
    each (span name, module, attr) tuple, the form of tracing.LAYERS.
    """
    hooks = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = lpindex_modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                hooks.add((modules[node.value.id], node.attr))
            elif isinstance(node, ast.Tuple) and len(node.elts) == 3:
                name, mod, attr = node.elts
                strings = all(isinstance(x, ast.Constant) and isinstance(x.value, str) for x in (name, attr))
                if strings and isinstance(mod, ast.Name) and mod.id in modules:
                    hooks.add((modules[mod.id], attr.value))
    return hooks


def test_benchmark_hooks_resolve():
    # a rename of any lpindex name that perfbench reaches passes every other
    # test but makes every benchmark run fail
    hooks = benchmark_hooks()
    assert hooks  # 19 pairs today, so the scan cannot pass vacuously
    missing = [f"{m}.{attr}" for m, attr in sorted(hooks) if not hasattr(importlib.import_module(f"lpindex.{m}"), attr)]
    assert missing == []


def unbound_calls(paths) -> tuple[int, list[str]]:
    """The calls on an lpindex module attribute in paths whose arguments the live signature does not bind.

    Each call's positional count and keyword names are read off the source and bound with
    inspect.signature; calls with *args or **kwargs are skipped.  Returns (calls checked, failures), each
    failure as "file:line module.attr: reason".
    """
    checked, failures = 0, []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = lpindex_modules(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            func = node.func
            if not (isinstance(func.value, ast.Name) and func.value.id in modules):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                continue
            module = modules[func.value.id]
            signature = inspect.signature(getattr(importlib.import_module(f"lpindex.{module}"), func.attr))
            checked += 1
            try:
                signature.bind(*[None] * len(node.args), **{k.arg: None for k in node.keywords})
            except TypeError as exc:
                failures.append(f"{path.name}:{node.lineno} {module}.{func.attr}: {exc}")
    return checked, failures


def test_unbound_calls_finds_a_dropped_keyword(tmp_path):
    (tmp_path / "bench.py").write_text(
        "from lpindex import core, index\n"
        "e = core.make_exponent(1.3)\n"
        "index.verify_claim_region(3, e, strict=True)\n"
        "index.estimate_index(e, 8, 0, 1e-9, 2)\n"
        "index.verify_claim_region(*args, **kwargs)\n"
    )
    checked, failures = unbound_calls([tmp_path / "bench.py"])
    assert checked == 3
    assert failures == [
        "bench.py:3 index.verify_claim_region: got an unexpected keyword argument 'strict'",
        "bench.py:4 index.estimate_index: too many positional arguments",
    ]


def test_benchmark_calls_bind():
    # a parameter dropped or renamed under a call that perfbench makes passes every
    # other test but makes every benchmark run fail
    checked, failures = unbound_calls(sorted(BENCHMARK.glob("*.py")))
    assert checked >= 10  # 15 calls today, so the scan cannot pass vacuously
    assert failures == []


@pytest.fixture(scope="module")
def workloads():
    # perfbench is no package: load the file, registered because dataclasses look it up in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCHMARK / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["radius_corpus", "index_search", "verify_battery"])
def test_benchmark_round_passes_its_checks(workloads, name):
    # a change that fails a benchmark item's own checks passes every other test but
    # counts as failed operations in every benchmark run; one worker keeps it serial
    items = list(workloads.WORKLOADS[name](1).run_round(0, 1))
    assert items
    assert [f for item in items for f in item.failures] == []


def unread_private_names(paths) -> list[str]:
    """The module-level names starting with _ (dunders aside) that no module in paths reads outside their own
    definition, as "module.name"; read off the source without importing it.

    A read is a loaded name, an attribute or an imported name; a function that only calls itself is unread.
    """
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in paths}
    found = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            for name in names:
                if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                    continue
                read = any(
                    id(n) not in inside
                    and (
                        (isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load))
                        or (isinstance(n, ast.Attribute) and n.attr == name)
                        or (isinstance(n, ast.alias) and n.name == name)
                    )
                    for other in trees.values()
                    for n in ast.walk(other)
                )
                if not read:
                    found.append(f"{mod}.{name}")
    return found


def test_unread_private_names_finds_a_dead_helper(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = []\n_used = 1\n_alias = _used\n\ndef _loop(n):\n    return _loop(n - 1)\n\n"
        "def _called():\n    return _used\n"
    )
    (tmp_path / "b.py").write_text("from .a import _called\nfrom . import a\nx = a._alias\n_dead, y = 1, 2\n")
    assert unread_private_names(sorted(tmp_path.glob("*.py"))) == ["a._loop", "b._dead"]


def test_every_private_name_is_read():
    # a helper left behind after its callers moved on, or kept as an alias, is dead code
    assert unread_private_names(sorted(PACKAGE.glob("*.py"))) == []


# A call at p = 1.3 of each public function with a tol, besides maximize_1d itself
TOL_DRIVERS = {
    "numerical_radius": lambda e, tol: lpindex.numerical_radius(lpindex.Mat2(1.0, 2.0, 3.0, 4.0), e, tol=tol),
    "op_norm": lambda e, tol: lpindex.op_norm(lpindex.Mat2(1.0, 2.0, 3.0, 4.0), e, tol=tol),
    "estimate_index": lambda e, tol: lpindex.estimate_index(e, starts=2, tol=tol),
}


def test_every_public_tol_is_driven():
    # a tol that reaches no maximizer is a setting that shapes nothing
    with_tol = {
        name
        for name in lpindex.__all__
        if callable(obj := getattr(lpindex, name))
        and not inspect.isclass(obj)
        and "tol" in inspect.signature(obj).parameters
    }
    assert with_tol == {"maximize_1d", *TOL_DRIVERS}


@pytest.mark.parametrize("name", sorted(TOL_DRIVERS))
def test_public_tol_reaches_the_maximizer(monkeypatch, name):
    seen = []
    for module in (importlib.import_module(f"lpindex.{mod}") for mod in ("critical", "norms", "radius")):

        def recording(objective, tol, maximize=module.maximize_1d):
            seen.append(tol)
            return maximize(objective, tol)

        monkeypatch.setattr(module, "maximize_1d", recording)
    TOL_DRIVERS[name](lpindex.make_exponent(1.3), 1e-7)  # a tol no code uses
    assert 1e-7 in seen
