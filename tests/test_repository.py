import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys

import pytest

from tests.conftest import REPO_ROOT

CITING_DIRS = ("src", "config", "demos", "tools")
CITING_SUFFIXES = (".py", ".json", ".md")


def _importers(module: str) -> list[str]:
    """Files under src/ that import `module`, relative to src/."""
    src = REPO_ROOT / "src"
    pattern = rf"^\s*(import {module}\b|from {module}\b.* import)"
    return sorted(
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        if re.search(pattern, path.read_text(encoding="utf-8"), re.M)
    )


def test_cited_docs_exist_and_only_tables_imports_csv():
    cited = set()
    for top in CITING_DIRS:
        for path in (REPO_ROOT / top).rglob("*"):
            if path.suffix in CITING_SUFFIXES and path.is_file():
                cited.update(re.findall(r"docs/[\w./-]+?\.md", path.read_text(encoding="utf-8")))
    assert "docs/registry.md" in cited and "docs/file_formats.md" in cited
    assert sorted(doc for doc in cited if not (REPO_ROOT / doc).is_file()) == []

    assert _importers("csv") == ["dfcflow/tables.py"]
    # numeric cells are decimals and the report rounds in ints: only
    # `PriceSeries.price_at` and the synthetic generators build a Fraction
    assert _importers("fractions") == ["dfcflow/market.py", "dfcflow/synth.py"]


def test_registry_is_the_one_home_of_the_vocabulary():
    from dfcflow import market, registry

    assert market.GRANULARITY is registry.GRANULARITY
    assert registry.PRICE_KEYS == tuple(registry.GRANULARITY)
    spelt = sorted(
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in (REPO_ROOT / "src" / "dfcflow").glob("*.py") if path.name != "registry.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in registry.KINDS
    )
    assert spelt == []


def test_no_source_file_imports_requests():
    # the RPC and price transports are the standard library's
    assert _importers("requests") == []


def test_trace_child_hooks_resolve_in_dfcflow():
    # perfbench/trace_child.py patches these names by string; a rename in
    # src/ would otherwise surface only in a traced benchmark run
    spec = importlib.util.spec_from_file_location(
        "trace_child", REPO_ROOT / "perfbench" / "trace_child.py")
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in trace_child.LAYER_FUNCTIONS
        if not callable(getattr(importlib.import_module(f"dfcflow.{module}"), attr, None))
    ]
    for module, cls_name, attr, _ in trace_child.LAYER_CLASSMETHODS:
        cls = getattr(importlib.import_module(f"dfcflow.{module}"), cls_name, None)
        if not isinstance(inspect.getattr_static(cls, attr, None), classmethod):
            missing.append(f"{module}.{cls_name}.{attr}")
    assert missing == []
    # it wraps each stage function in place, and the runner indexes the table at each call
    cli = importlib.import_module("dfcflow.cli")
    assert sorted(stage for stage, fn in cli.STAGE_FUNCTIONS.items() if callable(fn)) == sorted(
        set(cli.COMMANDS) - {"all"})


def test_tests_import_only_stdlib_dfcflow_and_the_test_extra():
    # `pip install .[test]` must be enough to collect every test module
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    allowed = {re.match(r"[\w.-]+", req)[0].lower().replace("-", "_") for req in extra}
    # dfcflow and the checkout's own tests/ and tools/ directories
    allowed |= set(sys.stdlib_module_names) | {"dfcflow", "tests", "tools"}
    undeclared = set()
    for path in (REPO_ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared.update(f"{path.name}: {name}" for name in names
                              if name.partition(".")[0] not in allowed)
    assert sorted(undeclared) == []


def _resolves(module: str, name: str) -> bool:
    """`from module import name` works: an attribute or a submodule."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (
        hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
    )


def test_perfbench_imports_resolve_in_dfcflow():
    # the benchmark builds its workloads from these names; moving one out
    # of the package would otherwise surface only in a benchmark run
    missing = []
    for name in ("workloads.py", "layers.py"):
        tree = ast.parse((REPO_ROOT / "perfbench" / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dfcflow"):
                missing += [f"{node.module}.{alias.name}" for alias in node.names
                            if not _resolves(node.module, alias.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in ("synth", "ingest")
                  and not _resolves(f"dfcflow.{node.value.id}", node.attr)):
                missing.append(f"dfcflow.{node.value.id}.{node.attr}")
    assert missing == []


def test_methods_perfbench_calls_resolve_in_dfcflow():
    # run.py's SETUP_PROBE and layers.py's micro-benchmarks call these on
    # the values they build; a rename would otherwise surface only in a
    # benchmark run
    from dfcflow.cli import PipelineConfig
    from dfcflow.cluster import DisjointSet
    from dfcflow.ingest import RawLog
    from dfcflow.ledger import GroupLedger
    from dfcflow.market import PriceSeries

    run_py = (REPO_ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    assert "PipelineConfig.from_file(sys.argv[1]).load_registry()" in run_py
    called = {
        PipelineConfig: ("from_file", "load_registry"),
        PriceSeries: ("price_at", "span", "keys"),
        GroupLedger: ("apply",),
        DisjointSet: ("add", "union"),
        RawLog: ("from_json_obj", "to_json_line"),
    }
    missing = [f"{cls.__name__}.{name}" for cls, names in called.items()
               for name in names if not hasattr(cls, name)]
    assert missing == []
    assert isinstance(inspect.getattr_static(PriceSeries, "keys"), property)


@pytest.mark.parametrize("demo", sorted(p.name for p in (REPO_ROOT / "demos").glob("*.py")))
def test_demo_runs_from_a_checkout(tmp_path, demo):
    # no PYTHONPATH and a foreign working directory: the demo finds src/ itself
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(REPO_ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
