import math
from fractions import Fraction
from pathlib import Path

import pytest

from dfcflow.registry import ContractRegistry
from dfcflow.util import SCALE

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.skipped:
        _ACCEPTANCE_RESULTS[name] = "SKIP"
    else:
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{_ACCEPTANCE_RESULTS[name]}  {name}")

REPO_ROOT = Path(__file__).resolve().parent.parent
REGISTRY_PATH = REPO_ROOT / "config" / "registry.json"
FIXTURE_CONFIG = REPO_ROOT / "config" / "pipeline.fixture.json"
DATA_DIR = REPO_ROOT / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def group_family(partition) -> frozenset[frozenset[str]]:
    """Every group of a `cluster.Partition`, as a set of member sets."""
    return frozenset(partition.groups.values())


def eligible_family(partition) -> frozenset[frozenset[str]]:
    """The eligible groups of a `cluster.Partition`, as a set of member sets."""
    return frozenset(partition.groups[rep] for rep in partition.eligible)


def topics_for(registry, contract: bytes) -> frozenset[bytes]:
    """The topic0s the registry has a rule for at `contract`."""
    return frozenset(t for c, t in registry.rules if c == contract)


def units(value) -> int:
    """A token or dollar amount (int, decimal string or Fraction) as whole
    1/SCALE units, floored: the ledger's fixed-point representation."""
    return math.floor(Fraction(value) * SCALE)


@pytest.fixture(scope="session")
def registry() -> ContractRegistry:
    return ContractRegistry.from_json_file(REGISTRY_PATH)

