"""dfcflow: debt-financed collateral analytics over Ethereum event logs.

Pipeline: ingest (filter raw logs) -> decode (canonical events) ->
cluster (user address groups) -> ledger (first-out debt taint) ->
report (monthly tables and correlations).
"""

from .cluster import (
    DisjointSet,
    HeuristicPair,
    Partition,
    apply_heuristic_pairs,
    extract_heuristic_pairs,
    group_addresses,
    self_approval_pairs,
)
from .decode import (
    ApprovalEvent,
    CanonicalEvent,
    VaultTriple,
    decode_event,
    decode_stream,
    extract_actor,
    normalize_amount,
)
from .errors import DfcError
from .heuristics import heuristic_oracles
from .ingest import BlockRange, RawLog, filter_logs, load_fixture, save_fixture
from .ledger import (
    FlowRecord,
    FlowTotals,
    GroupLedger,
    first_out_split,
    run_ledger,
)
from .market import PriceSeries
from .registry import ContractRegistry, Currency
from .report import lagged_correlations, monthly_dfc_rows, pearson, protocol_breakdown

__version__ = "0.1.0"

__all__ = [
    "ApprovalEvent",
    "BlockRange",
    "CanonicalEvent",
    "ContractRegistry",
    "Currency",
    "DfcError",
    "DisjointSet",
    "FlowRecord",
    "FlowTotals",
    "GroupLedger",
    "HeuristicPair",
    "Partition",
    "PriceSeries",
    "RawLog",
    "VaultTriple",
    "apply_heuristic_pairs",
    "decode_event",
    "decode_stream",
    "extract_actor",
    "extract_heuristic_pairs",
    "filter_logs",
    "first_out_split",
    "group_addresses",
    "heuristic_oracles",
    "lagged_correlations",
    "load_fixture",
    "monthly_dfc_rows",
    "normalize_amount",
    "pearson",
    "protocol_breakdown",
    "run_ledger",
    "save_fixture",
    "self_approval_pairs",
]
