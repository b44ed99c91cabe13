"""dfcflow: debt-financed collateral analytics over Ethereum event logs.

Pipeline: ingest (filter raw logs) -> decode (canonical events) ->
cluster (user address groups) -> ledger (first-out debt taint) ->
report (monthly tables and correlations).
"""

__version__ = "0.1.0"
