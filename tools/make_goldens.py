#!/usr/bin/env python3
"""Regenerate tests/golden/ from the bundled fixture.

The flow substance comes from the straight-line reference interpreter in
tests/oracles.py, not from the production ledger, so the checked-in
expected files double as an end-to-end cross-check: the CLI pipeline must
reproduce them byte for byte.

Run from the repository root:  python3 tools/make_goldens.py [output-dir]
The output directory defaults to tests/golden/.
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from dfcflow import cluster, decode, ingest, market, report
from dfcflow.cli import PipelineConfig, run_stages
from dfcflow.ledger import FlowRecord
from dfcflow.registry import ContractRegistry

from oracles import taint_interpreter


GOLDEN = ROOT / "tests" / "golden"


def main(golden: Path = GOLDEN) -> None:
    registry = ContractRegistry.from_json_file(ROOT / "config" / "registry.json")
    logs = ingest.load_fixture(ROOT / "data" / "fixture_logs.jsonl")
    kept = ingest.filter_logs(logs, registry, ingest.BlockRange(10_000_000, 10_700_000))
    decoded = decode.decode_stream(kept, registry)
    denylist = cluster.load_denylist(ROOT / "data" / "denylist.csv")

    activity = cluster.address_protocol_map(decoded.events)
    partition = cluster.group_addresses(decoded.vault_triples, activity)
    pairs = cluster.extract_heuristic_pairs(decoded.events, denylist)
    final = cluster.apply_heuristic_pairs(partition, pairs, activity)

    prices = market.PriceSeries.from_csv(ROOT / "data" / "prices.csv")

    def price_of(symbol, ts):
        return prices.price_at(registry.currencies[symbol].price_key, ts)

    _, _, rows = taint_interpreter(decoded.events, final.eligible_rep_of, price_of)
    records = [FlowRecord(*row) for row in rows]

    golden.mkdir(parents=True, exist_ok=True)
    report.write_monthly_csv(golden / "monthly_dfc.csv", report.monthly_dfc_rows(records))
    report.write_breakdown_csv(golden / "protocol_breakdown.csv",
                               report.protocol_breakdown(records))
    report.write_correlations_csv(golden / "correlations.csv",
                                  report.lagged_correlations(records, prices))
    report.write_summary_csv(golden / "summary.csv",
                             report.summary_stats(decoded.events, prices,
                                                  registry.currencies))

    # the comparison harness output is part of the golden set too; the
    # pipeline writes it, next to the checkpoints it reads
    with tempfile.TemporaryDirectory() as out:
        cfg = PipelineConfig.from_file(ROOT / "config" / "pipeline.fixture.json",
                                       overrides={"output": out})
        failure = run_stages(cfg, ("ingest", "decode", "compare-clusters"), quiet=True)
        if failure is not None:
            sys.exit(f"{failure[0]}: error: {failure[1]}")
        shutil.copyfile(Path(out) / "cluster_comparison.csv", golden / "cluster_comparison.csv")

    for name in ("monthly_dfc.csv", "protocol_breakdown.csv", "correlations.csv",
                 "summary.csv", "cluster_comparison.csv"):
        print(f"wrote {golden / name}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
