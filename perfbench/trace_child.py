"""Run one `dfcflow` command in-process with spans around each layer call.

The wrappers are installed from here, on the public functions that the
CLI stages call, so the program itself is unchanged.  A span records its
name, start, end and the span that caused it (the CLI stage).  Spans and
counters stay in memory and are written as JSON when the command ends.

Run:  python3 perfbench/trace_child.py <spans.json> <dfcflow arguments...>
Exits with the command's own exit code.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# (module, function, span name): every layer function the CLI stages call.
# Functions that these call internally are not wrapped, so layer spans
# never nest and each stage span is layer spans plus orchestration.
LAYER_FUNCTIONS = (
    ("ingest", "load_fixture", "ingest.load"),
    ("ingest", "filter_logs", "ingest.filter"),
    ("ingest", "serialize_fixture", "ingest.serialize"),
    ("rpc", "fetch_logs", "rpc.fetch"),
    ("decode", "decode_stream", "decode.stream"),
    ("decode", "write_events_csv", "decode.write_events"),
    ("decode", "read_events_csv", "decode.read_events"),
    ("decode", "write_vaults_csv", "decode.aux_io"),
    ("decode", "write_approvals_csv", "decode.aux_io"),
    ("decode", "read_vaults_csv", "decode.aux_io"),
    ("decode", "read_approvals_csv", "decode.aux_io"),
    ("cluster", "group_addresses", "cluster.group"),
    ("cluster", "extract_heuristic_pairs", "cluster.pairs"),
    ("cluster", "apply_heuristic_pairs", "cluster.apply_pairs"),
    ("cluster", "write_partition_csv", "cluster.write_partition"),
    ("cluster", "read_partition_csv", "cluster.read_partition"),
    ("cluster", "self_approval_pairs", "cluster.self_approval"),
    ("cluster", "load_denylist", "cluster.load_denylist"),
    ("market", "make_valuer", "market.make_valuer"),
    ("ledger", "run_ledger", "ledger.run"),
    ("ledger", "write_flows_csv", "ledger.write_flows"),
    ("ledger", "read_flows_csv", "ledger.read_flows"),
    ("report", "monthly_dfc_rows", "report.monthly"),
    ("report", "protocol_breakdown", "report.breakdown"),
    ("report", "lagged_correlations", "report.correlations"),
    ("report", "summary_stats", "report.summary"),
    ("report", "write_monthly_csv", "report.write"),
    ("report", "write_breakdown_csv", "report.write"),
    ("report", "write_correlations_csv", "report.write"),
    ("report", "write_summary_csv", "report.write"),
)
# (module, class, classmethod, span name)
LAYER_CLASSMETHODS = (
    ("market", "PriceSeries", "from_csv", "market.load_prices"),
    ("registry", "ContractRegistry", "from_json_file", "registry.load"),
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, n: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), n)

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced


def _max_denominator_bits(run) -> int:
    bits = 0
    for group in run.group_ledgers.values():
        for balance in list(group.wallet_debt.values()) + list(group.platform_debt.values()):
            bits = max(bits, balance.denominator.bit_length())
    return bits


def install(tracer: Tracer, modules: dict) -> None:
    def count_len(name):
        return lambda args, result: tracer.count(name, len(result))

    def on_filter(args, result):
        tracer.count("ingest.logs_in", len(args[0]))
        tracer.count("ingest.logs_kept", len(result))

    def on_decode(args, result):
        tracer.count("decode.logs_in", len(args[0]))
        tracer.count("decode.events_out", len(result.events))

    def on_apply_pairs(args, result):
        tracer.count("cluster.link_pairs", len(args[1]))
        tracer.count("cluster.groups", len(result.groups))
        tracer.count("cluster.eligible_groups", len(result.eligible))

    def on_ledger(args, result):
        tracer.count("ledger.events_in", len(args[0]))
        tracer.count("ledger.events_applied", result.stats["applied"])
        tracer.count("ledger.skipped_unrouted", result.stats["skipped_unrouted"])
        tracer.count("ledger.flow_records", len(result.flow_records))
        tracer.peak("ledger.max_denominator_bits", _max_denominator_bits(result))

    def on_write_flows(args, result):
        tracer.count("ledger.flows_csv_bytes", Path(args[0]).stat().st_size)

    def on_load_prices(args, result):
        with open(args[1], "rb") as fh:  # args[0] is the class
            tracer.peak("market.price_rows", sum(1 for _ in fh) - 1)

    hooks = {
        "ingest.load": count_len("ingest.logs_loaded"),
        "ingest.filter": on_filter,
        "rpc.fetch": count_len("rpc.logs_fetched"),
        "decode.stream": on_decode,
        "cluster.apply_pairs": on_apply_pairs,
        "ledger.run": on_ledger,
        "ledger.write_flows": on_write_flows,
        "market.load_prices": on_load_prices,
    }

    for module, attr, name in LAYER_FUNCTIONS:
        mod = modules[module]
        fn = getattr(mod, attr)
        if attr == "make_valuer":
            setattr(mod, attr, tracer.wrap(name, _counting_valuer(tracer, fn)))
        else:
            setattr(mod, attr, tracer.wrap(name, fn, hooks.get(name)))
    for module, cls_name, attr, name in LAYER_CLASSMETHODS:
        cls = getattr(modules[module], cls_name)
        fn = getattr(cls, attr).__func__
        setattr(cls, attr, classmethod(tracer.wrap(name, fn, hooks.get(name))))


def _counting_valuer(tracer: Tracer, make_valuer):
    def make(*args, **kwargs):
        value = make_valuer(*args, **kwargs)

        def counted(*vargs):
            tracer.count("market.lookups", 1)
            return value(*vargs)

        return counted

    return make


def main(argv: list[str]) -> int:
    spans_path, command = Path(argv[0]), argv[1:]
    start = time.perf_counter()
    from dfcflow import cli, cluster, decode, ingest, ledger, market, registry, report, rpc

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer, {
        "ingest": ingest, "rpc": rpc, "decode": decode, "cluster": cluster,
        "market": market, "ledger": ledger, "report": report, "registry": registry,
    })
    for stage, fn in list(cli.STAGE_FUNCTIONS.items()):
        cli.STAGE_FUNCTIONS[stage] = tracer.wrap(f"cli.stage.{stage}", fn)
    cli.stage_compare_clusters = cli.STAGE_FUNCTIONS["compare-clusters"]
    try:
        code = cli.main(command)
    finally:
        spans_path.write_text(json.dumps({
            "import_s": import_s,
            "spans": tracer.spans,
            "counts": tracer.counts,
        }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
