"""Per-layer metrics: span aggregation and micro-benchmarks.

`per_layer` turns the span file written by trace_child.py for the
traced `dfcflow` process into the named per-layer metrics.  A metric for
a layer that does not run on the workload (``rpc.*`` off ``rpc``,
everything past ingest on ``rpc``) reads 0.  `micro` times single calls
of the hot functions on inputs drawn from the ``deep`` workload of the
same seed.
"""

from __future__ import annotations

import random
import statistics
import time

# span name -> metric name (seconds, summed over every call in the run)
SPAN_METRICS = {
    "ingest.load": "ingest.load_s",
    "ingest.filter": "ingest.filter_s",
    "ingest.serialize": "ingest.serialize_s",
    "rpc.fetch": "rpc.fetch_s",
    "decode.stream": "decode.stream_s",
    "decode.write_events": "decode.write_events_s",
    "decode.read_events": "decode.read_events_s",
    "decode.aux_io": "decode.aux_io_s",
    "cluster.group": "cluster.group_s",
    "cluster.pairs": "cluster.pairs_s",
    "cluster.apply_pairs": "cluster.apply_pairs_s",
    "cluster.write_partition": "cluster.write_partition_s",
    "cluster.read_partition": "cluster.read_partition_s",
    "cluster.self_approval": "cluster.self_approval_s",
    "market.load_prices": "market.load_prices_s",
    "registry.load": "registry.load_s",
    "ledger.run": "ledger.run_s",
    "ledger.write_flows": "ledger.write_flows_s",
    "ledger.read_flows": "ledger.read_flows_s",
    "report.monthly": "report.monthly_s",
    "report.breakdown": "report.breakdown_s",
    "report.correlations": "report.correlations_s",
    "report.summary": "report.summary_s",
    "report.write": "report.write_s",
}
COUNT_METRICS = (
    "ingest.logs_in",
    "ingest.logs_kept",
    "decode.events_out",
    "cluster.groups",
    "cluster.eligible_groups",
    "cluster.link_pairs",
    "market.price_rows",
    "market.lookups",
    "ledger.events_applied",
    "ledger.skipped_unrouted",
    "ledger.flow_records",
    "ledger.max_denominator_bits",
    "ledger.flows_csv_bytes",
)
COUNT_UNITS = {"ledger.max_denominator_bits": "bits", "ledger.flows_csv_bytes": "bytes"}
STAGES = ("ingest", "decode", "cluster", "track", "report", "compare-clusters")


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def per_layer(doc: dict, node_calls: dict | None) -> dict:
    seconds: dict[str, float] = {}
    for span in doc["spans"]:
        seconds[span["name"]] = seconds.get(span["name"], 0.0) + span["end"] - span["start"]
    counts: dict[str, int] = doc["counts"]

    metrics: dict[str, tuple[float, str]] = {}
    for span, metric in SPAN_METRICS.items():
        metrics[metric] = (seconds.get(span, 0.0), "s")
    for name in COUNT_METRICS:
        metrics[name] = (counts.get(name, 0), COUNT_UNITS.get(name, "count"))
    metrics["ingest.us_per_log"] = (
        _ratio(seconds.get("ingest.load", 0.0), counts.get("ingest.logs_loaded", 0), 1e6), "us")
    metrics["decode.us_per_log"] = (
        _ratio(seconds.get("decode.stream", 0.0), counts.get("decode.logs_in", 0), 1e6), "us")
    metrics["ledger.us_per_event"] = (
        _ratio(seconds.get("ledger.run", 0.0), counts.get("ledger.events_in", 0), 1e6), "us")

    calls = node_calls or {}
    requests = calls.get("http_requests", 0)
    metrics["rpc.requests"] = (requests, "count")
    metrics["rpc.get_logs_calls"] = (calls.get("eth_getLogs", 0), "count")
    metrics["rpc.block_calls"] = (calls.get("eth_getBlockByNumber", 0), "count")
    metrics["rpc.requests_per_log"] = (_ratio(requests, counts.get("rpc.logs_fetched", 0)), "1/log")

    stage_total = 0.0
    for stage in STAGES:
        value = seconds.get(f"cli.stage.{stage}", 0.0)
        metrics[f"cli.stage.{stage}_s"] = (value, "s")
        stage_total += value
    layer_total = sum(v for k, v in seconds.items() if not k.startswith("cli."))
    metrics["cli.orchestration_s"] = (stage_total - layer_total, "s")
    metrics["cli.import_s"] = (doc["import_s"], "s")
    return metrics


def _per_call_us(fn, calls: int, prepare=lambda: None, repeats: int = 5) -> float:
    """Median over `repeats` passes of one pass's time per call, in µs.
    `fn(state)` runs one whole pass over a fresh, untimed `prepare()`."""
    samples = []
    for _ in range(repeats):
        state = prepare()
        start = time.perf_counter()
        fn(state)
        samples.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(samples)


def micro(seed: int, registry, workloads, sample: int = 2000) -> dict:
    import json

    from dfcflow import ingest
    from dfcflow.cluster import DisjointSet
    from dfcflow.decode import decode_event, decode_stream
    from dfcflow.ledger import GroupLedger
    from dfcflow.market import make_valuer
    from dfcflow.report import pearson

    deep = workloads.generate("deep", seed, registry)
    window = ingest.BlockRange(workloads.WINDOW_START, workloads.WINDOW_END)
    logs = ingest.filter_logs(deep.logs, registry, window)[:sample]
    objs = [json.loads(log.to_json_line()) for log in logs]
    events = decode_stream(logs, registry).events
    valuer = make_valuer(deep.prices, registry.currencies)
    rng = random.Random(f"micro:{seed}")
    actors = sorted({e.actor for e in events})
    edges = [(rng.choice(actors), rng.choice(actors)) for _ in range(sample)]
    keys = sorted(deep.prices.keys)
    lo, hi = (deep.prices.span("ETH")[0] + 7200, deep.prices.span("ETH")[1] - 7200)
    lookups = [(rng.choice(keys), rng.randint(lo, hi)) for _ in range(sample)]
    xs = [rng.random() for _ in range(240)]
    ys = [x + rng.random() for x in xs]

    def parse(_):
        for obj in objs:
            ingest.RawLog.from_json_obj(obj)

    def decode(_):
        for log in logs:
            decode_event(log, registry)

    def fresh_set():
        ds = DisjointSet()
        for a in actors:
            ds.add(a)
        return ds

    def union(ds):
        for a, b in edges:
            ds.union(a, b)

    def apply(ledger):
        for e in events:
            ledger.apply(e)

    def price_at(_):
        for key, ts in lookups:
            deep.prices.price_at(key, ts)

    def correlate(_):
        for _ in range(50):
            pearson(xs, ys)

    return {
        "micro.raw_log_from_json_us": (_per_call_us(parse, len(objs)), "us"),
        "micro.decode_event_us": (_per_call_us(decode, len(logs)), "us"),
        "micro.disjoint_set_union_us": (_per_call_us(union, len(edges), fresh_set), "us"),
        "micro.group_ledger_apply_us": (
            _per_call_us(apply, len(events), lambda: GroupLedger("micro", valuer)), "us"),
        "micro.price_at_us": (_per_call_us(price_at, len(lookups)), "us"),
        "micro.pearson_us": (_per_call_us(correlate, 50), "us"),
    }
