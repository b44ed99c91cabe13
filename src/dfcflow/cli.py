"""Pipeline orchestration: checkpointed stages behind one config file.

Stages are plain functions over a `PipelineRun`, the state of one
invocation; each returns its typed result (the kept logs, the
`DecodeResult`, the `Partition`, the `LedgerRun`).  `dfcflow all` runs
ingest through report, then `compare-clusters`, handing results from
stage to stage in memory and loading the registry, prices and deny-list
once; a single-stage invocation reads its inputs back from the previous
stage's checkpoints.  Either way every stage leaves its checkpoints, in
the CSV/JSONL formats of docs/file_formats.md, so runs are resumable and
auditable.  A stage queues them with `PipelineRun.write`; its runner
writes them with `write_checkpoint` once the stage returns, `run_inline`
at once and `background.run_stages` (`all`, where it can fork) partly
from forked writers.  An unchanged output is a cache hit, left
untouched.  Stage failures exit with distinct codes (config 2, ingest
3, decode 4, cluster 5, ledger 6, report 7); a config key that is
neither a `PipelineConfig` field nor `comment` is a config error.

At import this module loads only what config parsing and `ingest` from
a fixture need (`ingest`, `registry`, `errors`, `util`); each stage
function and `PipelineRun` accessor imports the stage modules it uses,
so `dfcflow ingest` and a config check never compile decode, cluster,
ledger, market or report, and only an `ingest` from an RPC endpoint
loads `rpc`.  Records are named tuples and holders plain classes, so no
command pays at start-up for a class-building library.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import sys
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import ingest
from .errors import ConfigError, DfcError, MissingCheckpointError
from .registry import ContractRegistry
from .util import to_hex

if TYPE_CHECKING:
    from . import cluster, decode, ledger, market

EXIT_OK = 0
EXIT_CONFIG = 2
STAGE_EXIT_CODES = {
    "ingest": 3,
    "decode": 4,
    "cluster": 5,
    "track": 6,
    "report": 7,
    "compare-clusters": 5,
    "fetch-prices": 3,
}

CHECKPOINTS = {
    "logs": "logs.jsonl",
    "events": "events.csv",
    "vaults": "vaults.csv",
    "approvals": "approvals.csv",
    "partition": "partition.csv",
    "flows": "flows.csv",
}


class PipelineConfig(NamedTuple):
    registry: Path
    from_block: int
    to_block: int
    output: Path
    fixture: Path | None = None
    rpc_endpoint: str | None = None
    prices: Path | None = None
    price_fetch: dict | None = None
    denylist: Path | None = None
    rpc_window: int = ingest.DEFAULT_WINDOW_SIZE

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "PipelineConfig":
        path = Path(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
        doc.update(overrides)
        known = {*cls._fields, "comment"}
        unknown = sorted(doc.keys() - known)
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r} in {path}")

        base = path.parent

        def resolve(key) -> Path | None:
            value = doc.get(key)
            if value is None:
                return None
            p = Path(value)
            # a path given on the command line is relative to the working directory
            return p if p.is_absolute() or key in overrides else (base / p)

        for key in ("registry", "from_block", "to_block", "output"):
            if doc.get(key) is None:
                raise ConfigError(f"config field {key!r} is required")
        fixture = resolve("fixture")
        endpoint = doc.get("rpc_endpoint")
        if (fixture is None) == (endpoint is None):
            raise ConfigError("config needs exactly one of fixture / rpc_endpoint")
        prices = resolve("prices")
        price_fetch = doc.get("price_fetch")
        if prices is None and price_fetch is None:
            raise ConfigError("config needs prices or price_fetch")

        def integer(key, minimum, default=None) -> int:
            value = doc.get(key)
            if value is None:
                return default
            if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
                raise ConfigError(
                    f"config field {key!r} must be an integer >= {minimum}, got {value!r}"
                )
            return value

        from_block = integer("from_block", 0)
        to_block = integer("to_block", 0)
        if from_block > to_block:
            raise ConfigError("from_block must not exceed to_block")

        return cls(
            registry=resolve("registry"),
            from_block=from_block,
            to_block=to_block,
            output=resolve("output"),
            fixture=fixture,
            rpc_endpoint=endpoint,
            prices=prices,
            price_fetch=price_fetch,
            denylist=resolve("denylist"),
            rpc_window=integer("rpc_window", 1, ingest.DEFAULT_WINDOW_SIZE),
        )

    def checkpoint(self, name: str) -> Path:
        return self.output / CHECKPOINTS[name]

    def block_range(self) -> ingest.BlockRange:
        return ingest.BlockRange(self.from_block, self.to_block)

    def load_registry(self) -> ContractRegistry:
        return ContractRegistry.from_json_file(self.registry)

    def load_prices(self) -> market.PriceSeries:
        from . import market

        if self.prices is None:
            raise ConfigError("no price file configured; run fetch-prices first")
        return market.PriceSeries.from_csv(self.prices)

    def load_denylist(self) -> frozenset[str]:
        if self.denylist is None:
            return frozenset()
        from . import cluster

        return cluster.load_denylist(self.denylist)


class PipelineRun:
    """The state of one invocation: its config, whether it prints, the
    values its stages have produced or loaded, and the checkpoint writes
    queued for its runner.  An input accessor gives the value a stage
    already produced, or reads it once from its checkpoint (the registry,
    prices and deny-list from the configured file)."""

    def __init__(self, cfg: PipelineConfig, quiet: bool = False):
        self.cfg = cfg
        self.quiet = quiet
        # `dfcflow all` swaps in the result of its price reader
        self.load_prices = cfg.load_prices
        self._values: dict[str, object] = {}
        self._writes: list = []

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)

    def keep(self, **values) -> None:
        """Hand stage results to later stages of this invocation."""
        self._values.update(values)

    def _once(self, name: str, load):
        if name not in self._values:
            self._values[name] = load()
        return self._values[name]

    def _read(self, name: str, read, stage: str):
        return self._once(name, lambda: read(_require(self.cfg.checkpoint(name), stage)))

    def registry(self) -> ContractRegistry:
        return self._once("registry", self.cfg.load_registry)

    def prices(self) -> market.PriceSeries:
        return self._once("prices", self.load_prices)

    def denylist(self) -> frozenset[str]:
        return self._once("denylist", self.cfg.load_denylist)

    def logs(self) -> list[ingest.RawLog]:
        return self._read("logs", ingest.load_fixture, "ingest")

    def events(self) -> list[decode.CanonicalEvent]:
        from . import decode

        return self._read("events", decode.read_events_csv, "decode")

    def vault_triples(self) -> list[decode.VaultTriple]:
        from . import decode

        return self._read("vaults", decode.read_vaults_csv, "decode")

    def approvals(self) -> list[decode.ApprovalEvent]:
        from . import decode

        return self._read("approvals", decode.read_approvals_csv, "decode")

    def partition(self) -> cluster.Partition:
        from . import cluster

        return self._read("partition", cluster.read_partition_csv, "cluster")

    def flow_records(self) -> list[ledger.FlowRecord]:
        from . import ledger

        return self._read("flows", ledger.read_flows_csv, "track")

    def write(self, path: Path, writer, *args) -> None:
        """Queue a checkpoint for the runner to write with `write_checkpoint`
        once the stage returns."""
        self._writes.append(partial(write_checkpoint, path, writer, *args))

    def take_writes(self) -> list:
        """The writes queued since the last call, in order; each writes one
        file and gives its status line."""
        writes, self._writes = self._writes, []
        return writes


def write_checkpoint(path: Path, writer, *args) -> str:
    """Render `writer(tmp, *args)` into the `.tmp` sibling of `path`.
    When `path` already holds the same bytes, leave it untouched;
    otherwise move the new file into place.  Gives the status line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        writer(tmp, *args)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    filecmp.clear_cache()  # its cache keys on size and mtime, not content
    if path.exists() and filecmp.cmp(path, tmp, shallow=False):
        tmp.unlink()
        return f"{path.name}: cache hit (unchanged)"
    tmp.replace(path)
    return f"{path.name}: written"


def _require(path: Path, stage: str) -> Path:
    if not path.exists():
        raise MissingCheckpointError(path, stage)
    return path


def stage_ingest(run: PipelineRun) -> list[ingest.RawLog]:
    cfg = run.cfg
    registry = run.registry()
    block_range = cfg.block_range()
    if cfg.fixture is not None:
        if not cfg.fixture.exists():
            raise ConfigError(f"fixture {cfg.fixture} does not exist")
        logs = ingest.load_fixture(cfg.fixture)
    else:
        from . import rpc

        logs = rpc.fetch_logs(
            cfg.rpc_endpoint, block_range, registry, window_size=cfg.rpc_window
        )
    kept = ingest.filter_logs(logs, registry, block_range)
    run.say(f"ingest: {len(kept)} of {len(logs)} logs kept")
    run.write(cfg.checkpoint("logs"), ingest.save_fixture, kept)
    run.keep(logs=kept)
    return kept


def stage_decode(run: PipelineRun) -> decode.DecodeResult:
    from . import decode

    cfg = run.cfg
    registry = run.registry()
    result = decode.decode_stream(run.logs(), registry)
    stats = ", ".join(f"{k}={v}" for k, v in sorted(result.stats.items()))
    run.say(f"decode: {len(result.events)} events ({stats})")
    run.write(cfg.checkpoint("events"), decode.write_events_csv, result.events)
    run.write(cfg.checkpoint("vaults"), decode.write_vaults_csv, result.vault_triples)
    run.write(cfg.checkpoint("approvals"), decode.write_approvals_csv, result.approvals)
    run.keep(events=result.events, vaults=result.vault_triples, approvals=result.approvals)
    return result


def stage_cluster(run: PipelineRun) -> cluster.Partition:
    from . import cluster

    events = run.events()
    triples = run.vault_triples()
    denylist = run.denylist()
    activity = cluster.address_protocol_map(events)
    partition = cluster.group_addresses(triples, activity)
    pairs = cluster.extract_heuristic_pairs(events, denylist)
    final = cluster.apply_heuristic_pairs(partition, pairs, activity)
    run.say(
        f"cluster: {len(final.eligible)} eligible groups "
        f"({len(final.groups)} total, {len(pairs)} link pairs)"
    )
    run.write(run.cfg.checkpoint("partition"), cluster.write_partition_csv, final)
    run.keep(partition=final)
    return final


def stage_track(run: PipelineRun) -> ledger.LedgerRun:
    from . import ledger, market

    events = run.events()
    partition = run.partition()
    registry = run.registry()
    valuer = market.make_valuer(run.prices(), registry.currencies)
    result = ledger.run_ledger(events, partition, valuer)
    stats = ", ".join(f"{k}={v}" for k, v in sorted(result.stats.items()))
    run.say(f"track: {len(result.flow_records)} flow records ({stats})")
    run.write(run.cfg.checkpoint("flows"), ledger.write_flows_csv, result.flow_records)
    run.keep(flows=result.flow_records)
    return result


def stage_report(run: PipelineRun) -> None:
    from . import report

    records = run.flow_records()
    events = run.events()
    registry = run.registry()
    prices = run.prices()
    monthly = report.monthly_dfc_rows(records)
    breakdown = report.protocol_breakdown(records)
    correlations = report.lagged_correlations(records, prices)
    summary = report.summary_stats(events, prices, registry.currencies)
    run.say(f"report: {len(monthly)} months, {len(correlations)} correlation rows")
    out = run.cfg.output
    run.write(out / "monthly_dfc.csv", report.write_monthly_csv, monthly)
    run.write(out / "protocol_breakdown.csv", report.write_breakdown_csv, breakdown)
    run.write(out / "correlations.csv", report.write_correlations_csv, correlations)
    run.write(out / "summary.csv", report.write_summary_csv, summary)


def stage_compare_clusters(run: PipelineRun) -> None:
    from . import cluster

    approvals = run.approvals()
    events = run.events()
    registry = run.registry()
    denylist = run.denylist()
    known_contracts = frozenset(
        to_hex(a) for a in registry.addresses
    ) | frozenset(to_hex(t) for t in registry.tokens)
    approval_pairs = cluster.self_approval_pairs(approvals, denylist, known_contracts)
    heuristic_pairs = cluster.extract_heuristic_pairs(events, denylist)
    overlap = {p.unordered for p in approval_pairs} & {p.unordered for p in heuristic_pairs}
    run.say(
        f"compare-clusters: {len(approval_pairs)} approval pairs, "
        f"{len(heuristic_pairs)} heuristic pairs, {len(overlap)} overlapping"
    )
    rows = [
        ("self_approval_pairs", len(approval_pairs)),
        ("heuristic_pairs", len(heuristic_pairs)),
        ("overlap_pairs", len(overlap)),
    ]
    run.write(run.cfg.output / "cluster_comparison.csv", cluster.write_comparison_csv, rows)


def cmd_fetch_prices(run: PipelineRun) -> None:
    from . import market

    cfg = run.cfg
    if not cfg.price_fetch:
        raise ConfigError("config has no price_fetch section")
    series = market.fetch_prices(cfg.price_fetch)
    target = cfg.prices if cfg.prices is not None else cfg.output / "prices.csv"
    target.parent.mkdir(parents=True, exist_ok=True)
    series.to_csv(target)
    run.say(f"fetch-prices: wrote {target}")


STAGE_FUNCTIONS = {
    "ingest": stage_ingest,
    "decode": stage_decode,
    "cluster": stage_cluster,
    "track": stage_track,
    "report": stage_report,
    "compare-clusters": stage_compare_clusters,
    "fetch-prices": cmd_fetch_prices,
}

ALL_STAGES = ("ingest", "decode", "cluster", "track", "report", "compare-clusters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfcflow",
        description="Reconstruct debt-financed collateral flows from Ethereum event logs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config JSON")
    common.add_argument("--output", help="override the output directory")
    common.add_argument("--from-block", type=int, dest="from_block")
    common.add_argument("--to-block", type=int, dest="to_block")
    common.add_argument("--quiet", action="store_true")

    for name, help_text in (
        ("ingest", "acquire and filter raw logs"),
        ("decode", "decode logs into canonical events"),
        ("cluster", "group addresses into user groups"),
        ("track", "run the debt-taint ledger"),
        ("report", "write the report tables"),
        ("all", "run every stage in order"),
        ("compare-clusters", "compare link pairs with ERC-20 self-approvals"),
        ("fetch-prices", "pull candles into the price-file format"),
    ):
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = PipelineConfig.from_file(
            args.config,
            overrides={
                "output": args.output,
                "from_block": args.from_block,
                "to_block": args.to_block,
            },
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    stages = ALL_STAGES if args.command == "all" else (args.command,)
    run_stages = run_inline
    if args.command == "all":
        from . import background

        if background.can_fork():
            run_stages = background.run_stages
    failure = run_stages(PipelineRun(cfg, args.quiet), stages, STAGE_FUNCTIONS)
    if failure is None:
        return EXIT_OK
    stage, exc = failure
    print(f"{stage}: error: {exc}", file=sys.stderr)
    return STAGE_EXIT_CODES[stage]


def run_inline(run: PipelineRun, stages, functions) -> tuple[str, DfcError] | None:
    """Run `stages` in order, each followed by its checkpoint writes; the
    first to fail and its error, or None."""
    for stage in stages:
        try:
            functions[stage](run)
            for write in run.take_writes():
                run.say(write())
        except DfcError as exc:
            return stage, exc
    return None


if __name__ == "__main__":
    sys.exit(main())
