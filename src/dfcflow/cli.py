"""Pipeline orchestration: checkpointed stages behind one config file.

Stages are plain functions over a `PipelineRun`, the state of one
invocation; each returns its typed result (the kept logs, the
`DecodeResult`, the `Partition`, the `LedgerRun`).  `dfcflow all` runs
ingest through report, then `compare-clusters`, handing results from
stage to stage in memory and loading the registry, prices and deny-list
once; a single-stage invocation reads its inputs back from the previous
stage's checkpoints.  Either way every stage leaves its outputs, in the
CSV/JSONL formats of docs/file_formats.md, so runs are resumable and
auditable.  `OUTPUTS` gives each output's file, stage, writer and reader;
a stage takes a checkpoint with `PipelineRun.get` and hands its results
on with `PipelineRun.put`, which queues their writes.  `run_stages` runs
every command and writes the queues with `write_checkpoint`.  Stage
failures exit with distinct codes (config 2, ingest 3, decode 4, cluster
5, ledger 6, report 7); a config key that is neither a `PipelineConfig`
field nor `comment` is a config error.

At import this module loads only what config parsing and `ingest` from
a fixture need (`ingest`, `registry`, `errors`, `util`); each stage
function and `PipelineRun.get` imports the stage modules it uses, and
only a forked run loads `background`, so `dfcflow ingest` never compiles
decode, cluster, ledger, market or report, nor imports `pickle`.
Records are named tuples and holders plain classes, so no command pays
at start-up for a class-building library.
"""

from __future__ import annotations

import argparse
import filecmp
import gc
import json
import sys
from functools import partial
from importlib import import_module
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
# each command: its help text and the exit code of its failure
COMMANDS = {
    "ingest": ("acquire and filter raw logs", 3),
    "decode": ("decode logs into canonical events", 4),
    "cluster": ("group addresses into user groups", 5),
    "track": ("run the debt-taint ledger", 6),
    "report": ("write the report tables", 7),
    "all": ("run every stage in order", None),
    "compare-clusters": ("compare link pairs with ERC-20 self-approvals", 5),
    "fetch-prices": ("pull candles into the price-file format", 3),
}


# each output: its file in the output directory, the stage that writes it,
# its writer and, for a checkpoint that later stages read, its reader, the
# functions named as `module.attribute` of `dfcflow`
OUTPUTS = {
    "logs": ("logs.jsonl", "ingest", "ingest.save_fixture", "ingest.load_fixture"),
    "events": ("events.csv", "decode", "decode.write_events_csv", "decode.read_events_csv"),
    "vaults": ("vaults.csv", "decode", "decode.write_vaults_csv", "decode.read_vaults_csv"),
    "approvals": ("approvals.csv", "decode", "decode.write_approvals_csv",
                  "decode.read_approvals_csv"),
    "partition": ("partition.csv", "cluster", "cluster.write_partition_csv",
                  "cluster.read_partition_csv"),
    "flows": ("flows.csv", "track", "ledger.write_flows_csv", "ledger.read_flows_csv"),
    "monthly": ("monthly_dfc.csv", "report", "report.write_monthly_csv", None),
    "breakdown": ("protocol_breakdown.csv", "report", "report.write_breakdown_csv", None),
    "correlations": ("correlations.csv", "report", "report.write_correlations_csv", None),
    "summary": ("summary.csv", "report", "report.write_summary_csv", None),
    "comparison": ("cluster_comparison.csv", "compare-clusters",
                   "cluster.write_comparison_csv", None),
}


def _lookup(name: str):
    """`dfcflow.module.attribute`, looked up at each use (so a wrapper set
    on the module attribute is the one called)."""
    module, attr = name.split(".")
    return getattr(import_module(f"{__package__}.{module}"), attr)


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
    values its stages have produced or loaded, and the file writes queued
    for its runner.  The registry, prices and deny-list are read once,
    from the configured files."""

    def __init__(self, cfg: PipelineConfig, quiet: bool = False):
        self.cfg = cfg
        self.quiet = quiet
        # a forked `run_stages` swaps in the result of its price reader
        self.load_prices = cfg.load_prices
        self._values: dict[str, object] = {}
        self._writes: list = []

    def say(self, message: str) -> None:
        if not self.quiet:
            print(message)

    def _once(self, name: str, load):
        if name not in self._values:
            self._values[name] = load()
        return self._values[name]

    def registry(self) -> ContractRegistry:
        return self._once("registry", self.cfg.load_registry)

    def prices(self) -> market.PriceSeries:
        return self._once("prices", self.load_prices)

    def denylist(self) -> frozenset[str]:
        return self._once("denylist", self.cfg.load_denylist)

    def get(self, name: str):
        """The checkpoint `OUTPUTS[name]`: the value a stage of this run
        put, or else one read of its file."""
        if name not in self._values:
            file, stage, _, reader = OUTPUTS[name]
            path = self.cfg.output / file
            if not path.exists():
                raise MissingCheckpointError(path, stage)
            self._values[name] = _lookup(reader)(path)
        return self._values[name]

    def put(self, name: str, value) -> None:
        """Hand `value` to later stages as the output `OUTPUTS[name]`, and
        queue the write of its file."""
        self._values[name] = value
        file, _, writer, _ = OUTPUTS[name]
        self.write(self.cfg.output / file, _lookup(writer), value)

    def write(self, path: Path, writer, *args) -> None:
        """Queue a file for the runner to write with `write_checkpoint`
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
    otherwise move the new file into place.  Gives the status line.
    An `OSError` becomes a `DfcError` naming `path`, and no failure
    leaves the `.tmp` behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(tmp, *args)
        filecmp.clear_cache()  # its cache keys on size and mtime, not content
        if path.exists() and filecmp.cmp(path, tmp, shallow=False):
            tmp.unlink()
            return f"{path.name}: cache hit (unchanged)"
        tmp.replace(path)
        return f"{path.name}: written"
    except BaseException as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass  # the error raised below names the path
        if isinstance(exc, OSError):
            raise DfcError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


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
    run.put("logs", kept)
    return kept


def stage_decode(run: PipelineRun) -> decode.DecodeResult:
    from . import decode

    registry = run.registry()
    result = decode.decode_stream(run.get("logs"), registry)
    stats = ", ".join(f"{k}={v}" for k, v in sorted(result.stats.items()))
    run.say(f"decode: {len(result.events)} events ({stats})")
    run.put("events", result.events)
    run.put("vaults", result.vault_triples)
    run.put("approvals", result.approvals)
    return result


def stage_cluster(run: PipelineRun) -> cluster.Partition:
    from . import cluster

    events = run.get("events")
    triples = run.get("vaults")
    denylist = run.denylist()
    activity = cluster.address_protocol_map(events)
    partition = cluster.group_addresses(triples, activity)
    pairs = cluster.extract_heuristic_pairs(events, denylist)
    final = cluster.apply_heuristic_pairs(partition, pairs, activity)
    run.say(
        f"cluster: {len(final.eligible)} eligible groups "
        f"({len(final.groups)} total, {len(pairs)} link pairs)"
    )
    run.put("partition", final)
    return final


def stage_track(run: PipelineRun) -> ledger.LedgerRun:
    from . import ledger, market

    events = run.get("events")
    partition = run.get("partition")
    registry = run.registry()
    valuer = market.make_valuer(run.prices(), registry.currencies)
    result = ledger.run_ledger(events, partition, valuer)
    stats = ", ".join(f"{k}={v}" for k, v in sorted(result.stats.items()))
    run.say(f"track: {len(result.flow_records)} flow records ({stats})")
    run.put("flows", result.flow_records)
    return result


def stage_report(run: PipelineRun) -> None:
    from . import report

    records = run.get("flows")
    events = run.get("events")
    registry = run.registry()
    prices = run.prices()
    monthly = report.monthly_dfc_rows(records)
    breakdown = report.protocol_breakdown(records)
    correlations = report.lagged_correlations(records, prices)
    summary = report.summary_stats(events, prices, registry.currencies)
    run.say(f"report: {len(monthly)} months, {len(correlations)} correlation rows")
    run.put("monthly", monthly)
    run.put("breakdown", breakdown)
    run.put("correlations", correlations)
    run.put("summary", summary)


def stage_compare_clusters(run: PipelineRun) -> None:
    from . import cluster

    approvals = run.get("approvals")
    events = run.get("events")
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
    run.put("comparison", rows)


def cmd_fetch_prices(run: PipelineRun) -> None:
    from . import market

    cfg = run.cfg
    if not cfg.price_fetch:
        raise ConfigError("config has no price_fetch section")
    series = market.fetch_prices(cfg.price_fetch)
    target = cfg.prices if cfg.prices is not None else cfg.output / "prices.csv"
    run.say(f"fetch-prices: {', '.join(sorted(series.keys))} prices for {target}")
    run.write(target, series.to_csv)


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

    for name, (help_text, _) in COMMANDS.items():
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
    failure = run_stages(PipelineRun(cfg, args.quiet), stages)
    if failure is None:
        return EXIT_OK
    stage, exc = failure
    print(f"{stage}: error: {exc}", file=sys.stderr)
    return COMMANDS[stage][1]


# the stages whose writes a forked run hands to a writer process
WRITER_STAGES = frozenset({"ingest", "decode", "track"})
# the stages whose writes wait for the writer of the next stage: `decode`
# reads every `RawLog`, and no child should share those pages then
CARRIED_STAGES = frozenset({"ingest"})


def run_stages(run: PipelineRun, stages) -> tuple[str, DfcError] | None:
    """Run `stages` in order, each followed by the writes it queued.

    A run of several stages, where `background.can_fork()`, forks a price
    reader first and hands the writes of `WRITER_STAGES` to forked
    writers; otherwise each stage's writes are made when it returns.
    Gives the earliest failed stage and its error, or None; an error that
    is not a `DfcError` is re-raised once every worker has been joined.
    """
    background = None
    if len(stages) > 1:
        from . import background

        if not background.can_fork():
            background = None
    writers: list = []  # (the first stage it writes for, forked writer), in stage order
    pending: list = []  # (stage, write) pairs that the next writer takes
    prices = failure = written = None  # the failed stage, the earliest failed writer
    try:
        if background is not None:
            prices = background.Worker(run.cfg.load_prices)
            run.load_prices = prices.result
        for stage in stages:
            try:
                STAGE_FUNCTIONS[stage](run)
                if background is not None and stage in WRITER_STAGES:
                    pending += [(stage, write) for write in run.take_writes()]
                else:
                    for write in run.take_writes():
                        run.say(write())
            except BaseException as exc:  # re-raised below unless a DfcError
                failure = stage, exc
                break
            if pending and stage not in CARRIED_STAGES:
                writers.append((pending[0][0], background.Worker(background.write_all, pending)))
                pending = []
        if pending:
            writers.append((pending[0][0], background.Worker(background.write_all, pending)))
        for first, writer in writers:
            try:
                lines, error = writer.result()
            except BaseException as exc:  # re-raised below unless a DfcError
                lines, error = [], (first, exc)
            if written is None:
                for line in lines:
                    run.say(line)
                written = error
    finally:  # a no-op for the workers already joined
        for worker in (prices, *(writer for _, writer in writers)):
            if worker is not None:
                worker.stop()
        gc.unfreeze()  # each fork froze it
    failure = written or failure
    if failure is not None and not isinstance(failure[1], DfcError):
        raise failure[1]
    return failure


if __name__ == "__main__":
    sys.exit(main())
