"""Pipeline orchestration: checkpointed stages behind one config file.

A stage is a plain function over typed values: it takes its inputs as
arguments and returns its counts, a dict of named integers, followed by
its outputs (the kept logs; the events, vault triples and approvals; the
`Partition`; the flow records; the report rows; fetched prices).  Its
`COMMANDS` row names its inputs, each `cfg`, a file-backed value of
`INPUTS` (registry, prices, deny-list) or a checkpoint of `OUTPUTS`,
which gives each output's file, stage, writer and reader.  `run_stages`
runs every command: it reads each input at most once, calls the stage,
formats its status line from its counts by its `STATUS` template and
writes its outputs with `write_checkpoint`; it prints every status line.
`dfcflow all` runs ingest through report, then `compare-clusters`,
handing outputs from stage to stage in memory; a single stage reads its
checkpoint inputs back from their files.  Either way every stage leaves
its outputs, in the CSV/JSONL formats of docs/file_formats.md, so runs
are resumable and auditable.  Stage failures exit with distinct codes
(config 2, ingest 3, decode 4, cluster 5, ledger 6, report 7); a config
key that is neither a `PipelineConfig` field nor `comment` is a config
error.

At import this module loads only what config parsing and `ingest` from
a fixture need (`ingest`, `registry`, `errors`, `util`); each stage
function and checkpoint reader imports the stage modules it uses, and
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
# each command: its help text, the exit code of its failure and the values
# its stage takes, in order; a value is `cfg`, an `INPUTS` key or an output
COMMANDS = {
    "ingest": ("acquire and filter raw logs", 3, ("cfg", "registry")),
    "decode": ("decode logs into canonical events", 4, ("registry", "logs")),
    "cluster": ("group addresses into user groups", 5, ("events", "vaults", "denylist")),
    "track": ("run the debt-taint ledger", 6, ("events", "partition", "registry", "prices")),
    "report": ("write the report tables", 7, ("flows", "events", "registry", "prices")),
    "all": ("run every stage in order", None, ()),
    "compare-clusters": ("compare link pairs with ERC-20 self-approvals", 5,
                         ("approvals", "events", "registry", "denylist")),
    "fetch-prices": ("pull candles into the price-file format", 3, ("cfg",)),
}


# each output: its file in the output directory, the stage that gives it,
# its writer and, for a checkpoint that later stages read, its reader, the
# functions named as `module.attribute` of `dfcflow`; a stage returns its
# outputs in this order
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
    # written to the config's `prices` file where it names one
    "price_file": ("prices.csv", "fetch-prices", "market.write_prices_csv", None),
}

# each command's status line after its name, a template of its counts by
# name: `{counts}` is the `name=value` list of the counts it names nowhere
# else, `{names}` the names of all of them and an output's name its file
STATUS = {
    "ingest": "{kept} of {read} logs kept",
    "decode": "{events} events ({counts})",
    "cluster": "{eligible_groups} eligible groups ({groups} total, {link_pairs} link pairs)",
    "track": "{flow_records} flow records ({counts})",
    "report": "{months} months, {correlation_rows} correlation rows",
    "compare-clusters": "{self_approval_pairs} approval pairs, {heuristic_pairs} heuristic"
                        " pairs, {overlap_pairs} overlapping",
    "fetch-prices": "{names} prices for {price_file}",
}
LINE_AFTER_WRITES = frozenset({"fetch-prices"})  # its line names the file it writes


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


# the values a stage may take that are read from a configured file, once
# per run, by the `PipelineConfig` method given
INPUTS = {
    "registry": PipelineConfig.load_registry,
    "prices": PipelineConfig.load_prices,
    "denylist": PipelineConfig.load_denylist,
}


def write_checkpoint(path: Path, writer, *args) -> bool:
    """Render `writer(tmp, *args)` into the `.tmp` sibling of `path`.
    When `path` already holds the same bytes, leave it untouched and give
    False; otherwise move the new file into place and give True.  An
    `OSError` becomes a `DfcError` naming `path`, and no failure leaves
    the `.tmp` behind."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(tmp, *args)
        filecmp.clear_cache()  # its cache keys on size and mtime, not content
        if path.exists() and filecmp.cmp(path, tmp, shallow=False):
            tmp.unlink()
            return False
        tmp.replace(path)
        return True
    except BaseException as exc:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass  # the error raised below names the path
        if isinstance(exc, OSError):
            raise DfcError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def stage_ingest(cfg: PipelineConfig, registry: ContractRegistry) -> tuple:
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
    counts = {}
    kept = ingest.filter_logs(logs, registry, block_range, counts)
    return counts, kept


def stage_decode(registry: ContractRegistry, logs: list[ingest.RawLog]) -> tuple:
    from . import decode

    result = decode.decode_stream(logs, registry)
    return ({"events": len(result.events), **result.stats},
            result.events, result.vault_triples, result.approvals)


def stage_cluster(events: list[decode.CanonicalEvent], triples: list[decode.VaultTriple],
                  denylist: frozenset[str]) -> tuple:
    from . import cluster

    activity = cluster.address_protocol_map(events)
    partition = cluster.group_addresses(triples, activity)
    pairs = cluster.extract_heuristic_pairs(events, denylist)
    final = cluster.apply_heuristic_pairs(partition, pairs, activity)
    return ({"eligible_groups": len(final.eligible), "groups": len(final.groups),
             "link_pairs": len(pairs)}, final)


def stage_track(events: list[decode.CanonicalEvent], partition: cluster.Partition,
                registry: ContractRegistry, prices: market.PriceSeries) -> tuple:
    from . import ledger, market

    valuer = market.make_valuer(prices, registry.currencies)
    result = ledger.run_ledger(events, partition, valuer)
    return {"flow_records": len(result.flow_records), **result.stats}, result.flow_records


def stage_report(records: list[ledger.FlowRecord], events: list[decode.CanonicalEvent],
                 registry: ContractRegistry, prices: market.PriceSeries) -> tuple:
    from . import report

    monthly = report.monthly_dfc_rows(records)
    breakdown = report.protocol_breakdown(records)
    correlations = report.lagged_correlations(records, prices)
    summary = report.summary_stats(events, prices, registry.currencies)
    counts = {"months": len(monthly), "correlation_rows": len(correlations)}
    return counts, monthly, breakdown, correlations, summary


def stage_compare_clusters(approvals: list[decode.ApprovalEvent],
                           events: list[decode.CanonicalEvent], registry: ContractRegistry,
                           denylist: frozenset[str]) -> tuple:
    from . import cluster

    known_contracts = frozenset(
        to_hex(a) for a in registry.addresses
    ) | frozenset(to_hex(t) for t in registry.tokens)
    approval_pairs = cluster.self_approval_pairs(approvals, denylist, known_contracts)
    heuristic_pairs = cluster.extract_heuristic_pairs(events, denylist)
    overlap = {p.unordered for p in approval_pairs} & {p.unordered for p in heuristic_pairs}
    counts = {"self_approval_pairs": len(approval_pairs),
              "heuristic_pairs": len(heuristic_pairs), "overlap_pairs": len(overlap)}
    return counts, list(counts.items())


def cmd_fetch_prices(cfg: PipelineConfig) -> tuple:
    from . import market

    if not cfg.price_fetch:
        raise ConfigError("config has no price_fetch section")
    series = market.fetch_prices(cfg.price_fetch)
    return series.sizes(), series


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

    for name, (help_text, *_) in COMMANDS.items():
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
    failure = run_stages(cfg, stages, args.quiet)
    if failure is None:
        return EXIT_OK
    stage, exc = failure
    print(f"{stage}: error: {exc}", file=sys.stderr)
    return COMMANDS[stage][1]


# the stages whose writes a forked run hands to a writer of their own,
# forked as soon as the stage returns
WRITER_STAGES = frozenset({"ingest", "decode", "track"})


def run_stages(cfg: PipelineConfig, stages, quiet: bool = False) -> tuple[str, DfcError] | None:
    """Run `stages` in order: call each with the values its `COMMANDS`
    row names, print the line its `STATUS` template makes of the counts
    it returns, and write each of its outputs to its `OUTPUTS` file with
    `write_checkpoint`.  Only this prints status lines, and once stdout's
    reader has gone it drops the rest.  A value is read at most once per
    run: an `INPUTS` value by its loader, a checkpoint that no stage of
    the run gave by its `OUTPUTS` reader.

    A run of several stages, where `background.can_fork()`, forks a price
    reader first, whose result stands in for the `prices` loader, and
    forks one writer for each stage of `WRITER_STAGES` when it returns;
    the writers are joined, and their files' lines printed, after the
    last stage.  Otherwise each stage's outputs are written when it
    returns.  Gives the earliest failed stage and its error, or None; an
    error that is not a `DfcError` is re-raised once every worker has
    been joined.
    """
    def say(line: str) -> None:
        if quiet:
            return
        try:
            print(line, flush=True)
        except BrokenPipeError:
            # the reader has gone: the rest, and the flush at exit, go to
            # os.devnull, as the Python docs' note on SIGPIPE does
            import os

            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)

    loaders = {name: partial(load, cfg) for name, load in INPUTS.items()}
    values = {"cfg": cfg}

    def value(name: str):
        if name not in values:
            if name in loaders:
                values[name] = loaders[name]()
            else:
                file, stage, _, reader = OUTPUTS[name]
                path = cfg.output / file
                if not path.exists():
                    raise MissingCheckpointError(path, stage)
                values[name] = _lookup(reader)(path)
        return values[name]

    def write_file(path: Path, name: str) -> str:
        written = write_checkpoint(path, _lookup(OUTPUTS[name][2]), values[name])
        return f"{path.name}: {'written' if written else 'cache hit (unchanged)'}"

    background = None
    if len(stages) > 1:
        from . import background

        if not background.can_fork():
            background = None
    writers: list = []  # (stage, its forked writer), in stage order
    prices = failure = written = None  # the failed stage, the earliest failed writer
    try:
        if background is not None:
            prices = background.Worker(cfg.load_prices)
            loaders["prices"] = prices.result
        for stage in stages:
            try:
                counts, *outputs = STAGE_FUNCTIONS[stage](*map(value, COMMANDS[stage][2]))
                names = [name for name, row in OUTPUTS.items() if row[1] == stage]
                values.update(zip(names, outputs, strict=True))
                paths = {name: cfg.prices if name == "price_file" and cfg.prices
                         else cfg.output / OUTPUTS[name][0] for name in names}
                template = STATUS[stage]
                line = f"{stage}: " + template.format_map({
                    **paths, **counts, "names": ", ".join(sorted(counts)),
                    "counts": ", ".join(f"{name}={n}" for name, n in sorted(counts.items())
                                        if f"{{{name}}}" not in template)})
                writes = [partial(write_file, path, name) for name, path in paths.items()]
                if background is not None and stage in WRITER_STAGES:
                    writers.append((stage, background.Worker(background.write_all, writes)))
                    writes = []  # their lines are printed once the writer is joined
                lines = (write() for write in writes)
                if stage in LINE_AFTER_WRITES:
                    lines = list(lines)
                say(line)
                for line in lines:
                    say(line)
            except BaseException as exc:  # re-raised below unless a DfcError
                failure = stage, exc
                break
        for stage, writer in writers:
            try:
                lines, error = writer.result()
            except BaseException as exc:  # re-raised below unless a DfcError
                lines, error = [], exc
            if written is None:
                for line in lines:
                    say(line)
                if error is not None:
                    written = stage, error
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
