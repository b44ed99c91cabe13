#!/usr/bin/env python3
"""Run every workload once, untraced and traced, and print one table.

    python3 perfbench/baseline.py --seed 1 [--seconds 45] [--write]

Prints wall_s, cpu_s, peak_rss_mb, output_mb, setup_s and error_rate,
with units, for each workload, then each layer's share of the traced
wall time.  With ``--write`` it also stores the results, the generated
counts and the layer shares in perfbench/BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("deep", "rpc")
END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "output_mb", "setup_s")
# layer -> the per-layer time metrics that make up its share
LAYERS = {
    "ingest": ("ingest.load_s", "ingest.filter_s", "ingest.serialize_s"),
    "rpc": ("rpc.fetch_s",),
    "decode": ("decode.stream_s", "decode.write_events_s", "decode.read_events_s",
               "decode.aux_io_s"),
    "cluster": ("cluster.group_s", "cluster.pairs_s", "cluster.apply_pairs_s",
                "cluster.write_partition_s", "cluster.read_partition_s",
                "cluster.self_approval_s"),
    "market": ("market.load_prices_s",),
    "ledger": ("ledger.run_s", "ledger.write_flows_s", "ledger.read_flows_s"),
    "report": ("report.monthly_s", "report.breakdown_s", "report.correlations_s",
               "report.summary_s", "report.write_s"),
    "cli": ("cli.import_s", "cli.orchestration_s"),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, int]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload}: run.py printed no result\n{proc.stderr}")
    counts = {}
    for item in lines[0].split(": ", 1)[1].split(", "):
        if item:
            key, _, value = item.partition("=")
            counts[key] = int(value)
    return json.loads(lines[-1]), counts, proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    results = {}
    status = 0
    print(f"{'workload':<8} " + " ".join(f"{m:>14}" for m in END_TO_END) + f" {'error_rate':>12}")
    for workload in WORKLOADS:
        e2e, counts, code = run(workload, args.seed, args.seconds, 0)
        traced, _, traced_code = run(workload, args.seed, args.seconds, 1)
        status |= code | traced_code
        metrics = {k: v["value"] for k, v in e2e["metrics"].items()}
        units = {k: v["unit"] for k, v in e2e["metrics"].items()}
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        error_rate = (e2e["failed"] + traced["failed"]) / (e2e["attempted"] + traced["attempted"])
        wall = layer["trace.wall_s"]
        shares = {name: sum(layer[m] for m in parts) / wall for name, parts in LAYERS.items()}
        shares["process start and exit"] = 1 - sum(shares.values())
        print(f"{workload:<8} " + " ".join(
            f"{metrics[m]:>10.4g} {units[m]:<3}" for m in END_TO_END) + f" {error_rate:>6.3g} ratio")
        results[workload] = {
            "counts": counts,
            "end_to_end": metrics,
            "error_rate": error_rate,
            "correct": e2e["correct"] and traced["correct"],
            "layer_share_of_traced_wall": shares,
            "per_layer": layer,
        }
    print("\nshare of traced wall time per layer")
    print(f"{'layer':<24} " + " ".join(f"{w:>8}" for w in WORKLOADS))
    for name in list(LAYERS) + ["process start and exit"]:
        print(f"{name:<24} " + " ".join(
            f"{100 * results[w]['layer_share_of_traced_wall'][name]:>7.1f}%" for w in WORKLOADS))
    if args.write:
        doc = {
            "command": f"python3 perfbench/baseline.py --seed {args.seed} --seconds {args.seconds:g}",
            "seed": args.seed,
            "run_seconds": args.seconds,
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                       f"{platform.python_implementation()} {platform.python_version()}",
            "workloads": results,
        }
        (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
