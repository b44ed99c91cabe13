#!/usr/bin/env python3
"""dfcflow benchmark: seeded workloads run as users run them.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  Each invocation

1. runs the bundled fixture through ``dfcflow all`` and compares the
   reports byte for byte with ``tests/golden``;
2. generates the workload from the seed and, for ``rpc``, starts the
   mock node (neither is timed);
3. times five fresh-interpreter set-ups (``setup_s``);
4. for ``--seconds`` seconds, times whole workload iterations, one
   ``dfcflow`` process at a time (a closed loop with one client), and
   checks each iteration's outputs: for ``deep`` the reports against
   the independent reference in ``oracle.py``, for ``rpc`` the served
   logs;
5. prints one human-readable line per metric, then one JSON object as
   the last line.

With ``--trace 0`` the JSON holds the end-to-end metrics (medians over
the iterations and over the set-ups).  With ``--trace 1`` it holds the
per-layer metrics from one untraced and one traced iteration plus
micro-benchmarks; see METRICS.md.  Scratch files go to
``.perfbench_tmp/`` in the checkout.  The exit code is 0 only when every
invocation succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REGISTRY = ROOT / "config" / "registry.json"
FIXTURE_CONFIG = ROOT / "config" / "pipeline.fixture.json"
GOLDEN = ROOT / "tests" / "golden"

REPORTS = (
    "monthly_dfc.csv",
    "protocol_breakdown.csv",
    "correlations.csv",
    "summary.csv",
    "cluster_comparison.csv",
)
SETUP_SAMPLES = 5
SETUP_PROBE = (
    "import sys\n"
    "from dfcflow.cli import PipelineConfig\n"
    "PipelineConfig.from_file(sys.argv[1]).load_registry()\n"
)


class Failure(Exception):
    """An invocation or output check failed; counted, then reported."""


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Runner:
    """Spawns one process at a time and keeps the invocation tally."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.env = {
            k: v for k, v in os.environ.items()
            if k.lower() not in ("http_proxy", "https_proxy", "all_proxy")
        }
        self.env.update({
            "PYTHONPATH": str(SRC),
            "TMPDIR": str(work),
            "NO_PROXY": "127.0.0.1,localhost",
        })

    def spawn(self, argv: list[str], *, count: bool = True) -> dict:
        """Run a Python child to completion; wall from spawn to exit and
        CPU/max-RSS from wait4."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            env=self.env,
            cwd=self.work,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # terminated mid-run: do not leave the child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stderr.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if count:
            self.attempted += 1
        if proc.returncode != 0:
            if count:
                self.failed += 1
            message = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            raise Failure(f"{' '.join(argv[:3])} exited {proc.returncode}: {message[0]}")
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6,
        }

    def dfcflow(self, args: list[str]) -> dict:
        return self.spawn(["-m", "dfcflow.cli", *args, "--quiet"])

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            raise Failure(message)


def golden_check(runner: Runner) -> None:
    out = runner.work / "golden"
    runner.dfcflow(["all", "--config", str(FIXTURE_CONFIG), "--output", str(out)])
    for name in REPORTS:
        same = (out / name).read_bytes() == (GOLDEN / name).read_bytes()
        runner.check(same, f"bundled fixture: {name} differs from tests/golden")
    shutil.rmtree(out)


class MockNode:
    def __init__(self, runner: Runner, logs: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "mock_node.py"), str(logs)],
            env=runner.env,
            cwd=runner.work,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.stop()
            raise Failure("mock node did not start")
        self.endpoint = f"http://127.0.0.1:{line[1]}"

    def call(self, method: str):
        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps({"jsonrpc": "2.0", "id": 1, "method": method}).encode(),
            headers={"Content-Type": "application/json"},
        )
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(request, timeout=10) as response:
            return json.loads(response.read())["result"]

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, args, runner: Runner):
        self.args = args
        self.runner = runner
        self.node: MockNode | None = None
        self.reference = None
        self.notes: list[str] = []
        self.counts: dict[str, int] = {}

    # --- set-up ----------------------------------------------------------

    def prepare(self) -> None:
        sys.path.insert(0, str(SRC))
        import workloads
        from dfcflow.registry import ContractRegistry

        self.workloads = workloads
        self.registry = ContractRegistry.from_json_file(REGISTRY)
        self.workload = workloads.generate(self.args.workload, self.args.seed, self.registry)
        inputs = self.runner.work / "inputs"
        self.config = self.workload.write(inputs, REGISTRY)
        self.counts = self.workload.counts
        if self.args.workload == "rpc":
            self.node = MockNode(self.runner, inputs / "logs.jsonl")
            doc = json.loads(self.config.read_text())
            del doc["fixture"]
            doc["rpc_endpoint"] = self.node.endpoint
            self.config.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            # ingest keeps the scripted logs of registered contracts, in
            # (block, log index) order, and drops the noise and the logs
            # outside the block range
            registered = {(log.block_number, log.log_index)
                          for _, rule, _, log in self.workload.placed if rule is not None}
            served = map(json.loads, (inputs / "logs.jsonl").read_text(encoding="utf-8").splitlines())
            self.expected_logs = sorted(
                (d for d in served if (d["block_number"], d["log_index"]) in registered),
                key=lambda d: (d["block_number"], d["log_index"]))
        else:
            try:
                self.reference = oracle.Reference(
                    self.workload.placed, self.registry, inputs / "prices.csv")
            except oracle.Mismatch as exc:
                raise Failure(f"deep seed {self.args.seed}: {exc}") from exc

    def setup_sample(self) -> float:
        probe = self.runner.work / "setup_probe.py"
        if not probe.exists():
            probe.write_text(SETUP_PROBE, encoding="utf-8")
        return self.runner.spawn([str(probe), str(self.config)], count=False)["wall_s"]

    # --- one workload iteration -------------------------------------------

    def command(self, out: Path) -> list[str]:
        stage = "ingest" if self.args.workload == "rpc" else "all"
        return [stage, "--config", str(self.config), "--output", str(out)]

    def iteration(self, index: int, spawn) -> dict:
        out = self.runner.work / f"out{index}"
        if self.node is not None:
            self.node.call("mock_reset")
        sample = spawn(self.command(out))
        result = {
            "wall_s": sample["wall_s"],
            "cpu_s": sample["cpu_s"],
            "peak_rss_mb": sample["rss_mb"],
            "output_mb": tree_bytes(out) / 1e6,
        }
        if self.node is not None:
            result["node_calls"] = self.node.call("mock_stats")
        self.verify(out)
        result["out"] = out
        return result

    def verify(self, out: Path) -> None:
        if self.args.workload == "rpc":
            with open(out / "logs.jsonl", encoding="utf-8") as fh:
                got = [json.loads(line) for line in fh]
            self.runner.check(got == self.expected_logs,
                              "rpc: logs.jsonl is not the served in-range registered logs")
            return
        try:
            self.reference.check(out)
        except (oracle.Mismatch, OSError) as exc:
            self.runner.check(False, f"deep seed {self.args.seed}: {exc}")

    # --- modes -------------------------------------------------------------

    def end_to_end(self) -> dict:
        setup = [self.setup_sample() for _ in range(SETUP_SAMPLES)]
        deadline = time.perf_counter() + self.args.seconds
        iterations = []
        while True:
            started = time.perf_counter()
            result = self.iteration(len(iterations), self.runner.dfcflow)
            shutil.rmtree(result.pop("out"))
            iterations.append(result)
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
        metrics = {
            key: (statistics.median(it[key] for it in iterations), unit)
            for key, unit in (("wall_s", "s"), ("cpu_s", "s"),
                              ("peak_rss_mb", "MB"), ("output_mb", "MB"))
        }
        metrics["setup_s"] = (statistics.median(setup), "s")
        self.notes.append(f"{len(iterations)} iterations, {len(setup)} set-up samples")
        self.notes.append("iteration wall_s: " + " ".join(f"{it['wall_s']:.3f}" for it in iterations))
        self.notes.append("set-up s: " + " ".join(f"{x:.3f}" for x in setup))
        return metrics

    def traced(self) -> dict:
        import layers

        untraced = self.iteration(0, self.runner.dfcflow)
        shutil.rmtree(untraced.pop("out"))
        spans = self.runner.work / "spans.json"

        def spawn_traced(cmd):
            return self.runner.spawn([str(HERE / "trace_child.py"), str(spans), *cmd, "--quiet"])

        traced = self.iteration(1, spawn_traced)
        metrics = layers.per_layer(json.loads(spans.read_text()), traced.get("node_calls"))
        metrics.update(layers.micro(self.args.seed, self.registry, self.workloads))
        metrics["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead_pct"] = (
            100 * (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"], "%"
        )
        shutil.rmtree(traced["out"])
        return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("deep", "rpc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still stops the mock node and removes its scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = [p for p in (SRC / "dfcflow" / "cli.py", REGISTRY, FIXTURE_CONFIG, GOLDEN)
               if not p.exists()]
    if missing:
        print(f"run.py: not a dfcflow checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    tempfile.tempdir = str(work)
    runner = Runner(work)
    bench = Bench(args, runner)
    metrics: dict = {}
    error = None
    try:
        golden_check(runner)
        bench.prepare()
        metrics = bench.traced() if args.trace else bench.end_to_end()
    except Failure as exc:
        error = str(exc)
    finally:
        if bench.node is not None:
            bench.node.stop()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it

    correct = error is None and runner.failed == 0
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in bench.counts.items()))
    for note in bench.notes:
        print(f"note: {note}")
    if error:
        print(f"error: {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    error_rate = runner.failed / max(runner.attempted, 1)
    print(f"error_rate = {error_rate:.6g} (failed {runner.failed} of {runner.attempted} "
          "dfcflow invocations)")
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
