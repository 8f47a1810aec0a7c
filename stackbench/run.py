"""End-to-end benchmark over the real server and router processes.

Usage (from the repository root)::

    python3 stackbench/run.py --workload index_reads --seed 1 --seconds 10 --trace 0

Builds the seeded correlated dataset into a durable directory, starts
``python -m repro.server`` (and, for ``routed_writes``, a replica and
``python -m repro.router``) with repository defaults, drives one workload
as a closed loop from one client over one connection for ``--seconds``,
checks every answer, drains every process and re-verifies the leader's
path indexes. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of a run whose
processes are started through ``launch.py`` (spans on for the second half
of the window, off for the first, which gives the tracing overhead).
``BENCHMARK.json`` lists the workloads and defines every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import deploy  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from stats import median, tail  # noqa: E402

WORKLOADS = ("index_reads", "bulk_results", "routed_writes")
WORK_ROOT = ".stackbench"
WARMUP_ROUNDS = 1
READY_TIMEOUT_S = 60.0
CHECK_TIMEOUT_S = 120.0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    """One benchmark run: set-up, window, checks, teardown."""

    def __init__(self, args, work: str) -> None:
        self.args = args
        self.work = work
        self.traced = bool(args.trace)
        self.processes: list = []
        self.clients: list = []
        self.problems: list = []
        self.notes: dict = {}
        self.setup_s = 0.0
        self.client_tracer = None

    # -- set-up --------------------------------------------------------

    def build(self) -> dict:
        out = self.built_path = os.path.join(self.work, "built.json")
        started = time.monotonic()
        builder = deploy.Process(
            "build",
            [sys.executable, os.path.join(BENCH_DIR, "build.py"),
             "--data", os.path.join(self.work, "leader"),
             "--seed", str(self.args.seed), "--out", out],
        )
        self.processes.append(builder)
        if builder.wait_for_exit(300) != 0:
            raise RuntimeError(f"build failed:\n{builder.output()}")
        self.processes.remove(builder)
        with open(out) as handle:
            built = json.load(handle)
        self.setup_s += built["built_at"] - started
        self.notes["build"] = {
            key: round(built[key], 3)
            for key in ("generate_s", "index_s", "checkpoint_s")
        }
        return built

    def spans_path(self, name: str) -> str:
        return os.path.join(self.work, f"{name}.spans.json")

    def spawn(self, name: str, module: str, args: list) -> tuple:
        launcher = os.path.join(BENCH_DIR, "launch.py") if self.traced else None
        env = {"STACKBENCH_SPANS": self.spans_path(name)} if self.traced else None
        process = deploy.Process(
            name, deploy.python_module(module, args, launcher), env
        )
        self.processes.append(process)
        return process, process.await_banner()

    def connect(self, address: tuple):
        from repro.client import Client

        client = Client(*address)
        self.clients.append(client)
        return client

    def start_serving(self):
        """Start processes in dependency order — leader listening, replica
        caught up, router admitting the replica — and return the client
        the workload drives. Readiness is polled every 10 ms; nothing is
        retried with backoff."""
        started = time.monotonic()
        self.leader, leader_address = self.spawn(
            "leader", "repro.server",
            ["--data", os.path.join(self.work, "leader"), "--port", "0"],
        )
        self.leader_client = self.connect(leader_address)
        self.leader_client.status()
        self.router_client = None
        if self.args.workload != "routed_writes":
            self.setup_s += time.monotonic() - started
            return self.leader_client
        leader_name = "%s:%d" % leader_address
        replica_started = time.monotonic()
        self.replica, replica_address = self.spawn(
            "replica", "repro.server",
            ["--replica-of", leader_name,
             "--data", os.path.join(self.work, "replica"), "--port", "0"],
        )
        self.replica_client = self.connect(replica_address)
        self.wait_caught_up()
        self.notes["replication_catchup_s"] = time.monotonic() - replica_started
        self.router, router_address = self.spawn(
            "router", "repro.router",
            ["--leader", leader_name,
             "--replica", "%s:%d" % replica_address, "--port", "0"],
        )
        self.router_client = self.connect(router_address)
        deploy.poll_until(
            lambda: not self.router_client.status()["replicas"][0]["evicted"],
            READY_TIMEOUT_S, "the router to admit the replica",
        )
        self.setup_s += time.monotonic() - started
        router_status = self.router_client.status()
        self.notes["setup_replica_reconnects"] = self.replica_client.status()[
            "replica_reconnects"
        ]
        self.notes["setup_router_reroutes"] = router_status["reroutes"]
        self.notes["setup_router_repoints"] = router_status["repoints"]
        return self.router_client

    def wait_caught_up(self) -> None:
        target = self.leader_client.status()["applied_lsn"]

        def caught_up():
            status = self.replica_client.status()
            return (
                status.get("replica_connected")
                and status.get("replica_applied_lsn", 0) >= target
            )

        deploy.poll_until(caught_up, READY_TIMEOUT_S, "the replica to catch up")

    # -- window --------------------------------------------------------

    def drive(self, client, oracle, seconds: float, warmup: bool = False):
        workload = self.args.workload
        if workload == "routed_writes":
            return self.cycle.run(
                client, seconds, cycles=WARMUP_ROUNDS if warmup else None
            )
        round_ = (
            workloads.INDEX_READS_ROUND
            if workload == "index_reads"
            else workloads.BULK_RESULTS_ROUND
        )
        return workloads.read_loop(
            client, oracle, round_, seconds,
            rounds=WARMUP_ROUNDS if warmup else None,
        )

    def set_tracing(self, state: str) -> None:
        """Install (``on``) or remove (``off``) every process's spans and
        wait until each has acknowledged."""
        if not self.traced:
            return
        for process in self.processes:
            path = self.spans_path(process.name)
            with open(path + ".ctl.tmp", "w") as handle:
                handle.write(state)
            os.replace(path + ".ctl.tmp", path + ".ctl")

        def acknowledged():
            for process in self.processes:
                try:
                    with open(self.spans_path(process.name) + ".ack") as handle:
                        if handle.read() != state:
                            return False
                except FileNotFoundError:
                    return False
            return True

        deploy.poll_until(acknowledged, READY_TIMEOUT_S, f"tracing {state}")
        if state == "on":
            self.client_tracer.install()
        else:
            self.client_tracer.uninstall()

    def reroutes(self) -> int:
        if self.router_client is None:
            return 0
        return self.router_client.status()["reroutes"]

    # -- checks and teardown -------------------------------------------

    def check_replica(self) -> None:
        """Once lag drains, the replica's rows equal the leader's. Both
        servers answer at once (the replica's rows are fetched on a
        second thread)."""
        self.wait_caught_up()
        for query in (
            "MATCH (n) RETURN n, labels(n) AS l, n.k AS k",
            "MATCH (a)-[r]->(b) RETURN a, r, b, type(r) AS t",
        ):
            with ThreadPoolExecutor(max_workers=1) as pool:
                replica = pool.submit(self.replica_client.execute, query)
                leader_rows = self.leader_client.execute(query).rows
                replica_rows = replica.result().rows
            if leader_rows != replica_rows:
                self.problems.append(
                    f"replica rows differ from the leader's for {query!r}"
                )

    def peak_rss_mb(self) -> float:
        return sum(process.peak_rss_mb() for process in self.processes)

    def drain(self) -> None:
        """Close the clients, then SIGTERM router, replica, leader in turn;
        each must drain and exit 0."""
        for client in self.clients:
            client.close()
        self.clients = []
        while self.processes:
            process = self.processes.pop()
            code = process.drain()
            if code != 0 or "drained cleanly" not in process.output():
                self.problems.append(
                    f"{process.name} exited {code} without a clean drain:\n"
                    f"{process.output()[-2000:]}"
                )

    def verify_leader(self) -> dict:
        """Re-open the leader's directory: the store must hold the
        generated graph and every path index its pattern's occurrences.
        The Table 1 anchor runs alongside, in a second process."""
        leader = os.path.join(self.work, "leader")
        check = os.path.join(BENCH_DIR, "check.py")
        checkers = [
            deploy.Process("check", [sys.executable, check, "--data", leader,
                                     "--expected", self.built_path]),
            deploy.Process("anchor", [sys.executable, check, "--data", leader,
                                      "--anchor"]),
        ]
        self.processes += checkers
        report: dict = {}
        for checker in checkers:
            code = checker.wait_for_exit(CHECK_TIMEOUT_S)
            lines = checker.output().strip().splitlines()
            try:
                part = json.loads(lines[-1])
            except (IndexError, ValueError):
                part = {"ok": False}
            if code != 0 or not part.get("ok"):
                self.problems.append(
                    f"{checker.name} failed (exit {code}):\n"
                    f"{checker.output()[-2000:]}"
                )
            report.update(part)
        self.processes = []
        return report

    def abort(self) -> None:
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        for process in self.processes:
            process.kill()
        self.processes = []


def latency_summary(ops, window_s: float, limit_ms: float) -> dict:
    """Median and tail latency over every attempted op — a failed op
    counts as missing every latency limit — and completed ops per second
    of the window."""
    samples = [op.ms if op.ok else limit_ms for op in ops]
    tail_ms, tail_level = tail(samples)
    return {
        "n": len(samples),
        "p50_ms": median(samples),
        "tail_ms": tail_ms,
        "tail_level": tail_level,
        "ops_per_s": sum(op.ok for op in ops) / window_s,
    }


def class_medians(ops) -> dict:
    kinds: dict = {}
    for op in ops:
        if op.ok:
            kinds.setdefault(op.kind, []).append(op.ms)
    return {kind: round(median(values), 2) for kind, values in kinds.items()}


def execute(args, work: str) -> dict:
    run = Run(args, work)
    phases = {}
    mark = time.monotonic()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.monotonic()
        phases[name] = round(now - mark, 2)
        mark = now

    try:
        built = run.build()
        phase("build")
        oracle = workloads.Oracle(built)
        for shape in (
            workloads.INDEX_READS_ROUND
            + workloads.BULK_RESULTS_ROUND
            + tuple(shape for _, shape, _ in workloads.WRITE_CYCLE)
        ):
            oracle.rows(shape)
        # The expected rows live for the whole run; keep the collector
        # from re-scanning them while the client decodes results.
        gc.collect()
        gc.freeze()
        run.cycle = workloads.WriteCycle(oracle, first_key=args.seed * 1_000_000)
        phase("expected_rows")
        client = run.start_serving()
        phase("start")
        if run.traced:
            run.client_tracer = layers.client_tracer(client)
        run.set_tracing("off")
        warm = run.drive(client, oracle, 0, warmup=True)
        phase("warmup")
        if run.traced:
            windows = [run.drive(client, oracle, args.seconds / 2)]
            reroutes = run.reroutes()
            run.set_tracing("on")
            windows.append(run.drive(client, oracle, args.seconds / 2))
            run.set_tracing("off")
            reroutes = run.reroutes() - reroutes
        else:
            windows = [run.drive(client, oracle, args.seconds)]
        phase("window")
        peak_rss = run.peak_rss_mb()
        if args.workload == "routed_writes":
            run.check_replica()
            phase("replica_check")
        run.drain()
        phase("drain")
        checks = run.verify_leader()
        phase("verify")
    except BaseException:
        run.abort()
        raise
    requests = [op for window in windows for op in window.requests]
    failed = [op for op in warm.requests + requests if not op.ok]
    for op in failed[:5]:
        run.problems.append(f"{op.kind} failed: {op.error}")
    summaries = [
        latency_summary(window.ops, window.window_s, args.seconds * 1e3)
        for window in windows
    ]
    run.notes.update(
        {
            "window_s": [round(window.window_s, 3) for window in windows],
            "ops": [summary["n"] for summary in summaries],
            "tail_level": [round(summary["tail_level"], 1) for summary in summaries],
            "class_p50_ms": class_medians(windows[-1].ops + windows[-1].requests),
            "anchor": checks.get("anchor"),
            "phases_s": phases,
        }
    )
    if run.traced:
        spans = {"client": run.client_tracer.spans}
        for name in ("leader", "replica", "router"):
            if os.path.exists(run.spans_path(name)):
                spans[name] = layers.load(run.spans_path(name))
        metrics = layers.per_layer_metrics(windows[-1].requests, spans, reroutes)
        starts = [span for span in spans["leader"] if span[1] == "durability.start"]
        metrics.update(
            {
                "durability.start_s": ((starts[0][3] - starts[0][2]) / 1e9, "s"),
                "pathindex.init_s": (built["init_s"], "s"),
                "pathindex.table1_speedup": (
                    checks.get("anchor", {}).get("speedup", 0.0), "ratio"),
                "replication.catchup_s": (
                    run.notes.get("replication_catchup_s", 0.0), "s"),
                "trace_overhead": (
                    summaries[1]["p50_ms"] / summaries[0]["p50_ms"], "ratio"),
            }
        )
    else:
        summary = summaries[0]
        metrics = {
            "setup_s": (run.setup_s, "s"),
            "op_p50_ms": (summary["p50_ms"], "ms"),
            "op_tail_ms": (summary["tail_ms"], "ms"),
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "peak_rss_mb": (peak_rss, "MiB"),
        }
    return {
        "correct": not run.problems,
        "attempted": len(requests),
        "failed": sum(not op.ok for op in requests),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "problems": run.problems,
        "notes": run.notes,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "server", "__main__.py")):
        print(
            "stackbench: run from the repository root (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    # SIGTERM unwinds like Ctrl-C, so every child is stopped on the way out.
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        result = execute(args, work)
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run is still using it
    problems = result.pop("problems")
    notes = result.pop("notes")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {json.dumps(notes)}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
