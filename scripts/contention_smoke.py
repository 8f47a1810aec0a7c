"""CI gate for MVCC read latency under write contention.

Boots ``python -m repro.server`` as a real subprocess, seeds a small
graph over the wire, then measures reader latency twice with 8 reader
connections: first with the writers idle (baseline), then with 2 writer
connections committing continuously. Snapshot reads never take a lock,
so a concurrent writer may cost readers GIL share but must not serialize
them behind commits: the gate fails if contended reader p95 exceeds
``P95_BUDGET``x the writer-idle baseline p95. It also fails on any row
drift — every read must return the full seeded row set regardless of
concurrent commits.

Run from the repo root::

    PYTHONPATH=src python scripts/contention_smoke.py
"""

import os
import sys
import tempfile
import threading
import time

from _smoke_common import SmokeProcess, connect_with_backoff

from repro.client import Client  # noqa: E402
from repro.service.metrics import exact_percentile  # noqa: E402

READERS = 8
WRITERS = 2
SEED_ROWS = 120
READS_PER_PHASE = 12
P95_BUDGET = 3.0
READ_QUERY = "MATCH (n:Seed) RETURN n.i AS i"


def read_phase(host: str, port: int, failures: list) -> list:
    """8 concurrent readers, each timing READS_PER_PHASE full scans.

    Every scan must return the complete seeded row set; returns the
    pooled per-query latencies.
    """
    latencies: list[list[float]] = [[] for _ in range(READERS)]
    expected = sorted(range(SEED_ROWS))

    def reader(slot: int) -> None:
        try:
            with Client(host, port) as client:
                for _ in range(READS_PER_PHASE):
                    started = time.perf_counter()
                    outcome = client.execute(READ_QUERY)
                    latencies[slot].append(time.perf_counter() - started)
                    got = sorted(row["i"] for row in outcome.rows)
                    if got != expected:
                        raise AssertionError(
                            f"reader {slot} saw {len(got)} rows, "
                            f"expected {SEED_ROWS}"
                        )
        except Exception as exc:  # noqa: BLE001 - surfaced in main
            failures.append(("reader", slot, exc))

    threads = [
        threading.Thread(target=reader, args=(slot,)) for slot in range(READERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    return sorted(value for bucket in latencies for value in bucket)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "db")
        smoke = SmokeProcess(
            ["-m", "repro.server", "--data", data_dir, "--port", "0"]
        )
        host, port = smoke.host, smoke.port
        try:
            with connect_with_backoff(host, port, process=smoke) as client:
                for i in range(SEED_ROWS):
                    client.execute(f"CREATE (:Seed {{i: {i}}})")

            failures: list = []
            baseline = read_phase(host, port, failures)
            if failures:
                for role, slot, exc in failures:
                    print(f"{role} {slot} failed: {exc!r}", file=sys.stderr)
                return 1

            stop = threading.Event()
            commits = [0] * WRITERS

            def writer(slot: int) -> None:
                try:
                    with Client(host, port) as client:
                        marker = 0
                        while not stop.is_set():
                            client.execute(
                                f"CREATE (:Churn {{w: {slot}, m: {marker}}})"
                            )
                            marker += 1
                            commits[slot] += 1
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append(("writer", slot, exc))

            writer_threads = [
                threading.Thread(target=writer, args=(slot,))
                for slot in range(WRITERS)
            ]
            for thread in writer_threads:
                thread.start()
            try:
                contended = read_phase(host, port, failures)
            finally:
                stop.set()
                for thread in writer_threads:
                    thread.join(timeout=60)
            if failures:
                for role, slot, exc in failures:
                    print(f"{role} {slot} failed: {exc!r}", file=sys.stderr)
                return 1
        finally:
            returncode, output = smoke.drain()

        if returncode != 0:
            print(f"server exited {returncode}:\n{output}", file=sys.stderr)
            return 1

    idle_p95 = exact_percentile(baseline, 0.95)
    contended_p95 = exact_percentile(contended, 0.95)
    total_commits = sum(commits)
    if total_commits == 0:
        print("writers never committed; contention never happened", file=sys.stderr)
        return 1
    ratio = contended_p95 / idle_p95 if idle_p95 > 0 else float("inf")
    verdict = "OK" if ratio <= P95_BUDGET else "FAIL"
    print(
        f"contention smoke {verdict}: reader p95 {idle_p95 * 1e3:.1f} ms idle "
        f"-> {contended_p95 * 1e3:.1f} ms under {WRITERS} writers "
        f"({ratio:.2f}x, budget {P95_BUDGET:.1f}x, "
        f"{total_commits} concurrent commits, {READERS} readers)"
    )
    if ratio > P95_BUDGET:
        print(
            "reader tail latency under write load blew the budget — "
            "snapshot reads are waiting on writers somewhere",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
