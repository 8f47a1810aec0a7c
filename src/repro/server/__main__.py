"""``python -m repro.server`` — the deployable network entrypoint.

Usage::

    python -m repro.server --data mydb/ --port 7687
    python -m repro.server --port 0          # in-memory db, ephemeral port

Opens a (durable, when ``--data`` is given) database, wraps it in a
:class:`~repro.service.QueryService`, and serves the binary protocol until
SIGTERM/SIGINT, then drains gracefully: the listener closes, busy sessions
finish their current request, stragglers are cancelled through their
cooperative tokens, and the service sheds what never started.

The first line printed to stdout is ``listening on HOST:PORT`` so wrappers
(CI smoke, benchmarks) can discover an ephemeral port; the last is
``server drained cleanly``.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Optional

from repro import GraphDatabase
from repro.replication import Replica, ReplicaConfig
from repro.server.server import Server, ServerConfig
from repro.service import QueryService, ServiceConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="pathindex-repro network server (binary protocol)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=7687, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--data",
        help="durable database directory (WAL + checkpoints); omit for an "
        "in-memory database",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="query service worker threads"
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="admission-control queue depth before shedding",
    )
    parser.add_argument(
        "--default-deadline-s",
        type=float,
        help="deadline applied to queries that specify none",
    )
    parser.add_argument(
        "--auth-token",
        help="require this token in each session's HELLO",
    )
    parser.add_argument(
        "--chunk-rows",
        type=int,
        default=64,
        help="rows per streamed RECORD frame",
    )
    parser.add_argument(
        "--replica-of",
        metavar="HOST:PORT",
        help="run as a read-only replica tailing this leader's WAL "
        "(requires --data); writes are rejected with the leader's address",
    )
    parser.add_argument(
        "--leader-auth-token",
        help="auth token for the leader connection (defaults to "
        "--auth-token)",
    )
    parser.add_argument(
        "--promote",
        action="store_true",
        help="offline promotion: open the (former replica) --data "
        "directory, replay its WAL tail through recovery, bump the "
        "persisted leader epoch, and serve as the new leader",
    )
    return parser


async def _serve(server: Server, host_hint: str) -> None:
    host, port = await server.start()
    print(f"listening on {host}:{port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    await stop.wait()
    print("draining...", flush=True)
    await server.drain()


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    replica = None
    if args.promote and args.replica_of:
        parser.error("--promote conflicts with --replica-of: a promoted "
                     "node serves as the leader")
    if args.promote and not args.data:
        parser.error("--promote requires --data (the former replica's "
                     "durable directory)")
    if args.replica_of:
        if not args.data:
            parser.error("--replica-of requires --data (the replica's own "
                         "durable directory)")
        replica = Replica(
            args.data,
            args.replica_of,
            config=ReplicaConfig(
                auth_token=args.leader_auth_token or args.auth_token
            ),
        )
        db = replica.db
    elif args.data:
        # Opening replays the WAL tail through recovery; --promote then
        # bumps the persisted epoch so the old leader is fenced out.
        db = GraphDatabase.open(args.data)
        if args.promote:
            epoch = db.durability.promote()
            print(
                f"promoted to leader at epoch {epoch} "
                f"(divergence LSN {db.durability.promote_lsn})",
                flush=True,
            )
    else:
        db = GraphDatabase()
    service = QueryService(
        db,
        ServiceConfig(
            max_concurrency=args.workers,
            max_pending=args.max_pending,
            default_deadline_s=args.default_deadline_s,
        ),
    )
    server = Server(
        service,
        ServerConfig(
            host=args.host,
            port=args.port,
            auth_token=args.auth_token,
            chunk_rows=args.chunk_rows,
            replica_of=args.replica_of,
        ),
    )
    if replica is not None:
        # Snapshot catch-up replaces the database wholesale; route the
        # swap through the service so its workers see the new one.
        replica.attach(on_swap=service.swap_database, metrics=service.metrics)
        server.replica = replica
        replica.start()
    try:
        asyncio.run(_serve(server, args.host))
    finally:
        # Drain already cancelled straggling sessions' tokens; this sheds
        # the queue and cancels anything still executing, so shutdown can
        # never hang behind a slow query.
        if replica is not None:
            replica.stop()
        service.shutdown(cancel_pending=True)
        service.db.close()
    print("server drained cleanly", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
