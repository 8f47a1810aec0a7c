"""Which functions of each layer get spans, and the per-layer metrics.

Each serving process is traced by ``launch.py``, which calls
:func:`server_tracer` or :func:`router_tracer`; the benchmark process
traces its own client with :func:`client_tracer`. After the run
:func:`per_layer_metrics` turns the dumped spans into per-op figures.

Self time: a span's duration minus that of its direct children. The one
cross-thread edge — the server's event loop awaiting a service worker —
is restored by making each ``service.run`` span a child of the
``server.run`` span that contains it. A row-drain span counts only its
busy time (inside the executor's ``next``). Spans are attributed to the
client request whose interval contains their start, and only spans under
a request-handling root count, so the router's health polls, replication
shipping and STATUS calls stay out of the per-request sums.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict

from spans import TimedSocket, Tracer

#: Spans that wait for another process rather than do work; they are
#: subtracted from their parent's self time but are not a layer's work.
WAITS = {"client.recv_wait", "router.recv_wait"}
#: Processes a client request waits on, whose self times are summed.
CRITICAL_PATH = ("client", "router", "leader")
#: Roots of request handling, per process kind.
ROOTS = {
    "leader": {"server.run", "server.pull"},
    "router": {"router.run", "router.relay"},
}


def _rows_tracer(tracer: Tracer):
    def factory(original):
        def execute(self, *args, **kwargs):
            if not tracer.installed:
                return original(self, *args, **kwargs)
            rows, profile = original(self, *args, **kwargs)
            return tracer.timed_rows(rows, "runtime.execute"), profile

        return execute

    return factory


def server_tracer() -> Tracer:
    from repro import wire
    from repro.db import database
    from repro.db.plancache import PlanCache
    from repro.durability.engine import DurabilityEngine
    from repro.durability.wal import WriteAheadLog
    from repro.pathindex.maintenance import PathIndexMaintainer
    from repro.planner.planner import Planner
    from repro.runtime.executor import Executor
    from repro.server.server import _Session
    from repro.service.service import QueryService
    from repro.tx.transaction import Transaction

    tracer = Tracer()
    patch = tracer.patch
    patch(_Session, "_on_run", "server.run")
    patch(_Session, "_on_pull", "server.pull")
    patch(wire, "encode_frame", "wire.encode",
          lambda args, kwargs, result: {"tag": args[0], "bytes": len(result)})
    patch(QueryService, "_run_ticket", "service.run",
          lambda args, kwargs, result: {
              "submitted_ns": int(args[1].submitted_at * 1e9)})
    patch(QueryService, "_drain", "db.materialize")
    patch(database.GraphDatabase, "_planned", "db.prepare")
    patch(PlanCache, "lookup", "db.plan_cache",
          lambda args, kwargs, result: {"hit": result is not None})
    patch(database, "parse", "cypher.parse")
    patch(database, "analyze", "cypher.parse")
    patch(database, "build_query_parts", "planner.plan")
    patch(Planner, "plan_part", "planner.plan")
    tracer.replace(Executor, "execute", _rows_tracer(tracer))
    patch(Executor, "compile_artifact", "runtime.codegen")
    patch(database.GraphDatabase, "vacuum_versions", "storage.version_gc")
    patch(PathIndexMaintainer, "before_destructive", "pathindex.maintenance")
    patch(PathIndexMaintainer, "after_apply", "pathindex.maintenance")
    patch(Transaction, "_commit", "tx.commit")
    patch(DurabilityEngine, "log_commit", "durability.log_commit",
          lambda args, kwargs, result: {
              "lsn": args[0].captured_lsn(),
              "changes": len(args[0].db.maintainer.last_changes)})
    patch(DurabilityEngine, "_append", "durability.append",
          lambda args, kwargs, result: {"bytes": len(args[1])})
    patch(WriteAheadLog, "fsync", "durability.fsync")
    patch(DurabilityEngine, "checkpoint", "durability.checkpoint")
    patch(DurabilityEngine, "open_database", "durability.start")
    patch(DurabilityEngine, "apply_replicated", "replication.apply",
          lambda args, kwargs, result: {"lsn": result})
    return tracer


def router_tracer() -> Tracer:
    from repro import wire
    from repro.router import router

    tracer = Tracer()
    patch = tracer.patch
    patch(router._Session, "_on_run", "router.run")
    patch(router._Session, "_relay_result", "router.relay")
    patch(router._Session, "_run_read", "router.read")
    patch(router._Session, "_run_on_leader", "router.leader")

    # Backend sockets are timed for the process's whole life (a timed
    # socket records only while the tracer is installed), because the
    # session's backend connection opens before the traced stretch.
    original_init = router._Backend.__init__

    def __init__(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.sock = TimedSocket(self.sock, tracer, "router")

    router._Backend.__init__ = __init__
    patch(wire, "encode_frame", "wire.encode",
          lambda args, kwargs, result: {"tag": args[0], "bytes": len(result)})
    return tracer


def client_tracer(client) -> Tracer:
    """Time the benchmark client's socket waits and sends."""
    tracer = Tracer()
    client._sock = TimedSocket(client._sock, tracer, "client")
    return tracer


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


class Process:
    """Spans of one process, indexed for self time and attribution."""

    def __init__(self, kind: str, spans: list) -> None:
        self.kind = kind
        self.spans = {span[0]: tuple(span) for span in spans}
        self.children = defaultdict(list)
        if kind == "leader":
            self._adopt_service_spans()
        for span_id, span in self.spans.items():
            if span[4] in self.spans:
                self.children[span[4]].append(span_id)

    def _adopt_service_spans(self) -> None:
        runs = sorted(
            (span for span in self.spans.values() if span[1] == "server.run"),
            key=lambda span: span[2],
        )
        for span_id, span in list(self.spans.items()):
            if span[1] != "service.run" or span[4] != -1:
                continue
            for run in runs:
                if run[2] <= span[2] <= run[3]:
                    self.spans[span_id] = span[:4] + (run[0],) + span[5:]
                    break

    @staticmethod
    def length(span) -> int:
        if span[1] == "runtime.execute":
            return span[5]["busy_ns"]
        return span[3] - span[2]

    def self_ns(self, span) -> int:
        return self.length(span) - sum(
            self.length(self.spans[child]) for child in self.children[span[0]]
        )

    def root(self, span):
        while span[4] in self.spans:
            span = self.spans[span[4]]
        return span

    def ancestors(self, span):
        names = set()
        while span[4] in self.spans:
            span = self.spans[span[4]]
            names.add(span[1])
        return names

    def request_spans(self):
        """Spans under a request-handling root (all spans for the client)."""
        roots = ROOTS.get(self.kind)
        for span in self.spans.values():
            if roots is None or self.root(span)[1] in roots:
                yield span


def _attribute(requests, spans):
    """Map each span to the index of the request containing its start."""
    starts = [request.start_ns for request in requests]
    for span in spans:
        position = bisect.bisect_right(starts, span[2]) - 1
        if position >= 0 and span[2] <= requests[position].end_ns:
            yield position, span


def load(path: str) -> list:
    with open(path) as handle:
        return json.load(handle)


def per_layer_metrics(requests, processes: dict, reroutes: int) -> dict:
    """Per-layer metrics over the traced ``requests`` (client ops).

    ``processes`` maps a kind ("client", "leader", and for routed runs
    "router" and "replica") to its spans; ``reroutes`` is the router's
    re-route count over the traced stretch. Returns ``{name: (value,
    unit)}``."""
    procs = {kind: Process(kind, spans) for kind, spans in processes.items()}
    reads = [request for request in requests if not request.kind.startswith("write")]
    writes = [request for request in requests if request.kind.startswith("write")]
    n_req = max(1, len(requests))
    n_reads = max(1, len(reads))
    n_writes = len(writes)
    op_ns = sum(request.end_ns - request.start_ns for request in requests)

    totals = defaultdict(int)  # name -> summed inclusive ns (request-scoped)
    self_totals = defaultdict(int)  # process kind -> summed self ns
    counts = defaultdict(int)
    read_index = {id(request) for request in reads}
    for kind in CRITICAL_PATH:
        proc = procs.get(kind)
        if proc is None:
            continue
        for position, span in _attribute(requests, proc.request_spans()):
            name = span[1]
            attrs = span[5] or {}
            in_maintenance = "pathindex.maintenance" in proc.ancestors(span)
            if name not in WAITS:
                self_totals[kind] += proc.self_ns(span)
            key = f"{kind}:{name}"
            if name in ("planner.plan", "runtime.execute") and in_maintenance:
                key += ":maintenance"
            totals[key] += proc.length(span)
            if name == "wire.encode":
                if id(requests[position]) in read_index and kind == "leader":
                    counts["read_frames"] += 1
                if attrs.get("tag") == 0x71:  # RECORD
                    counts["record_bytes"] += attrs["bytes"]
            elif name == "db.plan_cache":
                counts["plan_lookups"] += 1
                counts["plan_hits"] += bool(attrs.get("hit"))
            elif name == "service.run":
                totals["service.queue"] += span[2] - attrs["submitted_ns"]
            elif name == "durability.append":
                counts["wal_bytes"] += attrs["bytes"]
            elif name == "durability.log_commit":
                counts["index_changes"] += attrs["changes"]
            elif name == "router.read":
                counts["routed_reads"] += 1
                if any(
                    proc.spans[child][1] == "router.leader"
                    for child in proc.children[span[0]]
                ):
                    counts["leader_reads"] += 1
            elif name in ("server.run", "server.pull", "router.run",
                          "router.relay", "router.read", "router.leader"):
                totals[f"{kind}:self:{name.split('.')[0]}"] += proc.self_ns(span)

    def per(key_ns, denominator):
        return totals[key_ns] / 1e6 / denominator if denominator else 0.0

    client_self = op_ns - totals["client:client.recv_wait"]
    misses = counts["plan_lookups"] - counts["plan_hits"]
    rows = sum(request.rows for request in reads)
    touches = sum(request.page_hits + request.page_misses for request in reads)
    hits = sum(request.page_hits for request in reads)
    leader_spans = procs["leader"].spans.values()
    gc_spans = [span for span in leader_spans if span[1] == "storage.version_gc"]
    gc_runs = len(gc_spans)
    checkpoint_spans = [
        span for span in leader_spans if span[1] == "durability.checkpoint"
    ]
    # The client's own work is every moment of an op it is not waiting on
    # its socket; the router's and leader's are their spans' self times.
    unaccounted = (
        (op_ns - client_self - self_totals["router"] - self_totals["leader"])
        / op_ns if op_ns else 0.0
    )
    metrics = {
        "client.decode_ms": (
            (client_self - totals["client:client.send"]) / 1e6 / n_req, "ms"),
        "client.recv_wait_ms": (per("client:client.recv_wait", n_req), "ms"),
        "wire.encode_ms": (
            (totals["leader:wire.encode"] + totals["router:wire.encode"])
            / 1e6 / n_req, "ms"),
        "wire.bytes_per_row": (
            counts["record_bytes"] / rows if rows else 0.0, "B"),
        "server.stream_ms": (
            (totals["leader:self:server"] - totals["service.queue"])
            / 1e6 / n_req, "ms"),
        "server.frames_per_read": (counts["read_frames"] / n_reads, "count"),
        "router.relay_ms": (totals["router:self:router"] / 1e6 / n_req, "ms"),
        "router.replica_read_share": (
            (counts["routed_reads"] - counts["leader_reads"])
            / counts["routed_reads"] if counts["routed_reads"] else 0.0,
            "ratio"),
        "router.reroutes_per_read": (
            reroutes / n_reads, "count"),
        "service.queue_ms": (per("service.queue", n_req), "ms"),
        "cypher.parse_ms": (per("leader:cypher.parse", misses), "ms"),
        "planner.plan_ms": (per("leader:planner.plan", misses), "ms"),
        "db.plan_cache_hit_ratio": (
            counts["plan_hits"] / counts["plan_lookups"]
            if counts["plan_lookups"] else 0.0, "ratio"),
        "db.materialize_ms": (
            (totals["leader:db.materialize"] - _drained_busy(procs, requests))
            / 1e6 / n_reads, "ms"),
        "runtime.execute_ms": (per("leader:runtime.execute", n_req), "ms"),
        "runtime.codegen_ms": (per("leader:runtime.codegen", n_req), "ms"),
        "storage.page_touches_per_row": (touches / rows if rows else 0.0, "count"),
        "storage.page_hit_ratio": (hits / touches if touches else 0.0, "ratio"),
        "storage.version_gc_ms": (
            sum(span[3] - span[2] for span in gc_spans) / 1e6 / gc_runs
            if gc_runs else 0.0, "ms"),
        "storage.version_gc_runs": (gc_runs, "count"),
        "pathindex.maintenance_ms": (
            per("leader:pathindex.maintenance", n_writes), "ms"),
        "pathindex.entries_changed_per_write": (
            counts["index_changes"] / n_writes if n_writes else 0.0, "count"),
        "tx.commit_ms": (_commit_self(procs, requests) / 1e6 / n_writes
                         if n_writes else 0.0, "ms"),
        "durability.wal_append_ms": (
            per("leader:durability.log_commit", n_writes), "ms"),
        "durability.fsync_ms": (per("leader:durability.fsync", n_writes), "ms"),
        "durability.wal_bytes_per_write": (
            counts["wal_bytes"] / n_writes if n_writes else 0.0, "B"),
        "durability.checkpoints": (len(checkpoint_spans), "count"),
        "durability.checkpoint_ms": (
            sum(span[3] - span[2] for span in checkpoint_spans) / 1e6
            / len(checkpoint_spans) if checkpoint_spans else 0.0, "ms"),
        "replication.apply_ms": (_apply_ms(procs), "ms"),
        "replication.lag_ms": (_replication(procs), "ms"),
        "unaccounted_share": (unaccounted, "ratio"),
    }
    return metrics


def _drained_busy(procs, requests) -> int:
    """Executor busy time spent inside ``db.materialize`` drains."""
    proc = procs.get("leader")
    if proc is None:
        return 0
    return sum(
        proc.length(span)
        for _position, span in _attribute(requests, proc.request_spans())
        if span[1] == "runtime.execute"
        and proc.spans.get(span[4], (None, ""))[1] == "db.materialize"
    )


def _commit_self(procs, requests) -> int:
    proc = procs.get("leader")
    if proc is None:
        return 0
    return sum(
        proc.self_ns(span)
        for _position, span in _attribute(requests, proc.request_spans())
        if span[1] == "tx.commit"
    )


def _replication(procs) -> float:
    """Mean leader-commit → replica-applied delay, matched by LSN."""
    if "replica" not in procs or "leader" not in procs:
        return 0.0
    committed = {
        span[5]["lsn"]: span[3]
        for span in procs["leader"].spans.values()
        if span[1] == "durability.log_commit" and span[5] and span[5]["lsn"]
    }
    lags = [
        span[3] - committed[span[5]["lsn"]]
        for span in procs["replica"].spans.values()
        if span[1] == "replication.apply" and span[5]
        and span[5]["lsn"] in committed
    ]
    return sum(lags) / len(lags) / 1e6 if lags else 0.0


def _apply_ms(procs) -> float:
    if "replica" not in procs:
        return 0.0
    spans = [
        span for span in procs["replica"].spans.values()
        if span[1] == "replication.apply"
    ]
    return (
        sum(span[3] - span[2] for span in spans) / len(spans) / 1e6
        if spans else 0.0
    )
