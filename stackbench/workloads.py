"""The benchmark's workloads: query shapes, expected rows, closed loops.

Expected results never come from the program under test: they are derived
from the generated graph's topology (written by ``build.py``) by a small
pattern matcher in this module, and cross-checked against the generator's
own construction-exact cardinalities.

Every workload is a closed loop from one client thread over one
connection: the next request is sent only after the previous answer's last
row has been decoded and checked.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional


@dataclass(frozen=True)
class Shape:
    """A directed chain pattern ``(n0:L0)-[r0:T0]->(n1:L1)...`` and what a
    query over it returns: named variables, every variable (``*``) or
    ``count(*)`` (``ret=()``)."""

    name: str
    labels: str
    types: str
    nodes: str
    rels: str
    ret: tuple = ()
    star: bool = False

    def pattern(self) -> str:
        parts = [f"({self.nodes[0]}:{self.labels[0]})"]
        for index, rel_type in enumerate(self.types):
            parts.append(
                f"-[{self.rels[index]}:{rel_type}]->"
                f"({self.nodes[index + 1]}:{self.labels[index + 1]})"
            )
        return "".join(parts)

    def query(self) -> str:
        if self.star:
            projection = "*"
        elif self.ret:
            projection = ", ".join(self.ret)
        else:
            projection = "count(*)"
        return f"MATCH {self.pattern()} RETURN {projection}"

    def columns(self) -> tuple:
        if self.star:
            return tuple(sorted(self.nodes + self.rels))
        return tuple(sorted(self.ret)) if self.ret else ("count(*)",)


# Table 1's query, Table 3's sub-patterns and Table 2's index patterns,
# spelled with the paper's variable names.
FULL = Shape("full", "AAABA", "XXYX", "abcde", "wxyz", star=True)
SUB1_ROWS = Shape("sub1", "AAAB", "XXY", "abcd", "wxy", ret=("a", "d"))
SUB2_ROWS = Shape("sub2", "AABA", "XYX", "bcde", "xyz", ret=("b", "e"))
SUB8_ROWS = Shape("sub8", "BA", "X", "de", "z", ret=("d", "e"))
COUNT_FULL = Shape("count_full", "AAABA", "XXYX", "abcde", "wxyz")
COUNT_SUB1 = Shape("count_sub1", "AAAB", "XXY", "abcd", "wxy")
COUNT_SUB2 = Shape("count_sub2", "AABA", "XYX", "bcde", "xyz")
COUNT_SUB4 = Shape("count_sub4", "AAB", "XY", "bcd", "xy")
COUNT_SUB5 = Shape("count_sub5", "ABA", "YX", "cde", "yz")
COUNT_SUB7 = Shape("count_sub7", "AB", "Y", "cd", "y")
CHAIN = Shape("chain", "ABA", "YX", "abc", "yx", ret=("a", "c"))
EXPAND = Shape("expand", "AA", "X", "ab", "r", ret=("a", "b"))

#: Generator cardinality each count shape must agree with.
CARDINALITY_OF = {
    "count_full": "Full",
    "count_sub1": "Sub1",
    "count_sub2": "Sub2",
    "count_sub4": "Sub4",
    "count_sub5": "Sub5",
    "count_sub7": "Sub7",
    "chain": "Sub5",
    "expand": "Sub6",
}

#: One round of each read workload. Rounds repeat in a fixed order, so
#: every shape's share of the samples is exact. The shares are chosen so
#: that the median and the tail fall inside one cluster of similar
#: latencies, never on the gap between a fast and a slow class: on
#: index_reads the two index-seek row shapes are the fast 2/7 and the
#: five others form one cluster; on bulk_results the chain is 3/4, so the
#: median sits a third of the way into the chain's own spread.
INDEX_READS_ROUND = (
    SUB8_ROWS, FULL, COUNT_SUB7, SUB2_ROWS, SUB1_ROWS, COUNT_SUB5, COUNT_FULL,
)
BULK_RESULTS_ROUND = (CHAIN, EXPAND, CHAIN, CHAIN)

#: §7.1.3 write cycle on a hidden full-pattern path with a fresh literal
#: key: create it, delete its Y relationship, re-create it, then delete
#: the path in two writes (its head node, then the rest). Each write is
#: followed by a read-your-writes count(*) over a paper shape the write
#: changed: (write template, read shape, expected count minus the
#: generated one). Five writes of similar cost, rather than four, keep the
#: median and the tail (~p75) off the boundary between two write kinds.
WRITE_CYCLE = (
    (
        "CREATE (a:A {{k: {key}}})-[:X]->(b:A {{k: {key}}})-[:X]->"
        "(c:A {{k: {key}}})-[:Y]->(d:B {{k: {key}}})-[:X]->(e:A {{k: {key}}})",
        COUNT_FULL,
        1,
    ),
    (
        "MATCH (c:A {{k: {key}}})-[y:Y]->(d:B {{k: {key}}}) DELETE y",
        COUNT_SUB4,
        0,
    ),
    (
        "MATCH (c:A {{k: {key}}}), (d:B {{k: {key}}}) CREATE (c)-[:Y]->(d)",
        COUNT_SUB1,
        1,
    ),
    ("MATCH (a:A {{k: {key}}}) DETACH DELETE a", COUNT_FULL, 0),
    ("MATCH (n {{k: {key}}}) DETACH DELETE n", COUNT_SUB2, 0),
)


class Oracle:
    """Expected rows for every shape, from the generated topology."""

    def __init__(self, built: dict) -> None:
        self.labels = built["node_labels"]
        self.cardinalities = built["expected_cardinalities"]
        self.out: dict = defaultdict(lambda: defaultdict(list))
        self.by_type: dict = defaultdict(list)
        for rel_id, start, end, rel_type in built["rels"]:
            self.out[rel_type][start].append((rel_id, end))
            self.by_type[rel_type].append((rel_id, start, end))
        self._rows: dict = {}

    def matches(self, shape: Shape):
        """Every occurrence of ``shape``'s chain as ``(nodes, rels)``."""
        labels = self.labels
        first_type = shape.types[0]
        partial = [
            ((start, end), (rel_id,))
            for rel_id, start, end in self.by_type[first_type]
            if labels[start] == shape.labels[0] and labels[end] == shape.labels[1]
        ]
        for step in range(1, len(shape.types)):
            adjacency = self.out[shape.types[step]]
            want = shape.labels[step + 1]
            grown = []
            for nodes, rels in partial:
                for rel_id, end in adjacency.get(nodes[-1], ()):
                    if labels[end] == want and rel_id not in rels:
                        grown.append((nodes + (end,), rels + (rel_id,)))
            partial = grown
        return partial

    def rows(self, shape: Shape):
        """Sorted expected row tuples (columns in :meth:`Shape.columns`
        order), or ``((count,),)`` for a count shape."""
        cached = self._rows.get(shape.name)
        if cached is not None:
            return cached
        matches = self.matches(shape)
        if not shape.ret and not shape.star:
            rows = ((len(matches),),)
        else:
            columns = shape.columns()
            rows = []
            for nodes, rels in matches:
                binding = dict(zip(shape.nodes, nodes))
                binding.update(zip(shape.rels, rels))
                rows.append(tuple(binding[column] for column in columns))
            rows.sort()
        expected = self.cardinalities.get(CARDINALITY_OF.get(shape.name, ""))
        if expected is not None and len(matches) != expected:
            raise RuntimeError(
                f"oracle found {len(matches)} {shape.name} matches; the "
                f"generator guarantees {expected}"
            )
        self._rows[shape.name] = rows
        return rows


@dataclass
class Op:
    """One timed request: class, monotonic start/end (ns), outcome."""

    kind: str
    start_ns: int
    end_ns: int
    ok: bool
    rows: int = 0
    page_hits: int = 0
    page_misses: int = 0
    error: str = ""

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


@dataclass
class LoopResult:
    """Timed ops of a loop; ``requests`` holds every request sent (for
    read loops, the ops themselves)."""

    ops: list = field(default_factory=list)
    requests: list = field(default_factory=list)
    window_s: float = 0.0


def _timed(client, query: str, kind: str):
    started = time.monotonic_ns()
    try:
        outcome = client.execute(query)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
        return Op(kind, started, time.monotonic_ns(), False,
                  error=f"{type(exc).__name__}: {exc}"), None
    ended = time.monotonic_ns()
    return Op(
        kind,
        started,
        ended,
        True,
        rows=len(outcome.rows),
        page_hits=outcome.page_cache_hits,
        page_misses=outcome.page_cache_misses,
    ), outcome


def _check(op: Op, outcome, shape: Shape, expected) -> None:
    """Fail ``op`` unless its rows are exactly ``expected`` (as a bag)."""
    if outcome is None:
        return
    columns = shape.columns()
    if sorted(outcome.columns) != list(columns):
        op.ok = False
        op.error = f"{shape.name}: columns {outcome.columns}, expected {columns}"
        return
    observed = sorted(
        tuple(row[column] for column in columns) for row in outcome.rows
    )
    if tuple(observed) != tuple(expected):
        op.ok = False
        op.error = (
            f"{shape.name}: {len(observed)} rows differ from the "
            f"{len(expected)} expected"
        )


def read_loop(client, oracle: Oracle, round_: tuple, seconds: float,
              rounds: Optional[int] = None) -> LoopResult:
    """Closed loop over ``round_`` for ``seconds`` (or exactly ``rounds``
    rounds, for warm-up)."""
    result = LoopResult()
    started = time.monotonic()
    deadline = started + seconds
    completed = 0
    while True:
        for shape in round_:
            op, outcome = _timed(client, shape.query(), shape.name)
            _check(op, outcome, shape, oracle.rows(shape))
            result.ops.append(op)
            result.requests.append(op)
            if rounds is None and time.monotonic() >= deadline:
                result.window_s = time.monotonic() - started
                return result
        completed += 1
        if rounds is not None and completed >= rounds:
            result.window_s = time.monotonic() - started
            return result


class WriteCycle:
    """The §7.1.3 write cycle with a fresh literal key per cycle, so every
    write is new query text (parse + plan on every write).

    The timed op is the write, from send to its durable ack; the
    read-your-writes read that follows each write is checked and kept in
    ``requests`` but not timed as an op."""

    def __init__(self, oracle: Oracle, first_key: int) -> None:
        self.oracle = oracle
        self.next_key = first_key

    def run(self, client, seconds: float, cycles: Optional[int] = None) -> LoopResult:
        result = LoopResult()
        started = time.monotonic()
        deadline = started + seconds
        completed = 0
        while True:
            key = self.next_key
            self.next_key += 1
            for step, (template, shape, delta) in enumerate(WRITE_CYCLE, 1):
                write, _ = _timed(client, template.format(key=key), f"write{step}")
                base = self.oracle.rows(shape)[0][0]
                read, outcome = _timed(client, shape.query(), f"read{step}")
                _check(read, outcome, shape, ((base + delta,),))
                result.requests += [write, read]
                result.ops.append(write)
            completed += 1
            if (cycles is not None and completed >= cycles) or (
                cycles is None and time.monotonic() >= deadline
            ):
                result.window_s = time.monotonic() - started
                return result
