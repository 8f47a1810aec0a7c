"""Differential tests: the compiled (codegen) engine vs the row engine.

The compiled engine generates one fused Python pipeline function per query
part (``repro.runtime.compiled``) and serves every query; the
tuple-at-a-time row engine is the reference oracle. For the paper's query
shapes, random graphs, and the core language features the compiled engine
must produce identical result rows in identical order, identical
per-operator profile counts, and identical max-intermediate-cardinality at
the default morsel size (``tests/test_batched_runtime.py`` forces sizes
that split every operator's output). Deadline aborts and write rollbacks
must work under the service, and a plan node without a compiled form must
fail loudly.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    GraphDatabase,
    PlannerHints,
    QueryService,
    QueryTimeoutError,
    ServiceConfig,
)
from repro.datasets import (
    CorrelatedConfig,
    GeoSpeciesConfig,
    YagoConfig,
    correlated,
    generate_correlated,
    generate_geospecies,
    generate_yago,
    geospecies,
    yago,
)
from repro.errors import PlannerError
from repro.planner import plans as plan_nodes
from repro.runtime import Executor
from repro.runtime.compiled import PRODUCERS, CompiledUnsupported
from repro.service.cancellation import CancellationToken

BASELINE = PlannerHints(use_path_indexes=False)


def forced(name):
    return PlannerHints(
        required_indexes=frozenset({name}),
        allowed_indexes=frozenset({name}),
        path_index_cost_factor=1e-9,
    )


def run_both(db, query, hints=None):
    """Execute on the row oracle and the served (compiled) engine; assert
    full equivalence; return the rows.

    The compiled engine counts operator output per row exactly like the
    row engine, so profiles are compared exactly — including LIMIT
    queries, where upstream operators must produce only the rows the row
    engine's lazy pull consumes.
    """
    row_result = db.execute(query, hints, execution_mode="row")
    row_rows = row_result.to_list()
    compiled_result = db.execute(query, hints)
    compiled_rows = compiled_result.to_list()
    assert compiled_rows == row_rows, query
    # Both executions share the cached plan objects, so profiles are
    # directly comparable per plan node.
    row_profile = row_result.profile.operators.rows
    compiled_profile = compiled_result.profile.operators.rows
    assert compiled_profile == row_profile, query
    assert (
        compiled_result.max_intermediate_cardinality
        == row_result.max_intermediate_cardinality
    ), query
    return row_rows


def run_with_morsel_size(db, query, morsel_size, hints=None):
    """Read-only compiled execution with a forced output batch size."""
    cached = db.prepare(query, hints)
    executor = Executor(db.store, db.indexes, cached.analyzed.variable_kinds)
    rows, profile = executor.execute(
        cached.planned_parts, mode="compiled", morsel_size=morsel_size
    )
    projected = [
        {column: row.values.get(column) for column in cached.columns}
        for row in rows
    ]
    return projected, profile


# ----------------------------------------------------------------------
# Paper query shapes
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def correlated_db():
    db = GraphDatabase()
    generate_correlated(db, CorrelatedConfig(paths=40, noise_factor=6))
    db.create_path_index("Full", correlated.FULL_PATTERN)
    db.create_path_index("Sub1", correlated.SUB_PATTERNS["Sub1"])
    db.create_path_index("Sub6", correlated.SUB_PATTERNS["Sub6"])
    return db


def test_correlated_shapes_agree(correlated_db):
    db = correlated_db
    for hints in (BASELINE, None, forced("Full"), forced("Sub1"), forced("Sub6")):
        rows = run_both(db, correlated.FULL_QUERY, hints)
        assert len(rows) == 40


def test_yago_shapes_agree():
    db = GraphDatabase()
    config = YagoConfig(
        settlements=6,
        owning_settlements=3,
        persons=300,
        born_per_other=8,
        celebrity_in_affiliations=25,
        hub_artifacts_per_owned=3,
        hub_pool=8,
        targets_per_hub=4,
        core_artifacts=40,
        core_noise_edges=400,
        junk_settlements=4,
        junk_owned_per_settlement=25,
    )
    generate_yago(db, config)
    db.create_path_index("Full", yago.FULL_PATTERN)
    for hints in (
        BASELINE,
        PlannerHints(use_path_indexes=False, manual_expand_chain=yago.MANUAL_CHAIN),
        PlannerHints(index_seed_chain=("Full", ())),
    ):
        rows = run_both(db, yago.FULL_QUERY, hints)
        assert rows


def test_geospecies_shapes_agree():
    db = GraphDatabase()
    generate_geospecies(
        db, GeoSpeciesConfig(species=40, locations=10, expected_per_species=2)
    )
    db.create_path_index("Full", geospecies.FULL_PATTERN)
    db.create_path_index("Sub", geospecies.SUB_PATTERN)
    for hints in (BASELINE, forced("Full"), forced("Sub")):
        rows = run_both(db, geospecies.FULL_QUERY, hints)
        assert rows


def test_prefix_seek_compiles():
    """PathIndexPrefixSeek: anchor + prefix-bounded suffix scan."""
    db = GraphDatabase()
    anchor = db.create_node(["A"])
    b0 = db.create_node(["B"])
    db.create_relationship(anchor, b0, "R")
    c0 = db.create_node(["C"])
    db.create_relationship(b0, c0, "S")
    for _ in range(200):
        b = db.create_node(["B"])
        c = db.create_node(["C"])
        db.create_relationship(b, c, "S")
    db.create_path_index("suffix", "(:B)-[:S]->(:C)")
    query = "MATCH (a:A)-[r:R]->(b:B)-[s:S]->(c:C) RETURN id(a) AS a, id(c) AS c"
    hints = PlannerHints(required_indexes=frozenset({"suffix"}))
    assert "PathIndexPrefixSeek" in db.explain(query, hints)
    rows = run_both(db, query, hints)
    assert rows == [{"a": anchor, "c": c0}]


# ----------------------------------------------------------------------
# Language features across projection boundaries
# ----------------------------------------------------------------------


def build_feature_db() -> GraphDatabase:
    db = GraphDatabase()
    rng = random.Random(7)
    nodes = []
    for i in range(30):
        labels = rng.sample(("A", "B"), rng.randrange(0, 3))
        nodes.append(db.create_node(labels, {"v": rng.randrange(5), "i": i}))
    for _ in range(80):
        db.create_relationship(
            rng.choice(nodes), rng.choice(nodes), rng.choice(("X", "Y"))
        )
    return db


@pytest.fixture(scope="module")
def feature_db():
    return build_feature_db()


FEATURE_QUERIES = [
    "MATCH (n:A) RETURN n.v AS v ORDER BY n.v, n.i",
    "MATCH (n:A) RETURN DISTINCT n.v AS v",
    "MATCH (n:A) RETURN count(*) AS c",
    "MATCH (a:A)-[x:X]->(b) RETURN a.v AS v, count(b) AS degree",
    "MATCH (a:A)-[x:X]->(b) RETURN a.v AS v, collect(b.v) AS vs, "
    "sum(b.v) AS s, min(b.v) AS lo, max(b.v) AS hi",
    "MATCH (a:A) WITH a WHERE a.v > 1 MATCH (a)-[x:X]->(b) RETURN a.i AS i, b.i AS j",
    "MATCH (a:A)-[x:X]->(b) WITH a, b MATCH (b)-[y:Y]->(c) RETURN a.i AS i, c.i AS k",
    "MATCH (a:A), (b:B) WHERE a.v = b.v RETURN a.i AS i, b.i AS j",
    "MATCH (a:A)-[x:X]->(b)<-[y:X]-(c:A) WHERE a.v <> c.v RETURN a.i AS i, c.i AS k",
    "MATCH (a:A)-[x:X]->(b) RETURN DISTINCT a.v AS v, b.v AS w ORDER BY v, w",
    "MATCH (a:A)-[x]-(b) RETURN a.i AS i, b.i AS j ORDER BY i, j",
    "MATCH (a:A)-[x:X]->(b) RETURN type(x) AS t, count(*) AS c",
]

LIMIT_QUERIES = [
    "MATCH (n:A) RETURN n.v AS v ORDER BY n.v DESC SKIP 2 LIMIT 3",
    "MATCH (n) RETURN labels(n) AS ls, n.v + 1 AS w ORDER BY n.i LIMIT 10",
    "MATCH (n:A) RETURN n.i AS i SKIP 4",
]


def test_feature_queries_agree(feature_db):
    for query in FEATURE_QUERIES:
        run_both(feature_db, query)


def test_limit_queries_agree(feature_db):
    for query in LIMIT_QUERIES:
        run_both(feature_db, query)


def test_compiled_source_is_inspectable(feature_db):
    source = feature_db.compiled_source(
        "MATCH (n:A) RETURN n.v AS v ORDER BY n.v, n.i"
    )
    assert "def _pipeline(" in source
    assert "_flush" in source and "_check" in source


def test_artifact_cached_on_plan_entry(feature_db):
    query = "MATCH (n:A) RETURN count(*) AS c"
    feature_db.execute(query).to_list()
    cached = feature_db._planned(query, None)
    artifact = cached.compiled
    assert artifact is not None and len(artifact.parts) == 1
    feature_db.execute(query).to_list()
    assert feature_db._planned(query, None).compiled is artifact


# ----------------------------------------------------------------------
# Hand-spliced NodeHashJoin (the cost model rarely picks it on small data)
# ----------------------------------------------------------------------


def test_node_hash_join_compiles():
    db = GraphDatabase()
    both = []
    for i in range(12):
        labels = ["A"] if i % 3 == 0 else (["A", "B"] if i % 3 == 1 else ["B"])
        node = db.create_node(labels, {"k": i})
        if i % 3 == 1:
            both.append(node)

    query = "MATCH (n:A) RETURN id(n) AS i ORDER BY i"
    cached = db._planned(query, None)
    part, plan = cached.planned_parts[0]

    def find_scan(node):
        if isinstance(node, plan_nodes.PlanNodeByLabelScan):
            return node
        for child in node.children:
            found = find_scan(child)
            if found is not None:
                return found
        return None

    scan_a = find_scan(plan)
    scan_b = dataclasses.replace(scan_a, label="B")
    join = plan_nodes.PlanNodeHashJoin(
        children=(scan_a, scan_b),
        available=scan_a.available,
        solved_rels=frozenset(),
        applied_selections=frozenset(),
        cardinality=4.0,
        cost=20.0,
        indexes_used=frozenset(),
        join_nodes=("n",),
    )

    def rebuild(node):
        if node is scan_a:
            return join
        children = tuple(rebuild(child) for child in node.children)
        if children != node.children:
            return dataclasses.replace(node, children=children)
        return node

    cached.planned_parts[0] = (part, rebuild(plan))
    cached.compiled = None
    rows = run_both(db, query)
    assert rows == [{"i": i} for i in sorted(both)]


# ----------------------------------------------------------------------
# Random graphs, every plan family
# ----------------------------------------------------------------------

LABELS = ("A", "B")
TYPES = ("X", "Y")

RANDOM_QUERIES = [
    "MATCH (a:A)-[x:X]->(b:B) RETURN *",
    "MATCH (a:A)-[x:X]->(b)-[y:Y]->(c:A) RETURN *",
    "MATCH (a)-[x:X]->(b:B)<-[y:Y]-(c) RETURN *",
    "MATCH (a:A)-[x:X]->(b:B) WHERE a.v <> b.v RETURN *",
    "MATCH (a:A)-[x:X]->(b)-[y:X]->(c) RETURN *",
]

INDEX_PATTERNS = {
    "ix_xy": "(:A)-[:X]->()-[:Y]->(:A)",
    "ix_x": "(:A)-[:X]->(:B)",
    "ix_any": "()-[:X]->()",
    "ix_xx": "(:A)-[:X]->()-[:X]->()",
}


def build_random_db(seed: int) -> GraphDatabase:
    rng = random.Random(seed)
    db = GraphDatabase()
    nodes = []
    for _ in range(rng.randrange(4, 10)):
        labels = rng.sample(LABELS, rng.randrange(0, 3))
        nodes.append(db.create_node(labels, {"v": rng.randrange(3)}))
    for _ in range(rng.randrange(5, 18)):
        db.create_relationship(
            rng.choice(nodes), rng.choice(nodes), rng.choice(TYPES)
        )
    return db


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_graphs_agree_across_plan_families(seed):
    db = build_random_db(seed)
    for name, pattern in INDEX_PATTERNS.items():
        db.create_path_index(name, pattern)
    for query in RANDOM_QUERIES:
        run_both(db, query, BASELINE)
        run_both(db, query, None)
        for name in INDEX_PATTERNS:
            try:
                run_both(db, query, forced(name))
            except PlannerError:
                continue  # index does not embed into this query


# ----------------------------------------------------------------------
# Unsupported operators fail loudly
# ----------------------------------------------------------------------


def _sort_query_db():
    db = GraphDatabase()
    for i in range(20):
        db.create_node(["P"], {"i": i})
    return db


SORT_QUERY = "MATCH (n:P) RETURN n.i AS i ORDER BY i DESC"


def test_missing_producer_raises_unsupported(monkeypatch):
    db = _sort_query_db()
    expected = db.execute(SORT_QUERY, execution_mode="row").to_list()
    monkeypatch.delitem(PRODUCERS, plan_nodes.PlanSort)
    db.plan_cache.clear()
    with pytest.raises(CompiledUnsupported) as excinfo:
        db.execute(SORT_QUERY)
    assert excinfo.value.reason == "no compiled operator for PlanSort"
    # The row oracle does not depend on the codegen registry.
    assert db.execute(SORT_QUERY, execution_mode="row").to_list() == expected


def test_missing_producer_raises_in_source(monkeypatch):
    db = _sort_query_db()
    monkeypatch.delitem(PRODUCERS, plan_nodes.PlanSort)
    with pytest.raises(CompiledUnsupported) as excinfo:
        db.compiled_source(SORT_QUERY)
    assert excinfo.value.reason == "no compiled operator for PlanSort"


# ----------------------------------------------------------------------
# Service parity: the served engine, deadlines and write rollback
# ----------------------------------------------------------------------


def test_service_config_selects_compiled_mode():
    """``ServiceConfig`` carries no engine field: every service serves the
    compiled engine."""
    db = GraphDatabase()
    for i in range(10):
        db.create_node(["P"], {"i": i})
    with QueryService(db, ServiceConfig()) as service:
        outcome = service.execute("MATCH (n:P) RETURN count(*) AS c")
        assert outcome.rows == [{"c": 10}]
    # The compiled artifact was built and cached by the service's run.
    assert db._planned("MATCH (n:P) RETURN count(*) AS c", None).compiled


def test_deadline_aborts_scan_in_compiled_mode():
    db = GraphDatabase()
    for i in range(400):
        db.create_node(["P"], {"i": i})
    query = "MATCH (a:P), (b:P) RETURN a.i AS ai, b.i AS bi"
    full = len(db.execute(query).to_list())
    with QueryService(db, ServiceConfig()) as service:
        ticket = service.submit(query, deadline_s=0.02)
        with pytest.raises(QueryTimeoutError):
            ticket.result(timeout=30)
        assert ticket.status.name == "TIMED_OUT"
        assert ticket.rows_produced < full


def test_cancelled_write_rolls_back_in_compiled_mode():
    db = GraphDatabase()
    for i in range(300):
        db.create_node(["P"], {"i": i})
    before = db.store.statistics.node_count
    token = CancellationToken.with_timeout(0.005)
    with pytest.raises(QueryTimeoutError):
        db.execute("MATCH (a:P), (b:P) CREATE (c:Q) RETURN c", token=token)
    assert db.store.statistics.node_count == before
    assert len(db.execute("MATCH (c:Q) RETURN c").to_list()) == 0


def test_write_queries_agree_across_modes():
    results = []
    for mode in ("row", "compiled"):
        db = GraphDatabase()
        for i in range(6):
            db.create_node(["P"], {"i": i})
        db.execute(
            "MATCH (a:P) WHERE a.i < 3 CREATE (b:Q {j: a.i}) RETURN b",
            execution_mode=mode,
        ).to_list()
        rows = db.execute(
            "MATCH (b:Q) RETURN b.j AS j ORDER BY j", execution_mode="row"
        ).to_list()
        results.append(rows)
    assert results[0] == results[1] == [
        {"j": 0},
        {"j": 1},
        {"j": 2},
    ]
