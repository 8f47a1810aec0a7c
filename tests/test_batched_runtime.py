"""Batch-boundary differential tests: morsel size must be invisible.

The served (compiled) engine emits each operator's output in morsels of
``RuntimeContext.morsel_size`` rows and checks cancellation between them.
``tests/test_compiled_runtime.py`` compares it against the row oracle at
the default morsel size; this module forces morsel sizes that split every
operator's output mid-batch (and sizes that land exactly on a result's
end) over the same paper query shapes, random graphs and language
features, and requires identical result rows in identical order,
identical per-operator profile counts and identical
max-intermediate-cardinality. It also covers engine selection per call
and deadline/rollback parity between the row oracle and the served engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GraphDatabase, PlannerHints, QueryTimeoutError
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
from repro.errors import PlannerError, ReproError
from repro.service.cancellation import CancellationToken
from tests.test_compiled_runtime import (
    BASELINE,
    FEATURE_QUERIES,
    INDEX_PATTERNS,
    LIMIT_QUERIES,
    RANDOM_QUERIES,
    build_feature_db,
    build_random_db,
    forced,
    run_with_morsel_size,
)

SPLITTING_SIZES = (1, 2, 7)


def run_split(db, query, hints=None, sizes=SPLITTING_SIZES):
    """Run ``query`` on the row oracle, then on the compiled engine at each
    morsel size; assert full equivalence; return the rows."""
    reference = db.execute(query, hints, execution_mode="row")
    expected = reference.to_list()
    for morsel_size in sizes:
        rows, profile = run_with_morsel_size(db, query, morsel_size, hints)
        assert rows == expected, (query, morsel_size)
        assert (
            profile.operators.rows == reference.profile.operators.rows
        ), (query, morsel_size)
        assert (
            profile.max_intermediate_cardinality
            == reference.max_intermediate_cardinality
        ), (query, morsel_size)
    return expected


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
        rows = run_split(db, correlated.FULL_QUERY, hints)
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
        rows = run_split(db, yago.FULL_QUERY, hints)
        assert rows


def test_geospecies_shapes_agree():
    db = GraphDatabase()
    generate_geospecies(
        db, GeoSpeciesConfig(species=40, locations=10, expected_per_species=2)
    )
    db.create_path_index("Full", geospecies.FULL_PATTERN)
    db.create_path_index("Sub", geospecies.SUB_PATTERN)
    for hints in (BASELINE, forced("Full"), forced("Sub")):
        rows = run_split(db, geospecies.FULL_QUERY, hints)
        assert rows


# ----------------------------------------------------------------------
# Language features across projection boundaries
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def feature_db():
    return build_feature_db()


def test_feature_queries_agree(feature_db):
    for query in FEATURE_QUERIES:
        run_split(feature_db, query)


def test_limit_queries_agree(feature_db):
    for query in LIMIT_QUERIES:
        run_split(feature_db, query)


def test_limit_does_not_overfill_upstream_morsels(feature_db):
    """Streaming operators above the nearest blocking operator must
    profile exactly the rows the row engine's lazy pull consumes — not a
    full final morsel — at every morsel size, including the default."""
    query = "MATCH (n) RETURN labels(n) AS ls, n.v + 1 AS w LIMIT 3"
    reference = feature_db.execute(query, execution_mode="row")
    expected = reference.to_list()
    assert len(expected) == 3
    served = feature_db.execute(query)
    assert served.to_list() == expected
    assert served.profile.operators.rows == reference.profile.operators.rows
    run_split(feature_db, query, sizes=(1, 2, 3, 4, 64))


def test_small_morsel_sizes_hit_batch_boundaries(feature_db):
    """Morsel sizes one below, at and one above a result's row count put
    the last batch boundary exactly on, or next to, the end of the
    output; rows and profiles must still match the row engine."""
    for query in FEATURE_QUERIES + LIMIT_QUERIES:
        count = len(feature_db.execute(query, execution_mode="row").to_list())
        sizes = sorted({size for size in (count - 1, count, count + 1) if size > 0})
        run_split(feature_db, query, sizes=sizes)


def test_unknown_execution_mode_rejected(feature_db):
    for mode in ("batched", "vectorized", None):
        with pytest.raises(ReproError):
            feature_db.execute("MATCH (n) RETURN n", execution_mode=mode)
    with pytest.raises(TypeError):
        GraphDatabase(execution_mode="row")


# ----------------------------------------------------------------------
# Random graphs, every plan family
# ----------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_graphs_agree_across_plan_families(seed):
    db = build_random_db(seed)
    for name, pattern in INDEX_PATTERNS.items():
        db.create_path_index(name, pattern)
    for query in RANDOM_QUERIES:
        run_split(db, query, BASELINE, sizes=(1, 3))
        run_split(db, query, None, sizes=(1, 3))
        for name in INDEX_PATTERNS:
            try:
                run_split(db, query, forced(name), sizes=(1, 3))
            except PlannerError:
                continue  # index does not embed into this query


# ----------------------------------------------------------------------
# Engine parity: deadlines and write rollback
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["row", "compiled"])
def test_deadline_aborts_scan_in_both_modes(mode):
    db = GraphDatabase()
    for i in range(400):
        db.create_node(["P"], {"i": i})
    query = "MATCH (a:P), (b:P) RETURN a.i AS ai, b.i AS bi"
    full = len(db.execute(query, execution_mode=mode).to_list())
    token = CancellationToken.with_timeout(0.02)
    produced = 0
    with pytest.raises(QueryTimeoutError):
        for _ in db.execute(query, token=token, execution_mode=mode):
            produced += 1
    assert produced < full


@pytest.mark.parametrize("mode", ["row", "compiled"])
def test_cancelled_write_rolls_back_in_both_modes(mode):
    db = GraphDatabase()
    for i in range(300):
        db.create_node(["P"], {"i": i})
    before = db.store.statistics.node_count
    token = CancellationToken.with_timeout(0.005)
    with pytest.raises(QueryTimeoutError):
        db.execute(
            "MATCH (a:P), (b:P) CREATE (c:Q) RETURN c",
            token=token,
            execution_mode=mode,
        )
    assert db.store.statistics.node_count == before
    assert len(db.execute("MATCH (c:Q) RETURN c").to_list()) == 0
