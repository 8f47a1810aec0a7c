"""Post-run checks on the leader's durable directory, in a child process.

Usage (from the repository root)::

    python3 stackbench/check.py --data DIR --expected BUILT.json
    python3 stackbench/check.py --data DIR --anchor

Both forms re-open ``DIR`` (recovery replays its WAL onto the last
checkpoint). With ``--expected`` the re-opened store must hold exactly the
generated graph written by ``build.py`` (the write cycles leave it
unchanged), and every path index must hold exactly the occurrences of its
pattern in that graph, found by the benchmark's own traversal
(``workloads.Oracle``) — the cross-check ``GraphDatabase.verify_index``
makes, against a traversal that does not use the engine under test. With
``--anchor`` it runs the Table 1 paper anchor with forced plans: the
full-pattern index plan must return the baseline plan's rows and beat it.
Prints one JSON object; exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import Oracle, Shape  # noqa: E402


def check_graph_and_indexes(db, built: dict) -> dict:
    store = db.store
    labels = {
        node: "".join(sorted(store.labels.name_of(label)
                             for label in store.node_labels(node)))
        for node in store.all_nodes()
    }
    rels = sorted(
        (rel_id, record.start_node, record.end_node,
         store.types.name_of(record.type_id))
        for rel_id in store.all_relationships()
        for record in (store.relationship(rel_id),)
    )
    report = {
        "nodes": labels == dict(enumerate(built["node_labels"])),
        "relationships": rels == sorted(map(tuple, built["rels"])),
        "indexes": {},
    }
    oracle = Oracle(built)
    for index in db.indexes:
        pattern = str(index.pattern)
        shape = Shape(
            index.name,
            "".join(re.findall(r"\(:(\w+)\)", pattern)),
            "".join(re.findall(r"\[:(\w+)\]", pattern)),
            "", "",
        )
        expected = []
        for nodes, rel_ids in oracle.matches(shape):
            entry = [nodes[0]]
            for rel_id, node in zip(rel_ids, nodes[1:]):
                entry += [rel_id, node]
            expected.append(tuple(entry))
        report["indexes"][index.name] = sorted(index.scan()) == sorted(expected)
    report["ok"] = (
        report["nodes"]
        and report["relationships"]
        and len(report["indexes"]) == len(built["expected_cardinalities"])
        and all(report["indexes"].values())
    )
    return report


def check_anchor(db) -> dict:
    from repro import PlannerHints
    from repro.datasets import correlated

    timings = {}
    rows = {}
    for label, hints in (
        ("baseline", PlannerHints(use_path_indexes=False)),
        (
            "full",
            PlannerHints(
                required_indexes=frozenset({"Full"}),
                allowed_indexes=frozenset({"Full"}),
                path_index_cost_factor=1e-9,
            ),
        ),
    ):
        started = time.perf_counter()
        rows[label] = sorted(
            tuple(sorted(row.items()))
            for row in db.execute(correlated.FULL_QUERY, hints)
        )
        timings[label] = time.perf_counter() - started
    speedup = timings["baseline"] / timings["full"]
    return {
        "anchor": {
            "baseline_s": timings["baseline"],
            "full_s": timings["full"],
            "rows": len(rows["full"]),
            "speedup": speedup,
        },
        "ok": rows["baseline"] == rows["full"] and speedup > 1.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--expected", help="build.py's output file")
    parser.add_argument("--anchor", action="store_true")
    args = parser.parse_args(argv)
    if bool(args.expected) == args.anchor:
        parser.error("give exactly one of --expected and --anchor")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro import GraphDatabase

    db = GraphDatabase.open(args.data)
    try:
        if args.anchor:
            report = check_anchor(db)
        else:
            with open(args.expected) as handle:
                report = check_graph_and_indexes(db, json.load(handle))
    finally:
        db.close()
    print(json.dumps(report), flush=True)
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
