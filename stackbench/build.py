"""Build the benchmark's durable database directory.

Usage (from the repository root)::

    python3 stackbench/build.py --data DIR --seed N --out FILE

Generates the correlated dataset at the paper-table benchmarks' scale
(``CorrelatedConfig(paths=800, noise_factor=24)``, seeded from ``--seed``),
registers Table 2's index set (Full + Sub1..Sub8, Algorithm 2) and
checkpoints it into ``DIR``. The checkpoint's completion time
(``time.monotonic()``, shared across processes) is written to ``FILE``
together with the generated graph's topology, from which the benchmark
derives every expected result row.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

PATHS = 800
NOISE_FACTOR = 24


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from repro import GraphDatabase
    from repro.datasets import CorrelatedConfig, correlated, generate_correlated

    started = time.monotonic()
    db = GraphDatabase.open(args.data)
    data = generate_correlated(
        db,
        CorrelatedConfig(paths=PATHS, noise_factor=NOISE_FACTOR, seed=args.seed),
    )
    generated = time.monotonic()
    init_s = 0.0
    patterns = {"Full": correlated.FULL_PATTERN, **correlated.SUB_PATTERNS}
    for name, pattern in patterns.items():
        init_s += db.create_path_index(name, pattern).seconds
    indexed = time.monotonic()
    db.checkpoint()
    built_at = time.monotonic()

    store = db.store
    label_a = store.labels.get_or_create("A")
    node_labels = "".join(
        "A" if store.has_label(node, label_a) else "B"
        for node in range(data.node_count)
    )
    type_y = store.types.get_or_create("Y")
    rels = []
    for rel_id in store.all_relationships():
        record = store.relationship(rel_id)
        rels.append(
            (rel_id, record.start_node, record.end_node,
             "Y" if record.type_id == type_y else "X")
        )
    db.close()
    with open(args.out, "w") as handle:
        json.dump(
            {
                "built_at": built_at,
                "generate_s": generated - started,
                "index_s": indexed - generated,
                "checkpoint_s": built_at - indexed,
                "init_s": init_s,
                "expected_cardinalities": data.expected_cardinalities(),
                "node_labels": node_labels,
                "rels": rels,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
