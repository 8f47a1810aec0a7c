"""Slot rows: the compiled engine's fixed-width row representation.

A compile-time **slot allocation pass** (:class:`SlotLayout`) assigns each
variable of a query part a fixed integer slot. Materialized rows (at
pipeline breakers, sinks and part boundaries) are lists of length
``width + 1``: one element per variable plus a trailing tuple of bound
relationship ids (Cypher's relationship-uniqueness scope, reset at
projection boundaries).

A slot holding None means *unbound*, whereas the row engine can
distinguish an absent dict key from an explicit None binding. The two are
observationally equivalent here because explicit None bindings only arise
from projected expressions, which either terminate a part (and are
reconstructed per projection column, preserving None) or enter the next
part through the shared argument row, where both sides of any join see
the same value.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.operators import RuntimeContext, _resolve_type_ids
from repro.runtime.row import Row


class SlotLayout:
    """Compile-time variable-to-slot mapping for one query part.

    Slots are allocated on first reference during code generation (and
    for argument-row names during :meth:`row_from`), and indices never
    move, so generated code and closures capture plain ints. ``width`` is
    read at *run* time because argument rows may introduce names after
    compilation.
    """

    __slots__ = ("slots",)

    def __init__(self) -> None:
        self.slots: dict[str, int] = {}

    def slot_of(self, name: str) -> int:
        return self.slots.setdefault(name, len(self.slots))

    @property
    def width(self) -> int:
        return len(self.slots)

    def row_from(self, arg_row: Row) -> list:
        """Convert a dict row into a slot row, allocating missing slots."""
        slot_of = self.slots.setdefault
        for name in arg_row.values:
            slot_of(name, len(self.slots))
        width = len(self.slots)
        row = [None] * (width + 1)
        for name, value in arg_row.values.items():
            row[self.slots[name]] = value
        row[width] = tuple(arg_row.rel_ids)
        return row

    def row_to(self, slot_row: list) -> Row:
        """Convert a slot row back into a dict row (part boundaries).

        None slots are dropped: a None slot means *unbound*, and every
        consumer of the resulting row reads bindings via ``.get`` where
        absent and explicitly-None agree.
        """
        width = len(slot_row) - 1
        values: dict[str, object] = {}
        for name, slot in self.slots.items():
            if slot >= width:
                break
            value = slot_row[slot]
            if value is not None:
                values[name] = value
        return Row(values, frozenset(slot_row[width]))


def merge_rows(
    partner: list, row: list, shared: frozenset, width: int
) -> Optional[list]:
    """Merge two slot rows built from the same argument row.

    Returns None on a binding conflict or a relationship-uniqueness
    violation (a rel id bound on both sides that did not come in through
    the shared argument row).
    """
    row_rels = row[width]
    partner_rels = partner[width]
    for rel_id in partner_rels:
        if rel_id in row_rels and rel_id not in shared:
            return None
    merged = partner[:]
    for slot in range(width):
        value = row[slot]
        if value is None:
            continue
        existing = merged[slot]
        if existing is None:
            merged[slot] = value
        elif existing != value:
            return None
    combined = partner_rels
    for rel_id in row_rels:
        if rel_id not in combined:
            combined = combined + (rel_id,)
    merged[width] = combined
    return merged


def slot_entry_binder(
    plan, ctx: RuntimeContext, layout: SlotLayout, skip_positions: int = 0
) -> Callable[[tuple, list], Optional[list]]:
    """Slot-row counterpart of ``operators._entry_binder``.

    Checks, in stored order: binding consistency (repeated variables and
    pre-bound variables), relationship uniqueness, residual label filters
    and residual type filters. ``skip_positions`` marks a leading prefix
    already bound by the row (PathIndexPrefixSeek).
    """
    entry_slots = [layout.slot_of(var) for var in plan.entry_vars]
    label_check_map: dict[int, list[int]] = {}
    for var, label in getattr(plan, "label_filters", ()):
        label_id = ctx.store.labels.id_of(label)
        label_check_map.setdefault(layout.slot_of(var), []).append(
            -1 if label_id is None else label_id
        )
    label_checks = list(label_check_map.items())
    type_checks = [
        (layout.slot_of(var), frozenset(_resolve_type_ids(ctx, type_names)))
        for var, type_names in getattr(plan, "type_filters", ())
    ]
    store = ctx.store

    def bind(entry: tuple, arg_row: list) -> Optional[list]:
        width = len(arg_row) - 1
        arg_rels = arg_row[width]
        row = arg_row[:]
        new_rels: list[int] = []
        for position, slot in enumerate(entry_slots):
            identifier = entry[position]
            pre_bound = arg_row[slot]
            existing = row[slot]
            if existing is not None and existing != identifier:
                return None
            row[slot] = identifier
            if position % 2 == 1 and position >= skip_positions:
                if identifier in new_rels:
                    return None
                # Uniqueness: reject ids bound to *another* relationship
                # variable; re-binding the same variable (an anchored or
                # argument relationship) is consistent, not a duplicate.
                if identifier in arg_rels and pre_bound != identifier:
                    return None
                if pre_bound != identifier:
                    new_rels.append(identifier)
        for slot, label_ids in label_checks:
            node_id = int(row[slot])
            for label_id in label_ids:
                if label_id < 0 or not store.has_label(node_id, label_id):
                    return None
        for slot, allowed in type_checks:
            rel = store.relationship(int(row[slot]))
            if rel.type_id not in allowed:
                return None
        if new_rels:
            row[width] = arg_rels + tuple(new_rels)
        return row

    return bind
