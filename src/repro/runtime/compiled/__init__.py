"""Compiled (data-centric codegen) execution: the serving engine.

``compile_query`` turns a planned query into a :class:`CompiledQuery`: one
exec-compiled Python pipeline function per query part (see
:mod:`repro.runtime.compiled.codegen`). The artifact is cached on the
plan-cache entry, so it shares the plan's invalidation (statistics drift,
index set changes). A plan node without a compiled form raises
:class:`CompiledUnsupported`; every operator the planner emits has one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Sequence

from repro.planner.plans import LogicalPlan
from repro.runtime.compiled.codegen import (
    CHECK_STRIDE,
    PRODUCERS,
    CompiledUnsupported,
    PartCompiler,
    generate_part_source,
)
from repro.runtime.compiled.slots import SlotLayout
from repro.runtime.operators import RuntimeContext

__all__ = [
    "CHECK_STRIDE",
    "PRODUCERS",
    "CompiledPart",
    "CompiledQuery",
    "CompiledUnsupported",
    "compile_query",
    "PartCompiler",
]


@dataclass
class CompiledPart:
    """One query part's exec-compiled pipeline.

    ``fn(slot_arg, flush, check)`` yields morsels; items are finished
    :class:`~repro.runtime.row.Row` objects when ``row_sink`` is set,
    full slot rows otherwise. ``plans`` lists the plan nodes in counter
    order for ``flush``. ``lock`` guards the shared layout's runtime slot
    allocation (``row_from``) because the artifact is reused across
    executions.
    """

    fn: object
    source: str
    layout: SlotLayout
    plans: list[LogicalPlan]
    row_sink: bool
    lock: threading.Lock = field(default_factory=threading.Lock)


@dataclass
class CompiledQuery:
    """Compiled pipelines for all parts of one query.

    ``morsel_size`` is baked into the generated output chunking, so
    executions with a different morsel size must recompile.
    """

    parts: list[CompiledPart]
    morsel_size: int

    def source(self) -> str:
        """The generated Python source for all parts (shell ``:source``)."""
        return "\n".join(
            f"# ---- part {position} ----\n{part.source}"
            for position, part in enumerate(self.parts)
        )


def compile_part(
    part,
    plan: LogicalPlan,
    ctx: RuntimeContext,
    arg_names: Sequence[str] = (),
    position: int = 0,
) -> CompiledPart:
    """Compile one part; raises :class:`CompiledUnsupported`."""
    layout = SlotLayout()
    source, env, plans, row_sink = generate_part_source(
        part, plan, ctx, layout, arg_names
    )
    namespace = dict(env)
    code = compile(source, f"<compiled:part{position}>", "exec")
    exec(code, namespace)
    return CompiledPart(
        fn=namespace["_pipeline"],
        source=source,
        layout=layout,
        plans=plans,
        row_sink=row_sink,
    )


def compile_query(
    planned_parts: Sequence[tuple[object, LogicalPlan]],
    ctx: RuntimeContext,
) -> CompiledQuery:
    """Compile every part of a planned query.

    ``planned_parts`` is the plan cache's ``(QueryPart, LogicalPlan)``
    sequence; ``ctx`` supplies the store, index store, evaluation context
    and morsel size the generated code binds at compile time (the profile
    and token on ``ctx`` are *not* captured — they arrive per execution
    through the ``flush``/``check`` arguments). Raises
    :class:`CompiledUnsupported` for a part with no compiled form.
    """
    parts: list[CompiledPart] = []
    arg_names: Sequence[str] = ()
    for position, (part, plan) in enumerate(planned_parts):
        compiled = compile_part(part, plan, ctx, arg_names, position)
        parts.append(compiled)
        # Pre-allocate everything the next part can receive through its
        # argument row, so runtime slot allocation is the exception.
        if part.projection:
            arg_names = tuple(item.output_name for item in part.projection)
        else:
            arg_names = tuple(compiled.layout.slots)
    return CompiledQuery(parts=parts, morsel_size=ctx.morsel_size)
