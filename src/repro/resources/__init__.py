"""Resource governance: memory accounting, grants, and spill-to-disk.

See :mod:`repro.resources.pool` for the budget/grant protocol and
:mod:`repro.resources.spill` for the order-exact spillable buffers the
compiled and row engines share.
"""

from repro.resources.pool import (
    GROUP_BYTES,
    KEY_BYTES,
    NULL_TRACKER,
    ROW_BYTES,
    MemoryPool,
    MemoryTracker,
    NullTracker,
)
from repro.resources.spill import (
    SPILL_SUFFIX,
    AggregationSpillBuffer,
    AppendSpillBuffer,
    Desc,
    DistinctSpillBuffer,
    JoinSpillBuffer,
    SortSpillBuffer,
    SpillManager,
    SpillSession,
    read_spill,
)

__all__ = [
    "AggregationSpillBuffer",
    "AppendSpillBuffer",
    "Desc",
    "DistinctSpillBuffer",
    "GROUP_BYTES",
    "JoinSpillBuffer",
    "KEY_BYTES",
    "MemoryPool",
    "MemoryTracker",
    "NULL_TRACKER",
    "NullTracker",
    "ROW_BYTES",
    "SPILL_SUFFIX",
    "SortSpillBuffer",
    "SpillManager",
    "SpillSession",
    "read_spill",
]
