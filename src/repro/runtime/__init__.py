"""Runtime: physical operators, expression evaluation, and the executor.

Logical plans are compiled into pull-based pipelines ("the results are
pulled from the executable plan using an iterator interface", §2.1.4):
generated, fused loop nests on the serving engine (``runtime.compiled``),
or per-operator iterators on the row engine (``runtime.operators``) that
the differential tests use as the reference.
Every operator counts the rows it produces, which yields the *maximum
intermediate state cardinality* metric of the evaluation (Tables 3/7/10/11),
and relationship-uniqueness (Cypher's default MATCH semantics, §7.1 footnote)
is enforced by every operator that binds a relationship.
"""

from repro.runtime.row import Row
from repro.runtime.executor import ExecutionProfile, Executor

__all__ = ["ExecutionProfile", "Executor", "Row"]
