"""Determinism & protocol static analysis for the repro codebase.

The simulation's headline guarantee — bit-identical replay from a seed, and
identical command streams on every replica — is easy to break with one
innocuous line: a ``time.time()`` call, a module-level cache shared between
two simulations in one interpreter, a ``for peer in some_set`` loop that
feeds the wire. This package is a small, repo-specific AST linter that
rejects those patterns at review time instead of debugging them from a
divergent run:

========  =====================================================================
Rule      Contract
========  =====================================================================
``R1``    No wall-clock or OS-entropy sources outside ``util/rng.py``
          (``time.time``, ``datetime.now``, global ``random.*``,
          ``os.urandom``, ``uuid.uuid4`` …).
``R2``    No module-level mutable state: per-simulation state hangs off the
          :class:`~repro.net.network.Network` via ``*_state(network)``
          accessors (the :func:`~repro.rpc.state.rpc_state` pattern).
``R3``    No iteration over sets or unsorted dict views in the protocol
          layers (``net``/``rpc``/``gcs``/``pbs``/``joshua``) unless wrapped
          in ``sorted()`` or consumed by an order-insensitive reducer.
``R4``    Protocol completeness: every wire dataclass has a server-side
          handler and a client-side constructor (no dead or unhandled
          message types).
``R5``    Observability hooks are passive: ``repro.obs`` may not call
          mutating methods on the network, transport, or kernel.
========  =====================================================================

The numbers stop at ``R5``: codec coverage (every exported record of a
wire module registered, none set-typed, every wire name unique) is the
codec's registration contract (:mod:`repro.net.codec`), enforced when the
module is imported, and the committed ``WIRE_SCHEMA.lock`` is one entry of
the golden harness (``tools/golden.py``), which runs
:meth:`~repro.net.codec.Codec.self_check` and fails on any drift.

Deliberate exemptions are annotated in-line::

    for job in self._jobs.values():  # repro-lint: ignore[R3] FIFO order is the queue's semantics

The reason text is mandatory and directives are rule-scoped — an
``ignore[R1]`` never suppresses an ``R3`` finding. Run via ``repro lint``
(see :mod:`repro.cli`) or programmatically via :func:`run_lint` /
:func:`check_files`.
"""

from repro.analysis.findings import Finding
from repro.analysis.runner import (
    ALL_RULES,
    check_files,
    list_ignores,
    run_lint,
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "check_files",
    "list_ignores",
    "run_lint",
]
