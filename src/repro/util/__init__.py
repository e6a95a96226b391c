"""Utility layer shared by every other subpackage.

The utilities deliberately avoid any dependency on the simulation kernel so
that they can be unit tested in isolation and reused by analysis scripts that
never build a cluster.

Contents
--------
:mod:`repro.util.errors`
    The exception hierarchy for the whole library.
:mod:`repro.util.rng`
    Named, seedable random-number streams so that independent subsystems
    (network jitter, failure injection, workloads) draw from independent
    deterministic streams.
:mod:`repro.util.simlog`
    Logging helpers that stamp records with *simulated* time.
"""

from repro.util.errors import (
    ReproError,
    SimulationError,
    NetworkError,
    ClusterError,
    GroupCommError,
    MembershipError,
    PBSError,
    JoshuaError,
)
from repro.util.rng import RandomStreams
from repro.util.simlog import SimLogger, LogRecord

__all__ = [
    "ReproError",
    "SimulationError",
    "NetworkError",
    "ClusterError",
    "GroupCommError",
    "MembershipError",
    "PBSError",
    "JoshuaError",
    "RandomStreams",
    "SimLogger",
    "LogRecord",
]
