"""Distributed-algorithms substrate (Section 4): a discrete-event
message-passing simulator with topologies, timing models, failure
injection, local-computation accounting, classic algorithms, and the
seven-dimension concept taxonomy."""

from .core import Context, Message, Process
from .failures import (
    FailurePlan,
    FailurePlanError,
    PartitionEvent,
    byzantine_lying_id,
    churn,
    crash,
    heal,
    partition,
)
from .metrics import RunMetrics
from .network import (
    Arbitrary,
    Complete,
    Grid,
    Line,
    Ring,
    Star,
    Topology,
    Tree,
    random_connected,
)
from .reliable import (
    ReliableChannel,
    ReliableProcess,
    ResilientFloodSet,
    run_echo_reliable,
    run_floodset_reliable,
    wrap_reliable,
)
from .algorithms.replog import (
    ReplicatedLog,
    ReplicatedLogRecord,
    record_run,
    run_replicated_log,
)
from .simulator import SimulationError, Simulator, run_algorithm
from .taxonomy import (
    DIMENSIONS,
    Classification,
    DistributedTaxonomy,
    TaxonomyEntry,
    refines,
    standard_taxonomy,
)
from .timing import Asynchronous, PartiallySynchronous, Synchronous, TimingModel
from . import algorithms

__all__ = [
    "Context", "Message", "Process",
    "FailurePlan", "FailurePlanError", "PartitionEvent",
    "crash", "churn", "partition", "heal", "byzantine_lying_id",
    "RunMetrics",
    "Topology", "Ring", "Complete", "Star", "Line", "Tree", "Grid",
    "Arbitrary", "random_connected",
    "Simulator", "SimulationError", "run_algorithm",
    "ReliableChannel", "ReliableProcess", "ResilientFloodSet",
    "wrap_reliable", "run_echo_reliable", "run_floodset_reliable",
    "ReplicatedLog", "ReplicatedLogRecord", "record_run",
    "run_replicated_log",
    "TimingModel", "Synchronous", "Asynchronous", "PartiallySynchronous",
    "DIMENSIONS", "Classification", "DistributedTaxonomy", "TaxonomyEntry",
    "refines", "standard_taxonomy",
    "algorithms",
]
