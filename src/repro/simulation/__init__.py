"""Sequential Monte Carlo simulation of RAID groups (Sections 4.2 and 5).

This is the paper's primary contribution: a chronological simulation of
each RAID group in which every drive slot carries its own time-to-
operational-failure, time-to-restore, time-to-latent-defect and
time-to-scrub distributions — none of which needs to be exponential.

* :mod:`~repro.simulation.config` — :class:`RaidGroupConfig`, the four
  transition distributions plus group shape and mission;
* :mod:`~repro.simulation.events` — the discrete-event machinery;
* :mod:`~repro.simulation.rng` — reproducible per-replication random
  streams;
* :mod:`~repro.simulation.raid_simulator` — the Fig. 4 state machine for
  one group over one mission;
* :mod:`~repro.simulation.batch` — NumPy-vectorized lockstep engine
  advancing whole fleets together (``engine="batch"``);
* :mod:`~repro.simulation.monte_carlo` — fleet-level replication runner
  (:func:`simulate_raid_groups`,
  ``engine="event"|"batch"|"auto"``);
* :mod:`~repro.simulation.streaming` — mergeable incremental fleet
  statistics, convergence targets (:class:`Precision`), and progress
  observers for shard-by-shard runs (``MonteCarloRunner.run_streaming``);
* :mod:`~repro.simulation.executor` — pipelined parallel shard
  execution: a spawn-context pool, kept warm from run to run,
  speculates shards ahead while results commit strictly in shard order
  (bit-identical to serial);
* :mod:`~repro.simulation.checkpoint` — JSON checkpoint/resume of
  streaming runs (bit-identical continuation);
* :mod:`~repro.simulation.results` — cumulative DDF curves (the
  "DDFs per 1000 RAID groups" axes of Figs 6-10), ROCOF estimation,
  confidence intervals;
* :mod:`~repro.simulation.sensitivity` — parameter sweeps;
* :mod:`~repro.simulation.trace` — Fig. 5-style per-slot timing traces.
"""

from .availability import AvailabilityReport
from .batch import BATCH_SHARD_SIZE, simulate_groups_batch
from .checkpoint import RunCheckpoint, load_checkpoint, save_checkpoint
from .config import RaidGroupConfig, RepairPolicyConfig
from .executor import (
    DEFAULT_MAX_SHARD_RETRIES,
    PipelinedShardExecutor,
    ShardOutcome,
    ShardTask,
    shard_plan,
)
from .monte_carlo import ENGINES, MonteCarloRunner, simulate_raid_groups
from .raid_simulator import DDFType, GroupChronology, RaidGroupSimulator
from .remote import DistributedShardExecutor, RemoteWorkerHub, run_worker
from .results import DDFEvent, SimulationResult
from .sensitivity import SweepResult, sweep
from .spares import SparePool, SparePoolConfig
from .streaming import (
    FleetAccumulator,
    Precision,
    ProgressEvent,
    StderrProgressReporter,
    StreamingMoments,
    StreamingResult,
)
from .trace import TimelineRecorder, render_timing_diagram

__all__ = [
    "BATCH_SHARD_SIZE",
    "ENGINES",
    "RaidGroupConfig",
    "RaidGroupSimulator",
    "RepairPolicyConfig",
    "simulate_groups_batch",
    "GroupChronology",
    "DDFType",
    "DDFEvent",
    "SimulationResult",
    "MonteCarloRunner",
    "simulate_raid_groups",
    "sweep",
    "SweepResult",
    "SparePool",
    "SparePoolConfig",
    "AvailabilityReport",
    "TimelineRecorder",
    "render_timing_diagram",
    "FleetAccumulator",
    "StreamingMoments",
    "StreamingResult",
    "Precision",
    "ProgressEvent",
    "StderrProgressReporter",
    "RunCheckpoint",
    "save_checkpoint",
    "load_checkpoint",
    "PipelinedShardExecutor",
    "DistributedShardExecutor",
    "RemoteWorkerHub",
    "run_worker",
    "ShardTask",
    "ShardOutcome",
    "shard_plan",
    "DEFAULT_MAX_SHARD_RETRIES",
]
