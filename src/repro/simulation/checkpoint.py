"""Checkpoint/resume for streaming fleet runs.

A checkpoint is a JSON *run manifest* capturing everything needed to
continue an interrupted fleet simulation bit-identically:

* the **configuration fingerprint** (so a resume against a different
  design fails loudly instead of silently mixing fleets),
* the reproducibility coordinates ``(seed, engine, shard_size)``,
* the **shard cursor** — the sizes of the shards completed, in order and
  run-length encoded (``[[512, 16]]``, or ``[[100, 2]]`` after two
  100-group extends).  The shards counted there position the
  :class:`~numpy.random.SeedSequence` spawn stream for the next shard,
  and the groups counted there are the accumulator's; both derive from
  the one list, so they cannot disagree, and
* the full :class:`~repro.simulation.streaming.FleetAccumulator` state:
  integer tallies and exact moment sums.

Because shards are seeded independently of how many will eventually run
(one spawned child per shard for the batch engine, one per group for the
event engine), "resume" is simply: restore the accumulator, skip the
already-consumed spawn positions, and keep going.  The accumulator is
exactly mergeable, so the resumed run ends in the same state as an
uninterrupted one, byte for byte.

The runner rewrites its checkpoint once per committed run of shards and
at every stop, not after every shard (see
:meth:`~repro.simulation.monte_carlo.MonteCarloRunner.run_streaming`).

Format ``repro-checkpoint/5`` holds that exact state.  A file whose
cursor records a shard larger than its ``shard_size`` (or smaller than
one group), or counts other groups than its accumulator holds, is
refused.  Files of format ``/1`` (Welford moments and a reservoir RNG
cursor), ``/2`` (a bottom-k first-DDF sample besides the state), ``/3``
(the state of a batch kernel that drew its random stream in another
order, so a resume would splice two streams) and ``/4`` (a cursor of two
separate counts, whose shard count nothing checked: a hand edit of it
resumed from the wrong seeds) are refused too; the service's result
cache treats them as integrity misses, deletes them and refines the key
afresh.

Checkpoints are written atomically and durably (unique temp file +
``fsync`` + ``os.replace``) so an interruption — or a whole-machine crash
— *during* a checkpoint write leaves the previous checkpoint intact, and
two runs sharing a checkpoint path cannot clobber each other's in-flight
temp files.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from ..exceptions import SimulationError
from .config import RaidGroupConfig
from .streaming import FleetAccumulator

#: Format tag written into (and required from) every checkpoint file.
CHECKPOINT_FORMAT = "repro-checkpoint/5"


class CheckpointFormatError(SimulationError):
    """A checkpoint file of another format than :data:`CHECKPOINT_FORMAT`."""


def config_fingerprint(config: RaidGroupConfig) -> str:
    """Stable digest of a configuration.

    Built from the dataclass ``repr``, which fully determines the four
    transition distributions, geometry, and mission; two configs with the
    same fingerprint simulate identically.  Hashed once per config object
    (:attr:`~repro.simulation.config.RaidGroupConfig.repr_fingerprint`).
    """
    return config.repr_fingerprint


#: The shard cursor: ``[size, count]`` pairs of the shards run, in order,
#: each pair a stretch of ``count`` consecutive shards of ``size`` groups.
ShardSizes = List[List[int]]


def add_shard(sizes: ShardSizes, n_groups: int) -> None:
    """Record one more shard of ``n_groups`` at the end of ``sizes``."""
    if sizes and sizes[-1][0] == n_groups:
        sizes[-1][1] += 1
    else:
        sizes.append([n_groups, 1])


def cursor_counts(sizes: ShardSizes) -> Tuple[int, int]:
    """``(shards, groups)`` that ``sizes`` records."""
    return (
        sum(count for _, count in sizes),
        sum(size * count for size, count in sizes),
    )


@dataclasses.dataclass
class RunCheckpoint:
    """Resumable state of a streaming fleet run after some whole shards.

    Attributes
    ----------
    fingerprint:
        :func:`config_fingerprint` of the design being simulated.
    seed, engine, shard_size:
        Reproducibility coordinates; a resume must match all three.
    shard_sizes:
        The shard cursor: the sizes of the shards run, in order and
        run-length encoded (:data:`ShardSizes`).  The spawn positions
        already consumed (:attr:`shards_completed`) and the groups
        simulated (:attr:`groups_completed`) derive from it.
    accumulator_state:
        Serialized :class:`~repro.simulation.streaming.FleetAccumulator`.
    elapsed_seconds:
        Wall clock accumulated across prior run segments.
    """

    fingerprint: str
    seed: Optional[int]
    engine: str
    shard_size: int
    shard_sizes: ShardSizes
    accumulator_state: Dict[str, object]
    elapsed_seconds: float = 0.0

    @property
    def shards_completed(self) -> int:
        """Shards run: the spawn positions a resume skips."""
        return cursor_counts(self.shard_sizes)[0]

    @property
    def groups_completed(self) -> int:
        """Groups run: the groups the accumulator holds."""
        return cursor_counts(self.shard_sizes)[1]

    # ------------------------------------------------------------------
    def accumulator(self) -> FleetAccumulator:
        """Rehydrate the fleet statistics."""
        return FleetAccumulator.from_dict(self.accumulator_state)

    def validate_against(
        self,
        config: RaidGroupConfig,
        seed: Optional[int],
        engine: str,
        shard_size: int,
    ) -> None:
        """Refuse to resume under different reproducibility coordinates."""
        expected = config_fingerprint(config)
        if self.fingerprint != expected:
            raise SimulationError(
                "checkpoint was taken for a different configuration "
                f"(fingerprint {self.fingerprint[:12]}… vs {expected[:12]}…)"
            )
        if self.seed != seed:
            raise SimulationError(
                f"checkpoint seed {self.seed!r} does not match run seed {seed!r}"
            )
        if self.engine != engine:
            raise SimulationError(
                f"checkpoint engine {self.engine!r} does not match run engine {engine!r}"
            )
        if self.shard_size != shard_size:
            raise SimulationError(
                f"checkpoint shard_size {self.shard_size} does not match "
                f"run shard_size {shard_size}"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation."""
        return {
            "format": CHECKPOINT_FORMAT,
            "fingerprint": self.fingerprint,
            "seed": self.seed,
            "engine": self.engine,
            "shard_size": self.shard_size,
            "shard_sizes": self.shard_sizes,
            "elapsed_seconds": self.elapsed_seconds,
            "accumulator": self.accumulator_state,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "RunCheckpoint":
        """Inverse of :meth:`to_dict`; rejects unknown formats and a cursor
        that its shard size or its accumulator contradicts."""
        fmt = state.get("format")
        if fmt != CHECKPOINT_FORMAT:
            raise CheckpointFormatError(
                f"unsupported checkpoint format {fmt!r}; expected {CHECKPOINT_FORMAT!r}"
            )
        shard_size = int(state["shard_size"])  # type: ignore[arg-type]
        shard_sizes = [
            [operator.index(size), operator.index(count)]
            for size, count in state["shard_sizes"]  # type: ignore[union-attr]
        ]
        for size, count in shard_sizes:
            if not 1 <= size <= shard_size or count < 1:
                raise SimulationError(
                    f"checkpoint cursor records {count} shard(s) of {size} groups, "
                    f"not shards of 1 to {shard_size} groups — the file was "
                    "hand-edited or corrupted; delete it and resume from an intact "
                    "checkpoint, or restart the run"
                )
        checkpoint = cls(
            fingerprint=str(state["fingerprint"]),
            seed=state["seed"],  # type: ignore[arg-type]
            engine=str(state["engine"]),
            shard_size=shard_size,
            shard_sizes=shard_sizes,
            accumulator_state=state["accumulator"],  # type: ignore[arg-type]
            elapsed_seconds=float(state.get("elapsed_seconds", 0.0)),  # type: ignore[arg-type]
        )
        # A resume skips the cursor's shards and keeps the accumulator's
        # groups, so both must count the same groups: a cursor past the
        # accumulator would leave the difference never simulated, and
        # seed the next shard from the wrong spawn position.
        held = checkpoint.accumulator_state["n_groups"]
        shards, groups = cursor_counts(shard_sizes)
        if held != groups:
            raise SimulationError(
                f"checkpoint cursor counts {groups} groups in "
                f"{shards} shards but its accumulator holds "
                f"{held!r} — the file was hand-edited or corrupted; delete it and "
                "resume from an intact checkpoint, or restart the run"
            )
        return checkpoint


def atomic_write_text(path: str, payload: str) -> None:
    """Durably and atomically replace ``path`` with ``payload``.

    The payload lands in a *uniquely named* temp file in the target
    directory (so concurrent writers to the same path cannot clobber
    each other's in-flight data), is ``fsync``-ed to disk before the
    atomic ``os.replace``, and the directory entry is synced best-effort
    afterwards — a crash at any instant leaves either the old complete
    file or the new complete file, never a truncated hybrid.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(dir_fd)


def save_checkpoint(path: str, checkpoint: RunCheckpoint) -> None:
    """Atomically and durably write a checkpoint file."""
    atomic_write_text(path, json.dumps(checkpoint.to_dict(), sort_keys=True))


def load_checkpoint(
    path: str, expected_fingerprint: Optional[str] = None
) -> RunCheckpoint:
    """Read a checkpoint file written by :func:`save_checkpoint`.

    Empty or truncated files — possible only if the checkpoint was
    produced by something other than :func:`save_checkpoint`'s atomic
    writer, e.g. a partial copy off a dying machine — are reported with
    an actionable message instead of a bare JSON parse error.

    ``expected_fingerprint`` pins the checkpoint to a specific
    configuration *at load time*: callers that map a config to a
    checkpoint path themselves pass the expected
    :func:`config_fingerprint`, and a file
    whose recorded fingerprint disagrees — moved, renamed, or hand-edited
    — is rejected here with an actionable error instead of being merged
    silently into the wrong design's statistics.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise SimulationError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if not text.strip():
        raise SimulationError(
            f"checkpoint {path!r} is empty — the write never completed "
            "(it was not produced by this runner's atomic writer); delete it "
            "and resume from an intact checkpoint, or restart the run"
        )
    try:
        state = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimulationError(
            f"checkpoint {path!r} is truncated or corrupt "
            f"({len(text)} bytes; JSON error: {exc}) — likely an interrupted "
            "or partial copy; delete it and resume from an intact checkpoint, "
            "or restart the run"
        ) from exc
    checkpoint = RunCheckpoint.from_dict(state)
    if (
        expected_fingerprint is not None
        and checkpoint.fingerprint != expected_fingerprint
    ):
        raise SimulationError(
            f"checkpoint {path!r} belongs to a different configuration: its "
            f"fingerprint {checkpoint.fingerprint[:12]}… does not match the "
            f"expected {expected_fingerprint[:12]}… — the file was moved, "
            "renamed, or hand-edited; delete the stale file or point this "
            "run at the checkpoint that matches its configuration"
        )
    return checkpoint
