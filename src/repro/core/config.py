"""One frozen run configuration for the scattered ``REPRO_*`` toggles.

Two environment variables steer performance plumbing owned by two
different modules:

============================  =========================================
``REPRO_CLOSENESS_KERNEL``    fused bit-plane kernel on/off
                              (:mod:`repro.core.kernel`)
``REPRO_SHARD_JOBS``          shard-task worker count
                              (:mod:`repro.experiments.parallel`)
============================  =========================================

A :class:`RunConfig` consolidates them into one frozen, picklable
record that the runner, the sweeps, and the spawn-pool cells all
thread explicitly, plus the :class:`~repro.core.online.OnlineSpec`
steering online incremental reallocation.

Precedence (single order, everywhere)
-------------------------------------
1. an explicit non-``None`` ``RunConfig`` field set in code or via CLI;
2. the corresponding ``REPRO_*`` environment variable;
3. the built-in default (kernel on, shard jobs serial, online
   reallocation off).

Fields left ``None`` mean "defer to 2–3" — the modules owning each
toggle already implement that fallback, so a default-constructed
``RunConfig()`` changes nothing (pinned by the equivalence suites).
:meth:`RunConfig.resolved` pins the environment lookups eagerly for
callers that need a self-contained record (e.g. before shipping work
to processes that must not re-read a mutated environment).

Every field here only ever *selects code paths and knobs* that are
value-exact by construction; no configuration value flows into
reported metrics, so determinism contracts are unaffected.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.core.energy import EnergySpec
from repro.core.kernel import kernel_enabled
from repro.core.online import OnlineSpec

#: Worker count for intra-run shard allocation; ``<= 1`` keeps shards
#: serial in-process, ``0`` means one per CPU.  Defined here (the
#: lowest layer that documents it) and re-exported by
#: :mod:`repro.experiments.parallel`, which owns the pool.
SHARD_JOBS_ENV_VAR = "REPRO_SHARD_JOBS"


def shard_jobs_from_env(default: int = 1) -> int:
    """Parse :data:`SHARD_JOBS_ENV_VAR` (malformed/negative → default)."""
    raw = os.environ.get(SHARD_JOBS_ENV_VAR, str(default)).strip()
    try:
        value = int(raw)
    except ValueError:
        return default
    if value < 0:
        return default
    return value


@dataclass(frozen=True)
class RunConfig:
    """Explicit run-wide configuration (``None`` = defer to env/default).

    Parameters
    ----------
    use_kernel:
        Tri-state switch for the closeness kernel — a value-exact
        acceleration.
    shard_jobs:
        Worker count for sharded Phase-2 allocation; ``0`` = one per
        CPU, ``1`` = serial.
    online:
        An :class:`~repro.core.online.OnlineSpec` enabling online
        incremental reallocation between full CROC cycles; ``None``
        leaves the classic full-cycle-only schedule.
    """

    use_kernel: Optional[bool] = None
    shard_jobs: Optional[int] = None
    online: Optional[OnlineSpec] = None
    #: An :class:`~repro.core.energy.EnergySpec` attaching post-hoc
    #: energy accounting to each measurement; ``None`` = off.  Pure
    #: arithmetic over already-measured counters — never a behavioral
    #: knob (pinned by the energy equivalence suite).
    energy: Optional[EnergySpec] = None

    def __post_init__(self) -> None:
        if self.shard_jobs is not None and self.shard_jobs < 0:
            raise ValueError(
                f"shard_jobs must be >= 0, got {self.shard_jobs}"
            )

    def resolved(self) -> "RunConfig":
        """Pin every deferred field against the current environment.

        The result has no ``None`` performance fields (``online`` stays
        as-is — there is no environment default for it), so it answers
        identically no matter what the environment does afterwards.
        """
        return replace(
            self,
            use_kernel=kernel_enabled(self.use_kernel),
            shard_jobs=(
                self.shard_jobs
                if self.shard_jobs is not None
                else shard_jobs_from_env()
            ),
        )

    def allocator_knobs(self) -> Dict[str, Any]:
        """The knob subset allocator builders understand.

        Fed to :func:`repro.core.allocators.get` alongside the
        runner-owned knobs (``rng``, ``failure_budget``); builders pick
        what they support and ignore the rest.
        """
        return {
            "use_kernel": self.use_kernel,
            "online": self.online,
            "energy": self.energy,
        }
