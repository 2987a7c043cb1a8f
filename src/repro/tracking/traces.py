"""Deterministic load-trace generators for non-stationary tracking runs.

A *trace* turns the static load snapshot of a :class:`repro.Scenario`
into a function of time: a sorted sequence of ``(t, load_vector)``
epochs, with ``t`` measured in *agent rounds* (the control plane's
natural clock, so the same trace means the same thing on a 0.5 ms
fat-tree and a 90 ms WAN).  Demand is piecewise constant between epochs
— the regime of She & Tang's warm-started iterative re-optimization —
and every generator is a pure function of ``(trace, m, rng)``, so a
fixed seed yields a bit-identical trace on any machine.

Families (all registered under stable names, see :data:`TRACE_PRESETS`):

* :class:`DriftTrace` — piecewise-constant multiplicative random-walk
  drift on top of any :class:`repro.workloads.LoadModel` snapshot;
* :class:`RegimeSwitchTrace` — holds a load model's snapshot until a
  regime switch re-samples from the *next* model (e.g. quiet
  exponential traffic → a flash crowd → correlated surges);
* :class:`FlashCrowdReplay` — replays one flash-crowd incident: ramp,
  peak, geometric decay back to the background;
* :class:`DiurnalSweepTrace` — sweeps a full day of the per-region
  sinusoidal diurnal cycle in ``n_epochs`` steps;
* :class:`MeasuredTrace` — replays a measured ``(epochs, m)`` load
  matrix from a CSV or ``.npz`` file.

Register your own with :func:`register_trace`; anything with an
``epochs(m, rng) -> [(t, loads), ...]`` method fits.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..workloads.loadmodels import (
    CorrelatedSurgeLoads,
    ExponentialLoads,
    FlashCrowdLoads,
    LoadModel,
    positive_loads,
)

__all__ = [
    "LoadTrace",
    "DriftTrace",
    "RegimeSwitchTrace",
    "FlashCrowdReplay",
    "DiurnalSweepTrace",
    "MeasuredTrace",
    "register_trace",
    "get_trace",
    "list_traces",
    "trace_epochs",
    "TRACE_PRESETS",
]

_TRACE_ENTROPY = 0x7C4C31E5


@runtime_checkable
class LoadTrace(Protocol):
    """Anything that can emit a deterministic epoch sequence."""

    def epochs(
        self, m: int, rng: np.random.Generator
    ) -> list[tuple[float, np.ndarray]]:
        """Sorted ``(t_rounds, loads)`` epochs; ``t`` starts at 0 and
        every load vector is strictly positive with shape ``(m,)``."""
        ...


class _EpochGrid:
    """Shared helper: evenly spaced epochs ``0, d, 2d, ...``."""

    n_epochs: int
    epoch_rounds: float

    def _times(self) -> list[float]:
        return [k * float(self.epoch_rounds) for k in range(self.n_epochs)]

    def _check(self) -> None:
        if self.n_epochs < 1:
            raise ValueError("a trace needs at least one epoch")
        if self.epoch_rounds <= 0:
            raise ValueError("epoch duration must be positive (in rounds)")


@dataclass(frozen=True)
class DriftTrace(_EpochGrid):
    """Piecewise-constant drift: a multiplicative log-normal random walk.

    Epoch 0 samples ``base`` once; each later epoch multiplies every
    organization's load by an independent ``lognormal(0, drift_sigma)``
    factor.  ``renormalize`` keeps the *total* demand constant, so the
    optimum moves because the demand *mix* shifts, not its volume.
    """

    base: LoadModel = ExponentialLoads(avg=50.0)
    n_epochs: int = 8
    epoch_rounds: float = 20.0
    drift_sigma: float = 0.35
    renormalize: bool = True

    def __post_init__(self) -> None:
        self._check()
        if self.drift_sigma < 0:
            raise ValueError("drift_sigma must be non-negative")

    def epochs(self, m, rng):
        loads = positive_loads(self.base.sample(m, rng))
        total = loads.sum()
        out = [(0.0, loads)]
        for t in self._times()[1:]:
            loads = loads * rng.lognormal(0.0, self.drift_sigma, size=m)
            if self.renormalize:
                loads = loads * (total / loads.sum())
            loads = positive_loads(loads)
            out.append((t, loads))
        return out


@dataclass(frozen=True)
class RegimeSwitchTrace(_EpochGrid):
    """Hold a snapshot until the workload switches regime.

    At each epoch boundary the trace switches to the next model of
    ``models`` with probability ``switch_prob`` (always re-sampling on a
    switch); otherwise the previous epoch's loads are held, so demand is
    genuinely piecewise constant with a few large jumps.
    """

    models: tuple[LoadModel, ...] = (
        ExponentialLoads(avg=50.0),
        FlashCrowdLoads(base=10.0, hot_fraction=0.05, magnitude=200.0),
        CorrelatedSurgeLoads(regions=4, base=20.0, surge_factor=8.0),
    )
    n_epochs: int = 9
    epoch_rounds: float = 20.0
    switch_prob: float = 0.6

    def __post_init__(self) -> None:
        self._check()
        if not self.models:
            raise ValueError("need at least one load model")
        if not 0.0 <= self.switch_prob <= 1.0:
            raise ValueError("switch_prob must be a probability")

    def epochs(self, m, rng):
        active = 0
        loads = positive_loads(self.models[active].sample(m, rng))
        out = [(0.0, loads)]
        for t in self._times()[1:]:
            if rng.uniform() < self.switch_prob:
                active = (active + 1) % len(self.models)
                loads = positive_loads(self.models[active].sample(m, rng))
            out.append((t, loads))
        return out


@dataclass(frozen=True)
class FlashCrowdReplay(_EpochGrid):
    """Replay of one flash-crowd incident over a quiet background.

    The background is a single held snapshot of ``base``.  Starting at
    ``onset`` (an epoch index), a random ``crowd_fraction`` of
    organizations gains ``magnitude ×`` their baseline, ramping up over
    ``ramp_epochs`` and then decaying geometrically by ``decay`` per
    epoch — the canonical "peak of demand followed by a long period of
    low activity" shape, stretched so trackers must follow both edges.
    """

    base: LoadModel = ExponentialLoads(avg=30.0)
    n_epochs: int = 10
    epoch_rounds: float = 20.0
    crowd_fraction: float = 0.08
    magnitude: float = 30.0
    onset: int = 2
    ramp_epochs: int = 2
    decay: float = 0.35

    def __post_init__(self) -> None:
        self._check()
        if not 0 < self.crowd_fraction <= 1:
            raise ValueError("crowd_fraction must be in (0, 1]")
        if not 0 <= self.onset < self.n_epochs:
            raise ValueError("onset must be an epoch index")
        if self.ramp_epochs < 1:
            raise ValueError("ramp_epochs must be >= 1")
        if not 0 < self.decay < 1:
            raise ValueError("decay must be in (0, 1)")

    def epochs(self, m, rng):
        background = positive_loads(self.base.sample(m, rng))
        hot = rng.choice(
            m, size=max(1, int(round(self.crowd_fraction * m))), replace=False
        )
        peak = self.magnitude * background[hot]
        out = []
        for k, t in enumerate(self._times()):
            loads = background.copy()
            if k >= self.onset:
                steps_in = k - self.onset
                if steps_in < self.ramp_epochs:
                    level = (steps_in + 1) / self.ramp_epochs
                else:
                    level = self.decay ** (steps_in - self.ramp_epochs + 1)
                loads[hot] = background[hot] + level * peak
            out.append((t, positive_loads(loads)))
        return out


@dataclass(frozen=True)
class DiurnalSweepTrace(_EpochGrid):
    """A full day of the per-region diurnal sine, in ``n_epochs`` steps.

    Organizations are assigned to ``regions`` time zones once; epoch
    ``k`` observes the system at day-time ``k/n_epochs`` (per-org noise
    is drawn per epoch), so load crests roll around the planet during
    the trace — the slow, smooth end of the non-stationary spectrum.
    """

    base: float = 40.0
    amplitude: float = 0.8
    regions: int = 4
    noise_sigma: float = 0.1
    n_epochs: int = 12
    epoch_rounds: float = 15.0

    def __post_init__(self) -> None:
        self._check()
        if self.base < 0:
            raise ValueError("base load must be non-negative")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1) to keep loads positive")
        if self.regions < 1:
            raise ValueError("need at least one region")

    def epochs(self, m, rng):
        region = rng.integers(0, self.regions, size=m)
        phase = region / self.regions
        out = []
        for k, t in enumerate(self._times()):
            day = k / self.n_epochs
            level = 1.0 + self.amplitude * np.sin(2.0 * np.pi * (day + phase))
            noise = rng.lognormal(0.0, self.noise_sigma, size=m)
            out.append((t, positive_loads(self.base * level * noise)))
        return out


@dataclass(frozen=True, eq=False)
class MeasuredTrace(_EpochGrid):
    """Replay a measured ``(epochs, m)`` load matrix.

    Rows are epochs, columns organizations; values are floored to stay
    strictly positive.  The requested ``m`` must match the matrix width
    — measured data is not resampled silently.
    """

    matrix: np.ndarray = None  # type: ignore[assignment]
    epoch_rounds: float = 20.0

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] < 1:
            raise ValueError("measured trace must be a 2-D (epochs, m) matrix")
        if not np.all(np.isfinite(mat)):
            raise ValueError("measured loads must be finite")
        object.__setattr__(self, "matrix", mat)
        if self.epoch_rounds <= 0:
            raise ValueError("epoch duration must be positive (in rounds)")

    @property
    def n_epochs(self) -> int:  # type: ignore[override]
        return self.matrix.shape[0]

    @classmethod
    def from_csv(cls, path: "str | os.PathLike", *, epoch_rounds: float = 20.0):
        """Load a trace from CSV (one epoch per row, comma-separated)."""
        return cls(np.loadtxt(os.fspath(path), delimiter=","), epoch_rounds=epoch_rounds)

    @classmethod
    def from_npz(
        cls,
        path: "str | os.PathLike",
        *,
        key: str = "loads",
        epoch_rounds: float = 20.0,
    ):
        """Load a trace from an ``.npz`` archive (``key`` names the matrix)."""
        with np.load(os.fspath(path)) as npz:
            return cls(npz[key], epoch_rounds=epoch_rounds)

    def epochs(self, m, rng):
        if m != self.matrix.shape[1]:
            raise ValueError(
                f"measured trace has {self.matrix.shape[1]} organizations, "
                f"cannot replay it for m={m}"
            )
        return [
            (k * float(self.epoch_rounds), positive_loads(row))
            for k, row in enumerate(self.matrix)
        ]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, LoadTrace] = {}


def register_trace(
    name: str, trace: LoadTrace, *, overwrite: bool = False
) -> LoadTrace:
    """Register a trace family under a stable name."""
    if not overwrite and name in _REGISTRY:
        raise ValueError(
            f"trace {name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _REGISTRY[name] = trace
    return trace


def get_trace(name: str) -> LoadTrace:
    """Look up a registered trace family by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown trace {name!r}; registered: {known}") from None


def list_traces() -> dict[str, str]:
    """``{name: summary}`` for every registered trace family."""
    return {name: type(t).__name__ for name, t in sorted(_REGISTRY.items())}


def trace_epochs(
    trace: "LoadTrace | str", m: int, seed: int = 0
) -> list[tuple[float, np.ndarray]]:
    """The deterministic epoch sequence of one ``(trace, m, seed)`` cell.

    The generator is derived exactly like scenario cells are: a
    dedicated entropy constant mixed with the trace name (registered
    traces) or class name, ``m`` and ``seed`` — so traces, scenarios and
    control-plane streams can share seed integers without collisions.
    """
    if isinstance(trace, str):
        label, trace = trace, get_trace(trace)
    else:
        label = type(trace).__name__
    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=_TRACE_ENTROPY,
            spawn_key=(zlib.crc32(label.encode()), int(m), int(seed)),
        )
    )
    epochs = trace.epochs(m, rng)
    if not epochs:
        raise ValueError("trace produced no epochs")
    times = [t for t, _ in epochs]
    if times[0] != 0.0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("trace epochs must start at 0 and strictly increase")
    return epochs


#: Built-in trace families, one per non-stationarity shape (plus the
#: mild-drift variant benchmarked at m = 500: the regime where the
#: warm-started stateful solver's advantage over cold restart is
#: largest, because only a fraction of the fleet needs re-exchanging).
TRACE_PRESETS: dict[str, LoadTrace] = {
    "drift": DriftTrace(),
    "drift-mild": DriftTrace(drift_sigma=0.1, n_epochs=5),
    "regime": RegimeSwitchTrace(),
    "flash-replay": FlashCrowdReplay(),
    "diurnal": DiurnalSweepTrace(),
}

for _name, _trace in TRACE_PRESETS.items():
    register_trace(_name, _trace)
del _name, _trace
