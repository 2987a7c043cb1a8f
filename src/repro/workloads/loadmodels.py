"""Parametric load models: one snapshot per draw.

The paper's Section VI evaluates three static load snapshots (uniform,
exponential, peak).  Production systems see far richer traffic: diurnal
cycles that peak at different local times per region, flash crowds that
concentrate demand on a handful of organizations, heavy-tailed org sizes
(a few giants, many small tenants) and correlated regional surges.

Every model is a frozen dataclass whose one entry point,
:meth:`LoadModel.sample`, draws a load *snapshot* ``n`` of shape ``(m,)``
(strictly positive, suitable for :class:`repro.Instance`).  Load
*trajectories* are :mod:`repro.tracking` traces, most of which are
built on these snapshots (drift, regime switches, flash-crowd replay).

All randomness flows through the caller's generator, so a fixed seed gives
a bit-identical workload — the property the scenario registry builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = [
    "LoadModel",
    "UniformLoads",
    "ExponentialLoads",
    "DiurnalLoads",
    "FlashCrowdLoads",
    "ParetoLoads",
    "LognormalLoads",
    "CorrelatedSurgeLoads",
    "check_diurnal",
    "diurnal_loads",
    "positive_loads",
    "scale_to_average",
]

#: Loads are floored at this value so every organization stays a (tiny)
#: owner: ``Instance`` validation, the optimizers' owner sets and the
#: routing fractions of every trace epoch all stay well-defined.
_MIN_LOAD = 1e-6


def scale_to_average(loads: np.ndarray, avg: float) -> np.ndarray:
    """Rescale a load vector so its mean is ``avg`` (the paper's ``l_av``)."""
    loads = np.asarray(loads, dtype=np.float64)
    mean = loads.mean()
    if mean <= 0:
        return np.full_like(loads, float(avg))
    return loads * (float(avg) / mean)


def positive_loads(loads: np.ndarray) -> np.ndarray:
    """``loads`` as float64, floored at a tiny positive load — the one
    floor of every load model snapshot and trace epoch."""
    return np.maximum(np.asarray(loads, dtype=np.float64), _MIN_LOAD)


def check_diurnal(amplitude: float, regions: int) -> None:
    """The diurnal sine's parameter checks, shared by
    :class:`DiurnalLoads` and :class:`repro.tracking.DiurnalSweepTrace`."""
    if not 0.0 <= amplitude < 1.0:
        raise ValueError("amplitude must be in [0, 1) to keep loads positive")
    if regions < 1:
        raise ValueError("need at least one region")


def diurnal_loads(
    model, t: float, region: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One diurnal snapshot at day-time ``t`` (in periods):
    ``base · (1 + amplitude · sin(2π(t + region/regions))) · noise`` with
    log-normal ``noise`` of ``noise_sigma`` drawn from ``rng``, for
    organizations in time zones ``region``.  ``model`` supplies
    ``base``, ``amplitude``, ``regions`` and ``noise_sigma``."""
    phase = region / model.regions
    level = 1.0 + model.amplitude * np.sin(2.0 * np.pi * (t + phase))
    noise = rng.lognormal(0.0, model.noise_sigma, size=region.size)
    return positive_loads(model.base * level * noise)


@runtime_checkable
class LoadModel(Protocol):
    """Anything that can emit load snapshots."""

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """One strictly-positive load snapshot of shape ``(m,)``."""
        ...


@dataclass(frozen=True)
class UniformLoads:
    """The paper's *uniform* snapshot: ``n_i ~ U(0, 2·avg)``."""

    avg: float = 50.0

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return positive_loads(rng.uniform(0.0, 2.0 * self.avg, size=m))


@dataclass(frozen=True)
class ExponentialLoads:
    """The paper's *exponential* snapshot: ``n_i ~ Exp(avg)``."""

    avg: float = 50.0

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return positive_loads(rng.exponential(self.avg, size=m))


@dataclass(frozen=True)
class DiurnalLoads:
    """Day/night sinusoid with per-organization local-time phases.

    Each organization sits in one of ``regions`` time zones; region ``r``'s
    phase is offset by ``r / regions`` of a period.  A snapshot observes
    the system at a uniformly random time of day, so some regions are at
    peak while others sleep — the classic federated-cloud imbalance that
    makes delay-aware balancing profitable.

    ``load(t) = base · (1 + amplitude · sin(2π(t + φ_i))) · noise``
    """

    base: float = 40.0
    amplitude: float = 0.8
    regions: int = 4
    noise_sigma: float = 0.2

    def __post_init__(self) -> None:
        check_diurnal(self.amplitude, self.regions)

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        t = float(rng.uniform())
        return diurnal_loads(self, t, rng.integers(0, self.regions, size=m), rng)


@dataclass(frozen=True)
class FlashCrowdLoads:
    """A few organizations suddenly own a crowd.

    Background traffic is exponential with mean ``base``; a random
    ``hot_fraction`` of organizations (at least one) additionally receives
    a spike of ``magnitude × base`` requests — the generalization of the
    paper's single-server *peak* distribution.
    """

    base: float = 10.0
    hot_fraction: float = 0.05
    magnitude: float = 200.0

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        loads = rng.exponential(self.base, size=m)
        hot = max(1, int(round(self.hot_fraction * m)))
        idx = rng.choice(m, size=min(hot, m), replace=False)
        loads[idx] += self.magnitude * self.base * rng.uniform(0.5, 1.5, size=idx.size)
        return positive_loads(loads)


@dataclass(frozen=True)
class ParetoLoads:
    """Heavy-tailed org sizes: ``n_i = scale · (1 + Pareto(shape))``.

    With ``shape ≤ 2`` the variance is infinite — a handful of giant
    tenants dominate the total load, stressing the optimizers' peak paths.
    """

    shape: float = 1.5
    scale: float = 15.0

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return positive_loads(self.scale * (1.0 + rng.pareto(self.shape, size=m)))


@dataclass(frozen=True)
class LognormalLoads:
    """Log-normal org sizes (multiplicative growth), median ``median``."""

    median: float = 30.0
    sigma: float = 1.0

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        return positive_loads(self.median * rng.lognormal(0.0, self.sigma, size=m))


@dataclass(frozen=True)
class CorrelatedSurgeLoads:
    """Regionally correlated surges.

    Organizations are grouped into ``regions``; each region independently
    surges with probability ``surge_prob``, multiplying every member's
    baseline by ``surge_factor``.  Unlike independent heavy tails, the
    *correlation* means a whole neighbourhood of the latency matrix goes
    hot at once — nearby offloading capacity is scarce exactly where it is
    needed, the hard case for delay-aware balancing.
    """

    regions: int = 4
    base: float = 20.0
    surge_prob: float = 0.3
    surge_factor: float = 8.0
    noise_sigma: float = 0.25

    def sample(self, m: int, rng: np.random.Generator) -> np.ndarray:
        region = rng.integers(0, self.regions, size=m)
        surged = rng.uniform(size=self.regions) < self.surge_prob
        factor = np.where(surged, self.surge_factor, 1.0)[region]
        noise = rng.lognormal(0.0, self.noise_sigma, size=m)
        return positive_loads(self.base * factor * noise)
