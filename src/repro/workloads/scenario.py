"""Scenario registry: named, reproducible (topology × load model) configs.

A :class:`Scenario` bundles everything needed to materialize an
:class:`repro.Instance`: a topology factory, a load model, a default
organization count, a speed range and a base seed.  Materialization is a
pure function of ``(scenario name, m, seed)`` — the same triple always
yields a bit-identical instance, on any machine.

Presets cover the paper's two Section VI settings plus new production
shapes; register your own with :func:`register_scenario`:

>>> from repro.workloads import Scenario, DiurnalLoads, register_scenario
>>> from repro.workloads import ring_of_clusters_latency
>>> register_scenario(Scenario(
...     name="my-federation",
...     topology=ring_of_clusters_latency,
...     load_model=DiurnalLoads(base=100.0),
...     m=40,
... ))
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Union

import numpy as np

from ..core.instance import Instance
from ..net.topology import homogeneous_latency, planetlab_like_latency
from ..net.trust import (
    is_trust_connected,
    k_nearest_trust,
    random_trust,
    restrict_latency,
    ring_trust,
)
from .loadmodels import (
    CorrelatedSurgeLoads,
    DiurnalLoads,
    ExponentialLoads,
    FlashCrowdLoads,
    LoadModel,
    LognormalLoads,
    ParetoLoads,
)
from .topologies import (
    fat_tree_latency,
    ring_of_clusters_latency,
    star_hub_latency,
)

__all__ = [
    "Scenario",
    "TrustSpec",
    "TopologyFactory",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_grid",
    "PRESETS",
    "TRUST_PRESETS",
]

#: ``factory(m, rng) -> (m, m)`` latency matrix.  All generators in
#: :mod:`repro.net.topology` and :mod:`repro.workloads.topologies` fit
#: this signature via their keyword-only ``rng``.
TopologyFactory = Callable[..., np.ndarray]

_SCENARIO_ENTROPY = 0x5CE7A210


def _homogeneous_20ms(m: int, *, rng=None) -> np.ndarray:
    return homogeneous_latency(m, 20.0)


@dataclass(frozen=True)
class TrustSpec:
    """Declarative §II trust restriction attached to a :class:`Scenario`.

    ``kind`` selects the builder from :mod:`repro.net.trust`:

    * ``"ring"`` — everyone trusts ``hops`` ring neighbours per side;
    * ``"k_nearest"`` — the ``k`` lowest-latency peers, or-symmetrized
      so the control plane's pairwise handshakes stay routable;
    * ``"random"`` — Erdős–Rényi with edge probability ``p``, drawn on
      the entropy-separated :func:`repro.net.trust.random_trust` stream
      keyed by the materialization's ``(m, seed)``.

    Being a frozen dataclass of plain values, a spec compares, hashes
    and pickles like every other scenario field — instance caching and
    the process sweep backends keep working unchanged.
    """

    kind: str
    hops: int = 2
    k: int = 4
    p: float = 0.3

    def __post_init__(self) -> None:
        if self.kind not in ("ring", "k_nearest", "random"):
            raise ValueError(
                f"unknown trust kind {self.kind!r}; "
                "expected 'ring', 'k_nearest' or 'random'"
            )

    def allowed(self, latency: np.ndarray, *, seed: int = 0) -> np.ndarray:
        """The boolean trust mask for one materialized topology."""
        m = latency.shape[0]
        if self.kind == "ring":
            return ring_trust(m, hops=self.hops)
        if self.kind == "k_nearest":
            return k_nearest_trust(latency, self.k, symmetric=True)
        return random_trust(m, self.p, seed=seed)


@dataclass(frozen=True)
class Scenario:
    """A named, seeded workload configuration.

    Parameters
    ----------
    name:
        Registry key; also the label in :class:`ScenarioResult` rows.
    topology:
        Callable ``(m, *, rng) -> latency matrix``.
    load_model:
        A :class:`repro.workloads.LoadModel` producing the initial loads.
    m:
        Default organization count (overridable at materialization).
    seed:
        Base seed mixed into every derived generator.
    speed_range:
        Server speeds are uniform on this range (§VI-A uses ``[1, 5]``);
        a degenerate range ``(s, s)`` gives constant speeds.
    trust:
        Optional :class:`TrustSpec`: non-trusted links get infinite
        latency (§II neighbour restriction) after the topology is drawn,
        and materialization fails loudly if the trust graph cannot
        spread load globally (:func:`repro.net.trust.is_trust_connected`).
    description:
        One-line human description shown by :func:`list_scenarios`.
    """

    name: str
    topology: TopologyFactory
    load_model: LoadModel
    m: int = 50
    seed: int = 0
    speed_range: tuple[float, float] = (1.0, 5.0)
    trust: TrustSpec | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("a scenario needs at least one organization")
        lo, hi = self.speed_range
        if not (0 < lo <= hi):
            raise ValueError("speed_range must satisfy 0 < low <= high")

    # ------------------------------------------------------------------
    def rng(self, m: int | None = None, seed: int | None = None) -> np.random.Generator:
        """The deterministic generator for one ``(name, m, seed)`` cell."""
        m = self.m if m is None else int(m)
        seed = self.seed if seed is None else int(seed)
        return np.random.default_rng(
            np.random.SeedSequence(
                entropy=_SCENARIO_ENTROPY,
                spawn_key=(zlib.crc32(self.name.encode()), m, seed),
            )
        )

    def instance(self, m: int | None = None, *, seed: int | None = None) -> Instance:
        """Materialize the scenario into a solver-ready :class:`Instance`."""
        m = self.m if m is None else int(m)
        rng = self.rng(m, seed)
        lo, hi = self.speed_range
        speeds = rng.uniform(lo, hi, size=m) if hi > lo else np.full(m, lo)
        loads = self.load_model.sample(m, rng)
        latency = self.topology(m, rng=rng)
        if self.trust is not None:
            cell_seed = self.seed if seed is None else int(seed)
            allowed = self.trust.allowed(latency, seed=cell_seed)
            if not is_trust_connected(allowed):
                raise ValueError(
                    f"scenario {self.name!r} at (m={m}, seed={cell_seed}): "
                    f"trust graph {self.trust} is disconnected — load cannot "
                    "spread globally; widen the trust spec (more hops/k or a "
                    "higher edge probability)"
                )
            latency = restrict_latency(latency, allowed)
        return Instance(speeds, loads, latency)

    def with_overrides(self, **changes) -> "Scenario":
        """A copy with some fields replaced (dataclass ``replace``)."""
        return replace(self, **changes)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, *, overwrite: bool = False) -> Scenario:
    """Add a scenario to the global registry and return it.

    Re-registering an existing name raises unless ``overwrite`` is set.
    """
    if not overwrite and scenario.name in _REGISTRY:
        raise ValueError(
            f"scenario {scenario.name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def list_scenarios() -> dict[str, str]:
    """``{name: description}`` for every registered scenario."""
    return {name: s.description for name, s in sorted(_REGISTRY.items())}


ScenarioLike = Union[str, Scenario]


def scenario_grid(
    scenarios: Iterable[ScenarioLike] | ScenarioLike,
    sizes: Iterable[int] | None,
    seeds: Iterable[int],
) -> list[tuple[Scenario, int, int]]:
    """The cartesian ``(scenario, m, seed)`` cells of a sweep, in declared
    order.

    ``scenarios`` mixes registry names and :class:`Scenario` objects (a
    single one of either is a one-scenario grid); ``sizes`` of ``None``
    uses each scenario's default ``m``.  Every sweep enumerates its grid
    here — :class:`~repro.workloads.ScenarioRunner`,
    :func:`repro.livesim.live_sweep` and :func:`repro.tracking.tracking_sweep`
    — so their rows, stores and shards follow one order.  An empty axis
    raises a ``ValueError`` naming it: a sweep over nothing is a mistake,
    not an empty report.
    """
    if isinstance(scenarios, (str, Scenario)):
        scenarios = [scenarios]
    resolved = [s if isinstance(s, Scenario) else get_scenario(s) for s in scenarios]
    sizes = None if sizes is None else [int(m) for m in sizes]
    seeds = [int(seed) for seed in seeds]
    for arg, axis, what in (
        ("scenarios", resolved, "scenario"),
        ("sizes", sizes, "size; pass sizes=None for each scenario's default m"),
        ("seeds", seeds, "seed"),
    ):
        if axis is not None and not axis:
            raise ValueError(f"{arg} is empty: a sweep needs at least one {what}")
    return [
        (sc, m, seed)
        for sc in resolved
        for m in (sizes if sizes is not None else (sc.m,))
        for seed in seeds
    ]


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
PRESETS: tuple[Scenario, ...] = (
    Scenario(
        name="paper-homogeneous",
        topology=_homogeneous_20ms,
        load_model=ExponentialLoads(avg=50.0),
        m=50,
        description="§VI-A homogeneous network (c=20 ms), exponential loads",
    ),
    Scenario(
        name="paper-planetlab",
        topology=planetlab_like_latency,
        load_model=ExponentialLoads(avg=50.0),
        m=50,
        description="§VI-A PlanetLab-like RTTs, exponential loads",
    ),
    Scenario(
        name="cdn-flashcrowd",
        topology=planetlab_like_latency,
        load_model=FlashCrowdLoads(base=10.0, hot_fraction=0.05, magnitude=200.0),
        m=60,
        description="CDN edge sites; a few sites hit by a flash crowd",
    ),
    Scenario(
        name="federation-diurnal",
        topology=ring_of_clusters_latency,
        load_model=DiurnalLoads(base=40.0, amplitude=0.8, regions=4),
        m=48,
        description="Geo-federated clouds on a WAN ring; day/night phase offsets",
    ),
    Scenario(
        name="datacenter-fattree",
        topology=fat_tree_latency,
        load_model=LognormalLoads(median=30.0, sigma=1.0),
        m=64,
        description="Single datacenter fat-tree; log-normal tenant sizes",
    ),
    Scenario(
        name="hub-heavytail",
        topology=star_hub_latency,
        load_model=ParetoLoads(shape=1.5, scale=15.0),
        m=40,
        description="Hub-and-spoke federation; Pareto heavy-tailed org loads",
    ),
    Scenario(
        name="regional-surge",
        topology=ring_of_clusters_latency,
        load_model=CorrelatedSurgeLoads(regions=4, base=20.0, surge_factor=8.0),
        m=48,
        description="WAN ring with correlated whole-region load surges",
    ),
)

#: Trust-restricted variants (§II neighbour restriction as a first-class
#: scenario axis).  Registered like the base presets but kept out of
#: ``PRESETS``: the determinism/convergence suites iterate that tuple,
#: and a trust-restricted plane converges to a *different* (restricted)
#: optimum on a different schedule.
TRUST_PRESETS: tuple[Scenario, ...] = (
    Scenario(
        name="planetlab-ring-trust",
        topology=planetlab_like_latency,
        load_model=ExponentialLoads(avg=50.0),
        m=50,
        trust=TrustSpec(kind="ring", hops=3),
        description="§VI-A PlanetLab RTTs, relaying restricted to a 3-hop trust ring",
    ),
    Scenario(
        name="hub-knn-trust",
        topology=star_hub_latency,
        load_model=ParetoLoads(shape=1.5, scale=15.0),
        m=40,
        trust=TrustSpec(kind="k_nearest", k=6),
        description="Hub federation; each org trusts its 6 nearest peers (symmetrized)",
    ),
    Scenario(
        name="planetlab-random-trust",
        topology=planetlab_like_latency,
        load_model=ExponentialLoads(avg=50.0),
        m=50,
        trust=TrustSpec(kind="random", p=0.3),
        description="PlanetLab RTTs under an Erdős–Rényi (p=0.3) trust graph",
    ),
)

for _preset in PRESETS + TRUST_PRESETS:
    register_scenario(_preset)
del _preset
