"""Scenario & workload generation: parametric traffic, new topology
families, a named-scenario registry and a config-driven batch runner.

Three-line sweep:

>>> from repro.workloads import ScenarioRunner
>>> report = ScenarioRunner(
...     ["paper-planetlab", "cdn-flashcrowd"], sizes=[20, 50], seeds=[0, 1]
... ).run()
>>> report.summary()  # per-scenario mean optimum / MinE error / PoA / latency

Single instances come straight out of the registry and feed any solver:

>>> from repro.workloads import get_scenario
>>> inst = get_scenario("federation-diurnal").instance(m=30, seed=1)
"""

from .cache import (
    cache_stats,
    cached_instance,
    cached_optimum,
    clear_cache,
    get_cache_dir,
    instance_digest,
    set_cache_dir,
)
from .loadmodels import (
    CorrelatedSurgeLoads,
    DiurnalLoads,
    ExponentialLoads,
    FlashCrowdLoads,
    LoadModel,
    LognormalLoads,
    ParetoLoads,
    UniformLoads,
    scale_to_average,
)
from .runner import (
    ScenarioReport,
    ScenarioResult,
    ScenarioRunner,
    SweepCell,
    evaluate_cell,
)
from .scenario import (
    PRESETS,
    TRUST_PRESETS,
    Scenario,
    TopologyFactory,
    TrustSpec,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_grid,
)
from .topologies import (
    fat_tree_latency,
    measured_latency,
    ring_of_clusters_latency,
    star_hub_latency,
)

__all__ = [
    # load models
    "LoadModel",
    "UniformLoads",
    "ExponentialLoads",
    "DiurnalLoads",
    "FlashCrowdLoads",
    "ParetoLoads",
    "LognormalLoads",
    "CorrelatedSurgeLoads",
    "scale_to_average",
    # topologies
    "fat_tree_latency",
    "ring_of_clusters_latency",
    "star_hub_latency",
    "measured_latency",
    # scenarios
    "Scenario",
    "TrustSpec",
    "TopologyFactory",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_grid",
    "PRESETS",
    "TRUST_PRESETS",
    # batch runner
    "ScenarioRunner",
    "ScenarioReport",
    "ScenarioResult",
    "SweepCell",
    "evaluate_cell",
    # cross-sweep cache (in-process memo + optional on-disk tier)
    "cached_instance",
    "cached_optimum",
    "cache_stats",
    "clear_cache",
    "instance_digest",
    "set_cache_dir",
    "get_cache_dir",
]
