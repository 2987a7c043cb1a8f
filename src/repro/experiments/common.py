"""Shared experiment machinery for reproducing Section VI.

The paper's settings (Section VI-A):

* networks: *homogeneous* (``c_ij = 20``) and *PlanetLab* (measured RTTs in
  milliseconds; here the synthetic generator of
  :func:`repro.net.topology.planetlab_like_latency`);
* server speeds: uniform on ``[1, 5]`` (plus constant speeds for parts of
  Table III);
* initial loads: *uniform* and *exponential* distributions with average
  load ``l_av ∈ {10, 20, 50, 200, 1000}``, and a *peak* distribution with
  100 000 requests owned by a single server;
* sizes ``m ∈ {20, 30, 50, 100, 200, 300}`` plus the large-scale
  ``{500, …, 5000}`` of Figure 2.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from ..core.instance import Instance
from ..net.topology import homogeneous_latency, planetlab_like_latency
from ..workloads.topologies import (
    fat_tree_latency,
    ring_of_clusters_latency,
    star_hub_latency,
)

__all__ = [
    "LoadKind",
    "NetworkKind",
    "SpeedKind",
    "Setting",
    "make_instance",
    "paper_settings",
    "streaming_announcer",
    "PAPER_SIZES",
    "PAPER_AVG_LOADS",
    "PEAK_TOTAL",
    "LARGE_SIZES",
]

LoadKind = Literal["uniform", "exponential", "peak"]
#: The paper's two networks plus the :mod:`repro.workloads` families.
NetworkKind = Literal[
    "homogeneous", "planetlab", "fattree", "ring-of-clusters", "star"
]
SpeedKind = Literal["uniform", "constant"]

PAPER_SIZES = (20, 30, 50, 100, 200, 300)
PAPER_AVG_LOADS = (10, 20, 50, 200, 1000)
PEAK_TOTAL = 100_000.0
LARGE_SIZES = (500, 1000, 2000, 3000, 5000)


@dataclass(frozen=True)
class Setting:
    """One experimental cell: a size, load distribution, average load,
    network kind and speed kind plus a replication seed."""

    m: int
    load_kind: LoadKind
    avg_load: float
    network: NetworkKind
    speed_kind: SpeedKind = "uniform"
    seed: int = 0

    def label(self) -> str:
        return (
            f"m={self.m} {self.load_kind}(lav={self.avg_load:g}) "
            f"{self.network} s={self.speed_kind} seed={self.seed}"
        )


def _make_loads(
    kind: LoadKind, m: int, avg: float, rng: np.random.Generator
) -> np.ndarray:
    if kind == "uniform":
        return rng.uniform(0.0, 2.0 * avg, size=m)
    if kind == "exponential":
        return rng.exponential(avg, size=m)
    if kind == "peak":
        n = np.zeros(m)
        n[int(rng.integers(0, m))] = PEAK_TOTAL
        return n
    raise ValueError(f"unknown load kind {kind!r}")


def make_instance(setting: Setting) -> Instance:
    """Materialize the instance for one experimental cell (deterministic in
    the setting's seed — ``crc32``, not the per-process-randomized builtin
    ``hash``, so the same cell is bit-identical across runs and machines)."""
    rng = np.random.default_rng(
        np.random.SeedSequence(
            entropy=0xC0FFEE,
            spawn_key=(
                setting.m,
                zlib.crc32(setting.load_kind.encode()) & 0xFFFF,
                int(setting.avg_load),
                zlib.crc32(setting.network.encode()) & 0xFFFF,
                zlib.crc32(setting.speed_kind.encode()) & 0xFFFF,
                setting.seed,
            ),
        )
    )
    if setting.speed_kind == "uniform":
        speeds = rng.uniform(1.0, 5.0, size=setting.m)
    else:
        speeds = np.ones(setting.m)
    loads = _make_loads(setting.load_kind, setting.m, setting.avg_load, rng)
    latency = _make_latency(setting.network, setting.m, rng)
    return Instance(speeds, loads, latency)


def _make_latency(
    network: NetworkKind, m: int, rng: np.random.Generator
) -> np.ndarray:
    if network == "homogeneous":
        return homogeneous_latency(m, 20.0)
    if network == "planetlab":
        return planetlab_like_latency(m, rng=rng)
    if network == "fattree":
        return fat_tree_latency(m, rng=rng)
    if network == "ring-of-clusters":
        return ring_of_clusters_latency(m, rng=rng)
    if network == "star":
        return star_hub_latency(m, rng=rng)
    raise ValueError(f"unknown network kind {network!r}")


def paper_settings(
    *,
    sizes: tuple[int, ...] = PAPER_SIZES,
    load_kinds: tuple[LoadKind, ...] = ("uniform", "exponential", "peak"),
    avg_loads: tuple[float, ...] = PAPER_AVG_LOADS,
    networks: tuple[NetworkKind, ...] = ("homogeneous", "planetlab"),
    speed_kind: SpeedKind = "uniform",
    repetitions: int = 1,
) -> Iterator[Setting]:
    """Iterate over the Section VI experimental grid.  The *peak*
    distribution ignores ``avg_loads`` (its total is fixed at 100 000)."""
    for m in sizes:
        for kind in load_kinds:
            avgs: tuple[float, ...] = (PEAK_TOTAL / m,) if kind == "peak" else avg_loads
            for avg in avgs:
                for net in networks:
                    for rep in range(repetitions):
                        yield Setting(m, kind, avg, net, speed_kind, rep)


def streaming_announcer(cells, render):
    """A per-result progress printer for engine-driven grids.

    :meth:`repro.engine.SweepEngine.run` invokes ``progress`` exactly
    once per result, in cell order (the engine's documented contract);
    this helper walks ``cells`` in lockstep so each result is announced
    next to the cell that produced it, while the grid is still running.
    Returns a callable for ``run(progress=...)``.
    """
    pending = iter(cells)

    def _announce(result) -> None:
        cell = next(pending)
        if result is None:
            return  # pending cell owned by another shard
        print(render(cell, result), flush=True)

    return _announce
