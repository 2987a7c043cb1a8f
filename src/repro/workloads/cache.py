"""Two-tier cache for scenario instances and their solved optima.

The cross-sweep-caching item of the ROADMAP, in two tiers:

* **In-process memo** — cells of different sweeps (and different metric
  configs within one sweep) share the same materialized
  ``(scenario, m, seed)`` instance and — much more importantly — the
  same O(m²–m³) cooperative-optimum solve.  Both are memoized per
  process, keyed by the cell coordinates and guarded by the scenario
  *definition* (dataclass equality), so re-registering a same-named
  scenario with different parameters can never serve a stale instance.
  Workers of the process backends each hold their own memo, which is
  exactly what you want: a chunk of cells for the same scenario solves
  the optimum once per worker instead of once per cell.

* **On-disk tier** — with a cache directory configured
  (:func:`set_cache_dir`, or the ``REPRO_CACHE_DIR`` environment
  variable), every solved optimum is also written as one ``.npz`` per
  cell key, and a memo miss checks the directory before solving.  This
  is what lets *shards and re-runs across processes* skip the solve:
  the file name embeds the scenario name, cell coordinates, solver
  parameters and a digest of the materialized instance arrays, so a
  redefined scenario can never be served a stale file.  Writes are
  atomic (tmp + rename), so concurrent shards can share one directory.

>>> from repro.workloads import cached_instance, cached_optimum
>>> inst = cached_instance(get_scenario("cdn-flashcrowd"), 30, 0)
>>> state, cost, wall, hit = cached_optimum(
...     get_scenario("cdn-flashcrowd"), 30, 0)            # doctest: +SKIP
"""

from __future__ import annotations

import os
import threading
import time
import zipfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..core.instance import Instance
from ..core.qp import solve_optimal
from ..core.state import AllocationState
from .scenario import Scenario

__all__ = [
    "cached_instance",
    "cached_optimum",
    "cache_stats",
    "bind_obs",
    "clear_cache",
    "instance_digest",
    "set_cache_dir",
    "get_cache_dir",
]

#: Entries kept per cache before FIFO eviction; at default preset sizes
#: an instance plus its optimum is a few hundred KB, so the cap bounds
#: the cache near a hundred MB even for very wide sweeps.
MAX_ENTRIES = 256

# key -> (scenario definition that produced the entry, payload)
_INSTANCES: OrderedDict[tuple, tuple[Scenario, Instance]] = OrderedDict()
_OPTIMA: OrderedDict[tuple, tuple[Scenario, AllocationState, float]] = OrderedDict()

# Per-key solve locks: under the ``threads`` backend, concurrent cells
# sharing a key must wait for one solve instead of duplicating it.
_LOCKS_GUARD = threading.Lock()
_KEY_LOCKS: dict[tuple, threading.Lock] = {}


def _key_lock(key: tuple) -> threading.Lock:
    with _LOCKS_GUARD:
        lock = _KEY_LOCKS.get(key)
        if lock is None:
            lock = _KEY_LOCKS[key] = threading.Lock()
        return lock


@dataclass
class CacheStats:
    """Hit/miss counters (per process)."""

    instance_hits: int = 0
    instance_misses: int = 0
    optimum_hits: int = 0
    optimum_misses: int = 0
    disk_hits: int = 0       #: optimum served from the on-disk tier
    disk_misses: int = 0     #: disk tier enabled but had no file


_STATS = CacheStats()

# On-disk second tier: None disables it.
_CACHE_DIR: "str | None" = os.environ.get("REPRO_CACHE_DIR") or None


def set_cache_dir(path: "str | os.PathLike | None") -> "str | None":
    """Set (or with ``None`` disable) the on-disk cache directory;
    returns the previous value.  Overrides ``REPRO_CACHE_DIR``."""
    global _CACHE_DIR
    previous = _CACHE_DIR
    _CACHE_DIR = os.fspath(path) if path is not None else None
    return previous


def get_cache_dir() -> "str | None":
    """The active on-disk cache directory (``None`` = tier disabled)."""
    return _CACHE_DIR


def instance_digest(inst: Instance) -> str:
    """Fingerprint of a materialized instance: eight hex digits of crc32
    over what the solvers consume (speeds, loads, latency bytes).

    Every sweep's store keys and the on-disk optimum file names embed
    it, so any way of redefining a same-named scenario — swapped load
    models, closure topologies capturing other matrices, changed base
    seeds — changes them, where hashing the definition's repr could not.
    """
    h = zlib.crc32(inst.speeds.tobytes())
    h = zlib.crc32(inst.loads.tobytes(), h)
    h = zlib.crc32(inst.latency.tobytes(), h)
    return format(h & 0xFFFFFFFF, "08x")


def _disk_path(
    scenario: Scenario, inst: Instance, m: int, seed: int, tol: float, method: str
) -> str:
    """One ``.npz`` per cell key, named by :func:`instance_digest`."""
    name = f"{scenario.name}-m{m}-s{seed}-tol{tol:g}-{method}-{instance_digest(inst)}.npz"
    return os.path.join(_CACHE_DIR, name)


def _disk_load(path: str, inst: Instance) -> "tuple[AllocationState, float] | None":
    try:
        with np.load(path) as npz:
            R = npz["R"]
            cost = float(npz["cost"])
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
        return None  # absent, torn, or foreign file: fall through to solve
    if R.shape != (inst.m, inst.m):
        return None
    return AllocationState(inst, R, validate=False), cost


def _disk_store(path: str, state: AllocationState, cost: float) -> None:
    os.makedirs(_CACHE_DIR, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, R=state.R, cost=np.float64(cost))
        os.replace(tmp, path)  # atomic: concurrent shards can share a dir
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _put(cache: OrderedDict, key: tuple, value) -> None:
    cache[key] = value
    while len(cache) > MAX_ENTRIES:
        cache.popitem(last=False)


def cached_instance(scenario: Scenario, m: int, seed: int) -> Instance:
    """``scenario.instance(m, seed=seed)``, memoized.

    Instances are immutable by convention throughout the repo, so the
    same object is shared between callers.
    """
    key = (scenario.name, int(m), int(seed))
    hit = _INSTANCES.get(key)
    if hit is not None and hit[0] == scenario:
        _STATS.instance_hits += 1
        return hit[1]
    with _key_lock(key):
        hit = _INSTANCES.get(key)  # a concurrent thread may have built it
        if hit is not None and hit[0] == scenario:
            _STATS.instance_hits += 1
            return hit[1]
        _STATS.instance_misses += 1
        inst = scenario.instance(m, seed=seed)
        _put(_INSTANCES, key, (scenario, inst))
        return inst


def cached_optimum(
    scenario: Scenario,
    m: int,
    seed: int,
    *,
    tol: float = 1e-9,
    method: str = "auto",
) -> tuple[AllocationState, float, float, bool]:
    """The cooperative optimum of one cell, memoized.

    Returns ``(state, total_cost, wall_s, hit)`` — ``state`` is a fresh
    copy (optimizers mutate allocation states in place), ``wall_s`` the
    wall time actually spent (0.0 on a hit).
    """
    key = (scenario.name, int(m), int(seed), float(tol), str(method))
    hit = _OPTIMA.get(key)
    if hit is not None and hit[0] == scenario:
        _STATS.optimum_hits += 1
        return hit[1].copy(), hit[2], 0.0, True
    with _key_lock(key):
        hit = _OPTIMA.get(key)  # a concurrent thread may have solved it
        if hit is not None and hit[0] == scenario:
            _STATS.optimum_hits += 1
            return hit[1].copy(), hit[2], 0.0, True
        inst = cached_instance(scenario, m, seed)
        disk_path = None
        if _CACHE_DIR is not None:
            disk_path = _disk_path(scenario, inst, m, seed, float(tol), str(method))
            loaded = _disk_load(disk_path, inst)
            if loaded is not None:
                state, cost = loaded
                _STATS.disk_hits += 1
                _put(_OPTIMA, key, (scenario, state, cost))
                return state.copy(), cost, 0.0, True
            _STATS.disk_misses += 1
        _STATS.optimum_misses += 1
        t0 = time.perf_counter()
        state = solve_optimal(inst, method=method, tol=tol)
        wall = time.perf_counter() - t0
        cost = state.total_cost()
        _put(_OPTIMA, key, (scenario, state, cost))
        if disk_path is not None:
            _disk_store(disk_path, state, cost)
        return state.copy(), cost, wall, False


def cache_stats() -> CacheStats:
    """The per-process hit/miss counters."""
    return _STATS


def bind_obs(registry) -> None:
    """Expose the process-global counters as ``cache.*`` metrics.

    Called by :class:`repro.obs.Observability` on construction; the
    registry reads the live ``_STATS`` fields, so the hot cache paths
    stay plain attribute increments whether or not obs is active.
    """
    registry.bind("cache", _STATS)


def clear_cache() -> None:
    """Empty the in-process caches and reset the counters (tests).  The
    on-disk tier is untouched — delete the directory to drop it."""
    _INSTANCES.clear()
    _OPTIMA.clear()
    with _LOCKS_GUARD:
        _KEY_LOCKS.clear()
    _STATS.instance_hits = _STATS.instance_misses = 0
    _STATS.optimum_hits = _STATS.optimum_misses = 0
    _STATS.disk_hits = _STATS.disk_misses = 0
