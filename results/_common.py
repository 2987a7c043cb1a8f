"""Shared bootstrap, CLI and grid definitions for the ``results/``
scripts, so :mod:`run_experiments` and :mod:`rerun_conv` cannot drift
apart.

Importing this module makes ``repro`` importable: it prefers the
installed package and falls back to the checkout's ``src/`` layout.
"""

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

try:
    import repro  # noqa: F401,E402 - installed package
except ImportError:  # checkout without an install: use the src layout
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.engine import BACKENDS  # noqa: E402 - needs the bootstrap above

#: Tables I/II measurement grid (matching EXPERIMENTS.md).
TABLE_SIZES = (20, 30, 50, 100)
TABLE_AVGS = (10, 50, 1000)
TABLE_TOLS = (("table1", 0.02), ("table2", 0.001))

#: Figure 2 large-scale traces.
FIGURE2_SIZES = (500, 1000, 2000)
FIGURE2_ITERATIONS = 20

DEFAULT_OUT = str(REPO_ROOT / "results" / "experiments.json")


def build_parser(description: str) -> argparse.ArgumentParser:
    """The common CLI: execution backend, worker count, output path,
    store/shard selection and the on-disk optimum cache."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--backend", default="serial", choices=BACKENDS)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="JSONL result store: finished cells are appended as they "
             "complete and skipped on re-runs (resumable grids)")
    parser.add_argument(
        "--shard", default=None, metavar="K/N",
        help="run only every N-th pending cell starting at the K-th "
             "(1-based).  Each shard should write its own --store; merge "
             "them with JsonlStore.merge(shard1, shard2, ..., out=...) "
             "and re-run without --shard to aggregate")
    parser.add_argument(
        "--log-level", default="INFO", metavar="LEVEL",
        help="logging level for the repro.obs.logconf progress log "
             "(DEBUG, INFO, WARNING, ...)")
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit progress log records as one JSON object per line")
    return parser


def exec_kwargs(args: argparse.Namespace) -> dict:
    """The engine-execution keywords every grid function accepts.

    (Cross-process reuse for these grids comes from ``--store``: each
    finished cell is persisted whole.  The on-disk *optimum* cache —
    ``REPRO_CACHE_DIR`` / ``repro.workloads.set_cache_dir`` — applies to
    scenario-based cells, which solve through ``cached_optimum``.)"""
    if args.shard is not None and args.store is None:
        from repro.obs import logconf

        logconf.get_logger("results").warning(
            "--shard without --store computes the shard's cells but "
            "persists nothing for the coordinator to merge")
    kw = dict(backend=args.backend, max_workers=args.workers)
    if args.store is not None:
        kw["store"] = args.store
    if args.shard is not None:
        kw["shard"] = args.shard
    return kw


def is_primary_shard(args: argparse.Namespace) -> bool:
    """True when this invocation should run the unsharded extras (e.g.
    Table IV, which is too cheap to split): shard 1 or no shard."""
    if args.shard is None:
        return True
    from repro.engine.sweep import parse_shard

    return parse_shard(args.shard)[0] == 1
