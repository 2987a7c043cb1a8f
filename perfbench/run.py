"""Repository benchmark: wall-clock to the paper's 2 % bound.

Run from the repository root::

    python3 perfbench/run.py --workload converge-m2000 --seed 0 --seconds 30 --trace 0

One workload per process, with its optima solved cold (the on-disk
optimum cache is disabled).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload plainly and then traced, checks
that the two replay each other, and prints the per-layer metrics.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Per-run outputs and
span files go to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def _process_age_s() -> float:
    """Seconds since this process started, from ``/proc`` (10 ms
    resolution); 0 where ``/proc`` is unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
    return max(0.0, uptime - started)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0,
                    help="seeds the live control plane's random streams")
    ap.add_argument("--input-seed", type=int, default=0,
                    help="seeds the workload's inputs (instances, demand trace)")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _declared(root: str, trace: int) -> dict[str, str]:
    """Metric name → unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    # The clock and the process age are read together, so nothing is
    # counted twice.
    process_start = perf_counter() - _process_age_s()
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: no program sources at ./src/repro — run from the "
            "repository root", file=sys.stderr,
        )
        return 2
    # Cold optima, one compute thread: set before numpy is imported.
    os.environ.pop("REPRO_CACHE_DIR", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [src, HERE]

    import workloads  # noqa: E402 - needs the paths above

    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        known = ", ".join(sorted(workloads.WORKLOADS))
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}",
              file=sys.stderr)
        return 2
    declared = _declared(root, args.trace)

    seeds = workloads.Seeds(run=args.seed, inputs=args.input_seed)
    res = run(seeds, args.seconds, workloads.Clock(process_start), bool(args.trace))

    metrics = {}
    for name, (value, unit) in res.metrics.items():
        if declared.get(name) != unit:
            print(f"perfbench: metric {name} [{unit}] is not declared in "
                  "BENCHMARK.json", file=sys.stderr)
            return 3
        metrics[name] = {"value": value, "unit": unit}
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"perfbench: {args.workload} did not measure {', '.join(missing)}",
              file=sys.stderr)
        return 3
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(
        out_dir,
        f"{args.workload}-seed{args.seed}-inputs{args.input_seed}-trace{args.trace}",
    )
    if res.spans is not None:
        res.spans.save(stem + "-spans.npz")
    errors = res.checks.errors + res.op_errors
    with open(stem + ".json", "w") as fh:
        json.dump(
            {"workload": args.workload, "seed": args.seed,
             "input_seed": args.input_seed, "seconds": args.seconds,
             "metrics": metrics, "attempted": res.attempted, "failed": res.failed,
             "errors": errors, "details": res.details},
            fh, indent=1, default=float,
        )
    for err in errors:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    spans = res.details.get("spans", {})
    if spans:
        print(f"{'span':36s} {'calls':>9s} {'total_s':>9s} {'self_s':>9s} "
              f"{'p50_us':>10s} {'p99_us':>10s}")
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            p99 = f"{row['p99_us']:10.1f}" if "p99_us" in row else f"{'':10s}"
            print(f"{name:36s} {row['calls']:9d} {row['total_s']:9.3f} "
                  f"{row['self_s']:9.3f} {row['p50_us']:10.1f} {p99}")
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:16.6g} {m['unit']}")
    print(json.dumps({
        "correct": res.checks.ok,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
