"""Tests for the config-driven batch runner."""

import math

import numpy as np
import pytest

from repro.workloads import (
    PRESETS,
    ExponentialLoads,
    Scenario,
    ScenarioReport,
    ScenarioResult,
    ScenarioRunner,
    fat_tree_latency,
    get_scenario,
)
from repro.workloads.runner import TIMING_FIELDS

FAST = dict(
    mine_max_iterations=8,
    mine_rel_tol=0.05,
    stream_horizon=2.0,
    stream_events_target=300.0,
    solver_tol=1e-8,
)


@pytest.fixture(scope="module")
def small_report() -> ScenarioReport:
    """The acceptance-criteria sweep: 4 presets × 2 sizes × 2 seeds."""
    runner = ScenarioRunner(
        [
            "paper-homogeneous",
            "paper-planetlab",
            "cdn-flashcrowd",
            "federation-diurnal",
        ],
        sizes=[8, 12],
        seeds=[0, 1],
        **FAST,
    )
    return runner.run()


class TestRunner:
    def test_one_row_per_cell(self, small_report):
        assert len(small_report) == 4 * 2 * 2
        cells = {(r.scenario, r.m, r.seed) for r in small_report}
        assert len(cells) == 16  # no duplicates

    def test_rows_carry_all_metrics(self, small_report):
        for r in small_report:
            assert r.optimal_cost > 0
            assert r.initial_cost >= r.optimal_cost * (1 - 1e-9)
            assert math.isfinite(r.mine_final_error) and r.mine_final_error >= 0
            assert r.mine_iterations >= 1
            assert math.isfinite(r.poa_ratio) and r.poa_ratio >= 1 - 1e-6
            assert math.isfinite(r.stream_mean_latency)
            assert r.stream_completed > 0

    def test_deterministic(self):
        kw = dict(sizes=[8], seeds=[3], **FAST)
        a = ScenarioRunner("hub-heavytail", **kw).run()
        b = ScenarioRunner("hub-heavytail", **kw).run()
        assert a[0].optimal_cost == b[0].optimal_cost
        assert a[0].mine_final_error == b[0].mine_final_error
        assert a[0].poa_ratio == b[0].poa_ratio
        assert a[0].stream_mean_latency == b[0].stream_mean_latency

    def test_accepts_scenario_objects_and_default_size(self):
        sc = Scenario(
            name="inline-object",
            topology=fat_tree_latency,
            load_model=ExponentialLoads(10.0),
            m=7,
        )
        report = ScenarioRunner(sc, metrics=(), **{
            k: v for k, v in FAST.items() if k.startswith(("mine", "solver"))
        }).run()
        assert len(report) == 1
        assert report[0].m == 7
        # disabled metrics are nan / neutral, the optimum is always there
        assert report[0].optimal_cost > 0
        assert math.isnan(report[0].poa_ratio)
        assert math.isnan(report[0].stream_mean_latency)

    def test_metric_subset(self):
        report = ScenarioRunner(
            "paper-homogeneous", sizes=[6], metrics=("poa",), **FAST
        ).run()
        assert math.isnan(report[0].mine_final_error)
        assert report[0].poa_ratio >= 1 - 1e-6

    def test_grid_in_declared_order(self):
        runner = ScenarioRunner(
            ["paper-homogeneous", "cdn-flashcrowd"], sizes=[12, 6], seeds=[0, 1]
        )
        cells = [(sc.name, m, seed) for sc, m, seed in runner.grid()]
        assert cells == [
            ("paper-homogeneous", 12, 0), ("paper-homogeneous", 12, 1),
            ("paper-homogeneous", 6, 0), ("paper-homogeneous", 6, 1),
            ("cdn-flashcrowd", 12, 0), ("cdn-flashcrowd", 12, 1),
            ("cdn-flashcrowd", 6, 0), ("cdn-flashcrowd", 6, 1),
        ]

    def test_progress_callback(self):
        seen = []
        ScenarioRunner("paper-homogeneous", sizes=[6], **FAST).run(
            progress=seen.append
        )
        assert len(seen) == 1 and isinstance(seen[0], ScenarioResult)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown metrics"):
            ScenarioRunner("paper-homogeneous", metrics=("bogus",))
        with pytest.raises(ValueError, match="at least one seed"):
            ScenarioRunner("paper-homogeneous", seeds=())
        with pytest.raises(ValueError, match="at least one scenario"):
            ScenarioRunner([])
        with pytest.raises(ValueError, match="sizes is empty"):
            ScenarioRunner("paper-homogeneous", sizes=[])
        with pytest.raises(KeyError, match="unknown scenario"):
            ScenarioRunner("no-such-scenario")

    def test_mine_agrees_with_optimum(self, small_report):
        # MinE runs to its rel_tol stop or stalls close to it on these
        # small instances; the certificate is loose, not wild.
        for r in small_report:
            assert r.mine_final_error < 0.5


class TestReport:
    def test_column_and_filter(self, small_report):
        costs = small_report.column("optimal_cost")
        assert costs.shape == (16,)
        sub = small_report.filter(scenario="cdn-flashcrowd", m=8)
        assert len(sub) == 2
        with pytest.raises(KeyError):
            small_report.column("nope")

    def test_summary_groups(self, small_report):
        summary = small_report.summary()
        assert len(summary) == 8  # 4 scenarios × 2 sizes
        assert all(s["runs"] == 2 for s in summary)

    def test_csv_roundtrip(self, small_report, tmp_path):
        path = tmp_path / "report.csv"
        text = small_report.to_csv(path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        assert len(lines) == 1 + 16
        assert lines[0].startswith("scenario,m,seed,")

    def test_as_dicts(self, small_report):
        dicts = small_report.as_dicts()
        assert dicts[0]["scenario"] == small_report[0].scenario

    def test_from_csv_roundtrip_text_and_path(self, small_report, tmp_path):
        # text round-trip: every field survives, including the timings
        back = ScenarioReport.from_csv(small_report.to_csv())
        assert [r.as_dict() for r in back] == [r.as_dict() for r in small_report]
        # path round-trip
        path = tmp_path / "report.csv"
        small_report.to_csv(path)
        from_path = ScenarioReport.from_csv(str(path))
        assert from_path == small_report
        # truncated header is rejected
        with pytest.raises(ValueError, match="missing columns"):
            ScenarioReport.from_csv("scenario,m,seed\nx,1,0\n")

    def test_merged_partial_reports(self, small_report):
        first = ScenarioReport(small_report.rows[:10])
        second = ScenarioReport(small_report.rows[8:])
        merged = first.merged(second)
        assert merged == small_report

    def test_row_key_identifies_cell(self, small_report):
        keys = {r.key() for r in small_report}
        assert len(keys) == len(small_report)


class TestParallelBackends:
    """The tentpole guarantee: where a cell runs never changes what it
    computes."""

    @pytest.fixture(scope="class")
    def grid_runner(self) -> ScenarioRunner:
        """The full 7-preset scenario grid (small sizes keep it quick)."""
        return ScenarioRunner(
            sorted(s.name for s in PRESETS), sizes=[6, 9], seeds=[0, 1], **FAST
        )

    @pytest.fixture(scope="class")
    def serial_report(self, grid_runner) -> ScenarioReport:
        return grid_runner.run(backend="serial")

    @pytest.mark.parametrize("backend", ["process", "chunked"])
    def test_parallel_bitwise_identical_to_serial(
        self, grid_runner, serial_report, backend
    ):
        parallel = grid_runner.run(backend=backend, max_workers=2)
        assert len(parallel) == len(serial_report) == 7 * 2 * 2
        skip = set(TIMING_FIELDS)
        for a, b in zip(serial_report, parallel):
            for name in ScenarioReport.columns:
                if name in skip:
                    continue
                va, vb = getattr(a, name), getattr(b, name)
                both_nan = isinstance(va, float) and math.isnan(va) \
                    and isinstance(vb, float) and math.isnan(vb)
                assert va == vb or both_nan, (name, va, vb)

    def test_report_equality_ignores_timings(self, serial_report):
        jittered = ScenarioReport([
            ScenarioResult.from_dict({**r.as_dict(), "elapsed_s": r.elapsed_s + 1})
            for r in serial_report
        ])
        assert serial_report == jittered

    def test_unknown_backend_rejected(self, grid_runner):
        with pytest.raises(ValueError, match="unknown backend"):
            grid_runner.run(backend="fibers")


class TestStoreResume:
    def test_store_resume_and_crash_safety(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        kw = dict(sizes=[6], seeds=[0, 1], **FAST)
        partial = ScenarioRunner("paper-homogeneous", **kw).run(store=path)
        assert len(partial) == 2
        # Superset sweep resumes: stored cells load, new cells compute.
        runner = ScenarioRunner(
            ["paper-homogeneous", "hub-heavytail"], **kw
        )
        assert len(runner.engine(store=path).pending()) == 2
        full = runner.run(store=path)
        fresh = runner.run()
        assert full == fresh
        # Stored rows are the exact rows the partial sweep produced.
        assert [r.as_dict() for r in full.rows[:2]] == \
            [r.as_dict() for r in partial.rows]
