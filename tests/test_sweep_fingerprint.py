"""The scenario-grid sweeps reproduce their committed fingerprint: rows,
store keys and on-disk optimum file names (see ``sweep_fingerprint``)."""

from .sweep_fingerprint import differences, load, record


def test_sweeps_match_committed_fingerprint():
    diffs = differences(load(), record())
    assert not diffs, "\n".join(diffs[:20])


def test_fingerprint_comparison_is_strict():
    """The comparison itself: exact counts and strings, 1e-9 floats."""
    base = {"rows": [{"k": "a", "n": 3, "x": 1.0, "y": float("nan")}]}
    assert differences(base, base) == []
    near = {"rows": [{"k": "a", "n": 3, "x": 1.0 + 1e-12, "y": float("nan")}]}
    assert differences(base, near) == []
    assert differences(base, {"rows": [{**base["rows"][0], "x": 1.0 + 1e-6}]})
    assert differences(base, {"rows": [{**base["rows"][0], "n": 4}]})
    assert differences(base, {"rows": [{**base["rows"][0], "k": "b"}]})
    assert differences(base, {"rows": base["rows"] * 2})
