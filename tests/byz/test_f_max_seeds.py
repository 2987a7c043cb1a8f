"""Seeds on which the robust merge misses the bound at a preset's f_max.

``tests/byz/test_robustness.py`` checks every preset at seed 0.  These
are the known counterexamples at other seeds, pinned as strict xfails:
the day the robust merge holds them, the tests start passing and the
xfail marks have to go.
"""

from __future__ import annotations

import pytest

from repro.byz import run_byz


@pytest.mark.xfail(strict=True, reason="ends 2.14 % above the optimum")
def test_stale_f2_seed20():
    r = run_byz("byzantine-stale", f=2, robust=True, seed=20)
    assert r.error <= 0.02


@pytest.mark.xfail(strict=True, reason="ends 5.72 % above the optimum")
def test_stale_random_trust_f2_seed32():
    r = run_byz("byzantine-stale-random-trust", f=2, robust=True, seed=32)
    assert r.error <= 0.02
