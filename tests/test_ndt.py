from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from readweight.ndt import (
    NdtParams,
    derive_scale,
    ndt,
    paper_default_params,
    solve_tau,
    tail_gap,
    tower_weights,
)


def ref_ndt(T, offset, tau, a, b):
    """Independent arithmetic oracle for the curve."""
    return a / (1.0 + math.exp(-(T - offset) / tau)) - b


PAPER = paper_default_params()


class TestCurve:
    @pytest.mark.parametrize(
        "T,expected",
        [(0.0, 0.0000), (15.0, 0.4155), (35.0, 0.9513)],
    )
    def test_deployed_constants(self, T, expected):
        assert ndt(T, PAPER) == pytest.approx(expected, abs=1e-3)
        assert ndt(T, PAPER) == pytest.approx(
            ref_ndt(T, PAPER.offset, PAPER.tau, PAPER.a, PAPER.b), abs=1e-12
        )

    def test_limit_is_t_max(self):
        assert PAPER.a - PAPER.b == pytest.approx(1.575, abs=1e-9)
        far = float(ndt(1e7, PAPER))
        # Float saturation tops out at fl(a - b), one ulp above 1.575.
        assert far <= PAPER.t_max + 1e-12
        assert far == pytest.approx(PAPER.t_max, abs=1e-9)

    def test_range(self):
        values = ndt(np.linspace(0, 3000, 5000), PAPER)
        assert values.min() >= 0.0
        assert values.max() <= PAPER.t_max + 1e-12

    @given(
        st.floats(min_value=0, max_value=400.0),
        st.floats(min_value=1e-3, max_value=200.0),
    )
    def test_strictly_increasing(self, t, gap):
        # Strict below float saturation (the sigmoid rounds to 1.0 past
        # roughly offset + 36 tau); non-strict always.
        assert ndt(t, PAPER) < ndt(t + gap, PAPER)
        assert ndt(2000.0, PAPER) <= ndt(4000.0, PAPER)

    def test_steepest_at_offset(self):
        grid = np.linspace(0.0, 60.0, 6001)  # step 0.01
        values = ndt(grid, PAPER)
        slopes = np.diff(values)
        peak = grid[np.argmax(slopes)]
        assert abs(peak - PAPER.offset) <= 0.011

    def test_concave_past_offset(self):
        grid = np.linspace(PAPER.offset, 500.0, 2000)
        values = ndt(grid, PAPER)
        second = np.diff(values, n=2)
        assert (second < 0).all()


class TestDeriveScale:
    def test_deployed_pair(self):
        a, b = derive_scale(15.0, 20.0, 1.575)
        assert a == pytest.approx(2.319, abs=1e-3)
        assert b == pytest.approx(0.744, abs=1e-3)

    def test_zero_offset(self):
        assert derive_scale(0.0, 7.0, 1.0) == pytest.approx((2.0, 1.0))

    def test_equal_offset_tau(self):
        a, b = derive_scale(15.0, 15.0, 1.575)
        assert a == pytest.approx(2.1544, abs=1e-3)
        assert b == pytest.approx(0.5793, abs=1e-3)

    def test_anchors_curve(self):
        for offset, tau, t_max in [(15, 20, 1.575), (10, 5, 1.0), (30, 40, 2.5)]:
            params = NdtParams.derive(offset, tau, t_max)
            assert ndt(0.0, params) == pytest.approx(0.0, abs=1e-12)
            assert params.a - params.b == pytest.approx(t_max, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            derive_scale(15.0, 0.0, 1.575)
        with pytest.raises(ValueError):
            derive_scale(15.0, 20.0, -1.0)


class TestSolveTau:
    def test_tight_precision(self):
        tau = solve_tau(15.0, 200.0, 1e-5, 1.575)
        assert tau == pytest.approx(15.0, abs=0.1)
        assert tail_gap(15.0, tau, 1.575, 200.0) <= 1e-5

    def test_deployed_tau_matches_loose_precision(self):
        # tau = 20 corresponds to a tail gap of about 2.2e-4 at 200s.
        tau = solve_tau(15.0, 200.0, 2.3e-4, 1.575)
        assert tau == pytest.approx(20.0, abs=0.5)

    def test_largest_feasible(self):
        tau = solve_tau(15.0, 200.0, 1e-5, 1.575)
        assert tail_gap(15.0, tau + 2e-3, 1.575, 200.0) > 1e-5

    def test_infeasible_precision(self):
        with pytest.raises(ValueError):
            solve_tau(15.0, 200.0, 2.0, 1.575)

    def test_x_h_must_exceed_offset(self):
        with pytest.raises(ValueError):
            solve_tau(15.0, 10.0, 1e-5, 1.575)

    def test_tail_flatness_of_solved_params(self):
        params = NdtParams.solve(offset=15.0, x_h=200.0, precision=1e-5, t_max=1.575)
        base = float(ndt(200.0, params))
        for t in (200.0, 350.0, 1000.0, 2000.0):
            assert float(ndt(t * 5, params)) - float(ndt(t, params)) <= 1e-5
        assert params.t_max - base <= 1e-5
        assert ndt(0.0, params) == pytest.approx(0.0, abs=1e-9)
        assert params.t_max - float(ndt(10 * 200.0, params)) <= 1e-5


class TestParams:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="t_max"):
            NdtParams(offset=15, tau=20, a=2.319, b=0.8, t_max=1.575, precision=1e-5)
        with pytest.raises(ValueError, match="ndt"):
            NdtParams(offset=15, tau=20, a=2.4, b=2.4 - 1.575, t_max=1.575, precision=1e-5)
        with pytest.raises(ValueError):
            NdtParams(offset=15, tau=-1, a=2.319, b=0.744, t_max=1.575, precision=1e-5)

    def test_json_round_trip(self):
        params = NdtParams.solve(offset=12.0, x_h=150.0)
        again = NdtParams.from_json(params.to_json())
        assert again == params

    def test_json_fields(self):
        doc = json.loads(PAPER.to_json())
        assert set(doc) == {"offset", "tau", "a", "b", "t_max", "precision"}


class TestInstanceWeight:
    """A labeled event's weighted-tower weight: ``tower_weights`` over its
    ndt(T), positive exactly on a valid read."""

    def test_valid_read(self):
        assert tower_weights(True, ndt(15.0, PAPER), "unit") == pytest.approx(0.4155, abs=1e-3)

    def test_negatives_unit(self):
        assert tower_weights(False, ndt(0.0, PAPER), "unit") == 1.0

    def test_negatives_literal(self):
        not_clicked = tower_weights(False, ndt(0.0, PAPER), "literal")
        assert not_clicked == pytest.approx(0.0, abs=1e-12)
        noise = tower_weights(False, ndt(3.0, PAPER), "literal")
        assert 0 < noise < 0.1

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            tower_weights(False, ndt(0.0, PAPER), "other")
