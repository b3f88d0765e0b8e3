"""Tests for Husimi point/grid evaluation and the Monte-Carlo norm check."""

import math

import numpy as np
import pytest

from chargestate.errors import PreconditionError
from chargestate.husimi import husimi_grid, husimi_norm_check, husimi_point
from chargestate.nonlinearity import intensity_sqrt, penson_solomon, q_deformed, unity
from chargestate.states import ChargeState, TruncationPolicy, build_deformed

from _oracles import TwoModeSpace

CATALOG = [unity(), penson_solomon(0.5), intensity_sqrt(), q_deformed(7.0)]


def vacuum_state():
    return ChargeState.from_raw(0, 0.0, unity(), np.array([1.0 + 0j]))


class TestHusimiPoint:
    def test_vacuum_overlap(self):
        state = vacuum_state()
        for a1, a2 in [(0.3 + 0.2j, -0.1j), (0.0, 0.0), (2.0, 1.0 + 1.0j)]:
            want = math.exp(-abs(a1) ** 2 - abs(a2) ** 2) / math.pi
            assert husimi_point(state, a1, a2) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_hole_at_origin_for_positive_charge(self, q):
        state = build_deformed(unity(), q, 10.0, TruncationPolicy(40))
        assert husimi_point(state, 0.0, 1 + 1j) == 0.0

    @pytest.mark.parametrize("q", [-1, -3])
    def test_no_hole_for_negative_charge(self, q):
        state = build_deformed(unity(), q, 10.0, TruncationPolicy(40))
        assert husimi_point(state, 0.0, 1 + 1j) > 0.0

    @pytest.mark.parametrize("f", CATALOG)
    def test_nonnegative_everywhere(self, f):
        state = build_deformed(f, -2, 5.0, TruncationPolicy(50))
        rng = np.random.default_rng(11)
        for _ in range(25):
            a1 = complex(*rng.normal(scale=2.0, size=2))
            a2 = complex(*rng.normal(scale=2.0, size=2))
            assert husimi_point(state, a1, a2) >= 0.0

    def test_matches_dense_coherent_overlap(self):
        state = build_deformed(penson_solomon(0.5), -1, 5.0, TruncationPolicy(8))
        space = TwoModeSpace(12, 12, penson_solomon(0.5))
        psi = space.embed(state)
        for a1, a2 in [(0.5 + 0.1j, 1 - 0.5j), (1.5, -0.7j)]:
            dense = abs(np.vdot(space.coherent(a1, a2), psi)) ** 2 / math.pi
            assert husimi_point(state, a1, a2) == pytest.approx(dense, rel=1e-10)


class TestHusimiGrid:
    def test_pointwise_contract(self):
        state = build_deformed(unity(), 1, 5.0, TruncationPolicy(20))
        grid = husimi_grid(state, 1 + 1j, (-2.0, 2.0, 3), (-1.0, 1.0, 3))
        xs, ys = grid.axes()
        for ix in range(3):
            for iy in range(3):
                want = husimi_point(state, complex(xs[ix], ys[iy]), 1 + 1j)
                assert grid.values[ix * 3 + iy] == want

    def test_ring_with_central_hole(self):
        state = build_deformed(unity(), 1, 10.0, TruncationPolicy(80))
        grid = husimi_grid(state, 1 + 1j, (-6.0, 6.0, 13), (-6.0, 6.0, 13))
        xs, ys = grid.axes()
        center = grid.values[6 * 13 + 6]  # alpha1 = 0
        assert center == 0.0
        assert grid.values.max() > 0.0
        ix, iy = divmod(int(grid.values.argmax()), 13)
        assert abs(complex(xs[ix], ys[iy])) > 1.0

    def test_no_hole_for_negative_charge(self):
        state = build_deformed(unity(), -1, 10.0, TruncationPolicy(80))
        grid = husimi_grid(state, 1 + 1j, (-6.0, 6.0, 13), (-6.0, 6.0, 13))
        assert grid.values[6 * 13 + 6] > 0.0

    def test_counts_validated(self):
        state = vacuum_state()
        with pytest.raises(PreconditionError):
            husimi_grid(state, 0j, (-1.0, 1.0, 1), (-1.0, 1.0, 3))


class TestNormCheck:
    def test_vacuum_resolution_of_identity(self):
        est = husimi_norm_check(vacuum_state(), samples=1_000_000, radius=6.0, seed=12345)
        assert abs(est - math.pi) / math.pi <= 0.02

    def test_convergent_deformed_state(self):
        state = build_deformed(penson_solomon(0.5), -2, 10.0, TruncationPolicy(40))
        est = husimi_norm_check(state, samples=200_000, radius=7.0, seed=12345)
        assert abs(est - math.pi) / math.pi <= 0.03

    def test_truncation_concentrated_state(self):
        # a top-concentrated deformed state still integrates to pi once the
        # sampling radius holds its occupied amplitudes (~sqrt(n_max))
        state = build_deformed(penson_solomon(0.5), 2, 10.0, TruncationPolicy(30))
        est = husimi_norm_check(state, samples=1_000_000, radius=9.0, seed=12345)
        assert abs(est - math.pi) / math.pi <= 0.03

    def test_positive(self):
        state = build_deformed(intensity_sqrt(), 1, 5.0, TruncationPolicy(30))
        assert husimi_norm_check(state, samples=10_000, radius=8.0) > 0.0

    def test_reproducible_for_fixed_seed(self):
        state = vacuum_state()
        a = husimi_norm_check(state, samples=50_000, radius=5.0, seed=7)
        b = husimi_norm_check(state, samples=50_000, radius=5.0, seed=7)
        assert a == b

    def test_sample_floor_enforced(self):
        with pytest.raises(PreconditionError):
            husimi_norm_check(vacuum_state(), samples=100, radius=5.0)
