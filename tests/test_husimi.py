"""Tests for Husimi point/grid evaluation and the Monte-Carlo norm check."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from chargestate import husimi
from chargestate.errors import PreconditionError
from chargestate.husimi import HusimiGrid, husimi_grid, husimi_norm_check, husimi_point
from chargestate.nonlinearity import intensity_sqrt, parse_spec, penson_solomon, q_deformed, unity
from chargestate.states import ChargeState, TruncationPolicy, build_deformed

from _oracles import TermwiseLogOverlap, TwoModeSpace, husimi_disk_integral

CATALOG = [unity(), penson_solomon(0.5), intensity_sqrt(), q_deformed(7.0)]


def vacuum_state():
    return ChargeState.from_raw(0, 0.0, unity(), np.array([1.0 + 0j]))


def assert_amplitude_close(value, want, bound):
    """The benchmark gate's amplitude rule: sqrt(Q) within 1e-7 of the
    reference's relative and 1e-10 of its summed term magnitudes."""
    err = abs(math.sqrt(value) - math.sqrt(want))
    assert err <= 1e-7 * math.sqrt(want) + 1e-10 * math.sqrt(bound), (value, want, bound)


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


class TestOverlapKernel:
    """The kernel against the term-by-term log-magnitude evaluator."""

    @pytest.mark.parametrize("q", range(-4, 5))
    @pytest.mark.parametrize("f", CATALOG, ids=lambda f: f.label())
    def test_grid_matches_log_magnitude_oracle(self, f, q):
        for n_max in (0, 1, 8, 80, 200):
            state = build_deformed(f, q, 5.0, TruncationPolicy(n_max))
            grid = husimi_grid(state, 1 + 1j, (-6.0, 6.0, 13), (-6.0, 6.0, 13))
            xs, ys = grid.axes()
            reference = TermwiseLogOverlap(state)
            for i, value in enumerate(grid.values):
                want = reference.evaluate(complex(xs[i // 13], ys[i % 13]), 1 + 1j)
                assert_amplitude_close(value, *want)

    @pytest.mark.parametrize("alpha1", [3.0, 3 + 4j, 6 + 6j])
    def test_subnormal_values(self, alpha1):
        # Q near 5e-324: formed as one exp of the log scale, not from
        # terms that each underflow
        state = build_deformed(parse_spec("qdef:7"), 2, 5 + 0.5j, TruncationPolicy(200))
        alpha2 = -1.112 + 0.286j
        assert_amplitude_close(husimi_point(state, alpha1, alpha2),
                               *TermwiseLogOverlap(state).evaluate(alpha1, alpha2))

    def test_long_ladder_far_from_origin(self):
        # terms up to exp(2025): a product started at n = 0 loses them
        state = build_deformed(unity(), 1, 6400.0, TruncationPolicy(2000))
        alpha1 = 45 * cmath.exp(0.79j)
        value = husimi_point(state, alpha1, 45.0)
        assert value > 1e-7
        assert_amplitude_close(value, *TermwiseLogOverlap(state).evaluate(alpha1, 45.0))


class TestHusimiGrid:
    def test_pointwise_contract(self):
        # one-segment ladders (n_max <= 15: a point is a 1x1 array), the segment
        # boundary at 16, and a 61^2 grid at n_max 320 spanning several blocks
        small = ((-2.0, 2.0, 3), (-1.0, 1.0, 3))
        for n_max, x_range, y_range in ([(n, *small) for n in (0, 5, 15, 16, 17, 20)]
                                        + [(320, (-6.0, 6.0, 61), (-6.0, 6.0, 61))]):
            state = build_deformed(unity(), 1, 5.0, TruncationPolicy(n_max))
            grid = husimi_grid(state, 1 + 1j, x_range, y_range)
            xs, ys = grid.axes()
            for ix in range(len(xs)):
                for iy in range(len(ys)):
                    want = husimi_point(state, complex(xs[ix], ys[iy]), 1 + 1j)
                    assert grid.values[ix * len(ys) + iy] == want

    def test_block_boundaries(self):
        # 21 segments make blocks of 1560 nodes, so a 64^2 grid spans 3 blocks
        state = build_deformed(intensity_sqrt(), 1, 5.0, TruncationPolicy(320))
        assert husimi._block_size(state) == 1560
        grid = husimi_grid(state, 1 + 1j, (-6.0, 6.0, 64), (-6.0, 6.0, 64))
        xs, ys = grid.axes()
        for i in (0, 1559, 1560, 3119, 3120, 64 * 64 - 1):
            ix, iy = divmod(i, 64)
            assert grid.values[i] == husimi_point(state, complex(xs[ix], ys[iy]), 1 + 1j)

    def test_points_alternating_between_states(self):
        # each value comes from its own state's segment table: the grids match
        # the term-by-term oracle, and points taken in turn match their grid
        states = [build_deformed(unity(), 1, 5.0, TruncationPolicy(40)),
                  build_deformed(penson_solomon(0.5), -2, 3 + 1j, TruncationPolicy(40))]
        nodes = [complex(x, y) for x in np.linspace(-2.0, 2.0, 5) for y in np.linspace(-2.0, 2.0, 5)]
        grids = []
        for state in states:
            grid = husimi_grid(state, 1 + 1j, (-2.0, 2.0, 5), (-2.0, 2.0, 5))
            reference = TermwiseLogOverlap(state)
            for alpha1, value in zip(nodes, grid.values):
                assert_amplitude_close(value, *reference.evaluate(alpha1, 1 + 1j))
            grids.append(grid)
        for i, alpha1 in enumerate(nodes):
            for state, grid in zip(states, grids):
                assert husimi_point(state, alpha1, 1 + 1j) == grid.values[i]

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
        with pytest.raises(PreconditionError, match="values length"):
            HusimiGrid(0j, (-1.0, 1.0, 2), (-1.0, 1.0, 2), np.zeros(3))


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

    def test_polar_draw_matches_cartesian_amplitudes(self):
        # complex xi: with real coefficients Q is even in the phase of
        # alpha1 alpha2, and a flipped phase of the draw would not show
        state = build_deformed(unity(), 1, 5 + 0.5j, TruncationPolicy(30))
        samples, radius, seed = 150_000, 5.0, 3
        rng = np.random.default_rng(seed)
        total = 0.0
        for size in (100_000, 50_000):  # the check's batches, in its draw order
            u = rng.random((4, size))
            a1 = radius * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
            a2 = radius * np.sqrt(u[2]) * np.exp(2j * np.pi * u[3])
            total += husimi._q_values(state, a1, a2).sum()
        want = (math.pi * radius**2) ** 2 * total / samples
        est = husimi_norm_check(state, samples=samples, radius=radius, seed=seed)
        assert est == pytest.approx(want, rel=1e-12)

    def test_sample_floor_enforced(self):
        with pytest.raises(PreconditionError):
            husimi_norm_check(vacuum_state(), samples=100, radius=5.0)

    @pytest.mark.parametrize("state,radius", [
        (vacuum_state(), 4.0),
        (build_deformed(penson_solomon(0.5), -1, 10.0, TruncationPolicy(60)), 5.0),
        (build_deformed(unity(), 2, 5.0, TruncationPolicy(40)), 5.0),
        (build_deformed(q_deformed(7.0), 1, 5.0, TruncationPolicy(30)), 6.0),
    ], ids=["vacuum", "ps", "unity", "qdef"])
    def test_within_standard_errors_of_exact_disk_integral(self, state, radius):
        samples = 200_000
        est = husimi_norm_check(state, samples=samples, radius=radius, seed=12345)
        # the standard error from the spread of volume * Q over an
        # independent uniform draw on the two disks
        rng = np.random.default_rng(2024)
        u = rng.random((4, samples))
        a1 = radius * np.sqrt(u[0]) * np.exp(2j * np.pi * u[1])
        a2 = radius * np.sqrt(u[2]) * np.exp(2j * np.pi * u[3])
        spread = (math.pi * radius**2) ** 2 * husimi._q_values(state, a1, a2).std()
        assert abs(est - husimi_disk_integral(state, radius)) <= 4 * spread / math.sqrt(samples)


class TestWorkingSet:
    """No working array outgrows one kernel block: the peak traced allocation
    of a large grid or norm check stays far below its full-size node arrays."""

    @pytest.mark.parametrize("run", [
        lambda: husimi_grid(build_deformed(intensity_sqrt(), 1, 5.0, TruncationPolicy(80)),
                            1 + 1j, (-6.0, 6.0, 512), (-6.0, 6.0, 512)),
        lambda: husimi_norm_check(vacuum_state(), samples=1_000_000, radius=4.0),
        lambda: husimi_norm_check(build_deformed(penson_solomon(0.5), -1, 10.0, TruncationPolicy(60)),
                                  samples=1_000_000, radius=5.0),
    ], ids=["grid-512^2", "norm-vacuum", "norm-ps"])
    def test_peak_below_8_mb(self, run):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6, peak


class TestNonFiniteInput:
    @pytest.mark.parametrize("call", [
        lambda s: husimi_point(s, math.nan, 1j),
        lambda s: husimi_grid(s, math.nan, (-1.0, 1.0, 3), (-1.0, 1.0, 3)),
        lambda s: husimi_grid(s, 1j, (-1.0, math.inf, 3), (-1.0, 1.0, 3)),
        lambda s: husimi_norm_check(s, 10_000, math.nan),
        lambda s: husimi_grid(s, 1j, (-1.0, 1.0, 3), (-1.7e308, 1.7e308, 3)),
    ], ids=["point-alpha1", "grid-alpha2", "grid-range", "norm-radius", "grid-span"])
    def test_rejected(self, call):
        state = build_deformed(unity(), 1, 5.0, TruncationPolicy(10))
        with pytest.raises(PreconditionError):
            call(state)
