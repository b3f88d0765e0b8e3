"""Tests for photon statistics and nonclassicality criteria."""

import math
from dataclasses import fields

import numpy as np
import pytest

from chargestate import diagnostics as dg
from chargestate.cli import SWEEP_DIAGNOSTICS, SweepSpec, _sweep_csv
from chargestate.diagnostics import (
    DIAGNOSTICS,
    DiagnosticsReport,
    full_report,
    moments,
    photon_distribution,
)
from chargestate.nonlinearity import intensity_sqrt, penson_solomon, q_deformed, unity
from chargestate.states import (
    CONVERGENCE_DIAGNOSTICS,
    ChargeState,
    TruncationPolicy,
    apply_tridiagonal,
    build_deformed,
    convergence_report,
)

from _oracles import TwoModeSpace

CATALOG = [unity(), penson_solomon(0.5), intensity_sqrt(), q_deformed(7.0)]


def diagnostic(state, name):
    return DIAGNOSTICS[name](moments(state))


def quadrature_variance(state):
    mom = moments(state)
    return DIAGNOSTICS["dx2"](mom), DIAGNOSTICS["dp2"](mom)


def single_ket(q):
    return ChargeState.from_raw(q, 0.0, unity(), np.array([1.0 + 0j]))


def two_ket_equal(q):
    return ChargeState.from_raw(q, 0.0, unity(), np.array([1.0, 1.0], dtype=complex))


def poisson_state(mu=3.0, n_max=60):
    """Injected Poissonian weight vector on the q = 0 ladder."""
    amps = np.array(
        [math.exp(0.5 * (-mu + n * math.log(mu) - math.lgamma(n + 1))) for n in range(n_max + 1)]
    )
    return ChargeState.from_raw(0, 0.0, unity(), amps.astype(complex))


class TestMoments:
    def test_single_ket(self):
        m = moments(single_ket(3))
        assert (m.mean_na, m.mean_nb, m.cross) == (3.0, 0.0, 0.0)

    def test_two_term_hand_sum(self):
        m = moments(two_ket_equal(1))
        assert m.mean_na == pytest.approx(1.5)
        assert m.cross == pytest.approx(1.0)
        assert m.aa_corr == pytest.approx(1.0)

    def test_poisson_oracle(self):
        m = moments(poisson_state(3.0))
        assert m.mean_nb == pytest.approx(3.0, abs=1e-8)
        assert m.mean_nb2 == pytest.approx(12.0, abs=1e-8)

    @pytest.mark.parametrize("f", CATALOG)
    @pytest.mark.parametrize("q", [-2, 0, 1])
    def test_pair_moment_identity(self, f, q):
        # <a+a+ a a> = <n^2> - <n> exactly on a number ladder
        state = build_deformed(f, q, 5.0, TruncationPolicy(50))
        m = moments(state)
        assert abs(m.aa_corr - (m.mean_na2 - m.mean_na)) <= 1e-10
        assert abs(m.bb_corr - (m.mean_nb2 - m.mean_nb)) <= 1e-10

    def test_variance_nonnegative(self):
        for f in CATALOG:
            m = moments(build_deformed(f, 2, 7.0, TruncationPolicy(40)))
            assert m.mean_na2 >= m.mean_na**2 - 1e-12
            assert m.mean_nb2 >= m.mean_nb**2 - 1e-12


class TestMandel:
    def test_number_state(self):
        assert diagnostic(single_ket(2), "mandel_a") == pytest.approx(-1.0)

    def test_poissonian(self):
        assert diagnostic(poisson_state(), "mandel_b") == pytest.approx(0.0, abs=1e-8)

    def test_undefined_on_empty_mode(self):
        assert diagnostic(single_ket(2), "mandel_b") is None

    @pytest.mark.parametrize("f", CATALOG)
    def test_lower_bound(self, f):
        value = diagnostic(build_deformed(f, 1, 5.0, TruncationPolicy(60)), "mandel_a")
        assert value is not None and value >= -1.0


class TestG2:
    def test_number_state(self):
        # q(q-1)/q^2 for the bare |q, 0> ket
        assert diagnostic(single_ket(3), "g2_a") == pytest.approx(2.0 / 3.0)

    def test_poissonian(self):
        assert diagnostic(poisson_state(), "g2_b") == pytest.approx(1.0, abs=1e-8)

    def test_undefined_on_empty_mode(self):
        assert diagnostic(single_ket(3), "g2_b") is None

    def test_nonnegative(self):
        for f in CATALOG:
            value = diagnostic(build_deformed(f, -1, 5.0, TruncationPolicy(60)), "g2_a")
            assert value is not None and value >= 0.0


class TestG12:
    def test_two_term_hand_sum(self):
        assert diagnostic(two_ket_equal(1), "g12") == pytest.approx(4.0 / 3.0)

    def test_undefined_for_single_ket(self):
        assert diagnostic(single_ket(2), "g12") is None


class TestCauchySchwartz:
    def test_two_term_hand_sum(self):
        # bb_corr = 0 exactly, so the ratio is -1
        assert diagnostic(two_ket_equal(1), "i0") == pytest.approx(-1.0)

    def test_undefined_when_cross_vanishes(self):
        assert diagnostic(single_ket(2), "i0") is None


class TestQuadratureVariance:
    def test_single_ket(self):
        assert quadrature_variance(single_ket(1)) == (1.5, 1.5)

    @pytest.mark.parametrize("f", CATALOG)
    @pytest.mark.parametrize("q", [-2, 0, 3])
    def test_equal_and_never_squeezed(self, f, q):
        state = build_deformed(f, q, 5.0, TruncationPolicy(60))
        dx2, dp2 = quadrature_variance(state)
        assert dx2 == dp2
        assert dx2 >= 0.5
        assert abs(dx2 - (moments(state).mean_na + 0.5)) <= 1e-12


class TestPhotonDistribution:
    def test_single_ket(self):
        assert photon_distribution(single_ket(4)) == [(0, 4, 0, 1.0)]

    @pytest.mark.parametrize("f", CATALOG)
    def test_sums_to_one(self, f):
        rows = photon_distribution(build_deformed(f, -2, 8.0, TruncationPolicy(70)))
        assert math.fsum(r[3] for r in rows) == pytest.approx(1.0, abs=1e-12)
        assert all(r[3] >= 0.0 for r in rows)

    def test_occupations_follow_branch(self):
        rows = photon_distribution(build_deformed(unity(), -2, 5.0, TruncationPolicy(5)))
        assert [(r[1], r[2]) for r in rows] == [(n, n + 2) for n in range(6)]


class TestRegistry:
    def test_every_consumer_name_is_registered(self):
        assert set(SWEEP_DIAGNOSTICS) <= set(DIAGNOSTICS)
        assert set(CONVERGENCE_DIAGNOSTICS) <= set(DIAGNOSTICS)
        assert {f.name for f in fields(DiagnosticsReport)} <= set(DIAGNOSTICS)

    def test_one_moments_pass_per_state(self, monkeypatch):
        seen = []
        real = dg.moments
        monkeypatch.setattr(dg, "moments", lambda state: seen.append(state) or real(state))
        full_report(build_deformed(unity(), 1, 5.0, TruncationPolicy(20)))
        convergence_report(unity(), 1, 5.0, 10, 20)
        _sweep_csv(SweepSpec("g2_a", 1.0, 2.0, 3, "unity", 1, 10))
        assert len(seen) == 1 + 2 + 3
        assert len({id(state) for state in seen}) == len(seen)


class TestModeSwapSymmetry:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_undeformed_diagnostics_swap(self, q):
        plus = build_deformed(unity(), q, 5.0, TruncationPolicy(60))
        minus = build_deformed(unity(), -q, 5.0, TruncationPolicy(60))
        rp, rm = full_report(plus), full_report(minus)
        assert rp.mandel_a == pytest.approx(rm.mandel_b, rel=1e-12)
        assert rp.g2_a == pytest.approx(rm.g2_b, rel=1e-12)
        assert rp.g12 == pytest.approx(rm.g12, rel=1e-12)


class TestAgainstDenseOperators:
    """Everything above is sums over the ladder; check the ladder bookkeeping
    against literal two-mode operators on a small dense Fock space."""

    @pytest.mark.parametrize("f", [unity(), penson_solomon(0.5)])
    @pytest.mark.parametrize("q", [0, 2, -1])
    def test_moments_match_operator_expectations(self, f, q):
        n_max = 6
        state = build_deformed(f, q, 3.0, TruncationPolicy(n_max))
        space = TwoModeSpace(n_max + abs(q) + 2, n_max + abs(q) + 2, f)
        psi = space.embed(state)
        m = moments(state)
        assert m.mean_na == pytest.approx(space.expect(space.na, psi), abs=1e-10)
        assert m.mean_nb == pytest.approx(space.expect(space.nb, psi), abs=1e-10)
        assert m.cross == pytest.approx(space.expect(space.na @ space.nb, psi), abs=1e-10)
        aa = space.a_plain.conj().T @ space.a_plain.conj().T @ space.a_plain @ space.a_plain
        assert m.aa_corr == pytest.approx(space.expect(aa, psi), abs=1e-10)

    def test_quadrature_matches_operator_variance(self):
        state = build_deformed(unity(), 1, 2.0, TruncationPolicy(5))
        space = TwoModeSpace(9, 9, unity())
        psi = space.embed(state)
        x = (space.a_plain + space.a_plain.conj().T) / math.sqrt(2.0)
        var = space.expect(x @ x, psi) - space.expect(x, psi) ** 2
        assert quadrature_variance(state)[0] == pytest.approx(var, abs=1e-10)

    @pytest.mark.parametrize("f", [unity(), penson_solomon(0.5), q_deformed(7.0)])
    @pytest.mark.parametrize("q", [0, 2, -2])
    def test_tridiagonal_action_matches_pairing_operator(self, f, q):
        n_max = 5
        state = build_deformed(f, q, 4.0, TruncationPolicy(n_max))
        dim = n_max + abs(q) + 3
        space = TwoModeSpace(dim, dim, f)
        psi = space.embed(state)
        dense_image = space.pairing_operator() @ psi
        image, leakage = apply_tridiagonal(f, state)
        na, nb = state.occupations()
        for n in range(n_max + 1):
            assert dense_image[na[n] * dim + nb[n]] == pytest.approx(
                image[n], rel=1e-12, abs=1e-10
            )
        # the only amplitude outside the window sits one rung above it
        top = abs(dense_image[(na[n_max] + 1) * dim + nb[n_max] + 1])
        assert top == pytest.approx(leakage, rel=1e-12, abs=1e-10)
