"""Tests for state construction, cross-validation paths, and reporting."""

import json
import math

import numpy as np
import pytest

from chargestate.errors import (
    ContinuedFractionPoleError,
    DegenerateStateError,
    LadderOverflowError,
    PreconditionError,
    ZeroDenominatorError,
)
from chargestate.nonlinearity import intensity_sqrt, penson_solomon, q_deformed, unity
from chargestate.states import (
    RESCALE_LIMIT,
    ChargeState,
    TruncationPolicy,
    _recursion_states,
    apply_tridiagonal,
    branch_for_charge,
    build_deformed,
    build_hermite_reference,
    build_linear_closed,
    continued_fraction_ratio,
    convergence_report,
    eigen_residual,
    hermite_reference_terms,
    ladder_elements,
    state_from_document,
    state_to_document,
)

from _oracles import (
    hermite_exact,
    ladder_scalar,
    laguerre_series,
    recursion_scalar,
    unity_pre_norm_exact,
)

CATALOG = [unity(), penson_solomon(0.5), intensity_sqrt(), q_deformed(7.0)]


class _ZeroAtTwo:
    """Stub deformation vanishing at n = 2, for the denominator guard."""

    kind = "stub"
    params = {}

    def __call__(self, n):
        return 0.0 if n == 2 else 1.0


class TestTruncationPolicy:
    def test_validation(self):
        TruncationPolicy(0)
        with pytest.raises(PreconditionError):
            TruncationPolicy(-1)


class TestBuildDeformed:
    def test_unity_q0_xi1_kills_first_excited(self):
        state = build_deformed(unity(), 0, 1.0, TruncationPolicy(1))
        assert state.coeffs[0] == pytest.approx(1.0)
        assert state.coeffs[1] == 0.0

    @pytest.mark.parametrize("xi", [0.3, 4.0, 9.5, 2 + 1j])
    def test_unity_q1_first_ratio(self, xi):
        state = build_deformed(unity(), 1, xi, TruncationPolicy(5))
        ratio = state.coeffs[1] / state.coeffs[0]
        assert ratio == pytest.approx((xi - 2.0) / math.sqrt(2.0), rel=1e-14)

    def test_penson_q0_first_ratio(self):
        # f(1) = p^0 = 1, so c1/c0 = (xi - 1)/1 = 1 at xi = 2
        state = build_deformed(penson_solomon(0.5), 0, 2.0, TruncationPolicy(4))
        assert state.coeffs[1] / state.coeffs[0] == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("f", CATALOG)
    def test_single_ket_cutoff(self, f):
        state = build_deformed(f, 2, 3.0, TruncationPolicy(0))
        assert state.coeffs.tolist() == [1.0 + 0j]

    @pytest.mark.parametrize("f", CATALOG)
    @pytest.mark.parametrize("q", [-3, -1, 0, 2])
    def test_normalization_invariant(self, f, q):
        state = build_deformed(f, q, 5.0, TruncationPolicy(50))
        assert state.norm_error() <= 1e-12

    def test_vanishing_denominator_names_index(self):
        with pytest.raises(ZeroDenominatorError) as err:
            build_deformed(_ZeroAtTwo(), 0, 1.0, TruncationPolicy(5))
        assert err.value.index == 2

    def test_ladder_overflow_guard(self):
        with pytest.raises(LadderOverflowError):
            build_deformed(penson_solomon(0.5), 1, 5.0, TruncationPolicy(600))

    def test_rescaling_keeps_norm_and_counts(self):
        state = build_deformed(penson_solomon(0.5), 3, 5.0, TruncationPolicy(300))
        assert state.rescale_count >= 1
        assert state.norm_error() <= 1e-12
        assert state.pre_norm == math.inf  # beyond double range, log stays finite
        assert math.isfinite(state.log_pre_norm)

    def test_branch_assignment(self):
        assert branch_for_charge(0) == "plus"
        assert build_deformed(unity(), 0, 2.0, TruncationPolicy(3)).branch == "plus"
        assert build_deformed(unity(), -2, 2.0, TruncationPolicy(3)).branch == "minus"

    def test_mode_swap_symmetry_is_exact(self):
        # undeformed plus-branch at q equals minus-branch at -q, bit for bit
        for q in (1, 2, 3):
            sp = build_deformed(unity(), q, 5.0, TruncationPolicy(40))
            sn = build_deformed(unity(), -q, 5.0, TruncationPolicy(40))
            assert np.array_equal(sp.coeffs, sn.coeffs)

    def test_q0_minus_formulas_coincide(self):
        dp, tp = ladder_elements(unity(), 0, 10)
        # the q = 0 ladder is the same object regardless of branch formulas
        assert np.allclose(dp, 2 * np.arange(11) + 1)
        assert np.allclose(tp[1:-1], np.arange(1, 11))


class _Counted:
    """Deformation wrapper that records evaluations and overflows from an occupation on."""

    def __init__(self, f, overflow_from=None):
        self.f, self.overflow_from, self.calls = f, overflow_from, []

    def __call__(self, n):
        self.calls.append(n)
        if self.overflow_from is not None and n >= self.overflow_from:
            raise OverflowError("stub overflow")
        return self.f(n)


def _first_non_finite(diag, off):
    bad = [int(np.argmax(~np.isfinite(x))) for x in (diag, off) if not np.isfinite(x).all()]
    return min(bad) if bad else None


class TestLadderKernel:
    """The vectorised ladder and the float recursion against their scalar references."""

    @pytest.mark.parametrize("f", CATALOG)
    @pytest.mark.parametrize("q", range(-4, 5))
    def test_bit_identical_to_scalar_reference(self, f, q):
        for n_max in (0, 1, 3, 40, 80, 320, 640):
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    diag, off = ladder_scalar(f, q, n_max)
                finite = _first_non_finite(diag, off) is None
            except OverflowError:
                finite = False
            if not finite:
                with pytest.raises(LadderOverflowError):
                    ladder_elements(f, q, n_max)
                continue
            got_diag, got_off = ladder_elements(f, q, n_max)
            assert got_diag.tobytes() == diag.tobytes(), (q, n_max)
            assert got_off.tobytes() == off.tobytes(), (q, n_max)
            for xi in (1.0, 5.0, 2 + 1j, 0.625):
                with np.errstate(all="ignore"):
                    raw, log_scale, rescales = recursion_scalar(diag, off, xi, n_max, RESCALE_LIMIT)
                    want = ChargeState.from_raw(q, xi, f, raw, log_scale=log_scale,
                                                rescale_count=rescales)
                    got = build_deformed(f, q, xi, TruncationPolicy(n_max))
                # == ignores the sign of zero imaginary parts; NaN states stay NaN
                assert np.array_equal(got.coeffs, want.coeffs, equal_nan=True), (q, n_max, xi)
                assert got.rescale_count == want.rescale_count
                assert np.array_equal([got.log_pre_norm, got.pre_norm],
                                      [want.log_pre_norm, want.pre_norm], equal_nan=True)

    @pytest.mark.parametrize("q", [-2, 0, 3])
    def test_f_evaluated_once_per_occupation(self, q):
        f = _Counted(q_deformed(7.0))
        ladder_elements(f, q, 30)
        assert f.calls == list(range(30 + abs(q) + 2))

    @pytest.mark.parametrize("q", [-1, 0, 1])
    def test_overflow_index_is_first_non_finite_element(self, q):
        f = penson_solomon(0.5)
        with np.errstate(over="ignore", invalid="ignore"):
            first = _first_non_finite(*ladder_scalar(f, q, 600))
        assert first is not None
        for n_max in (600, 1280):  # f itself overflows below 1280
            with pytest.raises(LadderOverflowError) as err:
                ladder_elements(f, q, n_max)
            assert err.value.index == first
        if q == 0:
            assert first == 508

    def test_overflow_raised_by_f_counts_as_inf(self):
        # occupation 7 first enters diag[6] (q = 0 uses f(n+1) there)
        with pytest.raises(LadderOverflowError) as err:
            ladder_elements(_Counted(unity(), overflow_from=7), 0, 20)
        assert err.value.index == 6

    def test_convergence_coarse_state_matches_separate_build(self):
        f = penson_solomon(0.5)
        coarse, fine = _recursion_states(f, 3, 5.0 + 0j, (150, 300))
        alone = build_deformed(f, 3, 5.0, TruncationPolicy(150))
        assert fine.rescale_count > coarse.rescale_count  # the fine run rescales after 150
        assert coarse.coeffs.tobytes() == alone.coeffs.tobytes()
        assert (coarse.log_pre_norm, coarse.pre_norm, coarse.rescale_count) == (
            alone.log_pre_norm, alone.pre_norm, alone.rescale_count)
        rep = convergence_report(f, 3, 5.0, 150, 300)
        assert rep.pre_norm_coarse == alone.pre_norm
        assert rep.log_pre_norm_ratio == fine.log_pre_norm - alone.log_pre_norm


class TestContinuedFraction:
    def test_bottom_level_examples(self):
        assert continued_fraction_ratio(unity(), 0, 1.0, 1) == 0.0
        assert continued_fraction_ratio(unity(), 1, 4.0, 1) == pytest.approx(
            math.sqrt(2.0), rel=1e-15
        )

    def test_matches_forward_recursion_at_depth(self):
        state = build_deformed(unity(), 0, 5.0, TruncationPolicy(6))
        want = state.coeffs[3] / state.coeffs[2]
        got = continued_fraction_ratio(unity(), 0, 5.0, 3)
        assert got == pytest.approx(want, rel=1e-9)

    def test_pole_reports_depth(self):
        # unity q=0 xi=1 makes c_1 exactly zero, a depth-1 pole for n >= 2
        with pytest.raises(ContinuedFractionPoleError) as err:
            continued_fraction_ratio(unity(), 0, 1.0, 2)
        assert err.value.depth == 1

    def test_requires_positive_depth(self):
        with pytest.raises(PreconditionError):
            continued_fraction_ratio(unity(), 0, 1.0, 0)

    @pytest.mark.parametrize("f", CATALOG)
    @pytest.mark.parametrize("q", [-2, 0, 2])
    @pytest.mark.parametrize("xi", [1.0, 5.0])
    def test_ratio_consistency_invariant(self, f, q, xi):
        state = build_deformed(f, q, xi, TruncationPolicy(31))
        for n in range(1, 31):
            below = state.coeffs[n - 1]
            if below == 0:
                continue
            want = state.coeffs[n] / below
            try:
                got = continued_fraction_ratio(f, q, xi, n)
            except ContinuedFractionPoleError as err:
                # both routes see the same zero crossing
                assert abs(state.coeffs[err.depth]) < 1e-12
                continue
            assert abs(got - want) <= 1e-9 * abs(want)


class TestLinearClosedForm:
    def test_q0_xi1_kills_first_excited(self):
        state = build_linear_closed(0, 1.0, TruncationPolicy(3))
        assert state.coeffs[1] == 0.0

    def test_q1_xi0_alternating_sqrt_weights(self):
        # only the k = n term survives: c_n proportional to (-1)^n sqrt(n+1)
        state = build_linear_closed(1, 0.0, TruncationPolicy(8))
        ref = np.array([(-1) ** n * math.sqrt(n + 1) for n in range(9)])
        ref = ref / np.linalg.norm(ref)
        assert np.allclose(state.coeffs.real, ref, rtol=1e-13, atol=1e-15)
        assert np.allclose(state.coeffs.imag, 0.0)

    def test_recovers_deformed_at_unity(self):
        a = build_linear_closed(2, 5.0, TruncationPolicy(60))
        b = build_deformed(unity(), 2, 5.0, TruncationPolicy(60))
        rel = np.abs(a.coeffs - b.coeffs) / np.abs(a.coeffs)
        assert rel.max() <= 1e-9

    @pytest.mark.parametrize("q", [0, 1, 3])
    @pytest.mark.parametrize("xi", [1.0, 5.0])
    def test_laguerre_cross_check(self, q, xi):
        # derived identity, verified not assumed: coefficients are
        # proportional to (-1)^n sqrt(n!/(n+q)!) L_n^(q)(xi) (series oracle)
        state = build_linear_closed(q, xi, TruncationPolicy(30))
        ref = np.array(
            [
                (-1) ** n
                * math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + q + 1)))
                * laguerre_series(n, q, xi)
                for n in range(31)
            ]
        )
        ref = ref / np.linalg.norm(ref)
        got = state.coeffs.real
        scale = np.abs(ref).max()
        assert np.max(np.abs(got - ref)) <= 1e-8 * scale

    def test_complex_xi_supported(self):
        a = build_linear_closed(1, 2.5 - 1.5j, TruncationPolicy(35))
        b = build_deformed(unity(), 1, 2.5 - 1.5j, TruncationPolicy(35))
        rel = np.abs(a.coeffs - b.coeffs) / np.abs(a.coeffs)
        assert rel.max() <= 1e-10


class TestHermiteReference:
    def test_positive_charge_needs_positive_lambda(self):
        with pytest.raises(DegenerateStateError):
            build_hermite_reference(1, 0.0, TruncationPolicy(6))

    def test_q0_lambda0_uniform_alternating(self):
        state = build_hermite_reference(0, 0.0, TruncationPolicy(5))
        want = np.array([(-1) ** n for n in range(6)]) / math.sqrt(6.0)
        assert np.allclose(state.coeffs.real, want, rtol=1e-14)

    def test_negative_lambda_rejected(self):
        with pytest.raises(PreconditionError):
            build_hermite_reference(1, -2.0, TruncationPolicy(6))

    @pytest.mark.parametrize("q", [1, -2])
    @pytest.mark.parametrize("lam", [1.0, 5.0, 10.0])
    def test_collinear_with_closed_form_at_xi_equals_lambda(self, q, lam):
        h = build_hermite_reference(q, lam, TruncationPolicy(60))
        c = build_linear_closed(q, lam, TruncationPolicy(60))
        cos = abs(np.vdot(h.coeffs, c.coeffs))
        assert cos >= 1 - 1e-9

    @pytest.mark.parametrize("q", [-2, 0, 1, 3])
    @pytest.mark.parametrize("z", [0.5, 2.5])
    def test_terms_match_exact_hermite(self, q, z):
        # z * z is exact in binary, so lam = z^2 and the oracle's z agree;
        # a difference of logs is the relative error of the magnitude
        signs, logs = hermite_reference_terms(q, z * z, 24)
        a = abs(q)
        for n in range(25):
            occ = (n + a, n) if q >= 0 else (n, n + a)
            re, im = hermite_exact(*occ, complex(z))
            assert im == 0 and signs[n] == (re > 0) - (re < 0)
            want = (math.log(abs(re.numerator)) - math.log(re.denominator)
                    - 0.5 * sum(math.log(math.factorial(k)) for k in occ))
            assert abs(logs[n] - want) <= 1e-13

    @pytest.mark.parametrize("lam", [5.0, 10.0])
    def test_sqrt_lambda_map_is_rejected(self, lam):
        # the substitution ambiguity resolves to xi = lam, not xi = sqrt(lam)
        h = build_hermite_reference(1, lam, TruncationPolicy(60))
        c = build_linear_closed(1, math.sqrt(lam), TruncationPolicy(60))
        assert abs(np.vdot(h.coeffs, c.coeffs)) < 0.9


class TestTridiagonalAction:
    def test_single_ket_q2(self):
        state = ChargeState.from_raw(2, 0.0, unity(), np.array([1.0, 0.0], dtype=complex))
        image, leakage = apply_tridiagonal(unity(), state)
        assert image[0] == pytest.approx(3.0)
        assert image[1] == pytest.approx(math.sqrt(3.0))
        assert leakage == 0.0

    def test_unity_q0_diagonal(self):
        diag, _ = ladder_elements(unity(), 0, 20)
        assert np.allclose(diag, 2 * np.arange(21) + 1)

    def test_action_is_linear(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=13) + 1j * rng.normal(size=13)
        v = rng.normal(size=13) + 1j * rng.normal(size=13)
        f = penson_solomon(0.5)

        def image_of(vec):
            st = ChargeState.from_raw(-1, 0.0, f, vec)
            img, _ = apply_tridiagonal(f, st)
            return img * np.linalg.norm(vec)

        lhs = image_of(u + 2j * v)
        rhs = image_of(u) + 2j * image_of(v)
        assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_leakage_matches_boundary_row(self):
        f = q_deformed(7.0)
        state = build_deformed(f, -2, 5.0, TruncationPolicy(12))
        _, leakage = apply_tridiagonal(f, state)
        rows = eigen_residual(f, state)
        assert rows[-1] == pytest.approx(leakage, rel=1e-9)


class TestEigenResidual:
    def test_built_state_interior_small(self):
        for f, q in [(unity(), 1), (intensity_sqrt(), -2)]:
            state = build_deformed(f, q, 5.0, TruncationPolicy(60))
            rows = eigen_residual(f, state)
            assert rows[:-1].max() <= 1e-9 * max(1.0, 5.0)

    def test_perturbation_is_visible(self):
        state = build_deformed(unity(), 1, 5.0, TruncationPolicy(30))
        bumped = state.coeffs.copy()
        bumped[10] += 1e-3
        perturbed = ChargeState.from_raw(1, 5.0, unity(), bumped)
        rows = eigen_residual(unity(), perturbed)
        assert rows[:-1].max() >= 1e-4

    def test_hermite_reference_is_an_eigenvector(self):
        state = build_hermite_reference(1, 5.0, TruncationPolicy(60))
        rows = eigen_residual(unity(), state)
        assert rows[:-1].max() <= 1e-6 * max(1.0, 5.0)

    def test_short_ladder_rejected(self):
        state = build_deformed(unity(), 0, 2.0, TruncationPolicy(1))
        with pytest.raises(PreconditionError):
            eigen_residual(unity(), state)


class TestConvergenceReport:
    def test_strongly_deformed_positive_charge_diverges(self):
        # raw Penson-Solomon q=+1 coefficients grow geometrically, so the
        # pre-normalization weight explodes between the cutoffs
        rep = convergence_report(penson_solomon(0.5), 1, 5.0, 40, 80)
        assert rep.norm_divergent
        assert rep.log_pre_norm_ratio / math.log(10) > 20
        assert not rep.converged()["mean_na"]

    def test_undeformed_grows_too_slowly_for_the_flag(self):
        rep = convergence_report(unity(), 1, 5.0, 40, 80)
        exact = float(
            unity_pre_norm_exact(1, 5.0, 80) / unity_pre_norm_exact(1, 5.0, 40)
        )
        assert rep.pre_norm_ratio == pytest.approx(exact, rel=1e-9)
        assert not rep.norm_divergent  # sqrt-like growth stays under x10

    def test_decaying_configuration_converges(self):
        rep = convergence_report(penson_solomon(0.5), -1, 5.0, 40, 80)
        assert not rep.norm_divergent
        assert all(rep.converged().values())

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-3])
    def test_diag_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(PreconditionError):
            convergence_report(unity(), 1, 5.0, 10, 20, diag_tol=tol)

    def test_cutoff_ordering_enforced(self):
        with pytest.raises(PreconditionError):
            convergence_report(unity(), 1, 5.0, 80, 40)
        with pytest.raises(PreconditionError):
            convergence_report(unity(), 1, 5.0, 2, 40)


class TestSerialization:
    def test_document_schema_fields(self):
        state = build_deformed(penson_solomon(0.5), -1, 2 + 1j, TruncationPolicy(6))
        doc = state_to_document(state)
        assert set(doc) == {
            "q", "xi", "f", "branch", "n_max", "coeffs", "pre_norm", "rescale_count",
        }
        assert doc["xi"] == [2.0, 1.0]
        assert doc["f"] == {"name": "penson_solomon", "params": {"p": 0.5}}
        assert doc["branch"] == "minus"
        assert len(doc["coeffs"]) == 7
        assert all(len(pair) == 2 for pair in doc["coeffs"])

    def test_round_trip_through_json(self):
        state = build_deformed(q_deformed(7.0), 2, 4.5, TruncationPolicy(25))
        doc = json.loads(json.dumps(state_to_document(state)))
        again = state_from_document(doc)
        assert again.q == state.q
        assert again.xi == state.xi
        assert again.branch == state.branch
        assert again.f_spec.kind == state.f_spec.kind
        assert np.array_equal(again.coeffs, state.coeffs)
        assert again.pre_norm == state.pre_norm
        assert again.rescale_count == state.rescale_count
