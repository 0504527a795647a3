import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hqflow import oracle, symmfunc as sf


class TestSigma:
    def test_direct_expansion(self):
        assert sf.sigma((1.0, 2.0, 3.0), 2) == pytest.approx(11.0, rel=1e-14)

    def test_sigma_zero_is_one(self):
        assert sf.sigma((5.0, -7.0), 0) == 1.0

    def test_matches_brute_oracle_n8(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            lam = rng.uniform(-1.0, 3.0, 8)
            for m in range(9):
                fast = sf.sigma(lam, m)
                ref = oracle.sigma_brute(lam, m)
                assert fast == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sf.sigma((1.0, 2.0), 3)
        with pytest.raises(ValueError, match="out of range"):
            sf.sigma((1.0, 2.0), -1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            sf.sigma((1.0, math.nan), 1)


class TestSigmaOmit:
    def test_single_deletion(self):
        assert sf.sigma_omit((1.0, 2.0, 3.0), 1, 1) == 5.0
        assert sf.sigma_omit((1.0, 2.0, 3.0), 2, 2) == 3.0

    def test_double_deletion(self):
        assert sf.sigma_omit2((1.0, 2.0, 3.0), 1, 1, 2) == 3.0
        assert sf.sigma_omit2((1.0, 2.0, 3.0), 0, 1, 3) == 1.0

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            sf.sigma_omit2((1.0, 2.0, 3.0), 1, 2, 2)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sf.sigma_omit((1.0, 2.0, 3.0), 1, 4)
        with pytest.raises(ValueError, match="out of range"):
            sf.sigma_omit((1.0, 2.0, 3.0), 1, 0)

    def test_deletion_matches_oracle_n6(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            lam = rng.uniform(-1.0, 3.0, 6)
            i = int(rng.integers(1, 7))
            m = int(rng.integers(0, 6))
            ref = oracle.sigma_brute(np.delete(lam, i - 1), m)
            assert sf.sigma_omit(lam, m, i) == pytest.approx(
                ref, rel=1e-12, abs=1e-12)


class TestGammaCone:
    def test_positive_orthant(self):
        assert sf.in_gamma_k((1.0, 1.0, 1.0), 3) is True

    def test_sigma2_negative(self):
        assert sf.in_gamma_k((3.0, 1.0, -1.0), 2) is False

    def test_mildly_negative_entry(self):
        assert sf.in_gamma_k((1.0, 1.0, -0.1), 2) is True

    def test_slack_parameter(self):
        lam = (1.0, 1.0, -0.1)
        assert sf.in_gamma_k(lam, 2, eps=0.0)
        assert not sf.in_gamma_k(lam, 2, eps=1.0)

    def test_require_reports_first_failure(self):
        with pytest.raises(sf.AdmissibilityError) as err:
            sf.require_gamma_k((3.0, 1.0, -1.0), 2)
        assert err.value.m == 2
        assert err.value.value == pytest.approx(-1.0)


class TestQuotient:
    def test_ratio_examples(self):
        assert sf.quotient((1.0, 1.0, 1.0), 2, 1) == pytest.approx(1.0)
        assert sf.quotient((1.0, 2.0), 2, 0) == pytest.approx(2.0)

    def test_inadmissible_raises(self):
        with pytest.raises(sf.AdmissibilityError):
            sf.quotient((3.0, 1.0, -1.0), 2, 1)

    def test_index_validation(self):
        with pytest.raises(ValueError, match="0 <= l < k <= n"):
            sf.quotient((1.0, 1.0), 1, 1)
        with pytest.raises(ValueError, match="0 <= l < k <= n"):
            sf.quotient((1.0, 1.0), 3, 0)

    def test_newton_maclaurin_with_oracle_sigmas(self):
        # ratio of normalized sigmas is monotone in the order pair
        rng = np.random.default_rng(31)
        n = 5
        for _ in range(40):
            lam = oracle.sample_gamma_k(n, n, rng)
            for (k, l, r, s) in [(3, 1, 2, 0), (4, 2, 3, 1), (5, 0, 1, 0),
                                 (2, 1, 2, 0), (4, 0, 2, 0)]:
                lhs = ((oracle.sigma_brute(lam, k) / math.comb(n, k))
                       / (oracle.sigma_brute(lam, l) / math.comb(n, l)))
                rhs = ((oracle.sigma_brute(lam, r) / math.comb(n, r))
                       / (oracle.sigma_brute(lam, s) / math.comb(n, s)))
                assert lhs ** (1.0 / (k - l)) <= rhs ** (1.0 / (r - s)) + 1e-10


class TestDQuotient:
    def test_gradient_of_sigma2(self):
        assert sf.d_quotient((1.0, 2.0), 2, 0) == pytest.approx([2.0, 1.0])

    def test_gradient_of_trace(self):
        assert sf.d_quotient((1.0, 1.0, 1.0), 1, 0) == pytest.approx(
            [1.0, 1.0, 1.0])

    def test_matches_finite_differences_n4(self):
        rng = np.random.default_rng(55)
        h = 1e-6
        for _ in range(20):
            lam = oracle.sample_gamma_k(4, 3, rng)
            grad = sf.d_quotient(lam, 3, 1)
            for i in range(4):
                lp, lm = lam.copy(), lam.copy()
                lp[i] += h
                lm[i] -= h
                fd = (oracle.sigma_brute(lp, 3) / oracle.sigma_brute(lp, 1)
                      - oracle.sigma_brute(lm, 3) / oracle.sigma_brute(lm, 1)
                      ) / (2.0 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_positive_on_cone(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            lam = oracle.sample_gamma_k(4, 2, rng)
            assert np.all(sf.d_quotient(lam, 2, 1) > 0.0)


class TestEigenSym:
    def test_diagonal_input(self):
        lam, Q = sf.eigen_sym(np.diag([2.0, 3.0]))
        assert lam == pytest.approx([3.0, 2.0])
        assert np.abs(Q) == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]),
                                          abs=1e-10)

    def test_symmetric_swap(self):
        lam, _ = sf.eigen_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert lam == pytest.approx([1.0, -1.0])

    def test_random_4x4_reconstruction(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            B = rng.normal(size=(4, 4))
            A = 0.5 * (B + B.T)
            lam, Q = sf.eigen_sym(A)
            scale = 1.0 + np.max(np.abs(A))
            assert np.max(np.abs(A - (Q * lam) @ Q.T)) <= 1e-10 * scale
            assert np.max(np.abs(Q @ Q.T - np.eye(4))) <= 1e-10
            assert np.all(np.diff(lam) <= 1e-12)

    def test_larger_matrices(self):
        rng = np.random.default_rng(14)
        for n in (3, 5, 8):
            B = rng.normal(size=(n, n))
            A = 0.5 * (B + B.T)
            lam, Q = sf.eigen_sym(A)
            scale = 1.0 + np.max(np.abs(A))
            assert np.max(np.abs(A - (Q * lam) @ Q.T)) <= 1e-10 * scale

    @pytest.mark.parametrize("A", [np.eye(3), np.diag([2.0, 2.0, 1.0])])
    def test_repeated_eigenvalues(self, A):
        lam, Q = sf.eigen_sym(A)
        assert lam == pytest.approx(np.sort(np.diag(A))[::-1])
        assert np.max(np.abs(A - (Q * lam) @ Q.T)) <= 1e-12
        assert np.max(np.abs(Q @ Q.T - np.eye(3))) <= 1e-12
        assert np.all(np.diff(lam) <= 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            sf.eigen_sym(np.array([[1.0, np.inf], [np.inf, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sf.eigen_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestLogQuotientMatrix:
    def test_identity_k2(self):
        val, F = sf.log_quotient_matrix(np.eye(2), 2, 0)
        assert val == pytest.approx(0.0, abs=1e-14)
        assert F == pytest.approx(np.eye(2), abs=1e-12)

    def test_trace_case(self):
        val, F = sf.log_quotient_matrix(np.diag([1.0, 2.0]), 1, 0)
        assert val == pytest.approx(math.log(3.0), rel=1e-14)
        assert F == pytest.approx(np.eye(2) / 3.0, abs=1e-12)

    def test_matches_fd_oracle_3x3(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 15:
            lam_target = oracle.sample_gamma_k(3, 2, rng)
            B = rng.normal(size=(3, 3))
            Q, _ = np.linalg.qr(B)
            A = (Q * lam_target) @ Q.T
            A = 0.5 * (A + A.T)
            val, F = sf.log_quotient_matrix(A, 2, 1)
            assert val == pytest.approx(oracle.log_quotient_brute(A, 2, 1),
                                        rel=1e-10, abs=1e-10)
            F_ref = oracle.fij_fd(A, 2, 1)
            assert np.max(np.abs(F - F_ref)) <= 1e-5
            ev = np.linalg.eigvalsh(F)
            assert np.all(ev > 0.0)
            checked += 1

    def test_inadmissible_raises(self):
        with pytest.raises(sf.AdmissibilityError):
            sf.log_quotient_matrix(np.diag([1.0, -2.0]), 2, 0)


# random eigenvalue lists for the exact-identity suite
_lam_lists = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=2,
    max_size=8)


def _term_scale(*terms):
    return max(1.0, sum(abs(t) for t in terms))


@settings(max_examples=200, deadline=None)
@given(_lam_lists)
def test_deletion_identity(lam):
    n = len(lam)
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            skm1 = sf.sigma_omit(lam, k - 1, i)
            sk_del = 0.0 if k > n - 1 else sf.sigma_omit(lam, k, i)
            lhs = sf.sigma(lam, k)
            rhs = sk_del + lam[i - 1] * skm1
            assert abs(lhs - rhs) <= 1e-12 * _term_scale(
                lhs, sk_del, lam[i - 1] * skm1)


@settings(max_examples=200, deadline=None)
@given(_lam_lists)
def test_weighted_deletion_sums(lam):
    n = len(lam)
    for k in range(1, n + 1):
        terms = [lam[i - 1] * sf.sigma_omit(lam, k - 1, i)
                 for i in range(1, n + 1)]
        assert abs(sum(terms) - k * sf.sigma(lam, k)) <= 1e-12 * _term_scale(
            k * sf.sigma(lam, k), *terms)
    for k in range(0, n):
        terms = [sf.sigma_omit(lam, k, i) for i in range(1, n + 1)]
        target = (n - k) * sf.sigma(lam, k)
        assert abs(sum(terms) - target) <= 1e-12 * _term_scale(target, *terms)
