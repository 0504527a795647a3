import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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


# Batched calculus: a stack of lists must give, list by list, exactly the
# numbers of the one-list expansion loop transcribed below.

def _expand_one(values, mmax):
    e = [0.0] * (mmax + 1)
    e[0] = 1.0
    for i, v in enumerate(values):
        for j in range(min(i + 1, mmax), 0, -1):
            e[j] += v * e[j - 1]
    return e


def _d_quotient_one(lam, k, l):
    e = _expand_one(lam, k)
    sk, sl = e[k], (1.0 if l == 0 else e[l])
    out = np.empty(lam.size)
    for i in range(lam.size):
        d = _expand_one(np.delete(lam, i), k - 1)
        slm1 = 0.0 if l == 0 else d[l - 1]
        out[i] = (d[k - 1] * sl - sk * slm1) / (sl * sl)
    return out


def _log_quotient_matrix_one(A, k, l):
    lam, Q = np.linalg.eigh(A)
    lam, Q = lam[::-1], Q[:, ::-1]
    e = _expand_one(lam, k)
    quo = e[k] / (1.0 if l == 0 else e[l])
    F = (Q * (_d_quotient_one(lam, k, l) / quo)) @ Q.T
    return math.log(quo), 0.5 * (F + F.T)


def _per_list(fn, stack, *indices, tail_dims=1):
    """fn(item, *index values) over the lists (or matrices) of a stack;
    each index is one integer or one per list."""
    batch = stack.shape[:stack.ndim - tail_dims]
    flat = stack.reshape((-1,) + stack.shape[len(batch):])
    idx = [np.broadcast_to(i, batch).ravel() for i in indices]
    out = [fn(item, *(int(v[p]) for v in idx)) for p, item in enumerate(flat)]
    return out, batch


def _ref_array(fn, stack, *indices, tail_dims=1):
    out, batch = _per_list(fn, stack, *indices, tail_dims=tail_dims)
    out = np.array(out)
    return out.reshape(batch + out.shape[1:])


_batch_shapes = st.sampled_from([(), (1,), (4,), (2, 3), (3, 1)])


def _index(draw, batch, lo, hi):
    """One index in [lo, hi], or an array of one per list."""
    if draw(st.booleans()):
        return draw(st.integers(lo, hi))
    return draw(hnp.arrays(np.int64, batch, elements=st.integers(lo, hi)))


@st.composite
def _stacks(draw):
    n = draw(st.integers(2, 8))
    shape = draw(_batch_shapes) + (n,)
    values = st.floats(-3.0, 3.0, allow_nan=False)
    return draw(hnp.arrays(np.float64, shape, elements=values))


@st.composite
def _cone_stacks(draw):
    """A stack of Gamma_k lists in sign-mixed order, with k and l."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n))
    batch = draw(_batch_shapes)
    l = _index(draw, batch, 0, k - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = int(np.prod(batch, dtype=int))
    rows = oracle.sample_gamma_k_batch(n, k, rng, count)
    rows = rng.permuted(rows, axis=1)
    return rows.reshape(batch + (n,)), k, l, rng


@settings(max_examples=150, deadline=None)
@given(_stacks(), st.data())
def test_stacked_sigma_tables_are_bitwise_per_list(lam, data):
    n = lam.shape[-1]
    m = data.draw(st.integers(0, n))
    i = _index(data.draw, lam.shape[:-1], 1, n)
    mo = data.draw(st.integers(0, n - 1))
    assert np.array_equal(sf.sigma(lam, m),
                          _ref_array(lambda r: _expand_one(r, m)[m], lam))
    assert np.array_equal(sf.elementary_all(lam),
                          _ref_array(lambda r: _expand_one(r, n), lam))
    assert np.array_equal(
        sf.sigma_omit(lam, mo, i),
        _ref_array(lambda r, i: _expand_one(np.delete(r, i - 1), mo)[mo],
                   lam, i))


@settings(max_examples=150, deadline=None)
@given(_cone_stacks())
def test_stacked_quotients_are_bitwise_per_list(case):
    lam, k, l, _ = case

    def quotient_one(r, l):
        e = _expand_one(r, k)
        return e[k] / (1.0 if l == 0 else e[l])

    assert np.array_equal(sf.quotient(lam, k, l),
                          _ref_array(quotient_one, lam, l))
    assert np.array_equal(
        sf.d_quotient(lam, k, l),
        _ref_array(lambda r, l: _d_quotient_one(r, k, l), lam, l))


@settings(max_examples=100, deadline=None)
@given(_cone_stacks())
def test_stacked_log_quotient_matrix_is_bitwise_per_matrix(case):
    lam, k, l, rng = case
    n = lam.shape[-1]
    q, _ = np.linalg.qr(rng.standard_normal(lam.shape + (n,)))
    A = (q * lam[..., None, :]) @ np.swapaxes(q, -1, -2)
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    flat = A.reshape(-1, n, n)
    assume(all(oracle.in_gamma_brute(np.linalg.eigvalsh(M), k)
                and sf.in_gamma_k(sf.eigen_sym(M)[0], k) for M in flat))
    vals, F = sf.log_quotient_matrix(A, k, l)
    refs, batch = _per_list(lambda M, l: _log_quotient_matrix_one(M, k, l),
                            A, l, tail_dims=2)
    assert np.array_equal(vals, np.array([r[0] for r in refs]).reshape(batch))
    assert np.array_equal(
        F, np.array([r[1] for r in refs]).reshape(batch + (n, n)))
    if not batch:
        assert type(vals) is float


class TestStackedAdmissibility:
    def test_one_list_outside_the_cone_raises(self):
        lam = (3.0, 1.0, -1.0)
        for call in (lambda: sf.quotient(lam, 2, 1),
                     lambda: sf.d_quotient(lam, 2, 0),
                     lambda: sf.log_quotient_matrix(np.diag(lam), 2, 1)):
            with pytest.raises(sf.AdmissibilityError) as err:
                call()
            assert err.value.m == 2
            assert err.value.value == pytest.approx(-1.0)

    def test_stack_reports_its_first_failing_list(self):
        stack = np.array([[1.0, 1.0, 1.0], [2.0, -3.0, 1.0],
                          [3.0, 1.0, -1.0]])
        with pytest.raises(sf.AdmissibilityError) as err:
            sf.require_gamma_k(stack, 2)
        assert (err.value.m, err.value.value) == (1, 0.0)
        with pytest.raises(sf.AdmissibilityError):
            sf.d_quotient(stack, 2, 1)

    def test_membership_of_a_stack(self):
        stack = np.array([[[1.0, 1.0, -0.1]], [[3.0, 1.0, -1.0]]])
        assert sf.in_gamma_k(stack, 2).tolist() == [[True], [False]]
        assert sf.in_gamma_k(stack[0, 0], 2) is True

    def test_per_list_indices_are_checked(self):
        lam = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        with pytest.raises(ValueError, match="0 <= l < k <= n"):
            sf.d_quotient(lam, 2, np.array([0, 2]))
        with pytest.raises(ValueError, match="must be integers"):
            sf.quotient(lam, 2, np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="out of range"):
            sf.sigma_omit(lam, 1, np.array([1, 4]))

    def test_omit_each_lists_every_deletion(self):
        lam = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = sf.omit_each(lam)
        assert out.shape == (2, 3, 2)
        assert out[1].tolist() == [[5.0, 6.0], [4.0, 6.0], [4.0, 5.0]]
