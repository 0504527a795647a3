import numpy as np
import pytest

from hqflow import oracle, symmfunc as sf


class TestSigmaBrute:
    def test_full_product(self):
        assert oracle.sigma_brute((1.0, 2.0, 3.0), 3) == 6.0

    def test_count_of_pairs(self):
        assert oracle.sigma_brute((1.0, 1.0, 1.0, 1.0), 2) == 6.0

    def test_sigma_zero(self):
        assert oracle.sigma_brute((4.0, 5.0), 0) == 1.0

    def test_size_guard(self):
        with pytest.raises(ValueError, match="n <= 12"):
            oracle.sigma_brute(np.ones(13), 2)

    def test_rows_variant_matches_scalar(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(-1.0, 3.0, size=(40, 6))
        for m in range(7):
            batch = oracle.sigma_brute_rows(rows, m)
            for r, value in zip(rows, batch):
                assert value == pytest.approx(oracle.sigma_brute(r, m),
                                              rel=1e-13, abs=1e-13)


class TestFijFd:
    def test_identity_matrix(self):
        F = oracle.fij_fd(np.eye(2), 2, 0)
        assert F == pytest.approx(np.eye(2), abs=1e-8)

    def test_trace_case(self):
        F = oracle.fij_fd(np.diag([1.0, 2.0]), 1, 0)
        assert F == pytest.approx(np.eye(2) / 3.0, abs=1e-8)

    def test_inadmissible_base_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            oracle.fij_fd(np.diag([1.0, -2.0]), 2, 0)

    @staticmethod
    def _fd_one_entry_at_a_time(A, k, l, h=1e-6, h_min=1e-12):
        n = A.shape[0]
        F = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                E = np.zeros((n, n))
                if i == j:
                    E[i, i] = 1.0
                else:
                    E[i, j] = E[j, i] = 0.5
                step = h
                while True:
                    try:
                        plus = oracle.log_quotient_brute(A + step * E, k, l)
                        minus = oracle.log_quotient_brute(A - step * E, k, l)
                        break
                    except ValueError:
                        step *= 0.5
                        if step < h_min:
                            raise ValueError("cannot stay") from None
                F[i, j] = F[j, i] = (plus - minus) / (2.0 * step)
        return F

    def test_stacked_stencil_matches_the_entry_loop(self):
        rng = np.random.default_rng(21)
        cases = [(np.diag([1.0, 1.5e-7]), 2, 0),   # halves the a_22 step
                 (np.diag([2.0, 1.0, 3e-7]), 3, 1)]
        for n, k, l in [(2, 1, 0), (3, 2, 1), (4, 3, 0), (4, 4, 2)]:
            lam = oracle.sample_gamma_k(n, k, rng)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            A = (q * lam) @ q.T
            cases.append((0.5 * (A + A.T), k, l))
        for A, k, l in cases:
            assert np.array_equal(oracle.fij_fd(A, k, l),
                                  self._fd_one_entry_at_a_time(A, k, l))

    def test_step_floor_reached(self):
        with pytest.raises(ValueError, match="h_min"):
            oracle.fij_fd(np.diag([1.0, 1e-13]), 2, 0)


class TestSampling:
    def test_gamma_n_is_positive_cone(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            lam = oracle.sample_gamma_k(3, 3, rng)
            assert np.all(lam > 0.0)

    def test_min_negative_filter(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            lam = oracle.sample_gamma_k(3, 2, rng, min_negative=True)
            assert lam[0] < 0.0
            assert np.all(np.diff(lam) >= 0.0)
            assert sf.in_gamma_k(lam, 2)

    def test_boundary_spectrum_rejected(self):
        assert not oracle.in_gamma_brute((2.0, 2.0, -1.0), 2)

    def test_accepted_samples_pass_recheck(self):
        rng = np.random.default_rng(13)
        batch = oracle.sample_gamma_k_batch(5, 3, rng, 400)
        for lam in batch:
            assert sf.in_gamma_k(lam, 3)
            assert np.all(np.diff(lam) <= 0.0)

    def test_seeded_determinism(self):
        a = oracle.sample_gamma_k_batch(4, 2, np.random.default_rng(99), 50)
        b = oracle.sample_gamma_k_batch(4, 2, np.random.default_rng(99), 50)
        assert a.tobytes() == b.tobytes()

    def test_pinch_filter_hypotheses(self):
        rng = np.random.default_rng(14)
        delta, eps = 0.1, 0.1
        batch = oracle.sample_gamma_k_batch(4, 2, rng, 60,
                                            pinch=(delta, eps))
        for lam in batch:
            assert lam[0] > 0.0
            rest = lam[1:]
            assert np.all(np.diff(rest) <= 0.0)
            assert rest[-1] < 0.0
            assert lam[0] >= delta * rest[0]
            assert -rest[-1] >= eps * lam[0]

    def test_impossible_constraint_errors(self):
        rng = np.random.default_rng(15)
        # Gamma_n forces all entries positive, so a negative minimum
        # can never be accepted
        with pytest.raises(ValueError, match="too tight"):
            oracle.sample_gamma_k_batch(3, 3, rng, 1, min_negative=True,
                                        chunk=4096)

    def test_arrowhead_structure(self):
        rng = np.random.default_rng(16)
        singles = [oracle.sample_arrowhead(4, 2, rng) for _ in range(10)]
        batch = oracle.sample_arrowhead_batch(4, 2, rng, 40)
        assert batch.shape == (40, 4, 4)
        for A in [*singles, *batch]:
            assert A[0, 0] < 0.0
            assert A == pytest.approx(A.T)
            block = A[1:, 1:]
            assert np.count_nonzero(block - np.diag(np.diag(block))) == 0
            lam, _ = sf.eigen_sym(A)
            assert sf.in_gamma_k(lam, 2)


def _filters_one_by_one(rows, min_negative, pinch):
    """The per-row constraint filter loop the sampler once ran."""
    out = []
    for row in rows:
        if min_negative:
            lam = np.sort(row)
            if lam[0] >= 0.0:
                continue
            out.append(lam)
        elif pinch is not None:
            delta, eps = pinch
            chosen = None
            for i in np.argsort(row):
                first = row[i]
                if first <= 0.0:
                    continue
                rest = np.delete(row, i)
                if rest.min() >= 0.0:
                    break
                if first >= delta * rest.max() and -rest.min() >= eps * first:
                    chosen = np.concatenate(([first], np.sort(rest)[::-1]))
                    break
            if chosen is None:
                continue
            out.append(chosen)
        else:
            out.append(np.sort(row)[::-1])
    return np.array(out).reshape(-1, rows.shape[1])


_FILTERS = [(False, None), (True, None), (False, (0.1, 0.1)),
            (False, (0.5, 0.05)), (False, (0.01, 0.9)), (False, (1.5, 0.05))]


class TestApplyFilters:
    @pytest.mark.parametrize("min_negative,pinch", _FILTERS)
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_seeded_chunks_match_the_row_loop(self, n, min_negative, pinch):
        rng = np.random.default_rng(100 + n)
        for k in range(1, n + 1):
            rows = rng.uniform(-1.0, 3.0, size=(512, n))
            for chunk in (rows, rows[oracle._rows_in_gamma(rows, k)]):
                got = oracle._apply_filters(chunk, min_negative, pinch)
                want = _filters_one_by_one(chunk, min_negative, pinch)
                assert got.shape == want.shape
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("min_negative,pinch", _FILTERS)
    def test_hand_made_rows_match_the_row_loop(self, min_negative, pinch):
        rows = np.array([
            [0.0, 0.0, 0.0, 0.0],      # all zero
            [0.0, 1.0, 2.0, 3.0],      # zero minimum, nothing negative
            [-1.0, 0.0, 0.0, 2.0],     # zeros between the signs
            [-1.0, 0.0, 0.0, 0.0],     # zeros above a negative minimum
            [2.0, -0.5, 0.0, 2.0],     # tied largest entries
            [1.0, 1.0, 1.0, 1.0],      # all positive
            [-1.0, 30.0, 0.001, 0.002],  # no entry satisfies the pinch
            [-0.05, 3.0, 0.2, 0.3],    # negative part too small to pinch
            [-1.0, 0.5, 0.5, 0.5],     # tied pinch candidates
        ])
        got = oracle._apply_filters(rows, min_negative, pinch)
        want = _filters_one_by_one(rows, min_negative, pinch)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_rows_without_a_pinch_index_are_dropped(self):
        rows = np.array([[-1.0, 30.0, 0.001, 0.002], [0.0, 1.0, 2.0, 3.0]])
        assert oracle._apply_filters(rows, False, (0.1, 0.1)).shape == (0, 4)
