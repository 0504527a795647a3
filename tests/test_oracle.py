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
