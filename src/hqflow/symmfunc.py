"""Elementary-symmetric-function calculus on eigenvalue lists and symmetric
matrices: sigma_m, deleted functions sigma_m(lambda|i), Garding cone tests,
the Hessian quotient sigma_k/sigma_l, and its linearization coefficients.

Conventions: sigma_0 = 1 and sigma_{-1} = 0.  Deletion indices are 1-based,
matching the sigma_m(lambda|i) notation.  Eigenvalue output order is
descending; eigen_sym wraps LAPACK's symmetric eigensolver.

sigma_m is computed by incremental one-variable-at-a-time expansion of
prod_i(1 + lambda_i t), which is free of the cancellation that plagues
Newton-Girard recurrences; identity tests demand 1e-12 relative agreement.

All functions are pure; nothing here holds mutable state.
"""

import math

import numpy as np

__all__ = [
    "AdmissibilityError",
    "sigma", "elementary_all", "sigma_omit", "sigma_omit2",
    "in_gamma_k", "require_gamma_k",
    "quotient", "d_quotient", "eigen_sym", "log_quotient_matrix",
]


class AdmissibilityError(ValueError):
    """Eigenvalues left the Garding cone Gamma_k.

    Carries the first failing order `m` and the value sigma_m that was
    not positive (within the requested slack).
    """

    def __init__(self, m, value, node=None):
        msg = f"not in Gamma_k: sigma_{m} = {value:.6g} <= 0"
        if node is not None:
            msg += f" at node {tuple(node)}"
        super().__init__(msg)
        self.m = m
        self.value = value
        self.node = node


def _as_lam(lam):
    arr = np.asarray(lam, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("eigenvalue list must be 1-D with length >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("eigenvalue list has non-finite entries")
    return arr


def _check_indices(k, l, n):
    if not (isinstance(k, (int, np.integer)) and isinstance(l, (int, np.integer))):
        raise ValueError("quotient indices k, l must be integers")
    if not 0 <= l < k <= n:
        raise ValueError(f"quotient indices must satisfy 0 <= l < k <= n, "
                         f"got k={k}, l={l}, n={n}")


def _expand(values, mmax):
    """sigma_0..sigma_mmax of `values` by incremental product expansion."""
    e = [0.0] * (mmax + 1)
    e[0] = 1.0
    for i, v in enumerate(values):
        top = min(i + 1, mmax)
        for j in range(top, 0, -1):
            e[j] += v * e[j - 1]
    return e


def sigma(lam, m):
    """m-th elementary symmetric polynomial of `lam` (sigma_0 = 1)."""
    arr = _as_lam(lam)
    if not 0 <= m <= arr.size:
        raise ValueError(f"order m={m} out of range for n={arr.size}")
    return _expand(arr, m)[m]


def elementary_all(lam):
    """All values sigma_0..sigma_n of `lam` as an array of length n+1."""
    arr = _as_lam(lam)
    return np.array(_expand(arr, arr.size))


def sigma_omit(lam, m, i):
    """sigma_m(lambda|i): sigma_m with the i-th entry deleted (i is 1-based)."""
    arr = _as_lam(lam)
    n = arr.size
    if not 1 <= i <= n:
        raise ValueError(f"deletion index i={i} out of range for n={n}")
    if not 0 <= m <= n - 1:
        raise ValueError(f"order m={m} out of range for deleted length {n - 1}")
    rest = np.delete(arr, i - 1)
    return _expand(rest, m)[m]


def sigma_omit2(lam, m, i, j):
    """sigma_m(lambda|ij): sigma_m with entries i and j deleted (1-based)."""
    arr = _as_lam(lam)
    n = arr.size
    if i == j:
        raise ValueError("deletion indices must be distinct")
    for idx in (i, j):
        if not 1 <= idx <= n:
            raise ValueError(f"deletion index {idx} out of range for n={n}")
    if not 0 <= m <= n - 2:
        raise ValueError(f"order m={m} out of range for deleted length {n - 2}")
    rest = np.delete(arr, [i - 1, j - 1])
    return _expand(rest, m)[m]


def in_gamma_k(lam, k, eps=0.0):
    """True iff sigma_i(lam) > eps for all 1 <= i <= k (Garding cone)."""
    arr = _as_lam(lam)
    if not 1 <= k <= arr.size:
        raise ValueError(f"cone order k={k} out of range for n={arr.size}")
    e = _expand(arr, k)
    return all(e[i] > eps for i in range(1, k + 1))


def require_gamma_k(lam, k, eps=0.0):
    """Raise AdmissibilityError at the first sigma_i <= eps, i <= k."""
    arr = _as_lam(lam)
    if not 1 <= k <= arr.size:
        raise ValueError(f"cone order k={k} out of range for n={arr.size}")
    e = _expand(arr, k)
    for i in range(1, k + 1):
        if not e[i] > eps:
            raise AdmissibilityError(i, e[i])
    return e


def quotient(lam, k, l):
    """sigma_k(lam)/sigma_l(lam) for lam in Gamma_k (positive there)."""
    arr = _as_lam(lam)
    _check_indices(k, l, arr.size)
    e = require_gamma_k(arr, k)
    denom = 1.0 if l == 0 else _expand(arr, l)[l]
    return e[k] / denom


def d_quotient(lam, k, l):
    """Gradient of sigma_k/sigma_l in the eigenvalues.

    Component i is [sigma_{k-1}(lam|i) sigma_l - sigma_k sigma_{l-1}(lam|i)]
    / sigma_l^2, with sigma_{-1} = 0; strictly positive on Gamma_k.
    """
    arr = _as_lam(lam)
    n = arr.size
    _check_indices(k, l, n)
    require_gamma_k(arr, k)
    sk = sigma(arr, k)
    sl = 1.0 if l == 0 else sigma(arr, l)
    out = np.empty(n)
    for i in range(n):
        rest = np.delete(arr, i)
        e = _expand(rest, k - 1)
        skm1_i = e[k - 1]
        slm1_i = 0.0 if l == 0 else e[l - 1]
        out[i] = (skm1_i * sl - sk * slm1_i) / (sl * sl)
    return out


def eigen_sym(A):
    """Spectral decomposition A = Q diag(lam) Q^T of a symmetric matrix.

    Returns (lam, Q) with lam sorted descending and Q orthonormal with
    eigenvectors as columns, from LAPACK's symmetric eigensolver
    (numpy.linalg.eigh).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 2:
        raise ValueError("expected a square matrix of dimension >= 2")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    scale = 1.0 + np.max(np.abs(A))
    if np.max(np.abs(A - A.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    lam, Q = np.linalg.eigh(A)
    return lam[::-1], Q[:, ::-1]


def log_quotient_matrix(A, k, l, eps=0.0):
    """log(sigma_k/sigma_l)(lambda(A)) and its derivative matrix F.

    F^{ij} = d log(sigma_k/sigma_l) / d a_ij = Q diag(g) Q^T with
    g_i = d_quotient_i / quotient at lambda(A); symmetric positive
    definite on Gamma_k.  The spectral formula is used regardless of
    eigenvalue multiplicity (valid for symmetric spectral functions).
    """
    lam, Q = eigen_sym(A)
    _check_indices(k, l, lam.size)
    require_gamma_k(lam, k, eps)
    quo = quotient(lam, k, l)
    g = d_quotient(lam, k, l) / quo
    F = (Q * g) @ Q.T
    return math.log(quo), 0.5 * (F + F.T)
