"""Elementary-symmetric-function calculus on eigenvalue lists and symmetric
matrices: sigma_m, deleted functions sigma_m(lambda|i), Garding cone tests,
the Hessian quotient sigma_k/sigma_l, and its linearization coefficients.

Conventions: sigma_0 = 1 and sigma_{-1} = 0.  Deletion indices are 1-based,
matching the sigma_m(lambda|i) notation.  Eigenvalue output order is
descending; eigen_sym wraps LAPACK's symmetric eigensolver.

Every function takes a stack: eigenvalue lists of shape (..., n) and
matrices of shape (..., n, n), one result per list or matrix.  A 1-D list
or a single matrix is the stack of one and gives scalars where a stack
gives arrays.  The quotient index l and the deletion index i of
sigma_omit may be one integer or an integer array with one value per
list (broadcast to the stack's shape, lam.shape[:-1]).

sigma_m is computed by incremental one-variable-at-a-time expansion of
prod_i(1 + lambda_i t), which is free of the cancellation that plagues
Newton-Girard recurrences; identity tests demand 1e-12 relative agreement.
The expansion runs over all lists of a stack at once in the same operation
order as for one list, so a stack's results equal the per-list ones bit
for bit.

All functions are pure; nothing here holds mutable state.
"""

import math

import numpy as np

__all__ = [
    "AdmissibilityError",
    "sigma", "elementary_all", "omit_each", "sigma_omit", "sigma_omit2",
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
    if arr.ndim < 1 or arr.shape[-1] < 2:
        raise ValueError("eigenvalue lists must have length >= 2 along "
                         "the last axis")
    if not np.all(np.isfinite(arr)):
        raise ValueError("eigenvalue list has non-finite entries")
    return arr


def _check_indices(k, l, n):
    l_arr = np.asarray(l)
    if not (isinstance(k, (int, np.integer)) and l_arr.dtype.kind in "iu"):
        raise ValueError("quotient indices k, l must be integers")
    if not (k <= n and np.all((0 <= l_arr) & (l_arr < k))):
        raise ValueError(f"quotient indices must satisfy 0 <= l < k <= n, "
                         f"got k={k}, l={l}, n={n}")


def _per_list(e, m):
    """e[..., m] for one index m, or for one index per list."""
    m = np.asarray(m)
    if m.ndim == 0:
        return e[..., m]
    m = np.broadcast_to(m, e.shape[:-1])
    return np.take_along_axis(e, m[..., None], axis=-1)[..., 0]


def _expand(values, mmax):
    """sigma_0..sigma_mmax of each list of `values` (last axis) by
    incremental product expansion; shape values.shape[:-1] + (mmax+1,).

    Each factor updates e_j += v e_{j-1} for all j at once from the
    previous e, the result of the one-list loop over descending j."""
    e = np.zeros(values.shape[:-1] + (mmax + 1,))
    e[..., 0] = 1.0
    for i in range(values.shape[-1]):
        top = min(i + 1, mmax)
        e[..., 1:top + 1] += values[..., i, None] * e[..., :top]
    return e


def sigma(lam, m):
    """m-th elementary symmetric polynomial of `lam` (sigma_0 = 1)."""
    arr = _as_lam(lam)
    if not 0 <= m <= arr.shape[-1]:
        raise ValueError(f"order m={m} out of range for n={arr.shape[-1]}")
    return _expand(arr, m)[..., m][()]


def elementary_all(lam):
    """All values sigma_0..sigma_n of `lam`, of shape (..., n+1)."""
    arr = _as_lam(lam)
    return _expand(arr, arr.shape[-1])


def _omit_table(n):
    """Row i holds the positions of a length-n list other than i."""
    return np.array([[j for j in range(n) if j != i] for i in range(n)])


def omit_each(lam):
    """The n deleted lists lam|1, ..., lam|n of each list, of shape
    (..., n, n-1): entry [..., i-1, :] is lam with entry i removed."""
    arr = np.asarray(lam, dtype=float)
    return arr[..., _omit_table(arr.shape[-1])]


def sigma_omit(lam, m, i):
    """sigma_m(lambda|i): sigma_m with the i-th entry deleted (i is 1-based,
    one index or one per list)."""
    arr = _as_lam(lam)
    n = arr.shape[-1]
    if not np.all((1 <= np.asarray(i)) & (np.asarray(i) <= n)):
        raise ValueError(f"deletion index i={i} out of range for n={n}")
    if not 0 <= m <= n - 1:
        raise ValueError(f"order m={m} out of range for deleted length {n - 1}")
    keep = _omit_table(n)[np.asarray(i) - 1]
    rest = np.take_along_axis(
        arr, np.broadcast_to(keep, arr.shape[:-1] + (n - 1,)), axis=-1)
    return _expand(rest, m)[..., m][()]


def sigma_omit2(lam, m, i, j):
    """sigma_m(lambda|ij): sigma_m with entries i and j deleted (1-based)."""
    arr = _as_lam(lam)
    n = arr.shape[-1]
    if i == j:
        raise ValueError("deletion indices must be distinct")
    for idx in (i, j):
        if not 1 <= idx <= n:
            raise ValueError(f"deletion index {idx} out of range for n={n}")
    if not 0 <= m <= n - 2:
        raise ValueError(f"order m={m} out of range for deleted length {n - 2}")
    rest = np.delete(arr, [i - 1, j - 1], axis=-1)
    return _expand(rest, m)[..., m][()]


def _cone_expansion(lam, k):
    arr = _as_lam(lam)
    if not 1 <= k <= arr.shape[-1]:
        raise ValueError(f"cone order k={k} out of range for n={arr.shape[-1]}")
    return arr, _expand(arr, k)


def in_gamma_k(lam, k, eps=0.0):
    """True iff sigma_i(lam) > eps for all 1 <= i <= k (Garding cone);
    a bool for one list, a boolean array for a stack."""
    arr, e = _cone_expansion(lam, k)
    ok = np.all(e[..., 1:] > eps, axis=-1)
    return bool(ok) if arr.ndim == 1 else ok


def require_gamma_k(lam, k, eps=0.0):
    """Raise AdmissibilityError at the first sigma_i <= eps, i <= k, of
    the first list that leaves the cone; returns sigma_0..sigma_k."""
    _, e = _cone_expansion(lam, k)
    bad = ~(e[..., 1:] > eps)
    if bad.any():
        rows = bad.reshape(-1, k)
        r = int(np.argmax(rows.any(axis=1)))
        i = int(np.argmax(rows[r])) + 1
        raise AdmissibilityError(i, float(e.reshape(-1, k + 1)[r, i]))
    return e


def quotient(lam, k, l):
    """sigma_k(lam)/sigma_l(lam) for lam in Gamma_k (positive there)."""
    arr = _as_lam(lam)
    _check_indices(k, l, arr.shape[-1])
    e = require_gamma_k(arr, k)
    return (e[..., k] / _per_list(e, l))[()]


def _d_quotient(arr, e, k, l):
    """d_quotient from the lists and their cone expansion e (sigma_0..k)."""
    rest = _expand(omit_each(arr), k - 1)
    l_col = np.asarray(l)[..., None]
    skm1 = rest[..., k - 1]
    slm1 = np.where(l_col > 0, _per_list(rest, np.maximum(l_col - 1, 0)), 0.0)
    sk = e[..., k, None]
    sl = _per_list(e, l)[..., None]
    return (skm1 * sl - sk * slm1) / (sl * sl)


def d_quotient(lam, k, l):
    """Gradient of sigma_k/sigma_l in the eigenvalues.

    Component i is [sigma_{k-1}(lam|i) sigma_l - sigma_k sigma_{l-1}(lam|i)]
    / sigma_l^2, with sigma_{-1} = 0; strictly positive on Gamma_k.
    """
    arr = _as_lam(lam)
    _check_indices(k, l, arr.shape[-1])
    e = require_gamma_k(arr, k)
    return _d_quotient(arr, e, k, l)


def eigen_sym(A):
    """Spectral decomposition A = Q diag(lam) Q^T of a symmetric matrix.

    Returns (lam, Q) with lam sorted descending and Q orthonormal with
    eigenvectors as columns, from LAPACK's symmetric eigensolver
    (numpy.linalg.eigh).  A stack (..., n, n) gives (..., n) and
    (..., n, n).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] < 2:
        raise ValueError("expected a square matrix of dimension >= 2")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    scale = 1.0 + np.max(np.abs(A), axis=(-2, -1))
    asym = np.max(np.abs(A - np.swapaxes(A, -1, -2)), axis=(-2, -1))
    if np.any(asym > 1e-12 * scale):
        raise ValueError("matrix is not symmetric")
    lam, Q = np.linalg.eigh(A)
    return lam[..., ::-1], Q[..., ::-1]


def log_quotient_matrix(A, k, l, eps=0.0):
    """log(sigma_k/sigma_l)(lambda(A)) and its derivative matrix F.

    F^{ij} = d log(sigma_k/sigma_l) / d a_ij = Q diag(g) Q^T with
    g_i = d_quotient_i / quotient at lambda(A); symmetric positive
    definite on Gamma_k.  The spectral formula is used regardless of
    eigenvalue multiplicity (valid for symmetric spectral functions).
    The cone test demands sigma_i > max(eps, 0) for i <= k.  The log is
    the C library's, value by value: numpy's vectorized log rounds
    differently in the last bit on some CPUs.
    """
    lam, Q = eigen_sym(A)
    _check_indices(k, l, lam.shape[-1])
    e = require_gamma_k(lam, k, max(eps, 0.0))
    quo = e[..., k] / _per_list(e, l)
    g = _d_quotient(lam, e, k, l) / quo[..., None]
    F = (Q * g[..., None, :]) @ np.swapaxes(Q, -1, -2)
    F = 0.5 * (F + np.swapaxes(F, -1, -2))
    if quo.ndim == 0:
        return math.log(quo), F
    logs = np.array([math.log(q) for q in quo.ravel()]).reshape(quo.shape)
    return logs, F
