"""Randomized verification of the symmetric-function facts the flow
estimates rest on.

Each property draws seeded samples (rejection sampling through the
brute-force oracle module), evaluates both sides with the fast
elementary-symmetric calculus, and records one scaled margin per trial.
Identity properties report the largest scaled deviation and pass at
1e-12 relative (scaled by the absolute-value sum of the terms, which is
what roundoff is proportional to); bound properties report the smallest
scaled slack and pass at -1e-10.

The dimension cycles deterministically over 2..8 (3..8 where a
hypothesis needs a designated positive entry and a negative minimum at
once), with cone order, quotient indices, and deletion orders drawn per
trial; one generator, `_groups`, samples the trials of equal order in
one batch from the `oracle` samplers.  The arrowhead sampler skips the (n, k) pairs the box
distribution cannot reach (acceptance below 1e-3 for k = n-1 once
n >= 6); the inequalities themselves carry no such restriction.

Each batch is scored by array calls on the whole stack, in the RNG
stream order and with the arithmetic of scoring one trial at a time, so
the margins do not depend on the batching.  A trial whose sample leaves
the cone where the calculus needs it scores nan.

`run_suite` returns per-property results keyed by name; `self_test`
runs the properties one at a time against a sigma with a deliberate
sign fault and stops at the first one that flags it, guarding the
harness against vacuous passes.  Identical seed and trial counts
reproduce identical results.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import oracle, symmfunc
from .geometry import ArgumentError

__all__ = [
    "PropertyResult", "PROPERTIES", "run_suite", "self_test",
    "results_to_dict", "IDENTITY_RTOL", "BOUND_SLACK", "FD_TOL",
]

IDENTITY_RTOL = 1e-12
BOUND_SLACK = 1e-10
FD_TOL = 1e-5

_FD_MARGIN = 1e-2
_BOX_LO, _BOX_HI = -1.0, 3.0
_PINCH = (0.1, 0.1)

# Largest cone order the arrowhead box reaches per dimension.
_ARROW_K_MAX = {2: 1, 3: 2, 4: 3, 5: 4, 6: 4, 7: 5, 8: 5}


class _Tally:
    """Margin accumulator over batches of trials.

    kind "identity": pass at margin <= tol, worst is the maximum.
    kind "bound": pass at margin >= -tol, worst is the minimum.
    A nan margin fails the trial and poisons the worst value.  Among
    equal extremes the earliest trial's value is kept.
    """

    def __init__(self, kind, tol):
        self.kind = kind
        self.tol = tol
        self.passes = 0
        self.count = 0
        self._extreme = None
        self._nan = False

    def add_many(self, margins):
        margins = np.asarray(margins, dtype=float).ravel()
        self.count += margins.size
        nan = np.isnan(margins)
        self._nan = self._nan or bool(nan.any())
        valid = margins[~nan]
        if valid.size == 0:
            return
        if self.kind == "identity":
            self.passes += int(np.count_nonzero(valid <= self.tol))
            extreme = float(valid[np.argmax(valid)])
            better = self._extreme is None or extreme > self._extreme
        else:
            self.passes += int(np.count_nonzero(valid >= -self.tol))
            extreme = float(valid[np.argmin(valid)])
            better = self._extreme is None or extreme < self._extreme
        if better:
            self._extreme = extreme

    @property
    def worst(self):
        if self._nan or self._extreme is None:
            return float("nan")
        return self._extreme


@dataclass
class PropertyResult:
    name: str
    kind: str
    trials: int
    passes: int
    worst_margin: float
    tolerance: float

    @property
    def ok(self):
        return self.passes == self.trials

    @property
    def vacuous(self):
        return self.trials == 0


def results_to_dict(results):
    """JSON-ready mapping {name: {kind, trials, passes, ...}}."""
    out = {}
    for name, r in results.items():
        worst = None if math.isnan(r.worst_margin) else r.worst_margin
        out[name] = {"kind": r.kind, "trials": r.trials, "passes": r.passes,
                     "worst_margin": worst, "tolerance": r.tolerance,
                     "ok": r.ok, "vacuous": r.vacuous}
    return out


def _counts_by_n(trials, n_lo=2, n_hi=8):
    """Trial counts per dimension for the deterministic n cycle."""
    span = n_hi - n_lo + 1
    base, extra = divmod(trials, span)
    return {n_lo + i: base + (1 if i < extra else 0) for i in range(span)}


def _pick(table, idx):
    """table[r, idx[r]] for every row r."""
    return np.take_along_axis(table, idx[:, None], axis=1)[:, 0]


def _abs_elem(rows):
    """sigma_0..sigma_n of |lambda| per row: sigma_m(|lambda|) is the
    absolute-value sum of the sigma_m terms."""
    return symmfunc.elementary_all(np.abs(rows))


def _elem_deleted(calc, rest):
    """elementary_all of deleted lists (last axis), tolerant of the
    length-1 remainder at n = 2."""
    if rest.shape[-1] >= 2:
        return calc.elementary_all(rest)
    return np.stack([np.ones(rest.shape[:-1]), rest[..., 0]], axis=-1)


def _libm_pow(base, exponent):
    """base ** exponent value by value, through the C library's pow as
    for numpy scalars; numpy's vectorized power rounds differently in
    the last bit on some CPUs."""
    return np.array([b ** x for b, x in zip(base, exponent.tolist())])


def _max(*terms):
    """Elementwise max(terms[0], terms[1], ...), folded left to right."""
    return functools.reduce(np.maximum, terms)


def _groups(rng, trials, k_range, sample, n_lo=2, n_hi=8):
    """Yield (n, k, sample(n, k, count)) batches covering the trial budget.

    For each dimension of the cycle, cone orders are drawn per trial
    from k_range(n) = (k_lo, k_hi), and the trials of equal order are
    sampled in one batch.  The consumer's own draws fall between one
    batch and the next, which fixes the order of the RNG stream.
    """
    for n, count in _counts_by_n(trials, n_lo, n_hi).items():
        if count == 0:
            continue
        k_lo, k_hi = k_range(n)
        ks = rng.integers(k_lo, k_hi + 1, size=count)
        for k in range(k_lo, k_hi + 1):
            c = int(np.sum(ks == k))
            if c > 0:
                yield n, k, sample(n, k, c)


def _cone_rows(rng, **filters):
    """Sampler for _groups: eigenvalue lists from Gamma_k."""
    return lambda n, k, c: oracle.sample_gamma_k_batch(n, k, rng, c,
                                                       **filters)


def _conjugated(rng, lams):
    """Symmetric matrices with the spectra `lams` (one per row), each in
    its own random orthogonal frame.  The one (c, n, n) normal draw is
    the c per-matrix draws in stream order."""
    c, n = lams.shape
    q, _ = np.linalg.qr(rng.standard_normal((c, n, n)))
    A = (q * lams[:, None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _box_rows(rng, trials, m_lo, m_hi):
    """Yield (n, rows, ms): box rows and one order m in [m_lo, m_hi(n)]
    per row, for each dimension of the cycle."""
    for n, count in _counts_by_n(trials).items():
        rows = rng.uniform(_BOX_LO, _BOX_HI, size=(count, n))
        ms = rng.integers(m_lo, m_hi(n) + 1, size=count)
        if count > 0:
            yield n, rows, ms


def _prop_deletion_identity(rng, trials, calc):
    """sigma_m = sigma_m(lam|i) + lam_i sigma_{m-1}(lam|i) for every i."""
    tally = _Tally("identity", IDENTITY_RTOL)
    for n, rows, ms in _box_rows(rng, trials, 1, lambda n: n):
        full = _pick(calc.elementary_all(rows), ms)
        scale = np.maximum(1.0, _pick(_abs_elem(rows), ms))
        dele = _elem_deleted(calc, symmfunc.omit_each(rows))
        worst = np.zeros(rows.shape[0])
        for i in range(n):
            e = dele[:, i]
            deleted = np.where(ms <= n - 1, _pick(e, np.minimum(ms, n - 1)),
                               0.0)
            part = deleted + rows[:, i] * _pick(e, ms - 1)
            worst = np.maximum(worst, np.abs(full - part))
        tally.add_many(worst / scale)
    return tally


def _prop_weighted_deletion_sum(rng, trials, calc):
    """sum_i lam_i sigma_{m-1}(lam|i) = m sigma_m."""
    tally = _Tally("identity", IDENTITY_RTOL)
    for n, rows, ms in _box_rows(rng, trials, 1, lambda n: n):
        dele = _elem_deleted(calc, symmfunc.omit_each(rows))
        # Summed left to right like the one-trial sum; np.sum would pair
        # the terms for n = 8 and round differently.
        lhs = np.zeros(rows.shape[0])
        for i in range(n):
            lhs = lhs + rows[:, i] * _pick(dele[:, i], ms - 1)
        rhs = ms * _pick(calc.elementary_all(rows), ms)
        scale = np.maximum(1.0, ms * _pick(_abs_elem(rows), ms))
        tally.add_many(np.abs(lhs - rhs) / scale)
    return tally


def _prop_deletion_count_sum(rng, trials, calc):
    """sum_i sigma_m(lam|i) = (n - m) sigma_m."""
    tally = _Tally("identity", IDENTITY_RTOL)
    for n, rows, ms in _box_rows(rng, trials, 1, lambda n: n - 1):
        dele = _elem_deleted(calc, symmfunc.omit_each(rows))
        lhs = np.zeros(rows.shape[0])
        for i in range(n):
            lhs = lhs + _pick(dele[:, i], ms)
        rhs = (n - ms) * _pick(calc.elementary_all(rows), ms)
        scale = np.maximum(1.0, (n - ms) * _pick(_abs_elem(rows), ms))
        tally.add_many(np.abs(lhs - rhs) / scale)
    return tally


def _prop_sigma_matches_enumeration(rng, trials, calc):
    """Fast product expansion agrees with literal subset enumeration."""
    tally = _Tally("identity", IDENTITY_RTOL)
    for n, count in _counts_by_n(trials).items():
        if count == 0:
            continue
        rows = rng.uniform(_BOX_LO, _BOX_HI, size=(count, n))
        fast = calc.elementary_all(rows)
        margins = np.zeros(count)
        for m in range(1, n + 1):
            brute = oracle.sigma_brute_rows(rows, m)
            scale = np.maximum(1.0, oracle.sigma_brute_rows(np.abs(rows), m))
            margins = np.maximum(margins, np.abs(fast[:, m] - brute) / scale)
        tally.add_many(margins)
    return tally


def _prop_descending_minor_chain(rng, trials, calc):
    """For lam in Gamma_k sorted descending, the deleted functions
    sigma_{k-1}(lam|i) increase with the deletion index and the first
    one is positive."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n), _cone_rows(rng)):
        each = np.broadcast_to(rows[:, None, :], (rows.shape[0], n, n))
        d = calc.sigma_omit(each, k - 1, np.arange(1, n + 1))
        scale = np.maximum(1.0, np.max(np.abs(d), axis=1))
        slack = np.minimum(np.min(np.diff(d, axis=1), axis=1), d[:, 0])
        tally.add_many(slack / scale)
    return tally


def _prop_sorted_product_bound(rng, trials, calc):
    """For lam in Gamma_k sorted descending, the k leading entries are
    positive and C(n,k) lam_1...lam_k dominates sigma_k."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n), _cone_rows(rng)):
        cnk = math.comb(n, k)
        pos = rows[:, k - 1] / np.maximum(1.0, np.abs(rows[:, 0]))
        prod = np.prod(rows[:, :k], axis=1)
        sk = calc.sigma(rows, k)
        scale = _max(1.0, cnk * np.prod(np.abs(rows[:, :k]), axis=1),
                      _abs_elem(rows)[:, k])
        tally.add_many(np.minimum(pos, (cnk * prod - sk) / scale))
    return tally


def _prop_leading_entry_share(rng, trials, calc):
    """lam_1 sigma_{k-1}(lam|1) >= (k/n) sigma_k on sorted Gamma_k."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n), _cone_rows(rng)):
        lhs = rows[:, 0] * calc.sigma_omit(rows, k - 1, 1)
        rhs = (k / n) * calc.sigma(rows, k)
        tally.add_many((lhs - rhs) / _max(1.0, np.abs(lhs), np.abs(rhs)))
    return tally


def _prop_normalized_quotient_monotone(rng, trials, calc):
    """Normalized quotient means shrink as the index pair grows:
    [(s_k/C(n,k))/(s_l/C(n,l))]^(1/(k-l)) <= same at (r, s) whenever
    k > l, r > s, k >= r, l >= s, on Gamma_k."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n), _cone_rows(rng)):
        c = rows.shape[0]
        ls = rng.integers(0, k, size=c)
        rs = rng.integers(1, k + 1, size=c)
        ss = rng.integers(0, np.minimum(ls, rs - 1) + 1)
        e = calc.elementary_all(rows)
        comb = np.array([math.comb(n, a) for a in range(n + 1)], dtype=float)

        def mean(a, b):
            num = _pick(e, a) / comb[a]
            den = _pick(e, b) / comb[b]
            out = np.full(c, np.nan)
            ok = ~((num <= 0.0) | (den <= 0.0))
            out[ok] = _libm_pow(num[ok] / den[ok], 1.0 / (a - b)[ok])
            return out

        hi, lo = mean(rs, ss), mean(np.full(c, k), ls)
        tally.add_many((hi - lo) / _max(1.0, np.abs(hi), np.abs(lo)))
    return tally


def _deletion_slack(calc, rows, orders, weight):
    """Per row, the least over m in `orders` of
    (sigma_m(lam|1) - weight sigma_m) / max(1, sigma_m(|lam|))."""
    full = calc.elementary_all(rows)
    part = _elem_deleted(calc, rows[:, 1:])
    abs_e = _abs_elem(rows)
    slack = np.full(rows.shape[0], math.inf)
    for m in orders:
        scale = np.maximum(1.0, abs_e[:, m])
        slack = np.minimum(slack, (part[:, m] - weight * full[:, m]) / scale)
    return slack


def _prop_negative_entry_deletion(rng, trials, calc):
    """With the first entry negative, deleting it raises sigma_m for
    every m up to the cone order."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n - 1),
                              _cone_rows(rng, min_negative=True)):
        tally.add_many(_deletion_slack(calc, rows, range(1, k + 1), 1.0))
    return tally


def _prop_negative_entry_gradient(rng, trials, calc):
    """With the first entry negative, the quotient gradient loads the
    first slot at least (n/k)((k-l)/(n-l))/(n-k+1) of its total."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n - 1),
                              _cone_rows(rng, min_negative=True)):
        ls = rng.integers(0, k, size=rows.shape[0])
        g = calc.d_quotient(rows, k, ls)
        rhs = (n / k) * ((k - ls) / (n - ls)) / (n - k + 1) * g.sum(axis=1)
        lhs = g[:, 0]
        tally.add_many((lhs - rhs) / _max(1.0, np.abs(lhs), np.abs(rhs)))
    return tally


def _arrow_groups(rng, trials):
    return _groups(rng, trials, lambda n: (1, _ARROW_K_MAX[n]),
                   lambda n, k, c: oracle.sample_arrowhead_batch(n, k, rng, c))


def _arrow_derivatives(calc, mats, k, ls):
    """(dq/da_11, sum_i dq/da_ii) for q = sigma_k/sigma_l at each
    arrowhead matrix, through the spectral derivative formula."""
    lam, Q = np.linalg.eigh(mats)
    g = calc.d_quotient(lam, k, ls)
    d11 = ((Q[:, 0, :] ** 2)[:, None, :] @ g[:, :, None])[:, 0, 0]
    return d11, g.sum(axis=1)


def _prop_arrowhead_gradient_share(rng, trials, calc):
    """At an arrowhead matrix with negative (1,1) entry the quotient
    derivative in that entry carries a definite share of the trace of
    derivatives."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, mats in _arrow_groups(rng, trials):
        ls = rng.integers(0, k, size=mats.shape[0])
        d11, total = _arrow_derivatives(calc, mats, k, ls)
        rhs = (n / k) * ((k - ls) / (n - ls)) / (n - k + 1) * total
        tally.add_many((d11 - rhs) / _max(1.0, np.abs(d11), np.abs(rhs)))
    return tally


def _prop_arrowhead_trace_floor(rng, trials, calc):
    """The trace of quotient derivatives at an arrowhead matrix is at
    least ((k-l)/k)(1/C(n,l))(-a_11)^(k-l-1)."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, mats in _arrow_groups(rng, trials):
        ls = rng.integers(0, k, size=mats.shape[0])
        _, total = _arrow_derivatives(calc, mats, k, ls)
        comb = np.array([math.comb(n, l) for l in range(k)], dtype=float)
        floor = (((k - ls) / k) / comb[ls]
                 * _libm_pow(-mats[:, 0, 0], k - ls - 1))
        tally.add_many((total - floor) / _max(1.0, total, floor))
    return tally


def _pinch_c0(n):
    delta, eps = _PINCH
    return min(eps**2 * delta**2 / (2 * (n - 2) * (n - 1)),
               eps**2 * delta / (4 * (n - 1)))


def _prop_pinched_deletion(rng, trials, calc):
    """Under the two-sided pinch (designated positive entry, negative
    minimum), deleting the designated entry keeps a definite fraction
    c0 of sigma_m for m below the cone order."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (2, n - 1),
                              _cone_rows(rng, pinch=_PINCH), n_lo=3):
        tally.add_many(_deletion_slack(calc, rows, range(1, k),
                                       _pinch_c0(n)))
    return tally


def _prop_pinched_gradient(rng, trials, calc):
    """Under the two-sided pinch the quotient gradient loads the
    designated slot at least c1 = (n/k)((k-l)/(n-l)) c0^2/(n-k+1) of
    its total."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (2, n - 1),
                              _cone_rows(rng, pinch=_PINCH), n_lo=3):
        c0 = _pinch_c0(n)
        ls = rng.integers(0, k, size=rows.shape[0])
        g = calc.d_quotient(rows, k, ls)
        c1 = (n / k) * ((k - ls) / (n - ls)) * c0**2 / (n - k + 1)
        lhs, rhs = g[:, 0], c1 * g.sum(axis=1)
        tally.add_many((lhs - rhs) / _max(1.0, np.abs(lhs), np.abs(rhs)))
    return tally


def _log_quotients(calc, mats, k, ls, ok):
    """(value, F) of calc.log_quotient_matrix for the rows where `ok`;
    nan elsewhere."""
    vals = np.full(mats.shape[0], np.nan)
    F = np.full(mats.shape, np.nan)
    if ok.any():
        vals[ok], F[ok] = calc.log_quotient_matrix(mats[ok], k, ls[ok])
    return vals, F


def _prop_midpoint_concavity(rng, trials, calc):
    """log(sigma_k/sigma_l)(lambda(A)) is midpoint concave on the
    matrices with spectrum in Gamma_k (a convex set)."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(
            rng, trials, lambda n: (1, n),
            lambda n, k, c: oracle.sample_gamma_k_batch(n, k, rng, 2 * c)):
        ls = rng.integers(0, k, size=rows.shape[0] // 2)
        mats = _conjugated(rng, rows)
        A, B = mats[0::2], mats[1::2]
        trio = np.concatenate([A, B, 0.5 * (A + B)])
        # A trial whose pair or midpoint leaves the cone fails with nan.
        inside = symmfunc.in_gamma_k(symmfunc.eigen_sym(trio)[0], k)
        ok = np.tile(inside.reshape(3, -1).all(axis=0), 3)
        vals, _ = _log_quotients(calc, trio, k, np.tile(ls, 3), ok)
        va, vb, vm = vals.reshape(3, -1)
        slack = vm - 0.5 * (va + vb)
        scale = _max(1.0, np.abs(va), np.abs(vb), np.abs(vm))
        tally.add_many(slack / scale)
    return tally


def _prop_derivative_matrix_definite(rng, trials, calc):
    """The derivative matrix of the log quotient is positive definite
    at every admissible sample."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n), _cone_rows(rng)):
        ls = rng.integers(0, k, size=rows.shape[0])
        mats = _conjugated(rng, rows)
        _, F = calc.log_quotient_matrix(mats, k, ls)
        w = np.linalg.eigvalsh(F)
        tally.add_many(w[:, 0] / np.maximum(1.0, w[:, -1]))
    return tally


def _interior_rows(rng, n, k, count):
    """Cone samples keeping a fixed spectral margin to the cone edge.

    The finite-difference reference needs room around the sample: its
    stencil perturbs the matrix, and near the cone boundary the log
    quotient's curvature grows without bound, so a fixed-step central
    difference loses the comparison tolerance there.  Shifting every
    eigenvalue down by the margin and re-testing membership guarantees
    (via Weyl's inequality) that all stencil points stay admissible
    with curvature bounded in terms of the margin alone.
    """
    out = []
    have = 0
    rounds = 0
    while have < count:
        rows = oracle.sample_gamma_k_batch(n, k, rng, count)
        kept = rows[oracle._rows_in_gamma(rows - _FD_MARGIN, k)]
        out.append(kept)
        have += kept.shape[0]
        rounds += 1
        if rounds > 200:
            raise ValueError("sampling constraint too tight: "
                             f"interior n={n} k={k}")
    return np.concatenate(out)[:count]


def _prop_derivative_matrix_matches_fd(rng, trials, calc):
    """The spectral derivative matrix agrees entrywise with central
    finite differences of the log quotient."""
    tally = _Tally("identity", FD_TOL)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n),
                              functools.partial(_interior_rows, rng), n_hi=4):
        ls = rng.integers(0, k, size=rows.shape[0])
        mats = _conjugated(rng, rows)
        # A trial whose stencil cannot stay in the cone fails with nan.
        fd = np.full(mats.shape, np.nan)
        ok = np.ones(ls.size, dtype=bool)
        for p, (A, l) in enumerate(zip(mats, ls)):
            try:
                fd[p] = oracle.fij_fd(A, k, int(l))
            except ValueError:
                ok[p] = False
        _, F = _log_quotients(calc, mats, k, ls, ok)
        tally.add_many(np.max(np.abs(F - fd), axis=(1, 2)))
    return tally


PROPERTIES = {
    "deletion_identity": (_prop_deletion_identity, 10000),
    "weighted_deletion_sum": (_prop_weighted_deletion_sum, 10000),
    "deletion_count_sum": (_prop_deletion_count_sum, 10000),
    "sigma_matches_enumeration": (_prop_sigma_matches_enumeration, 10000),
    "descending_minor_chain": (_prop_descending_minor_chain, 10000),
    "sorted_product_bound": (_prop_sorted_product_bound, 10000),
    "leading_entry_share": (_prop_leading_entry_share, 10000),
    "normalized_quotient_monotone": (_prop_normalized_quotient_monotone,
                                     10000),
    "negative_entry_deletion": (_prop_negative_entry_deletion, 10000),
    "negative_entry_gradient": (_prop_negative_entry_gradient, 10000),
    "arrowhead_gradient_share": (_prop_arrowhead_gradient_share, 10000),
    "arrowhead_trace_floor": (_prop_arrowhead_trace_floor, 10000),
    "pinched_deletion": (_prop_pinched_deletion, 10000),
    "pinched_gradient": (_prop_pinched_gradient, 10000),
    "midpoint_concavity": (_prop_midpoint_concavity, 1000),
    "derivative_matrix_definite": (_prop_derivative_matrix_definite, 1000),
    "derivative_matrix_matches_fd": (_prop_derivative_matrix_matches_fd,
                                     1000),
}


def run_suite(trials=None, seed=0, names=None, calc=symmfunc):
    """Run the property suite; returns {name: PropertyResult}.

    trials overrides every property's default count (0 gives vacuous
    passes).  names restricts the run to a subset.  Each property gets
    an independent generator seeded by (seed, registry position), so a
    subset run reproduces the full run's numbers.
    """
    if names is not None:
        unknown = sorted(set(names) - set(PROPERTIES))
        if unknown:
            raise ArgumentError(
                "names", f"lists unknown properties: {', '.join(unknown)}")
    results = {}
    for idx, (name, (func, default_trials)) in enumerate(PROPERTIES.items()):
        if names is not None and name not in names:
            continue
        t = default_trials if trials is None else int(trials)
        if t < 0:
            raise ArgumentError("trials", f"must be nonnegative, got {t}")
        rng = np.random.default_rng([seed, idx])
        tally = func(rng, t, calc)
        results[name] = PropertyResult(name, tally.kind, tally.count,
                                       tally.passes, tally.worst, tally.tol)
    return results


class _ShadowCalc:
    """The fast calculus with a deliberate sign fault: sigma values see
    the first entry negated, deletions and derivatives stay honest.
    The suite must catch the contradiction."""

    @staticmethod
    def _corrupt(lam):
        arr = np.array(lam, dtype=float)
        arr[..., 0] = -arr[..., 0]
        return arr

    def sigma(self, lam, m):
        return symmfunc.sigma(self._corrupt(lam), m)

    def elementary_all(self, lam):
        return symmfunc.elementary_all(self._corrupt(lam))

    def __getattr__(self, name):
        # the honest rest, looked up on `symmfunc` at each call, so that
        # a wrapper put on the module later sees these calls too
        return getattr(symmfunc, name)


def self_test(seed=0, trials=200):
    """True when the suite catches a corrupted sigma implementation.

    Runs the properties against _ShadowCalc in registry order, each
    with the generator of a full run, and stops at the first one that
    fails; when none fails, the harness itself is vacuous.
    """
    calc = _ShadowCalc()
    for name in PROPERTIES:
        if not run_suite(trials=trials, seed=seed, names=[name],
                         calc=calc)[name].ok:
            return True
    return False
