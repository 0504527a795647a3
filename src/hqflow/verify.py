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

`run_suite` returns per-property results keyed by name; `self_test`
reruns the suite against a sigma with a deliberate sign fault and
demands at least one failure, guarding the harness against vacuous
passes.  Identical seed and trial counts reproduce identical results.
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
    """Per-trial margin accumulator.

    kind "identity": pass at margin <= tol, worst is the maximum.
    kind "bound": pass at margin >= -tol, worst is the minimum.
    A nan margin fails the trial and poisons the worst value.
    """

    def __init__(self, kind, tol):
        self.kind = kind
        self.tol = tol
        self.passes = 0
        self.count = 0
        self._extreme = None
        self._nan = False

    def add(self, margin):
        margin = float(margin)
        self.count += 1
        if math.isnan(margin):
            self._nan = True
            return
        if self.kind == "identity":
            if margin <= self.tol:
                self.passes += 1
            better = self._extreme is None or margin > self._extreme
        else:
            if margin >= -self.tol:
                self.passes += 1
            better = self._extreme is None or margin < self._extreme
        if better:
            self._extreme = margin

    def add_many(self, margins):
        for m in np.asarray(margins, dtype=float).ravel():
            self.add(m)

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


def _abs_sigma(lam, m):
    """sigma_m(|lambda|): the absolute-value sum of the sigma_m terms."""
    if m == 0:
        return 1.0
    return symmfunc.sigma(np.abs(lam), m)


def _elem_deleted(calc, row, i):
    """elementary_all of row with the 0-based entry i removed, tolerant
    of the length-1 remainder at n = 2."""
    rest = np.delete(row, i)
    if rest.size >= 2:
        return calc.elementary_all(rest)
    return np.array([1.0, float(rest[0])])


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


def _conjugated(rng, lam):
    """Symmetric matrix with spectrum `lam`, random orthogonal frame."""
    q, _ = np.linalg.qr(rng.standard_normal((lam.size, lam.size)))
    A = (q * lam) @ q.T
    return 0.5 * (A + A.T)


def _prop_deletion_identity(rng, trials, calc):
    """sigma_m = sigma_m(lam|i) + lam_i sigma_{m-1}(lam|i) for every i."""
    tally = _Tally("identity", IDENTITY_RTOL)
    for n, count in _counts_by_n(trials).items():
        rows = rng.uniform(_BOX_LO, _BOX_HI, size=(count, n))
        ms = rng.integers(1, n + 1, size=count)
        for row, m in zip(rows, ms):
            m = int(m)
            full = calc.sigma(row, m)
            scale = max(1.0, _abs_sigma(row, m))
            worst = 0.0
            for i in range(n):
                e = _elem_deleted(calc, row, i)
                deleted = e[m] if m <= n - 1 else 0.0
                part = deleted + row[i] * e[m - 1]
                worst = max(worst, abs(full - part))
            tally.add(worst / scale)
    return tally


def _prop_weighted_deletion_sum(rng, trials, calc):
    """sum_i lam_i sigma_{m-1}(lam|i) = m sigma_m."""
    tally = _Tally("identity", IDENTITY_RTOL)
    for n, count in _counts_by_n(trials).items():
        rows = rng.uniform(_BOX_LO, _BOX_HI, size=(count, n))
        ms = rng.integers(1, n + 1, size=count)
        for row, m in zip(rows, ms):
            m = int(m)
            lhs = sum(row[i] * _elem_deleted(calc, row, i)[m - 1]
                      for i in range(n))
            rhs = m * calc.sigma(row, m)
            scale = max(1.0, m * _abs_sigma(row, m))
            tally.add(abs(lhs - rhs) / scale)
    return tally


def _prop_deletion_count_sum(rng, trials, calc):
    """sum_i sigma_m(lam|i) = (n - m) sigma_m."""
    tally = _Tally("identity", IDENTITY_RTOL)
    for n, count in _counts_by_n(trials).items():
        rows = rng.uniform(_BOX_LO, _BOX_HI, size=(count, n))
        ms = rng.integers(1, n, size=count)
        for row, m in zip(rows, ms):
            m = int(m)
            lhs = sum(_elem_deleted(calc, row, i)[m]
                      for i in range(n))
            rhs = (n - m) * calc.sigma(row, m)
            scale = max(1.0, (n - m) * _abs_sigma(row, m))
            tally.add(abs(lhs - rhs) / scale)
    return tally


def _prop_sigma_matches_enumeration(rng, trials, calc):
    """Fast product expansion agrees with literal subset enumeration."""
    tally = _Tally("identity", IDENTITY_RTOL)
    for n, count in _counts_by_n(trials).items():
        if count == 0:
            continue
        rows = rng.uniform(_BOX_LO, _BOX_HI, size=(count, n))
        fast = np.array([calc.elementary_all(row) for row in rows])
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
        for row in rows:
            d = np.array([calc.sigma_omit(row, k - 1, i)
                          for i in range(1, n + 1)])
            scale = max(1.0, float(np.max(np.abs(d))))
            slack = min(float(np.min(np.diff(d))), float(d[0]))
            tally.add(slack / scale)
    return tally


def _prop_sorted_product_bound(rng, trials, calc):
    """For lam in Gamma_k sorted descending, the k leading entries are
    positive and C(n,k) lam_1...lam_k dominates sigma_k."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n), _cone_rows(rng)):
        cnk = math.comb(n, k)
        for row in rows:
            pos = float(row[k - 1]) / max(1.0, abs(float(row[0])))
            prod = float(np.prod(row[:k]))
            sk = calc.sigma(row, k)
            scale = max(1.0, cnk * float(np.prod(np.abs(row[:k]))),
                        _abs_sigma(row, k))
            tally.add(min(pos, (cnk * prod - sk) / scale))
    return tally


def _prop_leading_entry_share(rng, trials, calc):
    """lam_1 sigma_{k-1}(lam|1) >= (k/n) sigma_k on sorted Gamma_k."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n), _cone_rows(rng)):
        for row in rows:
            lhs = float(row[0]) * calc.sigma_omit(row, k - 1, 1)
            rhs = (k / n) * calc.sigma(row, k)
            tally.add((lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return tally


def _prop_normalized_quotient_monotone(rng, trials, calc):
    """Normalized quotient means shrink as the index pair grows:
    [(s_k/C(n,k))/(s_l/C(n,l))]^(1/(k-l)) <= same at (r, s) whenever
    k > l, r > s, k >= r, l >= s, on Gamma_k."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n), _cone_rows(rng)):
        ls = rng.integers(0, k, size=rows.shape[0])
        rs = rng.integers(1, k + 1, size=rows.shape[0])
        for row, l, r in zip(rows, ls, rs):
            l, r = int(l), int(r)
            s = int(rng.integers(0, min(l, r - 1) + 1))
            e = calc.elementary_all(row)

            def mean(a, b):
                num = e[a] / math.comb(n, a)
                den = e[b] / math.comb(n, b)
                if num <= 0.0 or den <= 0.0:
                    return float("nan")
                return (num / den) ** (1.0 / (a - b))

            hi, lo = mean(r, s), mean(k, l)
            tally.add((hi - lo) / max(1.0, abs(hi), abs(lo)))
    return tally


def _prop_negative_entry_deletion(rng, trials, calc):
    """With the first entry negative, deleting it raises sigma_m for
    every m up to the cone order."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n - 1),
                              _cone_rows(rng, min_negative=True)):
        for row in rows:
            full = calc.elementary_all(row)
            part = _elem_deleted(calc, row, 0)
            slack = math.inf
            for m in range(1, k + 1):
                scale = max(1.0, _abs_sigma(row, m))
                slack = min(slack, (part[m] - full[m]) / scale)
            tally.add(slack)
    return tally


def _prop_negative_entry_gradient(rng, trials, calc):
    """With the first entry negative, the quotient gradient loads the
    first slot at least (n/k)((k-l)/(n-l))/(n-k+1) of its total."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n - 1),
                              _cone_rows(rng, min_negative=True)):
        ls = rng.integers(0, k, size=rows.shape[0])
        for row, l in zip(rows, ls):
            l = int(l)
            g = calc.d_quotient(row, k, l)
            rhs = (n / k) * ((k - l) / (n - l)) / (n - k + 1) * float(g.sum())
            lhs = float(g[0])
            tally.add((lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return tally


def _arrow_groups(rng, trials):
    return _groups(rng, trials, lambda n: (1, _ARROW_K_MAX[n]),
                   lambda n, k, c: oracle.sample_arrowhead_batch(n, k, rng, c))


def _arrow_derivatives(calc, A, k, l):
    """(dq/da_11, sum_i dq/da_ii) for q = sigma_k/sigma_l at an
    arrowhead matrix, through the spectral derivative formula."""
    lam, Q = np.linalg.eigh(A)
    g = calc.d_quotient(lam, k, l)
    return float(Q[0] ** 2 @ g), float(g.sum())


def _prop_arrowhead_gradient_share(rng, trials, calc):
    """At an arrowhead matrix with negative (1,1) entry the quotient
    derivative in that entry carries a definite share of the trace of
    derivatives."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, mats in _arrow_groups(rng, trials):
        ls = rng.integers(0, k, size=mats.shape[0])
        for A, l in zip(mats, ls):
            l = int(l)
            d11, total = _arrow_derivatives(calc, A, k, l)
            rhs = (n / k) * ((k - l) / (n - l)) / (n - k + 1) * total
            tally.add((d11 - rhs) / max(1.0, abs(d11), abs(rhs)))
    return tally


def _prop_arrowhead_trace_floor(rng, trials, calc):
    """The trace of quotient derivatives at an arrowhead matrix is at
    least ((k-l)/k)(1/C(n,l))(-a_11)^(k-l-1)."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, mats in _arrow_groups(rng, trials):
        ls = rng.integers(0, k, size=mats.shape[0])
        for A, l in zip(mats, ls):
            l = int(l)
            _, total = _arrow_derivatives(calc, A, k, l)
            floor = ((k - l) / k) / math.comb(n, l) * (-A[0, 0]) ** (k - l - 1)
            tally.add((total - floor) / max(1.0, total, floor))
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
        c0 = _pinch_c0(n)
        for row in rows:
            full = calc.elementary_all(row)
            part = _elem_deleted(calc, row, 0)
            slack = math.inf
            for m in range(1, k):
                scale = max(1.0, _abs_sigma(row, m))
                slack = min(slack, (part[m] - c0 * full[m]) / scale)
            tally.add(slack)
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
        for row, l in zip(rows, ls):
            l = int(l)
            g = calc.d_quotient(row, k, l)
            c1 = (n / k) * ((k - l) / (n - l)) * c0**2 / (n - k + 1)
            lhs, rhs = float(g[0]), c1 * float(g.sum())
            tally.add((lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return tally


def _prop_midpoint_concavity(rng, trials, calc):
    """log(sigma_k/sigma_l)(lambda(A)) is midpoint concave on the
    matrices with spectrum in Gamma_k (a convex set)."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(
            rng, trials, lambda n: (1, n),
            lambda n, k, c: oracle.sample_gamma_k_batch(n, k, rng, 2 * c)):
        ls = rng.integers(0, k, size=rows.shape[0] // 2)
        for p, l in enumerate(ls):
            l = int(l)
            A = _conjugated(rng, rows[2 * p])
            B = _conjugated(rng, rows[2 * p + 1])
            try:
                va = calc.log_quotient_matrix(A, k, l)[0]
                vb = calc.log_quotient_matrix(B, k, l)[0]
                vm = calc.log_quotient_matrix(0.5 * (A + B), k, l)[0]
            except symmfunc.AdmissibilityError:
                tally.add(float("nan"))
                continue
            slack = vm - 0.5 * (va + vb)
            tally.add(slack / max(1.0, abs(va), abs(vb), abs(vm)))
    return tally


def _prop_derivative_matrix_definite(rng, trials, calc):
    """The derivative matrix of the log quotient is positive definite
    at every admissible sample."""
    tally = _Tally("bound", BOUND_SLACK)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n), _cone_rows(rng)):
        ls = rng.integers(0, k, size=rows.shape[0])
        for row, l in zip(rows, ls):
            A = _conjugated(rng, row)
            _, F = calc.log_quotient_matrix(A, k, int(l))
            w = np.linalg.eigvalsh(F)
            tally.add(float(w[0]) / max(1.0, float(w[-1])))
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
    rounds = 0
    while len(out) < count:
        rows = oracle.sample_gamma_k_batch(n, k, rng, count)
        for row in rows:
            if oracle.in_gamma_brute(row - _FD_MARGIN, k):
                out.append(row)
        rounds += 1
        if rounds > 200:
            raise ValueError("sampling constraint too tight: "
                             f"interior n={n} k={k}")
    return np.array(out[:count])


def _prop_derivative_matrix_matches_fd(rng, trials, calc):
    """The spectral derivative matrix agrees entrywise with central
    finite differences of the log quotient."""
    tally = _Tally("identity", FD_TOL)
    for n, k, rows in _groups(rng, trials, lambda n: (1, n),
                              functools.partial(_interior_rows, rng), n_hi=4):
        ls = rng.integers(0, k, size=rows.shape[0])
        for row, l in zip(rows, ls):
            l = int(l)
            A = _conjugated(rng, row)
            try:
                fd = oracle.fij_fd(A, k, l)
            except ValueError:
                tally.add(float("nan"))
                continue
            _, F = calc.log_quotient_matrix(A, k, l)
            tally.add(float(np.max(np.abs(F - fd))))
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
        arr[0] = -arr[0]
        return arr

    def sigma(self, lam, m):
        return symmfunc.sigma(self._corrupt(lam), m)

    def elementary_all(self, lam):
        return symmfunc.elementary_all(self._corrupt(lam))

    sigma_omit = staticmethod(symmfunc.sigma_omit)
    d_quotient = staticmethod(symmfunc.d_quotient)
    quotient = staticmethod(symmfunc.quotient)
    log_quotient_matrix = staticmethod(symmfunc.log_quotient_matrix)


def self_test(seed=0, trials=200):
    """True when the suite catches a corrupted sigma implementation.

    Runs every property against _ShadowCalc; at least one must fail,
    otherwise the harness itself is vacuous.
    """
    results = run_suite(trials=trials, seed=seed, calc=_ShadowCalc())
    return any(not r.ok for r in results.values())
