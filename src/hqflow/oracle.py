"""Independent brute-force references for the symmetric-function calculus.

Deliberately slow and simple: sigma values come from literal subset
enumeration and derivative matrices from central finite differences of
eigenvalues obtained with numpy's eigvalsh.  Both this module and
`symmfunc` take eigenvalues from LAPACK's symmetric eigensolver; the
sigma values, cone tests and derivative matrices share no code with
`symmfunc`, so agreement between the two is a meaningful check.

Samplers draw eigenvalue lists uniformly from the box [-1, 3]^n and
keep those inside the Garding cone; the box is biased toward
admissibility while still producing sign-mixed spectra, which the cone
lemmas need.  Acceptance rates at k = n/2 run roughly 40-80% for the
plain cone test, 10-40% with a negative-entry filter, and a few percent
with the pinch filter; samplers give up after 1e6 rejections.  Each
chunk of candidates is drawn whole; both samplers test it in slices
sized from the shortfall and the acceptance seen so far (the arrowhead
sampler eigensolves each slice), and stop once they have kept enough.
Only the candidates they tested count as rejections.
"""

import functools
import itertools
import math

import numpy as np

__all__ = [
    "sigma_brute", "sigma_brute_rows", "in_gamma_brute",
    "log_quotient_brute", "fij_fd",
    "sample_gamma_k", "sample_gamma_k_batch",
    "sample_arrowhead", "sample_arrowhead_batch",
]

_MAX_N = 12
_MAX_REJECT = 10**6
_BOX_LO, _BOX_HI = -1.0, 3.0
# Fewest candidates of a chunk tested at once.
_SLICE_MIN = 64


def sigma_brute(lam, m):
    """m-th elementary symmetric polynomial by literal subset enumeration."""
    lam = tuple(float(v) for v in lam)
    n = len(lam)
    if n > _MAX_N:
        raise ValueError(f"brute-force sigma limited to n <= {_MAX_N}, got {n}")
    if not 0 <= m <= n:
        raise ValueError(f"order m={m} out of range for n={n}")
    total = 0.0
    for subset in itertools.combinations(lam, m):
        total += math.prod(subset)
    return total


@functools.lru_cache(maxsize=None)
def _subsets(n, m):
    """The (C(n, m), m) index array of itertools.combinations(range(n), m),
    built once per (n, m) and read-only."""
    idx = np.array(list(itertools.combinations(range(n), m)))
    idx.setflags(write=False)
    return idx


def sigma_brute_rows(rows, m):
    """sigma_m of each row of a 2-D array; the same enumeration as
    sigma_brute, vectorized across samples only."""
    rows = np.asarray(rows, dtype=float)
    n = rows.shape[1]
    if n > _MAX_N:
        raise ValueError(f"brute-force sigma limited to n <= {_MAX_N}, got {n}")
    if not 0 <= m <= n:
        raise ValueError(f"order m={m} out of range for n={n}")
    if m == 0:
        return np.ones(rows.shape[0])
    return rows[:, _subsets(n, m)].prod(axis=2).sum(axis=1)


def in_gamma_brute(lam, k):
    """Garding cone test using only brute-force sigma values."""
    return all(sigma_brute(lam, i) > 0.0 for i in range(1, k + 1))


def _log_quotient_eigs(lam, k, l):
    num = sigma_brute(lam, k)
    den = sigma_brute(lam, l)
    if num <= 0.0 or den <= 0.0:
        raise ValueError("matrix is not admissible for the quotient")
    return math.log(num / den)


def log_quotient_brute(A, k, l):
    """log(sigma_k/sigma_l)(lambda(A)) via numpy eigenvalues and brute sigma."""
    return _log_quotient_eigs(np.linalg.eigvalsh(np.asarray(A, dtype=float)),
                              k, l)


def _rows_in_gamma(rows, k):
    """Boolean mask of rows inside Gamma_k, by brute sigma."""
    ok = np.ones(rows.shape[0], dtype=bool)
    for i in range(1, k + 1):
        ok &= sigma_brute_rows(rows, i) > 0.0
    return ok


def fij_fd(A, k, l, h=1e-6, h_min=1e-12):
    """Central-difference derivative matrix of log(sigma_k/sigma_l).

    Off-diagonal entries perturb a_ij and a_ji by h/2 each (the two
    entries are treated as independent variables, so the symmetric
    perturbation advances the pair derivative by h); diagonal entries
    perturb by the full h.  If a perturbed matrix leaves Gamma_k the
    step is halved, down to h_min.

    A may also be an (m, n, n) stack with l one order per matrix (or
    one for all); the stencils of every matrix then share one
    eigensolve per halving round.  A single matrix whose base or
    stencil leaves the cone raises ValueError; in a stack, that
    matrix's F is all nan instead.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim == 3:
        return _fd_stack(A, k, np.broadcast_to(l, A.shape[:1]), h, h_min)[0]
    F, base_ok, held = _fd_stack(A[None], k, np.array([l]), h, h_min)
    if not base_ok[0]:
        raise ValueError("base matrix is not admissible")
    if not held[0]:
        raise ValueError("perturbation cannot stay in Gamma_k above "
                         f"h_min={h_min}")
    return F[0]


def _fd_stack(A, k, ls, h, h_min):
    """(F, base_ok, held) of fij_fd over a stack; F is nan for the
    matrices whose base is outside Gamma_k (base_ok False) or whose
    stencil cannot stay inside above h_min (held False)."""
    m, n, _ = A.shape
    base_ok = np.array([in_gamma_brute(lam, k)
                        for lam in np.linalg.eigvalsh(A)], dtype=bool)
    iu, ju = np.triu_indices(n)
    pairs = np.arange(iu.size)
    E = np.zeros((iu.size, n, n))
    E[pairs, iu, ju] = E[pairs, ju, iu] = np.where(iu == ju, 1.0, 0.5)
    step = np.full((m, iu.size), float(h))
    plus = np.zeros((m, iu.size))
    minus = np.zeros((m, iu.size))
    held = base_ok.copy()
    # the pending (matrix, entry) stencils
    mat, ent = np.nonzero(np.repeat(base_ok[:, None], iu.size, axis=1))
    while mat.size:
        # One stacked eigensolve and scoring for every pending entry's
        # +/- stencil; an entry fails when either side leaves the cone.
        shift = step[mat, ent][:, None, None] * E[ent]
        lam = np.linalg.eigvalsh(np.concatenate([A[mat] + shift,
                                                 A[mat] - shift]))
        num = sigma_brute_rows(lam, k).reshape(2, -1)
        den = np.empty(lam.shape[0])
        lrow = np.tile(ls[mat], 2)
        for lv in set(lrow.tolist()):
            sel = lrow == lv
            den[sel] = sigma_brute_rows(lam[sel], lv)
        den = den.reshape(2, -1)
        bad = ((num <= 0.0) | (den <= 0.0)).any(axis=0)
        ratio = (num[:, ~bad] / den[:, ~bad]).tolist()
        plus[mat[~bad], ent[~bad]] = [math.log(v) for v in ratio[0]]
        minus[mat[~bad], ent[~bad]] = [math.log(v) for v in ratio[1]]
        mat, ent = mat[bad], ent[bad]
        step[mat, ent] *= 0.5
        held[mat[step[mat, ent] < h_min]] = False
        mat, ent = mat[held[mat]], ent[held[mat]]
    F = np.zeros((m, n, n))
    F[:, iu, ju] = F[:, ju, iu] = (plus - minus) / (2.0 * step)
    F[~held] = np.nan
    return F, base_ok, held


def _apply_filters(rows, min_negative, pinch):
    """Constraint filters; returns the kept eigenvalue lists as rows.

    Default output order is descending.  With min_negative the order is
    ascending so the designated first entry is the negative one.  With
    pinch=(delta, eps) the output is (lam_1, rest descending) where
    lam_1 is the smallest positive entry satisfying the pinch
    inequalities against the remaining entries.  Each chunk is sorted
    once; the outputs are permutations of the input rows.
    """
    asc = np.sort(rows, axis=1)
    if min_negative:
        return asc[asc[:, 0] < 0.0]
    if pinch is None:
        return asc[:, ::-1]
    delta, eps = pinch
    n = asc.shape[1]
    # The largest entry other than entry j, for each ascending position j.
    rest_max = np.where(np.arange(n) == n - 1, asc[:, [n - 2]],
                        asc[:, [n - 1]])
    # The negative minimum stays in the rest of every positive entry.
    lowest = asc[:, [0]]
    fits = ((asc > 0.0) & (lowest < 0.0) & (asc >= delta * rest_max)
            & (-lowest >= eps * asc))
    hit = fits.any(axis=1)
    asc = asc[hit]
    j = np.argmax(fits[hit], axis=1)
    desc = np.arange(n)[::-1]
    rest = np.broadcast_to(desc, asc.shape)[desc != j[:, None]]
    order = np.concatenate([j[:, None], rest.reshape(-1, n - 1)], axis=1)
    return np.take_along_axis(asc, order, axis=1)


def sample_gamma_k(n, k, rng, min_negative=False, pinch=None):
    """One eigenvalue list from Gamma_k by rejection sampling.

    Entries are uniform in [-1, 3]; acceptance uses only brute-force
    sigma values.  `min_negative` additionally requires a negative
    minimum entry; `pinch`=(delta, eps) applies the two-sided pinch
    filter (needs a positive designated entry and a negative minimum).
    """
    return sample_gamma_k_batch(n, k, rng, 1,
                                min_negative=min_negative, pinch=pinch)[0]


def _sample_sliced(draw, keep, count, shape):
    """The first `count` candidates that `keep` passes, in drawn order.

    `draw()` returns one chunk of candidates of the given `shape`, drawn
    whole, so the RNG stream does not depend on how much of it is
    tested.  Each chunk is tested in slices until enough are kept; a
    slice holds twice the candidates the shortfall needs at the
    acceptance rate seen so far (twice the shortfall at first), and at
    least _SLICE_MIN.  Since `keep` judges each candidate on its own,
    the kept candidates are those a whole-chunk test keeps.
    """
    accepted = [np.empty((0, *shape))]
    have = 0
    rejected = 0
    while have < count:
        batch = draw()
        start = 0
        while start < batch.shape[0] and have < count:
            size = 2 * (count - have) * (have + rejected + 1) // (have + 1)
            part = batch[start:start + max(_SLICE_MIN, size)]
            start += part.shape[0]
            kept = keep(part)
            rejected += part.shape[0] - kept.shape[0]
            if rejected > _MAX_REJECT:
                raise ValueError("sampling constraint too tight: "
                                 f"{rejected} rejections without {count} "
                                 "accepts")
            accepted.append(kept)
            have += kept.shape[0]
    return np.concatenate(accepted)[:count]


def sample_gamma_k_batch(n, k, rng, count, min_negative=False, pinch=None,
                         chunk=512):
    """`count` eigenvalue lists from Gamma_k; see sample_gamma_k.

    Each chunk of box rows is tested in slices (see _sample_sliced),
    which keeps the rows a whole-chunk test keeps, since the cone test
    and the filters work row by row.
    """
    if n > _MAX_N:
        raise ValueError(f"sampling limited to n <= {_MAX_N}, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"cone order k={k} out of range for n={n}")
    return _sample_sliced(
        lambda: rng.uniform(_BOX_LO, _BOX_HI, size=(chunk, n)),
        lambda rows: _apply_filters(rows[_rows_in_gamma(rows, k)],
                                    min_negative, pinch),
        count, (n,))


def sample_arrowhead(n, k, rng):
    """Symmetric matrix with a negative (1,1) entry, an otherwise diagonal
    lower-right block, arbitrary first row, and spectrum in Gamma_k."""
    return sample_arrowhead_batch(n, k, rng, 1)[0]


def sample_arrowhead_batch(n, k, rng, count, chunk=512):
    """`count` arrowhead matrices; see sample_arrowhead.

    The lower-right diagonal is uniform in [0, 3], the (1,1) entry in
    [-1, -0.05] and the wings in [-1, 1]; acceptance tests numpy's
    eigenvalues with brute-force sigma values.  Each chunk is tested in
    slices (see _sample_sliced), which keeps the matrices a whole-chunk
    test keeps, since eigvalsh works matrix by matrix.
    """
    if n > _MAX_N:
        raise ValueError(f"sampling limited to n <= {_MAX_N}, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"cone order k={k} out of range for n={n}")
    idx = np.arange(1, n)

    def draw():
        A = np.zeros((chunk, n, n))
        A[:, idx, idx] = rng.uniform(0.0, 3.0, (chunk, n - 1))
        A[:, 0, 0] = -rng.uniform(0.05, 1.0, chunk)
        wings = rng.uniform(-1.0, 1.0, (chunk, n - 1))
        A[:, 0, 1:] = wings
        A[:, 1:, 0] = wings
        return A

    return _sample_sliced(
        draw, lambda A: A[_rows_in_gamma(np.linalg.eigvalsh(A), k)],
        count, (n, n))
