"""Least squares, the SCAD solver, thresholding rules, and subset selection.

SCAD is fitted by coordinate descent, which minimizes

    0.5 * sum_t (y_t - x_t' theta)**2 + n * sum_i penalty(|theta_i|)

and produces exact zeros through the exact scalar minimizer. Each estimator
rule has one batched kernel (leading axis = problem), which the Monte Carlo
engine runs on blocks of replications and the public ``fit_*`` functions on a
batch of one. A public fit returns that batch's one row: theta as a (k,)
array, with exact zeros where the rule drops a coefficient, and for SCAD also
its sweep count and converged flag.

All-subsets BIC screens every subset by a depth-first walk of the subset tree
that reads each child's RSS off its parent's swept augmented Gram matrix
(Furnival 1971), and refits exactly only the near-best subsets (all of them
where a pivot of the walk lost precision), so its result is bit for bit that
of one masked solve per subset.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .penalties import ScadParams, _penalty_raw, scad_univariate_min_weighted
# Not called here: perfbench/tracer.install wraps it as an attribute of estimators.
from .penalties import _derivative_raw  # noqa: F401

ZERO_TOL = 1e-8
# The engine's fixed settings, and the public fits' defaults: a SCAD fit
# stops once its max-norm step is below SOLVER_TOL or after SOLVER_MAX_ITER
# sweeps; hard thresholding zeroes a coefficient within
# n**(1/2 - HARD_EXPONENT) standard errors of zero.
SOLVER_TOL = 1e-8
SOLVER_MAX_ITER = 100
HARD_EXPONENT = 0.25


class SingularDesignError(ValueError):
    """Raised when the design matrix is rank deficient."""


# ---------------------------------------------------------------------------
# Gram-matrix plumbing shared by the public fits and the batched engine
# ---------------------------------------------------------------------------

def gram_bundle(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be n-by-k and y length n")
    return X.T @ X, X.T @ y, float(y @ y)


def _checked_gram(X: np.ndarray, y: np.ndarray):
    """``gram_bundle`` as a batch of one problem, after the full-rank check."""
    G, b, yty = gram_bundle(X, y)
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        raise SingularDesignError("design matrix is rank deficient")
    return G[None], b[None], np.array([yty])


def solve_vec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Batched linear solve with a stacked vector right-hand side."""
    return np.linalg.solve(A, v[..., None])[..., 0]


def _masked_ridge_matrix(G, act, ridge) -> np.ndarray:
    """Per-problem system with inactive rows replaced by the identity.

    ``G``: (P, k, k); ``act``: (P, k) bool; ``ridge``: (P, k) nonnegative,
    zero on inactive coordinates. Solving against ``b * act`` reproduces the
    reduced active-set system and returns exact zeros elsewhere.
    """
    outer = act[:, :, None] & act[:, None, :]
    M = np.where(outer, G, 0.0)
    k = G.shape[-1]
    idx = np.arange(k)
    M[:, idx, idx] += ridge + (~act)
    return M


# Problems per ``_piece_step`` call: its gathered Gram matrices, 256 KB at
# k = 8, stay in a core's L2 cache and off the lambda path's peak.
_PIECE_BLOCK = 512


def _scad_piece(theta, lam, a):
    """Signed SCAD region of each coordinate: 0 at zero, then +-1 on the
    linear (|theta| <= lam), +-2 on the concave (<= a*lam) and +-3 on the
    flat part, with the sign of theta."""
    mag = np.abs(theta)
    return np.sign(theta) * (1 + (mag > lam) + (mag > a * lam))


def _piece_step(cols, th, start, gth, G, rep, b, gjj, lam, a, n):
    """One step within its quadratic SCAD piece for each problem ``cols``.

    Takes ``_cd_batch``'s coordinate-major working set: th, start (th before
    the last sweep), gth = G th, b and gjj are (k, P), rep and lam are (P,),
    and problem p reads the Gram matrix G[:, :, rep[p]] of the (k, k, B)
    stack G. With its zero set, signs and regions held fixed, a problem's
    objective is the quadratic with Hessian H = G_AA - n/(a-1) D_mid,
    stationary where H theta_A = b_A - n lam s_lin - n a lam/(a-1) s_mid.
    Elimination without pivoting solves this and tests H for positive
    definiteness (every pivot positive). Where H is positive definite and
    the solution lies in the piece, the step goes to it; otherwise it goes
    along the sweep's displacement th - start to the first sign or region
    boundary. A step is kept only where the true objective does not rise.
    Returns the new th and gth of the problems ``cols``, (k, len(cols)).
    Every operation is elementwise over problems, so a problem's bits do not
    depend on its batch.

    Each problem's arrays are gathered once, by ``np.take``, which keeps
    them C-contiguous (an index array on the last axis would put the problem
    axis outermost in memory and make every row strided). H, the problems'
    Gram matrices gathered from G, is masked and eliminated in place; it is
    k * k floats per problem, so callers pass at most ``_PIECE_BLOCK``
    problems at a time. G th is updated from G's rows, one at a time.
    """
    th, gth, b, gjj = (np.take(x, cols, axis=1) for x in (th, gth, b, gjj))
    moved = th - np.take(start, cols, axis=1)
    lam = lam[cols]
    rep = rep[cols]
    k = th.shape[0]
    mag = np.abs(th)
    sgn = np.sign(th)
    a_lam = a * lam
    act = mag > 0.0
    lin = act & (mag <= lam)
    mid = (mag > lam) & (mag <= a_lam)
    c = n / (a - 1.0)
    H = np.take(G, rep, axis=2)
    np.copyto(H, 0.0, where=~(act & act[:, None]))
    diag = np.arange(k)
    H[diag, diag] = np.where(act, gjj - c * mid, 1.0)
    x = np.where(act, b - n * lam * sgn * lin - c * a_lam * sgn * mid, 0.0)
    pd = np.ones(th.shape[1], dtype=bool)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # row by row, so no temporary is the size of H
        for m in range(k):
            pd &= H[m, m] > 0.0
            low = H[m + 1:, m] / H[m, m]
            for r in range(m + 1, k):
                H[r, m + 1:] -= low[r - m - 1] * H[m, m + 1:]
            x[m + 1:] -= low * x[m]
        for m in range(k - 1, -1, -1):
            x[m] /= H[m, m]
            x[:m] -= H[:m, m] * x[m]
        del H
        x -= th  # now the step to the stationary point
        hi = np.where(lin, lam, np.where(mid, a_lam, np.inf))
        lo = np.where(lin, 0.0, np.where(mid, lam, a_lam))

        def reach(d):
            """The largest t that keeps every |theta_j + t d_j| in its region."""
            rate = sgn * d
            return np.where(rate > 0.0, (hi - mag) / rate,
                            np.where(rate < 0.0, (lo - mag) / rate, np.inf)).min(axis=0)

        inside = pd & (reach(x) >= 1.0)
        d = np.where(inside, x, moved)
        t = np.where(inside, 1.0, reach(d))
        ok = (t > 0.0) & np.isfinite(t)
        step = np.where(ok, t, 0.0) * d
        new = th + step
        gd = np.take(G[0], rep, axis=1) * step[0]
        for j in range(1, k):
            gd += np.take(G[j], rep, axis=1) * step[j]
        change = step * (gth - b + 0.5 * gd) + n * (
            _penalty_raw(np.abs(new), lam, a) - _penalty_raw(mag, lam, a))
        rise = change[0]
        for j in range(1, k):
            rise = rise + change[j]
        keep = ok & (rise <= 0.0)
    return np.where(keep, new, th), np.where(keep, gth + gd, gth)


def _cd_batch(G, b, n, lam, a, tol, max_iter, theta=None):
    """Cyclic coordinate descent with the exact weighted scalar minimizer,
    finished by steps within each problem's quadratic SCAD piece.

    ``G`` (B, k, k) and ``b`` (B, k) hold one Gram matrix per replication
    and ``lam`` its penalty levels, (B,) for one or (B, L) for L of them.
    Each of the P = B * L problems starts from its replication's row of
    ``theta`` (B, k), by default the least-squares solution. The results
    are flat and replication-major, as ``lam.reshape(-1)``: theta (P, k),
    iterations (P,) and converged (P,).

    Coordinates are visited in index order; each update solves
    the scalar problem for the partial residual with penalty weight
    n / G_jj, so the objective never increases within a sweep (Breheny and
    Huang 2011, Ann. Appl. Stat. 5). Plain CD converges only linearly. So
    after the second of two sweeps in a row that each left a problem's zero
    set, signs and SCAD regions unchanged, the problem takes one
    ``_piece_step``: to the stationary point of that quadratic piece where
    it is a minimum inside the piece, else along the sweep's displacement to
    the piece's boundary, and only if the objective does not rise. Stepping
    after a single such sweep, or to a stationary point clipped at the
    boundary, sends a few fits to another local minimum than plain CD
    reaches.

    The stopping rule is CD's own: a problem converges on a sweep whose
    max-norm step is below ``tol`` (no step follows it), so every converged
    fit is a point that one more sweep moves by less than ``tol``.
    ``max_iter`` counts sweeps. A converged problem leaves the working set,
    and every operation is elementwise over problems, so batch results
    match one-at-a-time runs.

    The working set is coordinate-major, problems on the last axis: theta,
    G theta, b, diag G and the weights are (k, P), and each problem carries
    only the index of its replication, so it grows as P * k, not P * k**2.
    The B Gram matrices are held once, as (k_j, k_i, B), and a coordinate
    update gathers its rows for the live problems by ``np.take``, which
    keeps them contiguous. Dropping converged problems uses ``np.compress``
    for the same reason (a boolean index on the last axis would put the
    problem axis outermost in memory). The inputs are never written to.
    """
    B, k = b.shape
    lam = lam.reshape(-1)
    P = lam.size
    if theta is None:
        theta = solve_vec(G, b)
    converged = np.zeros(P, dtype=bool)
    iterations = np.zeros(P, dtype=np.int64)
    rep = np.repeat(np.arange(B), P // B)
    gjj = np.diagonal(G, axis1=1, axis2=2)
    gth = np.einsum("pij,pj->pi", G, theta)
    theta, gth, gjj, b_t = (np.take(x.T, rep, axis=1) for x in (theta, gth, gjj, b))
    G_c = np.ascontiguousarray(G.transpose(2, 1, 0))
    # held: the problem's previous sweep left its piece unchanged
    work = (np.arange(P), theta.copy(), gth, rep, b_t, lam, gjj, n / gjj,
            np.zeros(P, dtype=bool))

    for sweep in range(1, max_iter + 1):
        live, th, gth, rep_l, b_l, lam_l, gjj, weight, held = work
        if live.size == 0:
            break
        start = th.copy()
        sweep_step = np.zeros(live.size)
        for j in range(k):
            u = (b_l[j] - gth[j]) / gjj[j] + th[j]
            delta = scad_univariate_min_weighted(u, lam_l, a, weight[j]) - th[j]
            gth += np.take(G_c[j], rep_l, axis=1) * delta
            th[j] += delta
            sweep_step = np.maximum(sweep_step, np.abs(delta))
        hit = sweep_step < tol
        kept = np.all(_scad_piece(th, lam_l, a) == _scad_piece(start, lam_l, a), axis=0)
        trial = np.flatnonzero(kept & held & ~hit)
        held[...] = kept
        for c in range(0, trial.size, _PIECE_BLOCK):
            i = trial[c : c + _PIECE_BLOCK]
            th[:, i], gth[:, i] = _piece_step(i, th, start, gth, G_c, rep_l, b_l, gjj, lam_l, a, n)
        theta[:, live] = th
        iterations[live] = sweep
        converged[live] = hit
        if hit.any():
            work = tuple(np.compress(~hit, x, axis=-1) for x in work)

    theta = theta.T.copy()
    small = np.abs(theta) < ZERO_TOL
    theta[small] = 0.0
    return theta, iterations, converged


def _gram_sigma(yty, b, theta_ls, n):
    """Unbiased error scale sqrt(RSS / (n - k)) with RSS = y'y - b'theta_ls."""
    rss = np.maximum(yty - np.einsum("ri,ri->r", b, theta_ls), 0.0)
    return np.sqrt(rss / (n - b.shape[-1]))


def _hard_threshold_batch(G, theta_ls, sig, n, exponent):
    """Zero theta_ls_j unless |theta_ls_j| > n**(1/2 - exponent) * se_j."""
    B, k = theta_ls.shape
    eye = np.broadcast_to(np.eye(k), (B, k, k))
    ginv_diag = np.linalg.solve(G, eye)[:, np.arange(k), np.arange(k)]
    se = sig[:, None] * np.sqrt(ginv_diag)
    cut = n ** (0.5 - exponent) * se
    return np.where(np.abs(theta_ls) > cut, theta_ls, 0.0)


def _hodges_batch(x, n):
    """``x`` kept where its magnitude strictly exceeds n**(-1/4), else zero."""
    return np.where(np.abs(x) > n ** (-0.25), x, 0.0)


# ---------------------------------------------------------------------------
# Public fitting operations
# ---------------------------------------------------------------------------

def fit_least_squares(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ordinary least squares via the normal equations; requires full column rank.
    Returns theta, (k,)."""
    G, b, _ = _checked_gram(X, y)
    return solve_vec(G, b)[0]


def fit_scad_cd(
    X: np.ndarray,
    y: np.ndarray,
    p: ScadParams,
    tol: float = SOLVER_TOL,
    max_iter: int = SOLVER_MAX_ITER,
) -> tuple[np.ndarray, np.int64, np.bool_]:
    """SCAD fit by cyclic coordinate descent on partial residuals. Returns theta
    (k,), the sweep count and the converged flag, which is false, not an
    error, where the fit stopped at ``max_iter``."""
    G, b, _ = _checked_gram(X, y)
    theta, iters, conv = _cd_batch(
        G, b, X.shape[0], np.array([p.lam]), p.a, tol, max_iter
    )
    return theta[0], iters[0], conv[0]


def fit_hard_threshold(
    X: np.ndarray, y: np.ndarray, exponent: float = HARD_EXPONENT
) -> np.ndarray:
    """Componentwise hard thresholding of the least-squares fit; returns theta (k,).

    Coordinate j is zeroed iff |theta_ls_j| <= n**(1/2 - exponent) * se_j,
    where se_j is the usual standard error from the full fit, with the error
    scale taken from the Gram statistics as in the engine. For a scalar
    intercept-only design this reduces to zeroing the sample mean when it does
    not exceed sigma_hat * n**(-exponent).
    """
    if not 0 < exponent < 0.5:
        raise ValueError("exponent must lie in (0, 1/2)")
    G, b, yty = _checked_gram(X, y)
    n, k = X.shape
    if n <= k:
        raise ValueError("hard thresholding needs n > k for the error variance")
    theta_ls = solve_vec(G, b)
    sig = _gram_sigma(yty, b, theta_ls, n)
    return _hard_threshold_batch(G, theta_ls, sig, n, exponent)[0]


def hodges_scalar(ybar: float, n: int) -> float:
    """Sample mean thresholded to zero unless |ybar| strictly exceeds n**(-1/4)."""
    if n < 1:
        raise ValueError("n must be positive")
    return float(_hodges_batch(float(ybar), n))


BIC_MAX_K = 20
# Problems are screened, and candidates refit, in blocks whose subset table
# holds at most this many entries, so memory does not grow as 2**k * R.
_BIC_TABLE_ENTRIES = 2**20
# Screened BIC within this many multiples of n of a problem's minimum (a
# relative RSS gap of 1e-6) is refit exactly.
_BIC_RESCORE_MARGIN = 1e-6
# A pivot with 1 - R^2 below this costs about eps / (1 - R^2) of relative
# accuracy in every table entry below it in the walk, so a problem that meets
# one has all of its subsets refit.
_BIC_MIN_PIVOT = 1e-8


@lru_cache(maxsize=8)
def _subset_order(k: int):
    """Subsets of k coordinates as bitmasks (bit i set = coordinate i active).

    Returns, indexed by mask, the active bits, the size and the rank in the
    tie order (by size, then lexicographically by the bit tuple).
    """
    masks = np.arange(2**k)
    bits = ((masks[:, None] >> np.arange(k)) & 1).astype(bool)
    sizes = bits.sum(axis=1)
    rank = np.empty(2**k, dtype=np.int64)
    rank[np.lexsort((*bits.T[::-1], sizes))] = masks
    return bits, sizes, rank


def _subset_rss_screen(G, b, yty):
    """RSS of the least-squares fit on every subset, by a depth-first walk.

    The walk is Furnival's (1971, "All possible regressions with less
    computation", Technometrics 13): the children of a subset S are S + {j}
    for each coordinate j after max(S). A node holds the augmented matrix
    [[G, b], [b', y'y]] swept on S, coordinate-major, keeping only the
    coordinates after max(S) and the response. With d_j and c_j its pivot
    and response entries for j, the RSS of S + {j} is the corner minus
    c_j**2 / d_j, so the children cost no sweep. A child is swept, on a
    matrix that shrinks with depth, only to descend into it, and one whose
    only child is the last coordinate is finished by its parent; nothing is
    swept out. Returns the (2**k, P) table by bitmask and each problem's
    smallest d_j / G_jj (1 - R^2 of j on S) over every (node, child) pair,
    which are all the pivots any entry went through (0, negative or NaN
    where one was singular).
    """
    P, k = b.shape
    A = np.empty((k + 1, k + 1, P))
    A[:k, :k] = G.transpose(1, 2, 0)
    A[:k, k] = A[k, :k] = b.T
    A[k, k] = yty
    inv_diag = 1.0 / A.reshape(-1, P)[: k * (k + 2) : k + 2]
    bit = 1 << np.arange(k)
    table = np.empty((2**k, P))
    table[0] = yty
    # row 0 holds the running minimum, the rows below one node's pivots
    ratio = np.empty((k + 2, P))
    ratio[0] = 1.0
    # (mask of S, first coordinate after max(S), its matrix); children are
    # pushed largest first, so the small ones are finished and freed first
    stack = [(0, 0, A)]
    while stack:
        mask, lo, A = stack.pop()
        m = k - lo
        d = A.reshape(-1, P)[: m * (m + 2) : m + 2]  # the diagonal, a view
        c = A[:m, m]
        rss = c * c
        rss /= d
        np.subtract(A[m, m], rss, out=rss)
        table[mask:][bit[lo:]] = rss  # mask + bit is mask | bit here
        np.multiply(d, inv_diag[lo:], out=ratio[1 : m + 1])
        rows = m + 1
        if m >= 2:
            # S + {k-2} has the one child S + {k-2, k-1}
            t = A[m - 1, m - 2] / d[m - 2]
            d1 = d[m - 1] - A[m - 1, m - 2] * t
            c1 = c[m - 1] - c[m - 2] * t
            c1 *= c1
            c1 /= d1
            np.subtract(rss[m - 2], c1, out=table[mask | bit[-2] | bit[-1]])
            np.multiply(d1, inv_diag[-1], out=ratio[rows])
            rows += 1
        np.minimum.reduce(ratio[:rows], axis=0, out=ratio[0])
        for i in range(m - 2):
            r = A[i + 1 :, i]
            B = r[:, None] * (r / d[i])
            np.subtract(A[i + 1 :, i + 1 :], B, out=B)
            stack.append((mask | bit[lo + i], lo + i + 1, B))
    return table, ratio[0].copy()


def _bic_batch(G, b, yty, n):
    """Best zero pattern by BIC over all subsets, batched over problems.

    Residual sums of squares are floored at a small multiple of y'y so that
    interpolating fits compare by model size instead of rounding noise; ties
    resolve toward the sparser, lexicographically first pattern.

    A depth-first walk of the subset tree screens all 2**k subsets, with one
    partial sweep per subset that has children (``_subset_rss_screen``).
    Every subset whose screened BIC lies within ``_BIC_RESCORE_MARGIN * n``
    of its problem's minimum, and every subset of a problem where a pivot of
    the walk fell below ``_BIC_MIN_PIVOT``, is then refit by its own masked
    solve and rescored, and the best refit is returned. Each problem's theta
    is therefore bit for bit that of solving every subset separately, and a
    singular subset raises ``LinAlgError`` from that solve.
    """
    P, k = b.shape
    if k > BIC_MAX_K:
        raise ValueError(f"all-subsets selection is limited to k <= {BIC_MAX_K}")
    bits, sizes, rank = _subset_order(k)
    logn = np.log(n)
    floor = np.maximum(yty * 1e-12, 1e-300)
    best = np.full(P, np.inf)
    best_rank = np.zeros(P, dtype=np.int64)
    theta_out = np.zeros((P, k))
    block = max(1, _BIC_TABLE_ENTRIES >> k)
    for lo in range(0, P, block):
        sl = slice(lo, lo + block)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            bic, worst = _subset_rss_screen(G[sl], b[sl], yty[sl])
            np.maximum(bic, floor[sl], out=bic)
            bic /= n
            np.log(bic, out=bic)
            bic *= n
            bic += (logn * sizes)[:, None]
            near = bic <= bic.min(axis=0) + _BIC_RESCORE_MARGIN * n
            near[:, ~(worst >= _BIC_MIN_PIVOT)] = True  # NaN included
        cand_masks, cand_rows = np.nonzero(near)
        cand_rows += lo
        for c0 in range(0, cand_rows.size, block):
            cm, cand = cand_masks[c0 : c0 + block], cand_rows[c0 : c0 + block]
            act = bits[cm]
            M = _masked_ridge_matrix(G[cand], act, np.zeros(act.shape))
            theta = solve_vec(M, b[cand] * act) * act
            theta[cm == 0] = 0.0  # +0.0 where b * 0 may give -0.0
            rss = yty[cand] - np.einsum("pi,pi->p", b[cand], theta)
            rss = np.maximum(rss, floor[cand])
            exact = n * np.log(rss / n) + logn * sizes[cm]
            # each problem's best candidate in this chunk, then against the
            # best of earlier chunks
            order = np.lexsort((rank[cm], exact, cand))
            first = np.ones(order.size, dtype=bool)
            first[1:] = cand[order[1:]] != cand[order[:-1]]
            win = order[first]
            rows = cand[win]
            better = (exact[win] < best[rows]) | (
                (exact[win] == best[rows]) & (rank[cm[win]] < best_rank[rows])
            )
            win, rows = win[better], rows[better]
            best[rows] = exact[win]
            best_rank[rows] = rank[cm[win]]
            theta_out[rows] = theta[win]
    return theta_out


def fit_bic_select(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All-subsets least squares selected by BIC, refit on the winning pattern.
    Returns theta (k,)."""
    G, b, yty = _checked_gram(X, y)
    return _bic_batch(G, b, yty, X.shape[0])[0]
