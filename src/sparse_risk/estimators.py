"""Least squares, the SCAD solver, thresholding rules, and subset selection.

SCAD is fitted by coordinate descent, which minimizes

    0.5 * sum_t (y_t - x_t' theta)**2 + n * sum_i penalty(|theta_i|)

and produces exact zeros through the exact scalar minimizer. Each estimator
rule has one batched kernel (leading axis = problem), which the Monte Carlo
engine runs on blocks of replications and the public ``fit_*`` functions on a
batch of one, at the engine's settings. A public fit returns that batch's one
row: theta as a (k,) array, with exact zeros where the rule drops a
coefficient. SCAD's public fit is ``tuning.gcv_select``; over a one-point
grid it is the fit at that lambda.

All-subsets BIC screens every subset by a depth-first walk of the subset tree
that reads each child's RSS off its parent's swept augmented Gram matrix
(Furnival 1971) and sweeps a child only when it descends into it. It scores
the RSS rows as the walk hands them over and keeps only the near-best
subsets, so it holds no score table over all 2**k subsets, and refits
exactly only those (all of them where a pivot of the walk lost precision), so
its result is bit for bit that of one masked solve per subset.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .penalties import SCAD_A, _penalty_raw, scad_univariate_min_weighted
# Not called here: perfbench/tracer.install wraps it as an attribute of estimators.
from .penalties import _derivative_raw  # noqa: F401

ZERO_TOL = 1e-8
# The engine's fixed settings, which the public fits use too: a SCAD fit
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

def _checked_gram(X: np.ndarray, y: np.ndarray):
    """X'X, X'y and y'y of one problem as a batch of one, checked finite and
    of full rank."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be n-by-k and y length n")
    G, b, yty = X.T @ X, X.T @ y, float(y @ y)
    # a NaN or infinity in X or y reaches G, b or y'y
    if not (np.isfinite(G).all() and np.isfinite(b).all() and np.isfinite(yty)):
        raise ValueError("X and y must hold finite values")
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


# Problems per ``_piece_step`` call: its gathered Gram matrices (128 KB at
# k = 8) and its (k, problems) temporaries (about 0.3 MB) stay in a core's
# L2 cache and off the lambda path's peak.
_PIECE_BLOCK = 256


def _scad_piece(theta, lam):
    """Signed SCAD region of each coordinate: 0 at zero, then +-1 on the
    linear (|theta| <= lam), +-2 on the concave (<= a*lam) and +-3 on the
    flat part, with the sign of theta."""
    mag = np.abs(theta)
    return np.sign(theta) * (1 + (mag > lam) + (mag > SCAD_A * lam))


def _piece_step(cols, th, start, gth, G, rep, b, gjj, lam, n):
    """One step within its quadratic SCAD piece for each problem ``cols``.

    Takes ``_cd_batch``'s coordinate-major working set: th, start (th before
    the last sweep) and gth = G th are (k, P), rep and lam are (P,). b and
    gjj = diag G are (k, B), one column per replication, and problem p reads
    their column rep[p] and the Gram matrix G[:, :, rep[p]] of the (k, k, B)
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
    th, gth = (np.take(x, cols, axis=1) for x in (th, gth))
    moved = th - np.take(start, cols, axis=1)
    lam = lam[cols]
    rep = rep[cols]
    b, gjj = (np.take(x, rep, axis=1) for x in (b, gjj))
    k = th.shape[0]
    mag = np.abs(th)
    sgn = np.sign(th)
    a_lam = SCAD_A * lam
    act = mag > 0.0
    lin = act & (mag <= lam)
    mid = (mag > lam) & (mag <= a_lam)
    c = n / (SCAD_A - 1.0)
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
            _penalty_raw(np.abs(new), lam) - _penalty_raw(mag, lam))
        rise = change[0]
        for j in range(1, k):
            rise = rise + change[j]
        keep = ok & (rise <= 0.0)
    return np.where(keep, new, th), np.where(keep, gth + gd, gth)


def _cd_batch(G, b, n, lam, tol, max_iter, theta=None):
    """SCAD at the shape ``SCAD_A`` by cyclic coordinate descent with the exact
    weighted scalar minimizer, finished by steps within each problem's
    quadratic SCAD piece.

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

    The working set is coordinate-major, problems on the last axis, and
    holds only per-fit state: theta and G theta are (k, P), as is theta's
    copy at the start of a sweep, which the piece steps read; lambda, the
    replication index and the held flag are (P,). So it grows as P * k,
    not P * k**2. What belongs to a replication is held once for all its
    fits: the Gram matrices as (k_j, k_i, B), and b, diag G and n / diag G
    as (k, B). A coordinate update gathers what it reads of them for the
    live problems by ``np.take``, which keeps the gathered rows contiguous,
    and updates G theta in place. Each sweep compares the SCAD pieces one
    coordinate at a time, as (P,) vectors. A problem's theta is written to
    the (P, k) result once, when it converges or its sweeps run out.
    Dropping converged problems uses ``np.compress`` for the same reason as
    ``np.take`` (a boolean index on the last axis would put the problem axis
    outermost in memory). The inputs are never written to.
    """
    B, k = b.shape
    lam = lam.reshape(-1)
    P = lam.size
    if theta is None:
        theta = solve_vec(G, b)
    rep = np.repeat(np.arange(B), P // B)
    gth = np.einsum("pij,pj->pi", G, theta)
    G_c = np.ascontiguousarray(G.transpose(2, 1, 0))
    b_c = np.ascontiguousarray(b.T)
    gjj = np.ascontiguousarray(np.diagonal(G, axis1=1, axis2=2).T)
    weight = n / gjj
    out = np.empty((P, k))
    iterations = np.full(P, max(max_iter, 0), dtype=np.int64)
    converged = np.zeros(P, dtype=bool)
    # held: the problem's previous sweep left its piece unchanged
    work = (np.arange(P), np.take(theta.T, rep, axis=1), np.take(gth.T, rep, axis=1),
            rep, lam, np.zeros(P, dtype=bool))

    for sweep in range(1, max_iter + 1):
        live, th, gth, rep_l, lam_l, held = work
        if live.size == 0:
            break
        start = th.copy()
        sweep_step = np.zeros(live.size)
        kept = np.ones(live.size, dtype=bool)
        for j in range(k):
            u = (np.take(b_c[j], rep_l) - gth[j]) / np.take(gjj[j], rep_l) + th[j]
            delta = scad_univariate_min_weighted(u, lam_l, np.take(weight[j], rep_l)) - th[j]
            row = np.take(G_c[j], rep_l, axis=1)
            row *= delta
            gth += row
            del row  # not alive during the next minimizer call or piece step
            piece = _scad_piece(th[j], lam_l)
            th[j] += delta
            kept &= _scad_piece(th[j], lam_l) == piece
            np.maximum(sweep_step, np.abs(delta), out=sweep_step)
        hit = sweep_step < tol
        trial = np.flatnonzero(kept & held & ~hit)
        held[...] = kept
        for c in range(0, trial.size, _PIECE_BLOCK):
            i = trial[c : c + _PIECE_BLOCK]
            th[:, i], gth[:, i] = _piece_step(i, th, start, gth, G_c, rep_l, b_c, gjj, lam_l, n)
        del start  # not alive while the working set is compacted
        if hit.any():
            done = live[hit]
            out[done] = th[:, hit].T
            iterations[done] = sweep
            converged[done] = True
            work = tuple(np.compress(~hit, x, axis=-1) for x in work)

    live, th = work[:2]
    out[live] = th.T
    out[np.abs(out) < ZERO_TOL] = 0.0
    return out, iterations, converged


def _gram_sigma(yty, b, theta_ls, n):
    """Unbiased error scale sqrt(RSS / (n - k)) with RSS = y'y - b'theta_ls."""
    rss = np.maximum(yty - np.einsum("ri,ri->r", b, theta_ls), 0.0)
    return np.sqrt(rss / (n - b.shape[-1]))


def _hard_threshold_batch(G, theta_ls, sig, n):
    """Zero theta_ls_j unless |theta_ls_j| > n**(1/2 - HARD_EXPONENT) * se_j."""
    B, k = theta_ls.shape
    eye = np.broadcast_to(np.eye(k), (B, k, k))
    ginv_diag = np.linalg.solve(G, eye)[:, np.arange(k), np.arange(k)]
    se = sig[:, None] * np.sqrt(ginv_diag)
    cut = n ** (0.5 - HARD_EXPONENT) * se
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


def fit_hard_threshold(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Componentwise hard thresholding of the least-squares fit; returns theta (k,).

    Coordinate j is zeroed iff |theta_ls_j| <= n**(1/2 - HARD_EXPONENT) * se_j,
    where se_j is the usual standard error from the full fit, with the error
    scale taken from the Gram statistics as in the engine. For a scalar
    intercept-only design this reduces to zeroing the sample mean when it does
    not exceed sigma_hat * n**(-HARD_EXPONENT).
    """
    G, b, yty = _checked_gram(X, y)
    n, k = X.shape
    if n <= k:
        raise ValueError("hard thresholding needs n > k for the error variance")
    theta_ls = solve_vec(G, b)
    sig = _gram_sigma(yty, b, theta_ls, n)
    return _hard_threshold_batch(G, theta_ls, sig, n)[0]


def hodges_scalar(ybar: float, n: int) -> float:
    """Sample mean thresholded to zero unless |ybar| strictly exceeds n**(-1/4)."""
    # NaN fails `n < 1` too, so a sign check alone lets it through
    if not (float(n).is_integer() and n >= 1):
        raise ValueError("n must be a positive integer")
    if not np.isfinite(ybar):
        raise ValueError("ybar must be finite")
    return float(_hodges_batch(float(ybar), n))


BIC_MAX_K = 20
# Problems are screened, and candidates refit, in blocks of at most this many
# floats of matrices: a screen block's (k + 1, k + 1) augmented roots, or a
# refit chunk's (k, k) systems.
_BIC_BLOCK_FLOATS = 2**18
# Screened BIC within this many multiples of n of a problem's minimum (a
# relative RSS gap of 1e-6) is refit exactly.
_BIC_RESCORE_MARGIN = 1e-6
# A pivot with 1 - R^2 below this costs about eps / (1 - R^2) of relative
# accuracy in every RSS the walk reads below it, so a problem that meets one
# has all of its subsets refit.
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


def _subset_rss_screen(G, b, yty, visit):
    """RSS of the least-squares fit on every subset, by a depth-first walk.

    The walk is Furnival's (1971, "All possible regressions with less
    computation", Technometrics 13): the children of a subset S are S + {j}
    for each coordinate j after max(S). A node holds the augmented matrix
    [[G, b], [b', y'y]] swept on S, coordinate-major, keeping only the
    coordinates after max(S) and the response. With d_j and c_j its pivot
    and response entries for j, the RSS of S + {j} is the corner minus
    c_j**2 / d_j, so the children cost no sweep. A child is swept, on a
    matrix that shrinks with depth, only when the walk pops it to descend
    into it: the stack holds its parent's matrix and its index, so a matrix
    lives until its last child is swept. Children are popped smallest first,
    so a parent is freed before its largest subtree is walked. One whose
    only child is the last coordinate is finished by its parent; nothing is
    swept out.

    The RSS rows go to a buffer of 4 (k + 1) rows. Each time it would
    overflow, and at the end, ``visit(masks, rss)`` receives the bitmasks
    (r,) of the subsets it holds and their (r, P) RSS rows, which it may
    overwrite but not keep; the empty subset (RSS y'y) comes first and every
    subset comes once. No (2**k, P) table exists. Returns each problem's
    smallest d_j / G_jj (1 - R^2 of j on S) over every (node, child) pair,
    which are all the pivots any RSS went through (0, negative or NaN where
    one was singular).
    """
    P, k = b.shape
    A = np.empty((k + 1, k + 1, P))
    A[:k, :k] = G.transpose(1, 2, 0)
    A[:k, k] = A[k, :k] = b.T
    A[k, k] = yty
    inv_diag = 1.0 / A.reshape(-1, P)[: k * (k + 2) : k + 2]
    bit = 1 << np.arange(k)
    rss = np.empty((4 * (k + 1), P))
    masks = np.empty(len(rss), dtype=np.int64)
    rss[0] = yty
    masks[0] = 0
    used = 1
    # row 0 holds the running minimum, the rows below one node's pivots
    ratio = np.empty((k + 2, P))
    ratio[0] = 1.0
    # (mask of S, first coordinate after max(S), the parent's matrix, the
    # index of S's coordinate in it); the root has no parent
    stack = [(0, 0, A, None)]
    while stack:
        mask, lo, A, i = stack.pop()
        if i is not None:
            r = A[i + 1 :, i]
            # r r' / d: einsum writes it without the buffers that a
            # broadcast product allocates, and with +0.0 where that product
            # is -0.0, which changes no entry of B unless A holds a -0.0
            B = np.einsum("ap,bp->abp", r, r / A[i, i])
            A = np.subtract(A[i + 1 :, i + 1 :], B, out=B)
            del r  # a view, which would keep the parent alive
        m = k - lo
        if used + m + 1 > len(rss):
            visit(masks[:used], rss[:used])
            used = 0
        d = A.reshape(-1, P)[: m * (m + 2) : m + 2]  # the diagonal, a view
        c = A[:m, m]
        out = rss[used : used + m]
        np.multiply(c, c, out=out)
        out /= d
        np.subtract(A[m, m], out, out=out)
        np.bitwise_or(bit[lo:], mask, out=masks[used : used + m])
        used += m
        np.multiply(d, inv_diag[lo:], out=ratio[1 : m + 1])
        rows = m + 1
        if m >= 2:
            # S + {k-2} has the one child S + {k-2, k-1}
            t = A[m - 1, m - 2] / d[m - 2]
            d1 = d[m - 1] - A[m - 1, m - 2] * t
            c1 = c[m - 1] - c[m - 2] * t
            c1 *= c1
            c1 /= d1
            np.subtract(out[m - 2], c1, out=rss[used])
            masks[used] = mask | bit[-2] | bit[-1]
            used += 1
            np.multiply(d1, inv_diag[-1], out=ratio[rows])
            rows += 1
        np.minimum.reduce(ratio[:rows], axis=0, out=ratio[0])
        # pushed largest first, so the small children are walked first
        for j in range(m - 2):
            stack.append((mask | bit[lo + j], lo + j + 1, A, j))
    visit(masks[:used], rss[:used])
    return ratio[0].copy()


def _refit_chunks(masks, rows, guarded, k, chunk):
    """(masks, problem rows) of the candidates to refit, ``chunk`` at a time:
    the given ones, then all 2**k subsets of each guarded problem, which are
    made one chunk at a time from a running index so that no array grows as
    2**k times the number of guarded problems."""
    for c0 in range(0, rows.size, chunk):
        yield masks[c0 : c0 + chunk], rows[c0 : c0 + chunk]
    total = guarded.size << k
    for c0 in range(0, total, chunk):
        at = np.arange(c0, min(c0 + chunk, total))
        yield at & (2**k - 1), guarded[at >> k]


def _bic_batch(G, b, yty, n):
    """Best zero pattern by BIC over all subsets, batched over problems.

    Residual sums of squares are floored at a small multiple of y'y so that
    interpolating fits compare by model size instead of rounding noise; ties
    resolve toward the sparser, lexicographically first pattern.

    A depth-first walk of the subset tree screens all 2**k subsets, with one
    partial sweep per subset that has children (``_subset_rss_screen``).
    Each buffer of screened RSS rows is scored as the walk hands it over,
    and only the subsets within ``_BIC_RESCORE_MARGIN * n`` of their
    problem's running minimum are kept, so memory holds the walk's matrices,
    its buffer and a few candidates per problem, never a (2**k, P) table.
    The kept subsets within the margin of the final minimum, and every
    subset of a problem where a pivot of the walk fell below
    ``_BIC_MIN_PIVOT``, are then refit by their own masked solves and
    rescored, in chunks of at most ``_BIC_BLOCK_FLOATS`` floats of systems
    that ``_refit_chunks`` makes one at a time, and the best refit is
    returned. The pick is the least (exact BIC, tie rank), whatever the
    order of the candidates, so each problem's theta is bit for bit that of
    solving every subset separately, and a singular subset raises
    ``LinAlgError`` from that solve.
    """
    P, k = b.shape
    if k > BIC_MAX_K:
        raise ValueError(f"all-subsets selection is limited to k <= {BIC_MAX_K}")
    bits, sizes, rank = _subset_order(k)
    logn = np.log(n)
    penalty = logn * sizes
    margin = _BIC_RESCORE_MARGIN * n
    floor = np.maximum(yty * 1e-12, 1e-300)
    best = np.full(P, np.inf)
    best_rank = np.zeros(P, dtype=np.int64)
    theta_out = np.zeros((P, k))
    block = max(1, _BIC_BLOCK_FLOATS // (k + 1) ** 2)
    chunk = max(1, _BIC_BLOCK_FLOATS // max(k, 1) ** 2)
    for lo in range(0, P, block):
        sl = slice(lo, lo + block)
        low = np.full(len(yty[sl]), np.inf)  # each problem's least BIC so far
        kept = []

        def score(masks, bic):
            np.maximum(bic, floor[sl], out=bic)
            bic /= n
            np.log(bic, out=bic)
            bic *= n
            bic += penalty[masks][:, None]
            np.minimum(low, bic.min(axis=0), out=low)  # NaN included
            # a 1-D nonzero: the 2-D one costs about ten times as much here
            near = np.flatnonzero(bic <= low + margin)
            at, rows = np.divmod(near, len(low))
            kept.append((masks[at], rows, bic.take(near)))

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            worst = _subset_rss_screen(G[sl], b[sl], yty[sl], score)
            cand_masks, cand_rows, cand_bic = (np.concatenate(x) for x in zip(*kept))
            guard = ~(worst >= _BIC_MIN_PIVOT)  # NaN included
            near = (cand_bic <= low[cand_rows] + margin) & ~guard[cand_rows]
        cand_masks, cand_rows = cand_masks[near], cand_rows[near] + lo
        guarded = np.flatnonzero(guard) + lo
        for cm, cand in _refit_chunks(cand_masks, cand_rows, guarded, k, chunk):
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
