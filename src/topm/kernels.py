"""Numerical kernels shared by the numba and pure-numpy backends.

The ``@njit`` functions are written in numba-compatible numpy.  With the numba
backend active they are jitted; with ``TOPM_DISABLE_NUMBA=1`` the identical
source runs as plain numpy.  One source for both paths is what makes backend
equivalence a testable property rather than a hope.

One path is numpy only: ``simplex_l1_batch``, which ``simplex_l1_many`` (and
through it ``all_pair_designs`` and the fraction experiment) uses when numba
is off.  Un-jitted, a scalar simplex pivot is a Python loop of tiny row
operations, so interpreter dispatch, not arithmetic, sets its speed; the
batch solves many LPs in lockstep, one array operation per pivot step for all
of them.  The LPs may share X or each bring their own.  It repeats
``simplex_l1``'s arithmetic step for step, so both give the same bytes; the
tests hold it to the scalar solver.

Every design LP of the library is a pair LP, X w = x_i - x_j, which the
weights w = e_i - e_j always satisfy.  Given the pair, both solvers start
there instead of at the all-artificial basis: they pivot u_i, then v_j, into
the basis, each on the artificial row of largest |entry|, set the other
artificials to their exact value 0 and drive them out, then run phase 2, so
no pair LP pays a phase 1.  Phase 1 remains the start of a pair whose crash
pivot entry is at most the tolerance (x_i parallel to x_j, N = 1, a zero
column), of i == j, and of any target given without its pair.

No ``fastmath`` anywhere: the harness promises bit-identical trial outputs for
a fixed seed regardless of backend and worker count, which needs strict IEEE
semantics.  Reductions go through matmul (BLAS on both paths) or elementwise
ops, never ``np.sum``, whose summation order differs between backends.
"""

from __future__ import annotations

import math

import numpy as np

from ._jit import NUMBA_ENABLED, njit

# trial_chunk status codes
STOPPED = 0
TRUNCATED = 1
NEED_DRAWS = 2
TRACE_FULL = 3

# istate slots
IS_T = 0        # samples taken so far
IS_UPD = 1      # rank-one updates since the last dense recompute
IS_POS = 2      # next unread slot of the noise buffer
IS_VFOUND = 3   # 1 once a concentration violation has been seen
IS_VT = 4       # round of the first violation
IS_VI = 5
IS_VJ = 6
ISTATE_LEN = 7

# threshold kinds
THR_HEURISTIC = 0
THR_THEORETICAL = 1
THR_CLASSICAL = 2

# rule codes
J_TOP_M_EMPIRICAL = 0
J_MIN_MAX_INDEX = 1
B_MAX_OVER_OUTSIDE = 0
B_MAX_OVER_MTH = 1
SEL_LARGEST_VARIANCE = 0
SEL_GREEDY = 1
SEL_OPTIMIZED = 2
SEL_BOTH_ARMS = 3
STOP_LUCB = 0
STOP_UGAPE = 1

LAW_GAUSSIAN = 0
LAW_TABLE = 1


@njit(cache=True, nogil=True)
def threshold_value(kind, t, delta, n_dim, feat_bound, param_bound, lam, sigma, k_arms):
    """Confidence scale C_{delta,t} for round t >= 1.

    heuristic:    sqrt(2 ln((ln t + 1)/delta)), clamped at 0.
    theoretical:  sqrt(2 ln(1/delta) + N ln(1 + t L^2/(lam N))) + sqrt(lam) S / sigma.
    classical:    sqrt(beta(t, delta)/2)/sigma with beta = ln(5 K t^4 / (4 delta)),
                  so that C * sigma / sqrt(N_a) is the LUCB1 width sqrt(beta/(2 N_a)).
    """
    tf = 1.0 * t
    if kind == THR_HEURISTIC:
        v = 2.0 * math.log((math.log(tf) + 1.0) / delta)
        if v < 0.0:
            v = 0.0
        return math.sqrt(v)
    if kind == THR_THEORETICAL:
        core = 2.0 * math.log(1.0 / delta) + n_dim * math.log(
            1.0 + tf * feat_bound * feat_bound / (lam * n_dim)
        )
        return math.sqrt(core) + math.sqrt(lam) * param_bound / sigma
    beta = math.log(5.0 * k_arms * tf ** 4 / (4.0 * delta))
    if beta < 0.0:
        beta = 0.0
    return math.sqrt(beta / 2.0) / sigma


@njit(cache=True, nogil=True)
def symmetrize(mat):
    tmp = (mat + mat.T) * 0.5
    mat[:, :] = tmp


@njit(cache=True, nogil=True)
def sm_update(minv, x):
    """In-place Sherman-Morrison update of an inverse for A <- A + x x^T."""
    mx = minv @ x
    den = 1.0 + x @ mx
    minv -= mx.reshape(-1, 1) * (mx / den).reshape(1, -1)
    symmetrize(minv)


@njit(cache=True, nogil=True)
def quad_form_inv(minv, y):
    """y^T A^-1 y given the maintained inverse."""
    return y @ (minv @ y)


@njit(cache=True, nogil=True)
def round_quantities(xt, xmat, minv, bvec, level, sigma, paired):
    """Means, widths and gap indices for the current estimator state.

    xt is the (K, N) row-per-arm feature matrix and xmat its (N, K) transpose,
    both C-contiguous.  level is C_{delta,t}.  Returns (mu, W, B, G, T1) with
    G[i, j] = x_i^T A^-1 x_j and T1 = xt @ A^-1 kept for the greedy rule.
    """
    k = xt.shape[0]
    t1 = xt @ minv
    g = t1 @ xmat
    mu = t1 @ bvec
    d = np.empty(k)
    for i in range(k):
        q = g[i, i]
        if q < 0.0:
            q = 0.0
        d[i] = q
    if paired == 1:
        q2 = d.reshape(-1, 1) + d.reshape(1, -1) - 2.0 * g
        w = level * sigma * np.sqrt(np.maximum(q2, 0.0))
    else:
        root = np.sqrt(d)
        w = level * sigma * (root.reshape(-1, 1) + root.reshape(1, -1))
    b = mu.reshape(-1, 1) - mu.reshape(1, -1) + w
    return mu, w, b, g, t1


@njit(cache=True, nogil=True)
def topm_set(values, m, perm, smallest):
    """The m best arms by value; ties broken by smallest perm rank.

    smallest=1 selects the m smallest values instead of the m largest.
    Output order: best first.
    """
    k = values.shape[0]
    pr = np.argsort(perm, kind="mergesort")
    v = np.empty(k)
    for r in range(k):
        v[r] = values[pr[r]]
    if smallest == 1:
        order = np.argsort(v, kind="mergesort")
    else:
        order = np.argsort(-v, kind="mergesort")
    out = np.empty(m, np.int64)
    for i in range(m):
        out[i] = pr[order[i]]
    return out


@njit(cache=True, nogil=True)
def argbest(values, mask, perm, take_max):
    """Index of the max (or min) masked value, ties by smallest perm rank."""
    best = -1
    for a in range(values.shape[0]):
        if mask[a] == 0:
            continue
        if best < 0:
            best = a
        elif take_max == 1:
            if values[a] > values[best] or (
                values[a] == values[best] and perm[a] < perm[best]
            ):
                best = a
        else:
            if values[a] < values[best] or (
                values[a] == values[best] and perm[a] < perm[best]
            ):
                best = a
    return best


@njit(cache=True, nogil=True)
def mth_largest_excluding(col, j, m):
    """m-th largest of {col[i] : i != j}; needs m <= len(col) - 1."""
    k = col.shape[0]
    tmp = np.empty(k - 1)
    n = 0
    for i in range(k):
        if i != j:
            tmp[n] = col[i]
            n += 1
    tmp.sort()
    return tmp[k - 1 - m]


# ---------------------------------------------------------------------------
# dense two-phase simplex for the minimum-L1 design system
# ---------------------------------------------------------------------------

SIMPLEX_OK = 0
SIMPLEX_INFEASIBLE = 1
SIMPLEX_NUMERICAL = 2
DESIGN_TOL = 1e-9  # pivot and feasibility tolerance of every design LP
# largest |(X w - target)_r| an OK answer may leave on row r, relative to
# the row's scale max(|target_r|, max_a |x_ra w_a|)
RESIDUAL_TOL = 1e-8


@njit(cache=True, nogil=True)
def _pivot(tab, basis, row, col):
    piv = tab[row, col]
    tab[row, :] = tab[row, :] / piv
    tab[row, col] = 1.0
    nrows = tab.shape[0]
    for i in range(nrows):
        if i == row:
            continue
        f = tab[i, col]
        if f != 0.0:
            tab[i, :] = tab[i, :] - f * tab[row, :]
            tab[i, col] = 0.0
    basis[row] = col


@njit(cache=True, nogil=True)
def _simplex_iterate(tab, basis, active, n_rows, n_enter, tol, max_iter):
    """Bland-rule pivoting until optimal.  Entering columns are 0..n_enter-1.

    Returns SIMPLEX_OK on optimality, SIMPLEX_NUMERICAL if the iteration cap
    trips or no leaving row exists (cannot happen for feasible bounded L1
    programs; kept as a defensive status).
    """
    obj = tab.shape[0] - 1
    it = 0
    while True:
        it += 1
        if it > max_iter:
            return SIMPLEX_NUMERICAL
        enter = -1
        for j in range(n_enter):
            if tab[obj, j] < -tol:
                enter = j
                break
        if enter < 0:
            return SIMPLEX_OK
        leave = -1
        best_ratio = 0.0
        rhs_col = tab.shape[1] - 1
        for i in range(n_rows):
            if active[i] == 0:
                continue
            coef = tab[i, enter]
            if coef > tol:
                ratio = tab[i, rhs_col] / coef
                if leave < 0 or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    leave = i
                    best_ratio = ratio
        if leave < 0:
            return SIMPLEX_NUMERICAL
        _pivot(tab, basis, leave, enter)


@njit(cache=True, nogil=True)
def _crash_rows(tab, n, c1, c2, tol):
    """Rows (r1, r2) on which the crash start pivots column c1, then c2.

    Each is the row of largest |entry| above tol, the first on ties, with
    c2's entries read as the pivot on (r1, c1) leaves them and r1 excluded.
    (-1, -1) when either column has no such entry.  Every tableau row is
    still artificial when this runs.
    """
    r1 = -1
    best = tol
    for r in range(n):
        if abs(tab[r, c1]) > best:
            r1 = r
            best = abs(tab[r, c1])
    if r1 < 0:
        return -1, -1
    p = tab[r1, c2] / tab[r1, c1]
    r2 = -1
    best = tol
    for r in range(n):
        if r == r1:
            continue
        e = tab[r, c2]
        f = tab[r, c1]
        if f != 0.0:  # as _pivot computes it
            e = e - f * p
        if abs(e) > best:
            r2 = r
            best = abs(e)
    return r1, r2


@njit(cache=True, nogil=True)
def _solves(xmat, target, w):
    """True when X w meets target on every row within RESIDUAL_TOL of the
    row's scale; summed column by column, as simplex_l1_batch sums it.  A
    NaN residual fails."""
    for i in range(xmat.shape[0]):
        acc = 0.0
        scale = abs(target[i])
        for a in range(xmat.shape[1]):
            term = xmat[i, a] * w[a]
            acc += term
            if abs(term) > scale:
                scale = abs(term)
        if not abs(acc - target[i]) <= RESIDUAL_TOL * scale:
            return False
    return True


@njit(cache=True, nogil=True)
def simplex_l1(xmat, target, tol, first=-1, second=-1):
    """Minimum-L1 solution of X w = target by dense simplex.

    Split form: minimize sum(u) + sum(v) over u, v >= 0 subject to
    [X, -X](u; v) = target, with w = u - v.  Bland's rule throughout, so the
    iteration cannot cycle.  Returns (status, w, l1).

    Distinct arm ids first and second mark a pair LP, whose target must be
    x_first - x_second.  It starts at the feasible vertex w = e_first -
    e_second: u_first, then v_second, is pivoted into the basis on the
    artificial row of largest |entry| (_crash_rows), the other artificials
    are set to their exact value 0 and driven out, and phase 2 follows with
    no phase 1.  A pair whose crash pivot entry is at most tol (the two
    columns parallel, N = 1, a zero column) and any other target (first and
    second -1, the default) get phase 1 from the all-artificial basis.

    An optimal basis whose w misses X w = target on some row (_solves;
    rounding on a badly scaled X) returns SIMPLEX_NUMERICAL, like every
    other failure, with w zero.
    """
    n = xmat.shape[0]
    k = xmat.shape[1]
    nz = 2 * k
    ncols = nz + n + 1
    rhs_col = ncols - 1
    tab = np.zeros((n + 1, ncols))
    basis = np.empty(n, np.int64)
    active = np.ones(n, np.uint8)
    for i in range(n):
        s = 1.0
        if target[i] < 0.0:
            s = -1.0
        for j in range(k):
            tab[i, j] = s * xmat[i, j]
            tab[i, k + j] = -s * xmat[i, j]
        tab[i, nz + i] = 1.0
        tab[i, rhs_col] = s * target[i]
        basis[i] = nz + i
    # phase-1 objective: minimize the artificial mass
    for j in range(nz):
        acc = 0.0
        for i in range(n):
            acc += tab[i, j]
        tab[n, j] = -acc
    acc = 0.0
    for i in range(n):
        acc += tab[i, rhs_col]
    tab[n, rhs_col] = -acc

    max_iter = 200 * (n + k + 10)
    w = np.zeros(k)
    r1 = -1
    r2 = -1
    if first >= 0 and second >= 0 and first != second:
        r1, r2 = _crash_rows(tab, n, first, k + second, tol)
    if r2 >= 0:
        _pivot(tab, basis, r1, first)
        _pivot(tab, basis, r2, k + second)
        for i in range(n):
            if basis[i] >= nz:
                tab[i, rhs_col] = 0.0
    else:
        status = _simplex_iterate(tab, basis, active, n, nz, tol, max_iter)
        if status != SIMPLEX_OK:
            return SIMPLEX_NUMERICAL, w, 0.0
        if tab[n, rhs_col] < -tol:
            return SIMPLEX_INFEASIBLE, w, 0.0

    # drive artificials out of the basis; rows that cannot pivot on a real
    # column are redundant constraints and get deactivated
    for i in range(n):
        if basis[i] >= nz:
            enter = -1
            for j in range(nz):
                if abs(tab[i, j]) > tol:
                    enter = j
                    break
            if enter >= 0:
                _pivot(tab, basis, i, enter)
            else:
                active[i] = 0

    # phase-2 objective: all split variables cost 1
    for j in range(ncols):
        tab[n, j] = 0.0
    for j in range(nz):
        tab[n, j] = 1.0
    for i in range(n):
        if active[i] == 0:
            continue
        f = tab[n, basis[i]]
        if f != 0.0:
            tab[n, :] = tab[n, :] - f * tab[i, :]
            tab[n, basis[i]] = 0.0

    status = _simplex_iterate(tab, basis, active, n, nz, tol, max_iter)
    if status != SIMPLEX_OK:
        return SIMPLEX_NUMERICAL, w, 0.0

    for i in range(n):
        if active[i] == 0:
            continue
        col = basis[i]
        val = tab[i, rhs_col]
        if col < k:
            w[col] += val
        elif col < nz:
            w[col - k] -= val
    if not _solves(xmat, target, w):
        return SIMPLEX_NUMERICAL, np.zeros(k), 0.0
    return SIMPLEX_OK, w, -tab[n, rhs_col]


def _pivot_batch(tab, basis, lps, rows, cols):
    """_pivot on tableaux lps of the leading axis at once, tableau lps[q] at
    (rows[q], cols[q]), in place; like _pivot, only rows with a nonzero
    entry in the pivot column change."""
    q = np.arange(lps.size)
    prow = tab[lps, rows]
    prow /= prow[q, cols][:, None]
    prow[q, cols] = 1.0
    f = tab[lps, :, cols]
    f[q, rows] = 0.0
    hit, row = np.nonzero(f)
    step = prow[hit]
    np.multiply(f[hit, row][:, None], step, out=step)
    tab[lps[hit], row] -= step
    tab[lps[hit], row, cols[hit]] = 0.0
    tab[lps, rows] = prow
    basis[lps, rows] = cols


def _iterate_batch(tab, basis, active, ids, n_enter, tol, max_iter):
    """_simplex_iterate in lockstep over the tableaux ids of the leading
    axis, in place.

    Each LP makes the choices the scalar scan makes: the first entering
    column below -tol, then the leaving row of smallest ratio among active
    rows with coef > tol, ties to the smallest basis index.  In that scan a
    NaN ratio never replaces the running best, but a NaN on the first valid
    row is kept.  Finished LPs drop out of ids.  Every live LP pivots once
    per step, so an LP's pivot count is the step at which it drops out.
    Returns the status and pivot count of each LP of ids.
    """
    n = basis.shape[1]
    rhs = tab.shape[2] - 1
    status = np.full(tab.shape[0], SIMPLEX_OK)
    pivots = np.zeros(tab.shape[0], np.int64)
    given = ids
    every = np.arange(ids.size)
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while ids.size:
            lp = every[:ids.size]
            neg = tab[ids, n, :n_enter] < -tol
            enter = neg.argmax(axis=1)
            coef = tab[ids, :n, enter]
            b = basis[ids]
            valid = active[ids] & (coef > tol)
            ratio = tab[ids, :n, rhs] / coef
            first = valid.argmax(axis=1)
            clean = valid & ~np.isnan(ratio)
            low = np.where(clean, ratio, np.inf).min(axis=1)
            tied = clean & (ratio == low[:, None])
            leave = np.where(tied, b, rhs).argmin(axis=1)  # basis entries < rhs
            leave = np.where(np.isnan(ratio[lp, first]), first, leave)
            optimal = ~neg.any(axis=1)
            failed = (~optimal & ~valid.any(axis=1)) | (steps >= max_iter)
            stop = optimal | failed
            if stop.any():
                status[ids[stop & failed]] = SIMPLEX_NUMERICAL
                pivots[ids[stop]] = steps
                go = ~stop
                ids, enter, leave = ids[go], enter[go], leave[go]
                if not ids.size:
                    break
            _pivot_batch(tab, basis, ids, leave, enter)
            steps += 1
    return status[given], pivots[given]


def _crash_batch(tab, basis, pairs, tol):
    """The crash start of simplex_l1 on every pair LP of the batch.

    pairs[:, q] = (i, j) with i != j marks LP q a pair LP; where
    _crash_rows would find both rows, u_i and v_j are pivoted in and the
    remaining artificials' right-hand sides set to 0, as in the scalar
    solver.  Returns the mask of LPs so started.
    """
    p, n = basis.shape
    k = (tab.shape[2] - n - 1) // 2
    warm = np.zeros(p, bool)
    if pairs is None:
        return warm
    first, second = pairs
    q = np.nonzero((first >= 0) & (second >= 0) & (first != second))[0]
    lp = np.arange(q.size)
    c1, c2 = first[q], k + second[q]
    with np.errstate(all="ignore"):
        f = tab[q, :n, c1]
        size = np.abs(f)
        size = np.where(size > tol, size, 0.0)  # NaN entries never win
        r1 = size.argmax(axis=1)
        ok = size[lp, r1] > 0.0
        e = tab[q, :n, c2]
        e = np.where(f != 0.0, e - f * (e[lp, r1] / f[lp, r1])[:, None], e)
        size = np.abs(e)
        size = np.where(size > tol, size, 0.0)
        size[lp, r1] = 0.0
        r2 = size.argmax(axis=1)
        ok &= size[lp, r2] > 0.0
    q, r1, r2, c1, c2 = q[ok], r1[ok], r2[ok], c1[ok], c2[ok]
    _pivot_batch(tab, basis, q, r1, c1)
    _pivot_batch(tab, basis, q, r2, c2)
    warm[q] = True
    tab[:, :n, -1][warm[:, None] & (basis >= 2 * k)] = 0.0
    return warm


def simplex_l1_batch(xmat, targets, tol, pairs=None):
    """simplex_l1 for each row of targets (P, N).

    xmat is one (N, K) matrix all LPs share, or (P, N, K) with one matrix per
    LP.  pairs, a (2, P) int array or None, gives each LP the (i, j) that
    simplex_l1 takes: where pairs[:, q] names two distinct arms, LP q is the
    pair LP with target x_i - x_j and starts at w = e_i - e_j; -1 entries
    (and pairs=None) mark arbitrary targets.  The pair LPs take their two
    crash pivots together, the LPs that fall back or have no pair run
    phase 1, and then all of them run in lockstep: one batched pivot per
    step over the LPs still pivoting, in place on the tableau stack.
    Every LP takes the pivots simplex_l1 takes, in the same order and with
    the same arithmetic (sums row by row, never np.sum or np.einsum), and
    checks each optimal w against its row residuals as _solves does, so
    status, w and l1 are bit-identical to P scalar calls.  Returns (status,
    w, l1, pivots) with P rows each; pivots counts the _pivot calls
    simplex_l1 makes, crash and drive-out of artificials included.  numpy
    only: the batching replaces per-pivot interpreter dispatch, which the
    numba backend does not pay.
    """
    n = xmat.shape[-2]
    k = xmat.shape[-1]
    p = targets.shape[0]
    nz = 2 * k
    ncols = nz + n + 1
    rhs_col = ncols - 1
    rows = np.arange(n)
    sign = np.where(targets < 0.0, -1.0, 1.0)[:, :, None]
    tab = np.zeros((p, n + 1, ncols))
    tab[:, :n, :k] = sign * xmat
    tab[:, :n, k:nz] = -sign * xmat
    tab[:, rows, nz + rows] = 1.0
    tab[:, :n, rhs_col] = sign[:, :, 0] * targets
    basis = np.tile(nz + rows, (p, 1))
    active = np.ones((p, n), bool)
    # phase-1 objective, summed row by row as in simplex_l1
    acc = np.zeros((p, ncols))
    for i in range(n):
        acc += tab[:, i]
    tab[:, n, :nz] = -acc[:, :nz]
    tab[:, n, rhs_col] = -acc[:, rhs_col]

    max_iter = 200 * (n + k + 10)
    status = np.full(p, SIMPLEX_NUMERICAL)
    w = np.zeros((p, k))
    l1 = np.zeros(p)
    pivots = np.zeros(p, np.int64)
    warm = _crash_batch(tab, basis, pairs, tol)
    pivots[warm] = 2
    cold = np.nonzero(~warm)[0]
    phase1, pivots[cold] = _iterate_batch(tab, basis, active, cold, nz, tol,
                                          max_iter)
    infeasible = (phase1 == SIMPLEX_OK) & (tab[cold, n, rhs_col] < -tol)
    status[cold[infeasible]] = SIMPLEX_INFEASIBLE
    feasible = warm.copy()
    feasible[cold] = (phase1 == SIMPLEX_OK) & ~infeasible
    ids = np.nonzero(feasible)[0]
    if ids.size < p:
        tab, basis, active = tab[ids], basis[ids], active[ids]

    # drive artificials out of the basis, row by row
    for i in range(n):
        sel = np.nonzero(basis[:, i] >= nz)[0]
        if not sel.size:
            continue
        big = np.abs(tab[sel, i, :nz]) > tol
        can = big.any(axis=1)
        active[sel[~can], i] = False
        sel = sel[can]
        if sel.size:
            _pivot_batch(tab, basis, sel, np.full(sel.size, i),
                         big[can].argmax(axis=1))
            pivots[ids[sel]] += 1

    # phase-2 objective: all split variables cost 1
    lp = np.arange(ids.size)
    tab[:, n] = 0.0
    tab[:, n, :nz] = 1.0
    for i in range(n):
        col = basis[:, i]
        f = tab[lp, n, col]
        hit = np.nonzero(active[:, i] & (f != 0.0))[0]
        tab[hit, n] -= f[hit, None] * tab[hit, i]
        tab[hit, n, col[hit]] = 0.0

    phase2, more = _iterate_batch(tab, basis, active, lp, nz, tol, max_iter)
    pivots[ids] += more
    done = phase2 == SIMPLEX_OK
    status[ids[done]] = SIMPLEX_OK
    for i in range(n):
        col = basis[:, i]
        val = tab[:, i, rhs_col]
        plus = np.nonzero(done & active[:, i] & (col < k))[0]
        minus = np.nonzero(done & active[:, i] & (col >= k) & (col < nz))[0]
        w[ids[plus], col[plus]] += val[plus]
        w[ids[minus], col[minus] - k] -= val[minus]
    l1[ids[done]] = -tab[done, n, rhs_col]

    # _solves on every optimal w; accumulate adds the columns in order
    ok = ids[done]
    y = targets[ok]
    terms = (xmat if xmat.ndim == 2 else xmat[ok]) * w[ok][:, None, :]
    acc = np.add.accumulate(terms, axis=2)[:, :, -1]
    scale = np.maximum(np.abs(y), np.abs(terms).max(axis=2))
    with np.errstate(invalid="ignore"):
        miss = ok[~(np.abs(acc - y) <= RESIDUAL_TOL * scale).all(axis=1)]
    status[miss] = SIMPLEX_NUMERICAL
    w[miss] = 0.0
    l1[miss] = 0.0
    return status, w, l1, pivots


# tableau bytes one simplex_l1_batch call may hold: the K(K-1)/2 pairs of
# K=10, N=5 (8 (N+1)(2K+N+1) bytes each, 56 KB) fit in one call, K=50, N=10's
# 12 MB go in chunks that keep the footprint near this figure
_BATCH_TABLEAU_BYTES = 1 << 20


def simplex_l1_many(xmat, targets, tol, pairs=None):
    """(status, w, l1) of simplex_l1 for each row of targets (P, N).

    xmat is shared (N, K) or per LP (P, N, K), and pairs marks the pair LPs,
    as in simplex_l1_batch.  The numba backend solves the LPs one by one;
    numpy solves them through simplex_l1_batch, in chunks of at most
    _BATCH_TABLEAU_BYTES of tableau.  Both give the bytes of P simplex_l1
    calls.
    """
    n, k = xmat.shape[-2:]
    p = targets.shape[0]
    if pairs is None:
        pairs = np.full((2, p), -1)
    if NUMBA_ENABLED:
        status = np.empty(p, np.int64)
        w = np.zeros((p, k))
        l1 = np.zeros(p)
        for q in range(p):
            x = xmat if xmat.ndim == 2 else xmat[q]
            status[q], w[q], l1[q] = simplex_l1(x, targets[q], tol,
                                                pairs[0, q], pairs[1, q])
        return status, w, l1
    chunk = max(1, _BATCH_TABLEAU_BYTES // (8 * (n + 1) * (2 * k + n + 1)))
    parts = [simplex_l1_batch(xmat if xmat.ndim == 2 else xmat[s:s + chunk],
                              targets[s:s + chunk], tol,
                              pairs[:, s:s + chunk])[:3]
             for s in range(0, max(p, 1), chunk)]  # P = 0: one empty batch
    return tuple(np.concatenate(part) for part in zip(*parts))


def all_pair_designs(xmat, tol):
    """Min-L1 design weights for every unordered arm pair.

    Returns (wstar, wl1, wok): wstar[i, j] solves X w = x_i - x_j for i < j,
    wl1 the L1 values, wok a feasibility mask.  The pair LPs go through
    simplex_l1_many, so both backends give the same bytes.
    """
    k = xmat.shape[1]
    wstar = np.zeros((k, k, k))
    wl1 = np.zeros((k, k))
    wok = np.zeros((k, k), np.uint8)
    first, second = np.triu_indices(k, 1)
    targets = np.ascontiguousarray((xmat[:, first] - xmat[:, second]).T)
    status, w, l1 = simplex_l1_many(xmat, targets, tol,
                                    np.array([first, second]))
    ok = status == SIMPLEX_OK
    i, j = first[ok], second[ok]
    wstar[i, j] = w[ok]
    wl1[i, j] = l1[ok]
    wok[i, j] = 1
    return wstar, wl1, wok


# ---------------------------------------------------------------------------
# the trial loop
# ---------------------------------------------------------------------------


@njit(cache=True, nogil=True)
def reward(a, u, law_kind, mu_arms, table, table_len, sigma):
    """The reward of arm a for noise value u: standard normal u for the
    Gaussian law, uniform u in [0, 1) picking a table entry otherwise."""
    if law_kind == LAW_GAUSSIAN:
        return mu_arms[a] + sigma * u
    idx = int(u * table_len[a])
    if idx >= table_len[a]:
        idx = table_len[a] - 1
    return table[a, idx]


@njit(cache=True, nogil=True)
def record_pull(a, r, xt, amat, minv, bvec, counts, istate, recompute_every):
    """Record reward r of arm a in the estimator arrays: count, response and
    design, a Sherman-Morrison step on the inverse, and a dense re-inversion
    every recompute_every updates."""
    x = xt[a]
    counts[a] += 1
    bvec += r * x
    amat += x.reshape(-1, 1) * x.reshape(1, -1)
    sm_update(minv, x)
    istate[IS_UPD] += 1
    if istate[IS_UPD] >= recompute_every:
        fresh = np.linalg.inv(amat)
        minv[:, :] = fresh
        symmetrize(minv)
        istate[IS_UPD] = 0
    istate[IS_T] += 1


@njit(cache=True, nogil=True)
def trial_chunk(
    m, epsilon, max_rounds,
    j_rule, b_rule, sel_rule, stop_rule, paired,
    thr_kind, delta, n_dim_f, feat_bound, param_bound, lam, sigma, k_arms_f,
    law_kind, mu_arms, table, table_len, noise_sigma,
    wstar, wl1, wok,
    monitor, mu_true,
    recompute_every,
    xt, xmat, amat, minv, bvec, counts, perm,
    istate, buf,
    trace_on, tr_t, tr_b, tr_c, tr_a1, tr_a2, tr_stat, tr_thr,
    tr_j, tr_mu, tr_w, tr_len,
    j_out, f_out,
):
    """Run gap-index rounds until stop/truncation or a buffer runs out.

    All state lives in the caller-owned arrays, so the loop is resumable: on
    NEED_DRAWS the caller refills ``buf`` (preserving the unread tail of the
    stream) and calls again; on TRACE_FULL it flushes the trace arrays.  The
    round in progress is recomputed from scratch on re-entry, which is safe
    because nothing was mutated yet.

    ``sigma`` here belongs to the threshold constant group and only enters
    the C formula; ``noise_sigma`` is the instance noise scale used for
    confidence widths and reward generation (zero for noiseless runs).
    """
    k = xt.shape[0]
    buf_len = buf.shape[0]
    while True:
        if trace_on == 1 and tr_len[0] >= tr_t.shape[0]:
            return TRACE_FULL
        if istate[IS_POS] + 2 > buf_len:
            return NEED_DRAWS

        t = istate[IS_T]
        t_round = t
        if t_round < 1:
            t_round = 1
        level = threshold_value(
            thr_kind, t_round, delta, n_dim_f, feat_bound, param_bound,
            lam, sigma, k_arms_f,
        )
        mu, wmat, bmat, g, t1 = round_quantities(
            xt, xmat, minv, bvec, level, noise_sigma, paired
        )

        if monitor == 1 and istate[IS_VFOUND] == 0:
            done = False
            for i in range(k):
                if done:
                    break
                for j in range(k):
                    if i != j and mu_true[i] - mu_true[j] > bmat[i, j]:
                        istate[IS_VFOUND] = 1
                        istate[IS_VT] = t
                        istate[IS_VI] = i
                        istate[IS_VJ] = j
                        done = True
                        break

        # candidate set J(t)
        if j_rule == J_TOP_M_EMPIRICAL:
            jset = topm_set(mu, m, perm, 0)
        else:
            score = np.empty(k)
            for j in range(k):
                score[j] = mth_largest_excluding(bmat[:, j], j, m)
            jset = topm_set(score, m, perm, 1)
        in_j = np.zeros(k, np.uint8)
        for idx in range(m):
            in_j[jset[idx]] = 1
        out_j = np.empty(k, np.uint8)
        for a in range(k):
            out_j[a] = 1 - in_j[a]

        # anchor b_t
        bval = np.full(k, -np.inf)
        for j in range(k):
            if in_j[j] == 0:
                continue
            if b_rule == B_MAX_OVER_OUTSIDE:
                best = -np.inf
                for i in range(k):
                    if out_j[i] == 1 and bmat[i, j] > best:
                        best = bmat[i, j]
                bval[j] = best
            else:
                bval[j] = mth_largest_excluding(bmat[:, j], j, m)
        b_arm = argbest(bval, in_j, perm, 1)

        # challenger c_t
        c_arm = argbest(bmat[:, b_arm], out_j, perm, 1)

        if stop_rule == STOP_LUCB:
            stat = bmat[c_arm, b_arm]
        else:
            stat = -np.inf
            for j in range(k):
                if in_j[j] == 1:
                    v = mth_largest_excluding(bmat[:, j], j, m)
                    if v > stat:
                        stat = v

        stopped = stat <= epsilon
        truncated = (not stopped) and t >= max_rounds

        row = -1
        if trace_on == 1:
            row = tr_len[0]
            tr_t[row] = t
            tr_b[row] = b_arm
            tr_c[row] = c_arm
            tr_a1[row] = -1
            tr_a2[row] = -1
            tr_stat[row] = stat
            tr_thr[row] = level
            for idx in range(m):
                tr_j[row, idx] = jset[idx]
            tr_mu[row, :] = mu
            tr_w[row, :, :] = wmat
            tr_len[0] = row + 1

        if stopped or truncated:
            for idx in range(m):
                j_out[idx] = jset[idx]
            f_out[0] = stat
            f_out[1] = level
            if stopped:
                return STOPPED
            return TRUNCATED

        # selection rule
        a1 = -1
        a2 = -1
        if sel_rule == SEL_LARGEST_VARIANCE:
            gb = g[b_arm, b_arm]
            gc = g[c_arm, c_arm]
            if gb > gc or (gb == gc and perm[b_arm] < perm[c_arm]):
                a1 = b_arm
            else:
                a1 = c_arm
        elif sel_rule == SEL_BOTH_ARMS:
            a1 = b_arm
            a2 = c_arm
        else:
            use_greedy = sel_rule == SEL_GREEDY
            if sel_rule == SEL_OPTIMIZED:
                lo = b_arm
                hi = c_arm
                if lo > hi:
                    lo = c_arm
                    hi = b_arm
                if wok[lo, hi] == 1:
                    l1v = wl1[lo, hi]
                    best = -1
                    best_score = 0.0
                    for a in range(k):
                        wa = wstar[lo, hi, a]
                        if b_arm > c_arm:
                            wa = -wa
                        if wa != 0.0:
                            sc = counts[a] * l1v / abs(wa)
                            if best < 0 or sc < best_score or (
                                sc == best_score and perm[a] < perm[best]
                            ):
                                best = a
                                best_score = sc
                    if best >= 0:
                        a1 = best
                    else:
                        use_greedy = True
                else:
                    use_greedy = True
            if use_greedy and a1 < 0:
                y = xt[b_arm] - xt[c_arm]
                vmv = g[b_arm, b_arm] + g[c_arm, c_arm] - 2.0 * g[b_arm, c_arm]
                proj = t1 @ y
                val = np.empty(k)
                for a in range(k):
                    val[a] = vmv - proj[a] * proj[a] / (1.0 + g[a, a])
                allmask = np.ones(k, np.uint8)
                a1 = argbest(val, allmask, perm, 0)

        if row >= 0:
            tr_a1[row] = a1
            tr_a2[row] = a2

        u = buf[istate[IS_POS]]
        istate[IS_POS] += 1
        r = reward(a1, u, law_kind, mu_arms, table, table_len, noise_sigma)
        record_pull(a1, r, xt, amat, minv, bvec, counts, istate, recompute_every)
        if a2 >= 0:
            u = buf[istate[IS_POS]]
            istate[IS_POS] += 1
            r = reward(a2, u, law_kind, mu_arms, table, table_len, noise_sigma)
            record_pull(a2, r, xt, amat, minv, bvec, counts, istate,
                        recompute_every)
