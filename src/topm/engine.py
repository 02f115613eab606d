"""The generic gap-index identification loop with pluggable rule slots.

One round: compute the index matrix, pick the candidate set J(t), the anchor
b_t inside it, the challenger c_t outside it, check the stopping statistic,
select the arm(s) to pull, update the estimator.  The five named presets
(lucb, ugape, lingape, m-lingape, lingifa) are particular rule assignments.

run_trial drives a compiled chunked kernel by default; engine="reference"
runs a plain-python loop over the same shared numerics.  Both consume the
per-trial random stream in the same order (tie-break permutation, then one
noise value per pull), so they produce bit-identical results, which is a
tested property rather than a design hope.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import ConfigError, InfeasibleDesign
from .estimator import EstimatorState
from .indices import (
    CLASSICAL, HEURISTIC, INDIVIDUAL, PAIRED, THEORETICAL, IndexConfig,
    ThresholdSpec, normalize_threshold_kind,
)
from .instances import (
    EMPIRICAL_TABLE, GAUSSIAN_LINEAR, Instance, eps_top_set, gap_profile,
)

J_TOP_M_EMPIRICAL = "top-m-empirical"
J_MIN_MAX_INDEX = "min-max-index"
B_MAX_OVER_OUTSIDE = "max-over-outside"
B_MAX_OVER_MTH = "max-over-mth"
SEL_LARGEST_VARIANCE = "largest-variance"
SEL_GREEDY = "greedy"
SEL_OPTIMIZED = "optimized"
SEL_BOTH_ARMS = "both-arms"
STOP_LUCB = "lucb"
STOP_UGAPE = "ugape"

_J_CODES = {J_TOP_M_EMPIRICAL: kernels.J_TOP_M_EMPIRICAL,
            J_MIN_MAX_INDEX: kernels.J_MIN_MAX_INDEX}
_B_CODES = {B_MAX_OVER_OUTSIDE: kernels.B_MAX_OVER_OUTSIDE,
            B_MAX_OVER_MTH: kernels.B_MAX_OVER_MTH}
_SEL_CODES = {SEL_LARGEST_VARIANCE: kernels.SEL_LARGEST_VARIANCE,
              SEL_GREEDY: kernels.SEL_GREEDY,
              SEL_OPTIMIZED: kernels.SEL_OPTIMIZED,
              SEL_BOTH_ARMS: kernels.SEL_BOTH_ARMS}
_STOP_CODES = {STOP_LUCB: kernels.STOP_LUCB, STOP_UGAPE: kernels.STOP_UGAPE}

PRESET_NAMES = ("lucb", "ugape", "lingape", "m-lingape", "lingifa")


@dataclass(frozen=True)
class AlgorithmSpec:
    """One named algorithm: the four rule slots plus index configuration.

    use_features=False runs the classical (feature-blind) version through the
    canonical identity embedding with lambda = 0, which is why those presets
    carry a mandatory initialization pass.
    """

    name: str
    j_rule: str
    b_rule: str
    selection: str
    stopping: str
    index: IndexConfig
    init_pass: bool = False
    use_features: bool = True
    paper_literal_optimized: bool = False

    def __post_init__(self):
        if self.j_rule not in _J_CODES:
            raise ConfigError(f"unknown j_rule {self.j_rule!r}")
        if self.b_rule not in _B_CODES:
            raise ConfigError(f"unknown b_rule {self.b_rule!r}")
        if self.selection not in _SEL_CODES:
            raise ConfigError(f"unknown selection rule {self.selection!r}")
        if self.stopping not in _STOP_CODES:
            raise ConfigError(f"unknown stopping rule {self.stopping!r}")

    def describe(self) -> str:
        return (f"{self.name}[J={self.j_rule}, b={self.b_rule}, "
                f"select={self.selection}, stop={self.stopping}, "
                f"index={self.index.kind}]")


def preset(name: str, *, selection: Optional[str] = None,
           j_rule: Optional[str] = None, b_rule: Optional[str] = None,
           stopping: Optional[str] = None, index_kind: Optional[str] = None,
           threshold_default: Optional[str] = None,
           init_pass: Optional[bool] = None,
           paper_literal_optimized: bool = False,
           label: Optional[str] = None) -> AlgorithmSpec:
    """A named algorithm with optional per-slot overrides."""
    key = name.strip().lower()
    if key == "lucb":
        base = dict(j_rule=J_TOP_M_EMPIRICAL, b_rule=B_MAX_OVER_OUTSIDE,
                    selection=SEL_LARGEST_VARIANCE, stopping=STOP_LUCB,
                    index_kind=INDIVIDUAL, thr_kind=CLASSICAL,
                    init_pass=True, use_features=False)
    elif key == "ugape":
        base = dict(j_rule=J_MIN_MAX_INDEX, b_rule=B_MAX_OVER_OUTSIDE,
                    selection=SEL_LARGEST_VARIANCE, stopping=STOP_UGAPE,
                    index_kind=INDIVIDUAL, thr_kind=CLASSICAL,
                    init_pass=True, use_features=False)
    elif key == "lingape":
        base = dict(j_rule=J_TOP_M_EMPIRICAL, b_rule=B_MAX_OVER_OUTSIDE,
                    selection=SEL_GREEDY, stopping=STOP_LUCB,
                    index_kind=PAIRED, thr_kind=HEURISTIC,
                    init_pass=False, use_features=True)
    elif key == "m-lingape":
        base = dict(j_rule=J_TOP_M_EMPIRICAL, b_rule=B_MAX_OVER_OUTSIDE,
                    selection=SEL_GREEDY, stopping=STOP_LUCB,
                    index_kind=PAIRED, thr_kind=HEURISTIC,
                    init_pass=False, use_features=True)
    elif key == "lingifa":
        base = dict(j_rule=J_MIN_MAX_INDEX, b_rule=B_MAX_OVER_MTH,
                    selection=SEL_LARGEST_VARIANCE, stopping=STOP_UGAPE,
                    index_kind=PAIRED, thr_kind=HEURISTIC,
                    init_pass=False, use_features=True)
    else:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if selection is not None:
        base["selection"] = selection
    if j_rule is not None:
        base["j_rule"] = j_rule
    if b_rule is not None:
        base["b_rule"] = b_rule
    if stopping is not None:
        base["stopping"] = stopping
    if index_kind is not None:
        base["index_kind"] = index_kind
    if init_pass is not None:
        base["init_pass"] = init_pass
    index_kind_final = base.pop("index_kind")
    thr_kind_final = base.pop("thr_kind")
    if threshold_default is not None:
        thr_kind_final = threshold_default
    index = IndexConfig(kind=index_kind_final, threshold_kind=thr_kind_final)
    return AlgorithmSpec(name=label or key, index=index,
                         paper_literal_optimized=paper_literal_optimized, **base)


# ---------------------------------------------------------------------------
# rule operations (library form; the trial loop computes the same quantities)
# ---------------------------------------------------------------------------


def _as_perm(perm, k: int) -> np.ndarray:
    if perm is None:
        return np.arange(k, dtype=np.int64)
    return np.asarray(perm, dtype=np.int64)


def compute_Jt(rule: str, means, B, m: int, perm=None) -> np.ndarray:
    """Candidate set J(t): the m empirically best arms, or the m arms whose
    m-th largest incoming index is smallest."""
    means = np.ascontiguousarray(means, dtype=np.float64)
    k = means.shape[0]
    if m >= k:
        raise ConfigError(f"need m < K, got m={m}, K={k}")
    perm = _as_perm(perm, k)
    if rule == J_TOP_M_EMPIRICAL:
        return np.sort(kernels.topm_set(means, m, perm, 0))
    if rule == J_MIN_MAX_INDEX:
        B = np.asarray(B, dtype=np.float64)
        scores = np.empty(k)
        for j in range(k):
            scores[j] = kernels.mth_largest_excluding(B[:, j], j, m)
        return np.sort(kernels.topm_set(scores, m, perm, 1))
    raise ConfigError(f"unknown j_rule {rule!r}")


def compute_bt(rule: str, J, B, m: Optional[int] = None, perm=None) -> int:
    """Anchor arm in J maximizing its rule's score."""
    B = np.asarray(B, dtype=np.float64)
    k = B.shape[0]
    perm = _as_perm(perm, k)
    in_j = np.zeros(k, np.uint8)
    for j in J:
        in_j[j] = 1
    if in_j.sum() == k:
        raise ConfigError("J must leave at least one arm outside")
    vals = np.full(k, -np.inf)
    for j in range(k):
        if not in_j[j]:
            continue
        if rule == B_MAX_OVER_OUTSIDE:
            best = -np.inf
            for i in range(k):
                if in_j[i] == 0 and B[i, j] > best:
                    best = B[i, j]
            vals[j] = best
        elif rule == B_MAX_OVER_MTH:
            if m is None:
                raise ConfigError("max-over-mth b_rule needs m")
            vals[j] = kernels.mth_largest_excluding(B[:, j], j, m)
        else:
            raise ConfigError(f"unknown b_rule {rule!r}")
    return int(kernels.argbest(vals, in_j, perm, 1))


def compute_ct(J, b: int, B, perm=None) -> int:
    """Challenger: the arm outside J with the largest index against b."""
    B = np.asarray(B, dtype=np.float64)
    k = B.shape[0]
    perm = _as_perm(perm, k)
    out_j = np.ones(k, np.uint8)
    for j in J:
        out_j[j] = 0
    if out_j.sum() == 0:
        raise ConfigError("J must leave at least one arm outside")
    col = np.ascontiguousarray(B[:, b])
    return int(kernels.argbest(col, out_j, perm, 1))


def stopping_stat(rule: str, J, b: int, c: int, B,
                  m: Optional[int] = None) -> float:
    """The quantity compared against epsilon each round."""
    B = np.asarray(B, dtype=np.float64)
    if rule == STOP_LUCB:
        return float(B[c, b])
    if rule == STOP_UGAPE:
        if m is None:
            raise ConfigError("ugape stopping needs m")
        return float(max(kernels.mth_largest_excluding(B[:, j], j, m) for j in J))
    raise ConfigError(f"unknown stopping rule {rule!r}")


def select_arm(rule: str, b: int, c: int, estimator: EstimatorState,
               design_solver=None, perm=None, literal: bool = False):
    """Arm(s) to pull given anchor b and challenger c.

    Returns an arm id, or the pair (b, c) for the both-arms rule.  The
    largest-variance comparison uses the inverse-design quadratic forms
    directly (equivalent to comparing widths, and still defined at sigma=0).
    """
    if b == c:
        raise ConfigError("anchor and challenger must differ")
    k = estimator.K
    perm = _as_perm(perm, k)
    design = estimator._require_design()
    xt = estimator._xt
    if rule == SEL_LARGEST_VARIANCE:
        gb = design.quad_form(xt[b])
        gc = design.quad_form(xt[c])
        if gb > gc or (gb == gc and perm[b] < perm[c]):
            return b
        return c
    if rule == SEL_BOTH_ARMS:
        return (b, c)
    if rule == SEL_OPTIMIZED:
        if design_solver is None:
            raise ConfigError("optimized selection needs a design solver")
        try:
            dw = design_solver(b, c)
        except InfeasibleDesign:
            dw = None
        if dw is not None:
            w = np.asarray(dw.weights, dtype=np.float64)
            counts = estimator.counts
            best = -1
            best_score = 0.0
            for a in range(k):
                wa = w[a]
                if literal:
                    if wa > 0.0:
                        sc = counts[a] * dw.l1 / wa
                        if best < 0 or sc > best_score or (
                            sc == best_score and perm[a] < perm[best]
                        ):
                            best, best_score = a, sc
                else:
                    if wa != 0.0:
                        sc = counts[a] * dw.l1 / abs(wa)
                        if best < 0 or sc < best_score or (
                            sc == best_score and perm[a] < perm[best]
                        ):
                            best, best_score = a, sc
            if best >= 0:
                return best
        # infeasible or empty support: fall through to greedy
    y = xt[b] - xt[c]
    minv = design.inverse
    vmv = kernels.quad_form_inv(minv, y)
    vals = np.empty(k)
    for a in range(k):
        xa = xt[a]
        proj = float(xa @ (minv @ y))
        vals[a] = vmv - proj * proj / (1.0 + design.quad_form(xa))
    return int(kernels.argbest(vals, np.ones(k, np.uint8), perm, 0))


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------


@dataclass
class Trace:
    """Per-round log: sets, arms, statistic, and the width data needed to
    reconstruct every index matrix bit-for-bit."""

    t: np.ndarray
    J: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    stat: np.ndarray
    threshold: np.ndarray
    means: np.ndarray
    widths: np.ndarray

    def __len__(self) -> int:
        return int(self.t.shape[0])

    def index_matrix(self, r: int) -> np.ndarray:
        mu = self.means[r]
        return mu.reshape(-1, 1) - mu.reshape(1, -1) + self.widths[r]

    def round_hash(self, r: int) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(self.means[r].tobytes())
        h.update(self.widths[r].tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class RunResult:
    """Outcome of a single trial."""

    tau: int
    recommendation: tuple
    correct: bool
    truncated: bool
    event_E_held: Optional[bool]
    stat: float
    threshold_final: float
    violation: Optional[tuple]
    counts: np.ndarray
    seed: object
    trace: Optional[Trace] = None


_PAIR_DESIGN_MEMO: dict = {}
_PAIR_DESIGN_LOCK = threading.Lock()
_DESIGN_TOL = 1e-9


def pair_designs(xmat: np.ndarray):
    """(wstar, wl1, wok) for every unordered pair, memoized per feature matrix.

    Eager rather than lazy: features are static, so precomputing all pairs
    once per matrix is equivalent to filling a cache on demand and keeps the
    compiled loop free of callbacks.
    """
    xmat = np.ascontiguousarray(xmat, dtype=np.float64)
    key = (xmat.shape, xmat.tobytes())
    with _PAIR_DESIGN_LOCK:
        hit = _PAIR_DESIGN_MEMO.get(key)
        if hit is not None:
            return hit
    out = kernels.all_pair_designs(xmat, _DESIGN_TOL)
    with _PAIR_DESIGN_LOCK:
        _PAIR_DESIGN_MEMO.setdefault(key, out)
        return _PAIR_DESIGN_MEMO[key]


def _resolve_threshold(spec: AlgorithmSpec, threshold_kind: Optional[str],
                       delta: float, n_dim: int, feat_bound: float,
                       param_bound: Optional[float], lam: float, sigma: float,
                       k_arms: int) -> ThresholdSpec:
    bound = spec.index.threshold
    if threshold_kind is not None:
        kind = normalize_threshold_kind(threshold_kind)
    elif bound is not None:
        kind = bound.kind
    elif spec.index.threshold_kind is not None:
        kind = spec.index.threshold_kind
    else:
        kind = HEURISTIC
    if kind == THEORETICAL and not spec.use_features:
        raise ConfigError(
            "the theoretical linear threshold needs lambda > 0, but "
            "feature-blind presets run the canonical embedding with "
            "lambda = 0; use the classical or heuristic threshold"
        )
    if bound is not None and bound.kind == kind and bound.delta == delta:
        return bound
    return ThresholdSpec(kind=kind, delta=delta, n_dim=n_dim,
                         feature_bound=feat_bound, param_bound=param_bound,
                         lam=lam, sigma=sigma, k_arms=k_arms)


def _reward_from_noise(u: float, arm: int, law: int, mu_arms, table,
                       table_len, sigma: float) -> float:
    # a copy of the reward formula in kernels.apply_pull: _init_state draws
    # every init-pass reward through it, and every later pull of both loops
    # goes through apply_pull
    if law == kernels.LAW_GAUSSIAN:
        return mu_arms[arm] + sigma * u
    idx = int(u * table_len[arm])
    if idx >= table_len[arm]:
        idx = table_len[arm] - 1
    return table[arm, idx]


class _TrialSetup:
    """Everything a trial loop needs, derived once from the arguments."""

    def __init__(self, spec: AlgorithmSpec, instance: Instance, m, epsilon,
                 delta, seed, max_rounds, lam, threshold_kind, trace, monitor,
                 recompute_every, design_cache):
        if not isinstance(spec, AlgorithmSpec):
            raise ConfigError("spec must be an AlgorithmSpec")
        k = instance.K
        if not 1 <= m <= k - 1:
            raise ConfigError(f"need 1 <= m <= K-1, got m={m}, K={k}")
        if spec.name == "lingape" and m != 1:
            raise ConfigError(
                "the lingape preset is the m = 1 algorithm; use m-lingape "
                "for larger m"
            )
        if epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        if not 0 < delta < 1:
            raise ConfigError("delta must lie in (0,1)")
        if max_rounds < k:
            raise ConfigError(f"max_rounds must be >= K = {k}")
        profile = gap_profile(instance, m)
        if epsilon == 0 and profile.min_gap <= 0:
            raise ConfigError(
                "exact identification (epsilon = 0) needs a positive m-th gap"
            )
        if instance.reward_law == EMPIRICAL_TABLE:
            for a, row in enumerate(instance.reward_table):
                if row.size == 0:
                    raise ConfigError(f"empty reward table for arm {a}")

        sigma = instance.sigma
        if spec.use_features:
            xmat = instance.features
            n_dim = instance.N
            feat_bound = instance.feature_bound
            param_bound = instance.param_bound
            if lam is None:
                if sigma <= 0:
                    raise ConfigError(
                        "default lambda is sigma/20; pass lam explicitly for "
                        "noiseless runs"
                    )
                lam_eff = sigma / 20.0
            else:
                lam_eff = float(lam)
            if lam_eff < 0:
                raise ConfigError("lambda must be >= 0")
        else:
            if lam not in (None, 0, 0.0):
                raise ConfigError(
                    "feature-blind presets run the canonical embedding with "
                    "lambda = 0; do not override lambda"
                )
            xmat = np.eye(k)
            n_dim = k
            feat_bound = 1.0
            param_bound = float(np.linalg.norm(instance.mu))
            lam_eff = 0.0
        if lam_eff == 0 and not spec.init_pass:
            raise ConfigError("lambda = 0 requires the initialization pass")

        self.spec = spec
        self.instance = instance
        self.m = int(m)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.max_rounds = int(max_rounds)
        self.sigma = float(sigma)
        self.lam = float(lam_eff)
        self.k = k
        self.n_dim = int(n_dim)
        self.xmat = np.ascontiguousarray(xmat, dtype=np.float64)
        self.xt = np.ascontiguousarray(self.xmat.T)
        self.threshold = _resolve_threshold(
            spec, threshold_kind, self.delta, self.n_dim, feat_bound,
            param_bound, self.lam, self.sigma, k,
        )
        self.trace = bool(trace)
        self.monitor = True if monitor is None else bool(monitor)
        self.recompute_every = int(recompute_every)
        self.seed = seed
        self.profile = profile

        self.law = (kernels.LAW_GAUSSIAN
                    if instance.reward_law == GAUSSIAN_LINEAR
                    else kernels.LAW_TABLE)
        self.mu_true = np.ascontiguousarray(instance.mu, dtype=np.float64)
        if self.law == kernels.LAW_TABLE:
            lmax = max(row.size for row in instance.reward_table)
            table = np.zeros((k, lmax))
            table_len = np.zeros(k, np.int64)
            for a, row in enumerate(instance.reward_table):
                table[a, : row.size] = row
                table_len[a] = row.size
            self.table = table
            self.table_len = table_len
            self.mu_arms = np.zeros(k)
        else:
            self.table = np.zeros((1, 1))
            self.table_len = np.ones(1, np.int64)
            self.mu_arms = self.mu_true

        if spec.selection == SEL_OPTIMIZED:
            cache = design_cache if design_cache is not None else pair_designs(self.xmat)
            self.wstar, self.wl1, self.wok = cache
        else:
            self.wstar = np.zeros((1, 1, 1))
            self.wl1 = np.zeros((1, 1))
            self.wok = np.zeros((1, 1), np.uint8)

    def codes(self):
        s = self.spec
        return (_J_CODES[s.j_rule], _B_CODES[s.b_rule], _SEL_CODES[s.selection],
                _STOP_CODES[s.stopping], s.index.paired_code,
                1 if s.paper_literal_optimized else 0)

    def draw(self, rng, n: int) -> np.ndarray:
        if self.law == kernels.LAW_GAUSSIAN:
            return rng.standard_normal(n)
        return rng.random(n)


def _init_state(setup: _TrialSetup, rng):
    """Fresh estimator arrays, optionally after the pull-every-arm-once pass.

    The init pass accumulates the design and derives one dense inverse at the
    end (lambda = 0 has no inverse before it); Sherman-Morrison tracking
    starts afterwards.
    """
    n, k = setup.n_dim, setup.k
    amat = setup.lam * np.eye(n)
    counts = np.zeros(k, np.int64)
    bvec = np.zeros(n)
    istate = np.zeros(kernels.ISTATE_LEN, np.int64)
    perm = rng.permutation(k).astype(np.int64)
    if setup.spec.init_pass:
        draws = setup.draw(rng, k)
        for a in range(k):
            r = _reward_from_noise(draws[a], a, setup.law, setup.mu_arms,
                                   setup.table, setup.table_len, setup.sigma)
            x = setup.xt[a]
            counts[a] += 1
            bvec += r * x
            amat += x.reshape(-1, 1) * x.reshape(1, -1)
        istate[kernels.IS_T] = k
        minv = np.linalg.inv(amat)
        kernels.symmetrize(minv)
    else:
        minv = np.eye(n) / setup.lam
    return amat, minv, bvec, counts, istate, perm


_CHUNK_DRAWS = 8192
_TRACE_CHUNK = 4096


def _finalize(setup: _TrialSetup, istate, counts, j_out, f_out, status,
              trace_obj) -> RunResult:
    tau = int(istate[kernels.IS_T])
    rec = tuple(sorted(int(a) for a in j_out))
    ok_set = eps_top_set(setup.mu_true, setup.m, setup.epsilon)
    correct = set(rec).issubset(ok_set)
    viol = None
    held = None
    if setup.monitor:
        held = bool(istate[kernels.IS_VFOUND] == 0)
        if not held:
            viol = (int(istate[kernels.IS_VT]), int(istate[kernels.IS_VI]),
                    int(istate[kernels.IS_VJ]))
    return RunResult(
        tau=tau, recommendation=rec, correct=bool(correct),
        truncated=status == kernels.TRUNCATED, event_E_held=held,
        stat=float(f_out[0]), threshold_final=float(f_out[1]),
        violation=viol, counts=counts.copy(), seed=setup.seed, trace=trace_obj,
    )


def _run_kernel(setup: _TrialSetup, rng) -> RunResult:
    amat, minv, bvec, counts, istate, perm = _init_state(setup, rng)
    jc, bc, sc, st, paired, lit = setup.codes()
    thr = setup.threshold
    thr_args = thr.kernel_args()
    m, k = setup.m, setup.k
    j_out = np.zeros(m, np.int64)
    f_out = np.zeros(2)

    buf = setup.draw(rng, _CHUNK_DRAWS)
    cap = _TRACE_CHUNK if setup.trace else 1
    tr_t = np.zeros(cap, np.int64)
    tr_b = np.zeros(cap, np.int64)
    tr_c = np.zeros(cap, np.int64)
    tr_a1 = np.zeros(cap, np.int64)
    tr_a2 = np.zeros(cap, np.int64)
    tr_stat = np.zeros(cap)
    tr_thr = np.zeros(cap)
    tr_j = np.zeros((cap, m), np.int64)
    tr_mu = np.zeros((cap, k))
    tr_w = np.zeros((cap, k, k))
    tr_len = np.zeros(1, np.int64)
    segments = []

    def flush():
        nrows = int(tr_len[0])
        if nrows:
            segments.append((tr_t[:nrows].copy(), tr_j[:nrows].copy(),
                             tr_b[:nrows].copy(), tr_c[:nrows].copy(),
                             tr_a1[:nrows].copy(), tr_a2[:nrows].copy(),
                             tr_stat[:nrows].copy(), tr_thr[:nrows].copy(),
                             tr_mu[:nrows].copy(), tr_w[:nrows].copy()))
        tr_len[0] = 0

    while True:
        status = kernels.trial_chunk(
            m, setup.epsilon, setup.max_rounds,
            jc, bc, sc, st, paired, lit,
            thr.code, *thr_args,
            setup.law, setup.mu_arms, setup.table, setup.table_len,
            setup.sigma,
            setup.wstar, setup.wl1, setup.wok,
            1 if setup.monitor else 0, setup.mu_true,
            setup.recompute_every,
            setup.xt, setup.xmat, amat, minv, bvec, counts, perm,
            istate, buf,
            1 if setup.trace else 0, tr_t, tr_b, tr_c, tr_a1, tr_a2,
            tr_stat, tr_thr, tr_j, tr_mu, tr_w, tr_len,
            j_out, f_out,
        )
        if status == kernels.NEED_DRAWS:
            pos = int(istate[kernels.IS_POS])
            left = buf.shape[0] - pos
            if left > 0:
                buf[:left] = buf[pos:]
            buf[left:] = setup.draw(rng, buf.shape[0] - left)
            istate[kernels.IS_POS] = 0
            continue
        if status == kernels.TRACE_FULL:
            flush()
            continue
        break

    trace_obj = None
    if setup.trace:
        flush()
        cols = list(zip(*segments)) if segments else [[] for _ in range(10)]
        def cat(parts, like):
            return (np.concatenate(parts) if parts
                    else np.empty((0,) + like.shape[1:], like.dtype))
        trace_obj = Trace(
            t=cat(cols[0], tr_t), J=cat(cols[1], tr_j), b=cat(cols[2], tr_b),
            c=cat(cols[3], tr_c), a1=cat(cols[4], tr_a1), a2=cat(cols[5], tr_a2),
            stat=cat(cols[6], tr_stat), threshold=cat(cols[7], tr_thr),
            means=cat(cols[8], tr_mu), widths=cat(cols[9], tr_w),
        )
    return _finalize(setup, istate, counts, j_out, f_out, status, trace_obj)


def _run_reference(setup: _TrialSetup, rng) -> RunResult:
    """Plain-python loop over the same shared numerics; one noise draw per
    pull instead of chunked buffers.  Exists to pin down the kernel's
    bookkeeping; must stay bit-identical to _run_kernel."""
    amat, minv, bvec, counts, istate, perm = _init_state(setup, rng)
    jc, bc, sc, st, paired, lit = setup.codes()
    thr = setup.threshold
    thr_args = thr.kernel_args()
    m, k = setup.m, setup.k
    rows = []

    j_out = np.zeros(m, np.int64)
    f_out = np.zeros(2)
    status = None
    while True:
        t = int(istate[kernels.IS_T])
        level = kernels.threshold_value(thr.code, max(t, 1), *thr_args)
        mu, wmat, bmat, g, t1 = kernels.round_quantities(
            setup.xt, setup.xmat, minv, bvec, level, setup.sigma, paired)

        if setup.monitor and istate[kernels.IS_VFOUND] == 0:
            hit = False
            for i in range(k):
                if hit:
                    break
                for j in range(k):
                    if i != j and setup.mu_true[i] - setup.mu_true[j] > bmat[i, j]:
                        istate[kernels.IS_VFOUND] = 1
                        istate[kernels.IS_VT] = t
                        istate[kernels.IS_VI] = i
                        istate[kernels.IS_VJ] = j
                        hit = True
                        break

        if jc == kernels.J_TOP_M_EMPIRICAL:
            jset = kernels.topm_set(mu, m, perm, 0)
        else:
            scores = np.empty(k)
            for j in range(k):
                scores[j] = kernels.mth_largest_excluding(bmat[:, j], j, m)
            jset = kernels.topm_set(scores, m, perm, 1)
        in_j = np.zeros(k, np.uint8)
        in_j[jset] = 1
        out_j = (1 - in_j).astype(np.uint8)

        bval = np.full(k, -np.inf)
        for j in jset:
            if bc == kernels.B_MAX_OVER_OUTSIDE:
                best = -np.inf
                for i in range(k):
                    if out_j[i] == 1 and bmat[i, j] > best:
                        best = bmat[i, j]
                bval[j] = best
            else:
                bval[j] = kernels.mth_largest_excluding(bmat[:, j], j, m)
        b_arm = int(kernels.argbest(bval, in_j, perm, 1))
        c_arm = int(kernels.argbest(np.ascontiguousarray(bmat[:, b_arm]),
                                    out_j, perm, 1))

        if st == kernels.STOP_LUCB:
            stat = float(bmat[c_arm, b_arm])
        else:
            stat = -np.inf
            for j in jset:
                v = kernels.mth_largest_excluding(bmat[:, j], j, m)
                if v > stat:
                    stat = v
            stat = float(stat)

        stopped = stat <= setup.epsilon
        truncated = (not stopped) and t >= setup.max_rounds
        row = None
        if setup.trace:
            row = dict(t=t, J=np.array(jset), b=b_arm, c=c_arm, a1=-1, a2=-1,
                       stat=stat, thr=float(level), mu=mu.copy(), w=wmat.copy())
            rows.append(row)
        if stopped or truncated:
            j_out[:] = jset
            f_out[0] = stat
            f_out[1] = level
            status = kernels.STOPPED if stopped else kernels.TRUNCATED
            break

        a1, a2 = -1, -1
        if sc == kernels.SEL_LARGEST_VARIANCE:
            gb, gc_ = g[b_arm, b_arm], g[c_arm, c_arm]
            a1 = b_arm if (gb > gc_ or (gb == gc_ and perm[b_arm] < perm[c_arm])) else c_arm
        elif sc == kernels.SEL_BOTH_ARMS:
            a1, a2 = b_arm, c_arm
        else:
            use_greedy = sc == kernels.SEL_GREEDY
            if sc == kernels.SEL_OPTIMIZED:
                lo, hi = min(b_arm, c_arm), max(b_arm, c_arm)
                if setup.wok[lo, hi] == 1:
                    l1v = setup.wl1[lo, hi]
                    best, best_score = -1, 0.0
                    for a in range(k):
                        wa = setup.wstar[lo, hi, a]
                        if b_arm > c_arm:
                            wa = -wa
                        if lit == 1:
                            if wa > 0.0:
                                scv = counts[a] * l1v / wa
                                if best < 0 or scv > best_score or (
                                    scv == best_score and perm[a] < perm[best]
                                ):
                                    best, best_score = a, scv
                        else:
                            if wa != 0.0:
                                scv = counts[a] * l1v / abs(wa)
                                if best < 0 or scv < best_score or (
                                    scv == best_score and perm[a] < perm[best]
                                ):
                                    best, best_score = a, scv
                    if best >= 0:
                        a1 = best
                    else:
                        use_greedy = True
                else:
                    use_greedy = True
            if use_greedy and a1 < 0:
                y = setup.xt[b_arm] - setup.xt[c_arm]
                vmv = g[b_arm, b_arm] + g[c_arm, c_arm] - 2.0 * g[b_arm, c_arm]
                proj = t1 @ y
                vals = np.empty(k)
                for a in range(k):
                    vals[a] = vmv - proj[a] * proj[a] / (1.0 + g[a, a])
                a1 = int(kernels.argbest(vals, np.ones(k, np.uint8), perm, 0))

        if row is not None:
            row["a1"], row["a2"] = a1, a2

        # one scalar draw per pull, same stream order as the buffered kernel
        if setup.law == kernels.LAW_GAUSSIAN:
            u = rng.standard_normal()
        else:
            u = rng.random()
        kernels.apply_pull(a1, u, setup.law, setup.mu_arms, setup.table,
                           setup.table_len, setup.sigma, setup.xt, amat, minv,
                           bvec, counts, istate, setup.recompute_every)
        if a2 >= 0:
            if setup.law == kernels.LAW_GAUSSIAN:
                u = rng.standard_normal()
            else:
                u = rng.random()
            kernels.apply_pull(a2, u, setup.law, setup.mu_arms, setup.table,
                               setup.table_len, setup.sigma, setup.xt, amat,
                               minv, bvec, counts, istate, setup.recompute_every)

    trace_obj = None
    if setup.trace:
        nrows = len(rows)
        trace_obj = Trace(
            t=np.array([r["t"] for r in rows], np.int64),
            J=(np.stack([r["J"] for r in rows])
               if nrows else np.empty((0, m), np.int64)),
            b=np.array([r["b"] for r in rows], np.int64),
            c=np.array([r["c"] for r in rows], np.int64),
            a1=np.array([r["a1"] for r in rows], np.int64),
            a2=np.array([r["a2"] for r in rows], np.int64),
            stat=np.array([r["stat"] for r in rows]),
            threshold=np.array([r["thr"] for r in rows]),
            means=(np.stack([r["mu"] for r in rows])
                   if nrows else np.empty((0, k))),
            widths=(np.stack([r["w"] for r in rows])
                    if nrows else np.empty((0, k, k))),
        )
    return _finalize(setup, istate, counts, j_out, f_out, status, trace_obj)


def run_trial(spec: AlgorithmSpec, instance: Instance, m: int, epsilon: float,
              delta: float, seed, max_rounds: int = 10_000_000, *,
              lam: Optional[float] = None, threshold_kind: Optional[str] = None,
              trace: bool = False, monitor: Optional[bool] = None,
              engine: str = "kernel", recompute_every: int = 1000,
              design_cache=None) -> RunResult:
    """One independent identification trial.

    seed feeds numpy's default_rng; the harness derives per-trial streams as
    (master_seed, trial_index).  monitor=None enables concentration-event
    monitoring whenever the instance's true means are known.
    """
    setup = _TrialSetup(spec, instance, m, epsilon, delta, seed, max_rounds,
                        lam, threshold_kind, trace, monitor, recompute_every,
                        design_cache)
    rng = np.random.default_rng(seed)
    if engine == "kernel":
        return _run_kernel(setup, rng)
    if engine == "reference":
        return _run_reference(setup, rng)
    raise ConfigError(f"unknown engine {engine!r}")
