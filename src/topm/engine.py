"""The generic gap-index identification loop with pluggable rule slots.

One round: compute the index matrix, pick the candidate set J(t), the anchor
b_t inside it, the challenger c_t outside it, check the stopping statistic,
select the arm(s) to pull, update the estimator.  The five named presets
(lucb, ugape, lingape, m-lingape, lingifa) are particular rule assignments,
one row each of the _PRESETS table.

run_trial drives the compiled chunked kernel, kernels.trial_chunk, by default.
engine="reference" runs a plain-python loop whose rounds compose the library
rule functions below (compute_bt, compute_ct, stopping_stat and the private
_candidates and _select behind compute_Jt and select_arm); it shares no rule
code with trial_chunk, only the numerics both call: round_quantities for the
index matrix, and kernels.reward then kernels.record_pull for each pull, the
same update EstimatorState makes.  Both consume the per-trial random stream
in the same order (tie-break permutation, then one noise value per pull), so
they produce bit-identical results, which is a tested property rather than a
design hope: each form checks the other.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import ConfigError, DimensionMismatch, InfeasibleDesign
from .estimator import EstimatorState
from .indices import (
    CLASSICAL, HEURISTIC, INDIVIDUAL, PAIRED, THEORETICAL, IndexConfig,
    ThresholdSpec, normalize_threshold_kind,
)
from .instances import (
    GAUSSIAN_LINEAR, Instance, eps_top_set, gap_profile,
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

# name -> (j_rule, b_rule, selection, stopping, index kind, threshold kind,
#          use_features)
_PRESETS = {
    "lucb": (J_TOP_M_EMPIRICAL, B_MAX_OVER_OUTSIDE, SEL_LARGEST_VARIANCE,
             STOP_LUCB, INDIVIDUAL, CLASSICAL, False),
    "ugape": (J_MIN_MAX_INDEX, B_MAX_OVER_OUTSIDE, SEL_LARGEST_VARIANCE,
              STOP_UGAPE, INDIVIDUAL, CLASSICAL, False),
    "lingape": (J_TOP_M_EMPIRICAL, B_MAX_OVER_OUTSIDE, SEL_GREEDY, STOP_LUCB,
                PAIRED, HEURISTIC, True),
    "m-lingape": (J_TOP_M_EMPIRICAL, B_MAX_OVER_OUTSIDE, SEL_GREEDY, STOP_LUCB,
                  PAIRED, HEURISTIC, True),
    "lingifa": (J_MIN_MAX_INDEX, B_MAX_OVER_MTH, SEL_LARGEST_VARIANCE,
                STOP_UGAPE, PAIRED, HEURISTIC, True),
}
PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class AlgorithmSpec:
    """One named algorithm: the four rule slots plus index configuration.

    use_features=False runs the classical (feature-blind) version through the
    canonical identity embedding with lambda = 0, whose design has no inverse
    until every arm has been pulled once.  So init_pass, the
    pull-every-arm-once pass, is derived: it runs exactly for feature-blind
    algorithms.  The threshold is bound per trial from the instance and
    delta, so index.threshold must be None; index.threshold_kind names the
    default kind.
    """

    name: str
    j_rule: str
    b_rule: str
    selection: str
    stopping: str
    index: IndexConfig
    use_features: bool = True

    def __post_init__(self):
        if self.j_rule not in _J_CODES:
            raise ConfigError(f"unknown j_rule {self.j_rule!r}")
        if self.b_rule not in _B_CODES:
            raise ConfigError(f"unknown b_rule {self.b_rule!r}")
        if self.selection not in _SEL_CODES:
            raise ConfigError(f"unknown selection rule {self.selection!r}")
        if self.stopping not in _STOP_CODES:
            raise ConfigError(f"unknown stopping rule {self.stopping!r}")
        if self.index.threshold is not None:
            raise ConfigError(
                "an algorithm's threshold is bound per trial; give its "
                "IndexConfig a threshold_kind, not a bound threshold"
            )

    @property
    def init_pass(self) -> bool:
        return not self.use_features

    def describe(self) -> str:
        return (f"{self.name}[J={self.j_rule}, b={self.b_rule}, "
                f"select={self.selection}, stop={self.stopping}, "
                f"index={self.index.kind}]")


def preset(name: str, *, selection: Optional[str] = None,
           j_rule: Optional[str] = None, b_rule: Optional[str] = None,
           stopping: Optional[str] = None, index_kind: Optional[str] = None,
           label: Optional[str] = None) -> AlgorithmSpec:
    """A named algorithm with optional per-slot overrides; an override left
    None keeps the preset's value."""
    key = name.strip().lower()
    if key not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    row = _PRESETS[key]
    overrides = (j_rule, b_rule, selection, stopping, index_kind)
    j, b, sel, stop, kind = (value if given is None else given
                             for value, given in zip(row, overrides))
    thr_kind, use_features = row[5:]
    return AlgorithmSpec(
        name=label or key, j_rule=j, b_rule=b, selection=sel, stopping=stop,
        index=IndexConfig(kind=kind, threshold_kind=thr_kind),
        use_features=use_features)


# ---------------------------------------------------------------------------
# rule operations (library form; the reference loop runs these, the kernel
# its own copy)
# ---------------------------------------------------------------------------


def _as_perm(perm, k: int) -> np.ndarray:
    if perm is None:
        return np.arange(k, dtype=np.int64)
    return np.asarray(perm, dtype=np.int64)


def _candidates(rule: str, means, B, m: int, perm) -> np.ndarray:
    """J(t) best first, the order the trace logs it."""
    if rule == J_TOP_M_EMPIRICAL:
        return kernels.topm_set(means, m, perm, 0)
    if rule == J_MIN_MAX_INDEX:
        B = np.asarray(B, dtype=np.float64)
        scores = np.empty(B.shape[0])
        for j in range(B.shape[0]):
            scores[j] = kernels.mth_largest_excluding(B[:, j], j, m)
        return kernels.topm_set(scores, m, perm, 1)
    raise ConfigError(f"unknown j_rule {rule!r}")


def _check_arms(arms, k: int) -> None:
    for arm in arms:
        if not 0 <= arm < k:
            raise DimensionMismatch(f"arm {arm} out of range [0, {k})")


def _check_m(m, k: int, what: str) -> None:
    if m is None:
        raise ConfigError(f"{what} needs m")
    if not 1 <= m <= k - 1:
        raise ConfigError(f"{what} needs 1 <= m <= K-1, got m={m}, K={k}")


def compute_Jt(rule: str, means, B, m: int, perm=None) -> np.ndarray:
    """Candidate set J(t): the m empirically best arms, or the m arms whose
    m-th largest incoming index is smallest."""
    means = np.ascontiguousarray(means, dtype=np.float64)
    k = means.shape[0]
    _check_m(m, k, "J(t)")
    return np.sort(_candidates(rule, means, B, m, _as_perm(perm, k)))


def compute_bt(rule: str, J, B, m: Optional[int] = None, perm=None) -> int:
    """Anchor arm in J maximizing its rule's score."""
    B = np.asarray(B, dtype=np.float64)
    k = B.shape[0]
    _check_arms(J, k)
    perm = _as_perm(perm, k)
    in_j = np.zeros(k, np.uint8)
    for j in J:
        in_j[j] = 1
    if in_j.sum() == k:
        raise ConfigError("J must leave at least one arm outside")
    if rule == B_MAX_OVER_MTH:
        _check_m(m, k, "max-over-mth b_rule")
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
            vals[j] = kernels.mth_largest_excluding(B[:, j], j, m)
        else:
            raise ConfigError(f"unknown b_rule {rule!r}")
    return int(kernels.argbest(vals, in_j, perm, 1))


def compute_ct(J, b: int, B, perm=None) -> int:
    """Challenger: the arm outside J with the largest index against b."""
    B = np.asarray(B, dtype=np.float64)
    k = B.shape[0]
    _check_arms((*J, b), k)
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
    """The quantity compared against epsilon each round.

    ugape's statistic is the largest m-th largest incoming index over J,
    scanned in arm order from -inf with a strict >, so a NaN score never
    replaces a number.
    """
    B = np.asarray(B, dtype=np.float64)
    _check_arms((*J, b, c), B.shape[0])
    if rule == STOP_LUCB:
        return float(B[c, b])
    if rule == STOP_UGAPE:
        _check_m(m, B.shape[0], "ugape stopping")
        stat = -np.inf
        for j in np.sort(np.asarray(J, dtype=np.int64)):
            v = kernels.mth_largest_excluding(B[:, j], j, m)
            if v > stat:
                stat = v
        return float(stat)
    raise ConfigError(f"unknown stopping rule {rule!r}")


def _select(rule: str, b: int, c: int, g, t1, xt, counts, perm, design):
    """(a1, a2) to pull for anchor b and challenger c; a2 is -1 except for
    the both-arms rule.

    g = X^T A^-1 X and t1 = X^T A^-1 (round_quantities' G and T1).  design
    is (w, l1) with X w = x_b - x_c, or None when the pair has no design;
    the optimized rule then, or on an empty support, falls back to greedy.
    """
    if rule == SEL_LARGEST_VARIANCE:
        gb, gc = g[b, b], g[c, c]
        return (b if gb > gc or (gb == gc and perm[b] < perm[c]) else c), -1
    if rule == SEL_BOTH_ARMS:
        return b, c
    if rule == SEL_OPTIMIZED and design is not None:
        w, l1 = design
        support = w != 0.0
        if support.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                score = counts * l1 / np.abs(w)
            return int(kernels.argbest(score, support.astype(np.uint8), perm,
                                       0)), -1
    y = xt[b] - xt[c]
    vmv = g[b, b] + g[c, c] - 2.0 * g[b, c]
    proj = t1 @ y
    vals = vmv - proj * proj / (1.0 + np.diagonal(g))
    return int(kernels.argbest(vals, np.ones(len(vals), np.uint8), perm, 0)), -1


def select_arm(rule: str, b: int, c: int, estimator: EstimatorState,
               design_solver=None, perm=None):
    """Arm(s) to pull given anchor b and challenger c.

    Returns an arm id, or the pair (b, c) for the both-arms rule.  The
    largest-variance comparison uses the inverse-design quadratic forms
    directly (equivalent to comparing widths, and still defined at sigma=0).
    design_solver(b, c) returns DesignWeights with X w = x_b - x_c, or
    raises InfeasibleDesign, which falls back to greedy.
    """
    if rule not in _SEL_CODES:
        raise ConfigError(f"unknown selection rule {rule!r}")
    _check_arms((b, c), estimator.K)
    if b == c:
        raise ConfigError("anchor and challenger must differ")
    perm = _as_perm(perm, estimator.K)
    t1 = estimator._xt @ estimator._require_design()
    g = t1 @ estimator.features
    design = None
    if rule == SEL_OPTIMIZED:
        if design_solver is None:
            raise ConfigError("optimized selection needs a design solver")
        try:
            dw = design_solver(b, c)
        except InfeasibleDesign:
            pass
        else:
            design = (np.asarray(dw.weights, dtype=np.float64), dw.l1)
    a1, a2 = _select(rule, b, c, g, t1, estimator._xt, estimator.counts, perm,
                     design)
    return (a1, a2) if rule == SEL_BOTH_ARMS else a1


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


# The memo's bound, in bytes of designs plus keys.  An entry holds K^3
# float64 of wstar: about 1 MB for wide-screen's K=50 matrix, under 1 KB at
# K=4.  16 MB keeps sixteen K=50 matrices, far more than one campaign or
# sweep revisits, and caps what a long run over many instances retains.
# The newest entry stays even when it alone passes the bound, so that a
# campaign at larger K still solves its designs once.
_PAIR_DESIGN_MEMO_BYTES = 16 << 20
_PAIR_DESIGN_MEMO: dict = {}  # least recently used first
_PAIR_DESIGN_LOCK = threading.Lock()


def _memo_entry_bytes(entry) -> int:
    key, designs = entry
    return len(key[1]) + sum(a.nbytes for a in designs)


def pair_designs(xmat: np.ndarray):
    """(wstar, wl1, wok) for every unordered pair, memoized per feature matrix.

    Eager rather than lazy: features are static, so precomputing all pairs
    once per matrix is equivalent to filling a cache on demand and keeps the
    compiled loop free of callbacks.  The memo evicts least recently used
    matrices past _PAIR_DESIGN_MEMO_BYTES; a matrix solved again gives the
    same bytes.
    """
    xmat = np.ascontiguousarray(xmat, dtype=np.float64)
    key = (xmat.shape, xmat.tobytes())
    with _PAIR_DESIGN_LOCK:
        hit = _PAIR_DESIGN_MEMO.pop(key, None)
        if hit is not None:
            _PAIR_DESIGN_MEMO[key] = hit
            return hit
    out = kernels.all_pair_designs(xmat, kernels.DESIGN_TOL)
    with _PAIR_DESIGN_LOCK:
        out = _PAIR_DESIGN_MEMO.pop(key, out)  # another thread may have stored it
        _PAIR_DESIGN_MEMO[key] = out
        total = sum(map(_memo_entry_bytes, _PAIR_DESIGN_MEMO.items()))
        while total > _PAIR_DESIGN_MEMO_BYTES and len(_PAIR_DESIGN_MEMO) > 1:
            oldest = next(iter(_PAIR_DESIGN_MEMO.items()))
            total -= _memo_entry_bytes(oldest)
            del _PAIR_DESIGN_MEMO[oldest[0]]
        return out


def _resolve_threshold(spec: AlgorithmSpec, threshold_kind: Optional[str],
                       delta: float, n_dim: int, feat_bound: float,
                       param_bound: Optional[float], lam: float, sigma: float,
                       k_arms: int) -> ThresholdSpec:
    """The trial's threshold, bound to its constants and delta.

    Its kind is the run-time threshold_kind when given, else the algorithm's
    index.threshold_kind, else heuristic.
    """
    if threshold_kind is None:
        threshold_kind = spec.index.threshold_kind or HEURISTIC
    kind = normalize_threshold_kind(threshold_kind)
    if kind == THEORETICAL and not spec.use_features:
        raise ConfigError(
            "the theoretical linear threshold needs lambda > 0, but "
            "feature-blind presets run the canonical embedding with "
            "lambda = 0; use the classical or heuristic threshold"
        )
    return ThresholdSpec(kind=kind, delta=delta, n_dim=n_dim,
                         feature_bound=feat_bound, param_bound=param_bound,
                         lam=lam, sigma=sigma, k_arms=k_arms)


class _TrialSetup:
    """Everything a trial loop needs, derived once from the arguments."""

    def __init__(self, spec: AlgorithmSpec, instance: Instance, m, epsilon,
                 delta, seed, max_rounds, lam, threshold_kind, trace, monitor,
                 recompute_every):
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
            if lam_eff <= 0:
                raise ConfigError("feature algorithms need lambda > 0")
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
            self.wstar, self.wl1, self.wok = pair_designs(self.xmat)
        else:
            self.wstar = np.zeros((1, 1, 1))
            self.wl1 = np.zeros((1, 1))
            self.wok = np.zeros((1, 1), np.uint8)

    def codes(self):
        s = self.spec
        return (_J_CODES[s.j_rule], _B_CODES[s.b_rule], _SEL_CODES[s.selection],
                _STOP_CODES[s.stopping], s.index.paired_code)

    def draw(self, rng, n: int) -> np.ndarray:
        if self.law == kernels.LAW_GAUSSIAN:
            return rng.standard_normal(n)
        return rng.random(n)


def _init_state(setup: _TrialSetup, rng):
    """The tie-break permutation, then the trial's estimator arrays.

    The arrays are an EstimatorState's.  A feature-blind algorithm (lambda
    = 0) first pulls every arm once in arm order through its update, which
    accumulates the design and inverts it once every arm is covered; the
    trial loop's Sherman-Morrison updates start afterwards.
    """
    perm = rng.permutation(setup.k).astype(np.int64)
    est = EstimatorState(setup.xmat, setup.sigma, setup.lam,
                         setup.recompute_every)
    if setup.spec.init_pass:
        draws = setup.draw(rng, setup.k)
        for a in range(setup.k):
            est.update(a, kernels.reward(a, draws[a], setup.law, setup.mu_arms,
                                         setup.table, setup.table_len,
                                         setup.sigma))
    return est.amat, est.minv, est.response, est.counts, est.istate, perm


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


def _trace(segments, m: int, k: int) -> Trace:
    """One Trace from row segments, each holding the Trace fields in order."""
    empty = [np.empty(shape, np.int64)
             for shape in ((0,), (0, m), (0,), (0,), (0,), (0,))]
    empty += [np.empty(shape) for shape in ((0,), (0,), (0, k), (0, k, k))]
    cols = list(zip(*segments)) or [()] * len(empty)
    return Trace(*(np.concatenate([e, *col]) for e, col in zip(empty, cols)))


def _run_kernel(setup: _TrialSetup, rng) -> RunResult:
    amat, minv, bvec, counts, istate, perm = _init_state(setup, rng)
    jc, bc, sc, st, paired = setup.codes()
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
    rows = (tr_t, tr_j, tr_b, tr_c, tr_a1, tr_a2, tr_stat, tr_thr, tr_mu, tr_w)
    segments = []

    def flush():
        nrows = int(tr_len[0])
        if nrows:
            segments.append(tuple(col[:nrows].copy() for col in rows))
        tr_len[0] = 0

    while True:
        status = kernels.trial_chunk(
            m, setup.epsilon, setup.max_rounds,
            jc, bc, sc, st, paired,
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
        trace_obj = _trace(segments, m, k)
    return _finalize(setup, istate, counts, j_out, f_out, status, trace_obj)


def _run_reference(setup: _TrialSetup, rng) -> RunResult:
    """Plain-python loop whose rounds compose the library rule functions
    (_candidates, compute_bt, compute_ct, stopping_stat, _select).

    It shares no rule code with kernels.trial_chunk, only the numerics both
    call (threshold_value, round_quantities, reward, record_pull), and draws
    one noise value per pull instead of reading chunked buffers.  It must stay
    bit-identical to _run_kernel, which makes it the independent check of
    the kernel's rules and bookkeeping.
    """
    amat, minv, bvec, counts, istate, perm = _init_state(setup, rng)
    spec, thr, m = setup.spec, setup.threshold, setup.m
    thr_args = thr.kernel_args()
    segments = []
    while True:
        t = int(istate[kernels.IS_T])
        level = kernels.threshold_value(thr.code, max(t, 1), *thr_args)
        mu, wmat, bmat, g, t1 = kernels.round_quantities(
            setup.xt, setup.xmat, minv, bvec, level, setup.sigma,
            spec.index.paired_code)

        if setup.monitor and istate[kernels.IS_VFOUND] == 0:
            # first pair (i, j), row by row, whose true gap exceeds its index
            low = setup.mu_true[:, None] - setup.mu_true[None, :] > bmat
            np.fill_diagonal(low, False)
            hits = np.argwhere(low)
            if hits.size:
                istate[[kernels.IS_VFOUND, kernels.IS_VT, kernels.IS_VI,
                        kernels.IS_VJ]] = (1, t, *hits[0])

        jset = _candidates(spec.j_rule, mu, bmat, m, perm)
        b_arm = compute_bt(spec.b_rule, jset, bmat, m, perm)
        c_arm = compute_ct(jset, b_arm, bmat, perm)
        stat = stopping_stat(spec.stopping, jset, b_arm, c_arm, bmat, m)
        stopped = stat <= setup.epsilon
        done = stopped or t >= setup.max_rounds
        a1 = a2 = -1
        if not done:
            design = None
            lo, hi = sorted((b_arm, c_arm))
            if spec.selection == SEL_OPTIMIZED and setup.wok[lo, hi] == 1:
                w = setup.wstar[lo, hi]  # solves X w = x_lo - x_hi
                design = (-w if b_arm > c_arm else w, setup.wl1[lo, hi])
            a1, a2 = _select(spec.selection, b_arm, c_arm, g, t1, setup.xt,
                             counts, perm, design)
        if setup.trace:
            segments.append(([t], [jset], [b_arm], [c_arm], [a1], [a2],
                             [stat], [level], [mu], [wmat]))
        if done:
            break

        # one scalar draw per pull, same stream order as the buffered kernel
        for a in (a1, a2):
            if a >= 0:
                u = (rng.standard_normal() if setup.law == kernels.LAW_GAUSSIAN
                     else rng.random())
                r = kernels.reward(a, u, setup.law, setup.mu_arms,
                                   setup.table, setup.table_len, setup.sigma)
                kernels.record_pull(a, r, setup.xt, amat, minv, bvec, counts,
                                    istate, setup.recompute_every)

    status = kernels.STOPPED if stopped else kernels.TRUNCATED
    trace_obj = _trace(segments, m, setup.k) if setup.trace else None
    return _finalize(setup, istate, counts, jset, (stat, level), status,
                     trace_obj)


def run_trial(spec: AlgorithmSpec, instance: Instance, m: int, epsilon: float,
              delta: float, seed, max_rounds: int = 10_000_000, *,
              lam: Optional[float] = None, threshold_kind: Optional[str] = None,
              trace: bool = False, monitor: Optional[bool] = None,
              engine: str = "kernel", recompute_every: int = 1000) -> RunResult:
    """One independent identification trial.

    seed feeds numpy's default_rng; the harness derives per-trial streams as
    (master_seed, trial_index).  threshold_kind overrides the algorithm's
    index.threshold_kind (heuristic when both are None).  monitor=None enables
    concentration-event monitoring whenever the instance's true means are
    known.  engine="kernel" runs kernels.trial_chunk, engine="reference" the
    plain-python loop over the rule functions; both give the same bytes.
    Optimized selection reads its designs from the pair_designs memo.
    """
    setup = _TrialSetup(spec, instance, m, epsilon, delta, seed, max_rounds,
                        lam, threshold_kind, trace, monitor, recompute_every)
    rng = np.random.default_rng(seed)
    if engine == "kernel":
        return _run_kernel(setup, rng)
    if engine == "reference":
        return _run_reference(setup, rng)
    raise ConfigError(f"unknown engine {engine!r}")
