"""Bandit problem instances: features, ground truth, reward law, and the
generators for the experimental families (classic omega-instances, random
unit-norm features, canonical basis).

An instance is immutable after construction and freely shareable across
threads.  Arm ids are 0-based everywhere, including files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .errors import InstanceFormatError

GAUSSIAN_LINEAR = "gaussian-linear"
EMPIRICAL_TABLE = "empirical-table"
_LAWS = (GAUSSIAN_LINEAR, EMPIRICAL_TABLE)


class Instance:
    """Ground truth one trial runs against.

    features: (N, K) matrix, column a is x_a.  Truth is either a parameter
    vector theta (means are theta^T x_a) or an explicit mean vector mu for
    table-driven instances.  sigma is the sub-Gaussian noise scale (0 allowed
    for noiseless runs).
    """

    def __init__(self, features, sigma, theta=None, mu=None,
                 reward_law=GAUSSIAN_LINEAR, reward_table=None,
                 param_bound=None, name=""):
        x = np.array(features, dtype=np.float64)
        if x.ndim != 2:
            raise InstanceFormatError("features must be a 2-D matrix")
        n, k = x.shape
        if k < 2 or n < 1:
            raise InstanceFormatError(f"need K >= 2 arms and N >= 1, got K={k}, N={n}")
        sigma = float(sigma)
        if sigma < 0 or not math.isfinite(sigma):
            raise InstanceFormatError("sigma must be finite and >= 0")
        if theta is not None:
            theta = np.array(theta, dtype=np.float64)
            if theta.shape != (n,):
                raise InstanceFormatError(
                    f"theta has shape {theta.shape}, expected ({n},)"
                )
            derived = x.T @ theta
            if mu is not None:
                mu = np.array(mu, dtype=np.float64)
                if not np.array_equal(mu, derived):
                    raise InstanceFormatError(
                        "stored means do not match theta^T x_a exactly"
                    )
            mu = derived
        else:
            if mu is None:
                raise InstanceFormatError("instance needs theta or an explicit mu")
            mu = np.array(mu, dtype=np.float64)
            if mu.shape != (k,):
                raise InstanceFormatError(f"mu has shape {mu.shape}, expected ({k},)")
        if reward_law not in _LAWS:
            raise InstanceFormatError(f"unknown reward law {reward_law!r}")
        if reward_law == EMPIRICAL_TABLE:
            if reward_table is None or len(reward_table) != k:
                raise InstanceFormatError(
                    "empirical-table law needs one reward row per arm"
                )
            reward_table = [np.array(row, dtype=np.float64).ravel()
                            for row in reward_table]
            for a, row in enumerate(reward_table):
                if row.size == 0:
                    raise InstanceFormatError(f"empty reward table for arm {a}")
        elif reward_table is not None:
            raise InstanceFormatError("reward_table only valid for empirical-table law")

        norms = np.linalg.norm(x, axis=0)
        self.features = x
        self.sigma = sigma
        self.theta = theta
        self.mu = mu
        self.reward_law = reward_law
        self.reward_table = reward_table
        self.feature_bound = float(norms.max())
        if param_bound is not None:
            param_bound = float(param_bound)
            if theta is not None and param_bound < np.linalg.norm(theta) - 1e-12:
                raise InstanceFormatError("param_bound smaller than ||theta||")
        elif theta is not None:
            param_bound = float(np.linalg.norm(theta))
        self.param_bound = param_bound
        self.name = name

    @property
    def K(self) -> int:
        return self.features.shape[1]

    @property
    def N(self) -> int:
        return self.features.shape[0]

    def with_sigma(self, sigma: float) -> "Instance":
        """Copy of this instance with a different noise scale."""
        return Instance(self.features, sigma, theta=self.theta,
                        mu=None if self.theta is not None else self.mu,
                        reward_law=self.reward_law, reward_table=self.reward_table,
                        param_bound=self.param_bound, name=self.name)

    def __repr__(self) -> str:
        return (f"Instance(K={self.K}, N={self.N}, sigma={self.sigma}, "
                f"law={self.reward_law}, name={self.name!r})")


@dataclass(frozen=True)
class GapProfile:
    """Oracle view of an instance for a target set size m."""
    m: int
    true_top_m: tuple
    gaps: np.ndarray       # Delta_k = mu_k - mu_(m+1) inside the top set, mu_(m) - mu_k outside
    min_gap: float         # mu_(m) - mu_(m+1)


def gap_profile(instance_or_mu, m: int) -> GapProfile:
    """Gap profile from an instance or a raw mean vector."""
    mu = instance_or_mu.mu if isinstance(instance_or_mu, Instance) else np.asarray(
        instance_or_mu, dtype=np.float64)
    k = mu.shape[0]
    if not 1 <= m <= k - 1:
        raise InstanceFormatError(f"need 1 <= m <= K-1, got m={m}, K={k}")
    order = np.argsort(-mu, kind="stable")
    top = order[:m]
    mu_m = mu[order[m - 1]]
    mu_m1 = mu[order[m]]
    gaps = np.empty(k)
    in_top = np.zeros(k, dtype=bool)
    in_top[top] = True
    for a in range(k):
        gaps[a] = mu[a] - mu_m1 if in_top[a] else mu_m - mu[a]
    return GapProfile(m=m, true_top_m=tuple(sorted(int(a) for a in top)),
                      gaps=gaps, min_gap=float(mu_m - mu_m1))


def eps_top_set(mu, m: int, epsilon: float) -> set:
    """Arms whose mean is within epsilon of the m-th largest mean."""
    mu = np.asarray(mu, dtype=np.float64)
    mu_m = np.sort(mu)[::-1][m - 1]
    return {int(a) for a in range(mu.shape[0]) if mu[a] >= mu_m - epsilon}


def make_classic_instance(K: int, m: int, omega: float, sigma: float = 0.5) -> Instance:
    """The hard omega-instance family.

    x_1 = e_1; x_a = e_1 + e_a for a in 2..m; x_{m+1} = cos(w) e_1 + sin(w) e_{m+1};
    x_a = e_{a-1} beyond; theta = e_1.  Means are 1 (top m arms), cos(w), then 0,
    so the m-th gap is 1 - cos(w).
    """
    if K < 3:
        raise InstanceFormatError("classic instance needs K >= 3")
    if not 1 <= m <= K - 2:
        raise InstanceFormatError(f"classic instance needs 1 <= m <= K-2, got m={m}")
    if not 0 < omega < math.pi / 2:
        raise InstanceFormatError("omega must lie in (0, pi/2)")
    n = K - 1
    x = np.zeros((n, K))
    x[0, 0] = 1.0
    for a in range(1, m):           # arms 2..m, 0-based 1..m-1
        x[0, a] = 1.0
        x[a, a] = 1.0
    x[0, m] = math.cos(omega)
    x[m, m] = math.sin(omega)
    for a in range(m + 1, K):       # arms m+2..K, 0-based
        x[a - 1, a] = 1.0
    theta = np.zeros(n)
    theta[0] = 1.0
    return Instance(x, sigma, theta=theta, name=f"classic-K{K}-m{m}")


def make_random_unit_instance(K: int, N: int, D: float, seed,
                              sigma: float = 0.5) -> Instance:
    """Random features: i.i.d. Gaussian(0, D) entries, columns normalized to
    unit norm; theta = e_1, so the means are the first row."""
    if K < 2 or N < 1:
        raise InstanceFormatError("need K >= 2 and N >= 1")
    if D <= 0:
        raise InstanceFormatError("variance D must be positive")
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, math.sqrt(D), size=(N, K))
    norms = np.linalg.norm(x, axis=0)
    if np.any(norms == 0):  # pragma: no cover - probability zero
        raise InstanceFormatError("degenerate zero column sampled")
    x /= norms
    theta = np.zeros(N)
    theta[0] = 1.0
    return Instance(x, sigma, theta=theta, name=f"random-K{K}-N{N}")


def make_canonical_instance(mu, sigma: float = 0.5) -> Instance:
    """Classical bandit embedding: X = I_K, theta = mu."""
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 1 or mu.shape[0] < 2:
        raise InstanceFormatError("mean vector must have length >= 2")
    return Instance(np.eye(mu.shape[0]), sigma, theta=mu.copy(), name="canonical")


def make_table_instance(reward_rows, features=None, sigma: float = 0.5) -> Instance:
    """Bounded-reward instance driven by per-arm empirical reward tables.

    True means are the table row means.  Features default to the canonical
    basis.  Convenience for the synthetic bounded-reward experiments.
    """
    rows = [np.array(r, dtype=np.float64).ravel() for r in reward_rows]
    if any(r.size == 0 for r in rows):
        raise InstanceFormatError("every arm needs at least one stored reward")
    k = len(rows)
    if features is None:
        features = np.eye(k)
    mu = np.array([r.mean() for r in rows])
    return Instance(features, sigma, mu=mu, reward_law=EMPIRICAL_TABLE,
                    reward_table=rows, name="table")


def sample_reward(instance: Instance, arm: int, rng) -> float:
    """One reward draw for an arm under the instance's reward law: the
    trial's kernels.reward on a one-arm view, whose arm 0 is this arm."""
    k = instance.K
    if not 0 <= arm < k:
        raise InstanceFormatError(f"arm {arm} out of range [0, {k})")
    if instance.reward_law == GAUSSIAN_LINEAR:
        law, u, row = kernels.LAW_GAUSSIAN, rng.standard_normal(), np.zeros(1)
    else:
        law, u, row = kernels.LAW_TABLE, rng.random(), instance.reward_table[arm]
    return float(kernels.reward(0, u, law, instance.mu[arm:arm + 1],
                                row.reshape(1, -1), np.array([row.size]),
                                instance.sigma))


# ---------------------------------------------------------------------------
# file format: <name>.csv (arm_id,f1,...,fN[,mu]) + <name>.json sidecar
# ---------------------------------------------------------------------------


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".json")


def _rewards_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + "_rewards.csv")


def save_instance(instance: Instance, path) -> Path:
    """Write the CSV + JSON sidecar (+ rewards CSV when table-driven).

    Floats are serialized with repr, which round-trips binary64 exactly.
    """
    csv_path = Path(path)
    if csv_path.suffix != ".csv":
        csv_path = csv_path.with_suffix(".csv")
    n, k = instance.N, instance.K
    header = ["arm_id"] + [f"f{i+1}" for i in range(n)] + ["mu"]
    lines = [",".join(header)]
    for a in range(k):
        cells = [str(a)] + [repr(float(v)) for v in instance.features[:, a]]
        cells.append(repr(float(instance.mu[a])))
        lines.append(",".join(cells))
    csv_path.write_text("\n".join(lines) + "\n")

    rewards_name = None
    if instance.reward_table is not None:
        rp = _rewards_path(csv_path)
        rlines = []
        for a, row in enumerate(instance.reward_table):
            rlines.append(",".join([str(a)] + [repr(float(v)) for v in row]))
        rp.write_text("\n".join(rlines) + "\n")
        rewards_name = rp.name

    sidecar = {
        "sigma": instance.sigma,
        "theta": None if instance.theta is None else [float(v) for v in instance.theta],
        "reward_law": instance.reward_law,
        "param_bound": instance.param_bound,
        "reward_table": rewards_name,
    }
    _sidecar_path(csv_path).write_text(json.dumps(sidecar, indent=1) + "\n")
    return csv_path


def load_instance(path) -> Instance:
    """Read an instance written by save_instance (or by hand in that format)."""
    csv_path = Path(path)
    if not csv_path.exists():
        raise InstanceFormatError(f"no such instance file: {csv_path}")
    lines = [ln for ln in csv_path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise InstanceFormatError("empty instance file")
    header = [h.strip() for h in lines[0].split(",")]
    if header[0] != "arm_id":
        raise InstanceFormatError("header must start with arm_id")
    has_mu = header[-1] == "mu"
    feat_names = header[1:-1] if has_mu else header[1:]
    n = len(feat_names)
    if n < 1 or feat_names != [f"f{i+1}" for i in range(n)]:
        raise InstanceFormatError(f"malformed feature columns in header: {header}")

    rows = {}
    for ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise InstanceFormatError(
                f"row has {len(cells)} cells, header declares {len(header)}"
            )
        arm = int(cells[0])
        if arm in rows:
            raise InstanceFormatError(f"duplicate arm id {arm}")
        rows[arm] = [float(c) for c in cells[1:]]
    k = len(rows)
    if sorted(rows) != list(range(k)):
        raise InstanceFormatError("arm ids must be exactly 0..K-1")

    x = np.empty((n, k))
    mu = np.empty(k) if has_mu else None
    for a in range(k):
        vals = rows[a]
        x[:, a] = vals[:n]
        if has_mu:
            mu[a] = vals[n]

    sc_path = _sidecar_path(csv_path)
    if not sc_path.exists():
        raise InstanceFormatError(f"missing sidecar {sc_path.name}")
    sidecar = json.loads(sc_path.read_text())
    if "sigma" not in sidecar:
        raise InstanceFormatError("sidecar must declare sigma")
    theta = sidecar.get("theta")
    law = sidecar.get("reward_law", GAUSSIAN_LINEAR)
    table = None
    if sidecar.get("reward_table"):
        rp = csv_path.with_name(sidecar["reward_table"])
        if not rp.exists():
            raise InstanceFormatError(f"missing reward table file {rp.name}")
        table_rows = {}
        for ln in rp.read_text().splitlines():
            if not ln.strip():
                continue
            cells = ln.split(",")
            table_rows[int(cells[0])] = [float(c) for c in cells[1:]]
        if sorted(table_rows) != list(range(k)):
            raise InstanceFormatError("reward table must cover arms 0..K-1")
        table = [table_rows[a] for a in range(k)]
    if theta is None and mu is None:
        raise InstanceFormatError("file provides neither theta nor a mu column")

    return Instance(x, sidecar["sigma"], theta=theta, mu=mu, reward_law=law,
                    reward_table=table, param_bound=sidecar.get("param_bound"),
                    name=csv_path.stem)
