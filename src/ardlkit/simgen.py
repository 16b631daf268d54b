"""Seeded synthetic data-generating processes for validation experiments.

Every generator is bit-reproducible: innovations come from a PCG64
stream (seeded through numpy's SeedSequence) whose uniforms are mapped
through the inverse normal CDF. That transform pair is pinned so that a
fixture (kind, parameters, T, seed) names one dataset forever, on any
machine. Stationary processes discard a 100-observation burn-in.

Monte Carlo drivers derive per-replication seeds with derive_seed(seed, r),
which hashes (seed, r) through SeedSequence — replications are
independent streams and can run in any order or in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .dataio import Dataset, Frequency, TimeSeries
from .errors import InvalidParameters

BURN_IN = 100
_START_PERIOD = (2000, 1)


def gaussian_stream(seed: int, size: int) -> np.ndarray:
    """size iid standard normals: PCG64 uniforms through the inverse CDF."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    u = rng.random(size)
    return ndtri(np.maximum(u, 2.0 ** -54))


def derive_seed(seed: int, replication: int) -> int:
    """Deterministic per-replication seed, hash of (seed, replication)."""
    state = np.random.SeedSequence([int(seed), int(replication)])
    lo, hi = state.generate_state(2, dtype=np.uint64)
    return (int(hi) << 64) | int(lo)


def _ar_filter(innovations: np.ndarray, ar_coefs) -> np.ndarray:
    """y_t = sum_i ar_i y_{t-i} + innovations_t, zero initial conditions."""
    from scipy.signal import lfilter

    denom = np.concatenate([[1.0], -np.asarray(ar_coefs, dtype=np.float64)])
    return lfilter([1.0], denom, innovations)


def _dataset(columns: dict[str, np.ndarray], dependent: str) -> Dataset:
    series = {
        name: TimeSeries(name, Frequency.MONTHLY, _START_PERIOD, values)
        for name, values in columns.items()
    }
    roles = {name: ("dependent" if name == dependent else "regressor")
             for name in columns}
    return Dataset(series=series, roles=roles)


@dataclass(frozen=True)
class Dgp:
    """Base: every process has a length and a seed."""

    T: int
    seed: int

    def __post_init__(self):
        if self.T < 20:
            raise InvalidParameters(f"T must be >= 20, got {self.T}")


@dataclass(frozen=True)
class RandomWalk(Dgp):
    """y_t = drift + y_{t-1} + e_t from y_0 = 0. No burn-in."""

    drift: float = 0.0

    def generate(self) -> Dataset:
        e = gaussian_stream(self.seed, self.T)
        return _dataset({"Y": np.cumsum(self.drift + e)}, "Y")


@dataclass(frozen=True)
class Ar1(Dgp):
    """y_t = c + phi y_{t-1} + e_t, |phi| < 1, burn-in discarded."""

    phi: float = 0.5
    c: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not abs(self.phi) < 1.0:
            raise InvalidParameters(f"ar1 requires |phi| < 1, got {self.phi}")

    def generate(self) -> Dataset:
        e = gaussian_stream(self.seed, self.T + BURN_IN)
        y = _ar_filter(self.c + e, [self.phi])
        return _dataset({"Y": y[BURN_IN:]}, "Y")


@dataclass(frozen=True)
class CointegratedPair(Dgp):
    """Random-walk x with y error-correcting toward beta * x.

        x_t = x_{t-1} + sx eta_t
        y_t = y_{t-1} + adjustment (y_{t-1} - beta x_{t-1}) + sy eps_t

    adjustment must lie in (-2, 0) so the equilibrium gap is stable.
    Burn-in discarded.
    """

    beta: float = 3.0
    adjustment: float = -0.6
    noise_scales: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        super().__post_init__()
        if not -2.0 < self.adjustment < 0.0:
            raise InvalidParameters(
                f"adjustment must be in (-2, 0), got {self.adjustment}"
            )
        if min(self.noise_scales) <= 0.0:
            raise InvalidParameters("noise scales must be positive")

    def generate(self) -> Dataset:
        total = self.T + BURN_IN
        z = gaussian_stream(self.seed, 2 * total)
        sx, sy = self.noise_scales
        eta = sx * z[:total]
        eps = sy * z[total:]
        x = np.cumsum(eta)
        # Equilibrium gap u_t = y_t - beta x_t follows an AR(1) with
        # coefficient 1 + adjustment, driven by eps - beta eta.
        u = _ar_filter(eps - self.beta * eta, [1.0 + self.adjustment])
        y = u + self.beta * x
        return _dataset({"Y": y[BURN_IN:], "X": x[BURN_IN:]}, "Y")


@dataclass(frozen=True)
class ArdlProcess(Dgp):
    """y_t = const + sum phi_i y_{t-i} + sum theta_j x_{t-j} + e_t with a
    stationary AR(1) regressor x. Burn-in discarded."""

    phi: tuple[float, ...] = (0.5,)
    theta: tuple[float, ...] = (1.0,)
    const: float = 0.0
    x_ar: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        if not self.phi or not self.theta:
            raise InvalidParameters("phi and theta must be nonempty")
        if not abs(self.x_ar) < 1.0:
            raise InvalidParameters("x_ar must satisfy |x_ar| < 1")
        # stationarity: roots of 1 - phi_1 z - ... - phi_p z^p outside
        # the unit circle
        poly = np.concatenate([[-c for c in self.phi[::-1]], [1.0]])
        roots = np.roots(poly)
        if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-10:
            raise InvalidParameters(
                f"autoregressive polynomial not stationary: phi={self.phi}"
            )

    def generate(self) -> Dataset:
        total = self.T + BURN_IN
        z = gaussian_stream(self.seed, 2 * total)
        x = _ar_filter(z[:total], [self.x_ar])
        from scipy.signal import lfilter

        x_part = lfilter(list(self.theta), [1.0], x)
        y = _ar_filter(self.const + x_part + z[total:], list(self.phi))
        return _dataset({"Y": y[BURN_IN:], "X": x[BURN_IN:]}, "Y")


@dataclass(frozen=True)
class BreakModel(Dgp):
    """y_t = a + b x_t + sigma e_t with (a, b) switching at break_point.

    x is iid standard normal; the post-regime starts at 0-based index
    break_point. No burn-in (the process has no memory).
    """

    break_point: int = 100
    pre: tuple[float, float] = (0.0, 1.0)
    post: tuple[float, float] = (2.0, 2.0)
    sigma: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.break_point < self.T:
            raise InvalidParameters(
                f"break_point must be inside (0, {self.T}), "
                f"got {self.break_point}"
            )
        if self.sigma <= 0.0:
            raise InvalidParameters("sigma must be positive")

    def generate(self) -> Dataset:
        z = gaussian_stream(self.seed, 2 * self.T)
        x = z[:self.T]
        e = self.sigma * z[self.T:]
        a = np.where(np.arange(self.T) < self.break_point,
                     self.pre[0], self.post[0])
        b = np.where(np.arange(self.T) < self.break_point,
                     self.pre[1], self.post[1])
        return _dataset({"Y": a + b * x + e, "X": x}, "Y")


_KINDS = {
    "random_walk": RandomWalk,
    "ar1": Ar1,
    "cointegrated_pair": CointegratedPair,
    "ardl": ArdlProcess,
    "break_model": BreakModel,
}


def dgp_from_dict(payload: dict) -> Dgp:
    """Build a Dgp from a plain mapping, e.g. parsed simulate config."""
    payload = dict(payload)
    kind = payload.pop("kind", None)
    if kind not in _KINDS:
        raise InvalidParameters(
            f"unknown dgp kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    cls = _KINDS[kind]
    for tuple_field in ("noise_scales", "phi", "theta", "pre", "post"):
        value = payload.get(tuple_field)
        if isinstance(value, (list, tuple)):
            payload[tuple_field] = tuple(value)
    try:
        return cls(**payload)
    except TypeError as exc:
        raise InvalidParameters(f"bad parameters for {kind}: {exc}") from None


def generate(dgp: Dgp) -> Dataset:
    """Materialize a Dgp; identical inputs give identical datasets."""
    return dgp.generate()
