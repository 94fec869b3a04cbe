"""Network parameters and transmission-scheme definitions.

All quantities are in linear units: densities per m^2, distances in meters,
powers in linear scale (not dB).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from typing import Callable


@dataclass(frozen=True)
class NetworkParams:
    """Scalar model parameters of the ad hoc network.

    lam      interferer density per m^2
    alpha    pathloss exponent (> 2, else aggregate interference diverges)
    D        transmitter-receiver link distance in meters
    rho      per-stream transmit power
    eta      background noise power
    beta     target SINR (linear)
    epsilon  outage constraint in (0, 1)
    M        transmit antennas
    N        receive antennas
    K        simultaneously served receivers (1 <= K <= M)
    """

    lam: float = 1e-4
    alpha: float = 4.0
    D: float = 10.0
    rho: float = 1.0
    eta: float = 0.0
    beta: float = 3.0
    epsilon: float = 0.1
    M: int = 1
    N: int = 1
    K: int = 1

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.alpha <= 2:
            raise ValueError(f"alpha must be > 2, got {self.alpha}")
        if self.D <= 0:
            raise ValueError(f"D must be > 0, got {self.D}")
        if self.rho <= 0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if self.eta < 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if self.M < 1 or self.N < 1 or self.K < 1:
            raise ValueError("M, N, K must be positive integers")
        if self.K > self.M:
            raise ValueError(f"K={self.K} exceeds transmit antennas M={self.M}")

    @property
    def eta_over_rho(self) -> float:
        return self.eta / self.rho

    @property
    def zeta(self) -> float:
        """SINR threshold scaled by pathloss at the link distance."""
        return self.beta * self.D**self.alpha

    def replace(self, **changes) -> "NetworkParams":
        return dataclasses.replace(self, **changes)


class Scheme(Enum):
    """Transmission/reception strategies with their distributional laws.

    Each scheme fixes two laws used by both the analytic formulas and the
    simulator: the signal-gain law of the typical link (Gamma shape, or max
    of N unit exponentials for antenna selection) and the shape of the
    Gamma-distributed interference mark attached to each Poisson interferer.
    Everything else that differs between schemes is one row of the spec
    table below; the methods here read it.
    """

    DPC_MIMO_UB = "dpc-mimo-ub"
    DPC_MISO = "dpc-miso"
    ZF_MULTI = "zf-multi"
    ZF_RXZF = "zf-rxzf"
    ZF_ANTSEL = "zf-antsel"
    ZF_MISO = "zf-miso"
    BD_UB = "bd-ub"
    SISO_BASELINE = "siso"

    @classmethod
    def from_name(cls, name: str) -> "Scheme":
        for s in cls:
            if s.value == name:
                return s
        valid = ", ".join(s.value for s in cls)
        raise ValueError(f"unknown scheme {name!r}; valid schemes: {valid}")

    @property
    def spec(self) -> "SchemeSpec":
        return _SPECS[self]

    def check_feasible(self, p: NetworkParams) -> None:
        """Raise ValueError if the antenna configuration is infeasible."""
        for holds, message in _SPECS[self].feasibility:
            if not holds(p):
                raise ValueError(message.format(name=self.value, p=p))

    def signal_dof(self, p: NetworkParams) -> int:
        """Shape of the Gamma(d, 1) signal-gain law.

        For ZF_ANTSEL the signal is the max of N unit exponentials, not a
        Gamma variate; this returns N there (callers that need the order
        statistic must branch on ``is_order_statistic``).
        """
        return _SPECS[self].signal_dof(p)

    @property
    def is_order_statistic(self) -> bool:
        return _SPECS[self].density_route == "order-statistic"

    def mark_shape(self, p: NetworkParams) -> int:
        """Shape of the Gamma(m, 1) interference-mark law."""
        return _SPECS[self].mark_shape(p)

    def default_config(self, antennas: int) -> tuple[int, int, int]:
        """(M, N, K) for an antenna-sweep point (matched-antenna conventions)."""
        return _SPECS[self].default_config(antennas)


@dataclass(frozen=True)
class SchemeSpec:
    """One row of the scheme table: all that sets a scheme apart.

    feasibility     (condition, message) pairs checked in order; a message
                    is formatted with the scheme ``name`` and the params ``p``
    density_route   the closed form ``analytic.density_for_scheme`` runs:
                    "dpc-mimo" (small-eps | upper-bound | sandwich switch),
                    "gamma" (small-outage formula for a Gamma signal),
                    "gamma-bound" (the same formula read as an upper bound),
                    "exponential" (exact root for an Exp(1) signal) or
                    "order-statistic" (max of N unit exponentials)
    signal_dof      d of the Gamma(d, 1) signal law (N for antenna selection)
    mark_shape      m of the Gamma(m, 1) interference-mark law
    default_config  (M, N, K) of one antenna count in a sweep
    sweep_axis      (M, N) -> the antenna count a sweep's slope is fitted on
    exponent        theoretical ASE scaling exponent along that sweep, as a
                    function of delta = 2/alpha
    """

    feasibility: tuple[tuple[Callable[[NetworkParams], bool], str], ...]
    density_route: str
    signal_dof: Callable[[NetworkParams], int]
    mark_shape: Callable[[NetworkParams], int]
    default_config: Callable[[int], tuple[int, int, int]]
    sweep_axis: Callable[[int, int], int]
    exponent: Callable[[float], float]


_K_IS_M = (lambda p: p.K == p.M,
           "{name} serves K = M receivers, got K={p.K}, M={p.M}")
_N_IS_1 = (lambda p: p.N == 1, "{name} requires N = 1, got N={p.N}")
_FULL_LOAD = (lambda p: p.M >= p.K * p.N,
              "{name} requires M >= K*N, got M={p.M}, K={p.K}, N={p.N}")
_N_ABOVE_M = (lambda p: p.N > p.M, "{name} requires N > M, got M={p.M}, N={p.N}")
_SINGLE = (lambda p: p.M == 1 and p.N == 1 and p.K == 1,
           "siso baseline requires M = N = K = 1")

_SPECS = {
    Scheme.DPC_MIMO_UB: SchemeSpec(
        feasibility=(_K_IS_M,), density_route="dpc-mimo",
        signal_dof=lambda p: p.M * p.N, mark_shape=lambda p: p.M,
        default_config=lambda a: (a, a, a), sweep_axis=lambda m, n: m,
        exponent=lambda delta: 1.0 + delta),
    Scheme.DPC_MISO: SchemeSpec(
        feasibility=(_N_IS_1, _K_IS_M), density_route="gamma",
        signal_dof=lambda p: p.M, mark_shape=lambda p: p.M,
        default_config=lambda a: (a, 1, a), sweep_axis=lambda m, n: m,
        exponent=lambda delta: 1.0),
    Scheme.ZF_MULTI: SchemeSpec(
        feasibility=(_FULL_LOAD,), density_route="gamma",
        signal_dof=lambda p: p.M - p.K * p.N + 1, mark_shape=lambda p: p.K * p.N,
        # fully loaded M = KN: the user count grows, two antennas each
        default_config=lambda a: (2 * a, 2, a), sweep_axis=lambda m, n: m,
        exponent=lambda delta: 1.0 - delta),
    Scheme.ZF_RXZF: SchemeSpec(
        feasibility=(_N_ABOVE_M,), density_route="gamma",
        signal_dof=lambda p: p.N - p.M + 1, mark_shape=lambda p: p.M,
        default_config=lambda a: (a, 2 * a, 1), sweep_axis=lambda m, n: m,
        exponent=lambda delta: 1.0 - delta),
    Scheme.ZF_ANTSEL: SchemeSpec(
        feasibility=(_K_IS_M,), density_route="order-statistic",
        signal_dof=lambda p: p.N, mark_shape=lambda p: p.M,
        default_config=lambda a: (a, a, a), sweep_axis=lambda m, n: m,
        exponent=lambda delta: 1.0),
    Scheme.ZF_MISO: SchemeSpec(
        feasibility=(_N_IS_1, _K_IS_M), density_route="exponential",
        signal_dof=lambda p: 1, mark_shape=lambda p: p.M,
        default_config=lambda a: (a, 1, a), sweep_axis=lambda m, n: m,
        exponent=lambda delta: 1.0 - delta),
    Scheme.BD_UB: SchemeSpec(
        feasibility=(_FULL_LOAD,), density_route="gamma-bound",
        signal_dof=lambda p: p.N * p.M - (p.K - 1) * p.N**2, mark_shape=lambda p: p.K,
        # two served users at full load M = KN; sweep and exponent are in N
        default_config=lambda a: (2 * a, a, 2), sweep_axis=lambda m, n: n,
        exponent=lambda delta: 2.0 * delta),
    Scheme.SISO_BASELINE: SchemeSpec(
        feasibility=(_SINGLE,), density_route="exponential",
        signal_dof=lambda p: 1, mark_shape=lambda p: 1,
        default_config=lambda a: (1, 1, 1), sweep_axis=lambda m, n: m,
        exponent=lambda delta: 0.0),
}
