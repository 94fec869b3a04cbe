"""Poisson interferer fields, Rayleigh channels, precoders, SINR samples.

Channel entries are i.i.d. circularly-symmetric complex Gaussian with unit
variance per complex entry, so |h|^2 is a unit-mean exponential. All sampling
is stateless given an explicit numpy Generator; callers own stream derivation.

Power convention: per-stream transmit power rho (the sqrt(P/M) factors of the
received-signal model are absorbed into rho), so the signal gain and mark
laws match their stated Gamma models exactly and rho cancels at eta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .network import NetworkParams, Scheme

ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class FieldRealization:
    """One sampled Poisson field of interferer locations on a disc."""

    positions: np.ndarray  # (n, 2) meters, centered at the typical receiver
    window_radius: float
    density: float

    @property
    def count(self) -> int:
        return self.positions.shape[0]

    @property
    def radii(self) -> np.ndarray:
        return np.hypot(self.positions[:, 0], self.positions[:, 1])


@dataclass(frozen=True)
class PrecoderSet:
    """Unit-norm beamformers (columns) or per-user BD matrices."""

    scheme: Scheme
    beamformers: np.ndarray | None = None          # (M, S) unit-norm columns
    gains: np.ndarray | None = None                # per-stream |h w|^2
    bd_matrices: tuple[np.ndarray, ...] = ()       # per-user (M, M-(K-1)N)
    effective_channels: tuple[np.ndarray, ...] = ()  # per-user G_k = H_k W_k
    extras: dict = field(default_factory=dict)


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Complex Gaussian matrix, unit variance per complex entry."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def default_window_radius(params: NetworkParams) -> float:
    """Simulation disc radius: max(10 / sqrt(lam), 100 D)."""
    r_density = 10.0 / math.sqrt(params.lam) if params.lam > 0 else 0.0
    return max(r_density, 100.0 * params.D)


def sample_field(lam: float, window_radius: float,
                 rng: np.random.Generator) -> FieldRealization:
    """Poisson(lam * pi * R^2) points uniform on the disc of radius R.

    The typical transmitter at distance D is excluded from the field
    (Slivnyak: conditioning on it leaves the interferers a PPP).
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if window_radius <= 0:
        raise ValueError(f"window_radius must be > 0, got {window_radius}")
    n = rng.poisson(lam * math.pi * window_radius**2)
    r = window_radius * np.sqrt(rng.random(n))
    phi = 2.0 * math.pi * rng.random(n)
    positions = np.column_stack((r * np.cos(phi), r * np.sin(phi)))
    return FieldRealization(positions=positions, window_radius=window_radius,
                            density=lam)


def zf_precoder(stacked_channels: np.ndarray, scheme: Scheme = Scheme.ZF_MISO) -> PrecoderSet:
    """Column-normalized pseudo-inverse beamformers for a row-channel stack.

    ``stacked_channels`` is S x M (S <= M) with one row per nulled stream.
    Stream s sees gain |h_s w_s|^2 = 1 / ||pinv column s||^2, distributed
    Gamma(M - S + 1, 1) for i.i.d. complex Gaussian rows.
    """
    stack = np.asarray(stacked_channels)
    s_count, m = stack.shape
    if s_count > m:
        raise ValueError(f"row count {s_count} exceeds antenna count {m}")
    if np.linalg.matrix_rank(stack) < s_count:
        raise ValueError("rank-deficient channel stack; resample the channels")
    raw = np.linalg.pinv(stack)              # (M, S), rows of stack map to e_s
    norms = np.linalg.norm(raw, axis=0)
    beamformers = raw / norms
    gains = 1.0 / norms**2
    return PrecoderSet(scheme=scheme, beamformers=beamformers, gains=gains)


def bd_precoder(channels: list[np.ndarray], scheme: Scheme = Scheme.BD_UB) -> PrecoderSet:
    """Null-space (SVD) block-diagonalization precoders.

    ``channels`` holds K matrices of shape N x M with M >= KN. W_k is an
    orthonormal basis of the null space of the other users' stacked rows;
    G_k = H_k W_k is the effective N x (M - (K-1)N) channel. Reports the
    squared max singular value and squared Frobenius norm of each G_k.
    """
    k_users = len(channels)
    n, m = channels[0].shape
    if m < k_users * n:
        raise ValueError(f"BD requires M >= K*N, got M={m}, K={k_users}, N={n}")
    matrices, effective, mu2, frob2 = [], [], [], []
    for k in range(k_users):
        others = [channels[j] for j in range(k_users) if j != k]
        if others:
            stack = np.vstack(others)
            _, _, vh = np.linalg.svd(stack, full_matrices=True)
            w = vh[stack.shape[0]:].conj().T      # (M, M-(K-1)N)
        else:
            w = np.eye(m, dtype=complex)
        g = channels[k] @ w
        matrices.append(w)
        effective.append(g)
        sv = np.linalg.svd(g, compute_uv=False)
        mu2.append(float(sv[0] ** 2))
        frob2.append(float(np.linalg.norm(g) ** 2))
    return PrecoderSet(
        scheme=scheme,
        bd_matrices=tuple(matrices),
        effective_channels=tuple(effective),
        extras={"mu2_max": np.array(mu2), "frob2": np.array(frob2)},
    )


def signal_gain(scheme: Scheme, params: NetworkParams, rng: np.random.Generator,
                explicit: bool = False) -> float:
    """Typical-link signal power H0 under the scheme's law.

    With ``explicit`` the gain is produced by actually constructing channels
    and precoders; otherwise it is drawn from the scheme's distributional law
    (identical in law for the constructive schemes, a surrogate for DPC/BD).
    """
    if not explicit:
        if scheme.is_order_statistic:
            return float(rng.standard_exponential(params.N).max())
        return float(rng.gamma(scheme.signal_dof(params), 1.0))

    m, n, k = params.M, params.N, params.K
    if scheme is Scheme.DPC_MIMO_UB:
        h = crandn(rng, n, m)
        return float(np.linalg.norm(h) ** 2)
    if scheme in (Scheme.DPC_MISO,):
        h = crandn(rng, m)
        return float(np.linalg.norm(h) ** 2)
    if scheme is Scheme.SISO_BASELINE:
        return float(abs(crandn(rng, 1)[0]) ** 2)
    if scheme is Scheme.ZF_MISO:
        stack = crandn(rng, m, m)            # K = M single-antenna receivers
        return float(zf_precoder(stack, scheme).gains[0])
    if scheme is Scheme.ZF_MULTI:
        stack = crandn(rng, k * n, m)
        return float(zf_precoder(stack, scheme).gains[0])
    if scheme is Scheme.ZF_RXZF:
        # receive ZF: project stream 0's N-dim channel onto the orthogonal
        # complement of the own transmitter's other M-1 stream channels
        h = crandn(rng, n, m)
        q, _ = np.linalg.qr(h[:, 1:])
        resid = h[:, 0] - q @ (q.conj().T @ h[:, 0])
        return float(np.linalg.norm(resid) ** 2)
    if scheme is Scheme.ZF_ANTSEL:
        return antsel_gain(params, rng, physical=False)
    if scheme is Scheme.BD_UB:
        channels = [crandn(rng, n, m) for _ in range(k)]
        return float(bd_precoder(channels, scheme).extras["frob2"][0])
    raise AssertionError(scheme)


def antsel_gain(params: NetworkParams, rng: np.random.Generator,
                physical: bool = False) -> float:
    """Antenna-selection signal gain.

    Model mode (default): max of N i.i.d. unit exponentials, the stated
    random-variable law. Physical mode: each of the K = M receivers selects
    its best antenna by channel norm, feeds that row back, and the
    transmitter zero-forces across users; returns stream 0's gain. The gap
    between the two is measured, not assumed.
    """
    if not physical:
        return float(rng.standard_exponential(params.N).max())
    m, n = params.M, params.N
    rows = []
    for _ in range(m):
        h = crandn(rng, n, m)
        best = int(np.argmax(np.linalg.norm(h, axis=1)))
        rows.append(h[best])
    return float(zf_precoder(np.array(rows), Scheme.ZF_ANTSEL).gains[0])


def interference_mark(scheme: Scheme, params: NetworkParams,
                      rng: np.random.Generator, explicit: bool = False) -> float:
    """Fading mark of one interferer: aggregate post-filter stream power.

    Explicit mode draws the receive-filtered interferer channel row
    g = u^H H_i (i.i.d. complex Gaussian by isotropy) and sums |g w_s|^2
    over the interferer's own stream precoders; otherwise the Gamma
    surrogate of the scheme's mark shape is drawn directly.
    """
    shape = scheme.mark_shape(params)
    if not explicit:
        return float(rng.gamma(shape, 1.0))

    m, n, k = params.M, params.N, params.K
    g = crandn(rng, m)
    if scheme is Scheme.SISO_BASELINE:
        return float(abs(g[0]) ** 2)
    if scheme is Scheme.ZF_MULTI:
        stack = crandn(rng, k * n, m)        # the interferer's own receivers
        w = zf_precoder(stack, scheme).beamformers
        return float(np.sum(np.abs(g @ w) ** 2))
    if scheme is Scheme.ZF_MISO:
        stack = crandn(rng, m, m)
        w = zf_precoder(stack, scheme).beamformers
        return float(np.sum(np.abs(g @ w) ** 2))
    if scheme is Scheme.BD_UB:
        channels = [crandn(rng, n, m) for _ in range(k)]
        pre = bd_precoder(channels, scheme)
        total = 0.0
        for w_k, g_k in zip(pre.bd_matrices, pre.effective_channels):
            _, _, vh = np.linalg.svd(g_k)
            beam = w_k @ vh[0].conj()        # top eigenmode, unit norm
            total += float(abs(g @ beam) ** 2)
        return total
    # DPC variants, antenna selection, receive ZF: M streams on a random
    # orthonormal frame
    q, r = np.linalg.qr(crandn(rng, m, m))
    q = q * (np.diag(r) / np.abs(np.diag(r)))   # Haar-correct phases
    return float(np.sum(np.abs(g @ q) ** 2))


def aggregate_interference(scheme: Scheme, params: NetworkParams,
                           fld: FieldRealization, rng: np.random.Generator,
                           explicit: bool = False) -> float:
    """Shot-noise sum Y = sum_i I_i |X_i|^{-alpha} over one field."""
    if fld.count == 0:
        return 0.0
    radii = fld.radii
    if explicit:
        marks = np.array([
            interference_mark(scheme, params, rng, explicit=True)
            for _ in range(fld.count)
        ])
    else:
        marks = rng.gamma(scheme.mark_shape(params), 1.0, size=fld.count)
    return float(np.sum(marks * radii ** (-params.alpha)))


def sinr_sample(scheme: Scheme, params: NetworkParams, rng: np.random.Generator,
                explicit: bool = False, window_radius: float | None = None) -> float:
    """One SINR realization: rho H0 D^-alpha / (rho Y + eta)."""
    scheme.check_feasible(params)
    radius = default_window_radius(params) if window_radius is None else window_radius
    fld = sample_field(params.lam, radius, rng)
    h0 = signal_gain(scheme, params, rng, explicit=explicit)
    y = aggregate_interference(scheme, params, fld, rng, explicit=explicit)
    eta_eff = params.eta_over_rho
    return h0 * params.D ** (-params.alpha) / (y + eta_eff) if (y + eta_eff) > 0 else math.inf


def zf_residual(stacked_channels: np.ndarray, precoders: PrecoderSet) -> float:
    """Largest cross-stream leakage |h_s w_t|, s != t."""
    cross = np.abs(np.asarray(stacked_channels) @ precoders.beamformers)
    np.fill_diagonal(cross, 0.0)
    return float(cross.max()) if cross.size else 0.0


def bd_residual(channels: list[np.ndarray], precoders: PrecoderSet) -> float:
    """Largest inter-user leakage ||H_j W_k||_F, j != k."""
    worst = 0.0
    for j, h in enumerate(channels):
        for k, w in enumerate(precoders.bd_matrices):
            if j != k:
                worst = max(worst, float(np.linalg.norm(h @ w)))
    return worst
