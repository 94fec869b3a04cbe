"""Rayleigh channels, stacked ZF/BD precoders and the constructed gain laws.

Channel entries are i.i.d. circularly-symmetric complex Gaussian with unit
variance per complex entry, so |h|^2 is a unit-mean exponential. All sampling
is stateless given an explicit numpy Generator; callers own stream derivation.

Every construction works on a stack: leading axes index independent links or
interferers, so one ``np.linalg`` call builds a whole block of precoders.
``zf_precoder`` and ``bd_precoder`` are single-stack views of the same code.

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
BLOCK_POINTS = 2048  # interferers per stacked precoder construction


@dataclass(frozen=True)
class PrecoderSet:
    """Unit-norm beamformers (columns) or per-user BD matrices."""

    beamformers: np.ndarray | None = None          # (M, S) unit-norm columns
    gains: np.ndarray | None = None                # per-stream |h w|^2
    bd_matrices: tuple[np.ndarray, ...] = ()       # per-user (M, M-(K-1)N)
    effective_channels: tuple[np.ndarray, ...] = ()  # per-user G_k = H_k W_k
    extras: dict = field(default_factory=dict)


def crandn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Complex Gaussian matrix, unit variance per complex entry."""
    parts = rng.standard_normal((*shape, 2))  # (real, imag) pairs, viewed in place
    parts *= math.sqrt(0.5)
    return parts.view(np.complex128)[..., 0]


def _power(x: np.ndarray, axis) -> np.ndarray:
    """Squared norm over ``axis``."""
    return np.sum(x.real**2 + x.imag**2, axis=axis)


def _hermitian(x: np.ndarray) -> np.ndarray:
    return x.conj().swapaxes(-1, -2)


def default_window_radius(params: NetworkParams) -> float:
    """Simulation disc radius: max(10 / sqrt(lam), 100 D)."""
    r_density = 10.0 / math.sqrt(params.lam) if params.lam > 0 else 0.0
    return max(r_density, 100.0 * params.D)


def zf_beams(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-norm ZF beams and stream gains of a stack of row channels.

    ``stack`` is (..., S, M) with S <= M and one row per nulled stream. The
    raw beams are the columns of inv(H) when H is square and of
    H^H (H H^H)^-1 otherwise; stream s sees gain |h_s w_s|^2 = 1 / ||raw
    column s||^2, distributed Gamma(M - S + 1, 1) for i.i.d. Gaussian rows.
    Returns beams (..., M, S) and gains (..., S).
    """
    s_count, m = stack.shape[-2:]
    if s_count == m:
        raw = np.linalg.inv(stack)
    else:
        herm = _hermitian(stack)
        raw = herm @ np.linalg.inv(stack @ herm)
    norms2 = _power(raw, axis=-2)
    raw /= np.sqrt(norms2)[..., None, :]
    return raw, 1.0 / norms2


def zf_precoder(stacked_channels: np.ndarray) -> PrecoderSet:
    """``zf_beams`` of one S x M row-channel stack, with its rank checked."""
    stack = np.asarray(stacked_channels)
    s_count, m = stack.shape
    if s_count > m:
        raise ValueError(f"row count {s_count} exceeds antenna count {m}")
    if np.linalg.matrix_rank(stack) < s_count:
        raise ValueError("rank-deficient channel stack; resample the channels")
    beamformers, gains = zf_beams(stack)
    return PrecoderSet(beamformers=beamformers, gains=gains)


def bd_blocks(channels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block-diagonalization null bases W_k and effective channels G_k.

    ``channels`` is (..., K, N, M) with M >= KN. W_k is an orthonormal basis
    of the null space of the other users' stacked rows, the trailing
    columns of the complete QR of their conjugate transpose; G_k = H_k W_k.
    Returns W (..., K, M, M - (K-1)N) and G (..., K, N, M - (K-1)N).
    """
    *lead, k_users, n, m = channels.shape
    if m < k_users * n:
        raise ValueError(f"BD requires M >= K*N, got M={m}, K={k_users}, N={n}")
    if k_users == 1:
        w = np.broadcast_to(np.eye(m, dtype=complex), (*lead, 1, m, m))
    else:
        others = [[j for j in range(k_users) if j != k] for k in range(k_users)]
        stack = channels[..., others, :, :].reshape(*lead, k_users, -1, m)
        q, _ = np.linalg.qr(_hermitian(stack), mode="complete")
        w = q[..., (k_users - 1) * n:]
    return w, channels @ w


def bd_beams(channels: np.ndarray) -> np.ndarray:
    """Each user's top-eigenmode unit-norm BD beam W_k v_k, as (..., M, K).

    v_k is the top right-singular vector of G_k, taken as G_k^H u_k with u_k
    the top eigenvector of the N x N Gram G_k G_k^H.
    """
    w, g = bd_blocks(channels)
    _, u = np.linalg.eigh(g @ _hermitian(g))
    beams = (w @ (_hermitian(g) @ u[..., -1:]))[..., 0]
    beams /= np.sqrt(_power(beams, axis=-1))[..., None]
    return beams.swapaxes(-1, -2)


def bd_precoder(channels: list[np.ndarray]) -> PrecoderSet:
    """``bd_blocks`` of one user set (K matrices of shape N x M), with the
    squared max singular value and squared Frobenius norm of each G_k."""
    w, g = bd_blocks(np.stack(channels))
    return PrecoderSet(
        bd_matrices=tuple(w),
        effective_channels=tuple(g),
        extras={"mu2_max": np.linalg.eigvalsh(g @ _hermitian(g))[:, -1],
                "frob2": _power(g, axis=(-2, -1))},
    )


def _selected_rows(params: NetworkParams, rng: np.random.Generator,
                   size: int) -> np.ndarray:
    """(size, M, M): each of K = M receivers' best antenna row by norm."""
    m, n = params.M, params.N
    h = crandn(rng, size, m, n, m)
    best = np.argmax(_power(h, axis=-1), axis=-1)
    return np.take_along_axis(h, best[..., None, None], axis=2)[:, :, 0]


def antsel_gain(params: NetworkParams, rng: np.random.Generator, size: int,
                physical: bool = False) -> np.ndarray:
    """``size`` antenna-selection signal gains.

    Model mode (default): max of N i.i.d. unit exponentials, the stated
    random-variable law. Physical mode: each of the K = M receivers selects
    its best antenna by channel norm, feeds that row back, and the
    transmitter zero-forces across users; returns stream 0's gain. The gap
    between the two is measured, not assumed.
    """
    if not physical:
        return rng.standard_exponential((size, params.N)).max(axis=1)
    return zf_beams(_selected_rows(params, rng, size))[1][:, 0]


def signal_gains(scheme: Scheme, params: NetworkParams, rng: np.random.Generator,
                 size: int) -> np.ndarray:
    """``size`` desired-link gains H0 on constructed channels and precoders.

    Antenna selection draws its model law (``antsel_gain``).
    """
    m, n, k = params.M, params.N, params.K
    if scheme is Scheme.ZF_ANTSEL:
        return antsel_gain(params, rng, size)
    if scheme in (Scheme.ZF_MISO, Scheme.ZF_MULTI):  # K*N nulled rows (K = M for MISO)
        return zf_beams(crandn(rng, size, k * n, m))[1][:, 0]
    if scheme is Scheme.ZF_RXZF:
        # receive ZF: project stream 0's N-dim channel onto the orthogonal
        # complement of the own transmitter's other M - 1 stream channels
        h = crandn(rng, size, n, m)
        q, _ = np.linalg.qr(h[..., 1:])
        return _power(h[..., :1] - q @ (_hermitian(q) @ h[..., :1]), axis=(-2, -1))
    if scheme is Scheme.BD_UB:
        _, g = bd_blocks(crandn(rng, size, k, n, m))
        return _power(g[:, 0], axis=(-2, -1))
    # DPC: the full N x M channel (N = 1 for dpc-miso, M = N = 1 for siso)
    return _power(crandn(rng, size, n * m), axis=-1)


def interference_marks(scheme: Scheme, params: NetworkParams,
                       rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` interferer fading marks: aggregate post-filter stream power.

    Each interferer's receive-filtered channel row g = u^H H_i is i.i.d.
    complex Gaussian by isotropy; its mark is sum_s |g w_s|^2 over its own
    unit-norm stream precoders. The ZF columns (``zf-miso``, ``zf-multi``,
    and ``zf-antsel`` on its selected rows) and the BD eigenmodes are not
    orthogonal, so those marks have mean equal to the stream count but are
    not Gamma. DPC and receive-ZF transmitters send M streams on an
    orthonormal frame, whose summed power is exactly ||g||^2.
    """
    m, n, k = params.M, params.N, params.K
    g = crandn(rng, size, 1, m)
    if scheme in (Scheme.ZF_MISO, Scheme.ZF_MULTI):
        beams = zf_beams(crandn(rng, size, k * n, m))[0]
    elif scheme is Scheme.ZF_ANTSEL:
        beams = zf_beams(_selected_rows(params, rng, size))[0]
    elif scheme is Scheme.BD_UB:
        beams = bd_beams(crandn(rng, size, k, n, m))
    else:
        return _power(g, axis=(-2, -1))
    return _power(g @ beams, axis=(-2, -1))


def sinr_samples(scheme: Scheme, params: NetworkParams, rng: np.random.Generator,
                 size: int) -> np.ndarray:
    """``size`` SINR realizations rho H0 D^-alpha / (rho Y + eta).

    Each trial draws Poisson(lam pi R^2) interferers uniform on the disc of
    radius R = ``default_window_radius`` (squared radii R^2 U; the typical
    transmitter is excluded, by Slivnyak) and a desired-link gain H0. Marks
    are drawn ``BLOCK_POINTS`` interferers at a time and summed per trial
    into the shot noise Y, so memory is O(block) whatever the trial count.
    A trial with neither interference nor noise has SINR = inf.
    """
    scheme.check_feasible(params)
    radius = default_window_radius(params)
    ends = rng.poisson(params.lam * math.pi * radius**2, size=size).cumsum()
    h0 = signal_gains(scheme, params, rng, size)
    total, shot = int(ends[-1]), np.full(size, params.eta_over_rho)
    for start in range(0, total, BLOCK_POINTS):
        points = np.arange(start, min(start + BLOCK_POINTS, total))
        contrib = (radius**2 * rng.random(points.size)) ** (-params.alpha / 2.0)
        contrib *= interference_marks(scheme, params, rng, points.size)
        shot += np.bincount(np.searchsorted(ends, points, side="right"),
                            weights=contrib, minlength=size)
    with np.errstate(divide="ignore"):
        return h0 * params.D ** (-params.alpha) / shot


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
