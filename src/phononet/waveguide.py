"""Coupled-resonator-array channel: dispersion, continuum limit, losses.

The channel is a chain of identical resonators (frequency omega0, neighbour
coupling K = k/(m*omega0), spacing a).  In the tight-binding limit K << omega0
the band is omega_q ~= (omega0 + K) - K cos(q a), of width 2K, and mid-band
the dispersion is linear with sound speed c = K a.  Intrinsic damping
gamma0 of the individual resonators gives a phonon mean free path
l = c/gamma0 over which a propagating noise spectrum rethermalises:

    N(w, z) = exp(-z/l) N(w, 0) + n_th (1 - exp(-z/l)).

``simulate_lossy_chain`` solves the microscopic per-site Langevin equations
in the frequency domain and acts as the independent oracle for that law.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import NoiseSpectrum

__all__ = [
    "ChainSpec",
    "ContinuumChannel",
    "dispersion_exact",
    "dispersion_tight_binding",
    "continuum_parameters",
    "waveguide_coupling_rate",
    "propagate_spectrum",
    "simulate_lossy_chain",
]


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of a homogeneous coupled-resonator chain."""

    n_sites: int
    omega0: float
    coupling_K: float
    lattice_a: float = 1.0
    intrinsic_gamma0: float = 0.0
    bath_occupation: float = 0.0

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise ValidationError("chain needs n_sites >= 2")
        for field in ("omega0", "coupling_K", "lattice_a", "intrinsic_gamma0", "bath_occupation"):
            if not math.isfinite(getattr(self, field)):
                raise ValidationError(f"chain {field} must be finite")
        if self.omega0 <= 0 or self.coupling_K < 0 or self.lattice_a <= 0:
            raise ValidationError("omega0, lattice_a must be > 0 and K >= 0")
        if self.intrinsic_gamma0 < 0 or self.bath_occupation < 0:
            raise ValidationError("gamma0 and bath occupation must be >= 0")

    @property
    def band_center(self) -> float:
        """Centre of the tight-binding band, omega0 + K."""
        return self.omega0 + self.coupling_K


@dataclass(frozen=True)
class ContinuumChannel:
    """Linear-dispersion description of the chain mid-band."""

    sound_speed: float        # c = K a
    omega_offset: float       # omega0 - (pi/2 - 1) K
    bandwidth: float          # 2 K
    mean_free_path: float     # c / gamma0 (inf for a lossless chain)
    bath_occupation: float


def dispersion_exact(chain: ChainSpec, n: int | np.ndarray) -> float | np.ndarray:
    """Eigenfrequency of plane-wave mode n (an integer or an array of them)
    of the periodic chain.

    omega_n = sqrt(omega0^2 + 2 K omega0 [1 - cos(2 pi n / N)]) for
    n in [-(N/2 - 1), N/2].
    """
    N = chain.n_sites
    if np.any(np.clip(n, -(N // 2 - 1), N // 2) != n):
        raise ValidationError(f"mode index {n} outside the Brillouin zone of {N} sites")
    w0, K = chain.omega0, chain.coupling_K
    return np.sqrt(w0**2 + 2 * K * w0 * (1 - np.cos(2 * math.pi * n / N)))


def dispersion_tight_binding(chain: ChainSpec, qa: float | np.ndarray) -> float | np.ndarray:
    """Tight-binding band omega(q) = omega0 + K (1 - cos(q a)), for a number or an array."""
    return chain.omega0 + chain.coupling_K * (1 - np.cos(qa))


def continuum_parameters(chain: ChainSpec) -> ContinuumChannel:
    """Linearised mid-band channel parameters (c, omega_offset, 2K, l)."""
    if chain.coupling_K >= 0.1 * chain.omega0:
        warnings.warn(
            f"K/omega0 = {chain.coupling_K / chain.omega0:.3g} is outside the "
            "tight-binding regime; continuum parameters are unreliable",
            stacklevel=2,
        )
    c = chain.coupling_K * chain.lattice_a
    offset = chain.omega0 - (math.pi / 2 - 1) * chain.coupling_K
    mfp = c / chain.intrinsic_gamma0 if chain.intrinsic_gamma0 > 0 else math.inf
    return ContinuumChannel(c, offset, 2 * chain.coupling_K, mfp, chain.bath_occupation)


def waveguide_coupling_rate(coupling_loc: float, bandwidth: float) -> float:
    """Decay rate of a side-coupled resonator into the channel,
    gamma = 2 K_loc^2 / bandwidth."""
    if coupling_loc < 0 or bandwidth <= 0:
        raise ValidationError("coupling and bandwidth must be non-negative / positive")
    if coupling_loc >= bandwidth:
        raise ValidationError(
            f"K_loc = {coupling_loc!r} must be small compared to the bandwidth "
            f"{bandwidth!r} for the Markovian rate to apply"
        )
    return 2 * coupling_loc**2 / bandwidth


def propagate_spectrum(
    spectrum: NoiseSpectrum, z: float, channel: ContinuumChannel
) -> NoiseSpectrum:
    """Rethermalise a noise spectrum over a propagation distance z >= 0."""
    if not (math.isfinite(z) and z >= 0):
        raise ValidationError("propagation distance z must be finite and >= 0")
    if math.isinf(channel.mean_free_path):
        decay = 1.0
    else:
        decay = math.exp(-z / channel.mean_free_path)
    vals = decay * spectrum.values + channel.bath_occupation * (1.0 - decay)
    return NoiseSpectrum(spectrum.grid, vals)


def simulate_lossy_chain(
    chain: ChainSpec, drive_spectrum: NoiseSpectrum, site: int
) -> NoiseSpectrum:
    """Microscopic frequency-domain solve of the lossy chain.

    The drive spectrum is injected through an impedance-matched port (rate
    K, reflectionless at band centre) at site 0, and the returned spectrum
    is that of the out-field of an identical matched port at ``site``,
    i.e. after propagating z = site * a through the chain.  Every site
    carries intrinsic damping gamma0 with a thermal input at the chain's
    bath occupation; the far port input is vacuum.

    Valid within the matched band around omega0 + K; outside, port
    reflections produce ripple.  The tridiagonal solve is the Thomas
    algorithm, each site's step one operation over the whole grid; its
    pivots p_l = b_l + (K^2/4)/p_{l-1} all have Re p_l > 0 (Re b_l >= 0,
    Re b_0 > 0), so none vanishes.
    """
    if not (1 <= site <= chain.n_sites - 1):
        raise ValidationError("site must lie in [1, n_sites-1]")
    n = site + 1  # chain truncated at the detection port
    K, g0, omegas = chain.coupling_K, chain.intrinsic_gamma0, drive_spectrum.grid
    gp = K  # matched port rate at band centre

    # rotating-wave site equations: d b_l/dt = -(i wc + g0/2) b_l
    #   + i (K/2)(b_{l-1} + b_{l+1}) - noise;  M is symmetric tridiagonal.
    diag = 1j * (chain.band_center - omegas) + g0 / 2
    piv = np.empty((n, omegas.size), dtype=complex)
    piv[0] = diag + gp / 2
    for l in range(1, n):
        piv[l] = diag + (K * K / 4) / piv[l - 1]
    piv[-1] += gp / 2
    # back substitution for M x = e_out; x is the row of X (M symmetric)
    x = 1.0 / piv[-1]
    norm2 = np.abs(x) ** 2
    for l in range(n - 2, -1, -1):
        x = (0.5j * K) * x / piv[l]
        norm2 += np.abs(x) ** 2
    out = drive_spectrum.values * np.abs(gp * x) ** 2 + chain.bath_occupation * gp * g0 * norm2
    return NoiseSpectrum(omegas, np.maximum(out, 0.0))
