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

from .errors import ValidationError, _check_count, _check_fields
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
        _check_count("n_sites", self.n_sites, 2, prefix="chain ")
        _check_fields(vars(self), positive=("omega0", "lattice_a"), prefix="chain ",
                      nonnegative=("coupling_K", "intrinsic_gamma0", "bath_occupation"))

    @property
    def band_center(self) -> float:
        """Centre of the tight-binding band, omega0 + K."""
        return self.omega0 + self.coupling_K


@dataclass(frozen=True)
class ContinuumChannel:
    """Linear-dispersion description of the chain mid-band: finite fields,
    mean_free_path > 0 (or inf), bath_occupation >= 0, else ValidationError."""

    sound_speed: float        # c = K a
    omega_offset: float       # omega0 - (pi/2 - 1) K
    bandwidth: float          # 2 K
    mean_free_path: float     # c / gamma0 (inf for a lossless chain)
    bath_occupation: float

    def __post_init__(self) -> None:
        fields = dict(vars(self))
        if self.mean_free_path == math.inf:  # a lossless chain
            del fields["mean_free_path"]
        _check_fields(fields, positive=("mean_free_path",), nonnegative=("bath_occupation",),
                      prefix="channel ")


def dispersion_exact(chain: ChainSpec, n: int | np.ndarray) -> float | np.ndarray:
    """Eigenfrequency of plane-wave mode n (an integer or an array of them)
    of the periodic chain.

    omega_n = sqrt(omega0^2 + 2 K omega0 [1 - cos(2 pi n / N)]) for
    n in [-(N/2 - 1), N/2].
    """
    if np.asarray(n).dtype.kind not in "iu":  # 2.5 would pass the zone check below
        raise ValidationError(f"mode index n must be an integer or an array of integers, "
                              f"got {n!r}")
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
    _check_fields({"coupling_loc": coupling_loc, "bandwidth": bandwidth},
                  positive=("bandwidth",), nonnegative=("coupling_loc",))
    if coupling_loc >= bandwidth:
        raise ValidationError(
            f"K_loc = {float(coupling_loc)!r} must be small compared to the bandwidth "
            f"{float(bandwidth)!r} for the Markovian rate to apply"
        )
    return 2 * coupling_loc**2 / bandwidth


def propagate_spectrum(
    spectrum: NoiseSpectrum, z: float, channel: ContinuumChannel
) -> NoiseSpectrum:
    """Rethermalise a noise spectrum over a propagation distance z >= 0."""
    _check_fields({"z": z}, nonnegative=("z",), prefix="propagation distance ")
    decay = math.exp(-z / channel.mean_free_path)  # exp(-0.0) = 1.0 for a lossless chain
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
    Re b_0 > 0), so none vanishes.  Back substitution for M x = e_out gives
    |x_l|^2 = q_l |x_{l+1}|^2 with q_l = |K/2|^2/|p_l|^2, so the forward
    sweep carries s_l = 1 + q_{l-1} s_{l-1} (s_0 = 1) and P = prod q_l:
    sum_l |x_l|^2 = |x_{n-1}|^2 s_{n-1} and |x_0|^2 = |x_{n-1}|^2 P.  Both
    add only positive terms, and memory is O(len(grid)) at any site.
    """
    _check_count("site", site, 1)
    if site > chain.n_sites - 1:
        raise ValidationError("site must lie in [1, n_sites-1]")
    n = site + 1  # chain truncated at the detection port
    K, g0, omegas = chain.coupling_K, chain.intrinsic_gamma0, drive_spectrum.grid
    gp = K  # matched port rate at band centre

    # rotating-wave site equations: d b_l/dt = -(i wc + g0/2) b_l
    #   + i (K/2)(b_{l-1} + b_{l+1}) - noise;  M is symmetric tridiagonal.
    diag = 1j * (chain.band_center - omegas) + g0 / 2
    p, s, P = diag + gp / 2, 1.0, 1.0
    for _ in range(1, n):
        q = (K * K / 4) / (p.real**2 + p.imag**2)
        s, P = 1.0 + q * s, P * q
        p = diag + q * p.conj()  # (K^2/4) / p
    p += gp / 2
    x2 = 1.0 / (p.real**2 + p.imag**2)  # |x_{n-1}|^2
    out = drive_spectrum.values * gp**2 * P * x2 + chain.bath_occupation * gp * g0 * s * x2
    return NoiseSpectrum(omegas, np.maximum(out, 0.0))
