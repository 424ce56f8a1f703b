"""Frequency-domain solver for linear quantum Langevin networks.

A network is a set of bosonic modes (optical or mechanical) with bilinear
couplings, input-output ports and intrinsic thermal baths.  Everything is
solved in the doubled basis (a1, a1^dag, a2, a2^dag, ...), in which the
Langevin equations read

    d/dt A = -M A - sqrt(R) A_in - sqrt(G0) B_in,

with M the drift matrix, R the diagonal matrix of port rates and G0 the
diagonal matrix of intrinsic rates; M = [[A, B], [B*, A*]] (interleaved)
is particle-hole symmetric by construction.  The input-output relation
A_out = A_in + sqrt(R) A then gives the scattering matrices

    S(w)  = 1 - sqrt(R) X(w) sqrt(R),      X(w) = [M - i w]^-1,
    S'(w) = sqrt(R) X(w) sqrt(G0),

where S maps port in-fields to port out-fields and S' routes intrinsic bath
noise into the ports.  This normalisation makes S unitary for lossless
excitation-conserving networks and conserves flux row-wise,
sum_j |S_ij|^2 + sum_j |S'_ij|^2 = 1 (Gardiner & Collett, PRA 31, 3761
(1985)).  Every response, from X itself to the spectra and the circulator's
probabilities, comes from the rows of X it needs, solved over blocks of
the frequency grid after one Schur factorisation that also checks stability,
and a residual check per point; the rows of S and S' come from one function.
When every coupling is rotating-wave, B = 0 and M = A (+) A*: the a and
a^dag sectors never couple, so only A is factorised, and the a^dag rows of
X at w are the conjugated a rows at -w.

Of scipy the module loads only ``scipy.linalg`` (every response needs
``schur``); ``fit_lorentzian_dip`` imports ``scipy.optimize`` when it
runs, so ``import phononet`` and a run that fits no dip never load it.

Conventions
-----------
* All frequencies and rates are angular (rad/s).  Inputs in ordinary Hz are
  converted at the CLI boundary only.
* A coupling (a -> b, J) stands for H = J a b^dag + J* a^dag b.  With
  rotating_wave=False the anomalous part J a b + J* a^dag b^dag is added,
  i.e. the full position-type coupling (J a + J* a^dag)(b + b^dag).
* A port of rate r adds r/2 to the mode's decay and r to the corresponding
  diagonal of R.  An optical cavity with field decay kappa is a port of
  rate 2*kappa; a mechanical waveguide coupling gamma is a port of rate
  gamma.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .errors import FitError, SingularFrequencyError, StabilityError, ValidationError

__all__ = [
    "ModeKind",
    "ModeSpec",
    "CouplingSpec",
    "PortSpec",
    "LinearNetwork",
    "DriftMatrix",
    "NoiseSpectrum",
    "LorentzianDipFit",
    "build_drift_matrix",
    "susceptibility",
    "scattering",
    "port_block",
    "internal_spectrum",
    "output_spectrum",
    "filtered_noise_spectrum",
    "closed_form_filter",
    "fit_lorentzian_dip",
    "om_cooling_network",
    "om_filter_network",
    "multimode_cooling_network",
    "default_filter_grid",
]

_STABILITY_TOL = 1e-12
_BLOCK_ENTRIES = 2**16  # complex entries of a frequency block: its Y, X and E stay in cache
_log = logging.getLogger(__name__)


class ModeKind(enum.Enum):
    OPTICAL = "optical"
    MECHANICAL = "mechanical"


@dataclass(frozen=True)
class ModeSpec:
    """One bosonic mode.

    ``frequency`` is the coefficient of a^dag a in the rotating frame used
    for the whole network: the (sign-flipped) drive offset -delta for a
    driven optical mode, the mechanical frequency omega_m for a mechanical
    mode.  ``intrinsic_rate`` is the undamped-bath decay rate (gamma_0 for
    mechanics; optical intrinsic loss is conventionally folded into the
    port rate).  ``bath_occupation`` is the occupation of that intrinsic
    bath.
    """

    label: str
    kind: ModeKind
    frequency: float
    intrinsic_rate: float = 0.0
    bath_occupation: float = 0.0

    def __post_init__(self) -> None:
        if np.imag(self.frequency) != 0:
            raise ValidationError(f"mode {self.label!r}: frequency must be real")
        for field in ("frequency", "intrinsic_rate", "bath_occupation"):
            if not np.isfinite(getattr(self, field)):
                raise ValidationError(f"mode {self.label!r}: {field} must be finite")
        if self.intrinsic_rate < 0:
            raise ValidationError(f"mode {self.label!r}: intrinsic_rate must be >= 0")
        if self.bath_occupation < 0:
            raise ValidationError(f"mode {self.label!r}: bath_occupation must be >= 0")


@dataclass(frozen=True)
class CouplingSpec:
    """Bilinear coupling between two modes.

    H = amplitude * a b^dag + h.c. where a annihilates ``mode_a`` and b
    annihilates ``mode_b``.  With rotating_wave=False the anomalous terms
    amplitude * a b + h.c. are included as well.
    """

    mode_a: str
    mode_b: str
    amplitude: complex
    rotating_wave: bool = True

    def __post_init__(self) -> None:
        if self.mode_a == self.mode_b:
            raise ValidationError("coupling endpoints must differ")
        if not (math.isfinite(self.amplitude.real) and math.isfinite(self.amplitude.imag)):
            raise ValidationError("coupling amplitude must be finite")


@dataclass(frozen=True)
class PortSpec:
    """Input-output channel attached to one mode."""

    mode: str
    rate: float
    input_occupation: float = 0.0

    def __post_init__(self) -> None:
        for field in ("rate", "input_occupation"):
            if not np.isfinite(getattr(self, field)):
                raise ValidationError(f"port on {self.mode!r}: {field} must be finite")
        if self.rate <= 0:
            raise ValidationError(f"port on {self.mode!r}: rate must be > 0")
        if self.input_occupation < 0:
            raise ValidationError(f"port on {self.mode!r}: input_occupation must be >= 0")


@dataclass(frozen=True)
class LinearNetwork:
    """Immutable description of a linear bosonic network."""

    modes: tuple[ModeSpec, ...]
    couplings: tuple[CouplingSpec, ...] = ()
    ports: tuple[PortSpec, ...] = ()

    def __post_init__(self) -> None:
        labels = [m.label for m in self.modes]
        if len(set(labels)) != len(labels):
            raise ValidationError("mode labels must be unique")
        known = set(labels)
        for c in self.couplings:
            for end in (c.mode_a, c.mode_b):
                if end not in known:
                    raise ValidationError(f"coupling references unknown mode {end!r}")
        seen_ports: set[str] = set()
        for p in self.ports:
            if p.mode not in known:
                raise ValidationError(f"port references unknown mode {p.mode!r}")
            if p.mode in seen_ports:
                raise ValidationError(f"mode {p.mode!r} has more than one port")
            seen_ports.add(p.mode)

    def mode_index(self, label: str) -> int:
        for i, m in enumerate(self.modes):
            if m.label == label:
                return i
        raise ValidationError(f"unknown mode {label!r}")

    def port_for(self, label: str) -> PortSpec | None:
        for p in self.ports:
            if p.mode == label:
                return p
        return None


@dataclass(frozen=True)
class DriftMatrix:
    """Drift matrix in the doubled basis plus the diagonal bath couplings.

    ``matrix`` is M with ordering (a1, a1^dag, a2, a2^dag, ...);
    ``input_rates``/``intrinsic_rates`` are the diagonals of R and G0, and
    ``input_occupations``/``intrinsic_occupations`` the bath occupations:
    N on a_i and N + 1 on a_i^dag.
    """

    matrix: np.ndarray
    input_rates: np.ndarray
    intrinsic_rates: np.ndarray
    input_occupations: np.ndarray
    intrinsic_occupations: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def annihilation_block(self) -> np.ndarray:
        """The (a_i -> a_j) sub-matrix; a closed system iff all couplings
        are excitation conserving."""
        return self.matrix[0::2, 0::2]


def build_drift_matrix(network: LinearNetwork) -> DriftMatrix:
    """Assemble the doubled-basis drift matrix M = [[A, B], [B*, A*]] from the
    annihilation block A (i frequency + half rates, i J hoppings) and the
    anomalous block B (non-RWA terms).  Stability is checked where M is
    factorised, so every response raises StabilityError for an unstable M.
    """
    n = len(network.modes)
    A, B = np.zeros((2, n, n), dtype=complex)
    R, G0, N_in, N0 = np.zeros((4, n))

    for i, m in enumerate(network.modes):
        A[i, i] += 1j * m.frequency + m.intrinsic_rate / 2
        G0[i], N0[i] = m.intrinsic_rate, m.bath_occupation

    for c in network.couplings:
        i, j = network.mode_index(c.mode_a), network.mode_index(c.mode_b)
        J = complex(c.amplitude)
        A[j, i] += 1j * J
        A[i, j] += 1j * np.conj(J)
        if not c.rotating_wave:
            B[i, j] += 1j * np.conj(J)
            B[j, i] += 1j * np.conj(J)

    for p in network.ports:
        k = network.mode_index(p.mode)
        A[k, k] += p.rate / 2
        R[k] += p.rate
        N_in[k] = p.input_occupation

    M = np.empty((2 * n, 2 * n), dtype=complex)
    M[0::2, 0::2], M[0::2, 1::2] = A, B
    M[1::2, 0::2], M[1::2, 1::2] = B.conj(), A.conj()

    N = np.stack([N_in, N0])  # <a a^dag> = N + 1 on the a^dag channel
    N_in, N0 = np.stack([N, N + 1.0], axis=-1).reshape(2, 2 * n)
    return DriftMatrix(M, np.repeat(R, 2), np.repeat(G0, 2), N_in, N0)


def _response_rows(drift: DriftMatrix, omegas, rows, contract=None) -> np.ndarray:
    """Rows ``rows`` of X(w) = [M - i w]^-1, shape (len(omegas), len(rows), dim),
    or the concatenated ``contract(X, cols)`` of its frequency blocks.

    The solve runs on K = M, or, when the anomalous block B is zero, on
    K = A: an a row of X(w) is then a row of [A - i w]^-1, an a^dag row the
    conjugate of one of [A + i w]^-1, and entries outside a row's sector
    are exact zeros.  One complex Schur factorisation K - i w0 = Q T Q^H,
    w0 the grid's centre (backward stable at exceptional points too; its
    error scales with |K - i w0|, not |K|), then x Q (T - i (v - w0)) = Q[r]
    by forward substitution over T's columns (v = -w for an a^dag row of A,
    else w) on blocks of _BLOCK_ENTRIES // (len(rows) dim K) frequencies.
    ``contract`` may overwrite X, a block's rows on their sector, shape
    (block, len(rows), dim K), at full-width columns ``cols`` (a^dag rows
    conjugated).  The residual max|x (K - i v) - e_r| is the full row's; it
    shifts K's diagonal before the product, as X @ K - i v X would cancel
    eps |v X| (1e-8 at Q ~ 1e8).  Raises ValidationError for an empty grid;
    StabilityError naming the eigenvalue (diag T + i w0) of most negative
    real part below -1e-12 max(|M|, 1); SingularFrequencyError naming an
    omega that is not finite or where M - i w is singular (A -/+ i w when
    B = 0), or, after the last block, the largest residual's if above 1e-8
    (the first NaN).  Both checks cover every eigenvalue of M.  Logs at DEBUG.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size == 0:
        raise ValidationError("frequency grid must be a non-empty 1-D array")
    M, d, rows = drift.matrix, drift.dimension, np.asarray(rows)
    split = not np.any(M[0::2, 1::2])  # B = 0: M = A (+) A*, X(w)'s a^dag block is X_A(-w)*
    K, krows = (drift.annihilation_block(), rows // 2) if split else (M, rows)
    odd = split & (rows % 2 == 1)  # a^dag rows solved on A at -w
    n, k, dk = omegas.size, len(rows), len(K)
    cols = (2 if split else 1) * np.arange(dk) + odd[:, None]
    finite = omegas[np.isfinite(omegas)]
    w0 = 0.5 * (finite.min() + finite.max()) if finite.size else 0.0
    T, Q = schur(K - 1j * w0 * np.eye(dk), output="complex")
    tol = _STABILITY_TOL * max(np.max(np.abs(M)), 1.0)
    eigs = T.diagonal()  # with the split, M's are these and their conjugates
    worst = complex(eigs[np.argmin(eigs.real)] + 1j * w0)
    if worst.real < -tol:
        raise StabilityError(
            f"drift matrix is unstable: eigenvalue {worst!r} has negative real part"
        )
    axis = eigs[np.abs(eigs.real) <= tol][:, None]  # |lam - i x| >= |Re lam| for the rest
    signs = (1.0, -1.0) if split else (1.0,)  # A*'s eigenvalues at w are A's at -w
    gap = np.min([np.abs(axis - 1j * (s * omegas - w0)) for s in signs], (0, 1), initial=np.inf)
    singular = ~np.isfinite(omegas) | (gap <= tol)
    if np.any(singular):
        w = omegas[np.argmax(singular)]
        raise SingularFrequencyError(f"response singular at omega={float(w)!r}")
    D, block, resid, parts = K.diagonal(), max(1, _BLOCK_ENTRIES // (k * dk)), np.empty(n), []
    for start in range(0, n, block):  # Y and E are dropped once read: few arrays live at once
        freqs = np.where(odd, -1.0, 1.0) * omegas[start : start + block, None]  # K solves at v
        m, shift = len(freqs), 1j * (freqs - w0)
        Y = np.empty((dk, m * k), dtype=complex)  # Y[j] = (x Q)_j; column w k + row
        for j in range(dk):
            Y[j] = ((Q[krows, j] - (T[:j, j] @ Y[:j]).reshape(m, k)) / (eigs[j] - shift)).ravel()
        X, Y = Y.T @ Q.conj().T, None  # (m * k, dk)
        E = X @ (K - np.diag(D))
        E += X * (D - 1j * freqs.reshape(-1, 1))
        E[np.arange(m * k), np.tile(krows, m)] -= 1.0
        resid[start : start + m] = np.max(np.abs(E).reshape(m, k * dk), axis=1)
        X, E = X.reshape(m, k, dk), None
        X[:, odd] = X[:, odd].conj()
        if contract is None:  # full-width rows
            parts.append(np.zeros((m, k, d), dtype=complex))
            np.put_along_axis(parts[-1], np.broadcast_to(cols, X.shape), X, axis=2)
        else:
            parts.append(contract(X, cols))
    i = int(np.argmax(resid))  # the first NaN, if any
    _log.debug("response: %d grid points, %d rows, %d blocks, max residual %.2e at omega=%r",
               n, k, -(-n // block), resid[i], float(omegas[i]))
    if not resid[i] <= 1e-8:
        raise SingularFrequencyError(
            f"response singular or ill-conditioned at omega={float(omegas[i])!r} "
            f"(residual {resid[i]:.2e})"
        )
    return np.concatenate(parts)


def _scattering_rows(drift: DriftMatrix, omegas, rows) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of S = 1 - sqrt(R) X sqrt(R) and S' = sqrt(R) X sqrt(G0)
    on the grid, each of shape (len(omegas), len(rows), dim)."""
    sR = np.sqrt(drift.input_rates)
    left = sR[rows][:, None] * _response_rows(drift, omegas, rows)
    return np.eye(drift.dimension)[rows] - left * sR, left * np.sqrt(drift.intrinsic_rates)


def susceptibility(drift: DriftMatrix, omega: float) -> np.ndarray:
    """X(omega) = [M - i*omega]^-1; raises StabilityError or SingularFrequencyError."""
    return _response_rows(drift, [omega], range(drift.dimension))[0]


def scattering(
    network: LinearNetwork, omega: float, drift: DriftMatrix | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Scattering matrices (S, S') at one frequency, in the doubled basis.

    S = 1 - sqrt(R) X sqrt(R) maps port in-fields to port out-fields
    (rows/columns of portless modes are trivial); S' = sqrt(R) X sqrt(G0)
    routes intrinsic-bath noise into the ports.
    """
    drift = build_drift_matrix(network) if drift is None else drift
    S, Sp = _scattering_rows(drift, [omega], range(drift.dimension))
    return S[0], Sp[0]


def port_block(network: LinearNetwork, S: np.ndarray) -> np.ndarray:
    """Annihilation-sector block of S restricted to the ported modes."""
    idx = [2 * network.mode_index(p.mode) for p in network.ports]
    return S[np.ix_(idx, idx)]


# --------------------------------------------------------------------------
# noise spectra
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LorentzianDipFit:
    """Parameters of the inverted-Lorentzian model

    N(w) = n_th - (n_th - floor) * width^2 / ((w - center)^2 + width^2).

    ``rms`` is the fit's residual and ``nfev`` its number of model
    evaluations (0 for a model that was not fitted).
    """

    center: float
    width: float
    floor: float
    n_th: float
    rms: float
    nfev: int = 0

    def evaluate(self, omega: np.ndarray) -> np.ndarray:
        lor = self.width**2 / ((omega - self.center) ** 2 + self.width**2)
        return self.n_th - (self.n_th - self.floor) * lor


@dataclass(frozen=True)
class NoiseSpectrum:
    """Occupation spectrum N(omega) sampled on an increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.size == 0 or grid.shape != values.shape:
            raise ValidationError("grid and values must be non-empty 1-D arrays of equal length")
        if grid.size >= 2 and not np.all(np.diff(grid) > 0):
            raise ValidationError("frequency grid must be strictly increasing")
        if np.min(values) < -1e-12:
            raise ValidationError(f"negative spectral value {np.min(values)!r}")


def _spectrum(network: LinearNetwork, omega_grid, mode: str, output: bool) -> NoiseSpectrum:
    """Occupation-weighted power of ``mode``'s row r over every bath channel:
    |S_r|^2 N_in + |S'_r|^2 N0 for the out-field, |X_r|^2 (R N_in + G0 N0)
    inside, contracted block by block on r's sector, in place."""
    drift, r = build_drift_matrix(network), 2 * network.mode_index(mode)
    N_in, N0 = drift.input_occupations, drift.intrinsic_occupations
    sR, sG = np.sqrt(drift.input_rates), np.sqrt(drift.intrinsic_rates)

    def contract(X, cols):
        x, c = X[:, 0], cols[0]
        if not output:
            return np.abs(x) ** 2 @ (drift.input_rates * N_in + drift.intrinsic_rates * N0)[c]
        x *= sR[r]
        S = x * sR[c]
        S -= c == r  # -S_r, as only |S_r| is read
        x *= sG[c]
        return np.abs(S) ** 2 @ N_in[c] + np.abs(x) ** 2 @ N0[c]

    vals = _response_rows(drift, omega_grid, [r], contract)
    return NoiseSpectrum(omega_grid, np.maximum(vals, 0.0))


def internal_spectrum(
    network: LinearNetwork, omega_grid: np.ndarray, mode: str
) -> NoiseSpectrum:
    """Stationary fluctuation spectrum <a^dag(w) a(w')> of an internal mode.

    Sums rate * occupation * |X_row,col|^2 over every bath channel, block by
    block over the grid; rotating-wave networks solve on the a sector alone.
    Raises ValidationError for an unknown mode or an empty grid, and, from
    the response core's one Schur factorisation, StabilityError naming the
    unstable eigenvalue and SingularFrequencyError naming the omega where
    the response is singular or ill-conditioned, in either sector: an
    undamped rotating-wave mode at w_m is singular at -w_m too.
    """
    return _spectrum(network, omega_grid, mode, output=False)


def output_spectrum(
    network: LinearNetwork, omega_grid: np.ndarray, port_mode: str
) -> NoiseSpectrum:
    """Occupation spectrum of the out-field at the port attached to ``port_mode``.

    Sums occupation * |S_row,col|^2 over the ports and |S'_row,col|^2 over
    the intrinsic baths, in blocks as ``internal_spectrum``.  Raises
    ValidationError when ``port_mode`` has no port, otherwise as that.
    """
    if network.port_for(port_mode) is None:
        raise ValidationError(f"mode {port_mode!r} has no port")
    return _spectrum(network, omega_grid, port_mode, output=True)


def filtered_noise_spectrum(
    network: LinearNetwork, omega_grid: np.ndarray
) -> NoiseSpectrum:
    """Noise spectrum of the reflected waveguide field of a cooling network.

    The network must contain exactly one ported mechanical mode (the
    waveguide channel); the spectrum is that of its out-field.
    """
    mech_ports = [
        p
        for p in network.ports
        if network.modes[network.mode_index(p.mode)].kind is ModeKind.MECHANICAL
    ]
    if len(mech_ports) != 1:
        raise ValidationError(
            "filtered_noise_spectrum needs exactly one mechanical waveguide port "
            f"(found {len(mech_ports)})"
        )
    return output_spectrum(network, omega_grid, mech_ports[0].mode)


def closed_form_filter(
    omega: np.ndarray | float,
    *,
    gamma: float,
    gamma_op: float,
    kappa: float,
    omega_m: float,
    n_th: float,
) -> np.ndarray | float:
    """Ideal beam-splitter noise filter.

    N_F(w) = n_th * (1 - 4 k^2 g_op g / (k^2 (g_op+g)^2
             + (g-2k)^2 (w-w_m)^2 + 4 (w-w_m)^4)).

    Vanishes at w = w_m under impedance matching gamma_op = gamma.
    """
    d = np.asarray(omega, dtype=float) - omega_m
    den = (
        kappa**2 * (gamma_op + gamma) ** 2
        + (gamma - 2 * kappa) ** 2 * d**2
        + 4 * d**4
    )
    out = n_th * (1.0 - 4 * kappa**2 * gamma_op * gamma / den)
    return out if np.ndim(omega) else float(out)


def fit_lorentzian_dip(spectrum: NoiseSpectrum) -> LorentzianDipFit:
    """Least-squares fit of the inverted-Lorentzian dip model.

    Initialised from (argmin, half-width at half depth, min value, edge
    mean); raises FitError when the sampled minimum is not interior to the
    grid.  ``nfev`` is the number of model evaluations the fit made.
    """
    from scipy.optimize import least_squares

    w = spectrum.grid
    y = spectrum.values
    imin = int(np.argmin(y))
    if imin in (0, y.size - 1):
        raise FitError("spectrum has no interior minimum to fit")

    n_th0 = 0.5 * (y[0] + y[-1])
    floor0 = y[imin]
    half = 0.5 * (n_th0 + floor0)
    below = np.nonzero(y <= half)[0]
    if below.size >= 2:
        width0 = 0.5 * (w[below[-1]] - w[below[0]])
    else:
        width0 = 0.05 * (w[-1] - w[0])
    width0 = max(width0, 2 * np.min(np.diff(w)))

    def resid(p):
        return LorentzianDipFit(*p, rms=0.0).evaluate(w) - y

    scale = max(abs(n_th0), 1.0)
    sol = least_squares(
        resid,
        x0=[w[imin], width0, floor0, n_th0],
        x_scale=[max(width0, 1e-30), max(width0, 1e-30), scale, scale],
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
    )
    if not sol.success:
        raise FitError(f"dip fit did not converge: {sol.message}")
    center, width, floor, n_th = sol.x
    rms = float(np.sqrt(np.mean(sol.fun**2)))
    return LorentzianDipFit(float(center), abs(float(width)), float(floor), float(n_th), rms,
                           int(sol.nfev))


# --------------------------------------------------------------------------
# standard model networks
# --------------------------------------------------------------------------


def om_cooling_network(
    *,
    omega_m: float,
    kappa: float,
    g_alpha: complex,
    gamma0: float = 0.0,
    n_th: float = 0.0,
    rotating_wave: bool = True,
) -> LinearNetwork:
    """Driven optical cavity cooling a single mechanical mode (no waveguide).

    The drive sits on the red sideband, delta = -omega_m, so the optical
    mode enters the rotating frame at -delta = omega_m.
    """
    modes = (
        ModeSpec("a", ModeKind.OPTICAL, omega_m),
        ModeSpec("b", ModeKind.MECHANICAL, omega_m, gamma0, n_th),
    )
    couplings = (CouplingSpec("a", "b", g_alpha, rotating_wave),)
    ports = (PortSpec("a", 2 * kappa, 0.0),)
    return LinearNetwork(modes, couplings, ports)


def om_filter_network(
    *,
    omega_m: float,
    gamma: float,
    kappa: float,
    g_alpha: complex | None = None,
    gamma0: float = 0.0,
    n_th: float = 0.0,
    rotating_wave: bool = True,
) -> LinearNetwork:
    """Noise-filter configuration: cooled mechanical mode side-coupled to a
    waveguide of rate gamma.  g_alpha defaults to the impedance-matched
    value sqrt((gamma + gamma0) * kappa / 2)."""
    if g_alpha is None:
        g_alpha = math.sqrt((gamma + gamma0) * kappa / 2)
    net = om_cooling_network(
        omega_m=omega_m, kappa=kappa, g_alpha=g_alpha, gamma0=gamma0, n_th=n_th,
        rotating_wave=rotating_wave,
    )
    return LinearNetwork(net.modes, net.couplings, net.ports + (PortSpec("b", gamma, n_th),))


def multimode_cooling_network(
    *,
    n_modes: int,
    omega_m: float,
    coupling: float,
    kappa: float,
    g_alpha: complex,
    gamma0: float,
    n_th: float,
) -> LinearNetwork:
    """Open chain of n_modes mechanical resonators, site 1 optically cooled.

    Nearest neighbours couple through H = -K (b_i b_j^dag + h.c.), giving
    collective modes at omega_m - 2 K cos(n pi / (N+1)).
    """
    if n_modes < 2:
        raise ValidationError("chain needs at least two modes")
    modes = [ModeSpec("a", ModeKind.OPTICAL, omega_m)]
    modes += [
        ModeSpec(f"b{j}", ModeKind.MECHANICAL, omega_m, gamma0, n_th)
        for j in range(1, n_modes + 1)
    ]
    couplings = []
    if g_alpha:
        couplings.append(CouplingSpec("a", "b1", g_alpha, rotating_wave=True))
    couplings += [
        CouplingSpec(f"b{j}", f"b{j+1}", -coupling, rotating_wave=True)
        for j in range(1, n_modes)
    ]
    ports = (PortSpec("a", 2 * kappa, 0.0),)
    return LinearNetwork(tuple(modes), tuple(couplings), ports)


def default_filter_grid(omega_m: float, gamma: float, n_points: int = 4001) -> np.ndarray:
    """Default frequency grid: n_points spanning omega_m +/- 10*gamma."""
    return np.linspace(omega_m - 10 * gamma, omega_m + 10 * gamma, n_points)
