"""Cascaded Lindblad master equation for the noisy state transfer.

The unidirectional chain {cooled phonon cavity} -> {qubit 1} -> {qubit 2}
shares one output channel.  With c_0 = b, c_1 = sigma-_1, c_2 = sigma-_2
and rates Gamma_0 = gamma (constant), Gamma_1(t), Gamma_2(t) from a pulse
schedule, the equation of motion is

    drho/dt = -i[H, rho] + (n_th + 1) D[S] rho + n_th D[S^dag] rho
              + gamma_op D[b] rho,

    S = sum_k sqrt(Gamma_k) c_k,
    H = -(i/2) sum_{k>l} sqrt(Gamma_k Gamma_l) (c_k^dag c_l - c_l^dag c_k),

where D[c]rho = c rho c^dag - (c^dag c rho + rho c^dag c)/2.  The cavity,
damped at gamma into the channel and at gamma_op (matched to gamma by
default) into the cold optical bath, emulates the noise dip of the
upstream filter; the channel's white occupation n_th enters through the
collective jump operators.  Restricting to the two qubits with a white
occupation N_eff gives the reduced model used for fidelity sweeps.

The generator is built once as constant sparse superoperators and
integrated with scipy's BDF solver: the channel's thermal decay is stiff.

A transferred amplitude arrives with a deterministic sign flip
(the transfer amplitude tends to -1), so the ideal target for
alpha|0> + beta|1> is alpha|0> - beta|1>; ``transferred_target`` applies
this convention.
"""

from __future__ import annotations

import gc
import logging
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from .errors import NumericalError, ValidationError
from .transfer import PulseSchedule

__all__ = [
    "HilbertSpec",
    "CascadedModel",
    "DensityMatrix",
    "default_fock_cutoff",
    "integrate",
    "fidelity",
    "transferred_target",
    "reduced_two_qubit_model",
]

_log = logging.getLogger(__name__)


def _uncapped_fock_cutoff(n_th: float) -> int:
    return max(4, math.ceil(4 * n_th) + 6)


def default_fock_cutoff(n_th: float) -> int:
    """Cavity truncation: max(4, ceil(4 n_th) + 6), capped at 30.

    The margin above the thermal tail matters: truncating the ladder also
    perturbs the destructive interference behind the noise dip, which
    converges more slowly than the occupation distribution itself.
    ``CascadedModel`` warns when the cap binds.
    """
    return min(_uncapped_fock_cutoff(n_th), 30)


@dataclass(frozen=True)
class HilbertSpec:
    """Truncated product space, ordering cavity x qubit1 x qubit2."""

    fock_cutoff: int

    def __post_init__(self) -> None:
        if self.fock_cutoff < 2:
            raise ValidationError("fock_cutoff must be >= 2")

    @property
    def dimension(self) -> int:
        return 4 * (self.fock_cutoff + 1)


@dataclass(frozen=True)
class DensityMatrix:
    """State snapshot; Hermitian, unit trace within tolerances."""

    matrix: np.ndarray
    time: float

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("density matrix must be square")
        if abs(np.trace(m).real - 1.0) > 1e-8 or abs(np.trace(m).imag) > 1e-10:
            raise ValidationError(f"trace {np.trace(m)!r} is not 1 within 1e-8")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValidationError("density matrix is not Hermitian within 1e-10")

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.matrix)))


def _kron(*ops: np.ndarray) -> np.ndarray:
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _lowering(dims: tuple[int, ...], i: int) -> np.ndarray:
    """Lowering operator of factor i of the product space with local dims;
    a qubit (d = 2, basis g, e) gets sigma-."""
    local = [np.eye(d, dtype=complex) for d in dims]
    local[i] = np.diag(np.sqrt(np.arange(1, dims[i])), 1).astype(complex)
    return _kron(*local)


class CascadedModel:
    """Operators and rates of the cascaded chain.

    ``include_cavity=False`` gives the two-qubit reduction; then ``n_th``
    plays the role of the effective channel occupation.  Both are built
    from one list of subsystem dimensions, (fock_cutoff + 1, 2, 2) or
    (2, 2); each jump operator lowers its own factor.

    The generator L(t) = sum_{k>=l} sqrt(Gamma_k(t) Gamma_l(t)) L_kl is built
    once: each L_kl is a constant sparse superoperator on the row-major
    vec(rho) holding the pair's (n_th + 1) D[S], n_th D[S^dag] and
    -i[H_kl, .] terms; gamma_op D[b] joins the constant (b, b) block.
    """

    def __init__(
        self,
        schedule: PulseSchedule,
        n_th: float,
        gamma: float = 0.0,
        gamma_op: float | None = None,
        fock_cutoff: int | None = None,
        include_cavity: bool = True,
    ):
        if n_th < 0:
            raise ValidationError("n_th must be >= 0")
        self.schedule = schedule
        self.n_th = float(n_th)
        self.include_cavity = include_cavity
        if include_cavity:
            if gamma <= 0:
                raise ValidationError("cavity model needs gamma > 0")
            self.gamma = float(gamma)
            self.gamma_op = float(gamma if gamma_op is None else gamma_op)
            if self.gamma_op < 0:
                raise ValidationError("gamma_op must be >= 0")
            if fock_cutoff is None:
                fock_cutoff = default_fock_cutoff(n_th)
                uncapped = _uncapped_fock_cutoff(n_th)
                if uncapped > fock_cutoff:
                    warnings.warn(
                        f"Fock cutoff capped at {fock_cutoff} for n_th = {n_th:g}; "
                        f"the cutoff rule asks for {uncapped}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            self.hilbert = HilbertSpec(fock_cutoff)
            dims = (fock_cutoff + 1, 2, 2)
        else:
            self.gamma = 0.0
            self.gamma_op = 0.0
            self.hilbert = None
            dims = (2, 2)
        ops = [_lowering(dims, i) for i in range(len(dims))]
        self.b = ops[0] if include_cavity else None
        self.s1, self.s2 = ops[-2:]
        self.dimension = math.prod(dims)

        adj = [op.conj().T for op in ops]
        n = self.n_th
        eye = np.eye(self.dimension)
        self._pairs = np.array([(k, l) for k in range(len(ops)) for l in range(k + 1)])
        self._h_kl = []
        blocks = []
        for k, l in self._pairs:
            # jumps (w, A, B) contribute w (A rho B - {B A, rho}/2)
            if k == l:
                jumps = [(n + 1, ops[k], adj[k]), (n, adj[k], ops[k])]
                h = 0.0
            else:
                jumps = [(n + 1, ops[k], adj[l]), (n + 1, ops[l], adj[k]),
                         (n, adj[k], ops[l]), (n, adj[l], ops[k])]
                h = -0.5j * (adj[k] @ ops[l] - adj[l] @ ops[k])
                self._h_kl.append(h)
            if k == l == 0 and include_cavity:  # gamma_op D[b]; this block's weight is gamma
                jumps.append((self.gamma_op / self.gamma, ops[0], adj[0]))
            decay = -0.5 * sum(w * (b @ a) for w, a, b in jumps)
            terms = [(w * a, b) for w, a, b in jumps if w]
            terms += [(decay - 1j * h, eye), (eye, decay + 1j * h)]
            # rho -> A rho B is kron(A, B^T) on the row-major vec(rho)
            blocks.append(sum(sp.kron(sp.csr_matrix(a), sp.csr_matrix(b.T)) for a, b in terms))
        self._stack = sp.vstack(blocks, format="csr")

    # -- state constructors -------------------------------------------------

    def initial_state(self, qubit1=(0.0, 1.0), t0: float | None = None) -> DensityMatrix:
        """Cavity in its cooled thermal state, qubit 1 in the given pure
        state (amplitudes on |g>, |e>), qubit 2 in the ground state."""
        a = np.asarray(qubit1, dtype=complex)
        a = a / np.linalg.norm(a)
        states = [np.outer(a, a.conj()), np.diag([1.0, 0.0]).astype(complex)]
        t0 = self.schedule.window[0] if t0 is None else t0
        if self.include_cavity:
            nbar = self.n_th * self.gamma / (self.gamma + self.gamma_op)
            nc = self.hilbert.fock_cutoff + 1
            if nbar > 0:
                p = (nbar / (nbar + 1)) ** np.arange(nc)
            else:
                p = np.r_[1.0, np.zeros(nc - 1)]
            states.insert(0, np.diag(p / p.sum()).astype(complex))
        return DensityMatrix(_kron(*states), t0)

    # -- generator ----------------------------------------------------------

    def _coefficients(self, t: float) -> np.ndarray:
        """sqrt(Gamma_k Gamma_l) for every block, in stacking order."""
        rates = [self.schedule.gamma1(t), self.schedule.gamma2(t)]
        if self.include_cavity:
            rates.insert(0, self.gamma)
        g = np.array(rates)[self._pairs]
        return np.sqrt(g[:, 0] * g[:, 1])

    def rhs(self, t: float, rho: np.ndarray) -> np.ndarray:
        """Apply the generator at time t to rho (a matrix or its row-major
        vectorisation); the result has rho's shape."""
        rho = np.asarray(rho)
        n2 = self.dimension**2
        drho = self._coefficients(t) @ (self._stack @ rho.reshape(n2)).reshape(-1, n2)
        return drho.reshape(rho.shape)

    def _generator(self, t: float) -> sp.csr_matrix:
        """The sparse superoperator L(t) that ``rhs`` applies."""
        coef = sp.csr_matrix(self._coefficients(t)[None, :])
        return (sp.kron(coef, sp.identity(self.dimension**2), format="csr") @ self._stack).tocsr()

    def hamiltonian(self, t: float) -> np.ndarray:
        """Cascade Hamiltonian at time t (checked Hermitian)."""
        coef = self._coefficients(t)[self._pairs[:, 0] != self._pairs[:, 1]]
        H = sum(g * h for g, h in zip(coef, self._h_kl))
        defect = np.max(np.abs(H - H.conj().T))
        if defect > 1e-13 * max(np.max(np.abs(H)), 1.0):
            raise NumericalError(f"cascade Hamiltonian not Hermitian (defect {defect:.2e})")
        return H

    # -- observables ----------------------------------------------------------

    def excited_population(self, rho: np.ndarray, which: int) -> float:
        """Tr(s^dag s rho) for qubit ``which`` (1 or 2)."""
        if which not in (1, 2):
            raise ValidationError(f"which must be 1 or 2, got {which!r}")
        s = self.s1 if which == 1 else self.s2
        return float(np.real(np.trace(s.conj().T @ s @ rho)))

    def cavity_occupation(self, rho: np.ndarray) -> float:
        if not self.include_cavity:
            raise ValidationError("model has no cavity")
        return float(np.real(np.trace(self.b.conj().T @ self.b @ rho)))

    def reduce_to_qubit2(self, rho: np.ndarray) -> np.ndarray:
        """Partial trace onto qubit 2, the last factor."""
        m = self.dimension // 2
        return np.einsum("xaxb->ab", rho.reshape(m, 2, m, 2))


def integrate(
    model: CascadedModel,
    rho0: DensityMatrix,
    t_span: tuple[float, float],
    t_eval: np.ndarray | None = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> list[DensityMatrix]:
    """Integrate the cascaded master equation with a stiff BDF solver.

    ``scipy.integrate.solve_ivp(method="BDF")`` runs on the vectorised
    state with ``model.rhs`` as the right-hand side and the sparse
    generator L(t) as the Jacobian.  Its error test is the RMS over all
    entries of err / (atol + rtol |rho_ij|), not a maximum norm.  One
    solver run covers t0 to the last sample time; the samples are read
    from its dense output at exactly the requested times and each is
    re-Hermitised.  Solver failure raises ``NumericalError``;
    the solver statistics are logged at DEBUG on ``phononet.cascade``.
    """
    t0, t1 = t_span
    if t1 <= t0:
        raise ValidationError("t_span must be increasing")
    if rho0.dimension != model.dimension:
        raise ValidationError(
            f"state dimension {rho0.dimension} != model dimension {model.dimension}"
        )
    if t_eval is None:
        t_eval = np.array([t1])
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < t0) or np.any(t_eval > t1) or not np.all(np.diff(t_eval) > 0):
        raise ValidationError("t_eval must be increasing within t_span")

    # a sample at t0 is the initial state; the rest come from one solver run
    out = [DensityMatrix(rho0.matrix.copy(), t) for t in t_eval[t_eval == t0].tolist()]
    later = t_eval[t_eval > t0]
    nfev = njev = nlu = 0
    if later.size:
        failed = f"BDF integration failed between t = {t0!r} and {later[-1]!r}"
        try:  # t_eval: keep the samples only, not every step's state
            sol = solve_ivp(
                model.rhs, (t0, later[-1]), rho0.matrix.flatten(), method="BDF", t_eval=later,
                rtol=rtol, atol=atol, jac=lambda s, _: model._generator(s),
            )
        except RuntimeError as exc:  # singular Newton matrix, from SuperLU
            raise NumericalError(f"{failed}: {exc}") from exc
        # BDF is a reference cycle holding SuperLU factors (~1.2 kB per nonzero): free it
        gc.collect(1)
        nfev, njev, nlu = sol.nfev, sol.njev, sol.nlu
        if sol.status != 0 or not np.all(np.isfinite(sol.y)):
            raise NumericalError(f"{failed}: {sol.message}")
        rhos = sol.y.T.reshape(-1, *rho0.matrix.shape)
        out += [DensityMatrix(0.5 * (r + r.conj().T), t) for r, t in zip(rhos, later.tolist())]
    _log.debug("integrate: dim %d, %d samples, %d RHS calls, %d Jacobians, "
               "%d LU factorisations", model.dimension, len(out), nfev, njev, nlu)
    return out


def fidelity(rho: np.ndarray | DensityMatrix, rho_target: np.ndarray) -> float:
    """Overlap Tr(rho_target rho); in [0, 1] for a pure target."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    tgt = np.asarray(rho_target)
    if m.shape != tgt.shape:
        raise ValidationError(f"dimension mismatch {m.shape} vs {tgt.shape}")
    val = float(np.real(np.trace(tgt @ m)))
    if val < -1e-8 or val > 1 + 1e-8:
        raise NumericalError(f"fidelity {val!r} outside [0, 1]")
    return val


def transferred_target(qubit1=(0.0, 1.0)) -> np.ndarray:
    """Density matrix of the ideally transferred qubit state.

    The protocol's transfer amplitude approaches -1, so beta acquires a
    sign flip relative to the sent state."""
    a = np.asarray(qubit1, dtype=complex)
    a = a / np.linalg.norm(a)
    psi = np.array([a[0], -a[1]])
    return np.outer(psi, psi.conj())


def reduced_two_qubit_model(
    n_eff: float,
    schedule: PulseSchedule,
    qubit1=(0.0, 1.0),
    t_eval: np.ndarray | None = None,
    rtol: float = 1e-8,
) -> tuple[CascadedModel, list[DensityMatrix]]:
    """Run the two-qubit cascade with white channel occupation n_eff."""
    model = CascadedModel(schedule, n_eff, include_cavity=False)
    rho0 = model.initial_state(qubit1)
    t0, t1 = schedule.window
    traj = integrate(model, rho0, (t0, t1), t_eval, rtol=rtol)
    return model, traj
