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
occupation N_eff gives the reduced model used for fidelity sweeps; a
sweep integrates one copy of it per N_eff, block-diagonally, in one solve.

The generator is built once as constant sparse superoperators and
integrated with scipy's BDF solver: the channel's thermal decay is stiff.
Every term conserves the ket-minus-bra excitation number k of an entry
|m><n| of rho (Buca & Prosen, NJP 14, 073007 (2012)), so the solver
evolves only the k-sectors that the initial state occupies (k in
{-1, 0, +1} for the states built here); the other entries stay exactly 0,
and the solver's RMS error norm spans the evolved entries only.

A transferred amplitude arrives with a deterministic sign flip
(the transfer amplitude tends to -1), so the ideal target for
alpha|0> + beta|1> is alpha|0> - beta|1>; ``transferred_target`` applies
this convention.
"""

from __future__ import annotations

import copy
import gc
import logging
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp

from .errors import NumericalError, ValidationError
from .transfer import PulseSchedule

__all__ = [
    "CascadedModel",
    "DensityMatrix",
    "default_fock_cutoff",
    "integrate",
    "Trajectory",
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
class DensityMatrix:
    """State snapshot; Hermitian, unit trace within tolerances."""

    matrix: np.ndarray
    time: float

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError("density matrix must be square")
        if not np.all(np.isfinite(m)):
            raise ValidationError("density matrix has non-finite entries")
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


def _pair_blocks(ops: list[np.ndarray], pairs: np.ndarray, n: float,
                 op_rel: float | None) -> list[sp.csr_matrix]:
    """The constant superoperator L_kl of every pair (k, l) at channel occupation n,
    on the row-major vec(rho); ``op_rel`` = gamma_op / gamma adds D[b] to the (0, 0)
    block of a cavity model."""
    adj = [op.conj().T for op in ops]
    eye = np.eye(ops[0].shape[0])
    blocks = []
    for k, l in pairs:
        # jumps (w, A, B) contribute w (A rho B - {B A, rho}/2)
        if k == l:
            jumps = [(n + 1, ops[k], adj[k]), (n, adj[k], ops[k])]
            h = 0.0
        else:
            jumps = [(n + 1, ops[k], adj[l]), (n + 1, ops[l], adj[k]),
                     (n, adj[k], ops[l]), (n, adj[l], ops[k])]
            h = -0.5j * (adj[k] @ ops[l] - adj[l] @ ops[k])
        if k == l == 0 and op_rel is not None:
            jumps.append((op_rel, ops[0], adj[0]))
        decay = -0.5 * sum(w * (b @ a) for w, a, b in jumps)
        terms = [(w * a, b) for w, a, b in jumps if w]
        terms += [(decay - 1j * h, eye), (eye, decay + 1j * h)]
        # rho -> A rho B is kron(A, B^T) on the row-major vec(rho)
        blocks.append(sum(sp.kron(sp.csr_matrix(a), sp.csr_matrix(b.T)) for a, b in terms))
    return blocks


class CascadedModel:
    """Operators and rates of the cascaded chain.

    ``include_cavity=False`` gives the two-qubit reduction; then ``n_th``
    plays the role of the effective channel occupation and ``fock_cutoff``
    is None.  Both are built from one list of subsystem dimensions,
    (fock_cutoff + 1, 2, 2) or (2, 2); each jump operator lowers its own factor.

    The generator L(t) = sum_{k>=l} sqrt(Gamma_k(t) Gamma_l(t)) L_kl is built
    once: each L_kl is a constant sparse superoperator on the row-major
    vec(rho) holding the pair's (n_th + 1) D[S], n_th D[S^dag] and
    -i[H_kl, .] terms; gamma_op D[b] joins the constant (b, b) block.

    For the two-qubit reduction ``n_th`` may also be a list of K
    occupations: the model then holds K copies side by side, the state is
    the K density matrices vectorised one after another, and each L_kl is
    block-diagonal over the copies, so the rates are evaluated once for
    all of them.  ``n_th`` keeps the list (as a tuple) and ``copies`` is K;
    a number gives one copy.
    """

    def __init__(
        self,
        schedule: PulseSchedule,
        n_th: float | Sequence[float],
        gamma: float = 0.0,
        gamma_op: float | None = None,
        fock_cutoff: int | None = None,
        include_cavity: bool = True,
    ):
        ns = [float(n) for n in np.ravel(n_th)]
        if np.ndim(n_th) > 1 or not ns:
            raise ValidationError("n_th must be a number or a non-empty list of numbers")
        if not all(math.isfinite(n) and n >= 0 for n in ns):
            raise ValidationError(f"n_th must be finite and >= 0, got {n_th!r}")
        if include_cavity and np.ndim(n_th):
            raise ValidationError("a list of n_th needs the two-qubit model (include_cavity=False)")
        self.schedule = schedule
        self.n_th = tuple(ns) if np.ndim(n_th) else ns[0]
        self.copies = len(ns)
        self.include_cavity = include_cavity
        if include_cavity:
            if not (math.isfinite(gamma) and gamma > 0):
                raise ValidationError(f"cavity model needs a finite gamma > 0, got {gamma!r}")
            self.gamma = float(gamma)
            self.gamma_op = float(gamma if gamma_op is None else gamma_op)
            if not (math.isfinite(self.gamma_op) and self.gamma_op >= 0):
                raise ValidationError(f"gamma_op must be finite and >= 0, got {gamma_op!r}")
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
            if fock_cutoff < 2:
                raise ValidationError("fock_cutoff must be >= 2")
            dims = (fock_cutoff + 1, 2, 2)
        else:
            self.gamma = 0.0
            self.gamma_op = 0.0
            fock_cutoff = None
            dims = (2, 2)
        self.fock_cutoff = fock_cutoff
        ops = [_lowering(dims, i) for i in range(len(dims))]
        self.b = ops[0] if include_cavity else None
        self.s1, self.s2 = ops[-2:]
        self.dimension = math.prod(dims)
        self._pairs = np.array([(k, l) for k in range(len(ops)) for l in range(k + 1)])
        # gamma_op D[b] joins the (b, b) block, whose weight is gamma
        op_rel = self.gamma_op / self.gamma if include_cavity else None
        per_copy = [_pair_blocks(ops, self._pairs, n, op_rel) for n in ns]
        # each pair's block is block-diagonal over the copies; one copy is that block itself
        self._stack = sp.vstack([sp.block_diag(b, format="csr") for b in zip(*per_copy)],
                                format="csr")
        # ket-minus-bra excitation number of every vec(rho) entry, tiled over the copies
        exc = np.indices(dims).sum(axis=0).ravel()
        self._k = np.tile((exc[:, None] - exc).ravel(), self.copies)

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
            nc = self.fock_cutoff + 1
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
        """Apply the generator at time t to rho (a matrix, the copies as a
        (K, d, d) array, or the row-major vectorisation); the result has
        rho's shape.  On a model restricted to excitation sectors (see
        ``integrate``) rho is the vector of the sector's entries."""
        rho = np.asarray(rho)
        n2 = self._stack.shape[1]
        drho = self._coefficients(t) @ (self._stack @ rho.reshape(n2)).reshape(-1, n2)
        return drho.reshape(rho.shape)

    def _generator(self, t: float) -> sp.csr_matrix:
        """The sparse superoperator L(t) that ``rhs`` applies."""
        coef = sp.csr_matrix(self._coefficients(t)[None, :])
        n2 = self._stack.shape[1]
        return (sp.kron(coef, sp.identity(n2), format="csr") @ self._stack).tocsr()

    def _restricted(self, keep: np.ndarray) -> CascadedModel:
        """A shallow copy whose generator acts on the vec(rho) entries ``keep``
        only: the rows and columns ``keep`` of every pair block.  Exact when
        ``keep`` is a union of excitation sectors, which L(t) maps to itself."""
        n2 = self._stack.shape[1]
        rows = (np.arange(len(self._pairs))[:, None] * n2 + keep).ravel()
        sub = copy.copy(self)
        sub._stack = self._stack[rows][:, keep]
        return sub

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


class Trajectory(list):
    """The samples of one ``integrate`` run, with the solver's work counts
    (``rhs_calls``, ``jacobians``, ``lu_factorisations``) and the number of
    evolved ``unknowns`` in ``stats``."""

    def __init__(self, samples, stats: dict[str, int]):
        super().__init__(samples)
        self.stats = stats


def integrate(
    model: CascadedModel,
    rho0: DensityMatrix | Sequence[DensityMatrix],
    t_span: tuple[float, float],
    t_eval: np.ndarray | None = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
) -> Trajectory:
    """Integrate the cascaded master equation with a stiff BDF solver.

    The generator conserves the ket-minus-bra excitation number k of every
    entry of rho, so only the k-sectors that the initial state(s) occupy are
    evolved: the union of k over the nonzero entries of vec(rho0).  For the
    states of ``initial_state`` that is k in {-1, 0, +1}, or k = 0 alone for
    a diagonal state; a state with weight in every sector evolves the full
    space.  ``scipy.integrate.solve_ivp(method="BDF")`` runs on the sector's
    entries with ``rhs`` and ``_generator`` of a copy of the model restricted
    to them as the right-hand side and Jacobian; the entries outside the
    sector are exact zeros in the returned samples.  The solver's error test
    is the RMS over the evolved entries of err / (atol + rtol |rho_ij|), not
    a maximum norm; for a model with several copies it spans the evolved
    entries of every copy.
    One solver run covers t0 to the last sample time; the samples are read
    from its dense output at exactly the requested times and each is
    re-Hermitised.  ``rho0`` is one state, and then each sample is one
    ``DensityMatrix``, or a sequence of ``model.copies`` states, and then
    each sample is a list of them.  A non-finite or non-positive ``rtol``
    or ``atol`` raises ``ValidationError``; solver failure raises
    ``NumericalError``.  The solver statistics and the number of evolved
    ``unknowns`` are returned in the trajectory's ``stats`` and logged at
    DEBUG on ``phononet.cascade``.
    """
    for key, tol in (("rtol", rtol), ("atol", atol)):
        if not (math.isfinite(tol) and tol > 0):
            raise ValidationError(f"{key} must be a finite number > 0, got {tol!r}")
    t0, t1 = t_span
    if t1 <= t0:
        raise ValidationError("t_span must be increasing")
    single = isinstance(rho0, DensityMatrix)
    states = [rho0] if single else list(rho0)
    if len(states) != model.copies:
        raise ValidationError(f"{len(states)} initial states for {model.copies} model copies")
    for rho in states:
        if rho.dimension != model.dimension:
            raise ValidationError(
                f"state dimension {rho.dimension} != model dimension {model.dimension}"
            )
    if t_eval is None:
        t_eval = np.array([t1])
    t_eval = np.asarray(t_eval, dtype=float)
    if np.any(t_eval < t0) or np.any(t_eval > t1) or not np.all(np.diff(t_eval) > 0):
        raise ValidationError("t_eval must be increasing within t_span")

    y0 = np.concatenate([r.matrix.ravel() for r in states])
    keep = np.flatnonzero(np.isin(model._k, model._k[y0 != 0]))
    # a sample at t0 is the initial state; the rest come from one solver run
    out = [[DensityMatrix(r.matrix.copy(), t) for r in states]
           for t in t_eval[t_eval == t0].tolist()]
    later = t_eval[t_eval > t0]
    stats = {"rhs_calls": 0, "jacobians": 0, "lu_factorisations": 0, "unknowns": keep.size}
    if later.size:
        failed = f"BDF integration failed between t = {float(t0)!r} and {float(later[-1])!r}"
        sector = model._restricted(keep)
        try:  # t_eval: keep the samples only, not every step's state
            sol = solve_ivp(
                sector.rhs, (t0, later[-1]), y0[keep], method="BDF", t_eval=later,
                rtol=rtol, atol=atol, jac=lambda s, _: sector._generator(s),
            )
        except RuntimeError as exc:  # singular Newton matrix, from SuperLU
            raise NumericalError(f"{failed}: {exc}") from exc
        # BDF is a reference cycle holding SuperLU factors (~1.2 kB per nonzero): free it
        gc.collect(1)
        stats.update(rhs_calls=int(sol.nfev), jacobians=int(sol.njev),
                     lu_factorisations=int(sol.nlu))
        if sol.status != 0 or not np.all(np.isfinite(sol.y)):
            raise NumericalError(f"{failed}: {sol.message}")
        ys = np.zeros((later.size, y0.size), dtype=complex)
        ys[:, keep] = sol.y.T
        rhos = ys.reshape(later.size, len(states), model.dimension, model.dimension)
        out += [[DensityMatrix(0.5 * (r + r.conj().T), t) for r in sample]
                for sample, t in zip(rhos, later.tolist())]
    _log.debug("integrate: dim %d, %d copies, %d samples, %d RHS calls, %d Jacobians, "
               "%d LU factorisations, %d unknowns", model.dimension, model.copies, len(out),
               *stats.values())
    if single:
        out = [sample[0] for sample in out]
    return Trajectory(out, stats)


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
    n_eff: float | Sequence[float],
    schedule: PulseSchedule,
    qubit1=(0.0, 1.0),
    t_eval: np.ndarray | None = None,
    rtol: float = 1e-8,
) -> tuple[CascadedModel, Trajectory]:
    """Run the two-qubit cascade with white channel occupation n_eff.

    A list of occupations runs one copy per entry, all from the same
    initial state, in one solver run; each sample is then a list of
    states in the order of ``n_eff``."""
    model = CascadedModel(schedule, n_eff, include_cavity=False)
    rho0 = model.initial_state(qubit1)
    if np.ndim(n_eff):
        rho0 = [rho0] * model.copies
    t0, t1 = schedule.window
    traj = integrate(model, rho0, (t0, t1), t_eval, rtol=rtol)
    return model, traj
