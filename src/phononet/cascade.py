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

Every term conserves the ket-minus-bra excitation number k of an entry
|m><n| of rho (Buca & Prosen, NJP 14, 073007 (2012)), so the solver
evolves only the k-sectors that the initial state occupies (k in
{-1, 0, +1} for the states built here), and it evolves them in real
numbers: rho is Hermitian and the generator keeps it so, so one entry of
each transposed pair |m><n|, |n><m| carries it, a diagonal entry as
Re rho_mm and an off-diagonal one as Re rho_mn and Im rho_mn.  In the
Fock basis every ladder operator and -iH are real, so the generator has
real coefficients on the entries and these coordinates evolve under a
real sparse matrix.  It is assembled directly on the occupied sectors
from the product-basis labels of each entry (a ladder operator moves one
label by one with a sqrt(n) factor), not sliced from a superoperator on
the full vec(rho), and integrated with scipy's BDF solver: the channel's
thermal decay is stiff.  This is the generator's only form: the model
builds no dense operators, and its ``rhs`` acts on the real coordinates
of a sector copy.

``scipy.sparse`` and ``scipy.integrate`` are imported by the functions
that assemble and integrate the generator, when they run, so ``import
phononet`` and a run that solves no master equation never load them.

A transferred amplitude arrives with a deterministic sign flip
(the transfer amplitude tends to -1), so the ideal target for
alpha|0> + beta|1> is alpha|0> - beta|1>; ``transferred_target`` applies
this convention.
"""

from __future__ import annotations

import copy
import functools
import gc
import logging
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, ValidationError
from .transfer import PulseSchedule

if TYPE_CHECKING:
    import scipy.sparse as sp

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


def _qubit_amplitudes(qubit1) -> np.ndarray:
    """The amplitudes (on |g>, |e>) of a qubit state, normalised; anything
    but two finite numbers of finite, nonzero norm raises ValidationError."""
    try:
        a = np.asarray(qubit1, dtype=complex)
    except (TypeError, ValueError):
        a = None
    with np.errstate(over="ignore"):  # an overflowing norm is refused below
        norm = np.linalg.norm(a) if a is not None and a.shape == (2,) else math.nan
    if not (math.isfinite(norm) and norm > 0):
        raise ValidationError(
            f"qubit1 must be two amplitudes of finite, nonzero norm, got {qubit1!r}"
        )
    return a / norm


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


# A word is a product of ladder operators, one (factor, dagger) step each.
def _low(f: int) -> tuple:
    return ((f, False),)


def _up(f: int) -> tuple:
    return ((f, True),)


def _adj(word: tuple) -> tuple:
    return tuple((f, not dag) for f, dag in reversed(word))


def _walk(labels: np.ndarray, dims: tuple[int, ...], word: tuple):
    """<x|word|y> is nonzero for at most one y per basis state x (one
    column of ``labels`` each): y's labels and the element, 0 where the
    word annihilates.  Labels are clamped to their range there, so a zero
    element never points outside the basis."""
    lab = labels.copy()
    val = np.ones(lab.shape[1])
    for f, dag in word:
        if dag:  # <x|c^dag|y>: y = x - 1, sqrt(x)
            val *= np.sqrt(lab[f])
            lab[f] = np.maximum(lab[f] - 1, 0)
        else:  # <x|c|y>: y = x + 1, sqrt(x + 1), none above the top level
            lab[f] += 1
            val *= np.sqrt(lab[f]) * (lab[f] < dims[f])
            lab[f] = np.minimum(lab[f], dims[f] - 1)
    return lab, val


def _pair_terms(k: int, l: int, op_rel: float | None) -> list[tuple]:
    """The terms (a, b, A, B) of the pair block L_kl at channel occupation n,
    each adding (a + b n) A rho B^dag with words A, B: the pair's
    (n + 1) D[S] and n D[S^dag] parts and -i[H_kl, .]; ``op_rel`` =
    gamma_op / gamma adds D[b] to the (0, 0) block of a cavity model."""
    # jumps (a, b, A, B) contribute (a + b n) (A rho B - {B A, rho}/2)
    if k == l:
        jumps = [(1.0, 1.0, _low(k), _up(k)), (0.0, 1.0, _up(k), _low(k))]
    else:
        jumps = [(1.0, 1.0, _low(k), _up(l)), (1.0, 1.0, _low(l), _up(k)),
                 (0.0, 1.0, _up(k), _low(l)), (0.0, 1.0, _up(l), _low(k))]
    if k == l == 0 and op_rel is not None:
        jumps.append((op_rel, 0.0, _low(0), _up(0)))
    terms = []
    for a, b, A, B in jumps:
        terms += [(a, b, A, _adj(B)),
                  (-a / 2, -b / 2, B + A, ()), (-a / 2, -b / 2, (), _adj(B + A))]
    if k != l:  # -i[H_kl, rho] with -i H_kl = (c_l^dag c_k - c_k^dag c_l) / 2
        kl, lk = _up(k) + _low(l), _up(l) + _low(k)
        terms += [(-0.5, 0.0, kl, ()), (0.5, 0.0, lk, ()),
                  (0.5, 0.0, (), lk), (-0.5, 0.0, (), kl)]
    return terms


class CascadedModel:
    """Dimensions and rates of the cascaded chain.

    ``include_cavity=False`` gives the two-qubit reduction; then ``n_th``
    plays the role of the effective channel occupation and ``fock_cutoff``
    is None.  Both are built from one list of subsystem dimensions,
    (fock_cutoff + 1, 2, 2) or (2, 2); each jump operator lowers its own
    factor.  The model holds the dimensions and rates only: the generator
    L(t) = sum_{k>=l} sqrt(Gamma_k(t) Gamma_l(t)) L_kl, each L_kl holding the
    pair's (n_th + 1) D[S], n_th D[S^dag] and -i[H_kl, .] terms and
    gamma_op D[b] joining the constant (b, b) block, exists only on the
    real coordinates of the excitation sectors that a state occupies, in a
    copy of the model made by ``_on_sectors`` (see ``integrate``).

    For the two-qubit reduction ``n_th`` may also be a list of K
    occupations: the model then holds K copies side by side, the state is
    the K density matrices one after another, and each L_kl is
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
            if (isinstance(fock_cutoff, bool) or not isinstance(fock_cutoff, (int, np.integer))
                    or fock_cutoff < 2):
                raise ValidationError(f"fock_cutoff must be an integer >= 2, got {fock_cutoff!r}")
            dims = (fock_cutoff + 1, 2, 2)
        else:
            self.gamma = 0.0
            self.gamma_op = 0.0
            fock_cutoff = None
            dims = (2, 2)
        self.fock_cutoff = fock_cutoff
        self.dimension = math.prod(dims)
        self._dims = dims
        # product-basis labels: row f holds factor f's level of every basis state
        self._labels = np.indices(dims).reshape(len(dims), -1)
        self._pairs = [(k, l) for k in range(len(dims)) for l in range(k + 1)]

    # -- state constructors -------------------------------------------------

    def initial_state(self, qubit1=(0.0, 1.0)) -> DensityMatrix:
        """Cavity in its cooled thermal state, qubit 1 in the given pure
        state (amplitudes on |g>, |e>), qubit 2 in the ground state, at the
        start of the schedule's window."""
        a = _qubit_amplitudes(qubit1)
        states = [np.outer(a, a.conj()), np.diag([1.0, 0.0]).astype(complex)]
        if self.include_cavity:
            nbar = self.n_th * self.gamma / (self.gamma + self.gamma_op)
            nc = self.fock_cutoff + 1
            if nbar > 0:
                p = (nbar / (nbar + 1)) ** np.arange(nc)
            else:
                p = np.r_[1.0, np.zeros(nc - 1)]
            states.insert(0, np.diag(p / p.sum()).astype(complex))
        return DensityMatrix(functools.reduce(np.kron, states), self.schedule.window[0])

    # -- generator ----------------------------------------------------------

    def _on_sectors(self, ks: Sequence[int] | None = None) -> CascadedModel:
        """A shallow copy whose generator acts on the real coordinates of the
        excitation sectors ``ks`` (closed under k -> -k; None: every sector).

        Per copy, the coordinates are Re rho_mn of the owners m <= n, one per
        transposed pair of sector entries in row-major order, then Im rho_mn
        of the owners with m < n.  Each pair block is assembled on them from
        the terms of ``_pair_terms``: an owner row (m, n) reads entry (p, q)
        through <m|A|p><n|B|q>, and (p, q) is folded onto its owner, with a
        minus sign on Im rho_pq when p > q.  The pair blocks are assembled
        one at a time and ``_stack`` holds them one above the other, each
        block-diagonal over the model's copies."""
        import scipy.sparse as sp

        labels, d = self._labels, self.dimension
        exc = labels.sum(axis=0)
        ks = np.arange(-exc.max(), exc.max() + 1) if ks is None else np.asarray(ks)
        # the owners m <= n of the sector's transposed pairs, in row-major order
        m, n = np.nonzero(np.triu(np.isin(exc[:, None] - exc[None, :], ks)))
        off = np.flatnonzero(m != n)
        width = m.size + off.size  # coordinates per copy
        im = np.zeros(m.size, dtype=np.intp)
        im[off] = m.size + np.arange(off.size)
        keys = m * d + n
        strides = np.array([math.prod(self._dims[f + 1:]) for f in range(len(self._dims))])
        ns = np.ravel(self.n_th)
        op_rel = self.gamma_op / self.gamma if self.include_cavity else None
        size = width * ns.size
        blocks = []
        for k, l in self._pairs:
            rows, cols, vals = [], [], []
            for a, b, A, B in _pair_terms(k, l, op_rel):
                ket, va = _walk(labels[:, m], self._dims, A)
                bra, vb = _walk(labels[:, n], self._dims, B)
                v = va * vb
                hit = np.flatnonzero(v)
                v = v[hit]
                pk, pb = strides @ ket[:, hit], strides @ bra[:, hit]
                col = np.searchsorted(keys, np.minimum(pk, pb) * d + np.maximum(pk, pb))
                sign = np.sign(pb - pk)
                both = np.flatnonzero((m[hit] != n[hit]) & (sign != 0))
                r = np.concatenate([hit, im[hit[both]]])
                c = np.concatenate([col, im[col[both]]])
                v = np.concatenate([v, sign[both] * v[both]])
                for j, nj in enumerate(ns):  # block-diagonal over the copies
                    rows.append(j * width + r)
                    cols.append(j * width + c)
                    vals.append((a + b * nj) * v)
            # sum repeated entries in term order: a row and its Im partner add
            # up the same numbers in the same order, so they agree to the last bit
            key, pos = np.unique(np.concatenate(rows) * size + np.concatenate(cols),
                                 return_inverse=True)
            data = np.bincount(pos, weights=np.concatenate(vals), minlength=key.size)
            blocks.append(sp.csr_matrix((data, np.divmod(key, size)), shape=(size, size)))
        sub = copy.copy(self)
        sub._owner, sub._off = (m, n), off
        sub._stack = sp.vstack(blocks, format="csr")
        return sub

    def _pack(self, rho: np.ndarray) -> np.ndarray:
        """The real coordinates of a sector copy for Hermitian rho (a matrix,
        the copies as a (K, d, d) array, or the row-major vectorisation)."""
        m, n = self._owner
        own = np.asarray(rho).reshape(self.copies, self.dimension, self.dimension)[:, m, n]
        return np.concatenate([own.real, own.imag[:, self._off]], axis=1).ravel()

    def _unpack(self, x: np.ndarray) -> np.ndarray:
        """The Hermitian (..., K, d, d) matrices of coordinates x (..., K * width);
        zero outside the sectors."""
        m, n = self._owner
        x = np.asarray(x).reshape(*np.shape(x)[:-1], self.copies, -1)
        own = x[..., :m.size].astype(complex)
        own.imag[..., self._off] = x[..., m.size:]
        out = np.zeros(x.shape[:-1] + (self.dimension,) * 2, dtype=complex)
        out[..., n, m] = own.conj()
        out[..., m, n] = own
        return out

    def _coefficients(self, t: float) -> np.ndarray:
        """sqrt(Gamma_k Gamma_l) for every pair block, in ``_pairs`` order."""
        rates = [self.schedule.gamma1(t), self.schedule.gamma2(t)]
        if self.include_cavity:
            rates.insert(0, self.gamma)
        return np.array([math.sqrt(rates[k] * rates[l]) for k, l in self._pairs])

    def _generator(self, t: float) -> sp.csr_matrix:
        """L(t) on the real coordinates of a sector copy: the matrix ``rhs`` applies."""
        import scipy.sparse as sp

        coef = sp.csr_matrix(self._coefficients(t)[None, :])
        n = self._stack.shape[1]
        return (sp.kron(coef, sp.identity(n), format="csr") @ self._stack).tocsr()

    def rhs(self, t: float, x: np.ndarray) -> np.ndarray:
        """Apply the generator at time t to the real coordinates x of a copy
        made by ``_on_sectors``: sum_kl c_kl(t) (L_kl x)."""
        coef = self._coefficients(t)
        # entrywise, not BLAS: equal rows give equal sums in any position
        return (coef[:, None] * (self._stack @ x).reshape(coef.size, -1)).sum(axis=0)

    # -- observables ----------------------------------------------------------

    def _number(self, rho: np.ndarray, factor: int) -> float:
        """Tr(c^dag c rho) for the lowering operator c of ``factor``."""
        return float(np.real(np.diagonal(rho)) @ self._labels[factor])

    def excited_population(self, rho: np.ndarray, which: int) -> float:
        """Tr(s^dag s rho) for qubit ``which`` (1 or 2)."""
        if which not in (1, 2):
            raise ValidationError(f"which must be 1 or 2, got {which!r}")
        return self._number(rho, len(self._dims) - 3 + which)

    def cavity_occupation(self, rho: np.ndarray) -> float:
        if not self.include_cavity:
            raise ValidationError("model has no cavity")
        return self._number(rho, 0)

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
    evolved: the union of k and -k over the nonzero entries of rho0.  For
    the states of ``initial_state`` that is k in {-1, 0, +1}, or k = 0 alone
    for a diagonal state; a state with weight in every sector evolves the
    full space.  The sector is evolved on its real coordinates (see
    ``CascadedModel._on_sectors``): Re rho_mn of one entry of each
    transposed pair and Im rho_mn of the off-diagonal ones, as many real
    unknowns as the sector has complex entries.
    ``scipy.integrate.solve_ivp(method="BDF")`` runs on them in real
    arithmetic with ``rhs`` and ``_generator`` of a copy of the model
    restricted to them as the right-hand side and Jacobian.  The solver's
    error test is the RMS over the evolved real coordinates of
    err / (atol + rtol |x_i|), not a maximum norm; for a model with several
    copies it spans the coordinates of every copy.
    One solver run covers t0 to the last sample time; the samples are read
    from its dense output at exactly the requested times and rebuilt from
    the coordinates, so each is Hermitian to the last bit, with exact zeros
    outside the sector.  A sample at t0 is a copy of the initial state.
    ``rho0`` is one state, and then each sample is one ``DensityMatrix``,
    or a sequence of ``model.copies`` states, and then each sample is a
    list of them.  A non-finite or non-positive ``rtol`` or ``atol``
    raises ``ValidationError``; solver failure raises ``NumericalError``.
    The solver statistics and the number of evolved ``unknowns`` are
    returned in the trajectory's ``stats`` and logged at DEBUG on
    ``phononet.cascade``.
    """
    from scipy.integrate import solve_ivp

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

    rhos0 = np.stack([r.matrix for r in states])
    exc = model._labels.sum(axis=0)
    _, i, j = np.nonzero(rhos0)
    sector = model._on_sectors(np.union1d(exc[i] - exc[j], exc[j] - exc[i]))
    y0 = sector._pack(rhos0)
    # a sample at t0 is the initial state; the rest come from one solver run
    out = [[DensityMatrix(r.matrix.copy(), t) for r in states]
           for t in t_eval[t_eval == t0].tolist()]
    later = t_eval[t_eval > t0]
    stats = {"rhs_calls": 0, "jacobians": 0, "lu_factorisations": 0, "unknowns": y0.size}
    if later.size:
        failed = f"BDF integration failed between t = {float(t0)!r} and {float(later[-1])!r}"
        try:  # t_eval: keep the samples only, not every step's state
            sol = solve_ivp(
                sector.rhs, (t0, later[-1]), y0, method="BDF", t_eval=later,
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
        out += [[DensityMatrix(r, t) for r in sample]
                for sample, t in zip(sector._unpack(sol.y.T), later.tolist())]
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
    a = _qubit_amplitudes(qubit1)
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
