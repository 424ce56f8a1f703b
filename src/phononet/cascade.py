"""Cascaded Lindblad master equation for the noisy state transfer.

The unidirectional chain {cooled phonon cavity} -> {qubit 1} -> {qubit 2}
is driven by independent white input channels.  With c_0 = b, c_1 =
sigma-_1, c_2 = sigma-_2, rates Gamma_0 = gamma (constant), Gamma_1(t),
Gamma_2(t) from a pulse schedule, and channel j at occupation N_j with
static weights w_jk, the equation of motion is

    drho/dt = sum_j [(N_j + 1) D[L_j] rho + N_j D[L_j^dag] rho] - i[H, rho],
    L_j = sum_k w_jk sqrt(Gamma_k) c_k,
    H = -(i/2) sum_j sum_{k>l} w_jk w_jl sqrt(Gamma_k Gamma_l) (c_k^dag c_l - h.c.),

where D[c]rho = c rho c^dag - (c^dag c rho + rho c^dag c)/2 and H is the
series product in cascade order (Gardiner, PRL 70, 2269 (1993); Gough &
James, IEEE TAC 54, 2530 (2009)).  The cavity model's channels are the
waveguide, w = (1, 1, 1) at n_th, and the cold optical bath, w =
(sqrt(gamma_op / gamma), 0, 0) at 0: the cavity, damped at gamma and
gamma_op (matched by default), emulates the upstream filter's noise dip.
The reduced model of fidelity sweeps keeps the qubits and one channel,
(1, 1) at a white occupation N_eff; ``qubit_channel`` integrates two
copies of it per N_eff in one solve.

Every term conserves the ket-minus-bra excitation number k of an entry
|m><n| of rho (Buca & Prosen, NJP 14, 073007 (2012)), so the solver
evolves only the k-sectors that the initial state occupies (k in
{-1, 0, +1} for the states built here), and it evolves them in real
numbers: rho is Hermitian and the generator keeps it so, so one entry of
each transposed pair |m><n|, |n><m| carries it, a diagonal entry as
Re rho_mm and an off-diagonal one as Re rho_mn and Im rho_mn.  In the
Fock basis every ladder operator and -iH are real, so the generator has
real coefficients on the entries and these coordinates evolve under a
real sparse matrix that never mixes Re and Im: a real rho stays real, so
the Im coordinates are evolved only when some initial state has an
imaginary part.  The matrix is assembled directly on the occupied sectors
from the product-basis labels of each entry (a ladder operator moves one
label by one with a sqrt(n) factor), not sliced from a superoperator on
the full vec(rho), and integrated with ODEPACK's LSODA (Petzold, SIAM J.
Sci. Stat. Comput. 4, 136 (1983)), which switches to BDF steps where the
channel's thermal decay makes the equation stiff.  In the coordinates'
own order the matrix is banded, with half-bandwidths that do not grow
with the Fock cutoff (26 for the states built here), so LSODA receives
it as a band and factorises it in compiled code.  This is the
generator's only form: the model builds no dense operators, and its
``rhs`` and ``_band`` act on the real coordinates of a sector copy.

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
import logging
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .transfer import PulseSchedule

__all__ = [
    "CascadedModel",
    "DensityMatrix",
    "default_fock_cutoff",
    "integrate",
    "Trajectory",
    "fidelity",
    "qubit_channel",
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


def _owners(exc: np.ndarray, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row m and column n >= m of one entry per transposed pair with
    exc[m] - exc[n] in ks (closed under k -> -k), in row-major order."""
    order = np.argsort(exc, kind="stable")
    bounds = np.searchsorted(exc[order], np.arange(exc.max() + 2))
    rows, cols = [], []
    for k in ks:  # row m meets the run of ``order`` at level exc[m] - k
        level = exc - k
        m = np.flatnonzero((level >= 0) & (level <= exc.max()))
        lo, count = bounds[level[m]], np.diff(bounds)[level[m]]
        start = np.repeat(lo - np.cumsum(count) + count, count)
        rows.append(np.repeat(m, count))
        cols.append(order[start + np.arange(count.sum())])
    m, n = np.concatenate(rows), np.concatenate(cols)
    upper = m <= n
    m, n = m[upper], n[upper]
    first = np.lexsort((n, m))
    return m[first], n[first]


def _pair_terms(k: int, l: int) -> list[tuple]:
    """The terms (a, b, A, B) of the pair block L_kl, each adding
    (a W_kl + b V_kl) A rho B^dag with words A, B, where W = sum_j w_j w_j^T
    and V = sum_j N_j w_j w_j^T over the channels: the (k, l) parts of
    every channel's (N_j + 1) D[L_j], N_j D[L_j^dag] and -i[H_j, .], which
    all scale by w_jk w_jl."""
    # jumps (a, b, A, B) contribute (a W + b V) (A rho B - {B A, rho}/2)
    if k == l:
        jumps = [(1.0, 1.0, _low(k), _up(k)), (0.0, 1.0, _up(k), _low(k))]
    else:
        jumps = [(1.0, 1.0, _low(k), _up(l)), (1.0, 1.0, _low(l), _up(k)),
                 (0.0, 1.0, _up(k), _low(l)), (0.0, 1.0, _up(l), _low(k))]
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
    """Dimensions, rates and input channels of the cascaded chain.

    ``include_cavity=False`` gives the two-qubit reduction; then ``n_th``
    plays the role of the effective channel occupation and ``fock_cutoff``
    is None.  Both are built from one list of subsystem dimensions,
    (fock_cutoff + 1, 2, 2) or (2, 2); each jump operator lowers its own
    factor.  Only the constructor knows the baths; it lists them in
    ``_channels`` as (weights per factor, occupation per copy):
    ((1, 1, 1), n_th) and ((sqrt(gamma_op / gamma), 0, 0), 0), or
    ((1, 1), n_th) without the cavity.  The generator L(t) = sum_{k>=l}
    sqrt(Gamma_k(t) Gamma_l(t)) L_kl, L_kl the (k, l) terms of every
    channel, exists only on the real coordinates of the excitation sectors
    that a state occupies, in a copy of the model made by ``_on_sectors``
    (see ``integrate``).

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
            # the waveguide, then the optical bath, which damps the cavity alone
            optical = (math.sqrt(self.gamma_op / self.gamma), 0.0, 0.0)
            self._channels = (((1.0, 1.0, 1.0), tuple(ns)), (optical, (0.0,) * len(ns)))
        else:
            self.gamma = 0.0
            self.gamma_op = 0.0
            fock_cutoff = None
            dims = (2, 2)
            self._channels = (((1.0, 1.0), tuple(ns)),)
        self.fock_cutoff = fock_cutoff
        self.dimension = math.prod(dims)
        self._dims = dims
        # product-basis labels: row f holds factor f's level of every basis state
        self._labels = np.indices(dims).reshape(len(dims), -1)
        self._pairs = [(k, l) for k in range(len(dims)) for l in range(k + 1)]

    # -- state constructors -------------------------------------------------

    def initial_state(self, qubit1=(0.0, 1.0)) -> DensityMatrix:
        """Cavity in its cooled thermal state, at sum_j w_j0^2 N_j / sum_j w_j0^2
        of its channels, qubit 1 in the given pure state (amplitudes on |g>,
        |e>), qubit 2 in the ground state, at the start of the schedule's window."""
        a = _qubit_amplitudes(qubit1)
        states = [np.outer(a, a.conj()), np.diag([1.0, 0.0]).astype(complex)]
        if len(self._dims) == 3:  # the cavity
            rate, occ = np.array([(w[0] ** 2, n[0]) for w, n in self._channels]).T
            nbar = rate @ occ / rate.sum()
            p = (nbar / (nbar + 1)) ** np.arange(self._dims[0])
            states.insert(0, np.diag(p / p.sum()).astype(complex))
        return DensityMatrix(functools.reduce(np.kron, states), self.schedule.window[0])

    # -- generator ----------------------------------------------------------

    def _on_sectors(self, ks: Sequence[int] | None = None, imag: bool = True) -> CascadedModel:
        """A shallow copy whose generator acts on the real coordinates of the
        excitation sectors ``ks`` (closed under k -> -k; None: every sector).

        Per copy, the coordinates are Re rho_mn of the owners m <= n, one per
        transposed pair of sector entries in row-major order, then, if
        ``imag``, Im rho_mn of the owners with m < n.  Each pair block is
        assembled on them from the terms of ``_pair_terms``: an owner row
        (m, n) reads entry (p, q) through <m|A|p><n|B|q>, and (p, q) is
        folded onto its owner, with a minus sign on Im rho_pq when p > q.
        The coefficients are real, so Re rows read only Re coordinates and Im
        rows only Im ones: a real rho stays real, and without ``imag`` its Im
        coordinates, which stay exactly 0, are left out.  The terms are
        weighted from ``_channels`` alone (see ``_pair_terms``).  The pair
        blocks are assembled one at a time and ``_stack`` holds them one
        above the other, each block-diagonal over the model's copies.  The
        copy also holds what ``_band`` needs: the half-bandwidths ``_lower``
        and ``_upper`` of the blocks and each stored entry's place in the band."""
        import scipy.sparse as sp

        labels, d = self._labels, self.dimension
        exc = labels.sum(axis=0)
        ks = np.arange(-exc.max(), exc.max() + 1) if ks is None else np.asarray(ks)
        m, n = _owners(exc, ks)
        off = np.flatnonzero(m != n) if imag else np.zeros(0, dtype=np.intp)
        width = m.size + off.size  # coordinates per copy
        im = np.zeros(m.size, dtype=np.intp)
        im[off] = m.size + np.arange(off.size)
        keys = m * d + n
        strides = np.array([math.prod(self._dims[f + 1:]) for f in range(len(self._dims))])
        W = sum(np.outer(w, w) for w, _ in self._channels)
        V = sum(np.multiply.outer(n, np.outer(w, w)) for w, n in self._channels)  # per copy
        size = width * len(V)
        blocks = []
        for k, l in self._pairs:
            rows, cols, vals = [], [], []
            for a, b, A, B in _pair_terms(k, l):
                ket, va = _walk(labels[:, m], self._dims, A)
                bra, vb = _walk(labels[:, n], self._dims, B)
                v = va * vb
                hit = np.flatnonzero(v)
                v = v[hit]
                pk, pb = strides @ ket[:, hit], strides @ bra[:, hit]
                col = np.searchsorted(keys, np.minimum(pk, pb) * d + np.maximum(pk, pb))
                sign = np.sign(pb - pk)
                both = np.flatnonzero((m[hit] != n[hit]) & (sign != 0) & imag)
                r = np.concatenate([hit, im[hit[both]]])
                c = np.concatenate([col, im[col[both]]])
                v = np.concatenate([v, sign[both] * v[both]])
                for j, vj in enumerate(V[:, k, l]):  # block-diagonal over the copies
                    rows.append(j * width + r)
                    cols.append(j * width + c)
                    vals.append((a * W[k, l] + b * vj) * v)
            # sum repeated entries in term order: a row and its Im partner add
            # up the same numbers in the same order, so they agree to the last bit
            key, pos = np.unique(np.concatenate(rows) * size + np.concatenate(cols),
                                 return_inverse=True)
            data = np.bincount(pos, weights=np.concatenate(vals), minlength=key.size)
            blocks.append(sp.csr_matrix((data, np.divmod(key, size)), shape=(size, size)))
        sub = copy.copy(self)
        sub._owner, sub._off = (m, n), off
        sub._stack = stack = sp.vstack(blocks, format="csr")
        # entry (r, c) of a block sits at [r - c + upper, c] of the band, flattened
        r, c = np.repeat(np.arange(stack.shape[0]) % size, np.diff(stack.indptr)), stack.indices
        sub._lower, sub._upper = (int(np.max(s, initial=0)) for s in (r - c, c - r))
        sub._band_at = (r - c + sub._upper) * size + c
        sub._block_nnz = np.diff(stack.indptr[::size])
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
        rates = [self.gamma, self.schedule.gamma1(t), self.schedule.gamma2(t)][-len(self._dims):]
        return np.array([math.sqrt(rates[k] * rates[l]) for k, l in self._pairs])

    def _band(self, t: float) -> np.ndarray:
        """L(t) on the real coordinates of a sector copy in LSODA's band
        layout: entry (r, c) at [r - c + ``_upper``, c] of a
        (``_lower`` + ``_upper`` + 1, n) array, every pair block's entries
        weighted by its coefficient and summed into place in one pass."""
        n = self._stack.shape[1]
        weights = np.repeat(self._coefficients(t), self._block_nnz) * self._stack.data
        size = (self._lower + self._upper + 1) * n
        return np.bincount(self._band_at, weights, minlength=size).reshape(-1, n)

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


def _min_eigenvalue(rho: np.ndarray, exc: np.ndarray) -> float:
    """The smallest eigenvalue of a Hermitian rho from its band in the order
    of the basis states' excitation numbers ``exc``.  A state on the sectors
    |k| <= K couples only levels at most K apart, so the band is narrow (8
    diagonals at |k| <= 1 with cavity and two qubits): at dimension 804 a
    band solver takes 40 ms where a dense one takes 1.5 s (one core of a
    2-vCPU Xeon VM)."""
    from scipy.linalg import eigvals_banded

    pos = np.empty(exc.size, dtype=np.intp)
    pos[np.argsort(exc, kind="stable")] = np.arange(exc.size)
    i, j = np.nonzero(rho)
    lower = pos[i] >= pos[j]
    i, j = i[lower], j[lower]
    vals = rho[i, j] if np.any(rho.imag) else rho.real[i, j]  # a real band is cheaper
    band = np.zeros((np.max(pos[i] - pos[j]) + 1, exc.size), dtype=vals.dtype)
    band[pos[i] - pos[j], pos[j]] = vals
    return float(eigvals_banded(band, lower=True)[0])


class Trajectory(list):
    """The samples of one ``integrate`` run, with LSODA's work counts
    (``rhs_calls``, ``steps``, and ``jacobians`` and ``lu_factorisations``,
    which are equal because LSODA factorises its iteration matrix after
    every Jacobian), the number of evolved ``unknowns`` and, over the last
    sample of every copy, the largest ``trace_defect`` |Tr rho - 1| and the
    smallest eigenvalue ``min_eigenvalue`` in ``stats``."""

    def __init__(self, samples, stats: dict[str, float]):
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
    """Integrate the cascaded master equation with ODEPACK's LSODA.

    The generator conserves the ket-minus-bra excitation number k of every
    entry of rho, so only the k-sectors that the initial state(s) occupy are
    evolved: the union of k and -k over the nonzero entries of rho0.  For
    the states of ``initial_state`` that is k in {-1, 0, +1}, or k = 0 alone
    for a diagonal state; a state with weight in every sector evolves the
    full space.  The sector is evolved on its real coordinates (see
    ``CascadedModel._on_sectors``): Re rho_mn of one entry of each
    transposed pair and, when some rho0 has an imaginary part, Im rho_mn
    of the off-diagonal ones: as many real unknowns as the sector has
    complex entries.  A real rho0 stays real, so its Im coordinates, exactly
    0 throughout, are not evolved: (entries + diagonal) / 2 unknowns.
    ``scipy.integrate.odeint`` runs LSODA on them (Adams steps, switching
    to BDF where the equation is stiff) with ``rhs`` of a copy of the model
    restricted to them as the right-hand side and its ``_band`` as the
    Jacobian, in LSODA's band layout with the lower and upper half-bandwidths
    read off the pair blocks once per run.  Steps are at most a sixteenth
    of the span, so a pulse that starts late in a stationary window is not
    stepped over.  LSODA's error test is a weighted maximum norm,
    max_i |err_i| / (atol + rtol |x_i|) over the evolved real coordinates
    (ODEPACK's LSODE uses the RMS); for a model with several copies it
    spans the coordinates of every copy.
    One solver run covers t0 to the last sample time; the samples are read
    from its interpolant at exactly the requested times and rebuilt from
    the coordinates, so each is Hermitian to the last bit, with exact zeros
    outside the sector.  A sample at t0 is a copy of the initial state.
    ``rho0`` is one state, and then each sample is one ``DensityMatrix``,
    or a sequence of ``model.copies`` states, and then each sample is a
    list of them.  A non-finite or non-positive ``rtol`` or ``atol``
    raises ``ValidationError``; solver failure raises ``NumericalError``.
    The solver statistics, the number of evolved ``unknowns`` and the last
    sample's trace and positivity defects are returned in the trajectory's
    ``stats`` (see ``Trajectory``) and logged at DEBUG on
    ``phononet.cascade``.
    """
    from scipy.integrate import ODEintWarning, odeint

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
    sector = model._on_sectors(np.union1d(exc[i] - exc[j], exc[j] - exc[i]),
                               imag=bool(np.any(rhos0.imag)))
    y0 = sector._pack(rhos0)
    # a sample at t0 is the initial state; the rest come from one solver run
    out = [[DensityMatrix(r.matrix.copy(), t) for r in states]
           for t in t_eval[t_eval == t0].tolist()]
    later = t_eval[t_eval > t0]
    stats = {"rhs_calls": 0, "steps": 0, "jacobians": 0, "lu_factorisations": 0,
             "unknowns": y0.size}
    if later.size:
        with warnings.catch_warnings():  # odeint warns on failure even with full_output
            warnings.simplefilter("ignore", ODEintWarning)
            # mxstep bounds the steps between two output times, not in the whole run
            y, info = odeint(
                sector.rhs, y0, np.r_[t0, later], Dfun=lambda s, _: sector._band(s),
                ml=sector._lower, mu=sector._upper, tfirst=True, full_output=True,
                rtol=rtol, atol=atol, hmax=(later[-1] - t0) / 16, mxstep=10**8,
            )
        jacobians = int(info["nje"][-1])  # LSODA factorises after every Jacobian
        stats.update(rhs_calls=int(info["nfe"][-1]), steps=int(info["nst"][-1]),
                     jacobians=jacobians, lu_factorisations=jacobians)
        ran = info["message"] == "Integration successful."
        if not (ran and np.all(np.isfinite(y))):
            raise NumericalError(f"LSODA integration failed between t = {float(t0)!r} and "
                                 f"{float(later[-1])!r}: "
                                 + ("the state is not finite" if ran else info["message"]))
        out += [[DensityMatrix(r, t) for r in sample]
                for sample, t in zip(sector._unpack(y[1:]), later.tolist())]
    last, levels = [r.matrix for r in out[-1]], model._labels.sum(axis=0)
    stats.update(trace_defect=max(float(abs(np.trace(r) - 1)) for r in last),
                 min_eigenvalue=min(_min_eigenvalue(r, levels) for r in last))
    _log.debug("integrate: dim %d, %d copies, %d samples, %d RHS calls, %d steps, "
               "%d Jacobians, %d LU factorisations, %d unknowns, trace defect %.3g, "
               "min eigenvalue %.3g",
               model.dimension, model.copies, len(out), *stats.values())
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
    n_eff: float,
    schedule: PulseSchedule,
    qubit1=(0.0, 1.0),
    t_eval: np.ndarray | None = None,
    rtol: float = 1e-8,
) -> tuple[CascadedModel, Trajectory]:
    """Run the two-qubit cascade with white channel occupation n_eff."""
    model = CascadedModel(schedule, n_eff, include_cavity=False)
    return model, integrate(model, model.initial_state(qubit1), schedule.window, t_eval,
                            rtol=rtol)


def qubit_channel(n_eff: Sequence[float], schedule: PulseSchedule,
                  rtol: float = 1e-8) -> tuple[np.ndarray, CascadedModel, Trajectory]:
    """The two-qubit transfer at each white occupation of ``n_eff`` as a qubit
    channel, from one solver run.  Every term conserves the ket-minus-bra
    excitation number, so the channel is phase covariant: (p_g, p_e), qubit
    2's excited population after |g> and |e> are sent, and c, rho2_ge =
    c rho1_ge (ideally -1), give alpha|g> + beta|e> the fidelity
    |alpha|^2 (1 - P) + |beta|^2 P - 2 |alpha|^2 |beta|^2 c against
    ``transferred_target``, P = |alpha|^2 p_g + |beta|^2 p_e.  Returns the
    (3, K) array of p_g, p_e and c, the model and the trajectory, whose K
    copies sending (|g> + |e>)/sqrt(2) (rho2_ge = c/2, population
    (p_g + p_e)/2) come before the K sending |e>."""
    ns = np.ravel(n_eff).tolist()
    model = CascadedModel(schedule, ns * 2, include_cavity=False)
    rho0 = [model.initial_state((1.0, 1.0))] * len(ns) + [model.initial_state()] * len(ns)
    traj = integrate(model, rho0, schedule.window, rtol=rtol)
    sup, exc = np.split(np.array([model.reduce_to_qubit2(r.matrix) for r in traj[-1]]), 2)
    p_e = exc[:, 1, 1].real
    return np.array([2 * sup[:, 1, 1].real - p_e, p_e, 2 * sup[:, 0, 1].real]), model, traj
