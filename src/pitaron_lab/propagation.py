"""Propagator construction and unitarization.

``step_propagator`` builds U(t, t0) as an ordered product of short-time
exponentials with exact kick factors.  ``evolve_trajectory`` steps a
whole grid of cells by the same route in one pass: one stacked H sample
and one stacked exponential for all pieces, a fold of each cell's
factors as a balanced product tree (one stacked product per tree level
across cells), and one stacked SVD per block of snapshots;
``step_propagator`` is its one-cell case.  A constant H needs no
substeps, exp(-i H (s + t)) = exp(-i H s) exp(-i H t), so each of its
cells is one exponential between kicks.  Stacks are walked in blocks of
``_BLOCK_BYTES`` per operand, the one memory budget of the stepper and
the unitarization.
``pitaron(U)`` forms, from one singular value decomposition of U,
N = (U U^dagger)^(-1/2), the manifestly unitary P = N @ U and the
condition number of U, and it fails above ``COND_THRESHOLD``.  It is the
only route to N.  A ``Trajectory`` keeps one matrix stack, U, and one
column per diagnostic, and forms no N: each SVD block gives defect_U,
cond_U and n_distance = ||N - 1||_F = ||sigma^-1 - 1||_2 from the
singular values, and P only for defect_P.  ``pitaron(traj.U[k])`` has
the bits of snapshot k's defect_U, defect_P and cond_U, the identity at
t0 included, and its N gives n_distance to within rounding.  The three
right-hand-side routines evaluate the evolution laws claimed for dN/dt so
tests can compare them against finite differences of the definition.

Kick convention: a kick at time tau belongs to every interval with
tau in (t0, t], i.e. left-open and right-closed.  This makes ordered
products compose associatively away from kick instants; what happens at
the isolated instant itself is deliberately left out of the model, so a
kick sitting exactly at the start of a requested interval is rejected
rather than silently dropped or double-counted.

Everything here is finite-interval: asymptotic-time limits (scattering
boundary conditions at infinite interval length) are unreachable with a
stepped product and are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianSpec, SplitHamiltonian
from .linalg import (
    COND_THRESHOLD,
    HERMITICITY_TOL,
    OVERFLOW_RAISES,
    _matmul,
    _root_sum_squares,
    as_matrix,
    as_stack,
    frob,
    frob_stack,
    hermiticity_defect,
    hermitize,
    lyapunov_solve,
    mat_exp,
)

__all__ = [
    "PropagatorTriple",
    "Trajectory",
    "step_propagator",
    "pitaron",
    "z_factor",
    "liouville_rhs",
    "general_n_rhs",
    "lyapunov_n_rhs",
    "evolve_trajectory",
    "markov_check",
]


@dataclass(frozen=True)
class PropagatorTriple:
    """U, N and P = N @ U for one interval, with unitarity diagnostics.

    ``defect_U`` and ``defect_P`` are Frobenius norms of A^dagger A - 1;
    ``cond_U`` is the 2-norm condition number of U.  P is the unitary
    polar factor W V^dagger of U = W Sigma V^dagger, so ``defect_P`` sits
    at rounding level (a few dim * eps) for every P returned, whatever
    cond_U is below the threshold.  N and P carry errors of order
    eps * cond_U (not eps * cond_U^2), and P equals N @ U to within about
    dim * eps * cond_U.  Built by ``pitaron``, also for each snapshot of
    ``Trajectory.snapshots``.
    """

    U: np.ndarray
    N: np.ndarray
    P: np.ndarray
    defect_U: float
    defect_P: float
    cond_U: float


@dataclass(frozen=True)
class Trajectory:
    """Time-gridded propagator snapshots: one matrix stack and diagnostic columns.

    Entry k of every column belongs to the snapshot at ``grid[k]``:
    ``U`` is the ``(len(grid), dim, dim)`` stack of U(grid[k], t0), and
    ``defect_U``, ``defect_P`` and ``cond_U`` (as in ``PropagatorTriple``),
    ``n_distance`` and ``z_factors`` (None without a reference state) hold
    one float per snapshot.  n_distance = ||N - 1||_F is reduced from the
    singular values alone, as ||sigma^-1 - 1||_2, and no N is formed.
    N and P are not kept: those of snapshot k are ``pitaron(U[k])``, whose
    defect_U, defect_P and cond_U have the bits of the columns and whose
    ||N - 1||_F agrees with n_distance to within rounding.
    """

    grid: np.ndarray
    U: np.ndarray
    defect_U: np.ndarray
    defect_P: np.ndarray
    cond_U: np.ndarray
    n_distance: np.ndarray
    z_factors: np.ndarray | None

    @property
    def snapshots(self) -> tuple[PropagatorTriple, ...]:
        """``pitaron`` of each snapshot's U, recomputed on every access."""
        return tuple(pitaron(u) for u in self.U)


# Bytes of complex128 matrices that one stacked step holds per operand: the
# factors sampled, exponentiated and folded at once, and the snapshots of one
# stacked SVD.  Larger stacks are walked in blocks; at dim 64 a block is 4
# matrices.  Each SVD block allocates its own W, V^dagger, P and temporaries:
# above its U stack, a 41-snapshot dim-64 chain peaks at +1.3 MiB resident
# memory with this budget (tracemalloc: +1.4 MiB), +0.2 MiB with blocks of one
# matrix, +5.4 MiB with 1 MiB and +13 MiB with 4 MiB (ru_maxrss of a fresh
# process after a warm-up call).
# So the Dyson node tree keeps its own budget, series._TREE_BYTES (4 MiB):
# one budget large enough for the tree would cost dim-64 trajectories that
# memory.
_BLOCK_BYTES = 1 << 18


def _block(dim: int) -> int:
    """Matrices of dimension ``dim`` per block, at least one."""
    return max(1, _BLOCK_BYTES // (16 * dim * dim))


def _layout(spec: HamiltonianSpec, grid: np.ndarray, steps: int):
    """The factors of every cell (grid[c], grid[c + 1]], in time order, cell after cell.

    Returns the factor count of each cell and, per factor, its ``width``,
    ``mid`` and ``kick``: a smooth piece of width w around its midpoint
    has kick -1, a kick factor holds the index of its kick in
    ``spec.kick_times`` and ``spec.kick_strengths``.  Each cell is split
    uniformly into ``steps`` pieces (its own ``linspace``) and again at
    each kick inside it; a kick follows the piece that ends at its time.
    """
    cells = len(grid) - 1
    kick_times = spec.kick_times
    kick_cell = np.searchsorted(grid, kick_times) - 1
    inside = np.flatnonzero((kick_cell >= 0) & (kick_cell < cells))
    if spec.smooth is None:
        unused = np.zeros(len(inside))
        return np.bincount(kick_cell[inside], minlength=cells), unused, unused, inside
    edges = np.sort(np.linspace(grid[:-1], grid[1:], steps + 1).T, axis=1)
    widths = np.diff(edges, axis=1)
    mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
    # a regular cell has no kick and `steps` pieces of nonzero width
    regular = (widths > 0).all(axis=1)
    regular[kick_cell[inside]] = False
    smooth_only = np.full(steps, -1)
    parts = []
    for c in range(cells):
        if regular[c]:
            parts.append((widths[c], mids[c], smooth_only))
            continue
        own = inside[kick_cell[inside] == c]
        e = np.sort(np.concatenate([edges[c], kick_times[own]]))
        e = e[np.diff(e, prepend=-np.inf) > 0]  # a kick on a grid point once
        kicked = np.isin(e[1:], kick_times[own])  # kicked[j]: a kick follows piece j
        slots = np.arange(len(e) - 1) + np.cumsum(kicked) - kicked
        n = len(slots) + len(own)
        part = (np.zeros(n), np.zeros(n), np.full(n, -1))
        part[0][slots], part[1][slots] = np.diff(e), 0.5 * (e[:-1] + e[1:])
        part[2][slots[kicked] + 1] = own
        parts.append(part)
    width, mid, kick = (np.concatenate(column) for column in zip(*parts))
    return np.array([len(k) for _, _, k in parts]), width, mid, kick


def _exponentials(spec: HamiltonianSpec, width, mid, kick, kick_exponents) -> np.ndarray:
    """exp(-i w H(mid)) per smooth piece and exp(-i V) per kick, one stacked call each."""
    piece = kick < 0
    exponents = np.empty((len(kick), spec.dim, spec.dim), dtype=np.complex128)
    if piece.any():
        exponents[piece] = (-1j * width[piece])[:, None, None] * spec.sample_stack(mid[piece])
    exponents[~piece] = kick_exponents[kick[~piece]]
    return mat_exp(exponents)


def _cell_products(spec: HamiltonianSpec, grid: np.ndarray, steps: int) -> np.ndarray:
    """Time-ordered product of every cell (grid[c], grid[c + 1]]: ``products[c + 1]``.

    Uniform pieces of width (grid[c + 1] - grid[c]) / steps are split at
    interior kick times; each smooth piece contributes exp(-i H(midpoint)
    dt), second order accurate, and each kick the exact factor exp(-i V)
    right after the evolution reaching its instant.  A cell with neither
    a smooth part nor a kick is the identity, as is ``products[0]``.
    A constant spec (``spec.constant_matrix`` set) is exact with one piece
    per cell, so its cells are split only at their kicks whatever
    ``steps`` (at least 1) is, and each distinct width and each kick is
    exponentiated once, in a table that belongs to this call.

    The whole grid is stepped as stacks.  The midpoints are sampled in one
    ``sample_stack`` call and the exponents (smooth pieces and kicks -i V)
    exponentiated in one ``mat_exp`` call per block of ``_BLOCK_BYTES``.
    Cells with the same number of factors are folded together by
    ``_fold``, each as the same balanced product tree of its factors in
    time order (later factors on the left): one stacked product per tree
    level, O(log n) calls for n factors per cell.  ``mat_exp`` and
    ``linalg._matmul`` give each matrix the bits it has alone, so every
    product is bit-identical to the same tree over its cell alone,
    whatever the block size, and within rounding of a sequential fold.
    The cells of one factor of a constant spec are written from the table
    straight into their slots, one broadcast per table entry.
    Overflow while exponentiating or folding, or an exponent outside
    ``mat_exp``'s accuracy domain, raises ``FloatingPointError``.
    ``products`` is a stack of ``len(grid)`` matrices, so that
    ``evolve_trajectory`` can turn it into its U stack in place.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    constant = spec.constant_matrix is not None
    count, width, mid, kick = _layout(spec, grid, 1 if constant else steps)
    dim, block = spec.dim, _block(spec.dim)
    kick_exponents = -1j * spec.kick_strengths
    if not constant:
        ids = np.arange(len(kick))

        def factors(i):
            return _exponentials(spec, width[i], mid[i], kick[i], kick_exponents)
    else:
        # a table of the distinct factors: each distinct piece width and each kick
        distinct: dict = {}
        ids = np.array([distinct.setdefault(f, len(distinct))
                        for f in zip(width.tolist(), kick.tolist())], dtype=int)
        entry_width, entry_kick = (np.array(column) for column in zip(*distinct))
        table = np.empty((len(distinct), dim, dim), dtype=np.complex128)
        for lo in range(0, len(table), block):
            w, k = entry_width[lo:lo + block], entry_kick[lo:lo + block]
            # a constant H is the same at any time, so the widths serve as times
            table[lo:lo + block] = _exponentials(spec, w, w, k, kick_exponents)
        factors = table.__getitem__

    start = np.cumsum(count) - count
    products = np.empty((len(grid), dim, dim), dtype=np.complex128)
    products[np.concatenate([[True], count == 0])] = np.eye(dim)  # entry 0, empty cells
    # not np.unique: on a first call it imports numpy.ma, ~25 ms
    for n in sorted(set(count.tolist()) - {0}):
        cells = np.flatnonzero(count == n)
        if constant and n == 1:
            # each table entry broadcast straight into its cells' slots: one copy, no temporary
            entry = ids[start[cells]]
            for j in set(entry.tolist()):
                products[cells[entry == j] + 1] = table[j]
            continue
        _fold(factors, ids[start[cells][:, None] + np.arange(n)], block, products, cells + 1)
    return products


def _fold(factors, rows: np.ndarray, block: int, out: np.ndarray, at: np.ndarray) -> None:
    """out[at[r]] = factors(rows[r, -1]) @ ... @ factors(rows[r, 0]), as a balanced product tree.

    Each row of n factors is cut into aligned runs of 2^k factors, one per
    binary digit of n, longest first; a run is multiplied out level by
    level, adjacent pairs with the later factor on the left, and the runs
    are multiplied together from the shortest up.  The rows are walked in
    blocks of at most ``block`` factors: spans of a power of two of them
    per row, whose products are merged as a binary counter, so the tree
    and hence the bits do not depend on ``block``.  Each level is one
    ``_matmul`` call on the whole stack of pairs.
    """
    dim = out.shape[-1]
    height = min(len(rows), block)
    span = 1 << (max(1, block // height).bit_length() - 1)
    with np.errstate(over="raise", invalid="raise"):
        for r in range(0, len(rows), height):
            runs = []  # (length, product) of the aligned runs so far, longest first
            for lo in range(0, rows.shape[1], span):
                ids = rows[r:r + height, lo:lo + span]
                f = factors(ids.ravel()).reshape(*ids.shape, dim, dim)
                for length, p in _runs(f):
                    while runs and runs[-1][0] == length:
                        p = _matmul(p, runs.pop()[1])
                        length *= 2
                    runs.append((length, p))
            c = runs.pop()[1]
            while runs:
                c = _matmul(c, runs.pop()[1])
            out[at[r:r + height]] = c


def _runs(f: np.ndarray) -> list:
    """(length, product) of the aligned runs of 2^k of the factors ``f[:, j]``, longest first."""
    runs = []
    length = 1
    while True:
        m = f.shape[1]
        if m % 2:
            runs.append((length, f[:, -1]))
        if m < 2:
            return runs[::-1]
        even = m - m % 2
        f = _matmul(f[:, 1:even:2], f[:, 0:even:2])
        length *= 2


def _check_interval(spec: HamiltonianSpec, t0: float, t: float) -> None:
    if not t > t0:
        raise ValueError(f"need t > t0, got t0={t0}, t={t}")
    if np.any(spec.kick_times == t0):
        raise ValueError(
            f"kick at t={t0} coincides with the interval start; kicks "
            "belong to intervals with time in (t0, t]"
        )


def step_propagator(spec: HamiltonianSpec, t0: float, t: float, steps: int) -> np.ndarray:
    """U(t, t0) over ``steps`` uniform substeps with exact kick factors.

    Second order accurate in the substep width for smooth parts and exact
    for pure-kick specs; a constant spec is one exponential between kicks
    whatever ``steps`` is.  A kick exactly at t0 violates the half-open
    kick convention and is rejected.
    """
    _check_interval(spec, t0, t)
    return _cell_products(spec, np.array([t0, t], dtype=float), steps)[1]


def _as_propagator(u) -> np.ndarray:
    """``as_matrix`` for a propagator; non-finite entries are an overflow."""
    try:
        return as_matrix(u)
    except ValueError:
        if not np.all(np.isfinite(np.asarray(u, dtype=np.complex128))):
            raise FloatingPointError("propagator has non-finite entries (overflow)") from None
        raise


@OVERFLOW_RAISES
def pitaron(u) -> PropagatorTriple:
    """Assemble the unitarized triple (U, N, P = N @ U) with diagnostics.

    One singular value decomposition U = W Sigma V^dagger gives all of
    it: N = W Sigma^-1 W^dagger, P = W V^dagger (the unitary polar factor
    of U, which N @ U equals in exact arithmetic), cond_U = sigma_max /
    sigma_min and defect_U = ||Sigma^2 - 1||, which is ||U^dagger U - 1||_F
    because U^dagger U - 1 = V (Sigma^2 - 1) V^dagger.  A singular U, or
    one with cond_U above ``COND_THRESHOLD``, raises ``LinAlgError``;
    non-finite entries, or a result beyond the float range, raise
    ``FloatingPointError``.  P and the diagnostics are the stacked
    unitarization's that ``evolve_trajectory`` uses, bit for bit; N is
    formed only here, from the same SVD.
    """
    u = _as_propagator(u)
    w, s, p, (defect_u, defect_p, cond, _) = _unitarize(u[None])
    n = hermitize((w / s[:, None, :]) @ w.conj().swapaxes(-1, -2))
    return PropagatorTriple(U=u, N=n[0], P=p[0], defect_U=float(defect_u[0]),
                            defect_P=float(defect_p[0]), cond_U=float(cond[0]))


@OVERFLOW_RAISES
def _unitarize(u: np.ndarray):
    """W, sigma, P = W V^dagger and the columns of every matrix of the stack ``u``, from one SVD.

    The columns are ``(defect_U, defect_P, cond_U, n_distance)``.  No N is
    formed: N - 1 = W (Sigma^-1 - 1) W^dagger, so n_distance = ||N - 1||_F
    is ||sigma^-1 - 1||_2, and P is formed only for defect_P.  Every entry
    has the bits of its matrix alone; the norms are reduced per matrix by
    ``frob_stack``, as ``frob`` reduces them.  Of the matrices whose SVD
    fails (singular, above ``COND_THRESHOLD`` or non-finite), the first
    decides the error, as if the matrices were unitarized in turn; then a
    column beyond the float range raises ``FloatingPointError``.
    """
    finite = np.isfinite(u).all(axis=(-2, -1))
    stop = len(u) if finite.all() else int(np.argmin(finite))
    w, s, vh = np.linalg.svd(u[:stop])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cond = s[:, 0] / s[:, -1]
    failed = np.flatnonzero((s[:, -1] == 0.0) | (cond > COND_THRESHOLD))
    if failed.size:
        k = failed[0]
        if s[k, -1] == 0.0:
            raise np.linalg.LinAlgError("propagator is numerically singular")
        raise np.linalg.LinAlgError(
            f"propagator too ill-conditioned to normalize: cond = {float(cond[k]):.3e}"
        )
    if stop < len(u):
        raise FloatingPointError("propagator has non-finite entries (overflow)")
    p = w @ vh
    defect_p = frob_stack(p.conj().swapaxes(-1, -2) @ p - np.eye(u.shape[-1]))
    defect_u = frob_stack((s * s - 1.0)[..., None])
    n_distance = frob_stack((1.0 / s - 1.0)[..., None])
    return w, s, p, (defect_u, defect_p, cond, n_distance)


def _reference_norm(psi: np.ndarray, dim: int) -> float:
    """||psi|| of a reference state of shape ``(dim,)``: a positive finite float, else ValueError."""
    if psi.shape != (dim,):
        raise ValueError(f"reference state must have shape ({dim},), got {psi.shape}")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(psi))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"reference state must be nonzero with a finite norm, got norm {norm}")
    return norm


def z_factor(u, psi):
    """Norm ratio ||U psi|| / ||psi|| for one matrix or each of a stack; unity under unitary evolution.

    ``u`` is a square matrix (the result is a float) or a stack
    ``(..., n, n)`` (an array of ``u.shape[:-2]``), and entry k has the
    bits of ``z_factor(u[k], psi)``.  A reference state whose norm is not
    a positive finite float raises ``ValueError``; an overflow in U psi
    or in its norm raises ``FloatingPointError``.  Both norms are the
    plain root of a sum of squares, ``frob_stack``'s sum without its
    rescaling, so U psi meets the reference state's own limit: a sum of
    squares beyond the float range is an overflow.
    """
    u = as_stack(u)
    psi = np.asarray(psi, dtype=np.complex128)
    norm = _reference_norm(psi, u.shape[-1])
    with np.errstate(over="raise", invalid="raise"):
        ratio = _root_sum_squares(u @ psi) / norm
    return float(ratio) if u.ndim == 2 else ratio


def liouville_rhs(h, n) -> np.ndarray:
    """-i [H, N], the probability-conserving law for Hermitian H.

    H counts as Hermitian when ||H - H^dagger||_F <= ``HERMITICITY_TOL``.
    """
    h = as_matrix(h)
    n = as_matrix(n)
    defect = hermiticity_defect(h)
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"Liouville form requires Hermitian H: defect {defect:.3e}"
        )
    return -1j * (h @ n - n @ h)


def general_n_rhs(split: SplitHamiltonian, n) -> np.ndarray:
    """-i [Hh, N] + N @ J for the split H = Hh - i J.

    Reduces to the Liouville form when J vanishes.  The law is exact in
    the commuting regime [Hh, J] = 0; outside it the discrepancy against
    finite differences is reported by tests, not asserted.
    """
    n = as_matrix(n)
    hh = split.h_part
    return -1j * (hh @ n - n @ hh) + n @ split.j_part


def lyapunov_n_rhs(u, du, n) -> np.ndarray:
    """dN/dt obtained from its defining relation via a Lyapunov solve.

    Differentiating U^dagger N^2 U = 1 gives
    N X + X N = -(U^dagger^-1 dU^dagger N^2 + N^2 dU U^-1), a continuous
    Lyapunov equation for X = dN/dt, uniquely solvable because N is
    positive definite.
    """
    u = as_matrix(u)
    du = as_matrix(du)
    n = as_matrix(n)
    n2 = n @ n
    # U^dagger^-1 dU^dagger and dU U^-1 via solves, not explicit inverses.
    left = np.linalg.solve(u.conj().T, du.conj().T)
    right = np.linalg.solve(u.T, du.T).T
    q = -(left @ n2 + n2 @ right)
    return lyapunov_solve(n, hermitize(q))


def evolve_trajectory(
    spec: HamiltonianSpec,
    t0: float,
    t1: float,
    grid_points: int,
    steps_per_cell: int,
    psi0=None,
) -> Trajectory:
    """Cumulative propagation snapshots on a uniform grid over [t0, t1].

    One pass reuses partial products: U(g_k, t0) = U(g_k, g_{k-1}) @
    U(g_{k-1}, t0).  Kicks at grid times land in the cell ending there.
    Every snapshot's columns are those of ``pitaron`` of the cumulative
    product, n_distance taken from its singular values; the first snapshot
    is the identity, whose columns are written, not computed: zero
    defects, cond_U = 1 and n_distance = 0, as ``pitaron`` gives them
    exactly (N = P = 1).  ``z_factors`` tracks ||U psi0|| / ||psi0|| for the
    reference state ``psi0`` when one is supplied, as one stacked
    ``z_factor`` call; a ``psi0`` whose norm is not a positive finite
    float is rejected before any stepping.

    The trajectory is stepped in one pass over all its cells: one
    stacked H sample and one stacked exponential for every piece of every
    cell, a balanced product tree of each cell's factors folded across
    cells, then the sequential scan above (see ``_cell_products``).  A
    constant spec takes one exponential per cell between kicks, so
    ``steps_per_cell`` (still at least 1) does not change its U; each
    distinct cell width is exponentiated once, in a table dropped on
    return.  The scan turns the stack of cell products into the U stack in
    place.  The snapshots after the first are unitarized by one stacked
    SVD per block, which forms no N: defect_U, cond_U and n_distance =
    ||sigma^-1 - 1||_2 come from the singular values, and P = W V^dagger
    is formed only for defect_P and dropped.  Stacks of factors and of
    snapshots are walked in blocks of ``_BLOCK_BYTES`` per operand; beside
    the U stack a call holds a few numbers per piece (and a constant spec
    its table).
    Every snapshot's U, defect_U, defect_P and cond_U are bit-identical to
    ``pitaron`` of ``step_propagator`` of its cell times the snapshot
    before it, and its n_distance to ||sigma^-1 - 1||_2 of the same SVD.
    The first snapshot whose SVD fails raises as ``pitaron`` would, and a
    column beyond the float range raises ``FloatingPointError``; an
    overflow while stepping raises ``FloatingPointError`` before any of
    them.
    """
    if grid_points < 2:
        raise ValueError("grid needs at least 2 points")
    _check_interval(spec, t0, t1)
    grid = np.linspace(t0, t1, grid_points)

    if psi0 is not None:
        psi0 = np.asarray(psi0, dtype=np.complex128)
        _reference_norm(psi0, spec.dim)

    u = _cell_products(spec, grid, steps_per_cell)  # u[0] is the identity
    # an overflow here leaves a non-finite snapshot, reported in snapshot order below
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, grid_points):
            u[k] = u[k] @ u[k - 1]
    block = _block(spec.dim)
    blocks = [_unitarize(u[lo:lo + block])[3] for lo in range(1, grid_points, block)]
    # snapshot 0 is the identity, whose columns are exact: no defects, cond_U 1 and N = 1
    defect_u, defect_p, cond, n_distance = (
        np.concatenate([[first], *column]) for first, column in zip((0.0, 0.0, 1.0, 0.0),
                                                                    zip(*blocks)))
    return Trajectory(
        grid=grid, U=u, defect_U=defect_u, defect_P=defect_p, cond_U=cond,
        n_distance=n_distance, z_factors=None if psi0 is None else z_factor(u, psi0),
    )


def markov_check(spec: HamiltonianSpec, t0: float, t1: float, t2: float,
                 steps: int) -> float:
    """Composition defect ||U(t2,t1) U(t1,t0) - U(t2,t0)||_F.

    Each of the three propagators uses ``steps`` substeps.  The split
    time must not coincide with a kick, where the half-open convention
    would make the composition ambiguous.
    """
    if not (t0 < t1 < t2):
        raise ValueError(f"need t0 < t1 < t2, got {t0}, {t1}, {t2}")
    if np.any(spec.kick_times == t1):
        raise ValueError(
            f"split time t1={t1} coincides with a kick; composition across a "
            "kick instant is ambiguous"
        )
    u10 = step_propagator(spec, t0, t1, steps)
    u21 = step_propagator(spec, t1, t2, steps)
    u20 = step_propagator(spec, t0, t2, steps)
    return frob(u21 @ u10 - u20)
