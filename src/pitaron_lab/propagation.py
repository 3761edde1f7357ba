"""Propagator construction and unitarization.

``step_propagator`` builds U(t, t0) as an ordered product of short-time
exponentials with exact kick factors.  ``evolve_trajectory`` steps a
whole grid of cells by the same route in one pass: one stacked H sample
and one stacked exponential for all pieces, a fold of the factors across
cells, and one stacked SVD per block of snapshots; ``step_propagator`` is
its one-cell case.  Stacks are walked in blocks of ``_BLOCK_BYTES`` per
operand, the one memory budget of the stepper and the unitarization.
``pitaron(U)`` is the only source of ``PropagatorTriple``: from one
singular value decomposition of U it forms N = (U U^dagger)^(-1/2), the
manifestly unitary P = N @ U and the condition number of U, and it fails
above ``COND_THRESHOLD``.  It is the only route to N: ``pitaron(u).N``.
Trajectory snapshots come from its stacked form, bit for bit the same,
the identity at t0 included.  The three right-hand-side routines
evaluate the evolution laws claimed for dN/dt so tests can compare them
against finite differences of the definition.

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

from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianSpec, SplitHamiltonian
from .linalg import (
    COND_THRESHOLD,
    HERMITICITY_TOL,
    as_matrix,
    frob,
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
    dim * eps * cond_U.  Built only by ``pitaron`` and its stacked form;
    the time of a trajectory snapshot is the matching entry of
    ``Trajectory.grid``.
    """

    U: np.ndarray
    N: np.ndarray
    P: np.ndarray
    defect_U: float
    defect_P: float
    cond_U: float


@dataclass(frozen=True)
class Trajectory:
    """Time-gridded propagator snapshots plus scalar observables."""

    grid: np.ndarray
    snapshots: tuple[PropagatorTriple, ...]
    z_factors: np.ndarray | None
    n_distance: np.ndarray


# Bytes of complex128 matrices that one stacked step holds per operand: the
# factors sampled, exponentiated and folded at once, and the snapshots of one
# stacked SVD.  Larger stacks are walked in blocks; at dim 64 a block is 4
# matrices.  A 41-snapshot dim-64 chain peaks at +0.3 MiB resident memory
# over unitarizing snapshot by snapshot with this budget, +2.8 MiB with
# 1 MiB and +12 MiB with 4 MiB.  So the Dyson node tree keeps its own
# budget, series._TREE_BYTES (4 MiB): one budget large enough for the tree
# would cost dim-64 trajectories that memory.
_BLOCK_BYTES = 1 << 18


def _block(dim: int) -> int:
    """Matrices of dimension ``dim`` per block, at least one."""
    return max(1, _BLOCK_BYTES // (16 * dim * dim))


def _layout(spec: HamiltonianSpec, grid: np.ndarray, steps: int):
    """The factors of every cell (grid[c], grid[c + 1]], in time order, cell after cell.

    Returns the factor count of each cell and, per factor, its ``width``,
    ``mid`` and ``kick``: a smooth piece of width w around its midpoint
    has kick -1, a kick factor holds the index of its kick in
    ``spec.kicks``.  Each cell is split uniformly into ``steps`` pieces
    (its own ``linspace``) and again at each kick inside it; a kick
    follows the piece that ends at its time.
    """
    cells = len(grid) - 1
    kick_times = np.array([k.time for k in spec.kicks])
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


def _cell_products(spec: HamiltonianSpec, grid: np.ndarray, steps: int):
    """Time-ordered product of every cell (grid[c], grid[c + 1]]: ``products[which[c]]``.

    Uniform pieces of width (grid[c + 1] - grid[c]) / steps are split at
    interior kick times; each smooth piece contributes exp(-i H(midpoint)
    dt), second order accurate, and each kick the exact factor exp(-i V)
    right after the evolution reaching its instant.  A cell with neither
    a smooth part nor a kick is the identity, ``products[0]``.

    The whole grid is stepped as stacks.  The midpoints are sampled in one
    ``sample_stack`` call and the exponents (smooth pieces and kicks -i V)
    exponentiated in one ``mat_exp`` call per block of ``_BLOCK_BYTES``.
    Cells with the same number of factors are folded together, later
    factors on the left: c = f[:, j] @ c over the factor index j.  That is
    each cell's own left-to-right order, and ``mat_exp`` and a stacked
    ``@`` give each matrix the bits it has alone, so every product is
    bit-identical to a sequential fold of its cell.

    A constant spec (``spec.constant_matrix`` set) exponentiates each
    distinct piece width and each kick once, and multiplies out each
    distinct sequence of factors once; the memo belongs to this call.
    Overflow while exponentiating or folding raises ``FloatingPointError``.
    """
    count, width, mid, kick = _layout(spec, grid, steps)
    dim, block = spec.dim, _block(spec.dim)
    kick_exponents = -1j * np.array([k.strength for k in spec.kicks]).reshape(-1, dim, dim)
    if spec.constant_matrix is None:
        ids = np.arange(len(kick))

        def factors(i):
            return _exponentials(spec, width[i], mid[i], kick[i], kick_exponents)
    else:
        # a table of the distinct factors: each distinct piece width, then each kick
        piece = kick < 0
        distinct: dict = {}
        ids = np.empty(len(kick), dtype=int)
        ids[piece] = [distinct.setdefault(w, len(distinct)) for w in width[piece].tolist()]
        ids[~piece] = len(distinct) + np.arange(np.count_nonzero(~piece))
        entry_width = np.concatenate([list(distinct), width[~piece]])
        entry_kick = np.concatenate([np.full(len(distinct), -1), kick[~piece]])
        table = np.empty((len(entry_kick), dim, dim), dtype=np.complex128)
        for lo in range(0, len(table), block):
            w, k = entry_width[lo:lo + block], entry_kick[lo:lo + block]
            # a constant H is the same at any time, so the widths serve as times
            table[lo:lo + block] = _exponentials(spec, w, w, k, kick_exponents)
        factors = table.__getitem__

    start = np.cumsum(count) - count
    which = np.zeros(len(count), dtype=int)
    groups = []
    size = 1
    # not np.unique: on a first call it imports numpy.ma, ~25 ms
    for n in sorted(set(count.tolist()) - {0}):
        cells = np.flatnonzero(count == n)
        rows, inverse = _distinct_rows(ids[start[cells][:, None] + np.arange(n)])
        which[cells] = size + inverse
        groups.append((size, rows))
        size += len(rows)
    products = np.empty((size, dim, dim), dtype=np.complex128)
    products[0] = np.eye(dim)
    for at, rows in groups:
        _fold(factors, rows, block, products[at:at + len(rows)])
    return products, which


def _distinct_rows(rows: np.ndarray):
    """The distinct rows of ``rows`` in order of appearance, and each row's index among them."""
    first: dict = {}
    at = [first.setdefault(row.tobytes(), i) for i, row in enumerate(rows)]
    keep = list(first.values())
    return rows[keep], np.searchsorted(keep, at)


def _fold(factors, rows: np.ndarray, block: int, out: np.ndarray) -> None:
    """out[r] = factors(rows[r, -1]) @ ... @ factors(rows[r, 0]), in blocks of ``block`` factors."""
    dim = out.shape[-1]
    height = min(len(rows), block)
    span = max(1, block // height)
    with np.errstate(over="raise", invalid="raise"):
        for r in range(0, len(rows), height):
            c = None
            for lo in range(0, rows.shape[1], span):
                ids = rows[r:r + height, lo:lo + span]
                f = factors(ids.ravel()).reshape(*ids.shape, dim, dim)
                for j in range(ids.shape[1]):
                    c = f[:, j] if c is None else f[:, j] @ c
            out[r:r + height] = c


def _check_interval(spec: HamiltonianSpec, t0: float, t: float) -> None:
    if not t > t0:
        raise ValueError(f"need t > t0, got t0={t0}, t={t}")
    if any(k.time == t0 for k in spec.kicks):
        raise ValueError(
            f"kick at t={t0} coincides with the interval start; kicks "
            "belong to intervals with time in (t0, t]"
        )


def step_propagator(spec: HamiltonianSpec, t0: float, t: float, steps: int) -> np.ndarray:
    """U(t, t0) over ``steps`` uniform substeps with exact kick factors.

    Second order accurate in the substep width for smooth parts and exact
    for pure-kick specs.  A kick exactly at t0 violates the half-open
    kick convention and is rejected.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    _check_interval(spec, t0, t)
    products, which = _cell_products(spec, np.array([t0, t], dtype=float), steps)
    return products[which[0]]


def _as_propagator(u) -> np.ndarray:
    """``as_matrix`` for a propagator; non-finite entries are an overflow."""
    try:
        return as_matrix(u)
    except ValueError:
        if not np.all(np.isfinite(np.asarray(u, dtype=np.complex128))):
            raise FloatingPointError("propagator has non-finite entries (overflow)") from None
        raise


def pitaron(u) -> PropagatorTriple:
    """Assemble the unitarized triple (U, N, P = N @ U) with diagnostics.

    One singular value decomposition U = W Sigma V^dagger gives all of
    it: N = W Sigma^-1 W^dagger, P = W V^dagger (the unitary polar factor
    of U, which N @ U equals in exact arithmetic), cond_U = sigma_max /
    sigma_min and defect_U = ||Sigma^2 - 1||, which is ||U^dagger U - 1||_F
    because U^dagger U - 1 = V (Sigma^2 - 1) V^dagger.  A singular U, or
    one with cond_U above ``COND_THRESHOLD``, raises ``LinAlgError``;
    non-finite entries raise ``FloatingPointError``.  It is the one-matrix
    case of the stacked unitarization that ``evolve_trajectory`` uses.
    """
    (triple,) = _unitarize(_as_propagator(u)[None])
    return triple


def _unitarize(u: np.ndarray) -> list[PropagatorTriple]:
    """``pitaron`` of every matrix of the stack ``u``, from one stacked SVD.

    Each triple holds views of the stacked results and the same bits as
    ``pitaron`` of its matrix alone; the defects are reduced per matrix
    by ``frob``.  The first matrix that fails decides the error, as if
    the matrices were unitarized in turn.
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
    n = hermitize((w / s[:, None, :]) @ w.conj().swapaxes(-1, -2))
    gram = p.conj().swapaxes(-1, -2) @ p - np.eye(u.shape[-1])
    defect_u = s * s - 1.0
    return [
        PropagatorTriple(U=u[k], N=n[k], P=p[k], defect_U=frob(defect_u[k]),
                         defect_P=frob(gram[k]), cond_U=float(cond[k]))
        for k in range(len(u))
    ]


def z_factor(u, psi) -> float:
    """Norm ratio ||U psi|| / ||psi||; unity under unitary evolution."""
    u = as_matrix(u)
    psi = np.asarray(psi, dtype=np.complex128)
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ValueError("reference state must be nonzero")
    return float(np.linalg.norm(u @ psi)) / norm


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
    Every snapshot is ``pitaron`` of the cumulative product; the first is
    that of the identity, which is exact: U = N = P = 1, zero defects and
    cond_U = 1.  ``z_factors`` tracks ||U psi0|| / ||psi0|| for the
    reference state ``psi0`` when one is supplied.

    The trajectory is stepped in one pass over all its cells: one
    stacked H sample and one stacked exponential for every piece of every
    cell, a fold of the cells' factors across cells, then the sequential
    scan above (see ``_cell_products``).  A constant spec exponentiates
    each distinct substep width once and multiplies out each distinct
    cell once, in a memo dropped on return.  The snapshots are
    unitarized by one stacked SVD per block.  Stacks of factors and of
    snapshots are walked in blocks of ``_BLOCK_BYTES`` per operand; beside
    the snapshots a call holds one product per distinct cell and a few
    numbers per piece.  Every snapshot is bit-identical to ``pitaron`` of
    ``step_propagator`` of its cell times the snapshot before it, and the
    first snapshot that fails raises as ``pitaron`` would; an overflow
    while stepping raises ``FloatingPointError`` before any of them.
    """
    if grid_points < 2:
        raise ValueError("grid needs at least 2 points")
    _check_interval(spec, t0, t1)
    grid = np.linspace(t0, t1, grid_points)

    if psi0 is not None:
        psi0 = np.asarray(psi0, dtype=np.complex128)
        if psi0.shape != (spec.dim,):
            raise ValueError(f"reference state must have shape ({spec.dim},), got {psi0.shape}")
        if np.linalg.norm(psi0) == 0.0:
            raise ValueError("reference state must be nonzero")

    products, which = _cell_products(spec, grid, steps_per_cell)
    u = np.empty((grid_points, spec.dim, spec.dim), dtype=np.complex128)
    u[0] = np.eye(spec.dim)
    # an overflow here leaves a non-finite snapshot, reported in snapshot order below
    with np.errstate(over="ignore", invalid="ignore"):
        for k, p in enumerate(which.tolist()):
            u[k + 1] = products[p] @ u[k]
    del products  # freed before the SVD blocks allocate
    block = _block(spec.dim)
    snapshots = [triple for lo in range(0, grid_points, block)
                 for triple in _unitarize(u[lo:lo + block])]

    eye = np.eye(spec.dim, dtype=np.complex128)
    n_distance = np.array([frob(s.N - eye) for s in snapshots])
    z_factors = None
    if psi0 is not None:
        z_factors = np.array([z_factor(s.U, psi0) for s in snapshots])
    return Trajectory(
        grid=grid,
        snapshots=tuple(snapshots),
        z_factors=z_factors,
        n_distance=n_distance,
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
    if any(k.time == t1 for k in spec.kicks):
        raise ValueError(
            f"split time t1={t1} coincides with a kick; composition across a "
            "kick instant is ambiguous"
        )
    u10 = step_propagator(spec, t0, t1, steps)
    u21 = step_propagator(spec, t1, t2, steps)
    u20 = step_propagator(spec, t0, t2, steps)
    return frob(u21 @ u10 - u20)
