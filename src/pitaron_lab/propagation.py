"""Propagator construction and unitarization.

``step_propagator`` builds U(t, t0) as an ordered product of short-time
exponentials with exact kick factors.  ``pitaron`` is the one place that
unitarizes: from one singular value decomposition of U it forms
N = (U U^dagger)^(-1/2), the manifestly unitary P = N @ U and the
condition number of U (``normalization_operator`` is its N).  The three
right-hand-side routines evaluate the evolution laws claimed for dN/dt
so tests can compare them against finite differences of the definition.

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
    as_matrix,
    frob,
    hermiticity_defect,
    hermitize,
    lyapunov_solve,
    mat_exp,
    unitarity_defect,
)

__all__ = [
    "PropagatorTriple",
    "Trajectory",
    "step_propagator",
    "normalization_operator",
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
    dim * eps * cond_U.
    """

    t0: float
    t: float
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


def _ordered_product(spec: HamiltonianSpec, t0: float, t: float, steps: int,
                     cache: dict) -> np.ndarray:
    """Time-ordered product over (t0, t] with kicks spliced in exactly.

    Uniform cells of width (t - t0)/steps are split at interior kick
    times; each smooth piece contributes exp(-i H(midpoint) dt), second
    order accurate, and each kick contributes the exact factor exp(-i V)
    immediately after the evolution reaching its instant.  Kicks at
    exactly t0 fall outside the half-open interval and are skipped here;
    public callers decide whether that is an error.

    ``cache`` belongs to one public call and is dropped with it.  For a
    kick-free interval of a constant spec (``spec.constant_matrix`` set)
    it holds the factor of each distinct step width, keyed by the exact
    float width, and the product of the interval, keyed by its tuple of
    widths, so each is computed once per call.  A reused value comes from
    the same ``mat_exp`` argument and the same multiplication order as a
    fresh one, so the result is bit-identical to recomputing it.  Kicked
    intervals and other specs take the plain loop and never touch the
    cache.
    """
    kicks = spec.kicks_between(t0, t)
    kick_at = {k.time: k for k in kicks}
    boundaries = sorted(set(np.linspace(t0, t, steps + 1)) | set(kick_at))

    if spec.constant_matrix is not None and not kick_at:
        widths = tuple(b - a for a, b in zip(boundaries, boundaries[1:]))
        u = cache.get(widths)
        if u is None:
            u = np.eye(spec.dim, dtype=np.complex128)
            for width in widths:
                factor = cache.get(width)
                if factor is None:
                    factor = cache[width] = mat_exp(-1j * width * spec.constant_matrix)
                u = factor @ u
            cache[widths] = u
        return u

    u = np.eye(spec.dim, dtype=np.complex128)
    prev = boundaries[0]
    for b in boundaries[1:]:
        if b > prev and spec.smooth is not None:
            h = spec.sample(0.5 * (prev + b))
            u = mat_exp(-1j * (b - prev) * h) @ u
        kick = kick_at.get(b)
        if kick is not None:
            u = mat_exp(-1j * kick.strength) @ u
        prev = b
    return u


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
    return _ordered_product(spec, t0, t, steps, {})


def _as_propagator(u) -> np.ndarray:
    """``as_matrix`` for a propagator; non-finite entries are an overflow."""
    try:
        return as_matrix(u)
    except ValueError:
        if not np.all(np.isfinite(np.asarray(u, dtype=np.complex128))):
            raise FloatingPointError("propagator has non-finite entries (overflow)") from None
        raise


def normalization_operator(u, cond_threshold: float = COND_THRESHOLD) -> np.ndarray:
    """N = (U U^dagger)^(-1/2), the positive root of (U^dagger)^-1 U^-1.

    Hermitian positive definite, and the identity whenever U is unitary.
    This is ``pitaron(u).N``: W Sigma^-1 W^dagger from the singular value
    decomposition U = W Sigma V^dagger, accurate to about eps * cond_U
    relative to ||N||.  Non-finite entries raise ``FloatingPointError``.
    """
    return pitaron(u, cond_threshold=cond_threshold).N


def pitaron(u, t0: float = 0.0, t: float = 0.0,
            cond_threshold: float = COND_THRESHOLD) -> PropagatorTriple:
    """Assemble the unitarized triple (U, N, P = N @ U) with diagnostics.

    One singular value decomposition U = W Sigma V^dagger gives all of
    it: N = W Sigma^-1 W^dagger, P = W V^dagger (the unitary polar factor
    of U, which N @ U equals in exact arithmetic), cond_U = sigma_max /
    sigma_min and defect_U = ||Sigma^2 - 1||, which is ||U^dagger U - 1||_F
    because U^dagger U - 1 = V (Sigma^2 - 1) V^dagger.  A singular U, or
    one with cond_U above ``cond_threshold``, raises ``LinAlgError``;
    non-finite entries raise ``FloatingPointError``.
    """
    u = _as_propagator(u)
    w, s, vh = np.linalg.svd(u)
    if s[-1] == 0.0:
        raise np.linalg.LinAlgError("propagator is numerically singular")
    cond = float(s[0] / s[-1])
    if cond > cond_threshold:
        raise np.linalg.LinAlgError(
            f"propagator too ill-conditioned to normalize: cond = {cond:.3e}"
        )
    p = w @ vh
    return PropagatorTriple(
        t0=t0,
        t=t,
        U=u,
        N=hermitize((w / s) @ w.conj().T),
        P=p,
        defect_U=frob(s * s - 1.0),
        defect_P=unitarity_defect(p),
        cond_U=cond,
    )


def z_factor(u, psi) -> float:
    """Norm ratio ||U psi|| / ||psi||; unity under unitary evolution."""
    u = as_matrix(u)
    psi = np.asarray(psi, dtype=np.complex128)
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ValueError("reference state must be nonzero")
    return float(np.linalg.norm(u @ psi)) / norm


def liouville_rhs(h, n, tol: float = 1e-10) -> np.ndarray:
    """-i [H, N], the probability-conserving law for Hermitian H."""
    h = as_matrix(h)
    n = as_matrix(n)
    defect = hermiticity_defect(h)
    if defect > tol:
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
    The initial snapshot is exactly the identity.  ``z_factors`` tracks
    ||U psi0|| / ||psi0|| when a reference state is supplied.

    For a constant spec the whole trajectory shares one factor cache:
    across its kick-free cells each distinct substep width is
    exponentiated once and each distinct cell is multiplied out once,
    with every snapshot bit-identical to the uncached product.  The
    cache is dropped on return.
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

    eye = np.eye(spec.dim, dtype=np.complex128)
    snapshots = [
        PropagatorTriple(
            t0=t0, t=t0, U=eye, N=eye.copy(), P=eye.copy(),
            defect_U=0.0, defect_P=0.0, cond_U=1.0,
        )
    ]
    u = eye
    cache: dict = {}
    for a, b in zip(grid[:-1], grid[1:]):
        u = _ordered_product(spec, a, b, steps_per_cell, cache) @ u
        snapshots.append(pitaron(u, t0=t0, t=b))

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
