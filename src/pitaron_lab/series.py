"""Perturbative expansions of U, its inverse, N and P.

All integrals are iterated ("solve by substitution") rather than
rectangle-form double integrals: term k is the nested integral over
t0 < t_k < ... < t_1 < t, evaluated by composite Simpson at every level
(grids from ``linalg.simpson_grid``) with the inner upper limit
re-gridded to the outer variable.  That form
is the construction under study here, so it is never replaced by the
productive (Fubini-swapped) form even where the two agree analytically.
The nested rule is evaluated as a tree of those re-gridded nodes, one
level at a time: each level's nodes are sampled in one
``HamiltonianSpec.sample_stack`` call and contracted on stacks, with the
nodes, weights and summation order of the scalar recursion.

The series run by one route: ``dyson_u`` makes the one nested pass of a
spec, to the highest order wanted, and ``dyson_u_inverse``,
``general_norm_expansion`` and ``general_pitaron_expansion`` are
functions of its result, each through the order of the pass.  U^-1, N
and P follow from the Dyson terms of U by their definitions, U^-1 U = 1,
N^2 = (U U^dagger)^-1 and P = N U, solved order by order as ``pitaron``
applies them numerically.  Term k of each depends only on the terms
0..k of U, so it has the same bits whatever the order of the pass.
Every adjoint stays separate, so they hold for non-Hermitian, non-normal
H and reduce to the textbook forms for Hermitian H.  By linearity of the
quadrature, their commutator and anticommutator integrals equal the same
nested rule run directly on those integrands.

``dyson_u`` rejects kicked specs: with delta kicks the integrands
contain products of distributions whose value is indefinite, and the
quadrature must not silently pick one.  The singular_dynamics module
handles those expansions in closed form.

``log_log_slope`` is the one fit of truncation errors against interval
lengths: ``convergence_order`` and the CLI's dyson runner both use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianSpec
from .linalg import OVERFLOW_RAISES, frob, simpson_grid, simpson_pattern

MAX_ORDER = 4  # nested quadrature cost grows as panels**order
_TREE_BYTES = 1 << 22  # samples of the Dyson node tree held at once

__all__ = [
    "MAX_ORDER",
    "SeriesExpansion",
    "dyson_u",
    "dyson_u_inverse",
    "general_norm_expansion",
    "general_pitaron_expansion",
    "convergence_order",
]


@dataclass(frozen=True)
class SeriesExpansion:
    """Ordered expansion terms; term k carries k powers of the Hamiltonian."""

    order: int
    terms: tuple[np.ndarray, ...]
    partial_sums: tuple[np.ndarray, ...]


def _assemble(terms: list[np.ndarray]) -> SeriesExpansion:
    sums = []
    total = np.zeros_like(terms[0])
    for term in terms:
        total = total + term
        sums.append(total)
    return SeriesExpansion(
        order=len(terms) - 1,
        terms=tuple(terms),
        partial_sums=tuple(sums),
    )


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")


def _tree(spec: HamiltonianSpec, t0: float, uppers: np.ndarray, depth: int,
          panels: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """I_depth from t0 to each of the 1-D ``uppers`` (none equal to t0).

    Returns the ``(len(uppers), dim, dim)`` stack and I_1 .. I_(depth-1)
    at ``uppers[-1]``.  The integrals under the nodes j > 0 of every grid
    come from one recursive call on all of those nodes; node 0 is t0,
    where every inner integral is zero, so it is sampled but adds
    nothing.  Each entry sums its nodes in order, as the scalar recursion
    does, so it has that recursion's bits.  The grids are walked in blocks
    of columns that keep the samples of the levels from here down within
    ``_TREE_BYTES``.
    """
    grid, step = simpson_grid(t0, uppers, panels)
    weights = simpson_pattern(panels) * (step / 3.0)[..., None]
    n = grid.shape[-1]
    below = (n - 1) ** (depth - 1) * (16 * spec.dim**2 + 8)  # sample and time bytes per node
    width = max(1, _TREE_BYTES // (uppers.size * below))
    total = np.zeros((uppers.size, spec.dim, spec.dim), dtype=np.complex128)
    lower: list[np.ndarray] = []
    inner = None
    for start in range(0, n, width):
        cols = slice(start, start + width)
        nodes, w = grid[:, cols], weights[:, cols]
        h = spec.sample_stack(nodes)
        if depth > 1:
            skip = 1 if start == 0 else 0
            nodes, w = nodes[:, skip:], w[:, skip:]
            if nodes.size == 0:
                continue
            inner, lower = _tree(spec, t0, nodes.ravel(), depth - 1, panels)
            h = h[:, skip:] @ inner.reshape(*nodes.shape, spec.dim, spec.dim)
        terms = w[..., None, None] * h
        terms[:, 0] += total  # the running sum over the nodes, carried across blocks
        total = np.add.accumulate(terms, axis=1, out=terms)[:, -1].copy()
    if inner is not None:  # the last node of the last grid is uppers[-1]
        lower = lower + [inner[-1].copy()]
    return total, lower


def _iterated(spec: HamiltonianSpec, t0: float, upper: float, depth: int,
              panels: int) -> list[np.ndarray]:
    """Nested integrals I_1 .. I_depth over t0 < t_k < ... < t_1 < upper.

    I_k integrates H(t_1) ... H(t_k); I_0, the identity, is left to the
    caller.  The iterated form is evaluated as a node tree: level k holds
    the Simpson grids ``linspace(t0, x, 2 panels + 1)`` under every node
    x > t0 of level k - 1, each level is sampled with
    ``HamiltonianSpec.sample_stack`` and the products are contracted
    from the innermost level out.  These are the nodes, weights and
    summation order of the recursion that re-grids each inner integral
    at its outer node, so the result is the same to the bit.  One pass
    yields every level: the last node of each grid is its upper limit
    (linspace stores the endpoint exactly), so I_1 .. I_(depth-1) at
    ``upper`` are read at the last node of each level.  Trees above
    ``_TREE_BYTES`` of samples are walked in blocks of outer nodes.
    """
    if not np.isfinite(float(upper) - float(t0)):
        raise ValueError(f"t - t0 must be a finite span of finite times, got t0={t0}, t={upper}")
    if depth == 0 or upper == t0:
        return [np.zeros((spec.dim, spec.dim), dtype=np.complex128)
                for _ in range(depth)]
    top, lower = _tree(spec, t0, np.array([upper], dtype=float), depth, panels)
    return lower + [top[0]]


@OVERFLOW_RAISES
def dyson_u(spec: HamiltonianSpec, t0: float, t: float, order: int,
            panels: int) -> SeriesExpansion:
    """Iterated-integral expansion of U(t, t0) through ``order``.

    Term k is (-i)^k times the nested integral of H(t_1)...H(t_k); all
    terms come from one nested pass whose cost scales as panels**order,
    hence the order cap.  The terms of a lower order are exactly the
    leading terms of a higher one.
    """
    if len(spec.kick_times):
        raise ValueError("dyson_u requires a smooth spec: delta kicks make the iterated "
                         "integrands indefinite (handled symbolically in singular_dynamics)")
    _check_order(order)
    levels = [np.eye(spec.dim, dtype=np.complex128)]
    levels += _iterated(spec, t0, t, order, panels)
    return _assemble([(-1j) ** k * level for k, level in enumerate(levels)])


def _product(x, y) -> list[np.ndarray]:
    """Cauchy product of two series of equal length: term k is sum_j x_j y_(k-j)."""
    return [sum((x[j] @ y[k - j] for j in range(k + 1)), np.zeros_like(x[0]))
            for k in range(len(x))]


def _inverse(u) -> list[np.ndarray]:
    """Terms of U^-1 from those of U: v_0 = 1, v_n = -(u_1 v_(n-1) + ... + u_n v_0)."""
    v = [u[0]]
    for n in range(1, len(u)):
        v.append(-sum((u[j] @ v[n - j] for j in range(1, n + 1)), np.zeros_like(u[0])))
    return v


def _normalization(u) -> list[np.ndarray]:
    """Terms of N = (U U^dagger)^(-1/2) from those of U.

    N^2 = V^dagger V with V = U^-1, solved order by order from N_0 = 1 as
    2 N_k = M_k - (N_1 N_(k-1) + ... + N_(k-1) N_1), M = V^dagger V.
    """
    v = _inverse(u)
    m = _product([x.conj().T for x in v], v)
    n = [m[0]]
    for k in range(1, len(m)):
        n.append(0.5 * (m[k] - sum((n[j] @ n[k - j] for j in range(1, k)), np.zeros_like(m[0]))))
    return n


@OVERFLOW_RAISES
def dyson_u_inverse(u: SeriesExpansion) -> SeriesExpansion:
    """Expansion of U^-1 from the expansion ``u`` of U, through ``u.order``.

    Fixed by demanding U^-1 U = 1 order by order; with U = 1 - i A - B + ...,
    A = int H and B = int int H H, it starts 1 + i A - A^2 + B.
    """
    return _assemble(_inverse(u.terms))


@OVERFLOW_RAISES
def general_norm_expansion(u: SeriesExpansion) -> SeriesExpansion:
    """Expansion of N = (U U^dagger)^(-1/2) from the expansion ``u`` of U.

    N^2 = (U U^dagger)^-1 solved order by order through ``u.order``, the
    definition ``pitaron`` applies numerically, with every adjoint kept
    separate.  With A and B as in ``dyson_u_inverse`` it starts

        N = 1 + (i/2) A - (i/2) A^dagger
              - (3/8) A^2 - (3/8) A^dagger^2 + (3/8) A^dagger A - (1/8) A A^dagger
              + (1/2) B + (1/2) B^dagger + ...

    For Hermitian H this is
    N = 1 - (1/2) A^2 + (1/2)(B + B^dagger) + ..., with B + B^dagger the
    iterated integral of {H(t'), H(t'')}: the first-order term vanishes
    and the two quadratic pieces cancel whenever the swap of integration
    order is legitimate, which is what makes N trivial for bounded
    Hermitian evolution.
    """
    return _assemble(_normalization(u.terms))


@OVERFLOW_RAISES
def general_pitaron_expansion(u: SeriesExpansion) -> SeriesExpansion:
    """Expansion of P = N U from the expansion ``u`` of U, through ``u.order``.

    The Cauchy product of ``general_norm_expansion(u)`` and ``u``.  With A
    and B as in ``dyson_u_inverse`` it starts

        P = 1 - (i/2) A - (i/2) A^dagger
              + (1/8) A^2 - (3/8) A^dagger^2 - (1/8) A^dagger A - (1/8) A A^dagger
              - (1/2) B + (1/2) B^dagger + ...

    For Hermitian H this is
    P = 1 - i A - (1/2) A^2 - (1/2)(B - B^dagger) + ..., with B - B^dagger
    the iterated integral of [H(t'), H(t'')]; unlike the raw expansion of
    U, that partial sum is unitary through its own order without invoking
    any integral-swap identity.  For anti-Hermitian scalar generators it
    is the identity, their exact unitarization being trivial.
    """
    return _assemble(_product(_normalization(u.terms), u.terms))


def log_log_slope(lengths, errors) -> float | None:
    """Least-squares slope of log ``errors`` against log ``lengths``.

    None for a degenerate fit: fewer than two distinct lengths, every
    error below 1e-13, or an error of zero, whose log is -inf.
    """
    if len(set(lengths)) < 2 or max(errors) < 1e-13 or min(errors) == 0.0:
        return None
    slope, _ = np.polyfit(np.log(lengths), np.log(errors), 1)
    return float(slope)


def convergence_order(spec: HamiltonianSpec, t0: float, exact, order: int,
                      T_list, panels: int = 64) -> float:
    """Least-squares slope of log truncation error against log interval.

    ``exact`` maps an interval length T to the reference propagator.  For
    a series truncated after ``order`` the slope should be order + 1; a
    degenerate fit (see ``log_log_slope``) raises ``RuntimeError``.
    """
    T = np.asarray(sorted(float(x) for x in T_list))
    if len(T) < 2 or T[0] <= 0:
        raise ValueError("T_list needs at least two positive lengths")
    if T[-1] / T[0] < 10.0 - 1e-12:
        raise ValueError("T_list must span at least one decade")
    errors = []
    for length in T:
        partial = dyson_u(spec, t0, t0 + length, order, panels).partial_sums[-1]
        errors.append(frob(partial - np.asarray(exact(length))))
    slope = log_log_slope(T, errors)
    if slope is None:
        raise RuntimeError(
            "degenerate fit: truncation errors vanish on the whole grid"
        )
    return slope
