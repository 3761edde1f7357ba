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
nodes, weights and summation order of the scalar recursion.  One nested
pass to the highest order needed yields every lower order too, so each
expansion samples H through a single quadrature.

The N and P expansions keep every adjoint separate, so they hold for
non-Hermitian H; for Hermitian H they reduce to the textbook forms.

Second-order commutator and anticommutator integrals are assembled from
the shared iterated integral and its adjoint; by linearity of the
quadrature this equals running the same nested rule directly on the
commutator or anticommutator integrand.

Kicked specs are rejected throughout: with delta kicks the integrands
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
from .linalg import frob, simpson_grid, simpson_pattern

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


def _reject_kicks(spec: HamiltonianSpec, what: str) -> None:
    if len(spec.kick_times):
        raise ValueError(
            f"{what} requires a smooth spec: delta kicks make the iterated "
            "integrands indefinite (handled symbolically in singular_dynamics)"
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
    if depth == 0 or upper == t0:
        return [np.zeros((spec.dim, spec.dim), dtype=np.complex128)
                for _ in range(depth)]
    top, lower = _tree(spec, t0, np.array([upper], dtype=float), depth, panels)
    return lower + [top[0]]


def dyson_u(spec: HamiltonianSpec, t0: float, t: float, order: int,
            panels: int) -> SeriesExpansion:
    """Iterated-integral expansion of U(t, t0) through ``order``.

    Term k is (-i)^k times the nested integral of H(t_1)...H(t_k); all
    terms come from one nested pass whose cost scales as panels**order,
    hence the order cap.  The terms of a lower order are exactly the
    leading terms of a higher one.
    """
    _reject_kicks(spec, "dyson_u")
    _check_order(order)
    levels = [np.eye(spec.dim, dtype=np.complex128)]
    levels += _iterated(spec, t0, t, order, panels)
    return _assemble([(-1j) ** k * level for k, level in enumerate(levels)])


def dyson_u_inverse(spec: HamiltonianSpec, t0: float, t: float, order: int,
                    panels: int) -> SeriesExpansion:
    """Expansion of U(t, t0)^-1, fixed by demanding U^-1 U = 1 order by order.

    With u_k the terms of the forward expansion, v_0 = 1 and
    v_n = -(u_1 v_{n-1} + ... + u_n v_0); at second order this is
    1 + i int H - (int H)^2 + int int H H.
    """
    _reject_kicks(spec, "dyson_u_inverse")
    u_terms = dyson_u(spec, t0, t, order, panels).terms
    v_terms: list[np.ndarray] = [np.eye(spec.dim, dtype=np.complex128)]
    for n in range(1, order + 1):
        acc = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
        for j in range(1, n + 1):
            acc = acc + u_terms[j] @ v_terms[n - j]
        v_terms.append(-acc)
    return _assemble(v_terms)


def general_norm_expansion(spec: HamiltonianSpec, t0: float, t: float,
                           panels: int = 64) -> SeriesExpansion:
    """Second-order normalization expansion without Hermiticity assumptions.

    With A = int H and B = int int H H (iterated, from one nested pass),
    the square-root Taylor expansion of ((U^dagger)^-1 U^-1)^(1/2) keeps
    every adjoint separate:

        N = 1 + (i/2) A - (i/2) A^dagger
              - (3/8) A^2 - (3/8) A^dagger^2 + (1/4) A^dagger A
              + (1/2) B + (1/2) B^dagger + ...

    where |A|^2 = A^dagger A.  For Hermitian H this is
    N = 1 - (1/2) A^2 + (1/2)(B + B^dagger) + ..., with B + B^dagger the
    iterated integral of {H(t'), H(t'')}: the first-order term vanishes
    and the two quadratic pieces cancel whenever the swap of integration
    order is legitimate, which is what makes N trivial for bounded
    Hermitian evolution.
    """
    _reject_kicks(spec, "general_norm_expansion")
    a, b = _iterated(spec, t0, t, 2, panels)
    ad = a.conj().T
    second = (
        -0.375 * (a @ a)
        - 0.375 * (ad @ ad)
        + 0.25 * (ad @ a)
        + 0.5 * (b + b.conj().T)
    )
    terms = [
        np.eye(spec.dim, dtype=np.complex128),
        0.5j * a - 0.5j * ad,
        second,
    ]
    return _assemble(terms)


def general_pitaron_expansion(spec: HamiltonianSpec, t0: float, t: float,
                              panels: int = 64) -> SeriesExpansion:
    """Second-order unitarized expansion without Hermiticity assumptions.

        P = 1 - (i/2) A - (i/2) A^dagger
              + (1/8) A^2 - (3/8) A^dagger^2 - (1/4) A^dagger A
              - (1/2) B + (1/2) B^dagger + ...

    with A and B as in ``general_norm_expansion``.  For Hermitian H this is
    P = 1 - i A - (1/2) A^2 - (1/2)(B - B^dagger) + ..., with B - B^dagger
    the iterated integral of [H(t'), H(t'')]; unlike the raw expansion of
    U, that partial sum is unitary through its own order without invoking
    any integral-swap identity.  For anti-Hermitian scalar generators it
    is the identity, their exact unitarization being trivial.
    """
    _reject_kicks(spec, "general_pitaron_expansion")
    a, b = _iterated(spec, t0, t, 2, panels)
    ad = a.conj().T
    second = (
        0.125 * (a @ a)
        - 0.375 * (ad @ ad)
        - 0.25 * (ad @ a)
        - 0.5 * b
        + 0.5 * b.conj().T
    )
    terms = [
        np.eye(spec.dim, dtype=np.complex128),
        -0.5j * a - 0.5j * ad,
        second,
    ]
    return _assemble(terms)


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
