"""Perturbative expansions of U, its inverse, N and P.

All integrals are iterated ("solve by substitution") rather than
rectangle-form double integrals: term k is the nested integral over
t0 < t_k < ... < t_1 < t, evaluated by composite Simpson at every level
with the inner upper limit re-gridded to the outer variable.  That form
is the construction under study here, so it is never replaced by the
productive (Fubini-swapped) form even where the two agree analytically.
One nested pass to the highest order needed yields every lower order
too, so each expansion samples H through a single quadrature.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianSpec
from .linalg import frob

MAX_ORDER = 4  # nested quadrature cost grows as panels**order

__all__ = [
    "MAX_ORDER",
    "SeriesExpansion",
    "dyson_u",
    "dyson_u_inverse",
    "general_norm_expansion",
    "general_pitaron_expansion",
    "convergence_order",
    "absolute_convergence_surrogate",
]


@dataclass(frozen=True)
class SeriesExpansion:
    """Ordered expansion terms; term k carries k powers of the Hamiltonian."""

    order: int
    terms: tuple[np.ndarray, ...]
    partial_sums: tuple[np.ndarray, ...]
    term_norms: tuple[float, ...]


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
        term_norms=tuple(frob(t) for t in terms),
    )


def _simpson_grid(a: float, b: float, panels: int):
    nodes = np.linspace(a, b, 2 * panels + 1)
    h = (b - a) / (2 * panels)
    weights = np.full(2 * panels + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return nodes, weights * (h / 3.0)


def _reject_kicks(spec: HamiltonianSpec, what: str) -> None:
    if spec.kicks:
        raise ValueError(
            f"{what} requires a smooth spec: delta kicks make the iterated "
            "integrands indefinite (handled symbolically in singular_dynamics)"
        )


def _check_order(order: int) -> None:
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [0, {MAX_ORDER}], got {order}")


def _iterated(spec: HamiltonianSpec, t0: float, upper: float, depth: int,
              panels: int) -> list[np.ndarray]:
    """Nested integrals I_1 .. I_depth over t0 < t_k < ... < t_1 < upper.

    I_k integrates H(t_1) ... H(t_k); I_0, the identity, is left to the
    caller.  One pass yields every level: the pass to I_depth evaluates
    I_(depth-1) at each outer node, and the last node is ``upper`` itself
    (linspace stores the endpoint exactly), so the levels below come from
    that last inner call, bit for bit what a pass to their own depth
    would give.
    """
    if depth == 0 or upper == t0:
        return [np.zeros((spec.dim, spec.dim), dtype=np.complex128)
                for _ in range(depth)]
    nodes, weights = _simpson_grid(t0, upper, panels)
    total = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    if depth == 1:
        for x, w in zip(nodes, weights):
            total += w * spec.sample(x)
        return [total]
    for x, w in zip(nodes, weights):
        h = spec.sample(x)
        inner = _iterated(spec, t0, x, depth - 1, panels)
        total += w * (h @ inner[-1])
    return inner + [total]  # inner is now the pass at the last node, upper


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


def convergence_order(spec: HamiltonianSpec, t0: float, exact, order: int,
                      T_list, panels: int = 64) -> float:
    """Least-squares slope of log truncation error against log interval.

    ``exact`` maps an interval length T to the reference propagator.  For
    a series truncated after ``order`` the slope should be order + 1.
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
    errors = np.asarray(errors)
    if np.max(errors) < 1e-13:
        raise RuntimeError(
            "degenerate fit: truncation errors vanish on the whole grid"
        )
    slope, _ = np.polyfit(np.log(T), np.log(errors), 1)
    return float(slope)


def absolute_convergence_surrogate(spec: HamiltonianSpec, t0: float, t: float,
                                   panels: int = 64) -> float:
    """Nested integral of ||H(t') H(t'')||_F over the ordered triangle.

    A matrix-norm stand-in for the state-wise absolute convergence
    condition of the second-order term; finite for every bounded sampled
    spec, reported rather than asserted.
    """
    _reject_kicks(spec, "absolute_convergence_surrogate")
    outer_nodes, outer_weights = _simpson_grid(t0, t, panels)
    total = 0.0
    for x, w in zip(outer_nodes, outer_weights):
        hx = spec.sample(x)
        inner_nodes, inner_weights = _simpson_grid(t0, x, panels)
        inner = sum(
            wi * frob(hx @ spec.sample(y))
            for y, wi in zip(inner_nodes, inner_weights)
        )
        total += w * inner
    return float(total)
