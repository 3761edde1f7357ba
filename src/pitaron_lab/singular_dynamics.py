"""Exact handling of delta-kick dynamics and its regularization pitfalls.

Delta kicks integrate to Heaviside steps, so the comb expansions have
closed forms in the cumulative strength S(t), one running sum of the
kick strengths.  Their kicks are checked by ``hamiltonian._comb_kicks``,
which checks the times as a spec's kick times are checked.  Terms of the
form int delta(x - a) Theta(x - a) dx have no canonical value; they are
flagged as indefinite and never evaluated.  A closed form whose value
leaves the float range raises ``FloatingPointError``.  Smearing the
deltas instead of treating them exactly is demonstrated to be limit-path
dependent, and the classic dominated-convergence counterexamples show
why exchanging limits with integrals is not free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import _comb_kicks
from .linalg import OVERFLOW_RAISES, simpson_grid, simpson_pattern

__all__ = [
    "SmearedDelta",
    "CombExpansionReport",
    "DominatedConvergenceReport",
    "comb_truncated_norm",
    "comb_expansion_terms",
    "comb_pitaron_expansion",
    "smeared_second_order",
    "dominated_convergence_demos",
]

SMEARING_KINDS = ("nascent", "gaussian", "causal")


@dataclass(frozen=True)
class SmearedDelta:
    """Finite-width stand-in for delta(x - center).

    kinds:
      nascent   Lorentzian eps / (pi ((x-c)^2 + eps^2)); symmetric, fat tails
      gaussian  exp(-(x-c)^2 / 4 eps) / (2 sqrt(pi eps)); symmetric
      causal    one-sided exp(-(x-c)/eps) / eps for x >= c; supported after
                the instant it regularizes

    The causal kind exists because symmetric representations pin the
    nested second-order integral to 1/2 for every width pair (the two
    half-masses always split evenly), hiding the limit-path dependence
    the asymmetric pairs are meant to expose.
    """

    kind: str
    epsilon: float
    center: float

    def __post_init__(self):
        if self.kind not in SMEARING_KINDS:
            raise ValueError(f"unknown smearing kind {self.kind!r}, expected one of {SMEARING_KINDS}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")

    @property
    def scale(self) -> float:
        """Width a quadrature grid has to resolve."""
        if self.kind == "gaussian":
            return math.sqrt(2.0 * self.epsilon)
        return self.epsilon

    def density(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        u = x - self.center
        if self.kind == "nascent":
            # a width whose square is beyond the float range is an overflow, not a zero density
            with np.errstate(over="raise"):
                width2 = np.float64(self.epsilon) ** 2
            return self.epsilon / (np.pi * (u * u + width2))
        if self.kind == "gaussian":
            return np.exp(-u * u / (4.0 * self.epsilon)) / (2.0 * math.sqrt(math.pi * self.epsilon))
        # causal: right-continuous at the jump (value 1/eps at the center),
        # matching the step convention; quadrature stays on the support side.
        decay = np.exp(-np.clip(u, 0.0, None) / self.epsilon) / self.epsilon
        return np.where(u >= 0, decay, 0.0)

    def window(self) -> tuple[float, float]:
        """Interval holding all but a negligible fraction of the mass."""
        if self.kind == "gaussian":
            half = 10.0 * math.sqrt(self.epsilon)  # tail mass ~ 1.4e-11
            return (self.center - half, self.center + half)
        if self.kind == "causal":
            return (self.center, self.center + 40.0 * self.epsilon)  # tail e^-40
        # Lorentzian tails decay like 1/x: w/eps = 2e7 leaves ~3e-8 outside,
        # comfortably inside the 1e-6 mass tolerance.
        half = 2.0e7 * self.epsilon
        return (self.center - half, self.center + half)

    @OVERFLOW_RAISES
    def numeric_mass(self, panels: int = 256) -> float:
        """Quadrature of the density over the window; should be 1 within 1e-6.

        The Lorentzian window is far wider than the core, so it is covered
        by dyadic shells, each resolved on its own scale.  A width whose
        window or density leaves the float range raises ``FloatingPointError``.
        """
        if self.kind in ("gaussian", "causal"):
            lo, hi = self.window()
            return _simpson_scalar(self.density, lo, hi, 8 * panels)
        core = 10.0 * self.epsilon
        total = _simpson_scalar(self.density, self.center - core, self.center + core, 8 * panels)
        inner = core
        _, hi = self.window()
        limit = hi - self.center
        while inner < limit:
            outer = min(2.0 * inner, limit)
            total += _simpson_scalar(self.density, self.center + inner, self.center + outer, panels)
            total += _simpson_scalar(self.density, self.center - outer, self.center - inner, panels)
            inner = outer
        return total


def _simpson_scalar(f, a: float, b: float, panels: int) -> float:
    if b <= a:
        return 0.0
    x, h = simpson_grid(a, b, panels)
    return float(np.sum(simpson_pattern(panels) * f(x)) * h / 3.0)


def _cumulative_simpson(f: np.ndarray, h: float) -> np.ndarray:
    """Integral of samples ``f`` from node 0 to every node of a uniform grid.

    The grid has step ``h`` and an odd number of nodes.  At even nodes
    the value is the running sum of Simpson panels, so the last entry is
    the composite Simpson integral; at odd nodes it is the panel start
    plus the integral of the panel's quadratic over its first half,
    h/12 (5 f0 + 8 f1 - f2).  Exact for cubics at even nodes and for
    quadratics at odd ones.
    """
    f0, f1, f2 = f[:-2:2], f[1::2], f[2::2]
    out = np.zeros_like(f)
    out[2::2] = np.cumsum(h / 3.0 * (f0 + 4.0 * f1 + f2))
    out[1::2] = out[:-2:2] + h / 12.0 * (5.0 * f0 + 8.0 * f1 - f2)
    return out


def _running_strength(strengths, times):
    """A comb's checked strengths and times, and the running sums of the strengths.

    ``running`` is 0, 0 + v_1, (0 + v_1) + v_2, ...: the kicks at or
    before t are a prefix, because the times increase, so S(t) is
    ``running[_through(times, t)]``, the bits of summing their strengths
    in order from 0.
    """
    strengths, times = _comb_kicks(strengths, times)
    return strengths, times, np.cumsum(np.concatenate(([0.0], strengths)))


def _through(times, t):
    """How many kick times are at or before t (a time or an array of them)."""
    if np.isnan(t).any():
        raise ValueError(f"t must be a time, got {t}")
    return np.searchsorted(times, t, side="right")


@OVERFLOW_RAISES
def comb_truncated_norm(strengths, times, t):
    """Defined part of the comb normalization: 1 - S(t)^2 / 2.

    S(t) is the cumulative kick strength through t, so the value is a
    right-continuous staircase that drops at every kick.  ``t`` is a time
    (the result is a float) or an array of them, each entry the bits of
    its own scalar call.
    """
    _, times, running = _running_strength(strengths, times)
    s = running[_through(times, t)]
    norm = 1.0 - 0.5 * s * s
    return float(norm) if np.ndim(t) == 0 else norm


@dataclass(frozen=True)
class CombExpansionReport:
    """Defined terms of the comb propagator expansion plus indefinite flags.

    ``indefinite`` is the range of the indices k of the given kicks at or
    before t, one flag each: the integral of delta(t' - t_k) Theta(t' - t_k)
    at the kick time t_k, which has no canonical value, so only its
    prefactor -V_k^2 is known and the integral stays a status.
    """

    order0: complex
    order1: complex
    order2_defined: complex
    indefinite: range


@OVERFLOW_RAISES
def comb_expansion_terms(strengths, times, t: float) -> CombExpansionReport:
    """Expansion of U(t, t0) for a kick comb, t0 before its first kick.

    Order one integrates each delta to a step.  At order two the cross
    terms (distinct kicks) are ordinary numbers, the sum of -V_k S(t_k^-)
    over the given kicks at or before t in time order, but each kick also
    produces an integral of its own delta against its own step, which is
    a product of distributions at the same point: those terms are
    reported as indefinite, one flag per kick at or before t.
    """
    strengths, times, running = _running_strength(strengths, times)
    hi = _through(times, t)
    # cumsum adds in time order, as a kick-by-kick loop does (np.sum adds pairwise)
    order2 = 0.0 - np.cumsum(strengths[:hi] * running[:hi])[-1] if hi else 0.0
    return CombExpansionReport(
        order0=1.0 + 0.0j,
        order1=-1j * float(running[hi]),
        order2_defined=complex(order2),
        indefinite=range(hi),
    )


@OVERFLOW_RAISES
def comb_pitaron_expansion(strengths, times, t: float) -> tuple[float, float]:
    """Order-2 unitarized comb expansion of U(t, t0): 1 - i S - S^2/2.

    The indefinite one-kick products cancel between the propagator and
    normalization expansions before any integral is taken, leaving the
    second-order Taylor polynomial of exp(-i S).  Returned as (re, im).
    """
    _, times, running = _running_strength(strengths, times)
    s = running[_through(times, t)]  # a numpy float, so an overflowing s * s raises
    return (float(1.0 - 0.5 * s * s), float(-s))


def smeared_second_order(eps1: float, eps2: float, kind: str, t1: float,
                         t: float, panels: int = 400) -> float:
    """Nested second-order integral with the delta smeared at two widths.

    Evaluates int_0^t dt' d_{eps2}(t' - t1) int_0^t' dt'' d_{eps1}(t'' - t1)
    on one grid of 2 panels + 1 nodes per segment, split at t1 (the
    causal kind keeps only the segment after t1, where it is supported).
    The inner integral at every node comes from one cumulative Simpson
    pass over the same grid (running panel sums at even nodes, the
    quadratic half-panel rule at odd ones), and the outer integral is
    composite Simpson over those values, so each density is evaluated
    once per segment and the cost is O(panels).  The step of the longest
    integrated segment must be at most a quarter of the finer width, else
    ``ValueError``.  For symmetric
    kinds the value is 1/2 regardless of the widths; for the causal kind
    it is eps2 / (eps1 + eps2), so sharpening one width before the other
    drives the result to 0 or 1 and no unique limit exists.
    """
    if not (0.0 < t1 < t):
        raise ValueError(f"need 0 < t1 < t, got t1={t1}, t={t}")
    inner = SmearedDelta(kind=kind, epsilon=float(eps1), center=t1)
    outer = SmearedDelta(kind=kind, epsilon=float(eps2), center=t1)
    # The causal density vanishes identically left of its center; keeping the
    # quadrature on the support side avoids sampling the jump from the wrong
    # side at the segment boundary.
    segments = ((t1, t),) if kind == "causal" else ((0.0, t1), (t1, t))
    h = max(b - a for a, b in segments) / (2 * panels)
    finest = min(inner.scale, outer.scale)
    if h > finest / 4.0:
        raise ValueError(
            f"quadrature too coarse for the smearing widths: panel step "
            f"{h:.3e} exceeds {finest / 4.0:.3e}; raise panels"
        )
    before = 0.0  # inner mass of the earlier segments
    total = 0.0
    for a, b in segments:
        x, step = simpson_grid(a, b, panels)
        cdf = before + _cumulative_simpson(inner.density(x), step)
        total += _cumulative_simpson(outer.density(x) * cdf, step)[-1]
        before = cdf[-1]
    return float(total)


@dataclass(frozen=True)
class DominatedConvergenceReport:
    """Integrals and pointwise values of the two counterexample families."""

    n_values: tuple[int, ...]
    family1_integrals: tuple[float, ...]
    family2_integrals: tuple[float, ...]
    family1_at_1: tuple[float, ...]
    family2_at_1: tuple[float, ...]


# Simpson panels for each family-2 integral of dominated_convergence_demos.
_DOMINATED_PANELS = 2048


def dominated_convergence_demos(n_list) -> DominatedConvergenceReport:
    """Limit/integral non-exchange on two classic function families.

    Family 1 is 1/n on (0, n): pointwise limit zero, integral exactly one
    for every n (computed in closed form, width times height).  Family 2
    is n x exp(-n x^2) on (0, inf): pointwise limit zero, integral 1/2
    for every n (quadrature over the window (0, sqrt(30 / n)), beyond
    which the tail mass is below 1e-13).
    """
    ns = [int(n) for n in n_list]
    if any(n < 1 for n in ns):
        raise ValueError("family index n must be at least 1")
    f1_int = []
    f2_int = []
    f1_at1 = []
    f2_at1 = []
    for n in ns:
        f1_int.append((1.0 / n) * n)  # piecewise constant: width times height
        # the tail beyond w carries 0.5 exp(-n w^2) = 0.5 e^-30 ~ 4.7e-14
        w = math.sqrt(30.0 / n)
        f2_int.append(_simpson_scalar(lambda x: n * x * np.exp(-n * x * x), 0.0, w, _DOMINATED_PANELS))
        f1_at1.append(1.0 / n if 0.0 < 1.0 < n else 0.0)
        f2_at1.append(n * math.exp(-n))
    return DominatedConvergenceReport(
        n_values=tuple(ns),
        family1_integrals=tuple(f1_int),
        family2_integrals=tuple(f2_int),
        family1_at_1=tuple(f1_at1),
        family2_at_1=tuple(f2_at1),
    )
