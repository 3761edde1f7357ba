"""Picard successive approximations and where they break down.

The iterates y_{n+1}(x) = y0 + int_x0^x f(x', y_n(x')) dx' are computed
by cumulative trapezoid on a shared grid of at least 64 points, and every
run, the breakdown's second iterates included, does its arithmetic under
one overflow rule: an overflow raises ``FloatingPointError`` rather than
leaving an inf in the result.  For bounded right-hand sides
they converge at the classic factorial rate; for a delta right-hand side
the second substitution produces an integral of delta times its own step
whose smeared value depends on how the widths are sent to zero, so the
iteration has no unique limit even though the direct solution
exp(Theta(x - a)) is perfectly definite.

The singular equation x y' = A is the standing example of an equation
the iteration cannot touch at all: its general solution jumps between
two integration constants across x = 0 and is provided here only as a
closed-form two-branch evaluator.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .singular_dynamics import SmearedDelta

__all__ = [
    "PicardRun",
    "BreakdownReport",
    "picard_iterate",
    "error_bound",
    "picard_delta_breakdown",
    "identity_sqrt_family",
    "log_branch_solution",
]


@dataclass(frozen=True)
class PicardRun:
    """Successive approximations on a shared grid.

    ``iterates`` has shape (n_max + 1, grid); row zero is the constant
    initial guess.  ``errors`` holds sup-norm distances to the reference
    solution (the final iterate when no reference is given).
    """

    xs: np.ndarray
    iterates: np.ndarray
    errors: np.ndarray


def _cumtrapz(values: np.ndarray, dx: float) -> np.ndarray:
    out = np.empty_like(values)
    out[0] = 0.0
    np.cumsum((values[1:] + values[:-1]) * (dx / 2.0), out=out[1:])
    return out


def _grid(x0: float, x1: float, grid: int) -> tuple[np.ndarray, float]:
    """The ``grid`` points of [x0, x1] every Picard run integrates on, and their step."""
    if grid < 64:
        raise ValueError(f"grid must have at least 64 points, got {grid}")
    if not x1 > x0:
        raise ValueError(f"need x1 > x0, got x0={x0}, x1={x1}")
    return np.linspace(x0, x1, grid), (x1 - x0) / (grid - 1)


def picard_iterate(rhs, y0: float, x0: float, x1: float, n_max: int,
                   grid: int, reference=None) -> PicardRun:
    """Run n_max successive substitutions of the integral equation.

    ``rhs(x, y)`` must accept array arguments.  A non-finite sample stops
    the run immediately with the offending location in the message; that
    is the detector for genuinely singular right-hand sides.  An overflow
    anywhere in the run (in ``rhs``, a substitution, ``reference`` or the
    error sweep) raises ``FloatingPointError``: no iterate or error is
    ever an overflowed inf.
    """
    xs, dx = _grid(x0, x1, grid)
    iterates = np.empty((n_max + 1, grid))
    iterates[0] = y0
    with np.errstate(over="raise"):
        for n in range(n_max):
            f = np.asarray(rhs(xs, iterates[n]), dtype=float)
            if f.shape != xs.shape:
                f = np.broadcast_to(f, xs.shape)
            bad = ~np.isfinite(f)
            if np.any(bad):
                i = int(np.argmax(bad))
                raise ValueError(
                    f"rhs returned a non-finite sample at x={float(xs[i]):g} "
                    f"(iterate {n}): the integrand is not a measurable function there"
                )
            iterates[n + 1] = y0 + _cumtrapz(f, dx)

        ref = np.asarray(reference(xs), dtype=float) if reference is not None else iterates[-1]
        errors = np.max(np.abs(iterates - ref), axis=1)
    return PicardRun(xs=xs, iterates=iterates, errors=errors)


def error_bound(M: float, Nlip: float, h: float, n: int) -> float:
    """A-priori bound M N^(n-1) h^n / n! on the n-th iterate's error.

    M bounds |f| and Nlip bounds |df/dy| on the domain rectangle; h is
    the interval radius min(a, b/M).  Where that float form overflows
    (n! is beyond the float range from n = 171 on, and N^(n-1) or h^n can
    be), the bound is taken in log space, log n! = lgamma(n + 1), so a
    bound that tends to 0 stays a float (down to underflow); a bound that
    is itself beyond the float range raises ``FloatingPointError``.
    """
    if min(M, Nlip, h) <= 0 or n < 1:
        raise ValueError("bound parameters must be positive and n >= 1")
    if n <= 170:  # 171! is beyond the float range
        with contextlib.suppress(OverflowError):
            bound = M * Nlip ** (n - 1) * h**n / math.factorial(n)
            if bound < math.inf:
                return bound
    try:
        return math.exp(math.log(M) + (n - 1) * math.log(Nlip) + n * math.log(h)
                        - math.lgamma(n + 1))
    except OverflowError:
        raise FloatingPointError(f"error bound of iterate {n} is beyond the float range") from None


@dataclass(frozen=True)
class BreakdownReport:
    """Second-iterate behaviour of the smeared delta right-hand side.

    Symmetric smearing pins the doubled term to 1/2, so the second
    iterate lands near 1 + mass + 1/2; asymmetric width pairs slide that
    term anywhere between 0 and 1, so the eps -> 0 limit is not unique.
    ``direct_value`` is the closed-form solution exp(Theta(x1 - a)) the
    iteration fails to reach.
    """

    eps_sequence: tuple[float, ...]
    symmetric_second_iterates: tuple[float, ...]
    asymmetric_pairs: tuple[tuple[float, float], ...]
    asymmetric_second_iterates: tuple[float, ...]
    direct_value: float
    asymmetric_spread: float


def _second_iterate(inner: SmearedDelta, outer: SmearedDelta, x1: float,
                    grid: int) -> float:
    """y2(x1) for y' = delta(x - a) y, y(0) = 1, on [0, x1].

    The first substitution smears the delta by ``inner``, the second by
    ``outer``, mirroring how each nested integral would be regularized
    independently.  The grid step must resolve the finer of the two
    widths, else ``ValueError``; an overflow raises ``FloatingPointError``.
    """
    xs, dx = _grid(0.0, x1, grid)
    width = min(inner.scale, outer.scale)
    if dx > width / 8.0:
        raise ValueError(f"grid step {dx:.3e} cannot resolve smearing width {width:.3e}")
    with np.errstate(over="raise"):
        y1 = 1.0 + _cumtrapz(inner.density(xs), dx)
        y2 = 1.0 + _cumtrapz(outer.density(xs) * y1, dx)
    return float(y2[-1])


def picard_delta_breakdown(a: float, epsilon: float, x1: float,
                           grid: int = 32001) -> BreakdownReport:
    """Probe the iteration on f(x, y) = delta(x - a) y via smearing.

    Runs symmetric Gaussian smearings over a decreasing width sequence
    (second iterates hover near 1 + 1 + 1/2) and the two decade-apart
    causal width pairs, whose second iterates differ by almost one:
    no unique smeared limit exists, unlike the direct solution.  Each
    run stops at the second iterate, where the pathology appears.
    """
    if not (0.0 < a < x1):
        raise ValueError(f"need 0 < a < x1, got a={a}, x1={x1}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    eps_sequence = tuple(epsilon * f for f in (4.0, 2.0, 1.0))
    gaussians = [SmearedDelta(kind="gaussian", epsilon=eps, center=a) for eps in eps_sequence]
    symmetric = tuple(_second_iterate(d, d, x1, grid) for d in gaussians)
    pairs = ((epsilon / 10.0, epsilon * 10.0), (epsilon * 10.0, epsilon / 10.0))
    causal = [[SmearedDelta(kind="causal", epsilon=e, center=a) for e in pair] for pair in pairs]
    asymmetric = tuple(_second_iterate(inner, outer, x1, grid) for inner, outer in causal)
    return BreakdownReport(
        eps_sequence=eps_sequence,
        symmetric_second_iterates=symmetric,
        asymmetric_pairs=pairs,
        asymmetric_second_iterates=asymmetric,
        direct_value=math.e,
        asymmetric_spread=float(max(asymmetric) - min(asymmetric)),
    )


def identity_sqrt_family(a: float, b: float) -> np.ndarray:
    """A two-by-two square root of the identity that is not the positive one.

    For b != 0 returns [[a, b], [(1 - a^2)/b, -a]], which squares to the
    identity for any a.  For b == 0 the traceless form degenerates and
    only a = +/-1 survives, giving the diagonal roots a * I.  The unique
    positive definite root is the identity itself; everything else in
    the family fails positivity.  An entry (1 - a^2)/b beyond the float
    range raises ``FloatingPointError``.
    """
    if b == 0.0:
        if abs(a) != 1.0:
            raise ValueError("with b = 0 only a = +/-1 squares to the identity")
        return np.diag([a, a]).astype(np.complex128)
    c = (1.0 - a * a) / b
    if not math.isfinite(c):
        raise FloatingPointError(f"(1 - a^2) / b = {c} is beyond the float range")
    return np.array([[a, b], [c, -a]], dtype=np.complex128)


def log_branch_solution(A: float, c_pos: float, c_neg: float):
    """General solution of x y' = A: log branches with independent constants.

    y(x) = A log|x| + c_pos for x > 0 and A log|x| + c_neg for x < 0.
    The constant may jump across the singular point, which is exactly the
    discontinuous freedom no successive-approximation scheme can see;
    the point x = 0 itself is outside every branch.
    """

    def evaluate(x: float) -> float:
        if x == 0.0:
            raise ValueError("the solution is singular at x = 0")
        return A * math.log(abs(x)) + (c_pos if x > 0 else c_neg)

    return evaluate
