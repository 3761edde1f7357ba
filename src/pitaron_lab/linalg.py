"""Dense complex matrix kernel.

Everything downstream (propagators, normalization operators, expansions)
compiles down to the primitives in this module: the matrix exponential,
Frobenius-norm defects and the Lyapunov solve.  All matrices are square
complex128 numpy arrays, validated on entry.  ``mat_exp`` also takes a
stack ``(..., n, n)`` and exponentiates it in one call, each matrix
exactly as it would be on its own.  The positive root N = (U U^dagger)^(-1/2)
is not built here: ``propagation.pitaron`` forms it from one singular
value decomposition.  Target dimensions are desk scale (dim <= 64);
storage is always dense.
"""

from __future__ import annotations

import math

import numpy as np

# Frobenius tolerance below which a matrix counts as Hermitian.
HERMITICITY_TOL = 1e-10
# lyapunov_solve needs every eigenvalue pair sum of N above this.
PD_CLAMP_TOL = 1e-12
# Condition numbers beyond this make an inverse numerically meaningless;
# operations fail loudly instead of returning noise.
COND_THRESHOLD = 1e12
# Taylor degrees 1..14 of mat_exp: _EXP_THETA[m - 1] is the largest 1-norm
# whose first omitted term ||A||_1^(m+1) / (m+1)! stays below the unit
# roundoff 2^-53.  _EXP_THETA[-1] = 0.555 covers every argument scaled to
# ||A||_1 <= 0.5.
_EXP_THETA = np.array([(2.0**-53 * math.factorial(m + 1)) ** (1.0 / (m + 1))
                       for m in range(1, 15)])

__all__ = [
    "HERMITICITY_TOL",
    "PD_CLAMP_TOL",
    "COND_THRESHOLD",
    "as_matrix",
    "frob",
    "hermiticity_defect",
    "unitarity_defect",
    "mat_exp",
    "lyapunov_solve",
]


def _square_stack(a, expected: str) -> np.ndarray:
    """``a`` as complex128 with square trailing dimensions >= 1 and finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected {expected}, got shape {m.shape}")
    if m.shape[-1] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return _square_stack(m, "a square matrix")


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def hermiticity_defect(a: np.ndarray) -> float:
    """||A - A^dagger||_F; zero iff A is Hermitian."""
    return frob(a - a.conj().T)


def unitarity_defect(a: np.ndarray) -> float:
    """||A^dagger A - 1||_F; zero iff A is unitary."""
    a = np.asarray(a)
    return frob(a.conj().T @ a - np.eye(a.shape[0]))


def hermitize(a: np.ndarray) -> np.ndarray:
    """(A + A^dagger) / 2, for one matrix or each of a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def mat_exp(a) -> np.ndarray:
    """exp(A) by scaling and squaring with a Taylor core, for one matrix or a stack.

    ``a`` is a square matrix or a stack of them, shape ``(..., n, n)``;
    the result has the same shape.  Each matrix A_k is scaled by 2^-s_k
    to 1-norm <= 0.5, its Taylor polynomial is evaluated by Horner's rule
    at the smallest degree 1 <= m_k <= 14 whose first omitted term
    ||A_k / 2^s_k||_1^(m+1) / (m+1)! is at most 2^-53, and the result is
    squared s_k times.  The stack is validated once (square, dim >= 1,
    finite) and each degree group runs Horner on its sub-stack, so
    ``mat_exp(stack)[k]`` equals ``mat_exp(stack[k])`` bit for bit
    whatever else is in the stack.  Relative accuracy is ~1e-14 for
    norms up to ~30.  A squaring that overflows (or makes inf - inf)
    raises ``FloatingPointError`` instead of returning inf or NaN.
    """
    a = _square_stack(a, "a square matrix or a stack of them")
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    # smallest s >= 0 with ||A||_1 2^-s <= 0.5, exact through frexp
    mantissa, exponent = np.frexp(np.abs(stack).sum(axis=-2).max(axis=-1))
    squarings = np.maximum(exponent + (mantissa > 0.5), 0)
    scaled = stack * np.ldexp(1.0, -squarings)[:, None, None]
    degrees = 1 + np.searchsorted(_EXP_THETA, np.ldexp(mantissa, exponent - squarings))
    out = np.empty_like(scaled)
    for degree in set(degrees.tolist()):
        group = degrees == degree
        out[group] = _taylor_horner(scaled[group], degree)
    with np.errstate(over="raise", invalid="raise"):
        for j in range(int(squarings.max(initial=0))):
            group = squarings > j
            out[group] = out[group] @ out[group]
    return out.reshape(a.shape)


def _taylor_horner(a: np.ndarray, degree: int) -> np.ndarray:
    """sum_{k <= degree} A^k / k! as I + A (I + A/2 (... (I + A/degree)))."""
    eye = np.eye(a.shape[-1])
    # in place, so a step holds one product besides p: same bits, less memory
    p = a / degree
    p += eye
    for k in range(degree - 1, 0, -1):
        p = a @ p
        p /= k
        p += eye
    return p


def lyapunov_solve(n, q) -> np.ndarray:
    """Solve N @ X + X @ N = Q for Hermitian positive definite N.

    N must be Hermitian to within ``HERMITICITY_TOL`` (else ``ValueError``).
    The solve works in the eigenbasis of N from ``np.linalg.eigh``, where
    the solution is entrywise Q_ij / (lambda_i + lambda_j); positivity of
    the spectrum makes it unique.  N counts as positive definite when
    every pair sum lambda_i + lambda_j exceeds ``PD_CLAMP_TOL``, else
    ``LinAlgError``.
    """
    n = as_matrix(n)
    q = as_matrix(q)
    if n.shape != q.shape:
        raise ValueError(f"dimension mismatch: N is {n.shape}, Q is {q.shape}")
    defect = hermiticity_defect(n)
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"N is not Hermitian: ||N - N^dagger||_F = {defect:.3e} > {HERMITICITY_TOL:.1e}"
        )
    values, v = np.linalg.eigh(hermitize(n))
    pair_sums = values[:, None] + values[None, :]
    if np.min(pair_sums) <= PD_CLAMP_TOL:
        raise np.linalg.LinAlgError(
            f"N is not positive definite: min eigenvalue pair sum "
            f"{np.min(pair_sums):.3e}"
        )
    q_tilde = v.conj().T @ q @ v
    return v @ (q_tilde / pair_sums) @ v.conj().T
