"""Dense complex matrix kernel.

Everything downstream (propagators, normalization operators, expansions)
compiles down to the primitives in this module: the matrix exponential,
Frobenius-norm defects and the Lyapunov solve.  All matrices are square
complex128 numpy arrays, validated on entry.  ``mat_exp`` also takes a
stack ``(..., n, n)`` and exponentiates it in one call, and ``frob_stack``
reduces one, each matrix exactly as it would be on its own.  Stacked
products inside the kernel (and the stepper's fold) go through one
private product, ``_matmul``: entrywise at dim 1 and 2, where a stacked
``@`` would spend its time in one BLAS call per matrix, and ``@`` above.
``mat_exp`` refuses arguments that need more than ``_EXP_MAX_SQUARINGS``
squarings, where rounding would no longer be small.  The
positive root N = (U U^dagger)^(-1/2) is not built here:
``propagation.pitaron`` forms it from one singular value decomposition.
``simpson_grid`` builds every composite Simpson grid of the package and
``simpson_pattern`` the weight pattern of the callers that scale it.
Target dimensions are desk scale (dim <= 64); storage is always dense.
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
# The accuracy domain of mat_exp: at most this many squarings, ||A||_1 <= 2^20.
# Each squaring doubles the rounding error.  Over a seeded sweep of 5130
# Hermitian generators H (dims 1-64, 190 per squaring count s = 0..26), the
# worst ||U^dagger U - 1||_F of U = mat_exp(-iH) stayed below
# n * 2^s * 3.1e-16; s = 21 is the largest count whose envelope meets the
# budget n * 1e-9 (worst seen 5.4e-10 n; 9.4e-10 n at s = 22, 1.1e-8 n at 26).
_EXP_MAX_SQUARINGS = 21

__all__ = [
    "HERMITICITY_TOL",
    "PD_CLAMP_TOL",
    "COND_THRESHOLD",
    "as_matrix",
    "as_stack",
    "frob",
    "frob_stack",
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


def as_stack(a) -> np.ndarray:
    """Coerce to a square complex matrix, or a stack of them, with finite entries."""
    return _square_stack(a, "a square matrix or a stack of them")


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def frob_stack(a) -> np.ndarray:
    """Frobenius norm of each matrix of the stack ``a`` of shape ``(..., m, n)``.

    Each matrix is reduced as ``frob`` reduces it alone: its entries in
    memory order, summed as two BLAS dot products over the real and the
    imaginary parts (one for a real stack), so entry k has the bits of
    ``frob(a[k])``, strided and transposed views included.  A stacked
    ``np.linalg.norm(axis=(-2, -1))`` sums in another order.  A stack of
    vectors is reduced as ``frob_stack(v[..., None])``.
    """
    a = np.asarray(a)
    if abs(a.strides[-1]) > abs(a.strides[-2]):
        a = a.swapaxes(-1, -2)  # frob ravels each matrix in memory order
    flat = a.reshape(*a.shape[:-2], -1)
    if np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    return np.sqrt(np.vecdot(flat, flat))


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


def simpson_grid(a: float, b, panels: int):
    """Composite Simpson grid on [a, b] as ``(nodes, h)``.

    ``b`` is a scalar upper limit or an array of them.  The nodes are
    ``linspace(a, b, 2 panels + 1)`` along a new last axis and the step
    ``h = (b - a) / (2 panels)`` is shaped like ``b``.  The weights are
    ``simpson_pattern(panels) * h / 3``; each caller that needs them
    scales the pattern itself, in the order that fixes the bits of its sums.
    """
    if panels < 1:
        raise ValueError(f"panels must be at least 1, got {panels}")
    # the last axis; 0 for a scalar limit, which spares linspace a moveaxis
    nodes = np.linspace(a, b, 2 * panels + 1, axis=np.ndim(b))
    return nodes, (b - a) / (2 * panels)


def simpson_pattern(panels: int) -> np.ndarray:
    """The composite Simpson pattern ``1 4 2 4 ... 2 4 1`` of ``2 panels + 1`` nodes."""
    pattern = np.full(2 * panels + 1, 2.0)
    pattern[1::2] = 4.0
    pattern[0] = pattern[-1] = 1.0
    return pattern


def mat_exp(a) -> np.ndarray:
    """exp(A) by scaling and squaring with a Taylor core, for one matrix or a stack.

    ``a`` is a square matrix or a stack of them, shape ``(..., n, n)``;
    the result has the same shape.  Each matrix A_k is scaled by 2^-s_k
    to 1-norm <= 0.5, its Taylor polynomial is evaluated by Horner's rule
    at the smallest degree 1 <= m_k <= 14 whose first omitted term
    ||A_k / 2^s_k||_1^(m+1) / (m+1)! is at most 2^-53, and the result is
    squared s_k times.  The stack is validated once (square, dim >= 1,
    finite) and Horner's rule runs once over the whole stack, each matrix
    entering at its own degree; the products of Horner and of the
    squarings are ``_matmul`` calls, which take the same route for one
    matrix as for a stack, so ``mat_exp(stack)[k]`` equals
    ``mat_exp(stack[k])`` bit for bit whatever else is in the stack.

    Accuracy domain: s_k <= ``_EXP_MAX_SQUARINGS`` = 21, i.e. ||A_k||_1 <=
    2^20.  Each squaring doubles the rounding error; for a Hermitian H of
    dimension n the budget is ||U^dagger U - 1||_F <= 1e-9 n for U =
    mat_exp(-iH), and a seeded sweep put the worst defect at s squarings
    below n 2^s 3.1e-16 (5.4e-10 n at s = 21).  A stack with any matrix
    beyond the domain raises ``FloatingPointError`` before any work, as
    does a squaring that overflows (or makes inf - inf), instead of
    returning a wrong, inf or NaN result.
    """
    a = as_stack(a)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    # smallest s >= 0 with ||A||_1 2^-s <= 0.5, exact through frexp
    mantissa, exponent = np.frexp(np.abs(stack).sum(axis=-2).max(axis=-1))
    squarings = np.maximum(exponent + (mantissa > 0.5), 0)
    if squarings.max(initial=0) > _EXP_MAX_SQUARINGS:
        k = int(np.argmax(squarings))
        raise FloatingPointError(
            f"exp argument of 1-norm {float(np.ldexp(mantissa[k], exponent[k])):.3e} is "
            f"outside the accuracy domain ||A||_1 <= 2^{_EXP_MAX_SQUARINGS - 1}"
        )
    scaled = stack * np.ldexp(1.0, -squarings)[:, None, None]
    degrees = 1 + np.searchsorted(_EXP_THETA, np.ldexp(mantissa, exponent - squarings))
    out = _taylor_horner(scaled, degrees)
    with np.errstate(over="raise", invalid="raise"):
        for j in range(int(squarings.max(initial=0))):
            group = squarings > j
            square = out[group]
            out[group] = _matmul(square, square)
    return out.reshape(a.shape)


def _taylor_horner(a: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """sum_{k <= m} A^k / k! as I + A (I + A/2 (... (I + A/m))), m = degrees[i] for a[i].

    One pass over k = max(degrees) .. 1 serves every degree: step k starts
    the matrices of degree k at I + A/k and takes those of higher degree
    from p to I + A p / k, so each matrix gets exactly the operations of
    its own Horner loop, and a step costs one ``_matmul`` call however
    many degrees the stack holds.  Sorted by degree, highest first, the
    matrices inside the loop are a prefix of the stack.
    """
    order = np.argsort(-degrees, kind="stable")
    a = a[order]
    # at_least[k]: the number of matrices of degree >= k
    at_least = np.cumsum(np.bincount(degrees, minlength=2)[::-1])[::-1].tolist() + [0]
    eye = np.eye(a.shape[-1])
    p = np.empty_like(a)
    for k in range(len(at_least) - 2, 0, -1):
        inside, start = at_least[k + 1], at_least[k]
        if inside:
            p[:inside] = _matmul(a[:inside], p[:inside])
        p[inside:start] = a[inside:start]
        p[:start] /= k
        p[:start] += eye
    out = np.empty_like(p)
    out[order] = p
    return out


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex stacks of one shape ``(..., n, n)``, each matrix as it is alone.

    A stacked ``@`` makes one BLAS call per matrix, which is all call
    overhead at dim <= 2: for 2000 stacked 2x2 products ``@`` takes
    ~650 us and the entrywise form below ~60 us, and for one matrix ~3 us
    against ~13 us (2-vCPU host).  So dim 1 multiplies entrywise, dim 2
    forms each entry as one complex product plus another, written into
    one output array, and dim >= 3 calls ``@``: a broadcast form summing
    n rank-one products beat ``@`` only on stacks of ~100 or more at
    dim 3, was even at dim 4 and slower from dim 5 on.  Every route
    applies one formula to each matrix, so a matrix has the same bits at
    any position of any stack.
    """
    if a.shape[-1] == 1:
        return a * b
    if a.shape[-1] > 2:
        return a @ b
    out = np.empty(a.shape, dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            entry = out[..., i, j]
            np.multiply(a[..., i, 0], b[..., 0, j], out=entry)
            entry += a[..., i, 1] * b[..., 1, j]
    return out


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
