"""Dense complex matrix kernel.

Everything downstream (propagators, normalization operators, expansions)
compiles down to the handful of primitives in this module: matrix
exponentials, Hermitian eigendecompositions, positive square roots and
Lyapunov solves.  All matrices are square complex128 numpy arrays,
validated on entry.  Target dimensions are desk scale (dim <= 64);
storage is always dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Frobenius tolerance below which a matrix counts as Hermitian.
HERMITICITY_TOL = 1e-10
# Eigenvalues in [-PD_CLAMP_TOL, 0) are clamped to zero in positive_sqrt.
PD_CLAMP_TOL = 1e-12
# Condition numbers beyond this make an inverse numerically meaningless;
# operations fail loudly instead of returning noise.
COND_THRESHOLD = 1e12

__all__ = [
    "HERMITICITY_TOL",
    "PD_CLAMP_TOL",
    "COND_THRESHOLD",
    "EigenSystem",
    "as_matrix",
    "frob",
    "hermiticity_defect",
    "unitarity_defect",
    "mat_exp",
    "hermitian_eig",
    "positive_sqrt",
    "lyapunov_solve",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


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
    """(A + A^dagger) / 2."""
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of a Hermitian matrix.

    ``values`` are real and ascending, ``vectors`` holds the orthonormal
    eigenvectors as columns, so ``vectors @ diag(values) @ vectors^dagger``
    reconstructs the input.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def mat_exp(a) -> np.ndarray:
    """exp(A) by scaling and squaring with a truncated Taylor core.

    The argument is scaled down to Frobenius norm <= 0.5, the series is
    summed until terms vanish at double precision, and the result is
    squared back up.  Relative accuracy is well below 1e-12 for norms
    up to ~10.
    """
    a = as_matrix(a)
    dim = a.shape[0]
    norm = frob(a)
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
    m = a / (2.0**squarings)

    total = np.eye(dim, dtype=np.complex128)
    term = np.eye(dim, dtype=np.complex128)
    for k in range(1, 60):
        term = term @ m / k
        total = total + term
        if frob(term) <= 1e-18 * frob(total):
            break
    for _ in range(squarings):
        total = total @ total
    return total


def hermitian_eig(a, tol: float = HERMITICITY_TOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Rejects inputs whose Hermiticity defect exceeds ``tol``.
    """
    a = as_matrix(a)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValueError(
            f"matrix is not Hermitian: ||A - A^dagger||_F = {defect:.3e} > {tol:.1e}"
        )
    values, vectors = np.linalg.eigh(hermitize(a))
    return EigenSystem(values=values, vectors=vectors)


def positive_sqrt(a, tol: float = PD_CLAMP_TOL) -> np.ndarray:
    """Unique Hermitian positive semidefinite root R with R @ R = A.

    Eigenvalues below ``-tol`` are rejected; values in [-tol, 0) are
    clamped to zero before taking the root.
    """
    es = hermitian_eig(a)
    values = es.values.copy()
    if values[0] < -tol:
        raise np.linalg.LinAlgError(
            f"matrix is not positive semidefinite: min eigenvalue {values[0]:.3e}"
        )
    values[values < 0.0] = 0.0
    root = (es.vectors * np.sqrt(values)) @ es.vectors.conj().T
    return hermitize(root)


def lyapunov_solve(n, q, tol: float = PD_CLAMP_TOL) -> np.ndarray:
    """Solve N @ X + X @ N = Q for Hermitian positive definite N.

    Worked in the eigenbasis of N, where the solution is entrywise
    Q_ij / (lambda_i + lambda_j); positivity of the spectrum makes it
    unique.
    """
    n = as_matrix(n)
    q = as_matrix(q)
    if n.shape != q.shape:
        raise ValueError(f"dimension mismatch: N is {n.shape}, Q is {q.shape}")
    es = hermitian_eig(n)
    pair_sums = es.values[:, None] + es.values[None, :]
    if np.min(pair_sums) <= tol:
        raise np.linalg.LinAlgError(
            f"N is not positive definite: min eigenvalue pair sum "
            f"{np.min(pair_sums):.3e}"
        )
    v = es.vectors
    q_tilde = v.conj().T @ q @ v
    return v @ (q_tilde / pair_sums) @ v.conj().T
