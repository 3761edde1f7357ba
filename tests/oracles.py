"""Independent reference implementations used to check the library.

These deliberately avoid the code paths they verify: the exponential is
a plain term-by-term series without scaling, the Lyapunov integral is a
Gauss-Legendre quadrature that never eigendecomposes, the unitary polar
factor comes from a Newton iteration built on matrix inverses rather
than a singular value decomposition, the double integral is a
brute-force sum over the ordered triangle, the stepper samples one
time and exponentiates one factor at a time, the nested Simpson
rule recurses one node at a time, and ||N - 1||_F comes from singular
values computed by mpmath at 50 digits.  Nothing here imports
``pitaron_lab`` (``test_oracles.py`` checks this).
"""

from __future__ import annotations

import mpmath
import numpy as np


def series_exp(a: np.ndarray, terms: int = 80) -> np.ndarray:
    """exp(A) by summing the Taylor series directly, no scaling or squaring."""
    a = np.asarray(a, dtype=complex)
    total = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        total = total + term
    return total


def stepped_propagator(sample, kicks, t0: float, t: float, steps: int,
                       dim: int) -> np.ndarray:
    """U(t, t0) as a product of one series_exp factor per piece, one piece at a time.

    ``sample`` maps a time to the smooth part (None for pure kicks) and
    ``kicks`` holds (time, V) pairs.  The uniform pieces of (t0, t] are
    split at the kicks with time in (t0, t], each piece contributes
    exp(-i H(midpoint) dt) and each kick exp(-i V) right after the piece
    ending at its time.
    """
    kick_at = {tau: np.asarray(v, dtype=complex) for tau, v in kicks if t0 < tau <= t}
    edges = sorted(set(np.linspace(t0, t, steps + 1).tolist()) | set(kick_at))
    u = np.eye(dim, dtype=complex)
    for a, b in zip(edges, edges[1:]):
        if sample is not None:
            u = series_exp(-1j * (b - a) * np.asarray(sample(0.5 * (a + b)), dtype=complex)) @ u
        if b in kick_at:
            u = series_exp(-1j * kick_at[b]) @ u
    return u


def lyapunov_quadrature(n: np.ndarray, q: np.ndarray, panel_width: float = 0.25) -> np.ndarray:
    """integral_0^Y exp(-yN) Q exp(-yN) dy by composite 7-point Gauss-Legendre.

    Y is chosen so exp(-2 lambda_min Y) < 1e-14.  The exponentials come
    from the series (via repeated panel shifts), not from an
    eigendecomposition, keeping this route independent of the eigenbasis
    solver it cross-checks.
    """
    lam_min = float(np.min(np.linalg.eigvalsh((n + n.conj().T) / 2)))
    assert lam_min > 0, "quadrature oracle needs positive definite N"
    Y = 16.5 / lam_min
    panels = int(np.ceil(Y / panel_width))
    width = Y / panels
    nodes, weights = np.polynomial.legendre.leggauss(7)
    offsets = (nodes + 1.0) * (width / 2.0)
    wts = weights * (width / 2.0)
    e_off = [series_exp(-o * n) for o in offsets]
    e_width = series_exp(-width * n)
    total = np.zeros_like(np.asarray(q, dtype=complex))
    e_start = np.eye(n.shape[0], dtype=complex)
    for _ in range(panels):
        for eo, w in zip(e_off, wts):
            e = e_start @ eo
            total = total + w * (e @ q @ e)
        e_start = e_start @ e_width
    return total


def newton_polar(a: np.ndarray, max_iter: int = 30) -> np.ndarray:
    """Unitary polar factor of a nonsingular A by the scaled Newton iteration.

    X <- (gamma X + X^-dagger / gamma) / 2 from X = A, with the Frobenius
    scaling gamma = (||X^-1||_F / ||X||_F)^(1/2) while steps exceed 1e-2
    and gamma = 1 after (Higham, SIAM J. Sci. Stat. Comput. 7 (1986)
    1160).  Convergence is quadratic, so once a relative step falls below
    1e-8 the iterate is at rounding level.
    """
    x = np.asarray(a, dtype=complex)
    step = np.inf
    for _ in range(max_iter):
        x_inv_h = np.linalg.inv(x).conj().T
        gamma = np.sqrt(np.linalg.norm(x_inv_h) / np.linalg.norm(x)) if step > 1e-2 else 1.0
        nxt = (gamma * x + x_inv_h / gamma) / 2
        step = np.linalg.norm(nxt - x) / np.linalg.norm(nxt)
        x = nxt
        if step <= 1e-8:
            return x
    raise RuntimeError(f"Newton polar iteration did not converge in {max_iter} steps")


def triangle_commutator_quadrature(sample, t0: float, t: float,
                                   cells: int = 600) -> np.ndarray:
    """Brute-force midpoint sum of [H(x), H(y)] over t0 < y < x < t.

    ``sample`` maps a time to a matrix.  All pair products are formed on
    a uniform mesh and the ordered triangle is summed; accurate to
    O(1/cells) even for integrands with jumps.
    """
    h = (t - t0) / cells
    mids = t0 + (np.arange(cells) + 0.5) * h
    stack = np.stack([np.asarray(sample(x), dtype=complex) for x in mids])
    prod = np.einsum("iab,jbc->ijac", stack, stack)
    comm = prod - prod.transpose(1, 0, 2, 3)
    lower = np.tril(np.ones((cells, cells)), k=-1)  # strict x > y
    return np.einsum("ij,ijab->ab", lower, comm) * h * h


def nested_simpson(sample, t0: float, upper: float, depth: int, panels: int,
                   dim: int) -> np.ndarray:
    """Iterated Simpson integral of H(t_1) ... H(t_depth) over t0 < t_depth < ... < t_1 < upper.

    Plain recursion, one node at a time: the integral below each outer
    node x is re-gridded on its own nodes linspace(t0, x, 2 panels + 1),
    with weights 1, 4, 2, ..., 4, 1 times step / 3, and the terms are
    summed in node order.  Every operation is the one the nested rule
    prescribes, so a correct evaluation of that rule matches to the bit.
    """
    nodes = np.linspace(t0, upper, 2 * panels + 1)
    pattern = np.array([1.0] + [4.0, 2.0] * (panels - 1) + [4.0, 1.0])
    total = np.zeros((dim, dim), dtype=complex)
    for x, w in zip(nodes, pattern * ((upper - t0) / (2 * panels) / 3.0)):
        h = np.asarray(sample(x), dtype=complex)
        if depth > 1:
            h = h @ nested_simpson(sample, t0, x, depth - 1, panels, dim)
        total += w * h
    return total


def exact_n_distance(u: np.ndarray, digits: int = 50) -> float:
    """||N - 1||_F = ||sigma^-1 - 1||_2 of N = (U U^dagger)^(-1/2), from an SVD at ``digits`` digits."""
    with mpmath.workdps(digits):
        sigma = mpmath.svd_c(mpmath.matrix(np.asarray(u, dtype=complex).tolist()),
                             compute_uv=False)
        return float(mpmath.sqrt(mpmath.fsum((1 / s - 1) ** 2 for s in sigma)))


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pd(rng: np.random.Generator, dim: int, lam_lo: float = 0.5,
              lam_hi: float = 3.0) -> np.ndarray:
    """Random Hermitian positive definite matrix with a bounded spectrum."""
    w = random_unitary(rng, dim)
    lam = rng.uniform(lam_lo, lam_hi, dim)
    m = (w * lam) @ w.conj().T
    return (m + m.conj().T) / 2


def random_ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Standard complex Gaussian matrix (almost surely invertible)."""
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
