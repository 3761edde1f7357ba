"""Declarative time-dependent Hamiltonians.

A Hamiltonian is a smooth sampled part plus delta kicks, held as two
stacked arrays: the increasing kick times and the matrix of each kick.
Kicks stay first-class data: they are never smeared here, the stepper
applies them as exact factors and the singular-dynamics module handles
their expansions symbolically.  ``_kick_times`` alone checks kick times,
a spec's and those of the comb closed forms, whose scalar strengths
``_comb_kicks`` checks too.  Time is in natural units (hbar = 1) throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .linalg import HERMITICITY_TOL, as_matrix, as_stack, frob, hermiticity_defect, hermitize

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

__all__ = [
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "HamiltonianSpec",
    "SplitHamiltonian",
    "hermitian_split",
    "pauli_hamiltonian",
    "nhse_hamiltonian",
    "dirac_comb_spec",
]


@dataclass(frozen=True)
class HamiltonianSpec:
    """Smooth sampled part plus delta kicks sum_k V_k delta(t - t_k).

    ``smooth`` is a pure evaluator t -> matrix (or None for pure-kick
    specs); the stepper chooses where to sample it.  The kicks are two
    arrays: ``kick_times``, the K finite, strictly increasing times t_k,
    and ``kick_strengths``, the ``(K, dim, dim)`` stack of the matrices
    V_k (no kicks by default).  Both are validated once (the times by
    ``_kick_times``) and stored as read-only copies.

    ``sample_stack(ts)`` is the one way H is sampled: it evaluates an
    array of times into a ``(*ts.shape, dim, dim)`` stack with one shape
    and finiteness check, and ``sample(t)`` is its 0-d case.  A user
    ``smooth`` is called once per time there; library builders whose
    ``smooth`` also broadcasts over a whole time array store it in
    ``smooth_stack`` too (``pauli_hamiltonian`` does).

    A time-independent smooth part is best built with
    ``HamiltonianSpec.constant``: the matrix is validated once, stored as
    a read-only copy in ``constant_matrix`` and broadcast by
    ``sample_stack`` without further checks, and the stepper takes one
    exponential per cell between kicks, each distinct width only once.
    ``smooth`` is still a callable returning it.
    """

    dim: int
    smooth: Callable[[float], np.ndarray] | None = None
    kick_times: np.ndarray = ()
    kick_strengths: np.ndarray | None = None
    constant_matrix: np.ndarray | None = field(default=None, init=False, repr=False,
                                               compare=False)
    smooth_stack: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        times = _kick_times(self.kick_times)
        if self.kick_strengths is None:
            strengths = np.zeros((0, self.dim, self.dim), dtype=np.complex128)
        else:
            strengths = as_stack(np.array(self.kick_strengths, dtype=np.complex128))
        expected = (len(times), self.dim, self.dim)
        if strengths.shape != expected:
            raise ValueError(f"kick strengths have shape {strengths.shape}, expected "
                             f"{expected}: one matrix of the spec's dimension per kick time")
        for name, value in (("kick_times", times), ("kick_strengths", strengths)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @classmethod
    def constant(cls, h, kick_times=(), kick_strengths=None) -> HamiltonianSpec:
        """Spec with the time-independent smooth part ``h`` plus the given kicks."""
        h = as_matrix(h).copy()
        h.flags.writeable = False
        spec = cls(dim=h.shape[0], smooth=lambda t: h, kick_times=kick_times,
                   kick_strengths=kick_strengths)
        object.__setattr__(spec, "constant_matrix", h)
        return spec

    def sample(self, t: float) -> np.ndarray:
        """The smooth part at time t: ``sample_stack`` of the 0-d time ``t``.

        A constant spec gives a read-only view of its matrix and a
        pure-kick spec the zero matrix.
        """
        return self.sample_stack(t)

    def sample_stack(self, ts) -> np.ndarray:
        """The smooth part at every time of ``ts``, shape ``(*ts.shape, dim, dim)``.

        A constant spec returns a read-only broadcast of its matrix and a
        pure-kick spec returns zeros.  Otherwise the stack comes from
        ``smooth_stack`` when the builder set one, else from one
        ``smooth`` call per time, and its shape and finiteness are
        checked once.
        """
        ts = np.asarray(ts, dtype=float)
        shape = (*ts.shape, self.dim, self.dim)
        if self.constant_matrix is not None:
            return np.broadcast_to(self.constant_matrix, shape)
        if self.smooth is None or ts.size == 0:
            return np.zeros(shape, dtype=np.complex128)
        if self.smooth_stack is not None:
            h = np.asarray(self.smooth_stack(ts), dtype=np.complex128)
        else:
            try:
                h = np.stack([np.asarray(self.smooth(t), dtype=np.complex128) for t in ts.flat])
            except ValueError:
                raise ValueError(f"smooth part returned matrices of different shapes, "
                                 f"expected ({self.dim}, {self.dim})") from None
            h = h.reshape(*ts.shape, *h.shape[1:])
        if h.shape != shape:
            raise ValueError(f"smooth part returned a stack of shape {h.shape}, expected {shape}")
        if not np.all(np.isfinite(h)):
            bad = ts[~np.isfinite(h).all(axis=(-2, -1))]
            raise ValueError(f"smooth part returned non-finite entries at t={bad.flat[0]}")
        return h


@dataclass(frozen=True)
class SplitHamiltonian:
    """Canonical split H = h_part - i * j_part with both parts Hermitian.

    ``commutator_norm`` reports ||[h_part, j_part]||_F.  The split is an
    eligible decomposition of the dynamics only when the two parts
    commute; this is reported, never decided here.
    """

    h_part: np.ndarray
    j_part: np.ndarray
    commutator_norm: float


def hermitian_split(h) -> SplitHamiltonian:
    """Split H into Hermitian and anti-Hermitian parts, H = Hh - i*J.

    Hh = (H + H^dagger)/2 and J = i (H - H^dagger)/2 are both Hermitian
    and reconstruct H exactly.
    """
    h = as_matrix(h)
    h_part = hermitize(h)
    j_part = 0.5j * (h - h.conj().T)
    comm = h_part @ j_part - j_part @ h_part
    return SplitHamiltonian(h_part=h_part, j_part=j_part, commutator_norm=frob(comm))


def _kick_times(times) -> np.ndarray:
    """A float copy of ``times``, checked to be 1-d, finite and strictly increasing."""
    times = np.array(times, dtype=float)
    if times.ndim != 1 or not np.isfinite(times).all():
        raise ValueError(f"kick times must be a finite 1-d sequence: {times}")
    if (times[1:] <= times[:-1]).any():
        raise ValueError(f"kick times must be strictly increasing: {times}")
    return times


def _comb_kicks(strengths, times) -> tuple[np.ndarray, np.ndarray]:
    """Float copies of a comb's kick strengths and times: finite, one strength per time."""
    times = _kick_times(times)
    strengths = np.array(strengths, dtype=float)
    if strengths.shape != times.shape:
        raise ValueError(f"kick strengths have shape {strengths.shape}, expected "
                         f"{times.shape}: one number per kick time")
    if not np.isfinite(strengths).all():
        raise ValueError(f"kick strengths must be finite: {strengths}")
    return strengths, times


def _coefficients(f, ts: np.ndarray) -> np.ndarray:
    """A coefficient at every time of ``ts``: broadcast, one ufunc call, or one call per time."""
    if not callable(f):
        return np.full(ts.shape, float(f))
    if isinstance(f, np.ufunc):
        return f(ts)
    return np.array([f(t) for t in ts.flat]).reshape(ts.shape)


def pauli_hamiltonian(f1, f2, f3) -> HamiltonianSpec:
    """Two-level spec H(t) = f1(t) s1 + f2(t) s2 + f3(t) s3.

    Each coefficient may be a callable of t or a constant.  The result is
    traceless and Hermitian at every time.  Its ``smooth`` broadcasts
    over an array of times and is also its ``smooth_stack``: constants
    broadcast, a numpy ufunc is applied to the whole time array once,
    and any other callable (``math.cos``, say) is called once per time.
    """

    def smooth(ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        c1, c2, c3 = (_coefficients(f, ts)[..., None, None] for f in (f1, f2, f3))
        return c1 * SIGMA1 + c2 * SIGMA2 + c3 * SIGMA3

    spec = HamiltonianSpec(dim=2, smooth=smooth)
    object.__setattr__(spec, "smooth_stack", smooth)
    return spec


def nhse_hamiltonian(l: int, onsite: float, hop, gamma) -> np.ndarray:
    """Single-particle lattice Hamiltonian with asymmetric hopping.

    An l-site open chain with on-site energy ``onsite``; hopping to the
    right neighbour carries amplitude hop_i - gamma_i and to the left
    hop_i + gamma_i, so any nonzero gamma breaks Hermiticity and piles
    weight up against one edge (the skin effect).  Scalars broadcast to
    all l-1 bonds.
    """
    if l < 2:
        raise ValueError("lattice needs at least 2 sites")

    def bonds(values, name):
        arr = np.asarray(values, dtype=float)
        if arr.ndim == 0:
            return np.full(l - 1, float(arr))
        if arr.shape != (l - 1,):
            raise ValueError(f"expected {l - 1} {name} values, got shape {arr.shape}")
        return arr

    hops = bonds(hop, "hopping")
    gammas = bonds(gamma, "gamma")
    h = np.diag(np.full(l, onsite, dtype=np.complex128))
    for i in range(l - 1):
        h[i, i + 1] = hops[i] - gammas[i]
        h[i + 1, i] = hops[i] + gammas[i]
    return h


def dirac_comb_spec(
    kick_strengths: Sequence[float],
    kick_times: Sequence[float],
    dim: int,
    generator: np.ndarray | None = None,
) -> HamiltonianSpec:
    """Pure-kick spec V(t) = sum_i V_i delta(t - t_i).

    Each kick strength multiplies ``generator`` (identity by default, any
    Hermitian matrix for multi-level combs).  The strengths and times are
    checked as the comb closed forms of ``singular_dynamics`` check them,
    before any product is formed.
    """
    strengths, kick_times = _comb_kicks(kick_strengths, kick_times)
    if generator is None:
        generator = np.eye(dim, dtype=np.complex128)
    else:
        generator = as_matrix(generator)
        if generator.shape != (dim, dim):
            raise ValueError("generator dimension does not match dim")
        if hermiticity_defect(generator) > HERMITICITY_TOL:
            raise ValueError("comb generator must be Hermitian")
    return HamiltonianSpec(dim=dim, kick_times=kick_times,
                           kick_strengths=strengths[:, None, None] * generator)
