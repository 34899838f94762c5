"""Brute-force truncated Fock-space oracle.

Everything the analytic channel claims is re-derived here by dense linear
algebra on photon-number amplitudes: build the two-mode squeezed resource and
the input coherent state, project onto the displaced Bell state, and compare
the resulting conditional state, measurement density, eigenvalue relations,
and homodyne photocurrents against the closed forms.  The point of this
module is independence: it works only from the truncated ladder operators
and the generators built from them, and never reuses a closed form it
checks.

Truncation is the one systematic error.  A displaced state only fits in the
basis when its mean photon number |beta|^2 is well below the cutoff, so
residual windows and integration grids carry explicit guards; every state
helper can report the population stranded in its top levels.

States are plain complex ndarrays with one axis per mode (matching the rest
of the numeric code); operators are dense matrices.

Every displacement comes from one eigendecomposition of the truncated
momentum operator, shared by all the outcomes of one call; the rotation
factors e^{i n arg(beta)} are running products over the levels.

For a coherent input the joint state is the resource times |alpha>, so its
Bell contraction factors into u = D(beta)^dag |alpha> and raw = u @ tms /
sqrt(pi), one dim-vector per outcome, with no three-mode array and no dense
D(beta).  That one contraction serves run_all_checks' conditional-state and
outcome-density rows (one batch of four outcomes), the average-fidelity and
completeness grids (every grid outcome at once) and bell_probability_density.
project_bell is the generic projection of an arbitrary three-mode state, one
outcome and one dense displacement at a time; no check runs it.  The
eigen-relation row takes one displacement, so a run makes three
eigendecompositions, and keeps nothing between runs.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

__all__ = [
    "create",
    "destroy",
    "position_op",
    "momentum_op",
    "displacement",
    "coherent_state",
    "two_mode_squeezed",
    "joint_state",
    "tail_population",
    "BellProjection",
    "project_bell",
    "bell_probability_density",
    "verify_eigen_relations",
    "photocurrent_check",
    "oracle_average_fidelity",
    "bell_completeness",
    "CheckResult",
    "run_all_checks",
    "MAX_DIM",
    "MAX_PHOTO_DIM",
]

COHERENT_TAIL_WARN = 1e-8
SQUEEZED_TAIL_WARN = 1e-6

# run_all_checks truncation caps.  dim bounds the average-fidelity grid, a
# few (outcomes x dim) arrays of 4.3 MB each at MAX_DIM: run_all_checks at
# MAX_DIM peaks at 24 MB traced (tracemalloc) with the default photo_dim.
# photocurrent_check holds about eight photo_dim^3 arrays: 66 MB traced at
# MAX_PHOTO_DIM.
MAX_DIM = 160
MAX_PHOTO_DIM = 80


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator: <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def create(dim: int) -> np.ndarray:
    """Creation operator: <n+1|a^dag|n> = sqrt(n+1)."""
    return destroy(dim).conj().T


def position_op(dim: int) -> np.ndarray:
    """q = (a + a^dag)/sqrt(2)."""
    a = destroy(dim)
    return (a + a.conj().T) / math.sqrt(2.0)


def momentum_op(dim: int) -> np.ndarray:
    """p = i(a^dag - a)/sqrt(2)."""
    a = destroy(dim)
    return 1j * (a.conj().T - a) / math.sqrt(2.0)


def _expi(x) -> np.ndarray:
    """e^{ix} for real x, from cos and sin without a complex exp."""
    out = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def _displacement_factors(beta: complex | np.ndarray, dim: int):
    """(V, spectral, rot) with D(beta) = R V diag(spectral) V^dag R^dag, R = diag(rot).

    The generator is -i sqrt(2) |beta| R p R^dag with R = diag(e^{i n arg(beta)}),
    so one eigendecomposition p = V diag(lam) V^dag of the truncated momentum
    operator serves every beta: spectral = exp(-i sqrt(2) |beta| lam), and
    spectral and rot carry beta.shape + (dim,).  rot is the running product
    of e^{i arg(beta)} over the levels.
    """
    beta = np.asarray(beta, dtype=complex)
    lam, v = np.linalg.eigh(momentum_op(dim))
    spectral = _expi(-math.sqrt(2.0) * np.abs(beta)[..., None] * lam)
    rot = np.empty(beta.shape + (dim,), dtype=complex)
    rot[..., 0] = 1.0
    rot[..., 1:] = _expi(np.angle(beta))[..., None]
    np.cumprod(rot, axis=-1, out=rot)
    return v, spectral, rot


def displacement(beta: complex | np.ndarray, dim: int) -> np.ndarray:
    """exp(beta a^dag - beta* a), shape beta.shape + (dim, dim), from _displacement_factors.

    Exactly unitary on the truncated basis, and a faithful displacement only
    while |beta|^2 stays well below dim; beyond that the norm that should
    escape to higher levels is folded back in.
    """
    v, spectral, rot = _displacement_factors(beta, dim)
    d = (v * spectral[..., None, :]) @ v.conj().T
    d *= rot[..., :, None]
    d *= rot.conj()[..., None, :]
    return d


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Coherent amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!), not renormalized.

    The truncation deficit is left visible; a warning fires when the missing
    tail exceeds COHERENT_TAIL_WARN.
    """
    c = np.zeros(dim, dtype=complex)
    c[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, dim):
        c[n] = c[n - 1] * alpha / math.sqrt(n)
    tail = 1.0 - float(np.vdot(c, c).real)
    if tail > COHERENT_TAIL_WARN:
        warnings.warn(
            f"coherent state |alpha|^2 = {abs(alpha)**2:.3g} loses {tail:.2e} "
            f"of its norm at dim = {dim}",
            stacklevel=2,
        )
    return c


def two_mode_squeezed(r: float, dim: int) -> np.ndarray:
    """Two-mode squeezed vacuum, Schmidt form sech(r) tanh(r)^n |n,n>.

    Returned as a (dim, dim) array over (mode A, mode B).  The truncated
    norm deficit is tanh(r)^(2 dim); a warning fires when it is not small.
    """
    if r < 0:
        raise ValueError("squeezing magnitude must be non-negative")
    t = math.tanh(r)
    deficit = t ** (2 * dim)
    if deficit > SQUEEZED_TAIL_WARN:
        warnings.warn(
            f"two-mode squeezed state at r = {r:.3g} loses {deficit:.2e} of its "
            f"norm at dim = {dim}",
            stacklevel=2,
        )
    m = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    m[idx, idx] = (1.0 / math.cosh(r)) * t**idx
    return m


def joint_state(alpha: complex, r: float, dim: int) -> np.ndarray:
    """Resource (A, B) two-mode squeezed times input coherent mode C: axes (A, B, C)."""
    return np.einsum("ab,c->abc", two_mode_squeezed(r, dim), coherent_state(alpha, dim))


def tail_population(state: np.ndarray) -> float:
    """Squared-norm fraction sitting in the top 10% of levels of any mode."""
    state = np.asarray(state)
    dim = state.shape[0]
    top = max(1, dim // 10)
    total = float(np.vdot(state, state).real)
    if total == 0.0:
        return 0.0
    core = state[tuple(slice(0, dim - top) for _ in range(state.ndim))]
    return 1.0 - float(np.vdot(core, core).real) / total


class BellProjection(NamedTuple):
    """Result of projecting onto the displaced Bell state."""

    density: float  # p(beta) under the d^2 beta measure
    state: np.ndarray  # receiver's conditional state, normalized
    norm: float  # norm of the raw contraction (density = norm**2)
    tail: float  # top-level population of the normalized state


def _bell_rows(alpha: complex, r: float, beta: complex | np.ndarray, dim: int):
    """(u, raw) of the coherent input |alpha> at every outcome beta, each of shape beta.shape + (dim,).

    u = D(beta)^dag |alpha>, and raw = u @ tms / sqrt(pi) is the receiver's
    unnormalized conditional state, whose squared norm is the density p(beta).
    """
    v, spectral, rot = _displacement_factors(beta, dim)
    # D^dag = R V diag(conj(spectral)) V^dag R^dag applied to |alpha>, one row per outcome
    y = (rot.conj() * coherent_state(alpha, dim)) @ v.conj()
    y *= spectral.conj()
    u = rot * (y @ v.T)
    raw = u @ two_mode_squeezed(r, dim) / math.sqrt(math.pi)
    return u, raw


def project_bell(joint: np.ndarray, beta: complex) -> BellProjection:
    """Project modes (A, C) of a three-mode state onto the Bell state at beta.

    The Bell bra is (1/sqrt(pi)) sum_s <s|_A <s|_C D_C(beta)^dag; the
    contraction leaves mode B.  Its squared norm is the measurement density
    p(beta); the normalized remainder is the receiver's conditional state.
    The truncation dim is read from the state, whose three axes must agree.
    """
    joint = np.asarray(joint, dtype=complex)
    if joint.ndim != 3:
        raise ValueError(f"expected a three-mode state, got {joint.ndim} modes")
    dim = joint.shape[0]
    if joint.shape != (dim, dim, dim):
        raise ValueError(f"mode dimensions {joint.shape} are not uniform ({dim})")
    d = displacement(beta, dim)
    raw = np.einsum("cs,sbc->b", d.conj(), joint) / math.sqrt(math.pi)
    norm = float(np.linalg.norm(raw))
    state = raw / norm if norm > 0.0 else raw
    return BellProjection(density=norm * norm, state=state, norm=norm, tail=tail_population(state))


def bell_probability_density(alpha: complex, r: float, beta: complex, dim: int) -> float:
    """Measured density of outcome beta for a coherent input through the resource."""
    _, raw = _bell_rows(alpha, r, beta, dim)
    return float(np.linalg.norm(raw)) ** 2


def _residual_window(beta: complex, dim: int, smax: int) -> int:
    # Largest level c whose displaced support c + 2|beta|sqrt(c) + |beta|^2
    # still clears the guarded cutoff; the two top Bell-sum levels always
    # carry ladder telescoping junk and are excluded.
    g = max(2, math.ceil(dim / 5))
    b = abs(beta)
    cut = 0
    for c in range(1, dim):
        if c + 2.0 * b * math.sqrt(c) + b * b <= dim - g:
            cut = c
    cut = min(cut, smax - 2)
    return max(cut, 1)


def verify_eigen_relations(beta: complex, dim: int) -> np.ndarray:
    """Residuals of the four Bell-eigenstate relations in the truncated space.

    The displaced Bell state |Psi(beta)> satisfies

        (a_C - a_A^dag) |Psi> = beta |Psi>
        (a_A - a_C^dag) |Psi> = -beta* |Psi>
        (q_C - q_A)/sqrt(2) |Psi> = Re(beta) |Psi>
        (p_A + p_C)/sqrt(2) |Psi> = Im(beta) |Psi>

    Returns the four relative residual norms, evaluated on the low-level
    window where truncation has not corrupted the displacement (the window
    shrinks as |beta| grows).  Residuals decrease monotonically with dim;
    useful accuracy needs dim of at least 8 or so.
    """
    margin = math.ceil(dim / 5)
    smax = dim - margin
    d = displacement(beta, dim)
    # Psi[na, nc] = <nc| D(beta) |na> / sqrt(pi) for na below the summation cap.
    psi = d.T.copy() / math.sqrt(math.pi)
    psi[smax:, :] = 0.0

    a = destroy(dim)
    adag = a.conj().T
    q = position_op(dim)
    p = momentum_op(dim)
    rels = [
        psi @ a.T - adag @ psi - beta * psi,
        a @ psi - psi @ adag.T + np.conjugate(beta) * psi,
        (psi @ q.T - q @ psi) / math.sqrt(2.0) - beta.real * psi,
        (p @ psi + psi @ p.T) / math.sqrt(2.0) - beta.imag * psi,
    ]
    cut = _residual_window(beta, dim, smax)
    ref = float(np.linalg.norm(psi))
    return np.array([float(np.linalg.norm(rel[:cut, :cut])) / ref for rel in rels])


def _on_axis(op: np.ndarray, state: np.ndarray, axis: int) -> np.ndarray:
    """Apply a single-mode operator to one mode (axis) of a multi-mode state."""
    return np.moveaxis(np.tensordot(op, state, axes=(1, axis)), 0, axis)


def photocurrent_check(lo_amplitude: float, phase: float, test_state: np.ndarray) -> tuple[float, float]:
    """Balanced-detector photocurrent versus the quadrature it should read.

    The test state covers modes (A, C); a coherent local oscillator
    |lo_amplitude * e^{i phase}> is appended as a third mode.  Mixing the LO
    against the mode combination selected by the phase on a 50:50 splitter
    and subtracting the detector photon numbers gives the left side; the
    right side is the LO magnitude times the quadrature expectation:

        phase 0:    |lo| <q_C - q_A>   (combination (a_C - a_A)/sqrt(2))
        phase pi/2: |lo| <p_A + p_C>   (combination (a_A + a_C)/sqrt(2))

    Only these two detector arrangements are modeled.  The truncation dim
    is read from the test state, whose two axes must agree.  Each operator
    acts on its own axis of the dim^3 amplitude array, and the photon-number
    difference is read as ||a_2 psi||^2 - ||a_1 psi||^2.
    """
    test_state = np.asarray(test_state, dtype=complex)
    if test_state.ndim != 2:
        raise ValueError(f"expected a two-mode test state, got {test_state.ndim} modes")
    dim = test_state.shape[0]
    if test_state.shape != (dim, dim):
        raise ValueError(f"mode dimensions {test_state.shape} are not uniform ({dim})")
    q_phase = math.isclose(phase, 0.0, abs_tol=1e-12)
    if not (q_phase or math.isclose(phase, math.pi / 2, abs_tol=1e-12)):
        raise ValueError("phase must be 0 or pi/2 (the two detector arrangements)")

    lo = coherent_state(abs(lo_amplitude) * np.exp(1j * phase), dim)
    psi = np.einsum("ac,l->acl", test_state, lo)
    a = destroy(dim)
    a_A, a_C, a_lo = (_on_axis(a, psi, axis) for axis in range(3))
    if q_phase:
        b = (a_C - a_A) / math.sqrt(2.0)
        quad = _on_axis(position_op(dim), psi, 1) - _on_axis(position_op(dim), psi, 0)
    else:
        b = (a_A + a_C) / math.sqrt(2.0)
        quad = _on_axis(momentum_op(dim), psi, 0) + _on_axis(momentum_op(dim), psi, 1)

    a_1 = (a_lo - b) / math.sqrt(2.0)
    a_2 = (a_lo + b) / math.sqrt(2.0)
    lhs = float(np.vdot(a_2, a_2).real) - float(np.vdot(a_1, a_1).real)
    rhs = abs(lo_amplitude) * float(np.vdot(psi, quad).real)
    return lhs, rhs


def _grid_contractions(alpha: complex, r: float, dim: int, n: int):
    """_bell_rows at every representable outcome of an n x n grid: (u, raw, darea), one row per outcome.

    The grid holds n midpoints per axis on the square of half-width 5 cosh(r)
    around alpha, where the density lives, and skips outcomes whose integrand
    would be truncation junk, |beta - alpha|^2 > dim - 2 sqrt(dim).
    """
    if n < 3:
        raise ValueError("grid needs at least 3 points per axis")
    half = 5.0 * math.cosh(r)
    step = 2.0 * half / n
    xs = -half + (np.arange(n) + 0.5) * step
    dx, dy = np.meshgrid(xs, xs, indexing="ij")
    keep = dx * dx + dy * dy <= dim - 2.0 * math.sqrt(dim)
    return (*_bell_rows(alpha, r, alpha + (dx[keep] + 1j * dy[keep]), dim), step * step)


def oracle_average_fidelity(alpha: complex, r: float, dim: int, n: int = 41) -> float:
    """Average fidelity integrated over measured outcomes, oracle-side.

    Sums, over the representable outcomes beta of the n x n grid, the
    weighted overlap |<alpha| D(beta) raw>|^2 = |<u|raw>|^2 of
    _grid_contractions, with raw the unnormalized conditional state.
    Converges to (1 + tanh r)/2 as dim grows; the guarded grid skips outcomes
    beyond the truncation's reach, so small dim undershoots (at r = 2 the
    examples use dim around 90).
    """
    u, raw, darea = _grid_contractions(alpha, r, dim, n)
    overlap = np.sum(u.conj() * raw, axis=1)
    return float(np.sum(np.abs(overlap) ** 2)) * darea


def bell_completeness(alpha: complex, r: float, dim: int, n: int = 41) -> float:
    """Integral of the measured density over the n x n outcome grid, sum_k |raw[k]|^2 darea; 1 when complete."""
    _, raw, darea = _grid_contractions(alpha, r, dim, n)
    return float(np.sum(np.abs(raw) ** 2)) * darea


class CheckResult(NamedTuple):
    name: str
    value: float
    tolerance: float

    @property
    def passed(self) -> bool:
        # plain bool so the results serialize as JSON directly
        return bool(self.value <= self.tolerance)


def run_all_checks(dim: int = 30, photo_dim: int = 10) -> list[CheckResult]:
    """Full oracle suite at the default working sizes.

    Every row is a non-negative deviation and its fixed tolerance; the
    suite passes when every value is at or below tolerance.  Deliberately small
    dims (for example 4) make the eigenvalue rows fail, which is the
    documented way to demonstrate truncation sensitivity.  Both dims must be
    at least 2 and at most MAX_DIM and MAX_PHOTO_DIM, which bound memory.
    """
    for name, value, cap in (("dim", dim, MAX_DIM), ("photo_dim", photo_dim, MAX_PHOTO_DIM)):
        if value < 2:
            raise ValueError(f"{name} must be at least 2, got {value}")
        if value > cap:
            raise ValueError(f"{name} must be at most {cap}, got {value}")

    results: list[CheckResult] = []

    # Ladder commutator [a, a^dag] = 1 below the truncation edge.
    a = destroy(dim)
    comm = a @ a.conj().T - a.conj().T @ a
    dev = float(np.max(np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1))))
    results.append(CheckResult("ladder_commutator", dev, 1e-12))

    # |<alpha|alpha'>|^2 = exp(-|alpha - alpha'|^2).
    al, alp = 0.3 + 0.1j, -0.2 + 0.4j
    ov = abs(np.vdot(coherent_state(al, dim), coherent_state(alp, dim))) ** 2
    dev = abs(ov - math.exp(-abs(al - alp) ** 2))
    results.append(CheckResult("coherent_overlap", dev, 1e-10))

    # Truncated two-mode squeezed norm deficit = tanh(r)^(2 dim).
    r = 1.0
    tms = two_mode_squeezed(r, dim)
    deficit = 1.0 - float(np.vdot(tms, tms).real)
    dev = abs(deficit - math.tanh(r) ** (2 * dim))
    results.append(CheckResult("squeezed_norm_deficit", dev, 1e-10))

    # One batch of Bell contractions: the conditional state at beta, then the
    # outcome density at alpha + each offset.
    alpha, beta = 0.5 + 0.0j, 0.2 + 0.0j
    offsets = (0.0, 0.5 + 0.5j, -1.0 + 0.3j)
    _, raw = _bell_rows(alpha, r, np.array([beta, *(alpha + off for off in offsets)]), dim)

    # Conditional state equals the coherent state tanh(r)(alpha - beta).
    zeta = math.tanh(r) * (alpha - beta)
    ov = abs(np.vdot(coherent_state(zeta, dim), raw[0] / np.linalg.norm(raw[0]))) ** 2
    results.append(CheckResult("conditional_state_overlap", abs(1.0 - ov), 1e-6))

    # Outcome density against the centered Gaussian.
    dev = 0.0
    for off, row in zip(offsets, raw[1:]):
        got = float(np.linalg.norm(row)) ** 2
        want = math.exp(-abs(off) ** 2 / math.cosh(r) ** 2) / (math.pi * math.cosh(r) ** 2)
        dev = max(dev, abs(got - want) / want)
    results.append(CheckResult("outcome_density", dev, 1e-6))

    # Eigenvalue relations at a complex outcome.
    res = verify_eigen_relations(1.0 + 2.0j, dim)
    for k in range(4):
        results.append(CheckResult(f"eigen_residual_{k + 1}", float(res[k]), 1e-8))

    # Photocurrent identities on a coherent x coherent test state.
    test = np.einsum("a,c->ac", coherent_state(0.3 - 0.2j, photo_dim), coherent_state(0.25 + 0.35j, photo_dim))
    for name, phase in (("photocurrent_q", 0.0), ("photocurrent_p", math.pi / 2)):
        lhs, rhs = photocurrent_check(0.45, phase, test)
        results.append(CheckResult(name, abs(lhs - rhs), 1e-8))

    # Outcome-averaged fidelity against (1 + tanh r)/2.
    got = oracle_average_fidelity(0.4 + 0.2j, r, dim)
    dev = abs(got - (1.0 + math.tanh(r)) / 2.0)
    results.append(CheckResult("average_fidelity", dev, 5e-3))

    return results
