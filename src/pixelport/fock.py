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
residual windows and integration grids carry explicit guards, and the state
builders warn when their truncated norm falls short.

States are plain complex ndarrays with one axis per mode; operators are
dense matrices, float64 for the real a and q, complex for p and D(beta).

Every displacement comes from one eigendecomposition of the truncated
position operator q.  q links even levels only to odd ones, so that is one
real SVD of q's half-size even-odd block, which stays on one BLAS thread at
the default dim.  The momentum operator is q rotated by diag(i^n), and that
rotation joins the factors e^{i n arg(beta)}, which are running products over
the levels.  Every row takes the eigendecomposition it displaces with,
position_eig(dim), as an argument; run_all_checks makes one and passes it to
each.  From dim 90 the SVD and the grid's real matmuls may start a second
OpenBLAS thread; no row moves by more than 1e-12 with it.

For a coherent input the joint state is the resource times |alpha>, so its
Bell contraction factors into u = D(beta)^dag |alpha> and raw = u @ tms /
sqrt(pi), one dim-vector per outcome, with no three-mode array and no dense
D(beta).  The resource tms is built in its Schmidt form, a diagonal matrix,
so that product is u times tms' diagonal, built without the matrix.  That one
contraction serves run_all_checks' conditional-state and outcome-density
rows (one batch of four outcomes) and the average-fidelity grid.  Its
arrays put the levels first, (dim x outcomes), so each product with the
real eigenvectors is a real matmul on a float view; the spectral factor is
evaluated for the nonnegative half of the spectrum and conjugated for the
other.  A grid pass walks its kept outcomes in blocks whose (dim x block)
complex arrays stay within _GRID_BLOCK_BYTES, and reduces each block to
one number per outcome, so its temporaries are not (dim x outcomes).  The
input state, the resource diagonal and the eigendecomposition are built
once per pass, not once per block.  Outcomes are independent and every
complex product has a fixed operand order, so the block size changes no bit
of a row.  project_bell is the generic projection of an arbitrary three-mode
state, one outcome and one dense displacement at a time; no check runs it,
and it stays public because the benchmark's tracer (perfbench/spans.py)
wraps it by name.  The eigen-relation row takes one displacement, D's
top-left block on the cut + 1 levels its window reads.  So a run makes one
eigendecomposition and keeps nothing between runs.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

__all__ = [
    "destroy",
    "position_op",
    "momentum_op",
    "position_eig",
    "displacement",
    "coherent_state",
    "two_mode_squeezed",
    "BellProjection",
    "project_bell",
    "verify_eigen_relations",
    "photocurrent_check",
    "oracle_average_fidelity",
    "CheckResult",
    "run_all_checks",
    "MAX_DIM",
    "MAX_PHOTO_DIM",
]

COHERENT_TAIL_WARN = 1e-8
SQUEEZED_TAIL_WARN = 1e-6

# run_all_checks truncation caps.  dim bounds the eigendecomposition, the
# resource and the eigen-relation row's (cut + 1) x dim displacement; a grid
# block's arrays stay near _GRID_BLOCK_BYTES at any dim.  run_all_checks at
# MAX_DIM peaks near 2.2 MB traced (tracemalloc) with the default photo_dim.
# photocurrent_check holds about three photo_dim^3 arrays: 25 MB traced at
# MAX_PHOTO_DIM.
MAX_DIM = 160
MAX_PHOTO_DIM = 80

# Byte budget of one (dim x block) complex temporary of a grid pass.  Below
# glibc's 128 KiB mmap threshold, a pass reuses heap memory instead of
# mapping and faulting in fresh pages for every array, at any dim.
_GRID_BLOCK_BYTES = 96 * 1024


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator: <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1)


def position_op(dim: int) -> np.ndarray:
    """q = (a + a^dag)/sqrt(2)."""
    a = destroy(dim)
    return (a + a.T) * (1.0 / math.sqrt(2.0))  # as numpy's complex / sqrt(2) did; a real / moves last bits


def momentum_op(dim: int) -> np.ndarray:
    """p = i(a^dag - a)/sqrt(2)."""
    a = destroy(dim)
    return 1j * (a.T - a) / math.sqrt(2.0)


def _expi(x) -> np.ndarray:
    """e^{ix} for real x, from cos and sin without a complex exp."""
    out = np.empty(np.shape(x), dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    return out


def position_eig(dim: int):
    """(lam, V) with q = V diag(lam) V^T for the truncated position operator q, V real orthogonal.

    q links even levels only to odd ones, so one SVD of its ceil(dim/2) x
    floor(dim/2) even-odd block q[0::2, 1::2] = U diag(sigma) W^T gives every
    eigenpair: +-sigma with eigenvectors (u, +-w)/sqrt(2) over the (even,
    odd) levels, and, when dim is odd, 0 with the left null vector (u, 0).
    lam ascends and lam == -lam[::-1]; column dim - 1 - j of V is column j
    times the parity (-1)^n.  Both hold exactly, by construction.
    """
    k = dim // 2
    u, sigma, wt = np.linalg.svd(position_op(dim)[0::2, 1::2])
    pos = np.empty((dim, k))  # eigenvectors of +sigma, sigma descending
    pos[0::2] = u[:, :k]
    pos[1::2] = wt.T
    pos *= math.sqrt(0.5)
    zero = np.zeros((dim, dim - 2 * k))
    zero[0::2] = u[:, k:]
    parity = 1.0 - 2.0 * (np.arange(dim) % 2)
    lam = np.concatenate([-sigma, np.zeros(dim - 2 * k), sigma[::-1]])
    return lam, np.concatenate([parity[:, None] * pos, zero, pos[:, ::-1]], axis=1)


def _displacement_factors(beta: complex | np.ndarray, eig):
    """(V, spectral, rot) with D(beta) = R V diag(spectral) V^T R^dag, R = diag(rot).

    The generator is -i sqrt(2) |beta| R p R^dag with R = diag(e^{i n arg(beta)}),
    and p = T q T^dag with T = diag(i^n), so one eigendecomposition eig =
    (lam, V) of the truncated position operator (position_eig) serves every
    beta: spectral = exp(-i sqrt(2) |beta| lam) and rot = e^{i n (arg(beta)
    + pi/2)}.  Both put the levels first, shape (dim,) + beta.shape.  rot is
    the running product of i e^{i arg(beta)} over the levels.  spectral is
    evaluated for lam >= 0 only; lam == -lam[::-1], so the other half is
    its conjugate, mirrored.
    """
    beta = np.asarray(beta, dtype=complex)
    lam, v = eig
    dim = lam.size
    k = dim // 2
    spectral = np.empty((dim,) + beta.shape, dtype=complex)
    spectral[k:] = _expi(np.multiply.outer(lam[k:], -math.sqrt(2.0) * np.abs(beta)))
    np.conjugate(spectral[dim - k :][::-1], out=spectral[:k])
    rot = np.empty((dim,) + beta.shape, dtype=complex)
    rot[0] = 1.0
    rot[1:] = 1j * _expi(np.angle(beta))
    np.cumprod(rot, axis=0, out=rot)
    return v, spectral, rot


def displacement(beta: complex | np.ndarray, eig) -> np.ndarray:
    """exp(beta a^dag - beta* a), shape beta.shape + (m, m), with eig = position_eig(dim).

    m is dim; with eig = (lam, V[:m]), V's first m rows, it is D's top-left
    m x m block.  Exactly unitary on the truncated basis, and a faithful
    displacement only while |beta|^2 stays well below dim; beyond that the
    norm that should escape to higher levels is folded back in.
    """
    v, spectral, rot = _displacement_factors(beta, eig)
    rot = np.moveaxis(rot[: v.shape[0]], 0, -1)
    # V diag(spectral) V^T as one real matmul on the float view of diag(spectral) V^T
    w = np.multiply(np.moveaxis(spectral, 0, -1)[..., :, None], v.T, order="C")
    d = (v @ w.view(float)).view(complex)
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
    return np.diag(_schmidt(r, dim, 3))


def _schmidt(r: float, dim: int, stacklevel: int) -> np.ndarray:
    """Diagonal of two_mode_squeezed(r, dim), with its checks and its warning at stacklevel."""
    if r < 0:
        raise ValueError("squeezing magnitude must be non-negative")
    t = math.tanh(r)
    deficit = t ** (2 * dim)
    if deficit > SQUEEZED_TAIL_WARN:
        warnings.warn(
            f"two-mode squeezed state at r = {r:.3g} loses {deficit:.2e} of its "
            f"norm at dim = {dim}",
            stacklevel=stacklevel,
        )
    return ((1.0 / math.cosh(r)) * t ** np.arange(dim)).astype(complex)


class BellProjection(NamedTuple):
    """Result of projecting onto the displaced Bell state."""

    density: float  # p(beta) under the d^2 beta measure
    state: np.ndarray  # receiver's conditional state, normalized


def _bell_inputs(alpha: complex, r: float, dim: int):
    """(|alpha>, diagonal of tms / sqrt(pi)): the two vectors _bell_rows contracts, with their truncation warnings."""
    return coherent_state(alpha, dim), _schmidt(r, dim, 2) / math.sqrt(math.pi)


def _bell_rows(coherent: np.ndarray, schmidt: np.ndarray, beta: np.ndarray, eig):
    """(u, raw) of the coherent input at every outcome of the 1-D array beta, each (dim, beta.size).

    coherent and schmidt come from _bell_inputs(alpha, r, dim), and eig from
    position_eig(dim).  Column k of u is D(beta_k)^dag |alpha>, and column k
    of raw = tms^T u / sqrt(pi) is the receiver's unnormalized conditional
    state, whose squared norm is the density p(beta_k).  tms is diagonal
    (its Schmidt form), so raw is u times schmidt, elementwise.  The levels
    come first so that each product with the real V is one real matmul on
    the float view of a (dim, 2 beta.size) array.
    """
    v, spectral, rot = _displacement_factors(beta, eig)
    # D^dag = R V diag(conj(spectral)) V^T R^dag applied to |alpha>, one column per outcome
    y = rot.conj()
    y *= coherent[:, None]
    y = (v.T @ y.view(float)).view(complex)
    y *= np.conjugate(spectral, out=spectral)
    # u and raw reuse the buffers of spectral and y, so a block holds four (dim, K) arrays at most
    u = np.matmul(v, y.view(float), out=spectral.view(float)).view(complex)
    # in place, so the operand order is fixed: complex products are not
    # bitwise commutative, and numpy swaps the operands of rot * (v @ y)
    # once the temporary reaches 256 KiB, which would tie the bits to the block size
    u *= rot
    return u, np.multiply(u, schmidt[:, None], out=y)


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
    d = displacement(beta, position_eig(dim))
    raw = np.einsum("cs,sbc->b", d.conj(), joint) / math.sqrt(math.pi)
    norm = float(np.linalg.norm(raw))
    state = raw / norm if norm > 0.0 else raw
    return BellProjection(density=norm * norm, state=state)


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


def verify_eigen_relations(beta: complex, eig) -> np.ndarray:
    """Residuals of the four Bell-eigenstate relations in the space truncated by eig = position_eig(dim).

    The displaced Bell state |Psi(beta)> satisfies

        (a_C - a_A^dag) |Psi> = beta |Psi>
        (a_A - a_C^dag) |Psi> = -beta* |Psi>
        (q_C - q_A)/sqrt(2) |Psi> = Re(beta) |Psi>
        (p_A + p_C)/sqrt(2) |Psi> = Im(beta) |Psi>

    Returns the four relative residual norms, evaluated on the low-level
    window where truncation has not corrupted the displacement (the window
    shrinks as |beta| grows).  Residuals decrease monotonically with dim;
    useful accuracy needs dim of at least 8 or so.  The cut x cut window
    reads levels 0..cut only, so D, a, q and p are built on those levels.
    """
    dim = eig[0].size
    smax = dim - math.ceil(dim / 5)
    cut = _residual_window(beta, dim, smax)
    # Psi[na, nc] = <nc| D(beta) |na> / sqrt(pi) for na below the summation cap.
    psi = displacement(beta, (eig[0], eig[1][: cut + 1])).T / math.sqrt(math.pi)
    psi[smax:, :] = 0.0

    a = destroy(cut + 1)
    adag = a.T
    q = position_op(cut + 1)
    p = momentum_op(cut + 1)
    rels = [
        psi @ a.T - adag @ psi - beta * psi,
        a @ psi - psi @ adag.T + np.conjugate(beta) * psi,
        (psi @ q.T - q @ psi) / math.sqrt(2.0) - beta.real * psi,
        (p @ psi + psi @ p.T) / math.sqrt(2.0) - beta.imag * psi,
    ]
    # the truncated D(beta) is exactly unitary, so ||Psi|| over its dim columns is sqrt(smax / pi)
    ref = math.sqrt(smax / math.pi)
    return np.array([float(np.linalg.norm(rel[:cut, :cut])) / ref for rel in rels])


def _on_axis(op: np.ndarray, state: np.ndarray, axis: int) -> np.ndarray:
    """Apply a single-mode operator to one mode (axis) of a three-mode state.

    Each axis is one matmul that reads the state in place and returns a
    C-ordered array, so no transposed copy of the state is made.
    """
    if axis == 0:
        return (op @ state.reshape(state.shape[0], -1)).reshape(state.shape)
    return op @ state if axis == 1 else state @ op.T


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
    acts on its own axis of the dim^3 amplitude array.  The detectors see
    a_{1,2} = (a_lo -+ b)/sqrt(2), so the photon-number difference
    ||a_2 psi||^2 - ||a_1 psi||^2 is read as 2 Re <a_lo psi, b psi>; b psi and
    the quadrature are each summed in place, so at most three dim^3 arrays
    are live at once.
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
    quad_op = position_op(dim) if q_phase else momentum_op(dim)
    # phase 0 reads mode C minus mode A, phase pi/2 their sum
    combine = np.subtract if q_phase else np.add

    b = _on_axis(a, psi, 1)
    combine(b, _on_axis(a, psi, 0), out=b)
    b /= math.sqrt(2.0)
    lhs = 2.0 * float(np.vdot(_on_axis(a, psi, 2), b).real)
    del b
    quad = _on_axis(quad_op, psi, 1)
    combine(quad, _on_axis(quad_op, psi, 0), out=quad)
    rhs = abs(lo_amplitude) * float(np.vdot(psi, quad).real)
    return lhs, rhs


def _grid_sum(alpha: complex, r: float, n: int, eig, per_outcome) -> float:
    """Sum of per_outcome(u, raw) times the cell area over the representable outcomes of an n x n grid.

    The grid holds n midpoints per axis on the square of half-width 5 cosh(r)
    around alpha, where the density lives, and skips outcomes whose integrand
    would be truncation junk, |beta - alpha|^2 > dim - 2 sqrt(dim).  The K
    kept outcomes go through _bell_rows in ceil(K dim 16 B / _GRID_BLOCK_BYTES)
    near-equal blocks, but at most K // 2 of them, so no block is a lone
    outcome unless K is 1.  per_outcome maps a block's (u, raw), levels
    first, to one value per outcome, and outcomes are independent, so any
    block size gives the same sum.
    """
    if n < 3:
        raise ValueError("grid needs at least 3 points per axis")
    dim = eig[0].size
    half = 5.0 * math.cosh(r)
    step = 2.0 * half / n
    xs = -half + (np.arange(n) + 0.5) * step
    dx, dy = np.meshgrid(xs, xs, indexing="ij")
    keep = dx * dx + dy * dy <= dim - 2.0 * math.sqrt(dim)
    betas = alpha + (dx[keep] + 1j * dy[keep])
    coherent, schmidt = _bell_inputs(alpha, r, dim)
    blocks = np.array_split(betas, max(1, min(math.ceil(betas.size * dim * 16 / _GRID_BLOCK_BYTES), betas.size // 2)))
    terms = np.concatenate([per_outcome(*_bell_rows(coherent, schmidt, block, eig)) for block in blocks])
    return float(np.sum(terms)) * (step * step)


def oracle_average_fidelity(alpha: complex, r: float, eig, n: int = 41) -> float:
    """Average fidelity integrated over measured outcomes, oracle-side, at eig = position_eig(dim).

    Sums, over the representable outcomes beta of the n x n grid, the
    weighted overlap |<alpha| D(beta) raw>|^2 = |<u|raw>|^2 of _bell_rows,
    with raw the unnormalized conditional state (_grid_sum).
    Converges to (1 + tanh r)/2 as dim grows; the guarded grid skips outcomes
    beyond the truncation's reach, so small dim undershoots (at r = 2 the
    examples use dim around 90).
    """
    return _grid_sum(alpha, r, n, eig, lambda u, raw: np.abs(np.sum(u.conj() * raw, axis=0)) ** 2)


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
    # the one eigendecomposition of the run, shared by every row that displaces
    eig = position_eig(dim)

    # Ladder commutator [a, a^dag] = 1 below the truncation edge.
    a = destroy(dim)
    comm = a @ a.T - a.T @ a
    dev = float(np.max(np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1))))
    results.append(CheckResult("ladder_commutator", dev, 1e-12))

    # |<alpha|alpha'>|^2 = exp(-|alpha - alpha'|^2).
    al, alp = 0.3 + 0.1j, -0.2 + 0.4j
    ov = abs(np.vdot(coherent_state(al, dim), coherent_state(alp, dim))) ** 2
    dev = abs(ov - math.exp(-abs(al - alp) ** 2))
    results.append(CheckResult("coherent_overlap", float(dev), 1e-10))

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
    _, raw = _bell_rows(*_bell_inputs(alpha, r, dim), np.array([beta, *(alpha + off for off in offsets)]), eig)

    # Conditional state equals the coherent state tanh(r)(alpha - beta).
    zeta = math.tanh(r) * (alpha - beta)
    ov = abs(np.vdot(coherent_state(zeta, dim), raw[:, 0] / np.linalg.norm(raw[:, 0]))) ** 2
    results.append(CheckResult("conditional_state_overlap", float(abs(1.0 - ov)), 1e-6))

    # Outcome density against the centered Gaussian.
    dev = 0.0
    for off, row in zip(offsets, raw[:, 1:].T):
        got = float(np.linalg.norm(row)) ** 2
        want = math.exp(-abs(off) ** 2 / math.cosh(r) ** 2) / (math.pi * math.cosh(r) ** 2)
        dev = max(dev, abs(got - want) / want)
    results.append(CheckResult("outcome_density", dev, 1e-6))

    # Eigenvalue relations at a complex outcome.
    res = verify_eigen_relations(1.0 + 2.0j, eig)
    for k in range(4):
        results.append(CheckResult(f"eigen_residual_{k + 1}", float(res[k]), 1e-8))

    # Photocurrent identities on a coherent x coherent test state.
    test = np.einsum("a,c->ac", coherent_state(0.3 - 0.2j, photo_dim), coherent_state(0.25 + 0.35j, photo_dim))
    for name, phase in (("photocurrent_q", 0.0), ("photocurrent_p", math.pi / 2)):
        lhs, rhs = photocurrent_check(0.45, phase, test)
        results.append(CheckResult(name, abs(lhs - rhs), 1e-8))

    # Outcome-averaged fidelity against (1 + tanh r)/2.
    got = oracle_average_fidelity(0.4 + 0.2j, r, eig)
    dev = abs(got - (1.0 + math.tanh(r)) / 2.0)
    results.append(CheckResult("average_fidelity", dev, 5e-3))

    return results
