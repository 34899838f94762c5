"""Test-only helpers around the Fock oracle.

No command runs these, so :mod:`pixelport.fock` does not ship them.  The
dense joint state, the tail population and the dense eigen-relation
residuals are plain references; the density and completeness helpers are
thin wrappers over the shipped private contraction (``fock._bell_rows``)
and grid pass (``fock._grid_sum``), so the tests that call them still
check the code ``oracle-verify`` runs.
"""

from __future__ import annotations

import math

import numpy as np

from pixelport import fock


def joint_state(alpha: complex, r: float, dim: int) -> np.ndarray:
    """Resource (A, B) two-mode squeezed times input coherent mode C: axes (A, B, C)."""
    return np.einsum("ab,c->abc", fock.two_mode_squeezed(r, dim), fock.coherent_state(alpha, dim))


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


def bell_probability_density(alpha: complex, r: float, beta: complex, dim: int) -> float:
    """Measured density of outcome beta for a coherent input through the resource."""
    _, raw = fock._bell_rows(*fock._bell_inputs(alpha, r, dim), np.array([beta]), fock.position_eig(dim))
    return float(np.linalg.norm(raw)) ** 2


def conditional_state(alpha: complex, r: float, beta: complex, eig) -> np.ndarray:
    """The receiver's normalized conditional state after outcome beta, for a coherent input; eig = position_eig(dim)."""
    _, raw = fock._bell_rows(*fock._bell_inputs(alpha, r, eig[0].size), np.array([complex(beta)]), eig)
    return raw[:, 0] / np.linalg.norm(raw[:, 0])


def bell_completeness(alpha: complex, r: float, dim: int, n: int = 41) -> float:
    """Integral of the measured density over the n x n outcome grid, sum_k |raw[k]|^2 darea; 1 when complete."""
    return fock._grid_sum(alpha, r, n, fock.position_eig(dim), lambda u, raw: np.sum(np.abs(raw) ** 2, axis=0))


def dense_eigen_residuals(beta: complex, eig) -> np.ndarray:
    """verify_eigen_relations from the dense dim x dim D(beta), a, q and p, with the reference norm ||Psi|| measured."""
    dim = eig[0].size
    margin = math.ceil(dim / 5)
    smax = dim - margin
    d = fock.displacement(beta, eig)
    # Psi[na, nc] = <nc| D(beta) |na> / sqrt(pi) for na below the summation cap.
    psi = d.T.copy() / math.sqrt(math.pi)
    psi[smax:, :] = 0.0

    a = fock.destroy(dim)
    adag = a.T
    q = fock.position_op(dim)
    p = fock.momentum_op(dim)
    rels = [
        psi @ a.T - adag @ psi - beta * psi,
        a @ psi - psi @ adag.T + np.conjugate(beta) * psi,
        (psi @ q.T - q @ psi) / math.sqrt(2.0) - beta.real * psi,
        (p @ psi + psi @ p.T) / math.sqrt(2.0) - beta.imag * psi,
    ]
    cut = fock._residual_window(beta, dim, smax)
    ref = float(np.linalg.norm(psi))
    return np.array([float(np.linalg.norm(rel[:cut, :cut])) / ref for rel in rels])


def output_moments(alpha: complex, r: float, eig, n: int = 41) -> tuple[complex, float]:
    """Outcome-averaged <a> and <n> of the feedback-displaced output w = D(beta) raw; eig = position_eig(dim).

    The outcomes are oracle_average_fidelity's: the n x n grid of fock._grid_sum
    with its truncation guard.  raw is the receiver's unnormalized conditional
    state from fock._bell_rows, so the density rides in |w|^2, and each
    outcome's <w|a|w> and ||a w||^2 times the cell area sum to the averages.
    """
    dim = eig[0].size
    half = 5.0 * math.cosh(r)
    step = 2.0 * half / n
    xs = -half + (np.arange(n) + 0.5) * step
    dx, dy = np.meshgrid(xs, xs, indexing="ij")
    keep = dx * dx + dy * dy <= dim - 2.0 * math.sqrt(dim)
    betas = alpha + (dx[keep] + 1j * dy[keep])
    inputs = fock._bell_inputs(alpha, r, dim)
    a = fock.destroy(dim)
    mean_a, mean_n = 0j, 0.0
    for block in np.array_split(betas, math.ceil(betas.size / 64)):
        _, raw = fock._bell_rows(*inputs, block, eig)
        w = np.einsum("kij,jk->ki", fock.displacement(block, eig), raw)  # one output state per row
        aw = w @ a.T
        mean_a += np.vdot(w, aw)
        mean_n += float(np.vdot(aw, aw).real)
    return mean_a * (step * step), mean_n * (step * step)
