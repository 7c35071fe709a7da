"""Deterministic seeding and multistart machinery for the norm searches.

Every stochastic search in the package derives its RNG seed from
(global seed, operation name, instance payload), so repeated runs are
bit-reproducible and independent of call order.  Family payloads are
canonicalized (rows sorted lexicographically) before hashing, which
makes the derived seed invariant under permutations of a family.
Every searched norm runs through :func:`multistart_ascent`, from
start directions that include seeded Gaussian rows
(:func:`quasi_random_directions`).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaces import SpaceDescriptor, unit_rows


@dataclass(frozen=True)
class SearchBudget:
    """Knobs for the multistart ascent searches.

    restarts: number of start points per search (64 gives strong
    empirical coverage at desk dimensions); a weak-norm search starts
    from every nonzero member's norming functional and one spectral
    direction as well, so it uses max(restarts, nonzero members + 1)
    starts.  max_iter: iteration cap per search; seed: global seed that
    every derived seed mixes in.
    """

    restarts: int = 64
    max_iter: int = 500
    seed: int = 42


DEFAULT_BUDGET = SearchBudget()

# an ascent stalls while the best value's relative improvement stays within this
REL_TOL = 1e-10


def derive_seed(global_seed: int, op_name: str, *parts) -> int:
    """64-bit seed from (global seed, operation name, instance payload)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", int(global_seed) & 0xFFFFFFFFFFFFFFFF))
    h.update(op_name.encode())
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, str):
            h.update(part.encode())
        elif isinstance(part, bool) or isinstance(part, int):
            h.update(struct.pack("<Q", int(part) & 0xFFFFFFFFFFFFFFFF))
        elif isinstance(part, float):
            h.update(struct.pack("<d", part))
        elif isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        else:
            h.update(repr(part).encode())
    return int.from_bytes(h.digest(), "little")


def canonical_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows sorted lexicographically.

    Row order never matters mathematically for the quantities computed
    from a family, so sorting first makes exact paths bit-identical
    under permutations and makes derived seeds permutation-invariant.
    """
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.shape[0] <= 1:
        return m
    order = np.lexsort(m.T[::-1])
    return m[order]


def quasi_random_directions(count: int, dim: int, seed: int) -> np.ndarray:
    """Seeded standard Gaussian direction matrix (count x dim).

    Gaussian rows are isotropic (every direction is equally likely), and
    ``unit_rows`` sends an all-zero row to e_1.  The seed is the derived
    seed, so the set is deterministic.
    """
    # Named for the scrambled Sobol points it once drew; the name stays
    # because benchmarks/tracing.py wraps this function by name.
    return np.random.default_rng(seed).standard_normal((count, dim))


def multistart_ascent(
    starts: np.ndarray,
    objective: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    propose: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    budget: SearchBudget,
) -> tuple[float, np.ndarray]:
    """Monotone ascent from every start row; returns (best value, its row), a lower bound of the sup.

    ``objective(rows)`` gives row values and per-row data (a 2-D array,
    one row per start) for ``propose(rows, data, step)``.  A row takes its
    trial (and the trial's data) only where the value rises, and halves its
    step otherwise; a proposal that ignores ``step``, such as the weak-norm
    search's Boyd step, leaves the halving without effect.  Stops
    after 3 iterations with the best value stalled within ``REL_TOL``,
    once every step is below 1e-16, or at ``budget.max_iter``.  Ties go to
    the lowest start index.
    """
    x = np.array(starts, dtype=float)
    f, data = objective(x)
    step = np.full(x.shape[0], 1.0)
    best_prev = float(f[f.argmax()])  # argmax, unlike max, runs no Python-level wrapper
    stall = 0
    for _ in range(budget.max_iter):
        trial = propose(x, data, step)
        ft, dt = objective(trial)
        improved = ft > f
        rows = improved[:, None]
        np.copyto(x, trial, where=rows)
        np.copyto(f, ft, where=improved)
        np.copyto(data, dt, where=rows)
        np.multiply(step, 0.5, out=step, where=~improved)
        best = float(f[f.argmax()])
        stall = stall + 1 if best <= best_prev * (1.0 + REL_TOL) else 0
        best_prev = best
        if stall >= 3 or step[step.argmax()] < 1e-16:
            break
    i = int(np.argmax(f))  # first maximum: lowest-start-index tie-break
    return float(f[i]), x[i]


def gradient_step(space: SpaceDescriptor, rows: np.ndarray, grad: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Move each row ``step`` along its l_2-normalised gradient, then back onto the unit sphere of ``space``."""
    gn = np.linalg.norm(grad, axis=1)
    gn[gn == 0.0] = 1.0
    return unit_rows(space, rows + (step / gn)[:, None] * grad)
