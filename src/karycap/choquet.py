"""Piecewise-linear extension of multilevel games to [0, k]^n.

Each unit cell of the level grid induces a classical capacity (the
section capacity) from the corner differences of the game; inside the
cell the extension is the classical Choquet integral of that capacity,
offset by the game value at the cell base.  The extension interpolates
the game at every lattice point and is continuous across cell faces.

The interaction index of a coalition splits cell by cell: it equals the
sum over all cells of the classical interaction index of the section
capacity, and likewise the integral of the corresponding mixed partial
derivative of the extension over the whole box.  Both identities are
implemented here as independent numerical checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .game import (
    LatticePoint,
    MultichoiceGame,
    check_query_size,
    corners,
    digits,
    encode_index,
    members_tuple,
)
from .indices import classical_interaction


@dataclass(frozen=True)
class SectionCapacity:
    """Classical capacity induced by a game on one unit cell.

    ``mu`` is indexed by coalition bitmask (bit i-1 for attribute i) and
    holds v(cell base raised by one on the coalition) - v(cell base);
    the empty coalition maps to 0 by construction.
    """

    n: int
    base_cell: LatticePoint
    mu: np.ndarray

    def weight(self, members: Iterable[int]) -> float:
        mask = 0
        for i in members_tuple(members, self.n):
            mask |= 1 << (i - 1)
        return float(self.mu[mask])

    def as_dict(self) -> dict[tuple[int, ...], float]:
        out = {}
        for mask in range(2**self.n):
            T = tuple(i + 1 for i in range(self.n) if mask >> i & 1)
            out[T] = float(self.mu[mask])
        return out

    def as_game(self) -> MultichoiceGame:
        """The section capacity viewed as a two-level game (k = 1)."""
        return MultichoiceGame(self.n, 1, self.mu)


def section_capacity(v: MultichoiceGame, q: Sequence[int]) -> SectionCapacity:
    """Capacity of the unit cell with base q, q in {0..k-1}^n."""
    if len(q) != v.n:
        raise ValueError(f"cell base has {len(q)} components, expected {v.n}")
    if any(not 0 <= qi <= v.k - 1 for qi in q):
        raise ValueError(f"cell base {tuple(q)} must lie in [0, {v.k - 1}]^n")
    base = encode_index(q, v.n, v.k)
    _, offsets = corners([(v.k + 1) ** i for i in range(v.n)])  # by coalition mask
    mu = v.values[base + offsets] - v.values[base]
    mu[0] = 0.0
    return SectionCapacity(v.n, tuple(int(qi) for qi in q), mu)


def _choquet_batch(mu: np.ndarray, W: np.ndarray, n: int) -> np.ndarray:
    """Classical Choquet integral of each row of W (values in [0, 1]).

    Rows are sorted ascending with ties broken by attribute index; the
    value itself does not depend on the tie order.
    """
    order = np.argsort(W, axis=1, kind="stable")
    ranked = np.take_along_axis(W, order, axis=1)
    prev = np.concatenate([np.zeros((W.shape[0], 1)), ranked[:, :-1]], axis=1)
    diffs = ranked - prev
    out = np.zeros(W.shape[0])
    mask = np.zeros(W.shape[0], dtype=np.int64)
    for col in range(n - 1, -1, -1):
        mask = mask | (np.int64(1) << order[:, col])
        out += diffs[:, col] * mu[mask]
    return out


def choquet_capacity(mu: SectionCapacity, w: Sequence[float]) -> float:
    """Choquet integral of a point in [0, 1]^n w.r.t. a section capacity."""
    arr = np.asarray(w, dtype=np.float64)
    if arr.shape != (mu.n,):
        raise ValueError(f"point has {arr.size} coordinates, expected {mu.n}")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"coordinates of {tuple(w)} must lie in [0, 1]")
    return float(_choquet_batch(mu.mu, arr[None, :], mu.n)[0])


def _eval_in_cell(v: MultichoiceGame, q: Sequence[int], z: np.ndarray) -> float:
    """Extension value at z computed through the cell based at q."""
    mu = section_capacity(v, q)
    offs = z - np.asarray(q, dtype=np.float64)
    return v.value(q) + float(_choquet_batch(mu.mu, offs[None, :], v.n)[0])


def choquet_kary(v: MultichoiceGame, z: Sequence[float]) -> float:
    """Extension of v at a real point z in [0, k]^n.

    The owning cell base is floor(z) clamped to k-1 so points on the top
    faces use the last cell; the result is continuous across cell faces
    and equals v exactly at lattice points.
    """
    arr = np.asarray(z, dtype=np.float64)
    if arr.shape != (v.n,):
        raise ValueError(f"point has {arr.size} coordinates, expected {v.n}")
    if not np.all((arr >= 0.0) & (arr <= v.k)):
        raise ValueError(f"coordinates of {tuple(z)} must lie in [0, {v.k}]")
    q = tuple(min(int(math.floor(zi)), v.k - 1) for zi in arr)
    return _eval_in_cell(v, q, arr)


def interaction_cellsum(
    v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None
) -> float:
    """Interaction of T as a total of per-cell classical interactions.

    Sums the classical interaction index of the section capacity over all
    k**n unit cells; agrees with the closed-form index and serves as an
    independent oracle for it.
    """
    members = members_tuple(T, v.n)
    if not members:
        raise ValueError("T must be nonempty")
    check_query_size(v.k**v.n * 2**v.n, limit_bits)
    terms = [
        classical_interaction(section_capacity(v, q).as_game(), members)
        for q in digits(v.k, v.n)  # every unit-cell base
    ]
    return math.fsum(terms)


class IntegralEstimate(NamedTuple):
    estimate: float
    std_error: float


def integral_check(
    v: MultichoiceGame, T: Iterable[int], samples: int, seed: int
) -> IntegralEstimate:
    """Monte-Carlo estimate of the box integral of the T-mixed derivative.

    The integral over each unit cell is reduced to the alternating sum of
    the extension over the 0/1 corners in the T-coordinates, averaged over
    uniform positions of the remaining coordinates; ``samples`` points are
    drawn per cell from an independent stream seeded by (seed, cell), so
    the result is deterministic and invariant to cell evaluation order.
    For |T| = 1 this integrates the almost-everywhere partial derivative
    cell by cell.  Returns the estimate and its standard error.
    """
    members = members_tuple(T, v.n)
    if not members:
        raise ValueError("T must be nonempty")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    n, k, t = v.n, v.k, len(members)
    comp = [i for i in range(1, n + 1) if i not in set(members)]
    if comp and samples < 2:
        raise ValueError("need at least two samples to estimate a standard error")

    # corner offsets in a k = 1 table are coalition masks; unpack them to 0/1 points
    signs, masks = corners([1 << (i - 1) for i in members])
    points = (masks[:, None] >> np.arange(n) & 1).astype(np.float64)

    comp_idx = [i - 1 for i in comp]
    means, variances = [], []
    for ci, q in enumerate(digits(k, n)):
        mu = section_capacity(v, q)
        vq = v.values[encode_index(q, n, k)]
        if not comp:
            means.append(math.fsum(signs * (vq + _choquet_batch(mu.mu, points, n))))
            variances.append(0.0)
            continue
        rng = np.random.default_rng((seed, ci))
        U = rng.random((samples, len(comp)))
        g = np.zeros(samples)
        for sign, lv in zip(signs, points):
            W = np.broadcast_to(lv, (samples, n)).copy()
            W[:, comp_idx] = U
            g += sign * (vq + _choquet_batch(mu.mu, W, n))
        means.append(float(g.mean()))
        variances.append(float(g.var(ddof=1)))
    estimate = math.fsum(means)
    std_error = math.sqrt(math.fsum(var / samples for var in variances))
    return IntegralEstimate(estimate, std_error)
