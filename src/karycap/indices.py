"""Importance and interaction indices for multilevel games.

The closed-form index of a coalition T weights each profile of the
remaining attributes by an exact rational coefficient that depends only
on the profile's support size s (components > 0) and kernel size kap
(components at the top level k):

    (n - s - t)! * kap! / (n - s + kap - t + 1)!        with t = |T|

and multiplies it by the alternating sum of v over the corners where T
sits at level 0 or k.  For t = 1 this reduces to the importance index of
a single attribute (top-minus-bottom differences).

To keep results reproducible and well conditioned, value terms are
grouped by (s, kap) class and summed exactly per class (math.fsum /
bincount in canonical enumeration order); the rational coefficient is
converted to a double only when a whole class total is multiplied in.

Two independently computable forms are provided as cross-checks: a sum
of discrete derivatives over all unit cells, and an expansion through
reduced games where a coalition moves as a single macro attribute.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .game import (
    Coalition,
    MultichoiceGame,
    check_query_size,
    corners,
    digits,
    members_tuple,
    reduce_group,
    support,
)

METHODS = ("closed_form", "derivative_sum", "recursive", "cellsum")


def shapley_coefficient(n: int, t: int, s: int, kap: int) -> Fraction:
    """Exact class coefficient (n-s-t)! kap! / (n-s+kap-t+1)!.

    Valid for 0 <= kap <= s <= n - t and t >= 1; anything else would hit
    a negative factorial.
    """
    if t < 1 or kap < 0 or kap > s or s > n - t:
        raise ValueError(f"invalid coefficient arguments n={n}, t={t}, s={s}, kap={kap}")
    return Fraction(
        math.factorial(n - s - t) * math.factorial(kap),
        math.factorial(n - s + kap - t + 1),
    )


def _complement_profiles(
    v: MultichoiceGame, members: Coalition
) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices and (s, kap) class ids of the profiles outside ``members``.

    The profiles range over the other attributes with ``members`` at level
    0; support size s and kernel size kap give class id s * (n + 1) + kap.
    """
    comp = [i for i in range(1, v.n + 1) if i not in members]
    levels = digits(v.k + 1, len(comp))
    base = levels @ np.array([(v.k + 1) ** (i - 1) for i in comp], dtype=np.int64)
    s_arr = np.count_nonzero(levels > 0, axis=1)
    kap_arr = np.count_nonzero(levels == v.k, axis=1)
    return base, s_arr * (v.n + 1) + kap_arr


def _combine_classes(n: int, t: int, cid: np.ndarray, terms: np.ndarray) -> float:
    """Per-(s, kap)-class totals, each scaled by its exact coefficient."""
    sums = np.bincount(cid, weights=terms, minlength=(n + 1) ** 2)
    return math.fsum(
        float(shapley_coefficient(n, t, int(c) // (n + 1), int(c) % (n + 1))) * sums[c]
        for c in np.nonzero(sums)[0]
    )


def _closed_form(v: MultichoiceGame, members: Coalition, limit_bits: int | None) -> float:
    n, k, t = v.n, v.k, len(members)
    check_query_size((k + 1) ** (n - t) * 2**t, limit_bits)
    base, cid = _complement_profiles(v, members)
    terms = np.zeros(len(base))
    for sign, off in zip(*corners([k * (k + 1) ** (i - 1) for i in members])):
        terms += sign * v.values[base + off]
    return _combine_classes(n, t, cid, terms)


def importance(v: MultichoiceGame, i: int, limit_bits: int | None = None) -> float:
    """Importance index of attribute i.

    Weighted total, over all profiles of the other attributes, of the
    value swing of i from level 0 to level k; the weight is the exact
    (s, kap)-class coefficient with t = 1.
    """
    (i,) = members_tuple((i,), v.n)
    return _closed_form(v, (i,), limit_bits)


def interaction(v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None) -> float:
    """Interaction index of coalition T, closed form.

    Positive values flag conjunctive (min-like) behaviour of T, negative
    values disjunctive (max-like) behaviour.  For |T| = 1 this is exactly
    :func:`importance`.
    """
    members = members_tuple(T, v.n)
    if not members:
        raise ValueError("T must be nonempty")
    return _closed_form(v, members, limit_bits)


def interaction_via_derivatives(
    v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None
) -> float:
    """Interaction of T as a coefficient-weighted sum of cell derivatives.

    Sums the discrete derivative of v over every unit cell whose base has
    all T-components below the top level; agrees with :func:`interaction`
    up to rounding and serves as an independent oracle for it.
    """
    members = members_tuple(T, v.n)
    if not members:
        raise ValueError("T must be nonempty")
    n, k, t = v.n, v.k, len(members)
    check_query_size((k + 1) ** (n - t) * k**t * 2**t, limit_bits)
    base, cid = _complement_profiles(v, members)
    member_strides = np.array([(k + 1) ** (i - 1) for i in members], dtype=np.int64)
    # bases of the k**t unit cells inside the T-block
    grid = base[:, None] + (digits(k, t) @ member_strides)[None, :]
    deltas = np.zeros(grid.shape)
    for sign, off in zip(*corners(member_strides)):
        deltas += sign * v.values[grid + off]
    return _combine_classes(n, t, cid, deltas.sum(axis=1))


def interaction_recursive(
    v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None
) -> float:
    """Interaction of T via macro-attribute reductions.

    Expands I(T) as the signed sum, over nonempty A within T, of the
    importance of the macro attribute in the game where A moves in
    lockstep and T without A is frozen at level 0.  Singleton base case
    is the importance index itself.
    """
    members = members_tuple(T, v.n)
    if not members:
        raise ValueError("T must be nonempty")
    t = len(members)
    if t == 1:
        return importance(v, members[0], limit_bits)
    terms = []
    for a in range(1, t + 1):
        for A in combinations(members, a):
            reduced = reduce_group(v, members, A)
            terms.append((-1.0) ** (t - a) * importance(reduced, reduced.n, limit_bits))
    return math.fsum(terms)


def classical_shapley(v: MultichoiceGame, i: int) -> float:
    """Shapley value of attribute i in a two-level (k = 1) game."""
    return classical_interaction(v, (i,))


def classical_interaction(v: MultichoiceGame, S: Iterable[int]) -> float:
    """Interaction index of coalition S in a two-level (k = 1) game."""
    if v.k != 1:
        raise ValueError(f"defined for k = 1 games only, got k = {v.k}")
    members = members_tuple(S, v.n)
    if not members:
        raise ValueError("S must be nonempty")
    n, s = v.n, len(members)
    others = [p for p in range(n) if p + 1 not in set(members)]
    inner_masks = [
        ((-1.0) ** (s - a), sum(1 << (i - 1) for i in K))
        for a in range(s + 1)
        for K in combinations(members, a)
    ]
    terms = []
    for t in range(len(others) + 1):
        coeff = float(
            Fraction(
                math.factorial(n - t - s) * math.factorial(t),
                math.factorial(n - s + 1),
            )
        )
        for Tset in combinations(others, t):
            tmask = sum(1 << p for p in Tset)
            inner = math.fsum(sign * v.values[tmask | kmask] for sign, kmask in inner_masks)
            terms.append(coeff * inner)
    return math.fsum(terms)


def lattice_point_interaction(v: MultichoiceGame, x: Sequence[int]) -> float:
    """Pointwise interaction at a lattice profile x.

    With J the support of x, averages the discrete derivative of v over
    the cells based one step below x on J, while the attributes outside J
    sweep the extreme levels {0, k}; the weight depends on how many of
    them sit at the top.  At k = 1 and x the indicator of a coalition S
    this is the classical interaction index of S.
    """
    if len(x) != v.n:
        raise ValueError(f"profile has {len(x)} components, expected {v.n}")
    J = support(x)
    if not J:
        raise ValueError("x must have nonempty support")
    n, k = v.n, v.k
    j = len(J)
    outside = [i for i in range(1, n + 1) if i not in J]
    signs, cell = corners([(k + 1) ** (i - 1) for i in J])
    base = sum((x[i - 1] - 1) * (k + 1) ** (i - 1) for i in J)
    # the outside attributes sweep {0, k}; h counts those at the top
    tops = digits(2, len(outside))
    sweep = base + tops @ np.array([k * (k + 1) ** (i - 1) for i in outside], dtype=np.int64)
    deltas = np.array([math.fsum(signs * v.values[off + cell]) for off in sweep])
    h_arr = tops.sum(axis=1)
    return math.fsum(
        float(Fraction(math.factorial(n - j - h) * math.factorial(h), math.factorial(n - j + 1)))
        * math.fsum(deltas[h_arr == h])
        for h in range(len(outside) + 1)
    )


@dataclass
class IndexReport:
    """Importance vector and interaction map for one game."""

    target: str
    importance: dict[int, float]
    interactions: dict[Coalition, float]
    method: str
    max_order: int
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "method": self.method,
            "max_order": self.max_order,
            "importance": [self.importance[i] for i in sorted(self.importance)],
            "interactions": {
                "+".join(map(str, T)): val for T, val in self.interactions.items()
            },
            "elapsed": self.elapsed,
        }


def interaction_by_method(
    v: MultichoiceGame, T: Iterable[int], method: str, limit_bits: int | None = None
) -> float:
    """Interaction of T computed by one of :data:`METHODS`.

    Each method's function is looked up by its module-level name at call
    time, so a rebinding of that name (a wrapper, say) is honoured.
    """
    if method == "cellsum":
        # choquet imports classical_interaction from here, so a module-level
        # import of choquet would be circular
        from .choquet import interaction_cellsum

        return interaction_cellsum(v, T, limit_bits)
    compute = {
        "closed_form": interaction,
        "derivative_sum": interaction_via_derivatives,
        "recursive": interaction_recursive,
    }.get(method)
    if compute is None:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return compute(v, T, limit_bits)


def interaction_all_upto(
    v: MultichoiceGame,
    m: int,
    method: str = "closed_form",
    limit_bits: int | None = None,
) -> IndexReport:
    """All interactions of order 1..m under one method.

    Singleton rows double as the importance vector.  ``method`` is one of
    closed_form, derivative_sum, recursive, cellsum.
    """
    if not 1 <= m <= v.n:
        raise ValueError(f"max order {m} outside 1..{v.n}")
    start = time.perf_counter()
    interactions: dict[Coalition, float] = {}
    for size in range(1, m + 1):
        for T in combinations(range(1, v.n + 1), size):
            interactions[T] = interaction_by_method(v, T, method, limit_bits)
    imp = {T[0]: val for T, val in interactions.items() if len(T) == 1}
    target = v.meta.get("name") or f"game(n={v.n},k={v.k})"
    return IndexReport(
        target=target,
        importance=imp,
        interactions=interactions,
        method=method,
        max_order=m,
        elapsed=time.perf_counter() - start,
    )
