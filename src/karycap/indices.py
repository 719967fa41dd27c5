"""Importance and interaction indices for multilevel games.

The closed-form index of a coalition T weights each profile of the
remaining attributes by an exact rational coefficient that depends only
on the profile's support size s (components > 0) and kernel size kap
(components at the top level k):

    (n - s - t)! * kap! / (n - s + kap - t + 1)!        with t = |T|

and multiplies it by the alternating sum of v over the corners where T
sits at level 0 or k.  For t = 1 this reduces to the importance index of
a single attribute (top-minus-bottom differences).

Every index reads the table through ``v.grid()``: a basic slice of the
grid (levels 0 and k on the axes of T, say) followed by ``np.diff`` along
each axis of T.  To keep results reproducible and well conditioned, the
resulting terms are grouped by (s, kap) class and summed per class in
canonical table order (attribute 1 fastest); the rational coefficient is
converted to a double only when a whole class total is multiplied in.

Two independently computable forms are provided as cross-checks: a sum
of discrete derivatives over all unit cells, and an expansion through
reduced games where a coalition moves as a single macro attribute.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .choquet import classical_interaction, interaction_cellsum
from .game import (
    Coalition,
    MultichoiceGame,
    _integer,
    _profile,
    check_query_size,
    members_tuple,
    nonempty_members,
    reduce_group,
    support,
)

METHODS = ("closed_form", "derivative_sum", "recursive", "cellsum")


@functools.cache
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


def _classes(shape: tuple[int, ...], n: int, k: int) -> np.ndarray:
    """(s, kap) class id of each entry of an array of ``shape``, in F order.

    An entry's index along each axis is a level; support size s counts the
    levels above 0 and kernel size kap those at k, and the class id is
    s * (n + 1) + kap.  Axes of length 1 (those of T) add nothing.
    """
    levels = np.indices(shape)
    s_arr = np.count_nonzero(levels > 0, axis=0)
    kap_arr = np.count_nonzero(levels == k, axis=0)
    return (s_arr * (n + 1) + kap_arr).ravel(order="F")


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
    # T at levels 0 and k, every other attribute at each of its levels
    ends = tuple(slice(0, k + 1, k) if i in members else slice(None) for i in range(1, n + 1))
    terms = v.grid()[ends]
    for i in members:
        terms = np.diff(terms, axis=i - 1)
    return _combine_classes(n, t, _classes(terms.shape, n, k), terms.ravel(order="F"))


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
    members = nonempty_members(T, v.n)
    return _closed_form(v, members, limit_bits)


def interaction_via_derivatives(
    v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None
) -> float:
    """Interaction of T as a coefficient-weighted sum of cell derivatives.

    Sums the discrete derivative of v over every unit cell whose base has
    all T-components below the top level; agrees with :func:`interaction`
    up to rounding and serves as an independent oracle for it.
    """
    members = nonempty_members(T, v.n)
    n, k, t = v.n, v.k, len(members)
    check_query_size((k + 1) ** (n - t) * k**t * 2**t, limit_bits)
    deltas = v.grid()  # after the differences: one entry per unit cell of the T-block
    for i in members:
        deltas = np.diff(deltas, axis=i - 1)
    terms = deltas.sum(axis=tuple(i - 1 for i in members), keepdims=True)
    return _combine_classes(n, t, _classes(terms.shape, n, k), terms.ravel(order="F"))


def interaction_recursive(
    v: MultichoiceGame, T: Iterable[int], limit_bits: int | None = None
) -> float:
    """Interaction of T via macro-attribute reductions.

    Expands I(T) as the signed sum, over nonempty A within T, of the
    importance of the macro attribute in the game where A moves in
    lockstep and T without A is frozen at level 0.  Singleton base case
    is the importance index itself.
    """
    members = nonempty_members(T, v.n)
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


def lattice_point_interaction(v: MultichoiceGame, x: Sequence[int]) -> float:
    """Pointwise interaction at a lattice profile x.

    With J the support of x, averages the discrete derivative of v over
    the cells based one step below x on J, while the attributes outside J
    sweep the extreme levels {0, k}; the weight depends on how many of
    them sit at the top.  At k = 1 and x the indicator of a coalition S
    this is the classical interaction index of S.
    """
    x = _profile(x, v.n, v.k)  # validated before its levels become slice bounds
    J = support(x)
    if not J:
        raise ValueError("x must have nonempty support")
    deltas = v.grid()[tuple(slice(xi - 1, xi + 1) if xi else slice(0, v.k + 1, v.k) for xi in x)]
    for i in J:
        deltas = np.diff(deltas, axis=i - 1)
    # the axes outside J hold levels {0, k} at indices {0, 1}: read as a k = 1
    # grid, h attributes at the top make class (s, kap) = (h, h), whose
    # coefficient (n-j-h)! h! / (n-j+1)! is the weight of this index
    return _combine_classes(v.n, len(J), _classes(deltas.shape, v.n, 1), deltas.ravel(order="F"))


def interaction_by_method(
    v: MultichoiceGame, T: Iterable[int], method: str, limit_bits: int | None = None
) -> float:
    """Interaction of T computed by one of :data:`METHODS`.

    Each method's function is looked up by its module-level name at call
    time, so a rebinding of that name (a wrapper, say) is honoured.
    """
    compute = {
        "closed_form": interaction,
        "derivative_sum": interaction_via_derivatives,
        "recursive": interaction_recursive,
        "cellsum": interaction_cellsum,
    }.get(method)
    if compute is None:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return compute(v, T, limit_bits)


def interaction_all_upto(
    v: MultichoiceGame,
    m: int,
    method: str = "closed_form",
    limit_bits: int | None = None,
) -> dict[Coalition, float]:
    """Interaction of every coalition of order 1..m under one method.

    Keys are sorted member tuples, by order and then lexicographically, so
    the singleton rows ``(i,)`` double as the importance vector.
    ``method`` is one of closed_form, derivative_sum, recursive, cellsum.
    """
    m = _integer(m, "max order")
    if not 1 <= m <= v.n:
        raise ValueError(f"max order {m} outside 1..{v.n}")
    return {
        T: interaction_by_method(v, T, method, limit_bits)
        for size in range(1, m + 1)
        for T in combinations(range(1, v.n + 1), size)
    }
