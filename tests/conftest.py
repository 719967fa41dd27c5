"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's computation paths:
Shapley values come from averaging marginal vectors over all player
orderings, classical interactions from the Harsanyi-dividend formula,
and discrete derivatives from the one-step recursion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from karycap import MultichoiceGame, min_game, random_game
from karycap.game import GAME_KINDS

# the unit roundoff of a double: each error against an exact reference is
# measured in u times the total magnitude of the exact sum's terms, Σ|w·x|
U = Fraction(1, 2**53)


@pytest.fixture
def m2() -> MultichoiceGame:
    """min(x1, x2) on {0,1,2}^2; the standard conjunctive example."""
    return min_game(2, 2)


@pytest.fixture
def classic2() -> MultichoiceGame:
    """Two-player k=1 game with v(1)=3, v(2)=1, v(12)=6."""
    return MultichoiceGame.from_values(2, 1, [0.0, 3.0, 1.0, 6.0])


def unanimity(n: int, S: tuple[int, ...]) -> MultichoiceGame:
    """k=1 game worth 1 exactly on coalitions containing S (S nonempty)."""
    assert S
    smask = sum(1 << (i - 1) for i in S)
    vals = [1.0 if (mask & smask) == smask else 0.0 for mask in range(2**n)]
    return MultichoiceGame.from_values(n, 1, vals)


def brute_shapley(v: MultichoiceGame, i: int) -> float:
    """Average marginal contribution of i over all player orderings (k=1)."""
    assert v.k == 1
    n = v.n
    total = 0.0
    for order in permutations(range(1, n + 1)):
        mask = 0
        for player in order:
            new = mask | 1 << (player - 1)
            if player == i:
                total += v.values[new] - v.values[mask]
                break
            mask = new
    return total / math.factorial(n)


def mobius(v: MultichoiceGame) -> dict[int, float]:
    """Harsanyi dividends of a k=1 game, indexed by coalition bitmask."""
    assert v.k == 1
    n = v.n
    out = {}
    for mask in range(2**n):
        members = [p for p in range(n) if mask >> p & 1]
        acc = 0.0
        for r in range(len(members) + 1):
            for K in combinations(members, r):
                kmask = sum(1 << p for p in K)
                acc += (-1.0) ** (len(members) - r) * v.values[kmask]
        out[mask] = acc
    return out


def dividend_interaction(v: MultichoiceGame, S: tuple[int, ...]) -> float:
    """Classical interaction through dividends: sum m(T)/(t-s+1) over T >= S."""
    m = mobius(v)
    smask = sum(1 << (i - 1) for i in S)
    s = len(S)
    total = 0.0
    for mask, div in m.items():
        if mask & smask == smask:
            t = mask.bit_count()
            total += div / (t - s + 1)
    return total


def delta_recursive(v: MultichoiceGame, T: tuple[int, ...], x) -> float:
    """Discrete derivative by the one-step recursion, independent of the corner sum."""
    members = sorted(T)
    if len(members) == 1:
        i = members[0]
        lifted = list(x)
        lifted[i - 1] += 1
        return v.value(lifted) - v.value(x)
    head, rest = members[0], tuple(members[1:])
    lifted = list(x)
    lifted[head - 1] += 1
    return delta_recursive(v, rest, lifted) - delta_recursive(v, rest, x)


def assert_close(a: float, b: float, tol: float = 1e-9) -> None:
    assert abs(a - b) <= tol, f"|{a} - {b}| = {abs(a - b)} > {tol}"


def reference_games(n: int, k: int):
    """Seeded games of each kind, one scaled far from 1 and one whose differences cancel."""
    for seed in range(2):
        for kind in GAME_KINDS:
            yield random_game(seed, n, k, kind)
        v = random_game(seed, n, k)
        yield MultichoiceGame(n, k, v.values * 3.7e200)  # scaled far from 1
        # large additive parts that every difference cancels, over small noise
        yield MultichoiceGame(n, k, random_game(seed, n, k, "additive").values * 1e15 + v.values)
