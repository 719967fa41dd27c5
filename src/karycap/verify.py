"""Executable axiom suite and combinatorial identity checks.

Each axiom of the interaction index (linearity, null attribute,
increment invariance, symmetry, efficiency, recursion) is turned into a
seeded randomized check: draw games, build the transformed partner the
axiom talks about, and compare both sides of its equation numerically.
Reports collect every violation above tolerance, so a passing report
means the whole trial batch stayed within bounds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .game import (
    MultichoiceGame,
    _integer,
    _seed,
    add_games,
    check_table_size,
    members_tuple,
    permute_attributes,
    random_game,
    restrict_absent,
    restrict_present_top,
)
from .indices import importance, interaction

AXIOMS = ("L", "N", "I", "S", "E", "R")

#: Largest coalition size exercised per trial.
MAX_ORDER = 3


@dataclass
class Failure:
    seed: int
    subject: tuple
    lhs: float
    rhs: float
    gap: float


@dataclass
class VerificationReport:
    axiom: str
    trials: int
    max_gap: float = 0.0
    passed: bool = True
    note: str = ""
    failures: list[Failure] = field(default_factory=list)

    def record(self, tol: float, seed: int, subject: tuple, lhs: float, rhs: float) -> None:
        gap = abs(lhs - rhs)
        self.max_gap = max(self.max_gap, gap)
        if gap > tol:
            self.failures.append(Failure(seed, subject, lhs, rhs, gap))
            self.passed = False

    def as_dict(self) -> dict:
        return asdict(self)


def make_null_extension(
    v: MultichoiceGame, position: int, limit_bits: int | None = None
) -> MultichoiceGame:
    """Insert an attribute at ``position`` (1-based) that never matters.

    The new game ignores the inserted attribute's level entirely, so its
    importance and every interaction involving it must vanish.
    """
    position = _integer(position, "position")
    if not 1 <= position <= v.n + 1:
        raise ValueError(f"position {position} outside 1..{v.n + 1}")
    check_table_size(v.n + 1, v.k, limit_bits)
    expanded = np.expand_dims(v.grid(), axis=position - 1)
    return MultichoiceGame.from_grid(np.broadcast_to(expanded, (v.k + 1,) * (v.n + 1)))


def make_invariance_partner(v: MultichoiceGame, i: int) -> MultichoiceGame:
    """Game w whose increments along attribute i are those of v shifted one level up.

    Along i: w at level 0 is 0, w at level l (1 <= l <= k-1) is
    v(l+1) - v(1), and w at level k is v(k) - v(0), all at fixed levels of
    the other attributes.  By construction the importance of i and every
    interaction of a coalition containing i agree between v and w.
    """
    if v.k < 2:
        raise ValueError("the increment-shift relations degenerate for k < 2")
    (i,) = members_tuple((i,), v.n)
    grid = v.grid()
    ax = i - 1
    layers = [np.zeros_like(np.take(grid, 0, axis=ax))]
    v1 = np.take(grid, 1, axis=ax)
    for level in range(1, v.k):
        layers.append(np.take(grid, level + 1, axis=ax) - v1)
    layers.append(np.take(grid, v.k, axis=ax) - np.take(grid, 0, axis=ax))
    return MultichoiceGame.from_grid(np.stack(layers, axis=ax))


def efficiency_rhs(v: MultichoiceGame) -> float:
    """Total diagonal increment: sum over x < top of v(x + 1_N) - v(x)."""
    grid = v.grid()
    lo = grid[(slice(0, v.k),) * v.n]
    hi = grid[(slice(1, v.k + 1),) * v.n]
    return math.fsum((hi - lo).ravel().tolist())


def _coalitions_upto(n: int, max_order: int, containing: int | None = None):
    for size in range(1, min(n, max_order) + 1):
        for T in combinations(range(1, n + 1), size):
            if containing is None or containing in T:
                yield T


def _drop_and_renumber(T: tuple[int, ...], i: int) -> tuple[int, ...]:
    # coalition T without i, renumbered for the game with attribute i removed
    return tuple(j - 1 if j > i else j for j in T if j != i)


def verify_axiom(
    axiom: str,
    trials: int,
    seed: int,
    n: int,
    k: int,
    tol: float = 1e-9,
    game: MultichoiceGame | None = None,
    limit_bits: int | None = None,
) -> VerificationReport:
    """Randomized check of one interaction-index axiom.

    Draws fresh games per trial (or reuses ``game`` as the base subject
    while still drawing random partners, permutations and positions) and
    records every equation violation above ``tol * max(1, max|v|)``, v the
    trial's base game.  ``limit_bits`` overrides the size guards of every
    game built and every index query made.  Deterministic for a given
    (axiom, trials, seed, n, k, game).
    """
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}, expected one of {AXIOMS}")
    trials = _integer(trials, "trial count")
    if trials < 1:
        raise ValueError("need at least one trial")
    seed = _seed(seed)
    if game is not None:
        n, k = game.n, game.k
    if axiom == "I" and k < 2:
        raise ValueError("axiom I needs k >= 2; its relations degenerate otherwise")
    if axiom == "R" and n < 2:
        raise ValueError("axiom R needs at least two attributes")
    report = VerificationReport(axiom=axiom, trials=trials)
    if axiom == "I":
        report.note = "constructive one-attribute partner; valid under either quantifier reading"
    trial_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)
    checker = _CHECKERS[axiom]
    for ts in trial_seeds:
        ts = int(ts)
        rng = np.random.default_rng(ts)
        v = game if game is not None else random_game(
            int(rng.integers(0, 2**31)), n, k, "general", limit_bits
        )
        checker(report, rng, ts, v, tol * max(1.0, float(np.abs(v.values).max())), limit_bits)
    return report


def _check_linearity(report, rng, ts, v, tol, bits):
    w = random_game(int(rng.integers(0, 2**31)), v.n, v.k, "general", bits)
    alpha = float(rng.uniform(-2.0, 2.0))
    combo = add_games(v, w, alpha)
    for T in _coalitions_upto(v.n, MAX_ORDER):
        lhs = interaction(combo, T, bits)
        rhs = interaction(v, T, bits) + alpha * interaction(w, T, bits)
        report.record(tol, ts, T, lhs, rhs)


def _check_null(report, rng, ts, v, tol, bits):
    position = int(rng.integers(1, v.n + 2))
    ext = make_null_extension(v, position, bits)
    for T in _coalitions_upto(ext.n, MAX_ORDER, containing=position):
        report.record(tol, ts, T, interaction(ext, T, bits), 0.0)


def _check_invariance(report, rng, ts, v, tol, bits):
    i = int(rng.integers(1, v.n + 1))
    w = make_invariance_partner(v, i)
    for T in _coalitions_upto(v.n, MAX_ORDER, containing=i):
        report.record(tol, ts, T, interaction(v, T, bits), interaction(w, T, bits))


def _check_symmetry(report, rng, ts, v, tol, bits):
    sigma = tuple(int(s) + 1 for s in rng.permutation(v.n))
    relabeled = permute_attributes(v, sigma)
    for T in _coalitions_upto(v.n, MAX_ORDER):
        sigma_T = members_tuple((sigma[i - 1] for i in T), v.n)
        report.record(tol, ts, T, interaction(relabeled, sigma_T, bits), interaction(v, T, bits))


def _check_efficiency(report, rng, ts, v, tol, bits):
    lhs = math.fsum(importance(v, i, bits) for i in range(1, v.n + 1))
    report.record(tol, ts, ("total",), lhs, efficiency_rhs(v))


def _check_recursion(report, rng, ts, v, tol, bits):
    parts = {i: (restrict_present_top(v, i), restrict_absent(v, (i,))) for i in range(1, v.n + 1)}
    for T in _coalitions_upto(v.n, MAX_ORDER):
        if len(T) < 2:
            continue
        lhs = interaction(v, T, bits)
        for i in T:
            rest = _drop_and_renumber(T, i)
            top, absent = parts[i]
            rhs = interaction(top, rest, bits) - interaction(absent, rest, bits)
            report.record(tol, ts, T + ("drop", i), lhs, rhs)


_CHECKERS = {
    "L": _check_linearity,
    "N": _check_null,
    "I": _check_invariance,
    "S": _check_symmetry,
    "E": _check_efficiency,
    "R": _check_recursion,
}


def check_lemma4(n: int) -> VerificationReport:
    """Exact identity behind the class coefficients.

    For all 0 <= a <= b < n the sum of (n-s-1)! s! / n! over s in [a, b],
    counted with binomial multiplicity choose(b-a, s-a), must equal
    (n-b-1)! a! / (n-b+a)! as an exact rational.  The b = n edge case is
    excluded: its right-hand side has no meaning (negative factorial).
    """
    if _integer(n, "attribute count n") < 1:
        raise ValueError("need n >= 1")
    report = VerificationReport(axiom="lemma4", trials=0, note=f"n={n}, all 0<=a<=b<n")
    for b in range(n):
        for a in range(b + 1):
            lhs = sum(
                math.comb(b - a, s - a)
                * Fraction(math.factorial(n - s - 1) * math.factorial(s), math.factorial(n))
                for s in range(a, b + 1)
            )
            rhs = Fraction(
                math.factorial(n - b - 1) * math.factorial(a), math.factorial(n - b + a)
            )
            report.trials += 1
            if lhs != rhs:
                gap = abs(float(lhs - rhs))
                report.failures.append(Failure(0, (a, b), float(lhs), float(rhs), gap))
                report.max_gap = max(report.max_gap, gap)
                report.passed = False
    return report
