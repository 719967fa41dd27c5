"""Acceptance suite: one test per release criterion.

Every test prints a single [criterion N] PASS/FAIL line (visible with
``pytest -s``) and asserts the criterion at its stated tolerance, so the
module doubles as a human-readable checklist and as a hard gate.
"""

import time
from itertools import combinations, product

import numpy as np

from karycap import (
    check_lemma4,
    choquet_kary,
    classical_interaction,
    classical_shapley,
    importance,
    integral_check,
    interaction,
    interaction_cellsum,
    interaction_recursive,
    interaction_via_derivatives,
    lattice_point_interaction,
    min_game,
    random_game,
    section_capacity,
    verify_axiom,
)
from karycap.choquet import _eval_in_cell
from karycap.verify import efficiency_rhs


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}{detail}")
    assert ok, f"criterion {num} failed: {desc}{detail}"


def test_criterion_1_singleton_consistency():
    grids = [(n, k) for n in (1, 2, 3) for k in (1, 2)]
    exact = True
    for seed in range(50):
        n, k = grids[seed % len(grids)]
        v = random_game(seed, n, k, "general")
        for i in range(1, n + 1):
            if interaction(v, (i,)) != importance(v, i):
                exact = False
    _report(1, "singleton interaction equals importance exactly "
               "(50 random games, n<=3, k<=2)", exact)


def test_criterion_2_two_level_reduction():
    worst = 0.0
    sizes = (2, 3, 4, 5, 6)
    for seed in range(100):
        n = sizes[seed % len(sizes)]
        v = random_game(1000 + seed, n, 1, "general")
        for i in range(1, n + 1):
            worst = max(worst, abs(importance(v, i) - classical_shapley(v, i)))
        for t in range(1, n + 1):
            for T in combinations(range(1, n + 1), t):
                worst = max(
                    worst, abs(interaction(v, T) - classical_interaction(v, T))
                )
    _report(2, "k=1 indices match classical Shapley/interaction within 1e-12 "
               "(100 random games, n<=6)", worst <= 1e-12, f" [max gap {worst:.2e}]")


def test_criterion_3_three_oracle_agreement():
    grids = [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (2, 1), (3, 3), (2, 3)]
    worst = 0.0
    start = time.perf_counter()
    for seed in range(100):
        n, k = grids[seed % len(grids)]
        v = random_game(2000 + seed, n, k, "general")
        for t in range(1, min(n, 3) + 1):
            for T in combinations(range(1, n + 1), t):
                a = interaction(v, T)
                b = interaction_via_derivatives(v, T)
                c = interaction_recursive(v, T)
                worst = max(worst, abs(a - b), abs(a - c))
    elapsed = time.perf_counter() - start
    _report(3, "closed form, derivative sum and recursion agree within 1e-9 "
               "(100 random games, n<=5, k<=3, |T|<=3)",
            worst <= 1e-9 and elapsed < 60.0,
            f" [max gap {worst:.2e}, {elapsed:.1f}s]")


def test_criterion_4_axiom_suite():
    reports = [verify_axiom(ax, 100, 424242, 4, 3) for ax in ("L", "N", "I", "S", "E", "R")]
    worst = max(r.max_gap for r in reports)
    ok = all(r.passed for r in reports) and worst <= 1e-9

    m2 = min_game(2, 2)
    phi = [importance(m2, 1), importance(m2, 2)]
    hand_ok = phi == [2.0, 2.0] and efficiency_rhs(m2) == 4.0
    _report(4, "axioms L,N,I,S,E,R hold over 100 seeded trials each (n=4, k=3); "
               "min game gives phi=[2,2] and efficiency total 4",
            ok and hand_ok, f" [max gap {worst:.2e}]")


def test_criterion_5_cell_sum_identity():
    m2 = min_game(2, 2)
    cells = [
        classical_interaction(section_capacity(m2, q), (1, 2))
        for q in [(0, 0), (0, 1), (1, 0), (1, 1)]
    ]
    hand_ok = cells == [1.0, 0.0, 0.0, 1.0] and interaction_cellsum(m2, (1, 2)) == 2.0

    grids = [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]
    worst = 0.0
    for seed in range(50):
        n, k = grids[seed % len(grids)]
        v = random_game(3000 + seed, n, k, "general")
        for t in range(1, n + 1):
            for T in combinations(range(1, n + 1), t):
                worst = max(worst, abs(interaction_cellsum(v, T) - interaction(v, T)))
    _report(5, "per-cell classical interactions total the closed form within 1e-9 "
               "(50 random games, n<=4, k<=3); min-game cells 1,0,0,1",
            worst <= 1e-9 and hand_ok, f" [max gap {worst:.2e}]")


def test_criterion_6_integral_representation():
    start = time.perf_counter()
    checks = []

    m2 = min_game(2, 2)
    for T in [(1, 2), (1,)]:
        est = integral_check(m2, T, 100_000, 606)
        checks.append((est, interaction(m2, T)))

    grids = [(2, 2), (3, 2)]
    for trial in range(10):
        n, k = grids[trial % 2]
        v = random_game(4000 + trial, n, k, "monotone")
        T = (1, 2)
        est = integral_check(v, T, 100_000, 700 + trial)
        checks.append((est, interaction(v, T)))

    ok = all(
        abs(est.estimate - target) <= 3.0 * est.std_error + 1e-9
        for est, target in checks
    )
    elapsed = time.perf_counter() - start
    worst_z = max(
        abs(est.estimate - target) / est.std_error if est.std_error else 0.0
        for est, target in checks
    )
    _report(6, "Monte-Carlo box integral lands within 3 standard errors of the "
               "closed form (min game + 10 monotone games, 1e5 samples)",
            ok and elapsed < 30.0, f" [max |z| {worst_z:.2f}, {elapsed:.1f}s]")


def test_criterion_7_coefficient_identity():
    ok = all(check_lemma4(n).passed for n in range(1, 11))
    _report(7, "interval coefficient identity holds exactly in rationals "
               "for all 0<=a<=b<n, n up to 10", ok)


def test_criterion_8_choquet_interpolation():
    worst_interp = 0.0
    worst_cont = 0.0
    rng = np.random.default_rng(88)
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            v = random_game(5000 + 10 * n + k, n, k, "general")
            for x in product(range(k + 1), repeat=n):
                gap = abs(choquet_kary(v, tuple(float(c) for c in x)) - v.value(x))
                worst_interp = max(worst_interp, gap)
            if k < 2:
                continue  # no interior cell faces to cross
            for _ in range(30):
                z = rng.uniform(0, k, size=n)
                i = int(rng.integers(0, n))
                z[i] = float(rng.integers(1, k))
                below = list(np.minimum(np.floor(z), k - 1).astype(int))
                below[i] = int(z[i]) - 1
                above = list(below)
                above[i] = int(z[i])
                worst_cont = max(
                    worst_cont,
                    abs(_eval_in_cell(v, tuple(below), z) - _eval_in_cell(v, tuple(above), z)),
                )
    ok = worst_interp <= 1e-12 and worst_cont <= 1e-12
    _report(8, "extension interpolates the game at lattice points and is "
               "continuous across cell faces within 1e-12 (n<=3, k<=3)",
            ok, f" [interp {worst_interp:.2e}, continuity {worst_cont:.2e}]")


def test_criterion_9_pointwise_index_reduction():
    worst = 0.0
    for seed in range(12):
        n = 2 + seed % 4  # 2..5
        v = random_game(6000 + seed, n, 1, "general")
        for t in range(1, n + 1):
            for S in combinations(range(1, n + 1), t):
                x = tuple(1 if i in S else 0 for i in range(1, n + 1))
                worst = max(
                    worst,
                    abs(lattice_point_interaction(v, x) - classical_interaction(v, S)),
                )
    _report(9, "pointwise interaction at indicator profiles matches the "
               "classical index within 1e-12 (all S, n<=5)",
            worst <= 1e-12, f" [max gap {worst:.2e}]")
