import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from karycap import (
    AXIOMS,
    MultichoiceGame,
    SizeLimitError,
    check_lemma4,
    importance,
    interaction,
    min_game,
    random_game,
    verify_axiom,
)
import karycap.verify as verify_module
from karycap.indices import _index_array
from karycap.verify import (
    efficiency_rhs,
    make_invariance_partner,
    make_null_extension,
    verify_axioms,
)
from conftest import assert_close


class TestNullExtension:
    def test_extended_attribute_is_null(self):
        v = random_game(41, 3, 2, "general")
        for position in (1, 2, 4):
            ext = make_null_extension(v, position)
            assert ext.n == 4
            assert importance(ext, position) == 0.0
            for other in range(1, 5):
                if other != position:
                    assert interaction(ext, (position, other)) == 0.0

    def test_levels_of_new_attribute_ignored(self):
        v = random_game(43, 2, 2, "general")
        ext = make_null_extension(v, 2)
        for x1, x2, lvl in product(range(3), repeat=3):
            assert ext.value((x1, lvl, x2)) == v.value((x1, x2))

    def test_other_interactions_survive(self):
        # interactions not touching the new attribute change only through
        # the coefficient classes; cross-check against the recursion oracle
        from karycap import interaction_recursive

        v = random_game(47, 3, 2, "general")
        ext = make_null_extension(v, 4)
        for T in [(1,), (1, 2), (2, 3), (1, 2, 3)]:
            assert_close(interaction(ext, T), interaction_recursive(ext, T))

    def test_position_validated(self, m2):
        with pytest.raises(ValueError):
            make_null_extension(m2, 0)
        with pytest.raises(ValueError):
            make_null_extension(m2, 4)
        for position in (True, 1.0):  # neither may stand for position 1
            with pytest.raises(ValueError, match="not an integer"):
                make_null_extension(m2, position)


class TestInvariancePartner:
    def test_hand_example(self):
        v = MultichoiceGame.from_values(1, 2, [0.0, 1.0, 3.0])
        w = make_invariance_partner(v, 1)
        assert w.values.tolist() == [0.0, 2.0, 3.0]
        assert importance(v, 1) == importance(w, 1) == 3.0

    def test_defining_relations_exhaustive(self):
        for seed, (n, k) in enumerate([(2, 2), (3, 3), (2, 4)]):
            v = random_game(seed + 900, n, k, "general")
            for i in range(1, n + 1):
                w = make_invariance_partner(v, i)
                for x in product(range(k + 1), repeat=n):
                    xi = x[i - 1]
                    if 0 < xi < k:
                        up = list(x)
                        up[i - 1] += 1
                        down = list(x)
                        down[i - 1] -= 1
                        assert_close(
                            v.value(up) - v.value(x), w.value(x) - w.value(down), 1e-12
                        )
                bottom = [0] * n
                one = list(bottom)
                one[i - 1] = 1
                for rest in product(range(k + 1), repeat=n - 1):
                    x = list(rest[: i - 1]) + [0] + list(rest[i - 1 :])
                    x1 = list(x)
                    x1[i - 1] = 1
                    xk = list(x)
                    xk[i - 1] = k
                    xk1 = list(x)
                    xk1[i - 1] = k - 1
                    assert_close(
                        v.value(x1) - v.value(x), w.value(xk) - w.value(xk1), 1e-12
                    )

    def test_interactions_preserved(self):
        v = random_game(53, 3, 3, "general")
        for i in (1, 2, 3):
            w = make_invariance_partner(v, i)
            for T in [(i,), tuple(sorted({i, 1 + i % 3})), (1, 2, 3)]:
                assert_close(interaction(v, T), interaction(w, T))

    def test_needs_at_least_three_levels(self):
        v = random_game(57, 2, 1, "general")
        with pytest.raises(ValueError):
            make_invariance_partner(v, 1)


class TestEfficiencyRhs:
    def test_min_game(self, m2):
        assert efficiency_rhs(m2) == 4.0

    def test_single_attribute_telescopes(self):
        v = MultichoiceGame.from_values(1, 3, [0.0, 0.2, 0.9, 1.0])
        assert_close(efficiency_rhs(v), 1.0, 1e-12)


class TestVerifyAxiom:
    @pytest.mark.parametrize("axiom", AXIOMS)
    def test_axiom_passes_on_random_games(self, axiom):
        report = verify_axiom(axiom, 25, 42, 3, 2)
        assert report.passed
        assert report.max_gap <= 1e-9
        assert report.failures == []

    def test_deterministic_reports(self):
        a = verify_axiom("R", 5, 7, 3, 2)
        b = verify_axiom("R", 5, 7, 3, 2)
        assert a.as_dict() == b.as_dict()

    def test_efficiency_on_min_game(self, m2):
        report = verify_axiom("E", 3, 1, 2, 2, game=m2)
        assert report.passed
        total = importance(m2, 1) + importance(m2, 2)
        assert total == 4.0 == efficiency_rhs(m2)

    def test_recursion_hand_example(self, m2):
        from karycap.game import restrict_absent, restrict_present_top

        lhs = interaction(m2, (1, 2))
        rhs = importance(restrict_present_top(m2, 2), 1) - importance(
            restrict_absent(m2, (2,)), 1
        )
        assert lhs == rhs == 2.0
        assert verify_axiom("R", 2, 3, 2, 2, game=m2).passed

    def test_symmetry_on_symmetric_game(self):
        sym = min_game(3, 2)
        report = verify_axiom("S", 10, 5, 3, 2, game=sym)
        assert report.passed and report.max_gap == 0.0

    def test_fixed_game_accepted_everywhere(self, m2):
        for axiom in AXIOMS:
            assert verify_axiom(axiom, 4, 9, 2, 2, game=m2).passed

    @pytest.mark.parametrize("seed", range(3))
    def test_tolerance_scales_with_the_game(self, seed):
        # rounding grows with the values: gaps here reach 5.6e-9, above tol = 1e-9
        v = random_game(seed, 5, 3)
        scaled = MultichoiceGame(5, 3, v.values * 1e6)
        for axiom in AXIOMS:
            assert verify_axiom(axiom, 10, seed, 5, 3, game=scaled).passed

    def test_tolerance_stays_absolute_below_unit_scale(self):
        v = random_game(4, 4, 3)
        half = MultichoiceGame(4, 3, v.values * 0.5)
        gap = verify_axiom("L", 5, 4, 4, 3, game=half).max_gap
        assert gap > 0.0
        assert verify_axiom("L", 5, 4, 4, 3, tol=1.5 * gap, game=half).passed

    @pytest.mark.parametrize(
        "axiom, guard",
        [("L", "table over"), ("N", "table over")]
        + [(axiom, "table lookups") for axiom in "ISER"],
    )
    def test_limit_reaches_partners_and_queries(self, axiom, guard):
        # L's random partner and N's extension are the first tables built
        # beyond 5 bits; the other axioms trip on their first index query
        v = random_game(8, 4, 3)
        with pytest.raises(SizeLimitError, match=f"{guard}.*beyond the 5-bit limit"):
            verify_axiom(axiom, 1, 8, 4, 3, game=v, limit_bits=5)
        assert verify_axiom(axiom, 1, 8, 4, 3, game=v, limit_bits=10).passed

    def test_failures_recorded_under_impossible_tolerance(self):
        report = verify_axiom("E", 5, 11, 3, 2, tol=-1.0)
        assert not report.passed
        assert len(report.failures) == 5
        rec = report.failures[0]
        assert rec.gap >= 0.0 and rec.subject == ("total",)
        assert report.max_gap == max(f.gap for f in report.failures)

    def test_nan_tolerance_rejected(self):
        # no gap exceeds nan or inf, so a non-finite tolerance is refused
        for tol, refusal in [(math.nan, "tolerance nan is not a number"),
                             (math.inf, "tolerance inf is not finite"),
                             (-math.inf, "tolerance -inf is not finite")]:
            with pytest.raises(ValueError, match=refusal):
                verify_axiom("E", 2, 11, 3, 2, tol=tol)

    @pytest.mark.parametrize(
        "axiom, games",
        [("L", lambda n: 3), ("N", lambda n: 1), ("I", lambda n: 2),
         ("S", lambda n: 2), ("E", lambda n: 1), ("R", lambda n: 1 + 2 * n)],
    )
    def test_one_index_array_per_game(self, monkeypatch, axiom, games):
        # every game a check builds is indexed once, and through the guard
        calls = []

        def counted(v, limit_bits=None):
            calls.append(limit_bits)
            return _index_array(v, limit_bits)

        monkeypatch.setattr("karycap.indices._index_array", counted)
        for n in (2, 4):
            calls.clear()
            verify_axiom(axiom, 3, 5, n, 3, limit_bits=20)
            assert calls == [20] * (3 * games(n))

    def test_the_served_table_is_what_is_checked(self, monkeypatch):
        # a skew in what interaction_all_upto serves reaches the axiom equations
        served = verify_module.interaction_all_upto

        def skewed(*args):
            return {T: x + 1e-3 * (len(T) >= 2) for T, x in served(*args).items()}

        monkeypatch.setattr(verify_module, "interaction_all_upto", skewed)
        report = verify_axiom("N", 2, 3, 3, 2)
        assert not report.passed and report.failures
        assert all(len(f.subject) >= 2 for f in report.failures)

    @pytest.mark.parametrize("axiom", AXIOMS)
    def test_two_closed_form_queries_per_trial(self, monkeypatch, axiom):
        queries = []
        for name in ("importance", "interaction"):
            served = getattr(verify_module, name)
            monkeypatch.setattr(verify_module, name,
                                lambda v, T, bits=None, f=served: queries.append(T) or f(v, T, bits))
        report = verify_axiom(axiom, 3, 6, 4, 3)
        assert report.passed and 0.0 <= report.closed_form_gap <= 1e-9
        assert len(queries) == 6

    @pytest.mark.parametrize("name", ["importance", "interaction"])
    def test_a_skewed_closed_form_fails_the_report(self, monkeypatch, name):
        # the index arrays still satisfy every axiom; only the re-check sees it
        served = getattr(verify_module, name)
        monkeypatch.setattr(verify_module, name, lambda v, T, bits=None: served(v, T, bits) + 1e-3)
        report = verify_axiom("S", 2, 3, 3, 2)
        assert not report.passed and report.failures == []
        assert_close(report.closed_form_gap, 1e-3, 1e-12)
        assert report.max_gap <= 1e-9

    @pytest.mark.parametrize(
        "axiom, builder",
        [("L", "add_games"), ("N", "make_null_extension"), ("I", "make_invariance_partner"),
         ("S", "permute_attributes"), ("R", "restrict_absent")],
    )
    def test_a_skewed_partner_fails_the_check(self, monkeypatch, axiom, builder):
        # each check compares its partner's indices, not the base game's twice
        build = getattr(verify_module, builder)

        def skewed(*args, **kwargs):
            g = build(*args, **kwargs)
            return MultichoiceGame(g.n, g.k, g.values + 1e-3 * np.arange(g.values.size) ** 2)

        monkeypatch.setattr(verify_module, builder, skewed)
        assert not verify_axiom(axiom, 2, 3, 3, 2).passed

    def test_unknown_axiom_rejected(self):
        with pytest.raises(ValueError):
            verify_axiom("Z", 1, 1, 2, 2)

    @pytest.mark.parametrize("trials", [2.5, True, "3"])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="not an integer"):
            verify_axiom("E", trials, 1, 2, 2)

    def test_rejects_zero_trials(self):
        # a report over no trials would pass vacuously
        with pytest.raises(ValueError, match="at least one trial"):
            verify_axiom("E", 0, 1, 2, 2)

    def test_trial_seeds_are_drawn_as_the_trials_run(self, monkeypatch):
        # no array of trial seeds up front: the first trial starts at once
        class FirstTrial(Exception):
            pass

        def first_trial(*args):
            raise FirstTrial

        monkeypatch.setattr(verify_module, "random_game", first_trial)
        tracemalloc.start()
        try:
            with pytest.raises(FirstTrial):
                verify_axiom("E", 10**7, 1, 2, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_trial_streams_follow_one_vectorised_seed_draw(self, monkeypatch):
        # each trial's game seed is the first draw of default_rng(trial seed)
        drawn = []
        build = verify_module.random_game

        def recorded(seed, *args):
            drawn.append(seed)
            return build(seed, *args)

        monkeypatch.setattr(verify_module, "random_game", recorded)
        verify_axiom("E", 50, 17, 2, 1)
        trial_seeds = np.random.default_rng(17).integers(0, 2**63 - 1, size=50)
        assert drawn == [int(np.random.default_rng(int(ts)).integers(0, 2**31)) for ts in trial_seeds]

    def test_invariance_needs_multiple_levels(self):
        with pytest.raises(ValueError):
            verify_axiom("I", 1, 1, 3, 1)

    def test_recursion_needs_two_attributes(self):
        with pytest.raises(ValueError):
            verify_axiom("R", 1, 1, 1, 2)

    def test_null_and_efficiency_imply_singleton_totals(self):
        # re-assert the joint consequence directly on trial games
        from karycap import interaction_all_upto

        for seed in range(5):
            v = random_game(seed + 1000, 3, 2, "general")
            total = math.fsum(interaction_all_upto(v, 1).values())
            assert_close(total, efficiency_rhs(v))


class TestVerifyAxioms:
    @pytest.mark.parametrize("given", [False, True])
    @pytest.mark.parametrize("seed", [1, 5, 19, 77, 2024])
    @pytest.mark.parametrize("axioms", [AXIOMS, ("S", "S", "E"), ("R", "L", "N")])
    def test_a_shared_run_changes_no_report(self, axioms, seed, given):
        # every report, failure lists in order, equals a run of its axiom alone
        game = random_game(seed + 500, 4, 3) if given else None
        args = (3, seed, 4, 3, -1.0, game, 20)
        shared = verify_axioms(axioms, *args)
        assert [r.axiom for r in shared] == list(axioms)
        assert all(r.failures for r in shared)
        assert [r.as_dict() for r in shared] == [verify_axiom(a, *args).as_dict() for a in axioms]

    @pytest.mark.parametrize("given", [False, True])
    def test_each_game_is_built_and_indexed_once_per_trial(self, monkeypatch, given):
        # the base game is shared; L's partner is the only other random game, and
        # the passes are v, L's partner and sum, N's extension, I's and S's
        # partners, and R's 2n restrictions
        games, passes = [], []
        build = verify_module.random_game

        def built(*args):
            games.append(args)
            return build(*args)

        def indexed(v, limit_bits=None):
            passes.append(limit_bits)
            return _index_array(v, limit_bits)

        monkeypatch.setattr(verify_module, "random_game", built)
        monkeypatch.setattr("karycap.indices._index_array", indexed)
        n, trials = 5, 3
        game = random_game(7, n, 3) if given else None
        assert all(r.passed for r in verify_axioms(AXIOMS, trials, 9, n, 3, game=game, limit_bits=20))
        assert len(games) == (1 if given else 2) * trials
        assert passes == [20] * ((6 + 2 * n) * trials)

    def test_every_axiom_is_checked_before_the_first_game(self, monkeypatch):
        built = []
        monkeypatch.setattr(verify_module, "random_game", lambda *args: built.append(args))
        with pytest.raises(ValueError, match="axiom I needs k >= 2; its relations degenerate"):
            verify_axioms(("L", "E", "I"), 2, 1, 3, 1)
        with pytest.raises(ValueError, match="unknown axiom 'Z'"):
            verify_axioms(("L", "Z"), 2, 1, 3, 2)
        assert built == []

    def test_rejects_an_empty_axiom_list(self):
        # a run of no checks would pass vacuously
        with pytest.raises(ValueError, match="at least one axiom"):
            verify_axioms((), 2, 1, 3, 2)


class TestLemma4:
    def test_hand_value(self):
        from fractions import Fraction

        n, a, b = 3, 1, 2
        lhs = Fraction(1, 6) + Fraction(1, 3)
        rhs = Fraction(
            math.factorial(n - b - 1) * math.factorial(a), math.factorial(n - b + a)
        )
        assert lhs == rhs == Fraction(1, 2)

    def test_exact_up_to_ten(self):
        for n in range(1, 11):
            report = check_lemma4(n)
            assert report.passed
            assert report.trials == n * (n + 1) // 2

    def test_point_interval_is_single_term(self):
        report = check_lemma4(6)
        assert report.passed  # includes every a == b case

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_lemma4(0)
        for n in (True, 2.0):
            with pytest.raises(ValueError, match="not an integer"):
                check_lemma4(n)
