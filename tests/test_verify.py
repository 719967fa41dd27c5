import math
from itertools import product

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
from karycap.verify import efficiency_rhs, make_invariance_partner, make_null_extension
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

    def test_unknown_axiom_rejected(self):
        with pytest.raises(ValueError):
            verify_axiom("Z", 1, 1, 2, 2)

    @pytest.mark.parametrize("trials", [2.5, True, "3"])
    def test_rejects_non_integer_trials(self, trials):
        with pytest.raises(ValueError, match="not an integer"):
            verify_axiom("E", trials, 1, 2, 2)

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
