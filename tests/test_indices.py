import json
import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from karycap import (
    MultichoiceGame,
    SizeLimitError,
    classical_interaction,
    classical_shapley,
    extend_heterogeneous,
    importance,
    integral_check,
    interaction,
    interaction_all_upto,
    interaction_cellsum,
    interaction_recursive,
    interaction_via_derivatives,
    lattice_point_interaction,
    min_game,
    random_game,
    save_game,
)
from karycap import indices
from karycap.cli import main
from karycap import game
from karycap.game import add_games, query_cost
from karycap.indices import (
    METHODS,
    _classes,
    _combine_classes,
    _index_array,
    _layout,
    _mask,
    interaction_by_method,
    shapley_coefficient,
)
from karycap.verify import make_null_extension
from conftest import (
    assert_close,
    brute_shapley,
    delta_recursive,
    dividend_interaction,
    unanimity,
)


class TestShapleyCoefficient:
    def test_hand_values(self):
        assert shapley_coefficient(2, 2, 0, 0) == Fraction(1)
        assert shapley_coefficient(2, 1, 0, 0) == Fraction(1, 2)
        assert shapley_coefficient(3, 1, 1, 1) == Fraction(1, 6)

    def test_rejects_invalid_ranges(self):
        with pytest.raises(ValueError):
            shapley_coefficient(2, 0, 0, 0)
        with pytest.raises(ValueError):
            shapley_coefficient(3, 1, 3, 0)  # s > n - t
        with pytest.raises(ValueError):
            shapley_coefficient(3, 1, 1, 2)  # kap > s

    def test_interval_sum_identity(self):
        # the class coefficient is the interval total of classical weights
        # on m = n - t + 1 players: sum over S with kernel <= S <= support
        for n in range(1, 9):
            for t in range(1, n + 1):
                m = n - t + 1
                for s in range(n - t + 1):
                    for kap in range(s + 1):
                        total = sum(
                            math.comb(s - kap, j - kap)
                            * Fraction(
                                math.factorial(m - j - 1) * math.factorial(j),
                                math.factorial(m),
                            )
                            for j in range(kap, s + 1)
                        )
                        assert total == shapley_coefficient(n, t, s, kap)


class TestImportance:
    def test_min_game_hand_values(self, m2):
        assert_close(importance(m2, 1), 2.0, 1e-12)
        assert_close(importance(m2, 2), 2.0, 1e-12)

    def test_additive_game(self):
        v = MultichoiceGame.from_function(2, 2, lambda x: float(x[0] + x[1]))
        assert_close(importance(v, 1), 4.0, 1e-12)
        assert_close(importance(v, 2), 4.0, 1e-12)

    def test_null_attribute_gets_zero(self):
        v = random_game(21, 3, 2, "general")
        ext = make_null_extension(v, 2)
        assert importance(ext, 2) == 0.0

    def test_classic_two_player(self, classic2):
        assert_close(importance(classic2, 1), 4.0, 1e-12)
        assert_close(importance(classic2, 2), 2.0, 1e-12)

    def test_matches_ordering_oracle_at_two_levels(self):
        for seed in range(10):
            for n in (2, 3, 4, 5):
                v = random_game(seed + 100, n, 1, "general")
                for i in range(1, n + 1):
                    assert_close(importance(v, i), brute_shapley(v, i), 1e-12)


class TestInteraction:
    def test_min_game_pair(self, m2):
        assert_close(interaction(m2, (1, 2)), 2.0, 1e-12)

    def test_additive_vanishes(self):
        v = random_game(3, 4, 2, "additive")
        for t in range(2, 5):
            for T in combinations(range(1, 5), t):
                assert_close(interaction(v, T), 0.0, 1e-12)

    def test_classic_two_player_pair(self, classic2):
        assert_close(interaction(classic2, (1, 2)), 2.0, 1e-12)

    def test_rejects_empty(self, m2, classic2):
        for method in METHODS:
            with pytest.raises(ValueError, match="nonempty"):
                interaction_by_method(m2, (), method)
        with pytest.raises(ValueError, match="nonempty"):
            classical_interaction(classic2, ())

    @pytest.mark.parametrize("member", [1.7, True], ids=["float", "bool"])
    def test_rejects_non_integer_member(self, m2, member):
        # int() would otherwise read either one as attribute 1
        with pytest.raises(ValueError, match="not an integer"):
            interaction(m2, (member,))

    def test_rejects_duplicate_member(self, m2):
        with pytest.raises(ValueError, match=r"coalition \(1, 1\) has duplicate members"):
            interaction(m2, (1, 1))

    def test_accepts_numpy_integer_member(self, m2):
        assert interaction(m2, (np.int64(1),)) == interaction(m2, (1,))

    def test_singleton_is_importance_bitwise(self):
        for seed in range(20):
            for n, k in [(2, 1), (2, 2), (3, 2), (3, 3)]:
                v = random_game(seed, n, k, "general")
                for i in range(1, n + 1):
                    assert interaction(v, (i,)) == importance(v, i)

    def test_query_size_guard(self):
        v = random_game(1, 6, 3, "general")
        with pytest.raises(SizeLimitError):
            interaction(v, (1,), limit_bits=8)
        interaction(v, (1,), limit_bits=12)  # raised limit admits the query


class TestDerivativeSumForm:
    def test_min_game_cells(self, m2):
        assert_close(interaction_via_derivatives(m2, (1, 2)), 2.0, 1e-12)

    def test_singleton_telescopes_to_importance(self):
        for seed in range(10):
            v = random_game(seed + 40, 3, 3, "general")
            for i in (1, 2, 3):
                assert_close(interaction_via_derivatives(v, (i,)), importance(v, i))

    def test_additive_cells_vanish(self):
        v = random_game(9, 3, 2, "additive")
        assert_close(interaction_via_derivatives(v, (1, 3)), 0.0, 1e-12)

    def test_agrees_with_closed_form(self):
        for seed in range(20):
            for n, k in [(3, 2), (4, 2), (4, 3), (5, 3)]:
                v = random_game(seed + 60, n, k, "general")
                for t in range(1, min(n, 3) + 1):
                    for T in combinations(range(1, n + 1), t):
                        assert_close(
                            interaction_via_derivatives(v, T), interaction(v, T)
                        )


class TestRecursiveForm:
    def test_min_game_pair(self, m2):
        assert_close(interaction_recursive(m2, (1, 2)), 2.0, 1e-12)

    def test_singleton_base_case(self, m2):
        assert interaction_recursive(m2, (1,)) == importance(m2, 1)

    def test_unanimity_pair(self):
        v = unanimity(3, (1, 2))
        assert_close(interaction_recursive(v, (1, 2)), 1.0, 1e-12)

    def test_agrees_with_closed_form(self):
        for seed in range(20):
            for n, k in [(3, 2), (4, 3), (5, 2)]:
                v = random_game(seed + 80, n, k, "general")
                for t in range(1, min(n, 3) + 1):
                    for T in combinations(range(1, n + 1), t):
                        assert_close(interaction_recursive(v, T), interaction(v, T))

    def test_honours_limit(self):
        v = random_game(5, 4, 3, "general")
        with pytest.raises(SizeLimitError):
            interaction(v, (1, 2), limit_bits=4)
        with pytest.raises(SizeLimitError):
            interaction_recursive(v, (1, 2), 4)
        with pytest.raises(SizeLimitError):
            interaction_all_upto(v, 2, "recursive", 4)
        interaction_recursive(v, (1, 2), 12)  # raised limit admits the query


class TestClassicalIndices:
    def test_shapley_hand_values(self, classic2):
        assert_close(classical_shapley(classic2, 1), 4.0, 1e-12)
        assert_close(classical_shapley(classic2, 2), 2.0, 1e-12)

    def test_shapley_unanimity(self):
        v = unanimity(3, (1, 2))
        assert_close(classical_shapley(v, 1), 0.5, 1e-12)
        assert_close(classical_shapley(v, 2), 0.5, 1e-12)
        assert_close(classical_shapley(v, 3), 0.0, 1e-12)

    def test_shapley_null_player(self):
        v = MultichoiceGame.from_function(3, 1, lambda x: float(x[0] * 2 + x[2]))
        assert_close(classical_shapley(v, 2), 0.0, 1e-12)

    def test_shapley_matches_ordering_oracle(self):
        for seed in range(10):
            v = random_game(seed + 200, 5, 1, "general")
            for i in range(1, 6):
                assert_close(classical_shapley(v, i), brute_shapley(v, i), 1e-12)

    def test_interaction_hand_values(self, classic2):
        assert_close(classical_interaction(classic2, (1, 2)), 2.0, 1e-12)
        v = unanimity(3, (1, 2))
        assert_close(classical_interaction(v, (1, 2)), 1.0, 1e-12)

    def test_interaction_additive_vanishes(self):
        v = random_game(31, 4, 1, "additive")
        for T in combinations(range(1, 5), 2):
            assert_close(classical_interaction(v, T), 0.0, 1e-12)

    def test_interaction_matches_dividend_oracle(self):
        for seed in range(10):
            for n in (2, 3, 4, 5):
                v = random_game(seed + 300, n, 1, "general")
                for t in range(1, n + 1):
                    for S in combinations(range(1, n + 1), t):
                        assert_close(
                            classical_interaction(v, S),
                            dividend_interaction(v, S),
                            1e-10,
                        )

    def test_classical_indices_count_the_whole_table(self, monkeypatch):
        # the subset sums read 2^n entries: refused at n - 1 bits, run at n
        v = random_game(0, 8, 1)
        for call in (classical_shapley, lambda v, i, bits: classical_interaction(v, (i, 2), bits)):
            with pytest.raises(SizeLimitError, match="needs 256 table lookups.*7-bit"):
                call(v, 1, 7)
            call(v, 1, 8)
        monkeypatch.setattr(game, "DEFAULT_QUERY_BITS", 7)
        with pytest.raises(SizeLimitError, match="7-bit"):
            classical_shapley(v, 1)

    def test_cellsum_passes_its_limit_to_the_classical_index(self, monkeypatch):
        # the summed capacity of an n = 5, k = 1 game needs 32 lookups, over
        # a 4-bit default but within the caller's 12 bits, in both cellsum routes
        v = random_game(3, 5, 1, "general")
        want = interaction_cellsum(v, (1, 2))
        monkeypatch.setattr(game, "DEFAULT_QUERY_BITS", 4)
        with pytest.raises(SizeLimitError, match="4-bit"):
            interaction_cellsum(v, (1, 2))
        assert interaction_cellsum(v, (1, 2), 12) == want
        assert interaction_all_upto(v, 2, "cellsum", 12)[(1, 2)] == want

    def test_rejects_multilevel_games(self, m2):
        with pytest.raises(ValueError):
            classical_shapley(m2, 1)
        with pytest.raises(ValueError):
            classical_interaction(m2, (1,))


class TestLatticePointInteraction:
    def test_full_profile_two_players(self, classic2):
        assert_close(lattice_point_interaction(classic2, (1, 1)), 2.0, 1e-12)

    def test_single_attribute_profile(self, classic2):
        assert_close(lattice_point_interaction(classic2, (1, 0)), 4.0, 1e-12)

    def test_indicator_profiles_match_classical(self):
        for seed in range(8):
            for n in (2, 3, 4, 5):
                v = random_game(seed + 400, n, 1, "general")
                for t in range(1, n + 1):
                    for S in combinations(range(1, n + 1), t):
                        x = tuple(1 if i in S else 0 for i in range(1, n + 1))
                        assert_close(
                            lattice_point_interaction(v, x),
                            classical_interaction(v, S),
                            1e-12,
                        )

    def test_matches_weighted_cell_derivatives(self):
        # the definition: attributes outside J at {0, k}, h of them at the top,
        # each such cell derivative over J weighted (n-j-h)! h! / (n-j+1)!
        for seed, (n, k) in enumerate([(2, 2), (3, 2), (3, 3), (4, 2)]):
            v = random_game(seed + 450, n, k, "general")
            for x in product(range(k + 1), repeat=n):
                J = tuple(i for i in range(1, n + 1) if x[i - 1])
                if not J:
                    continue
                outside = [i for i in range(1, n + 1) if i not in J]
                want = 0.0
                for h in range(len(outside) + 1):
                    weight = Fraction(
                        math.factorial(n - len(J) - h) * math.factorial(h),
                        math.factorial(n - len(J) + 1),
                    )
                    for H in combinations(outside, h):
                        base = [
                            x[i - 1] - 1 if i in J else k if i in H else 0
                            for i in range(1, n + 1)
                        ]
                        want += float(weight) * delta_recursive(v, J, base)
                assert_close(lattice_point_interaction(v, x), want, 1e-12)

    def test_null_support_attribute_gives_zero(self):
        v = random_game(51, 3, 2, "general")
        ext = make_null_extension(v, 1)
        assert lattice_point_interaction(ext, (2, 0, 1, 0)) == 0.0

    def test_rejects_zero_profile(self, m2):
        with pytest.raises(ValueError):
            lattice_point_interaction(m2, (0, 0))

    @pytest.mark.parametrize(
        "x, message",
        [
            ((2, -1), "outside"),
            ((3, 0), "outside"),
            ((1.5, 0), "not an integer"),
            ((True, 1), "not an integer"),
            ((1,), "components"),
        ],
    )
    def test_rejects_bad_profile(self, m2, x, message):
        with pytest.raises(ValueError, match=message):
            lattice_point_interaction(m2, x)


def fuzz_game(n, k, kind, scale, seed, data):
    if kind == "heterogeneous":
        k_list = data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n))
        size = math.prod(ki + 1 for ki in k_list)
        raw = np.random.default_rng(seed).uniform(-1.0, 1.0, size)
        raw[0] = 0.0
        return extend_heterogeneous(raw * scale, k_list, k)
    return MultichoiceGame(n, k, random_game(seed, n, k, kind).values * scale)


GAME_SPACE = (
    st.sampled_from(["general", "monotone", "additive", "heterogeneous"]),
    st.sampled_from([1e-6, 1.0, 1e6]),
    st.integers(0, 2**31),
    st.data(),
)


def exact_interaction(v: MultichoiceGame, T: tuple[int, ...]) -> Fraction:
    """I(T) of the float table in rationals: exact corner sums and coefficients."""
    n, k, t = v.n, v.k, len(T)
    outside = [i for i in range(1, n + 1) if i not in T]
    total = Fraction(0)
    for y in product(range(k + 1), repeat=n - t):
        corner_sum = Fraction(0)
        for top in product((0, 1), repeat=t):
            x = [0] * n
            for i, level in zip(outside + list(T), y + tuple(k * b for b in top)):
                x[i - 1] = level
            corner_sum += (-1) ** (t - sum(top)) * Fraction(v.value(x))
        s, kap = sum(level > 0 for level in y), sum(level == k for level in y)
        total += shapley_coefficient(n, t, s, kap) * corner_sum
    return total


class TestRoutesAgree:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), *GAME_SPACE)
    def test_every_float_route_is_within_an_a_priori_bound_of_exact(
        self, n, k, kind, scale, seed, data
    ):
        # Each route sums table values times weights of magnitude at most 1.
        # Along any one path from a value to the result it rounds at most
        # D = (k+1)^n + 2n + 4 times: one plain sum of at most (k+1)^n terms
        # (a class total, a cell total or the per-axis level sums of the
        # pass), at most 2n differences or sweep and row additions, and at
        # most four more: a coefficient or a division, a product and up to
        # two fsums.  The same sum with every
        # value and weight replaced by its magnitude is at most
        # 2^(n+1) * sum|v|: a value enters at most 2^n corner sums, cells or
        # coalitions, and the cell route counts each cell base once more.  So
        # |route - exact| <= gamma_D * 2^(n+1) * sum|v|, with
        # gamma_D = D u / (1 - D u) <= 1.01 D u and u = 2^-53.
        v = fuzz_game(n, k, kind, scale, seed, data)
        depth = (k + 1) ** n + 2 * n + 4
        bound = 1.01 * depth * 2.0**-53 * 2 ** (n + 1) * math.fsum(np.abs(v.values))
        every = _index_array(v)
        for t in range(1, n + 1):
            for T in combinations(range(1, n + 1), t):
                want = exact_interaction(v, T)
                routes = {
                    "interaction": interaction(v, T),
                    "index_array": float(every[_mask(T)]),
                    "derivative_sum": interaction_via_derivatives(v, T),
                    "recursive": interaction_recursive(v, T),
                    "cellsum": interaction_cellsum(v, T),
                }
                for route, got in routes.items():
                    assert abs(Fraction(got) - want) <= bound, (route, T, float(want), got)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 3), *GAME_SPACE)
    def test_every_route_matches_the_closed_form(self, n, k, kind, scale, seed, data):
        v = fuzz_game(n, k, kind, scale, seed, data)
        bound = 1e-9 * max(1.0, float(np.abs(v.values).max()))
        for t in range(1, n + 1):
            for T in combinations(range(1, n + 1), t):
                want = interaction(v, T)
                assert_close(interaction_via_derivatives(v, T), want, bound)
                assert_close(interaction_recursive(v, T), want, bound)
                assert_close(interaction_cellsum(v, T), want, bound)
        # with T = N nothing is sampled, so the integral route is exact
        N = tuple(range(1, n + 1))
        assert_close(integral_check(v, N, 1, seed).estimate, interaction(v, N), bound)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 3), *GAME_SPACE)
    def test_index_array_matches_the_closed_form(self, n, k, kind, scale, seed, data):
        v = fuzz_game(n, k, kind, scale, seed, data)
        bound = 1e-9 * max(1.0, float(np.abs(v.values).max()))
        every = _index_array(v)
        assert every.shape == (2**n,)
        for t in range(1, n + 1):
            for T in combinations(range(1, n + 1), t):
                assert_close(float(every[_mask(T)]), interaction(v, T), bound)

    def test_reference_is_no_less_accurate_than_the_pass(self):
        # 5**6 terms: summed class by class in plain order, they put the
        # reference 3.3e-4 off the exact index, where the pass is 1.6e-7 off
        v = random_game(287, 7, 4, "additive")
        v = MultichoiceGame(v.n, v.k, v.values * 1e6)
        want = exact_interaction(v, (5,))
        served = float(_index_array(v)[_mask((5,))])
        assert abs(Fraction(interaction(v, (5,))) - want) <= abs(Fraction(served) - want)


class TestIndexArray:
    def test_min_games_match_the_closed_form_bitwise(self):
        for n in range(1, 6):
            for k in range(1, 4):
                v = min_game(n, k)
                every = _index_array(v)
                for t in range(1, n + 1):
                    for T in combinations(range(1, n + 1), t):
                        assert float(every[_mask(T)]) == interaction(v, T), (n, k, T)

    def test_guard_counts_the_whole_table(self):
        v = random_game(5, 4, 3, "general")  # 4**4 = 2**8 entries
        with pytest.raises(SizeLimitError, match="256 table lookups.*beyond the 7-bit limit"):
            _index_array(v, 7)
        assert _index_array(v, 8).shape == (2**4,)
        # at k = 1 the n degree rows of 2**n outweigh the table: 5 * 2**5 = 160
        v = random_game(5, 5, 1, "general")
        with pytest.raises(SizeLimitError, match="160 table lookups.*beyond the 7-bit limit"):
            _index_array(v, 7)
        assert _index_array(v, 8).shape == (2**5,)

    @pytest.mark.parametrize("method", ["closed_form", "derivative_sum"])
    def test_only_small_layouts_are_cached(self, method):
        # every route serves the layout order; only the pass reads the layout,
        # and n = 13 is built per call
        _layout.cache_clear()
        for n, m in [(5, 3), (5, 3), (13, 1)]:
            v = random_game(n, n, 1, "general")
            served = interaction_all_upto(v, m, method)
            coalitions = [T for t in range(1, m + 1) for T in combinations(range(1, n + 1), t)]
            assert list(served) == coalitions
            if method == "closed_form":
                every = _index_array(v)
                assert list(served.values()) == [float(every[_mask(T)]) for T in coalitions]
        if method == "closed_form":
            assert _layout.cache_info()[:2] == (1, 1)  # (hits, misses): (5, 3) only
            assert _layout.cache_info().currsize == 1
            for _, masks in (_layout(5, 3), _layout.__wrapped__(13, 1)):
                assert not masks.flags.writeable


class TestClassIds:
    def test_only_small_shapes_are_cached(self):
        _classes.cache_clear()
        _combine_classes(np.ones((4, 1, 4)))
        assert _classes.cache_info().currsize == 1
        weights = _classes((4, 4), 3)  # length-1 axes leave the key alone
        assert _classes.cache_info().hits == 1
        _combine_classes(np.ones((4,) * 8 + (1,)))  # 2**16 weights: built for the caller only
        assert _classes.cache_info().currsize == 1
        big = _classes.__wrapped__((4,) * 8, 9)
        assert weights.shape == (4**2,) and big.shape == (4**8,)
        for array in (weights, big):
            assert not array.flags.writeable

    @pytest.mark.parametrize("shape, n", [((4, 4), 3), ((2, 2, 2), 5), ((), 2), ((4,) * 8, 9)])
    def test_coefficient_row_rounds_each_class_once(self, shape, n):
        # each entry, in F order, weighs the coefficient of its (s, kap) class
        weights = _classes.__wrapped__(shape, n)
        levels = np.indices(shape).reshape(len(shape), math.prod(shape), order="F")
        top = max(shape, default=1) - 1
        classes = list(zip((levels > 0).sum(axis=0).tolist(),
                           (levels == top).sum(axis=0).tolist()))
        coefficient = {c: float(shapley_coefficient(n, n - len(shape), *c)) for c in set(classes)}
        assert weights.tolist() == [coefficient[c] for c in classes]

    def test_cached_shape_converts_no_fraction(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return shapley_coefficient(*args)

        monkeypatch.setattr("karycap.indices.shapley_coefficient", counted)
        _classes.cache_clear()
        v = random_game(41, 4, 3, "general")
        interaction(v, (1, 3))
        assert calls
        calls.clear()
        for T in [(1, 3), (2, 4), (1, 2)]:
            interaction(v, T)
            interaction_via_derivatives(v, T)
        assert calls == []


class TestLinearity:
    def test_index_is_linear(self):
        for seed in range(5):
            v = random_game(seed + 500, 3, 2, "general")
            w = random_game(seed + 600, 3, 2, "general")
            alpha = 0.75 - seed
            combo = add_games(v, w, alpha)
            for t in range(1, 4):
                for T in combinations(range(1, 4), t):
                    assert_close(
                        interaction(combo, T),
                        interaction(v, T) + alpha * interaction(w, T),
                    )


class TestReport:
    def test_min_game_report(self, m2):
        report = interaction_all_upto(m2, 2)
        assert type(report) is dict and list(report) == [(1,), (2,), (1, 2)]
        assert_close(report[(1,)], 2.0, 1e-12)
        assert_close(report[(2,)], 2.0, 1e-12)
        assert_close(report[(1, 2)], 2.0, 1e-12)

    def test_singletons_populate_importance(self, tmp_path, capsys):
        # the importance verb prints these rows; importance() agrees to rounding
        v = random_game(61, 3, 2, "general")
        path = str(tmp_path / "v.json")
        save_game(v, path)
        assert main(["importance", path]) == 0
        row = json.loads(capsys.readouterr().out)["importance"]
        report = interaction_all_upto(v, 3)
        bound = 1e-12 * max(1.0, float(np.abs(v.values).max()))
        for i in (1, 2, 3):
            assert report[(i,)] == row[i - 1]
            assert_close(report[(i,)], importance(v, i), bound)

    def test_methods_agree(self):
        v = random_game(71, 3, 2, "general")
        base = interaction_all_upto(v, 3, "closed_form")
        for method in ("derivative_sum", "recursive", "cellsum"):
            other = interaction_all_upto(v, 3, method)
            for T, val in base.items():
                assert_close(other[T], val)

    def test_additive_higher_orders_vanish(self):
        v = random_game(81, 3, 2, "additive")
        report = interaction_all_upto(v, 3)
        for T, val in report.items():
            if len(T) >= 2:
                assert_close(val, 0.0, 1e-12)

    def test_dispatcher_matches_each_route(self):
        v = random_game(72, 3, 2, "general")
        routes = [
            interaction,
            interaction_via_derivatives,
            interaction_recursive,
            interaction_cellsum,
        ]
        assert len(routes) == len(METHODS)
        for method, route in zip(METHODS, routes):
            assert interaction_by_method(v, (1, 3), method) == route(v, (1, 3))
        with pytest.raises(ValueError, match="method must be one of"):
            interaction_by_method(v, (1, 3), "fancy")

    @pytest.mark.parametrize("method", METHODS)
    def test_dispatcher_passes_limit_to_every_method(self, method):
        v = random_game(5, 4, 3, "general")
        with pytest.raises(SizeLimitError):
            interaction_by_method(v, (1, 2), method, 4)

    def test_refusals_come_before_the_coalition_layout(self, monkeypatch):
        # no route lists coalitions it will not index, which costs time and
        # memory at large n: every route guards before the listing, and an
        # unknown method stops at the first coalition
        listed = indices._coalitions
        drawn = []

        def counted(n, m):
            for T in listed(n, m):
                drawn.append(T)
                yield T

        monkeypatch.setattr(indices, "_coalitions", counted)
        v = random_game(5, 4, 3, "general")
        for method in METHODS:
            drawn.clear()
            with pytest.raises(SizeLimitError):
                interaction_all_upto(v, 4, method, 4)
            assert drawn == [], method
        drawn.clear()
        with pytest.raises(ValueError, match="method must be one of"):
            interaction_all_upto(v, 4, "fancy")
        assert len(drawn) <= 1
        for method in METHODS:
            drawn.clear()
            _layout.cache_clear()
            assert list(interaction_all_upto(v, 4, method)) == drawn == list(listed(4, 4))

    @pytest.mark.parametrize("method, count", [("derivative_sum", 4992), ("recursive", 1088)])
    def test_per_coalition_reports_are_counted_whole(self, method, count):
        # sum over t of C(n, t) queries of (k+1)^(n-t) (2k)^t lookups, or
        # (k+1)^(n-t) 2 (2^t - 1) for the 2^t - 1 reduced games of recursive
        v = random_game(6, 4, 3, "general")
        bits = count.bit_length()
        with pytest.raises(SizeLimitError, match=f"needs {count} table lookups.*{bits - 1}-bit"):
            interaction_all_upto(v, 2, method, bits - 1)
        assert len(interaction_all_upto(v, 2, method, bits)) == 10

    def test_wide_refusals_list_and_build_nothing(self, monkeypatch):
        # the whole report, and a recursive query's reduced games, are
        # counted before any coalition is listed or any game is reduced
        def built(*args):
            raise AssertionError("listed or built before the guard")

        monkeypatch.setattr(indices, "_coalitions", built)
        monkeypatch.setattr(indices, "reduce_group", built)
        for v, method, count in [(random_game(0, 10, 1), "recursive", 1979054),
                                 (random_game(0, 12, 1), "derivative_sum", 16773120)]:
            with pytest.raises(SizeLimitError, match=f"needs {count} table lookups.*20-bit"):
                interaction_all_upto(v, v.n, method, 20)
        with pytest.raises(SizeLimitError, match="needs 32766 table lookups.*14-bit"):
            interaction_recursive(random_game(0, 14, 1), range(1, 15), limit_bits=14)

    def test_cellsum_report_counts_every_coalition(self, monkeypatch):
        # C * 2^n + max((k+1)^n, n 2^n) lookups: one classical index per
        # coalition and the summed capacity, counted before it is summed
        def summed(v, limit_bits):
            raise AssertionError("summed before the guard")

        monkeypatch.setattr(indices, "_summed_capacity", summed)
        v = random_game(0, 11, 1)
        with pytest.raises(SizeLimitError, match="needs 4214784 table lookups.*12-bit limit"):
            interaction_all_upto(v, 11, "cellsum", 12)

    def test_cellsum_report_matches_single_queries_bitwise(self):
        for seed, (n, k) in enumerate([(1, 2), (2, 1), (3, 2), (4, 3)]):
            v = random_game(seed + 73, n, k, "general")
            report = interaction_all_upto(v, n, "cellsum")
            assert report == {T: interaction_cellsum(v, T) for T in report}

    def test_bad_arguments(self, m2):
        with pytest.raises(ValueError):
            interaction_all_upto(m2, 0)
        with pytest.raises(ValueError):
            interaction_all_upto(m2, 3)
        for method in ("fancy", ["closed_form"], {"m": 1}):  # unhashable ones too
            with pytest.raises(ValueError, match="method must be one of"):
                interaction_all_upto(m2, 2, method)
        with pytest.raises(ValueError, match="method must be one of"):
            interaction_by_method(m2, (1,), ["closed_form"])
        for m in (True, 1.0):  # neither may stand for order 1
            with pytest.raises(ValueError, match="not an integer"):
                interaction_all_upto(m2, m)


class TestCostModel:
    """Every size guard reads its count from :func:`karycap.game.query_cost`."""

    @pytest.mark.parametrize(
        "n, k, t, m",
        [(1, 1, 1, 1), (2, 1, 1, 2), (3, 2, 2, 2), (4, 3, 2, 3), (5, 1, 3, 2), (3, 3, 3, 3)],
    )
    def test_every_guard_reads_the_model(self, n, k, t, m):
        v, w = random_game(n + k, n, k, "general"), random_game(n, n, 1, "general")
        T = tuple(range(1, t + 1))
        rows = 3 if t < n else 1  # nothing is sampled when T covers every attribute
        served = sum(math.comb(n, s) for s in range(1, m + 1))
        report = lambda each: sum(math.comb(n, s) * each(s) for s in range(1, m + 1))
        lookups, evaluations = "table lookups", "Choquet evaluations"
        # (call at a limit, the model's count, the count written out, its unit)
        routes = [
            (lambda b: importance(v, 1, b), query_cost("closed_form", n, k, 1),
             (k + 1) ** (n - 1) * 2, lookups),
            (lambda b: interaction(v, T, b), query_cost("closed_form", n, k, t),
             (k + 1) ** (n - t) * 2**t, lookups),
            (lambda b: interaction_via_derivatives(v, T, b), query_cost("derivative_sum", n, k, t),
             (k + 1) ** (n - t) * (2 * k) ** t, lookups),
            (lambda b: interaction_recursive(v, T, b), query_cost("recursive", n, k, t),
             (k + 1) ** (n - t) * 2 * (2**t - 1), lookups),
            (lambda b: interaction_cellsum(v, T, b), query_cost("cellsum", n, k, t),
             2**n + max((k + 1) ** n, n * 2**n), lookups),
            (lambda b: classical_interaction(w, T, b), query_cost("closed_form", n, 1, t),
             2**n, lookups),
            (lambda b: _index_array(v, b), query_cost("pass", n, k),
             max((k + 1) ** n, n * 2**n), lookups),
            (lambda b: integral_check(v, T, rows, 5, b), query_cost("integral", n, k, t) * rows,
             k**n * 2**t * rows, evaluations),
            (lambda b: interaction_all_upto(v, m, "derivative_sum", b),
             query_cost("derivative_sum", n, k, m=m),
             report(lambda s: (k + 1) ** (n - s) * (2 * k) ** s), lookups),
            (lambda b: interaction_all_upto(v, m, "recursive", b),
             query_cost("recursive", n, k, m=m),
             report(lambda s: (k + 1) ** (n - s) * 2 * (2**s - 1)), lookups),
            (lambda b: interaction_all_upto(v, m, "cellsum", b), query_cost("cellsum", n, k, m=m),
             served * 2**n + max((k + 1) ** n, n * 2**n), lookups),
        ]
        for call, count, written, unit in routes:
            assert count == written
            bits = (count - 1).bit_length()  # the least limit that admits count
            refusal = f"needs {count} {unit}, beyond the {bits - 1}-bit limit"
            with pytest.raises(SizeLimitError, match=refusal):
                call(bits - 1)
            call(bits)

    def test_the_pass_is_counted_once_not_per_coalition(self):
        # the pass reads 4^8 = 65,536 lookups, where the closed-form queries
        # of all 255 coalitions would read 6^8 - 4^8 = 1,614,080
        assert query_cost("pass", 8, 3) == 2**16
        assert query_cost("closed_form", 8, 3, m=8) == 1_614_080
        assert len(interaction_all_upto(random_game(0, 8, 3), 8, "closed_form", 16)) == 255

    def test_a_single_cellsum_query_is_counted_whole(self):
        # the classical index and the summed capacity, 2^n + max((k+1)^n, n 2^n)
        # lookups, as the order-1 report over the same coalition counts them
        v = random_game(1, 1, 1)
        for call in (lambda: interaction_cellsum(v, (1,), 1),
                     lambda: interaction_all_upto(v, 1, "cellsum", 1)):
            with pytest.raises(SizeLimitError, match="needs 4 table lookups.*1-bit"):
                call()
        with pytest.raises(SizeLimitError, match="needs 20 table lookups.*4-bit"):
            interaction_cellsum(random_game(1, 2, 3), (1,), 4)
