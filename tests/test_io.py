import io
import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import karycap.io as game_io
from karycap import GameFormatError, MultichoiceGame, load_game, random_game, save_game
from karycap.game import SizeLimitError


def write(tmp_path, doc, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoad:
    def test_uniform_game(self, tmp_path, m2):
        path = write(tmp_path, {"n": 2, "k": 2, "values": m2.values.tolist()})
        with open(path, encoding="utf-8") as fp:
            sources = [path, fp, io.StringIO(Path(path).read_text())]
            for source in sources:  # a path, or a file object left open for its owner
                game = load_game(source)
                assert game.n == 2 and game.k == 2 and game.meta == {}
                assert np.array_equal(game.values, m2.values)
            assert not fp.closed

    def test_heterogeneous_clamp_extension(self, tmp_path):
        # raw over {0,1} x {0,1,2}: v(x1,x2) = x1 + x2
        raw = [x1 + x2 for x2 in range(3) for x1 in range(2)]
        path = write(tmp_path, {"n": 2, "k": [1, 2], "values": raw})
        game = load_game(path)
        assert game.k == 2
        assert game.meta["k_list"] == (1, 2)
        assert game.value((2, 1)) == game.value((1, 1)) == 2.0

    def test_nonzero_origin_requires_normalize(self, tmp_path):
        path = write(tmp_path, {"n": 1, "k": 1, "values": [0.25, 1.0]})
        with pytest.raises(GameFormatError, match="normalize"):
            load_game(path)
        game = load_game(path, normalize=True)
        assert game.values.tolist() == [0.0, 0.75]
        assert game.meta == {"v0_offset": 0.25}
        # a heterogeneous file keeps its k list beside the offset
        path = write(tmp_path, {"n": 2, "k": [1, 2], "values": [0.5, 1, 1, 2, 2, 3]})
        with pytest.raises(GameFormatError, match="normalize"):
            load_game(path)
        game = load_game(path, normalize=True)
        assert game.values.tolist() == [0.0, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5, 2.5, 2.5]
        assert game.meta == {"k_list": (1, 2), "v0_offset": 0.5}

    def test_each_load_constructs_once(self, tmp_path, monkeypatch):
        # the offset is recorded on the loaded game, not on a second copy of it
        built = []
        post_init = MultichoiceGame.__post_init__
        monkeypatch.setattr(MultichoiceGame, "__post_init__",
                            lambda game: built.append(post_init(game)))
        for doc in ({"n": 1, "k": 1, "values": [0.25, 1.0]},
                    {"n": 2, "k": [1, 2], "values": [0.5, 1, 1, 2, 2, 3]},
                    {"n": 1, "k": 1, "values": [0.0, 1.0]}):
            built.clear()
            first = load_game(write(tmp_path, doc), normalize=True)
            assert len(built) == 1
            second = load_game(write(tmp_path, doc), normalize=True)
            assert first.meta == second.meta and first.meta is not second.meta

    def test_length_mismatch(self, tmp_path):
        path = write(tmp_path, {"n": 2, "k": 2, "values": [0.0] * 8})
        with pytest.raises(GameFormatError, match="length mismatch"):
            load_game(path)

    def test_top_level_must_be_an_object(self, tmp_path):
        path = write(tmp_path, [1, 2])
        with pytest.raises(GameFormatError, match="top-level JSON value must be an object"):
            load_game(path)

    def test_missing_key(self, tmp_path):
        path = write(tmp_path, {"n": 2, "values": []})
        with pytest.raises(GameFormatError, match='"k"'):
            load_game(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(GameFormatError, match="JSON"):
            load_game(str(path))

    @pytest.mark.parametrize("depth", [1_000, 100_000])
    def test_deep_nesting_is_a_format_error(self, tmp_path, depth):
        # nested deeper than the decoder recurses: refused, not a RecursionError
        path = tmp_path / "deep.json"
        path.write_text('{"n": 1, "k": 1, "values": ' + "[" * depth + "]" * depth + "}")
        with pytest.raises(GameFormatError):
            load_game(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, {"n": 1, "k": 1, "values": [0.0, float("inf")]})
        with pytest.raises(GameFormatError, match="finite"):
            load_game(path)

    def test_bad_k_values(self, tmp_path):
        for bad in (0, -2, "two", [0, 1]):
            path = write(tmp_path, {"n": 2, "k": bad, "values": [0.0] * 4})
            with pytest.raises(GameFormatError):
                load_game(path)
        path = write(tmp_path, {"n": 2, "k": [1, 1, 1], "values": [0.0] * 8})
        with pytest.raises(GameFormatError, match='"k" list has 3 entries, expected n = 2'):
            load_game(path)

    @pytest.mark.parametrize(
        "sizes",
        [{"n": True, "k": True}, {"n": True, "k": 1}, {"n": 1, "k": True}, {"n": 1, "k": [True]}],
    )
    def test_boolean_sizes_rejected(self, tmp_path, sizes):
        # JSON true would otherwise pass as the integer 1
        path = write(tmp_path, {**sizes, "values": [0, 1]})
        with pytest.raises(GameFormatError):
            load_game(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1, "k": 1, "values": [0, True]},
            {"n": 1, "k": 1, "values": [0, "1.5"]},
            {"n": 2, "k": [1, 2], "values": [0, 1, 1, 2, True, 3]},
            {"n": 1, "k": 1, "values": [0, 10**400]},
        ],
    )
    def test_non_number_values_rejected(self, tmp_path, doc):
        # numpy would read true as 1.0 and "1.5" as 1.5; 10**400 overflows a float
        with pytest.raises(GameFormatError, match='"values"'):
            load_game(write(tmp_path, doc))

    def test_size_guard(self, tmp_path):
        # both k forms meet the guard before the values are read
        for n, k in [(30, 3), (30, [3] * 30), (30, [1] * 29 + [3]), (10**6, 2)]:
            path = write(tmp_path, {"n": n, "k": k, "values": [0.0]})
            with pytest.raises(SizeLimitError, match="entries, beyond the 28-bit limit"):
                load_game(path)


# JSON scalars that a document may hold where a number belongs, each to be refused
# there or read as a number: most draws are valid, so that many documents load
_ODD = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.integers(), st.floats(),
    st.sampled_from([10**400, -(10**400), 2**63, math.inf, -math.inf, math.nan]),
)


@st.composite
def _documents(draw):
    """A game document as JSON text, near enough to valid that every check is reached."""
    def rarely(bad, good):
        return draw(bad) if draw(st.integers(0, 7)) == 0 else draw(good)

    n = rarely(_ODD, st.integers(1, 3))
    levels = n if type(n) is int and 0 < n < 4 else 2
    k = rarely(st.one_of(_ODD, st.lists(st.integers(-1, 3), max_size=4)),
               st.one_of(st.integers(1, 3), st.lists(st.integers(1, 3), min_size=levels,
                                                      max_size=levels)))
    ks = k if isinstance(k, list) else [k] * levels
    small = all(type(ki) is int and 0 <= ki < 4 for ki in ks)
    size = math.prod(ki + 1 for ki in ks) if small else 4
    length = max(0, size + rarely(st.sampled_from([-1, 1]), st.just(0)))
    values = draw(st.lists(st.one_of(st.integers(-3, 3), st.floats(-4, 4)),
                           min_size=length, max_size=length))
    if values:
        values[draw(st.integers(0, length - 1))] = rarely(_ODD, st.integers(-1, 1))
        values[0] = rarely(st.floats(-4, 4), st.just(0))  # a nonzero origin needs normalize
    doc = {"n": n, "k": k, "values": values}
    if draw(st.integers(0, 7)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return json.dumps(doc)


class TestFileBoundary:
    """Every document loads or is refused as a format or size error, with no warning."""

    @settings(max_examples=150, deadline=None)
    @given(_documents(), st.booleans())
    # Python refuses to read a 5,000-digit integer: once a plain ValueError
    @example('{"n": ' + "9" * 5_000 + ', "k": 1, "values": [0, 1]}', False)
    # a shift that overflows: once a RuntimeWarning, then a plain ValueError
    @example(json.dumps({"n": 1, "k": 1, "values": [-1e308, 1e308]}), True)
    # inf - inf is an invalid operation, and must not warn before it is refused
    @example(json.dumps({"n": 1, "k": 1, "values": [math.inf, 1.0]}), True)
    @example(json.dumps({"n": 2, "k": [1, 2], "values": [0.5, 1, 1, 2, 2, 3]}), True)
    def test_load_returns_a_game_or_refuses(self, text, normalize):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                game = load_game(io.StringIO(text), normalize=normalize)
            except (GameFormatError, SizeLimitError):
                return
            buf = io.StringIO()
            save_game(game, buf)
            again = load_game(io.StringIO(buf.getvalue()))
        assert (again.n, again.k) == (game.n, game.k)
        assert again.values.tobytes() == game.values.tobytes()


class TestSaveRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        game = random_game(99, 3, 2, "general")
        path = str(tmp_path / "out.json")
        save_game(game, path)
        again = load_game(path)
        assert np.array_equal(again.values, game.values)
        # a second write is byte-identical
        path2 = str(tmp_path / "out2.json")
        save_game(again, path2)
        assert Path(path).read_text() == Path(path2).read_text()

    def test_min_game_round_trip(self, tmp_path, m2):
        path = str(tmp_path / "m2.json")
        save_game(m2, path)
        assert np.array_equal(load_game(path).values, m2.values)


class TestSaveBytes:
    """The writer emits json.dumps of the document plus a newline, in bounded memory."""

    @staticmethod
    def reference(game):
        return json.dumps({"n": game.n, "k": game.k, "values": game.values.tolist()}) + "\n"

    @staticmethod
    def saved(game):
        buf = io.StringIO()
        save_game(game, buf)
        assert not buf.closed  # a file object stays open for its owner
        return buf.getvalue()

    @pytest.mark.parametrize("n, k", [(5, 4), (6, 3), (12, 1), (13, 1), (8, 2)])
    def test_bytes_equal_json_dumps_of_the_document(self, n, k):
        # 3125, 4096, 4096, 8192 and 6561 values: part of a chunk, one, two, and a tail
        game = random_game(n + 10 * k, n, k, "general")
        assert self.saved(game) == self.reference(game)

    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_tables_around_the_chunk_size(self, monkeypatch, shift):
        # one value short of a chunk, exactly a chunk, and one value over
        game = random_game(7, 2, 2, "general")
        monkeypatch.setattr(game_io, "_CHUNK", game.values.size - shift)
        assert self.saved(game) == self.reference(game)

    def test_extreme_floats_round_trip_bitwise(self, tmp_path):
        values = random_game(8, 3, 3, "general").values.copy()
        values[:6] = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-7, -1e-7]
        with pytest.raises(ValueError, match="^table values must be finite and within ±"):
            MultichoiceGame(3, 3, values)  # past the bound of a (3, 3) table
        values[2] = sys.float_info.max / (2 * 4) ** 3  # the largest value that it holds
        game = MultichoiceGame(3, 3, values)
        text = self.saved(game)
        assert text == self.reference(game)
        path = tmp_path / "extreme.json"
        path.write_text(text)
        assert load_game(str(path)).values.tobytes() == values.tobytes()

    def test_memory_does_not_grow_with_the_table(self):
        game = random_game(9, 9, 3, "general")  # 262,144 values; tolist() alone holds 8 MiB

        class Sink:
            def write(self, text):
                pass

        tracemalloc.start()
        try:
            save_game(game, Sink())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
