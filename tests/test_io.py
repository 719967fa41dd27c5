import json
from pathlib import Path

import numpy as np
import pytest

from karycap import GameFormatError, load_game, random_game, save_game
from karycap.game import SizeLimitError


def write(tmp_path, doc, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoad:
    def test_uniform_game(self, tmp_path, m2):
        path = write(tmp_path, {"n": 2, "k": 2, "values": m2.values.tolist()})
        game = load_game(path)
        assert game.n == 2 and game.k == 2
        assert np.array_equal(game.values, m2.values)

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
        assert game.meta["v0_offset"] == 0.25

    def test_length_mismatch(self, tmp_path):
        path = write(tmp_path, {"n": 2, "k": 2, "values": [0.0] * 8})
        with pytest.raises(GameFormatError, match="length mismatch"):
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

    def test_non_finite_rejected(self, tmp_path):
        path = write(tmp_path, {"n": 1, "k": 1, "values": [0.0, float("inf")]})
        with pytest.raises(GameFormatError, match="finite"):
            load_game(path)

    def test_bad_k_values(self, tmp_path):
        for bad in (0, -2, "two", [0, 1]):
            path = write(tmp_path, {"n": 2, "k": bad, "values": [0.0] * 4})
            with pytest.raises(GameFormatError):
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

    def test_size_guard(self, tmp_path):
        path = write(tmp_path, {"n": 30, "k": 3, "values": [0.0]})
        with pytest.raises(SizeLimitError):
            load_game(path)


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
