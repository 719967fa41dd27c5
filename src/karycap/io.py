"""Reading and writing the canonical game file format.

A game file is a JSON document ``{"n": int, "k": int | [int, ...],
"values": [float, ...]}`` with values in canonical little-endian order.
When ``k`` is a list, the table covers the product of {0..k_i} in the
analogous mixed-radix order and is clamp-extended to the common
k = max(k_i) on load.
"""

from __future__ import annotations

import json
from typing import IO

from .game import MultichoiceGame, check_table_size, extend_heterogeneous

import numpy as np


class GameFormatError(ValueError):
    """The file is not a valid canonical game document."""


def load_game(
    path_or_fp: str | IO[str],
    normalize: bool = False,
    limit_bits: int | None = None,
) -> MultichoiceGame:
    """Load a game file, optionally shifting all values so v(0) = 0.

    Heterogeneous level counts are clamp-extended to their maximum; the
    original list is kept in ``meta['k_list']``.
    """
    if isinstance(path_or_fp, str):
        with open(path_or_fp, "r", encoding="utf-8") as fp:
            doc = _parse(fp)
    else:
        doc = _parse(path_or_fp)

    n, k_field, values = doc["n"], doc["k"], doc["values"]
    if not _is_int(n) or n < 1:
        raise GameFormatError(f'"n" must be a positive integer, got {n!r}')

    if isinstance(k_field, list):
        if len(k_field) != n:
            raise GameFormatError(
                f'"k" list has {len(k_field)} entries, expected n = {n}'
            )
        if not all(_is_int(ki) and ki >= 1 for ki in k_field):
            raise GameFormatError(f'"k" list entries must be integers >= 1: {k_field}')
        expected = 1
        for ki in k_field:
            expected *= ki + 1
        values, offset = _values_array(values, expected, normalize)
        game = extend_heterogeneous(values, k_field, limit_bits=limit_bits)
        if offset:
            game = MultichoiceGame(
                game.n, game.k, game.values, {**game.meta, "v0_offset": offset}
            )
        return game

    k = k_field
    if not _is_int(k) or k < 1:
        raise GameFormatError(f'"k" must be an integer >= 1 or a list, got {k!r}')
    check_table_size(n, k, limit_bits)
    values, offset = _values_array(values, (k + 1) ** n, normalize)
    meta = {"v0_offset": offset} if offset else {}
    return MultichoiceGame(n, k, values, meta)


def save_game(game: MultichoiceGame, path_or_fp: str | IO[str]) -> None:
    """Write a game in canonical uniform-k form; floats round-trip exactly."""
    doc = {"n": game.n, "k": game.k, "values": [float(x) for x in game.values]}
    if isinstance(path_or_fp, str):
        with open(path_or_fp, "w", encoding="utf-8") as fp:
            json.dump(doc, fp)
            fp.write("\n")
    else:
        json.dump(doc, path_or_fp)
        path_or_fp.write("\n")


def _is_int(x) -> bool:
    # bool subclasses int, so JSON true would otherwise pass as 1
    return isinstance(x, int) and not isinstance(x, bool)


def _parse(fp: IO[str]) -> dict:
    try:
        doc = json.load(fp)
    except json.JSONDecodeError as exc:
        raise GameFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GameFormatError("top-level JSON value must be an object")
    for key in ("n", "k", "values"):
        if key not in doc:
            raise GameFormatError(f'missing required key "{key}"')
    return doc


def _values_array(values, expected: int, normalize: bool) -> tuple[np.ndarray, float]:
    """Validated value array plus the offset removed by normalization."""
    if not isinstance(values, list):
        raise GameFormatError('"values" must be an array of numbers')
    if len(values) != expected:
        raise GameFormatError(
            f"table length mismatch: got {len(values)} values, expected {expected}"
        )
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GameFormatError(f'"values" must be numeric: {exc}') from exc
    if not np.all(np.isfinite(arr)):
        raise GameFormatError('"values" must be finite numbers')
    offset = float(arr[0])
    if normalize:
        arr = arr - arr[0]
        arr[0] = 0.0
    elif offset != 0.0:
        raise GameFormatError(
            f"value at the zero profile is {offset!r}, not 0; "
            "pass --normalize to shift the table"
        )
    return arr, offset
