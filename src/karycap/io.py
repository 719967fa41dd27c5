"""Reading and writing the canonical game file format.

A game file is a JSON document ``{"n": int, "k": int | [int, ...],
"values": [float, ...]}`` with values in canonical little-endian order.
When ``k`` is a list, the table covers the product of {0..k_i} in the
analogous mixed-radix order and is clamp-extended to the common
k = max(k_i) on load: along each short axis (k_i < k) the levels above
k_i read level k_i.  A uniform ``k`` is the list [k] * n, and both forms
pass the size guard before any value is read.

The loader checks only what JSON leaves open and the guard reads: the keys,
and that ``true`` or a string is no number; the library checks the table's
length and bound.  Every refusal of a document is a :class:`GameFormatError`,
except the guard's ``SizeLimitError``.
"""

from __future__ import annotations

import contextlib
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
    with _opened(path_or_fp, "r") as fp:
        doc = _parse(fp)

    n, k, values = doc["n"], doc["k"], doc["values"]
    # JSON true is a bool and "1.5" a str: Python and numpy would read both as numbers
    if not _is_int(n) or n < 1:
        raise GameFormatError(f'"n" must be a positive integer, got {n!r}')
    if isinstance(k, list):  # the guard reads max(k) as the top level of n attributes
        if len(k) != n:
            raise GameFormatError(f'"k" list has {len(k)} entries, expected n = {n}')
        if not all(_is_int(ki) and ki >= 1 for ki in k):
            raise GameFormatError(f'"k" list entries must be integers >= 1: {k}')
    elif not _is_int(k) or k < 1:
        raise GameFormatError(f'"k" must be an integer >= 1 or a list, got {k!r}')
    check_table_size(n, max(k) if isinstance(k, list) else k, limit_bits)  # before [k] * n
    if not isinstance(values, list) or not set(map(type, values)) <= {int, float}:
        raise GameFormatError('"values" must be an array of numbers')

    # shifted even without normalize, so that the library's length and bound refusals come first
    try:
        table = np.asarray(values, dtype=np.float64)
        offset = float(table[0]) if table.size else 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor refuses inf and nan
            table = table - offset if normalize or offset else table
        game = extend_heterogeneous(table, k if isinstance(k, list) else [k] * n,
                                    limit_bits=limit_bits)
    except (ValueError, OverflowError) as exc:  # OverflowError: an integer past the float range
        raise GameFormatError(f'"values": {exc}') from exc
    if offset and not normalize:
        raise GameFormatError(f"value at the zero profile is {offset!r}, not 0; "
                              "pass --normalize to shift the table")
    if offset:  # the game's meta dict is its own: recorded without a second construction
        game.meta["v0_offset"] = offset
    return game


#: Values encoded per write; the writer holds one chunk as Python floats.
_CHUNK = 4096


def save_game(game: MultichoiceGame, path_or_fp: str | IO[str]) -> None:
    """Write a game in canonical uniform-k form, as one line.

    The bytes are ``json.dumps`` of the document plus a newline, so floats
    round-trip exactly; the table is encoded in fixed-size chunks, so the
    writer's memory does not grow with it.
    """
    values = game.values
    with _opened(path_or_fp, "w") as fp:
        fp.write(f'{{"n": {game.n}, "k": {game.k}, "values": [')
        for a in range(0, values.size, _CHUNK):
            # json.dumps takes the C encoder, which json.dump never does
            fp.write((", " if a else "") + json.dumps(values[a : a + _CHUNK].tolist())[1:-1])
        fp.write("]}\n")


def _opened(path_or_fp: str | IO[str], mode: str):
    # a path is opened and closed here; a file object stays open for its owner
    if isinstance(path_or_fp, str):
        return open(path_or_fp, mode, encoding="utf-8")
    return contextlib.nullcontext(path_or_fp)


def _is_int(x) -> bool:
    # bool subclasses int, so JSON true would otherwise pass as 1
    return isinstance(x, int) and not isinstance(x, bool)


def _parse(fp: IO[str]) -> dict:
    try:
        doc = json.load(fp)
    # ValueError: bad JSON, or an integer of too many digits; RecursionError: too deep
    except (ValueError, RecursionError) as exc:
        raise GameFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GameFormatError("top-level JSON value must be an object")
    for key in ("n", "k", "values"):
        if key not in doc:
            raise GameFormatError(f'missing required key "{key}"')
    return doc
