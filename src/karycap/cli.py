"""Command-line front end.

Verbs: info, importance, interaction, choquet, verify, integral-check,
convert.  Every command is deterministic given its flags (seeds
included).  Exit codes: 0 success / all checks passed, 1 validation or
check failure, 2 usage error; argparse reports every usage error, with
the verb's usage line, before any file is read.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io as _io
import json
import math
import sys
from typing import Sequence

from .choquet import choquet_kary, integral_check
from .game import MultichoiceGame, _tolerance, is_kary_capacity
from .indices import METHODS, interaction, interaction_all_upto, interaction_by_method
from .io import load_game, save_game
from .verify import AXIOMS, efficiency_rhs, verify_axioms


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    # MemoryError: a table that a raised --limit admits but no machine can hold;
    # OverflowError: a sum that math.fsum cannot hold, from values near the float range
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _coalition(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f'cannot parse coalition "{text}"; expected e.g. "1,3"')


def _point(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f'cannot parse point "{text}"')


def _tol(text: str) -> float:
    try:
        _tolerance(tol := float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return tol


def _axioms(text: str) -> list[str]:
    if text == "all":
        return list(AXIOMS)
    axioms = [a.strip().upper() for a in text.split(",") if a.strip()]
    unknown = [a for a in axioms if a not in AXIOMS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown axiom name(s): {', '.join(unknown)}")
    if not axioms:
        raise argparse.ArgumentTypeError(f'--axioms "{text}" names no axiom')
    return axioms


# built once per process: parse_args leaves a parser unchanged, and each
# build leaves about 40 KB of cyclic garbage (formatters, actions, groups)
# that piles up until a full collection when main runs many times in-process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="karycap",
        description="Importance/interaction indices for multilevel games "
        "and their Choquet-integral extension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser, with_game: bool = True, emits: bool = True, tol: bool = False
    ) -> None:
        # --format only on verbs that emit a document, --tol only where it is read
        if with_game:
            p.add_argument("path", help="game file (canonical JSON)")
            p.add_argument(
                "--normalize",
                action="store_true",
                help="shift all values so the zero profile maps to 0",
            )
        p.add_argument("--out", help="write the report here instead of stdout")
        if emits:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if tol:
            p.add_argument("--tol", type=_tol, default=1e-9, help="numeric tolerance")
        p.add_argument(
            "--limit",
            type=int,
            default=None,
            metavar="BITS",
            help="override the exponential-size guards (bits)",
        )

    p = sub.add_parser("info", help="summarize a game file")
    common(p, tol=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("importance", help="importance index of every attribute")
    common(p)
    p.set_defaults(func=cmd_importance)

    p = sub.add_parser("interaction", help="interaction indices")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--order", type=int, help="all coalitions up to this size")
    group.add_argument(
        "--set", dest="set_", type=_coalition, metavar="SET", help='one coalition, e.g. "1,3"'
    )
    p.add_argument("--method", choices=METHODS, default="closed_form")
    p.set_defaults(func=cmd_interaction)

    p = sub.add_parser("choquet", help="evaluate the extension at a real point")
    common(p, emits=False)
    p.add_argument("--point", type=_point, required=True, help='coordinates, e.g. "0.5,0.3"')
    p.set_defaults(func=cmd_choquet)

    p = sub.add_parser("verify", help="run the axiom suite")
    p.add_argument("path", nargs="?", help="optional game file used as the base game")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--axioms", type=_axioms, default="all", help='"all" or letters like "L,N,E"')
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--n", type=int, default=3, help="attributes for random games")
    p.add_argument("--k", type=int, default=2, help="levels for random games")
    common(p, with_game=False, tol=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("integral-check", help="Monte-Carlo check of one interaction")
    common(p, tol=True)
    p.add_argument("--set", dest="set_", type=_coalition, metavar="SET", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_integral_check)

    p = sub.add_parser("convert", help="rewrite a game file in canonical uniform form")
    common(p, emits=False)
    p.set_defaults(func=cmd_convert)

    return parser


def _load(args) -> MultichoiceGame:
    return load_game(args.path, normalize=args.normalize, limit_bits=args.limit)


def _coalition_key(T) -> str:
    return "+".join(str(i) for i in sorted(T))


def cmd_info(args) -> int:
    game = _load(args)
    doc = {
        "n": game.n,
        "k": game.k,
        "table_size": int(game.values.size),
        "v_zero": float(game.meta.get("v0_offset", 0.0)),
        "v_top": float(game.values[-1]),
        "is_kary_capacity": is_kary_capacity(game, args.tol),
    }
    if "k_list" in game.meta:
        doc["k_list"] = list(game.meta["k_list"])
    _emit(doc, args)
    return 0


def cmd_importance(args) -> int:
    game = _load(args)
    phis = list(interaction_all_upto(game, 1, "closed_form", args.limit).values())
    rhs = efficiency_rhs(game)
    doc = {
        "importance": phis,
        "efficiency_rhs": rhs,
        "efficiency_gap": abs(math.fsum(phis) - rhs),
    }
    _emit(doc, args)
    return 0


def cmd_interaction(args) -> int:
    game = _load(args)
    if args.set_ is not None:
        value = interaction_by_method(game, args.set_, args.method, args.limit)
        doc = {"method": args.method, "interactions": {_coalition_key(args.set_): value}}
    else:
        interactions = interaction_all_upto(game, args.order, args.method, args.limit)
        doc = {
            "method": args.method,
            "max_order": args.order,
            "interactions": {_coalition_key(T): val for T, val in interactions.items()},
        }
    _emit(doc, args)
    return 0


def cmd_choquet(args) -> int:
    _write(f"{choquet_kary(_load(args), args.point):.12g}\n", args)
    return 0


def cmd_verify(args) -> int:
    game = _load(args) if args.path else None
    reports = verify_axioms(
        args.axioms, args.trials, args.seed, args.n, args.k, args.tol, game, args.limit
    )
    doc = {
        "reports": [r.as_dict() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    _emit(doc, args)
    return 0 if doc["passed"] else 1


def cmd_integral_check(args) -> int:
    game = _load(args)
    est = integral_check(game, args.set_, args.samples, args.seed, args.limit)
    closed = interaction(game, args.set_, args.limit)
    gap = est.estimate - closed
    # a tolerance that scales with the game: a constant integrand's std error is rounding noise
    passed = abs(gap) <= 3.0 * est.std_error + args.tol * max(1.0, float(abs(game.values).max()))
    z = gap / est.std_error if est.std_error > 0.0 else 0.0 if passed else math.inf
    doc = {
        "estimate": est.estimate,
        "std_error": est.std_error,
        "closed_form": closed,
        "z_score": z,
    }
    _emit(doc, args)
    return 0 if passed else 1


def cmd_convert(args) -> int:
    save_game(_load(args), args.out or sys.stdout)
    return 0


def _emit(doc: dict, args) -> None:
    if args.format == "csv":
        text = _to_csv(doc)
    else:
        text = json.dumps(doc, indent=2) + "\n"
    _write(text, args)


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _csv_num(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _to_csv(doc: dict) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf)
    if "interactions" in doc:
        writer.writerow(["coalition", "value"])
        for key, val in doc["interactions"].items():
            writer.writerow([key, _csv_num(val)])
    elif "importance" in doc:
        writer.writerow(["attribute", "value"])
        for i, val in enumerate(doc["importance"], start=1):
            writer.writerow([i, _csv_num(val)])
        writer.writerow(["efficiency_rhs", _csv_num(doc["efficiency_rhs"])])
        writer.writerow(["efficiency_gap", _csv_num(doc["efficiency_gap"])])
    elif "reports" in doc:
        writer.writerow(["axiom", "trials", "max_gap", "closed_form_gap", "passed", "failures"])
        for rep in doc["reports"]:
            writer.writerow(
                [
                    rep["axiom"],
                    rep["trials"],
                    _csv_num(rep["max_gap"]),
                    _csv_num(rep["closed_form_gap"]),
                    rep["passed"],
                    len(rep["failures"]),
                ]
            )
    else:
        writer.writerow(["key", "value"])
        for key, val in doc.items():  # a list value spans one cell per entry
            writer.writerow([key, *map(_csv_num, val if isinstance(val, list) else [val])])
    return buf.getvalue()


if __name__ == "__main__":
    sys.exit(main())
