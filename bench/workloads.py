"""The benchmark's workloads: seeded inputs, CLI ops and their oracles.

A workload is a rotation of ops.  An op is one or more ``karycap`` CLI
invocations, made in-process through ``karycap.cli.main(argv)`` exactly as
a user would type them.  Inputs come from the workload seed only; the
program sees nothing but the generated game files and argv.

Every op is checked against an oracle that does not share the code path
under test.  Oracle values depend only on the game and coalition, so they
are computed once per distinct input, outside the timed interval.

Import this module only after ``run.py`` has pinned numpy to one thread
and put the checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

# Names are looked up on the modules at call time, so the traced run sees
# the calls the set-up makes; modules, not the package, so a trimmed
# package namespace does not break the benchmark.
from karycap import cli, game, indices, verify
from karycap import io as game_io

# Generator parameters per workload, and how many set-ups a run times at
# each of its pauses.  "full" is what the benchmark runs; "tiny" exists for
# the self-tests, so a smoke run takes a few seconds.
SIZES = {
    "full": {
        "report": {"n": 8, "k": 3, "traced_ops": 16, "setups_per_pause": 1},
        "crosscheck": {"n": 4, "k": 3, "samples": 500, "traced_ops": 24, "setups_per_pause": 3},
        "axioms": {"n": 5, "k": 3, "trials": 4, "traced_ops": 16, "setups_per_pause": 3},
    },
    "tiny": {
        "report": {"n": 3, "k": 2, "traced_ops": 4, "setups_per_pause": 1},
        "crosscheck": {"n": 3, "k": 2, "samples": 50, "traced_ops": 3, "setups_per_pause": 1},
        "axioms": {"n": 3, "k": 2, "trials": 1, "traced_ops": 2, "setups_per_pause": 1},
    },
}

# Distinct ids keep the random streams of the workloads apart for one seed.
_STREAM_IDS = {"report": 1, "crosscheck": 2, "axioms": 3}

#: Relative agreement required between an op's output and its oracle.
REL_TOL = 1e-9

#: Monte-Carlo seeds tried per (game, coalition) before the op keeps the last.
MC_SEED_CANDIDATES = 3


@dataclass
class Call:
    argv: list[str]
    rc: int
    out: str
    err: str


def run_cli(argv: list[str]) -> Call:
    """One CLI invocation with its stdout, stderr and exit code captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)  # looked up per call, so a traced run sees it
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed op, not a failed benchmark
            traceback.print_exc(file=err)
            rc = -1
    return Call(argv, rc, out.getvalue(), err.getvalue())


def _rng(seed: int, workload: str, purpose: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM_IDS[workload], purpose])


def _read_game(path: Path) -> game.MultichoiceGame:
    """Oracle-side game loader: plain JSON, not the program's ``load_game``."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return game.MultichoiceGame.from_values(doc["n"], doc["k"], doc["values"])


def _key(T) -> str:
    return "+".join(map(str, T))


def _coalitions(n: int, max_order: int):
    for size in range(1, max_order + 1):
        yield from combinations(range(1, n + 1), size)


def _tolerance(table: game.MultichoiceGame) -> float:
    return REL_TOL * float(np.max(np.abs(table.values)))


def _compare(doc_values: dict, reference: dict, tol: float, what: str) -> str | None:
    if set(doc_values) != set(reference):
        return f"{what}: coalitions {sorted(doc_values)} != {sorted(reference)}"
    for key, ref in reference.items():
        got = doc_values[key]
        if not isinstance(got, (int, float)) or not abs(got - ref) <= tol:
            return f"{what}: {key} = {got!r}, oracle {ref!r} (tol {tol:.3g})"
    return None


def _doc(call: Call) -> tuple[dict | None, str | None]:
    """Parsed JSON output of a call, or why the call failed."""
    if call.rc != 0:
        return None, f"`karycap {' '.join(call.argv)}` exited {call.rc}: {call.err.strip()[-300:]}"
    try:
        return json.loads(call.out), None
    except json.JSONDecodeError as exc:
        return None, f"`karycap {' '.join(call.argv)}` printed invalid JSON: {exc}"


class Workload:
    """Base of the three workloads; subclasses fill in the hooks."""

    name = ""
    cycle = 1  # ops after which the input rotation repeats

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.params = SIZES[size][self.name]
        self.workdir = Path(workdir)

    def prepare(self) -> None:
        """Generate and write the input files: the user's set-up work."""

    def plan(self) -> None:
        """Derive per-op arguments and oracle values; never timed."""

    def op(self, i: int) -> list[list[str]]:
        """argv of every CLI call of op i."""
        raise NotImplementedError

    def check(self, i: int, calls: list[Call]) -> str | None:
        """None if op i's outputs agree with the oracle, else why not."""
        raise NotImplementedError

    def table_bytes(self) -> list[int]:
        """Bytes of every game table an op reads (computed, 8 per entry)."""
        return []


class Report(Workload):
    """`importance G` then `interaction G --order 2` over four n=8, k=3 games."""

    name = "report"
    cycle = 4

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.paths = [self.workdir / f"report-{j}.json" for j in range(self.cycle)]

    def prepare(self):
        n, k = self.params["n"], self.params["k"]
        rng = _rng(self.seed, self.name, 0)
        games = [
            game.random_game(int(s), n, k, "monotone")
            for s in rng.integers(0, 2**31, size=self.cycle - 1)
        ]
        weights = rng.uniform(0.1, 1.0, n)
        weights = (weights / weights.sum()).tolist()

        def score(x):  # a user-style rating: half conjunctive, half additive
            return 0.5 * min(x) / k + 0.5 * sum(w * xi for w, xi in zip(weights, x)) / k

        games.append(game.MultichoiceGame.from_function(n, k, score))
        self.workdir.mkdir(parents=True, exist_ok=True)
        for table, path in zip(games, self.paths):
            game_io.save_game(table, str(path))

    def plan(self):
        self.games = [_read_game(p) for p in self.paths]
        self.tols = [_tolerance(g) for g in self.games]
        self.refs = [
            {_key(T): indices.interaction_via_derivatives(g, T) for T in _coalitions(g.n, 2)}
            for g in self.games
        ]

    def op(self, i):
        path = str(self.paths[i % self.cycle])
        return [["importance", path], ["interaction", path, "--order", "2"]]

    def check(self, i, calls):
        j = i % self.cycle
        table, tol, ref = self.games[j], self.tols[j], self.refs[j]
        imp, why = _doc(calls[0])
        if why:
            return why
        phis = imp.get("importance")
        if not isinstance(phis, list) or len(phis) != table.n:
            return f"importance: expected {table.n} values, got {phis!r}"
        singles = {str(i + 1): phi for i, phi in enumerate(phis)}
        why = _compare(singles, {str(a): ref[str(a)] for a in range(1, table.n + 1)}, tol, "importance")
        if why:
            return why
        gap = imp.get("efficiency_gap")
        if not isinstance(gap, (int, float)) or not gap <= tol:
            return f"importance: efficiency_gap {gap!r} above {tol:.3g}"
        inter, why = _doc(calls[1])
        if why:
            return why
        return _compare(inter.get("interactions", {}), ref, tol, "interaction --order 2")

    def table_bytes(self):
        return [8 * (self.params["k"] + 1) ** self.params["n"]] * self.cycle


class Crosscheck(Workload):
    """Three oracle methods and a Monte-Carlo integral check on n=4, k=3 games."""

    name = "crosscheck"
    games_in_rotation = 3
    methods = ("cellsum", "derivative_sum", "recursive")

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.paths = [self.workdir / f"crosscheck-{j}.json" for j in range(self.games_in_rotation)]
        self.pairs = list(combinations(range(1, self.params["n"] + 1), 2))
        self.cycle = math.lcm(self.games_in_rotation, len(self.pairs))

    def prepare(self):
        n, k = self.params["n"], self.params["k"]
        rng = _rng(self.seed, self.name, 0)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for s, path in zip(rng.integers(0, 2**31, size=len(self.paths)), self.paths):
            game_io.save_game(game.random_game(int(s), n, k, "monotone"), str(path))

    def plan(self):
        self.games = [_read_game(p) for p in self.paths]
        self.tols = [_tolerance(g) for g in self.games]
        self.refs = [
            {_key(T): indices.interaction(g, T) for T in _coalitions(g.n, 2)} for g in self.games
        ]
        # The CLI's 3-sigma test rejects about 0.27% of honest Monte-Carlo
        # draws.  So that no op fails by chance, each (game, pair) takes the
        # first of a few seeded candidates on which the CLI's own check
        # passes; a biased estimator fails all of them, and the op then
        # keeps the last and fails.
        rng = _rng(self.seed, self.name, 1)
        self.mc_seeds = []
        for j in range(self.cycle):
            for s in rng.integers(0, 2**31, size=MC_SEED_CANDIDATES):
                if run_cli(self._integral_check(j, int(s))).rc == 0:
                    break
            self.mc_seeds.append(int(s))

    def _integral_check(self, j: int, mc_seed: int) -> list[str]:
        T = self.pairs[j % len(self.pairs)]
        return ["integral-check", str(self.paths[j % len(self.paths)]),
                "--set", ",".join(map(str, T)),
                "--samples", str(self.params["samples"]), "--seed", str(mc_seed)]

    def op(self, i):
        j = i % self.cycle
        path = str(self.paths[j % len(self.paths)])
        calls = [["interaction", path, "--order", "2", "--method", m] for m in self.methods]
        calls.append(self._integral_check(j, self.mc_seeds[j]))
        return calls

    def check(self, i, calls):
        g = (i % self.cycle) % len(self.games)
        tol, ref = self.tols[g], self.refs[g]
        for call, method in zip(calls, self.methods):
            doc, why = _doc(call)
            if why:
                return why
            why = _compare(doc.get("interactions", {}), ref, tol, f"interaction --method {method}")
            if why:
                return why
        doc, why = _doc(calls[-1])
        if why:
            return why
        T = self.pairs[(i % self.cycle) % len(self.pairs)]
        return _compare({_key(T): doc.get("closed_form")}, {_key(T): ref[_key(T)]}, tol, "integral-check")

    def table_bytes(self):
        return [8 * (self.params["k"] + 1) ** self.params["n"]] * len(self.paths)


class Axioms(Workload):
    """`verify --axioms all` on fresh random n=5, k=3 games, one seed per op."""

    name = "axioms"

    def op(self, i):
        seq = np.random.SeedSequence([self.seed, _STREAM_IDS[self.name], 1, i])
        s = int(seq.generate_state(1)[0] >> 1)
        p = self.params
        return [["verify", "--axioms", "all", "--trials", str(p["trials"]), "--seed", str(s),
                 "--n", str(p["n"]), "--k", str(p["k"])]]

    def check(self, i, calls):
        doc, why = _doc(calls[0])
        if why:
            return why
        reports = doc.get("reports", [])
        axioms = [r.get("axiom") for r in reports]
        if doc.get("passed") is not True or axioms != list(verify.AXIOMS):
            return f"verify: passed={doc.get('passed')!r}, axioms {axioms}"
        if any(r.get("trials") != self.params["trials"] for r in reports):
            return "verify: a report ran the wrong number of trials"
        return None

    def table_bytes(self):
        # the largest table per trial is the null extension on n+1 attributes
        return [8 * (self.params["k"] + 1) ** (self.params["n"] + 1)]


WORKLOADS = {w.name: w for w in (Report, Crosscheck, Axioms)}
