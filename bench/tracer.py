"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each ``karycap`` module from the
outside: the library itself is untouched.  A wrapper replaces the function
under every ``karycap`` module name bound to it (``interaction`` is bound
in ``indices``, ``verify``, ``cli`` and the package), so calls through any
of those names are seen.  Layer boundaries record a span (name, parent
span, op, start, end, and a few computed sizes); hot leaf helpers only
count calls, because a span per call would dwarf their own cost.  Spans
are kept in memory and written out when the run ends.

A name listed here that the library no longer has is reported as absent,
and the metrics that depend on it read 0, so the benchmark keeps running
across refactors.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _closed_form_lookups(result, v, T, *args, **kwargs):
    t = len(T) if hasattr(T, "__len__") else 1
    return (v.k + 1) ** (v.n - t) * 2**t


def _table_bytes(result, *args, **kwargs):
    return result.values.nbytes


def _cells(result, v, *args, **kwargs):
    return v.k**v.n


def _mc_evals(result, v, T, samples, *args, **kwargs):
    t = len(T) if hasattr(T, "__len__") else 0
    return v.k**v.n * 2**t * samples


def _file_bytes(result, path_or_fp, *args, **kwargs):
    return os.path.getsize(path_or_fp) if isinstance(path_or_fp, str) else 0


def _axiom_trials(result, axiom, trials, *args, **kwargs):
    return (axiom, trials)


# Functions that open a span, by module, with what to record about a call.
# Every public function of a module is listed, apart from the leaf helpers
# in COUNTED and the small accessors (encode/decode_index, support, kernel,
# members_tuple, check_table_size), whose per-call cost is below a span's.
SPANNED = {
    "karycap.cli": {"main": None},
    "karycap.io": {"load_game": _file_bytes, "save_game": None},
    "karycap.game": {
        "MultichoiceGame.from_function": _table_bytes,
        "min_game": None,
        "random_game": _table_bytes,
        "permute_attributes": _table_bytes,
        "restrict_absent": _table_bytes,
        "restrict_present_top": _table_bytes,
        "add_games": _table_bytes,
        "reduce_group": _table_bytes,
        "extend_heterogeneous": _table_bytes,
        "discrete_derivative": None,
        "is_kary_capacity": None,
    },
    "karycap.indices": {
        "importance": _closed_form_lookups,
        "interaction": _closed_form_lookups,
        "interaction_via_derivatives": None,
        "interaction_recursive": None,
        "interaction_all_upto": None,
        "classical_shapley": None,
        "lattice_point_interaction": None,
    },
    "karycap.choquet": {
        "interaction_cellsum": _cells,
        "integral_check": _mc_evals,
        "choquet_kary": None,
    },
    "karycap.verify": {
        "verify_axiom": _axiom_trials,
        "make_null_extension": None,
        "make_invariance_partner": None,
        "efficiency_rhs": None,
        "check_lemma4": None,
    },
}

# Leaf functions whose calls are counted but not timed.
COUNTED = {
    "karycap.indices": ("shapley_coefficient", "classical_interaction"),
    "karycap.choquet": ("section_capacity", "choquet_capacity"),
}

PACKAGE = "karycap"


def _short(module: str, attr: str) -> str:
    return f"{module.rpartition('.')[2]}.{attr.rpartition('.')[2]}"


class Tracer:
    """Installs span and counting wrappers and keeps what they record."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent, op, start, end, info]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.op = None  # op index the next top-level span belongs to
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module, names in SPANNED.items():
            for attr, info in names.items():
                self._wrap(modules, module, attr, lambda fn, n, i=info: self._span(n, fn, i))
        for module, names in COUNTED.items():
            for attr in names:
                self._wrap(modules, module, attr, lambda fn, n: self._count(n, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, modules, module, attr, make) -> None:
        name = _short(module, attr)
        owner = sys.modules.get(module)
        cls_name, _, fn_name = attr.rpartition(".")
        if owner is not None and cls_name:
            owner = getattr(owner, cls_name, None)
        raw = vars(owner).get(fn_name) if owner is not None else None
        if raw is None or not callable(getattr(raw, "__func__", raw)):
            self.absent.append(f"{module}.{attr}")
            return
        if isinstance(raw, classmethod):
            self._restore.append((owner, fn_name, raw))
            setattr(owner, fn_name, classmethod(make(raw.__func__, name)))
            return
        wrapper = make(raw, name)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is raw:
                    self._restore.append((m, key, raw))
                    setattr(m, key, wrapper)

    def _span(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                stack.pop()
            if info is not None:
                record[5] = info(result, *args, **kwargs)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its child spans."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        child = [0.0] * len(own)
        for (_, parent, *_), dur in zip(self.spans, own):
            if parent >= 0:
                child[parent] += dur
        return [d - c for d, c in zip(own, child)]

    def dump(self) -> dict:
        return {
            "fields": ["name", "parent", "op", "start", "end", "info"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
        }


TRANSFORMS = {
    "game.permute_attributes", "game.restrict_absent", "game.restrict_present_top",
    "game.add_games", "game.reduce_group",
}
TABLE_MAKERS = TRANSFORMS | {
    "game.from_function", "game.random_game", "game.extend_heterogeneous",
}
PARTNERS = {"verify.make_null_extension", "verify.make_invariance_partner", "verify.efficiency_rhs"}
CLOSED_FORM = {"indices.importance", "indices.interaction"}
AXIOM_NAMES = ("L", "N", "I", "S", "E", "R")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over everything the tracer saw (set-up and ops)."""
    spans = tracer.spans
    self_s = tracer.self_times()
    calls: Counter = Counter()
    secs: defaultdict = defaultdict(float)
    info_sum: Counter = Counter()
    axiom_s: defaultdict = defaultdict(float)
    trials = 0
    under_verify = [False] * len(spans)
    for sid, (name, parent, _, _, _, info) in enumerate(spans):
        calls[name] += 1
        secs[name] += self_s[sid]
        under_verify[sid] = parent >= 0 and (
            spans[parent][0] == "verify.verify_axiom" or under_verify[parent]
        )
        if name == "verify.verify_axiom" and info is not None:
            axiom_s[info[0]] += self_s[sid]
            trials += info[1]
        elif isinstance(info, int):
            info_sum[name] += info

    def total(names, table=secs):
        return sum(table[n] for n in names)

    closed_s = total(CLOSED_FORM)
    lookups = total(CLOSED_FORM, info_sum)
    ic_s = secs["choquet.integral_check"]
    mc_evals = info_sum["choquet.integral_check"]
    metrics = {
        "cli.calls": calls["cli.main"],
        "cli.self_s": secs["cli.main"],
        "io.load_game.calls": calls["io.load_game"],
        "io.load_game.s": secs["io.load_game"],
        "io.bytes_read": info_sum["io.load_game"],
        "io.save_game.s": secs["io.save_game"],
        "game.random_game.s": secs["game.random_game"],
        "game.from_function.s": secs["game.from_function"],
        "game.transform.calls": total(TRANSFORMS, calls),
        "game.transform.s": total(TRANSFORMS),
        "game.table_bytes_built": total(TABLE_MAKERS, info_sum),
        "indices.closed_form.calls": total(CLOSED_FORM, calls),
        "indices.closed_form.s": closed_s,
        "indices.coefficient.calls": tracer.counts["indices.shapley_coefficient"],
        "indices.lookups": lookups,
        "indices.bytes_read": 8 * lookups,
        "indices.lookups_per_s": lookups / closed_s if closed_s > 0 else 0.0,
        "indices.all_upto.s": secs["indices.interaction_all_upto"],
        "indices.derivative_sum.s": secs["indices.interaction_via_derivatives"],
        "indices.recursive.s": secs["indices.interaction_recursive"],
        "choquet.cellsum.calls": calls["choquet.interaction_cellsum"],
        "choquet.cellsum.s": secs["choquet.interaction_cellsum"],
        "choquet.cells": info_sum["choquet.interaction_cellsum"],
        "choquet.section_capacity.calls": tracer.counts["choquet.section_capacity"],
        "choquet.classical_interaction.calls": tracer.counts["indices.classical_interaction"],
        "choquet.integral_check.s": ic_s,
        "choquet.mc_evals": mc_evals,
        "choquet.mc_evals_per_s": mc_evals / ic_s if ic_s > 0 else 0.0,
        "verify.trials": trials,
        "verify.index_queries": sum(
            1 for sid, s in enumerate(spans) if under_verify[sid] and s[0] in CLOSED_FORM
        ),
        "verify.partner.s": total(PARTNERS),
    }
    for axiom in AXIOM_NAMES:
        metrics[f"verify.{axiom}.s"] = axiom_s[axiom]
    return metrics


def op_self_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds per span name, over the ops only (set-up left out).

    Time inside ``cli.main`` but outside all its child spans is cli time.
    """
    self_s = tracer.self_times()
    out: defaultdict = defaultdict(float)
    for sid, (name, _, op, *_rest) in enumerate(tracer.spans):
        if op is not None:
            out[name] += self_s[sid]
    return dict(out)
