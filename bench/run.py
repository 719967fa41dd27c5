"""Benchmark of the karycap CLI: seeded closed-loop workloads with oracle checks.

Run from the root of a checkout:

    python3 bench/run.py --workload report --seed 1 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 0

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

One process runs one workload with one client and one thread: each op is
sent only after the previous one returned.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same workload untraced and then
traced, and prints the per-layer metrics.  The last line of stdout is the
result object; a copy with the run's metadata goes to
``.bench_run/results/``.  The exit code is 0 only if every op agreed with
its oracle.  ``--workload all`` runs every workload, each in its own
process, and prints one table.

See bench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import os

# One numpy thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

#: Pauses per trace-0 run for set-ups, each set-up in a fresh interpreter:
#: one pause before the timed phase and one after each of SETUP_PAUSES - 1
#: equal slices of it, so the set-ups see the host's speed states in the
#: same mix as the ops do.  A workload's ``setups_per_pause`` is 1 where a
#: set-up is long and 3 where it is short.  setup_s is the 90th percentile
#: of the set-ups: the host is in its slow state for part of every run, as
#: op_p90_ms shows, but for a share that varies from run to run, so a high
#: percentile is steady where the median is not.
SETUP_PAUSES = 8

#: Every run times at least this many ops, so the quantiles exist.
MIN_OPS = 2

CHILD_TIMEOUT_S = 120

#: Figures every run reports besides the metrics BENCHMARK.json lists.  The
#: mean and median op latency swing 15-20% between runs on a shared host
#: whose cores alternate between a fast and a slow state, so they carry no
#: bound; error_rate is 0 when all is well, so a share of it cannot bound it.
UNGATED_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "error_rate": "ratio"}


class MissingProgram(RuntimeError):
    pass


def import_karycap():
    """Import karycap from this checkout's src/, never from elsewhere."""
    init = SRC / "karycap" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no karycap sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import karycap

    if Path(karycap.__file__).resolve() != init.resolve():
        raise MissingProgram(f"imported karycap from {karycap.__file__}, not {init}")
    return karycap


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------- set-up


def prepare_child(workload: str, seed: int, size: str, workdir: Path) -> None:
    """Child side of one set-up: import karycap, write the inputs, stamp."""
    import_karycap()
    import workloads

    workloads.WORKLOADS[workload](seed, size, workdir).prepare()
    print(time.monotonic())  # CLOCK_MONOTONIC is shared by all processes


def timed_setup(workload: str, seed: int, size: str, workdir: Path) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being written."""
    argv = [sys.executable, str(BENCH / "run.py"), "--prepare", str(workdir),
            "--workload", workload, "--seed", str(seed), "--size", size]
    start = time.monotonic()
    child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                           timeout=CHILD_TIMEOUT_S, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"set-up child failed ({child.returncode}): {child.stderr[-2000:]}")
    return float(child.stdout.split()[-1]) - start


# ---------------------------------------------------------------- ops


def timed_ops(wl, first: int, seconds: float | None, count: int | None, tracer=None):
    """Run ops closed-loop from index `first`, until `seconds` pass or `count` ops.

    Returns (latencies, calls per op, elapsed seconds).  Outputs are kept
    as text and checked later, outside the timed interval.
    """
    from workloads import run_cli

    latencies, outputs = [], []
    start = now = time.perf_counter()
    i = first
    while True:
        if tracer is not None:
            tracer.op = i
        argvs = wl.op(i)
        t0 = time.perf_counter()
        calls = [run_cli(argv) for argv in argvs]
        now = time.perf_counter()
        latencies.append(now - t0)
        outputs.append(calls)
        i += 1
        done = len(latencies)
        if count is not None and done >= count:
            break
        if seconds is not None and now - start >= seconds and done >= MIN_OPS:
            break
    if tracer is not None:
        tracer.op = None
    return latencies, outputs, now - start


def check_ops(wl, first: int, outputs, tamper=None) -> list[bool]:
    """Check each op's outputs against the oracle; name every failure on stderr."""
    ok = []
    for i, calls in enumerate(outputs, start=first):
        if tamper is not None:
            tamper(wl.name, i, calls)
        why = wl.check(i, calls)
        if why:
            print(f"FAILED op {wl.name}#{i}: {why}", file=sys.stderr)
        ok.append(why is None)
    return ok


def quantile(values, q: int) -> float:
    """q-th percentile (1..99) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------- metadata


def _lscpu() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                              check=False).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def _cache_bytes(text: str) -> int | None:
    """Per-instance bytes of an lscpu cache line such as '4 MiB (2 instances)'."""
    parts = text.replace("(", " ").split()
    units = {"KiB": 2**10, "MiB": 2**20, "GiB": 2**30, "K": 2**10, "M": 2**20}
    try:
        total = float(parts[0]) * units[parts[1]]
    except (IndexError, KeyError, ValueError):
        return None
    instances = int(parts[2]) if len(parts) > 2 and parts[2].isdigit() else 1
    return int(total / instances)


def metadata(wl, seed: int) -> dict:
    import numpy

    cpu = _lscpu()
    l2, l3 = _cache_bytes(cpu.get("L2 cache", "")), _cache_bytes(cpu.get("L3 cache", ""))
    commit = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
        commit = git.stdout.strip() or commit
    tables = wl.table_bytes()
    return {
        "workload": wl.name,
        "seed": seed,
        "params": wl.params,
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name", platform.processor()),
        "l2_bytes_per_core": l2,
        "l3_bytes": l3,
        "computed_table_bytes": {
            "largest": max(tables, default=0),
            "rotation_total": sum(tables),
            "largest_fits_l2": l2 is not None and max(tables, default=0) <= l2,
            "note": "computed from table sizes; no workload spills L3, "
                    "since a table of 4x L3 would not fit the op budget",
        },
    }


# ---------------------------------------------------------------- runs


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full", tamper=None) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, record with metadata)."""
    import_karycap()
    import workloads

    workdir = RUN_DIR / f"work-{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if trace:
            return _traced_run(workloads, workload, seed, seconds, size, workdir, tamper)
        return _plain_run(workloads, workload, seed, seconds, size, workdir, tamper)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _plain_run(workloads, workload, seed, seconds, size, workdir, tamper):
    reps = workloads.SIZES[size][workload]["setups_per_pause"]

    def setups(pause):
        return [timed_setup(workload, seed, size, workdir / f"setup{pause}-{r}")
                for r in range(reps)]

    samples = setups(0)
    wl = workloads.WORKLOADS[workload](seed, size, workdir / "setup0-0")
    wl.plan()
    latencies, outputs, elapsed = [], [], 0.0
    for pause in range(1, SETUP_PAUSES):  # the op clock stops while set-ups run
        lat, out, t = timed_ops(wl, len(outputs), seconds / (SETUP_PAUSES - 1), None)
        latencies += lat
        outputs += out
        elapsed += t
        samples += setups(pause)
    # The set-up children have all been reaped, and no other child has run.
    peak_rss_mib = max(resource.getrusage(who).ru_maxrss
                       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    ok = check_ops(wl, 0, outputs, tamper)
    ms = [1000 * x for x in latencies]
    values = {
        "ops_per_s": sum(ok) / elapsed,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": quantile(ms, 90),
        "setup_s": statistics.quantiles(samples, n=10, method="inclusive")[-1],
        "peak_rss_mb": peak_rss_mib,
        "error_rate": (len(ok) - sum(ok)) / len(ok),
    }
    extra = {
        "ops": len(ok),
        "timed_s": elapsed,
        "setup_samples_s": samples,
        "latencies_ms": ms,
    }
    return _finish(wl, seed, 0, "end_to_end", values, ok, extra)


def _traced_run(workloads, workload, seed, seconds, size, workdir, tamper):
    from tracer import Tracer, layer_metrics, op_self_times

    wl = workloads.WORKLOADS[workload](seed, size, workdir)
    wl.prepare()
    wl.plan()
    lat_plain, out_plain, t_plain = timed_ops(wl, 0, seconds, None)
    tracer = Tracer()
    tracer.install()
    try:
        wl.prepare()  # set-up again, now traced; it rewrites identical files
        first = len(out_plain)
        lat_traced, out_traced, t_traced = timed_ops(
            wl, first, None, wl.params["traced_ops"], tracer)
    finally:
        tracer.uninstall()
    ok = check_ops(wl, 0, out_plain, tamper) + check_ops(wl, first, out_traced, tamper)
    values = layer_metrics(tracer)
    plain_rate = len(lat_plain) / t_plain
    traced_rate = len(lat_traced) / t_traced
    values["trace.overhead_share"] = 1.0 - traced_rate / plain_rate
    values["trace.untraced_ops_per_s"] = plain_rate
    values["trace.ops"] = len(lat_traced)
    values["error_rate"] = (len(ok) - sum(ok)) / len(ok)

    op_s = op_self_times(tracer)
    whole = sum(op_s.values())
    split = {}
    for name, s in op_s.items():
        module = name.partition(".")[0]
        split[module] = split.get(module, 0.0) + s / whole
    extra = {
        "op_split": dict(sorted(split.items())),
        "prediction": predicted_split(workload, op_s),
        "absent": tracer.absent,
    }
    RUN_DIR.joinpath("traces").mkdir(parents=True, exist_ok=True)
    trace_path = RUN_DIR / "traces" / f"{workload}-s{seed}-{os.getpid()}.json"
    trace_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
    extra["trace_file"] = str(trace_path.relative_to(ROOT))
    return _finish(wl, seed, 1, "per_layer", values, ok, extra)


def predicted_split(workload: str, op_s: dict) -> dict:
    """Whether the layers predicted to dominate a workload's ops do so.

    Spans of a layer predicted to stay out of the workload are listed
    as a deviation.
    """
    whole = sum(op_s.values()) or 1.0
    closed = ["indices.importance", "indices.interaction"]
    if workload == "report":
        main = closed + ["io.load_game"]
        absent_layers = ("choquet.", "verify.")
    elif workload == "crosscheck":
        main = [n for n in op_s if n.startswith("choquet.")]
        absent_layers = ("verify.",)
    else:
        main = closed + [n for n in op_s if n.startswith("verify.")]
        absent_layers = ("choquet.",)
    share = sum(op_s.get(n, 0.0) for n in main) / whole
    unexpected = sorted(n for n in op_s if n.startswith(absent_layers))
    return {
        "claim": f"{' + '.join(main)} > 50% of op self time; "
                 f"no {' or '.join(a.rstrip('.') for a in absent_layers)} spans",
        "share": share,
        "unexpected_spans": {n: op_s[n] / whole for n in unexpected},
        "met": share > 0.5 and not unexpected,
    }


def _finish(wl, seed, trace, group, values, ok, extra):
    wanted = spec()[group]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"no value computed for {missing}")
    result = {
        "correct": all(ok),
        "attempted": len(ok),
        "failed": len(ok) - sum(ok),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    units = {m["name"]: m["unit"] for m in wanted} | UNGATED_UNITS
    reported = {n: {"value": v, "unit": units[n]} for n, v in values.items() if n in units}
    record = {"meta": metadata(wl, seed), "trace": trace, "result": result,
              "reported": reported, **extra}
    return result, record


def save_record(record: dict) -> Path:
    out = RUN_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    meta = record["meta"]
    path = out / f"{meta['workload']}-s{meta['seed']}-t{record['trace']}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return path


def summarize(record: dict) -> None:
    """Human-readable lines on stderr: every metric with its unit, and extras."""
    meta, result = record["meta"], record["result"]
    print(f"# {meta['workload']} seed={meta['seed']} trace={record['trace']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    print(_table(record["reported"]), file=sys.stderr)
    if "prediction" in record:
        p = record["prediction"]
        verdict = "met" if p["met"] else "NOT MET"
        print(f"  op split {record['op_split']}", file=sys.stderr)
        print(f"  prediction {verdict}: {p['claim']} (share {p['share']:.3f}; "
              f"unexpected spans {p['unexpected_spans']})", file=sys.stderr)
    if record.get("absent"):
        print(f"  absent from the library: {record['absent']}", file=sys.stderr)


def _table(metrics: dict) -> str:
    return "\n".join(f"  {name:38s} {m['value']:>16.6g} {m['unit']}" for name, m in metrics.items())


def run_all(seed: int, seconds: float, trace: int, size: str) -> int:
    """Every workload, each in its own process, as one table on stdout."""
    names = [w["name"] for w in spec()["workloads"]]
    rows, status = [], 0
    for name in names:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--size", size]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = child.stdout.strip().splitlines()
        status = status or child.returncode
        rows.append((name, lines[-2:] if child.returncode in (0, 1) and len(lines) >= 2 else None))
    for name, lines in rows:
        if lines is None:
            print(f"{name}: no result")
            continue
        summary, result = (json.loads(line) for line in lines)
        print(f"{name}: attempted={result['attempted']} failed={result['failed']}")
        print(_table(summary["reported"]))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-tests")
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = float(spec()["run_seconds"])
        if args.prepare:
            prepare_child(args.workload, args.seed, args.size, Path(args.prepare))
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace, args.size)
        if args.workload not in {w["name"] for w in spec()["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        result, record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.size)
    except (MissingProgram, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record["record_file"] = str(save_record(record).relative_to(ROOT))
    summarize(record)
    print(json.dumps({"meta": record["meta"], "reported": record["reported"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
