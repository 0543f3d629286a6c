"""The repository's benchmark: six workloads over both execution paths.

Run every workload (5 repeats each, plus one traced and monitored pass)::

    python3 bench/run.py

One workload, time-boxed, as a comparison harness runs it::

    python3 bench/run.py --workload chaos --seed 3 --seconds 15 --trace 0

Every repeat runs in a fresh subprocess: set-up (imports and input
generation) is timed apart from the measured phase, and the simulated
output of every repeat is digested and checked against the other
repeats, the traced pass and, where one is recorded, the golden digest
in ``bench/golden.json``.  Each run appends one JSON record to
``<out>/BENCH_<workload>.jsonl``; the traced pass writes its span
aggregates to ``<out>/trace_<workload>.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``).

``python3 bench/run.py compare PARENT_OUT CHANGE_OUT`` compares two sets
of records metric by metric (see bench/README.md).
"""

import time

_START = time.perf_counter()  # a child's set-up is timed from here

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Optional  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = BENCH_DIR / "golden.json"

#: A time-boxed run still measures at least this many repeats, so every
#: median (set-up time included) rests on several fresh processes.
MIN_ROUNDS = 3
#: No single subprocess may run longer than this (a time-boxed run of 15 s
#: that hangs still ends within three minutes).
CHILD_TIMEOUT_S = 150
#: ``compare`` claims a gain only over at least this many run pairs.
MIN_PAIRS = 10
#: How a run's repeats become its value.  Interference from other work
#: on the host only ever slows a repeat, so a run's time is its fastest
#: repeat; set-up time and memory are medians.
HEADLINE = {"setup_s": statistics.median, "wall_s": min, "cpu_s": min,
            "peak_rss_mib": statistics.median, "work_per_s": max}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Child: one repeat (or the traced pass) in a fresh interpreter
# ---------------------------------------------------------------------------

def _rusage() -> tuple[float, float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime,
            kids.ru_maxrss / 1024.0)


def child_main(mode: str, name: str, scale: str, seed: int, src: str,
               out: str) -> int:
    sys.path.insert(0, src)
    import numpy

    import tracing
    import workloads

    tracer = monitors = None
    if mode == "traced":
        # Wrap before set-up builds anything, so callbacks that set-up
        # binds (accrual hooks, capping listeners) are wrapped too.
        tracer = tracing.Tracer()
        tracing.install(tracer)
    run = workloads.prepare(name, scale, seed)
    if mode == "traced":
        monitors = tracing.PlatformMonitors()
    self0, kids0, _ = _rusage()
    started = time.perf_counter()
    setup_s = started - _START
    if tracer is not None:
        tracer.start()
    outcome = run()
    wall_s = (tracer.stop() if tracer is not None
              else time.perf_counter() - started)
    self1, kids1, kids_rss = _rusage()
    result: dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": (self1 - self0) + (kids1 - kids0),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": outcome.work / wall_s,
        "digest": outcome.digest(),
        "ops": outcome.ops,
        "failed_ops": outcome.failed_ops,
        "errors": outcome.errors,
        "numpy": numpy.__version__,
    }
    if tracer is not None and monitors is not None:
        result["failed_ops"] = min(
            outcome.ops, outcome.failed_ops + monitors.failed_ticks())
        result["errors"] += [str(v) for v in monitors.violations()]
        result["layers"] = tracing.layer_metrics(
            tracer, monitors, workers=workloads.WORKLOADS[name].workers,
            driver_cpu_s=self1 - self0, worker_cpu_s=kids1 - kids0,
            worker_peak_rss_mib=kids_rss)
        Path(out).mkdir(parents=True, exist_ok=True)
        (Path(out) / f"trace_{name}.json").write_text(json.dumps({
            "workload": name, "seed": seed, "scale": scale,
            "wall_s": tracer.wall_s,
            "aggregates": [
                {"layer": layer, "parent": parent, "count": agg[0],
                 "total_s": agg[1], "self_s": agg[2]}
                for (layer, parent), agg in tracer.aggregates.items()],
            "spans": tracer.spans,
        }))
    result["errors"] = result["errors"][:20]
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Driver: repeats, checks, records
# ---------------------------------------------------------------------------

class ChildFailed(RuntimeError):
    pass


def _spawn(mode: str, name: str, args: argparse.Namespace) -> dict[str, Any]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           name, args.scale, str(args.seed), str(args.src), str(args.out)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise ChildFailed(f"{name} {mode} exited {proc.returncode}:\n"
                          f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_state(src: Path) -> tuple[Optional[str], Optional[bool]]:
    """Commit and dirty flag of the checkout ``src`` belongs to, or
    (None, None) outside a git work tree."""
    root = src.resolve().parent
    if not (root / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain",
             "--untracked-files=no"], capture_output=True, text=True,
            timeout=30, check=True).stdout.strip() != ""
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, dirty


def measure(name: str, args: argparse.Namespace) -> dict[str, Any]:
    """Run one workload's repeats (and traced pass); return its record."""
    import workloads

    workload = workloads.WORKLOADS[name]
    start = time.perf_counter()
    # A time box covers the traced pass too; untraced repeats fill the
    # rest of it (at least one, for the overhead baseline).
    traced = _spawn("traced", name, args) if args.trace else None
    min_rounds = 1 if traced else MIN_ROUNDS
    rounds: list[dict[str, Any]] = []
    durations: list[float] = []
    while True:
        began = time.perf_counter()
        rounds.append(_spawn("round", name, args))
        durations.append(time.perf_counter() - began)
        if args.seconds is None:
            if len(rounds) >= args.repeats:
                break
        elif len(rounds) >= min_rounds and time.perf_counter() - start \
                + statistics.median(durations) > args.seconds:
            break
    passes = rounds + ([traced] if traced else [])

    digests = sorted({p["digest"] for p in passes})
    golden = (json.loads(GOLDEN_PATH.read_text()).get(name, {})
              .get(str(args.seed)) if args.scale == "full" else None)
    errors = [e for p in passes for e in p["errors"]]
    if len(digests) > 1:
        errors.append(f"repeats disagree on the output digest: {digests}")
    if golden is not None and digests != [golden]:
        errors.append(f"output digest {digests} != golden {golden}")
    attempted = sum(p["ops"] for p in passes)
    digest_ok = len(digests) == 1 and golden in (None, digests[0])
    failed = (sum(p["failed_ops"] for p in passes) if digest_ok
              else attempted)

    end_to_end = {}
    for metric, headline in HEADLINE.items():
        values = [r[metric] for r in rounds]
        q1, q3 = _quartiles(values)
        end_to_end[metric] = {"value": headline(values),
                              "median": statistics.median(values),
                              "q1": q1, "q3": q3, "n": len(values),
                              "values": values}
    layers = None
    if traced is not None:
        layers = dict(traced["layers"])
        untraced = end_to_end["wall_s"]["value"]
        layers["trace.overhead_frac"] = (
            traced["wall_s"] - layers["monitors.check_s"] - untraced
        ) / untraced

    usable = _usable_cpus()
    sha, dirty = _git_state(args.src)
    record = {
        "workload": name, "seed": args.seed, "scale": args.scale,
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "sha": sha, "dirty": dirty,
        "usable_cpus": usable, "workers": workload.workers,
        "cpu_limited": usable < workload.workers,
        "python": platform.python_version(), "numpy": rounds[0]["numpy"],
        "loadavg": list(os.getloadavg()),
        "digest": digests[0] if len(digests) == 1 else digests,
        "correct": failed == 0, "ops_attempted": attempted,
        "ops_failed": failed, "errors": errors[:20],
        "end_to_end": end_to_end, "layers": layers,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    with open(args.out / f"BENCH_{name}.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    return record


def _print_record(record: dict[str, Any], units: dict[str, str]) -> None:
    print(f"{record['workload']}  seed {record['seed']}  "
          f"repeats {record['end_to_end']['wall_s']['n']}  "
          f"ops {record['ops_attempted']}  failed {record['ops_failed']}  "
          f"digest {str(record['digest'])[:12]}")
    for metric, stats in record["end_to_end"].items():
        print(f"  {metric:<16} {stats['value']:>12.4f} {units[metric]:<6} "
              f"median {stats['median']:.4f} [{stats['q1']:.4f}, "
              f"{stats['q3']:.4f}] n={stats['n']}")
    for metric, value in (record["layers"] or {}).items():
        print(f"  {metric:<30} {value:>14.6g} {units[metric]}")
    for error in record["errors"]:
        print(f"  ERROR {error}")


def _parse_run_args(argv: list[str]) -> argparse.Namespace:
    import workloads

    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Run the benchmark workloads (see bench/README.md).")
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        default=",".join(workloads.WORKLOADS),
                        help="comma-separated workload names "
                             "(default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    runs = parser.add_mutually_exclusive_group()
    runs.add_argument("--repeats", type=int, default=5,
                      help="untraced repeats per workload (default 5)")
    runs.add_argument("--seconds", type=float, default=None,
                      help="repeat until this many seconds are used "
                           f"instead (at least {MIN_ROUNDS} repeats, or 1 "
                           "after a traced pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: add the traced, monitored pass and print "
                             "per-layer metrics last (default)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src/ of the checkout to measure")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for tests only")
    args = parser.parse_args(argv)
    names = [n for n in args.workloads.split(",") if n]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or not names:
        parser.error(f"unknown workload(s) {unknown}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.repeats < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeats and --seconds must be positive")
    args.workloads = names
    args.src = args.src.resolve()
    if not (args.src / "repro" / "__init__.py").is_file():
        parser.error(f"{args.src} holds no repro package to measure")
    args.spec = _load_spec(parser)
    return args


def _load_spec(parser: argparse.ArgumentParser) -> dict[str, Any]:
    if not SPEC_PATH.is_file():
        parser.error(f"{SPEC_PATH} is missing")
    return json.loads(SPEC_PATH.read_text())


def run_main(argv: list[str]) -> int:
    args = _parse_run_args(argv)
    spec = args.spec
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: dict[str, dict[str, Any]] = {}
    attempted = failed = 0
    for name in args.workloads:
        try:
            record = measure(name, args)
        except (ChildFailed, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        _print_record(record, units)
        attempted += record["ops_attempted"]
        failed += record["ops_failed"]
        prefix = "" if len(args.workloads) == 1 else f"{name}."
        for metric in wanted:
            key = metric["name"]
            value = (record["layers"][key] if args.trace
                     else record["end_to_end"][key]["value"])
            metrics[prefix + key] = {"value": value, "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# compare: parent records vs change records
# ---------------------------------------------------------------------------

def _wins(parent: list[float], change: list[float], better: str) -> int:
    """Alternating pairs (parent run i, change run i) the change won."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The gain/regression rule of the choosing-metrics guide (section 8)
    for one workload x metric: ``improved`` needs at least
    :data:`MIN_PAIRS` alternating pairs, nine tenths of them won by the
    change, and a median gain wider than the parent's interquartile
    spread; a spread wider than the bound is ``unresolved`` unless every
    change run beats every parent run; otherwise a median worse by more
    than the bound is ``regressed``."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    cq1, cq3 = _quartiles(change)
    pairs = min(len(parent), len(change))
    if pairs >= MIN_PAIRS and _wins(parent, change, better) >= 0.9 * pairs \
            and sign * (mc - mp) > q3 - q1:
        return "improved"
    if max((q3 - q1) / abs(mp), (cq3 - cq1) / abs(mc)) > bound:
        if all(sign * (c - p) > 0 for c in change for p in parent):
            return "unchanged"
        return "unresolved"
    if sign * (mc - mp) < -bound * abs(mp):
        return "regressed"
    return "unchanged"


def _load_records(out: Path) -> dict[str, list[dict[str, Any]]]:
    records: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(out.glob("BENCH_*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                record = json.loads(line)
                records.setdefault(record["workload"], []).append(record)
    return records


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py compare",
        description="Compare two directories of BENCH_*.jsonl records.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = _load_spec(parser)
    parent, change = _load_records(args.parent), _load_records(args.change)
    common = [name for name in parent if name in change]
    if not common:
        parser.error("no workload has records on both sides")
    ok = True
    print(f"{'workload':<14} {'metric':<14} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for name in common:
        p_recs, c_recs = parent[name], change[name]
        p_digests = {r["seed"]: r["digest"] for r in p_recs}
        for r in c_recs:
            if r["seed"] in p_digests and p_digests[r["seed"]] != r["digest"]:
                print(f"{name}: output digest differs at seed {r['seed']}")
                ok = False
        p_fail, c_fail = _failed_share(p_recs), _failed_share(c_recs)
        if c_fail > p_fail:
            print(f"{name}: failed operations rose "
                  f"({p_fail:.3g} -> {c_fail:.3g})")
            ok = False
        for metric in spec["end_to_end"]:
            key = metric["name"]
            pv = [r["end_to_end"][key]["value"] for r in p_recs]
            cv = [r["end_to_end"][key]["value"] for r in c_recs]
            result = verdict(pv, cv, metric["better"], metric["bound"])
            print(f"{name:<14} {key:<14} {_summary(pv):>34} "
                  f"{_summary(cv):>34} "
                  f"{_wins(pv, cv, metric['better']):>3}/"
                  f"{min(len(pv), len(cv)):<2}  {result}")
            ok = ok and result != "regressed"
    return 0 if ok else 1


def _failed_share(records: list[dict[str, Any]]) -> float:
    return sum(r["ops_failed"] for r in records) / max(
        1, sum(r["ops_attempted"] for r in records))


def _summary(values: list[float]) -> str:
    q1, q3 = _quartiles(values)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    if argv[:1] == ["--child"]:
        mode, name, scale, seed, src, out = argv[1:7]
        return child_main(mode, name, scale, int(seed), src, out)
    return run_main(argv)


if __name__ == "__main__":
    sys.exit(main())
