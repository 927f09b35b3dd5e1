"""Closed-loop benchmark of the offsetwords library.

One client in one process calls the library's public functions with their
default arguments, and starts the next query only after the previous one has
returned.  Run it from the repository root:

    python3 perfbench/run.py --workload point-counts --seed 1 --seconds 21 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --record-reference

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; perfbench/README.md defines every metric.  The
full record of a run, with machine facts and every failing input, goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("point-counts", "wide-alphabet", "gf-sweeps", "crosscheck")
PINNED_SEED = 1
SETUP_RUNS = 5  # fresh processes timed for setup_s, after one that fills the bytecode cache
SETUP_ROUNDS = 8  # rounds of inputs a set-up generates
REFERENCE_ROUNDS = 24  # rounds of the pinned seed whose exact results reference.json pins
DEEP_CHECK_EVERY = 4  # recomputing checks run on one query in four
TAIL_BEYOND = 10  # the tail latency is the highest percentile with this many samples beyond it

# The metrics object of an untraced run.  The *_norm metrics are host-speed
# normalized (see gauge); the raw timings are printed and recorded beside them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_norm_qps": "queries/s",
    "latency_p50_norm_ms": "ms",
    "latency_tail_norm_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
RAW_UNITS = {"throughput_qps": "queries/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
# On a shared host the speed of Python code drifts by tens of percent within
# a minute.  The gauge, a fixed pure-Python computation that never calls the
# library, is timed before the loop and after every query; each query's
# latency is scaled to a host on which the gauge takes GAUGE_NOMINAL_NS, using
# the median of the GAUGE_WINDOW gauges on either side of it.
GAUGE_NOMINAL_NS = 500_000
GAUGE_WINDOW = 4
COUNT_UNITS = {
    "core.terms": "count",
    "core.result_bits": "bit",
    "core.shared_frac": "ratio",
    "series.table_entries": "count",
    "oracle.strings": "count",
    "quadrature.grid_points": "count",
    "quadrature.grid_bytes": "B",
    "quadrature.repeat_frac": "ratio",
}


def load_library():
    """Import the workloads against the library sources of this checkout."""
    package = SRC / "offsetwords"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {package}")
    sys.path.insert(0, str(SRC))
    import workloads

    if Path(workloads.core.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported offsetwords from {workloads.core.__file__}, not {package}")
    return workloads


class Ledger:
    """Outcomes of the calls of one closed loop, checked as they arrive."""

    def __init__(self, wl, workload: str, reference=None, deep_every: int = DEEP_CHECK_EVERY, check: bool = True):
        self.wl = wl
        self.check = wl.WORKLOADS[workload].check if check else None
        self.reference = reference or []
        self.deep_every = deep_every
        self.attempted = 0
        self.known = []  # calls that hit the documented overflow
        self.unexpected = []  # calls that raised anything else
        self.problems = []  # results a check rejected
        self.mismatched = 0  # calls that returned a rejected result
        self.failed_by_function = Counter()
        self.digests = []
        self.round0 = []

    def review(self, k: int, index: int, query, outcomes: list) -> None:
        self.attempted += len(query.calls)
        bad = set()
        for i, (call, value) in enumerate(zip(query.calls, outcomes)):
            if isinstance(value, Exception):
                bad.add(i)
                entry = f"{call}: {type(value).__name__}: {value}"
                (self.known if self.wl.is_known_failure(call, value) else self.unexpected).append(entry)
        digest = self.wl.query_digest(query, outcomes)
        self.digests.append(digest)
        rejected = set()
        pinned = k < len(self.reference)
        if pinned and self.reference[k][index] != digest:
            self.problems.append(f"round {k} query {index} ({query.stratum}): exact results differ from reference.json")
            rejected.update(i for i, v in enumerate(outcomes) if self.wl.exact_view(v) is not None)
        if self.check is not None:
            deep = not pinned and self.deep_every > 0 and (k + index) % self.deep_every == 0
            for i, message in self.check(query, outcomes, deep):
                rejected.add(i)
                self.problems.append(f"{query.calls[i]}: {message}")
        self.mismatched += len(rejected - bad)
        for i in bad | rejected:
            self.failed_by_function[query.calls[i].name] += 1
        if k == 0:
            self.round0.append(outcomes)

    @property
    def failed(self) -> int:
        return len(self.unexpected) + self.mismatched


class Tracer:
    """Spans kept in memory and written when the run ends:
    [id, parent, query, name, start_ns, end_ns, status]."""

    def __init__(self):
        self.spans = []

    def open(self, parent, query_id: str, name: str, start: int) -> int:
        self.spans.append([len(self.spans), parent, query_id, name, start, None, None])
        return len(self.spans) - 1

    def close(self, span: int, end: int, status: str) -> None:
        self.spans[span][5:] = [end, status]


def closed_loop(wl, stream, ledger: Ledger, seconds: float | None = None, rounds: int | None = None, tracer=None) -> dict:
    """Run whole rounds until ``seconds`` of normalized query time have passed
    (or for ``rounds`` rounds); each query's latency covers its calls only.
    Counting normalized time keeps the number of rounds, and so the mix of
    queries behind each percentile, the same while the host's speed drifts."""
    latencies, cpu, gauges = [], 0, [gauge()]
    measured = 0
    normalized = 0.0
    k = 0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    while (k < rounds) if rounds is not None else (normalized < seconds * 1e9):
        for index, query in enumerate(stream.round(k)):
            calls = [(wl.FUNCTIONS[c.name], c.args, dict(c.kwargs)) for c in query.calls]
            outcomes = []
            query_id = f"{k}.{index}"
            c0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            if tracer is not None:
                root = tracer.open(None, query_id, f"query {query.stratum}", t0)
            for call, (fn, args, kwargs) in zip(query.calls, calls):
                if tracer is not None:
                    span = tracer.open(root, query_id, call.name, time.perf_counter_ns())
                try:
                    outcomes.append(fn(*args, **kwargs))
                except Exception as error:  # a failing call is an outcome to record
                    outcomes.append(error)
                if tracer is not None:
                    value = outcomes[-1]
                    status = "ok"
                    if isinstance(value, Exception):
                        status = ("known " if wl.is_known_failure(call, value) else "error ") + type(value).__name__
                    tracer.close(span, time.perf_counter_ns(), status)
            t1 = time.perf_counter_ns()
            cpu += time.process_time_ns() - c0
            if tracer is not None:
                tracer.close(root, t1, "ok")
            latencies.append(t1 - t0)
            measured += t1 - t0
            ledger.review(k, index, query, outcomes)
            gauges.append(gauge())
            normalized += (t1 - t0) * GAUGE_NOMINAL_NS / statistics.median(gauges[-2 * GAUGE_WINDOW:])
        k += 1
    after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "rounds": k,
        "latencies_ns": latencies,
        "normalized_ns": normalize(latencies, gauges),
        "gauges_ns": gauges,
        "measured_ns": measured,
        "cpu_over_wall": cpu / measured,
        "involuntary_context_switches": after.ru_nivcsw - usage.ru_nivcsw,
        "voluntary_context_switches": after.ru_nvcsw - usage.ru_nvcsw,
        "child_cpu_s": (children_after.ru_utime + children_after.ru_stime) - (children.ru_utime + children.ru_stime),
    }


def measure_setup(workload: str, seed: int) -> tuple:
    """Time fresh processes from interpreter start until the library is
    imported and the workload's inputs exist; return times and input digests."""
    cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    times, digests = [], []
    for run in range(SETUP_RUNS + 1):
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode:
            sys.exit(f"perfbench: set-up process failed:\n{proc.stderr}")
        done, digest = proc.stdout.split()
        if run:
            times.append(float(done) - start)
            digests.append(digest)
    return times, digests


def probe(workload: str, seed: int) -> None:
    wl = load_library()
    stream = wl.Stream(workload, seed)
    stream.round(SETUP_ROUNDS - 1)
    # time.monotonic is system-wide on Linux, so the parent can subtract its own start
    done = time.monotonic()
    print(done, wl.stream_digest(stream, SETUP_ROUNDS))


def gauge() -> int:
    """Nanoseconds for a fixed composition-style sum of big-integer binomial
    products, in plain Python and independent of the library."""
    start = time.perf_counter_ns()
    total = 0
    for a in range(48):
        for b in range(48 - a):
            total += math.comb(60 + a, a) * math.comb(60 + b, b)
    return time.perf_counter_ns() - start


def normalize(latencies: list, gauges: list) -> list:
    """Latencies scaled to the nominal gauge; gauges[i] and gauges[i + 1]
    bracket query i."""
    return [
        latency * GAUGE_NOMINAL_NS / statistics.median(gauges[max(0, i - GAUGE_WINDOW + 1): i + GAUGE_WINDOW + 1])
        for i, latency in enumerate(latencies)
    ]


def calibrate(wl) -> float:
    """Milliseconds for a fixed CPU-bound batch of count_offset_words calls."""
    start = time.perf_counter()
    for n in range(40, 60):
        wl.core.count_offset_words(n, (2, -1, 0))
    return (time.perf_counter() - start) * 1e3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_reference(workload: str, seed: int) -> list:
    if seed != PINNED_SEED or not REFERENCE.is_file():
        return []
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["digests"].get(workload, [])


def tail_latency(latencies_ms: list) -> tuple:
    """(value, percentile, samples) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    index = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def run_workload(args) -> int:
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "loadavg_at_start": os.getloadavg(),
    }
    setup_times, setup_digests = measure_setup(args.workload, args.seed)
    wl = load_library()
    import numpy

    facts["numpy"] = numpy.__version__
    facts["process_pool"] = (
        "off the measured path: every call uses the library defaults, so count_offset_words runs with "
        "workers=1; the CLI's workers=0 default would start nproc processes"
    )
    stream = wl.Stream(args.workload, args.seed)
    stream.round(SETUP_ROUNDS - 1)
    own_digest = wl.stream_digest(stream, SETUP_ROUNDS)
    identical = sum(d == own_digest for d in setup_digests)
    problems = [f"inputs differ in a fresh process ({d} != {own_digest})" for d in setup_digests if d != own_digest]
    reference = load_reference(args.workload, args.seed)

    calibration = [calibrate(wl)]
    ledger = Ledger(wl, args.workload, reference)
    tracer = Tracer() if args.trace else None
    loop = closed_loop(wl, stream, ledger, seconds=args.seconds, tracer=tracer)
    calibration.append(calibrate(wl))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems += ledger.problems

    latencies_ms = [ns / 1e6 for ns in loop["latencies_ns"]]
    normalized_ms = [ns / 1e6 for ns in loop["normalized_ns"]]
    tail, tail_pct, samples = tail_latency(latencies_ms)
    ok = ledger.attempted - ledger.failed - len(ledger.known)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "throughput_norm_qps": samples / (sum(normalized_ms) / 1e3),
        "latency_p50_norm_ms": statistics.median(normalized_ms),
        "latency_tail_norm_ms": tail_latency(normalized_ms)[0],
        "ok_frac": ok / ledger.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    raw = {
        "throughput_qps": samples / (loop["measured_ns"] / 1e9),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_tail_ms": tail,
    }
    gauges_ms = sorted(ns / 1e6 for ns in loop["gauges_ns"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": facts,
        "end_to_end": end_to_end,
        "raw": raw,
        "failed_frac": 1 - end_to_end["ok_frac"],
        "latency_tail": {"percentile": tail_pct, "samples": samples},
        "setup_times_s": setup_times,
        "steadiness": {
            "calibration_ms_before_after": calibration,
            "gauge_ms": {"nominal": GAUGE_NOMINAL_NS / 1e6, "min": gauges_ms[0],
                         "median": statistics.median(gauges_ms), "max": gauges_ms[-1]},
            "cpu_over_wall": loop["cpu_over_wall"],
            "involuntary_context_switches": loop["involuntary_context_switches"],
            "voluntary_context_switches": loop["voluntary_context_switches"],
            "child_process_cpu_s": loop["child_cpu_s"],
            "inputs_identical_in_fresh_processes": f"{identical} of {len(setup_digests)}",
        },
        "rounds": loop["rounds"],
        "attempted": ledger.attempted,
        "known_overflow": ledger.known,
        "unexpected_failures": ledger.unexpected,
        "problems": problems,
    }

    if args.trace:
        # Replay the traced rounds untraced: the time difference is the
        # tracing overhead, and the exact results must repeat bit for bit.
        replay_ledger = Ledger(wl, args.workload, check=False)
        replay = closed_loop(wl, stream, replay_ledger, rounds=loop["rounds"])
        if replay_ledger.digests != ledger.digests:
            problems.append("exact results changed when the traced rounds were replayed")
        per_layer = {}
        busy = Counter()
        calls = Counter()
        for span in tracer.spans:
            if span[1] is not None:
                calls[span[3]] += 1
                busy[span[3]] += span[5] - span[4]
        for name in wl.FUNCTIONS:
            per_layer[f"{name}.calls"] = (calls[name], "count")
            per_layer[f"{name}.busy_s"] = (busy[name] / 1e9, "s")
            per_layer[f"{name}.failed"] = (ledger.failed_by_function[name], "count")
        counts = wl.round_counts(stream, ledger.round0)
        for name, unit in COUNT_UNITS.items():
            per_layer[name] = (counts[name], unit)
        # paired by query and normalized, so host drift between the two
        # passes cancels
        paired = [t / u for t, u in zip(loop["normalized_ns"], replay["normalized_ns"])]
        per_layer["trace.overhead_frac"] = (statistics.median(paired) - 1, "ratio")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in per_layer.items()}
        record["per_layer"] = metrics
        record["counts_note"] = ("computed from round 0's inputs and exact results (repeat_frac: from the first "
                                 f"{wl.REPEAT_ROUNDS} rounds' inputs); they repeat exactly for a seed")
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["id", "parent", "query", "name", "start_ns", "end_ns", "status"], "spans": tracer.spans}, handle)
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in end_to_end.items()}

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    report(record, metrics)
    result = {"correct": not problems, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def report(record: dict, metrics: dict) -> None:
    e2e = record["end_to_end"]
    steady = record["steadiness"]
    facts = record["facts"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['latency_tail']['samples']} queries in {record['rounds']} rounds")
    for name, value in e2e.items():
        print(f"  {name:22s} {value:12.6g} {END_TO_END_UNITS[name]}")
    for name, value in record["raw"].items():
        print(f"  {name:22s} {value:12.6g} {RAW_UNITS[name]}  (raw)")
    print(f"  the tail latencies are p{record['latency_tail']['percentile']:.1f} of "
          f"{record['latency_tail']['samples']} samples")
    print(f"  failed_frac            {record['failed_frac']:12.6g} ratio  ({len(record['unexpected_failures'])} unexpected, "
          f"{len(record['known_overflow'])} documented overflow, of {record['attempted']} calls)")
    print(f"machine: nproc={facts['nproc']} cpu={facts['cpu_model']!r} python={facts['python']} "
          f"numpy={facts['numpy']} loadavg={' '.join(f'{v:.2f}' for v in facts['loadavg_at_start'])}")
    print(f"process pool: {facts['process_pool']}; child-process CPU during the loop "
          f"{steady['child_process_cpu_s']:.3f} s")
    before, after = steady["calibration_ms_before_after"]
    gauge_ms = steady["gauge_ms"]
    print(f"steadiness: count_offset_words batch {before:.1f} ms before, {after:.1f} ms after; gauge "
          f"{gauge_ms['min']:.3f}/{gauge_ms['median']:.3f}/{gauge_ms['max']:.3f} ms min/median/max "
          f"(nominal {gauge_ms['nominal']:.3f}); cpu/wall {steady['cpu_over_wall']:.3f}; "
          f"{steady['involuntary_context_switches']} involuntary context switches")
    if "per_layer" in record:
        for name, metric in metrics.items():
            print(f"  {name:52s} {metric['value']:14.6g} {metric['unit']}")
    for entry in record["known_overflow"]:
        print(f"documented overflow: {entry}")
    for entry in record["unexpected_failures"] + record["problems"]:
        print(f"FAILED: {entry}")


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOAD_NAMES[0]]["metrics"])
    print(f"\n{'metric':52s}" + "".join(f"{w:>16s}" for w in WORKLOAD_NAMES))
    for name in names:
        unit = results[WORKLOAD_NAMES[0]]["metrics"][name]["unit"]
        cells = "".join(f"{results[w]['metrics'][name]['value']:16.6g}" for w in WORKLOAD_NAMES)
        print(f"{name + ' [' + unit + ']':52s}{cells}")
    print(json.dumps(results))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def record_reference() -> int:
    """Pin the exact results of the pinned seed's first rounds."""
    wl = load_library()
    digests = {}
    for workload in WORKLOAD_NAMES:
        stream = wl.Stream(workload, PINNED_SEED)
        ledger = Ledger(wl, workload, deep_every=1)
        closed_loop(wl, stream, ledger, rounds=REFERENCE_ROUNDS)
        if ledger.unexpected or ledger.problems:
            print("\n".join(ledger.unexpected + ledger.problems), file=sys.stderr)
            return 1
        width = len(stream.round(0))
        digests[workload] = [ledger.digests[i:i + width] for i in range(0, len(ledger.digests), width)]
        print(f"{workload}: {REFERENCE_ROUNDS} rounds pinned, {len(ledger.known)} documented overflows", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump({"seed": PINNED_SEED, "rounds": REFERENCE_ROUNDS, "digests": digests}, handle, indent=0)
        handle.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=21.0, help="normalized query time to measure; whole rounds run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true", help="rewrite reference.json")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.probe:
        probe(args.workload, args.seed)
        return 0
    if args.record_reference:
        return record_reference()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
