"""qsectors benchmark: four closed-loop workloads, one client, one process.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--smoke]

The first form runs one workload.  With ``--trace 0`` it times rounds of
operations until about S seconds of operation time have passed and reports
the end-to-end metrics; with ``--trace 1`` it alternates an untraced and a
traced pass over the first round and reports per-layer metrics.  End-to-end
times are scaled to a nominal CPU speed by a calibration loop run before
every timed op (see CAL_LOOP below).  Either way
every output is checked afterwards, and the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Known-defect
probes (workloads.KNOWN_DEFECTS) run after the timed loop; they are reported
by name on stderr and in the result file, not in ``correct``.  A full result
(the metrics of BENCHMARK.json, the report-only ones of bench/metrics.json,
check outcomes by name, versions) is written to bench/out/, and traced runs
also write their spans there.

``--all`` runs every workload untraced and then traced, one child process
at a time, and prints every metric by name and unit.  ``--smoke`` runs
tiny sizes, for the benchmark's own tests (bench/test_bench.py).

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2.
"""

from __future__ import annotations

import os
import sys

_PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in _PINNED.items()):
    # pin thread pools and hashing before numpy loads; exec keeps one process
    os.environ.update(_PINNED)
    os.execv(sys.executable, [sys.executable] + sys.argv)

if __name__ == "__main__" and hasattr(os, "sched_setaffinity"):
    # one CPU for the benchmark and every child it starts, so the calibration
    # loop below measures the CPU that runs the timed work
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")

if not os.path.isfile(os.path.join(SRC, "qsectors", "__init__.py")):
    print(f"bench: no qsectors package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

T_START = time.perf_counter()

import numpy as np  # noqa: E402

import qsectors  # noqa: E402

import workloads  # noqa: E402
from tracer import LAYERS, Tracer, CONSTRUCTORS  # noqa: E402

if os.path.dirname(os.path.abspath(qsectors.__file__)) != os.path.join(SRC, "qsectors"):
    print(f"bench: imported qsectors from {qsectors.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

SETUP_PROBES = 3
# On a shared host the CPU speed can drift by +-20% over seconds, alike for
# every kind of code, so timed work is scaled by a fixed pure-Python loop run
# beside it: times are reported at the speed at which that loop takes
# CAL_NOMINAL_S.  The wall times are kept in the result file as *_wall.
CAL_LOOP = 16_000
CAL_NOMINAL_S = 1.0e-3
IMPORT_PROBES = 3
CHILD_TIMEOUT = 120.0
BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")  # metric names and units
SPEC_PATH = os.path.join(ROOT, "bench", "metrics.json")  # definitions and report-only metrics


def child_env() -> dict:
    env = dict(os.environ)
    env.update(_PINNED)
    env["PYTHONPATH"] = SRC
    return env


# -- CLI children --------------------------------------------------------------


class CliSpawner:
    """Runs one CLI child at a time and reaps it with its resource usage."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.env = child_env()
        self.tracer = tracer
        self.max_rss_kb = 0
        self.stdout_bytes = 0
        os.makedirs(OUT, exist_ok=True)
        self.base = os.path.join(OUT, f"child-{os.getpid()}")

    def __call__(self, argv: list[str], traced: bool) -> tuple[int, bytes]:
        out_path, err_path, snap_path = (self.base + ext for ext in (".out", ".err", ".snap"))
        if traced:
            cmd = [sys.executable, os.path.join(ROOT, "bench", "tracecli.py"), snap_path, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "qsectors.cli", *argv]
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
        ]
        pid = os.posix_spawn(sys.executable, cmd, self.env, file_actions=actions)
        timer = threading.Timer(CHILD_TIMEOUT, _kill, (pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            timer.cancel()
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        self.stdout_bytes += len(stdout)
        if traced and self.tracer is not None and os.path.exists(snap_path):
            with open(snap_path, encoding="utf-8") as fh:
                self.tracer.merge(json.load(fh), self.tracer.op_id)
            os.unlink(snap_path)
        return os.waitstatus_to_exitcode(status), stdout

    def close(self) -> None:
        for ext in (".out", ".err", ".snap"):
            if os.path.exists(self.base + ext):
                os.unlink(self.base + ext)


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# -- speed calibration -------------------------------------------------------


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def speed_factor(cals: list[float]) -> float:
    """Multiplier that takes wall times measured beside ``cals`` to nominal speed."""
    return CAL_NOMINAL_S / statistics.median(cals)


# -- set-up ----------------------------------------------------------------


def set_up(name: str, seed: int, smoke: bool, tracer: Tracer | None = None):
    """Build the workload, generate its first round and warm every op kind."""
    wl = workloads.build(name, seed, ROOT, smoke)
    spawner = None
    if isinstance(wl, workloads.CliCalls):
        spawner = CliSpawner(tracer)
        wl.spawn = spawner
    wl.round(0)
    for op in wl.warmup():
        op.run()
    return wl, spawner


def probe_setup(name: str, seed: int, smoke: bool) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh benchmark process to its first timed op.

    Returns the wall times and the same times at nominal speed, each scaled
    by calibration loops run just before and just after its probe."""
    times, scaled = [], []
    cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    for _ in range(SETUP_PROBES):
        cals = [calibrate() for _ in range(3)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              env=child_env(), cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        cals += [calibrate() for _ in range(3)]
        times.append(t1 - t0)
        scaled.append((t1 - t0) * speed_factor(cals))
    return times, scaled


def import_split() -> dict:
    """Median cumulative import time of qsectors and of scipy inside it."""
    totals, scipys = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qsectors"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT, check=True)
        total, scipy_us = parse_importtime(proc.stderr)
        totals.append(total)
        scipys.append(scipy_us)
    return {"cli.import_s": statistics.median(totals) / 1e6,
            "cli.import_scipy_s": statistics.median(scipys) / 1e6}


def parse_importtime(text: str) -> tuple[int, int]:
    """(cumulative us of qsectors, summed cumulative us of outermost scipy imports)."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # header
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), cumulative))
    total = 0
    scipy_us = 0
    stack: list[tuple[int, bool]] = []  # children precede parents, so walk backwards
    for indent, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            scipy_us += cumulative
        if name == "qsectors":
            total = cumulative
        stack.append((indent, is_scipy))
    return total, scipy_us


# -- timing ----------------------------------------------------------------


@dataclasses.dataclass
class Sample:
    key: tuple
    op: workloads.Op
    seconds: float
    output: object
    error: str | None
    scaled: float = 0.0  # seconds at nominal speed


@dataclasses.dataclass
class Round:
    ops: int
    seconds: float
    scaled: float
    sites: int
    factor: float


def run_op(key, op, tracer=None, op_id=0) -> Sample:
    if tracer is not None:
        tracer.op_id = op_id
    t0 = time.perf_counter()
    try:
        out = op.run()
        err = None
    except Exception as exc:  # an op that raises is counted as failed
        out, err = None, f"{type(exc).__name__}: {exc}"
    return Sample(key, op, time.perf_counter() - t0, out, err)


def timed_rounds(wl, seconds: float) -> tuple[list[Sample], list[Round]]:
    """Whole rounds until the next one would end past ``seconds`` of op time.

    A calibration loop runs before every op and after a round's last op;
    each op is scaled to nominal speed by the mean of the calibrations just
    before and just after it."""
    samples: list[Sample] = []
    rounds: list[Round] = []
    busy = 0.0
    while True:
        r = len(rounds)
        done: list[Sample] = []
        cals = [calibrate()]
        spent = 0.0
        sites = 0
        for i, op in enumerate(wl.round(r)):
            s = run_op((r % workloads.POOL, i), op)
            cals.append(calibrate())
            s.scaled = s.seconds * speed_factor(cals[-2:])
            done.append(s)
            spent += s.seconds
            sites += op.sites
            if busy + spent > 4 * seconds:  # a pathological slowdown still ends the run
                break
        samples += done
        rounds.append(Round(len(done), spent, sum(s.scaled for s in done), sites, speed_factor(cals)))
        busy += spent
        if len(done) < len(wl.round(r)) or busy + busy / len(rounds) > seconds:
            return samples, rounds


# -- checking --------------------------------------------------------------


def fingerprint(x) -> str:
    if isinstance(x, np.ndarray):
        return f"{x.dtype.str}{x.shape}{x.tobytes().hex()}"
    if isinstance(x, (list, tuple)):
        return "(" + ",".join(fingerprint(v) for v in x) + ")"
    if isinstance(x, dict):
        return "{" + ",".join(f"{k!r}:{fingerprint(v)}" for k, v in sorted(x.items())) + "}"
    if dataclasses.is_dataclass(x):
        return type(x).__name__ + fingerprint([getattr(x, f.name) for f in dataclasses.fields(x)])
    return repr(x)


def check_samples(samples: list[Sample]) -> tuple[int, dict, list]:
    """Check every sample; repeats of an op must match its first output exactly.

    Returns (failed op count, {check name: [passed, failed]}, failure notes).
    """
    first: dict = {}
    tally: dict[str, list[int]] = {}
    notes = []
    failed = 0

    def note(name, ok):
        tally.setdefault(name, [0, 0])[0 if ok else 1] += 1

    for s in samples:
        if s.error is not None:
            note("no-error", False)
            failed += 1
            notes.append({"op": s.op.kind, "check": "no-error", "detail": s.error[:300]})
            continue
        fp = fingerprint(s.output)
        if s.key not in first:
            try:
                results = s.op.check(s.output)
            except Exception:  # an output the check cannot read counts as failed
                results = [("check-ran", False)]
            first[s.key] = (fp, all(ok for _, ok in results))
            for name, ok in results:
                note(name, ok)
                if not ok:
                    notes.append({"op": s.op.kind, "key": list(s.key), "check": name})
            ok_all = first[s.key][1]
        else:
            same = fp == first[s.key][0]
            note("repeat-identical", same)
            if not same:
                notes.append({"op": s.op.kind, "key": list(s.key), "check": "repeat-identical"})
            ok_all = same and first[s.key][1]
        if not ok_all:
            failed += 1
    return failed, tally, notes


def known_defects(name: str, seed: int, smoke: bool) -> dict:
    """Run the workload's known-defect probes after the timed loop.

    Returns {defect: {"probes", "failing", "note"}}; these outcomes are
    reported by name but do not enter the run's ``correct`` flag."""
    wl = workloads.build(name, seed, ROOT, smoke)
    out: dict[str, dict] = {}
    try:
        for defect, op in wl.known_defects():
            s = run_op(None, op)
            failing = s.error is not None
            if not failing:
                try:
                    failing = not all(ok for _, ok in op.check(s.output))
                except Exception:  # an output the check cannot read counts as failing
                    failing = True
            entry = out.setdefault(defect, {"probes": 0, "failing": 0,
                                            "note": workloads.KNOWN_DEFECTS[defect]})
            entry["probes"] += 1
            entry["failing"] += failing
    finally:
        wl.close()
    return out


# -- metrics ---------------------------------------------------------------


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def environment(seed: int) -> dict:
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def untraced_run(name, seed, seconds, smoke):
    clock = [time.perf_counter()]

    def lap():
        clock.append(time.perf_counter())
        return clock[-1] - clock[-2]

    wl, spawner = set_up(name, seed, smoke)
    phases = {"set_up_s": lap()}
    setups, setups_scaled = probe_setup(name, seed, smoke)
    phases["probes_s"] = lap()
    samples, rounds = timed_rounds(wl, seconds)
    phases["loop_s"] = lap()
    self_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, tally, notes = check_samples(samples)
    phases["checks_s"] = lap()
    times = sorted(s.scaled for s in samples)
    n = len(samples)
    ok = sum(s.error is None for s in samples)
    rss_kb = spawner.max_rss_kb if spawner is not None else self_rss_kb
    scaled = sum(r.scaled for r in rounds)
    wall = sum(r.seconds for r in rounds)
    metrics = {
        "setup_s": statistics.median(setups_scaled),
        "ops_per_s": ok / scaled,
        "op_p50_s": statistics.median(times),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "setup_s_wall_samples": setups,
        "setup_s_samples": setups_scaled,
        "setup_s_wall": statistics.median(setups),
        "ops_per_s_wall": ok / wall,
        "op_p50_s_wall": statistics.median(s.seconds for s in samples),
        "op_count": n,
        "rounds": len(rounds),
        "round_s": [r.seconds for r in rounds],
        "round_speed_factor": [r.factor for r in rounds],
        "phases": phases,
        "failed_fraction": failed / n,
    }
    if n >= 100:
        extra["op_p90_s"] = statistics.quantiles(times, n=10)[-1]
    if name in ("long-walk", "wide-brackets"):
        extra["sites_per_s"] = sum(r.sites for r in rounds) / scaled
    by_kind: dict[str, list[float]] = {}
    for s in samples:
        by_kind.setdefault(s.op.kind, []).append(s.scaled)
    extra["op_kinds"] = {k: {"count": len(v), "p50_s": statistics.median(v)} for k, v in sorted(by_kind.items())}
    wl.close()
    if spawner is not None:
        spawner.close()
    return metrics, extra, failed, n, tally, notes, []


def traced_run(name, seed, seconds, smoke):
    tracer = Tracer()
    wl, spawner = set_up(name, seed, smoke, tracer)
    ops = wl.round(0)
    samples: list[Sample] = []
    plain_s = traced_s = 0.0
    passes: list[dict] = []
    wall0 = time.perf_counter()
    while True:
        for i, op in enumerate(ops):
            s = run_op((0, i), op)
            plain_s += s.seconds
            samples.append(s)
        tracer.reset()
        tracer.install()
        wl.traced = True
        stdout0 = spawner.stdout_bytes if spawner else 0
        try:
            for i, op in enumerate(ops):
                s = run_op((0, i), op, tracer, op_id=i + 1)
                traced_s += s.seconds
                samples.append(s)
        finally:
            wl.traced = False
            tracer.uninstall()
        layer = tracer.layer_totals()
        passes.append({
            "counts": tracer.work_counts(),
            "busy": {k: v["busy_s"] for k, v in layer.items()},
            "construct_busy_s": tracer.name_busy(*CONSTRUCTORS),
            "factor_overlap_busy_s": tracer.name_busy("factor_overlap"),
            "stdout_bytes": (spawner.stdout_bytes - stdout0) if spawner else 0,
            "spans": list(tracer.spans),
            "dropped_spans": tracer.dropped_spans,
        })
        elapsed = time.perf_counter() - wall0
        if elapsed + elapsed / len(passes) > seconds:
            break
    # the checker runs traced too, which is the only place the oracle is used
    tracer.reset()
    tracer.install()
    tracer.op_id = -1
    try:
        failed, tally, notes = check_samples(samples)
    finally:
        tracer.uninstall()
    oracle_totals = tracer.layer_totals()["oracle"]
    counts_repeat = all(p["counts"] == passes[0]["counts"] for p in passes)
    tally.setdefault("trace-counts-repeat", [0, 0])[0 if counts_repeat else 1] += 1

    first = passes[0]
    counts = first["counts"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0)
        metrics[f"{layer}.busy_s"] = statistics.median(p["busy"][layer] for p in passes)
        metrics[f"{layer}.errors"] = counts.get(f"{layer}.errors", 0)
    metrics["oracle.calls"] = oracle_totals["calls"]
    metrics["oracle.busy_s"] = oracle_totals["busy_s"]
    metrics["oracle.errors"] = oracle_totals["errors"]
    metrics.update(import_split())
    metrics["cli.stdout_bytes"] = first["stdout_bytes"]
    metrics["serialize.json_bytes"] = counts.get("serialize.json_bytes", 0)
    metrics["states.vectors_built"] = counts["states.vectors_built"]
    metrics["states.construct_busy_s"] = statistics.median(p["construct_busy_s"] for p in passes)
    metrics["states.factor_at_calls"] = counts["states.factor_at_calls"]
    metrics["states.factor_overlap_calls"] = counts["states.factor_overlap_calls"]
    metrics["states.factor_overlap_busy_s"] = statistics.median(p["factor_overlap_busy_s"] for p in passes)
    metrics["states.amplitudes_bracketed"] = counts.get("states.amplitudes_bracketed", 0)
    requested = counts.get("overlaps.sites_requested", 0)
    metrics["overlaps.sites_requested"] = requested
    metrics["overlaps.brackets_per_requested_site"] = (
        counts.get("overlaps.walk_brackets", 0) / requested if requested else 0.0
    )
    metrics["products.terms_examined"] = counts.get("products.terms_examined", 0)
    metrics["products.term_fn_calls"] = counts.get("products.term_fn_calls", 0)
    metrics["sectors.probe_sites"] = counts.get("sectors.probe_sites", 0)
    metrics["decoherence.horizon_sites"] = counts.get("decoherence.horizon_sites", 0)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    extra = {
        "passes": len(passes),
        "untraced_pass_s": plain_s / len(passes),
        "traced_pass_s": traced_s / len(passes),
        "work_counts": counts,
        "dropped_spans": first["dropped_spans"],
    }
    wl.close()
    if spawner is not None:
        spawner.close()
    return metrics, extra, failed, len(samples), tally, notes, first["spans"]


def run_one(args) -> int:
    seconds = float(args.seconds)
    runner = traced_run if args.trace else untraced_run
    metrics, extra, failed, attempted, tally, notes, spans = runner(
        args.workload, args.seed, seconds, args.smoke
    )
    defects = known_defects(args.workload, args.seed, args.smoke)
    wanted = load_json(BENCHMARK_PATH)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    correct = failed == 0 and tally.get("trace-counts-repeat", [0, 0])[1] == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{int(args.trace)}{'-smoke' if args.smoke else ''}"
    detail = {
        "workload": args.workload,
        "trace": bool(args.trace),
        "seconds": seconds,
        "environment": environment(args.seed),
        "result": result,
        "details": extra,
        "checks": {k: {"passed": v[0], "failed": v[1]} for k, v in sorted(tally.items())},
        "failures": notes[:200],
        "known_defects": defects,
        "wall_s": time.perf_counter() - T_START,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    if spans:
        with open(os.path.join(OUT, f"spans-{tag}.jsonl"), "w", encoding="utf-8") as fh:
            for span_id, parent, op_id, layer, name, t0, t1 in spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id, "layer": layer,
                                     "name": name, "start": t0, "end": t1}) + "\n")
    report(args.workload, detail, file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


def report(name: str, detail: dict, file) -> None:
    res = detail["result"]
    env = detail["environment"]
    print(f"[{name}] seed={env['seed']} nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} trace={int(detail['trace'])}", file=file)
    print(f"[{name}] attempted={res['attempted']} failed={res['failed']} correct={res['correct']}", file=file)
    for key, m in res["metrics"].items():
        print(f"[{name}]   {key} = {m['value']:.6g} {m['unit']}", file=file)
    for key, value in sorted(detail["details"].items()):
        if isinstance(value, (int, float)):
            print(f"[{name}]   ({key} = {value:.6g})", file=file)
    for check, tally in detail["checks"].items():
        print(f"[{name}]   check {check}: {tally['passed']} passed, {tally['failed']} failed", file=file)
    for defect, d in detail["known_defects"].items():
        print(f"[{name}]   known defect {defect}: {d['failing']} of {d['probes']} probes fail ({d['note']})",
              file=file)


def run_all(args) -> int:
    """Every workload, untraced then traced, one child at a time."""
    bench = load_json(BENCHMARK_PATH)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    units.update({m["name"]: m["unit"] for m in load_json(SPEC_PATH)["report_only"]})
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                ok = False
                continue
            tag = f"{name}-s{args.seed}-t{trace}{'-smoke' if args.smoke else ''}"
            with open(os.path.join(OUT, f"result-{tag}.json"), encoding="utf-8") as fh:
                detail = json.load(fh)
            res = detail["result"]
            print(f"== {name} (trace {trace}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            rows = {k: v["value"] for k, v in res["metrics"].items()}
            for key in ("failed_fraction", "op_p90_s", "sites_per_s",
                        "setup_s_wall", "ops_per_s_wall", "op_p50_s_wall"):
                if key in detail["details"]:
                    rows[key] = detail["details"][key]
            for key, value in rows.items():
                print(f"  {key:40s} {value:14.6g} {units[key]}")
            for check, tally in detail["checks"].items():
                print(f"  check {check:34s} {tally['passed']:6d} passed {tally['failed']:6d} failed")
            for defect, d in detail["known_defects"].items():
                print(f"  known defect {defect:27s} {d['failing']:6d} of {d['probes']} probes fail")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required unless --all is given")
    if args.setup_probe:
        wl, spawner = set_up(args.workload, args.seed, args.smoke)
        print("ready", flush=True)
        wl.close()
        if spawner is not None:
            spawner.close()
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
