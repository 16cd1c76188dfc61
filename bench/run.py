"""primerec benchmark: four CLI workloads, checked outputs, traced layers.

Usage (from the repository root)::

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Every timed repetition is a fresh interpreter (``bench/child.py``) that
imports ``primerec`` from ``src`` and calls ``primerec.cli.run``, because
each user invocation pays cold process-level caches (the
``enumerate_characters`` cache, the per-precision constant and root caches).
Repetitions run back to back until ``--seconds`` have passed.  Outputs are
checked against independent routes (``bench/checks.py``) after the clock
stops.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Workloads (the seed draws inputs from fixed bands, so every seed costs the
same order):

* ``sweep``  - ``sweep --n 2`` over 101 consecutive s from s0 in [1850, 1900].
  mpnum ln/exp/inv_root at 4-5.3k bits; no characters, no fan-out.  The
  cost of a window grows 15% from s0 = 1800 to 1900, so the band is kept
  to its upper half.
* ``slopes`` - ``slopes --n-min 2 --n-max 30 --workers 2`` over 131
  consecutive s from s0 in [20, 30].  Per-term l_partial_sum ring work and
  character lookups; 29 process pools.
* ``tables`` - ``chars --modulus K`` (K prime in [960, 1000]) then
  ``dtable --n-list 3..8 --s 50 --moduli 4,5,8,9,P`` (P prime in [89, 113])
  in one interpreter.  Cold character enumeration and ~1M CSV rows.
* ``selftest`` - ``selftest``; the seed is unused.  Oracle and CharValue
  algebra.

Times are reported in reference seconds: the measured wall time scaled by
the CPU speed that ``bench/speed.py`` samples while the time is measured,
relative to a fixed reference speed.  On a shared machine the speed of a CPU
swings two- to threefold within seconds, which would swamp any change to
primerec; the measured wall times are printed next to the scaled ones.

End-to-end metrics (``--trace 0``), medians over the run's repetitions:

* ``wall_s``       - time of the ``cli.run`` call(s) after import.
* ``setup_s``      - interpreter start until ``primerec`` and ``primerec.cli``
  are imported and the parser is built (extra set-up-only interpreters are
  started so the median rests on several samples).
* ``peak_rss_mib`` - peak resident set of the workload interpreter plus, for
  a pool of W workers, W times the largest worker's peak (a sum-of-RSS bound).
* ``ok_share``     - 1 - fail_share, where fail_share is failed operations
  over attempted ones (an operation is one output row, or one selftest
  suite); reported this way so the metric is never 0.

``--trace 1`` runs the same inputs with spans recorded around every public
function of each layer (``bench/tracer.py``), ``slopes`` at one worker so
that all spans stay in one process, next to untraced runs of the same
configuration, and reports the per-layer metrics named in BENCHMARK.json.
Spans are written to ``.bench_run/<workload>.spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
RUN_LIMIT_S = 170.0  # whole run, set-up and checks included
SETUP_SAMPLES = 7
WORKLOADS = ("sweep", "slopes", "tables", "selftest")


class BenchError(Exception):
    pass


def _primes_in(lo: int, hi: int) -> list:
    return [m for m in range(lo, hi + 1) if m > 1 and all(m % d for d in range(2, int(m**0.5) + 1))]


def make_plan(workload: str, seed: int) -> dict:
    """Inputs for one run, drawn from the workload's seed band."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep":
        s0 = rng.randint(1850, 1900)
        cmd = ["sweep", "--n", "2", "--s-min", str(s0), "--s-max", str(s0 + 100), "--workers", "1"]
        return {"commands": [cmd], "pool": 0, "s_min": s0, "s_max": s0 + 100}
    if workload == "slopes":
        s0 = rng.randint(20, 30)
        cmd = ["slopes", "--n-min", "2", "--n-max", "30", "--s-min", str(s0), "--s-max", str(s0 + 130)]
        return {
            "commands": [cmd + ["--workers", "2"]],
            "trace_commands": [cmd + ["--workers", "1"]],
            "pool": 2,
            "s_min": s0,
            "s_max": s0 + 130,
        }
    if workload == "tables":
        k = rng.choice(_primes_in(960, 1000))
        p = rng.choice(_primes_in(89, 113))
        moduli = [4, 5, 8, 9, p]
        return {
            "commands": [
                ["chars", "--modulus", str(k)],
                ["dtable", "--n-list", "3,4,5,6,7,8", "--s", "50",
                 "--moduli", ",".join(map(str, moduli)), "--workers", "1"],
            ],
            "pool": 0,
            "k": k,
            "moduli": moduli,
        }
    return {"commands": [["selftest"]], "pool": 0}


def check_outputs(workload: str, plan: dict, texts: list, codes: list, seed: int) -> tuple:
    """(attempted, failed) for one repetition's outputs."""
    import checks

    rng = random.Random(f"{workload}/{seed}/check")
    if workload == "selftest":
        return checks.check_selftest(texts[0], codes[0])
    if workload == "sweep":
        attempted, failed = checks.check_sweep(texts[0], plan["s_min"], plan["s_max"])
    elif workload == "slopes":
        attempted, failed = checks.check_slopes(texts[0], 2, 30, plan["s_min"], plan["s_max"], rng)
    else:
        a1, f1 = checks.check_chars(texts[0], plan["k"], rng)
        a2, f2 = checks.check_dtable(texts[1], (3, 4, 5, 6, 7, 8), 50, plan["moduli"])
        attempted, failed = a1 + a2, f1 + f2
    return attempted, attempted if any(codes) else failed


def repeat_failures(verified: dict, rep: dict, ops: int) -> int:
    """Failed operations of a repetition whose inputs match ``verified``:
    every operation if a command failed, else one per differing line."""
    if any(rep["codes"]):
        return ops
    diff = 0
    for a, b in zip(verified["texts"], rep["texts"]):
        if a != b:
            la, lb = a.splitlines(), b.splitlines()
            diff += abs(len(la) - len(lb)) + sum(x != y for x, y in zip(la, lb))
    return min(ops, diff)


class Runner:
    """Starts workload interpreters and stops each one it starts."""

    def __init__(self, workload: str, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.env.pop("PRIMEREC_WORKERS", None)
        self.count = 0

    def spawn(self, commands=None, trace=False, count_pools=False) -> dict:
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError(f"run exceeded its {RUN_LIMIT_S:.0f} s limit")
        self.count += 1
        outputs = [str(RUN_DIR / f"{self.workload}.{self.count}.{i}.out") for i in range(len(commands or ()))]
        spec = {"commands": commands, "outputs": outputs, "count_pools": count_pools}
        if trace:
            spec["trace"] = str(RUN_DIR / f"{self.workload}.spans")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} interpreter ran past the run's time limit") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # the child and any stray worker
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"{self.workload} interpreter exited with {proc.returncode}:\n{err}")
        if err:
            sys.stderr.write(err)
        res = json.loads(out.strip().splitlines()[-1])
        # perf_counter is CLOCK_MONOTONIC on Linux, one clock for all processes
        res["setup_raw_s"] = res["ready"] - t0
        res["setup_s"] = res["setup_raw_s"] * res["setup_speed"]
        if commands:
            res["wall_raw_s"] = res["wall_s"]
            res["wall_s"] *= res["speed"]
        res["texts"] = []
        for path in outputs:
            with open(path, encoding="utf-8") as fh:
                res["texts"].append(fh.read())
            os.remove(path)
        return res


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _line(name: str, values: list, unit: str) -> str:
    q1, q3 = _quartiles(values)
    return (f"{name:14s} median {statistics.median(values):.6g} {unit}  "
            f"q1 {q1:.6g}  q3 {q3:.6g}  ({len(values)} samples)")


def run_e2e(workload: str, plan: dict, seed: int, seconds: int, runner: Runner) -> dict:
    runner.spawn()  # untimed: byte-compiles the package and warms the file cache
    starts = [runner.spawn() for _ in range(SETUP_SAMPLES)]
    reps = []
    t0 = time.perf_counter()
    while not reps or time.perf_counter() - t0 < seconds:
        reps.append(runner.spawn(plan["commands"]))
    starts += reps
    setups = [r["setup_s"] for r in starts]

    ops, failed = check_outputs(workload, plan, reps[0]["texts"], reps[0]["codes"], seed)
    failed += sum(repeat_failures(reps[0], r, ops) for r in reps[1:])
    attempted = ops * len(reps)

    walls = [r["wall_s"] for r in reps]
    rss = [(r["rss_self_kib"] + plan["pool"] * r["rss_children_kib"]) / 1024 for r in reps]
    print(_line("wall_s", walls, "s"))
    print(_line("  measured", [r["wall_raw_s"] for r in reps], "s"))
    print(_line("setup_s", setups, "s"))
    print(_line("  measured", [r["setup_raw_s"] for r in starts], "s"))
    print(_line("peak_rss_mib", rss, "MiB"))
    print(f"{'fail_share':14s} {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
        "ok_share": {"value": 1 - failed / attempted, "unit": "ratio"},
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run_traced(workload: str, plan: dict, seed: int, seconds: int, runner: Runner) -> dict:
    import tracer

    tracer.self_check()  # raises if the self-time arithmetic is wrong
    commands = plan["commands"]
    trace_commands = plan.get("trace_commands", commands)
    runner.spawn()  # untimed warm-up, as in run_e2e
    rounds = []
    attempted = failed = 0
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        traced = runner.spawn(trace_commands, trace=True)
        base = runner.spawn(trace_commands, count_pools=trace_commands == commands)
        e2e = base if trace_commands == commands else runner.spawn(commands, count_pools=True)
        if traced.get("missing"):
            print(f"warning: not traced: {', '.join(traced['missing'])}", file=sys.stderr)
        layers = {
            name: value * traced["speed"] if name.endswith(("_s", ".s", "us_per_call")) else value
            for name, value in traced["layers"].items()
        }
        layers["trace.overhead"] = traced["wall_s"] / base["wall_s"]
        pool = plan["pool"]
        layers["analysis.fanout_eff"] = base["wall_s"] / (pool * e2e["wall_s"]) if pool else 0.0
        layers["analysis.pools"] = e2e["counters"].get("analysis.pools", 0)
        layers["cli.out_bytes"] = sum(len(t.encode()) for t in traced["texts"])
        rounds.append(layers)

        ops, f = check_outputs(workload, plan, base["texts"], base["codes"], seed)
        f += sum(repeat_failures(base, other, ops) for other in (traced, e2e) if other is not base)
        attempted += ops
        failed += min(f, ops)

    metrics = {}
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    for entry in per_layer:
        name, unit = entry["name"], entry["unit"]
        values = [r[name] for r in rounds]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"{name:34s} {metrics[name]['value']:.6g} {unit}")
    print(f"{'fail_share':34s} {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "primerec" / "cli.py").is_file():
        print(f"error: no primerec sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUN_DIR.mkdir(exist_ok=True)
    plan = make_plan(args.workload, args.seed)
    runner = Runner(args.workload, time.perf_counter() + RUN_LIMIT_S)
    print(f"workload {args.workload} seed {args.seed}: "
          + " ; ".join(" ".join(c) for c in plan["commands"]))
    try:
        run = run_traced if args.trace else run_e2e
        result = run(args.workload, plan, args.seed, args.seconds, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
