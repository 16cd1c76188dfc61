"""One workload interpreter, started fresh for every timed repetition.

Usage: ``python3 bench/child.py SPEC_JSON`` with ``src`` on PYTHONPATH.  The
spec holds ``commands`` (CLI argument lists), ``outputs`` (one file per
command that receives its standard output), and optionally ``trace`` (a
file for the recorded spans) and ``count_pools``.  Without commands the
interpreter only sets up.  The last line on standard output is a JSON
object: ``ready`` (perf_counter when set-up ended), ``setup_speed`` (the
speedometer factor sampled during set-up), ``wall_s`` and ``speed``
(the factor sampled while the commands ran), ``codes``, peak resident sets
in KiB and, when traced, the per-layer metrics.

Set-up is timed from interpreter start, so nothing is imported before
``primerec`` except ``time`` and the speedometer.
"""

import time

import speed

with speed.Speedometer(0.01) as SETUP_METER:
    import primerec
    import primerec.cli

    primerec.cli.build_parser()
    READY = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    spec = json.loads(sys.argv[1])
    result = {"ready": READY, "setup_speed": SETUP_METER.factor}
    commands = spec.get("commands") or []
    if commands:
        counters = {}
        tr = tracer = None
        if spec.get("count_pools") or spec.get("trace"):
            import tracer as tr

            tr.install_pool_counter(counters)
        if spec.get("trace"):
            tracer = tr.Tracer()
            tr.install(tracer)
        codes = []
        with speed.Speedometer() as meter:
            t0 = time.perf_counter()
            for argv, out in zip(commands, spec["outputs"]):
                with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
                    codes.append(primerec.cli.run(argv))
            result["wall_s"] = time.perf_counter() - t0
        result["speed"] = meter.factor
        result["codes"] = codes
        result["rss_self_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["rss_children_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["counters"] = counters
        if tracer is not None:
            tracer.write(spec["trace"])
            result["layers"] = tr.layer_metrics(tracer)
            result["missing"] = tracer.missing
    print(json.dumps(result))


if __name__ == "__main__":
    main()
