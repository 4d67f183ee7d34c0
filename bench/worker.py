"""One workload in one fresh process: set-up, then timed repeats.

Started by run.py from the root of a source checkout:

    python3 bench/worker.py WORKLOAD SEED WORKDIR SECONDS MODE

MODE is ``setup`` (set-up only), ``plain`` (untraced repeats) or ``trace``
(untraced and traced repeats, alternating).  The last line of standard output
is one JSON object with the measurements.
"""

import importlib.metadata
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

MIN_REPEATS = 3          # digests need a second repeat to compare against
MIN_TRACED = 2           # counts need a second traced repeat to compare against


def main(workload, seed, workdir, seconds, mode):
    seed, workdir, seconds = int(seed), Path(workdir), float(seconds)
    src = Path(__file__).resolve().parent.parent / "src"

    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import spinbath
    if not Path(spinbath.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"spinbath imported from {spinbath.__file__}, not {src}")
    from workloads import WORKLOADS, Tally
    wl = WORKLOADS[workload]
    text = wl.config(seed)
    config_path = workdir / f"{workload}.ini"
    config_path.write_text(text, encoding="utf-8")
    state = wl.setup(text)
    setup_s = perf_counter() - t0

    import numpy
    result = {"setup_s": setup_s, "config": text,
              "versions": {"numpy": numpy.__version__,
                           "scipy": importlib.metadata.version("scipy"),
                           "spinbath": spinbath.__version__}}
    if mode == "setup":
        return result

    from spans import Tracer, summarize
    out = workdir / "out"
    walls = {False: [], True: []}
    traced_spans = []
    attempted, failed = 0, []
    first = None

    def enough():
        if mode == "trace":
            return min(len(walls[False]), len(walls[True])) >= MIN_TRACED
        return len(walls[False]) >= MIN_REPEATS

    start = perf_counter()
    while perf_counter() - start < seconds or not enough():
        traced = mode == "trace" and len(walls[False]) > len(walls[True])
        tally = Tally()

        def body():
            try:
                outputs = wl.run(state, config_path, out)
                wl.check(state, out, outputs, tally)
            except Exception:
                traceback.print_exc()
                tally.op("repeat raised", False, n=wl.program_ops(state))
            finally:
                shutil.rmtree(out, ignore_errors=True)

        if traced:
            tracer = Tracer()
            with tracer.installed():
                tracer.wrap("bench", body)()
            walls[True].append(tracer.spans[0].duration)
            traced_spans.append(tracer.spans)
        else:
            t = perf_counter()
            body()
            walls[False].append(perf_counter() - t)
        outcome = (tally.digest.hexdigest(), tally.rows, tally.bytes)
        if first is None:
            first = outcome
        else:
            tally.op("output repeats byte for byte", outcome == first)
        attempted += tally.attempted
        failed += tally.failed
        if mode == "plain" and len(walls[False]) == MIN_REPEATS:
            # read at a fixed repeat count: later repeats add allocator
            # fragmentation, and how many fit in the time varies
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result.update(walls=walls[False], attempted=attempted, failed=failed)
    if mode == "plain":
        result["peak_rss_mb"] = peak_rss_mb
    else:
        layers, checks = summarize(traced_spans)
        attempted += len(checks)
        failed += [name for name, ok in checks if not ok]
        _, layers["cli.rows_written"], layers["cli.bytes_written"] = first
        layers["cli.write_mb_per_s"] = (first[2] / 1e6 / layers["cli.self_s"]
                                        if layers["cli.self_s"] else 0.0)
        layers["trace.overhead_frac"] = (statistics.median(walls[True])
                                         / statistics.median(walls[False]) - 1.0)
        result.update(layers=layers, attempted=attempted, failed=failed)
    return result


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:])))
