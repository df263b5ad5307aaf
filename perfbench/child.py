"""One benchmark sweep, run in a fresh process by run.py.

    python3 child.py ROOT CONFIG OUT TRACE SPAWN_TIME

Imports locus from ROOT/src, loads CONFIG and, unless OUT is "-", runs the
`locus report` sweep into OUT. SPAWN_TIME is the parent's time.monotonic()
just before it started this process; the system-wide monotonic clock makes
it comparable here, so set-up time counts interpreter start as well. With
TRACE 1 the sweep runs under the tracer and the sampled calls are checked
against the oracles afterwards. The last stdout line is a JSON object.

Only the standard library is imported before locus, so the set-up figures
hold the program's own import cost and little of the benchmark's.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    root, config_path, out_dir, trace, spawn_time = argv
    src = os.path.join(os.path.abspath(root), "src")
    t0 = time.monotonic()
    sys.path.insert(0, src)
    import locus
    import locus.pipeline as pipeline

    if not os.path.abspath(locus.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported locus from {locus.__file__}, not from {src}")
    t1 = time.monotonic()
    config = pipeline.load_config(config_path)
    t2 = time.monotonic()
    result = {
        "setup": {"setup_s": t2 - float(spawn_time), "import_s": t1 - t0, "load_config_s": t2 - t1},
    }
    if out_dir != "-":
        tracer = None
        if trace == "1":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(locus)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        pipeline.run_experiment(config, out_dir=out_dir)
        w1 = time.perf_counter()
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result["sweep"] = {
            "wall_s": w1 - w0,
            "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": ru1.ru_maxrss * 1024 / 1e6,
        }
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["unobserved"] = tracer.unobserved()
            result["oracle"] = tracer.check_oracles(locus)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
