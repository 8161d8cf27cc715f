"""Run one snchar command in this process, traced at module boundaries.

    python3 perfbench/traced_cli.py TRACE_PATH <snchar arguments>

The command's report goes to stdout exactly as the plain CLI writes it.
Import time is measured before any instrumentation. Spans and counters are
written to TRACE_PATH (and TRACE_PATH.bin) after the command has finished.
"""

import sys
import time

import tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import snchar.cli  # noqa: F401  (timed: the import every command pays)
    t1 = time.perf_counter_ns()
    import snchar

    rec = tracer.instrument(snchar)
    code = snchar.cli.run(argv)
    sys.stdout.flush()
    t2 = time.perf_counter_ns()
    caches = {  # process-global memo sizes, read once the command is done
        f"{mod}.{attr}": len(getattr(sys.modules["snchar." + mod], attr, ()))
        for mod, attr in (("characters", "_table_cache"), ("partitions", "_le_cache"))
    }
    rec.write(path, {"import_ns": t1 - t0, "wall_ns": t2 - t0, "caches": caches})
    return code


if __name__ == "__main__":
    sys.exit(main())
