"""Run one mcdmg CLI command with the benchmark's tracer installed.

Usage: ``python bench/cli_traced.py TRACE_JSON ARGS...``

Standard output, standard error and exit status are those of
``python -m mcdmg.cli ARGS...``. The time this interpreter started running
this file, the import time of ``mcdmg.cli`` and the per-layer profile of
``main`` go to TRACE_JSON, also when the command fails.
"""

import time

T_ENTRY = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import mcdmg.cli

    import_s = time.perf_counter() - t0
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.on = True
    try:
        return tracer.call("cli", "main", mcdmg.cli.main, argv)
    finally:
        tracer.on = False
        trace = {"entry": T_ENTRY, "import_s": import_s, "profile": tracer.collect().to_json()}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)


if __name__ == "__main__":
    sys.exit(main())
