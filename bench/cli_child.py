"""Run one ``sc2combat`` CLI command the way ``python3 -m sc2combat.cli`` does.

    python3 bench/cli_child.py RESULT_JSON TRACE [cli arguments ...]

``sc2combat`` must be importable (the parent puts ``src`` on PYTHONPATH).
Output, exit code and any traceback are the command's own. The child times
the reference job of clock.py right before and right after the command, so
that the parent can calibrate the command's time by the speed of the core
the child ran on, and reports how long that took, so that the parent can
take it out. clock.py imports nothing, so the modules the command needs
are loaded on its time. With TRACE = 1 the span tracer is installed around
the command. Both go to RESULT_JSON on the way out.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    import clock
    before = clock.reference_s()
    spent = time.perf_counter() - start
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import sc2combat.cli

    if trace:
        from tracing import Tracer
        tracer = Tracer().install()
    try:
        code = sc2combat.cli.run_command(argv)
    finally:
        start = time.perf_counter()
        after = clock.reference_s()
        import json
        doc = {"reference_s": [before, after], "trace": tracer.dump() if trace else None}
        doc["calibration_s"] = spent + time.perf_counter() - start
        with open(result_path, "w", encoding="utf-8") as out:
            json.dump(doc, out)
    sys.exit(code)


if __name__ == "__main__":
    main()
