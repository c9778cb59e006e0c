"""One timed repetition, run in a fresh interpreter by ``run.py``.

usage: child.py RESULT_JSON MEMORY_CAP_BYTES TRACE [CDEM_ARG ...]

The child caps its own address space before importing anything heavy, so an
O(n^2) blow-up fails here instead of exhausting the machine.  It then
imports ``cdem.cli`` (interpreter start plus this import is the set-up the
parent measures), and calls ``cdem.cli.main`` with the given arguments, the
path a user's ``cdem run`` takes.  With no cdem arguments it stops after the
import: a set-up probe.  With TRACE=1 the cdem functions are wrapped by
``tracer.Tracer`` for the call and restored afterwards.
"""

import contextlib
import json
import resource
import sys
import time


def main() -> int:
    result_path, cap, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    cli_args = sys.argv[4:]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    from cdem import cli

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    entered = time.monotonic()
    result = {"entered": entered}
    if cli_args:
        try:
            with tracer.span("cli.main") if tracer else contextlib.nullcontext():
                result["code"] = cli.main(cli_args)
            result["run_s"] = time.monotonic() - entered
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            result["trace"] = tracer.dump()
            result["restored"] = tracing.is_clean()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result.get("code", 0)


if __name__ == "__main__":
    sys.exit(main())
