"""Run one choquet-lab CLI command under the benchmark's span tracer.

    traced_cli.py SUMMARY_JSON SPAWNED_AT CLI_ARGS...

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started this
process.  Runs ``choquet_lab.cli.main(CLI_ARGS)`` with every layer wrapped,
exits with its code, and writes the interpreter start-up and package import
times, the tracer's counts and its span records to SUMMARY_JSON.
"""

import time

T_START = time.monotonic()  # interpreter start-up ends here

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    summary_path, spawned_at, cli_args = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = time.monotonic()
    import choquet_lab.cli

    import_s = time.monotonic() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = choquet_lab.cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    summary = tracer.summary()
    summary.update(interpreter_s=T_START - spawned_at, import_s=import_s,
                   records=list(tracer.records()))
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
