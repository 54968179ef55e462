"""Run one skewmm CLI command with its layers traced.

Usage: python3 cli_child.py SUMMARY_JSON <skewmm cli arguments...>

The traced counterpart of `python -m skewmm.cli <arguments>`: it installs
the tracer, runs the CLI's main, writes the span summary plus the time spent
inside main (the rest of the process's wall time is interpreter start-up and
imports) to SUMMARY_JSON, and exits with the command's exit code.
"""

import json
import sys
import time

from tracer import Tracer, install


def main(argv):
    summary_path, cli_args = argv[0], argv[1:]
    import skewmm.cli

    tracer = Tracer()
    install(tracer)
    start = time.perf_counter_ns()
    code = skewmm.cli.main(cli_args)
    main_ns = time.perf_counter_ns() - start
    summary = tracer.summary()
    summary["main_ns"] = main_ns
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
