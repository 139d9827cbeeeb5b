"""Run the cycosc command line in this process, as its `cycosc` entry point does.

    python3 perfbench/launch.py [--trace-out FILE] -- <cycosc arguments>

With --trace-out, the layer spans are installed before cycosc.cli.main runs
and their totals are written to FILE as JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def launch(argv: list) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace_out is None:
        from cycosc.cli import main

        return main(argv)

    import spans

    tracer = spans.Tracer()
    tracer.install()
    from cycosc import cli

    code = cli.main(argv)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(spans.snapshot(tracer), fh)
    return code


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
