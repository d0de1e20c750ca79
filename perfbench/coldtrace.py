"""Child runner for the traced ``cli_cold`` run: one CLI request per process.

    python coldtrace.py RESULT.json plain|traced ARGV...

Imports ``vfdielectric.cli`` untimed (the ``import`` layer is measured on its
own), then serves the request once, drift-corrected, either plain or under
``tracer.ModuleTracer``.  Writes exit code, stdout, times and, when traced,
the per-module counts and nanoseconds to RESULT.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from probe import Bracket
from worker import execute


def main() -> int:
    result_path, mode, *argv = sys.argv[1:]
    bracket = Bracket()
    import vfdielectric.cli as cli
    result = {}
    if mode == "traced":
        from tracer import ModuleTracer, package_dir
        tracer = ModuleTracer(package_dir())
        (code, out), t, wall = bracket.time(tracer.run, execute, cli, argv)
        result.update(counts=tracer.counts(), time_ns=dict(tracer.time_ns))
    else:
        (code, out), t, wall = bracket.time(execute, cli, argv)
    result.update(code=code, out=out, t=t, wall=wall)
    Path(result_path).write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
