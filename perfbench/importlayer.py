"""The ``import`` layer: ``python -X importtime`` output turned into metrics.

``-X importtime`` prints one line per module on completion, children before
their parent, with the nesting depth shown by indentation:

    import time: self [us] | cumulative | imported package
    import time:       412 |        412 |     _io

``import.cli_ms`` is the cumulative time of the top-level ``vfdielectric``
entries; ``import.scipy_ms`` and ``import.numpy_ms`` sum the cumulative time
of each outermost ``scipy`` (``numpy``) entry, so nested ones are not counted
twice.  The exact module counts come from ``sys.modules`` in the same child.
"""

from __future__ import annotations

import re

# Run with ``-X importtime -c``: imports the CLI and prints the module counts.
CHILD_CODE = (
    "import sys, json, vfdielectric.cli; "
    "print(json.dumps([len(sys.modules), "
    "sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))]))"
)

_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def _in_package(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def parse(stderr: str) -> dict[str, float]:
    """``import.cli_ms``, ``import.scipy_ms`` and ``import.numpy_ms``."""
    entries = []  # (depth, name, cumulative us, outermost scipy/numpy flags)
    pending: list[int] = []  # indices of entries still waiting for a parent
    for line in stderr.splitlines():
        match = _LINE.match(line)
        if not match:
            continue
        cumulative, indent, name = int(match[2]), len(match[3]), match[4]
        depth = (indent - 1) // 2
        children = []
        while pending and entries[pending[-1]][0] > depth:
            children.append(pending.pop())
        entries.append([depth, name, cumulative, children])
        pending.append(len(entries) - 1)

    def outermost(index: int, package: str) -> int:
        depth, name, cumulative, children = entries[index]
        if _in_package(name, package):
            return cumulative
        return sum(outermost(child, package) for child in children)

    roots = pending
    return {
        "import.cli_ms": sum(entries[i][2] for i in roots
                             if _in_package(entries[i][1], "vfdielectric")) / 1e3,
        "import.scipy_ms": sum(outermost(i, "scipy") for i in roots) / 1e3,
        "import.numpy_ms": sum(outermost(i, "numpy") for i in roots) / 1e3,
    }
