"""Seeded request decks and constants files for the three workloads.

A request is an argv for ``vfdielectric`` plus where its constants come
from: the bundled file, a generated file passed by ``--constants``, or a
generated file found through ``VACUUM_DATA_DIR``.  Generated files copy the
bundled records and scale ``e``, ``hbar``, ``mu0``, ``m_e``, ``m_mu`` and
``m_tau`` by seeded factors within +-1e-3.  They carry no ``"kind":
"species"`` records, so a program that starts honouring such records does the
same work on these inputs.

Decks are built in rounds, each holding every request kind of the workload
once in a seeded order, so the mix of kinds barely depends on the seed or on
how many requests a run completes.  The same seed gives the same requests and
the same file bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

PERTURBED_KEYS = ("e", "hbar", "mu0", "m_e", "m_mu", "m_tau")
MAX_RELATIVE_PERTURBATION = 1e-3

BUNDLED = "bundled"
PATH = "path"
ENV = "env"

FORMATS = ("table", "json", "csv")

# One request of each kind in a workload's rounds, with bundled constants and
# default flags.  Traced runs take their exact counts from these, so the
# counts repeat across runs and seeds.
REFERENCE = {
    "cli_cold": (("predict",), ("species",), ("verify",), ("sensitivity",), ("historical",)),
    "assemble_warm": (("predict",), ("predict", "--include-quarks"), ("species",),
                      ("sensitivity",), ("historical",)),
    "oracle_warm": (("verify",),),
}


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    source: str               # BUNDLED, PATH or ENV
    file_index: int | None    # which generated constants file, if any


def bundled_records(root: Path) -> list[dict]:
    path = root / "src" / "vfdielectric" / "data" / "constants.json"
    return json.loads(path.read_text("utf-8"))


def constants_text(records: list[dict], seed: int, index: int) -> str:
    """The generated constants file number ``index`` for ``seed``."""
    rng = random.Random(f"constants:{seed}:{index}")
    out = []
    for record in records:
        record = dict(record)
        if record["key"] in PERTURBED_KEYS:
            factor = 1.0 + rng.uniform(-MAX_RELATIVE_PERTURBATION, MAX_RELATIVE_PERTURBATION)
            record["value"] = record["value"] * factor
            record["source"] = f"{record['source']} (perturbed x{factor!r})"
        out.append(record)
    return json.dumps(out, indent=1) + "\n"


def constants_values(text: str) -> dict[str, float]:
    """Raw file values by key, as the correctness checks read them."""
    return {r["key"]: float(r["value"]) for r in json.loads(text) if "key" in r}


def _shared_flags(rng: random.Random) -> list[str]:
    flags = ["--format", rng.choice(FORMATS)]
    if rng.random() < 0.5:
        flags += ["--precision", str(rng.randint(2, 8))]
    return flags


def _predict_or_species(rng: random.Random, name: str, quarks: bool) -> list[str]:
    argv = [name] + _shared_flags(rng)
    if quarks:
        argv.append("--include-quarks")
    argv += ["--width", rng.choice(("min", "max"))]
    return argv


def _sensitivity(rng: random.Random) -> list[str]:
    return ["sensitivity", "--branch", rng.choice(("paper", "literal"))] + _shared_flags(rng)


def _verify(rng: random.Random, always_tolerance: bool) -> list[str]:
    argv = ["verify"] + _shared_flags(rng)
    if always_tolerance or rng.random() < 0.5:
        argv += ["--tolerance", repr(10.0 ** rng.uniform(-10.0, -8.0))]
    return argv


def _historical(rng: random.Random) -> list[str]:
    return ["historical"] + _shared_flags(rng)


def _round(workload: str, rng: random.Random) -> list[list[str]]:
    if workload == "cli_cold":
        kinds = [
            _predict_or_species(rng, "predict", rng.random() < 0.5),
            _predict_or_species(rng, "species", rng.random() < 0.5),
            _verify(rng, always_tolerance=False),
            _sensitivity(rng),
            _historical(rng),
        ]
    elif workload == "assemble_warm":
        kinds = [
            _predict_or_species(rng, "predict", False),
            _predict_or_species(rng, "predict", True),
            _predict_or_species(rng, "species", rng.random() < 0.5),
            _sensitivity(rng),
            _historical(rng),
        ]
    elif workload == "oracle_warm":
        kinds = [_verify(rng, always_tolerance=True)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(kinds)
    return kinds


def deck(workload: str, seed: int) -> Iterator[Request]:
    """The endless request sequence of ``workload`` for ``seed``.

    ``cli_cold`` reads bundled constants on most requests; the warm workloads
    give every request its own generated file, so no input repeats.
    """
    rng = random.Random(f"deck:{workload}:{seed}")
    files = 0
    while True:
        for argv in _round(workload, rng):
            source = PATH
            if workload == "cli_cold":
                draw = rng.random()
                source = BUNDLED if draw < 0.7 else (PATH if draw < 0.85 else ENV)
            file_index = None
            if source != BUNDLED:
                file_index = files
                files += 1
            yield Request(tuple(argv), source, file_index)


def repeated_share(keys: list) -> float:
    """Share of inputs equal to an earlier one in the same list."""
    seen = set()
    repeats = 0
    for key in keys:
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / len(keys) if keys else 0.0


def materialize(request: Request, records: list[dict], seed: int,
                workdir: Path) -> tuple[list[str], dict[str, str], str]:
    """Write the request's constants file; return (argv, extra env, file text).

    The text is the bundled file's for bundled requests.
    """
    argv = list(request.argv)
    if request.source == BUNDLED:
        return argv, {}, json.dumps(records)
    text = constants_text(records, seed, request.file_index)
    if request.source == PATH:
        path = workdir / f"constants_{request.file_index}.json"
        path.write_text(text, "utf-8")
        return argv + ["--constants", str(path)], {}, text
    directory = workdir / f"data_{request.file_index}"
    directory.mkdir(exist_ok=True)
    (directory / "constants.json").write_text(text, "utf-8")
    return argv, {"VACUUM_DATA_DIR": str(directory)}, text


def discard(request: Request, workdir: Path) -> None:
    """Remove the files ``materialize`` wrote for ``request``."""
    if request.source == PATH:
        (workdir / f"constants_{request.file_index}.json").unlink(missing_ok=True)
    elif request.source == ENV:
        directory = workdir / f"data_{request.file_index}"
        (directory / "constants.json").unlink(missing_ok=True)
        directory.rmdir()
