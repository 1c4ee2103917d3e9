"""Golden outputs of verify, analyze and search, compared byte for byte.

The files under tests/golden/ pin the deterministic stdout of

* ``verify --order 3 --all``;
* ``analyze --json`` and ``analyze`` (text) for each of the five
  fixtures, and ``analyze --rv-vacuous`` (text) for N2;
* ``search --order 3 --count`` for each of the 14 atoms, one
  ``<atom> <stdout>`` line per atom.

They change only when an output is meant to change.  Rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

import pytest

from oseg.cli import main
from oseg.core import canonical_json
from oseg.fixtures import FIXTURES
from oseg.properties import ATOMS

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = [
    "verify-o3-all.txt",
    *(f"analyze-{name}.json" for name in FIXTURES),
    *(f"analyze-{name}.txt" for name in FIXTURES),
    "analyze-N2-rv-vacuous.txt",
    "search-o3-count.txt",
]


def _stdout(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, (argv, code)
    return buf.getvalue()


def produce(case: str, workdir: str) -> str:
    """The current program's output for one golden file."""
    if case == "verify-o3-all.txt":
        return _stdout("verify", "--order", "3", "--all")
    if case == "search-o3-count.txt":
        return "".join(
            f"{atom} " + _stdout("search", "--order", "3", "--where", atom, "--count")
            for atom in ATOMS
        )
    # analyze-<fixture>[-<option>].<json|txt>
    stem, ext = os.path.splitext(case[len("analyze-") :])
    name, _, option = stem.partition("-")
    options = ("--json",) if ext == ".json" else (f"--{option}",) if option else ()
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(FIXTURES[name]) + "\n")
    return _stdout("analyze", path, *options)


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case, tmp_path):
    with open(os.path.join(GOLDEN_DIR, case), encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert produce(case, str(tmp_path)) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for case in CASES:
            text = produce(case, workdir)
            with open(os.path.join(GOLDEN_DIR, case), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            print(f"wrote {case}", file=sys.stderr)
