"""Golden outputs of verify, analyze and search, compared byte for byte.

The files under tests/golden/ pin the deterministic stdout of

* ``verify --order 3 --all``;
* ``analyze --json`` and ``analyze`` (text) for each of the five
  fixtures, and ``analyze --rv-vacuous`` (text) for N2;
* ``search --order 3 --count`` for each of the 14 atoms, one
  ``<atom> <stdout>`` line per atom;
* ``theorems.report_bundle`` of every structure of order <= 3 (the raw
  streams of orders 1, 2 and 3 in turn) and, under ``slow``, of every
  10th structure of the raw order-4 stream: one ``<index> <digest>`` line
  per structure, the index in that stream and the first 16 hex digits of
  sha256 over ``json.dumps(bundle, sort_keys=True)``, so witnesses are
  pinned as well as verdicts.

They change only when an output is meant to change.  Rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

import pytest

from oseg.cli import main
from oseg.core import canonical_json
from oseg.enumeration import enumerate_ordered_semigroups
from oseg.fixtures import FIXTURES
from oseg.properties import ATOMS
from oseg.theorems import report_bundle

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = [
    "verify-o3-all.txt",
    *(f"analyze-{name}.json" for name in FIXTURES),
    *(f"analyze-{name}.txt" for name in FIXTURES),
    "analyze-N2-rv-vacuous.txt",
    "search-o3-count.txt",
    "report-bundles-o3.txt",
    pytest.param("report-bundles-o4-every10.txt", marks=pytest.mark.slow),
]


def _bundle_digests(structures) -> str:
    return "".join(
        f"{i} "
        + hashlib.sha256(json.dumps(report_bundle(S), sort_keys=True).encode()).hexdigest()[:16]
        + "\n"
        for i, S in structures
    )


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
    if case == "report-bundles-o3.txt":
        stream = itertools.chain.from_iterable(enumerate_ordered_semigroups(n) for n in (1, 2, 3))
        return _bundle_digests(enumerate(stream))
    if case == "report-bundles-o4-every10.txt":
        return _bundle_digests(itertools.islice(enumerate(enumerate_ordered_semigroups(4)), 0, None, 10))
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
            case = case if isinstance(case, str) else case.values[0]
            text = produce(case, workdir)
            with open(os.path.join(GOLDEN_DIR, case), "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            print(f"wrote {case}", file=sys.stderr)
