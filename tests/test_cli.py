"""Command surface: exit codes, output contracts, determinism."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from oseg import cli
from oseg.cli import main
from oseg.core import canonical_json, parse_structure
from oseg.fixtures import LZ2, N2, RZ2


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def lz2_file(tmp_path):
    path = tmp_path / "lz2.json"
    path.write_text(canonical_json(LZ2) + "\n", encoding="utf-8")
    return str(path)


class TestValidate:
    def test_valid(self, capsys, lz2_file):
        code, out = run(capsys, "validate", lz2_file)
        assert code == 0 and out == "valid\n"

    def test_not_associative(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"order": 2, "table": [[1, 1], [0, 0]], "leq": [[0, 0], [1, 1]]})
        )
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert "not associative" in out

    def test_format_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"order": 2, "table": [[0, 9], [1, 1]], "leq": [[0,0],[1,1]]}')
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert "out of range" in out

    def test_missing_file(self, capsys, tmp_path):
        code, out = run(capsys, "validate", str(tmp_path / "nope.json"))
        assert code == 2

    def test_every_axiom_reported(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        # non-associative table and a non-reflexive order at once
        path.write_text(
            json.dumps({"order": 2, "table": [[1, 1], [0, 0]], "leq": [[0, 1]]})
        )
        code, out = run(capsys, "validate", str(path))
        assert code == 2
        assert "not associative" in out and "reflexive" in out


MALFORMED_FILES = {
    "deep": b"[" * 100000,  # json.loads recurses once per bracket
    "not-utf8": b'{"order": 1, "table": [[0]], "leq": [[0, 0]]}\xff',
    "long-number": b"9" * 5000,  # past the int digit limit of json.loads
}


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("content", sorted(MALFORMED_FILES))
def test_malformed_structure_file_exit_2(capsys, tmp_path, command, content):
    path = tmp_path / "bad.json"
    path.write_bytes(MALFORMED_FILES[content])
    code, out = run(capsys, command, str(path))
    assert code == 2
    assert out.startswith("invalid: ")


class TestAnalyze:
    def test_text_report(self, capsys, lz2_file):
        code, out = run(capsys, "analyze", lz2_file)
        assert code == 0
        assert "left-simple: yes" in out
        assert "right-pi-inverse: no" in out
        assert "l-archimedean: yes" in out
        assert "t-archimedean: no" in out

    def test_json_report(self, capsys, lz2_file):
        code, out = run(capsys, "analyze", lz2_file, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["atoms"]["left-simple"] is True
        assert report["atoms"]["right-pi-inverse"] is False
        assert report["green"]["L"] == [[0, 1]]
        assert report["green"]["R"] == [[0], [1]]
        assert report["kernel"] == [0, 1]
        assert report["least_congruence"] == [[0, 1]]

    def test_deterministic_bytes(self, capsys, lz2_file):
        _, first = run(capsys, "analyze", lz2_file, "--json")
        _, second = run(capsys, "analyze", lz2_file, "--json")
        assert first == second

    def test_rv_vacuous_flag(self, capsys, tmp_path):
        path = tmp_path / "n2.json"
        path.write_text(canonical_json(N2))
        _, out = run(capsys, "analyze", str(path), "--json", "--rv-vacuous")
        report = json.loads(out)
        assert report["rv_set"] == [0]
        assert report["rv_set_vacuous"] == [0, 1]

    def test_invalid_input(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        code, _ = run(capsys, "analyze", str(path))
        assert code == 2


def _cursor(order=3, dedup="raw", prefix=None, emitted=1) -> dict:
    return {"order": order, "dedup": dedup, "prefix-stack": prefix, "emitted": emitted}


def _prefix(table, orders_done=1) -> dict:
    return {"table": table, "orders_done": orders_done}


class TestEnumerate:
    def test_stream_stdout(self, capsys):
        code, out = run(capsys, "enumerate", "--order", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 20
        assert all(parse_structure(line).n == 2 for line in lines)

    def test_dedup_iso_smaller(self, capsys):
        _, raw = run(capsys, "enumerate", "--order", "2")
        _, iso = run(capsys, "enumerate", "--order", "2", "--dedup", "iso")
        assert len(iso.splitlines()) < len(raw.splitlines())

    def test_out_file_with_checkpoint_resume(self, capsys, tmp_path):
        out_path = tmp_path / "structures.jsonl"
        ck_path = tmp_path / "cursor.json"
        code, _ = run(
            capsys,
            "enumerate", "--order", "2", "--limit", "7",
            "--out", str(out_path), "--checkpoint", str(ck_path),
        )
        assert code == 0
        ck = json.loads(ck_path.read_text())
        assert list(ck) == ["order", "dedup", "prefix-stack", "emitted", "out-bytes"]
        assert ck["emitted"] == 7
        assert ck["out-bytes"] == out_path.stat().st_size
        code, _ = run(
            capsys,
            "enumerate", "--order", "2",
            "--out", str(out_path), "--checkpoint", str(ck_path),
        )
        assert code == 0
        _, full = run(capsys, "enumerate", "--order", "2")
        assert out_path.read_text() == full

    def test_checkpoint_mismatch(self, capsys, tmp_path):
        ck_path = tmp_path / "cursor.json"
        run(capsys, "enumerate", "--order", "2", "--limit", "2", "--checkpoint", str(ck_path))
        code, _ = run(capsys, "enumerate", "--order", "3", "--checkpoint", str(ck_path))
        assert code == 2

    def test_order_cap(self, capsys):
        code, _ = run(capsys, "enumerate", "--order", "6")
        assert code == 2

    @pytest.mark.parametrize(
        "cursor",
        [
            "{",
            "[]",
            {"order": 3, "dedup": "raw", "emitted": 1},
            _cursor(order="3"),
            _cursor(order=9),
            _cursor(dedup="none"),
            _cursor(emitted=-1),
            _cursor(emitted=True),
            _cursor(prefix=[0, 1]),
            _cursor(prefix={"table": [0] * 9}),
            _cursor(prefix=_prefix([0] * 4)),
            _cursor(prefix=_prefix([9] * 9)),
            _cursor(prefix=_prefix(["0"] * 9)),
            _cursor(prefix=_prefix([1, 1, 1] + [0] * 6)),  # (0*0)*0 = 0, 0*(0*0) = 1
            _cursor(prefix=_prefix([0] * 9, orders_done=0)),
            _cursor(prefix=_prefix([0] * 9, orders_done=1.5)),
            _cursor(prefix=_prefix([0] * 9, orders_done=1000000)),  # the table has 19 orders
            pytest.param("[" * 100000, id="deep"),
            {**_cursor(), "out-bytes": -1},
            {**_cursor(), "out-bytes": "12"},
        ],
    )
    def test_malformed_checkpoint_exit_2(self, capsys, tmp_path, cursor):
        ck_path = tmp_path / "cursor.json"
        ck_path.write_text(cursor if isinstance(cursor, str) else json.dumps(cursor))
        code = main(["enumerate", "--order", "3", "--checkpoint", str(ck_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("invalid checkpoint: ")

    def test_resume_after_last_order_of_a_table(self, capsys, tmp_path):
        ck_path = tmp_path / "cursor.json"
        cursor = _cursor(prefix=_prefix([0] * 9, orders_done=19), emitted=19)
        ck_path.write_text(json.dumps(cursor))
        code, resumed = run(capsys, "enumerate", "--order", "3", "--checkpoint", str(ck_path))
        _, full = run(capsys, "enumerate", "--order", "3")
        assert code == 0
        assert resumed.splitlines() == full.splitlines()[19:]

    def test_resume_truncates_lines_written_after_the_checkpoint(self, capsys, tmp_path):
        """A kill between checkpoints leaves --out ahead of the cursor; the
        resumed file is still the uninterrupted stream."""
        out_path = tmp_path / "structures.jsonl"
        ck_path = tmp_path / "cursor.json"
        args = ["enumerate", "--order", "3", "--out", str(out_path), "--checkpoint", str(ck_path)]
        _, full = run(capsys, "enumerate", "--order", "3")
        lines = full.splitlines(keepends=True)
        assert run(capsys, *args, "--limit", "20")[0] == 0
        out_path.write_text("".join(lines[:23]))
        assert run(capsys, *args, "--limit", "30")[0] == 0
        assert out_path.read_text() == "".join(lines[:50])
        out_path.write_text("".join(lines[:49]))  # shorter than the checkpoint records
        code = main(args)
        assert code == 2
        assert capsys.readouterr().err.startswith("invalid checkpoint: ")

    def test_limit_zero_emits_nothing(self, capsys):
        assert run(capsys, "enumerate", "--order", "3", "--limit", "0") == (0, "")

    def test_checkpoint_never_ahead_of_out(self, capsys, tmp_path, monkeypatch):
        """Each checkpoint lands by atomic rename once --out holds every line
        it counts."""
        out_path = tmp_path / "structures.jsonl"
        ck_path = tmp_path / "cursor.json"
        seen = []
        real_replace = os.replace

        def replace(src, dst):
            emitted = json.loads(open(src, encoding="utf-8").read())["emitted"]
            seen.append((emitted, len(out_path.read_text().splitlines())))
            real_replace(src, dst)

        monkeypatch.setattr(cli, "CHECKPOINT_EVERY", 5)
        monkeypatch.setattr(cli.os, "replace", replace)
        code, _ = run(
            capsys, "enumerate", "--order", "2",
            "--out", str(out_path), "--checkpoint", str(ck_path),
        )
        assert code == 0
        assert seen == [(0, 0), (5, 5), (10, 10), (15, 15), (20, 20), (20, 20)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cursor.json", "structures.jsonl"]

    def test_out_is_a_directory(self, capsys, tmp_path):
        code = main(["enumerate", "--order", "2", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("invalid: ")

    def test_checkpoint_in_missing_directory(self, capsys, tmp_path):
        ck_path = tmp_path / "missing" / "c.json"
        code = main(["enumerate", "--order", "2", "--checkpoint", str(ck_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""  # fails before the first structure
        assert captured.err.startswith("invalid: ")
        assert captured.err.rstrip().endswith(repr(str(ck_path)))  # not the .tmp file

    @pytest.mark.slow
    def test_kill_and_resume(self, capsys, tmp_path):
        """SIGKILL mid-stream, then resume: --out is the uninterrupted stream."""
        out_path = tmp_path / "structures.jsonl"
        ck_path = tmp_path / "cursor.json"
        args = ["enumerate", "--order", "4", "--out", str(out_path), "--checkpoint", str(ck_path)]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen([sys.executable, "-m", "oseg.cli", *args], env=env)
        try:
            deadline = time.monotonic() + 60
            while proc.poll() is None and time.monotonic() < deadline:
                if ck_path.exists() and json.loads(ck_path.read_text())["emitted"] >= 1000:
                    break
                time.sleep(0.01)
        finally:
            proc.kill()
        assert proc.wait(timeout=30) == -signal.SIGKILL  # killed, not finished
        assert json.loads(ck_path.read_text())["emitted"] >= 1000
        assert main(args) == 0
        _, full = run(capsys, "enumerate", "--order", "4")
        assert out_path.read_text() == full


class TestVerify:
    def test_order_2_all_consistent(self, capsys):
        code, out = run(capsys, "verify", "--order", "2", "--all")
        assert code == 0
        assert "structures=20" in out
        assert "result: ok" in out
        assert "COUNTEREXAMPLE" not in out

    def test_single_theorem(self, capsys):
        code, out = run(capsys, "verify", "--order", "2", "--theorem", "thm-1005")
        assert code == 0
        assert "thm-1005: checked=20 skipped=0 counterexamples=0" in out

    def test_unknown_theorem_usage_error(self, capsys):
        code = main(["verify", "--order", "2", "--theorem", "thm-nope"])
        assert code == 1

    def test_order_cap_same_for_every_jobs_value(self, capsys):
        errs = []
        for jobs in ("1", "2"):
            assert main(["verify", "--order", "6", "--jobs", jobs]) == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] == "invalid: enumeration is capped at order 5, got 6\n"

    def test_jobs_byte_identical(self, capsys):
        _, sequential = run(capsys, "verify", "--order", "2", "--all")
        _, parallel = run(capsys, "verify", "--order", "2", "--all", "--jobs", "2")
        assert sequential == parallel

    def test_jobs_capped_at_cpu_count(self, capsys, monkeypatch):
        """The pool asks for at most os.cpu_count() workers; the fake pool
        runs every task in this process, so no process starts."""
        asked = []

        class FakePool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, tasks):
                return map(func, tasks)

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(cli.multiprocessing, "get_context", lambda method: FakeContext())
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        _, sequential = run(capsys, "verify", "--order", "3", "--jobs", "1")
        code, capped = run(capsys, "verify", "--order", "3", "--jobs", "64")
        assert asked == [2]
        assert code == 0 and capped == sequential

    def test_limit_documented(self, capsys):
        code, out = run(capsys, "verify", "--order", "3", "--theorem", "thm-1005", "--limit", "50")
        assert code == 0
        assert "limit=50" in out
        assert "structures=50" in out

    def test_limit_zero_checks_nothing(self, capsys):
        code, out = run(capsys, "verify", "--order", "2", "--limit", "0")
        assert code == 0
        assert "structures=0" in out

    def test_adapted_mismatch_is_warning_unless_strict(self, capsys, monkeypatch):
        # no real adaptation mismatch exists at small order (the order-4
        # sweep is clean), so force one to pin the warning contract
        from oseg import theorems

        def always_inconsistent(S):
            conditions = {"i": True, "ii": False}
            return conditions, {}, {"note": "adaptation-mismatch"}

        monkeypatch.setitem(
            theorems._CATALOG,
            "thm-774-adapted",
            theorems.CatalogEntry("thm-774-adapted", always_inconsistent, adapted=True),
        )
        code, out = run(capsys, "verify", "--order", "1", "--theorem", "thm-774-adapted")
        assert code == 0
        assert "mismatches=1" in out
        assert "ADAPTATION-MISMATCH theorem=thm-774-adapted" in out
        assert "result: ok" in out
        code, out = run(
            capsys, "verify", "--order", "1", "--theorem", "thm-774-adapted", "--strict"
        )
        assert code == 3
        assert "result: COUNTEREXAMPLE" in out

    def test_counterexample_exit_and_block(self, capsys, monkeypatch):
        # force an inconsistent report on a non-adapted entry: exit 3 plus
        # the structure in wire format and the report
        from oseg import theorems

        def always_inconsistent(S):
            conditions = {"i": True, "ii": False}
            return conditions, {}, {"shape": "all-equivalent"}

        monkeypatch.setitem(
            theorems._CATALOG,
            "thm-1005",
            theorems.CatalogEntry("thm-1005", always_inconsistent),
        )
        code, out = run(capsys, "verify", "--order", "1", "--theorem", "thm-1005")
        assert code == 3
        assert "COUNTEREXAMPLE theorem=thm-1005" in out
        assert '{"order":1,"table":[[0]],"leq":[[0,0]]}' in out
        assert '"verdict": "COUNTEREXAMPLE"' in out or '"verdict":"COUNTEREXAMPLE"' in out


class TestSearch:
    def test_separation_witness_first(self, capsys):
        code, out = run(
            capsys,
            "search", "--order", "2", "--where", "right-pi-inverse & !pi-inverse", "--first",
        )
        assert code == 0
        S = parse_structure(out.strip())
        # right-zero up to isomorphism: x*y = y
        assert S.table == RZ2.table

    def test_count(self, capsys):
        code, out = run(
            capsys, "search", "--order", "2", "--where", "right-pi-inverse & !pi-inverse", "--count"
        )
        assert code == 0 and out.strip() == "3"

    def test_no_match_first_exit_3(self, capsys):
        code, _ = run(capsys, "search", "--order", "1", "--where", "!simple", "--first")
        assert code == 3

    def test_no_match_all_mode_exit_0(self, capsys):
        code, out = run(capsys, "search", "--order", "1", "--where", "!simple")
        assert code == 0 and out == ""

    def test_bad_expression_usage_error(self, capsys):
        assert main(["search", "--order", "2", "--where", "right-pi-inverse &&"]) == 1
        assert main(["search", "--order", "2", "--where", "blorp"]) == 1
        assert main(["search", "--order", "2", "--where", "!" * 5000 + "simple"]) == 1
        assert main(["search", "--order", "2", "--where", "(" * 5000 + "simple" + ")" * 5000]) == 1


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--order", "4"], ["search", "--order", "4", "--where", "pi-regular"]],
)
def test_reader_closing_stdout_exits_141_quietly(argv):
    """`oseg ... | head -1`: no traceback, the SIGPIPE exit status 128 + 13."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen(
        [sys.executable, "-m", "oseg.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline().startswith(b'{"order":4,')
        proc.stdout.close()  # megabytes of output are still to come
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["explode"]) == 1

    def test_missing_required(self):
        assert main(["enumerate"]) == 1

    @pytest.mark.parametrize("command", ["verify", "enumerate"])
    def test_negative_limit(self, command):
        assert main([command, "--order", "2", "--limit", "-1"]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-5"], ids=["jobs-0", "jobs-neg"])
    def test_jobs_below_one(self, capsys, jobs):
        assert main(["verify", "--order", "2", "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--jobs must be >= 1" in captured.err
