"""Command surface: exit codes, output contracts, determinism."""

from __future__ import annotations

import json

import pytest

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
        assert list(ck) == ["order", "dedup", "prefix-stack", "emitted"]
        assert ck["emitted"] == 7
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

    def test_limit_documented(self, capsys):
        code, out = run(capsys, "verify", "--order", "3", "--theorem", "thm-1005", "--limit", "50")
        assert code == 0
        assert "limit=50" in out
        assert "structures=50" in out

    def test_adapted_mismatch_is_warning_unless_strict(self, capsys, monkeypatch):
        # no real adaptation mismatch exists at small order (the order-4
        # sweep is clean), so force one to pin the warning contract
        from oseg import theorems

        def always_inconsistent(S):
            conditions = {"i": True, "ii": False}
            return conditions, "COUNTEREXAMPLE", {}, {"note": "adaptation-mismatch"}

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
            return conditions, "COUNTEREXAMPLE", {}, {"shape": "all-equivalent"}

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


class TestUsage:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["explode"]) == 1

    def test_missing_required(self):
        assert main(["enumerate"]) == 1
