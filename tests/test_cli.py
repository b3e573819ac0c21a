import csv
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "y-x5y4.json"


# Documents that once ended in a traceback or were accepted: each must
# exit 1 with one error line. Each entry maps the fixture document to the
# file's contents.
MALFORMED_LINKFORM = {
    "pieces_not_a_list": lambda doc: json.dumps({**doc, "pieces": 5}),
    "points_not_a_list": lambda doc: json.dumps({**doc, "contracted_points": 7}),
    "huge_float_euler_char": lambda doc: json.dumps(doc).replace(
        '"euler_char_closed_piece": -2', '"euler_char_closed_piece": 1e400', 1),
    "huge_float_count": lambda doc: json.dumps(doc).replace(
        '[["alpha", 1]]', '[["alpha", 1e400]]', 1),
    "deep_nesting": lambda doc: "[" * 200000,
    "not_utf8": lambda doc: b"\xff\xfe" + json.dumps(doc).encode(),
    "boundary_ids_a_string": lambda doc: json.dumps(doc).replace(
        '["p1.alpha", "p2.alpha", "p4"]', '"xyz"', 1),
    "numeric_point_id": lambda doc: json.dumps(doc).replace(
        '"id": "p1"', '"id": 1', 1),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tbcalc", *args],
        capture_output=True, text=True, cwd=ROOT,
    )


class TestCompute:
    def test_minus_value(self):
        p = run_cli("compute", "--m", "3", "--n", "2", "--sign", "minus")
        assert p.returncode == 0
        assert p.stdout.strip() == "1"

    def test_plus_fraction(self):
        p = run_cli("compute", "--m", "11", "--n", "6", "--sign", "plus")
        assert p.returncode == 0
        assert p.stdout.strip() == "7/11"

    def test_json_document(self):
        p = run_cli("compute", "--m", "11", "--n", "6", "--sign", "plus",
                    "--json")
        doc = json.loads(p.stdout)
        assert doc["value"] == "7/11"
        assert doc["integer"] is False
        assert doc["N"] == 2
        assert doc["level"] == "minimal"

    def test_explain_lines(self):
        p = run_cli("compute", "--m", "11", "--n", "6", "--sign", "plus",
                    "--explain")
        assert "7/11" in p.stdout
        assert "N = 2" in p.stdout
        assert "W_R" in p.stdout

    def test_dot_export(self, tmp_path):
        out = tmp_path / "g.dot"
        p = run_cli("compute", "--m", "5", "--n", "8", "--sign", "minus",
                    "--dot", str(out))
        assert p.returncode == 0
        assert out.read_text().startswith("graph resolution {")

    def test_gcd_violation_exits_one(self):
        p = run_cli("compute", "--m", "4", "--n", "2", "--sign", "plus")
        assert p.returncode == 1
        assert "gcd(m,n) must be 1" in p.stderr

    def test_swapped_pair_is_refused_as_given(self):
        p = run_cli("compute", "--m", "6", "--n", "4", "--sign", "plus")
        assert (p.returncode, p.stdout) == (1, "")
        assert p.stderr == ("tbcalc: error: gcd(m,n) must be 1 for an isolated Brieskorn "
                            "double point, got gcd(6, 4) = 2\n")

    def test_bad_exponent_exits_one(self):
        p = run_cli("compute", "--m", "1", "--n", "4", "--sign", "minus")
        assert p.returncode == 1

    def test_bad_sign_usage_exits_one(self):
        p = run_cli("compute", "--m", "3", "--n", "2", "--sign", "square")
        assert p.returncode == 1

    def test_oversized_pair_exits_one_at_once(self):
        # The resolution of x^2 + y^1000000001 would hold 5*10^8 curves: it
        # is refused by the size guard instead of being built.
        start = time.perf_counter()
        p = run_cli("compute", "--m", "2", "--n", "1000000001", "--sign", "plus")
        assert time.perf_counter() - start < 1.0
        assert p.returncode == 1
        assert "the limit is" in p.stderr
        assert len(p.stderr.splitlines()) == 1
        assert "Traceback" not in p.stderr


class TestTable:
    def test_csv_contract(self, tmp_path):
        out = tmp_path / "t.csv"
        p = run_cli("table", "--m-range", "3:5", "--n-range", "2:6",
                    "--sign", "minus", "--out", str(out))
        assert p.returncode == 0
        text = out.read_text()
        lines = [ln for ln in text.splitlines() if ln]
        assert lines[0] == "m,n,sign,tb_num,tb_den,integer_flag"
        assert lines[-1].startswith("# skipped:")
        rows = list(csv.DictReader(io.StringIO(
            "\n".join(ln for ln in lines if not ln.startswith("#")))))
        by_pair = {(int(r["m"]), int(r["n"])): r for r in rows}
        assert by_pair[(3, 2)]["tb_num"] == "1"
        assert by_pair[(3, 2)]["tb_den"] == "1"
        assert by_pair[(3, 2)]["integer_flag"] == "true"
        assert (3, 3) not in by_pair

    def test_plus_fractions_in_table(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("table", "--m-range", "3:3", "--n-range", "2:2",
                "--sign", "plus", "--out", str(out))
        row = out.read_text().splitlines()[1]
        assert row == "3,2,plus,-1,3,false"

    def test_malformed_range_exits_one(self):
        p = run_cli("table", "--m-range", "3-5", "--n-range", "2:6",
                    "--sign", "minus", "--out", "/dev/null")
        assert p.returncode == 1


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        # main builds its parser on its first call and reads every later
        # argument list with it: a second table writes the same CSV.
        from tbcalc import cli

        built = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        cli._build_parser.cache_clear()
        try:
            tables = []
            for name in ("first.csv", "second.csv"):
                out = tmp_path / name
                assert cli.main(["table", "--m-range", "2:9", "--n-range", "2:30",
                                 "--sign", "plus", "--out", str(out)]) == 0
                tables.append(out.read_bytes())
        finally:
            cli._build_parser.cache_clear()
        assert tables[0] == tables[1]
        assert built.count("tbcalc") == 1

    def test_import_builds_no_parser(self):
        code = ("import argparse\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *args, **kwargs):\n"
                "    built.append(kwargs.get('prog'))\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import tbcalc.cli\n"
                "print(len(built))\n")
        p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           cwd=ROOT)
        assert p.returncode == 0, p.stderr
        assert p.stdout.split() == ["0"]


class TestVerifyCommand:
    def test_clean_run_exits_zero(self):
        p = run_cli("verify", "--suite", "integrality", "--m-max", "4",
                    "--n-max", "12")
        assert p.returncode == 0
        assert "integrality" in p.stdout
        assert "violations 0" in p.stdout

    def test_json_report(self):
        p = run_cli("verify", "--suite", "period,parity", "--m-max", "4",
                    "--n-max", "10", "--json")
        doc = json.loads(p.stdout)
        assert [s["name"] for s in doc["suites"]] == ["period", "parity"]

    def test_symmetry_suite_clean(self):
        p = run_cli("verify", "--suite", "symmetry", "--m-max", "5",
                    "--n-max", "16")
        assert p.returncode == 0

    def test_unknown_suite_exits_one(self):
        p = run_cli("verify", "--suite", "nonsense", "--m-max", "4",
                    "--n-max", "8")
        assert p.returncode == 1


class TestLinkform:
    def test_fixture_matrix(self):
        p = run_cli("linkform", "--decomposition", str(FIXTURE))
        assert p.returncode == 0
        assert p.stdout.strip() == "[[3/2,-5/2],[-5/2,3/2]]"

    def test_json_output(self):
        p = run_cli("linkform", "--decomposition", str(FIXTURE), "--json")
        doc = json.loads(p.stdout)
        assert doc["entries"] == [["3/2", "-5/2"], ["-5/2", "3/2"]]
        assert doc["pieces"] == ["alpha", "beta"]

    def test_single_piece(self, tmp_path):
        doc = {
            "pieces": [{"id": "s", "euler_char_closed_piece": 2}],
            "contracted_points": [
                {"id": "x", "m_value": 2, "kind": "one_sided",
                 "incidences": [["s", 1]]}],
        }
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        p = run_cli("linkform", "--decomposition", str(path))
        assert p.returncode == 0
        assert p.stdout.strip() == "[[-3]]"

    def test_incidence_violation_exits_one(self, tmp_path):
        doc = json.loads(FIXTURE.read_text())
        doc["contracted_points"][0]["incidences"] = [["alpha", 2], ["beta", 1]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        p = run_cli("linkform", "--decomposition", str(path))
        assert p.returncode == 1

    def test_invalid_json_exits_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        p = run_cli("linkform", "--decomposition", str(path))
        assert p.returncode == 1

    def test_missing_file_exits_one(self):
        p = run_cli("linkform", "--decomposition", "no/such/file.json")
        assert p.returncode == 1

    @pytest.mark.parametrize("name", sorted(MALFORMED_LINKFORM))
    def test_malformed_document_exits_one(self, tmp_path, name):
        doc = MALFORMED_LINKFORM[name](json.loads(FIXTURE.read_text()))
        path = tmp_path / f"{name}.json"
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc)
        p = run_cli("linkform", "--decomposition", str(path))
        assert p.returncode == 1
        assert "Traceback" not in p.stderr
        assert len(p.stderr.splitlines()) == 1
        assert p.stderr.startswith("tbcalc: error: ")
