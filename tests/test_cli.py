import json
from pathlib import Path

import pytest

from polyzeta.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBasics:
    def test_dual(self, capsys):
        code, out = run(capsys, "dual", "6,2")
        assert code == 0 and out.strip() == "2,2,1^4"

    def test_wdh(self, capsys):
        code, out = run(capsys, "wdh", "2,1,2,1,1")
        assert code == 0 and out.strip() == "weight=7 depth=5 height=2"

    def test_count(self, capsys):
        code, out = run(capsys, "count", "--weight", "10", "--depth", "5")
        assert code == 0 and out.strip() == "70"

    def test_count_table(self, capsys):
        code, out = run(capsys, "count", "--weight", "6", "--table")
        assert code == 0
        assert "total = 16" in out

    def test_list_json(self, capsys):
        code, out = run(capsys, "list", "--weight", "4", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["compositions"] == [[4], [3, 1], [2, 2], [2, 1, 1]]
        assert doc["schema"] == 1

    def test_stuffle_text(self, capsys):
        code, out = run(capsys, "stuffle", "1", "4,1^2")
        assert code == 0
        assert "3*(4,1^3)" in out

    def test_shuffle_json_coeffs(self, capsys):
        code, out = run(capsys, "shuffle", "2", "2", "--format", "json")
        doc = json.loads(out)
        terms = {tuple(t["composition"]): t["coeff"] for t in doc["terms"]}
        assert terms[(3, 1)] == {"num": "4", "den": "1"}
        assert terms[(2, 2)] == {"num": "2", "den": "1"}

    def test_eval(self, capsys):
        code, out = run(capsys, "eval", "2", "--tol", "1e-6", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert abs(doc["value"] - 1.6449340668) < 1e-6
        assert doc["reached_tol"] is True

    def test_closed(self, capsys):
        code, out = run(capsys, "closed", "--g", "1", "--side", "dsr", "2")
        assert code == 0 and out.strip() == "-(3) + (2,1)"

    def test_bad_usage_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["list"])  # missing --weight
        assert err.value.code == 2

    def test_bad_composition_exits_two(self, capsys):
        code = main(["dual", "0,2"])
        assert code == 2

    def test_determinism(self, capsys):
        _, a = run(capsys, "relations", "--weight", "5", "--format", "json",
                   "--data-dir", "/tmp/pz-deterministic")
        _, b = run(capsys, "relations", "--weight", "5", "--format", "json",
                   "--data-dir", "/tmp/pz-deterministic")
        assert a == b


class TestFilesAndCache:
    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "list.json"
        code = main(["list", "--weight", "4", "--format", "json", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["weight"] == 4

    def test_relations_cache(self, capsys, tmp_path):
        code, _ = run(capsys, "relations", "--weight", "5", "--data-dir", str(tmp_path))
        assert code == 0
        cached = list(tmp_path.glob("rels_w5_*.json"))
        assert len(cached) == 1
        doc = json.loads(cached[0].read_text())
        assert doc["schema"] == 1 and doc["weight"] == 5
        # second run hits the cache and prints the same relations
        code2, out2 = run(capsys, "relations", "--weight", "5", "--data-dir", str(tmp_path))
        assert code2 == 0 and "8 relations" in out2

    def test_cache_roundtrip_exact(self, tmp_path):
        from polyzeta.cli import _relset_dict, _relset_from_dict
        from polyzeta.engine import generate_relations

        rs = generate_relations(6, include_duality=True)
        back = _relset_from_dict(json.loads(json.dumps(_relset_dict(rs))))
        assert back.weight == rs.weight and back.duality == rs.duality
        assert [(r.family, r.source, r.body) for r in back.relations] == [
            (r.family, r.source, r.body) for r in rs.relations
        ]

    def test_matrix_csv(self, capsys, tmp_path):
        out = tmp_path / "matrix.csv"
        code = main(["reduce", "--weight", "4", "--out", str(out),
                     "--data-dir", str(tmp_path)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[0] == "4"
        assert len(lines) == 1 + 3  # header + three relations

    def test_truncated_cache_is_regenerated(self, capsys, tmp_path):
        argv = ("reduce", "--weight", "6", "--report", "table", "--format", "json",
                "--data-dir", str(tmp_path))
        code, cold = run(capsys, *argv)
        assert code == 0
        (cached,) = tmp_path.glob("rels_w6_*.json")
        text = cached.read_text()
        cached.write_text(text[: len(text) // 2])
        code, out = run(capsys, *argv)
        assert code == 0 and out == cold
        assert cached.read_text() == text
        assert [p.name for p in tmp_path.iterdir()] == [cached.name]

    def test_reconcile_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["reconcile", "--g", "21", "--side", "stuffle",
                     "--max-weight", "6", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"].get("mismatch", 0) == 0
        assert doc["reports"]


class TestReduceVerify:
    def test_reduce_rank(self, capsys, tmp_path):
        code, out = run(capsys, "reduce", "--weight", "6", "--report", "rank",
                        "--data-dir", str(tmp_path))
        assert code == 0
        assert "rank 14" in out

    def test_reduce_table_weight_four(self, capsys, tmp_path):
        code, out = run(capsys, "reduce", "--weight", "4", "--report", "table",
                        "--data-dir", str(tmp_path))
        assert code == 0
        assert "(4) = 4/3*(2,2)" in out
        assert "(3,1) = 1/3*(2,2)" in out

    def test_verify_weight_five(self, capsys, tmp_path):
        code, out = run(capsys, "verify", "--weight", "5", "--numeric-tol", "1e-3",
                        "--data-dir", str(tmp_path))
        assert code == 0
        assert "all checks passed" in out
        assert "rank: 6" in out


@pytest.mark.parametrize("golden, argv", [
    ("reduce_table_w6.json", ["--weight", "6", "--report", "table", "--format", "json"]),
    ("reduce_table_w8.json", ["--weight", "8", "--report", "table", "--format", "json"]),
    ("reduce_no_hoffman_last_w6.json", ["--weight", "6", "--no-hoffman-last", "--format", "json"]),
    ("reduce_no_hoffman_last_w8.json", ["--weight", "8", "--no-hoffman-last", "--format", "json"]),
    ("matrix_w6_hoffman_last.csv", ["--weight", "6"]),
    ("matrix_w6.csv", ["--weight", "6", "--no-hoffman-last"]),
])
def test_reduce_golden_output(tmp_path, golden, argv):
    """Reduce output is frozen byte for byte (JSON reports, matrix CSV)."""
    out = tmp_path / golden
    code = main(["reduce", *argv, "--data-dir", str(tmp_path), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_verify_golden_output(tmp_path):
    out = tmp_path / "verify_w6.json"
    code = main(["verify", "--weight", "6", "--format", "json",
                 "--data-dir", str(tmp_path), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "verify_w6.json").read_bytes()
