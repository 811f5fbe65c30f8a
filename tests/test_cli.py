import argparse
import decimal
import io
import json
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyzeta.cli import _build_parser, _lincomb_dict, _relset_dict, main
from polyzeta.engine import GENERATOR_VERSION, generate_relations

GOLDEN = Path(__file__).resolve().parent / "golden"
# the commands that take --data-dir: the two that load a relation set
RELSET_COMMANDS = ("relations", "reduce")


def with_data_dir(argv, path) -> list[str]:
    """``argv`` with ``--data-dir path`` if its command takes one."""
    return [*argv, "--data-dir", str(path)] if argv[0] in RELSET_COMMANDS else list(argv)


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

    def test_count_prints_every_digit(self, capsys):
        # 2^14998 has 4515 digits, more than Python >= 3.11 converts by
        # default; Decimal formats it without that limit
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        with decimal.localcontext() as ctx:
            ctx.prec = 5000
            want = format(decimal.Decimal(2) ** 14998, "f")
        assert len(want) == 4515
        code, out = run(capsys, "count", "--weight", "15000")
        assert code == 0 and out.strip() == want
        code, out = run(capsys, "count", "--weight", "15000", "--format", "json")
        assert code == 0 and json.loads(out, parse_int=str)["count"] == want
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

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

    def test_determinism(self, capsys, tmp_path):
        # two fresh caches, so both runs generate the relations
        _, a = run(capsys, "relations", "--weight", "5", "--format", "json",
                   "--data-dir", str(tmp_path / "a"))
        _, b = run(capsys, "relations", "--weight", "5", "--format", "json",
                   "--data-dir", str(tmp_path / "b"))
        assert a == b
        assert list((tmp_path / "a").glob("rels_w5_*.json"))
        assert list((tmp_path / "b").glob("rels_w5_*.json"))

    @pytest.mark.parametrize("argv", [
        ["eval", "2", "--tol", "inf"],
        ["eval", "2", "--tol", "nan"],
        ["eval", "2", "--tol=-1e-3"],
        ["eval", "2", "--max-terms", "0"],
        ["verify", "--weight", "5", "--numeric-tol", "inf"],
        ["verify", "--weight", "5", "--numeric-tol", "nan"],
    ])
    def test_bad_tolerance_exits_two(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("cmd", ["list", "relations", "reduce", "verify"])
    def test_weight_above_cap_exits_two(self, capsys, tmp_path, cmd):
        # refused before any of the 2^19 compositions is built
        code = main(with_data_dir([cmd, "--weight", "21"], tmp_path))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: weight 21 exceeds the enumeration cap 20\n"

    @pytest.mark.parametrize("w", [-1, 0, 1])
    @pytest.mark.parametrize("argv", [
        ["relations"], ["relations", "--duality"], ["reduce"], ["reduce", "--duality"],
        ["verify"],
    ])
    def test_weight_below_two_exits_two(self, capsys, tmp_path, argv, w):
        code = main(with_data_dir([*argv, "--weight", str(w)], tmp_path))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: no convergent polyzetas of weight {w} (need w >= 2)\n"

    @pytest.mark.parametrize("w", [1, 21])
    @pytest.mark.parametrize("cmd", RELSET_COMMANDS)
    def test_refused_weight_makes_no_data_dir(self, capsys, tmp_path, cmd, w):
        # the cache directory is made only when an entry is written
        code = main([cmd, "--weight", str(w), "--data-dir", str(tmp_path / "d" / "x")])
        assert code == 2 and capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_reconcile_without_sources_exits_two(self, capsys):
        code = main(["reconcile", "--g", "1", "--side", "dsr", "--max-weight", "-3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: max_weight -3 is below 3, the least total "
                                "weight with a source for g=1\n")

    @pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"),
                                     MemoryError()])
    def test_other_failure_exits_three(self, capsys, monkeypatch, exc):
        def boom(args):
            raise exc

        monkeypatch.setattr("polyzeta.cli._cmd_list", boom)
        code = main(["list", "--weight", "4"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def _opt(flag, values, required=False):
    """``flag=value`` for one drawn value; absent at times unless required."""
    present = values.map(lambda v: [f"{flag}={v}"])
    return present if required else st.one_of(st.just([]), present)


def _flag(flag):
    return st.sampled_from([[], [flag]])


def _cmd(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name, *(word for p in ps for word in p)])


_COMP = st.sampled_from(["2", "3,1", "2,1", "4,1^2", "1", "1,2", "0", "2,1^-1", "2,,1", "x"])
_ONE, _TWO = st.lists(_COMP, min_size=1, max_size=1), st.lists(_COMP, min_size=2, max_size=2)
_WEIGHT = st.integers(-1, 6)
_W = _opt("--weight", _WEIGHT, required=True)
_TOL = st.sampled_from(["1e-3", "1e-6", "0", "-1e-3", "inf", "nan"])
_G = _opt("--g", st.sampled_from(["1", "2", "3", "21", "4"]), required=True)
_SIDE = _opt("--side", st.sampled_from(["stuffle", "shuffle", "dsr", "x"]), required=True)
_RELSET = (
    _W,
    _opt("--families", st.sampled_from(["1,2,3,21", "21", "2,3", "1,7", ""])),
    _flag("--duality"),
)
_ARGV = st.one_of(
    _cmd("list", _W),
    _cmd("dual", _ONE),
    _cmd("wdh", _ONE),
    _cmd("count", _W, _opt("--depth", _WEIGHT), _opt("--height", _WEIGHT), _flag("--table")),
    _cmd("stuffle", _TWO),
    _cmd("shuffle", _TWO),
    _cmd("closed", _G, _SIDE, _ONE),
    _cmd("reconcile", _G, _SIDE, _opt("--max-weight", st.integers(-1, 8), required=True)),
    _cmd("relations", *_RELSET),
    _cmd("reduce", *_RELSET, _opt("--report", st.sampled_from(["rank", "basis", "table"]))),
    _cmd("eval", _ONE, _opt("--tol", _TOL), _opt("--max-terms", st.sampled_from([0, 10]))),
    _cmd("verify", _W, _opt("--numeric-tol", _TOL)),
)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-contract")


@settings(max_examples=150, deadline=None)
@given(argv=_ARGV, fmt=st.sampled_from(["text", "json"]))
def test_exit_code_contract(data_dir, argv, fmt):
    """Any argv, well-formed or not, exits 0, 1, 2 or 3 (argparse's
    SystemExit(2) counts as 2) and prints no traceback."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(with_data_dir([*argv, f"--format={fmt}"], data_dir))
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv


def _edited(edit):
    """A corruption that applies ``edit`` to the parsed cache entry."""

    def corrupt(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc, sort_keys=True)

    return corrupt


CACHE_CORRUPTIONS = {
    "truncated": lambda text: text[: len(text) // 2],
    "zero-denominator": _edited(
        lambda doc: doc["relations"][0]["terms"][0]["coeff"].update(den="0")),
    "weight-mismatch": _edited(lambda doc: doc.update(weight=5)),
    "float-weight": _edited(lambda doc: doc.update(weight=6.0)),
    "int-duality": _edited(lambda doc: doc["flags"].update(duality=0)),
    "divergent-term": _edited(
        lambda doc: doc["relations"][0]["terms"][0].update(composition=[1, 5])),
    # the first term is (6): int() reads "6" as 6, the enumeration does not
    "string-entry": _edited(
        lambda doc: doc["relations"][0]["terms"][0].update(composition=["6"])),
}


class TestFilesAndCache:
    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "list.json"
        code = main(["list", "--weight", "4", "--format", "json", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["weight"] == 4

    @pytest.mark.parametrize("cmd", [["list", "--weight", "4"], ["verify", "--weight", "8"],
                                     ["reduce", "--weight", "10"]], ids=lambda cmd: cmd[0])
    @pytest.mark.parametrize("where, why", [("dir", "it is a directory"),
                                            ("missing/x", "is not a directory"),
                                            ("file/x", "is not a directory")])
    def test_unwritable_out_is_a_usage_error(self, capsys, monkeypatch, tmp_path,
                                             cmd, where, why):
        # refused while parsing, before any work: nothing generates, nothing is written
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("kept")
        monkeypatch.setattr("polyzeta.cli.generate_relations", None)
        monkeypatch.setattr("polyzeta.cli.enumerate_weight", None)
        with pytest.raises(SystemExit) as err:
            main([*cmd, "--out", str(tmp_path / where)])
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1].endswith(why)
        assert "error: argument --out: cannot write" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
        assert (tmp_path / "file").read_text() == "kept" and not any((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("cmd", ["relations", "reduce"])
    @pytest.mark.parametrize("where, why", [("file", "cannot use '{}': it is not a directory"),
                                            ("file/sub", "cannot use '{}': {} is not a directory")])
    def test_data_dir_under_a_file_is_a_usage_error(self, capsys, monkeypatch, tmp_path,
                                                    cmd, where, why):
        # refused while parsing, before any work: nothing generates, nothing is written
        (tmp_path / "file").write_text("kept")
        monkeypatch.setattr("polyzeta.cli.generate_relations", None)
        path = str(tmp_path / where)
        with pytest.raises(SystemExit) as err:
            main([cmd, "--weight", "5", "--data-dir", path])
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "error: argument --data-dir: " + why.format(path, tmp_path / "file"))
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text() == "kept"

    def test_data_dir_not_made_yet_is_accepted(self, capsys, tmp_path):
        dd = tmp_path / "new" / "dd"
        assert main(["relations", "--weight", "5", "--data-dir", str(dd)]) == 0
        assert [p.name[:8] for p in dd.iterdir()] == ["rels_w5_"]  # one cache entry

    def test_empty_out_is_a_usage_error(self, capsys):
        # the empty path names the working directory; it no longer means stdout
        with pytest.raises(SystemExit) as err:
            main(["list", "--weight", "4", "--out", ""])
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        assert captured.err.endswith("error: argument --out: cannot write '': it is a directory\n")

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

    def test_reduce_out_writes_the_report(self, capsys, tmp_path):
        # --out names where the report goes, whatever the file's suffix
        code, printed = run(capsys, "reduce", "--weight", "6", "--data-dir", str(tmp_path))
        out = tmp_path / "m.csv"
        assert code == 0
        assert main(["reduce", "--weight", "6", "--data-dir", str(tmp_path),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == printed

    # list and verify are frozen among USAGE_ERRORS
    @pytest.mark.parametrize("argv", [
        ["dual", "2,1"],
        ["wdh", "2,1"],
        ["count", "--weight", "4"],
        ["stuffle", "2", "2"],
        ["shuffle", "2", "2"],
        ["closed", "--g", "1", "--side", "dsr", "2"],
        ["reconcile", "--g", "1", "--side", "dsr"],
        ["eval", "2"],
    ], ids=lambda argv: argv[0])
    def test_data_dir_is_a_usage_error_elsewhere(self, capsys, tmp_path, argv):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        assert "unrecognized arguments: --data-dir" in captured.err
        assert "Traceback" not in captured.err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("corruption", CACHE_CORRUPTIONS)
    def test_truncated_cache_is_regenerated(self, capsys, tmp_path, corruption):
        argv = ["reduce", "--weight", "6", "--report", "table", "--format", "json",
                "--data-dir", str(tmp_path)]
        code, cold = run(capsys, *argv)
        assert code == 0
        (cached,) = tmp_path.glob("rels_w6_*.json")
        text = cached.read_text()
        cached.write_text(CACHE_CORRUPTIONS[corruption](text))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.out == cold
        assert captured.err.startswith(f"warning: unreadable cache entry {cached.name} (")
        assert captured.err.count("\n") == 1
        assert cached.read_text() == text
        assert [p.name for p in tmp_path.iterdir()] == [cached.name]

    def test_notices_are_computed_not_cached(self, capsys, tmp_path):
        argv = ["relations", "--weight", "4", "--data-dir", str(tmp_path)]
        code, cold = run(capsys, *argv)
        notices = [line for line in cold.splitlines() if line.startswith("family ")]
        assert code == 0 and len(notices) == 2  # 3 and 21 have no sources at weight 4
        (cached,) = tmp_path.glob("rels_w4_*.json")
        cached.write_text(_edited(lambda doc: doc.update(notices=["forged"]))(
            cached.read_text()))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.out == cold and captured.err == ""

    @pytest.mark.parametrize("inside", (None, "kept"))
    @pytest.mark.parametrize("cmd", RELSET_COMMANDS)
    def test_entry_that_is_a_directory(self, capsys, tmp_path, cmd, inside):
        # unreadable on read, and not replaced on write: the command runs
        # uncached, prints what it prints without --data-dir, and the
        # directory stays as it was
        code, plain = run(capsys, cmd, "--weight", "5")
        entry = tmp_path / f"rels_w5_f1-2-3-21_d0_{GENERATOR_VERSION}.json"
        entry.mkdir()
        if inside:
            (entry / inside).write_text(inside)
        code2 = main([cmd, "--weight", "5", "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == code2 == 0 and captured.out == plain
        assert "Traceback" not in captured.err
        read, write = captured.err.splitlines()
        why = f"cache entry {entry.name} (IsADirectoryError("
        assert read.startswith(f"warning: unreadable {why}") and read.endswith(", regenerating")
        assert write.startswith(f"warning: cannot write {why}")
        assert [p.name for p in tmp_path.iterdir()] == [entry.name]
        assert [(p.name, p.read_text()) for p in entry.iterdir()] == (
            [(inside, inside)] if inside else [])

    def test_unwritable_entry_runs_uncached(self, capsys, monkeypatch, tmp_path):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        argv = ["reduce", "--weight", "6", "--report", "table"]
        code, plain = run(capsys, *argv)
        monkeypatch.setattr("polyzeta.cli.os.replace", refuse)
        code2 = main([*argv, "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == code2 == 0 and captured.out == plain
        assert captured.err == (
            f"warning: cannot write cache entry rels_w6_f1-2-3-21_d0_{GENERATOR_VERSION}.json "
            "(PermissionError(13, 'Permission denied'))\n")
        assert not any(tmp_path.iterdir())  # no entry and no temp file

    @pytest.mark.parametrize("duality", (False, True))
    def test_cache_terms_in_the_fixed_weight_order(self, duality):
        # the writer sorts through positions(w); the order is sorted_items'
        for w in range(4, 13):
            rs = generate_relations(w, include_duality=duality)
            assert [r["terms"] for r in _relset_dict(rs)["relations"]] == [
                _lincomb_dict(r.body)["terms"] for r in rs.relations]

    @pytest.mark.parametrize("cmd", RELSET_COMMANDS)
    def test_no_data_dir_writes_no_file(self, capsys, monkeypatch, tmp_path, cmd):
        # without --data-dir the relations are generated and nothing is cached
        monkeypatch.chdir(tmp_path)
        assert main([cmd, "--weight", "6"]) == 0
        assert not any(tmp_path.iterdir())

    def test_reconcile_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["reconcile", "--g", "21", "--side", "stuffle",
                     "--max-weight", "6", "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdicts"].get("mismatch", 0) == 0
        assert doc["reports"]


# a name that ``cli`` imports, an edit of its result that makes one check
# of ``verify --weight 6`` fail, that check and the keys of its record
VERIFY_PLANTS = [
    ("enumerate_weight", lambda comps: comps[:-1], "enumeration", {"got", "expected"}),
    ("reconcile_one",
     lambda rep: replace(rep, verdict="mismatch")
     if (rep.g, rep.side, rep.z) == ("2", "dsr", (2, 2)) else rep,
     "closed-vs-oracle", {"g", "side", "z", "report"}),
    # a four-family relation, not a duality one: the rank stays 14
    ("generate_relations",
     lambda rs: replace(rs, relations=rs.relations[1:]) if rs.families else rs,
     "relation-count", {"got", "expected"}),
    ("reduce_relations", lambda rep: replace(rep, rank=rep.rank - 1),
     "rank", {"weight", "families", "duality", "rank", "expected_rank", "ok",
              "free_columns", "non_hoffman_free", "missing_hoffman"}),
    ("verify_numeric", lambda rep: replace(rep, failures=rep.residuals[:1]),
     "numeric", {"failures"}),
]


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

    @pytest.mark.parametrize("w, rank", [(2, 0), (3, 1)])
    def test_reduce_low_weights(self, capsys, tmp_path, w, rank):
        code, out = run(capsys, "reduce", "--weight", str(w), "--format", "json",
                        "--data-dir", str(tmp_path))
        doc = json.loads(out)
        assert code == 0
        assert doc["rank"] == doc["expected_rank"] == rank

    def test_rank_deficient_subset_at_weight_eleven(self, capsys, tmp_path):
        # a subset short of rank is a verification failure (exit 1), not an
        # internal inconsistency (exit 3)
        code, out = run(capsys, "reduce", "--weight", "11", "--families", "1,2,3",
                        "--report", "rank", "--format", "json", "--data-dir", str(tmp_path))
        doc = json.loads(out)
        assert code == 1
        assert doc["rank"] == 448 and doc["ok"] is False

    def test_empty_families_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["reduce", "--weight", "5", "--families", "", "--data-dir", str(tmp_path)])
        assert err.value.code == 2

    def test_verify_weight_ten_tight_tolerance(self, capsys):
        code, out = run(capsys, "verify", "--weight", "10", "--numeric-tol", "1e-20")
        assert code == 0
        assert "all checks passed" in out

    def test_verify_duality_residue_fails(self, capsys, monkeypatch):
        from polyzeta import cli

        real = cli.reduce_relations

        def wrong_table(rs, *a):
            # every table entry off by one: some duality relation no longer maps to 0
            rep = real(rs, *a)
            table = {piv: {f: x + 1 for f, x in expr.items()}
                     for piv, expr in rep.result.table.items()}
            return replace(rep, result=replace(rep.result, table=table))

        monkeypatch.setattr(cli, "reduce_relations", wrong_table)
        code, out = run(capsys, "verify", "--weight", "6", "--format", "json")
        doc = json.loads(out)
        bad = [f for f in doc["failures"] if f["check"] == "duality"]
        assert code == 1 and not doc["ok"]
        assert bad and all(f["source"] and f["residue"] for f in bad)
        assert f"duality: {len(bad)} of " in " ".join(doc["summary"])

    @pytest.mark.parametrize("name, edit, check, keys", VERIFY_PLANTS,
                             ids=[name for name, *_ in VERIFY_PLANTS])
    def test_verify_failure_record(self, capsys, monkeypatch, name, edit, check, keys):
        """A failure planted in one check of ``verify`` (the result of one
        name ``cli`` imports, edited) exits 1 with one record of that check,
        in both formats and without a traceback."""
        from polyzeta import cli

        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **k: edit(real(*a, **k)))
        code, out = run(capsys, "verify", "--weight", "6", "--format", "json")
        doc = json.loads(out)
        assert code == 1 and doc["ok"] is False
        (failure,) = doc["failures"]
        assert failure["check"] == check and set(failure) == {"check", *keys}
        code = main(["verify", "--weight", "6"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out.endswith("FAILURES: 1\n")
        assert "Traceback" not in captured.err

    def test_verify_weight_five(self, capsys):
        code, out = run(capsys, "verify", "--weight", "5", "--numeric-tol", "1e-3")
        assert code == 0
        assert "all checks passed" in out
        assert "rank: 6" in out


@pytest.mark.parametrize("golden, argv", [
    ("reduce_table_w6.json", ["--weight", "6", "--report", "table", "--format", "json"]),
    ("reduce_table_w8.json", ["--weight", "8", "--report", "table", "--format", "json"]),
])
def test_reduce_golden_output(tmp_path, golden, argv):
    """Reduce output is frozen byte for byte (JSON reports)."""
    out = tmp_path / golden
    code = main(["reduce", *argv, "--data-dir", str(tmp_path), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


GOLDEN_EXIT = {"eval_3_unreachable.json": 1}


@pytest.mark.parametrize("golden, argv", [
    ("relations_w8.json", ["relations", "--weight", "8", "--format", "json"]),
    ("reconcile_21_dsr_w9.json",
     ["reconcile", "--g", "21", "--side", "dsr", "--max-weight", "9", "--format", "json"]),
    ("reconcile_3_shuffle_w9.json",
     ["reconcile", "--g", "3", "--side", "shuffle", "--max-weight", "9", "--format", "json"]),
    ("eval_21.txt", ["eval", "2,1", "--tol", "1e-6"]),
    ("eval_21.json", ["eval", "2,1", "--tol", "1e-6", "--format", "json"]),
    ("eval_3_unreachable.json",
     ["eval", "3", "--tol", "1e-12", "--max-terms", "10", "--format", "json"]),
    ("relations_w6.txt", ["relations", "--weight", "6"]),
    ("stuffle_2_211.txt", ["stuffle", "2", "2,1,1"]),
    ("shuffle_3_21.txt", ["shuffle", "3", "2,1"]),
    ("closed_21_dsr_211.txt", ["closed", "--g", "21", "--side", "dsr", "2,1,1"]),
    ("reduce_table_w6.txt", ["reduce", "--weight", "6", "--report", "table"]),
    ("reduce_basis_w6.txt", ["reduce", "--weight", "6", "--report", "basis"]),
    ("count_w10.txt", ["count", "--weight", "10"]),
])
def test_golden_output(tmp_path, golden, argv):
    """Relation, product, reconcile, eval and table output is frozen byte for byte."""
    out = tmp_path / golden
    code = main([*with_data_dir(argv, tmp_path), "--out", str(out)])
    assert code == GOLDEN_EXIT.get(golden, 0)
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_verify_golden_output(tmp_path):
    out = tmp_path / "verify_w6.json"
    code = main(["verify", "--weight", "6", "--format", "json", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / "verify_w6.json").read_bytes()


SUBCOMMANDS = ("list", "dual", "wdh", "count", "stuffle", "shuffle", "closed",
               "reconcile", "relations", "reduce", "eval", "verify")
USAGE_ERRORS = (
    ["closed", "--g", "4", "--side", "dsr", "2"],
    ["reconcile", "--g", "1", "--side", "x"],
    ["relations", "--weight", "5", "--families", "1,7"],
    ["reduce", "--weight", "5", "--families", ""],
    ["relations"],
    ["reduce", "--weight", "5", "--mode", "oracle"],
    ["reduce", "--weight", "6", "--no-hoffman-last"],
    ["verify", "--weight", "6", "--data-dir", "x"],
    ["list", "--weight", "4", "--data-dir", "x"],
    ["count", "--weight", "8", "--depth", "3", "--table"],
    ["relations", "--weight", "5", "--families", "1,1"],
    ["list", "--weight", "4", "--out", "."],
)


def parser_transcript(argvs) -> str:
    """Each argv's command line, exit code and output, for argv that end in
    argparse (``--help`` or a usage error)."""
    chunks = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(argv)
        assert not (out.getvalue() and err.getvalue()), argv
        chunks.append(f"$ polyzeta {shlex.join(argv)}\n[exit {exc.value.code}]\n"
                      f"{out.getvalue()}{err.getvalue()}")
    return "".join(chunks)


@pytest.mark.parametrize("golden, argvs", [
    ("cli_help.txt", [["--help"]] + [[c, "--help"] for c in SUBCOMMANDS]),
    ("cli_usage_errors.txt", USAGE_ERRORS),
])
def test_parser_golden_output(monkeypatch, golden, argvs):
    """Help texts and usage errors are frozen byte for byte, at 200
    columns: no usage line wraps there, so every terminal and every
    supported Python (whose argparse versions wrap usage lines
    differently) prints the same transcript."""
    monkeypatch.setenv("COLUMNS", "200")
    assert parser_transcript(argvs).encode() == (GOLDEN / golden).read_bytes()


CHECKOUT = Path(__file__).resolve().parents[1]
README = CHECKOUT / "README.md"


def _readme_cli_section() -> str:
    text = README.read_text()
    start = text.index("\n## CLI\n")
    return text[start:text.index("\n## ", start + 1)]


def _option_strings(parser) -> set[str]:
    opts = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                opts |= _option_strings(sub)
    return opts


@pytest.mark.parametrize("line", [
    line for line in _readme_cli_section().split("```")[1].splitlines()
    if line.startswith("polyzeta ")
], ids=lambda line: line.split("#")[0].strip())
def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path, line):
    """Every command of README's CLI block exits 0 without a traceback,
    prints what a ``# -> X`` comment promises and, run in tmp_path, writes
    nothing but the files its --out and --data-dir name there."""
    def checkout_files():
        return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in CHECKOUT.rglob("*")
                if p.is_file() and ".git" not in p.parts and tmp_path not in p.parents}

    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))  # so a write under ~ shows in tmp_path
    argv = shlex.split(line, comments=True)[1:]
    before = checkout_files()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err, captured.err
    if "# -> " in line:
        assert captured.out == line.split("# -> ")[1].strip() + "\n"
    named = {argv[k + 1] for k, a in enumerate(argv) if a in ("--out", "--data-dir")}
    assert {p.name for p in tmp_path.iterdir()} == named
    assert checkout_files() == before


def test_readme_cli_options_exist():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _readme_cli_section()))
    assert named and named <= _option_strings(_build_parser()), named
