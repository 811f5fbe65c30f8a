"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_pass_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= (6 if trace == "1" else 3)
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name in ("setup_s", "pass_s", "peak_rss_mb", "ops_failed_frac"):
            assert any(line.split()[:1] == [name] for line in lines[:-1])


def _record(op: child.Op) -> dict:
    return child.run_op(op, time.time() + 60, {"tracer": None, "op": None, "timeout": None})


def test_planted_wrong_reduction_is_a_failed_operation():
    from polyzeta import engine

    rep = engine.hoffman_reduce(6)
    table = {p: dict(expr) for p, expr in rep.result.table.items()}
    pivot = next(p for p, expr in table.items() if expr)
    free = next(iter(table[pivot]))
    table[pivot][free] += Fraction(1, 7)
    planted = dataclasses.replace(rep, result=dataclasses.replace(rep.result, table=table))
    good = _record(child.Op("reduce_w6", "op1", 30, lambda i: rep,
                            lambda r, i: child.check_reduction(6, r)))
    bad = _record(child.Op("reduce_w6", "op1", 30, lambda i: planted,
                           lambda r, i: child.check_reduction(6, r)))
    assert good["status"] == child.OK
    assert bad["status"] == child.WRONG
    passes = [{"traced": False, "seed": 1, "setup_s": 0.1, "pass_s": 1.0, "peak_rss_mb": 30.0,
               "ops": [good, bad, good]}]
    line = run.result_line(run.summarize("reduce", 1, [0.1], passes, False), SPEC, False)
    assert (line["attempted"], line["failed"], line["correct"]) == (3, 1, False)


@pytest.mark.parametrize("res, status", [
    ({"exit": 3, "stdout": "{}", "stderr": ""}, child.WRONG),
    ({"exit": 1, "stdout": "{}", "stderr": "Traceback (most recent call last):"}, child.WRONG),
    ({"exit": 0, "stdout": json.dumps({"ok": False, "failures": []}), "stderr": ""}, child.WRONG),
    ({"exit": 1, "stdout": json.dumps({"ok": False, "failures": [{"check": "rank"}]}),
      "stderr": ""}, child.WRONG),
    ({"exit": 1, "stdout": json.dumps({"ok": False, "failures": [
        {"check": "numeric", "failures": [{}, {}]}]}), "stderr": ""}, child.NEGATIVE),
    ({"exit": 0, "stdout": json.dumps({"ok": True, "failures": []}), "stderr": ""}, child.OK),
])
def test_verify_exit_codes(res, status):
    assert _record(child.Op("verify", "op1", 30, lambda i: res,
                            lambda r, i: child.check_cli(r, None)))["status"] == status


def test_reduce_with_exit_code_one_is_a_failed_operation():
    res = {"exit": 1, "stdout": json.dumps({"ok": False, "rank": 1}), "stderr": ""}
    assert child.check_cli(res, 6)[0] == child.WRONG


def test_hang_becomes_a_timeout_not_a_crash():
    rec = _record(child.Op("hang", "op1", 0.2, lambda i: time.sleep(5),
                           lambda r, i: (child.OK, "")))
    assert rec["status"] == child.TIMEOUT
    assert rec["walls"][0] < 2


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "reduce", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
