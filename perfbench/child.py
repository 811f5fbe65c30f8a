"""Child processes of the benchmark.

    python3 perfbench/child.py setup --workload W --spawned T
    python3 perfbench/child.py pass --workload W --seed N --spawned T --deadline D
                               [--trace --spans FILE] [--smoke]
    python3 perfbench/child.py cli --spans FILE -- ARGV...

``setup`` measures a fresh process until polyzeta is imported and the
column orders of the workload's weights are enumerated.  ``pass`` runs
one pass of a workload in a fresh process: every operation (the short
ones several times), each execution under a timeout and followed
(outside its timing) by its verdict gate.  ``cli`` calls ``polyzeta.cli.main``
after the tracer is installed and writes the spans to FILE.  Each mode
prints one JSON object as its last stdout line (``cli`` prints what the
CLI prints).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
GOLDEN = json.loads((HERE / "golden.json").read_text())

# full size and the w=6 smoke size of every workload
SIZES = {
    "full": {"reduce": (9, 10, 11), "reconcile": 12, "relations": 14, "verify": 8, "cached": 10},
    "smoke": {"reduce": (4, 5, 6), "reconcile": 6, "relations": 6, "verify": 6, "cached": 6},
}
PAIRS = [(g, side) for g in ("1", "2", "3", "21") for side in ("stuffle", "shuffle", "dsr")]
REDUCE_REPEATS = (2, 1, 1)  # per pass, for the three reduce weights
CACHE_PAIRS = 4  # cold/warm CLI reduce pairs per verify pass


def child_env() -> dict:
    """Environment of every child: the package from the checkout, one thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_weights(workload: str, size: dict) -> range:
    top = {"reduce": max(size["reduce"]), "sweep": size["relations"],
           "verify": max(size["verify"], size["cached"])}[workload]
    return range(2, top + 1)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

OK, NEGATIVE, WRONG, TIMEOUT = "ok", "negative", "wrong", "timeout"


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def table_digest(table) -> str:
    """Digest of a reduction table {pivot: {free: Fraction}} as the CLI writes it."""
    from polyzeta.core import format_composition as fmt

    return digest({
        fmt(p): {fmt(f): [str(x.numerator), str(x.denominator)] for f, x in expr.items()}
        for p, expr in table.items()
    })


def cli_table_digest(table: dict) -> str:
    return digest({p: {f: [x["num"], x["den"]] for f, x in expr.items()}
                   for p, expr in table.items()})


def relations_digest(rs) -> str:
    return digest([
        [r.family, list(r.source), [[list(t), str(c)] for t, c in sorted(r.body.items())]]
        for r in rs.relations
    ])


def check_reduction(w: int, rep) -> tuple[str, str]:
    """Rank, free set, golden table and the substitution certificate."""
    from polyzeta import counting, engine

    expected = 2 ** (w - 2) - counting.hoffman_dim(w)
    if rep.rank != expected:
        return WRONG, f"rank {rep.rank}, expected {expected}"
    if set(rep.free_columns) != set(counting.hoffman_set(w)):
        return WRONG, "free columns differ from the Hoffman set"
    if table_digest(rep.result.table) != GOLDEN["tables"][str(w)]:
        return WRONG, "reduction table differs from the golden table"
    # every relation lies in the row space: rank_Q <= #pivots
    for r in engine.generate_relations(w).relations:
        if rep.result.substitute(r.body):
            return WRONG, f"relation {r.family}|{list(r.source)} not sent to zero"
    return OK, ""


def check_reconcile(max_w: int, reports: dict) -> tuple[str, str]:
    verdicts: dict[str, int] = {}
    for reps in reports.values():
        for r in reps:
            verdicts[r.verdict] = verdicts.get(r.verdict, 0) + 1
    if verdicts.get("mismatch"):
        return WRONG, f"{verdicts['mismatch']} mismatch verdicts"
    if verdicts != GOLDEN["reconcile"][str(max_w)]:
        return WRONG, f"verdict counts {verdicts}"
    return OK, ""


def check_relations(w: int, rs, shape=None) -> tuple[str, str]:
    n = 2 ** (w - 2)
    if len(rs.relations) != n:
        return WRONG, f"{len(rs.relations)} relations, expected {n}"
    if shape is not None and shape != (n, n):
        return WRONG, f"matrix shape {shape}"
    if relations_digest(rs) != GOLDEN["relations"][str(w)]:
        return WRONG, "relation bodies differ from the golden closed-form bodies"
    return OK, ""


def check_cli(res: dict, expect_table_w: int | None) -> tuple[str, str]:
    """Exit-code contract, JSON output, and (for reduce) the golden table."""
    if "Traceback" in res["stderr"]:
        return WRONG, "traceback on stderr"
    if res["exit"] not in (0, 1):
        return WRONG, f"exit code {res['exit']}"
    try:
        payload = json.loads(res["stdout"])
    except ValueError:
        return WRONG, "stdout is not JSON"
    if payload.get("ok") is not (res["exit"] == 0):
        return WRONG, f"ok={payload.get('ok')} with exit code {res['exit']}"
    if expect_table_w is None:  # verify: only the numeric referee may fail
        symbolic = [f["check"] for f in payload["failures"] if f["check"] != "numeric"]
        if symbolic:
            return WRONG, f"failed checks {symbolic}"
        if res["exit"]:
            n = sum(len(f["failures"]) for f in payload["failures"])
            return NEGATIVE, f"numeric referee failed {n} relations"
        return OK, ""
    if res["exit"]:
        return WRONG, f"reduce reported ok=false (rank {payload.get('rank')})"
    if cli_table_digest(payload["table"]) != GOLDEN["tables"][str(expect_table_w)]:
        return WRONG, "CLI table differs from the golden table"
    return OK, ""


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One execution: ``run(index)``, checked by ``gate(result, index)``.

    Short operations run several times in a pass (``index`` counts them)
    so that a run holds several samples; the executions of one operation
    count once in attempted/failed.
    """

    name: str
    slot: str
    timeout: float
    run: Callable
    gate: Callable
    index: int = 0


class OpTimeout(BaseException):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def build_ops(workload: str, size: dict, rng: random.Random, pass_state: dict) -> list[Op]:
    """The workload's operations in pass order; ``rng`` orders what is independent."""
    from polyzeta import closedforms, engine

    if workload == "reduce":
        ops = [
            Op(f"reduce_w{w}", f"op{k}", 30 * 2 ** (w - 9) + 30,
               lambda i, w=w: engine.hoffman_reduce(w),
               lambda rep, i, w=w: check_reduction(w, rep), i)
            for k, (w, n) in enumerate(zip(size["reduce"], REDUCE_REPEATS), 1)
            for i in range(n)
        ]
        rng.shuffle(ops)
        return ops
    if workload == "sweep":
        # fixed op order: the oracle's product caches couple the three ops
        pairs = PAIRS[:]
        rng.shuffle(pairs)
        mw, w = size["reconcile"], size["relations"]

        closed = []

        def relations(i):
            rs = engine.generate_relations(w)
            return rs, engine.assemble_matrix(rs, hoffman_last=True).shape

        def relations_gate(out, i):
            status = check_relations(w, *out)
            if status[0] == OK:
                closed.append(out[0])
            return status

        def oracle_gate(rs, i):
            if not closed:  # the closed-form op failed: compare with the golden digest
                return check_relations(w, rs)
            key = [(r.family, r.source, r.body) for r in rs.relations]
            if key != [(r.family, r.source, r.body) for r in closed[0].relations]:
                return WRONG, "oracle relation bodies differ from the closed-form bodies"
            return OK, ""

        return [
            Op("reconcile", "op1", 90,
               lambda i: {p: closedforms.reconcile(*p, mw) for p in pairs},
               lambda reps, i: check_reconcile(mw, reps)),
            Op(f"relations_w{w}", "op2", 90, relations, relations_gate),
            Op(f"oracle_w{w}", "op3", 120, lambda i: engine.generate_relations(w, mode="oracle"),
               oracle_gate),
        ]
    w, wc = size["verify"], size["cached"]
    dirs = [pass_state["data_dir"] / f"r{i}" for i in range(CACHE_PAIRS)]
    cold_files: dict[int, dict] = {}

    def reduce_argv(i):
        return ["reduce", "--weight", str(wc), "--report", "table", "--format", "json",
                "--data-dir", str(dirs[i])]

    def cold(i):
        dirs[i].mkdir()
        return run_cli(reduce_argv(i), pass_state)

    def cold_gate(res, i):
        status = check_cli(res, wc)
        cold_files[i] = _files(dirs[i])
        if status[0] == OK and not cold_files[i]:
            return WRONG, "no relation cache written"
        return status

    def warm_gate(res, i):
        status = check_cli(res, wc)
        now = _files(dirs[i])
        if status[0] == OK and any(now.get(f) != s for f, s in cold_files[i].items()):
            return NEGATIVE, "warm run rewrote the relation cache"
        return status

    # each cold run fills a fresh data dir that the warm run right after reads;
    # the pairs sit on both sides of verify, so their samples span the pass
    pairs = [
        [Op("reduce_cold", "op2", 60, cold, cold_gate, i),
         Op("reduce_warm", "op3", 60, lambda i: run_cli(reduce_argv(i), pass_state),
            warm_gate, i)]
        for i in range(CACHE_PAIRS)
    ]
    rng.shuffle(pairs)
    verify = Op(f"verify_w{w}", "op1", 120,
                lambda i: run_cli(["verify", "--weight", str(w), "--format", "json"], pass_state),
                lambda res, i: check_cli(res, None))
    half = CACHE_PAIRS // 2
    return [op for pair in pairs[:half] for op in pair] + [verify] + [
        op for pair in pairs[half:] for op in pair]


def _files(d: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns) for p in d.iterdir()}


def run_cli(argv: list[str], state: dict) -> dict:
    """One CLI call in a fresh process (traced through ``child.py cli``)."""
    if state["tracer"] is not None:
        spans = OUT / f"cli-spans-{os.getpid()}-{len(state['cli_dumps'])}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "cli", "--spans", str(spans), "--", *argv]
    else:
        spans = None
        cmd = [sys.executable, "-m", "polyzeta.cli", *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=state["timeout"])
    except subprocess.TimeoutExpired:
        raise OpTimeout() from None
    res = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    state["cli"].append({"exit": proc.returncode, "output_bytes": len(proc.stdout.encode())})
    if spans is not None and spans.exists():
        state["cli_dumps"].append((state["op"], json.loads(spans.read_text())))
        spans.unlink()
    return res


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def do_setup(workload: str, size: dict, spawned: float, tracer=None) -> float:
    import polyzeta  # noqa: F401  (the import is what is measured)
    from polyzeta import ordering

    if tracer is not None:
        tracer.install()
    for w in setup_weights(workload, size):
        ordering.enumerate_weight(w)
    return time.time() - spawned


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def do_pass(args) -> dict:
    size = SIZES["smoke" if args.smoke else "full"]
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    setup_s = do_setup(args.workload, size, args.spawned, tracer)
    OUT.mkdir(exist_ok=True)
    data_dir = OUT / f"data-{os.getpid()}"
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir()
    state = {"tracer": tracer, "data_dir": data_dir, "cli": [], "cli_dumps": [],
             "op": None, "timeout": None}
    ops = build_ops(args.workload, size, random.Random(args.seed), state)
    records: dict[str, dict] = {}
    try:
        for op in ops:
            rec = run_op(op, args.deadline, state)
            agg = records.setdefault(op.name, {**rec, "walls": [], "gate_s": 0.0})
            agg["walls"] += rec["walls"]
            agg["gate_s"] += rec["gate_s"]
            if agg["status"] == OK:
                agg.update(status=rec["status"], detail=rec["detail"])
        records = list(records.values())
        cache_bytes = max((sum(f.stat().st_size for f in d.iterdir())
                           for d in data_dir.iterdir()), default=0)
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(tracer),
        "setup_s": setup_s,
        "pass_s": sum(sum(r["walls"]) for r in records),
        "peak_rss_mb": peak_rss_mb(),
        "ops": records,
    }
    if tracer is not None:
        from layers import layer_metrics

        tracer.paused = True
        dumps = [(None, tracer.dump())] + state["cli_dumps"]
        out["layers"] = layer_metrics(dumps, records, state["cli"], cache_bytes)
        Path(args.spans).write_text(json.dumps(
            [{"op": op, "spans": d["spans"]} for op, d in dumps]))
    return out


def run_op(op: Op, deadline: float, state: dict) -> dict:
    """Run, time and gate one execution; a hang or crash becomes a failure."""
    rec = {"name": op.name, "slot": op.slot, "walls": [], "gate_s": 0.0, "status": OK,
           "detail": ""}
    timeout = min(op.timeout, deadline - time.time())
    if timeout <= 0:
        rec.update(status=TIMEOUT, detail="pass deadline reached before the operation")
        return rec
    tracer = state["tracer"]
    state["op"], state["timeout"] = op.name, timeout
    if tracer is not None:
        tracer.op = op.name
        tracer.execution += 1
    result = None
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    t0 = time.perf_counter()
    try:
        result = op.run(op.index)
    except OpTimeout:
        rec.update(status=TIMEOUT, detail=f"no result within {timeout:.0f} s")
    except Exception as exc:  # a crash of the operation is a failure, not a runner crash
        rec.update(status=WRONG, detail=f"raised {exc!r}")
    finally:
        rec["walls"].append(time.perf_counter() - t0)
        signal.setitimer(signal.ITIMER_REAL, 0)
    if tracer is not None:
        tracer.op, tracer.paused = None, True
    t0 = time.perf_counter()
    try:
        if rec["status"] == OK:
            status, detail = op.gate(result, op.index)
            rec.update(status=status, detail=detail)
    except Exception as exc:
        rec.update(status=WRONG, detail=f"verdict gate raised {exc!r}")
    finally:
        rec["gate_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.paused = False
    return rec


def do_cli(args) -> int:
    import polyzeta.cli
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = polyzeta.cli.main(args.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.paused = True
        Path(args.spans).write_text(json.dumps(tracer.dump()))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="child.py")
    sub = p.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("setup")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--spawned", type=float, required=True)
    sp.add_argument("--smoke", action="store_true")
    sp = sub.add_parser("pass")
    sp.add_argument("--workload", required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--spawned", type=float, required=True)
    sp.add_argument("--deadline", type=float, required=True)
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--spans")
    sp.add_argument("--smoke", action="store_true")
    sp = sub.add_parser("cli")
    sp.add_argument("--spans", required=True)
    sp.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args(argv)
    if args.mode == "cli":
        if args.argv[:1] == ["--"]:
            args.argv = args.argv[1:]
        return do_cli(args)
    if args.mode == "setup":
        size = SIZES["smoke" if args.smoke else "full"]
        print(json.dumps({"setup_s": do_setup(args.workload, size, args.spawned)}))
        return 0
    print(json.dumps(do_pass(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
