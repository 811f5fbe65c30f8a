"""polyzeta benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload reduce|sweep|verify|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Every pass of a workload runs in a
fresh single-threaded process (``child.py pass``), and passes repeat
while another fits in S seconds.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics (medians over the run); with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of the traced ones.  The lines before it are a table
of every end-to-end metric by name, with units.  ``--workload all``
runs the three workloads one after another.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time

from child import HERE, OUT, ROOT, child_env

WORKLOADS = ("reduce", "sweep", "verify")
OPS = {  # slot -> operation name at full size
    "reduce": {"op1": "reduce_w9", "op2": "reduce_w10", "op3": "reduce_w11"},
    "sweep": {"op1": "reconcile", "op2": "relations_w14", "op3": "oracle_w14"},
    "verify": {"op1": "verify_w8", "op2": "reduce_cold", "op3": "reduce_warm"},
}
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every pass ends by then, so a run exits within 180 s


def spawn(mode: str, workload: str, extra: list[str], timeout: float) -> dict | None:
    """Run one child; its last stdout line is its JSON result (None on failure)."""
    cmd = [sys.executable, str(HERE / "child.py"), mode, "--workload", workload,
           "--spawned", repr(time.time()), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    start = time.time()
    deadline = start + RUN_LIMIT_S
    rng = random.Random(seed)
    OUT.mkdir(exist_ok=True)
    size = ["--smoke"] if smoke else []
    spawn("setup", workload, size, 60)  # compiles bytecode once per checkout; not timed
    setup = [r["setup_s"] for r in (spawn("setup", workload, size, 60)
                                     for _ in range(SETUP_SAMPLES)) if r]
    passes, longest = [], 0.0
    need = 2 if trace else 1  # a traced run has an untraced and a traced pass at least
    while True:
        traced = trace and len(passes) % 2 == 1
        if len(passes) >= need and time.time() - start + longest > seconds:
            break
        if time.time() >= deadline - 5:
            break
        pass_seed = rng.randrange(2**31)
        extra = ["--seed", str(pass_seed), "--deadline", repr(deadline), *size]
        if traced:
            spans = OUT / f"spans-{workload}-seed{seed}-pass{len(passes)}.json"
            extra += ["--trace", "--spans", str(spans)]
        t0 = time.time()
        res = spawn("pass", workload, extra, deadline + 5 - t0)
        longest = max(longest, time.time() - t0)
        if res is None:  # crashed or killed: every operation of the pass failed
            res = {"traced": traced, "seed": pass_seed, "crashed": True,
                   "ops": [{"name": n, "slot": s, "walls": [], "status": "wrong",
                            "detail": "pass process crashed or was killed"}
                           for s, n in OPS[workload].items()]}
        passes.append(res)
    return summarize(workload, seed, setup, passes, trace)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def summarize(workload: str, seed: int, setup: list, passes: list, trace: bool) -> dict:
    plain = [p for p in passes if not p["traced"] and not p.get("crashed")]
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op["status"] != "ok"]
    setup = setup + [p["setup_s"] for p in plain]
    e2e = {
        "setup_s": (median(setup), len(setup)),
        "pass_s": (median([p["pass_s"] for p in plain]), len(plain)),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in plain]), len(plain)),
        "ops_ok_frac": (1 - len(failed) / len(ops), len(ops)),
    }
    names = {}
    for slot in ("op1", "op2", "op3"):
        walls = [w for p in plain for op in p["ops"] if op["slot"] == slot for w in op["walls"]]
        e2e[f"{slot}_s"] = (median(walls), len(walls))
        names[slot] = next((op["name"] for op in ops if op["slot"] == slot), OPS[workload][slot])
    summary = {
        "workload": workload, "seed": seed, "end_to_end": e2e, "op_names": names,
        "failed_ops": failed, "attempted": len(ops),
        "correct": not any(op["status"] == "wrong" for op in ops),
        "passes": passes,
    }
    if trace:
        traced = [p for p in passes if p["traced"] and not p.get("crashed")]
        keys = traced[0]["layers"] if traced else {}
        layers = {k: median([p["layers"][k] for p in traced]) for k in keys}
        layers["trace.overhead_s"] = median([p["pass_s"] for p in traced]) - e2e["pass_s"][0]
        summary["layers"] = layers
    return summary


def report(s: dict, units: dict) -> list[str]:
    """Human table: every end-to-end metric by name, with its unit."""
    e2e = s["end_to_end"]
    lines = [f"# perfbench {s['workload']} seed={s['seed']}: {len(s['passes'])} passes, "
             f"{s['attempted']} operations, {len(s['failed_ops'])} failed"]

    def row(name, value, unit, note):
        lines.append(f"  {name:<18} {value:>12} {unit:<5} {note}")

    for name in ("setup_s", "pass_s", "peak_rss_mb"):
        value, n = e2e[name]
        row(name, f"{value:.4f}", units[name], f"median of {n}")
    row("ops_failed_frac", f"{1 - e2e['ops_ok_frac'][0]:.4f}", "frac",
        f"{len(s['failed_ops'])} of {s['attempted']} (result: ops_ok_frac)")
    for workload, slots in OPS.items():
        for slot, name in slots.items():
            if workload == s["workload"]:
                value, n = e2e[f"{slot}_s"]
                row(s["op_names"][slot] + "_s", f"{value:.4f}", "s",
                    f"median of {n} (result: {slot}_s)")
            elif name != "reduce_w9":
                row(name + "_s", "n/a", "", f"(workload {workload})")
    for op in s["failed_ops"]:
        lines.append(f"  failed: {op['name']} {op['status']}: {op['detail']}")
    for name, value in s.get("layers", {}).items():
        lines.append(f"  {name:<36} {value:.6g} {units[name]}")
    return lines


def result_line(s: dict, spec: dict, trace: bool) -> dict:
    if trace:
        values = s["layers"]
        # a crashed traced pass leaves no layer figures; the run is then incorrect
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": s["end_to_end"][m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": s["correct"], "attempted": s["attempted"],
            "failed": len(s["failed_ops"]), "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=42)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)  # self-tests
    args = p.parse_args(argv)
    if not (ROOT / "src" / "polyzeta" / "__init__.py").is_file():
        print(f"perfbench: no polyzeta sources under {ROOT / 'src'}; "
              "run from the root of a polyzeta checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        s = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        (OUT / f"run-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(s, indent=1))
        print("\n".join(report(s, units)))
        print(json.dumps(result_line(s, spec, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
