"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse),
3 internal inconsistency (a structural guarantee violated at runtime).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import __version__
from .closedforms import (
    LEFT_FACTORS,
    closed_dsr,
    closed_shuffle,
    closed_stuffle,
    reconcile,
    reconcile_one,
)
from .core import (
    Composition,
    ParseError,
    dual,
    format_composition,
    parse_composition,
    signature,
)
from .counting import count_report, hoffman_dim, n_total, n_wd, n_wdh
from .engine import (
    GENERATOR_VERSION,
    RelationSet,
    Relation,
    assemble_matrix,
    exact_rref,
    expected_relation_count,
    generate_relations,
    reduce_relations,
    verify_numeric,
)
from .numeric import ToleranceUnreachable, eval_mzv
from .oracle import InternalConsistencyError, LinComb, shuffle, stuffle
from .ordering import enumerate_weight

SCHEMA = 1
_GEN_HASH = hashlib.sha256(GENERATOR_VERSION.encode()).hexdigest()[:12]


def _frac_dict(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _lincomb_dict(lc: LinComb) -> dict:
    return {
        "terms": [
            {"coeff": _frac_dict(c), "composition": list(t)}
            for t, c in lc.sorted_items()
        ]
    }


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def _emit_payload(args, payload: dict, text: str) -> None:
    if args.format == "json":
        _emit(args, json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit(args, text)


def _data_dir(args) -> Path:
    root = args.data_dir or os.environ.get("POLYZETA_DATA_DIR") or ".polyzeta-cache"
    p = Path(root)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _parse_comp(text: str) -> Composition:
    # ParseError propagates to main(), which maps it to exit code 2
    return parse_composition(text)


# ---------------------------------------------------------------------------
# relation-set persistence
# ---------------------------------------------------------------------------

def _relset_dict(rs: RelationSet) -> dict:
    return {
        "schema": SCHEMA,
        "weight": rs.weight,
        "flags": {
            "families": list(rs.families),
            "duality": rs.duality,
            "mode": rs.mode,
            "generator": _GEN_HASH,
        },
        "notices": rs.notices,
        "relations": [
            {
                "family": r.family,
                "source": list(r.source),
                **_lincomb_dict(r.body),
            }
            for r in rs.relations
        ],
    }


def _relset_from_dict(doc: dict) -> RelationSet:
    rels = [
        Relation(
            LinComb(
                {
                    Composition(t["composition"]): Fraction(
                        int(t["coeff"]["num"]), int(t["coeff"]["den"])
                    )
                    for t in r["terms"]
                }
            ),
            r["family"],
            Composition(r["source"]),
        )
        for r in doc["relations"]
    ]
    flags = doc["flags"]
    return RelationSet(
        doc["weight"], rels, tuple(flags["families"]), flags["duality"],
        flags["mode"], list(doc.get("notices", ())),
    )


def _cache_path(base: Path, w: int, families, duality: bool, mode: str) -> Path:
    key = f"rels_w{w}_f{'-'.join(families)}_d{int(duality)}_{mode}_{_GEN_HASH}.json"
    return base / key


def _read_cache(path: Path) -> RelationSet | None:
    """The cached relation set, or None for a missing, stale, truncated or
    otherwise unreadable entry (a cache miss)."""
    try:
        doc = json.loads(path.read_text())
        if doc.get("schema") == SCHEMA and doc["flags"].get("generator") == _GEN_HASH:
            return _relset_from_dict(doc)
    except FileNotFoundError:
        pass
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"warning: unreadable cache entry {path.name} ({exc!r}), regenerating",
              file=sys.stderr)
    return None


def _load_or_generate(args, w: int, families, duality: bool, mode: str) -> RelationSet:
    path = _cache_path(_data_dir(args), w, families, duality, mode)
    rs = _read_cache(path)
    if rs is not None:
        return rs
    rs = generate_relations(w, families, duality, mode)
    # write a temp file and rename it, so readers never see a partial entry
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(_relset_dict(rs), sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return rs


def _families_arg(text: str) -> tuple[str, ...]:
    fams = tuple(x.strip() for x in text.split(",") if x.strip())
    for f in fams:
        if f not in LEFT_FACTORS:
            raise argparse.ArgumentTypeError(f"unknown family {f!r} (use 1,2,3,21)")
    return fams


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_list(args) -> int:
    comps = enumerate_weight(args.weight)
    payload = {
        "schema": SCHEMA,
        "weight": args.weight,
        "compositions": [list(c) for c in comps],
    }
    _emit_payload(args, payload, "\n".join(format_composition(c) for c in comps))
    return 0


def _cmd_dual(args) -> int:
    c = _parse_comp(args.composition)
    d = dual(c)
    _emit_payload(
        args,
        {"schema": SCHEMA, "composition": list(c), "dual": list(d)},
        format_composition(d),
    )
    return 0


def _cmd_wdh(args) -> int:
    c = _parse_comp(args.composition)
    sig = signature(c)
    _emit_payload(
        args,
        {"schema": SCHEMA, "composition": list(c),
         "weight": sig.weight, "depth": sig.depth, "height": sig.height},
        f"weight={sig.weight} depth={sig.depth} height={sig.height}",
    )
    return 0


def _count_table_text(w: int) -> str:
    lines = [f"weight {w}:"]
    for d in range(1, w):
        prods = []
        for h in range(1, min(d, w - d) + 1):
            n = n_wdh(w, d, h)
            if n:
                from math import comb

                prods.append(f"{comb(d - 1, d - h)}*{comb(w - d - 1, h - 1)}")
        lines.append(f"  d={d}: {' + '.join(prods)} = {n_wd(w, d)}")
    lines.append(f"  total = {n_total(w)}")
    return "\n".join(lines)


def _cmd_count(args) -> int:
    w = args.weight
    if args.height is not None and args.depth is None:
        raise ValueError("--height needs --depth")
    if args.depth is not None and args.height is not None:
        value = n_wdh(w, args.depth, args.height)
        _emit_payload(args, {"schema": SCHEMA, "weight": w, "depth": args.depth,
                             "height": args.height, "count": value}, str(value))
        return 0
    if args.depth is not None:
        value = n_wd(w, args.depth)
        _emit_payload(args, {"schema": SCHEMA, "weight": w, "depth": args.depth,
                             "count": value}, str(value))
        return 0
    if args.table:
        rep = count_report(w)
        _emit_payload(args, {"schema": SCHEMA, **rep.as_dict()}, _count_table_text(w))
        return 0
    _emit_payload(args, {"schema": SCHEMA, "weight": w, "count": n_total(w)},
                  str(n_total(w)))
    return 0


def _product_cmd(args, op) -> int:
    c1 = _parse_comp(args.left)
    c2 = _parse_comp(args.right)
    lc = op(c1, c2)
    _emit_payload(args, {"schema": SCHEMA, **_lincomb_dict(lc)}, str(lc))
    return 0


def _cmd_closed(args) -> int:
    z = _parse_comp(args.composition)
    op = {"stuffle": closed_stuffle, "shuffle": closed_shuffle, "dsr": closed_dsr}[args.side]
    lc = op(args.g, z)
    _emit_payload(args, {"schema": SCHEMA, "g": args.g, "side": args.side,
                         "z": list(z), **_lincomb_dict(lc)}, str(lc))
    return 0


def _cmd_reconcile(args) -> int:
    reports = reconcile(args.g, args.side, args.max_weight)
    counts: dict[str, int] = {}
    for r in reports:
        counts[r.verdict] = counts.get(r.verdict, 0) + 1
    payload = {
        "schema": SCHEMA,
        "g": args.g,
        "side": args.side,
        "max_weight": args.max_weight,
        "verdicts": counts,
        "reports": [r.as_dict() for r in reports],
    }
    text = (
        f"g={args.g} side={args.side} up to total weight {args.max_weight}: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    _emit_payload(args, payload, text)
    return 1 if counts.get("mismatch") else 0


def _cmd_relations(args) -> int:
    rs = _load_or_generate(args, args.weight, args.families, args.duality, args.mode)
    payload = _relset_dict(rs)
    text_lines = [
        f"# weight {rs.weight}, {len(rs.relations)} relations "
        f"(families {','.join(rs.families)}, duality={rs.duality}, mode={rs.mode})"
    ]
    text_lines += rs.notices
    text_lines += [
        f"[{r.family}|{format_composition(r.source)}] 0 = {r.body}" for r in rs.relations
    ]
    _emit_payload(args, payload, "\n".join(text_lines))
    return 0


def _matrix_csv(rs: RelationSet, hoffman_last: bool, path: str) -> None:
    """Write the coefficient matrix as dense CSV, streaming the sparse rows
    ("0" for an absent entry)."""
    m = assemble_matrix(rs, hoffman_last)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([format_composition(c) for c in m.columns])
        for row in m.rows:
            writer.writerow([str(row.get(k, 0)) for k in range(len(m.columns))])


def _cmd_reduce(args) -> int:
    rs = _load_or_generate(args, args.weight, args.families, args.duality, args.mode)
    if args.out and args.out.endswith(".csv"):
        _matrix_csv(rs, args.hoffman_last, args.out)
        return 0
    if not args.hoffman_last:
        red = exact_rref(assemble_matrix(rs, hoffman_last=False))
        expected = 2 ** (args.weight - 2) - hoffman_dim(args.weight)
        payload = {
            "schema": SCHEMA,
            "weight": args.weight,
            "rank": red.rank,
            "expected_rank": expected,
            "free_columns": [list(c) for c in red.free_columns],
        }
        text = f"rank {red.rank} (expected {expected}), free columns: " + ", ".join(
            format_composition(c) for c in red.free_columns
        )
        _emit_payload(args, payload, text)
        return 0 if red.rank == expected else 1
    rep = reduce_relations(rs)
    if args.report == "rank":
        payload = {"schema": SCHEMA, **rep.as_dict()}
        text = f"rank {rep.rank} (expected {rep.expected_rank}), ok={rep.ok}"
    elif args.report == "basis":
        payload = {"schema": SCHEMA, **rep.as_dict()}
        text = "free columns: " + ", ".join(
            format_composition(c) for c in rep.free_columns
        )
    else:  # table
        payload = {
            "schema": SCHEMA,
            **rep.as_dict(),
            "table": {
                format_composition(piv): {
                    format_composition(f): _frac_dict(x) for f, x in expr.items()
                }
                for piv, expr in rep.result.table.items()
            },
        }
        lines = []
        for piv in rep.result.pivot_columns:
            expr = rep.result.table[piv]
            rhs = " + ".join(
                f"{x}*({format_composition(f)})" for f, x in expr.items()
            ) or "0"
            lines.append(f"({format_composition(piv)}) = {rhs}")
        text = "\n".join(lines)
    _emit_payload(args, payload, text)
    return 0 if rep.ok else 1


def _cmd_eval(args) -> int:
    c = _parse_comp(args.composition)
    try:
        r = eval_mzv(c, args.tol, args.max_terms)
    except ToleranceUnreachable as exc:
        r = exc.best
        print(f"warning: {exc}", file=sys.stderr)
        _emit_payload(args, {"schema": SCHEMA, "composition": list(c),
                             "value": r.value, "tail_estimate": float(r.tail_estimate),
                             "terms_used": r.terms_used, "reached_tol": False},
                      f"value={r.value!r} tail<={float(r.tail_estimate):.3e} "
                      f"terms={r.terms_used} (tolerance unreachable)")
        return 1
    _emit_payload(args, {"schema": SCHEMA, "composition": list(c), "value": r.value,
                         "tail_estimate": float(r.tail_estimate),
                         "terms_used": r.terms_used, "reached_tol": True},
                  f"value={r.value!r} tail<={float(r.tail_estimate):.3e} terms={r.terms_used}")
    return 0


def _cmd_verify(args) -> int:
    w = args.weight
    failures: list[dict] = []
    summary: list[str] = []

    n = len(enumerate_weight(w))
    if n != n_total(w):
        failures.append({"check": "enumeration", "got": n, "expected": n_total(w)})
    summary.append(f"enumeration: {n} polyzetas of weight {w}")

    for g in ("1", "2", "3", "21"):
        for side in ("stuffle", "shuffle", "dsr"):
            gw = LEFT_FACTORS[g].weight
            if w - gw < 2:
                continue
            for z in enumerate_weight(w - gw):
                rep = reconcile_one(g, side, z)
                if rep.verdict == "mismatch":
                    failures.append(
                        {"check": "closed-vs-oracle", "g": g, "side": side,
                         "z": list(z), "report": rep.as_dict()}
                    )
    summary.append("closed forms: reconciled against the brute-force products")

    rs = generate_relations(w, mode="closed")
    if w >= 5 and len(rs.relations) != expected_relation_count(w):
        failures.append({"check": "relation-count", "got": len(rs.relations),
                         "expected": expected_relation_count(w)})
    summary.append(f"relations: {len(rs.relations)} generated")

    rep = reduce_relations(rs)
    if not rep.ok:
        failures.append({"check": "rank", **rep.as_dict()})
    summary.append(
        f"rank: {rep.rank} (expected {rep.expected_rank}), free columns "
        + "{" + ", ".join(format_composition(c) for c in rep.free_columns) + "}"
    )
    duals = generate_relations(w, families=(), include_duality=True).relations
    repd = reduce_relations(replace(rs, relations=rs.relations + duals, duality=True))
    summary.append(f"rank with duality: {repd.rank}")
    if repd.rank != rep.rank:
        summary.append("note: duality changed the rank (recorded, not failed)")

    nrep = verify_numeric(rs, args.numeric_tol)
    if not nrep.ok:
        failures.append({
            "check": "numeric",
            "failures": [
                {"family": f, "source": list(s), "ratio": r} for f, s, r in nrep.failures
            ],
        })
    worst = max((r for _, _, r in nrep.residuals), default=0.0)
    summary.append(f"numeric: worst relative residual {worst:.2e} at tol {args.numeric_tol}")

    payload = {
        "schema": SCHEMA,
        "weight": w,
        "ok": not failures,
        "summary": summary,
        "failures": failures,
    }
    text = "\n".join(summary + ([f"FAILURES: {len(failures)}"] if failures else ["all checks passed"]))
    _emit_payload(args, payload, text)
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="FILE", default=None)
    common.add_argument("--data-dir", metavar="DIR", default=None)

    p = argparse.ArgumentParser(
        prog="polyzeta",
        description="Exact calculus for multiple zeta values: products, "
        "double-shuffle relations, duality, rank checks.",
    )
    p.add_argument("--version", action="version", version=f"polyzeta {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("list", parents=[common], help="ordered polyzetas of one weight")
    sp.add_argument("--weight", type=int, required=True)
    sp.set_defaults(func=_cmd_list)

    sp = sub.add_parser("dual", parents=[common], help="duality involution")
    sp.add_argument("composition")
    sp.set_defaults(func=_cmd_dual)

    sp = sub.add_parser("wdh", parents=[common], help="weight, depth, height")
    sp.add_argument("composition")
    sp.set_defaults(func=_cmd_wdh)

    sp = sub.add_parser("count", parents=[common], help="counting formulas")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--height", type=int, default=None)
    sp.add_argument("--table", action="store_true")
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("stuffle", parents=[common], help="quasi-shuffle product")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(func=lambda a: _product_cmd(a, stuffle))

    sp = sub.add_parser("shuffle", parents=[common], help="shuffle product")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.set_defaults(func=lambda a: _product_cmd(a, shuffle))

    sp = sub.add_parser("closed", parents=[common], help="closed-form product")
    sp.add_argument("--g", choices=("1", "2", "3", "21"), required=True)
    sp.add_argument("--side", choices=("stuffle", "shuffle", "dsr"), required=True)
    sp.add_argument("composition")
    sp.set_defaults(func=_cmd_closed)

    sp = sub.add_parser("reconcile", parents=[common],
                        help="closed forms vs brute force, with print-defect deltas")
    sp.add_argument("--g", choices=("1", "2", "3", "21"), required=True)
    sp.add_argument("--side", choices=("stuffle", "shuffle", "dsr"), required=True)
    sp.add_argument("--max-weight", type=int, default=12)
    sp.set_defaults(func=_cmd_reconcile)

    sp = sub.add_parser("relations", parents=[common], help="generate one weight's relations")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--families", type=_families_arg, default=("1", "2", "3", "21"))
    sp.add_argument("--duality", action="store_true")
    sp.add_argument("--mode", choices=("closed", "oracle"), default="closed")
    sp.set_defaults(func=_cmd_relations)

    sp = sub.add_parser("reduce", parents=[common], help="rank / basis / reduction table")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--families", type=_families_arg, default=("1", "2", "3", "21"))
    sp.add_argument("--duality", action="store_true")
    sp.add_argument("--mode", choices=("closed", "oracle"), default="closed")
    sp.add_argument("--report", choices=("rank", "basis", "table"), default="rank")
    sp.add_argument("--hoffman-last", action=argparse.BooleanOptionalAction, default=True)
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("eval", parents=[common], help="numerical value")
    sp.add_argument("composition")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--max-terms", type=int, default=10**7)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("verify", parents=[common], help="end-to-end checks at one weight")
    sp.add_argument("--weight", type=int, required=True)
    sp.add_argument("--numeric-tol", type=float, default=1e-3)
    sp.set_defaults(func=_cmd_verify)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
