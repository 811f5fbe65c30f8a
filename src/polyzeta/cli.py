"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 usage error (argparse,
or a value the input contract rejects), 3 internal inconsistency (a
structural guarantee violated at runtime) or any other failure, such as
RecursionError or MemoryError; every failure prints one line on stderr
and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from math import comb
from pathlib import Path

from . import __version__
from .closedforms import (LEFT_FACTORS, SIDES, closed_dsr, closed_shuffle, closed_stuffle,
                          reconcile, reconcile_one, sources)
from .core import Composition, ParseError, dual, format_composition, parse_composition, signature
from .counting import count_report, n_total, n_wd, n_wdh
from .engine import (GENERATOR_VERSION, RelationSet, Relation, expected_relation_count,
                     generate_relations, reduce_relations, verify_numeric)
from .numeric import MAX_TERMS, ToleranceUnreachable, check_tolerance, eval_mzv
from .oracle import InternalConsistencyError, LinComb, coeff_dict, shuffle, stuffle
from .ordering import enumerate_weight, positions

SCHEMA = 1


def _coeff_from_dict(d: dict) -> int | Fraction:
    num = int(d["num"])
    return num if d["den"] == "1" else Fraction(num, int(d["den"]))


def _lincomb_dict(lc: LinComb) -> dict:
    return {"terms": [{"coeff": coeff_dict(c), "composition": list(t)}
                      for t, c in lc.sorted_items()]}


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text + ("" if text.endswith("\n") else "\n"))
    else:
        print(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit_payload(args, payload: dict, text: str) -> None:
    _emit(args, _json_text(payload) if args.format == "json" else text)


# ---------------------------------------------------------------------------
# relation-set persistence
# ---------------------------------------------------------------------------

def _notices(rs: RelationSet) -> list[str]:
    """One line per requested family that has no source at the set's weight."""
    return [
        f"family {f}: no sources at weight {rs.weight} "
        f"(needs weight >= {LEFT_FACTORS[f].weight + 2})"
        for f in rs.families
        if not sources(f, rs.weight)
    ]


def _relset_dict(rs: RelationSet) -> dict:
    return {
        "schema": SCHEMA,
        "weight": rs.weight,
        "flags": {"families": list(rs.families), "duality": rs.duality,
                  "generator": GENERATOR_VERSION},
        "notices": _notices(rs),
        "relations": [{"family": r.family, "source": list(r.source), **_lincomb_dict(r.body)}
                      for r in rs.relations],
    }


def _relset_from_dict(doc: dict) -> RelationSet:
    """The relation set of an exported document.  Each term is looked up
    among the convergent compositions of the document's weight (KeyError
    if it is not one), so the set holds the enumeration's own terms, as a
    generated set does."""
    at = positions(doc["weight"])
    comps = enumerate_weight(doc["weight"])
    rels = [Relation(LinComb((comps[at[tuple(t["composition"])]], _coeff_from_dict(t["coeff"]))
                             for t in r["terms"]), r["family"], Composition(r["source"]))
            for r in doc["relations"]]
    flags = doc["flags"]
    return RelationSet(doc["weight"], rels, tuple(flags["families"]), flags["duality"])


def _read_cache(path: Path, key: tuple) -> RelationSet | None:
    """The cached relation set of ``key`` (weight, families, duality), or
    None for a missing, stale, truncated, corrupt or mismatched entry (a
    cache miss)."""
    try:
        doc = json.loads(path.read_text())
        flags = doc["flags"]
        if doc.get("schema") == SCHEMA and flags.get("generator") == GENERATOR_VERSION:
            held = (doc["weight"], tuple(flags["families"]), flags["duality"])
            if json.dumps(held) != json.dumps(key):  # so 6.0 or 0 is not 6 or false
                raise ValueError(f"entry holds {held}")
            return _relset_from_dict(doc)
    except FileNotFoundError:
        pass
    except (ValueError, KeyError, TypeError, AttributeError, ArithmeticError) as exc:
        print(f"warning: unreadable cache entry {path.name} ({exc!r}), regenerating",
              file=sys.stderr)
    return None


def _load_or_generate(args) -> RelationSet:
    """The relation set that --weight, --families and --duality name."""
    key = (args.weight, args.families, args.duality)
    if args.data_dir is None:
        return generate_relations(*key)
    path = Path(args.data_dir) / (f"rels_w{args.weight}_f{'-'.join(args.families)}"
                                  f"_d{int(args.duality)}_{GENERATOR_VERSION}.json")
    rs = _read_cache(path, key)
    if rs is not None:
        return rs
    rs = generate_relations(*key)
    # write a temp file and rename it, so readers never see a partial entry;
    # the directory is made here, so a refused command leaves none behind
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(_relset_dict(rs), sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return rs


def _families_arg(text: str) -> tuple[str, ...]:
    fams = tuple(x.strip() for x in text.split(",") if x.strip())
    use = f"(use {','.join(LEFT_FACTORS)})"
    if not fams:
        raise argparse.ArgumentTypeError(f"no family given {use}")
    for f in fams:
        if f not in LEFT_FACTORS:
            raise argparse.ArgumentTypeError(f"unknown family {f!r} {use}")
        if fams.count(f) > 1:
            raise argparse.ArgumentTypeError(f"family {f!r} given more than once")
    return fams


def _out_arg(text: str) -> str:
    """--out FILE, refused at parse time where no file can be written: a
    directory (the empty path names the working one) or a path whose
    directory is missing or is a file."""
    parent = os.path.dirname(text) or "."
    if os.path.isdir(text or "."):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: it is a directory")
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"cannot write {text!r}: {parent} is not a directory")
    return text


def _data_dir_arg(text: str) -> str:
    """--data-dir DIR, refused at parse time where no directory can be: a
    file, or a path under one.  A DIR that does not exist yet is made when
    the first entry is written."""
    there = text or "."
    while not os.path.lexists(there):  # the nearest part of the path that exists
        up = os.path.dirname(there.rstrip(os.sep)) or "."
        if up == there:
            break
        there = up
    if not os.path.isdir(there):
        where = "it" if there == text else there
        raise argparse.ArgumentTypeError(f"cannot use {text!r}: {where} is not a directory")
    return text


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_list(args) -> int:
    comps = enumerate_weight(args.weight)
    payload = {"schema": SCHEMA, "weight": args.weight, "compositions": [list(c) for c in comps]}
    _emit_payload(args, payload, "\n".join(format_composition(c) for c in comps))
    return 0


def _cmd_dual(args) -> int:
    c = parse_composition(args.composition)
    d = dual(c)
    _emit_payload(
        args,
        {"schema": SCHEMA, "composition": list(c), "dual": list(d)},
        format_composition(d),
    )
    return 0


def _cmd_wdh(args) -> int:
    c = parse_composition(args.composition)
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
                prods.append(f"{comb(d - 1, d - h)}*{comb(w - d - 1, h - 1)}")
        lines.append(f"  d={d}: {' + '.join(prods)} = {n_wd(w, d)}")
    lines.append(f"  total = {n_total(w)}")
    return "\n".join(lines)


def _cmd_count(args) -> int:
    w, d, h = args.weight, args.depth, args.height
    if h is not None and d is None:
        raise ValueError("--height needs --depth")
    # Python >= 3.11 converts at most 4300 digits between str and int by
    # default; a count may have more, so the limit is lifted while it prints
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.table:
            payload, text = count_report(w).as_dict(), _count_table_text(w)
        else:
            value = n_total(w) if d is None else n_wd(w, d) if h is None else n_wdh(w, d, h)
            fields = {"weight": w, "depth": d, "height": h, "count": value}
            payload = {k: v for k, v in fields.items() if v is not None}
            text = str(value)
        _emit_payload(args, {"schema": SCHEMA, **payload}, text)
        return 0
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _product_cmd(args, op) -> int:
    c1 = parse_composition(args.left)
    c2 = parse_composition(args.right)
    lc = op(c1, c2)
    _emit_payload(args, {"schema": SCHEMA, **_lincomb_dict(lc)}, str(lc))
    return 0


def _cmd_closed(args) -> int:
    z = parse_composition(args.composition)
    op = {"stuffle": closed_stuffle, "shuffle": closed_shuffle, "dsr": closed_dsr}[args.side]
    lc = op(args.g, z)
    _emit_payload(args, {"schema": SCHEMA, "g": args.g, "side": args.side,
                         "z": list(z), **_lincomb_dict(lc)}, str(lc))
    return 0


def _cmd_reconcile(args) -> int:
    reports = reconcile(args.g, args.side, args.max_weight)
    counts = Counter(r.verdict for r in reports)
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
    rs = _load_or_generate(args)
    payload = _relset_dict(rs)
    text_lines = [
        f"# weight {rs.weight}, {len(rs.relations)} relations "
        f"(families {','.join(rs.families)}, duality={rs.duality})"
    ]
    text_lines += payload["notices"]
    text_lines += [
        f"[{r.family}|{format_composition(r.source)}] 0 = {r.body}" for r in rs.relations
    ]
    _emit_payload(args, payload, "\n".join(text_lines))
    return 0


def _reduce_payload(rep, report: str) -> dict:
    payload = {"schema": SCHEMA, **rep.as_dict()}
    if report == "table":
        payload["table"] = {
            format_composition(piv): {
                format_composition(f): coeff_dict(x) for f, x in expr.items()
            }
            for piv, expr in rep.result.table.items()
        }
    return payload


def _reduce_text(rep, report: str) -> str:
    if report == "rank":
        return f"rank {rep.rank} (expected {rep.expected_rank}), ok={rep.ok}"
    if report == "basis":
        return "free columns: " + ", ".join(format_composition(c) for c in rep.free_columns)
    lines = []
    for piv in rep.result.pivot_columns:
        expr = rep.result.table[piv]
        rhs = " + ".join(
            f"{x}*({format_composition(f)})" for f, x in expr.items()
        ) or "0"
        lines.append(f"({format_composition(piv)}) = {rhs}")
    return "\n".join(lines)


def _cmd_reduce(args) -> int:
    rep = reduce_relations(_load_or_generate(args))
    # build only the report that --format prints
    if args.format == "json":
        _emit(args, _json_text(_reduce_payload(rep, args.report)))
    else:
        _emit(args, _reduce_text(rep, args.report))
    return 0 if rep.ok else 1


def _cmd_eval(args) -> int:
    c = parse_composition(args.composition)
    try:
        r, reached = eval_mzv(c, args.tol, args.max_terms), True
    except ToleranceUnreachable as exc:
        r, reached = exc.best, False
        print(f"warning: {exc}", file=sys.stderr)
    text = f"value={r.value!r} tail<={float(r.tail_estimate):.3e} terms={r.terms_used}"
    _emit_payload(args, {"schema": SCHEMA, "composition": list(c), "value": r.value,
                         "tail_estimate": float(r.tail_estimate),
                         "terms_used": r.terms_used, "reached_tol": reached},
                  text if reached else text + " (tolerance unreachable)")
    return 0 if reached else 1


def _cmd_verify(args) -> int:
    check_tolerance(args.numeric_tol)
    w = args.weight
    failures: list[dict] = []
    summary: list[str] = []

    n = len(enumerate_weight(w))
    if n != n_total(w):
        failures.append({"check": "enumeration", "got": n, "expected": n_total(w)})
    summary.append(f"enumeration: {n} polyzetas of weight {w}")

    for g in LEFT_FACTORS:
        for side in SIDES:
            for z in sources(g, w):
                rep = reconcile_one(g, side, z)
                if rep.verdict == "mismatch":
                    failures.append(
                        {"check": "closed-vs-oracle", "g": g, "side": side,
                         "z": list(z), "report": rep.as_dict()}
                    )
    summary.append("closed forms: reconciled against the brute-force products")

    rs = generate_relations(w)
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
    # a duality relation leaves the rank unchanged iff the table maps it to zero
    duals = generate_relations(w, families=(), include_duality=True).relations
    off = 0
    for d in duals:
        residue = rep.result.substitute(d.body)
        if residue:
            off += 1
            failures.append({"check": "duality", "source": list(d.source),
                             "residue": _lincomb_dict(LinComb(residue))["terms"]})
    summary.append(f"rank with duality: {rep.rank}" if not off else
                   f"duality: {off} of {len(duals)} relations not in the row space")

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

    payload = {"schema": SCHEMA, "weight": w, "ok": not failures, "summary": summary,
               "failures": failures}
    verdict = f"FAILURES: {len(failures)}" if failures else "all checks passed"
    _emit_payload(args, payload, "\n".join([*summary, verdict]))
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="FILE", type=_out_arg, default=None)
    # one product of the index: left factor and side
    product = argparse.ArgumentParser(add_help=False)
    product.add_argument("--g", choices=tuple(LEFT_FACTORS), required=True)
    product.add_argument("--side", choices=SIDES, required=True)
    # one relation set, as _load_or_generate reads it
    relset = argparse.ArgumentParser(add_help=False)
    relset.add_argument("--weight", type=int, required=True)
    relset.add_argument("--families", type=_families_arg, default=tuple(LEFT_FACTORS))
    relset.add_argument("--duality", action="store_true")
    relset.add_argument("--data-dir", metavar="DIR", type=_data_dir_arg, default=None)

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
    depth_or_table = sp.add_mutually_exclusive_group()
    depth_or_table.add_argument("--depth", type=int, default=None)
    depth_or_table.add_argument("--table", action="store_true")
    sp.add_argument("--height", type=int, default=None)
    sp.set_defaults(func=_cmd_count)

    for name, op, text in (("stuffle", stuffle, "quasi-shuffle product"),
                           ("shuffle", shuffle, "shuffle product")):
        sp = sub.add_parser(name, parents=[common], help=text)
        sp.add_argument("left")
        sp.add_argument("right")
        sp.set_defaults(func=partial(_product_cmd, op=op))

    sp = sub.add_parser("closed", parents=[common, product], help="closed-form product")
    sp.add_argument("composition")
    sp.set_defaults(func=_cmd_closed)

    sp = sub.add_parser("reconcile", parents=[common, product],
                        help="closed forms vs brute force, with print-defect deltas")
    sp.add_argument("--max-weight", type=int, default=12)
    sp.set_defaults(func=_cmd_reconcile)

    sp = sub.add_parser("relations", parents=[common, relset],
                        help="generate one weight's relations")
    sp.set_defaults(func=_cmd_relations)

    sp = sub.add_parser("reduce", parents=[common, relset], help="rank / basis / reduction table")
    sp.add_argument("--report", choices=("rank", "basis", "table"), default="rank")
    sp.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("eval", parents=[common], help="numerical value")
    sp.add_argument("composition")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--max-terms", type=int, default=MAX_TERMS)
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
    except Exception as exc:  # RecursionError, MemoryError, ...: no traceback
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
