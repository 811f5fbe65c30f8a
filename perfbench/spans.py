"""Spans around the calls into polyzeta's layers, recorded from outside.

The tracer replaces the public functions at each layer boundary by
wrappers that record one span (name, start, end, parent, operation) per
call.  Every module attribute that refers to one of those functions is
replaced, so calls through aliases such as ``closedforms.oracle_dsr`` or
the names ``polyzeta.cli`` imports from ``polyzeta.engine`` are seen as
well.  ``core`` and ``counting`` are fine-grained helpers and are not
wrapped: their cost lands in the self time of their callers.

Spans stay in memory; ``dump`` returns them with the counters so the
caller writes them once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import time

# functions wrapped per layer module; the span name is "<layer>.<function>"
TARGETS = {
    "ordering": ("enumerate_weight",),
    "oracle": ("stuffle", "shuffle", "dsr"),
    "closedforms": ("closed_dsr", "reconcile_one", "reconcile"),
    "engine": (
        "generate_relations",
        "assemble_matrix",
        "exact_rref",
        "hoffman_reduce",
        "verify_numeric",
    ),
    "numeric": ("eval_mzv",),
}
LAYERS = ("ordering", "oracle", "closedforms", "engine", "numeric", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.stack: list[int] = []
        self.op: str | None = None
        self.execution = 0  # bumped per operation run, so repeats are not redundancy
        self.paused = False  # set while the benchmark checks verdicts
        self.sums: dict[str, float] = {}
        self.maxes: dict[str, float] = {}
        self._seen: set = set()
        self._oracle = None

    def add(self, name: str, value: float = 1) -> None:
        self.sums[name] = self.sums.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.maxes[name] = max(self.maxes.get(name, value), value)

    def first(self, key) -> bool:
        """True the first time ``key`` is seen in this process."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            ctx = before(args, kwargs) if before else None
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer.op]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            out = exc = None
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                if after:
                    after(ctx, args, out, exc)

        return traced

    def install(self) -> None:
        """Wrap every layer-boundary function wherever polyzeta refers to it."""
        import polyzeta
        from polyzeta import cli, closedforms, engine, numeric, oracle, ordering

        mods = {
            "ordering": ordering, "oracle": oracle, "closedforms": closedforms,
            "engine": engine, "numeric": numeric, "cli": cli,
        }
        self._oracle = oracle
        hooks = _hooks(self, engine, numeric)
        wrapped = {}
        for layer, names in TARGETS.items():
            for fname in names:
                fn = getattr(mods[layer], fname)
                before, after = hooks.get(f"{layer}.{fname}", (None, None))
                wrapped[id(fn)] = self.wrap(f"{layer}.{fname}", fn, before, after)
        for mod in (polyzeta, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])
        cli.main = self.wrap("cli.main", cli.main)

    def dump(self) -> dict:
        """Spans and counters of this process, with the oracle cache figures."""
        for label, fn in (("stuffle", self._oracle._stuffle),
                          ("shuffle", self._oracle._shuffle_words)):
            info = fn.cache_info()
            self.add(f"oracle.{label}_cache_hits", info.hits)
            self.add(f"oracle.{label}_cache_misses", info.misses)
            self.add(f"oracle.{label}_cache_size", info.currsize)
        return {"spans": self.spans, "sums": self.sums, "maxes": self.maxes}


def _bits(x: int) -> int:
    return abs(x).bit_length()


def _hooks(t: Tracer, engine, numeric) -> dict:
    """Counters taken at the layer boundaries (none walks a dense matrix)."""
    generate_sig = inspect.signature(engine.generate_relations)
    eval_sig = inspect.signature(numeric.eval_mzv)

    def bind(sig, args, kwargs) -> dict:
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        return a.arguments

    def enumerate_after(ctx, args, out, exc):
        if out is not None and t.first(("enumerate", args[0])):
            t.add("ordering.columns", len(out))

    def generate_before(args, kwargs):
        a = bind(generate_sig, args, kwargs)
        fams = a["families"]
        fams = tuple(fams) if isinstance(fams, (tuple, list)) else repr(fams)
        t.add("engine.generate_calls")
        if t.first(("generate", t.execution, a["w"], fams, a["include_duality"], a["mode"])):
            t.add("engine.generate_distinct")

    def assemble_after(ctx, args, out, exc):
        if out is not None:
            t.peak("engine.rows", len(out.rows))
            t.peak("engine.cols", len(out.columns))
            t.peak("engine.nnz", sum(len(r.body) for r in args[0].relations))

    def rref_after(ctx, args, out, exc):
        if out is None:
            return
        t.add("engine.eliminate_calls")
        t.peak("engine.rank", out.rank)
        entries = [x for expr in out.table.values() for x in expr.values()]
        t.peak("engine.table_nnz", len(entries))
        t.peak("engine.table_num_bits", max((_bits(x.numerator) for x in entries), default=0))
        t.peak("engine.table_den_bits", max((_bits(x.denominator) for x in entries), default=0))

    def verify_numeric_after(ctx, args, out, exc):
        if out is not None:
            t.add("engine.numeric_failed", len(out.failures))
            worst = max((r for _, _, r in out.residuals), default=0.0)
            t.peak("engine.numeric_worst_residual", worst)

    def reconcile_one_after(ctx, args, out, exc):
        if out is not None:
            t.add("closedforms.mismatches", out.verdict == "mismatch")

    def eval_before(args, kwargs):
        a = bind(eval_sig, args, kwargs)
        key = (tuple(a["c"]), float(a["tol"]), int(a["max_terms"]))
        t.add("numeric.eval_calls")
        return key, key in numeric._memo

    def eval_after(ctx, args, out, exc):
        key, hit = ctx
        if hit:
            t.add("numeric.memo_hits")
            return
        if t.first(("eval", key)):
            t.add("numeric.eval_distinct")
        if isinstance(exc, numeric.ToleranceUnreachable):
            t.add("numeric.unreachable")
            t.add("numeric.terms", exc.best.terms_used)
        elif out is not None:
            t.add("numeric.terms", out.terms_used)

    return {
        "ordering.enumerate_weight": (None, enumerate_after),
        "engine.generate_relations": (generate_before, None),
        "engine.assemble_matrix": (None, assemble_after),
        "engine.exact_rref": (None, rref_after),
        "engine.verify_numeric": (None, verify_numeric_after),
        "closedforms.reconcile_one": (None, reconcile_one_after),
        "numeric.eval_mzv": (eval_before, eval_after),
    }
