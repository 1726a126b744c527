"""Per-layer spans and counts for `hhx`, recorded from outside the package.

`Tracer.install()` replaces public functions and methods of the `hhx`
modules with wrappers that record a span (name, start, end, parent span,
job id) or bump a counter, and `uninstall()` puts the originals back.
Functions are patched in the namespace where the caller looks them up:
`hhx.cli` binds `builtin_space`, `load_space`, ... by name at import, so
those are replaced in `hhx.cli`, not in `hhx.simplicial`. Memoised methods
(`CochainSetup.coface`, `codegeneracy`, `differential`, `Matrix.rank`) get a
span and their counts only on the first call per object and arguments, which
is the call that builds.

Spans stay in memory until `dump()` writes them out; `layer_metrics()` turns
one round of them into self times (a span's duration minus the part its
child spans cover) and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Target(NamedTuple):
    """A function or method to wrap with a span."""

    module: str
    cls: str | None  # None: a module-level name
    attr: str
    name: str  # span name
    memo: bool = False  # span only the first call per object and args
    hook: str | None = None  # Tracer method called with (args, result)
    defer: bool = False  # run the hook when the job ends, outside every span


SPANS = (
    Target("hhx.cli", None, "main", "cli.main"),
    Target("hhx.cli", None, "builtin_space", "simplicial.load"),
    Target("hhx.cli", None, "load_space", "simplicial.load"),
    Target("hhx.cli", None, "validate_space", "simplicial.validate"),
    Target("hhx.cli", None, "load_algebra", "coeffalg.load"),
    Target("hhx.cli", None, "load_module", "coeffalg.load"),
    Target("hhx.actions", None, "sweep_closure", "actions.sweep", hook="_on_sweep"),
    Target("hhx.actions", None, "paranoid_closure", "actions.paranoid",
           hook="_on_paranoid", defer=True),
    Target("hhx.cochain", "CochainSetup", "__init__", "cochain.setup"),
    Target("hhx.cochain", "CochainSetup", "coface", "cochain.coface",
           memo=True, hook="_on_coface", defer=True),
    Target("hhx.cochain", "CochainSetup", "codegeneracy", "cochain.codegeneracy", memo=True),
    Target("hhx.cochain", "CochainSetup", "differential", "cochain.differential", memo=True),
    Target("hhx.cochain", "CochainSetup", "check_cosimplicial_identities", "cochain.identity"),
    Target("hhx.cochain", "CochainSetup", "cohomology_dims", "cochain.cohomology"),
    Target("hhx.cochain", "CochainSetup", "report", "cli.report"),
    Target("hhx.exactlinalg", "Matrix", "rank", "exactlinalg.rank", memo=True, hook="_on_rank"),
    Target("hhx.exactlinalg", "Matrix", "__matmul__", "exactlinalg.matmul", hook="_on_matmul"),
)

# Hot calls that are counted, not spanned: a span per call would cost more
# than the call. Memoised ones count on the first call per object and args.
COUNTERS = (
    ("hhx.simplicial", "SimplicialSpace", "face", "simplicial.face_calls", False),
    ("hhx.simplicial", "SimplicialSpace", "simplices", "simplicial.simplices", True),
)

# layer metric -> span names whose self times it sums
TIME_METRICS = {
    "exactlinalg.rank_s": ("exactlinalg.rank",),
    "exactlinalg.matmul_s": ("exactlinalg.matmul",),
    "cochain.coface_s": ("cochain.coface",),
    "cochain.codegeneracy_s": ("cochain.codegeneracy",),
    "cochain.differential_s": ("cochain.differential",),
    "cochain.identity_s": ("cochain.identity",),
    "cochain.cohomology_s": ("cochain.cohomology",),
    "cochain.setup_s": ("cochain.setup",),
    "coeffalg.load_s": ("coeffalg.load",),
    "simplicial.load_s": ("simplicial.load",),
    "simplicial.validate_s": ("simplicial.validate",),
    "actions.sweep_s": ("actions.sweep",),
    "actions.paranoid_s": ("actions.paranoid",),
    # argument parsing, report() glue and output emission
    "cli.report_s": ("cli.report", "cli.main"),
}

COUNT_METRICS = (
    "exactlinalg.rank_rows",
    "exactlinalg.rank_cols",
    "exactlinalg.rank_nnz",
    "exactlinalg.rank_sum",
    "exactlinalg.matmul_count",
    "exactlinalg.matmul_nnz",
    "cochain.coface_count",
    "cochain.coface_nnz",
    "cochain.coface_rows_scanned",
    "cochain.identity_products",
    "simplicial.face_calls",
    "simplicial.simplices",
    "actions.slots",
    "actions.classes",
    "actions.scanned_simplices",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job")

    def __init__(self, name, start, end, parent, job):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.job = job


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(idx, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """Wraps `hhx` entry points; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter()
        self.job = 0
        self._stack: list[int] = []
        self._seen = {}  # memo key -> object, held until the job ends
        self._pending = []  # deferred (hook, args, result)
        self._patches = []  # (owner, attribute, original)

    # -- patching ---------------------------------------------------------

    def install(self):
        for t in SPANS:
            owner = _owner(t.module, t.cls)
            hook = getattr(self, t.hook) if t.hook else None
            self._patch(owner, t.attr, self._span_wrapper(
                getattr(owner, t.attr), t.name, t.memo, hook, t.defer))
        for mod, cls, attr, name, memo in COUNTERS:
            owner = _owner(mod, cls)
            self._patch(owner, attr, self._count_wrapper(getattr(owner, attr), name, memo))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _first_call(self, args) -> bool:
        obj = args[0]
        key = (id(obj),) + args[1:]
        if key in self._seen:
            return False
        self._seen[key] = obj
        return True

    def _span_wrapper(self, fn, name, memo, hook, defer):
        spans = self.spans
        stack = self._stack
        pending = self._pending
        clock = time.perf_counter
        first_call = self._first_call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if memo and not first_call(args + (fn.__name__,)):
                return fn(*args, **kwargs)
            span = Span(name, clock(), None, stack[-1] if stack else None, self.job)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if defer:
                pending.append((hook, args, result))
            elif hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name, memo):
        counts = self.counts
        first_call = self._first_call

        if memo:
            @functools.wraps(fn)
            def wrapper(*args):
                result = fn(*args)
                if first_call(args + (fn.__name__,)):
                    counts[name] += len(result)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

        return wrapper

    # -- jobs and rounds ----------------------------------------------------

    def end_job(self):
        """Run deferred hooks and drop the objects held for memo detection."""
        for hook, args, result in self._pending:
            hook(args, result)
        self._pending.clear()
        self._seen.clear()
        self.job += 1

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def dump(self, path):
        """Write the spans recorded since reset() as JSON, with self times."""
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "job": s.job, "self": own}
            for s, own in zip(self.spans, self_times(self.spans))
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")

    def layer_metrics(self) -> dict[str, float]:
        """Self times and counts of everything recorded since reset()."""
        out = dict.fromkeys(TIME_METRICS, 0.0)
        own = self_times(self.spans)
        by_name = defaultdict(float)
        in_identity = []
        identity_products = 0
        for span, t in zip(self.spans, own):
            by_name[span.name] += t
            parent = span.parent
            inside = parent is not None and (
                in_identity[parent] or self.spans[parent].name == "cochain.identity"
            )
            in_identity.append(inside)
            if inside and span.name == "exactlinalg.matmul":
                identity_products += 1
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(by_name[n] for n in names)
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric]
        out["cochain.identity_products"] = identity_products
        scanned = self.counts["cochain.coface_rows_scanned"]
        out["cochain.coface_row_yield"] = (
            self.counts["cochain.coface_rows_nonzero"] / scanned if scanned else 0.0
        )
        return out

    # -- hooks ------------------------------------------------------------

    def _on_sweep(self, args, partition):
        self.counts["actions.slots"] += len(partition.slots)
        self.counts["actions.classes"] += partition.class_count
        space = args[0]
        self.counts["actions.scanned_simplices"] += sum(
            1 for g in space.generators if g.dim >= 2
        )

    def _on_paranoid(self, args, partition):
        space, cap = args
        self.counts["actions.scanned_simplices"] += sum(
            1
            for n in range(2, cap + 1)
            for s in space.simplices(n)
            if not space.is_basepoint(s)
        )

    def _on_coface(self, args, matrix):
        setup, n = args[0], args[1]
        m = setup.module.dim
        self.counts["cochain.coface_count"] += 1
        self.counts["cochain.coface_nnz"] += matrix.nnz()
        self.counts["cochain.coface_rows_scanned"] += setup.algebra.dim ** setup.t[n + 1]
        if m:
            self.counts["cochain.coface_rows_nonzero"] += len(
                {r // m for r, _ in matrix.entries}
            )

    def _on_rank(self, args, rank):
        matrix = args[0]
        self.counts["exactlinalg.rank_rows"] += matrix.rows
        self.counts["exactlinalg.rank_cols"] += matrix.cols
        self.counts["exactlinalg.rank_nnz"] += matrix.nnz()
        self.counts["exactlinalg.rank_sum"] += rank

    def _on_matmul(self, args, product):
        self.counts["exactlinalg.matmul_count"] += 1
        self.counts["exactlinalg.matmul_nnz"] += product.nnz()


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return mod if cls is None else getattr(mod, cls)
