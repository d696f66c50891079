"""Span tracer that wraps invisiscat's public functions from outside.

``Tracer.install`` replaces each traced function on every ``invisiscat.*``
module attribute bound to it (``medium.make_support_grid`` as well as
``kernels.make_support_grid``), and on the ``experiments.SUITES`` table,
then asserts that no module still holds an unwrapped original.  A target
that the program no longer defines is reported as absent.

Each call records a span (name, thread, start, end) and, through an
optional hook, counters taken from its arguments and return value.
``Tracer.self_times`` turns the spans into self times that add up to the
traced wall time: at every instant the wall time goes to the innermost
open span of each thread, split equally when several threads have one
open.  An open span on the main thread does not count while worker
threads run spans, because then the main thread only waits for the pool.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced callable: metric prefix, module, and dotted attribute path."""

    name: str
    module: str
    attr: str  # "fn" or "Class.method"
    hook: Callable | None = None  # hook(tracer, stack, args, kwargs, result)
    span: bool = True  # False: count calls only, leave the time to the caller's span


def _prod(shape) -> int:
    return math.prod(int(s) for s in shape)


def _grid_cells(tr, stack, args, kwargs, grid):
    tr.add("kernels.make_support_grid.cells", grid.points.shape[0])


def _build(tr, stack, args, kwargs, _):
    conv = args[0]
    tr.add("kernels.GridConvolver.build.builds", 1)
    tr.add("kernels.GridConvolver.build.table_points", _prod(2 * s for s in conv.grid.shape))
    with tr.lock:
        tr.build_keys.add((tuple(conv.grid.shape), float(conv.grid.spacing), float(conv.k)))


def _apply(tr, stack, args, kwargs, _):
    tr.add("kernels.GridConvolver.apply.applies", 1)
    tr.add("kernels.GridConvolver.apply.fft_points", _prod(2 * s for s in args[0].grid.shape))
    if "medium.solve_ls" in stack and "medium.estimate_c0" not in stack:
        tr.add("medium.solve_ls.applies", 1)


def _solve(tr, stack, args, kwargs, sol):
    tr.add("medium.solve_ls.unknowns", sol.grid.points.shape[0])
    tr.add(f"medium.solve_ls.{sol.method}", 1)


def _points(name):
    def hook(tr, stack, args, kwargs, _):
        x = args[1] if len(args) > 1 else kwargs["x"]
        tr.add(name, getattr(x, "size", 1))
    return hook


def _targets(tr, stack, args, kwargs, out):
    tr.add("source.solve_field.targets", len(out))


def _roots(tr, stack, args, kwargs, pairs):
    tr.add("transmission.roots", len(pairs))


def _evals(tr, stack, args, kwargs, out):
    tr.add("quadrature.integrate_full.evals", out[2])


def _determinant(tr, stack, args, kwargs, _):
    tr.add("transmission.itp_determinant.calls", 1)


SUITE_MODULE = "invisiscat.experiments"

TARGETS = [
    Target("kernels.make_support_grid", "invisiscat.kernels", "make_support_grid", _grid_cells),
    Target("kernels.GridConvolver.build", "invisiscat.kernels", "GridConvolver.__init__", _build),
    Target("kernels.GridConvolver.apply", "invisiscat.kernels", "GridConvolver.apply", _apply),
    Target("medium.solve_ls", "invisiscat.medium", "solve_ls", _solve),
    Target("medium.estimate_c0", "invisiscat.medium", "estimate_c0"),
    Target("medium.incident", "invisiscat.medium", "MediumScene.incident_values"),
    Target("medium.scattered_far_field", "invisiscat.medium", "scattered_far_field"),
    Target("specfun.hankel1_grid", "invisiscat.specfun", "hankel1_grid", _points("specfun.hankel1_grid.points")),
    Target("source.solve_field", "invisiscat.source", "solve_field", _targets),
    Target("source.far_field", "invisiscat.source", "far_field"),
    Target("source.radiationless_radius", "invisiscat.source", "radiationless_radius"),
    Target("transmission.find_eigenvalues", "invisiscat.transmission", "find_eigenvalues", _roots),
    Target("transmission.itp_determinant", "invisiscat.transmission", "itp_determinant",
           _determinant, span=False),
    Target("quadrature.integrate_full", "invisiscat.quadrature", "integrate_full", _evals),
    Target("cgo.closed_form", "invisiscat.cgo", "cgo_over_parabola"),
    Target("cgo.closed_form", "invisiscat.cgo", "cgo_sliced"),
    Target("cgo.closed_form", "invisiscat.cgo", "cgo_tail_bound"),
    Target("cgo.closed_form", "invisiscat.cgo", "cgo_weighted_cap_bound"),
    Target("cgo.closed_form", "invisiscat.cgo", "curvature_estimate_rhs"),
    Target("holder.holder_norm", "invisiscat.holder", "holder_norm"),
]


def suite_targets() -> list:
    """One span per experiment suite, named ``experiments.<suite>``."""
    experiments = importlib.import_module(SUITE_MODULE)
    return [
        Target(f"experiments.{name}", SUITE_MODULE, fn.__name__)
        for name, fn in experiments.SUITES.items()
    ]


def _resolve(target: Target):
    """(owner, attribute name, original) or None when the program lacks it."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
    if not callable(fn):
        return None
    return owner, leaf, fn


def _bindings():
    """(namespace, its items) for every invisiscat module and the SUITES table."""
    out = [(m, list(vars(m).items())) for name, m in list(sys.modules.items())
           if m is not None and (name == "invisiscat" or name.startswith("invisiscat."))]
    suites = getattr(sys.modules.get(SUITE_MODULE), "SUITES", None)
    if isinstance(suites, dict):
        out.append((suites, list(suites.items())))
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (name, thread id, start, end)
        self.counts = defaultdict(float)
        self.build_keys = set()
        self.lock = threading.Lock()
        self.absent = []
        self.main_thread = threading.get_ident()
        self._stacks = threading.local()
        self._patches = []  # (owner, attr, original) in install order

    def add(self, key: str, value: float):
        with self.lock:
            self.counts[key] += value

    def _stack(self) -> list:
        stack = getattr(self._stacks, "names", None)
        if stack is None:
            stack = self._stacks.names = []
        return stack

    def _wrap(self, target: Target, fn):
        tracer, name, hook = self, target.name, target.hook

        if not target.span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                hook(tracer, (), args, kwargs, out)
                return out
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((name, threading.get_ident(), t0, t1))
            if hook is not None:
                stack.append(name)
                try:
                    hook(tracer, stack, args, kwargs, out)
                finally:
                    stack.pop()
            return out

        return traced

    def install(self, targets):
        """Wrap every binding of every target; raise if an original survives."""
        self.absent = []
        wrappers = {}  # id(original) -> (original, wrapper)
        for target in targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(f"{target.module}:{target.attr}")
                continue
            owner, leaf, fn = found
            wrappers[id(fn)] = (fn, self._wrap(target, fn))
            self._patch(owner, leaf, fn, wrappers[id(fn)][1])

        def wrapper_for(value):
            pair = wrappers.get(id(value))
            return pair[1] if pair is not None and pair[0] is value else None

        for owner, items in _bindings():
            for key, value in items:
                if wrapper_for(value) is not None:
                    self._patch(owner, key, value, wrapper_for(value))
        leftover = [key for _, items in _bindings() for key, value in items if wrapper_for(value)]
        if leftover:
            self.uninstall()
            raise RuntimeError(f"unwrapped originals remain: {leftover}")

    def _patch(self, owner, attr, original, wrapped):
        if isinstance(owner, dict):
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.build_keys.clear()

    # ------------------------------------------------------------------
    # Post-processing
    # ------------------------------------------------------------------

    def calls(self) -> dict:
        """Number of spans per name."""
        out = defaultdict(int)
        for name, _, _, _ in self.spans:
            out[name] += 1
        return out

    def self_times(self) -> dict:
        """Wall time attributed to each span name (see the module docstring)."""
        events = []
        for i, (_, tid, t0, t1) in enumerate(self.spans):
            if t1 > t0:
                # Ends sort before starts at equal times; of spans that start
                # together, the longer (outer) one opens first.
                events.append((t0, 1, t0 - t1, i))
                events.append((t1, 0, 0.0, i))
        events.sort()
        open_by_thread = defaultdict(list)
        out = defaultdict(float)
        prev = None
        for t, kind, _, i in events:
            if prev is not None and t > prev:
                dt = t - prev
                workers = [s for tid, s in open_by_thread.items() if s and tid != self.main_thread]
                if workers:
                    leaves = [s[-1] for s in workers]
                else:
                    main = open_by_thread.get(self.main_thread)
                    leaves = [main[-1]] if main else []
                for leaf in leaves:
                    out[self.spans[leaf][0]] += dt / len(leaves)
            name, tid, _, _ = self.spans[i]
            stack = open_by_thread[tid]
            if kind == 1:
                # Spans on one thread nest, so the latest start is the innermost.
                stack.append(i)
            else:
                stack.remove(i)
            prev = t
        return out

    def pool_utilization(self, workers: int) -> float:
        """Time threads spend in spans below a suite span over workers x suite wall."""
        suites = [(t0, t1) for name, tid, t0, t1 in self.spans
                  if name.startswith("experiments.") and tid == self.main_thread]
        if not suites:
            return 0.0
        per_thread = defaultdict(list)
        for name, tid, t0, t1 in self.spans:
            if not name.startswith("experiments."):
                per_thread[tid].append((t0, t1))
        busy = 0.0
        for intervals in per_thread.values():
            for b0, b1 in _union(intervals):
                busy += sum(max(0.0, min(b1, s1) - max(b0, s0)) for s0, s1 in suites)
        return busy / (workers * sum(s1 - s0 for s0, s1 in suites))


def _union(intervals):
    """Merge overlapping (start, end) intervals."""
    merged = []
    for t0, t1 in sorted(intervals):
        if merged and t0 <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], t1)
        else:
            merged.append([t0, t1])
    return merged
