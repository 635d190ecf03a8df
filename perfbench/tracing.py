"""Outside-in layer tracing for longwalk.

``Tracer.patched()`` replaces every public function of the benchmarked
``longwalk.*`` modules (plus ``experiments._map`` and ``SvgPlot.render``)
with a timing wrapper and restores the originals on exit, even when the
body raises.  This works because every cross-module call in the package
goes through a module attribute (``numkit.eigh_dense(...)``) and every
intra-module call through a module global, both looked up at call time.

Each call records a span: name, start, end, parent.  The parent comes from
a context variable; ``experiments._map`` is wrapped so that its worker
tasks run in a copy of the caller's context, because ThreadPoolExecutor
does not carry context variables into its threads.

Run as a script, it traces one CLI invocation and writes the spans as JSON:

    python3 perfbench/tracing.py --spans spans.json -- transfer --protocol chain ...
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# The benchmarked layers.  ``blocks`` is a test oracle that no user path
# calls, and ``errors`` holds only exception types.
LAYERS = ("cli", "svgplot", "experiments", "scaling", "chain", "transfer",
          "ring", "uniform", "numkit")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)


def _eigh_dense_attrs(args, kwargs, result):
    # Computed from n, not measured: ~9 n^3 flops for a symmetric
    # eigendecomposition with vectors; the matrix read plus the
    # eigenvectors and eigenvalues written.
    n = result.dim
    return {"dim": n, "flops_computed": 9 * n**3, "bytes_computed": 8 * (2 * n * n + n)}


# Work counters recorded at the same boundaries as the spans.
ATTRS = {
    "numkit.eigh_tridiagonal": lambda a, k, r: {"dim": r.dim},
    "numkit.real_dft_circulant": lambda a, k, r: {"len": len(r)},
    "numkit.eigh_dense": _eigh_dense_attrs,
    "ring.ring_spectrum": lambda a, k, r: {"N": r.N},
    "scaling.q_scaling_sweep": lambda a, k, r: {"skipped": len(r.metadata["warnings"])},
}


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            f"span-{id(self)}", default=None)

    def wrap(self, name: str, fn, attrs=None):
        attrs = attrs or ATTRS.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = Span(next(self._ids), name, self._current.get())
            token = self._current.set(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._current.reset(token)
                self.spans.append(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return timed

    def _wrap_map(self, experiments, original):
        thread_count = inspect.unwrap(experiments.thread_count)

        def traced_map(fn, args_list):
            caller = contextvars.copy_context()  # current span: this _map call
            task = self.wrap("experiments._map.task", fn)
            return original(lambda a: caller.copy().run(task, a), args_list)

        return self.wrap(
            "experiments._map", traced_map,
            attrs=lambda a, k, r: {"workers": min(thread_count(), max(1, len(a[1])))},
        )

    @contextmanager
    def patched(self, layers=LAYERS):
        """Install timing wrappers on ``longwalk.<layer>`` for each layer and
        restore every replaced attribute on exit."""
        saved = []
        try:
            for layer in layers:
                mod = importlib.import_module(f"longwalk.{layer}")
                for attr, obj in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != mod.__name__):
                        continue
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, self.wrap(f"{layer}.{attr}", obj))
                if layer == "experiments":
                    saved.append((mod, "_map", mod._map))
                    mod._map = self._wrap_map(mod, mod._map)
                if layer == "svgplot":
                    saved.append((mod.SvgPlot, "render", mod.SvgPlot.render))
                    mod.SvgPlot.render = self.wrap("svgplot.render", mod.SvgPlot.render)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span duration minus the union of its children's intervals (children
    of a ``_map`` call overlap when they run on several threads)."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-pass layer metrics named ``<layer>.<function>.<stat>``."""
    selfs = self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value / passes

    for s in spans:
        name = "experiments.map" if s.name == "experiments._map" else s.name
        add(f"{name}.calls", 1)
        add(f"{name}.busy_ms", 1e3 * (s.end - s.start))
        add(f"{name}.self_ms", 1e3 * selfs[s.id])
        for key in ("dim", "len", "N", "flops_computed", "bytes_computed"):
            if key in s.attrs:
                suffix = f"{key}_sum" if key in ("dim", "len", "N") else key
                add(f"{name}.{suffix}", s.attrs[key])
        if "dim" in s.attrs:
            out[f"{name}.dim_max"] = max(out.get(f"{name}.dim_max", 0), s.attrs["dim"])
    out["chain.guard_rejections"] = sum(
        1 for s in spans
        if s.name == "chain.build_effective_chain" and s.error == "PrecisionGuardError"
    ) / passes
    out["scaling.skipped_depths"] = sum(
        s.attrs.get("skipped", 0) for s in spans if s.name == "scaling.q_scaling_sweep"
    ) / passes
    # Map statistics count only outermost _map calls: fig_s2b and fig_s2c
    # call _map again inside their worker tasks.
    by_id = {s.id: s for s in spans}

    def nested(s):
        p = s.parent
        while p is not None:
            if by_id[p].name == "experiments._map":
                return True
            p = by_id[p].parent
        return False

    maps = [s for s in spans if s.name == "experiments._map" and not nested(s)]
    outer = {s.id for s in maps}
    task_busy = sum(s.end - s.start for s in spans
                    if s.name == "experiments._map.task" and s.parent in outer)
    capacity = sum((s.end - s.start) * s.attrs["workers"] for s in maps)
    out["experiments.map.workers"] = max((s.attrs["workers"] for s in maps), default=0)
    out["experiments.map.wall_ms"] = 1e3 * sum(s.end - s.start for s in maps) / passes
    out["experiments.map.task_busy_ms"] = 1e3 * task_busy / passes
    out["experiments.map.efficiency"] = task_busy / capacity if capacity else 0.0
    return out


def dump(spans, path) -> None:
    with open(path, "w") as fh:
        json.dump([asdict(s) for s in spans], fh)


def load(path, id_offset: int = 0) -> list[Span]:
    """Read spans written by ``dump``, shifting ids so that spans from
    several processes can be aggregated together."""
    with open(path) as fh:
        spans = [Span(**d) for d in json.load(fh)]
    for s in spans:
        s.id += id_offset
        if s.parent is not None:
            s.parent += id_offset
    return spans


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="arguments for the longwalk CLI, after --")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    with tracer.patched():
        from longwalk import cli

        code = cli.main(cli_args)
    dump(tracer.spans, args.spans)
    return code


if __name__ == "__main__":
    sys.exit(_main())
