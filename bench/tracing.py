"""Per-layer tracing for the benchmark's traced run.

`Tracer.install` replaces public functions of each curvecount module with
wrappers that count calls and time them, and `Tracer.uninstall` puts the
originals back.  A wrapper is installed on every name its callers look up:
`bott` imports `sym_power_roots` and `elementary_symmetric` by name, so
those are wrapped in `bott` as well as in `symfunc`, and `ChowElement.__mul__`
is wrapped on the class.

Every wrapped function is aggregated per name: calls, time of the outermost
calls (recursion is not counted twice), self time (duration minus the time
of wrapped calls made inside it) and exceptions.  Coarse boundaries also
record one span per outermost call, with its parent span; hot leaves such as
`schubert_product`, which runs hundreds of thousands of times per problem,
only update their counters.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

from curvecount import bott, chern, chow, cli, counts, symfunc
from curvecount import expr as ex


class Stat:
    __slots__ = ("calls", "top_calls", "s", "self_s", "raised", "items", "active")

    def __init__(self):
        self.calls = self.top_calls = self.raised = self.items = self.active = 0
        self.s = self.self_s = 0.0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__ if k != "active"}


# lru caches whose misses are read from cache_info() instead of a wrapper
CACHES = {
    "chern.chern_classes": chern.chern_classes,
    "symfunc.schubert_product": symfunc.schubert_product,
    "symfunc.lr": symfunc._lr,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._frames: list[list[float]] = []  # child time of each open timed call
        self._open_spans: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._misses0 = {}

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        t = self._timed
        t(cli, "parse_expression", "cli.parse", span=True)
        t(cli, "parse_space", "cli.parse", span=True)
        for fn in ("count_curves", "count_lines", "count_conics"):
            t(counts, fn, "counts.count", span=True)
        t(ex, "evaluate", "expr.evaluate", span=True)
        t(chern, "chern_classes", "chern.chern_classes", span=True)
        t(chern, "_sym_classes", "chern.sym")
        t(chern, "_twist_classes", "chern.twist")
        t(chern, "_quotient_classes", "chern.quot")
        t(chow.ChowElement, "__mul__", "chow.mul")
        t(chow, "_gr_multiply", "chow.gr_mul")
        t(chow, "_tower_multiply", "chow.tower_mul")
        t(chow, "reduce_tower", "chow.reduce_tower")
        t(symfunc, "schubert_product", "symfunc.schubert_product")
        t(symfunc, "expand_linear_product", "symfunc.expand_linear_product")
        for owner in (symfunc, bott):
            t(owner, "sym_power_roots", "symfunc.sym_power_roots")
            t(owner, "elementary_symmetric", "symfunc.elementary_symmetric")
        t(bott, "bott_integrate", "bott.sum", span=True)
        t(bott, "fixed_points", "bott.fixed_points", count_items=True)
        t(bott, "bundle_weights", "bott.bundle_weights")
        t(bott, "tangent_weights", "bott.tangent_weights")
        t(bott, "evaluate_at", "bott.evaluate_at")
        # one call per weight vector tried; counted but not timed, so the
        # summation loop stays in the self time of bott.sum
        self._counted(bott, "_integrate_once", "bott.seeds")
        self._misses0 = {k: f.cache_info().misses for k, f in CACHES.items()}

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _replace(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _timed(self, owner, attr: str, name: str, *, span: bool = False,
               count_items: bool = False) -> None:
        fn = getattr(owner, attr)
        stat = self._stat(name)
        frames = self._frames

        def wrapper(*args, **kwargs):
            top = stat.active == 0
            stat.active += 1
            frame = [0.0]
            frames.append(frame)
            sid = self._open_span(name) if span and top else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.raised += 1
                raise
            finally:
                dt = perf_counter() - t0
                frames.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if top:
                    stat.top_calls += 1
                    stat.s += dt
                if sid is not None:
                    self._close_span(sid)
            if count_items and top:
                stat.items += len(result)
            return result

        self._replace(owner, attr, wrapper)

    def _counted(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            stat.calls += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                stat.raised += 1
                raise

        self._replace(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------

    def _open_span(self, name: str) -> int:
        parent = self._open_spans[-1] if self._open_spans else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._open_spans.append(len(self.spans) - 1)
        return self._open_spans[-1]

    def _close_span(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self._open_spans.pop()

    @contextmanager
    def span(self, name: str):
        """A root span opened by the caller, e.g. one per problem."""
        sid = self._open_span(name)
        try:
            yield
        finally:
            self._close_span(sid)

    # -- results -----------------------------------------------------------

    def report(self) -> dict:
        return {
            "stats": {k: v.as_dict() for k, v in self.stats.items()},
            "misses": {
                k: f.cache_info().misses - self._misses0[k] for k, f in CACHES.items()
            },
            "spans": self.spans,
        }


def element_size(elt) -> tuple[int, int]:
    """(Schubert terms, largest coefficient bit length) of a Chow element."""
    if isinstance(elt.data, dict):
        bits = [
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for c in elt.data.values()
        ]
        return len(elt.data), max(bits, default=0)
    sizes = [element_size(slot) for slot in elt.data]
    return sum(t for t, _ in sizes), max((b for _, b in sizes), default=0)
