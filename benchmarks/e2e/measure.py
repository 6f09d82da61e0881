"""Measurement primitives of the end-to-end harness.

* :class:`Patches` swaps attributes of program objects, classes or modules
  for the length of one round and restores them afterwards.
* :class:`Tracer` is a :class:`Patches` that wraps public callables of the
  program from the outside and records one span per call, in memory:
  ``[name, start_ns, end_ns, parent_index, request_id]``.
* :func:`self_times` gives each span's duration minus the union of its
  children's intervals; :func:`layer_metrics` folds a traced round into
  per-layer shares and per-call medians.
* :func:`quantile` / :func:`latency_summary` report a timing as its median
  and the highest percentile that still has at least ten samples beyond it.

Nothing here imports the program: the workloads decide what to wrap.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Spans are grouped into these layers (module names of the program) by
#: name prefix; the longest matching prefix wins.
LAYERS = (
    "agents",
    "nn",
    "core.vecenv",
    "core.soa",
    "core.training",
    "core.policy",
    "core.timeout",
    "baselines",
    "sim.simulation",
    "sim.failures",
    "nfv.placement",
    "workloads",
    "experiments.runner",
    "experiments.parallel",
    "serving",
)

#: Name of the span each workload opens around its timed call.
ROOT = "round"

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

_MISSING = object()


# --------------------------------------------------------------------------- #
# Quantiles
# --------------------------------------------------------------------------- #
def quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile of an ascending sequence."""
    if not ordered:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def beyond(ordered: Sequence[float], value: float) -> int:
    """How many samples lie strictly above ``value``."""
    return sum(1 for sample in ordered if sample > value)


def tail_q(count: int) -> float:
    """The highest quantile with :data:`MIN_BEYOND` samples beyond it."""
    return max(0.5, 1.0 - MIN_BEYOND / count) if count else 0.5


def latency_summary(samples_ns: Iterable[int]) -> Dict[str, float]:
    """Median, p99 and tail (1 - 10/n quantile) of durations, in µs.

    ``p99_beyond`` states how many samples lie beyond the p99, so a reader
    can tell whether the sample supports that percentile at all.
    """
    ordered = sorted(samples_ns)
    if not ordered:
        return {"n": 0, "p50_us": 0.0, "p99_us": 0.0, "p99_beyond": 0,
                "tail_q": 0.5, "tail_us": 0.0}
    p99 = quantile(ordered, 0.99)
    tail = tail_q(len(ordered))
    return {
        "n": len(ordered),
        "p50_us": quantile(ordered, 0.5) / 1e3,
        "p99_us": p99 / 1e3,
        "p99_beyond": beyond(ordered, p99),
        "tail_q": tail,
        "tail_us": quantile(ordered, tail) / 1e3,
    }


def timed(fn: Callable, samples: List[int]) -> Callable:
    """``fn`` wrapped to append each call's wall-clock duration (ns)."""
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            samples.append(clock() - start)

    return wrapper


# --------------------------------------------------------------------------- #
# Patching from the outside
# --------------------------------------------------------------------------- #
class Patches:
    """Attribute replacements undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        """Replace ``owner.attr`` (an instance, class or module attribute)."""
        saved = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, value)
        self._undo.append((owner, attr, saved))

    def restore(self) -> None:
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


class Tracer(Patches):
    """Records a span per call of every callable it wraps.

    ``request_id`` of a wrapper is either ``None`` (the span inherits the
    enclosing span's id) or a function of the call's positional arguments;
    it then labels the span and everything called inside it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[list] = []
        self._open: List[int] = []
        self._request_id = -1
        self._step = -1

    def next_step(self, _args: tuple) -> int:
        """A ``request_id`` function numbering batched decision steps."""
        self._step += 1
        return self._step

    def wrap(
        self,
        name: str | Callable[[tuple, dict], str],
        fn: Callable,
        request_id: Optional[Callable[[tuple], int]] = None,
    ) -> Callable:
        clock = time.perf_counter_ns
        spans = self.spans
        stack = self._open

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            outer = self._request_id
            if request_id is not None:
                self._request_id = request_id(args)
            record = [label, clock(), 0, stack[-1] if stack else -1, self._request_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                self._request_id = outer

        return traced

    def patch(
        self,
        owner: object,
        attr: str,
        name: str | Callable[[tuple, dict], str],
        request_id: Optional[Callable[[tuple], int]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a traced wrapper of itself."""
        self.set(owner, attr, self.wrap(name, getattr(owner, attr), request_id))

    def iterate(self, name: str, iterator: Iterator) -> Iterator:
        """Yield from ``iterator`` with one span per ``next`` call."""
        step = self.wrap(name, iterator.__next__)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item


# --------------------------------------------------------------------------- #
# Span analysis
# --------------------------------------------------------------------------- #
def covered(intervals: Iterable[Tuple[int, int]], low: int, high: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0
    end = low
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, high)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Each span's duration minus the part its children cover (ns)."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [
        (span[2] - span[1]) - covered(children.get(index, ()), span[1], span[2])
        for index, span in enumerate(spans)
    ]


def layer_of(name: str) -> Optional[str]:
    """The :data:`LAYERS` entry a span name belongs to (``None``: harness)."""
    best = None
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and (
            best is None or len(layer) > len(best)
        ):
            best = layer
    return best


def layer_metrics(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Fold one traced round into layer shares and per-call statistics.

    Spans recorded before the :data:`ROOT` span are ignored.  Returns, in
    one flat mapping: ``<layer>.share`` (self time over round wall time) for
    every layer, ``unaccounted_share`` (the root's own self time: wall time
    no wrapped call covers), and for every span name ``<name>.calls``,
    ``<name>.us`` / ``<name>.self_us`` (median duration / self time per
    call) and ``<name>.total_s`` / ``<name>.self_s`` (their sums).
    """
    roots = [index for index, span in enumerate(spans) if span[0] == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT!r} span, found {len(roots)}")
    first = roots[0]
    root = spans[first]
    if any(span[2] > root[2] for span in spans[first:]):
        raise ValueError(f"a span ends after the {ROOT!r} span")
    inside = [
        [s[0], s[1], s[2], s[3] - first if s[3] >= first else -1, s[4]]
        for s in spans[first:]
    ]
    own = self_times(inside)
    wall = root[2] - root[1]
    metrics: Dict[str, float] = {f"{layer}.share": 0.0 for layer in LAYERS}
    durations: Dict[str, List[int]] = defaultdict(list)
    selfs: Dict[str, List[int]] = defaultdict(list)
    for span, self_ns in zip(inside, own):
        if span[0] == ROOT:
            metrics["unaccounted_share"] = self_ns / wall
            continue
        durations[span[0]].append(span[2] - span[1])
        selfs[span[0]].append(self_ns)
        layer = layer_of(span[0])
        if layer is not None:
            metrics[f"{layer}.share"] += self_ns / wall
    for name, values in durations.items():
        metrics[f"{name}.calls"] = len(values)
        metrics[f"{name}.us"] = statistics.median(values) / 1e3
        metrics[f"{name}.self_us"] = statistics.median(selfs[name]) / 1e3
        metrics[f"{name}.total_s"] = sum(values) / 1e9
        metrics[f"{name}.self_s"] = sum(selfs[name]) / 1e9
    metrics["round.wall_s"] = wall / 1e9
    return metrics


def calls(metrics: Dict[str, float], suffix: str) -> float:
    """Total ``.calls`` of every span name ending in ``suffix``."""
    return sum(
        value
        for key, value in metrics.items()
        if key.endswith(".calls") and key[: -len(".calls")].endswith(suffix)
    )
