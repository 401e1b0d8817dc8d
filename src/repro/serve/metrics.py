"""In-process metrics for the serving layer: counters, histograms, gauges.

A :class:`MetricsRegistry` is the one object a daemon (or a
multi-session hub) holds; every :class:`StreamServer
<repro.serve.stream.StreamServer>` registers its instruments against
it under stable metric names with a ``session`` label, so a hub
hosting fifty tenants exports one coherent document.  The ``metrics``
protocol verb returns :meth:`MetricsRegistry.render_text` — a
Prometheus-style text exposition — without taking any session lock,
so scraping stays possible while an update runs.

The implementation is deliberately dependency-free: a registry-wide
:class:`threading.Lock` guards the sample dictionaries, increments are
O(1), and rendering walks a snapshot of the samples.  Gauges are
callback-based (:meth:`Gauge.watch`) so they always report the live
value and cost nothing between scrapes.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

LabelValues = Tuple[str, ...]

#: Default latency buckets (seconds): 100us .. 2.5s, roughly log-spaced.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_labels(names: Sequence[str], values: LabelValues,
                   extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [f'{name}="{_escape_label_value(str(value))}"'
             for name, value in zip(names, values)]
    pairs += [f'{name}="{_escape_label_value(str(value))}"'
              for name, value in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_key(instrument: Any, labels: Dict[str, Any]) -> LabelValues:
    """The sample key for ``labels``: exactly the declared names, each
    given once — checked by count and lookup, this is per request."""
    names = instrument.label_names
    try:
        if len(labels) == len(names):
            return tuple([str(labels[name]) for name in names])
    except KeyError:
        pass
    raise ValueError(
        f"{instrument.name} expects labels {names}, "
        f"got {tuple(sorted(labels))}")


class Counter:
    """A monotonically increasing counter, optionally labelled."""

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str], lock: threading.Lock) -> None:
        """Create a counter; use :meth:`MetricsRegistry.counter` instead."""
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._lock = lock
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` (default 1) to the sample named by ``labels``.

        Every label declared at registration must be provided; extra or
        missing labels raise :class:`ValueError`.
        """
        key = _label_key(self, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        """Return the current value for ``labels`` (0 if never incremented)."""
        key = _label_key(self, labels)
        with self._lock:
            return self._values.get(key, 0)

    def samples(self) -> List[Tuple[LabelValues, float]]:
        """Snapshot of ``(label_values, value)`` pairs, sorted by labels."""
        with self._lock:
            return sorted(self._values.items())

    def render(self) -> List[str]:
        """The exposition lines for this counter."""
        lines = [f"# HELP {self.name} {self.help_text}",
                 f"# TYPE {self.name} counter"]
        for values, value in self.samples():
            lines.append(f"{self.name}"
                         f"{_format_labels(self.label_names, values)} "
                         f"{_format_number(value)}")
        return lines


class Histogram:
    """A cumulative-bucket histogram of observed values (seconds)."""

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str], lock: threading.Lock,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        """Create a histogram; use :meth:`MetricsRegistry.histogram`."""
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self.buckets = tuple(sorted(buckets))
        self._lock = lock
        # per label set: ([per-bucket counts..., beyond the last], sum,
        # count); the exposition's cumulative counts are summed on read
        self._series: Dict[LabelValues, List[Any]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation of ``value`` under ``labels``."""
        key = _label_key(self, labels)
        slot = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._series[key] = series
            series[0][slot] += 1
            series[1] += value
            series[2] += 1

    def snapshot(self, **labels: Any) -> Dict[str, Any]:
        """Return ``{"count", "sum", "buckets"}`` for one label set."""
        key = _label_key(self, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {"count": 0, "sum": 0.0,
                        "buckets": [0] * len(self.buckets)}
            return {"count": series[2], "sum": series[1],
                    "buckets": list(accumulate(series[0][:-1]))}

    def render(self) -> List[str]:
        """The exposition lines for this histogram."""
        lines = [f"# HELP {self.name} {self.help_text}",
                 f"# TYPE {self.name} histogram"]
        with self._lock:
            items = sorted((key, (list(accumulate(s[0][:-1])), s[1], s[2]))
                           for key, s in self._series.items())
        for values, (counts, total, count) in items:
            for bound, bucket_count in zip(self.buckets, counts):
                label_text = _format_labels(
                    self.label_names, values,
                    extra=[("le", _format_number(bound))])
                lines.append(f"{self.name}_bucket{label_text} "
                             f"{bucket_count}")
            inf_labels = _format_labels(self.label_names, values,
                                        extra=[("le", "+Inf")])
            lines.append(f"{self.name}_bucket{inf_labels} {count}")
            plain = _format_labels(self.label_names, values)
            lines.append(f"{self.name}_sum{plain} {_format_number(total)}")
            lines.append(f"{self.name}_count{plain} {count}")
        return lines


class Gauge:
    """A callback-backed gauge: reports live values at render time."""

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str], lock: threading.Lock) -> None:
        """Create a gauge; use :meth:`MetricsRegistry.gauge` instead."""
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        self._lock = lock
        self._callbacks: Dict[LabelValues, Callable[[], float]] = {}

    def watch(self, label_values: Sequence[Any],
              callback: Callable[[], float]) -> None:
        """Register ``callback`` as the live value for ``label_values``."""
        key = tuple(str(value) for value in label_values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects {len(self.label_names)} label "
                f"values, got {len(key)}")
        with self._lock:
            self._callbacks[key] = callback

    def unwatch(self, label_values: Sequence[Any]) -> None:
        """Drop the callback for ``label_values`` (no-op if absent)."""
        key = tuple(str(value) for value in label_values)
        with self._lock:
            self._callbacks.pop(key, None)

    def render(self) -> List[str]:
        """The exposition lines; a failing callback skips its sample."""
        lines = [f"# HELP {self.name} {self.help_text}",
                 f"# TYPE {self.name} gauge"]
        with self._lock:
            callbacks = sorted(self._callbacks.items())
        for values, callback in callbacks:
            try:
                value = float(callback())
            except Exception:
                continue  # a closed session must not break the scrape
            lines.append(f"{self.name}"
                         f"{_format_labels(self.label_names, values)} "
                         f"{_format_number(value)}")
        return lines


class MetricsRegistry:
    """Get-or-create registry of named instruments with text exposition.

    Re-registering a name returns the existing instrument (label names
    must match), so many sessions sharing one registry converge on the
    same metric families instead of colliding.
    """

    def __init__(self) -> None:
        """Create an empty registry."""
        self._lock = threading.Lock()
        self._instruments: Dict[str, Any] = {}

    def counter(self, name: str, help_text: str,
                label_names: Sequence[str] = ()) -> Counter:
        """Get or create the :class:`Counter` called ``name``.

        Raises :class:`ValueError` if ``name`` exists with a different
        instrument type or different label names.
        """
        return self._get_or_create(Counter, name, help_text, label_names)

    def histogram(self, name: str, help_text: str,
                  label_names: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the :class:`Histogram` called ``name``."""
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                self._check_match(existing, Histogram, name, label_names)
                return existing
            instrument = Histogram(name, help_text, label_names,
                                   threading.Lock(), buckets)
            self._instruments[name] = instrument
            return instrument

    def gauge(self, name: str, help_text: str,
              label_names: Sequence[str] = ()) -> Gauge:
        """Get or create the :class:`Gauge` called ``name``."""
        return self._get_or_create(Gauge, name, help_text, label_names)

    def _get_or_create(self, cls, name: str, help_text: str,
                       label_names: Sequence[str]):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                self._check_match(existing, cls, name, label_names)
                return existing
            instrument = cls(name, help_text, label_names, threading.Lock())
            self._instruments[name] = instrument
            return instrument

    @staticmethod
    def _check_match(existing: Any, cls, name: str,
                     label_names: Sequence[str]) -> None:
        if not isinstance(existing, cls):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(existing).__name__}")
        if existing.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{existing.label_names}, not {tuple(label_names)}")

    def get(self, name: str) -> Optional[Any]:
        """Return the instrument called ``name`` or ``None``."""
        with self._lock:
            return self._instruments.get(name)

    def render_text(self) -> str:
        """The whole registry as Prometheus-style text exposition."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        lines: List[str] = []
        for _, instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + ("\n" if lines else "")
