"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the in-process store every instrumented call site writes
into when telemetry is enabled (see :mod:`repro.obs.telemetry` for the
module-level no-op fast path). Three instrument kinds are provided:

- :class:`Counter` — monotonically increasing total (``_total`` names);
- :class:`Gauge` — a value that can go up and down (fills, medians,
  bridged :class:`~repro.runtime.PoolHealth` counters);
- :class:`Histogram` — fixed-bucket distribution with exact count / sum /
  min / max and interpolated p50/p95/p99 summaries. Buckets are upper
  bounds; observations above the last bound land in the implicit
  ``+Inf`` bucket.

Instruments are identified by ``(name, labels)``; the same name must keep
the same kind (Prometheus semantics). :func:`render_prom_text` writes the
whole registry in the Prometheus text exposition format v0.0.4.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError

#: Default histogram bucket upper bounds. Deliberately wide (100 µs to
#: 100 s if read as seconds) so one grid serves latencies, losses, and
#: gradient norms alike; exact min/max/mean are tracked per histogram.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 100.0,
)

#: Sub-millisecond ladder for the spill-restore and actor-forward
#: histograms: the PR 7 fast paths land around 0.85 ms, which the
#: default grid lumps into one bucket (0.5–1 ms). 10 µs–1 ms is covered
#: at ~2× steps here; everything slower than 5 s is overflow by design.
FAST_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00015, 0.00025, 0.0004,
    0.0006, 0.0008, 0.001, 0.0015, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 1.0, 5.0,
)

LabelPairs = Tuple[Tuple[str, str], ...]

#: Prometheus metric-name grammar (colons allowed for recording rules).
_VALID_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_INVALID_NAME_CHARS = re.compile(r"[^a-zA-Z0-9_:]")

#: Label *value* used when a metric hits its per-name series cap: all
#: further label sets collapse into one overflow series instead of
#: growing without bound (e.g. a tenant label fed raw session ids).
OVERFLOW_LABEL_VALUE = "_overflow"

#: Default cap on distinct label sets per metric name.
MAX_SERIES_PER_METRIC = 256


def sanitize_metric_name(name: str) -> str:
    """Coerce an arbitrary string into a legal Prometheus metric name.

    Illegal characters become ``_`` and a leading digit is prefixed, so
    dynamically built names (``f"repro_{op}"``) can never produce an
    exposition file Prometheus refuses to scrape.
    """
    if _VALID_NAME.match(name):
        return name
    cleaned = _INVALID_NAME_CHARS.sub("_", str(name))
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _freeze_labels(labels: Optional[Mapping[str, object]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing metric."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelPairs, lock: threading.RLock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        with self._lock:
            self.value += amount


class Gauge:
    """Point-in-time value."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelPairs, lock: threading.RLock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Fixed-bucket histogram with interpolated quantile summaries."""

    __slots__ = (
        "name", "labels", "buckets", "bucket_counts",
        "count", "sum", "min", "max", "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: LabelPairs,
        lock: threading.RLock,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ConfigurationError(f"histogram {name!r} needs >= 1 bucket")
        self.name = name
        self.labels = labels
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            self.bucket_counts[index] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def quantile(self, q: float) -> float:
        """Approximate quantile by linear interpolation inside buckets.

        The overflow bucket is represented by the exact observed maximum;
        an empty histogram returns ``nan``.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self.count == 0:
                return math.nan
            target = q * self.count
            cumulative = 0
            lower = self.min
            for i, bound in enumerate(self.buckets):
                in_bucket = self.bucket_counts[i]
                if cumulative + in_bucket >= target and in_bucket > 0:
                    fraction = (target - cumulative) / in_bucket
                    low = max(lower, self.min)
                    high = min(bound, self.max)
                    if high < low:
                        return low
                    return low + fraction * (high - low)
                cumulative += in_bucket
                lower = bound
            return self.max

    def summary(self) -> Dict[str, float]:
        with self._lock:
            if self.count == 0:
                return {"count": 0, "sum": 0.0}
            return {
                "count": self.count,
                "sum": self.sum,
                "mean": self.sum / self.count,
                "min": self.min,
                "max": self.max,
                "p50": self.quantile(0.50),
                "p95": self.quantile(0.95),
                "p99": self.quantile(0.99),
            }


class MetricsRegistry:
    """Get-or-create store of instruments, safe under concurrent writers.

    All instruments created by one registry share its re-entrant lock, so
    snapshotting is consistent with respect to in-flight updates from
    other threads (HTTP handlers, shard RPC handler threads).
    """

    def __init__(
        self, max_series_per_metric: int = MAX_SERIES_PER_METRIC
    ) -> None:
        if max_series_per_metric < 1:
            raise ConfigurationError(
                f"max_series_per_metric must be >= 1, "
                f"got {max_series_per_metric}"
            )
        self._lock = threading.RLock()
        self._instruments: Dict[Tuple[str, LabelPairs], object] = {}
        self._kinds: Dict[str, str] = {}
        self._series_counts: Dict[str, int] = {}
        self.max_series_per_metric = int(max_series_per_metric)
        #: Per-name count of label sets that collapsed into the
        #: overflow series (cardinality pressure is itself observable).
        self.overflow_series: Dict[str, int] = {}

    def _get_or_create(self, kind: str, name: str, labels, factory):
        name = sanitize_metric_name(name)
        key = (name, _freeze_labels(labels))
        with self._lock:
            existing_kind = self._kinds.get(name)
            if existing_kind is not None and existing_kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as "
                    f"{existing_kind}, cannot reuse as {kind}"
                )
            instrument = self._instruments.get(key)
            if instrument is None:
                if (
                    key[1]
                    and self._series_counts.get(name, 0)
                    >= self.max_series_per_metric
                ):
                    # Bounded cardinality: past the cap every new label
                    # set maps onto one shared overflow series.
                    self.overflow_series[name] = (
                        self.overflow_series.get(name, 0) + 1
                    )
                    key = (
                        name,
                        tuple(
                            (k, OVERFLOW_LABEL_VALUE) for k, _ in key[1]
                        ),
                    )
                    instrument = self._instruments.get(key)
                    if instrument is not None:
                        return instrument
                instrument = factory(name, key[1], self._lock)
                self._instruments[key] = instrument
                self._kinds[name] = kind
                self._series_counts[name] = (
                    self._series_counts.get(name, 0) + 1
                )
            return instrument

    def counter(self, name: str, labels: Optional[Mapping] = None) -> Counter:
        return self._get_or_create("counter", name, labels, Counter)

    def gauge(self, name: str, labels: Optional[Mapping] = None) -> Gauge:
        return self._get_or_create("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping] = None,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            "histogram", name, labels,
            lambda n, l, lock: Histogram(n, l, lock, buckets=buckets),
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, List[dict]]:
        """Plain-dict dump of every instrument (for sinks and tests)."""
        with self._lock:
            out: Dict[str, List[dict]] = {
                "counters": [], "gauges": [], "histograms": [],
            }
            for (name, labels), instrument in self._instruments.items():
                labels_dict = dict(labels)
                if isinstance(instrument, Counter):
                    out["counters"].append(
                        {"name": name, "labels": labels_dict,
                         "value": instrument.value}
                    )
                elif isinstance(instrument, Gauge):
                    out["gauges"].append(
                        {"name": name, "labels": labels_dict,
                         "value": instrument.value}
                    )
                else:
                    row = {"name": name, "labels": labels_dict}
                    row.update(instrument.summary())
                    # Raw bucket data rides along so snapshots from
                    # several worker processes can be merged exactly
                    # (counts are additive when the grids match).
                    row["buckets"] = list(instrument.buckets)
                    row["bucket_counts"] = list(instrument.bucket_counts)
                    out["histograms"].append(row)
            return out

    def _instruments_by_name(self) -> Dict[str, List[object]]:
        grouped: Dict[str, List[object]] = {}
        for (name, _), instrument in self._instruments.items():
            grouped.setdefault(name, []).append(instrument)
        return grouped


def _label_key(labels: Mapping[str, object]) -> LabelPairs:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _quantile_from_buckets(
    bounds: List[float],
    counts: List[int],
    total: int,
    min_value: float,
    max_value: float,
    q: float,
) -> float:
    """Linear-interpolation quantile over merged bucket counts.

    Mirrors :meth:`Histogram.quantile` but works on plain lists, so
    merged cross-process snapshots get real percentiles instead of a
    max-of-maxes.
    """
    if total == 0:
        return math.nan
    target = q * total
    cumulative = 0
    lower = min_value
    for i, bound in enumerate(bounds):
        in_bucket = counts[i]
        if cumulative + in_bucket >= target and in_bucket > 0:
            fraction = (target - cumulative) / in_bucket
            low = max(lower, min_value)
            high = min(bound, max_value)
            if high < low:
                return low
            return low + fraction * (high - low)
        cumulative += in_bucket
        lower = bound
    return max_value


def merge_snapshots(snapshots: Iterable[Dict[str, List[dict]]]) -> Dict[str, List[dict]]:
    """Merge :meth:`MetricsRegistry.snapshot` dumps from many processes.

    Counters and gauges sum across processes (gauges in this codebase
    are additive occupancy/fill values — session counts, queue depths —
    so a sum is the fleet-wide reading). Histograms with identical
    bucket grids merge exactly: bucket counts, count and sum add,
    min/max combine, and quantiles are recomputed from the merged
    buckets. Mismatched grids (a worker on an older bucket set) still
    merge count/sum/min/max but drop per-bucket data for that series.
    """
    counters: Dict[Tuple[str, LabelPairs], dict] = {}
    gauges: Dict[Tuple[str, LabelPairs], dict] = {}
    histograms: Dict[Tuple[str, LabelPairs], dict] = {}

    for snapshot in snapshots:
        if not snapshot:
            continue
        for row in snapshot.get("counters", []):
            key = (row["name"], _label_key(row.get("labels", {})))
            slot = counters.get(key)
            if slot is None:
                counters[key] = dict(row)
            else:
                slot["value"] += row["value"]
        for row in snapshot.get("gauges", []):
            key = (row["name"], _label_key(row.get("labels", {})))
            slot = gauges.get(key)
            if slot is None:
                gauges[key] = dict(row)
            else:
                slot["value"] += row["value"]
        for row in snapshot.get("histograms", []):
            key = (row["name"], _label_key(row.get("labels", {})))
            slot = histograms.get(key)
            if slot is None:
                histograms[key] = dict(row)
                continue
            slot["count"] = slot.get("count", 0) + row.get("count", 0)
            slot["sum"] = slot.get("sum", 0.0) + row.get("sum", 0.0)
            if "min" in row:
                slot["min"] = min(slot.get("min", math.inf), row["min"])
            if "max" in row:
                slot["max"] = max(slot.get("max", -math.inf), row["max"])
            same_grid = (
                slot.get("buckets") is not None
                and slot.get("buckets") == row.get("buckets")
            )
            if same_grid:
                slot["bucket_counts"] = [
                    a + b for a, b in zip(
                        slot["bucket_counts"], row["bucket_counts"]
                    )
                ]
            else:
                slot.pop("buckets", None)
                slot.pop("bucket_counts", None)

    for slot in histograms.values():
        count = slot.get("count", 0)
        if count > 0:
            slot["mean"] = slot.get("sum", 0.0) / count
            if slot.get("buckets") is not None:
                for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                    slot[label] = _quantile_from_buckets(
                        slot["buckets"], slot["bucket_counts"], count,
                        slot.get("min", 0.0), slot.get("max", 0.0), q,
                    )

    def _ordered(rows: Dict[Tuple[str, LabelPairs], dict]) -> List[dict]:
        return [rows[key] for key in sorted(rows)]

    return {
        "counters": _ordered(counters),
        "gauges": _ordered(gauges),
        "histograms": _ordered(histograms),
    }


def render_prom_snapshot(snapshot: Dict[str, List[dict]]) -> str:
    """Prometheus text exposition of a (possibly merged) snapshot dict.

    The snapshot-based twin of :func:`render_prom_text`: the supervisor
    merges per-shard worker snapshots with :func:`merge_snapshots` and
    renders one fleet-wide ``/metrics`` body from the result without
    ever holding a live registry for remote processes.
    """
    lines: List[str] = []
    sections = (
        ("counter", snapshot.get("counters", [])),
        ("gauge", snapshot.get("gauges", [])),
        ("histogram", snapshot.get("histograms", [])),
    )
    for kind, rows in sections:
        seen_types: set = set()
        for row in sorted(
            rows, key=lambda r: (r["name"], _label_key(r.get("labels", {})))
        ):
            name = row["name"]
            labels = _label_key(row.get("labels", {}))
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{name}{_format_labels(labels)} "
                    f"{_format_value(row['value'])}"
                )
                continue
            count = int(row.get("count", 0))
            bounds = row.get("buckets")
            bucket_counts = row.get("bucket_counts")
            if bounds is not None and bucket_counts is not None:
                cumulative = 0
                for bound, in_bucket in zip(bounds, bucket_counts):
                    cumulative += in_bucket
                    le = _format_labels(
                        labels, f'le="{_format_value(bound)}"'
                    )
                    lines.append(f"{name}_bucket{le} {cumulative}")
                inf = _format_labels(labels, 'le="+Inf"')
                lines.append(f"{name}_bucket{inf} {count}")
            plain = _format_labels(labels)
            lines.append(
                f"{name}_sum{plain} {_format_value(row.get('sum', 0.0))}"
            )
            lines.append(f"{name}_count{plain} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_labels(labels: LabelPairs, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prom_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: List[str] = []
    with registry._lock:
        grouped = registry._instruments_by_name()
        for name in sorted(grouped):
            kind = registry._kinds[name]
            lines.append(f"# TYPE {name} {kind}")
            for instrument in grouped[name]:
                if kind in ("counter", "gauge"):
                    lines.append(
                        f"{name}{_format_labels(instrument.labels)} "
                        f"{_format_value(instrument.value)}"
                    )
                    continue
                cumulative = 0
                for bound, in_bucket in zip(
                    instrument.buckets, instrument.bucket_counts
                ):
                    cumulative += in_bucket
                    le = _format_labels(
                        instrument.labels, f'le="{_format_value(bound)}"'
                    )
                    lines.append(f"{name}_bucket{le} {cumulative}")
                inf = _format_labels(instrument.labels, 'le="+Inf"')
                lines.append(f"{name}_bucket{inf} {instrument.count}")
                plain = _format_labels(instrument.labels)
                lines.append(f"{name}_sum{plain} {_format_value(instrument.sum)}")
                lines.append(f"{name}_count{plain} {instrument.count}")
    return "\n".join(lines) + ("\n" if lines else "")
