"""Shared domain types and the JSON result-file format.

All measured durations are stored as integer nanoseconds per iteration;
per-repetition values are derived from them by ``stats.per_vm_means``
alone.  Every type validates its invariants at construction time and
instances are immutable afterwards, so they are safe to share between
concurrent readers.

Every document perfdelta writes is encoded by :func:`to_document` and every
one it reads is decoded by its inverse, :func:`from_document`, which walks
the same dataclass fields and names the offending field on any mismatch.
Every CSV table it writes is encoded by :func:`to_csv`.
"""

from __future__ import annotations

import collections.abc
import functools
import json
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Any, Mapping, get_args, get_origin, get_type_hints

FORMAT_VERSION = "1"


class SchemaError(ValueError):
    """A result document violated the schema or a type invariant.

    ``path`` names the offending field, e.g. ``"vm_runs[1].measurement_ns"``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


class CampaignError(RuntimeError):
    """An executor failed; carries which VM (and version) and its diagnostics."""

    def __init__(self, vm_index: int, diagnostics: str, version: str | None = None):
        where = f"vm {vm_index}" if version is None else f"{version} vm {vm_index}"
        super().__init__(f"executor failed for {where}: {diagnostics}")
        self.vm_index = vm_index
        self.version = version
        self.diagnostics = diagnostics


class WorkloadKind(str, Enum):
    ADD = "add"
    ALLOCATE = "allocate"
    WRITE = "write"


class StatTest(str, Enum):
    WELCH_T = "t"
    MANN_WHITNEY = "mann-whitney"
    CI_OVERLAP = "ci"


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


def _member(kind: type[Enum], value: Any, path: str) -> Any:
    """The member of ``kind`` that ``value`` is or has as its value."""
    try:
        return kind(value)
    except ValueError as exc:
        raise SchemaError(path, f"unknown {kind.__name__} {value!r}") from exc


@dataclass(frozen=True)
class MeasurementConfig:
    """Full parametrization of one measurement campaign.

    ``vms`` is the number of isolated executor starts per version; each start
    runs ``warmup_iterations`` timed-but-discarded iterations followed by
    ``measurement_iterations`` retained ones, and every iteration executes the
    workload ``repetitions`` times between one start/stop timestamp pair.
    """

    vms: int
    warmup_iterations: int
    measurement_iterations: int
    repetitions: int

    def __post_init__(self) -> None:
        _require(self.vms >= 1, "config.vms", "must be >= 1")
        _require(self.warmup_iterations >= 0, "config.warmup_iterations", "must be >= 0")
        _require(
            self.measurement_iterations >= 1,
            "config.measurement_iterations",
            "must be >= 1",
        )
        _require(self.repetitions >= 1, "config.repetitions", "must be >= 1")


@dataclass(frozen=True)
class WorkloadSpec:
    """One calibration workload: kind, size, optional injected busy-wait.

    ``size`` is the count of primitive operations per workload execution.
    ``injected_delay_ns`` (0 = unmodified) charges that many nanoseconds to
    ``round(size * delay_subset_fraction)`` of the operations.  The operations
    themselves run as in the base workload; a timed call of ``repetitions``
    executions then makes one busy-wait of ``repetitions *
    round(size * delay_subset_fraction) * injected_delay_ns`` nanoseconds.
    """

    kind: WorkloadKind
    size: int
    injected_delay_ns: int = 0
    seed: int = 0
    delay_subset_fraction: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", _member(WorkloadKind, self.kind, "workload.kind"))
        _require(self.size >= 1, "workload.size", "must be >= 1")
        _require(self.injected_delay_ns >= 0, "workload.injected_delay_ns", "must be >= 0")
        _require(0 <= self.seed < 2**64, "workload.seed", "must fit in 64 bits unsigned")
        _require(
            0.0 <= self.delay_subset_fraction <= 1.0,
            "workload.delay_subset_fraction",
            "must be in [0, 1]",
        )


@dataclass(frozen=True)
class VmRun:
    """Recorded durations of a single executor start."""

    vm_index: int
    warmup_ns: tuple[int, ...]
    measurement_ns: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "warmup_ns", tuple(self.warmup_ns))
        object.__setattr__(self, "measurement_ns", tuple(self.measurement_ns))
        path = f"vm_runs[{self.vm_index}]"
        _require(self.vm_index >= 0, f"{path}.vm_index", "must be >= 0")
        for name in ("warmup_ns", "measurement_ns"):
            for value in getattr(self, name):
                _require(
                    isinstance(value, int) and value >= 0,
                    f"{path}.{name}",
                    "durations must be non-negative integers",
                )


@dataclass(frozen=True)
class MeasurementSeries:
    """All recorded durations for one workload version plus its metadata."""

    config: MeasurementConfig
    workload: WorkloadSpec
    timestamp: datetime
    environment: Mapping[str, str]
    vm_runs: tuple[VmRun, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vm_runs", tuple(self.vm_runs))
        object.__setattr__(self, "environment", dict(self.environment))
        _require(
            len(self.vm_runs) == self.config.vms,
            "vm_runs",
            f"expected {self.config.vms} runs (config.vms), got {len(self.vm_runs)}",
        )
        for run in self.vm_runs:
            path = f"vm_runs[{run.vm_index}]"
            _require(
                len(run.warmup_ns) == self.config.warmup_iterations,
                f"{path}.warmup_ns",
                f"expected {self.config.warmup_iterations} entries, got {len(run.warmup_ns)}",
            )
            _require(
                len(run.measurement_ns) == self.config.measurement_iterations,
                f"{path}.measurement_ns",
                f"expected {self.config.measurement_iterations} entries, "
                f"got {len(run.measurement_ns)}",
            )


@dataclass(frozen=True)
class DecisionConfig:
    """Statistical test choice and significance level."""

    test: StatTest = StatTest.MANN_WHITNEY
    alpha: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "test", _member(StatTest, self.test, "decision.test"))
        _require(0.0 < self.alpha < 1.0, "decision.alpha", "must be in (0, 1)")


@dataclass(frozen=True)
class SeriesSummary:
    """Aggregate of a series: per-VM means and their mean / spread.

    ``relative_stddev`` is the standard deviation divided by the mean of the
    per-VM mean per-repetition durations.
    """

    per_vm_means_ns: tuple[float, ...]
    mean_ns: float
    stddev_ns: float
    relative_stddev: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_vm_means_ns", tuple(self.per_vm_means_ns))


# --- serialization ---------------------------------------------------------


def to_document(value: Any) -> Any:
    """The JSON layout of any value perfdelta writes.

    A dataclass becomes an object of all its fields in declaration order, an
    enum its value, a tuple or list an array, a datetime its ISO-8601 form;
    dicts and scalars pass through.  Arrays of numbers (duration arrays hold
    thousands of ints) are copied without a per-element call.
    """
    if is_dataclass(value):
        return {f.name: to_document(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        if value and isinstance(value[0], (int, float)):
            return list(value)
        return [to_document(item) for item in value]
    if isinstance(value, dict):
        return {key: to_document(item) for key, item in value.items()}
    if isinstance(value, datetime):
        return value.isoformat()
    return value


def to_csv(header, rows) -> str:
    """A CSV table: the ``header`` names, then one line per row of values.

    Each value is written with ``str``: an int in digits, a float (also a
    numpy one) in the shortest digits that read back to it.
    """
    return "".join(",".join(map(str, line)) + "\n" for line in (header, *rows))


def serialize_series(series: MeasurementSeries) -> bytes:
    """Serialize a series to the versioned JSON result document.

    Nanosecond counts are emitted as JSON integers, never floats.
    """
    document = {"format_version": FORMAT_VERSION, **to_document(series)}
    return json.dumps(document, indent=2).encode("utf-8") + b"\n"


@functools.cache
def _field_types(kind: type) -> tuple[tuple[str, Any], ...]:
    hints = get_type_hints(kind)
    return tuple((f.name, hints[f.name]) for f in fields(kind))


def from_document(kind: Any, doc: Any, path: str = "$") -> Any:
    """Strictly decode ``doc``, the :func:`to_document` layout of a ``kind``.

    A dataclass needs an object holding every field (extra keys are
    ignored), a ``tuple[X, ...]`` an array, a ``Mapping[str, str]`` an
    object of strings, a datetime an ISO-8601 string and an enum one of its
    values; a float accepts an int, and a bool is never an int or a float.
    Raises :class:`SchemaError` naming the offending field, e.g.
    ``vm_runs[1].measurement_ns[0]``; ``path`` ``"$"`` is the document root.
    """
    if is_dataclass(kind):
        if not isinstance(doc, dict):
            raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
        prefix = "" if path == "$" else f"{path}."
        values = {}
        for name, field_kind in _field_types(kind):
            if name not in doc:
                raise SchemaError(prefix + name, "missing field")
            values[name] = from_document(field_kind, doc[name], prefix + name)
        return kind(**values)
    origin = get_origin(kind)
    if origin is tuple:
        if not isinstance(doc, list):
            raise SchemaError(path, f"expected an array, got {type(doc).__name__}")
        item_kind = get_args(kind)[0]
        if set(map(type, doc)) <= {item_kind}:  # one C-level pass over duration arrays
            return tuple(doc)
        return tuple(from_document(item_kind, item, f"{path}[{i}]") for i, item in enumerate(doc))
    if origin is collections.abc.Mapping:
        if not isinstance(doc, dict) or not all(
            isinstance(key, str) and isinstance(value, str) for key, value in doc.items()
        ):
            raise SchemaError(path, "must map strings to strings")
        return doc
    if kind is datetime:
        try:
            return datetime.fromisoformat(doc)
        except (TypeError, ValueError) as exc:
            raise SchemaError(path, f"not an ISO-8601 instant: {doc!r}") from exc
    if isinstance(kind, type) and issubclass(kind, Enum):
        return _member(kind, doc, path)
    if kind is float and type(doc) is int:
        try:
            return float(doc)
        except OverflowError as exc:
            raise SchemaError(path, "number out of range") from exc
    if not isinstance(doc, kind) or (isinstance(doc, bool) and kind is not bool):
        raise SchemaError(path, f"expected {kind.__name__}, got {type(doc).__name__}")
    return doc


def deserialize_series(data: bytes | str) -> MeasurementSeries:
    """Parse and validate a JSON result document.

    Raises :class:`SchemaError` naming the offending field on malformed
    documents, format-version mismatches and invariant violations.
    """
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"malformed JSON: {exc}") from exc
    version = from_document(dict, doc).get("format_version")
    if version != FORMAT_VERSION:
        raise SchemaError(
            "format_version", f"unsupported version {version!r}, expected {FORMAT_VERSION!r}"
        )
    return from_document(MeasurementSeries, doc)


def utc_now() -> datetime:
    return datetime.now(timezone.utc)
