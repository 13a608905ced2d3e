"""Shared domain types and the JSON result-file format.

All measured durations are stored as integer nanoseconds per iteration;
per-repetition values are derived by dividing last, so no precision is lost
to rounding.  Every type validates its invariants at construction time and
instances are immutable afterwards, so they are safe to share between
concurrent readers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from typing import Any, Mapping

FORMAT_VERSION = "1"


class SchemaError(ValueError):
    """A result document violated the schema or a type invariant.

    ``path`` names the offending field, e.g. ``"vm_runs[1].measurement_ns"``.
    """

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


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


def _expect_object(doc: Any, path: str) -> Mapping[str, Any]:
    if not isinstance(doc, dict):
        raise SchemaError(path, f"expected an object, got {type(doc).__name__}")
    return doc


def _expect(doc: Mapping[str, Any], key: str, kind: type | tuple[type, ...], path: str) -> Any:
    if key not in doc:
        raise SchemaError(f"{path}{key}", "missing field")
    value = doc[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise SchemaError(f"{path}{key}", f"expected {kind}, got {type(value).__name__}")
    return value


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
    trigger_gc_between_iterations: bool = False
    parallel_pairs: bool = False

    def __post_init__(self) -> None:
        _require(self.vms >= 1, "config.vms", "must be >= 1")
        _require(self.warmup_iterations >= 0, "config.warmup_iterations", "must be >= 0")
        _require(
            self.measurement_iterations >= 1,
            "config.measurement_iterations",
            "must be >= 1",
        )
        _require(self.repetitions >= 1, "config.repetitions", "must be >= 1")

    @classmethod
    def from_dict(cls, doc: Any, path: str) -> MeasurementConfig:
        """Strictly decode :func:`to_document` output; errors name ``path.<field>``."""
        doc, prefix = _expect_object(doc, path), f"{path}."
        return cls(
            vms=_expect(doc, "vms", int, prefix),
            warmup_iterations=_expect(doc, "warmup_iterations", int, prefix),
            measurement_iterations=_expect(doc, "measurement_iterations", int, prefix),
            repetitions=_expect(doc, "repetitions", int, prefix),
            trigger_gc_between_iterations=_expect(
                doc, "trigger_gc_between_iterations", bool, prefix
            ),
            parallel_pairs=_expect(doc, "parallel_pairs", bool, prefix),
        )


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
        _require(self.size >= 1, "workload.size", "must be >= 1")
        _require(self.injected_delay_ns >= 0, "workload.injected_delay_ns", "must be >= 0")
        _require(0 <= self.seed < 2**64, "workload.seed", "must fit in 64 bits unsigned")
        _require(
            0.0 <= self.delay_subset_fraction <= 1.0,
            "workload.delay_subset_fraction",
            "must be in [0, 1]",
        )

    @classmethod
    def from_dict(cls, doc: Any, path: str) -> WorkloadSpec:
        """Strictly decode :func:`to_document` output; errors name ``path.<field>``."""
        doc, prefix = _expect_object(doc, path), f"{path}."
        kind_name = _expect(doc, "kind", str, prefix)
        try:
            kind = WorkloadKind(kind_name)
        except ValueError as exc:
            raise SchemaError(f"{prefix}kind", f"unknown kind {kind_name!r}") from exc
        return cls(
            kind=kind,
            size=_expect(doc, "size", int, prefix),
            injected_delay_ns=_expect(doc, "injected_delay_ns", int, prefix),
            seed=_expect(doc, "seed", int, prefix),
            delay_subset_fraction=float(
                _expect(doc, "delay_subset_fraction", (int, float), prefix)
            ),
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

    def per_repetition_ns(self, repetitions: int) -> list[float]:
        """Real-valued per-repetition durations of the measurement iterations."""
        return [d / repetitions for d in self.measurement_ns]


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
    """Statistical test choice, significance level and outlier policy.

    ``outlier_z`` of ``None`` disables outlier removal; a positive value
    removes points whose Z-score exceeds it in a single pass before testing.
    """

    test: StatTest = StatTest.MANN_WHITNEY
    alpha: float = 0.01
    outlier_z: float | None = None

    def __post_init__(self) -> None:
        _require(0.0 < self.alpha < 1.0, "decision.alpha", "must be in (0, 1)")
        if self.outlier_z is not None:
            _require(self.outlier_z > 0, "decision.outlier_z", "must be > 0")

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


def serialize_series(series: MeasurementSeries) -> bytes:
    """Serialize a series to the versioned JSON result document.

    Nanosecond counts are emitted as JSON integers, never floats.
    """
    document = {"format_version": FORMAT_VERSION, **to_document(series)}
    return json.dumps(document, indent=2).encode("utf-8") + b"\n"


def _int_list(values: Any, path: str) -> list[int]:
    if not isinstance(values, list):
        raise SchemaError(path, "expected an array")
    out = []
    for i, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool):
            raise SchemaError(f"{path}[{i}]", "nanosecond values must be integers")
        out.append(v)
    return out


def deserialize_series(data: bytes | str) -> MeasurementSeries:
    """Parse and validate a JSON result document.

    Raises :class:`SchemaError` naming the offending field on malformed
    documents, format-version mismatches and invariant violations.
    """
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("$", "top-level value must be an object")

    version = _expect(doc, "format_version", str, "")
    if version != FORMAT_VERSION:
        raise SchemaError(
            "format_version", f"unsupported version {version!r}, expected {FORMAT_VERSION!r}"
        )

    config = MeasurementConfig.from_dict(_expect(doc, "config", dict, ""), "config")
    workload = WorkloadSpec.from_dict(_expect(doc, "workload", dict, ""), "workload")

    raw_timestamp = _expect(doc, "timestamp", str, "")
    try:
        timestamp = datetime.fromisoformat(raw_timestamp)
    except ValueError as exc:
        raise SchemaError("timestamp", f"not an ISO-8601 instant: {raw_timestamp!r}") from exc

    environment = _expect(doc, "environment", dict, "")
    for key, value in environment.items():
        if not isinstance(key, str) or not isinstance(value, str):
            raise SchemaError("environment", "must map strings to strings")

    raw_runs = _expect(doc, "vm_runs", list, "")
    runs = []
    for i, raw in enumerate(raw_runs):
        if not isinstance(raw, dict):
            raise SchemaError(f"vm_runs[{i}]", "expected an object")
        runs.append(
            VmRun(
                vm_index=_expect(raw, "vm_index", int, f"vm_runs[{i}]."),
                warmup_ns=tuple(_int_list(raw.get("warmup_ns"), f"vm_runs[{i}].warmup_ns")),
                measurement_ns=tuple(
                    _int_list(raw.get("measurement_ns"), f"vm_runs[{i}].measurement_ns")
                ),
            )
        )

    return MeasurementSeries(
        config=config,
        workload=workload,
        timestamp=timestamp,
        environment=environment,
        vm_runs=tuple(runs),
    )


def utc_now() -> datetime:
    return datetime.now(timezone.utc)
