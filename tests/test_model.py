import json
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_series
from perfdelta.model import (
    DecisionConfig,
    MeasurementConfig,
    MeasurementSeries,
    SchemaError,
    VmRun,
    WorkloadKind,
    WorkloadSpec,
    deserialize_series,
    from_document,
    serialize_series,
    to_document,
)
from perfdelta.stats import per_vm_means, window_matrix


def test_config_invariants():
    with pytest.raises(SchemaError, match="config.vms"):
        MeasurementConfig(vms=0, warmup_iterations=0, measurement_iterations=1, repetitions=1)
    with pytest.raises(SchemaError, match="measurement_iterations"):
        MeasurementConfig(vms=1, warmup_iterations=0, measurement_iterations=0, repetitions=1)
    with pytest.raises(SchemaError, match="repetitions"):
        MeasurementConfig(vms=1, warmup_iterations=0, measurement_iterations=1, repetitions=0)


def test_workload_invariants():
    with pytest.raises(SchemaError, match="workload.size"):
        WorkloadSpec(kind=WorkloadKind.ADD, size=0)
    with pytest.raises(SchemaError, match="injected_delay_ns"):
        WorkloadSpec(kind=WorkloadKind.ADD, size=1, injected_delay_ns=-1)
    with pytest.raises(SchemaError, match="seed"):
        WorkloadSpec(kind=WorkloadKind.ADD, size=1, seed=2**64)


def test_decision_invariants():
    with pytest.raises(SchemaError, match="alpha"):
        DecisionConfig(alpha=0.0)
    with pytest.raises(SchemaError, match="outlier_z"):
        DecisionConfig(outlier_z=-1.0)


def test_series_shape_enforced():
    with pytest.raises(SchemaError, match="vm_runs"):
        make_series([[1, 2], [3]])  # ragged measurement lengths


def test_structural_document_shape():
    series = make_series([[100, 200, 300], [400, 500, 600]], repetitions=10)
    doc = json.loads(serialize_series(series))
    assert doc["format_version"] == "1"
    assert len(doc["vm_runs"]) == 2
    assert all(len(run["measurement_ns"]) == 3 for run in doc["vm_runs"])
    assert all(isinstance(v, int) for run in doc["vm_runs"] for v in run["measurement_ns"])


def test_round_trip_simple():
    series = make_series([[100, 200], [300, 400]], repetitions=5)
    assert deserialize_series(serialize_series(series)) == series


def test_round_trip_byte_stable():
    series = make_series([[100, 200], [300, 400]], repetitions=5)
    data = serialize_series(series)
    assert serialize_series(deserialize_series(data)) == data


def test_vm_run_count_mismatch_names_field():
    series = make_series([[1, 2], [3, 4]])
    doc = json.loads(serialize_series(series))
    doc["vm_runs"].pop()
    with pytest.raises(SchemaError) as excinfo:
        deserialize_series(json.dumps(doc))
    assert "vm_runs" in excinfo.value.path


def test_format_version_mismatch():
    series = make_series([[1, 2]])
    doc = json.loads(serialize_series(series))
    doc["format_version"] = "99"
    with pytest.raises(SchemaError, match="format_version"):
        deserialize_series(json.dumps(doc))


def test_malformed_json():
    with pytest.raises(SchemaError, match="malformed"):
        deserialize_series(b"{not json")


def test_float_duration_rejected():
    series = make_series([[1, 2]])
    doc = json.loads(serialize_series(series))
    doc["vm_runs"][0]["measurement_ns"][0] = 1.5
    with pytest.raises(SchemaError, match=r"measurement_ns"):
        deserialize_series(json.dumps(doc))


def test_boolean_subset_fraction_rejected():
    series = make_series([[1, 2]])
    doc = json.loads(serialize_series(series))
    doc["workload"]["delay_subset_fraction"] = True
    with pytest.raises(SchemaError, match="workload.delay_subset_fraction"):
        deserialize_series(json.dumps(doc))


def test_per_repetition_division_is_real_valued():
    series = make_series([[1005], [2011]], repetitions=10)
    assert per_vm_means(window_matrix(series), 0, 1, 10).tolist() == [100.5, 201.1]


@st.composite
def random_series(draw):
    vms = draw(st.integers(min_value=1, max_value=4))
    warmup = draw(st.integers(min_value=0, max_value=3))
    iterations = draw(st.integers(min_value=1, max_value=4))
    repetitions = draw(st.integers(min_value=1, max_value=1000))
    duration = st.integers(min_value=0, max_value=2**50)
    runs = [
        VmRun(
            i,
            tuple(draw(st.lists(duration, min_size=warmup, max_size=warmup))),
            tuple(draw(st.lists(duration, min_size=iterations, max_size=iterations))),
        )
        for i in range(vms)
    ]
    return MeasurementSeries(
        config=MeasurementConfig(
            vms=vms,
            warmup_iterations=warmup,
            measurement_iterations=iterations,
            repetitions=repetitions,
            trigger_gc_between_iterations=draw(st.booleans()),
            parallel_pairs=draw(st.booleans()),
        ),
        workload=WorkloadSpec(
            kind=draw(st.sampled_from(list(WorkloadKind))),
            size=draw(st.integers(min_value=1, max_value=10**6)),
            injected_delay_ns=draw(st.integers(min_value=0, max_value=500)),
            seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        ),
        timestamp=datetime(2024, 5, 17, 12, 30, tzinfo=timezone.utc),
        environment=draw(
            st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=3)
        ),
        vm_runs=tuple(runs),
    )


@settings(max_examples=200, deadline=None)
@given(random_series())
def test_round_trip_property(series):
    assert deserialize_series(serialize_series(series)) == series


# --- config codec ----------------------------------------------------------

GOLDEN_SERIES = Path(__file__).with_name("golden_series_v1.json")


def golden_series() -> MeasurementSeries:
    """The series that golden_series_v1.json was written from."""
    return MeasurementSeries(
        config=MeasurementConfig(
            vms=3,
            warmup_iterations=2,
            measurement_iterations=3,
            repetitions=1000,
            trigger_gc_between_iterations=True,
            parallel_pairs=True,
        ),
        workload=WorkloadSpec(
            kind=WorkloadKind.WRITE,
            size=300,
            injected_delay_ns=5,
            seed=2**64 - 1,
            delay_subset_fraction=0.25,
        ),
        timestamp=datetime(2024, 5, 17, 12, 30, 45, 123456, tzinfo=timezone.utc),
        environment={
            "os": "Linux-6.1-x86_64",
            "cpu": "x86_64",
            "python": "3.11.9",
            "clock_resolution_ns": "41",
        },
        vm_runs=(
            VmRun(0, (812345, 799001), (7612003, 7598220, 7640118)),
            VmRun(1, (805512, 0), (7702941, 2**53 + 1, 7655003)),
            VmRun(2, (790001, 788877), (7581230, 7590011, 7577777)),
        ),
    )


def test_golden_series_file_reproduced_byte_for_byte():
    data = GOLDEN_SERIES.read_bytes()
    assert serialize_series(golden_series()) == data
    assert deserialize_series(data) == golden_series()
    assert serialize_series(deserialize_series(data)) == data


measurement_configs = st.builds(
    MeasurementConfig,
    vms=st.integers(min_value=1, max_value=10**6),
    warmup_iterations=st.integers(min_value=0, max_value=10**6),
    measurement_iterations=st.integers(min_value=1, max_value=10**6),
    repetitions=st.integers(min_value=1, max_value=10**9),
    trigger_gc_between_iterations=st.booleans(),
    parallel_pairs=st.booleans(),
)

workload_specs = st.builds(
    WorkloadSpec,
    kind=st.sampled_from(list(WorkloadKind)),
    size=st.integers(min_value=1, max_value=2**63),
    injected_delay_ns=st.integers(min_value=0, max_value=10**9),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    delay_subset_fraction=st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=200, deadline=None)
@given(measurement_configs)
def test_measurement_config_codec_round_trip(config):
    doc = json.loads(json.dumps(to_document(config)))
    assert from_document(MeasurementConfig, doc) == config


@settings(max_examples=200, deadline=None)
@given(workload_specs)
def test_workload_spec_codec_round_trip(spec):
    doc = json.loads(json.dumps(to_document(spec)))
    assert from_document(WorkloadSpec, doc) == spec


# Each case breaks one field of the golden series; the error must name it.
DECODE_ERRORS = [
    ("config.vms", lambda doc: doc["config"].update(vms=True)),
    ("vm_runs[0].warmup_ns[0]", lambda doc: doc["vm_runs"][0]["warmup_ns"].__setitem__(0, 1.5)),
    ("vm_runs[0].measurement_ns", lambda doc: doc["vm_runs"][0].pop("measurement_ns")),
    ("workload.kind", lambda doc: doc["workload"].update(kind="divide")),
    ("timestamp", lambda doc: doc.update(timestamp="yesterday")),
    ("environment", lambda doc: doc["environment"].update(cpu=4)),
    ("config", lambda doc: doc.update(config=[])),
    ("vm_runs", lambda doc: doc.update(vm_runs={})),
]


@pytest.mark.parametrize(
    "path, corrupt",
    DECODE_ERRORS,
    ids=["bool-int", "float-duration", "missing-field", "unknown-enum", "bad-timestamp",
         "non-string-environment", "non-object", "non-array"],
)
def test_decode_error_names_the_field(path, corrupt):
    doc = json.loads(GOLDEN_SERIES.read_bytes())
    corrupt(doc)
    with pytest.raises(SchemaError) as excinfo:
        deserialize_series(json.dumps(doc))
    assert excinfo.value.path == path


def test_integer_beyond_float_range_is_a_schema_error():
    doc = json.loads(GOLDEN_SERIES.read_bytes())
    doc["workload"]["delay_subset_fraction"] = 10**400
    with pytest.raises(SchemaError) as excinfo:
        deserialize_series(json.dumps(doc))
    assert excinfo.value.path == "workload.delay_subset_fraction"
