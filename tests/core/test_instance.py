"""Unit tests for observations and event instances (Defs 4.3-4.4)."""

import pickle
from dataclasses import fields, replace

import pytest

from repro.core.errors import ObserverError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberEventInstance,
    CyberPhysicalEventInstance,
    EventInstance,
    ObserverId,
    ObserverKind,
    PhysicalObservation,
    SensorEventInstance,
)
from repro.core.space_model import PointLocation
from repro.core.time_model import TimeInterval, TimePoint

MOTE = ObserverId(ObserverKind.SENSOR_MOTE, "MT1")


def observation(seq=0, value=21.5):
    return PhysicalObservation(
        "MT1", "SR1", seq, TimePoint(10), PointLocation(1, 2),
        {"temperature": value},
    )


def instance(**overrides):
    defaults = dict(
        observer=MOTE,
        event_id="hot",
        seq=0,
        generated_time=TimePoint(12),
        generated_location=PointLocation(1, 2),
        estimated_time=TimePoint(10),
        estimated_location=PointLocation(1, 2),
        attributes={"temperature": 80.0},
        confidence=0.9,
        layer=EventLayer.SENSOR,
    )
    defaults.update(overrides)
    return EventInstance(**defaults)


class TestPhysicalObservation:
    def test_key_is_paper_3_tuple(self):
        assert observation(seq=4).key == ("MT1", "SR1", 4)

    def test_uniform_entity_accessors(self):
        obs = observation()
        assert obs.occurrence_time == TimePoint(10)
        assert obs.occurrence_location == PointLocation(1, 2)
        assert obs.confidence == 1.0

    def test_value_single_attribute(self):
        assert observation(value=25.0).value() == 25.0
        assert observation().value("temperature") == 21.5

    def test_value_ambiguous_without_name(self):
        obs = PhysicalObservation(
            "MT1", "SR1", 0, TimePoint(0), PointLocation(0, 0),
            {"a": 1, "b": 2},
        )
        with pytest.raises(ObserverError):
            obs.value()

    def test_attributes_read_only(self):
        with pytest.raises(TypeError):
            observation().attributes["temperature"] = 0


class TestEventInstance:
    def test_key_is_paper_3_tuple(self):
        assert instance(seq=7).key == (MOTE, "hot", 7)

    def test_confidence_bounds_enforced(self):
        with pytest.raises(ObserverError):
            instance(confidence=1.5)
        with pytest.raises(ObserverError):
            instance(confidence=-0.1)

    def test_layer_must_be_observer_layer(self):
        with pytest.raises(ObserverError):
            instance(layer=EventLayer.PHYSICAL)
        with pytest.raises(ObserverError):
            instance(layer=EventLayer.OBSERVATION)

    def test_detection_latency_point(self):
        assert instance().detection_latency == 2

    def test_detection_latency_interval_measured_from_start(self):
        inst = instance(
            estimated_time=TimeInterval(TimePoint(5), TimePoint(9)),
            generated_time=TimePoint(11),
        )
        assert inst.detection_latency == 6

    def test_occurrence_accessors_use_estimates(self):
        inst = instance()
        assert inst.occurrence_time == TimePoint(10)
        assert inst.occurrence_location == PointLocation(1, 2)

    def test_with_seq(self):
        assert instance().with_seq(9).seq == 9

    def test_describe_contains_six_tuple(self):
        text = instance().describe()
        for token in ("t_g=", "l_g=", "t_eo=", "l_eo=", "V=", "rho="):
            assert token in text

    def test_classification_properties(self):
        inst = instance(estimated_time=TimeInterval(TimePoint(1), TimePoint(5)))
        assert inst.temporal_class.value == "interval"
        assert inst.spatial_class.value == "point"


class TestLayerAliases:
    def test_sensor_event_layer(self):
        inst = SensorEventInstance(
            observer=MOTE, event_id="s", seq=0,
            generated_time=TimePoint(1), generated_location=PointLocation(0, 0),
            estimated_time=TimePoint(1), estimated_location=PointLocation(0, 0),
        )
        assert inst.layer is EventLayer.SENSOR

    def test_cyber_physical_layer(self):
        inst = CyberPhysicalEventInstance(
            observer=ObserverId(ObserverKind.SINK_NODE, "S1"),
            event_id="cp", seq=0,
            generated_time=TimePoint(1), generated_location=PointLocation(0, 0),
            estimated_time=TimePoint(1), estimated_location=PointLocation(0, 0),
        )
        assert inst.layer is EventLayer.CYBER_PHYSICAL

    def test_cyber_layer(self):
        inst = CyberEventInstance(
            observer=ObserverId(ObserverKind.CCU, "C1"),
            event_id="e", seq=0,
            generated_time=TimePoint(1), generated_location=PointLocation(0, 0),
            estimated_time=TimePoint(1), estimated_location=PointLocation(0, 0),
        )
        assert inst.layer is EventLayer.CYBER


class TestObserverId:
    def test_repr_and_ordering(self):
        a = ObserverId(ObserverKind.SENSOR_MOTE, "A")
        b = ObserverId(ObserverKind.SENSOR_MOTE, "B")
        assert repr(a) == "mote:A"
        assert a < b

    def test_hash_repr_and_order_computed_once(self):
        a = ObserverId(ObserverKind.SINK_NODE, "S1")
        assert hash(a) == hash((ObserverKind.SINK_NODE, "S1"))
        assert repr(a) is repr(a)
        twin = ObserverId(ObserverKind.SINK_NODE, "S1")
        assert a == twin and hash(a) == hash(twin)
        assert {a: 1}[twin] == 1
        names = [ObserverId(ObserverKind.CCU, n) for n in ("C", "A", "B")]
        assert [o.name for o in sorted(names)] == ["A", "B", "C"]
        assert a != ObserverId(ObserverKind.CCU, "S1")

    def test_unpickling_recomputes_the_cached_hash(self):
        a = ObserverId(ObserverKind.SINK_NODE, "S1")
        object.__setattr__(a, "_hash", 12345)  # as if hashed elsewhere
        b = pickle.loads(pickle.dumps(a))
        assert b == a and repr(b) == "sink:S1"
        assert hash(b) == hash((ObserverKind.SINK_NODE, "S1"))


def _key_field(cls):
    [key] = [f for f in fields(cls) if f.name == "key"]
    return key


class TestStoredKeys:
    def test_observation_key_stored_and_recomputed(self):
        obs = observation(seq=4)
        assert obs.key is obs.key
        assert replace(obs, seq=7).key == ("MT1", "SR1", 7)

    def test_instance_key_recomputed_by_with_seq_and_replace(self):
        inst = instance(seq=1)
        assert inst.key is inst.key
        assert inst.with_seq(5).key == (MOTE, "hot", 5)
        assert replace(inst, event_id="cold").key == (MOTE, "cold", 1)

    @pytest.mark.parametrize("cls", [PhysicalObservation, EventInstance])
    def test_key_outside_eq_hash_and_repr(self, cls):
        key = _key_field(cls)
        assert not key.init and not key.compare and not key.repr
        assert key.hash is None  # follows compare: left out of __hash__

    def test_key_takes_no_part_in_equality_or_repr(self):
        inst, twin = instance(), instance()
        object.__setattr__(twin, "key", ("someone", "else", 9))
        assert inst == twin
        assert repr(inst) == repr(twin)
        obs, other = observation(), observation()
        object.__setattr__(other, "key", ("MT9", "SR9", 9))
        assert obs == other
        assert repr(obs) == repr(other)

