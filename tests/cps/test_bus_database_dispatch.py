"""Unit tests for the event bus, database server and dispatch node."""

import pytest

from repro.core.errors import ComponentError, DatabaseError
from repro.core.event import EventLayer
from repro.core.instance import (
    CyberPhysicalEventInstance,
    ObserverId,
    ObserverKind,
    SensorEventInstance,
)
from repro.core.space_model import Circle, PointLocation
from repro.core.time_model import TimeInterval, TimePoint
from repro.cps.actions import ActuatorCommand
from repro.cps.bus import EventBus
from repro.cps.database import DatabaseServer
from repro.cps.dispatch import DispatchNode
from repro.network.packet import Packet, PacketKind
from repro.sim.kernel import Simulator

ORIGIN = PointLocation(0, 0)


def instance(event_id="hot", seq=0, tick=10, x=0.0, y=0.0, rho=0.9,
             layer=EventLayer.SENSOR):
    cls = (
        SensorEventInstance
        if layer is EventLayer.SENSOR
        else CyberPhysicalEventInstance
    )
    kind = (
        ObserverKind.SENSOR_MOTE
        if layer is EventLayer.SENSOR
        else ObserverKind.SINK_NODE
    )
    return cls(
        observer=ObserverId(kind, "N1"),
        event_id=event_id,
        seq=seq,
        generated_time=TimePoint(tick),
        generated_location=PointLocation(x, y),
        estimated_time=TimePoint(tick - 2),
        estimated_location=PointLocation(x, y),
        confidence=rho,
    )


class TestEventBus:
    def test_publish_delivers_after_latency(self):
        sim = Simulator()
        bus = EventBus(sim, latency=3)
        got = []
        bus.subscribe("db", lambda i: got.append((sim.tick, i.event_id)))
        sim.schedule(5, lambda: bus.publish(instance()))
        sim.run()
        assert got == [(8, "hot")]

    def test_event_id_filter(self):
        sim = Simulator()
        bus = EventBus(sim, latency=0)
        got = []
        bus.subscribe("x", lambda i: got.append(i.event_id), event_ids={"fire"})
        bus.publish(instance("hot"))
        bus.publish(instance("fire", seq=1))
        sim.run()
        assert got == ["fire"]

    def test_layer_filter(self):
        sim = Simulator()
        bus = EventBus(sim, latency=0)
        got = []
        bus.subscribe(
            "x", lambda i: got.append(i.layer),
            layers={EventLayer.CYBER_PHYSICAL},
        )
        bus.publish(instance(layer=EventLayer.SENSOR))
        bus.publish(instance(seq=1, layer=EventLayer.CYBER_PHYSICAL))
        sim.run()
        assert got == [EventLayer.CYBER_PHYSICAL]

    def test_region_filter(self):
        sim = Simulator()
        bus = EventBus(sim, latency=0)
        got = []
        bus.subscribe(
            "x", lambda i: got.append(i.seq),
            region=Circle(ORIGIN, 5.0),
        )
        bus.publish(instance(seq=0, x=1.0))
        bus.publish(instance(seq=1, x=99.0))
        sim.run()
        assert got == [0]

    def test_confidence_filter(self):
        sim = Simulator()
        bus = EventBus(sim, latency=0)
        got = []
        bus.subscribe("x", lambda i: got.append(i.seq), min_confidence=0.5)
        bus.publish(instance(seq=0, rho=0.9))
        bus.publish(instance(seq=1, rho=0.1))
        sim.run()
        assert got == [0]

    def test_unsubscribe(self):
        sim = Simulator()
        bus = EventBus(sim, latency=0)
        got = []
        subscription = bus.subscribe("x", got.append)
        bus.unsubscribe(subscription)
        assert bus.publish(instance()) == 0
        assert bus.subscription_count == 0

    def test_publish_returns_match_count(self):
        sim = Simulator()
        bus = EventBus(sim, latency=0)
        bus.subscribe("a", lambda i: None)
        bus.subscribe("b", lambda i: None, event_ids={"other"})
        assert bus.publish(instance()) == 1

    def test_negative_latency_rejected(self):
        with pytest.raises(ComponentError):
            EventBus(Simulator(), latency=-1)


class TestBatchedDelivery:
    @staticmethod
    def _bus(latency=1):
        sim = Simulator()
        bus = EventBus(sim, latency=latency)
        got = []
        for name in ("a", "b"):
            bus.subscribe(name, lambda i, n=name: got.append((n, i.seq)))
        return sim, bus, got

    def test_publish_by_subscription_order_in_one_entry(self):
        sim, bus, got = self._bus()
        for seq in range(3):
            bus.publish(instance(seq=seq))
        sim.run()
        assert got == [
            ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2),
        ]
        assert sim.events_processed == 1
        assert bus.delivered_count == 6

    def test_entry_scheduled_between_publishes_runs_between(self):
        sim, bus, got = self._bus()
        bus.publish(instance(seq=0))
        sim.schedule(1, lambda: got.append(("marker", None)))
        bus.publish(instance(seq=1))
        sim.run()
        assert got == [
            ("a", 0), ("b", 0), ("marker", None), ("a", 1), ("b", 1),
        ]

    def test_publish_during_delivery_joins_running_batch(self):
        sim = Simulator()
        bus = EventBus(sim, latency=0)
        got = []

        def relay(i):
            got.append(i.seq)
            if i.seq == 0:
                bus.publish(instance(seq=1))

        bus.subscribe("relay", relay)
        bus.subscribe("log", lambda i: got.append(("log", i.seq)))
        bus.publish(instance(seq=0))
        sim.run()
        assert got == [0, ("log", 0), 1, ("log", 1)]
        assert sim.events_processed == 1

    def test_finished_batch_is_never_joined(self):
        # Same due tick and nothing scheduled since: only the batch
        # having run already keeps the second publish out of it.
        sim, bus, got = self._bus(latency=0)
        bus.publish(instance(seq=0))
        sim.run()
        bus.publish(instance(seq=1))
        sim.run()
        assert got == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]
        assert sim.events_processed == 2

    def test_raising_subscriber_leaves_rest_queued(self):
        sim = Simulator()
        bus = EventBus(sim, latency=1)
        got = []

        def fragile(i):
            if i.seq == 1 and not got.count(("boom", 1)):
                got.append(("boom", 1))
                raise RuntimeError("subscriber failed")
            got.append(("fragile", i.seq))

        bus.subscribe("fragile", fragile)
        bus.subscribe("log", lambda i: got.append(("log", i.seq)))
        for seq in range(3):
            bus.publish(instance(seq=seq))
        with pytest.raises(RuntimeError):
            sim.run()
        assert got == [("fragile", 0), ("log", 0), ("boom", 1)]
        assert bus.delivered_count == 3
        sim.run()
        assert got[3:] == [("log", 1), ("fragile", 2), ("log", 2)]
        assert bus.delivered_count == 6

    def test_stop_mid_batch_resumes_in_place(self):
        sim = Simulator()
        bus = EventBus(sim, latency=1)
        got = []

        def stopper(i):
            got.append(("stopper", i.seq))
            if i.seq == 0:
                # Scheduled after the batch's entry: runs after the rest
                # of the batch, as it would after separate entries.
                sim.schedule(0, lambda: got.append(("later", None)))
                sim.stop()

        bus.subscribe("stopper", stopper)
        bus.subscribe("log", lambda i: got.append(("log", i.seq)))
        bus.publish(instance(seq=0))
        bus.publish(instance(seq=1))
        sim.run()
        assert got == [("stopper", 0)]
        sim.run()
        assert got == [
            ("stopper", 0), ("log", 0), ("stopper", 1), ("log", 1),
            ("later", None),
        ]


class TestDatabaseServer:
    def test_store_and_query(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance("hot", seq=0))
        db.store(instance("fire", seq=1))
        assert len(db) == 2
        assert db.count("hot") == 1
        assert [i.event_id for i in db.query(event_id="fire")] == ["fire"]

    def test_duplicate_keys_ignored(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        assert db.store(instance(seq=0))
        assert not db.store(instance(seq=0))
        assert len(db) == 1

    def test_mixed_transfer_delays_keep_query_order(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        stored = []
        for seq, delay in enumerate([5, 5, 0, 9, 2, 5, 0, 9, 2]):
            db.transfer_delay = delay
            db.store(instance(seq=seq))
            stored.append((delay, seq))
        sim.run(until=20)
        # Visibility order; equal visibility ticks keep arrival order.
        expected = [seq for _, seq in sorted(stored, key=lambda row: row[0])]
        assert [i.seq for i in db.query()] == expected

    def test_dedup_and_visibility_under_mixed_transfer_delay(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        stored = []
        for seq, delay in [(0, 5), (1, 0), (0, 0), (2, 3), (1, 9), (3, 3)]:
            db.transfer_delay = delay
            stored.append(db.store(instance(seq=seq)))
        assert stored == [True, True, False, True, False, True]
        assert len(db) == 4
        for tick, visible in [(0, [1]), (3, [1, 2, 3]), (5, [1, 2, 3, 0])]:
            sim.run(until=tick)
            assert [i.seq for i in db.query()] == visible

    def test_transfer_delay_hides_fresh_rows(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim, transfer_delay=10)
        db.store(instance())
        assert db.count() == 0
        sim.run(until=10)
        assert db.count() == 1

    def test_time_range_query(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance(seq=0, tick=10))   # t_eo = 8
        db.store(instance(seq=1, tick=50))   # t_eo = 48
        window = TimeInterval(TimePoint(0), TimePoint(20))
        assert [i.seq for i in db.query(time_range=window)] == [0]

    def test_region_query(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance(seq=0, x=1.0))
        db.store(instance(seq=1, x=50.0))
        rows = db.query(region=Circle(ORIGIN, 5.0))
        assert [i.seq for i in rows] == [0]

    def test_layer_and_confidence_query(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance(seq=0, layer=EventLayer.SENSOR, rho=0.9))
        db.store(instance(seq=1, layer=EventLayer.CYBER_PHYSICAL, rho=0.4))
        assert len(db.query(layer=EventLayer.SENSOR)) == 1
        assert len(db.query(min_confidence=0.5)) == 1

    def test_observer_query(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance(seq=0))
        rows = db.query(observer=ObserverId(ObserverKind.SENSOR_MOTE, "N1"))
        assert len(rows) == 1
        assert db.query(observer=ObserverId(ObserverKind.CCU, "Z")) == []

    def test_latest(self):
        sim = Simulator()
        db = DatabaseServer("DB1", sim)
        db.store(instance(seq=0, tick=10))
        db.store(instance(seq=1, tick=30))
        assert db.latest("hot").seq == 1
        assert db.latest("missing") is None

    def test_negative_delay_rejected(self):
        with pytest.raises(DatabaseError):
            DatabaseServer("DB1", Simulator(), transfer_delay=-1)


class TestDispatchNode:
    class FakeReceiver:
        def __init__(self):
            self.commands = []

        def receive_command(self, command):
            self.commands.append(command)

    def test_direct_dispatch(self):
        sim = Simulator()
        node = DispatchNode("D1", ORIGIN, sim)
        receiver = self.FakeReceiver()
        node.connect_direct("AM1", receiver)
        node.dispatch(ActuatorCommand("open", {}, ("AM1",), 0))
        sim.run()
        assert len(receiver.commands) == 1

    def test_default_targets_used_when_none_named(self):
        sim = Simulator()
        node = DispatchNode("D1", ORIGIN, sim, default_targets=("AM1",))
        receiver = self.FakeReceiver()
        node.connect_direct("AM1", receiver)
        node.dispatch(ActuatorCommand("open", {}, (), 0))
        sim.run()
        assert len(receiver.commands) == 1

    def test_no_targets_traced_not_raised(self):
        sim = Simulator()
        node = DispatchNode("D1", ORIGIN, sim)
        node.dispatch(ActuatorCommand("open", {}, (), 0))
        assert node.dispatched == []

    def test_backbone_handler_filters_kinds(self):
        sim = Simulator()
        node = DispatchNode("D1", ORIGIN, sim)
        receiver = self.FakeReceiver()
        node.connect_direct("AM1", receiver)
        command = ActuatorCommand("open", {}, ("AM1",), 0)
        node.handle_backbone(Packet("C", "D1", PacketKind.COMMAND, command, 0))
        node.handle_backbone(Packet("C", "D1", PacketKind.EVENT_INSTANCE, "x", 0))
        sim.run()
        assert len(receiver.commands) == 1

    def test_bad_receiver_rejected(self):
        node = DispatchNode("D1", ORIGIN, Simulator())
        with pytest.raises(ComponentError):
            node.connect_direct("AM1", object())
