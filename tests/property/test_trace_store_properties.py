"""Property-based tests for the flat trace store (hypothesis).

:class:`~repro.sim.trace.TraceRecorder` keeps its rows as flat lists of
plain values and builds :class:`~repro.sim.trace.TraceRecord` objects
only when a row is read.  These properties drive random
``record`` / ``replay`` / ``clear`` sequences through a recorder and
through the plain reference model — a list of ``TraceRecord`` — and
require every read to agree: iteration, the filters, counts, digests
and the JSON Lines form, plus what ``record`` returns and what
listeners receive.
"""

import enum

from hypothesis import given, settings, strategies as st

from repro.sim.trace import TraceRecord, TraceRecorder, to_jsonl, trace_digest


class _Mode(enum.Enum):
    IDLE = 1
    ACTIVE = 2


CATEGORIES = ("sample.ok", "instance.emit", "bus.publish", "net.deliver")
SOURCES = ("MT1", "MT2", "sink:S1")
# A small key vocabulary, so rows share payload shapes; none collides
# with record()'s positional parameter names.
KEYS = ("value", "seq", "rho", "layer", "nested", "hops")

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=6),
    st.sampled_from(list(_Mode)),
)
values = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    ),
    max_leaves=6,
)
payloads = st.dictionaries(st.sampled_from(KEYS), values, max_size=4)
records = st.builds(
    TraceRecord,
    tick=st.integers(min_value=0, max_value=50),
    category=st.sampled_from(CATEGORIES),
    source=st.sampled_from(SOURCES),
    payload=payloads,
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), records),
        st.tuples(st.just("replay"), st.lists(records, max_size=3)),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=25,
)


class TestTraceStoreMatchesListModel:
    @settings(max_examples=150, deadline=None)
    @given(operations)
    def test_reads_equal_the_reference_model(self, ops):
        trace = TraceRecorder()
        heard: list[TraceRecord] = []
        trace.subscribe(heard.append)
        model: list[TraceRecord] = []
        announced: list[TraceRecord] = []
        for op, arg in ops:
            if op == "record":
                rec = trace.record(arg.tick, arg.category, arg.source, **arg.payload)
                assert rec == arg
                assert list(trace)[-1] == rec
                assert heard[-1] == rec
                model.append(arg)
                announced.append(arg)
            elif op == "replay":
                trace.replay(arg)
                model.extend(arg)
                announced.extend(arg)
            else:
                trace.clear()
                model.clear()
        assert heard == announced

        assert list(trace) == model
        assert len(trace) == len(model)
        assert trace.count() == len(model)
        for category in CATEGORIES:
            expected = [r for r in model if r.category == category]
            assert trace.by_category(category) == expected
            assert trace.count(category) == len(expected)
        for source in SOURCES:
            assert trace.by_source(source) == [r for r in model if r.source == source]
        wanted = CATEGORIES[:2]
        subset = [r for r in model if r.category in wanted]
        assert trace.filtered(wanted) == subset
        assert trace.digest() == trace_digest(model)
        assert trace.digest(wanted) == trace_digest(subset)
        assert trace.to_jsonl() == to_jsonl(model)
        assert trace.to_jsonl(wanted) == to_jsonl(subset)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(records, min_size=1, max_size=10))
    def test_reads_build_fresh_records(self, recs):
        trace = TraceRecorder()
        for rec in recs:
            trace.record(rec.tick, rec.category, rec.source, **rec.payload)
        first = list(trace)
        first[0].payload.clear()  # a read's payload is a copy of the row
        assert list(trace) == recs
