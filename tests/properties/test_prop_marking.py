"""Property-based test: the marking component against §3.1 stated once.

Random interleavings of first sends, re-transmissions, flow completions
and re-registrations of a flow id, under SRPT and LAS with boosting on
and off.  Every header hash the filter sees must be the CRC of
``"flow_id:seq"``, and every ``FlowInfo`` written must be the one a
reference with an exact per-flow table writes.
"""

import zlib

from hypothesis import given, settings, strategies as st

from repro.core.flowinfo import (
    FLOW_ID3_MASK,
    RETCNT_MAX,
    RFS_MASK,
    MarkingDiscipline,
    boost_rfs,
)
from repro.core.marking import MarkingComponent
from tests.helpers import mk_data

PAYLOAD = 1000
N_PACKETS = 4  # per flow
FLOW_IDS = (1, 2, 9, 12_345)


class _RecordingFilter:
    """The component's cuckoo filter, with every key it is handed."""

    def __init__(self, inner):
        self.inner = inner
        self.probed = []   # insert_if_absent / insert
        self.deleted = []

    def insert_if_absent(self, key):
        self.probed.append(key)
        return self.inner.insert_if_absent(key)

    def insert(self, key):
        self.probed.append(key)
        return self.inner.insert(key)

    def delete(self, key):
        self.deleted.append(key)
        return self.inner.delete(key)

    def __len__(self):
        return len(self.inner)


class _Reference:
    """§3.1: rank by remaining (SRPT) or attained (LAS) bytes; a
    re-transmission counts up ``retcnt`` (4 bits) and, with boosting,
    rotates the original rank right; an unregistered flow is ranked by
    its wire size."""

    def __init__(self, discipline, factor, boosting):
        self.srpt = discipline is MarkingDiscipline.SRPT
        self.factor = factor
        self.boosting = boosting
        self.sent = {}  # flow -> (size, {seq: transmissions})

    def header(self, flow_id, seq, wire_bytes):
        if flow_id not in self.sent:
            return (min(wire_bytes, RFS_MASK), 0, 0, False)
        size, sent = self.sent[flow_id]
        retcnt = min(sent.get(seq, -1) + 1, RETCNT_MAX)
        sent[seq] = retcnt
        original = min(size - seq if self.srpt else seq, RFS_MASK)
        if retcnt and self.boosting:
            return (boost_rfs(original, retcnt, self.factor), retcnt,
                    flow_id & FLOW_ID3_MASK, seq == 0)
        return (original, 0, flow_id & FLOW_ID3_MASK, seq == 0)


_OPS = st.lists(
    st.tuples(st.sampled_from(["send", "send", "send", "done", "register"]),
              st.sampled_from(FLOW_IDS),
              st.integers(0, N_PACKETS - 1)),
    max_size=60)


@given(ops=_OPS,
       discipline=st.sampled_from(list(MarkingDiscipline)),
       factor=st.sampled_from([1, 2, 4, 8]),
       boosting=st.booleans())
@settings(max_examples=200, deadline=None)
def test_headers_and_hash_keys_match_the_paper_reference(
        ops, discipline, factor, boosting):
    marking = MarkingComponent(discipline=discipline, boost_factor=factor,
                               boosting=boosting)
    recorder = marking._filter = _RecordingFilter(marking._filter)
    reference = _Reference(discipline, factor, boosting)
    size = N_PACKETS * PAYLOAD
    for op, flow_id, index in ops:
        if op == "register":
            if flow_id in reference.sent:
                continue  # flow ids are not reused while a flow is live
            hint = size if discipline is MarkingDiscipline.SRPT else None
            marking.register_flow(flow_id, hint)
            reference.sent[flow_id] = (size, {})
        elif op == "done":
            remembered = sorted(reference.sent.get(flow_id, (0, {}))[1])
            recorder.deleted.clear()
            marking.flow_done(flow_id)
            reference.sent.pop(flow_id, None)
            assert sorted(recorder.deleted) == sorted(
                zlib.crc32(f"{flow_id}:{seq}".encode())
                for seq in remembered)
        else:
            seq = index * PAYLOAD
            packet = mk_data(flow_id=flow_id, seq=seq, payload=PAYLOAD)
            expected = reference.header(flow_id, seq, packet.wire_bytes)
            recorder.probed.clear()
            marking.mark(packet)
            info = packet.flowinfo
            assert (info.rfs, info.retcnt, info.flow_id3, info.first) \
                == expected
            key = zlib.crc32(f"{flow_id}:{seq}".encode())
            # A second probe (insert after a false positive) re-uses it.
            if flow_id in reference.sent:
                assert recorder.probed and set(recorder.probed) == {key}
            else:
                assert recorder.probed == []
    assert len(marking._filter) == sum(
        len(sent) for _, sent in reference.sent.values())
