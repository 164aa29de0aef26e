"""Structured trace recording: configuration, live tracer, detached data.

A :class:`Tracer` receives records from the sites wired through the
engine, network, host, ordering, metrics, transport and workload layers
(see :mod:`repro.trace.hooks`): each site calls :meth:`Tracer.record`
with the whole record as one tuple, which is laid end to end into the
flat chunks of a :class:`RecordLog` — no per-record container survives
the call, so a traced run gives the garbage collector nothing more to
walk than an untraced one.

Two trace levels exist (:class:`TraceConfig.level`):

- ``"flow"`` — flow/query lifecycle, retransmissions, congestion-control
  events, and the periodic samplers; per-packet events are suppressed.
- ``"packet"`` — everything above plus per-packet dataplane events:
  enqueue, dequeue, deflect, drop-with-reason, ECN mark, delivery, and
  ordering-buffer hold/release.

All recorded fields are *simulation* quantities (integer-nanosecond
times, byte counts, identifiers), so a trace is a pure function of the
seeded configuration: the same run produces byte-identical exports
whether it executed serially or in a sweep worker process.  Wall-clock
profiling lives in :mod:`repro.trace.profiler` and is deliberately kept
out of the deterministic record stream.

Every record is ``(kind, t, *fields)``; :data:`EVENT_FIELDS` names the
fields per kind in the order a site lays them down, and is the only
statement of a record's layout: it fixes how many values a record
occupies (:data:`ARITY`) and drives the JSONL export and validation
(:mod:`repro.trace.export`).  Nothing is formatted at record time:
values are stored as the site passed them and the exporter owns every
rounding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis import sanitize as _sanitize
# TRACE_LEVELS and TraceConfig stay importable from here: pickled configs
# name this path.
from repro.trace.config import TRACE_LEVELS, TraceConfig

_SANITIZE = _sanitize.register(__name__)

TRACE_SCHEMA = 1

#: Field names per event kind, *after* the leading ``kind, t`` pair.
#: This is the trace schema: every record site lays its fields down in
#: this order, the record log takes each kind's arity from it, the JSONL
#: exporter its line templates, and the validator checks files against it.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    # Packet-scope dataplane events (level = "packet").
    "pkt.enqueue": ("node", "port", "flow", "seq", "bytes"),
    "pkt.dequeue": ("node", "port", "flow", "seq", "bytes"),
    "pkt.deflect": ("node", "from_port", "to_port", "flow", "seq",
                    "deflections"),
    "pkt.drop": ("node", "reason", "flow", "seq", "bytes"),
    "pkt.ecn": ("node", "flow", "seq"),
    "pkt.deliver": ("node", "flow", "seq", "bytes", "hops", "deflections"),
    "ord.hold": ("node", "flow", "tag"),
    "ord.release": ("node", "flow", "tag", "why"),
    # Flow-scope events (both levels).
    "flow.start": ("flow", "src", "dst", "size", "incast", "query"),
    "flow.end": ("flow", "fct_ns"),
    "flow.rtx": ("flow", "seq", "tx_count"),
    "query.start": ("query", "client", "n_flows"),
    "query.end": ("query", "qct_ns"),
    # Coflow lifecycle (both levels; see repro.workload.coflow).  A
    # coflow spans every stage of one shuffle/partition–aggregate job;
    # ``coflow.stage`` marks each stage barrier opening its flows.
    "coflow.start": ("coflow", "pattern", "n_flows", "stages"),
    "coflow.stage": ("coflow", "stage", "n_flows"),
    "coflow.end": ("coflow", "cct_ns"),
    "cc.fastrtx": ("flow",),
    "cc.rto": ("flow", "rto_ns"),
    # Fidelity-mode transitions (both levels; see repro.net.fidelity).
    "fid.mode": ("link", "mode", "why"),
    # PFC XOFF/XON transitions at an ingress gate (both levels; see
    # repro.net.pfc).  ``node``/``port`` name the ingress, ``qbytes``
    # the gate occupancy at the transition.
    "pfc.pause": ("node", "port", "pclass", "qbytes"),
    "pfc.resume": ("node", "port", "pclass", "qbytes"),
    # Engine run-loop spans (both levels; sim-time only, no wall clock).
    "engine.span": ("t_start", "events"),
    # Periodic samples (both levels, when a sample period is configured).
    "sample.port": ("node", "port", "qbytes", "qpkts", "util"),
    # Per-lane occupancy of priority-class queues (only emitted for
    # ports with ClassLaneQueue egress; see repro.net.pfc).
    "sample.lane": ("node", "port", "pclass", "qbytes", "qpkts"),
    "sample.flow": ("node", "flow", "cwnd", "srtt_ns", "inflight",
                    "acked", "cc"),
    # Per-tick fidelity-residency aggregate (hybrid/flow modes only).
    "sample.fid": ("analytic_links", "packet_links", "demotions",
                   "promotions", "analytic_rounds"),
}

#: Kinds recorded only at ``level="packet"``.
PACKET_KINDS = frozenset(k for k in EVENT_FIELDS
                         if k.startswith(("pkt.", "ord.")))

#: Values one record occupies in a flat chunk: its kind, its time and its
#: :data:`EVENT_FIELDS`.  A chunk has no other structure, so a site that
#: lays down any other number of values corrupts every record after it.
ARITY: Dict[str, int] = {kind: len(fields) + 2
                         for kind, fields in EVENT_FIELDS.items()}

#: Records per sealed chunk (a sampler tick is never split, so a sample
#: chunk may run over by up to one tick).
CHUNK_RECORDS = 4096


class RecordLog:
    """One stream of records, laid end to end in flat chunks.

    A record is ``ARITY[kind]`` consecutive values beginning with its
    kind; nothing else marks where it ends.  The tracer extends
    :attr:`open` (``log.open += (kind, t, ...)``), counts the record in
    :attr:`tally` and off :attr:`room`, and calls :meth:`seal` when
    ``room`` runs out; sealed chunks are immutable tuples.

    The log is a ring over its newest ``bound`` records: :meth:`seal`
    lets whole chunks fall off the old end during the run and
    :meth:`frozen` trims the oldest retained chunk, so a detached log
    holds exactly the newest ``bound``.  ``len`` and iteration cover the
    retained records, oldest first, each as the tuple
    ``(kind, t, *values)``.
    """

    __slots__ = ("bound", "chunks", "sizes", "open", "room", "tally")

    def __init__(self, bound: int) -> None:
        self.bound = bound
        #: Sealed chunks, oldest first, and the records each one holds.
        self.chunks: List[tuple] = []
        self.sizes: List[int] = []
        #: The chunk being written, and the records it has room left for.
        self.open: list = []
        self.room = CHUNK_RECORDS
        #: Records ever laid down per kind, discarded ones included.
        self.tally: Dict[str, int] = dict.fromkeys(EVENT_FIELDS, 0)

    def seal(self) -> None:
        """Close the open chunk; drop the chunks that now lie wholly
        outside the newest-``bound`` window."""
        records = CHUNK_RECORDS - self.room
        if _SANITIZE:
            _check_chunk(self.open, records)
        self.chunks.append(tuple(self.open))
        self.sizes.append(records)
        self.open = []
        self.room = CHUNK_RECORDS
        self._drop_beyond_bound()

    def _drop_beyond_bound(self) -> int:
        """Discard whole chunks older than the newest ``bound`` records;
        returns how many records of the oldest chunk left are too."""
        sizes = self.sizes
        excess = sum(sizes) - self.bound
        while excess > 0 and excess >= sizes[0]:
            excess -= sizes.pop(0)
            del self.chunks[0]
        return max(excess, 0)

    def frozen(self) -> "RecordLog":
        """A detached copy of exactly the newest ``bound`` records (this
        log is left as it is; sealed chunks are shared, not copied)."""
        log = RecordLog(self.bound)
        log.chunks = self.chunks + [tuple(self.open)]
        log.sizes = self.sizes + [CHUNK_RECORDS - self.room]
        log.tally = dict(self.tally)
        excess = log._drop_beyond_bound()
        if excess:
            chunk, offset = log.chunks[0], 0
            for _ in range(excess):
                offset += ARITY[chunk[offset]]
            log.chunks[0] = chunk[offset:]
            log.sizes[0] -= excess
        if _SANITIZE:
            for chunk, records in zip(log.chunks, log.sizes):
                _check_chunk(chunk, records)
        return log

    def __len__(self) -> int:
        return sum(self.sizes) + CHUNK_RECORDS - self.room

    def __iter__(self) -> Iterator[tuple]:
        arity = ARITY
        for chunk in (*self.chunks, tuple(self.open)):
            offset, end = 0, len(chunk)
            while offset < end:
                start = offset
                offset += arity[chunk[start]]
                yield chunk[start:offset]

    @property
    def emitted(self) -> int:
        """Records ever laid down, discarded ones included."""
        return sum(self.tally.values())

    @property
    def dropped(self) -> int:
        return self.emitted - len(self)

    def counts(self) -> Dict[str, int]:
        """Retained records per kind: the tally, unless the ring has
        discarded some of what it counted."""
        if not self.dropped:
            return {kind: n for kind, n in self.tally.items() if n}
        counts: Dict[str, int] = {}
        for record in self:
            counts[record[0]] = counts.get(record[0], 0) + 1
        return counts


def _check_chunk(chunk, records: int) -> None:
    """Sanitizer: ``chunk`` is exactly ``records`` whole records."""
    offset, walked, end = 0, 0, len(chunk)
    while offset < end:
        kind = chunk[offset]
        known = type(kind) is str and kind in ARITY
        _sanitize.check(known, "trace chunk: %r at offset %d is not a "
                        "record kind (some site laid down the wrong "
                        "number of values before it)", kind, offset)
        offset += ARITY[kind]
        walked += 1
    _sanitize.check(offset == end and walked == records,
                    "trace chunk: %d records ending at %d, expected %d "
                    "ending at %d", walked, offset, records, end)


@dataclass
class TraceData:
    """A detached, picklable trace: what a :class:`Tracer` observed.

    This is what rides on :class:`~repro.experiments.runner.RunResult`
    (surviving worker-process transfer in parallel sweeps) and what the
    exporters in :mod:`repro.trace.export` serialize.
    """

    config: TraceConfig
    #: Retained event and sample records, read-only (``len``, iteration).
    events: RecordLog
    samples: RecordLog
    #: Run identity stamped by the runner: seed, system, transport,
    #: sim_time_ns, topology.
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def emitted_events(self) -> int:
        return self.events.emitted

    @property
    def emitted_samples(self) -> int:
        return self.samples.emitted

    @property
    def dropped_events(self) -> int:
        return self.events.dropped

    @property
    def dropped_samples(self) -> int:
        return self.samples.dropped

    def counts(self) -> Dict[str, int]:
        """Number of retained records per event kind (sorted by kind)."""
        return dict(sorted({**self.events.counts(),
                            **self.samples.counts()}.items()))

    def digest(self) -> str:
        """SHA-256 over the canonical JSONL export of this trace."""
        from repro.trace.export import jsonl_lines

        sha = hashlib.sha256()
        for line in jsonl_lines(self):
            sha.update(line.encode())
            sha.update(b"\n")
        return sha.hexdigest()


class Tracer:
    """Live event sink bound to one simulation run.

    Record sites guard with ``if _TRACE is not None`` and, for
    packet-scope kinds, ``_TRACE.packets``, then call :meth:`record`;
    the sampler calls :meth:`sample_tick` once per tick.  Either lays
    its values into the open chunk of a :class:`RecordLog`, counts the
    records, and seals the chunk when it is full — nothing else.
    """

    __slots__ = ("config", "packets", "_events", "_samples")

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config or TraceConfig()
        #: Hot-path flag: are packet-scope events recorded?
        self.packets = self.config.packets
        self._events = RecordLog(self.config.max_events)
        self._samples = RecordLog(self.config.max_samples)

    def record(self, values: tuple) -> None:
        """One event record: ``values`` is the whole record ``(kind, t,
        *fields)`` in :data:`EVENT_FIELDS` order."""
        log = self._events
        log.open += values
        log.tally[values[0]] += 1
        log.room -= 1
        if not log.room:
            log.seal()

    def sample_tick(self, values: list, counts: Dict[str, int]) -> None:
        """One sampler tick: ``values`` is whole ``sample.*`` records
        laid end to end, ``counts`` how many of each kind."""
        log = self._samples
        log.open += values
        for kind, count in counts.items():
            log.tally[kind] += count
            log.room -= count
        if log.room <= 0:
            log.seal()

    def detach(self, meta: Optional[Dict[str, object]] = None) -> TraceData:
        """The observations so far as a picklable :class:`TraceData`."""
        return TraceData(config=self.config,
                         events=self._events.frozen(),
                         samples=self._samples.frozen(),
                         meta=dict(meta or {}))
