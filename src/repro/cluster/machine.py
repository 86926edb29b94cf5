"""A single cluster node: preemptive-resume strict-priority single server.

The node serves two job classes (paper §4.1):

* **first priority** — variability sources (daemons, bursts); whenever any
  first-priority work is outstanding, the server works on it;
* **second priority** — the tunable application; it only accumulates service
  when the first-priority backlog is empty.

The observed application time for an iteration needing ``work`` seconds of
service is therefore ``work`` plus all the first-priority service performed
while the iteration was in the system — exactly ``y = f(v) + n(v)`` (Eq. 5).
During barrier waits (the node finished its iteration but others have not)
the server keeps draining first-priority backlog.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro._util import as_generator, check_nonnegative
from repro.cluster.workload import EVENT_BLOCK, WorkloadSource

__all__ = ["PriorityMachine"]


class _EventBuffer:
    """Array-buffered cursor over one source's event blocks.

    Buffering whole ``(times, services)`` blocks is what lets sources
    generate events with one vectorized RNG call per block; the node's
    kernel merges the blocks and replays them per event, exactly.
    """

    __slots__ = ("_blocks", "_times", "_services", "_pos")

    def __init__(self, blocks: Iterator[tuple[np.ndarray, np.ndarray]]) -> None:
        self._blocks = blocks
        self._times: np.ndarray | None = None
        self._services: np.ndarray | None = None
        self._pos = 0

    @classmethod
    def from_stream(
        cls, stream: Iterable[tuple[float, float]] | Iterator[tuple[np.ndarray, np.ndarray]]
    ) -> "_EventBuffer":
        """Accept either a per-event ``(t, service)`` iterator (the public
        ``shared_streams`` contract) or an array-block iterator."""
        it = iter(stream)
        try:
            first = next(it)
        except StopIteration:
            return cls(iter(()))
        chained = itertools.chain([first], it)
        if isinstance(first[0], np.ndarray):
            return cls(chained)

        def blockify() -> Iterator[tuple[np.ndarray, np.ndarray]]:
            while True:
                pairs = list(itertools.islice(chained, EVENT_BLOCK))
                if not pairs:
                    return
                arr = np.asarray(pairs, dtype=float)
                yield arr[:, 0], arr[:, 1]

        return cls(blockify())

    def next_block(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Pop the rest of the current block (or the next one) as arrays;
        None when the stream is dry."""
        while self._times is None or self._pos >= self._times.size:
            try:
                self._times, self._services = next(self._blocks)
            except StopIteration:
                return None
            self._pos = 0
        i = self._pos
        self._pos = self._times.size
        return self._times[i:], self._services[i:]


def _bad_event(stream_id: int, t: float, service: float) -> ValueError:
    """The error for an event with a non-finite arrival time, or a service
    demand that is negative or not finite."""
    if not -math.inf < t < math.inf:
        return ValueError(f"non-finite arrival time {t} from stream {stream_id}")
    if service < 0.0:
        return ValueError(f"negative service demand {service} from stream {stream_id}")
    return ValueError(f"non-finite service demand {service} from stream {stream_id}")


class PriorityMachine:
    """Event-driven strict-priority node simulator.

    Parameters
    ----------
    sources:
        First-priority workload sources private to this node.
    rng:
        Seed or generator for the private sources' event streams.
    shared_streams:
        Optional pre-seeded event streams shared (identically) across all
        nodes of a cluster — models cluster-wide correlated disruptions such
        as global file-system scans (the cross-processor correlation visible
        in the paper's Fig. 3).  Each entry is either a per-event
        ``(arrival, service)`` iterator or a vectorized
        ``(times, services)`` block iterator (a ``stream_blocks`` result).

    The node runs the event-horizon kernel: it merges whole stream blocks
    up to a horizon with one stable ``np.argsort`` and then replays the
    per-event arithmetic over flat local lists.  Its results — clocks,
    backlogs, heap tie-breaks and RNG block-draw order included — are
    bit-identical to a per-event merge heap, which the test suite keeps
    as its oracle.  The kernel's loops are the private methods
    ``_serve(work)`` and ``_advance(t)``.  The public
    :meth:`serve_application` and :meth:`advance_to` check each call and
    then call them; :meth:`repro.cluster.Cluster.run`, which has checked
    its whole run, calls them directly.

    The kernel rejects an event whose arrival time is not finite or whose
    service demand is negative or not finite, naming its stream.
    """

    def __init__(
        self,
        sources: Sequence[WorkloadSource] = (),
        rng: int | np.random.Generator | None = None,
        *,
        shared_streams: Sequence[Iterable] = (),
        shared_load: float = 0.0,
    ) -> None:
        gen = as_generator(rng)
        self._sources = tuple(sources)
        self._own_load = float(sum(s.load for s in self._sources))
        self._shared_load = check_nonnegative("shared_load", shared_load)
        if self.rho >= 1.0:
            raise ValueError(f"total offered load {self.rho:.3f} >= 1 saturates the node")
        self.clock = 0.0
        self.backlog = 0.0
        #: total first-priority service performed so far (for load audits)
        self.p1_service_done = 0.0
        # Generators are lazy: nothing is drawn from `gen` until the first
        # block is pulled, so the kernel consumes the shared generator in
        # a merge heap's order (stream index order at first,
        # block-exhaustion order afterwards).
        self._streams: list[_EventBuffer] = [
            _EventBuffer(source.stream_blocks(0.0, gen)) for source in self._sources
        ]
        self._streams.extend(
            _EventBuffer.from_stream(stream) for stream in shared_streams
        )
        n = len(self._streams)
        # merged event queue (pop-ordered), consumed by cursor
        self._qt: list[float] = []
        self._qs: list[float] = []
        self._qpos = 0
        # per-stream buffered-but-unmerged (times, services) slices
        self._pend: list[tuple[np.ndarray, np.ndarray] | None] = [None] * n
        self._dry = [False] * n
        self._all_dry = n == 0
        # heap-equivalent tie-break state: last-pop sequence number per
        # stream (initialized below any real pop, in stream order — the
        # initial heap push order)
        self._last_pop = [sid - n for sid in range(n)]
        self._pop_seq = 0
        # streams whose buffers the previous merge fully consumed, in the
        # order their last events pop — the next refill draws their blocks
        # in exactly that order (a merge heap's draw order)
        self._exhaust_order: list[int] = []

    # -- load bookkeeping ------------------------------------------------------

    @property
    def rho(self) -> float:
        """Idle system throughput: capacity fraction of first-priority work."""
        return self._own_load + self._shared_load

    # -- simulation -------------------------------------------------------------

    def serve_application(self, work: float) -> float:
        """Serve *work* seconds of application demand; return the finish time.

        The application starts at the current clock and completes once it
        has accumulated *work* seconds of service under strict priority.
        """
        return self._serve(check_nonnegative("work", float(work)))

    def advance_to(self, t: float) -> None:
        """Idle the application until time *t* (a barrier wait).

        First-priority work keeps being served; arrivals in the window are
        absorbed so the backlog at *t* is exact.
        """
        t = float(t)
        if not -math.inf < t < math.inf:
            raise ValueError(f"cannot advance to a non-finite time {t}")
        if t < self.clock - 1e-9:
            raise ValueError(f"cannot advance backwards: clock={self.clock}, t={t}")
        self._advance(t)

    # -- the event-horizon kernel ----------------------------------------------
    #
    # A per-event merge heap (the test suite's oracle, `tests/oracles.py`)
    # pays per event: a heap push/pop (tuple allocation, comparisons) plus
    # a per-event buffer cursor with two float() conversions.  This kernel
    # amortizes all of that at block granularity: it merges every stream's
    # buffered events up to a horizon (the earliest last-buffered time
    # across streams, so the merge is complete — no unmerged event can
    # precede it) with one stable argsort, flattens the result to plain
    # Python lists, and then runs the *exact* per-event arithmetic over a
    # cursor.  Because the per-event float operations are replayed in the
    # same order on the same values, the results are bit-identical to the
    # heap loop — including two subtle orderings it goes out of its way to
    # reproduce:
    #
    # * equal-time events from different streams pop from the heap in
    #   least-recently-popped stream order, one event per turn (each pop
    #   re-pushes that stream's next event with a fresh counter);
    #   `_heap_order` replays that with per-stream last-pop sequence
    #   numbers (deterministic daemon lattices hit this constantly).  A
    #   merge without ties needs no replay: sorted order is pop order, and
    #   each stream's last event sits at a time no other event shares, so
    #   one `searchsorted` of the streams' last times gives every stream's
    #   last-pop number at once.  A merge of one stream is its block order;
    # * a stream's next block is drawn from its generator right after its
    #   last buffered event is absorbed; sources sharing one RNG generator
    #   therefore see the same draw order only if the kernel defers each
    #   draw to the refill *after* the batch that consumed the stream — and
    #   orders same-refill draws by last-event pop position.
    #
    # The per-event loops `_serve` and `_advance` are where a simulated
    # wave spends its time, so they call no builtin: `min()` and
    # `max(0.0, x)` are comparisons that pick the same operand, and the
    # head event's time is carried from one iteration to the next, re-read
    # only when the cursor moves.  Their arguments are checked by the caller:
    # `serve_application` and `advance_to` check each call, and
    # `Cluster.run` checks its whole work matrix once.

    def _draw_block(self, sid: int) -> None:
        """Load stream *sid*'s next event block into its pending buffer."""
        blk = self._streams[sid].next_block()
        if blk is None:
            self._dry[sid] = True
            return
        times, services = blk
        # NaN fails every comparison, so these bounds reject it too; the
        # neighbour check covers the times between the first and the last.
        if not (
            services.min() >= 0.0
            and services.max() < math.inf
            and -math.inf < times[0]
            and times[-1] < math.inf
            and (times[1:] >= times[:-1]).all()
        ):
            bad = ~(np.isfinite(times) & np.isfinite(services) & (services >= 0.0))
            if bad.any():
                i = int(np.argmax(bad))
                raise _bad_event(sid, float(times[i]), float(services[i]))
            raise ValueError(
                f"stream {sid} produced decreasing arrival times within a block"
            )
        self._pend[sid] = (times, services)

    def _heap_order(
        self, mt: np.ndarray, ms: np.ndarray, mid_: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Reorder equal-time ties exactly as the merge heap pops them.

        Also advances the per-stream last-pop sequence numbers the
        tie-break depends on, so later batches keep matching.  Runs only
        on a merge with ties; `_refill` handles the others.
        """
        n = int(mt.size)
        seq = self._pop_seq
        last_pop = self._last_pop
        times = mt.tolist()
        sids = mid_.tolist()
        perm = list(range(n))
        permuted = False
        i = 0
        while i < n:
            j = i + 1
            ti = times[i]
            while j < n and times[j] == ti:
                j += 1
            if j - i == 1:
                seq += 1
                last_pop[sids[i]] = seq
            else:
                queues: dict[int, list[int]] = {}
                for pos in range(i, j):
                    queues.setdefault(sids[pos], []).append(pos)
                if len(queues) == 1:
                    # One stream: FIFO order, nothing to re-break.
                    seq += j - i
                    last_pop[sids[i]] = seq
                else:
                    heads = dict.fromkeys(queues, 0)
                    out: list[int] = []
                    for _ in range(j - i):
                        s = min(
                            (s for s in queues if heads[s] < len(queues[s])),
                            key=last_pop.__getitem__,
                        )
                        out.append(queues[s][heads[s]])
                        heads[s] += 1
                        seq += 1
                        last_pop[s] = seq
                    if out != perm[i:j]:
                        perm[i:j] = out
                        permuted = True
            i = j
        self._pop_seq = seq
        if permuted:
            idx = np.asarray(perm, dtype=np.intp)
            return ms[idx], mid_[idx]
        return ms, mid_

    def _refill(self) -> bool:
        """Merge the next horizon's events into the queue; False when dry."""
        if self._all_dry:
            return False
        pend = self._pend
        for sid in self._exhaust_order:
            self._draw_block(sid)
        self._exhaust_order = []
        live: list[int] = []
        for sid in range(len(self._streams)):
            if pend[sid] is None and not self._dry[sid]:
                self._draw_block(sid)
            if pend[sid] is not None:
                live.append(sid)
        if not live:
            self._all_dry = True
            return False
        # The horizon is the earliest last-buffered time: every stream's
        # buffer reaches it, so no unmerged event can precede any merged
        # one.  The argmin stream contributes its whole buffer, so each
        # refill makes progress.
        horizon = min(float(pend[sid][0][-1]) for sid in live)
        parts: list[tuple[int, np.ndarray, np.ndarray]] = []
        exhausted: list[int] = []
        for sid in live:
            t_arr, s_arr = pend[sid]
            cut = int(np.searchsorted(t_arr, horizon, side="right"))
            if cut == 0:
                continue
            if cut == t_arr.size:
                pend[sid] = None
                exhausted.append(sid)
            else:
                pend[sid] = (t_arr[cut:], s_arr[cut:])
                t_arr, s_arr = t_arr[:cut], s_arr[:cut]
            parts.append((sid, t_arr, s_arr))
        seq = self._pop_seq
        if len(parts) == 1:
            # One stream: its block order is the pop order.
            sid, mt, ms = parts[0]
            self._pop_seq = self._last_pop[sid] = seq + mt.size
        else:
            mt = np.concatenate([t_arr for _, t_arr, _ in parts])
            ms = np.concatenate([s_arr for _, _, s_arr in parts])
            order = np.argsort(mt, kind="stable")
            mt = mt[order]
            ms = ms[order]
            if (mt[1:] == mt[:-1]).any():
                mid_ = np.concatenate(
                    [np.full(t_arr.size, sid, dtype=np.intp) for sid, t_arr, _ in parts]
                )[order]
                ms, mid_ = self._heap_order(mt, ms, mid_)
                last_pos = {
                    sid: int(np.flatnonzero(mid_ == sid)[-1]) for sid in exhausted
                }
            else:
                # No ties: each stream's last event pops where its time sorts.
                ends = np.searchsorted(mt, [t_arr[-1] for _, t_arr, _ in parts])
                last_pos = {}
                for (sid, _, _), end in zip(parts, ends.tolist()):
                    self._last_pop[sid] = seq + end + 1
                    last_pos[sid] = end
                self._pop_seq = seq + mt.size
            exhausted.sort(key=last_pos.__getitem__)
        self._exhaust_order = exhausted
        self._qt = mt.tolist()
        self._qs = ms.tolist()
        self._qpos = 0
        return True

    def _requeue(self, pos: int) -> tuple[list, list, int, int, float]:
        """Refill once the cursor *pos* has passed the end of the queue.

        Returns the loops' ``(qt, qs, pos, qlen, head time)``: the new
        queue and its first event, or, when every stream is dry, the
        spent queue and ``inf``.
        """
        if self._refill():
            qt = self._qt
            return qt, self._qs, 0, len(qt), qt[0]
        return self._qt, self._qs, pos, len(self._qt), math.inf

    def _serve(self, work: float) -> float:
        remaining = work
        clock = self.clock
        backlog = self.backlog
        p1 = self.p1_service_done
        qt, qs = self._qt, self._qs
        pos = self._qpos
        qlen = len(qt)
        try:
            if pos < qlen:
                next_t = qt[pos]
            else:
                qt, qs, pos, qlen, next_t = self._requeue(pos)
            while True:
                if backlog > 0.0:
                    drain_at = clock + backlog
                    if drain_at <= clock:
                        # Backlog below the clock's float resolution: drained.
                        p1 += backlog
                        backlog = 0.0
                        continue
                    if not next_t < drain_at:
                        p1 += backlog
                        clock = drain_at
                        backlog = 0.0
                        continue
                    served = next_t - clock
                    backlog -= served
                    if backlog < 0.0:
                        # the one-ulp float leak when served was computed
                        # from clock + backlog
                        backlog = 0.0
                    p1 += served
                else:
                    if remaining <= 0.0:
                        return clock
                    finish_at = clock + remaining
                    if not next_t < finish_at:
                        clock = finish_at
                        return clock
                    remaining -= next_t - clock
                # The head event arrives: absorb it and read the next head.
                clock = next_t
                backlog += qs[pos]
                pos += 1
                if pos < qlen:
                    next_t = qt[pos]
                else:
                    qt, qs, pos, qlen, next_t = self._requeue(pos)
        finally:
            self.clock = clock
            self.backlog = backlog
            self.p1_service_done = p1
            self._qpos = pos

    def _advance(self, t: float) -> None:
        clock = self.clock
        if not clock < t:
            return
        backlog = self.backlog
        p1 = self.p1_service_done
        qt, qs = self._qt, self._qs
        pos = self._qpos
        qlen = len(qt)
        try:
            if pos < qlen:
                next_t = qt[pos]
            else:
                qt, qs, pos, qlen, next_t = self._requeue(pos)
            while True:
                if backlog > 0.0:
                    drain_at = clock + backlog
                    if drain_at <= clock:
                        # Backlog below the clock's float resolution: drained.
                        p1 += backlog
                        backlog = 0.0
                        continue
                    # min(next_t, drain_at, t)
                    stop_at = drain_at if drain_at < next_t else next_t
                    if t < stop_at:
                        stop_at = t
                    served = stop_at - clock
                    backlog -= served
                    if backlog < 0.0:
                        backlog = 0.0
                    p1 += served
                    clock = stop_at
                else:
                    clock = t if t < next_t else next_t
                # Absorb every arrival the clock has reached.
                while next_t <= clock:
                    if next_t < clock - 1e-9:
                        raise RuntimeError(
                            f"event at t={next_t} arrived in the past (clock={clock})"
                        )
                    backlog += qs[pos]
                    pos += 1
                    if pos < qlen:
                        next_t = qt[pos]
                    else:
                        qt, qs, pos, qlen, next_t = self._requeue(pos)
                if not clock < t:
                    return
        finally:
            self.clock = clock
            self.backlog = backlog
            self.p1_service_done = p1
            self._qpos = pos

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PriorityMachine(clock={self.clock:.3f}, backlog={self.backlog:.3f}, "
            f"rho={self.rho:.3f})"
        )
