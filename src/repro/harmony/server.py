"""The tuning server: the strategy host of the Active Harmony model.

Applications (clients) register their tunable parameters, then loop:

1. ``fetch`` — receive the configuration to run their next time step with;
2. run the time step, measuring its wall time;
3. ``report`` — send the measurement back.

The server multiplexes the tuner's candidate batch over whatever clients
show up: each candidate needs K samples (the §5.2 multi-sampling), and when
several clients run concurrently the samples are collected *in parallel*
across clients — the "no additional time burden" case the paper describes
for 64 processors and K = 10.  Clients beyond the outstanding work are
assigned the incumbent best configuration (exploitation).

One :class:`TuningServer` hosts many named **sessions** — independent
(tuner, sample ledger, measurement log) triples, each behind its own lock —
so unrelated tuning runs sharing the service scale instead of serializing
on a global lock.  Messages address a session with a ``session`` field;
omitting it targets the ``"default"`` session, which preserves the original
single-session protocol and API unchanged.

The server is transport-agnostic: it consumes plain-dict messages (see
:meth:`TuningServer.handle`) and is thread-safe, so the same instance can
sit behind the in-process transport or the asyncio TCP transport.

**Durability.**  Attach a :class:`~repro.harmony.wal.WalWriter` (see
:meth:`TuningServer.attach_wal`) and every state mutation — register,
open/close session, fetch, report, requeue — is appended to the write-ahead
log *while the session lock is held*, so log order equals application
order and replaying the log rebuilds the exact server state.  Clients may
stamp fetch/report messages with a per-client sequence number ``cseq``;
the session keeps a per-client high-water mark plus a bounded reply cache
(both WAL-persisted), so a retried request after a lost ACK is answered
from the cache without mutating anything — exactly-once, end to end.
Registration carries an optional client ``nonce`` with the same property:
re-registering with a known nonce (or ``resume: <client_id>``) returns the
existing client id instead of minting a new one.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.base import BatchTuner
from repro.core.sampling import ESTIMATORS, SamplingPlan
from repro.harmony.protocol import (
    PROTOCOL_VERSION,
    error_response,
    moved_response,
)
from repro.space import ParameterSpace
from repro.space.serialize import space_from_spec

__all__ = [
    "ServerSession",
    "SessionMovedAway",
    "TuningServer",
    "DEFAULT_SESSION",
]

#: the session addressed when a message carries no ``session`` field
DEFAULT_SESSION = "default"

#: cached replies kept per client for exactly-once retries; a lock-step
#: client retries only its most recent request, so a small cache bounds
#: memory without ever evicting a reply that can still be asked for
_REPLY_CACHE = 64

#: the cached replies of the two report ACKs, shared by every cache entry
#: that holds one (duplicates are answered with a copy, never these dicts)
_ACK_REPLY = ("resp", {"ok": True})
_STALE_REPLY = ("resp", {"ok": True, "stale": True})


class SessionMovedAway(Exception):
    """Raised inside a shard for ops addressed to an exported session.

    The server-side marker behind live migration: once ``export_session``
    has quiesced a session, any op still racing toward it (or arriving
    later for its tombstone) raises this, and both wires translate it into
    the *moved* envelope (:func:`repro.harmony.protocol.moved_response` on
    JSON, ``MSG_MOVED`` on binary) so the client re-resolves through the
    coordinator instead of retrying here.
    """

    def __init__(self, session: str) -> None:
        super().__init__(f"session {session!r} has moved")
        self.session = str(session)


def _plan_spec(plan: SamplingPlan) -> dict[str, Any] | None:
    """JSON form of a plan, or None when its estimator has no wire name."""
    for name, cls in ESTIMATORS.items():
        if type(plan.estimator) is cls:
            return {"k": int(plan.k), "estimator": name}
    return None


def _plan_from_spec(spec: Mapping[str, Any] | None) -> SamplingPlan | None:
    """The plan a spec's ``k`` and ``estimator`` name (defaults 1 and
    ``"min"``), or None for an empty spec or an unknown estimator."""
    if not spec:
        return None
    estimator_cls = ESTIMATORS.get(spec.get("estimator", "min"))
    if estimator_cls is None:
        return None
    return SamplingPlan(int(spec.get("k", 1)), estimator_cls())


class ServerSession:
    """One named tuning session: tuner, sample ledger, measurement log.

    All mutating entry points take the session's own lock, so independent
    sessions on one server never contend with each other.
    """

    def __init__(
        self,
        tuner_factory: Callable[[ParameterSpace], BatchTuner],
        *,
        name: str = DEFAULT_SESSION,
        space: ParameterSpace | None = None,
        plan: SamplingPlan | None = None,
        reply_cache_size: int | None = None,
    ) -> None:
        self.name = name
        self._factory = tuner_factory
        self.space = space
        self._reply_cache_size = (
            _REPLY_CACHE if reply_cache_size is None else int(reply_cache_size)
        )
        if self._reply_cache_size < 1:
            raise ValueError(
                f"reply_cache_size must be >= 1, got {self._reply_cache_size}"
            )
        self.plan = plan if plan is not None else SamplingPlan()
        self.tuner: BatchTuner | None = None
        if space is not None:
            self.tuner = tuner_factory(space)
        #: set under the lock by ``export_session``: the session has been
        #: drained and shipped to another shard, so every later mutation
        #: must bounce the client back to the coordinator
        self.moved = False
        self._lock = threading.RLock()
        self._next_client = 0
        # active-batch state
        self._batch: list[np.ndarray] = []
        self._samples: list[list[float]] = []
        self._assigned: list[int] = []
        # measurement log: (step index, client_id) -> time, in first-report
        # order (one flat dict: a nested dict per step costs ~200 bytes)
        self._log: dict[tuple[int, int], float] = {}
        self.n_reports = 0
        # per-client exactly-once state: high-water mark + bounded reply
        # cache (cseq -> reply, oldest first), keyed by client id;
        # registration nonces map to client ids
        self._clients: dict[int, dict[str, Any]] = {}
        self._reg_nonces: dict[str, int] = {}
        #: WAL append callback installed by the hosting TuningServer
        #: (``None`` = not durable); called while the session lock is held
        #: so log order equals application order
        self._wal: Callable[[dict], None] | None = None

    # -- exactly-once bookkeeping -----------------------------------------------------

    def _append_wal(self, record: dict) -> None:
        if self._wal is not None:
            self._wal(record)

    def _check_moved(self) -> None:
        """Bounce mutations racing a live migration (caller holds the lock)."""
        if self.moved:
            raise SessionMovedAway(self.name)

    def _client_state(self, client_id: int) -> dict[str, Any]:
        state = self._clients.get(client_id)
        if state is None:
            state = self._clients[client_id] = {"hwm": -1, "cache": {}}
        return state

    def _dedupe(self, client_id: Any, cseq: Any) -> tuple[bool, Any]:
        """``(is_duplicate, cached_reply_or_None)`` for a stamped request.

        Unstamped requests (no ``cseq``, or no usable client id) are never
        duplicates.  A duplicate whose reply has been evicted from the
        bounded cache returns ``(True, None)``; callers answer it with a
        generic duplicate ACK (reports) or an error (fetches, which need
        the exact original assignment back).
        """
        if cseq is None or client_id is None or int(client_id) < 0:
            return False, None
        state = self._client_state(int(client_id))
        if int(cseq) <= state["hwm"]:
            return True, state["cache"].get(int(cseq))
        return False, None

    def _record_reply(self, client_id: Any, cseq: Any, reply: Any) -> None:
        if cseq is None or client_id is None or int(client_id) < 0:
            return
        state = self._client_state(int(client_id))
        state["hwm"] = max(state["hwm"], int(cseq))
        cache = state["cache"]
        cache[int(cseq)] = reply
        while len(cache) > self._reply_cache_size:
            del cache[next(iter(cache))]

    @staticmethod
    def _json_reply(cached: Any) -> dict[str, Any] | None:
        """The JSON response a cached reply stands for (None if it has none).

        Fetch replies are cached as ``("fetch", token, point_tuple)`` and
        rebuilt here, so a retry gets the same response the original did.
        """
        if cached is None:
            return None
        if cached[0] == "resp":
            return dict(cached[1])
        if cached[0] == "fetch":
            return {"ok": True, "point": list(cached[2]), "token": cached[1]}
        return None

    # -- operations -------------------------------------------------------------------

    def op_register(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Bind (or validate) the parameter space and hand out a client id.

        Registration is exactly-once: a client may stamp the message with a
        ``nonce`` (any string) — re-registering with a known nonce returns
        the already-assigned id instead of minting a new one, so a retry
        after a lost ACK (or a reconnect after a server restart recovered
        from its WAL) resumes the same identity.  ``resume: <client_id>``
        does the same by explicit id.  Only id-minting registrations are
        WAL-logged; resumptions don't mutate anything.
        """
        version = message.get("version")
        if version is not None and int(version) != PROTOCOL_VERSION:
            return error_response(
                f"protocol version {version} not supported "
                f"(server speaks {PROTOCOL_VERSION})"
            )
        with self._lock:
            self._check_moved()
            specs = message.get("params")
            if self.space is None:
                if not specs:
                    return error_response("no parameter specs and no preset space")
                self.space = space_from_spec(specs)
                self.tuner = self._factory(self.space)
            elif specs:
                # Validate that late registrants agree on the space.
                candidate = space_from_spec(specs)
                if candidate.names != self.space.names:
                    return error_response(
                        f"parameter mismatch: {candidate.names} vs {self.space.names}"
                    )
            nonce = message.get("nonce")
            if nonce is not None and nonce in self._reg_nonces:
                return {
                    "ok": True, "client_id": self._reg_nonces[nonce],
                    "version": PROTOCOL_VERSION, "resumed": True,
                }
            resume = message.get("resume")
            if resume is not None:
                client_id = int(resume)
                if not 0 <= client_id < self._next_client:
                    return error_response(
                        f"cannot resume unknown client {client_id}"
                    )
                return {
                    "ok": True, "client_id": client_id,
                    "version": PROTOCOL_VERSION, "resumed": True,
                }
            client_id = self._next_client
            self._next_client += 1
            if nonce is not None:
                self._reg_nonces[nonce] = client_id
            record = {"op": "register", "session": self.name}
            if specs:
                record["params"] = specs
            if nonce is not None:
                record["nonce"] = nonce
            self._append_wal({"t": "op", "m": record})
            return {"ok": True, "client_id": client_id, "version": PROTOCOL_VERSION}

    def _ensure_batch(self) -> None:
        """Pull the next candidate batch from the tuner when idle."""
        assert self.tuner is not None
        if self._batch or self.tuner.converged or self.tuner.has_pending:
            return
        batch = self.tuner.ask()
        self._batch = batch
        self._samples = [[] for _ in batch]
        self._assigned = [0 for _ in batch]

    def _assign(self, n: int) -> list[int]:
        """Charge *n* assignments; their tokens in order (-1 = incumbent).

        The one assignment rule of both wires: the least-loaded candidate
        (samples collected + in flight) still short of K, the first on
        ties; with none left (or the tuner converged) the client exploits
        the incumbent.  Caller holds the lock.
        """
        k = self.plan.k
        tokens = []
        for _ in range(n):
            self._ensure_batch()
            samples, assigned = self._samples, self._assigned
            best_idx, best_load = -1, k
            for i in range(len(samples)):
                load = len(samples[i]) + assigned[i]
                if load < best_load:
                    best_idx, best_load = i, load
            if best_idx >= 0:
                assigned[best_idx] += 1
            tokens.append(best_idx)
        return tokens

    def op_fetch(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Assign the next configuration (exploration or exploitation).

        A stamped fetch (``cseq``) is exactly-once: retrying it returns
        the *original* assignment from the reply cache, so a client that
        lost the response (connection drop, server restart) neither leaks
        an in-flight slot nor perturbs the assignment stream.
        """
        with self._lock:
            self._check_moved()
            if self.tuner is None:
                return error_response("no client has registered a space yet")
            client_id = message.get("client_id")
            cseq = message.get("cseq")
            duplicate, cached = self._dedupe(client_id, cseq)
            if duplicate:
                reply = self._json_reply(cached)
                if reply is not None:
                    return reply
                return error_response(
                    f"fetch cseq {cseq} was already applied but its reply "
                    "has been evicted from the cache"
                )
            (token,) = self._assign(1)
            point = self._batch[token] if token >= 0 else self.tuner.best_point
            coords = [float(x) for x in point]
            response = {"ok": True, "point": coords, "token": token}
            self._record_reply(client_id, cseq, ("fetch", token, tuple(coords)))
            record = {"op": "fetch", "session": self.name}
            if client_id is not None:
                record["client_id"] = int(client_id)
            if cseq is not None:
                record["cseq"] = int(cseq)
            self._append_wal({"t": "op", "m": record})
            return response

    def op_report(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Absorb one measurement; feed the tuner when the batch completes.

        A stamped report (``cseq``) at or below the client's high-water
        mark was already absorbed: it is ACKed as a duplicate without
        touching the tuner, the log, or the counters — retries after a
        lost ACK are exactly-once.
        """
        with self._lock:
            self._check_moved()
            if self.tuner is None:
                return error_response("no client has registered a space yet")
            client = int(message.get("client_id", -1))
            cseq = message.get("cseq")
            duplicate, cached = self._dedupe(client, cseq)
            if duplicate:
                reply = self._json_reply(cached)
                if reply is not None:
                    return reply
                return {"ok": True, "duplicate": True}
            token = int(message["token"])
            time = float(message["time"])
            if not np.isfinite(time) or time < 0:
                return error_response(f"invalid time {time!r}")
            step = int(message.get("step", -1))
            if step >= 0:
                self._log[step, client] = time
            self.n_reports += 1
            reply = _STALE_REPLY if self._absorb_one(token, time) else _ACK_REPLY
            self._record_reply(client, cseq, reply)
            record = {
                "op": "report", "session": self.name, "client_id": client,
                "token": token, "time": time, "step": step,
            }
            if cseq is not None:
                record["cseq"] = int(cseq)
            self._append_wal({"t": "op", "m": record})
            return dict(reply[1])

    # -- array-native batch operations (the binary wire fast path) --------------------

    def fetch_many_arrays(
        self, n: int, *, client_id: int = -1, cseq: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Assign *n* configurations as ``(points, tokens)`` arrays.

        The array-native face of :meth:`op_fetch`: one lock acquisition and
        zero per-message dicts, but the same :meth:`_assign` rule charged
        *n* times — a binary ``fetch_many`` frame and *n* JSON ``fetch``
        messages drive the tuner identically.  ``points`` is
        ``(n, dim)`` float64, ``tokens`` is ``(n,)`` int32 (-1 = incumbent).
        A stamped group (``cseq``) is exactly-once like :meth:`op_fetch`:
        the whole frame dedupes as one unit and a retry gets the original
        block back from the reply cache.
        """
        if n < 1:
            raise ValueError(f"fetch_many needs n >= 1, got {n}")
        with self._lock:
            self._check_moved()
            if self.tuner is None:
                raise LookupError("no client has registered a space yet")
            duplicate, cached = self._dedupe(client_id, cseq)
            if duplicate:
                if cached is not None and cached[0] == "points":
                    return cached[1], cached[2]
                raise LookupError(
                    f"fetch_many cseq {cseq} was already applied but its "
                    "reply has been evicted from the cache"
                )
            drawn = self._assign(n)
            # Assignments never complete a batch, so every row reads the
            # batch it was charged against (or the one incumbent).
            incumbent = self.tuner.best_point if -1 in drawn else None
            points = np.empty((n, self.space.dimension), dtype=np.float64)
            for j, token in enumerate(drawn):
                points[j] = self._batch[token] if token >= 0 else incumbent
            tokens = np.array(drawn, dtype=np.int32)
            self._record_reply(client_id, cseq, ("points", points, tokens))
            record: dict[str, Any] = {
                "t": "fetchm", "session": self.name,
                "client_id": int(client_id), "n": int(n),
            }
            if cseq is not None:
                record["cseq"] = int(cseq)
            self._append_wal(record)
            return points, tokens

    def report_many_arrays(
        self,
        tokens: np.ndarray,
        times: np.ndarray,
        *,
        client_id: int = -1,
        step: int = -1,
        cseq: int | None = None,
    ) -> tuple[int, int]:
        """Absorb paired token/time arrays; returns ``(n_ok, n_stale)``.

        Validation is vectorized and atomic: an invalid time anywhere in
        the group raises before *any* measurement is absorbed.  Absorption
        (:meth:`_absorb_reports`) is bit-identical to :meth:`_absorb_one`
        applied in order, mid-group batch completion included, so results
        are identical to the JSON path under paired seeding.  A stamped
        group (``cseq``) dedupes as one unit: a retried frame is ACKed with
        the original ``(n_ok, n_stale)`` without absorbing anything twice.
        """
        with self._lock:
            self._check_moved()
            if self.tuner is None:
                raise LookupError("no client has registered a space yet")
            duplicate, cached = self._dedupe(client_id, cseq)
            if duplicate:
                if cached is not None and cached[0] == "ack":
                    return cached[1], cached[2]
                return 0, 0
            times = np.asarray(times, dtype=float)
            tokens = np.asarray(tokens)
            if times.shape != tokens.shape or times.ndim != 1:
                raise ValueError(
                    f"got {times.shape} times for {tokens.shape} tokens"
                )
            finite = np.isfinite(times)
            if not finite.all() or bool((times < 0).any()):
                bad = times[~finite] if not finite.all() else times[times < 0]
                raise ValueError(f"invalid time {float(bad[0])!r}")
            client = int(client_id)
            if step >= 0 and times.size:
                # Same end state as op_report's per-message log writes:
                # one (step, client) cell, last measurement wins.
                self._log[step, client] = float(times[-1])
            self.n_reports += times.size
            n_stale = self._absorb_reports(tokens, times)
            n_ok = int(times.size) - n_stale
            self._record_reply(client_id, cseq, ("ack", n_ok, n_stale))
            record: dict[str, Any] = {
                "t": "reportm", "session": self.name,
                "client_id": int(client_id), "step": int(step),
                "tokens": [int(t) for t in tokens.tolist()],
                "times": times.tolist(),
            }
            if cseq is not None:
                record["cseq"] = int(cseq)
            self._append_wal(record)
            return n_ok, n_stale

    def _tell_batch(self) -> None:
        """Feed the completed batch to the tuner and clear the ledger."""
        estimates = [
            self.plan.combine(np.asarray(s, dtype=float))
            for s in self._samples
        ]
        self.tuner.tell(estimates)
        self._batch = []
        self._samples = []
        self._assigned = []

    def _absorb_one(self, token: int, t: float) -> bool:
        """Apply one measurement to the ledger; True when it is stale.

        The one absorption rule of both wires.  An incumbent token (-1)
        feeds nothing; a token past the batch is a late report for a batch
        that already completed (e.g. after a requeue raced a slow client).
        The sample that brings every candidate to K completes the batch.
        Caller holds the lock.
        """
        if token < 0:
            return False
        if token >= len(self._batch):
            return True
        self._assigned[token] = max(0, self._assigned[token] - 1)
        self._samples[token].append(t)
        if all(len(s) >= self.plan.k for s in self._samples):
            self._tell_batch()
        return False

    def _absorb_reports(self, tokens: np.ndarray, times: np.ndarray) -> int:
        """Vectorized absorption, bit-identical to :meth:`_absorb_one`
        applied to each measurement in order (the test suite's oracle).

        The ordered replay has exactly one structural event to find: the
        batch can complete *at most once* per group (completion clears
        ``_batch``, making every later non-negative token stale), and it
        completes at the position where the last still-deficient candidate
        receives its k-th sample.  Locating that position turns the
        per-report Python loop into a handful of array ops plus one
        bounded pass over the (small) candidate list.
        """
        tok = np.asarray(tokens, dtype=np.int64)
        valid = tok >= 0
        m = len(self._batch)
        if m == 0:
            return int(np.count_nonzero(valid))
        k = self.plan.k
        in_batch = valid & (tok < m)
        pos_in = np.flatnonzero(in_batch)
        if pos_in.size == 0:
            return int(np.count_nonzero(valid))
        tok_in = tok[pos_in]
        need = np.array(
            [max(0, k - len(s)) for s in self._samples], dtype=np.int64
        )
        deficient = np.flatnonzero(need)
        complete_at = -1
        if deficient.size == 0:
            # Already-satisfied batch (only reachable through a hand-built
            # restore): in-order replay completes on the first append.
            complete_at = int(pos_in[0])
        elif np.all(np.bincount(tok_in, minlength=m)[deficient]
                    >= need[deficient]):
            # Every deficient candidate is satisfied within this group: the
            # batch completes at the latest of their need-th arrivals.  A
            # stable sort groups each candidate's arrivals in order, so the
            # need-th one sits at a fixed offset from its group start.
            order = np.argsort(tok_in, kind="stable")
            uniq, starts = np.unique(tok_in[order], return_index=True)
            at = np.searchsorted(uniq, deficient)
            hits = starts[at] + need[deficient] - 1
            complete_at = int(pos_in[order[hits]].max())
        if complete_at < 0:
            absorb = in_batch
            n_stale = int(np.count_nonzero(valid & ~in_batch))
        else:
            prefix = np.arange(tok.size) <= complete_at
            absorb = in_batch & prefix
            n_stale = int(np.count_nonzero(valid & ~absorb))
        absorbed_tok = tok[absorb]
        # One stable sort groups the absorbed samples per candidate; slicing
        # the bulk-converted list is what keeps the per-candidate work O(1)
        # plus its own appends (a masked scan per candidate would be O(n·m)).
        order = np.argsort(absorbed_tok, kind="stable")
        grouped_times = np.asarray(times)[absorb][order].tolist()
        uniq, starts = np.unique(absorbed_tok[order], return_index=True)
        bounds = starts.tolist() + [len(grouped_times)]
        for i, c in enumerate(uniq.tolist()):
            lo, hi = bounds[i], bounds[i + 1]
            self._samples[c].extend(grouped_times[lo:hi])
            self._assigned[c] = max(0, self._assigned[c] - (hi - lo))
        if complete_at >= 0:
            self._tell_batch()
        return n_stale

    def op_best(self) -> dict[str, Any]:
        """The current incumbent configuration and its estimate."""
        with self._lock:
            if self.tuner is None:
                return error_response("no client has registered a space yet")
            return {
                "ok": True,
                "point": [float(x) for x in self.tuner.best_point],
                "value": float(self.tuner.best_value),
                "converged": self.tuner.converged,
            }

    def op_requeue(self) -> dict[str, Any]:
        """Clear in-flight assignment counts (crash recovery).

        If a client fetches an assignment and never reports (process died,
        network gone), the candidate's in-flight count would keep the batch
        from ever completing and every later fetch would fall through to
        exploitation.  ``requeue`` forgets the in-flight bookkeeping so the
        outstanding samples are handed out again; duplicate late reports
        remain harmless (they just add extra samples).
        """
        with self._lock:
            self._check_moved()
            requeued = sum(self._assigned)
            self._assigned = [0 for _ in self._assigned]
            self._append_wal({"t": "op", "m": {"op": "requeue", "session": self.name}})
            return {"ok": True, "requeued": requeued}

    def op_checkpoint(self) -> dict[str, Any]:
        """Snapshot the whole session (JSON-compatible).

        Includes the tuner's search state (for tuners that support
        ``to_dict``, like PRO), the in-flight batch's collected samples, and
        the measurement log — everything needed to survive a restart.
        In-flight *assignments* are deliberately dropped (a restart means
        the clients' fetches are void; they refetch after restore).
        """
        with self._lock:
            if self.tuner is None or self.space is None:
                return error_response("nothing to checkpoint yet")
            if not hasattr(self.tuner, "to_dict"):
                return error_response(
                    f"{type(self.tuner).__name__} does not support checkpointing"
                )
            from repro.space.serialize import space_to_spec

            snapshot = {
                "space": space_to_spec(self.space),
                "tuner": self.tuner.to_dict(),
                "batch": [[float(x) for x in p] for p in self._batch],
                "samples": [list(map(float, s)) for s in self._samples],
                "log": self._log_spec(),
                "n_reports": self.n_reports,
                "next_client": self._next_client,
            }
            return {"ok": True, "snapshot": snapshot}

    def op_restore(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Rebuild the session from an :meth:`op_checkpoint` snapshot."""
        snapshot = message.get("snapshot")
        if not isinstance(snapshot, Mapping):
            return error_response("restore needs a 'snapshot' mapping")
        with self._lock:
            space = space_from_spec(snapshot["space"])
            probe = self._factory(space)
            if not hasattr(type(probe), "from_dict"):
                return error_response(
                    f"{type(probe).__name__} does not support restore"
                )
            self.space = space
            self.tuner = type(probe).from_dict(space, snapshot["tuner"])
            self._batch = [np.asarray(p, dtype=float) for p in snapshot["batch"]]
            self._samples = [list(s) for s in snapshot["samples"]]
            self._assigned = [0 for _ in self._batch]
            self._log = self._log_from_spec(snapshot.get("log", {}))
            self.n_reports = int(snapshot.get("n_reports", 0))
            self._next_client = int(snapshot.get("next_client", 0))
            self._append_wal({
                "t": "op",
                "m": {
                    "op": "restore", "session": self.name,
                    "snapshot": {k: v for k, v in snapshot.items()},
                },
            })
            return {"ok": True}

    # -- WAL snapshot state -------------------------------------------------------

    def _log_spec(self) -> dict[str, dict[str, float]]:
        """The measurement log as ``{step: {client: time}}`` JSON.

        Steps, and clients within a step, come out in first-report order:
        key order is part of the snapshot and checkpoint format.
        """
        spec: dict[str, dict[str, float]] = {}
        for (step, client), t in self._log.items():
            spec.setdefault(str(step), {})[str(client)] = t
        return spec

    @staticmethod
    def _log_from_spec(
        spec: Mapping[str, Mapping[str, float]]
    ) -> dict[tuple[int, int], float]:
        return {
            (int(step), int(client)): float(t)
            for step, clients in spec.items()
            for client, t in clients.items()
        }

    def _serialize_reply(self, reply: Any) -> list:
        kind = reply[0]
        if kind in ("resp", "fetch"):
            return ["resp", self._json_reply(reply)]
        if kind == "points":
            return [
                "points",
                [[float(x) for x in p] for p in reply[1]],
                [int(t) for t in reply[2]],
            ]
        return ["ack", int(reply[1]), int(reply[2])]

    def _deserialize_reply(self, entry: list) -> Any:
        """The live cache form of a :meth:`_serialize_reply` entry."""
        kind = entry[0]
        if kind == "resp":
            body = entry[1]
            if "point" in body:
                return (
                    "fetch", int(body["token"]),
                    tuple(float(x) for x in body["point"]),
                )
            for shared in (_ACK_REPLY, _STALE_REPLY):
                if body == shared[1]:
                    return shared
            return ("resp", dict(body))
        if kind == "points":
            return (
                "points",
                np.asarray(entry[1], dtype=np.float64),
                np.asarray(entry[2], dtype=np.int32),
            )
        return ("ack", int(entry[1]), int(entry[2]))

    def can_snapshot(self) -> bool:
        """Whether :meth:`state_dict` would succeed (tuner checkpointable)."""
        with self._lock:
            return self.tuner is None or hasattr(self.tuner, "to_dict")

    def state_dict(self) -> dict[str, Any]:
        """Complete JSON-compatible session state for WAL snapshots.

        Unlike :meth:`op_checkpoint` (which deliberately drops in-flight
        assignments and client identity so an operator-driven restore starts
        clean), this captures *everything* — assignments, per-client
        exactly-once state, registration nonces, and the sampling plan — so
        a WAL replay that resumes from the snapshot is indistinguishable
        from one that replayed the full op history.
        """
        with self._lock:
            if self.tuner is not None and not hasattr(self.tuner, "to_dict"):
                raise TypeError(
                    f"{type(self.tuner).__name__} does not support checkpointing"
                )
            from repro.space.serialize import space_to_spec

            return {
                "space": space_to_spec(self.space) if self.space is not None else None,
                "tuner": self.tuner.to_dict() if self.tuner is not None else None,
                "plan": _plan_spec(self.plan),
                "batch": [[float(x) for x in p] for p in self._batch],
                "samples": [list(map(float, s)) for s in self._samples],
                "assigned": [int(a) for a in self._assigned],
                "log": self._log_spec(),
                "n_reports": self.n_reports,
                "next_client": self._next_client,
                "nonces": dict(self._reg_nonces),
                "clients": {
                    str(cid): {
                        "hwm": state["hwm"],
                        "cache": [
                            [cseq, self._serialize_reply(reply)]
                            for cseq, reply in state["cache"].items()
                        ],
                    }
                    for cid, state in self._clients.items()
                },
            }

    def restore_state(self, snapshot: Mapping[str, Any]) -> None:
        """Rebuild the full session from a :meth:`state_dict` snapshot."""
        with self._lock:
            plan = _plan_from_spec(snapshot.get("plan"))
            if plan is not None:
                self.plan = plan
            if snapshot.get("space") is not None:
                space = space_from_spec(snapshot["space"])
                self.space = space
                if snapshot.get("tuner") is not None:
                    probe = self._factory(space)
                    self.tuner = type(probe).from_dict(space, snapshot["tuner"])
                else:
                    self.tuner = self._factory(space)
            self._batch = [np.asarray(p, dtype=float) for p in snapshot["batch"]]
            self._samples = [list(s) for s in snapshot["samples"]]
            self._assigned = [int(a) for a in snapshot["assigned"]]
            self._log = self._log_from_spec(snapshot.get("log", {}))
            self.n_reports = int(snapshot.get("n_reports", 0))
            self._next_client = int(snapshot.get("next_client", 0))
            self._reg_nonces = {
                str(nonce): int(cid)
                for nonce, cid in snapshot.get("nonces", {}).items()
            }
            self._clients = {}
            for cid, state in snapshot.get("clients", {}).items():
                cache: dict[int, Any] = {}
                for cseq, entry in state["cache"]:
                    cache[int(cseq)] = self._deserialize_reply(entry)
                self._clients[int(cid)] = {"hwm": int(state["hwm"]), "cache": cache}

    def op_status(self) -> dict[str, Any]:
        """Progress counters for this session."""
        with self._lock:
            if self.tuner is None:
                return {"ok": True, "registered": False, "session": self.name}
            return {
                "ok": True,
                "session": self.name,
                "registered": True,
                "converged": self.tuner.converged,
                "n_evaluations": self.tuner.n_evaluations,
                "n_reports": self.n_reports,
                "outstanding": len(self._batch),
            }

    # -- server-side metric reconstruction -------------------------------------------

    def step_times(self) -> np.ndarray:
        """Per-step barrier times T_k = max over clients (Eq. 1).

        Only steps for which at least one client reported are included, in
        step order.
        """
        with self._lock:
            barrier: dict[int, float] = {}
            for (step, _client), t in self._log.items():
                barrier[step] = max(barrier.get(step, t), t)
            return np.array([barrier[s] for s in sorted(barrier)], dtype=float)

    def total_time(self) -> float:
        """Σ_k T_k over the reconstructed barrier times (Eq. 2)."""
        times = self.step_times()
        return float(times.sum()) if times.size else 0.0


class TuningServer:
    """Hosts named tuning sessions behind one dict-message protocol.

    Single-session use is unchanged from the original server: construct,
    ``handle`` messages without a ``session`` field, read ``tuner`` /
    ``n_reports`` / ``step_times()`` — they all address the built-in
    ``"default"`` session.  Multi-session use adds the ``open_session`` /
    ``close_session`` / ``list_sessions`` ops and a ``session`` field on
    every per-session message.

    Pass a :class:`~repro.obs.MetricsRegistry` as *metrics* to count
    requests per op, batch frames, and per-op handle latency (bounded
    reservoir), and a :class:`~repro.obs.Tracer` as *tracer* to emit
    ``server.request`` / ``server.batch`` / ``server.session`` events.
    Both default to off so the hot path stays lean.
    """

    def __init__(
        self,
        tuner_factory: Callable[[ParameterSpace], BatchTuner],
        *,
        space: ParameterSpace | None = None,
        plan: SamplingPlan | None = None,
        metrics: "Any | None" = None,
        tracer: "Any | None" = None,
        binproto: bool = True,
        reply_cache_size: int | None = None,
        service_delay_s: float = 0.0,
        admission: "Any | None" = None,
    ) -> None:
        self._factory = tuner_factory
        #: optional :class:`~repro.harmony.admission.AdmissionController`:
        #: when set, the transports price every frame in message units and
        #: answer work beyond the pending budget with ``busy`` +
        #: ``retry_after`` instead of queueing it (see
        #: :func:`repro.harmony.transport.respond_frames`).  Assignable
        #: after construction too (e.g. onto a WAL-recovered server).
        self.admission = admission
        #: per-client reply-cache bound handed to every session
        #: (None = the module default, ``_REPLY_CACHE``)
        self.reply_cache_size = reply_cache_size
        #: modeled per-frame service time (seconds).  When non-zero, every
        #: frame the transports dispatch holds the server-global service
        #: lock for this long (a GIL-releasing sleep), emulating a
        #: CPU-bound handler: one process serves at most 1/delay frames/s
        #: no matter how many connections it has, while *separate shard
        #: processes* overlap freely.  The fleet benchmark uses this to
        #: measure routing/aggregation scaling honestly on one box.
        self.service_delay_s = float(service_delay_s)
        self._service_lock = threading.Lock()
        #: advertise the binary wire format in register responses; clients
        #: only switch to binary frames after seeing the advertisement, so
        #: a server hosted behind a JSON-only transport sets this False
        self.binproto = bool(binproto)
        self._default_plan = plan if plan is not None else SamplingPlan()
        #: WAL writer attached via :meth:`attach_wal` (``None`` = not durable)
        self._wal: "Any | None" = None
        #: True while :func:`repro.harmony.wal.recover_server` replays the
        #: log: suppresses re-logging, metrics, and trace emission so
        #: recovery is invisible to observability and the WAL itself
        self._wal_replaying = False
        self._snapshot_lock = threading.Lock()
        self._wal_snapshot_blocked = False
        self._sessions: dict[str, ServerSession] = {}
        self._sessions_lock = threading.Lock()
        #: tombstones for sessions exported by live migration: any op still
        #: addressed here is answered with the *moved* envelope until the
        #: name is reopened or adopted back
        self._moved: set[str] = set()
        self.metrics = metrics
        self.tracer = tracer
        self._sessions[DEFAULT_SESSION] = self._new_session(
            DEFAULT_SESSION, space=space, plan=self._default_plan
        )

    def _new_session(
        self,
        name: str,
        *,
        space: ParameterSpace | None = None,
        plan: SamplingPlan | None = None,
    ) -> ServerSession:
        session = ServerSession(
            self._factory, name=name, space=space,
            plan=plan if plan is not None else self._default_plan,
            reply_cache_size=self.reply_cache_size,
        )
        session._wal = self.wal_append
        return session

    def model_service(self, n_frames: int = 1) -> None:
        """Model *n_frames* of service time under the server-global lock.

        Called by the transports once per dispatched wire frame when
        ``service_delay_s`` is non-zero; a no-op otherwise (the common
        case — one predictable branch).
        """
        if self.service_delay_s <= 0.0 or n_frames <= 0:
            return
        with self._service_lock:
            time.sleep(self.service_delay_s * n_frames)

    # -- single-session compatibility surface ------------------------------------

    @property
    def default_session(self) -> ServerSession:
        """The session addressed by messages without a ``session`` field."""
        return self._sessions[DEFAULT_SESSION]

    @property
    def space(self) -> ParameterSpace | None:
        """The default session's parameter space (None before register)."""
        return self.default_session.space

    @property
    def plan(self) -> SamplingPlan:
        """The default session's multi-sampling plan."""
        return self.default_session.plan

    @property
    def tuner(self) -> BatchTuner | None:
        """The default session's tuner (None before register)."""
        return self.default_session.tuner

    @property
    def n_reports(self) -> int:
        """Measurements absorbed by the default session."""
        return self.default_session.n_reports

    def step_times(self) -> np.ndarray:
        """The default session's reconstructed barrier times (Eq. 1)."""
        return self.default_session.step_times()

    def total_time(self) -> float:
        """The default session's Σ_k T_k (Eq. 2)."""
        return self.default_session.total_time()

    # -- session management -------------------------------------------------------

    def session(self, name: str) -> ServerSession | None:
        """Look up a session by name (None when absent)."""
        with self._sessions_lock:
            return self._sessions.get(name)

    def session_names(self) -> list[str]:
        """Currently open session names, sorted."""
        with self._sessions_lock:
            return sorted(self._sessions)

    def moved_sessions(self) -> list[str]:
        """Tombstoned (exported, not yet reopened) session names, sorted."""
        with self._sessions_lock:
            return sorted(self._moved)

    def load_report(self) -> dict[str, Any]:
        """Raw load snapshot for the fleet's heartbeat load reports.

        Cumulative counters, not rates: the :class:`~repro.fleet.shard`
        agent differences successive snapshots into EWMA rates so the
        coordinator's planner sees recent throughput, not lifetime totals.
        """
        with self._sessions_lock:
            sessions = dict(self._sessions)
        report: dict[str, Any] = {
            "sessions": len(sessions),
            "reports": {
                name: int(session.n_reports)
                for name, session in sessions.items()
            },
        }
        if self.admission is not None:
            report["pending"] = int(self.admission.pending)
        return report

    def _op_open_session(self, message: Mapping[str, Any]) -> dict[str, Any]:
        name = message.get("session")
        if not isinstance(name, str) or not name:
            return error_response("open_session needs a non-empty 'session' name")
        plan = self._default_plan
        named_plan = "k" in message or "estimator" in message
        if named_plan:
            plan = _plan_from_spec(message)
            if plan is None:
                return error_response(
                    f"unknown estimator {message['estimator']!r}; "
                    f"known: {sorted(ESTIMATORS)}"
                )
        space = None
        if message.get("params"):
            space = space_from_spec(message["params"])
        with self._sessions_lock:
            created = name not in self._sessions
            if created:
                self._sessions[name] = self._new_session(name, space=space, plan=plan)
                self._moved.discard(name)
        if created:
            record: dict[str, Any] = {"op": "open_session", "session": name}
            if named_plan:
                record.update(_plan_spec(plan))
            if message.get("params"):
                record["params"] = message["params"]
            self.wal_append({"t": "op", "m": record})
            self._emit("server.session", action="open", session=name)
        return {"ok": True, "session": name, "created": created}

    def _op_adopt_session(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Take over a migrated session: full ``state_dict`` state transfer.

        The fleet coordinator sends this when re-homing a dead shard's
        sessions onto this server: the state is everything the per-session
        WAL snapshot captures — tuner, in-flight batch, measurement log,
        and per-client exactly-once state (high-water marks, reply caches,
        registration nonces) — so clients of the dead shard resume here
        bit-identically, retries and all.  Adopting replaces any existing
        session of the same name (the coordinator owns placement; this
        server is not in a position to argue).  The record is WAL-logged
        whole, so a later recovery of *this* shard rebuilds the adopted
        session too.
        """
        name = message.get("session")
        if not isinstance(name, str) or not name:
            return error_response("adopt_session needs a non-empty 'session' name")
        state = message.get("state")
        if not isinstance(state, Mapping):
            return error_response("adopt_session needs a 'state' snapshot dict")
        session = self._new_session(name)
        try:
            session.restore_state(state)
        except Exception as exc:
            return error_response(
                f"could not restore adopted session {name!r}: "
                f"{type(exc).__name__}: {exc}"
            )
        with self._sessions_lock:
            self._sessions[name] = session
            self._moved.discard(name)
        self.wal_append({
            "t": "op",
            "m": {"op": "adopt_session", "session": name, "state": dict(state)},
        })
        self._emit("server.session", action="adopt", session=name)
        if self.metrics is not None and not self._wal_replaying:
            self.metrics.inc("server.adopted_sessions")
        return {"ok": True, "session": name, "adopted": True}

    def _op_export_session(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Quiesce and ship a session: the source half of live migration.

        The inverse of :meth:`_op_adopt_session`.  Under the session's own
        lock the session is marked *moved* (so any op that already holds a
        reference raises :class:`SessionMovedAway` instead of mutating
        post-export state) and its full ``state_dict`` is cut — in-flight
        batch, measurement log, per-client cseq high-water marks, reply
        caches, and registration nonces all travel.  The name is then
        tombstoned: later ops addressed here get the *moved* envelope until
        the coordinator's registry flip points clients at the new owner.
        """
        name = message.get("session")
        if not isinstance(name, str) or not name:
            return error_response("export_session needs a non-empty 'session' name")
        if name == DEFAULT_SESSION:
            return error_response("the default session cannot be exported")
        with self._sessions_lock:
            session = self._sessions.get(name)
        if session is None:
            return error_response(f"no such session {name!r}")
        if not session.can_snapshot():
            return error_response(
                f"session {name!r} does not support checkpointing; "
                "it cannot be exported"
            )
        with session._lock:
            session.moved = True
            state = session.state_dict()
        with self._sessions_lock:
            self._sessions.pop(name, None)
            self._moved.add(name)
        self.wal_append({
            "t": "op", "m": {"op": "export_session", "session": name},
        })
        self._emit("server.session", action="export", session=name)
        if self.metrics is not None and not self._wal_replaying:
            self.metrics.inc("server.exported_sessions")
        return {"ok": True, "session": name, "state": state}

    def _op_close_session(self, message: Mapping[str, Any]) -> dict[str, Any]:
        name = message.get("session")
        if name == DEFAULT_SESSION:
            return error_response("the default session cannot be closed")
        with self._sessions_lock:
            session = self._sessions.pop(name, None)
        if session is None:
            return error_response(f"no such session {name!r}")
        self.wal_append({"t": "op", "m": {"op": "close_session", "session": name}})
        self._emit("server.session", action="close", session=name)
        return {"ok": True, "session": name, "n_reports": session.n_reports}

    def _op_list_sessions(self) -> dict[str, Any]:
        with self._sessions_lock:
            sessions = dict(self._sessions)
        return {
            "ok": True,
            "sessions": {
                name: session.op_status() for name, session in sorted(sessions.items())
            },
        }

    def _op_metrics(self) -> dict[str, Any]:
        if self.metrics is None:
            return error_response("metrics collection is not enabled on this server")
        return {"ok": True, "metrics": self.metrics.snapshot()}

    # -- durability (write-ahead log) ---------------------------------------------

    def attach_wal(self, wal: "Any") -> None:
        """Make the server durable: every mutation appends to *wal*.

        *wal* is duck-typed (a :class:`repro.harmony.wal.WalWriter`): it
        needs ``append(record)``, ``commit()``, ``flush()``, ``close()``,
        and ``should_snapshot()``.  Sessions log through
        :meth:`wal_append`, transports group-commit through
        :meth:`commit_wal` before writing responses, so an acknowledged
        request is always on disk first.
        """
        self._wal = wal
        self._wal_snapshot_blocked = False

    def wal_append(self, record: dict) -> None:
        """Append one durability record (no-op when no WAL is attached).

        Called by sessions while they hold their own lock, so WAL order
        equals application order.  Suppressed during recovery replay —
        the records being replayed are already in the log.
        """
        if self._wal is None or self._wal_replaying:
            return
        self._wal.append(record)
        if self.metrics is not None:
            self.metrics.inc("wal.appends")
        self._emit("wal.append", t=str(record.get("t")), session=str(
            record.get("session") or record.get("m", {}).get("session", "")
        ))

    def commit_wal(self) -> None:
        """Group-commit point: make everything appended so far durable.

        Transports call this once per received chunk *before* writing any
        response bytes back, which is what makes an ACK imply durability
        under ``sync='batch'`` with only one fsync per chunk.
        """
        if self._wal is None or self._wal_replaying:
            return
        self._wal.commit()
        self.maybe_snapshot_wal()

    def flush_wal(self) -> None:
        """Flush + fsync pending appends (transport stop / shutdown path)."""
        if self._wal is not None:
            self._wal.flush()

    def close_wal(self) -> None:
        """Flush and close the WAL (server teardown)."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def maybe_snapshot_wal(self) -> bool:
        """Snapshot + truncate when the log has grown past its threshold."""
        if (
            self._wal is None
            or self._wal_snapshot_blocked
            or not self._wal.should_snapshot()
        ):
            return False
        return self.snapshot_wal()

    def snapshot_wal(self) -> bool:
        """Write a full-state snapshot record and drop older segments.

        Holds the sessions lock *and* every session's lock for the whole
        build-and-write so no op record can land between the state cut
        and the snapshot record (which would be discarded on replay).
        Returns False (and stops retrying) when any session's tuner does
        not support checkpointing.
        """
        from contextlib import ExitStack

        if self._wal is None:
            return False
        with self._snapshot_lock:
            if self._wal is None:
                return False
            with ExitStack() as stack:
                stack.enter_context(self._sessions_lock)
                sessions = dict(self._sessions)
                for session in sessions.values():
                    stack.enter_context(session._lock)
                try:
                    state = {
                        name: session.state_dict()
                        for name, session in sessions.items()
                    }
                except TypeError:
                    self._wal_snapshot_blocked = True
                    return False
                if self._moved:
                    state["__moved__"] = sorted(self._moved)
                self._wal.snapshot(state)
        if self.metrics is not None:
            self.metrics.inc("wal.snapshots")
        self._emit("wal.snapshot", sessions=len(state))
        return True

    def state_dict(self) -> dict[str, Any]:
        """Full multi-session state (what a WAL snapshot record carries).

        Migration tombstones travel under the reserved ``"__moved__"`` key
        (session names may not start with that spelling in practice; the
        restore side pops it before iterating sessions) so a recovered
        shard keeps answering *moved* for sessions it exported.
        """
        with self._sessions_lock:
            sessions = dict(self._sessions)
            moved = sorted(self._moved)
        state: dict[str, Any] = {
            name: session.state_dict() for name, session in sessions.items()
        }
        if moved:
            state["__moved__"] = moved
        return state

    def restore_state(self, state: Mapping[str, Any]) -> None:
        """Rebuild every session from a :meth:`state_dict` snapshot."""
        state = dict(state)
        moved = state.pop("__moved__", ())
        with self._sessions_lock:
            self._moved.update(str(name) for name in moved)
            for name, snapshot in state.items():
                session = self._sessions.get(name)
                if session is None:
                    session = self._new_session(name)
                    self._sessions[name] = session
                self._moved.discard(name)
                session.restore_state(snapshot)

    def apply_wal_record(self, record: Mapping[str, Any]) -> None:
        """Re-apply one logged mutation during recovery replay.

        ``op`` records route through :meth:`handle` (the ordinary code
        path, so replay exercises exactly the logic that produced the
        log); ``fetchm`` / ``reportm`` records route through the
        array-native session methods the binary wire uses.
        """
        kind = record.get("t")
        if kind == "op":
            self.handle(record["m"])
            return
        name = record.get("session", DEFAULT_SESSION)
        session = self.session(name)
        if session is None:
            return
        if kind == "fetchm":
            session.fetch_many_arrays(
                int(record["n"]),
                client_id=int(record.get("client_id", -1)),
                cseq=record.get("cseq"),
            )
        elif kind == "reportm":
            session.report_many_arrays(
                np.asarray(record["tokens"], dtype=np.int32),
                np.asarray(record["times"], dtype=np.float64),
                client_id=int(record.get("client_id", -1)),
                step=int(record["step"]),
                cseq=record.get("cseq"),
            )

    # -- observability ------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        if self.tracer is not None and not self._wal_replaying:
            self.tracer.emit(kind, **fields)

    def observe_batch(self, n_msgs: int) -> None:
        """Record one batch frame (called by the transports' dispatcher)."""
        if self.metrics is not None:
            self.metrics.inc("server.batch_frames")
            self.metrics.inc("server.batch_msgs", n_msgs)
        self._emit("server.batch", n_msgs=n_msgs)

    def observe_shed(self, n_msgs: int) -> None:
        """Count *n_msgs* message units refused by admission control.

        Called by the transports once per shed chunk; surfaces through
        the metrics registry (and thus the Prometheus endpoint) as
        ``server.shed_msgs`` / ``server.shed_events`` counters plus a
        ``server.admission_pending`` gauge.
        """
        if self.metrics is not None:
            self.metrics.inc("server.shed_msgs", n_msgs)
            self.metrics.inc("server.shed_events")
            if self.admission is not None:
                self.metrics.gauge(
                    "server.admission_pending", self.admission.pending
                )

    def observe_binary(self, op: str, n_msgs: int) -> None:
        """Record one binary frame (called by binproto's dispatcher)."""
        if self.metrics is not None:
            self.metrics.inc("server.bin_frames")
            self.metrics.inc("server.bin_msgs", n_msgs)
            self.metrics.inc(f"server.op.{op}", n_msgs)
        self._emit("server.batch", n_msgs=n_msgs, wire="binary")

    # -- protocol entry point ------------------------------------------------------

    _SERVER_OPS = frozenset({
        "open_session", "close_session", "list_sessions", "metrics",
        "adopt_session", "export_session",
    })

    def handle(self, message: Mapping[str, Any]) -> dict[str, Any]:
        """Process one protocol message and return the response dict."""
        op = None
        t0 = time.perf_counter() if self.metrics is not None else 0.0
        try:
            op = message.get("op")
            response = self._route(op, message)
        except SessionMovedAway as exc:
            response = moved_response(exc.session)
        except Exception as exc:  # protocol boundary: never let the server die
            response = error_response(f"{type(exc).__name__}: {exc}")
        if self._wal_replaying:
            # Recovery replay re-enters handle(); the original requests
            # already counted when they first ran.
            return response
        if self.metrics is not None:
            self.metrics.inc("server.requests")
            self.metrics.inc(f"server.op.{op}")
            if not response.get("ok", False):
                self.metrics.inc("server.errors")
            self.metrics.observe("server.handle_s", time.perf_counter() - t0)
            self.metrics.gauge("server.sessions", len(self._sessions))
        if self.tracer is not None:
            self._emit(
                "server.request",
                op=str(op),
                session=str(message.get("session", DEFAULT_SESSION)),
                ok=bool(response.get("ok", False)),
            )
        return response

    def _route(self, op: Any, message: Mapping[str, Any]) -> dict[str, Any]:
        if op == "open_session":
            return self._op_open_session(message)
        if op == "close_session":
            return self._op_close_session(message)
        if op == "adopt_session":
            return self._op_adopt_session(message)
        if op == "export_session":
            return self._op_export_session(message)
        if op == "list_sessions":
            return self._op_list_sessions()
        if op == "metrics":
            return self._op_metrics()
        name = message.get("session", DEFAULT_SESSION)
        with self._sessions_lock:
            session = self._sessions.get(name)
            if session is None and name in self._moved:
                return moved_response(name)
        if session is None:
            return error_response(
                f"no such session {name!r}; open it with op 'open_session'"
            )
        if op == "register":
            response = session.op_register(message)
            if response.get("ok", False) and self.binproto:
                # The negotiation half of the binary wire format: clients
                # only send binary frames after seeing this advertisement.
                from repro.harmony.binproto import BINPROTO_VERSION

                response["binproto"] = BINPROTO_VERSION
            return response
        if op == "fetch":
            return session.op_fetch(message)
        if op == "report":
            return session.op_report(message)
        if op == "best":
            return session.op_best()
        if op == "status":
            return session.op_status()
        if op == "requeue":
            return session.op_requeue()
        if op == "checkpoint":
            return session.op_checkpoint()
        if op == "restore":
            return session.op_restore(message)
        return error_response(f"unknown op {op!r}")
