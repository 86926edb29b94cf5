"""Active Harmony-style online tuning infrastructure.

The paper's setting: the application is *running in production* while being
tuned; every candidate configuration is evaluated by actually executing an
application time step with it, and the figure of merit is the total
wall-clock time of the whole run (Eqs. 1–2), not the final configuration.

* :mod:`repro.harmony.evaluator` — how a batch of candidates turns into
  observed times (pure function + noise model, the paper's GS2 database, or
  the event-driven cluster simulator);
* :mod:`repro.harmony.metrics` — Total_Time / NTT records;
* :mod:`repro.harmony.session` — the online loop: maps tuner batches onto P
  processors, charges one time step per wave, takes K samples per point and
  reduces them with the chosen estimator;
* :mod:`repro.harmony.server` / :mod:`repro.harmony.client` /
  :mod:`repro.harmony.transport` / :mod:`repro.harmony.aio` — a
  client/server tuning service in the Active Harmony mould (register
  tunables, fetch assignments, report measurements) hosting many named
  sessions, served by one asyncio TCP server and reached through an
  in-process or a lock-step TCP client transport
  (:mod:`repro.harmony.protocol` owns the JSON-lines wire format and
  :mod:`repro.harmony.binproto` the negotiated binary fast path the
  server sniffs on the same port);
* :mod:`repro.harmony.wal` — the durability layer: a CRC-framed
  write-ahead log every state mutation appends to, with group commit,
  segment rotation, snapshot+truncate, and :func:`recover_server` to
  rebuild a killed server by replay (clients reconnect and resume via
  cseq-stamped exactly-once requests).
"""

from repro.harmony.evaluator import (
    ClusterEvaluator,
    DatabaseEvaluator,
    Evaluator,
    FunctionEvaluator,
)
from repro.harmony.metrics import SessionResult, StepKind
from repro.harmony.session import TuningSession
from repro.harmony.server import ServerSession, TuningServer
from repro.harmony.client import ServerRedirect, TuningClient
from repro.harmony.protocol import MAX_LINE_BYTES, PROTOCOL_VERSION
from repro.harmony.binproto import BINPROTO_VERSION
from repro.harmony.transport import InProcessTransport, TcpClientTransport
from repro.harmony.aio import AsyncTcpServerTransport
from repro.harmony.wal import WalWriter, recover_server, replay_dir
from repro.harmony.warmstart import warm_start_points, warm_started_pro

__all__ = [
    "Evaluator",
    "FunctionEvaluator",
    "DatabaseEvaluator",
    "ClusterEvaluator",
    "SessionResult",
    "StepKind",
    "TuningSession",
    "TuningServer",
    "ServerSession",
    "ServerRedirect",
    "TuningClient",
    "InProcessTransport",
    "TcpClientTransport",
    "AsyncTcpServerTransport",
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "BINPROTO_VERSION",
    "WalWriter",
    "recover_server",
    "replay_dir",
    "warm_start_points",
    "warm_started_pro",
]
