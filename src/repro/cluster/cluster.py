"""A P-node barrier-synchronized SPMD cluster.

Each node is a :class:`~repro.cluster.machine.PriorityMachine`.  The cluster
runs the application's iterative loop: every iteration, each node serves its
local application work; all nodes then wait at a barrier for the slowest
(``T_k = max_p t_{p,k}``, Eq. 1) before the next iteration starts.  During
the barrier wait a node's first-priority backlog keeps draining, exactly as
on a real machine.

Two kinds of disruption sources are supported:

* **private sources** — independent per node (each node gets its own child
  RNG stream, so nodes are statistically independent);
* **shared sources** — one event sequence replayed identically on every node
  (global file-system scans, cluster-wide daemons), which produces the
  cross-processor correlation the paper observes in Fig. 3.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro._util import as_generator, check_nonnegative, spawn_generators
from repro.cluster.machine import PriorityMachine
from repro.cluster.trace import ClusterTrace
from repro.cluster.workload import WorkloadSource

__all__ = ["Cluster"]

#: per-iteration cost specification: a scalar, a per-node array, or a
#: callable ``cost(p, k) -> float``.
CostSpec = float | Sequence[float] | Callable[[int, int], float]


class Cluster:
    """A barrier-synchronized collection of strict-priority nodes."""

    #: the node class; :meth:`run` drives its ``_serve`` and ``_advance``
    machine_class: type[PriorityMachine] = PriorityMachine

    def __init__(
        self,
        n_nodes: int,
        *,
        private_sources: Sequence[WorkloadSource] = (),
        shared_sources: Sequence[WorkloadSource] = (),
        speed_factors: Sequence[float] | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"need at least one node, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        if speed_factors is None:
            self.speed_factors = np.ones(n_nodes)
        else:
            self.speed_factors = np.asarray(speed_factors, dtype=float)
            if self.speed_factors.shape != (n_nodes,):
                raise ValueError(
                    f"speed_factors must have shape ({n_nodes},), "
                    f"got {self.speed_factors.shape}"
                )
            if np.any(self.speed_factors <= 0):
                raise ValueError("speed factors must be positive")
        self._private_sources = tuple(private_sources)
        self._shared_sources = tuple(shared_sources)
        # every trace's meta names the sources; render them once
        self._private_reprs = [repr(s) for s in self._private_sources]
        self._shared_reprs = [repr(s) for s in self._shared_sources]
        master = as_generator(seed)
        # One child stream per node, plus one entropy draw for the shared
        # sequences.  Each shared source gets its own SeedSequence child
        # (sequential integer seeds risk correlated streams); re-seeding
        # from the same child per node keeps the "identical on every node"
        # replay property.
        children = spawn_generators(master, n_nodes)
        shared_entropy = int(master.integers(0, 2**63 - 1))
        self._shared_seedseqs = np.random.SeedSequence(shared_entropy).spawn(
            len(self._shared_sources)
        )
        shared_load = float(sum(s.load for s in self._shared_sources))
        #: the last barrier, where every node's clock is parked between runs
        self.barrier = 0.0
        self.nodes: list[PriorityMachine] = []
        for p in range(n_nodes):
            # Every node replays the *same* shared event sequence: identical
            # seed, identical stream -> perfectly correlated disruptions.
            shared_streams = [
                src.stream_blocks(0.0, np.random.default_rng(self._shared_seedseqs[i]))
                for i, src in enumerate(self._shared_sources)
            ]
            self.nodes.append(
                self.machine_class(
                    self._private_sources,
                    children[p],
                    shared_streams=shared_streams,
                    shared_load=shared_load,
                )
            )

    @property
    def rho(self) -> float:
        """Idle throughput of one node (all nodes are identically loaded)."""
        return self.nodes[0].rho

    def run(self, costs: CostSpec, n_iterations: int) -> ClusterTrace:
        """Run *n_iterations* barrier-synchronized iterations.

        Node clocks carry over between calls, so a call continues from the
        barrier the previous one left: two calls of one iteration each
        observe exactly the two columns of one call of two.

        Parameters
        ----------
        costs:
            Noise-free per-iteration application work: a scalar (SPMD, all
            nodes equal), a per-node array, or ``cost(p, k)``.

        Every iteration's work is priced and checked before any node moves,
        so a NaN or negative cost raises with the cluster untouched.  That
        one check covers the whole run: the nodes are then driven through
        their kernel's unchecked loops, since each barrier is the latest
        finish time and no node is asked to go backwards.
        """
        if n_iterations < 1:
            raise ValueError(f"need at least one iteration, got {n_iterations}")
        if callable(costs):
            # one row per iteration, priced in run order
            works = np.array(
                [[costs(p, k) for p in range(self.n_nodes)]
                 for k in range(n_iterations)],
                dtype=float,
            )
        else:
            # Static cost specs (scalar / per-node array) are
            # iteration-invariant: one row serves every iteration.
            arr = np.asarray(costs, dtype=float)
            if arr.ndim == 0:
                arr = np.full(self.n_nodes, float(arr))
            elif arr.shape != (self.n_nodes,):
                raise ValueError(
                    f"per-node cost array must have shape ({self.n_nodes},), "
                    f"got {arr.shape}"
                )
            works = arr[np.newaxis, :]
        # Slower nodes (speed < 1) take proportionally longer for the same
        # application work — heterogeneity makes Eq. 1's max barrier bite
        # even without noise.
        works = works / self.speed_factors
        bad = ~(np.isfinite(works) & (works >= 0.0))
        if bad.any():
            # the message serve_application gives for the first bad work
            check_nonnegative("work", float(works.flat[int(np.argmax(bad))]))
        times = np.empty((self.n_nodes, n_iterations), dtype=float)
        barriers = np.empty(n_iterations, dtype=float)
        nodes = self.nodes
        serve, advance = self.machine_class._serve, self.machine_class._advance
        rows = works.tolist()
        barrier = self.barrier
        for k in range(n_iterations):
            row = rows[k % len(rows)]  # a static spec has one row for all
            finishes = [serve(node, work) for node, work in zip(nodes, row)]
            times[:, k] = np.subtract(finishes, barrier)
            barrier = max(finishes)
            barriers[k] = barrier
            for node in nodes:
                advance(node, barrier)
        self.barrier = barrier
        return ClusterTrace(
            times=times,
            barrier_times=barriers,
            rho=self.rho,
            meta={
                "n_nodes": self.n_nodes,
                "private_sources": list(self._private_reprs),
                "shared_sources": list(self._shared_reprs),
            },
        )
