"""The event-horizon kernel must be bit-identical to the per-event heap.

:class:`PriorityMachine`'s batched kernel replays the scalar heap loop's
exact arithmetic over horizon-merged blocks, so every float it produces —
clocks, backlogs, iteration times, barrier times — must equal the heap
oracle's output (``tests/oracles.py``) *bitwise*, not approximately.  The
adversarial cases here pin the two subtle orderings the merge has to
reproduce:

* **heap tie-breaks** — equal-time events from distinct streams pop in
  least-recently-popped stream order, one event per turn (each heap pop
  re-pushes that stream's next event with a fresh counter), which matters
  because float addition is not associative;
* **RNG block-draw order** — multiple private sources share one node
  generator, so the order in which exhausted streams draw their next
  block determines every subsequent random number.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Cluster,
    ExponentialService,
    FixedService,
    ParetoService,
    PeriodicDaemon,
    PoissonArrivals,
)
from repro.cluster.machine import PriorityMachine
from tests.oracles import HeapCluster, HeapMachine


def _paired_machines(make_sources, seed=7, **kwargs):
    scalar = HeapMachine(make_sources(), rng=np.random.default_rng(seed), **kwargs)
    batched = PriorityMachine(
        make_sources(), rng=np.random.default_rng(seed), **kwargs
    )
    return scalar, batched


def _drive(machine, rng, steps=400, work=(0.01, 0.5), wait=(0.0, 0.4)):
    """A mixed serve/advance schedule; returns every observable float."""
    out = []
    t = 0.0
    for step in range(steps):
        if step % 3 == 2:
            t = machine.clock + float(rng.uniform(*wait))
            machine.advance_to(t)
        else:
            out.append(machine.serve_application(float(rng.uniform(*work))))
        out.extend((machine.clock, machine.backlog, machine.p1_service_done))
    return out


CASES = {
    # No event streams: pure arithmetic, nothing to merge.
    "streamless": lambda: [],
    "single_poisson": lambda: [PoissonArrivals(5.0, ExponentialService(0.05))],
    "poisson_plus_daemon": lambda: [
        PoissonArrivals(3.0, ParetoService(1.8, 0.01)),
        PeriodicDaemon(0.25, ExponentialService(0.02)),
    ],
    # Two identical daemon lattices: every event time collides with the
    # other stream's, so the whole run is one long heap tie-break.
    "identical_daemon_lattices": lambda: [
        PeriodicDaemon(0.2, FixedService(0.01)),
        PeriodicDaemon(0.2, FixedService(0.02)),
    ],
    # Two sources sharing one generator: block-draw order is everything.
    "two_poisson_shared_gen": lambda: [
        PoissonArrivals(4.0, ExponentialService(0.03)),
        PoissonArrivals(1.5, ExponentialService(0.08)),
    ],
    "three_mixed_sources": lambda: [
        PoissonArrivals(2.0, ExponentialService(0.04)),
        PeriodicDaemon(0.31, ParetoService(2.0, 0.005), phase=0.1),
        PoissonArrivals(0.7, FixedService(0.05)),
    ],
}


class TestMachineBitIdentity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_serve_advance_schedule(self, case):
        scalar, batched = _paired_machines(CASES[case])
        a = _drive(scalar, np.random.default_rng(1234))
        b = _drive(batched, np.random.default_rng(1234))
        # Bitwise equality — approximate closeness would hide ordering bugs.
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_streamless_machines_agree(self):
        scalar, batched = _paired_machines(lambda: [])
        for work in (0.5, 1.25, 0.0625):
            assert scalar.serve_application(work) == batched.serve_application(work)
        scalar.advance_to(10.0)
        batched.advance_to(10.0)
        assert scalar.clock == batched.clock

    def test_shared_streams_bit_identical(self):
        def build(machine):
            daemon = PeriodicDaemon(0.4, ExponentialService(0.03))
            return machine(
                [PoissonArrivals(2.0, ExponentialService(0.05))],
                rng=np.random.default_rng(3),
                shared_streams=[
                    daemon.stream_blocks(0.0, np.random.default_rng(99))
                ],
                shared_load=daemon.load,
            )

        a = _drive(build(HeapMachine), np.random.default_rng(5))
        b = _drive(build(PriorityMachine), np.random.default_rng(5))
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestMergeTieBookkeeping:
    """Integer daemon lattices under a fast Poisson stream.

    The lattices collide on whole seconds, and a 256-event Poisson block
    spans a few seconds at these rates, so some horizon merges carry ties
    (replayed by ``_heap_order``) and others carry none (last-pop numbers
    set in bulk).  A merge of either kind must leave the last-pop numbers
    the next one's tie-break reads.  Every source shares the node
    generator, so a tie popped out of order also reorders later draws.
    """

    @given(
        daemons=st.lists(
            st.tuples(
                st.integers(1, 6), st.integers(0, 5), st.sampled_from([0.01, 0.03])
            ),
            min_size=1,
            max_size=3,
        ),
        rate=st.sampled_from([40.0, 100.0, 150.0]),
        shared=st.none() | st.tuples(st.integers(1, 6), st.integers(0, 5)),
        seed=st.integers(0, 2**16),
        steps=st.integers(30, 300),
    )
    @example(
        daemons=[(3, 2, 0.03), (5, 1, 0.03), (4, 1, 0.03)],
        rate=100.0,
        shared=None,
        seed=917,
        steps=900,
    )
    @settings(max_examples=40, deadline=None)
    def test_kernels_agree_bitwise(self, daemons, rate, shared, seed, steps):
        def build(machine):
            sources = [
                PeriodicDaemon(period, ExponentialService(mean), phase=phase)
                for period, phase, mean in daemons
            ]
            sources.append(PoissonArrivals(rate, ExponentialService(0.0005)))
            streams, load = [], 0.0
            if shared is not None:
                daemon = PeriodicDaemon(
                    shared[0], ExponentialService(0.02), phase=shared[1]
                )
                streams = [daemon.stream_blocks(0.0, np.random.default_rng(seed + 1))]
                load = daemon.load
            return machine(
                sources, rng=np.random.default_rng(seed), shared_streams=streams,
                shared_load=load,
            )

        def run(machine):
            return _drive(
                build(machine), np.random.default_rng(seed), steps=steps,
                work=(0.01, 0.6), wait=(0.0, 0.6),
            )

        assert (
            np.asarray(run(HeapMachine)).tobytes()
            == np.asarray(run(PriorityMachine)).tobytes()
        )


class TestClusterBitIdentity:
    @pytest.mark.parametrize("seed", [0, 11, 202])
    def test_private_and_shared_sources(self, seed):
        def run(cluster_class):
            cluster = cluster_class(
                4,
                private_sources=[
                    PoissonArrivals(3.0, ExponentialService(0.04)),
                    PeriodicDaemon(0.5, ParetoService(1.9, 0.01)),
                ],
                shared_sources=[PeriodicDaemon(1.0, ExponentialService(0.1))],
                seed=seed,
            )
            return cluster.run(1.0, 120)

        a = run(HeapCluster)
        b = run(Cluster)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.barrier_times.tobytes() == b.barrier_times.tobytes()

    def test_streamless_cluster(self):
        # No sources: the iteration times are the work alone, divided by
        # the node's speed, and the barrier is the slowest node.
        def run(cluster_class):
            cluster = cluster_class(
                8, speed_factors=[1.0, 0.5, 2.0, 0.75, 1.25, 3.0, 0.3, 1.1],
                seed=5,
            )
            return cluster.run(lambda p, k: 0.1 + 0.01 * ((p * 7 + k * 3) % 11), 50)

        a = run(HeapCluster)
        b = run(Cluster)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.barrier_times.tobytes() == b.barrier_times.tobytes()

    def test_the_oracle_cluster_runs_heap_nodes(self):
        # Guards the comparisons above against running one kernel twice.
        cluster = HeapCluster(
            2, private_sources=[PoissonArrivals(1.0, ExponentialService(0.1))],
            seed=0,
        )
        assert all(type(node) is HeapMachine for node in cluster.nodes)
        assert all(type(node) is PriorityMachine for node in Cluster(2, seed=0).nodes)
