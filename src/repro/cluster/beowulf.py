"""The Beowulf cluster: 16 workstation nodes, two Ethernets, PVM.

:class:`BeowulfCluster` assembles the full platform of the study and is the
entry point experiments use: it builds the nodes, lets application factories
spawn one task per node, and gathers the per-node driver traces into one
structured array for analysis.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.cluster.network import EthernetNetwork
from repro.cluster.pvm import Mailbox, PVM
from repro.driver import TRACE_DTYPE
from repro.kernel import NodeKernel, NodeParams
from repro.sim import Process, RandomStreams, Simulator


class ClusterNode:
    """One workstation: kernel + PVM mailbox."""

    def __init__(self, sim: Simulator, node_id: int, params: NodeParams,
                 streams: RandomStreams, pvm: PVM,
                 housekeeping: bool = True,
                 housekeeping_message_rate: float = 3.0,
                 obs=None, node_config=None):
        self.node_id = node_id
        self.kernel = NodeKernel(
            sim, params=params, streams=streams.spawn(f"node{node_id}"),
            node_id=node_id, housekeeping=housekeeping,
            housekeeping_message_rate=housekeeping_message_rate,
            obs=obs, node_config=node_config)
        self.mailbox: Mailbox = pvm.register(node_id)
        self.pvm = pvm

    def trace_array(self) -> np.ndarray:
        return self.kernel.trace_array()


class BeowulfCluster:
    """The 16-node prototype (node count and parameters configurable).

    Construction resolves, in precedence order: explicit keyword
    arguments, then the fields of ``scenario`` (a
    :class:`~repro.config.Scenario`), then the historical defaults
    (16 nodes, seed 0, housekeeping on at 3 msg/s).
    """

    def __init__(self, sim: Simulator, nnodes: Optional[int] = None,
                 params: Optional[NodeParams] = None,
                 seed: Optional[int] = None,
                 housekeeping: Optional[bool] = None,
                 housekeeping_message_rate: Optional[float] = None,
                 obs=None, scenario=None):
        node_config = None
        if scenario is not None:
            cluster_cfg = scenario.cluster
            nnodes = cluster_cfg.nnodes if nnodes is None else nnodes
            seed = scenario.seed if seed is None else seed
            if housekeeping is None:
                housekeeping = cluster_cfg.housekeeping
            if housekeeping_message_rate is None:
                housekeeping_message_rate = \
                    cluster_cfg.housekeeping_message_rate
            node_config = scenario.node
            if params is None:
                params = node_config.to_node_params()
        nnodes = 16 if nnodes is None else nnodes
        seed = 0 if seed is None else seed
        housekeeping = True if housekeeping is None else housekeeping
        if housekeeping_message_rate is None:
            housekeeping_message_rate = 3.0
        if nnodes < 1:
            raise ValueError("cluster needs at least one node")
        self.sim = sim
        self.scenario = scenario
        self.params = params or NodeParams()
        streams = RandomStreams(seed=seed)
        #: the cluster-wide stream registry (checkpoint state surface)
        self.streams = streams
        if scenario is not None:
            self.network = scenario.network.build(
                sim, rng=streams.stream("ethernet"), obs=obs)
        else:
            self.network = EthernetNetwork(
                sim, rng=streams.stream("ethernet"), obs=obs)
        self.pvm = PVM(sim, self.network)
        #: the parallel file service, once :meth:`make_pious` built it
        self.pious = None
        self.nodes: List[ClusterNode] = []
        for node_id in range(nnodes):
            node_params, per_node_config = self._node_stack_for(
                node_id, node_config)
            self.nodes.append(ClusterNode(
                sim, node_id, node_params, streams, self.pvm,
                housekeeping=housekeeping,
                housekeeping_message_rate=housekeeping_message_rate,
                obs=obs, node_config=per_node_config))

    def _node_stack_for(self, node_id: int, node_config):
        """Per-node (params, config): the scenario's ``node_overrides``
        may give individual nodes (one slow disk among sixteen) their
        own stack — both the disk members and the kernel tunables."""
        if self.scenario is not None \
                and str(node_id) in self.scenario.node_overrides:
            cfg = self.scenario.node_config_for(node_id)
            return cfg.to_node_params(), cfg
        return self.params, node_config

    def make_pious(self, storage_dir: str = "/pious"):
        """Build the PIOUS parallel file service from the scenario.

        Stripe unit and data-server placement come from
        ``scenario.pious`` (every node serves under the defaults); the
        service is kept on ``self.pious`` so observability can harvest
        its counters.
        """
        from repro.cluster.pious import PIOUS
        cfg = self.scenario.pious if self.scenario is not None else None
        if cfg is None:
            self.pious = PIOUS(self, storage_dir=storage_dir)
        else:
            self.pious = PIOUS(self, stripe_kb=cfg.stripe_kb,
                               servers=cfg.server_ids(len(self.nodes)),
                               storage_dir=storage_dir)
        return self.pious

    def __len__(self) -> int:
        return len(self.nodes)

    def spawn_on_all(self, factory: Callable[["ClusterNode"], object],
                     name: str = "app") -> List[Process]:
        """Start ``factory(node)`` (an app generator) on every node."""
        return [node.kernel.spawn(factory(node), name=f"{name}:{node.node_id}")
                for node in self.nodes]

    def spawn_on(self, node_id: int, generator, name: str = "app") -> Process:
        return self.nodes[node_id].kernel.spawn(generator, name=name)

    def gather_traces(self, sort: bool = True) -> np.ndarray:
        """Concatenate all nodes' trace records (node ids preserved)."""
        arrays = [node.trace_array() for node in self.nodes]
        combined = np.concatenate(arrays) if arrays else \
            np.zeros(0, dtype=TRACE_DTYPE)
        if sort and len(combined):
            combined = combined[np.argsort(combined["time"], kind="stable")]
        return combined

    def release_traces(self) -> None:
        """Free every node's user-space trace buffer (records and storage);
        call once the records have been gathered."""
        for node in self.nodes:
            node.kernel.transport.user_buffer.clear()

    def reset_trace_clocks(self) -> None:
        """Zero every node's trace timestamps and drop records so far."""
        for node in self.nodes:
            node.kernel.driver.reset_clock()
            node.kernel.transport.drain_now()
            node.kernel.transport.user_buffer.clear()

    def shutdown_daemons(self) -> None:
        for node in self.nodes:
            node.kernel.shutdown_daemons()
