//! Network topology: nodes, ports, unidirectional links, and static routing
//! with equal-cost multipath (ECMP).
//!
//! Topologies are built once, up front, with [`TopologyBuilder`]; the
//! simulator then treats them as immutable. Routing tables are computed by
//! breadth-first search from every destination host; where several ports lie
//! on equally short paths, the forwarding decision hashes the flow id so a
//! flow sticks to one path (per-flow ECMP, as the paper's fat-tree uses).

use crate::packet::FlowId;
use crate::time::SimDuration;
use crate::units::BitRate;
use std::collections::VecDeque;

/// Index of a node (host or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

/// Index of a port local to one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(pub usize);

/// Index of a unidirectional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId(pub usize);

/// What a node is, and (for switches) where it sits in the fabric.
/// Roles let experiments classify congestion points the way the paper does
/// (Fig. 17 reports core / ingress-edge / egress-edge separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// An end host with a single NIC port.
    Host,
    /// A top-of-rack / edge switch.
    EdgeSwitch,
    /// A core / spine switch.
    CoreSwitch,
    /// A switch with no particular tier (single-switch topologies).
    Switch,
}

impl NodeRole {
    /// True for any switch role.
    pub fn is_switch(self) -> bool {
        !matches!(self, NodeRole::Host)
    }
}

/// One unidirectional link.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Transmitting node and its egress port.
    pub from: (NodeId, PortId),
    /// Receiving node and its ingress port.
    pub to: (NodeId, PortId),
    /// Line rate.
    pub rate: BitRate,
    /// Propagation delay.
    pub delay: SimDuration,
}

/// Static description of one node.
#[derive(Debug, Clone)]
pub struct NodeInfo {
    /// Human-readable name (used in traces and reports).
    pub name: String,
    /// Role in the fabric.
    pub role: NodeRole,
    /// Outgoing link attached to each local port.
    pub out_links: Vec<LinkId>,
    /// Incoming link attached to each local port.
    pub in_links: Vec<LinkId>,
}

/// An immutable network topology with precomputed ECMP routing tables.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<NodeInfo>,
    links: Vec<Link>,
    hosts: Vec<NodeId>,
    /// `routes[node][host_rank]` = candidate egress ports toward that host.
    routes: Vec<Vec<Vec<PortId>>>,
    /// Dense rank of each host node (usize::MAX for switches).
    host_rank: Vec<usize>,
}

impl Topology {
    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &NodeInfo {
        &self.nodes[id.0]
    }

    /// All unidirectional links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Link metadata.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    /// All host nodes, in creation order.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Outgoing link on `port` of `node`.
    pub fn out_link(&self, node: NodeId, port: PortId) -> LinkId {
        self.nodes[node.0].out_links[port.0]
    }

    /// The reverse direction of `link` (every connection is full duplex, so
    /// the reverse always exists).
    pub fn reverse_link(&self, link: LinkId) -> LinkId {
        let l = self.links[link.0];
        let (to_node, to_port) = l.to;
        self.nodes[to_node.0].out_links[to_port.0]
    }

    /// Number of ports on `node`.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.nodes[node.0].out_links.len()
    }

    /// Select the egress port on `node` toward destination host `dst` for
    /// `flow`, hashing the flow id across equal-cost candidates.
    ///
    /// Returns `None` when `dst` is unreachable from `node`.
    pub fn route(&self, node: NodeId, dst: NodeId, flow: FlowId) -> Option<PortId> {
        let rank = self.host_rank[dst.0];
        if rank == usize::MAX {
            return None;
        }
        let cands = &self.routes[node.0][rank];
        if cands.is_empty() {
            return None;
        }
        let h = ecmp_hash(flow.0, node.0 as u64);
        Some(cands[(h % cands.len() as u64) as usize])
    }

    /// All equal-cost egress ports on `node` toward `dst` (for tests and
    /// diagnostics).
    pub fn route_candidates(&self, node: NodeId, dst: NodeId) -> &[PortId] {
        let rank = self.host_rank[dst.0];
        if rank == usize::MAX {
            return &[];
        }
        &self.routes[node.0][rank]
    }

    /// The node on the far end of `port` of `node`.
    pub fn neighbor(&self, node: NodeId, port: PortId) -> NodeId {
        let l = self.out_link(node, port);
        self.links[l.0].to.0
    }
}

/// 64-bit FNV-1a over the flow id and node id; deterministic so runs are
/// reproducible, yet spreads flows across equal-cost paths.
fn ecmp_hash(flow: u64, node: u64) -> u64 {
    let mut h = rocc_stats::digest::Fnv64::new();
    h.write_u64(flow);
    h.write_u64(node);
    h.finish()
}

/// Incrementally builds a [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<NodeInfo>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// Start an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an end host. Hosts get exactly one port when first connected.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(name.into(), NodeRole::Host)
    }

    /// Add a switch with the given fabric role.
    pub fn add_switch(&mut self, name: impl Into<String>, role: NodeRole) -> NodeId {
        assert!(role.is_switch(), "switch role required");
        self.add_node(name.into(), role)
    }

    fn add_node(&mut self, name: String, role: NodeRole) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeInfo {
            name,
            role,
            out_links: Vec::new(),
            in_links: Vec::new(),
        });
        id
    }

    /// Connect `a` and `b` with a full-duplex link (two unidirectional links
    /// of the same rate and delay). Returns the new port ids `(on_a, on_b)`.
    ///
    /// Panics if a host would end up with more than one port.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        rate: BitRate,
        delay: SimDuration,
    ) -> (PortId, PortId) {
        assert_ne!(a, b, "self-links are not allowed");
        let pa = PortId(self.nodes[a.0].out_links.len());
        let pb = PortId(self.nodes[b.0].out_links.len());
        for (n, p) in [(a, pa), (b, pb)] {
            if self.nodes[n.0].role == NodeRole::Host {
                assert_eq!(p.0, 0, "host {} must have exactly one port", self.nodes[n.0].name);
            }
        }
        let ab = LinkId(self.links.len());
        self.links.push(Link {
            from: (a, pa),
            to: (b, pb),
            rate,
            delay,
        });
        let ba = LinkId(self.links.len());
        self.links.push(Link {
            from: (b, pb),
            to: (a, pa),
            rate,
            delay,
        });
        self.nodes[a.0].out_links.push(ab);
        self.nodes[a.0].in_links.push(ba);
        self.nodes[b.0].out_links.push(ba);
        self.nodes[b.0].in_links.push(ab);
        (pa, pb)
    }

    /// Finalize: compute ECMP routing tables from every node to every host.
    pub fn build(self) -> Topology {
        let n = self.nodes.len();
        let hosts: Vec<NodeId> = (0..n)
            .filter(|&i| self.nodes[i].role == NodeRole::Host)
            .map(NodeId)
            .collect();
        let mut host_rank = vec![usize::MAX; n];
        for (rank, h) in hosts.iter().enumerate() {
            host_rank[h.0] = rank;
        }

        // For each destination host, BFS over the reversed graph to get
        // distances, then each node's candidate ports are those whose
        // neighbor is one hop closer to the destination.
        let mut routes = vec![vec![Vec::new(); hosts.len()]; n];
        for (rank, &dst) in hosts.iter().enumerate() {
            let mut dist = vec![usize::MAX; n];
            dist[dst.0] = 0;
            let mut q = VecDeque::new();
            q.push_back(dst.0);
            while let Some(u) = q.pop_front() {
                // Traverse incoming links: nodes that can reach `u` directly.
                for &lid in &self.nodes[u].in_links {
                    let v = self.links[lid.0].from.0 .0;
                    if dist[v] == usize::MAX {
                        dist[v] = dist[u] + 1;
                        q.push_back(v);
                    }
                }
            }
            for (u, node) in self.nodes.iter().enumerate() {
                if u == dst.0 || dist[u] == usize::MAX {
                    continue;
                }
                for (p, &lid) in node.out_links.iter().enumerate() {
                    let v = self.links[lid.0].to.0 .0;
                    if dist[v] + 1 == dist[u] {
                        routes[u][rank].push(PortId(p));
                    }
                }
            }
        }

        Topology {
            nodes: self.nodes,
            links: self.links,
            hosts,
            routes,
            host_rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rate() -> BitRate {
        BitRate::from_gbps(40)
    }

    fn delay() -> SimDuration {
        SimDuration::from_micros(1)
    }

    /// host0 - sw - host1
    fn line() -> (Topology, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let sw = b.add_switch("sw", NodeRole::Switch);
        b.connect(h0, sw, rate(), delay());
        b.connect(h1, sw, rate(), delay());
        (b.build(), h0, h1, sw)
    }

    #[test]
    fn line_routing() {
        let (t, h0, h1, sw) = line();
        let f = FlowId(7);
        // From h0 toward h1: out its only port.
        assert_eq!(t.route(h0, h1, f), Some(PortId(0)));
        // At the switch, toward h1: the port facing h1.
        let p = t.route(sw, h1, f).unwrap();
        assert_eq!(t.neighbor(sw, p), h1);
        // Toward h0 likewise.
        let p = t.route(sw, h0, f).unwrap();
        assert_eq!(t.neighbor(sw, p), h0);
    }

    #[test]
    fn reverse_link_pairs_up() {
        let (t, h0, _, sw) = line();
        let l = t.out_link(h0, PortId(0));
        let r = t.reverse_link(l);
        assert_eq!(t.link(r).from.0, sw);
        assert_eq!(t.link(r).to.0, h0);
        assert_eq!(t.reverse_link(r), l);
    }

    #[test]
    fn ecmp_spreads_flows() {
        // h0 - s0 = two parallel = s1 - h1: two equal-cost paths.
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let s0 = b.add_switch("s0", NodeRole::EdgeSwitch);
        let s1 = b.add_switch("s1", NodeRole::EdgeSwitch);
        b.connect(h0, s0, rate(), delay());
        b.connect(s0, s1, rate(), delay());
        b.connect(s0, s1, rate(), delay());
        b.connect(s1, h1, rate(), delay());
        let t = b.build();
        let cands = t.route_candidates(s0, h1);
        assert_eq!(cands.len(), 2);
        // Many flows should not all pick the same port.
        let picks: std::collections::HashSet<_> =
            (0..64).map(|i| t.route(s0, h1, FlowId(i)).unwrap()).collect();
        assert_eq!(picks.len(), 2, "ECMP should use both paths");
        // A single flow must be sticky.
        for _ in 0..4 {
            assert_eq!(t.route(s0, h1, FlowId(3)), t.route(s0, h1, FlowId(3)));
        }
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = TopologyBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1"); // never connected
        let s = b.add_switch("s", NodeRole::Switch);
        b.connect(h0, s, rate(), delay());
        let t = b.build();
        assert_eq!(t.route(h0, h1, FlowId(0)), None);
    }

    #[test]
    #[should_panic(expected = "exactly one port")]
    fn host_single_port_enforced() {
        let mut b = TopologyBuilder::new();
        let h = b.add_host("h");
        let s0 = b.add_switch("s0", NodeRole::Switch);
        let s1 = b.add_switch("s1", NodeRole::Switch);
        b.connect(h, s0, rate(), delay());
        b.connect(h, s1, rate(), delay());
    }

    #[test]
    fn roles_and_hosts_list() {
        let (t, h0, h1, sw) = line();
        assert_eq!(t.hosts(), &[h0, h1]);
        assert!(t.node(sw).role.is_switch());
        assert!(!t.node(h0).role.is_switch());
    }
}
