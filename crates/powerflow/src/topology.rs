//! Switch topology processing and island detection.
//!
//! Before the solver runs, the network's switch states are folded into an
//! *electrical* view: closed bus-bus switches merge buses (busbar sections),
//! open element switches take their line/transformer out of service, and the
//! resulting graph is split into islands. Each island is energized if it
//! contains a slack source (external grid, or a generator promoted to slack).

use crate::network::{BusId, ExtGridId, GenId, LineId, PowerNetwork, SwitchTarget, TrafoId};

/// Disjoint-set over bus indices.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller index wins as representative.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// The slack source chosen for an island.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlackSource {
    /// An in-service external grid.
    ExtGrid(ExtGridId),
    /// A generator promoted to slack because the island has no external grid.
    Gen(GenId),
}

/// A connected electrical island.
#[derive(Debug, Clone, PartialEq)]
pub struct Island {
    /// Representative bus indices (post-merge) belonging to this island.
    pub nodes: Vec<usize>,
    /// The slack source, if the island is energized.
    pub slack: Option<SlackSource>,
}

impl Island {
    /// Whether the island has a reference source and will be solved.
    pub fn is_energized(&self) -> bool {
        self.slack.is_some()
    }
}

/// The electrical view of a network after switch processing.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// For each original bus index, the representative node index it merged
    /// into (representatives map to themselves). Out-of-service buses keep a
    /// representative but belong to no island.
    pub bus_to_node: Vec<usize>,
    /// Lines that are electrically connected (in service + switches closed).
    pub active_lines: Vec<LineId>,
    /// Transformers that are electrically connected.
    pub active_trafos: Vec<TrafoId>,
    /// Electrical islands over representative nodes.
    pub islands: Vec<Island>,
}

impl Topology {
    /// Builds the electrical topology of `net` from its switch states.
    pub fn build(net: &PowerNetwork) -> Topology {
        let n = net.bus.len();
        let mut uf = UnionFind::new(n);

        // 1. Closed bus-bus switches merge buses.
        for sw in &net.switch {
            if let SwitchTarget::Bus(other) = sw.target {
                if sw.closed
                    && net.bus[sw.bus.index()].in_service
                    && net.bus[other.index()].in_service
                {
                    uf.union(sw.bus.index(), other.index());
                }
            }
        }

        // 2. Element switches: any open switch on a line/trafo disconnects it.
        let mut line_open = vec![false; net.line.len()];
        let mut trafo_open = vec![false; net.trafo.len()];
        for sw in &net.switch {
            match sw.target {
                SwitchTarget::Line(l) if !sw.closed => line_open[l.index()] = true,
                SwitchTarget::Trafo(t) if !sw.closed => trafo_open[t.index()] = true,
                _ => {}
            }
        }

        let bus_in = |b: BusId| net.bus[b.index()].in_service;

        let active_lines: Vec<LineId> = net
            .line
            .iter()
            .enumerate()
            .filter(|(i, l)| {
                l.in_service && !line_open[*i] && bus_in(l.from_bus) && bus_in(l.to_bus)
            })
            .map(|(i, _)| LineId(i))
            .collect();
        let active_trafos: Vec<TrafoId> = net
            .trafo
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.in_service && !trafo_open[*i] && bus_in(t.hv_bus) && bus_in(t.lv_bus)
            })
            .map(|(i, _)| TrafoId(i))
            .collect();

        let bus_to_node: Vec<usize> = (0..n).map(|b| uf.find(b)).collect();

        // 3. Connected components over representative nodes via active
        //    branches. The adjacency is compressed: node `a`'s neighbours are
        //    `neighbors[start[a]..start[a + 1]]`, in branch order.
        let ends = || {
            let lines = active_lines.iter().map(|&lid| {
                let l = &net.line[lid.index()];
                (l.from_bus, l.to_bus)
            });
            let trafos = active_trafos.iter().map(|&tid| {
                let t = &net.trafo[tid.index()];
                (t.hv_bus, t.lv_bus)
            });
            lines
                .chain(trafos)
                .map(|(a, b)| (bus_to_node[a.index()], bus_to_node[b.index()]))
        };
        let mut start = vec![0usize; n + 1];
        for (a, b) in ends() {
            start[a + 1] += 1;
            start[b + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start[..n].to_vec();
        let mut neighbors = vec![0usize; start[n]];
        for (a, b) in ends() {
            neighbors[fill[a]] = b;
            fill[a] += 1;
            neighbors[fill[b]] = a;
            fill[b] += 1;
        }

        // Every in-service bus's node roots a search, in node order.
        let mut rooted = vec![false; n];
        for (b, bus) in net.bus.iter().enumerate() {
            rooted[bus_to_node[b]] |= bus.in_service;
        }
        const NONE: usize = usize::MAX;
        let mut node_island = vec![NONE; n];
        let mut islands: Vec<Island> = Vec::new();
        let mut stack = Vec::new();
        for root in 0..n {
            if !rooted[root] || node_island[root] != NONE {
                continue;
            }
            let island_index = islands.len();
            stack.push(root);
            let mut nodes = Vec::new();
            node_island[root] = island_index;
            while let Some(node) = stack.pop() {
                nodes.push(node);
                for &next in &neighbors[start[node]..start[node + 1]] {
                    if node_island[next] == NONE {
                        node_island[next] = island_index;
                        stack.push(next);
                    }
                }
            }
            nodes.sort_unstable();
            islands.push(Island { nodes, slack: None });
        }

        // 4. Assign a slack source per island: prefer ext_grid, else promote
        //    the first in-service generator.
        for (i, eg) in net.ext_grid.iter().enumerate() {
            if !eg.in_service || !bus_in(eg.bus) {
                continue;
            }
            let island = node_island[bus_to_node[eg.bus.index()]];
            if island != NONE && islands[island].slack.is_none() {
                islands[island].slack = Some(SlackSource::ExtGrid(ExtGridId(i)));
            }
        }
        for (i, g) in net.gen.iter().enumerate() {
            if !g.in_service || !bus_in(g.bus) {
                continue;
            }
            let island = node_island[bus_to_node[g.bus.index()]];
            if island != NONE && islands[island].slack.is_none() {
                islands[island].slack = Some(SlackSource::Gen(GenId(i)));
            }
        }

        Topology {
            bus_to_node,
            active_lines,
            active_trafos,
            islands,
        }
    }

    /// The island index containing the representative node, if any.
    pub fn island_of_node(&self, node: usize) -> Option<usize> {
        self.islands
            .iter()
            .position(|isl| isl.nodes.binary_search(&node).is_ok())
    }

    /// The island index containing a bus.
    pub fn island_of_bus(&self, bus: BusId) -> Option<usize> {
        self.island_of_node(self.bus_to_node[bus.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{PowerNetwork, SwitchTarget};

    fn two_bus_net() -> PowerNetwork {
        let mut net = PowerNetwork::new("t");
        let b1 = net.add_bus("b1", 110.0);
        let b2 = net.add_bus("b2", 110.0);
        net.add_ext_grid("slack", b1, 1.0, 0.0);
        net.add_line("l1", b1, b2, 5.0, 0.06, 0.12, 0.0, 0.5);
        net
    }

    #[test]
    fn single_island_energized() {
        let net = two_bus_net();
        let topo = Topology::build(&net);
        assert_eq!(topo.islands.len(), 1);
        assert!(topo.islands[0].is_energized());
        assert_eq!(topo.active_lines.len(), 1);
    }

    #[test]
    fn open_line_switch_splits_island() {
        let mut net = two_bus_net();
        let b1 = net.bus_by_name("b1").unwrap();
        net.add_switch("cb1", b1, SwitchTarget::Line(LineId(0)), false);
        let topo = Topology::build(&net);
        assert_eq!(topo.islands.len(), 2);
        assert!(topo.active_lines.is_empty());
        let energized = topo.islands.iter().filter(|i| i.is_energized()).count();
        assert_eq!(energized, 1, "only the slack island stays energized");
    }

    #[test]
    fn bus_bus_switch_merges() {
        let mut net = PowerNetwork::new("t");
        let b1 = net.add_bus("b1", 20.0);
        let b2 = net.add_bus("b2", 20.0);
        net.add_ext_grid("slack", b1, 1.0, 0.0);
        net.add_switch("coupler", b1, SwitchTarget::Bus(b2), true);
        let topo = Topology::build(&net);
        assert_eq!(topo.bus_to_node[b1.index()], topo.bus_to_node[b2.index()]);
        assert_eq!(topo.islands.len(), 1);
    }

    #[test]
    fn open_bus_bus_switch_separates() {
        let mut net = PowerNetwork::new("t");
        let b1 = net.add_bus("b1", 20.0);
        let b2 = net.add_bus("b2", 20.0);
        net.add_ext_grid("slack", b1, 1.0, 0.0);
        net.add_switch("coupler", b1, SwitchTarget::Bus(b2), false);
        let topo = Topology::build(&net);
        assert_ne!(topo.bus_to_node[b1.index()], topo.bus_to_node[b2.index()]);
        assert_eq!(topo.islands.len(), 2);
    }

    #[test]
    fn gen_promoted_to_slack_in_separated_island() {
        let mut net = two_bus_net();
        let b2 = net.bus_by_name("b2").unwrap();
        net.add_gen("g1", b2, 5.0, 1.02);
        net.line[0].in_service = false;
        let topo = Topology::build(&net);
        assert_eq!(topo.islands.len(), 2);
        assert!(topo.islands.iter().all(|i| i.is_energized()));
        let b2_island = topo.island_of_bus(b2).unwrap();
        assert!(matches!(
            topo.islands[b2_island].slack,
            Some(SlackSource::Gen(_))
        ));
    }

    #[test]
    fn out_of_service_bus_excluded() {
        let mut net = two_bus_net();
        net.bus[1].in_service = false;
        let topo = Topology::build(&net);
        assert!(topo.active_lines.is_empty());
        assert_eq!(topo.islands.len(), 1);
    }
}
