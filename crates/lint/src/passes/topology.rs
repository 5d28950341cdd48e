//! Power-topology analysis (`SG0301`–`SG0303`): is the single-line diagram
//! energizable? Whether every terminal lands on a declared node is a bundle
//! rule (`SG0110`); here unresolved terminals are simply left out.
//!
//! Two graphs are analyzed:
//!
//! * the **all-closed** graph (every switch treated as closed) answers
//!   "*could* this island ever be fed?" — an island with neither an
//!   external-grid infeed nor a generator (the solver promotes one to slack)
//!   is dead however the operators switch ([`codes::ISLAND_NO_SLACK`]);
//! * the **normal-state** graph (normally-open switches removed) answers
//!   "is it fed *as drawn*?" — a load that the all-closed graph supplies but
//!   the normal state does not is a switching mistake
//!   ([`codes::SWITCH_ISOLATES_LOAD`]).

use crate::pass::LintPass;
use crate::source::LoadedBundle;
use sgcr_scl::{codes, Diagnostic, EquipmentType, SourcePos};
use std::collections::BTreeMap;

/// Checks islands and switching states.
pub struct TopologyPass;

impl LintPass for TopologyPass {
    fn name(&self) -> &'static str {
        "topology"
    }

    fn run(&self, bundle: &LoadedBundle, out: &mut Vec<Diagnostic>) {
        report_islands(&Graph::of(bundle), out);
    }
}

/// One connectivity node (bus) of the bundle-wide graph.
struct Bus {
    /// Connectivity-node path name.
    path: String,
    file: String,
    pos: SourcePos,
    substation: String,
    degree: usize,
    /// The load attached here, if any (name, file, pos).
    load: Option<(String, String, SourcePos)>,
    /// Whether an external-grid infeed or a generator attaches here.
    has_slack: bool,
}

#[derive(Default)]
struct Graph {
    buses: Vec<Bus>,
    /// Edges that exist whatever the switch states are.
    all_closed: Vec<(usize, usize)>,
    /// Edges present in the normally-drawn switching state.
    normal: Vec<(usize, usize)>,
}

impl Graph {
    /// The bundle-wide graph: every declared node (the first of a path),
    /// wired by equipment, transformers, and SED ties.
    fn of(bundle: &LoadedBundle) -> Graph {
        let mut graph = Graph::default();
        let mut index: BTreeMap<&str, usize> = BTreeMap::new();
        let sources = bundle.substation_sources();
        for (file, substation) in &sources {
            for cn in substation
                .voltage_levels
                .iter()
                .flat_map(|vl| &vl.bays)
                .flat_map(|bay| &bay.connectivity_nodes)
            {
                if index.contains_key(cn.path_name.as_str()) {
                    continue;
                }
                index.insert(&cn.path_name, graph.buses.len());
                graph.buses.push(Bus {
                    path: cn.path_name.clone(),
                    file: file.name.clone(),
                    pos: cn.pos,
                    substation: substation.name.clone(),
                    degree: 0,
                    load: None,
                    has_slack: false,
                });
            }
        }
        for (file, substation) in &sources {
            for eq in substation
                .voltage_levels
                .iter()
                .flat_map(|vl| &vl.bays)
                .flat_map(|bay| &bay.equipment)
            {
                let buses: Vec<usize> = eq
                    .terminals
                    .iter()
                    .filter_map(|t| index.get(t.connectivity_node.as_str()).copied())
                    .collect();
                graph.attach(&buses);
                match (eq.eq_type, &buses[..]) {
                    (EquipmentType::CircuitBreaker | EquipmentType::Disconnector, &[a, b]) => {
                        graph.all_closed.push((a, b));
                        if !eq.normally_open {
                            graph.normal.push((a, b));
                        }
                    }
                    (EquipmentType::Line | EquipmentType::Other, &[a, b]) => graph.join(a, b),
                    // The solver promotes a generator to slack when an
                    // island has no external grid, so both types make an
                    // island energizable. Batteries compile to static
                    // generators and cannot hold an island up alone.
                    (EquipmentType::IncomingFeeder | EquipmentType::Generator, &[bus]) => {
                        graph.buses[bus].has_slack = true;
                    }
                    (EquipmentType::Load, &[bus]) => {
                        graph.buses[bus].load = Some((eq.name.clone(), file.name.clone(), eq.pos));
                    }
                    _ => {}
                }
            }
            for transformer in &substation.transformers {
                let buses: Vec<usize> = transformer
                    .windings
                    .iter()
                    .filter_map(|w| index.get(w.terminal.connectivity_node.as_str()).copied())
                    .collect();
                graph.attach(&buses);
                if let [a, b] = buses[..] {
                    graph.join(a, b);
                }
            }
        }
        for tie in bundle
            .seds
            .iter()
            .flat_map(|f| &f.doc.inter_substation_lines)
        {
            let ends = (
                index.get(tie.from_node.as_str()),
                index.get(tie.to_node.as_str()),
            );
            if let (Some(&a), Some(&b)) = ends {
                graph.attach(&[a, b]);
                graph.join(a, b);
            }
        }
        graph
    }

    fn attach(&mut self, buses: &[usize]) {
        for &bus in buses {
            self.buses[bus].degree += 1;
        }
    }

    /// An edge present whatever the switch states are.
    fn join(&mut self, a: usize, b: usize) {
        self.all_closed.push((a, b));
        self.normal.push((a, b));
    }
}

/// SG0301 (isolated bus), SG0302 (island without slack), SG0303 (normal
/// switch state isolates a load the all-closed graph supplies).
fn report_islands(graph: &Graph, out: &mut Vec<Diagnostic>) {
    let n = graph.buses.len();
    for bus in graph.buses.iter().filter(|bus| bus.degree == 0) {
        out.push(
            Diagnostic::warning(
                codes::ISOLATED_BUS,
                format!(
                    "connectivity node {:?} has no connected equipment",
                    bus.path
                ),
                format!("Substation {}", bus.substation),
            )
            .with_pos(&bus.file, Some(bus.pos)),
        );
    }

    let closed = components(n, &graph.all_closed);
    let normal = components(n, &graph.normal);

    // Which components (in each graph) contain a slack source?
    let mut closed_fed = vec![false; n];
    let mut normal_fed = vec![false; n];
    for (i, bus) in graph.buses.iter().enumerate() {
        if bus.has_slack {
            closed_fed[closed[i]] = true;
            normal_fed[normal[i]] = true;
        }
    }

    // SG0302: one finding per dead island, anchored at its first bus.
    let mut reported = vec![false; n];
    for (i, bus) in graph.buses.iter().enumerate() {
        if bus.degree == 0 || closed_fed[closed[i]] || reported[closed[i]] {
            continue;
        }
        reported[closed[i]] = true;
        let members = closed.iter().filter(|&&c| c == closed[i]).count();
        out.push(
            Diagnostic::error(
                codes::ISLAND_NO_SLACK,
                format!(
                    "electrical island of {members} bus(es) has no external-grid infeed or generator even with every switch closed"
                ),
                format!("Substation {}", bus.substation),
            )
            .with_pos(&bus.file, Some(bus.pos)),
        );
    }

    // SG0303: loads the drawn switch states cut off from every source.
    for (i, bus) in graph.buses.iter().enumerate() {
        let Some((load, file, pos)) = &bus.load else {
            continue;
        };
        if closed_fed[closed[i]] && !normal_fed[normal[i]] {
            out.push(
                Diagnostic::warning(
                    codes::SWITCH_ISOLATES_LOAD,
                    format!(
                        "load {load:?} is unsupplied in the normal switching state (closing open switches would supply it)"
                    ),
                    format!("Substation {}", bus.substation),
                )
                .with_pos(file, Some(*pos)),
            );
        }
    }
}

/// Connected components by union-find; returns each node's root index.
fn components(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]]; // path halving
            x = parent[x];
        }
        x
    }
    for &(a, b) in edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra.max(rb)] = ra.min(rb);
        }
    }
    (0..n).map(|i| find(&mut parent, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_components() {
        let roots = components(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(roots[0], roots[1]);
        assert_eq!(roots[1], roots[2]);
        assert_eq!(roots[3], roots[4]);
        assert_ne!(roots[0], roots[3]);
    }
}
