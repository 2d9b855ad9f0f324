//! Cluster topology: nodes and worker processes per node.

use serde::Serialize;

/// A homogeneous cluster: `nodes` nodes, each running `workers_per_node`
/// worker processes (Global Arrays dedicates one core per node to progress,
/// so a 16-core Cascade node exposes 15 workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Topology {
    /// Number of nodes.
    pub nodes: usize,
    /// Worker processes per node.
    pub workers_per_node: usize,
}

impl Topology {
    /// The configuration used by the paper: 10 Cascade nodes, 16 cores each,
    /// one core per node dedicated to the Global Arrays progress engine,
    /// 150 worker processes in total.
    pub fn cascade_10_nodes() -> Self {
        Topology {
            nodes: 10,
            workers_per_node: 15,
        }
    }

    /// Total number of worker processes.
    pub fn n_processes(&self) -> usize {
        self.nodes * self.workers_per_node
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::cascade_10_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cascade_topology_matches_paper() {
        let t = Topology::cascade_10_nodes();
        assert_eq!(t.n_processes(), 150);
    }
}
