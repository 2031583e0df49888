//! Graph queries over a [`crate::Topology`] — hop distances,
//! connectivity, and the analytic hop statistics behind experiments E1
//! (Fig. 2) and E9 (scalability).

use crate::Topology;
use std::collections::VecDeque;
use wmsn_util::geom::Adjacency;

/// Hop distances from every vertex to its nearest gateway, computed by a
/// multi-source BFS seeded at all gateways — the graph-theoretic ideal
/// that SPR converges to (§5.2, Property 1).
#[derive(Clone, Debug)]
pub struct HopField {
    /// `hops[v]` = hops from vertex `v` to the nearest gateway
    /// (`u32::MAX` if unreachable). Gateways have 0.
    pub hops: Vec<u32>,
    /// `nearest[v]` = index of the nearest gateway (by hop count,
    /// ties → lowest gateway index), or `usize::MAX` if unreachable.
    pub nearest: Vec<usize>,
}

impl HopField {
    /// Compute the hop field of `topo`.
    pub fn compute(topo: &Topology) -> Self {
        let adj = topo.adjacency();
        Self::compute_with_adj(topo, &adj)
    }

    /// As [`HopField::compute`], reusing a prebuilt adjacency.
    pub fn compute_with_adj(topo: &Topology, adj: &Adjacency) -> Self {
        let n = topo.node_count();
        let mut hops = vec![u32::MAX; n];
        let mut nearest = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        for j in 0..topo.gateways.len() {
            let v = topo.gateway_vertex(j);
            hops[v] = 0;
            nearest[v] = j;
            queue.push_back(v);
        }
        while let Some(v) = queue.pop_front() {
            for u in adj.neighbors(v) {
                if hops[u] == u32::MAX {
                    hops[u] = hops[v] + 1;
                    nearest[u] = nearest[v];
                    queue.push_back(u);
                }
            }
        }
        HopField { hops, nearest }
    }

    /// Hop count of sensor `i` (vertex `i`).
    pub fn sensor_hops(&self, i: usize) -> u32 {
        self.hops[i]
    }

    /// Whether every sensor can reach some gateway.
    pub fn all_sensors_covered(&self, n_sensors: usize) -> bool {
        self.hops[..n_sensors].iter().all(|&h| h != u32::MAX)
    }

    /// Mean sensor hop count, ignoring unreachable sensors. `None` if no
    /// sensor is reachable.
    pub fn mean_sensor_hops(&self, n_sensors: usize) -> Option<f64> {
        let reachable: Vec<u32> = self.hops[..n_sensors]
            .iter()
            .copied()
            .filter(|&h| h != u32::MAX)
            .collect();
        if reachable.is_empty() {
            None
        } else {
            Some(reachable.iter().map(|&h| h as f64).sum::<f64>() / reachable.len() as f64)
        }
    }

    /// Maximum sensor hop count among reachable sensors (0 if none).
    pub fn max_sensor_hops(&self, n_sensors: usize) -> u32 {
        self.hops[..n_sensors]
            .iter()
            .copied()
            .filter(|&h| h != u32::MAX)
            .max()
            .unwrap_or(0)
    }
}

/// BFS hop distance between two vertices over `adj` (`None` if
/// disconnected).
pub fn bfs_hops(adj: &Adjacency, from: usize, to: usize) -> Option<u32> {
    if from == to {
        return Some(0);
    }
    let mut dist = vec![u32::MAX; adj.len()];
    dist[from] = 0;
    let mut queue = VecDeque::from([from]);
    while let Some(v) = queue.pop_front() {
        for u in adj.neighbors(v) {
            if dist[u] == u32::MAX {
                dist[u] = dist[v] + 1;
                if u == to {
                    return Some(dist[u]);
                }
                queue.push_back(u);
            }
        }
    }
    None
}

/// Connected components of `adj` as a label vector (labels are the
/// smallest vertex in each component).
pub fn components(adj: &Adjacency) -> Vec<usize> {
    let n = adj.len();
    let mut label = vec![usize::MAX; n];
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = start;
        let mut queue = VecDeque::from([start]);
        while let Some(v) = queue.pop_front() {
            for u in adj.neighbors(v) {
                if label[u] == usize::MAX {
                    label[u] = start;
                    queue.push_back(u);
                }
            }
        }
    }
    label
}

/// Whether the graph is a single connected component (vacuously true for
/// 0 or 1 vertices).
pub fn is_connected(adj: &Adjacency) -> bool {
    let labels = components(adj);
    labels.iter().all(|&l| l == 0) || labels.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmsn_util::geom::unit_disk_adjacency;
    use wmsn_util::{Point, Rect};

    /// A 5-sensor chain with a gateway at the far end:
    /// S0—S1—S2—S3—S4—G.
    fn chain() -> Topology {
        let sensors = (0..5).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let gateways = vec![Point::new(50.0, 0.0)];
        Topology::new(sensors, gateways, Rect::field(100.0, 10.0), 10.0)
    }

    #[test]
    fn chain_hops_decrease_toward_gateway() {
        let hf = HopField::compute(&chain());
        assert_eq!(
            &hf.hops[..5],
            &[5, 4, 3, 2, 1],
            "hop counts along the chain"
        );
        assert_eq!(hf.hops[5], 0, "gateway itself");
        assert!(hf.all_sensors_covered(5));
        assert_eq!(hf.mean_sensor_hops(5), Some(3.0));
        assert_eq!(hf.max_sensor_hops(5), 5);
    }

    #[test]
    fn nearest_gateway_assignment_with_two_gateways() {
        // G0 — S0 — S1 — S2 — G1: S0→G0, S2→G1, S1 ties → lowest index.
        let sensors = vec![
            Point::new(10.0, 0.0),
            Point::new(20.0, 0.0),
            Point::new(30.0, 0.0),
        ];
        let gateways = vec![Point::new(0.0, 0.0), Point::new(40.0, 0.0)];
        let t = Topology::new(sensors, gateways, Rect::field(50.0, 10.0), 10.0);
        let hf = HopField::compute(&t);
        assert_eq!(hf.nearest[0], 0);
        assert_eq!(hf.nearest[2], 1);
        assert_eq!(hf.hops[1], 2);
        assert_eq!(hf.nearest[1], 0, "ties break toward the lower index");
    }

    #[test]
    fn disconnected_sensor_is_unreachable() {
        let mut t = chain();
        t.sensors.push(Point::new(0.0, 90.0)); // isolated
        let hf = HopField::compute(&t);
        assert_eq!(hf.hops[5], u32::MAX);
        assert_eq!(hf.nearest[5], usize::MAX);
        assert!(!hf.all_sensors_covered(6));
        // Mean ignores the unreachable one.
        assert_eq!(hf.mean_sensor_hops(6), Some(3.0));
    }

    #[test]
    fn no_gateways_means_nobody_is_covered() {
        let t = Topology::new(
            vec![Point::new(0.0, 0.0)],
            vec![],
            Rect::field(10.0, 10.0),
            5.0,
        );
        let hf = HopField::compute(&t);
        assert_eq!(hf.hops[0], u32::MAX);
        assert_eq!(hf.mean_sensor_hops(1), None);
        assert_eq!(hf.max_sensor_hops(1), 0);
    }

    #[test]
    fn bfs_hops_and_components() {
        let t = chain();
        let adj = t.adjacency();
        assert_eq!(bfs_hops(&adj, 0, 5), Some(5));
        assert_eq!(bfs_hops(&adj, 3, 3), Some(0));
        assert!(is_connected(&adj));
        // Break the chain.
        let mut t2 = chain();
        t2.sensors[2] = Point::new(0.0, 90.0);
        let adj2 = t2.adjacency();
        assert_eq!(bfs_hops(&adj2, 0, 5), None);
        assert!(!is_connected(&adj2));
        let labels = components(&adj2);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn empty_graph_is_connected() {
        let isolated = |n: usize| {
            let pts: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
            unit_disk_adjacency(&pts, 1.0)
        };
        assert!(is_connected(&isolated(0)));
        assert!(is_connected(&isolated(1)));
        assert!(!is_connected(&isolated(2)));
    }
}
