//! `wmsn-topology` — deployment generation, gateway placement and
//! movement, connectivity analysis, and topology control.
//!
//! §4 of the paper raises four pre-routing issues this crate implements:
//!
//! * **Deployment** ([`deploy`]): uniform-random, jittered-grid and
//!   clustered sensor fields, the workloads of every experiment.
//! * **Multiple-gateway deployment** (§4.1, [`places`], [`placement`]):
//!   the set `P` of feasible gateway places and algorithms choosing which
//!   `m` of them to occupy — random, k-means, greedy k-center, and an
//!   exhaustive optimum for small `|P|` (the paper's "gateway deployment
//!   model").
//! * **Gateway mobility** (§5.1, [`movement`]): round-by-round schedules
//!   moving gateways among feasible places — the paper's mechanism for
//!   balancing the forwarding burden near sinks.
//! * **Topology control** (§4.4, [`control`]): power control (the minimal
//!   common radio range preserving connectivity) and GAF-style sleep
//!   scheduling (one awake node per virtual grid cell).
//!
//! The central type is [`Topology`]: sensor + gateway positions over a
//! field with a radio range, offering graph queries (hops, components,
//! nearest gateway) that both the analytic experiments and the simulator
//! builders consume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod connectivity;
pub mod control;
pub mod deploy;
pub mod movement;
pub mod paper;
pub mod placement;
pub mod places;
pub mod sharding;

pub use connectivity::HopField;
pub use deploy::Deployment;
pub use movement::{MovementPolicy, MovementSchedule};
pub use placement::PlacementAlgorithm;
pub use places::FeasiblePlaces;
pub use sharding::strip_shards;

use wmsn_util::geom::{unit_disk_adjacency, Adjacency};
use wmsn_util::{Point, Rect};

/// A static snapshot of a sensor field: sensors, gateways, field, range.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Sensor positions.
    pub sensors: Vec<Point>,
    /// Gateway positions (the current round's occupied places).
    pub gateways: Vec<Point>,
    /// Field boundary.
    pub field: Rect,
    /// Sensor-tier radio range (m).
    pub range: f64,
}

impl Topology {
    /// Build from parts.
    pub fn new(sensors: Vec<Point>, gateways: Vec<Point>, field: Rect, range: f64) -> Self {
        Topology {
            sensors,
            gateways,
            field,
            range,
        }
    }

    /// Total node count (sensors then gateways — the index convention all
    /// graph queries use: sensor `i` is vertex `i`, gateway `j` is vertex
    /// `sensors.len() + j`).
    pub fn node_count(&self) -> usize {
        self.sensors.len() + self.gateways.len()
    }

    /// Vertex index of gateway `j`.
    pub fn gateway_vertex(&self, j: usize) -> usize {
        self.sensors.len() + j
    }

    /// All positions in vertex order.
    pub fn positions(&self) -> Vec<Point> {
        let mut v = Vec::with_capacity(self.node_count());
        v.extend_from_slice(&self.sensors);
        v.extend_from_slice(&self.gateways);
        v
    }

    /// Unit-disk adjacency over all vertices at the sensor range.
    pub fn adjacency(&self) -> Adjacency {
        unit_disk_adjacency(&self.positions(), self.range)
    }

    /// Replace the gateway set (a new round).
    pub fn with_gateways(&self, gateways: Vec<Point>) -> Topology {
        Topology {
            sensors: self.sensors.clone(),
            gateways,
            field: self.field,
            range: self.range,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_indexing_convention() {
        let t = Topology::new(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            vec![Point::new(2.0, 0.0)],
            Rect::field(10.0, 10.0),
            1.5,
        );
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.gateway_vertex(0), 2);
        assert_eq!(t.positions()[2], Point::new(2.0, 0.0));
    }

    #[test]
    fn adjacency_spans_sensors_and_gateways() {
        let t = Topology::new(
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            vec![Point::new(2.0, 0.0)],
            Rect::field(10.0, 10.0),
            1.5,
        );
        let adj = t.adjacency();
        assert_eq!(adj.row(0), [1]); // sensor 0 ↔ sensor 1
        assert_eq!(adj.row(1), [0, 2]); // sensor 1 ↔ gateway
        assert_eq!(adj.row(2), [1]);
    }

    #[test]
    fn with_gateways_preserves_sensors() {
        let t = Topology::new(
            vec![Point::new(0.0, 0.0)],
            vec![Point::new(2.0, 0.0)],
            Rect::field(10.0, 10.0),
            1.5,
        );
        let t2 = t.with_gateways(vec![Point::new(5.0, 5.0), Point::new(6.0, 6.0)]);
        assert_eq!(t2.sensors, t.sensors);
        assert_eq!(t2.gateways.len(), 2);
    }
}
