//! The overlay's checkpoint section and node-id decoding, over the byte
//! codec of [`scrip_des::snapshot`]. Both market granularities write
//! their overlay through [`Graph::write_state`] and read it back through
//! [`Graph::read_state`].

use scrip_des::snapshot::{Put, Reader, SnapshotError};

use crate::graph::{Graph, NodeId};

/// Decoding a [`NodeId`] from a snapshot.
pub trait TakeId {
    /// A node ID, written as its raw `u64`. A value past the 32-bit ID
    /// space ([`NodeId::MAX_RAW`]) is an error, not a truncation.
    fn take_id(&mut self) -> Result<NodeId, SnapshotError>;
}

impl TakeId for Reader<'_> {
    fn take_id(&mut self) -> Result<NodeId, SnapshotError> {
        let raw = self.take_u64()?;
        if raw > NodeId::MAX_RAW {
            return Err(SnapshotError(format!(
                "node id {raw} is past the 32-bit id space"
            )));
        }
        Ok(NodeId::from_raw(raw))
    }
}

impl Graph {
    /// The overlay section: the id watermark, the live ids (ascending)
    /// behind their count, and the edges behind theirs.
    pub fn write_state(&self, w: &mut impl Put) {
        w.put_u64(self.next_raw_id());
        w.put_u64(self.node_count() as u64);
        for id in self.node_ids() {
            w.put_u64(id.raw());
        }
        w.put_u64(self.edge_count() as u64);
        for (a, b) in self.edges() {
            w.put_u64(a.raw());
            w.put_u64(b.raw());
        }
    }

    /// Decodes [`Graph::write_state`]'s section in one
    /// [`Graph::from_edges`] pass. Counts are checked against the unread
    /// bytes before they size anything. The watermark sizes per-id
    /// tables but has no bytes behind it, so it is bounded instead: it
    /// must lie between the live count and `ceiling` (the ids the run
    /// can have allocated), capped at the 32-bit id space.
    ///
    /// # Errors
    /// Returns [`SnapshotError`] for truncated bytes, a watermark out of
    /// range, or live ids and edges the graph build refuses.
    pub fn read_state(r: &mut Reader<'_>, ceiling: u64) -> Result<Graph, SnapshotError> {
        let watermark = r.take_u64()?;
        let live_count = r.take_count(8)?;
        let ceiling = ceiling.min(NodeId::MAX_RAW + 1);
        if watermark < live_count as u64 || watermark > ceiling {
            return Err(SnapshotError(format!(
                "overlay id watermark {watermark} outside {live_count}..={ceiling} \
                 (live peers up to build watermark plus events processed)"
            )));
        }
        let mut live = Vec::with_capacity(live_count);
        for _ in 0..live_count {
            live.push(r.take_id()?);
        }
        let edge_count = r.take_count(16)?;
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            let a = r.take_id()?;
            let b = r.take_id()?;
            edges.push((a, b));
        }
        Graph::from_edges(watermark, live, edges)
            .map_err(|e| SnapshotError(format!("graph rebuild: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_past_the_32_bit_space_are_errors() {
        let mut bytes = Vec::new();
        bytes.put_u64(NodeId::MAX_RAW);
        bytes.put_u64(NodeId::MAX_RAW + 1);
        bytes.put_u64(u64::MAX);
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.take_id().expect("largest id"),
            NodeId::from_raw(NodeId::MAX_RAW)
        );
        assert!(r.take_id().is_err());
        assert!(r.take_id().is_err());
    }

    #[test]
    fn overlays_round_trip_and_bound_their_watermark() {
        let id = NodeId::from_raw;
        let graph = Graph::from_edges(
            5,
            vec![id(0), id(2), id(4)],
            [(id(0), id(2)), (id(4), id(2))],
        )
        .expect("valid");
        let mut bytes = Vec::new();
        graph.write_state(&mut bytes);
        let mut r = Reader::new(&bytes);
        assert_eq!(Graph::read_state(&mut r, 5).expect("decodes"), graph);
        r.finish().expect("whole section read");
        let err = Graph::read_state(&mut Reader::new(&bytes), 4).expect_err("ceiling 4");
        assert!(err.0.contains("watermark"), "{err}");
    }
}
