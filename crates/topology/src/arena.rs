//! The live peers in pick order.
//!
//! Per-peer state lives in tables indexed by raw [`NodeId`], like
//! [`crate::Graph`]'s rows: IDs are dense and never reused, so a dead
//! ID keeps a zeroed entry. Such a table gives no order over the live
//! peers that is independent of ID values, and uniform peer picks
//! (`ids()[rng.index(len)]`), checkpoint layouts, escrow sweeps and
//! float sums need the order the simulators have always used:
//! insertion order perturbed by swap-removes (the market's old
//! `peers_vec` order). [`PeerArena`] keeps that order, so RNG draws,
//! checkpoint bytes and float sums reproduce bit for bit.
//!
//! A market keeps one arena, its ledger's (`scrip_core::Ledger::ids`);
//! the streaming swarm keeps its own, for its bootstrap draws and the
//! order in which it sums the stall average.

use crate::NodeId;

/// Position sentinel for IDs not present in the arena.
const ABSENT: u32 = u32::MAX;

/// The live [`NodeId`]s in pick order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerArena {
    /// The live IDs in pick order.
    ids: Vec<NodeId>,
    /// Raw ID → position in `ids` ([`ABSENT`] when not live). Only
    /// [`PeerArena::insert`] and [`PeerArena::remove`] use it.
    position: Vec<u32>,
}

impl PeerArena {
    /// Whether `id` is live. Safe for any ID.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.position.get(id.index()).is_some_and(|&p| p != ABSENT)
    }

    /// The live IDs in pick order.
    #[inline]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Number of live peers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Heap bytes reserved by the pick-order list plus the raw-ID →
    /// position table (capacities, not lengths, so the figure matches
    /// what the allocator is actually holding).
    pub fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.position.capacity() * std::mem::size_of::<u32>()
    }

    /// Appends `id` to the pick order.
    ///
    /// The position table grows to `id.index() + 1` entries, so this is
    /// for *densely allocated* IDs (as handed out by
    /// [`crate::Graph::add_node`]); inserting an arbitrary huge
    /// `NodeId::from_raw` value would allocate proportional memory.
    /// [`PeerArena::contains`] is safe for any ID.
    ///
    /// # Panics
    /// Panics if `id` is already live.
    pub fn insert(&mut self, id: NodeId) {
        let raw = id.index();
        if raw >= self.position.len() {
            self.position.resize(raw + 1, ABSENT);
        }
        assert_eq!(self.position[raw], ABSENT, "{id} is already live");
        self.position[raw] = self.ids.len() as u32;
        self.ids.push(id);
    }

    /// Removes `id` by swap-remove (the last ID takes its place in the
    /// pick order). Returns whether `id` was live.
    pub fn remove(&mut self, id: NodeId) -> bool {
        if !self.contains(id) {
            return false;
        }
        let at = std::mem::replace(&mut self.position[id.index()], ABSENT);
        self.ids.swap_remove(at as usize);
        if let Some(&moved) = self.ids.get(at as usize) {
            self.position[moved.index()] = at;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> NodeId {
        NodeId::from_raw(n)
    }

    fn arena(raw: &[u64]) -> PeerArena {
        let mut a = PeerArena::default();
        raw.iter().for_each(|&n| a.insert(id(n)));
        a
    }

    #[test]
    fn insert_assigns_dense_slots() {
        let a = arena(&[5, 2, 9]);
        assert!(a.contains(id(2)));
        assert!(!a.contains(id(7)));
        assert_eq!(a.ids(), &[id(5), id(2), id(9)]);
        assert_eq!(a.len(), 3);
        assert!(!a.contains(id(10_000)), "out-of-range probe is safe");
    }

    #[test]
    fn remove_swaps_last_into_slot() {
        let mut a = arena(&[0, 1, 2, 3]);
        assert!(a.remove(id(1)));
        assert_eq!(a.ids(), &[id(0), id(3), id(2)]);
        assert!(a.contains(id(3)));
        assert!(!a.contains(id(1)));
        // Removing the last ID moves nothing.
        assert!(a.remove(id(2)));
        assert_eq!(a.ids(), &[id(0), id(3)]);
        assert!(!a.remove(id(2)), "double remove is false");
        // The moved ID's position was updated: removing it works.
        assert!(a.remove(id(3)));
        assert_eq!(a.ids(), &[id(0)]);
    }

    #[test]
    fn slots_can_be_reassigned_after_removal() {
        let mut a = arena(&[0, 1]);
        assert!(a.remove(id(0)));
        a.insert(id(0));
        assert_eq!(a.ids(), &[id(1), id(0)], "re-inserted id goes last");
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn double_insert_panics() {
        arena(&[3, 3]);
    }
}
