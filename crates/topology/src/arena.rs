//! The dense peer arena: `NodeId → u32` slot map with swap-remove.
//!
//! Per-peer market state (wallets, spending rates, spent counters,
//! activity traces, in-flight escrow) lives in slot-indexed `Vec`s
//! instead of `BTreeMap<NodeId, _>`s: a lookup is one array load instead
//! of an O(log n) pointer chase, and iteration is a linear scan.
//! [`PeerArena`] owns the `NodeId ↔ slot` correspondence; parallel
//! `Vec`s mirror its insert/swap-remove discipline (push on insert,
//! `swap_remove(slot)` on removal) so a peer's slot indexes every
//! structure at once.
//!
//! A market keeps one arena, its ledger's (`scrip_core::Ledger::slot`);
//! the streaming swarm keeps its own, because its trade-policy calls
//! cross the crate boundary by [`NodeId`].
//!
//! Slot order is insertion order perturbed by swap-removes — exactly the
//! order the market's old `peers_vec` maintained, so uniform peer picks
//! (`ids()[rng.index(len)]`) reproduce the pre-arena RNG trajectories
//! bit for bit.
//!
//! The reverse map is a flat `Vec<u32>` indexed by raw [`NodeId`] value:
//! IDs are allocated densely from 0 by [`crate::Graph`] and
//! never reused, so the map stays small ( ≈ 4 bytes × IDs ever minted).

use crate::NodeId;

/// Slot sentinel for IDs not present in the arena.
const ABSENT: u32 = u32::MAX;

/// A dense slot allocator over live [`NodeId`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerArena {
    /// Slot → ID.
    ids: Vec<NodeId>,
    /// Raw ID → slot ([`ABSENT`] when not live).
    id_to_slot: Vec<u32>,
}

/// The bookkeeping of one [`PeerArena::remove`]: which slot was freed
/// and which peer (if any) was swapped into it. Mirror the same
/// `swap_remove(slot)` on every parallel `Vec`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotRemoval {
    /// The slot the removed peer occupied.
    pub slot: usize,
    /// The peer that now occupies `slot` (the former last slot), if the
    /// removed peer was not itself last.
    pub moved: Option<NodeId>,
}

impl PeerArena {
    /// An empty arena.
    pub fn new() -> Self {
        PeerArena::default()
    }

    /// An arena pre-populated with `ids`, slotted in the given order.
    pub fn from_ids(ids: &[NodeId]) -> Self {
        let mut arena = PeerArena {
            ids: Vec::with_capacity(ids.len()),
            id_to_slot: Vec::new(),
        };
        for &id in ids {
            arena.insert(id);
        }
        arena
    }

    /// The slot of `id`, or [`None`] if it is not live.
    #[inline]
    pub fn slot(&self, id: NodeId) -> Option<usize> {
        match self.id_to_slot.get(id.raw() as usize) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// The live IDs in slot order (the dense view: index = slot).
    #[inline]
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// Number of live peers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Heap bytes reserved by the slot map: the dense slot → ID `Vec`
    /// plus the raw-ID → slot reverse map (capacities, not lengths, so
    /// the figure matches what the allocator is actually holding). Used
    /// by the arena layout audit to account bytes per peer.
    pub fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<NodeId>()
            + self.id_to_slot.capacity() * std::mem::size_of::<u32>()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Assigns the next slot to `id` and returns it. Push a matching
    /// entry onto every parallel `Vec`.
    ///
    /// The reverse map grows to `id.raw() + 1` entries, so this is for
    /// *densely allocated* IDs (as handed out by
    /// [`crate::Graph::add_node`]); inserting an arbitrary
    /// huge `NodeId::from_raw` value would allocate proportional
    /// memory. Lookups ([`PeerArena::slot`]) are safe for any ID.
    ///
    /// # Panics
    /// Panics if `id` is already live (a slot leak otherwise).
    pub fn insert(&mut self, id: NodeId) -> usize {
        let raw = id.raw() as usize;
        if raw >= self.id_to_slot.len() {
            self.id_to_slot.resize(raw + 1, ABSENT);
        }
        assert_eq!(self.id_to_slot[raw], ABSENT, "{id} already has a slot");
        let slot = self.ids.len();
        self.id_to_slot[raw] = slot as u32;
        self.ids.push(id);
        slot
    }

    /// Frees `id`'s slot by swap-remove, or returns [`None`] if it is
    /// not live. Apply `swap_remove(removal.slot)` to every parallel
    /// `Vec`.
    pub fn remove(&mut self, id: NodeId) -> Option<SlotRemoval> {
        let slot = self.slot(id)?;
        self.ids.swap_remove(slot);
        self.id_to_slot[id.raw() as usize] = ABSENT;
        let moved = self.ids.get(slot).copied();
        if let Some(moved_id) = moved {
            self.id_to_slot[moved_id.raw() as usize] = slot as u32;
        }
        Some(SlotRemoval { slot, moved })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u64) -> NodeId {
        NodeId::from_raw(n)
    }

    #[test]
    fn insert_assigns_dense_slots() {
        let mut a = PeerArena::new();
        assert_eq!(a.insert(id(5)), 0);
        assert_eq!(a.insert(id(2)), 1);
        assert_eq!(a.insert(id(9)), 2);
        assert_eq!(a.slot(id(2)), Some(1));
        assert_eq!(a.slot(id(7)), None);
        assert_eq!(a.ids(), &[id(5), id(2), id(9)]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.slot(id(10_000)), None, "out-of-range probe is safe");
    }

    #[test]
    fn remove_swaps_last_into_slot() {
        let mut a = PeerArena::from_ids(&[id(0), id(1), id(2), id(3)]);
        let removal = a.remove(id(1)).expect("live");
        assert_eq!(removal.slot, 1);
        assert_eq!(removal.moved, Some(id(3)));
        assert_eq!(a.ids(), &[id(0), id(3), id(2)]);
        assert_eq!(a.slot(id(3)), Some(1));
        assert_eq!(a.slot(id(1)), None);
        // Removing the last slot moves nothing.
        let removal = a.remove(id(2)).expect("live");
        assert_eq!(removal.moved, None);
        assert_eq!(a.remove(id(2)), None, "double remove is None");
    }

    #[test]
    fn slots_can_be_reassigned_after_removal() {
        let mut a = PeerArena::from_ids(&[id(0), id(1)]);
        a.remove(id(0)).expect("live");
        let slot = a.insert(id(0));
        assert_eq!(slot, 1, "re-inserted id takes a fresh slot");
        assert_eq!(a.ids(), &[id(1), id(0)]);
    }

    #[test]
    fn parallel_vec_mirroring() {
        let mut a = PeerArena::from_ids(&[id(0), id(1), id(2)]);
        let mut wealth = vec![10u64, 20, 30];
        let removal = a.remove(id(0)).expect("live");
        wealth.swap_remove(removal.slot);
        for (slot, &peer) in a.ids().iter().enumerate() {
            assert_eq!(wealth[slot], (peer.raw() + 1) * 10);
        }
    }

    #[test]
    #[should_panic(expected = "already has a slot")]
    fn double_insert_panics() {
        let mut a = PeerArena::new();
        a.insert(id(3));
        a.insert(id(3));
    }
}
