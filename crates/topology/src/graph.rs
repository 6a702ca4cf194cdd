//! The overlay graph: undirected, with stable node identities.
//!
//! Storage is CSR-style: each live node occupies a dense *slot* and its
//! neighbors live in one sorted `Vec<NodeId>`, exposed as a stable
//! [`Graph::neighbor_slice`]. Hot simulation loops borrow that slice
//! directly (no per-event clone, no tree walk).
//!
//! A graph is built in one of two ways. Whole overlays — the
//! generators' edge lists and checkpoint decode — go through
//! [`Graph::from_edges`] in one pass: count degrees, allocate every row
//! at its exact size, push both directions, then sort and deduplicate
//! each row, O(E log d) in all. Churn and the generators that must
//! query the graph while they build it ([`crate::generators::random_regular`])
//! mutate it incrementally: [`Graph::add_edge`] and
//! [`Graph::remove_edge`] binary-search insert into or remove from the
//! two sorted rows, O(d) each, so neighborhoods are never rebuilt.
//! Both routes give equal graphs for the same edge list.

use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;

use crate::join_index::JoinIndex;

/// A stable identifier for an overlay node.
///
/// IDs are allocated by [`Graph::add_node`] and are **never reused**, so a
/// departed peer's ID cannot be confused with a later joiner's — essential
/// for churn experiments where per-peer wallets outlive topology changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u64);

impl NodeId {
    /// The raw numeric value (useful for dense indexing in reports).
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an ID from its raw value.
    ///
    /// Only meaningful for values previously obtained via
    /// [`NodeId::raw`] on the same graph; probing a graph with arbitrary
    /// values is safe but will usually name an absent node.
    pub const fn from_raw(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors returned by graph mutations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The referenced node does not exist (or no longer exists).
    NoSuchNode(NodeId),
    /// Self-loops are not allowed in an overlay.
    SelfLoop(NodeId),
    /// A bulk-built node list was not strictly ascending below the ID
    /// watermark at this node (see [`Graph::from_edges`]).
    UnorderedNode(NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NoSuchNode(id) => write!(f, "no such node: {id}"),
            GraphError::SelfLoop(id) => write!(f, "self-loop rejected at {id}"),
            GraphError::UnorderedNode(id) => write!(
                f,
                "node list not strictly ascending below the ID watermark at {id}"
            ),
        }
    }
}

impl Error for GraphError {}

/// An undirected overlay graph with deterministic iteration order.
///
/// Node and neighbor iteration follow ascending [`NodeId`] order, so every
/// algorithm that walks the graph is reproducible.
///
/// ```
/// use scrip_topology::Graph;
///
/// # fn main() -> Result<(), scrip_topology::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_edge(a, b)?;
/// assert_eq!(g.degree(a), Some(1));
/// assert!(g.has_edge(a, b));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    // The slot-map discipline below (id_to_slot + swap-remove with
    // moved-slot repointing) mirrors scrip-core's PeerArena; a fix to
    // the bookkeeping in one likely applies to the other.
    /// Dense slot → node ID (swap-removed on node removal).
    slot_ids: Vec<NodeId>,
    /// Raw node ID → slot; [`ABSENT`] marks removed/unknown IDs.
    id_to_slot: Vec<u32>,
    /// Slot → sorted neighbor IDs (the CSR-style row).
    adjacency: Vec<Vec<NodeId>>,
    /// Ascending ID list backing [`Graph::node_ids`]. May contain
    /// tombstones — IDs whose `id_to_slot` entry is [`ABSENT`] — left
    /// behind by [`Graph::remove_node`], which marks instead of
    /// memmoving the tail (a removal near the front of a million-node
    /// list would otherwise shift the whole suffix). Compacted once
    /// tombstones outnumber live entries, so removal is O(log n)
    /// amortized and iteration stays within 2× the live count.
    sorted_ids: Vec<NodeId>,
    /// Number of tombstones currently in `sorted_ids`.
    dead_sorted: usize,
    next_id: u64,
    edge_count: usize,
    /// Degree and liveness index for joins, built by the first
    /// [`Graph::join_index`] call and kept current by every mutator
    /// after that. Derived state: equality and checkpoints ignore it.
    join_index: Option<JoinIndex>,
}

/// Slot sentinel for IDs that are not (or no longer) in the graph.
const ABSENT: u32 = u32::MAX;

/// Equality is semantic: same node set and same edges, plus the same ID
/// allocation cursor — independent of slot layout, so graphs that went
/// through different churn histories but describe the same overlay (and
/// would allocate the same next ID) compare equal. Whether the join
/// index has been built does not matter either.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.next_id == other.next_id
            && self.edge_count == other.edge_count
            && self.node_ids().eq(other.node_ids())
            && self
                .node_ids()
                .all(|id| self.neighbor_slice(id) == other.neighbor_slice(id))
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes (IDs `0..n`).
    pub fn with_nodes(n: usize) -> Self {
        let ids = (0..n as u64).map(NodeId).collect();
        Graph::from_edges(n as u64, ids, []).expect("ascending ids, no edges")
    }

    /// Builds a whole overlay in one pass: nodes `live` (strictly
    /// ascending, every raw value below `watermark`) joined by `edges`,
    /// with the ID watermark — the next ID [`Graph::add_node`] will
    /// allocate — at `watermark`. IDs below the watermark that `live`
    /// omits are dead, as if removed.
    ///
    /// The result equals folding [`Graph::add_edge`] over `edges` on a
    /// graph holding exactly those nodes: parallel edges (in either
    /// orientation) collapse into one. It is built without any sorted
    /// insert — degrees are counted first, each row is allocated once
    /// and filled, then sorted and deduplicated — so the cost is
    /// O(E log d) rather than the O(E · d) of per-edge inserts into hub
    /// rows. `edges` is walked twice, hence the `Clone` bound.
    ///
    /// # Errors
    /// Returns [`GraphError::UnorderedNode`] at the first node of `live`
    /// that is not above its predecessor or not below `watermark`, and
    /// otherwise the error the first offending [`Graph::add_edge`] call
    /// would return: [`GraphError::SelfLoop`] when an edge joins a node
    /// to itself, [`GraphError::NoSuchNode`] when it names a dead or
    /// unknown ID.
    ///
    /// ```
    /// use scrip_topology::{Graph, NodeId};
    ///
    /// # fn main() -> Result<(), scrip_topology::GraphError> {
    /// let id = NodeId::from_raw;
    /// // Nodes 0, 2, 3 live, node 1 dead; the duplicate edge collapses.
    /// let edges = [(id(0), id(2)), (id(3), id(0)), (id(2), id(0))];
    /// let g = Graph::from_edges(4, vec![id(0), id(2), id(3)], edges)?;
    /// assert_eq!(g.edge_count(), 2);
    /// assert_eq!(g.neighbor_slice(id(0)), Some(&[id(2), id(3)][..]));
    /// assert_eq!(g.next_raw_id(), 4);
    /// assert!(Graph::from_edges(4, vec![id(0)], [(id(0), id(1))]).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_edges<I>(watermark: u64, live: Vec<NodeId>, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        I::IntoIter: Clone,
    {
        let mut id_to_slot = Vec::new();
        let mut previous = None;
        for (slot, &id) in live.iter().enumerate() {
            if id.0 >= watermark || previous.is_some_and(|p| p >= id) {
                return Err(GraphError::UnorderedNode(id));
            }
            id_to_slot.resize(id.0 as usize, ABSENT);
            id_to_slot.push(slot as u32);
            previous = Some(id);
        }
        id_to_slot.resize(watermark as usize, ABSENT);
        let mut graph = Graph {
            sorted_ids: live.clone(),
            slot_ids: live,
            id_to_slot,
            next_id: watermark,
            ..Graph::default()
        };
        let slot = |id| graph.slot(id).ok_or(GraphError::NoSuchNode(id));
        let edges = edges.into_iter();
        let mut degrees = vec![0usize; graph.node_count()];
        for (a, b) in edges.clone() {
            if a == b {
                return Err(GraphError::SelfLoop(a));
            }
            degrees[slot(a)?] += 1;
            degrees[slot(b)?] += 1;
        }
        let mut adjacency: Vec<Vec<NodeId>> = degrees.into_iter().map(Vec::with_capacity).collect();
        for (a, b) in edges {
            adjacency[slot(a)?].push(b);
            adjacency[slot(b)?].push(a);
        }
        for row in &mut adjacency {
            row.sort_unstable();
            row.dedup();
        }
        graph.edge_count = adjacency.iter().map(Vec::len).sum::<usize>() / 2;
        graph.adjacency = adjacency;
        Ok(graph)
    }

    /// The slot of a live node, if any.
    fn slot(&self, id: NodeId) -> Option<usize> {
        match self.id_to_slot.get(id.0 as usize) {
            Some(&s) if s != ABSENT => Some(s as usize),
            _ => None,
        }
    }

    /// Adds a node and returns its fresh, never-reused ID.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        debug_assert_eq!(self.id_to_slot.len() as u64, id.0);
        self.id_to_slot.push(self.slot_ids.len() as u32);
        self.slot_ids.push(id);
        self.adjacency.push(Vec::new());
        // Fresh IDs are the largest ever allocated: push keeps the order.
        self.sorted_ids.push(id);
        if let Some(index) = &mut self.join_index {
            index.push_node();
        }
        id
    }

    /// Removes a node and all incident edges, returning its former
    /// neighbors (ascending).
    ///
    /// # Errors
    /// Returns [`GraphError::NoSuchNode`] if the node is absent.
    pub fn remove_node(&mut self, id: NodeId) -> Result<Vec<NodeId>, GraphError> {
        let slot = self.slot(id).ok_or(GraphError::NoSuchNode(id))?;
        let neighbors = std::mem::take(&mut self.adjacency[slot]);
        for &nb in &neighbors {
            let nb_slot = self.slot(nb).expect("adjacency symmetric");
            let row = &mut self.adjacency[nb_slot];
            if let Ok(pos) = row.binary_search(&id) {
                row.remove(pos);
            }
            if let Some(index) = &mut self.join_index {
                index.set_degree(nb, row.len());
            }
        }
        if let Some(index) = &mut self.join_index {
            index.remove_node(id);
        }
        self.edge_count -= neighbors.len();
        // Swap-remove the slot and repoint the node that moved into it.
        self.adjacency.swap_remove(slot);
        self.slot_ids.swap_remove(slot);
        if let Some(&moved) = self.slot_ids.get(slot) {
            self.id_to_slot[moved.0 as usize] = slot as u32;
        }
        self.id_to_slot[id.0 as usize] = ABSENT;
        // Tombstone the sorted-ID entry instead of memmoving the tail;
        // compact once the dead outnumber the living.
        self.dead_sorted += 1;
        if self.dead_sorted * 2 > self.sorted_ids.len() {
            let id_to_slot = &self.id_to_slot;
            self.sorted_ids
                .retain(|nid| id_to_slot[nid.0 as usize] != ABSENT);
            self.dead_sorted = 0;
        }
        Ok(neighbors)
    }

    /// Adds an undirected edge. Returns `true` if the edge was new.
    ///
    /// # Errors
    /// Returns [`GraphError::SelfLoop`] when `a == b` and
    /// [`GraphError::NoSuchNode`] when either endpoint is absent.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        let slot_a = self.slot(a).ok_or(GraphError::NoSuchNode(a))?;
        let slot_b = self.slot(b).ok_or(GraphError::NoSuchNode(b))?;
        let Err(pos_a) = self.adjacency[slot_a].binary_search(&b) else {
            return Ok(false);
        };
        self.adjacency[slot_a].insert(pos_a, b);
        let pos_b = self.adjacency[slot_b]
            .binary_search(&a)
            .expect_err("adjacency symmetric");
        self.adjacency[slot_b].insert(pos_b, a);
        self.edge_count += 1;
        self.index_degrees(a, slot_a, b, slot_b);
        Ok(true)
    }

    /// Removes an undirected edge. Returns `true` if it existed.
    ///
    /// # Errors
    /// Returns [`GraphError::NoSuchNode`] when either endpoint is absent.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, GraphError> {
        let slot_a = self.slot(a).ok_or(GraphError::NoSuchNode(a))?;
        let slot_b = self.slot(b).ok_or(GraphError::NoSuchNode(b))?;
        let Ok(pos_a) = self.adjacency[slot_a].binary_search(&b) else {
            return Ok(false);
        };
        self.adjacency[slot_a].remove(pos_a);
        let pos_b = self.adjacency[slot_b]
            .binary_search(&a)
            .expect("adjacency symmetric");
        self.adjacency[slot_b].remove(pos_b);
        self.edge_count -= 1;
        self.index_degrees(a, slot_a, b, slot_b);
        Ok(true)
    }

    /// Brings the join index (if built) up to date with the degrees of
    /// both endpoints of a changed edge.
    fn index_degrees(&mut self, a: NodeId, slot_a: usize, b: NodeId, slot_b: usize) {
        if let Some(index) = &mut self.join_index {
            index.set_degree(a, self.adjacency[slot_a].len());
            index.set_degree(b, self.adjacency[slot_b].len());
        }
    }

    /// The join index over the current overlay (see [`JoinIndex`]),
    /// built in O(n) on the first call and maintained in O(log n) per
    /// mutation from then on. Graphs that never call this pay nothing.
    pub fn join_index(&mut self) -> &JoinIndex {
        if self.join_index.is_none() {
            let degrees = (0..self.next_id as usize).map(|raw| self.degree(NodeId(raw as u64)));
            self.join_index = Some(JoinIndex::build(degrees));
        }
        self.join_index.as_ref().expect("built above")
    }

    /// Whether the node exists.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.slot(id).is_some()
    }

    /// Whether an edge exists between `a` and `b`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.slot(a)
            .map(|s| self.adjacency[s].binary_search(&b).is_ok())
            .unwrap_or(false)
    }

    /// The neighbors of `id` as a stable sorted slice, or [`None`] if the
    /// node is absent. This is the zero-copy view the simulation hot
    /// paths borrow; it stays valid until the next graph mutation.
    pub fn neighbor_slice(&self, id: NodeId) -> Option<&[NodeId]> {
        self.slot(id).map(|s| self.adjacency[s].as_slice())
    }

    /// The neighbors of `id` in ascending ID order, or [`None`] if the node
    /// is absent.
    pub fn neighbors(&self, id: NodeId) -> Option<impl Iterator<Item = NodeId> + '_> {
        self.neighbor_slice(id).map(|s| s.iter().copied())
    }

    /// The degree of `id`, or [`None`] if absent.
    pub fn degree(&self, id: NodeId) -> Option<usize> {
        self.slot(id).map(|s| self.adjacency[s].len())
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.slot_ids.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Heap bytes reserved by the slot bookkeeping (slot ↔ ID maps, the
    /// sorted live-ID list and, once built, the join index), excluding
    /// adjacency rows. Capacities, not lengths — the allocator's view.
    /// See [`Graph::adjacency_heap_bytes`] for the row storage.
    pub fn slot_map_heap_bytes(&self) -> usize {
        self.slot_ids.capacity() * std::mem::size_of::<NodeId>()
            + self.id_to_slot.capacity() * std::mem::size_of::<u32>()
            + self.sorted_ids.capacity() * std::mem::size_of::<NodeId>()
            + self.join_index.as_ref().map_or(0, JoinIndex::heap_bytes)
    }

    /// Heap bytes reserved by the CSR-style adjacency rows: each row's
    /// capacity × ID width, plus the outer `Vec`'s row headers. This is
    /// the degree-proportional part of the footprint (≈ `8 × degree`
    /// per peer) that the per-peer *state* budget in the arena layout
    /// audit accounts separately.
    pub fn adjacency_heap_bytes(&self) -> usize {
        let rows: usize = self
            .adjacency
            .iter()
            .map(|row| row.capacity() * std::mem::size_of::<NodeId>())
            .sum();
        rows + self.adjacency.capacity() * std::mem::size_of::<Vec<NodeId>>()
    }

    /// All node IDs in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.sorted_ids
            .iter()
            .copied()
            .filter(|&id| self.slot(id).is_some())
    }

    /// All edges as `(low, high)` pairs in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        // Tombstoned IDs have no neighbor slice, so they contribute
        // nothing without an explicit liveness filter.
        self.sorted_ids.iter().flat_map(move |&a| {
            self.neighbor_slice(a)
                .unwrap_or(&[])
                .iter()
                .copied()
                .filter(move |&b| a < b)
                .map(move |b| (a, b))
        })
    }

    /// Whether every node can reach every other node (the empty graph is
    /// considered connected).
    pub fn is_connected(&self) -> bool {
        self.connected_components().len() <= 1
    }

    /// The connected components, each a sorted vector of node IDs; the
    /// components themselves are sorted by their smallest member.
    pub fn connected_components(&self) -> Vec<Vec<NodeId>> {
        // Visited flags by raw ID: O(1) probes where a set would cost a
        // tree walk per neighbor.
        let mut visited = vec![false; self.next_id as usize];
        let mut components = Vec::new();
        let mut queue = VecDeque::new();
        for start in self.node_ids() {
            if std::mem::replace(&mut visited[start.0 as usize], true) {
                continue;
            }
            let mut component = Vec::new();
            queue.push_back(start);
            while let Some(node) = queue.pop_front() {
                component.push(node);
                for &nb in self.neighbor_slice(node).unwrap_or(&[]) {
                    if !std::mem::replace(&mut visited[nb.0 as usize], true) {
                        queue.push_back(nb);
                    }
                }
            }
            component.sort_unstable();
            components.push(component);
        }
        components
    }

    /// The raw value the next [`Graph::add_node`] call will allocate.
    ///
    /// Since IDs are handed out densely from zero and never reused,
    /// every ID ever allocated is `< next_raw_id()` — the watermark
    /// lets layered state (such as wallet mirrors) detect freshly
    /// added nodes by comparing watermarks around a mutation.
    pub fn next_raw_id(&self) -> u64 {
        self.next_id
    }

    /// A dense index for the current node set: maps each live [`NodeId`] to
    /// `0..node_count()` in ascending ID order. Matrix-based analytics
    /// (transfer matrices, utilization vectors) use this to address rows.
    pub fn dense_index(&self) -> BTreeMap<NodeId, usize> {
        self.node_ids().enumerate().map(|(i, id)| (id, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..n).map(|_| g.add_node()).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).expect("valid edge");
        }
        (g, ids)
    }

    #[test]
    fn add_and_remove_nodes() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert_eq!(g.node_count(), 2);
        assert!(g.has_node(a));
        g.remove_node(a).expect("a exists");
        assert!(!g.has_node(a));
        assert!(g.has_node(b));
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn node_ids_are_never_reused() {
        let mut g = Graph::new();
        let a = g.add_node();
        g.remove_node(a).expect("exists");
        let b = g.add_node();
        assert_ne!(a, b);
    }

    #[test]
    fn edges_are_symmetric() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(g.add_edge(a, b).expect("ok"));
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert_eq!(g.edge_count(), 1);
        // Duplicate insertion is a no-op.
        assert!(!g.add_edge(b, a).expect("ok"));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = Graph::new();
        let a = g.add_node();
        assert_eq!(g.add_edge(a, a), Err(GraphError::SelfLoop(a)));
    }

    #[test]
    fn missing_nodes_rejected() {
        let mut g = Graph::new();
        let a = g.add_node();
        let ghost = NodeId(999);
        assert_eq!(g.add_edge(a, ghost), Err(GraphError::NoSuchNode(ghost)));
        assert_eq!(g.remove_edge(ghost, a), Err(GraphError::NoSuchNode(ghost)));
        assert_eq!(g.remove_node(ghost), Err(GraphError::NoSuchNode(ghost)));
    }

    #[test]
    fn remove_node_cleans_incident_edges() {
        let (mut g, ids) = path_graph(3);
        let removed_neighbors = g.remove_node(ids[1]).expect("exists");
        assert_eq!(removed_neighbors, vec![ids[0], ids[2]]);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(ids[0]), Some(0));
        assert_eq!(g.degree(ids[2]), Some(0));
    }

    #[test]
    fn remove_edge_roundtrip() {
        let (mut g, ids) = path_graph(2);
        assert!(g.remove_edge(ids[0], ids[1]).expect("ok"));
        assert!(!g.has_edge(ids[0], ids[1]));
        assert!(!g.remove_edge(ids[0], ids[1]).expect("ok"));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn neighbors_sorted() {
        let mut g = Graph::new();
        let hub = g.add_node();
        let mut spokes: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        spokes.reverse();
        for &s in &spokes {
            g.add_edge(hub, s).expect("ok");
        }
        let nbrs: Vec<NodeId> = g.neighbors(hub).expect("exists").collect();
        let mut sorted = nbrs.clone();
        sorted.sort_unstable();
        assert_eq!(nbrs, sorted);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let (g, _) = path_graph(4);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (a, b) in edges {
            assert!(a < b);
        }
    }

    #[test]
    fn connectivity() {
        let (mut g, ids) = path_graph(4);
        assert!(g.is_connected());
        g.remove_edge(ids[1], ids[2]).expect("ok");
        assert!(!g.is_connected());
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![ids[0], ids[1]]);
        assert_eq!(comps[1], vec![ids[2], ids[3]]);
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new().is_connected());
    }

    #[test]
    fn dense_index_is_ascending() {
        let mut g = Graph::with_nodes(5);
        let ids: Vec<NodeId> = g.node_ids().collect();
        g.remove_node(ids[2]).expect("exists");
        let index = g.dense_index();
        assert_eq!(index.len(), 4);
        assert_eq!(index[&ids[0]], 0);
        assert_eq!(index[&ids[1]], 1);
        assert_eq!(index[&ids[3]], 2);
        assert_eq!(index[&ids[4]], 3);
    }

    #[test]
    fn neighbor_slice_is_sorted_and_tracks_mutations() {
        let mut g = Graph::new();
        let hub = g.add_node();
        let mut spokes: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        spokes.reverse();
        for &s in &spokes {
            g.add_edge(hub, s).expect("ok");
        }
        let slice = g.neighbor_slice(hub).expect("live");
        let mut sorted = slice.to_vec();
        sorted.sort_unstable();
        assert_eq!(slice, sorted.as_slice());
        // Slice agrees with the iterator view.
        let via_iter: Vec<NodeId> = g.neighbors(hub).expect("live").collect();
        assert_eq!(slice, via_iter.as_slice());
        let victim = sorted[2];
        g.remove_edge(hub, victim).expect("ok");
        assert!(!g.neighbor_slice(hub).expect("live").contains(&victim));
        assert_eq!(g.neighbor_slice(NodeId(999)), None);
    }

    #[test]
    fn slot_bookkeeping_survives_interleaved_churn() {
        let mut g = Graph::with_nodes(6);
        let ids: Vec<NodeId> = g.node_ids().collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]).expect("ok");
        }
        // Remove from the middle (exercises swap-remove repointing), then
        // keep mutating through the moved slots.
        g.remove_node(ids[1]).expect("live");
        g.remove_node(ids[4]).expect("live");
        let fresh = g.add_node();
        g.add_edge(fresh, ids[0]).expect("ok");
        g.add_edge(fresh, ids[5]).expect("ok");
        let live: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(live, vec![ids[0], ids[2], ids[3], ids[5], fresh]);
        assert_eq!(g.degree(ids[0]), Some(1));
        assert_eq!(g.degree(ids[2]), Some(1));
        assert_eq!(g.degree(ids[3]), Some(1));
        assert_eq!(g.degree(fresh), Some(2));
        assert!(g.has_edge(ids[5], fresh));
        assert!(!g.has_node(ids[1]));
        assert_eq!(
            g.edge_count(),
            g.node_ids()
                .map(|id| g.degree(id).expect("live"))
                .sum::<usize>()
                / 2
        );
    }

    #[test]
    fn equality_is_layout_independent() {
        // Same final overlay reached through different slot histories.
        let mut a = Graph::with_nodes(4);
        let ids: Vec<NodeId> = a.node_ids().collect();
        a.add_edge(ids[0], ids[2]).expect("ok");
        a.add_edge(ids[2], ids[3]).expect("ok");
        a.remove_node(ids[1]).expect("live");

        let mut b = Graph::with_nodes(4);
        b.remove_node(ids[1]).expect("live");
        b.add_edge(ids[2], ids[3]).expect("ok");
        b.add_edge(ids[0], ids[2]).expect("ok");

        assert_eq!(a, b);
        b.remove_edge(ids[0], ids[2]).expect("ok");
        assert_ne!(a, b);
    }

    #[test]
    fn removal_tombstones_instead_of_memmoving() {
        // Pin of the churn-leave cost model: `remove_node` must not
        // shift the sorted-ID suffix on every call (O(n) per leave).
        // Structurally that means the backing list keeps its length —
        // tombstones in place — until the amortized compaction point,
        // where it snaps back to exactly the live count.
        let n = 1_000;
        let mut g = Graph::with_nodes(n);
        let ids: Vec<NodeId> = g.node_ids().collect();
        // Remove nodes from the *front* — the worst case for a
        // memmove-based list — while staying under the compaction
        // threshold (dead ≤ half).
        for &id in ids.iter().take(n / 2) {
            g.remove_node(id).expect("live");
            assert_eq!(
                g.sorted_ids.len(),
                n,
                "a removal memmoved the sorted-ID list"
            );
        }
        assert_eq!(g.dead_sorted, n / 2);
        assert_eq!(g.node_count(), n - n / 2);
        // One more removal tips the balance and compacts to live-only.
        g.remove_node(ids[n / 2]).expect("live");
        assert_eq!(g.sorted_ids.len(), g.node_count());
        assert_eq!(g.dead_sorted, 0);
        // Iteration and lookups see only the living, in order.
        let live: Vec<NodeId> = g.node_ids().collect();
        assert_eq!(live, ids[n / 2 + 1..].to_vec());
        assert!(!g.has_node(ids[0]));
        assert!(g.has_node(ids[n - 1]));
    }

    #[test]
    fn tombstoned_graph_behaves_like_a_compact_one() {
        // Interleave removals (leaving tombstones) with edge mutations
        // and equality checks against a graph built compactly.
        let mut churned = Graph::with_nodes(8);
        let ids: Vec<NodeId> = churned.node_ids().collect();
        for w in ids.windows(2) {
            churned.add_edge(w[0], w[1]).expect("ok");
        }
        churned.remove_node(ids[2]).expect("live");
        churned.remove_node(ids[5]).expect("live");
        assert!(churned.dead_sorted > 0, "tombstones present");

        let mut compact = Graph::with_nodes(8);
        for w in ids.windows(2) {
            compact.add_edge(w[0], w[1]).expect("ok");
        }
        compact.remove_node(ids[5]).expect("live");
        compact.remove_node(ids[2]).expect("live");
        // Force the compact twin through its compaction point too.
        while compact.dead_sorted > 0 {
            let victim = compact.node_ids().next().expect("live");
            compact.remove_node(victim).expect("live");
            churned.remove_node(victim).expect("live");
        }
        assert_eq!(churned, compact);
        assert_eq!(
            churned.edges().collect::<Vec<_>>(),
            compact.edges().collect::<Vec<_>>()
        );
        assert_eq!(churned.dense_index(), compact.dense_index());
    }

    #[test]
    fn join_index_is_invisible_to_clone_and_equality() {
        let (mut indexed, ids) = path_graph(6);
        let mut plain = indexed.clone();
        let before = indexed.slot_map_heap_bytes();
        indexed.join_index();
        assert!(indexed.slot_map_heap_bytes() > before, "index is counted");
        assert_eq!(indexed, plain);
        // A clone carries the built index; the same edits keep all three
        // equal, and the carried index agrees with a lazily built one.
        let mut copy = indexed.clone();
        for g in [&mut indexed, &mut copy, &mut plain] {
            g.remove_node(ids[2]).expect("live");
            let fresh = g.add_node();
            g.add_edge(fresh, ids[5]).expect("ok");
            g.remove_edge(ids[0], ids[1]).expect("ok");
        }
        assert_eq!(indexed, plain);
        assert_eq!(copy, plain);
        let carried = copy.join_index().clone();
        let rebuilt = plain.join_index();
        assert_eq!(carried.len(), rebuilt.len());
        assert_eq!(carried.degree_total(), rebuilt.degree_total());
        assert_eq!(rebuilt.degree_total(), (6 + 2 * 3) as f64);
        for rank in 0..rebuilt.len() {
            assert_eq!(carried.nth(rank), rebuilt.nth(rank));
        }
    }

    #[test]
    fn degree_pick_falls_back_to_the_largest_live_id() {
        // The largest raw id is dead: a target at or past the total must
        // select the largest *live* id, as the linear walk did.
        let (mut g, ids) = path_graph(5);
        g.remove_node(ids[4]).expect("live");
        let index = g.join_index();
        let total = index.degree_total();
        assert_eq!(total, (4 + 2 * 3) as f64);
        assert_eq!(index.pick_by_degree(0.0), ids[0]);
        assert_eq!(index.pick_by_degree(2.0), ids[1]); // boundary moves right
        assert_eq!(index.pick_by_degree(total - 0.5), ids[3]);
        assert_eq!(index.pick_by_degree(total), ids[3]);
        assert_eq!(index.pick_by_degree(total * 4.0), ids[3]);
    }

    #[test]
    fn display_formats() {
        let mut g = Graph::new();
        let a = g.add_node();
        assert_eq!(a.to_string(), "n0");
        assert_eq!(GraphError::NoSuchNode(a).to_string(), "no such node: n0");
        assert_eq!(
            GraphError::SelfLoop(a).to_string(),
            "self-loop rejected at n0"
        );
    }
}
