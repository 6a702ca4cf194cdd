//! The overlay graph: undirected, with stable node identities.
//!
//! Storage is one table indexed by raw [`NodeId`]: IDs are handed out
//! densely from zero and never reused, so the table's length is the ID
//! watermark, and each entry is either the node's neighbors as one
//! sorted `Vec<NodeId>` or `None` for a removed ID. The row is exposed
//! as a stable [`Graph::neighbor_slice`], one load away from the ID;
//! hot simulation loops borrow it directly (no per-event clone, no tree
//! walk). Node and edge iteration are ascending scans of the table.
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
///
/// An ID is 32 bits wide: IDs are dense from zero, so 2³² of them outlast
/// any run, and every overlay row entry, pending event and registry slot
/// that holds one is half the size a 64-bit ID would make it. Encoders
/// still write the raw value as a `u64` ([`NodeId::raw`]), so checkpoint
/// and trace bytes do not depend on the width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The largest raw value an ID can hold.
    pub const MAX_RAW: u64 = u32::MAX as u64;

    /// The raw numeric value (useful for dense indexing in reports).
    pub const fn raw(self) -> u64 {
        self.0 as u64
    }

    /// The raw value as an index into a table with one entry per ID
    /// ever allocated: how the overlay's rows and the simulators'
    /// per-peer state are addressed.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an ID from its raw value.
    ///
    /// Only meaningful for values previously obtained via
    /// [`NodeId::raw`] on the same graph; probing a graph with arbitrary
    /// in-range values is safe but will usually name an absent node.
    /// Decoders of untrusted bytes check the range first and report a
    /// value past [`NodeId::MAX_RAW`] as an error.
    ///
    /// # Panics
    /// Panics if `raw` exceeds [`NodeId::MAX_RAW`].
    pub const fn from_raw(raw: u64) -> Self {
        assert!(
            raw <= NodeId::MAX_RAW,
            "raw node ID past the 32-bit ID space"
        );
        NodeId(raw as u32)
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
    /// The allocator refused the per-ID tables of a bulk build up to
    /// this ID watermark (see [`Graph::from_edges`]).
    TableAlloc(u64),
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
            GraphError::TableAlloc(watermark) => write!(
                f,
                "cannot allocate per-ID tables up to the ID watermark {watermark}"
            ),
        }
    }
}

impl Error for GraphError {}

/// An undirected overlay graph with deterministic iteration order.
///
/// Node and neighbor iteration follow ascending [`NodeId`] order, so every
/// algorithm that walks the graph is reproducible. Rows live in one table
/// indexed by raw ID (see the module docs): a lookup is one index, and a
/// removed ID keeps a `None` entry, since IDs are never reused.
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
    /// Raw node ID → sorted neighbor IDs (the CSR-style row), or `None`
    /// for a removed ID. The length is the ID watermark.
    rows: Vec<Option<Vec<NodeId>>>,
    node_count: usize,
    edge_count: usize,
    /// Degree and liveness index for joins, built by the first
    /// [`Graph::join_index`] call and kept current by every mutator
    /// after that. Derived state: equality and checkpoints ignore it.
    join_index: Option<JoinIndex>,
}

/// Equality is semantic: same node set and same edges, plus the same ID
/// allocation cursor — so graphs that went through different churn
/// histories but describe the same overlay (and would allocate the same
/// next ID) compare equal, whatever spare capacity their rows hold.
/// Whether the join index has been built does not matter either.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
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
        let ids = (0..n as u64).map(NodeId::from_raw).collect();
        Graph::from_edges(n as u64, ids, []).expect("ascending ids, no edges")
    }

    /// Builds a whole overlay in one pass: nodes `live` (strictly
    /// ascending, every raw value below `watermark`) joined by `edges`,
    /// with the ID watermark — the next ID [`Graph::add_node`] will
    /// allocate — at `watermark`. IDs below the watermark that `live`
    /// omits are dead, as if removed. The watermark sizes a per-ID
    /// table, so callers decoding untrusted input must bound it first;
    /// it is at most 2³², one past [`NodeId::MAX_RAW`].
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
    /// unknown ID. A watermark whose per-ID tables the allocator refuses
    /// is [`GraphError::TableAlloc`], not an abort.
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
    /// // A watermark whose tables cannot be allocated is an error.
    /// let huge = Graph::from_edges(u64::MAX, vec![], []);
    /// assert_eq!(huge, Err(scrip_topology::GraphError::TableAlloc(u64::MAX)));
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_edges<I>(watermark: u64, live: Vec<NodeId>, edges: I) -> Result<Graph, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
        I::IntoIter: Clone,
    {
        let mut previous = None;
        for &id in &live {
            if id.raw() >= watermark || previous.is_some_and(|p| p >= id) {
                return Err(GraphError::UnorderedNode(id));
            }
            previous = Some(id);
        }
        // Both per-ID tables are reserved before they are filled, so a
        // watermark too large to hold is an error, not an abort.
        let refused = || GraphError::TableAlloc(watermark);
        let table = usize::try_from(watermark).map_err(|_| refused())?;
        // Raw ID → degree so far, `None` for a dead ID.
        let mut degrees: Vec<Option<usize>> = Vec::new();
        degrees.try_reserve_exact(table).map_err(|_| refused())?;
        degrees.resize(table, None);
        for id in &live {
            degrees[id.0 as usize] = Some(0);
        }
        let edges = edges.into_iter();
        for (a, b) in edges.clone() {
            if a == b {
                return Err(GraphError::SelfLoop(a));
            }
            for id in [a, b] {
                *degrees
                    .get_mut(id.0 as usize)
                    .and_then(Option::as_mut)
                    .ok_or(GraphError::NoSuchNode(id))? += 1;
            }
        }
        let mut rows: Vec<Option<Vec<NodeId>>> = Vec::new();
        rows.try_reserve_exact(table).map_err(|_| refused())?;
        rows.extend(degrees.into_iter().map(|d| d.map(Vec::with_capacity)));
        for (a, b) in edges {
            rows[a.0 as usize].as_mut().expect("counted").push(b);
            rows[b.0 as usize].as_mut().expect("counted").push(a);
        }
        let mut ends = 0;
        for row in rows.iter_mut().flatten() {
            row.sort_unstable();
            row.dedup();
            ends += row.len();
        }
        Ok(Graph {
            rows,
            node_count: live.len(),
            edge_count: ends / 2,
            join_index: None,
        })
    }

    /// Checks that both endpoints of an edge are live, `a` first.
    fn check_endpoints(&self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        match [a, b].into_iter().find(|&id| !self.has_node(id)) {
            Some(id) => Err(GraphError::NoSuchNode(id)),
            None => Ok(()),
        }
    }

    /// The row of a live node.
    fn row_mut(&mut self, id: NodeId) -> &mut Vec<NodeId> {
        self.rows[id.0 as usize].as_mut().expect("live row")
    }

    /// Adds a node and returns its fresh, never-reused ID.
    ///
    /// # Panics
    /// Panics once every 32-bit ID has been handed out.
    pub fn add_node(&mut self) -> NodeId {
        let raw = u32::try_from(self.rows.len())
            .expect("node ID space exhausted: every 32-bit ID has been allocated");
        let id = NodeId(raw);
        self.rows.push(Some(Vec::new()));
        self.node_count += 1;
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
        let neighbors = self
            .rows
            .get_mut(id.0 as usize)
            .and_then(Option::take)
            .ok_or(GraphError::NoSuchNode(id))?;
        for &nb in &neighbors {
            let row = self.row_mut(nb);
            if let Ok(pos) = row.binary_search(&id) {
                row.remove(pos);
            }
            let degree = row.len();
            if let Some(index) = &mut self.join_index {
                index.set_degree(nb, degree);
            }
        }
        if let Some(index) = &mut self.join_index {
            index.remove_node(id);
        }
        self.node_count -= 1;
        self.edge_count -= neighbors.len();
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
        self.check_endpoints(a, b)?;
        let Err(pos_a) = self.row_mut(a).binary_search(&b) else {
            return Ok(false);
        };
        self.row_mut(a).insert(pos_a, b);
        let row_b = self.row_mut(b);
        let pos_b = row_b.binary_search(&a).expect_err("adjacency symmetric");
        row_b.insert(pos_b, a);
        self.edge_count += 1;
        self.index_degrees(a, b);
        Ok(true)
    }

    /// Removes an undirected edge. Returns `true` if it existed.
    ///
    /// # Errors
    /// Returns [`GraphError::NoSuchNode`] when either endpoint is absent.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, GraphError> {
        self.check_endpoints(a, b)?;
        let Ok(pos_a) = self.row_mut(a).binary_search(&b) else {
            return Ok(false);
        };
        self.row_mut(a).remove(pos_a);
        let row_b = self.row_mut(b);
        let pos_b = row_b.binary_search(&a).expect("adjacency symmetric");
        row_b.remove(pos_b);
        self.edge_count -= 1;
        self.index_degrees(a, b);
        Ok(true)
    }

    /// Brings the join index (if built) up to date with the degrees of
    /// both endpoints of a changed edge.
    fn index_degrees(&mut self, a: NodeId, b: NodeId) {
        if let Some(index) = &mut self.join_index {
            for id in [a, b] {
                let row = self.rows[id.0 as usize].as_ref().expect("live row");
                index.set_degree(id, row.len());
            }
        }
    }

    /// The join index over the current overlay (see [`JoinIndex`]),
    /// built in O(n) on the first call and maintained in O(log n) per
    /// mutation from then on. Graphs that never call this pay nothing.
    pub fn join_index(&mut self) -> &JoinIndex {
        if self.join_index.is_none() {
            let degrees = self.rows.iter().map(|row| row.as_ref().map(Vec::len));
            self.join_index = Some(JoinIndex::build(degrees));
        }
        self.join_index.as_ref().expect("built above")
    }

    /// Whether the node exists.
    pub fn has_node(&self, id: NodeId) -> bool {
        self.neighbor_slice(id).is_some()
    }

    /// Whether an edge exists between `a` and `b`.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbor_slice(a)
            .is_some_and(|row| row.binary_search(&b).is_ok())
    }

    /// The neighbors of `id` as a stable sorted slice, or [`None`] if the
    /// node is absent. This is the zero-copy view the simulation hot
    /// paths borrow; it stays valid until the next graph mutation.
    pub fn neighbor_slice(&self, id: NodeId) -> Option<&[NodeId]> {
        self.rows.get(id.0 as usize)?.as_deref()
    }

    /// The neighbors of `id` in ascending ID order, or [`None`] if the node
    /// is absent.
    pub fn neighbors(&self, id: NodeId) -> Option<impl Iterator<Item = NodeId> + '_> {
        self.neighbor_slice(id).map(|s| s.iter().copied())
    }

    /// The degree of `id`, or [`None`] if absent.
    pub fn degree(&self, id: NodeId) -> Option<usize> {
        self.neighbor_slice(id).map(<[NodeId]>::len)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Heap bytes reserved by the join index once built (≈ 32 B per ID
    /// ever allocated), and 0 before. The rows need no other index:
    /// see [`Graph::adjacency_heap_bytes`] for the row storage.
    pub fn index_heap_bytes(&self) -> usize {
        self.join_index.as_ref().map_or(0, JoinIndex::heap_bytes)
    }

    /// Heap bytes reserved by the adjacency rows: each live row's
    /// capacity × ID width, plus the per-ID table of row headers (dead
    /// IDs included). This is the degree-proportional part of the
    /// footprint (≈ `8 × degree` per peer) that the per-peer *state*
    /// budget in the arena layout audit accounts separately.
    /// Capacities, not lengths — the allocator's view.
    pub fn adjacency_heap_bytes(&self) -> usize {
        let rows: usize = self
            .rows
            .iter()
            .flatten()
            .map(|row| row.capacity() * std::mem::size_of::<NodeId>())
            .sum();
        rows + self.rows.capacity() * std::mem::size_of::<Option<Vec<NodeId>>>()
    }

    /// All node IDs in ascending order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..)
            .zip(&self.rows)
            .filter_map(|(raw, row)| row.as_ref().map(|_| NodeId(raw)))
    }

    /// All edges as `(low, high)` pairs in deterministic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..).zip(&self.rows).flat_map(|(raw, row)| {
            let a = NodeId(raw);
            row.iter()
                .flatten()
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
        let mut visited = vec![false; self.rows.len()];
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
        self.rows.len() as u64
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
        // Remove from the middle, then keep mutating around the dead IDs.
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
        // Same final overlay reached through different edit histories.
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
    fn tombstoned_graph_behaves_like_a_compact_one() {
        // A graph whose removals left dead IDs behind equals the one-pass
        // build of its surviving nodes and edges, and the two stay equal
        // through the same removals from the front, joins and edge edits.
        let mut churned = Graph::with_nodes(8);
        let ids: Vec<NodeId> = churned.node_ids().collect();
        for w in ids.windows(2) {
            churned.add_edge(w[0], w[1]).expect("ok");
        }
        churned.remove_node(ids[2]).expect("live");
        churned.remove_node(ids[5]).expect("live");
        let edges: Vec<(NodeId, NodeId)> = churned.edges().collect();
        let mut compact =
            Graph::from_edges(churned.next_raw_id(), churned.node_ids().collect(), edges)
                .expect("valid overlay");
        assert_eq!(churned, compact);
        for _ in 0..4 {
            let victim = compact.node_ids().next().expect("live");
            assert_eq!(churned.remove_node(victim), compact.remove_node(victim));
            let fresh = churned.add_node();
            assert_eq!(compact.add_node(), fresh);
            let last = ids[7];
            assert_eq!(churned.add_edge(fresh, last), compact.add_edge(fresh, last));
            assert_eq!(
                churned.remove_edge(ids[6], last),
                compact.remove_edge(ids[6], last)
            );
        }
        assert_eq!(churned, compact);
        assert_eq!(churned.node_count(), 6);
        assert_eq!(
            churned.edges().collect::<Vec<_>>(),
            compact.edges().collect::<Vec<_>>()
        );
        assert_eq!(churned.dense_index(), compact.dense_index());
        for raw in 0..churned.next_raw_id() + 2 {
            let id = NodeId::from_raw(raw);
            assert_eq!(churned.neighbor_slice(id), compact.neighbor_slice(id));
        }
    }

    #[test]
    fn join_index_is_invisible_to_clone_and_equality() {
        let (mut indexed, ids) = path_graph(6);
        let mut plain = indexed.clone();
        let before = indexed.index_heap_bytes();
        indexed.join_index();
        assert!(indexed.index_heap_bytes() > before, "index is counted");
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
