//! Structural metrics for overlay graphs.
//!
//! Used to verify that generated overlays match the paper's stated
//! configuration (power-law degrees with `k = 2.5`, mean degree 20) and to
//! report topology statistics in experiments.

use crate::graph::{Graph, NodeId};

/// Mean node degree (0 for the empty graph).
pub fn mean_degree(graph: &Graph) -> f64 {
    if graph.node_count() == 0 {
        return 0.0;
    }
    2.0 * graph.edge_count() as f64 / graph.node_count() as f64
}

/// Maximum node degree (0 for the empty graph).
pub fn max_degree(graph: &Graph) -> usize {
    graph
        .node_ids()
        .filter_map(|id| graph.degree(id))
        .max()
        .unwrap_or(0)
}

/// Minimum node degree (0 for the empty graph).
pub fn min_degree(graph: &Graph) -> usize {
    graph
        .node_ids()
        .filter_map(|id| graph.degree(id))
        .min()
        .unwrap_or(0)
}

/// Maximum-likelihood estimate of the power-law exponent `k` of the degree
/// distribution, using the discrete Clauset–Shalizi–Newman approximation
///
/// ```text
/// k ≈ 1 + n / Σ ln(d_i / (d_min − 0.5))
/// ```
///
/// over nodes with degree ≥ `d_min`. Returns [`None`] if fewer than two
/// nodes qualify.
pub fn power_law_exponent_mle(graph: &Graph, d_min: usize) -> Option<f64> {
    let degrees: Vec<usize> = graph
        .node_ids()
        .filter_map(|id| graph.degree(id))
        .filter(|&d| d >= d_min && d > 0)
        .collect();
    if degrees.len() < 2 || d_min == 0 {
        return None;
    }
    let denom: f64 = degrees
        .iter()
        .map(|&d| (d as f64 / (d_min as f64 - 0.5)).ln())
        .sum();
    if denom <= 0.0 {
        return None;
    }
    Some(1.0 + degrees.len() as f64 / denom)
}

/// Local clustering coefficient of one node: the fraction of its neighbor
/// pairs that are themselves connected. [`None`] if the node is absent;
/// 0.0 for degree < 2.
pub fn local_clustering(graph: &Graph, id: NodeId) -> Option<f64> {
    let neighbors: Vec<NodeId> = graph.neighbors(id)?.collect();
    let d = neighbors.len();
    if d < 2 {
        return Some(0.0);
    }
    let mut closed = 0usize;
    for i in 0..d {
        for j in (i + 1)..d {
            if graph.has_edge(neighbors[i], neighbors[j]) {
                closed += 1;
            }
        }
    }
    Some(2.0 * closed as f64 / (d * (d - 1)) as f64)
}

/// Average of local clustering coefficients over all nodes (0 for the
/// empty graph).
pub fn average_clustering(graph: &Graph) -> f64 {
    let n = graph.node_count();
    if n == 0 {
        return 0.0;
    }
    graph
        .node_ids()
        .map(|id| local_clustering(graph, id).expect("live node"))
        .sum::<f64>()
        / n as f64
}

/// A compact topology report for experiment logs.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyReport {
    /// Node count.
    pub nodes: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// MLE power-law exponent (with `d_min` = observed minimum positive
    /// degree), if estimable.
    pub exponent_mle: Option<f64>,
    /// Average clustering coefficient.
    pub clustering: f64,
    /// Whether the overlay is connected.
    pub connected: bool,
}

impl TopologyReport {
    /// Computes the report for a graph.
    pub fn of(graph: &Graph) -> Self {
        let dmin = min_degree(graph).max(2);
        TopologyReport {
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            mean_degree: mean_degree(graph),
            min_degree: min_degree(graph),
            max_degree: max_degree(graph),
            exponent_mle: power_law_exponent_mle(graph, dmin),
            clustering: average_clustering(graph),
            connected: graph.is_connected(),
        }
    }
}

impl std::fmt::Display for TopologyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodes={} edges={} degree[min/mean/max]={}/{:.2}/{} k_mle={} clustering={:.3} connected={}",
            self.nodes,
            self.edges,
            self.min_degree,
            self.mean_degree,
            self.max_degree,
            self.exponent_mle
                .map(|k| format!("{k:.2}"))
                .unwrap_or_else(|| "n/a".into()),
            self.clustering,
            self.connected
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, ScaleFreeConfig};
    use scrip_des::SimRng;

    #[test]
    fn degrees_of_complete_graph() {
        let g = generators::complete(10);
        assert_eq!(mean_degree(&g), 9.0);
        assert_eq!(max_degree(&g), 9);
        assert_eq!(min_degree(&g), 9);
    }

    #[test]
    fn empty_graph_metrics() {
        let g = Graph::new();
        assert_eq!(mean_degree(&g), 0.0);
        assert_eq!(max_degree(&g), 0);
        assert_eq!(min_degree(&g), 0);
        assert_eq!(average_clustering(&g), 0.0);
    }

    #[test]
    fn clustering_of_triangle_and_path() {
        let mut g = Graph::with_nodes(3);
        let ids: Vec<NodeId> = g.node_ids().collect();
        g.add_edge(ids[0], ids[1]).expect("ok");
        g.add_edge(ids[1], ids[2]).expect("ok");
        // Path: middle node's neighbors unconnected.
        assert_eq!(local_clustering(&g, ids[1]), Some(0.0));
        g.add_edge(ids[0], ids[2]).expect("ok");
        // Triangle: clustering 1 everywhere.
        assert_eq!(local_clustering(&g, ids[1]), Some(1.0));
        assert_eq!(average_clustering(&g), 1.0);
    }

    #[test]
    fn clustering_absent_node_is_none() {
        let g = Graph::new();
        assert_eq!(local_clustering(&g, NodeId::from_raw(7)), None);
    }

    #[test]
    fn mle_recovers_exponent_on_scale_free_overlay() {
        let mut rng = SimRng::seed_from_u64(11);
        let config = ScaleFreeConfig::new(3000).expect("valid");
        let g = generators::scale_free(&config, &mut rng).expect("generated");
        let k = power_law_exponent_mle(&g, 6).expect("estimable");
        // The configuration model + connectivity patching perturbs the tail;
        // accept a generous band around the true 2.5.
        assert!((1.8..=3.2).contains(&k), "estimated exponent {k}");
    }

    #[test]
    fn mle_degenerate_inputs() {
        let g = Graph::with_nodes(5);
        assert_eq!(power_law_exponent_mle(&g, 1), None);
        let g2 = generators::complete(2);
        assert_eq!(power_law_exponent_mle(&g2, 0), None);
    }

    #[test]
    fn report_on_ring() {
        let g = generators::ring(10).expect("valid");
        let r = TopologyReport::of(&g);
        assert_eq!(r.nodes, 10);
        assert_eq!(r.edges, 10);
        assert_eq!(r.mean_degree, 2.0);
        assert!(r.connected);
        assert_eq!(r.clustering, 0.0);
        let text = r.to_string();
        assert!(text.contains("nodes=10"));
        assert!(text.contains("connected=true"));
    }
}
