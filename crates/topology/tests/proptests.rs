//! Property-based tests for overlay graphs and generators.

use proptest::prelude::*;
use scrip_des::SimRng;
use scrip_topology::churn::ChurnTopology;
use scrip_topology::generators::{self, ScaleFreeConfig};
use scrip_topology::metrics;
use scrip_topology::Graph;

proptest! {
    /// The handshake lemma holds under arbitrary edit sequences.
    #[test]
    fn degree_sum_equals_twice_edges(ops in prop::collection::vec((0u8..3, 0usize..20, 0usize..20), 1..200)) {
        let mut g = Graph::with_nodes(20);
        let ids: Vec<_> = g.node_ids().collect();
        for (op, a, b) in ops {
            match op {
                0 => { let _ = g.add_edge(ids[a], ids[b]); }
                1 => { let _ = g.remove_edge(ids[a], ids[b]); }
                _ => {}
            }
        }
        let degree_sum: usize = g.node_ids().filter_map(|id| g.degree(id)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    /// Scale-free overlays are connected with at least the minimum
    /// degree honoured on average.
    #[test]
    fn scale_free_always_connected(n in 10usize..150, seed in 0u64..50) {
        let mut rng = SimRng::seed_from_u64(seed);
        let config = ScaleFreeConfig::new(n).expect("valid");
        let g = generators::scale_free(&config, &mut rng).expect("generated");
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.is_connected());
    }

    /// Random regular graphs have exactly the requested degree.
    #[test]
    fn random_regular_exact(n in 4usize..40, d in 2usize..6, seed in 0u64..20) {
        prop_assume!(n * d % 2 == 0 && d < n);
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::random_regular(n, d, &mut rng).expect("generated");
        for id in g.node_ids() {
            prop_assert_eq!(g.degree(id), Some(d));
        }
    }

    /// Churn preserves graph invariants: no self-loops, symmetric edges,
    /// handshake lemma.
    #[test]
    fn churn_preserves_invariants(rounds in 1usize..100, seed in 0u64..30) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut g = generators::complete(10);
        let churn = ChurnTopology::new(5);
        for i in 0..rounds {
            if i % 2 == 0 {
                churn.join(&mut g, &mut rng);
            } else if g.node_count() > 2 {
                let ids: Vec<_> = g.node_ids().collect();
                let victim = ids[rng.index(ids.len())];
                churn.leave(&mut g, victim).expect("live");
            }
        }
        let degree_sum: usize = g.node_ids().filter_map(|id| g.degree(id)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        for id in g.node_ids() {
            prop_assert!(!g.has_edge(id, id));
        }
    }

    /// Mean degree matches the handshake identity.
    #[test]
    fn mean_degree_identity(n in 2usize..40, p in 0.0f64..1.0, seed in 0u64..20) {
        let mut rng = SimRng::seed_from_u64(seed);
        let g = generators::erdos_renyi(n, p, &mut rng).expect("generated");
        let expected = 2.0 * g.edge_count() as f64 / n as f64;
        prop_assert!((metrics::mean_degree(&g) - expected).abs() < 1e-12);
    }
}
