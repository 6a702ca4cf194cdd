//! Property-based tests for overlay graphs and generators.

use proptest::prelude::*;
use rand::Rng;
use scrip_des::SimRng;
use scrip_topology::churn::{AttachmentRule, ChurnTopology};
use scrip_topology::generators::{self, ScaleFreeConfig};
use scrip_topology::metrics;
use scrip_topology::{Graph, NodeId};

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

// ---------------------------------------------------------------------
// Join-index equivalence. The functions below are the O(n) joins the
// join index replaced, kept verbatim as references: every draw the
// index makes must select what they select and consume the RNG exactly
// as they do.
// ---------------------------------------------------------------------

/// The O(n) `ChurnTopology::join`: collect the live ids, then shuffle
/// them (`Uniform`) or walk their `degree + 1` weights (`Preferential`).
fn reference_join(churn: &ChurnTopology, graph: &mut Graph, rng: &mut SimRng) -> NodeId {
    let existing: Vec<NodeId> = graph.node_ids().collect();
    let new = graph.add_node();
    if existing.is_empty() {
        return new;
    }
    let want = churn.attach_degree.min(existing.len()).max(1);
    match churn.rule {
        AttachmentRule::Uniform => {
            let mut pool = existing;
            for i in 0..want {
                let j = rng.gen_range(i..pool.len());
                pool.swap(i, j);
            }
            for &nb in &pool[..want] {
                graph.add_edge(new, nb).expect("distinct live nodes");
            }
        }
        AttachmentRule::Preferential => {
            let weights: Vec<f64> = existing
                .iter()
                .map(|&id| (graph.degree(id).unwrap_or(0) + 1) as f64)
                .collect();
            let total: f64 = weights.iter().sum();
            let mut chosen: Vec<NodeId> = Vec::with_capacity(want);
            let mut guard = 0usize;
            while chosen.len() < want && guard < 1000 * want {
                guard += 1;
                let target = rng.gen::<f64>() * total;
                let pick = reference_walk(&existing, &weights, target);
                if !chosen.contains(&pick) {
                    chosen.push(pick);
                }
            }
            for &nb in &chosen {
                graph.add_edge(new, nb).expect("distinct live nodes");
            }
        }
    }
    new
}

/// The O(n) preferential walk for one target, including its fallback
/// to the last (largest) live id when the target reaches the total.
fn reference_walk(existing: &[NodeId], weights: &[f64], mut target: f64) -> NodeId {
    let mut pick = existing[existing.len() - 1];
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            pick = existing[i];
            break;
        }
        target -= w;
    }
    pick
}

/// The streaming market's O(n) join shuffle: a partial Fisher–Yates
/// over the collected live ids with `index(len - i) + i` draws.
fn reference_streaming_pick(graph: &Graph, attach: usize, rng: &mut SimRng) -> Vec<NodeId> {
    let mut pool: Vec<NodeId> = graph.node_ids().collect();
    let want = attach.min(pool.len());
    for i in 0..want {
        let j = rng.index(pool.len() - i) + i;
        pool.swap(i, j);
    }
    pool.truncate(want);
    pool
}

/// A random overlay with isolated nodes, tombstones and (often) a
/// compacted sorted-id list: an Erdős–Rényi graph edited by `ops`.
fn churned_graph(n: usize, p: f64, seed: u64, ops: &[(u8, usize, usize)]) -> Graph {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut g = generators::erdos_renyi(n, p, &mut rng).expect("generated");
    for &(op, a, b) in ops {
        edit(&mut g, op, a, b);
    }
    g
}

/// One random edit, addressing nodes by rank among the live ids.
fn edit(g: &mut Graph, op: u8, a: usize, b: usize) {
    let ids: Vec<NodeId> = g.node_ids().collect();
    if ids.is_empty() {
        g.add_node();
        return;
    }
    let (x, y) = (ids[a % ids.len()], ids[b % ids.len()]);
    match op % 4 {
        0 => {
            g.add_node();
        }
        1 => {
            g.remove_node(x).expect("live");
        }
        2 => {
            let _ = g.add_edge(x, y);
        }
        _ => {
            let _ = g.remove_edge(x, y);
        }
    }
}

fn neighbor_lists(g: &Graph) -> Vec<(NodeId, Vec<NodeId>)> {
    g.node_ids()
        .map(|id| (id, g.neighbors(id).expect("live").collect()))
        .collect()
}

proptest! {
    /// Joins through the index equal the O(n) joins under churn, for
    /// both attachment rules: same joiner, same neighbor lists, same RNG
    /// state afterwards. The index is built lazily at a random point and
    /// then maintained through node removals (tombstones, compaction),
    /// edge edits and isolated additions.
    #[test]
    fn indexed_joins_match_the_linear_joins(
        n in 1usize..40,
        p in 0.0f64..0.3,
        seed in 0u64..1_000,
        attach in 1usize..8,
        uniform in proptest::bool::ANY,
        ops in prop::collection::vec((0u8..6, 0usize..64, 0usize..64), 0..120),
    ) {
        let churn = ChurnTopology {
            attach_degree: attach,
            rule: if uniform { AttachmentRule::Uniform } else { AttachmentRule::Preferential },
        };
        let mut fast = churned_graph(n, p, seed, &[]);
        let mut slow = fast.clone();
        let mut rng_fast = SimRng::seed_from_u64(seed ^ 0xa5a5);
        let mut rng_slow = rng_fast.clone();
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            if op >= 4 {
                let got = churn.join(&mut fast, &mut rng_fast);
                let want = reference_join(&churn, &mut slow, &mut rng_slow);
                prop_assert_eq!(got, want, "joiner id at step {}", step);
            } else {
                edit(&mut fast, op, a, b);
                edit(&mut slow, op, a, b);
            }
            prop_assert_eq!(rng_fast.state(), rng_slow.state(), "rng at step {}", step);
            prop_assert_eq!(neighbor_lists(&fast), neighbor_lists(&slow), "overlay at step {}", step);
        }
        prop_assert!(fast == slow);
        // The maintained index equals a fresh one built from the result.
        let mut fresh = slow.clone();
        let (kept, rebuilt) = (fast.join_index().clone(), fresh.join_index());
        prop_assert_eq!(kept.len(), rebuilt.len());
        prop_assert_eq!(kept.degree_total().to_bits(), rebuilt.degree_total().to_bits());
        prop_assert_eq!(
            kept.degree_total(),
            (slow.node_count() + 2 * slow.edge_count()) as f64
        );
        let live: Vec<NodeId> = slow.node_ids().collect();
        for (rank, &id) in live.iter().enumerate() {
            prop_assert_eq!(kept.nth(rank), id);
        }
    }

    /// The streaming market's join shuffle through the index equals the
    /// O(n) partial Fisher–Yates it replaced, draw for draw.
    #[test]
    fn indexed_streaming_pick_matches_the_linear_shuffle(
        n in 1usize..40,
        p in 0.0f64..0.3,
        seed in 0u64..1_000,
        attach in 0usize..50,
        ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 0..80),
    ) {
        let mut g = churned_graph(n, p, seed, &ops);
        let mut rng_fast = SimRng::seed_from_u64(seed ^ 0x5a5a);
        let mut rng_slow = rng_fast.clone();
        let want = attach.min(g.node_count());
        let got = g
            .join_index()
            .shuffled_prefix(want, |i, len| rng_fast.index(len - i) + i);
        let expected = reference_streaming_pick(&g, attach, &mut rng_slow);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(rng_fast.state(), rng_slow.state());
    }

    /// Boundary draws: target 0, every prefix boundary (the weights are
    /// integers, so every integer target up to the total), targets just
    /// inside each bucket, and targets at or past the total — where the
    /// walk falls back to the largest live id, never a dead one.
    #[test]
    fn degree_pick_matches_the_walk_on_boundaries(
        n in 1usize..30,
        p in 0.0f64..0.4,
        seed in 0u64..1_000,
        ops in prop::collection::vec((0u8..4, 0usize..64, 0usize..64), 0..60),
    ) {
        let mut g = churned_graph(n, p, seed, &ops);
        let existing: Vec<NodeId> = g.node_ids().collect();
        prop_assume!(!existing.is_empty());
        let weights: Vec<f64> = existing
            .iter()
            .map(|&id| (g.degree(id).expect("live") + 1) as f64)
            .collect();
        let total: f64 = weights.iter().sum();
        let index = g.join_index();
        prop_assert_eq!(index.degree_total().to_bits(), total.to_bits());
        let mut targets = vec![total, total + 0.5, total * 2.0, f64::MAX];
        for t in 0..total as u64 {
            // The boundary itself, the bucket's middle, and the largest
            // float below the next boundary.
            let below_next = f64::from_bits(((t + 1) as f64).to_bits() - 1);
            targets.extend([t as f64, t as f64 + 0.5, below_next]);
        }
        for target in targets {
            prop_assert_eq!(
                index.pick_by_degree(target),
                reference_walk(&existing, &weights, target),
                "target {}", target
            );
        }
        prop_assert_eq!(index.pick_by_degree(total), *existing.last().expect("non-empty"));
    }
}
