//! Property-based tests for overlay graphs and generators.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proptest::prelude::*;
use rand::Rng;
use scrip_des::dist::DiscretePowerLaw;
use scrip_des::SimRng;
use scrip_topology::churn::{AttachmentRule, ChurnTopology};
use scrip_topology::generators::{self, ScaleFreeConfig};
use scrip_topology::metrics;
use scrip_topology::{Graph, GraphError, NodeId};

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

/// The streaming swarm's former inline join, kept verbatim as a
/// reference: a partial Fisher–Yates shuffle of the live ids through the
/// join index with `index(len - i) + i` draws, then the joiner's edges.
fn reference_streaming_join(graph: &mut Graph, attach_degree: usize, rng: &mut SimRng) -> NodeId {
    let want = attach_degree.min(graph.node_count());
    let chosen = graph
        .join_index()
        .shuffled_prefix(want, |i, len| rng.index(len - i) + i);
    let new = graph.add_node();
    for nb in chosen {
        graph.add_edge(new, nb).expect("distinct live nodes");
    }
    new
}

/// A random overlay with isolated nodes and dead ids: an Erdős–Rényi
/// graph edited by `ops`.
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
    /// then maintained through node removals, edge edits and isolated
    /// additions.
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

    /// The streaming swarm's joins go through `ChurnTopology`'s uniform
    /// join; it equals the inline join the swarm used to carry, draw for
    /// draw, under churn, for every attach degree ≥ 1: same joiner, same
    /// neighbor lists, same RNG state afterwards.
    #[test]
    fn uniform_join_matches_the_streaming_inline_join(
        n in 1usize..40,
        p in 0.0f64..0.3,
        seed in 0u64..1_000,
        attach in 1usize..50,
        ops in prop::collection::vec((0u8..6, 0usize..64, 0usize..64), 0..120),
    ) {
        let churn = ChurnTopology { attach_degree: attach, rule: AttachmentRule::Uniform };
        let mut fast = churned_graph(n, p, seed, &[]);
        let mut slow = fast.clone();
        let mut rng_fast = SimRng::seed_from_u64(seed ^ 0x3c3c);
        let mut rng_slow = rng_fast.clone();
        for (step, &(op, a, b)) in ops.iter().enumerate() {
            if op >= 4 {
                let got = churn.join(&mut fast, &mut rng_fast);
                let want = reference_streaming_join(&mut slow, attach, &mut rng_slow);
                prop_assert_eq!(got, want, "joiner id at step {}", step);
            } else {
                edit(&mut fast, op, a, b);
                edit(&mut slow, op, a, b);
            }
            prop_assert_eq!(rng_fast.state(), rng_slow.state(), "rng at step {}", step);
            prop_assert_eq!(neighbor_lists(&fast), neighbor_lists(&slow), "overlay at step {}", step);
        }
        prop_assert!(fast == slow);
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

// ---------------------------------------------------------------------
// Bulk-build equivalence. `Graph::from_edges` replaced per-edge
// `add_edge` folds in the generators and checkpoint decode, and a
// `Vec<bool>` visited set replaced the `BTreeSet` in
// `connected_components`. The functions below are the replaced code,
// kept verbatim as references.
// ---------------------------------------------------------------------

/// The incremental build: `watermark` nodes, the ones `live` omits
/// removed, then `add_edge` folded over `edges`, stopping at the first
/// error.
fn reference_build(
    watermark: u64,
    live: &[NodeId],
    edges: &[(NodeId, NodeId)],
) -> Result<Graph, scrip_topology::GraphError> {
    let mut graph = Graph::with_nodes(watermark as usize);
    for raw in 0..watermark {
        let id = NodeId::from_raw(raw);
        if live.binary_search(&id).is_err() {
            graph.remove_node(id)?;
        }
    }
    for &(a, b) in edges {
        graph.add_edge(a, b)?;
    }
    Ok(graph)
}

/// The `BTreeSet`-visited breadth-first component labelling.
fn reference_components(graph: &Graph) -> Vec<Vec<NodeId>> {
    let mut visited: BTreeSet<NodeId> = BTreeSet::new();
    let mut components = Vec::new();
    for start in graph.node_ids() {
        if visited.contains(&start) {
            continue;
        }
        let mut component = Vec::new();
        let mut queue = VecDeque::from([start]);
        visited.insert(start);
        while let Some(node) = queue.pop_front() {
            component.push(node);
            if let Some(nbrs) = graph.neighbors(node) {
                for nb in nbrs {
                    if visited.insert(nb) {
                        queue.push_back(nb);
                    }
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

/// The configuration-model generator as an `add_edge` loop over
/// `usize` stubs, with its component patch.
fn reference_scale_free(config: &ScaleFreeConfig, rng: &mut SimRng) -> Graph {
    let max = config.max_degree.min(config.n as u64 - 1);
    let degree_dist =
        DiscretePowerLaw::new(config.min_degree, max, config.exponent).expect("valid");
    let mut graph = Graph::with_nodes(config.n);
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let cap = (config.n - 1) as u64;
    let mut degrees: Vec<u64> = (0..config.n)
        .map(|_| degree_dist.sample(rng).min(cap))
        .collect();
    if degrees.iter().sum::<u64>() % 2 == 1 {
        let i = rng.gen_range(0..config.n);
        degrees[i] = if degrees[i] < cap {
            degrees[i] + 1
        } else {
            degrees[i] - 1
        };
    }
    let mut stubs: Vec<usize> = Vec::with_capacity(degrees.iter().sum::<u64>() as usize);
    for (i, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat(i).take(d as usize));
    }
    for i in (1..stubs.len()).rev() {
        let j = rng.gen_range(0..=i);
        stubs.swap(i, j);
    }
    for pair in stubs.chunks_exact(2) {
        let (a, b) = (ids[pair[0]], ids[pair[1]]);
        if a != b {
            let _ = graph.add_edge(a, b);
        }
    }
    let components = reference_components(&graph);
    if components.len() > 1 {
        let anchor_component = &components[0];
        for comp in &components[1..] {
            let a = anchor_component[rng.gen_range(0..anchor_component.len())];
            let b = comp[rng.gen_range(0..comp.len())];
            graph.add_edge(a, b).expect("distinct components");
        }
    }
    graph
}

/// Barabási–Albert as an `add_edge` loop.
fn reference_barabasi_albert(n: usize, m: usize, rng: &mut SimRng) -> Graph {
    let mut graph = Graph::new();
    let ids: Vec<NodeId> = (0..n).map(|_| graph.add_node()).collect();
    for i in 0..=m {
        for j in (i + 1)..=m {
            graph.add_edge(ids[i], ids[j]).expect("valid");
        }
    }
    let mut endpoints: Vec<usize> = Vec::new();
    for i in 0..=m {
        endpoints.extend(std::iter::repeat(i).take(m));
    }
    for new in (m + 1)..n {
        let mut targets: Vec<usize> = Vec::with_capacity(m);
        let mut guard = 0usize;
        while targets.len() < m {
            let pick = endpoints[rng.gen_range(0..endpoints.len())];
            if pick != new && !targets.contains(&pick) {
                targets.push(pick);
            }
            guard += 1;
            if guard > 100 * (m + 1) {
                let pick = rng.gen_range(0..new);
                if !targets.contains(&pick) {
                    targets.push(pick);
                }
            }
        }
        for &t in &targets {
            graph.add_edge(ids[new], ids[t]).expect("valid");
            endpoints.push(t);
            endpoints.push(new);
        }
    }
    graph
}

/// A live set with gaps: `alive[i]` says whether ID `i` lives, and the
/// watermark sits `tail` IDs past the flags (those IDs are dead too).
fn live_set(alive: &[bool], tail: u64) -> (u64, Vec<NodeId>) {
    let live = (0u64..)
        .zip(alive)
        .filter(|&(_, &on)| on)
        .map(|(raw, _)| NodeId::from_raw(raw))
        .collect();
    (alive.len() as u64 + tail, live)
}

/// Everything observable about a graph, plus its behaviour under the
/// same follow-up mutations (which exercise rows the two builds sized
/// differently).
fn assert_same_graph(bulk: &Graph, folded: &Graph) -> Result<(), TestCaseError> {
    prop_assert!(bulk == folded);
    prop_assert_eq!(bulk.edge_count(), folded.edge_count());
    prop_assert_eq!(bulk.next_raw_id(), folded.next_raw_id());
    prop_assert_eq!(neighbor_lists(bulk), neighbor_lists(folded));
    prop_assert_eq!(
        bulk.edges().collect::<Vec<_>>(),
        folded.edges().collect::<Vec<_>>()
    );
    let (mut bulk, mut folded) = (bulk.clone(), folded.clone());
    let live: Vec<NodeId> = folded.node_ids().collect();
    for (i, &id) in live.iter().enumerate().step_by(3) {
        prop_assert_eq!(bulk.remove_node(id), folded.remove_node(id));
        let fresh = (bulk.add_node(), folded.add_node());
        prop_assert_eq!(fresh.0, fresh.1);
        if let Some(&other) = live.get(i + 1) {
            prop_assert_eq!(
                bulk.add_edge(fresh.0, other),
                folded.add_edge(fresh.1, other)
            );
        }
    }
    prop_assert!(bulk == folded);
    prop_assert_eq!(neighbor_lists(&bulk), neighbor_lists(&folded));
    Ok(())
}

proptest! {
    /// The bulk build equals folding `add_edge` over the same list: live
    /// sets with gaps (and dead IDs past the last live one), pair lists
    /// with duplicates in both orientations.
    #[test]
    fn bulk_build_equals_the_add_edge_fold(
        alive in prop::collection::vec(proptest::bool::ANY, 0..200),
        tail in 0u64..4,
        pairs in prop::collection::vec((0usize..256, 0usize..256, 0u8..4), 0..400),
    ) {
        let (watermark, live) = live_set(&alive, tail);
        let mut edges = Vec::new();
        if !live.is_empty() {
            for (a, b, flags) in pairs {
                let (a, b) = (live[a % live.len()], live[b % live.len()]);
                if a == b {
                    continue;
                }
                let edge = if flags & 1 == 1 { (b, a) } else { (a, b) };
                edges.push(edge);
                if flags & 2 == 2 {
                    edges.push((edge.1, edge.0));
                }
            }
        }
        let folded = reference_build(watermark, &live, &edges).expect("valid edges");
        let bulk = Graph::from_edges(watermark, live, edges.iter().copied()).expect("valid edges");
        assert_same_graph(&bulk, &folded)?;
    }

    /// Self-loops and dead or unknown IDs fail the bulk build with the
    /// error the first offending `add_edge` returns; clean lists build
    /// the same graph.
    #[test]
    fn bulk_build_fails_like_the_first_bad_add_edge(
        alive in prop::collection::vec(proptest::bool::ANY, 1..60),
        tail in 0u64..3,
        pairs in prop::collection::vec((0u64..70, 0u64..70), 0..40),
    ) {
        let (watermark, live) = live_set(&alive, tail);
        let edges: Vec<(NodeId, NodeId)> = pairs
            .into_iter()
            .map(|(a, b)| (NodeId::from_raw(a), NodeId::from_raw(b)))
            .collect();
        let folded = reference_build(watermark, &live, &edges);
        let bulk = Graph::from_edges(watermark, live, edges.iter().copied());
        match (bulk, folded) {
            (Ok(bulk), Ok(folded)) => assert_same_graph(&bulk, &folded)?,
            (bulk, folded) => prop_assert_eq!(bulk.err(), folded.err()),
        }
    }

    /// Live lists out of order, repeated or at/over the watermark are
    /// rejected at the first offending ID.
    #[test]
    fn bulk_build_rejects_bad_node_lists(
        raws in prop::collection::vec(0u64..40, 1..20),
        watermark in 0u64..40,
    ) {
        let live: Vec<NodeId> = raws.iter().copied().map(NodeId::from_raw).collect();
        let first_bad = raws
            .iter()
            .enumerate()
            .find(|&(i, &raw)| raw >= watermark || (i > 0 && raws[i - 1] >= raw))
            .map(|(_, &raw)| NodeId::from_raw(raw));
        let built = Graph::from_edges(watermark, live, []);
        match first_bad {
            Some(id) => prop_assert_eq!(built.err(), Some(GraphError::UnorderedNode(id))),
            None => prop_assert_eq!(built.expect("ordered").node_count(), raws.len()),
        }
    }

    /// `scale_free` through the bulk build equals the `add_edge`-loop
    /// generator, draw for draw: same graph, same RNG state afterwards.
    /// Low minimum degrees leave several components, exercising the
    /// connectivity patch.
    #[test]
    fn scale_free_equals_the_add_edge_generator(
        n in 2usize..400,
        seed in 0u64..10_000,
        min_degree in 1u64..9,
    ) {
        prop_assume!((min_degree as usize) < n);
        let config = ScaleFreeConfig::new(n).expect("n >= 2").min_degree(min_degree);
        let mut rng_fast = SimRng::seed_from_u64(seed);
        let mut rng_slow = rng_fast.clone();
        let fast = generators::scale_free(&config, &mut rng_fast).expect("generates");
        let slow = reference_scale_free(&config, &mut rng_slow);
        prop_assert_eq!(rng_fast.state(), rng_slow.state());
        assert_same_graph(&fast, &slow)?;
    }

    /// Barabási–Albert, `complete` and `ring` through the bulk build
    /// equal their `add_edge` loops.
    #[test]
    fn small_generators_equal_their_add_edge_loops(
        n in 3usize..120,
        m in 1usize..6,
        seed in 0u64..10_000,
    ) {
        prop_assume!(m < n);
        let mut rng_fast = SimRng::seed_from_u64(seed);
        let mut rng_slow = rng_fast.clone();
        let fast = generators::barabasi_albert(n, m, &mut rng_fast).expect("generates");
        let slow = reference_barabasi_albert(n, m, &mut rng_slow);
        prop_assert_eq!(rng_fast.state(), rng_slow.state());
        assert_same_graph(&fast, &slow)?;

        let ids: Vec<NodeId> = (0..n as u64).map(NodeId::from_raw).collect();
        let ring: Vec<_> = (0..n).map(|i| (ids[i], ids[(i + 1) % n])).collect();
        let folded = reference_build(n as u64, &ids, &ring).expect("valid");
        assert_same_graph(&generators::ring(n).expect("n >= 3"), &folded)?;
        let clique: Vec<_> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .map(|(i, j)| (ids[i], ids[j]))
            .collect();
        let folded = reference_build(n as u64, &ids, &clique).expect("valid");
        assert_same_graph(&generators::complete(n), &folded)?;
    }

    /// Component labelling equals the `BTreeSet` BFS on churned graphs
    /// with dead ids, isolated nodes and many components.
    #[test]
    fn components_equal_the_btreeset_bfs(
        n in 0usize..80,
        p in 0.0f64..0.08,
        seed in 0u64..1_000,
        ops in prop::collection::vec((0u8..4, 0usize..128, 0usize..128), 0..150),
    ) {
        let g = churned_graph(n, p, seed, &ops);
        prop_assert_eq!(g.connected_components(), reference_components(&g));
        prop_assert_eq!(g.is_connected(), reference_components(&g).len() <= 1);
    }

    /// `is_connected`, one search that counts the nodes it reaches,
    /// agrees with the component labelling on churned overlays dense
    /// enough to be connected as often as not.
    #[test]
    fn is_connected_agrees_with_the_components(
        n in 0usize..60,
        p in 0.0f64..0.6,
        seed in 0u64..1_000,
        ops in prop::collection::vec((0u8..4, 0usize..128, 0usize..128), 0..60),
    ) {
        let g = churned_graph(n, p, seed, &ops);
        prop_assert_eq!(g.is_connected(), g.connected_components().len() <= 1);
    }
}

// ---------------------------------------------------------------------
// Model check. `Graph` against a map of neighbor sets under random
// edits, including dead ids, ids past the watermark and self-loops.
// ---------------------------------------------------------------------

/// The reference overlay: live id → neighbor set, plus the next id.
#[derive(Default)]
struct Model {
    nodes: BTreeMap<NodeId, BTreeSet<NodeId>>,
    next: u64,
}

impl Model {
    fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_raw(self.next);
        self.next += 1;
        self.nodes.insert(id, BTreeSet::new());
        id
    }

    fn remove_node(&mut self, id: NodeId) -> Result<Vec<NodeId>, GraphError> {
        let neighbors = self.nodes.remove(&id).ok_or(GraphError::NoSuchNode(id))?;
        for nb in &neighbors {
            self.nodes.get_mut(nb).expect("symmetric").remove(&id);
        }
        Ok(neighbors.into_iter().collect())
    }

    fn live(&self, a: NodeId, b: NodeId) -> Result<(), GraphError> {
        match [a, b].into_iter().find(|id| !self.nodes.contains_key(id)) {
            Some(id) => Err(GraphError::NoSuchNode(id)),
            None => Ok(()),
        }
    }

    fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, GraphError> {
        if a == b {
            return Err(GraphError::SelfLoop(a));
        }
        self.live(a, b)?;
        self.nodes.get_mut(&b).expect("live").insert(a);
        Ok(self.nodes.get_mut(&a).expect("live").insert(b))
    }

    fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Result<bool, GraphError> {
        self.live(a, b)?;
        self.nodes.get_mut(&b).expect("live").remove(&a);
        Ok(self.nodes.get_mut(&a).expect("live").remove(&b))
    }

    fn edges(&self) -> Vec<(NodeId, NodeId)> {
        self.nodes
            .iter()
            .flat_map(|(&a, set)| set.range(a..).map(move |&b| (a, b)))
            .collect()
    }
}

/// Every read of `g` against `model`, and `g` against the one-pass
/// build of the same overlay.
fn assert_matches_model(g: &Graph, model: &Model) -> Result<(), TestCaseError> {
    let ids: Vec<NodeId> = model.nodes.keys().copied().collect();
    let edges = model.edges();
    prop_assert_eq!(g.next_raw_id(), model.next);
    prop_assert_eq!(g.node_ids().collect::<Vec<_>>(), ids.clone());
    prop_assert_eq!(g.node_count(), ids.len());
    prop_assert_eq!(g.edge_count(), edges.len());
    prop_assert_eq!(g.edges().collect::<Vec<_>>(), edges.clone());
    for raw in 0..model.next + 2 {
        let id = NodeId::from_raw(raw);
        let row = model
            .nodes
            .get(&id)
            .map(|set| set.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(g.neighbor_slice(id).map(<[NodeId]>::to_vec), row.clone());
        prop_assert_eq!(g.degree(id), row.as_ref().map(Vec::len));
        prop_assert_eq!(g.has_node(id), row.is_some());
    }
    let bulk = Graph::from_edges(model.next, ids, edges).expect("a valid overlay");
    prop_assert!(g == &bulk);
    Ok(())
}

proptest! {
    /// Random edit sequences give the results, errors and reads of the
    /// map model after every step. Ids are drawn up to two past the
    /// watermark, so dead and never-allocated ids and self-loops all
    /// come up. When `indexed`, the join index is built first and every
    /// edit must keep its live count and degree total in step too.
    #[test]
    fn graph_matches_the_map_model(
        indexed in proptest::bool::ANY,
        ops in prop::collection::vec((0u8..8, 0u64..1024, 0u64..1024), 0..200),
    ) {
        let mut g = Graph::new();
        let mut model = Model::default();
        if indexed {
            g.join_index();
        }
        for (op, a, b) in ops {
            let span = model.next + 2;
            let (a, b) = (NodeId::from_raw(a % span), NodeId::from_raw(b % span));
            match op {
                0 | 1 => prop_assert_eq!(g.add_node(), model.add_node()),
                2 => prop_assert_eq!(g.remove_node(a), model.remove_node(a)),
                3..=5 => prop_assert_eq!(g.add_edge(a, b), model.add_edge(a, b)),
                _ => prop_assert_eq!(g.remove_edge(a, b), model.remove_edge(a, b)),
            }
            assert_matches_model(&g, &model)?;
            if indexed {
                let index = g.join_index();
                prop_assert_eq!(index.len(), model.nodes.len());
                let weights: usize = model.nodes.values().map(|set| set.len() + 1).sum();
                prop_assert_eq!(index.degree_total(), weights as f64);
            }
        }
    }
}
