//! Peer churn: join and leave operations on a live overlay.
//!
//! Sec. VI-E of the paper studies *dynamic* overlays where peers arrive as
//! a Poisson process and stay for exponentially distributed lifespans. A
//! joining peer attaches to a bounded number of existing peers; a leaving
//! peer takes its credits away and its edges vanish. These operations keep
//! the overlay usable for the streaming protocol (every node keeps at
//! least one neighbor whenever possible). [`ChurnConfig`] describes that
//! process for both market granularities; [`ChurnTopology`] performs its
//! joins and leaves on the overlay.

use rand::Rng;

use crate::graph::{Graph, GraphError, NodeId};

/// Churn (peer dynamics) configuration — paper Sec. VI-E: Poisson
/// arrivals, exponential lifespans, and joiners attaching to
/// `attach_degree` existing peers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Poisson arrival rate of new peers (peers/sec).
    pub arrival_rate: f64,
    /// Mean exponential lifespan of a peer (seconds).
    pub mean_lifespan: f64,
    /// Number of neighbors a joiner attaches to.
    pub attach_degree: usize,
}

impl ChurnConfig {
    /// Creates a validated churn configuration.
    ///
    /// # Errors
    /// Returns [`ChurnConfig::validate`]'s message.
    pub fn new(
        arrival_rate: f64,
        mean_lifespan: f64,
        attach_degree: usize,
    ) -> Result<Self, String> {
        let churn = ChurnConfig {
            arrival_rate,
            mean_lifespan,
            attach_degree,
        };
        churn.validate()?;
        Ok(churn)
    }

    /// Checks the parameters: both rates positive and finite, a
    /// positive attach degree.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.arrival_rate.is_finite() && self.arrival_rate > 0.0) {
            return Err(format!(
                "arrival rate must be > 0, got {}",
                self.arrival_rate
            ));
        }
        if !(self.mean_lifespan.is_finite() && self.mean_lifespan > 0.0) {
            return Err(format!(
                "mean lifespan must be > 0, got {}",
                self.mean_lifespan
            ));
        }
        if self.attach_degree == 0 {
            return Err("attach degree must be positive".into());
        }
        Ok(())
    }
}

/// How a joining peer selects its initial neighbors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AttachmentRule {
    /// Choose neighbors uniformly at random.
    Uniform,
    /// Choose neighbors proportionally to their current degree, which
    /// preserves the scale-free shape under churn (preferential
    /// attachment). This is the default, matching the paper's scale-free
    /// overlays.
    #[default]
    Preferential,
}

/// Configuration for churn operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnTopology {
    /// Number of neighbors a joining peer attaches to (capped by the
    /// current overlay size).
    pub attach_degree: usize,
    /// Neighbor selection rule on join.
    pub rule: AttachmentRule,
}

impl Default for ChurnTopology {
    fn default() -> Self {
        ChurnTopology {
            attach_degree: 20,
            rule: AttachmentRule::Preferential,
        }
    }
}

impl ChurnTopology {
    /// Creates a churn config attaching each joiner to `attach_degree`
    /// neighbors with the default preferential rule.
    pub fn new(attach_degree: usize) -> Self {
        ChurnTopology {
            attach_degree,
            ..Default::default()
        }
    }

    /// Adds a node to the overlay and wires it to up to
    /// [`ChurnTopology::attach_degree`] existing nodes per the attachment
    /// rule. Returns the new node's ID.
    ///
    /// Neighbors are drawn from the overlay as it stood before the join,
    /// through the graph's [`crate::JoinIndex`], in O(want · log n). The
    /// draws are those of a partial Fisher–Yates shuffle of the
    /// ascending live ids (`Uniform`) and of a cumulative `degree + 1`
    /// walk over them (`Preferential`).
    pub fn join<R: Rng + ?Sized>(&self, graph: &mut Graph, rng: &mut R) -> NodeId {
        let live = graph.node_count();
        if live == 0 {
            return graph.add_node();
        }
        let want = self.attach_degree.min(live).max(1);
        let index = graph.join_index();
        let chosen = match self.rule {
            AttachmentRule::Uniform => index.shuffled_prefix(want, |i, len| rng.gen_range(i..len)),
            AttachmentRule::Preferential => {
                // Degree-proportional sampling with +1 smoothing so isolated
                // nodes remain reachable.
                let total = index.degree_total();
                let mut chosen: Vec<NodeId> = Vec::with_capacity(want);
                let mut guard = 0usize;
                while chosen.len() < want && guard < 1000 * want {
                    guard += 1;
                    let pick = index.pick_by_degree(rng.gen::<f64>() * total);
                    if !chosen.contains(&pick) {
                        chosen.push(pick);
                    }
                }
                chosen
            }
        };
        let new = graph.add_node();
        for nb in chosen {
            graph.add_edge(new, nb).expect("distinct live nodes");
        }
        new
    }

    /// Removes a departing node, returning its former neighbors.
    ///
    /// # Errors
    /// Returns [`GraphError::NoSuchNode`] if the node is already gone.
    pub fn leave(&self, graph: &mut Graph, id: NodeId) -> Result<Vec<NodeId>, GraphError> {
        graph.remove_node(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, ScaleFreeConfig};
    use scrip_des::SimRng;

    #[test]
    fn join_into_empty_graph() {
        let mut g = Graph::new();
        let mut rng = SimRng::seed_from_u64(1);
        let churn = ChurnTopology::new(5);
        let id = churn.join(&mut g, &mut rng);
        assert!(g.has_node(id));
        assert_eq!(g.degree(id), Some(0));
    }

    #[test]
    fn join_attaches_requested_degree() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut g = generators::complete(30);
        let churn = ChurnTopology::new(10);
        let id = churn.join(&mut g, &mut rng);
        assert_eq!(g.degree(id), Some(10));
    }

    #[test]
    fn join_caps_at_overlay_size() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut g = generators::complete(4);
        let churn = ChurnTopology::new(100);
        let id = churn.join(&mut g, &mut rng);
        assert_eq!(g.degree(id), Some(4));
    }

    #[test]
    fn uniform_rule_attaches() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut g = generators::complete(20);
        let churn = ChurnTopology {
            attach_degree: 7,
            rule: AttachmentRule::Uniform,
        };
        let id = churn.join(&mut g, &mut rng);
        assert_eq!(g.degree(id), Some(7));
    }

    #[test]
    fn preferential_rule_prefers_hubs() {
        let mut rng = SimRng::seed_from_u64(5);
        // A star graph: node 0 is the hub.
        let mut g = Graph::with_nodes(21);
        let ids: Vec<NodeId> = g.node_ids().collect();
        for &leaf in &ids[1..] {
            g.add_edge(ids[0], leaf).expect("valid");
        }
        let churn = ChurnTopology::new(1);
        let mut hub_hits = 0;
        let trials = 200;
        for _ in 0..trials {
            let mut g2 = g.clone();
            let id = churn.join(&mut g2, &mut rng);
            let nb: Vec<NodeId> = g2.neighbors(id).expect("live").collect();
            if nb == vec![ids[0]] {
                hub_hits += 1;
            }
        }
        // Hub has degree 20 of total degree 40 (+1 smoothing dilutes a bit);
        // uniform choice would hit it ~1/21 of the time.
        assert!(
            hub_hits > trials / 4,
            "hub attached only {hub_hits}/{trials} times"
        );
    }

    #[test]
    fn leave_removes_node_and_reports_neighbors() {
        let mut rng = SimRng::seed_from_u64(6);
        let config = ScaleFreeConfig::new(50).expect("valid");
        let mut g = generators::scale_free(&config, &mut rng).expect("generated");
        let victim = g.node_ids().nth(10).expect("exists");
        let expected: Vec<NodeId> = g.neighbors(victim).expect("live").collect();
        let churn = ChurnTopology::default();
        let got = churn.leave(&mut g, victim).expect("was live");
        assert_eq!(got, expected);
        assert!(!g.has_node(victim));
        assert!(churn.leave(&mut g, victim).is_err());
    }

    #[test]
    fn sustained_churn_keeps_overlay_usable() {
        let mut rng = SimRng::seed_from_u64(7);
        let config = ScaleFreeConfig::new(100).expect("valid");
        let mut g = generators::scale_free(&config, &mut rng).expect("generated");
        let churn = ChurnTopology::new(8);
        for round in 0..300 {
            if round % 2 == 0 {
                churn.join(&mut g, &mut rng);
            } else {
                let ids: Vec<NodeId> = g.node_ids().collect();
                let victim = ids[rng.index(ids.len())];
                churn.leave(&mut g, victim).expect("live");
            }
        }
        assert_eq!(g.node_count(), 100);
        // All surviving joiners should have at least one neighbor unless the
        // overlay collapsed (it should not at this size).
        let isolated = g.node_ids().filter(|&id| g.degree(id) == Some(0)).count();
        assert!(isolated < 5, "{isolated} isolated nodes after churn");
    }
}
