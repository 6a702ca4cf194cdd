//! Equivalence of `PricingModel`'s raw-id posted-price table with the
//! arena-backed model it replaced, which is kept below as a test-only
//! reference. Under random realize/join/leave sequences both models must
//! draw the same prices from the same RNG stream and quote the same
//! prices for live, departed and never-seen sellers.

use proptest::prelude::*;
use scrip_core::des::SimRng;
use scrip_core::pricing::{PricingConfig, PricingModel};
use scrip_core::topology::NodeId;

/// The arena-backed pricing model: posted prices in a slot-indexed
/// `Vec` of `(seller, price)` pairs, swap-removed on leave.
mod reference {
    use rand::RngCore;
    use scrip_core::des::dist::Poisson;
    use scrip_core::des::SimRng;
    use scrip_core::pricing::PricingConfig;
    use scrip_core::topology::NodeId;

    pub struct ArenaPricing {
        config: PricingConfig,
        sellers: Vec<(NodeId, u64)>,
        seed: u64,
        chunk_cdf: Vec<f64>,
    }

    impl ArenaPricing {
        pub fn realize(config: PricingConfig, peers: &[NodeId], rng: &mut SimRng) -> Self {
            let mut model = ArenaPricing {
                config,
                sellers: Vec::new(),
                seed: 0,
                chunk_cdf: Vec::new(),
            };
            match config {
                PricingConfig::Uniform { .. } => {}
                PricingConfig::SellerPoisson { mean } => {
                    let dist = Poisson::new(mean).expect("valid mean");
                    for &p in peers {
                        model.sellers.push((p, dist.sample(rng).max(1)));
                    }
                }
                PricingConfig::ChunkPoisson { mean } => {
                    model.seed = rng.next_u64();
                    model.chunk_cdf = clamped_poisson_cdf(mean);
                }
            }
            model
        }

        pub fn price(&self, seller: NodeId, chunk: u64) -> u64 {
            match self.config {
                PricingConfig::Uniform { price } => price,
                PricingConfig::SellerPoisson { .. } => self.seller_price(seller).unwrap_or(1),
                PricingConfig::ChunkPoisson { .. } => {
                    let h = splitmix64(
                        self.seed ^ seller.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ chunk,
                    );
                    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                    let idx = self.chunk_cdf.partition_point(|&c| c < u);
                    (idx as u64 + 1).min(self.chunk_cdf.len() as u64)
                }
            }
        }

        pub fn on_join(&mut self, peer: NodeId, rng: &mut SimRng) {
            if let PricingConfig::SellerPoisson { mean } = self.config {
                let dist = Poisson::new(mean).expect("valid mean");
                self.sellers.push((peer, dist.sample(rng).max(1)));
            }
        }

        pub fn on_leave(&mut self, peer: NodeId) {
            if let Some(slot) = self.sellers.iter().position(|&(id, _)| id == peer) {
                self.sellers.swap_remove(slot);
            }
        }

        pub fn seller_price(&self, peer: NodeId) -> Option<u64> {
            self.sellers
                .iter()
                .find(|&&(id, _)| id == peer)
                .map(|&(_, price)| price)
        }
    }

    fn clamped_poisson_cdf(mean: f64) -> Vec<f64> {
        let mut cdf = Vec::new();
        let mut pk = (-mean).exp();
        let mut acc = pk;
        let mut k = 1u32;
        loop {
            pk *= mean / k as f64;
            acc += pk;
            cdf.push(acc.min(1.0));
            if 1.0 - acc < 1e-12 || k > 10_000 {
                break;
            }
            k += 1;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        cdf
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

proptest! {
    /// Op codes: 0 joins a fresh (dense) id, 1 removes a live peer,
    /// 2 removes an arbitrary id — departed, never seen, or live.
    #[test]
    fn posted_price_table_matches_the_arena_model(
        scheme in 0u8..3,
        mean in 0.3f64..4.0,
        initial in 0u64..30,
        seed in 0u64..1_000,
        ops in prop::collection::vec((0u8..3, 0u64..64), 1..120),
    ) {
        let config = match scheme {
            0 => PricingConfig::Uniform { price: 1 + seed % 3 },
            1 => PricingConfig::SellerPoisson { mean },
            _ => PricingConfig::ChunkPoisson { mean },
        };
        let peers: Vec<NodeId> = (0..initial).map(NodeId::from_raw).collect();
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ref_rng = SimRng::seed_from_u64(seed);
        let mut model = PricingModel::realize(config, &peers, &mut rng).expect("valid");
        let mut old = reference::ArenaPricing::realize(config, &peers, &mut ref_rng);
        let mut live = peers;
        let mut minted = initial;
        for (step, &(op, k)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let id = NodeId::from_raw(minted);
                    minted += 1;
                    model.on_join(id, &mut rng);
                    old.on_join(id, &mut ref_rng);
                    live.push(id);
                }
                1 if !live.is_empty() => {
                    let id = live.swap_remove(k as usize % live.len());
                    model.on_leave(id);
                    old.on_leave(id);
                }
                _ => {
                    let id = NodeId::from_raw(k);
                    model.on_leave(id);
                    old.on_leave(id);
                    live.retain(|&p| p != id);
                }
            }
            prop_assert_eq!(rng.state(), ref_rng.state(), "RNG diverged at step {}", step);
            // Every id ever minted, a few never seen, and the largest id.
            let probes = (0..minted + 3).chain([NodeId::MAX_RAW]);
            for raw in probes {
                let id = NodeId::from_raw(raw);
                prop_assert_eq!(model.seller_price(id), old.seller_price(id));
                for chunk in [0, 1, step as u64, 1 << 40] {
                    prop_assert_eq!(model.price(id, chunk), old.price(id, chunk));
                }
            }
        }
    }
}
