//! Chunk pricing schemes (paper Sec. V-C and Fig. 1).
//!
//! The paper studies three pricing regimes:
//!
//! * **uniform pricing** — every chunk costs the same everywhere; in
//!   streaming this yields symmetric utilization and no condensation;
//! * **per-seller prices** — each peer posts its own price; utilizations
//!   diverge and condensation becomes possible;
//! * **per-chunk prices** — Fig. 1's condensing configuration: "peers
//!   charge different credits for selling different chunks, which follow
//!   a Poisson distribution with an average of 1 credit per chunk".
//!
//! Poisson(1) puts ~37% of its mass at zero; a free chunk moves no
//! credits, so sampled prices are clamped to ≥ 1 (raising the effective
//! mean to `mean + e^(−mean)`). [`PricingModel::mean_price`] reports the
//! clamped mean, which the market simulator uses to convert credit
//! spending rates into purchase-attempt rates.
//!
//! Posted prices sit in a table indexed by raw [`NodeId`], not behind a
//! slot map: a price never moves once drawn, and ids are dense and never
//! reused, so nothing needs swap-remove bookkeeping.

use scrip_des::dist::Poisson;
use scrip_des::SimRng;
use scrip_topology::NodeId;

use crate::error::CoreError;

/// Declarative description of a pricing scheme.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PricingConfig {
    /// Every chunk costs `price` credits at every seller (the paper's
    /// default: 1 credit per chunk).
    Uniform {
        /// Credits per chunk.
        price: u64,
    },
    /// Each seller posts one Poisson-distributed price (clamped ≥ 1) for
    /// all its chunks.
    SellerPoisson {
        /// Mean of the (unclamped) Poisson price distribution.
        mean: f64,
    },
    /// Every (seller, chunk) pair has its own Poisson-distributed price
    /// (clamped ≥ 1), deterministic in the seller, chunk and market seed
    /// — Fig. 1's condensing configuration.
    ChunkPoisson {
        /// Mean of the (unclamped) Poisson price distribution.
        mean: f64,
    },
}

impl Default for PricingConfig {
    fn default() -> Self {
        PricingConfig::Uniform { price: 1 }
    }
}

impl PricingConfig {
    /// Validates parameters.
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] for zero uniform prices or
    /// non-positive Poisson means.
    pub fn validate(&self) -> Result<(), CoreError> {
        match *self {
            PricingConfig::Uniform { price } => {
                if price == 0 {
                    return Err(CoreError::Config("uniform price must be >= 1".into()));
                }
            }
            PricingConfig::SellerPoisson { mean } | PricingConfig::ChunkPoisson { mean } => {
                if !(mean.is_finite() && mean > 0.0) {
                    return Err(CoreError::Config(format!(
                        "Poisson price mean must be > 0, got {mean}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A realized pricing scheme ready to quote prices.
///
/// A [`PricingModel::price`] quote on the market hot path is one array
/// load (per-seller prices) or one hash (per-chunk prices).
#[derive(Clone, Debug)]
pub struct PricingModel {
    config: PricingConfig,
    /// Posted prices ([`PricingConfig::SellerPoisson`]) indexed by raw
    /// id; 0 means "no posted price" (prices are clamped ≥ 1). Empty
    /// under the other schemes.
    posted: Vec<u64>,
    /// Hash seed for [`PricingConfig::ChunkPoisson`].
    seed: u64,
    /// Precomputed CDF of the clamped Poisson, for O(log k) hashing-based
    /// quotes.
    chunk_cdf: Vec<f64>,
}

impl PricingModel {
    /// Realizes a pricing scheme for the given peers.
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] for invalid parameters.
    pub fn realize(
        config: PricingConfig,
        peers: &[NodeId],
        rng: &mut SimRng,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let mut model = PricingModel {
            config,
            posted: Vec::new(),
            seed: 0,
            chunk_cdf: Vec::new(),
        };
        match config {
            PricingConfig::Uniform { .. } => {}
            PricingConfig::SellerPoisson { mean } => {
                let dist = Poisson::new(mean)
                    .map_err(|e| CoreError::Config(format!("price distribution: {e}")))?;
                for &p in peers {
                    model.post(p, dist.sample(rng).max(1));
                }
            }
            PricingConfig::ChunkPoisson { mean } => {
                model.seed = rng.fork_seed();
                model.chunk_cdf = clamped_poisson_cdf(mean);
            }
        }
        Ok(model)
    }

    /// The declarative configuration this model was realized from.
    pub fn config(&self) -> PricingConfig {
        self.config
    }

    /// Quotes the price of `chunk` at `seller`.
    #[inline]
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

    /// The mean quoted price (after clamping), used to convert credit
    /// spending rates into purchase-attempt rates.
    pub fn mean_price(&self) -> f64 {
        match self.config {
            PricingConfig::Uniform { price } => price as f64,
            PricingConfig::SellerPoisson { mean } | PricingConfig::ChunkPoisson { mean } => {
                mean + (-mean).exp()
            }
        }
    }

    /// Heap bytes reserved by the posted-price table (8 B per id ever
    /// posted; capacity) plus the fixed-size chunk CDF. Uniform pricing
    /// holds no per-peer state, so this is 0 there.
    pub fn heap_bytes(&self) -> usize {
        self.posted.capacity() * std::mem::size_of::<u64>()
            + self.chunk_cdf.capacity() * std::mem::size_of::<f64>()
    }

    /// Records `peer`'s posted price, growing the table to its id. Ids
    /// are dense ([`scrip_topology::Graph::add_node`]), so the table
    /// stays ≈ 8 B per id ever minted.
    fn post(&mut self, peer: NodeId, price: u64) {
        let raw = peer.index();
        if raw >= self.posted.len() {
            self.posted.resize(raw + 1, 0);
        }
        self.posted[raw] = price;
    }

    /// Registers a newly joined seller (samples its posted price when the
    /// scheme is per-seller).
    pub fn on_join(&mut self, peer: NodeId, rng: &mut SimRng) {
        if let PricingConfig::SellerPoisson { mean } = self.config {
            let dist = Poisson::new(mean).expect("validated at realize time");
            self.post(peer, dist.sample(rng).max(1));
        }
    }

    /// Removes a departed seller's posted price.
    pub fn on_leave(&mut self, peer: NodeId) {
        if let Some(price) = self.posted.get_mut(peer.index()) {
            *price = 0;
        }
    }

    /// The posted per-seller price, when the scheme is per-seller.
    #[inline]
    pub fn seller_price(&self, peer: NodeId) -> Option<u64> {
        match self.posted.get(peer.index()) {
            Some(&price) if price != 0 => Some(price),
            _ => None,
        }
    }

    /// Checkpoint view of the realized state: the posted prices of
    /// `order`'s peers **in that order** (the owning market's registry
    /// pick order, which the checkpoint layout records) plus the
    /// chunk-hash seed. Empty under schemes without posted prices. The
    /// CDF is recomputed from configuration.
    pub(crate) fn snapshot_state(&self, order: &[NodeId]) -> (Vec<(NodeId, u64)>, u64) {
        let entries = order
            .iter()
            .filter_map(|&id| self.seller_price(id).map(|p| (id, p)))
            .collect();
        (entries, self.seed)
    }

    /// Rebuilds a realized model from a checkpoint taken with
    /// [`PricingModel::snapshot_state`]: `sellers` must be the entries
    /// for exactly the peers of `order`, in that order, and `seed` the
    /// chunk-hash seed. No RNG is consumed — the realized draws are
    /// already in the entries.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] if per-seller entries are not
    /// `order`'s peers in order or post a zero price, or if a scheme
    /// without posted prices comes with entries.
    pub(crate) fn restore_state(
        config: PricingConfig,
        order: &[NodeId],
        sellers: &[(NodeId, u64)],
        seed: u64,
    ) -> Result<Self, CoreError> {
        config.validate()?;
        let mut model = PricingModel {
            config,
            posted: Vec::new(),
            seed: 0,
            chunk_cdf: Vec::new(),
        };
        if let PricingConfig::SellerPoisson { .. } = config {
            if !sellers.iter().map(|&(id, _)| id).eq(order.iter().copied()) {
                return Err(CoreError::Checkpoint(
                    "posted prices are not the peer registry's ids in pick order".into(),
                ));
            }
            for &(id, price) in sellers {
                if price == 0 {
                    return Err(CoreError::Checkpoint(format!(
                        "seller {id} posts a zero price"
                    )));
                }
                model.post(id, price);
            }
        } else if !sellers.is_empty() {
            return Err(CoreError::Checkpoint(format!(
                "{} posted prices under {config:?}, which posts none",
                sellers.len()
            )));
        }
        if let PricingConfig::ChunkPoisson { mean } = config {
            model.seed = seed;
            model.chunk_cdf = clamped_poisson_cdf(mean);
        }
        Ok(model)
    }
}

/// CDF of `max(1, Poisson(mean))` over values `1, 2, 3, …` (truncated
/// when the tail mass drops below 1e-12).
fn clamped_poisson_cdf(mean: f64) -> Vec<f64> {
    let mut cdf = Vec::new();
    // P(X = 0) collapses onto 1.
    let mut pk = (-mean).exp(); // P(X = 0)
    let mut acc = pk; // clamped mass at value 1 includes P(0)
    let mut k = 1u32;
    loop {
        pk *= mean / k as f64; // P(X = k)
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

/// SplitMix64: a fast, well-mixed 64-bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Extension helper: derives a fresh hash seed from a [`SimRng`].
trait ForkSeed {
    fn fork_seed(&mut self) -> u64;
}

impl ForkSeed for SimRng {
    fn fork_seed(&mut self) -> u64 {
        use rand::RngCore;
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId::from_raw).collect()
    }

    #[test]
    fn uniform_pricing_quotes_flat() {
        let mut rng = SimRng::seed_from_u64(1);
        let m = PricingModel::realize(PricingConfig::Uniform { price: 3 }, &ids(4), &mut rng)
            .expect("valid");
        for s in ids(4) {
            for c in [0u64, 7, 99] {
                assert_eq!(m.price(s, c), 3);
            }
        }
        assert_eq!(m.mean_price(), 3.0);
    }

    #[test]
    fn config_validation() {
        assert!(PricingConfig::Uniform { price: 0 }.validate().is_err());
        assert!(PricingConfig::SellerPoisson { mean: 0.0 }
            .validate()
            .is_err());
        assert!(PricingConfig::ChunkPoisson { mean: -1.0 }
            .validate()
            .is_err());
        assert!(PricingConfig::default().validate().is_ok());
    }

    #[test]
    fn seller_poisson_prices_are_fixed_per_seller_and_heterogeneous() {
        let mut rng = SimRng::seed_from_u64(2);
        let peers = ids(200);
        let m = PricingModel::realize(PricingConfig::SellerPoisson { mean: 2.0 }, &peers, &mut rng)
            .expect("valid");
        let mut distinct = std::collections::BTreeSet::new();
        for &s in &peers {
            let p = m.price(s, 0);
            assert!(p >= 1);
            assert_eq!(p, m.price(s, 12345), "price varies per chunk");
            assert_eq!(Some(p), m.seller_price(s));
            distinct.insert(p);
        }
        assert!(distinct.len() >= 3, "prices should be heterogeneous");
    }

    #[test]
    fn chunk_poisson_prices_are_deterministic_and_vary() {
        let mut rng = SimRng::seed_from_u64(3);
        let peers = ids(5);
        let m = PricingModel::realize(PricingConfig::ChunkPoisson { mean: 1.0 }, &peers, &mut rng)
            .expect("valid");
        let s = peers[0];
        let p1 = m.price(s, 1);
        assert_eq!(p1, m.price(s, 1), "deterministic");
        let mut distinct = std::collections::BTreeSet::new();
        for c in 0..500u64 {
            let p = m.price(s, c);
            assert!(p >= 1);
            distinct.insert(p);
        }
        assert!(distinct.len() >= 2, "per-chunk variation expected");
    }

    #[test]
    fn chunk_poisson_empirical_mean_matches() {
        let mut rng = SimRng::seed_from_u64(4);
        let peers = ids(2);
        let mean = 1.0;
        let m = PricingModel::realize(PricingConfig::ChunkPoisson { mean }, &peers, &mut rng)
            .expect("valid");
        let n = 200_000u64;
        let total: u64 = (0..n).map(|c| m.price(peers[0], c)).sum();
        let emp = total as f64 / n as f64;
        let expected = m.mean_price(); // 1 + e^{-1} ≈ 1.3679
        assert!(
            (emp - expected).abs() < 0.01,
            "empirical {emp} vs expected {expected}"
        );
    }

    #[test]
    fn join_and_leave_update_seller_prices() {
        let mut rng = SimRng::seed_from_u64(5);
        let peers = ids(3);
        let mut m =
            PricingModel::realize(PricingConfig::SellerPoisson { mean: 1.0 }, &peers, &mut rng)
                .expect("valid");
        let newcomer = NodeId::from_raw(99);
        assert_eq!(m.seller_price(newcomer), None);
        m.on_join(newcomer, &mut rng);
        assert!(m.seller_price(newcomer).expect("joined") >= 1);
        m.on_leave(newcomer);
        assert_eq!(m.seller_price(newcomer), None);
        // Unknown sellers quote the floor price of 1 rather than panicking.
        assert_eq!(m.price(newcomer, 0), 1);
    }

    #[test]
    fn snapshot_round_trips_all_schemes() {
        let mut rng = SimRng::seed_from_u64(6);
        for config in [
            PricingConfig::Uniform { price: 2 },
            PricingConfig::SellerPoisson { mean: 2.0 },
            PricingConfig::ChunkPoisson { mean: 1.0 },
        ] {
            let mut m = PricingModel::realize(config, &ids(30), &mut rng).expect("valid");
            // Perturb the pick order the way churn does.
            m.on_leave(NodeId::from_raw(3));
            m.on_join(NodeId::from_raw(77), &mut rng);
            let order: Vec<NodeId> = ids(30)
                .into_iter()
                .filter(|id| id.raw() != 3)
                .chain([NodeId::from_raw(77)])
                .collect();
            let (entries, seed) = m.snapshot_state(&order);
            let restored =
                PricingModel::restore_state(config, &order, &entries, seed).expect("valid");
            assert_eq!(restored.config(), config);
            // Posted prices and quotes agree for every seller and chunk
            // probed.
            for s in ids(30).into_iter().chain([NodeId::from_raw(77)]) {
                assert_eq!(restored.seller_price(s), m.seller_price(s));
                for c in [0u64, 5, 99] {
                    assert_eq!(restored.price(s, c), m.price(s, c));
                }
            }
        }
    }

    #[test]
    fn clamped_cdf_is_monotone_and_complete() {
        let cdf = clamped_poisson_cdf(1.0);
        assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(*cdf.last().expect("non-empty"), 1.0);
        // Mass at value 1 = P(0) + P(1) = 2/e ≈ 0.7358.
        assert!((cdf[0] - 2.0 * (-1.0f64).exp()).abs() < 1e-9);
    }
}
