//! The protocol-level credit market: credits gating a real streaming
//! swarm (the configuration behind the paper's Fig. 1).
//!
//! [`CreditTradePolicy`] implements [`scrip_streaming::TradePolicy`]:
//! every peer-to-peer chunk transfer is authorized against the buyer's
//! wallet and settled by transferring the seller's quoted price, with
//! optional income taxation. The [`Ledger`] keeps each peer's balance
//! and spend in one wallet by raw [`NodeId`], recycles the escrow, and
//! maintains its wealth Gini online, so a settlement on the chunk-trade
//! hot path is allocation-free (see the "Performance model" section of
//! `docs/ARCHITECTURE.md`). The ledger's pick-order list is the policy's
//! one peer registry, and its reports (wealth Gini, sorted balances and
//! spending rates) are the policy's.
//!
//! [`build_streaming_market`] realizes a [`MarketConfig`] whose
//! [`MarketConfig::streaming`] is set as the combined system (topology,
//! credits, pricing, taxation, churn, faults and sampling all come from
//! the market config), and [`run_streaming_market`] runs it to a
//! horizon. [`crate::obs::Session`] and the scenario engine build it the
//! same way.

use scrip_des::snapshot::{self, Fingerprint, Put, Reader};
use scrip_des::stats::TimeSeries;
use scrip_des::{QueueProfile, Scheduled, SimRng, SimTime};
use scrip_streaming::{StreamEvent, StreamingConfig, StreamingSystem, TradePolicy};
use scrip_topology::NodeId;

use crate::credits::Ledger;
use crate::error::CoreError;
use crate::market::{FaultStats, MarketConfig};
use crate::obs::{MarketView, SessionMarket, SessionModel};
use crate::policy::{TaxConfig, Taxation};
use crate::pricing::{PricingConfig, PricingModel};

/// A credit market attached to the streaming protocol.
///
/// Authorization refuses a purchase when the buyer cannot afford the
/// seller's quoted price for that chunk — the mechanism by which wealth
/// condensation starves poor peers of content (paper Sec. III-A).
/// Settlement happens on delivery; because the wallet may have shrunk in
/// flight, the payment is capped at the buyer's balance and the
/// shortfall counted.
#[derive(Clone, Debug)]
pub struct CreditTradePolicy {
    ledger: Ledger,
    pricing: PricingModel,
    taxation: Option<Taxation>,
    rng: SimRng,
    /// Wallet endowment for churn joiners (the paper's `c`).
    initial_credits: u64,
    /// `(t, wealth Gini)` samples recorded by [`TradePolicy::sample`].
    gini_series: TimeSeries,
    /// Purchases refused at authorization time.
    pub denials: u64,
    /// Settlements completed.
    pub settlements: u64,
    /// Settlements where the buyer could no longer pay the full price.
    pub shortfalls: u64,
    /// Credits paid to the source (all recycled back to peers).
    pub source_income: u64,
    source_price: u64,
}

impl CreditTradePolicy {
    /// Creates the policy: every peer in `peers` gets
    /// `initial_credits`, and prices follow `pricing`. The ledger's
    /// online Gini accumulator is enabled, so samples are O(1).
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] for invalid pricing parameters.
    pub fn new(
        peers: &[NodeId],
        initial_credits: u64,
        pricing: PricingConfig,
        tax: Option<TaxConfig>,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut ledger = Ledger::with_capacity(peers.len());
        for &p in peers {
            ledger.mint(p, initial_credits);
        }
        ledger.enable_wealth_tracking();
        let pricing = PricingModel::realize(pricing, peers, &mut rng)?;
        Ok(CreditTradePolicy {
            source_price: source_price(&pricing),
            ledger,
            pricing,
            taxation: tax.map(Taxation::new),
            rng,
            initial_credits,
            gini_series: TimeSeries::new(),
            denials: 0,
            settlements: 0,
            shortfalls: 0,
            source_income: 0,
        })
    }

    /// The policy's checkpoint state: its RNG, the ledger, the spent
    /// column in the ledger's pick order, taxation, posted prices, the
    /// Gini series and the four counters.
    pub(crate) fn write_state(&self, w: &mut impl Put) {
        snapshot::put_rng_and_plan(w, &self.rng, None);
        self.ledger.write_state(w);
        for &id in self.ledger.ids() {
            w.put_u64(self.ledger.spent(id));
        }
        Taxation::write_state(self.taxation.as_ref(), w);
        self.pricing.write_state(w, self.ledger.ids());
        snapshot::put_series(w, &self.gini_series);
        for counter in [
            self.denials,
            self.settlements,
            self.shortfalls,
            self.source_income,
        ] {
            w.put_u64(counter);
        }
    }

    /// Decodes [`CreditTradePolicy::write_state`]'s state for a market
    /// of `config` whose live peers are `order`, in pick order.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] for truncated bytes, a ledger
    /// or posted prices that are not `order`'s peers in pick order,
    /// books that do not balance, or a spent column that overflows.
    pub(crate) fn read_state(
        config: &MarketConfig,
        r: &mut Reader<'_>,
        order: &[NodeId],
    ) -> Result<Self, CoreError> {
        let rng = snapshot::take_rng_and_plan(r, &mut None)?;
        let mut ledger = Ledger::read_state(r, order)?;
        let mut spends = Vec::with_capacity(order.len());
        for _ in order {
            spends.push(r.take_u64()?);
        }
        if spends
            .iter()
            .try_fold(0u64, |sum, &s| sum.checked_add(s))
            .is_none()
        {
            return Err(CoreError::Checkpoint("the spent column overflows".into()));
        }
        for (&id, &spent) in order.iter().zip(&spends) {
            ledger.record_spend(id, spent);
        }
        let mut taxation = config.tax.map(Taxation::new);
        Taxation::read_state(&mut taxation, r)?;
        let pricing = PricingModel::read_state(config.pricing, order, r)?;
        let gini_series = snapshot::take_series(r)?;
        let mut counter = || r.take_u64();
        Ok(CreditTradePolicy {
            source_price: source_price(&pricing),
            ledger,
            pricing,
            taxation,
            rng,
            initial_credits: config.initial_credits,
            gini_series,
            denials: counter()?,
            settlements: counter()?,
            shortfalls: counter()?,
            source_income: counter()?,
        })
    }

    /// The ledger (read access for reports).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The realized pricing model.
    pub fn pricing(&self) -> &PricingModel {
        &self.pricing
    }

    /// Taxation state, when enabled.
    pub fn taxation(&self) -> Option<&Taxation> {
        self.taxation.as_ref()
    }

    /// The recorded `(t, wealth Gini)` trajectory — one sample per
    /// [`scrip_streaming::StreamEvent::Sample`] tick.
    pub fn gini_series(&self) -> &TimeSeries {
        &self.gini_series
    }
}

/// What the source charges per chunk: the mean quoted price, rounded,
/// and at least 1.
fn source_price(pricing: &PricingModel) -> u64 {
    (pricing.mean_price().round() as u64).max(1)
}

impl TradePolicy for CreditTradePolicy {
    fn authorize(&mut self, buyer: NodeId, seller: NodeId, chunk: u64, _now: SimTime) -> bool {
        let price = self.pricing.price(seller, chunk);
        if self.ledger.balance(buyer) >= price {
            true
        } else {
            self.denials += 1;
            false
        }
    }

    fn settle(&mut self, buyer: NodeId, seller: NodeId, chunk: u64, _now: SimTime) {
        let price = self.pricing.price(seller, chunk);
        // A departed buyer's balance reads 0, so it affords nothing.
        let afford = self.ledger.balance(buyer).min(price);
        if afford < price {
            self.shortfalls += 1;
        }
        // The seller may have departed mid-flight; then nothing moves.
        if afford > 0 && self.ledger.has_account(seller) {
            self.ledger
                .transfer(buyer, seller, afford)
                .expect("capped at the balance");
            self.ledger.record_spend(buyer, afford);
            if let Some(tax) = &mut self.taxation {
                tax.levy(&mut self.ledger, seller, afford, &mut self.rng);
            }
            // Tax revenue and source income share the escrow; the
            // recycled total is tracked on the taxation side when
            // enabled (it upper-bounds collected + source_income).
            let paid = self.ledger.recycle_escrow(0);
            if let Some(tax) = &mut self.taxation {
                tax.record_redistribution(paid);
            }
        }
        self.settlements += 1;
    }

    fn authorize_source(&mut self, buyer: NodeId, _chunk: u64, _now: SimTime) -> bool {
        if self.ledger.balance(buyer) >= self.source_price {
            true
        } else {
            self.denials += 1;
            false
        }
    }

    fn settle_source(&mut self, buyer: NodeId, _chunk: u64, _now: SimTime) {
        // The operator charges the same (floor) price as peers and its
        // income is recycled uniformly — the source is neither a credit
        // source nor a sink, keeping the economy closed as in the
        // paper's model.
        let paid = self.ledger.withhold(buyer, self.source_price);
        if paid < self.source_price {
            self.shortfalls += 1;
        }
        self.ledger.record_spend(buyer, paid);
        self.source_income += paid;
        self.ledger.recycle_escrow(0);
    }

    fn on_join(&mut self, peer: NodeId, _now: SimTime) {
        self.ledger.mint(peer, self.initial_credits);
        self.pricing.on_join(peer, &mut self.rng);
    }

    fn on_leave(&mut self, peer: NodeId, _now: SimTime) {
        // The burn takes the peer's spend with it: the spent total
        // covers live peers only.
        self.ledger.burn(peer);
        self.pricing.on_leave(peer);
    }

    fn sample(&mut self, now: SimTime) {
        if let Some(gini) = self.ledger.tracked_gini() {
            self.gini_series.record(now, gini);
        }
    }
}

/// The protocol configuration of a chunk-level market: its
/// [`MarketConfig::streaming`], sampled at the market's interval and
/// churned by the market's churn.
///
/// # Errors
/// Returns [`CoreError::Config`] if `config` is invalid or not a
/// streaming market.
pub(crate) fn protocol_config(config: &MarketConfig) -> Result<StreamingConfig, CoreError> {
    config.validate()?;
    let Some(streaming) = &config.streaming else {
        return Err(CoreError::Config(
            "not a streaming market: set MarketConfig::streaming (spec key `streaming`)".into(),
        ));
    };
    Ok(StreamingConfig {
        sample_interval: Some(config.sample_interval),
        churn: config.churn,
        ..streaming.clone()
    })
}

/// Realizes a [`MarketConfig`] whose [`MarketConfig::streaming`] is set
/// as a full protocol-level market: the market's topology, credits,
/// pricing and taxation wire the [`CreditTradePolicy`]; the market's
/// `sample_interval` drives the Gini/stall sampling chain; the market's
/// churn (if any) becomes chunk-level peer dynamics; and the market's
/// fault spec (if any) injects chunk-transfer faults
/// ([`StreamingSystem::with_faults`]). The swarm's RNG continues the
/// stream the overlay was generated from.
///
/// # Errors
/// Returns [`CoreError::Config`] if `config.streaming` is [`None`] or
/// any layer's parameters are invalid.
pub fn build_streaming_market(
    config: &MarketConfig,
    seed: u64,
) -> Result<StreamingSystem<CreditTradePolicy>, CoreError> {
    let streaming = protocol_config(config)?;
    let mut rng = SimRng::seed_from_u64(seed);
    let graph = config.build_graph(&mut rng)?;
    let peers: Vec<NodeId> = graph.node_ids().collect();
    let policy = CreditTradePolicy::new(
        &peers,
        config.initial_credits,
        config.pricing,
        config.tax,
        seed,
    )?;
    let system = StreamingSystem::new(graph, streaming, policy, rng).map_err(CoreError::Config)?;
    match config.faults {
        Some(spec) => system.with_faults(spec, seed).map_err(CoreError::Config),
        None => Ok(system),
    }
}

impl MarketView for StreamingSystem<CreditTradePolicy> {
    fn peer_count(&self) -> usize {
        StreamingSystem::peer_count(self)
    }
    fn purchases(&self) -> u64 {
        self.policy().settlements
    }
    fn denied(&self) -> u64 {
        self.policy().denials
    }
    fn ledger(&self) -> &Ledger {
        self.policy().ledger()
    }
    fn taxation(&self) -> Option<&Taxation> {
        self.policy().taxation()
    }
    fn gini_series(&self) -> &TimeSeries {
        self.policy().gini_series()
    }
    fn stall_series(&self) -> Option<&TimeSeries> {
        Some(StreamingSystem::stall_series(self))
    }
    fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults_enabled()
            .then(|| StreamingSystem::fault_stats(self))
    }
    // `in_flight_escrow` stays 0: the streaming layer settles on
    // delivery, so no credits sit in trade escrow.
    fn state_digest(&self) -> u64 {
        let mut digest = Fingerprint::default();
        SessionMarket::write_state(self, &mut digest);
        digest.value()
    }
}

/// The chunk-level market as a [`crate::obs::Session`] runs it. Its
/// state is the protocol's ([`StreamingSystem::write_state`]) followed
/// by its credit policy's ([`CreditTradePolicy::write_state`]).
impl SessionMarket for StreamingSystem<CreditTradePolicy> {
    fn build(config: &MarketConfig, seed: u64) -> Result<Self, CoreError> {
        build_streaming_market(config, seed)
    }

    fn bootstrap() -> StreamEvent {
        StreamEvent::Bootstrap
    }

    fn queue_profile(&self) -> QueueProfile {
        StreamingSystem::queue_profile(self)
    }

    fn write_state(&self, w: &mut impl Put) {
        StreamingSystem::write_state(self, w);
        self.policy().write_state(w);
    }

    fn read_state(
        config: &MarketConfig,
        seed: u64,
        r: &mut Reader<'_>,
        events_processed: u64,
    ) -> Result<Self, CoreError> {
        let protocol = protocol_config(config)?;
        // Every overlay id was allocated by the build or one `Join`.
        let ids = (config.n as u64).saturating_add(events_processed);
        let faults = (config.faults, seed);
        StreamingSystem::read_state(protocol, faults, r, (ids, events_processed), |r, order| {
            CreditTradePolicy::read_state(config, r, order)
        })
    }

    #[inline]
    fn encode(event: &StreamEvent, w: &mut impl Put) {
        event.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<StreamEvent, CoreError> {
        Ok(StreamEvent::decode(r)?)
    }

    fn check_pending(&self, pending: &[Scheduled<StreamEvent>]) -> Result<(), String> {
        StreamingSystem::check_pending(self, pending)
    }

    fn into_model(self) -> SessionModel {
        SessionModel::Chunk(self)
    }
}

/// Convenience runner: builds the streaming market, simulates until
/// `horizon`, and returns the finished system — the chunk-level
/// counterpart of [`crate::market::run_market`].
#[doc = "\n\nPrefer [`crate::obs::Session`] for new code: it runs both market \
granularities behind one entry point and supports pluggable \
[`crate::obs::Probe`]s. This function is kept as a thin wrapper over a \
probe-less session (bit-identical results, zero overhead) so existing \
callers keep working."]
///
/// # Errors
/// Returns [`CoreError`] if construction fails.
pub fn run_streaming_market(
    config: &MarketConfig,
    seed: u64,
    horizon: SimTime,
) -> Result<StreamingSystem<CreditTradePolicy>, CoreError> {
    if config.streaming.is_none() {
        // Preserve build_streaming_market's refusal before the session
        // would otherwise fall back to the queue-level stack.
        return Err(CoreError::Config(
            "not a streaming market: set MarketConfig::streaming (spec key `streaming`)".into(),
        ));
    }
    let mut session = crate::obs::Session::from_config(config, seed)?;
    session.run_until(horizon);
    Ok(session
        .finish()
        .1
        .chunk()
        .expect("chunk-level config yields a chunk-level model"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::market::ChurnConfig;
    use scrip_des::{FaultSpec, SimDuration};

    /// `config` run at chunk granularity under `streaming` until
    /// `secs`.
    fn run(
        config: MarketConfig,
        streaming: StreamingConfig,
        seed: u64,
        secs: u64,
    ) -> StreamingSystem<CreditTradePolicy> {
        let config = config.streaming_market(streaming);
        run_streaming_market(&config, seed, SimTime::from_secs(secs)).expect("runs")
    }

    #[test]
    fn policy_authorizes_by_wallet() {
        let peers: Vec<NodeId> = (0..2).map(NodeId::from_raw).collect();
        let mut p = CreditTradePolicy::new(&peers, 1, PricingConfig::Uniform { price: 2 }, None, 1)
            .expect("policy");
        // Wallet 1 < price 2: denied.
        assert!(!p.authorize(peers[0], peers[1], 0, SimTime::ZERO));
        assert_eq!(p.denials, 1);
        let mut rich =
            CreditTradePolicy::new(&peers, 10, PricingConfig::Uniform { price: 2 }, None, 1)
                .expect("policy");
        assert!(rich.authorize(peers[0], peers[1], 0, SimTime::ZERO));
    }

    #[test]
    fn settle_moves_credits_and_caps_at_balance() {
        let peers: Vec<NodeId> = (0..2).map(NodeId::from_raw).collect();
        let mut p = CreditTradePolicy::new(&peers, 3, PricingConfig::Uniform { price: 2 }, None, 2)
            .expect("policy");
        p.settle(peers[0], peers[1], 0, SimTime::ZERO);
        assert_eq!(p.ledger().balance(peers[0]), 1);
        assert_eq!(p.ledger().balance(peers[1]), 5);
        assert_eq!(p.shortfalls, 0);
        // Second settle: buyer has 1 < 2, pays what it can.
        p.settle(peers[0], peers[1], 1, SimTime::ZERO);
        assert_eq!(p.ledger().balance(peers[0]), 0);
        assert_eq!(p.ledger().balance(peers[1]), 6);
        assert_eq!(p.shortfalls, 1);
        assert_eq!(p.settlements, 2);
        assert_eq!(p.ledger().spent(peers[0]), 3);
        assert_eq!(p.ledger().total_spent(), 3);
        assert!(p.ledger().conserved());
    }

    #[test]
    fn join_and_leave_mint_and_burn() {
        let peers: Vec<NodeId> = (0..3).map(NodeId::from_raw).collect();
        let mut p =
            CreditTradePolicy::new(&peers, 10, PricingConfig::Uniform { price: 1 }, None, 3)
                .expect("policy");
        let joiner = NodeId::from_raw(3);
        p.on_join(joiner, SimTime::ZERO);
        assert_eq!(p.ledger().balance(joiner), 10);
        assert_eq!(p.ledger().minted(), 40);
        p.settle(joiner, peers[0], 0, SimTime::ZERO);
        assert_eq!(p.ledger().total_spent(), 1);
        p.on_leave(joiner, SimTime::ZERO);
        assert_eq!(p.ledger().burned(), 9);
        assert_eq!(
            p.ledger().total_spent(),
            0,
            "the spend left with the joiner"
        );
        assert!(p.ledger().conserved());
        // A settlement naming the departed seller refuses the transfer.
        p.settle(peers[0], joiner, 0, SimTime::ZERO);
        assert_eq!(
            p.ledger().balance(peers[0]),
            11,
            "no payment left the buyer"
        );
        assert!(p.ledger().conserved());
    }

    #[test]
    fn streaming_market_runs_and_conserves_credits() {
        let n = 50;
        let system = run(
            MarketConfig::new(50, 50),
            StreamingConfig::default(),
            7,
            120,
        );
        let policy = system.policy();
        // All credits remain in wallets + escrow (the source recycles its
        // income instead of sinking it).
        assert_eq!(policy.ledger().total() + policy.ledger().escrow(), n * 50);
        assert!(policy.ledger().conserved());
        assert!(
            policy.settlements > 100,
            "settlements {}",
            policy.settlements
        );
        // Streaming still works under ample credits.
        let report = system.report(SimTime::from_secs(120));
        assert!(
            report.mean_continuity > 0.5,
            "continuity {}",
            report.mean_continuity
        );
    }

    #[test]
    fn poor_swarm_suffers_more_denials_than_rich() {
        // A ~1 chunk/sec economy (the paper's Fig. 1 regime, where peer
        // spending rates are ~1 credit/sec).
        let streaming = StreamingConfig::market_paced(1.0);
        let rich = run(MarketConfig::new(50, 100), streaming.clone(), 8, 240);
        let poor = run(
            MarketConfig::new(50, 1).pricing(PricingConfig::Uniform { price: 3 }),
            streaming,
            8,
            240,
        );
        assert!(
            poor.policy().denials > 2 * rich.policy().denials.max(1),
            "poor swarm denials {} vs rich {}",
            poor.policy().denials,
            rich.policy().denials
        );
        // And its streaming quality is visibly worse (broke peers cannot
        // even start playback, so compare download rates).
        let rich_report = rich.report(SimTime::from_secs(240));
        let poor_report = poor.report(SimTime::from_secs(240));
        assert!(
            poor_report.mean_download_rate < 0.5 * rich_report.mean_download_rate,
            "poor dl {} vs rich dl {}",
            poor_report.mean_download_rate,
            rich_report.mean_download_rate
        );
    }

    #[test]
    fn taxation_collects_in_streaming_market() {
        let system = run(
            MarketConfig::new(40, 60).tax(TaxConfig::new(0.2, 30).expect("valid")),
            StreamingConfig::default(),
            9,
            150,
        );
        let tax = system.policy().taxation().expect("enabled");
        assert!(tax.collected > 0, "no tax collected");
        assert!(system.policy().ledger().conserved());
    }

    #[test]
    fn spending_rates_sorted_monotone() {
        let system = run(
            MarketConfig::new(30, 30),
            StreamingConfig::default(),
            10,
            60,
        );
        let rates = system
            .policy()
            .ledger()
            .spending_rates_sorted(SimTime::from_secs(60));
        assert_eq!(rates.len(), 30);
        for w in rates.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn declarative_streaming_market_runs_end_to_end() {
        let config = MarketConfig::new(40, 60)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .sample_interval(SimDuration::from_secs(20));
        let system = run_streaming_market(&config, 11, SimTime::from_secs(200)).expect("runs");
        let policy = system.policy();
        assert!(
            policy.settlements > 100,
            "settlements {}",
            policy.settlements
        );
        assert!(policy.ledger().conserved());
        // The sampling chain recorded both series.
        assert!(
            policy.gini_series().len() >= 9,
            "{}",
            policy.gini_series().len()
        );
        assert!(system.stall_series().len() >= 9);
        // Non-streaming configs are refused.
        let queue_level = MarketConfig::new(40, 60);
        assert!(build_streaming_market(&queue_level, 11).is_err());
    }

    #[test]
    fn declarative_streaming_market_with_churn_conserves() {
        let config = MarketConfig::new(40, 30)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .churn(ChurnConfig::new(0.4, 100.0, 8).expect("valid"))
            .sample_interval(SimDuration::from_secs(20));
        let system = run_streaming_market(&config, 13, SimTime::from_secs(300)).expect("runs");
        let policy = system.policy();
        assert!(policy.ledger().conserved(), "conservation through churn");
        assert!(policy.ledger().minted() > 40 * 30, "joiners mint credits");
        assert!(policy.ledger().burned() > 0, "departures burn credits");
        // Policy accounting tracks the live population exactly.
        assert_eq!(policy.ledger().accounts(), system.peer_count());
        let spent: u64 = policy
            .ledger()
            .ids()
            .iter()
            .map(|&id| policy.ledger().spent(id))
            .sum();
        assert_eq!(spent, policy.ledger().total_spent());
    }

    #[test]
    fn market_churn_and_sampling_reach_the_built_system() {
        let churn = ChurnConfig::new(0.2, 150.0, 9).expect("valid");
        let config = MarketConfig::new(20, 30)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .churn(churn)
            .sample_interval(SimDuration::from_secs(7));
        let system = build_streaming_market(&config, 5).expect("builds");
        assert_eq!(system.config().churn, Some(churn));
        assert_eq!(
            system.config().sample_interval,
            Some(SimDuration::from_secs(7))
        );
        // Churn and sampling are market keys: a protocol config that
        // sets either one is refused, whichever way the market is built.
        let refused = CoreError::Config(
            "the streaming protocol config must leave churn and sample_interval unset: set \
             them on the market (keys `churn` and `sample`)"
                .into(),
        );
        let own_churn = StreamingConfig {
            churn: Some(churn),
            ..StreamingConfig::market_paced(1.0)
        };
        let own_sampling = StreamingConfig {
            sample_interval: Some(SimDuration::from_secs(7)),
            ..StreamingConfig::market_paced(1.0)
        };
        for streaming in [own_churn, own_sampling] {
            let config = MarketConfig::new(20, 30).streaming_market(streaming);
            assert_eq!(config.validate(), Err(refused.clone()));
            assert_eq!(
                build_streaming_market(&config, 5).err(),
                Some(refused.clone())
            );
            assert_eq!(
                crate::obs::Session::from_config(&config, 5).err(),
                Some(refused.clone())
            );
        }
    }

    #[test]
    fn faulted_streaming_market_conserves_credits() {
        let spec = FaultSpec {
            drop_rate: 0.1,
            defect_rate: 0.05,
            delay_rate: 0.05,
            crash_fraction: 0.15,
            onset: SimTime::from_secs(10),
            crash_spread: SimDuration::from_secs(40),
            ..FaultSpec::default()
        };
        let system = run(
            MarketConfig::new(50, 50).faults(spec),
            StreamingConfig::default(),
            15,
            180,
        );
        let stats = system.fault_stats();
        assert!(stats.failed_attempts() > 0, "{stats:?}");
        assert!(stats.crashes > 0, "{stats:?}");
        let policy = system.policy();
        // Conservation through every fault path: drops move nothing,
        // defections settle normally (seller keeps the payment), crashes
        // burn the departing wallet.
        assert!(policy.ledger().conserved());
        assert!(policy.ledger().burned() > 0, "crashed wallets burn");
        // Defections settled credits without delivering goods, so
        // settlements exceed the chunks peers actually received.
        let received: u64 = system
            .peers()
            .map(|(_, s)| s.stats.received_from_peers)
            .sum();
        assert!(
            policy.settlements > received,
            "settlements {} should exceed received {received} under defection",
            policy.settlements
        );
    }

    #[test]
    fn declarative_faulted_streaming_market_runs() {
        let spec = FaultSpec {
            drop_rate: 0.1,
            defect_rate: 0.05,
            delay_rate: 0.0,
            crash_fraction: 0.0,
            onset: SimTime::from_secs(10),
            ..FaultSpec::default()
        };
        let config = MarketConfig::new(40, 30)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .faults(spec)
            .sample_interval(SimDuration::from_secs(20));
        let system = run_streaming_market(&config, 16, SimTime::from_secs(200)).expect("runs");
        assert!(system.faults_enabled());
        assert!(system.fault_stats().failed_attempts() > 0);
        assert!(system.policy().ledger().conserved());
        // With the fault key absent the same config installs no plan.
        let mut clean = config.clone();
        clean.faults = None;
        let clean = run_streaming_market(&clean, 16, SimTime::from_secs(200)).expect("runs");
        assert!(!clean.faults_enabled());
    }

    #[test]
    fn deterministic_given_seed() {
        let config = MarketConfig::new(30, 40)
            .streaming_market(StreamingConfig::market_paced(1.0))
            .sample_interval(SimDuration::from_secs(25));
        let a = run_streaming_market(&config, 21, SimTime::from_secs(150)).expect("runs");
        let b = run_streaming_market(&config, 21, SimTime::from_secs(150)).expect("runs");
        assert_eq!(
            a.policy().ledger().balances_sorted(),
            b.policy().ledger().balances_sorted()
        );
        assert_eq!(a.policy().gini_series(), b.policy().gini_series());
        assert_eq!(a.stall_series(), b.stall_series());
        let c = run_streaming_market(&config, 22, SimTime::from_secs(150)).expect("runs");
        assert_ne!(
            a.policy().ledger().balances_sorted(),
            c.policy().ledger().balances_sorted()
        );
    }
}
