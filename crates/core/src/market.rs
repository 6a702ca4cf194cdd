//! The queue-level credit-market simulator.
//!
//! This simulator realizes the paper's model *directly*: each peer
//! attempts purchases at its (possibly wealth-dependent) spending rate,
//! each purchase moves `price` credits to a uniformly chosen neighbor,
//! and a broke peer's purchase simply fails — the queueing-network
//! dynamics of Table I with pricing, taxation, dynamic spending and
//! churn layered on top. It produces the Gini-over-time trajectories of
//! the paper's Figs. 5–11.
//!
//! For the *protocol-level* market — where purchases are real chunk
//! transfers inside a live-streaming swarm (Fig. 1) — see
//! [`crate::protocol`].
//!
//! Every per-peer column is indexed by raw [`NodeId`], like the
//! [`Graph`]'s rows and the posted prices: a joiner pushes one entry and
//! a departure zeroes its entries, so a spend reads each column with no
//! lookup in between. The [`Ledger`] owns each peer's wallet — balance
//! and credits spent in one record — and the escrow recycling of the
//! tax; the market keeps spending rates, activity and in-flight escrow.
//! The ledger's pick-order list is the market's one peer registry;
//! everything whose outcome depends on peer order (the complete-mixing
//! pick, checkpoints, escrow sweeps) iterates it.

use std::hint::black_box;

use scrip_des::stats::TimeSeries;
pub use scrip_des::FaultStats;
use scrip_des::{
    DeliveryOutcome, FaultPlan, FaultSpec, FenwickSampler, Model, QueueProfile, Scheduler,
    SimDuration, SimRng, SimTime,
};
use scrip_econ::gini_u64;
pub use scrip_topology::churn::ChurnConfig;
use scrip_topology::churn::ChurnTopology;
use scrip_topology::generators::{self, ScaleFreeConfig};
use scrip_topology::{Graph, NodeId};

use crate::credits::Ledger;
use crate::error::CoreError;
use crate::model::{joiner_spending_rate, spending_rates, UtilizationProfile};
use crate::policy::{SpendingPolicy, TaxConfig, Taxation};
use crate::pricing::{PricingConfig, PricingModel};
use crate::snapshot::Put;

/// The overlay family a market runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TopologyKind {
    /// The paper's default: scale-free, power-law exponent 2.5, ~20
    /// neighbors on average.
    #[default]
    ScaleFree,
    /// Complete graph (the Dandekar-et-al. baseline topology).
    Complete,
    /// Ring (a maximally sparse connected baseline).
    Ring,
    /// Random regular graph of the given degree.
    Regular(usize),
}

/// Full configuration of a credit market.
///
/// Defaults mirror the paper's Sec. VI settings: scale-free overlay,
/// uniform pricing at 1 credit/chunk, fixed spending policy, no tax, no
/// churn, Gini sampled every 100 s.
#[derive(Clone, Debug, PartialEq)]
pub struct MarketConfig {
    /// Initial number of peers.
    pub n: usize,
    /// Initial credits per peer (the paper's average wealth `c`).
    pub initial_credits: u64,
    /// Base credit spending rate `μ_s` (credits/sec).
    pub base_rate: f64,
    /// Utilization regime.
    pub profile: UtilizationProfile,
    /// Chunk pricing scheme.
    pub pricing: PricingConfig,
    /// Spending-rate policy.
    pub spending: SpendingPolicy,
    /// Optional income taxation.
    pub tax: Option<TaxConfig>,
    /// Optional peer churn.
    pub churn: Option<ChurnConfig>,
    /// Overlay family.
    pub topology: TopologyKind,
    /// Interval between Gini samples.
    pub sample_interval: SimDuration,
    /// Availability feedback (paper Sec. III-A): "the poor peers with few
    /// credits … have little content to sell for revenue". When enabled,
    /// a buyer's choice of seller is weighted by the seller's recent
    /// purchase activity (an inventory proxy), so long-broke peers also
    /// stop earning — the protocol-level death spiral, reproduced at the
    /// queue level. Only affects neighbor routing (the asymmetric
    /// profile).
    pub availability_feedback: bool,
    /// When set, the market is realized at *chunk granularity*: the
    /// configured mesh-pull streaming protocol runs on the overlay and
    /// every peer-to-peer chunk transfer is a credit trade through the
    /// shared ledger ([`crate::protocol::run_streaming_market`]). The
    /// topology, credits, pricing, taxation, churn and `sample_interval`
    /// keys apply as usual (the protocol config leaves its own `churn`
    /// and `sample_interval` unset); `profile`, `spending`, `base_rate` and
    /// `availability_feedback` are queue-level concepts and are ignored
    /// (chunk availability plays their role for real).
    pub streaming: Option<scrip_streaming::StreamingConfig>,
    /// Optional deterministic fault injection with trade recovery
    /// (paper Sec. III-A's unreliable-peer regime, realized as typed
    /// faults: dropped/delayed deliveries, seller defections, peer
    /// crashes). When set — and at least one rate is positive — every
    /// purchase moves its credits into per-trade escrow and settles
    /// only when the delivery completes; failed deliveries retry with
    /// capped exponential backoff against another seller and refund
    /// after [`FaultSpec::max_retries`]. `None` (or an all-zero spec)
    /// leaves the machinery unbuilt: the hot path takes a single extra
    /// branch and every trajectory is byte-identical to a build
    /// without this field.
    pub faults: Option<FaultSpec>,
}

impl MarketConfig {
    /// Paper defaults for `n` peers with `initial_credits` each
    /// (asymmetric utilization; use [`MarketConfig::symmetric`] for the
    /// balanced case).
    pub fn new(n: usize, initial_credits: u64) -> Self {
        MarketConfig {
            n,
            initial_credits,
            base_rate: 1.0,
            profile: UtilizationProfile::Asymmetric,
            pricing: PricingConfig::default(),
            spending: SpendingPolicy::default(),
            tax: None,
            churn: None,
            topology: TopologyKind::default(),
            sample_interval: SimDuration::from_secs(100),
            availability_feedback: false,
            streaming: None,
            faults: None,
        }
    }

    /// Enables availability feedback (sellers without recent purchases
    /// attract no buyers).
    pub fn with_availability_feedback(mut self) -> Self {
        self.availability_feedback = true;
        self
    }

    /// Selects symmetric utilization (`u ≡ 1`, complete mixing).
    pub fn symmetric(mut self) -> Self {
        self.profile = UtilizationProfile::Symmetric;
        self
    }

    /// Selects near-symmetric utilization: complete mixing with spending
    /// rates jittered by ±`spread`.
    pub fn near_symmetric(mut self, spread: f64) -> Self {
        self.profile = UtilizationProfile::NearSymmetric { spread };
        self
    }

    /// Selects asymmetric (degree-skewed) utilization.
    pub fn asymmetric(mut self) -> Self {
        self.profile = UtilizationProfile::Asymmetric;
        self
    }

    /// Sets the pricing scheme.
    pub fn pricing(mut self, pricing: PricingConfig) -> Self {
        self.pricing = pricing;
        self
    }

    /// Sets the spending policy.
    pub fn spending(mut self, spending: SpendingPolicy) -> Self {
        self.spending = spending;
        self
    }

    /// Enables income taxation.
    pub fn tax(mut self, tax: TaxConfig) -> Self {
        self.tax = Some(tax);
        self
    }

    /// Enables churn.
    pub fn churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Sets the overlay family.
    pub fn topology(mut self, topology: TopologyKind) -> Self {
        self.topology = topology;
        self
    }

    /// Sets the base spending rate (credits/sec).
    pub fn base_rate(mut self, rate: f64) -> Self {
        self.base_rate = rate;
        self
    }

    /// Sets the Gini sampling interval.
    pub fn sample_interval(mut self, interval: SimDuration) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Enables deterministic fault injection with escrow-backed trade
    /// recovery (see [`MarketConfig::faults`]).
    pub fn faults(mut self, faults: FaultSpec) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Realizes this market at chunk granularity: the given mesh-pull
    /// protocol runs on the overlay and chunk trades settle through the
    /// shared ledger (see [`MarketConfig::streaming`]).
    pub fn streaming_market(mut self, streaming: scrip_streaming::StreamingConfig) -> Self {
        self.streaming = Some(streaming);
        self
    }

    /// Checks the scalar parameters (population, rates, intervals,
    /// pricing, churn, faults, the streaming protocol) without realizing
    /// anything. Churn and sampling are market keys at both
    /// granularities, so a [`MarketConfig::streaming`] config that sets
    /// its own `churn` or `sample_interval` is refused.
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] for out-of-range values.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.n < 2 {
            return Err(CoreError::Config(format!(
                "need n >= 2 peers, got {}",
                self.n
            )));
        }
        if !(self.base_rate.is_finite() && self.base_rate > 0.0) {
            return Err(CoreError::Config(format!(
                "base rate must be > 0, got {}",
                self.base_rate
            )));
        }
        if self.sample_interval.is_zero() {
            return Err(CoreError::Config("sample interval must be positive".into()));
        }
        self.pricing.validate()?;
        if let Some(churn) = &self.churn {
            churn.validate().map_err(CoreError::Config)?;
        }
        if let Some(faults) = &self.faults {
            faults.validate().map_err(CoreError::Config)?;
        }
        if let Some(streaming) = &self.streaming {
            if streaming.churn.is_some() || streaming.sample_interval.is_some() {
                return Err(CoreError::Config(
                    "the streaming protocol config must leave churn and sample_interval \
                     unset: set them on the market (keys `churn` and `sample`)"
                        .into(),
                ));
            }
            streaming.validate().map_err(CoreError::Config)?;
        }
        Ok(())
    }

    pub(crate) fn build_graph(&self, rng: &mut SimRng) -> Result<Graph, CoreError> {
        match self.topology {
            TopologyKind::ScaleFree => {
                Ok(generators::scale_free(&ScaleFreeConfig::new(self.n)?, rng)?)
            }
            TopologyKind::Complete => Ok(generators::complete(self.n)),
            TopologyKind::Ring => Ok(generators::ring(self.n)?),
            TopologyKind::Regular(d) => Ok(generators::random_regular(self.n, d, rng)?),
        }
    }
}

/// Events of the market simulator.
#[derive(Clone, Debug, PartialEq)]
pub enum MarketEvent {
    /// Starts all spending loops, sampling, and churn. Schedule once at
    /// the start of the run.
    Bootstrap,
    /// A peer attempts one purchase.
    Spend(NodeId),
    /// Record the Gini index of the current wealth distribution.
    Sample,
    /// A new peer arrives (churn).
    Join,
    /// A peer departs with its credits (churn).
    Leave(NodeId),
    /// An in-flight delivery completes (fault injection only): the
    /// trade escrowed at [`MarketEvent::Spend`] time resolves now —
    /// settle, drop, defect, or delay, per the fault plan.
    Deliver {
        /// The buying peer whose escrow backs the trade.
        buyer: NodeId,
        /// The selling peer expected to deliver.
        seller: NodeId,
        /// Credits escrowed for the trade.
        price: u64,
        /// 1-based delivery attempt number (grows on retries).
        attempt: u32,
    },
    /// A peer crashes abruptly (fault injection only) — an unplanned
    /// departure that exercises the same escrow-refund recovery as a
    /// graceful leave.
    Crash(NodeId),
}

impl MarketEvent {
    /// Serializes the event for a checkpoint's queue section.
    #[inline]
    pub(crate) fn encode(&self, w: &mut impl Put) {
        match self {
            MarketEvent::Bootstrap => w.put_u8(0),
            MarketEvent::Spend(id) => {
                w.put_u8(1);
                w.put_u64(id.raw());
            }
            MarketEvent::Sample => w.put_u8(2),
            MarketEvent::Join => w.put_u8(3),
            MarketEvent::Leave(id) => {
                w.put_u8(4);
                w.put_u64(id.raw());
            }
            MarketEvent::Deliver {
                buyer,
                seller,
                price,
                attempt,
            } => {
                w.put_u8(5);
                w.put_u64(buyer.raw());
                w.put_u64(seller.raw());
                w.put_u64(*price);
                w.put_u32(*attempt);
            }
            MarketEvent::Crash(id) => {
                w.put_u8(6);
                w.put_u64(id.raw());
            }
        }
    }

    /// Decodes an event written by [`MarketEvent::encode`].
    pub(crate) fn decode(r: &mut crate::snapshot::Reader<'_>) -> Result<Self, CoreError> {
        Ok(match r.take_u8()? {
            0 => MarketEvent::Bootstrap,
            1 => MarketEvent::Spend(r.take_id()?),
            2 => MarketEvent::Sample,
            3 => MarketEvent::Join,
            4 => MarketEvent::Leave(r.take_id()?),
            5 => MarketEvent::Deliver {
                buyer: r.take_id()?,
                seller: r.take_id()?,
                price: r.take_u64()?,
                attempt: r.take_u32()?,
            },
            6 => MarketEvent::Crash(r.take_id()?),
            tag => {
                return Err(CoreError::Checkpoint(format!(
                    "unknown market event tag {tag}"
                )))
            }
        })
    }

    /// Decodes one trace event payload (the bytes a recording
    /// [`crate::obs::Session`] stores per applied event) back into the
    /// event it encodes — the rendering hook for `trace-diff` and
    /// divergence reports.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] for truncated payloads, unknown
    /// tags, or trailing bytes.
    pub fn from_trace_payload(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut r = crate::snapshot::Reader::new(bytes);
        let event = MarketEvent::decode(&mut r)?;
        r.finish()?;
        Ok(event)
    }

    /// Renders one trace event payload for divergence reports: the
    /// decoded event in debug form, or the payload's size when it does
    /// not decode.
    pub fn describe_trace_payload(bytes: &[u8]) -> String {
        match MarketEvent::from_trace_payload(bytes) {
            Ok(event) => format!("{event:?}"),
            Err(_) => format!("<{} undecodable payload bytes>", bytes.len()),
        }
    }
}

/// Component-by-component heap accounting for one [`CreditMarket`]
/// (the arena layout audit; see [`CreditMarket::memory_audit`]). All
/// figures are reserved capacities in bytes — the allocator's view, not
/// live lengths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryAudit {
    /// Live peers the per-peer figures are divided by.
    pub peers: usize,
    /// The overlay's join index, built on the first churn join (0
    /// without churn). The overlay's rows are indexed by raw ID and
    /// counted in `adjacency_bytes`; the market's peer registry is the
    /// ledger's, counted in `ledger_bytes`.
    pub join_index_bytes: usize,
    /// Ledger wallets: the pick-order registry + the wallet table
    /// (balance and spend per id).
    pub ledger_bytes: usize,
    /// Posted-price storage (0 under uniform pricing).
    pub pricing_bytes: usize,
    /// Spending rates `μ`, activity traces, and the in-flight escrow
    /// column (allocated with or without faults).
    pub rates_bytes: usize,
    /// Adjacency rows and their per-ID row headers — degree-proportional
    /// (≈ 4 B × degree per peer), accounted apart from the flat per-peer
    /// state.
    pub adjacency_bytes: usize,
    /// Population-independent costs: the Fenwick seller-sampling
    /// scratch (sized by max degree), the Gini tracker's rank array
    /// (sized by max wealth), and the Gini sample series (sized by
    /// horizon).
    pub fixed_bytes: usize,
}

impl MemoryAudit {
    /// Flat *state* bytes per live peer: everything that scales
    /// linearly with the ids ever allocated (the ledger's registry,
    /// wallets, prices, rates, counters, activity and, under churn, the
    /// join index), excluding adjacency and fixed costs. Under churn the
    /// tables keep every id ever allocated, so the figure grows as dead
    /// ids outnumber live peers. The performance model's
    /// per-peer budget (≈ 61 B measured, pinned at ≤ 66 B at n = 10⁴)
    /// applies to this number.
    pub fn state_bytes_per_peer(&self) -> usize {
        if self.peers == 0 {
            return 0;
        }
        (self.join_index_bytes + self.ledger_bytes + self.pricing_bytes + self.rates_bytes)
            / self.peers
    }

    /// Total audited heap bytes across all components.
    pub fn total_bytes(&self) -> usize {
        self.join_index_bytes
            + self.ledger_bytes
            + self.pricing_bytes
            + self.rates_bytes
            + self.adjacency_bytes
            + self.fixed_bytes
    }
}

/// The running credit market: a [`Model`] for the
/// [`scrip_des::Simulation`] kernel.
///
/// All per-peer state is indexed by raw id (the ledger's pick-order
/// list is the market's one peer registry, see [`Ledger::ids`]), the
/// overlay is borrowed as sorted neighbor slices straight from the
/// [`Graph`],
/// and the wealth Gini is maintained online by the ledger — so a spend
/// event is allocation-free and O(1), and a Gini sample is O(1). See the
/// "Performance model" section of `docs/ARCHITECTURE.md`.
///
/// See the [crate-level quickstart](crate) for an end-to-end example.
#[derive(Clone, Debug)]
pub struct CreditMarket {
    config: MarketConfig,
    graph: Graph,
    ledger: Ledger,
    pricing: PricingModel,
    taxation: Option<Taxation>,
    churn_topology: ChurnTopology,
    rng: SimRng,
    /// Per-peer maximum spending rates `μ_i`. This and the other
    /// per-peer vectors below are indexed by raw id (zero for departed
    /// ids); the ledger's `ids()` is the dense peer vector for O(1)
    /// complete-mixing sampling.
    mu: Vec<f64>,
    /// Exponentially decayed recent-purchase activity per peer (the
    /// inventory proxy for availability feedback): `(value, last bump)`.
    activity: Vec<(f64, SimTime)>,
    /// Reused Fenwick tree for availability-feedback seller sampling
    /// (kept warm across events so the hot path never allocates). The
    /// weights time-decay, so each spend rebuilds in O(deg) and inverts
    /// the draw in O(log deg); the rebuild feeds the same weights in the
    /// same order as the linear walk it replaced, so draws are
    /// bit-identical.
    seller_sampler: FenwickSampler,
    denied: u64,
    purchases: u64,
    gini_series: TimeSeries,
    bootstrapped: bool,
    /// The deterministic fault oracle; present only when
    /// [`MarketConfig::faults`] has at least one positive rate, so the
    /// fault-free hot path pays a single `is_some` branch.
    fault_plan: Option<FaultPlan>,
    /// Credits escrowed for in-flight trades, per buyer (by raw id; all
    /// zero when faults are off).
    in_flight: Vec<u64>,
    /// Σ `in_flight`, maintained incrementally so the escrow-in-transit
    /// probe read is O(1).
    in_flight_total: u64,
    /// Fault/recovery counters.
    fault_stats: FaultStats,
}

impl CreditMarket {
    /// Builds a market from a configuration and an RNG seed.
    ///
    /// # Errors
    /// Returns [`CoreError`] for invalid configurations or topology
    /// failures.
    pub fn build(config: MarketConfig, seed: u64) -> Result<Self, CoreError> {
        let mut market = Self::configured(config, seed)?;
        let (config, rng) = (&market.config, &mut market.rng);
        market.graph = config.build_graph(rng)?;
        let n = market.graph.next_raw_id() as usize;
        market.ledger = Ledger::with_capacity(n);
        for id in market.graph.node_ids() {
            market.ledger.mint(id, config.initial_credits);
        }
        market.ledger.enable_wealth_tracking();
        let mu_map = spending_rates(&market.graph, config.profile, config.base_rate, rng)?;
        market.pricing = PricingModel::realize(config.pricing, market.ledger.ids(), rng)?;
        // The rate map is keyed by the overlay's ids, which a fresh build
        // allocates densely from 0: its values are `mu` by raw id.
        market.mu = mu_map.into_values().collect();
        market.activity = vec![(1.0, SimTime::ZERO); n];
        market.in_flight = vec![0; n];
        Ok(market)
    }

    /// A market holding only what the configuration alone fixes, with
    /// an empty run state: [`CreditMarket::build`] draws that state from
    /// `rng`, and [`CreditMarket::read_state`] decodes it.
    fn configured(config: MarketConfig, seed: u64) -> Result<Self, CoreError> {
        config.validate()?;
        if config.streaming.is_some() {
            return Err(CoreError::Config(
                "config selects a chunk-level streaming market; build it with \
                 crate::protocol::run_streaming_market instead"
                    .into(),
            ));
        }
        // An all-zero spec builds no plan at all: the fault stream is
        // never derived and the run is byte-identical to `faults: None`.
        let fault_plan = match &config.faults {
            Some(spec) if spec.any_faults() => {
                Some(FaultPlan::new(*spec, seed).map_err(CoreError::Config)?)
            }
            _ => None,
        };
        let attach = config.churn.map(|c| c.attach_degree).unwrap_or(20);
        Ok(CreditMarket {
            taxation: config.tax.map(Taxation::new),
            churn_topology: ChurnTopology::new(attach),
            config,
            graph: Graph::new(),
            ledger: Ledger::new(),
            pricing: PricingModel::default(),
            rng: SimRng::seed_from_u64(seed),
            mu: Vec::new(),
            activity: Vec::new(),
            seller_sampler: FenwickSampler::new(),
            denied: 0,
            purchases: 0,
            gini_series: TimeSeries::new(),
            bootstrapped: false,
            fault_plan,
            in_flight: Vec::new(),
            in_flight_total: 0,
            fault_stats: FaultStats::default(),
        })
    }

    /// The configuration this market was built from.
    pub fn config(&self) -> &MarketConfig {
        &self.config
    }

    /// The current overlay.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The credit ledger: balances, spend, escrow, and the reports
    /// built on them (wealth Gini, sorted balances and spending rates).
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The per-peer maximum spending rates `μ_i`, indexed by raw id
    /// (0 for departed ids).
    pub(crate) fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// The realized pricing model.
    pub fn pricing(&self) -> &PricingModel {
        &self.pricing
    }

    /// Taxation state, when taxation is enabled.
    pub fn taxation(&self) -> Option<&Taxation> {
        self.taxation.as_ref()
    }

    /// The recorded Gini-over-time trajectory.
    pub fn gini_series(&self) -> &TimeSeries {
        &self.gini_series
    }

    /// Fault/recovery counters (all zero when faults are disabled).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Credits currently escrowed for in-flight deliveries. O(1).
    pub fn in_flight_escrow(&self) -> u64 {
        self.in_flight_total
    }

    /// Whether a fault plan is active on this market.
    pub fn faults_enabled(&self) -> bool {
        self.fault_plan.is_some()
    }

    /// Total purchase attempts refused for lack of credits.
    pub fn denied(&self) -> u64 {
        self.denied
    }

    /// Total successful purchases.
    pub fn purchases(&self) -> u64 {
        self.purchases
    }

    /// Number of live peers.
    pub fn peer_count(&self) -> usize {
        self.ledger.accounts()
    }

    /// The steady-state event-queue population this market sustains: one
    /// spend loop per peer, the sampling chain, and (under churn) one
    /// leave timer per peer plus the arrival process.
    /// [`CreditMarket::queue_profile`] sizes the queue's node slab with
    /// it.
    pub fn queue_capacity_hint(&self) -> usize {
        // Under faults, each peer may add a crash timer plus in-flight
        // delivery completions (short-lived, at most a few per peer).
        let faulted = usize::from(self.fault_plan.is_some());
        self.ledger.accounts() * (1 + usize::from(self.config.churn.is_some()) + 2 * faulted) + 2
    }

    /// How this market's event queue is sized: the steady-state population
    /// from [`CreditMarket::queue_capacity_hint`], with the mean
    /// inter-attempt interval (`mean price / base rate`) as the typical
    /// scheduling lookahead. The wheel window spans four such intervals,
    /// so all but ≈ e⁻⁴ ≈ 2% of the exponential spend timers land in its
    /// O(1) buckets; the tail and rarer far-future events (churn
    /// lifespans, sample boundaries) take its overflow heap.
    pub fn queue_profile(&self) -> QueueProfile {
        QueueProfile {
            expected_events: self.queue_capacity_hint(),
            typical_delay: SimDuration::from_secs_f64(
                self.pricing.mean_price() / self.config.base_rate,
            ),
        }
    }

    /// Accounts the market's heap footprint component by component (the
    /// arena layout audit). Capacities, not lengths — the allocator's
    /// view. [`MemoryAudit::state_bytes_per_peer`] is the headline
    /// number: per-peer *state* (the registry, wallets, rates, activity
    /// traces, posted prices), excluding the
    /// degree-proportional adjacency rows and the population-independent
    /// scratch/series/histogram costs, which the audit itemizes
    /// separately.
    pub fn memory_audit(&self) -> MemoryAudit {
        MemoryAudit {
            peers: self.ledger.accounts(),
            join_index_bytes: self.graph.index_heap_bytes(),
            ledger_bytes: self.ledger.heap_bytes(),
            pricing_bytes: self.pricing.heap_bytes(),
            rates_bytes: self.mu.capacity() * std::mem::size_of::<f64>()
                + self.activity.capacity() * std::mem::size_of::<(f64, SimTime)>()
                + self.in_flight.capacity() * std::mem::size_of::<u64>(),
            adjacency_bytes: self.graph.adjacency_heap_bytes(),
            fixed_bytes: self.seller_sampler.heap_bytes()
                + self.ledger.tracker_heap_bytes()
                + self.gini_series.heap_bytes(),
        }
    }

    /// Serializes every mutable market field into `w` — the model half
    /// of a [`crate::obs::Session`] checkpoint. What the configuration
    /// alone fixes (config, churn topology, fault spec) is not written:
    /// [`CreditMarket::read_state`] assembles it as
    /// [`CreditMarket::build`] does. Everything else round-trips
    /// exactly, including the pick order, so the continuation is
    /// byte-identical.
    pub(crate) fn write_state(&self, w: &mut impl Put) {
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_bool(self.fault_plan.is_some());
        if let Some(plan) = &self.fault_plan {
            for word in plan.rng_state() {
                w.put_u64(word);
            }
            w.put_u64(plan.outcomes_drawn());
        }
        // Overlay: id watermark, live ids (ascending), edges.
        w.put_u64(self.graph.next_raw_id());
        w.put_u64(self.graph.node_count() as u64);
        for id in self.graph.node_ids() {
            w.put_u64(id.raw());
        }
        w.put_u64(self.graph.edge_count() as u64);
        for (a, b) in self.graph.edges() {
            w.put_u64(a.raw());
            w.put_u64(b.raw());
        }
        // Registry pick order plus every per-peer column, in that order.
        // The order matters: swap-removes made it churn-history-dependent,
        // and peer picks and escrow sweeps iterate it.
        w.put_u64(self.ledger.accounts() as u64);
        for &id in self.ledger.ids() {
            let i = id.index();
            w.put_u64(id.raw());
            w.put_f64(self.mu[i]);
            w.put_u64(self.ledger.spent(id));
            w.put_f64(self.activity[i].0);
            w.put_u64(self.activity[i].1.as_micros());
            w.put_u64(self.in_flight[i]);
        }
        // Ledger: balances in the same pick order, plus pools.
        w.put_u64(self.ledger.accounts() as u64);
        for (id, balance) in self.ledger.slot_entries() {
            w.put_u64(id.raw());
            w.put_u64(balance);
        }
        w.put_u64(self.ledger.escrow());
        w.put_u64(self.ledger.minted());
        w.put_u64(self.ledger.burned());
        // Scalar counters.
        w.put_u64(self.ledger.total_spent());
        w.put_u64(self.denied);
        w.put_u64(self.purchases);
        w.put_u64(self.in_flight_total);
        // Fault stats.
        w.put_u64(self.fault_stats.delivered);
        w.put_u64(self.fault_stats.dropped);
        w.put_u64(self.fault_stats.defected);
        w.put_u64(self.fault_stats.delayed);
        w.put_u64(self.fault_stats.retries);
        w.put_u64(self.fault_stats.refunded);
        w.put_u64(self.fault_stats.crashes);
        w.put_u64(self.fault_stats.retry_depth.len() as u64);
        for &d in &self.fault_stats.retry_depth {
            w.put_u64(d);
        }
        // Taxation accumulators.
        w.put_bool(self.taxation.is_some());
        if let Some(tax) = &self.taxation {
            w.put_u64(tax.collected);
            w.put_u64(tax.redistributed);
        }
        // Pricing: posted prices in pick order and the chunk-hash seed.
        let (sellers, price_seed) = self.pricing.snapshot_state(self.ledger.ids());
        w.put_u64(sellers.len() as u64);
        for (id, price) in &sellers {
            w.put_u64(id.raw());
            w.put_u64(*price);
        }
        w.put_u64(price_seed);
        // Gini trajectory.
        w.put_u64(self.gini_series.len() as u64);
        for &(t, g) in self.gini_series.samples() {
            w.put_u64(t.as_micros());
            w.put_f64(g);
        }
        w.put_bool(self.bootstrapped);
    }

    /// FNV-1a digest of the complete mutable market state — a fold over
    /// the exact bytes `CreditMarket::write_state` would checkpoint
    /// (RNG streams, fault plan, graph, registry, ledger, escrow, pricing,
    /// Gini trajectory). Two markets with equal digests at a quiescent
    /// boundary are byte-identical for resume purposes; trace digest
    /// frames pin this value at every sampling boundary, and
    /// `tests/fixture_guard.rs` pins it for the golden configurations.
    pub fn state_digest(&self) -> u64 {
        let mut digest = crate::snapshot::Fingerprint::default();
        self.write_state(&mut digest);
        digest.value()
    }

    /// Decodes the market whose state [`CreditMarket::write_state`]
    /// captured `events_processed` events into a run of `config` and
    /// `seed`; nothing is drawn or built to be overwritten.
    ///
    /// # Errors
    /// Returns [`CoreError::Checkpoint`] for truncated or inconsistent
    /// snapshots: among others, an overlay id watermark below the live
    /// count, above `config.n` plus `events_processed` or too large to
    /// allocate, a registry that is not a permutation of the overlay's
    /// live ids, and ledger or posted-price entries that are not the
    /// registry's ids in pick order.
    pub(crate) fn read_state(
        config: MarketConfig,
        seed: u64,
        r: &mut crate::snapshot::Reader<'_>,
        events_processed: u64,
    ) -> Result<Self, CoreError> {
        let mut market = Self::configured(config, seed)?;
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.take_u64()?;
        }
        market.rng = SimRng::from_state(rng_state);
        let has_plan = r.take_bool()?;
        match (&mut market.fault_plan, has_plan) {
            (Some(plan), true) => {
                let mut state = [0u64; 4];
                for word in &mut state {
                    *word = r.take_u64()?;
                }
                let drawn = r.take_u64()?;
                plan.restore(state, drawn);
            }
            (None, false) => {}
            (plan, _) => {
                return Err(CoreError::Checkpoint(format!(
                    "fault plan mismatch: snapshot has_plan={has_plan}, \
                     configuration builds {}",
                    if plan.is_some() { "one" } else { "none" }
                )));
            }
        }
        // Overlay rebuild in one pass from the id watermark, the live
        // ids and the edge list: the graph is exactly its rows by raw id,
        // so this reproduces it. Counts are checked against the unread
        // bytes before they size anything. The watermark sizes per-id
        // tables but has no bytes behind it, so it is bounded instead:
        // every id below it was allocated by the build (ids 0..n) or by
        // one `Join` event since.
        let watermark = r.take_u64()?;
        let live_count = r.take_count(8)?;
        let ceiling = (market.config.n as u64)
            .saturating_add(events_processed)
            .min(NodeId::MAX_RAW + 1);
        if watermark < live_count as u64 || watermark > ceiling {
            return Err(CoreError::Checkpoint(format!(
                "overlay id watermark {watermark} outside {live_count}..={ceiling} \
                 (live peers up to build watermark plus events processed)"
            )));
        }
        let mut live = Vec::with_capacity(live_count);
        for _ in 0..live_count {
            live.push(r.take_id()?);
        }
        let edge_count = r.take_count(16)?;
        let mut edges = Vec::with_capacity(edge_count);
        for _ in 0..edge_count {
            let a = r.take_id()?;
            let b = r.take_id()?;
            edges.push((a, b));
        }
        market.graph = Graph::from_edges(watermark, live, edges)
            .map_err(|e| CoreError::Checkpoint(format!("graph rebuild: {e}")))?;
        // Registry pick order, with the per-peer columns filled by raw
        // id. Every id below the watermark gets an entry; a departed
        // id's stays zero, as on a leave. Spend goes to the ledger once
        // it is rebuilt below.
        let not_live = "peer registry is not a permutation of the overlay's live ids";
        let n = r.take_count(48)?;
        market.mu = crate::snapshot::id_table(watermark, 0.0)?;
        market.activity = crate::snapshot::id_table(watermark, (0.0, SimTime::ZERO))?;
        market.in_flight = crate::snapshot::id_table(watermark, 0)?;
        let mut ids = Vec::with_capacity(n);
        let mut spends = Vec::with_capacity(n);
        // The column sums, `None` on overflow, checked against the
        // stored totals below.
        let (mut spent_sum, mut in_flight_sum) = (Some(0u64), Some(0u64));
        for _ in 0..n {
            let id = r.take_id()?;
            if !market.graph.has_node(id) {
                return Err(CoreError::Checkpoint(not_live.into()));
            }
            let i = id.index();
            market.mu[i] = r.take_f64()?;
            let spent = r.take_u64()?;
            market.activity[i] = (r.take_f64()?, SimTime::from_micros(r.take_u64()?));
            market.in_flight[i] = r.take_u64()?;
            spent_sum = spent_sum.and_then(|sum| sum.checked_add(spent));
            in_flight_sum = in_flight_sum.and_then(|sum| sum.checked_add(market.in_flight[i]));
            ids.push(id);
            spends.push(spent);
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        if !sorted.into_iter().eq(market.graph.node_ids()) {
            return Err(CoreError::Checkpoint(not_live.into()));
        }
        let entry_count = r.take_count(16)?;
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let id = r.take_id()?;
            let balance = r.take_u64()?;
            entries.push((id, balance));
        }
        let escrow = r.take_u64()?;
        let minted = r.take_u64()?;
        let burned = r.take_u64()?;
        if !entries.iter().map(|&(id, _)| id).eq(ids.iter().copied()) {
            return Err(CoreError::Checkpoint(
                "ledger entries are not the peer registry's ids in pick order".into(),
            ));
        }
        market.ledger = Ledger::restore(&entries, escrow, minted, burned);
        market.ledger.enable_wealth_tracking();
        let total_spent = r.take_u64()?;
        market.denied = r.take_u64()?;
        market.purchases = r.take_u64()?;
        market.in_flight_total = r.take_u64()?;
        // The totals are derived state: a stored total unlike its
        // column would underflow at the next leave, and in-flight
        // escrow beyond the pool would let the tax sweep pay out
        // credits that back open trades.
        if spent_sum != Some(total_spent) {
            return Err(CoreError::Checkpoint(format!(
                "total spent {total_spent} is not the sum of the registry's spent column"
            )));
        }
        if in_flight_sum != Some(market.in_flight_total) {
            return Err(CoreError::Checkpoint(format!(
                "in-flight total {} is not the sum of the registry's in-flight column",
                market.in_flight_total
            )));
        }
        if market.in_flight_total > escrow {
            return Err(CoreError::Checkpoint(format!(
                "in-flight total {} exceeds the escrow {escrow}",
                market.in_flight_total
            )));
        }
        for (&id, &spent) in ids.iter().zip(&spends) {
            market.ledger.record_spend(id, spent);
        }
        market.fault_stats.delivered = r.take_u64()?;
        market.fault_stats.dropped = r.take_u64()?;
        market.fault_stats.defected = r.take_u64()?;
        market.fault_stats.delayed = r.take_u64()?;
        market.fault_stats.retries = r.take_u64()?;
        market.fault_stats.refunded = r.take_u64()?;
        market.fault_stats.crashes = r.take_u64()?;
        let depth = r.take_u64()? as usize;
        for _ in 0..depth {
            market.fault_stats.retry_depth.push(r.take_u64()?);
        }
        let has_tax = r.take_bool()?;
        match (&mut market.taxation, has_tax) {
            (Some(tax), true) => {
                tax.collected = r.take_u64()?;
                tax.redistributed = r.take_u64()?;
            }
            (None, false) => {}
            (tax, _) => {
                return Err(CoreError::Checkpoint(format!(
                    "taxation mismatch: snapshot has_tax={has_tax}, \
                     configuration builds {}",
                    if tax.is_some() { "one" } else { "none" }
                )));
            }
        }
        let seller_count = r.take_count(16)?;
        let mut sellers = Vec::with_capacity(seller_count);
        for _ in 0..seller_count {
            let id = r.take_id()?;
            let price = r.take_u64()?;
            sellers.push((id, price));
        }
        let price_seed = r.take_u64()?;
        market.pricing =
            PricingModel::restore_state(market.config.pricing, &ids, &sellers, price_seed)?;
        let sample_count = r.take_u64()? as usize;
        for _ in 0..sample_count {
            let t = SimTime::from_micros(r.take_u64()?);
            let g = r.take_f64()?;
            market.gini_series.record(t, g);
        }
        market.bootstrapped = r.take_bool()?;
        if !market.ledger.conserved() {
            return Err(CoreError::Checkpoint(
                "restored ledger violates conservation".into(),
            ));
        }
        Ok(market)
    }

    fn exp_delay(&mut self, rate: f64) -> SimDuration {
        let u = self.rng.uniform_open01();
        SimDuration::from_secs_f64(-u.ln() / rate.max(1e-12))
    }

    /// Schedules the next purchase attempt of `id`.
    fn schedule_spend(&mut self, id: NodeId, scheduler: &mut Scheduler<MarketEvent>) {
        let wealth = self.ledger.balance(id);
        let mu = self.mu[id.index()];
        let rate = self.config.spending.effective_rate(mu, wealth);
        let attempt_rate = rate / self.pricing.mean_price();
        let delay = self.exp_delay(attempt_rate);
        scheduler.schedule_after(delay, MarketEvent::Spend(id));
    }

    /// Time constant (in units of mean inter-purchase intervals) for the
    /// availability-feedback activity decay.
    const ACTIVITY_DECAY_INTERVALS: f64 = 30.0;

    fn activity_time_constant(&self) -> f64 {
        Self::ACTIVITY_DECAY_INTERVALS * self.pricing.mean_price() / self.config.base_rate
    }

    /// Reads a peer's decayed recent-purchase activity (0 for a
    /// departed id, whose entry is zeroed). A free function over the
    /// activity column so the hot loop can hold disjoint borrows (graph
    /// slice + scratch buffer) while it runs.
    #[inline]
    fn activity_weight(activity: &[(f64, SimTime)], tau: f64, id: NodeId, now: SimTime) -> f64 {
        let (value, last) = activity[id.index()];
        let dt = now.saturating_duration_since(last).as_secs_f64();
        value * (-dt / tau).exp()
    }

    /// Bumps the activity of `id` after a successful purchase.
    fn bump_activity(&mut self, id: NodeId, now: SimTime) {
        let tau = self.activity_time_constant();
        let entry = &mut self.activity[id.index()];
        let dt = now.saturating_duration_since(entry.1).as_secs_f64();
        entry.0 = entry.0 * (-dt / tau).exp() + 1.0;
        entry.1 = now;
    }

    /// One purchase attempt — the market hot path. Allocation-free on
    /// the non-tax paths: the seller pick borrows the graph's neighbor
    /// slice (or the ledger's dense peer list), availability weights go
    /// through a reused Fenwick sampler (O(log deg) inversion), and
    /// every per-peer column is read by raw id.
    fn handle_spend(&mut self, id: NodeId, now: SimTime, scheduler: &mut Scheduler<MarketEvent>) {
        if !self.ledger.has_account(id) {
            return; // departed
        }
        let j = if self.config.profile.complete_mixing() {
            // Paper Sec. V-C: p_ij = (1 - p_ii)/(N - 1) over all peers.
            let peers = self.ledger.ids();
            if peers.len() < 2 {
                self.schedule_spend(id, scheduler);
                return;
            }
            let mut pick;
            loop {
                pick = peers[self.rng.index(peers.len())];
                if pick != id {
                    break;
                }
            }
            pick
        } else {
            let neighbors = match self.graph.neighbor_slice(id) {
                Some(n) if !n.is_empty() => n,
                _ => {
                    self.schedule_spend(id, scheduler);
                    return;
                }
            };
            if self.config.availability_feedback {
                // Weight sellers by recent purchase activity: a peer that
                // has bought nothing lately has nothing on offer. The
                // sampler accumulates the same left-to-right total the
                // old linear walk did, so the uniform draw (and hence
                // the whole trajectory) is unchanged; only the inversion
                // is O(log deg) instead of O(deg).
                let tau = self.activity_time_constant();
                let mut sampler = std::mem::take(&mut self.seller_sampler);
                sampler.clear();
                for &nb in neighbors {
                    let w = Self::activity_weight(&self.activity, tau, nb, now) + 0.01;
                    sampler.push(w);
                }
                sampler.build();
                let target = self.rng.uniform_f64() * sampler.total();
                let pick = neighbors[sampler.pick(target)];
                self.seller_sampler = sampler;
                pick
            } else {
                neighbors[self.rng.index(neighbors.len())]
            }
        };
        let chunk = self.purchases + self.denied; // synthetic chunk id
        let price = self.pricing.price(j, chunk);
        if self.ledger.balance(id) >= price {
            if self.fault_plan.is_some() {
                // Recovery contract: the payment moves to per-trade
                // escrow now and settles only when the delivery
                // completes ([`MarketEvent::Deliver`]).
                let delay = self
                    .fault_plan
                    .as_mut()
                    .expect("checked above")
                    .delivery_latency();
                self.begin_trade(id, j, price, 1, delay, scheduler);
            } else {
                self.ledger
                    .transfer(id, j, price)
                    .expect("balance checked above, seller is live");
                self.complete_purchase(id, j, price, now);
            }
        } else {
            self.denied += 1;
        }
        self.schedule_spend(id, scheduler);
    }

    /// The bookkeeping of a purchase whose payment reached `seller`,
    /// shared by the direct settle in [`CreditMarket::handle_spend`] and
    /// the escrow settle in [`CreditMarket::settle_delivery`]: the
    /// buyer's spend, the purchase count, the buyer's activity and, if
    /// enabled, the seller's income tax.
    fn complete_purchase(&mut self, buyer: NodeId, seller: NodeId, price: u64, now: SimTime) {
        self.ledger.record_spend(buyer, price);
        self.purchases += 1;
        if self.config.availability_feedback {
            self.bump_activity(buyer, now);
        }
        if let Some(tax) = &mut self.taxation {
            tax.levy(&mut self.ledger, seller, price, &mut self.rng);
            // The escrow pool also backs in-flight trades under fault
            // injection; only the tax share beyond them is recycled, or
            // the payout would raid credits committed to open trades.
            let paid = self.ledger.recycle_escrow(self.in_flight_total);
            tax.record_redistribution(paid);
        }
    }

    /// Closes `buyer`'s escrowed trade of `price` credits by paying
    /// them out of escrow to `payee`: the seller on a settle or a
    /// defection, the buyer itself on a refund.
    fn release_trade(&mut self, buyer: NodeId, payee: NodeId, price: u64) {
        self.in_flight[buyer.index()] -= price;
        self.in_flight_total -= price;
        let paid = self.ledger.pay_from_escrow(payee, price);
        debug_assert_eq!(paid, price, "trade escrow funds the release");
    }

    /// The retry budget of the fault plan.
    fn max_retries(&self) -> u32 {
        self.fault_plan
            .as_ref()
            .expect("plan present")
            .spec()
            .max_retries
    }

    /// Draws one retry of a failed attempt: counts it, picks the next
    /// seller and returns it with the delay until the retried delivery
    /// completes (backoff plus latency). Draw order: the backoff
    /// jitter, the seller pick, then the plan's latency.
    fn draw_retry(&mut self, buyer: NodeId, failed: NodeId, attempt: u32) -> (NodeId, SimDuration) {
        self.fault_stats.retries += 1;
        let jitter = self.rng.uniform_f64();
        let next_seller = self.pick_retry_seller(buyer, failed);
        let plan = self.fault_plan.as_mut().expect("plan present");
        (
            next_seller,
            plan.backoff(attempt, jitter) + plan.delivery_latency(),
        )
    }

    /// Opens one escrow-backed trade: withholds `price` from `buyer`
    /// and schedules the delivery completion after `delay`. `attempt`
    /// is 1 for fresh trades and grows across retries.
    fn begin_trade(
        &mut self,
        buyer: NodeId,
        seller: NodeId,
        price: u64,
        attempt: u32,
        delay: SimDuration,
        scheduler: &mut Scheduler<MarketEvent>,
    ) {
        let withheld = self.ledger.withhold(buyer, price);
        debug_assert_eq!(withheld, price, "caller checked the balance");
        self.in_flight[buyer.index()] += price;
        self.in_flight_total += price;
        scheduler.schedule_after(
            delay,
            MarketEvent::Deliver {
                buyer,
                seller,
                price,
                attempt,
            },
        );
        assert!(
            self.ledger.conserved(),
            "escrow withholding broke conservation (buyer {buyer}, price {price})"
        );
    }

    /// Resolves one in-flight delivery — the fault-path counterpart of
    /// the direct settle in [`CreditMarket::handle_spend`].
    fn handle_deliver(
        &mut self,
        buyer: NodeId,
        seller: NodeId,
        price: u64,
        attempt: u32,
        now: SimTime,
        scheduler: &mut Scheduler<MarketEvent>,
    ) {
        if !self.ledger.has_account(buyer) {
            // The buyer departed (or crashed) while the delivery was
            // in transit; its escrow was already refunded at departure
            // and the trade no longer exists. No outcome draw.
            return;
        }
        let outcome = self
            .fault_plan
            .as_mut()
            .expect("Deliver events only exist under a fault plan")
            .delivery_outcome(now);
        match (outcome, self.ledger.has_account(seller)) {
            (DeliveryOutcome::Delayed, _) => {
                self.fault_stats.delayed += 1;
                let penalty = self
                    .fault_plan
                    .as_mut()
                    .expect("plan present")
                    .delay_penalty();
                // The escrow stays put; the same attempt completes
                // later.
                scheduler.schedule_after(
                    penalty,
                    MarketEvent::Deliver {
                        buyer,
                        seller,
                        price,
                        attempt,
                    },
                );
            }
            (DeliveryOutcome::Delivered, true) => {
                self.settle_delivery(buyer, seller, price, attempt, now);
            }
            (DeliveryOutcome::Defected, true) => {
                self.settle_defect(buyer, seller, price, attempt, scheduler);
            }
            _ => {
                // Dropped — or delivered/defected against a seller
                // that departed mid-flight, which the buyer observes
                // as a drop.
                self.fault_stats.dropped += 1;
                self.retry_or_refund(buyer, seller, price, attempt, scheduler);
            }
        }
        assert!(
            self.ledger.conserved(),
            "delivery resolution broke conservation (buyer {buyer}, attempt {attempt})"
        );
    }

    /// Settles a completed escrow trade between `buyer` and `seller`:
    /// pays the seller from escrow and applies the same side effects as
    /// a fault-free purchase.
    fn settle_delivery(
        &mut self,
        buyer: NodeId,
        seller: NodeId,
        price: u64,
        attempt: u32,
        now: SimTime,
    ) {
        self.release_trade(buyer, seller, price);
        self.fault_stats.delivered += 1;
        self.fault_stats.note_conclusion(attempt);
        self.complete_purchase(buyer, seller, price, now);
    }

    /// The seller takes the escrowed credits and never delivers. The
    /// lost credits count as spent (they left the buyer's wallet for
    /// good) but not as a purchase — the buyer got nothing. Within the
    /// retry budget, an affordable buyer immediately buys again from
    /// another seller with fresh credits.
    fn settle_defect(
        &mut self,
        buyer: NodeId,
        seller: NodeId,
        price: u64,
        attempt: u32,
        scheduler: &mut Scheduler<MarketEvent>,
    ) {
        self.release_trade(buyer, seller, price);
        self.ledger.record_spend(buyer, price);
        self.fault_stats.defected += 1;
        if attempt > self.max_retries() {
            // Retry budget exhausted: the buyer gives up on the chunk.
            self.fault_stats.note_conclusion(attempt);
        } else if self.ledger.balance(buyer) >= price {
            let (next_seller, delay) = self.draw_retry(buyer, seller, attempt);
            self.begin_trade(buyer, next_seller, price, attempt + 1, delay, scheduler);
        } else {
            // The defection bankrupted the trade: no credits left to
            // re-buy with.
            self.denied += 1;
            self.fault_stats.note_conclusion(attempt);
        }
    }

    /// After a dropped attempt: schedule a retry against another
    /// seller, or refund the buyer's escrow once the retry budget is
    /// exhausted. The escrow stays withheld across retries — the
    /// credits are committed to the trade until it settles or refunds.
    fn retry_or_refund(
        &mut self,
        buyer: NodeId,
        failed_seller: NodeId,
        price: u64,
        attempt: u32,
        scheduler: &mut Scheduler<MarketEvent>,
    ) {
        if attempt > self.max_retries() {
            self.release_trade(buyer, buyer, price);
            self.fault_stats.refunded += 1;
            self.fault_stats.note_conclusion(attempt);
        } else {
            let (next_seller, delay) = self.draw_retry(buyer, failed_seller, attempt);
            scheduler.schedule_after(
                delay,
                MarketEvent::Deliver {
                    buyer,
                    seller: next_seller,
                    price,
                    attempt: attempt + 1,
                },
            );
        }
    }

    /// Picks the next-best seller for a retry: the same routing as the
    /// original pick (complete mixing or neighbor-uniform), best-effort
    /// excluding the seller that just failed. Draws come from the
    /// global stream, in event-apply order, like every other model
    /// draw.
    fn pick_retry_seller(&mut self, buyer: NodeId, failed: NodeId) -> NodeId {
        if self.config.profile.complete_mixing() {
            let peers = self.ledger.ids();
            // Bounded resampling: fall back to the failed seller when
            // the population offers no alternative (the retry then
            // fails again and eventually refunds).
            let mut pick = failed;
            for _ in 0..8 {
                let candidate = peers[self.rng.index(peers.len())];
                if candidate == buyer {
                    continue;
                }
                pick = candidate;
                if candidate != failed {
                    break;
                }
            }
            pick
        } else {
            let neighbors = match self.graph.neighbor_slice(buyer) {
                Some(n) if !n.is_empty() => n,
                _ => return failed,
            };
            let i = self.rng.index(neighbors.len());
            let pick = neighbors[i];
            if pick == failed && neighbors.len() > 1 {
                // Deterministic skip to the next neighbor.
                neighbors[(i + 1) % neighbors.len()]
            } else {
                pick
            }
        }
    }

    /// An injected crash: an unplanned departure. The crashed peer's
    /// in-flight escrow refunds into its wallet and the departure burn
    /// then takes the whole wallet out of circulation — identical
    /// accounting to a graceful leave, so conservation holds.
    fn handle_crash(&mut self, id: NodeId) {
        if !self.graph.has_node(id) {
            return; // already departed on its own
        }
        self.fault_stats.crashes += 1;
        self.handle_leave(id);
        assert!(
            self.ledger.conserved(),
            "crash recovery broke conservation (peer {id})"
        );
    }

    fn handle_join(&mut self, scheduler: &mut Scheduler<MarketEvent>) {
        let Some(churn) = self.config.churn else {
            return;
        };
        let new = self.churn_topology.join(&mut self.graph, &mut self.rng);
        self.ledger.mint(new, self.config.initial_credits);
        self.pricing.on_join(new, &mut self.rng);
        let rate = joiner_spending_rate(self.config.profile, self.config.base_rate, &mut self.rng);
        // Ids are dense: the joiner's entry is the next one of every
        // column.
        debug_assert_eq!(new.index(), self.mu.len(), "ids are dense");
        self.mu.push(rate);
        self.activity.push((1.0, scheduler.now()));
        self.in_flight.push(0);
        self.schedule_spend(new, scheduler);
        let lifespan_delay = self.exp_delay(1.0 / churn.mean_lifespan);
        scheduler.schedule_after(lifespan_delay, MarketEvent::Leave(new));
        let arrival_delay = self.exp_delay(churn.arrival_rate);
        scheduler.schedule_after(arrival_delay, MarketEvent::Join);
        // Under a fault plan, every joiner rolls its crash die once, in
        // join order (event-apply order, so deterministic per seed).
        if let Some(plan) = self.fault_plan.as_mut() {
            if let Some(d) = plan.crash_delay(scheduler.now()) {
                scheduler.schedule_after(d, MarketEvent::Crash(new));
            }
        }
    }

    fn handle_leave(&mut self, id: NodeId) {
        if !self.graph.has_node(id) {
            return;
        }
        let i = id.index();
        // Refund the departing peer's in-flight escrow into its wallet
        // first, so the departure burn below takes those credits out
        // of circulation instead of leaking them in escrow forever.
        // (Always zero when faults are off.)
        let holding = self.in_flight[i];
        if holding > 0 {
            self.release_trade(id, id, holding);
            assert!(
                self.ledger.conserved(),
                "departure escrow refund broke conservation (peer {id})"
            );
        }
        // The graph unlinks the departing peer from its neighbors
        // incrementally; no neighbor cache to rebuild.
        self.graph.remove_node(id).expect("checked live");
        // The burn takes the peer's spend with it: the spent total
        // covers live peers only.
        self.ledger.burn(id);
        self.pricing.on_leave(id);
        // Its entries are zeroed, as a restored checkpoint holds them.
        self.mu[i] = 0.0;
        self.activity[i] = (0.0, SimTime::ZERO);
    }

    fn handle_sample(&mut self, now: SimTime, scheduler: &mut Scheduler<MarketEvent>) {
        // O(1): the ledger maintains the Gini online. (Kept bit-exact
        // with the sort-based oracle; the golden-trajectory tests pin
        // this, and debug builds re-check each sample.)
        if let Ok(g) = self.ledger.wealth_gini() {
            debug_assert!(
                gini_u64(&self.ledger.balances_vec())
                    .map(|reference| (g - reference).abs() < 1e-9)
                    .unwrap_or(false),
                "online Gini drifted from the sort-based oracle"
            );
            self.gini_series.record(now, g);
        }
        scheduler.schedule_after(self.config.sample_interval, MarketEvent::Sample);
    }
}

impl Model for CreditMarket {
    type Event = MarketEvent;

    fn handle(&mut self, now: SimTime, event: MarketEvent, scheduler: &mut Scheduler<MarketEvent>) {
        match event {
            MarketEvent::Bootstrap => {
                if self.bootstrapped {
                    return;
                }
                self.bootstrapped = true;
                let ids: Vec<NodeId> = self.graph.node_ids().collect();
                for &id in &ids {
                    self.schedule_spend(id, scheduler);
                }
                scheduler.schedule_after(self.config.sample_interval, MarketEvent::Sample);
                if let Some(churn) = self.config.churn {
                    for &id in &ids {
                        let d = self.exp_delay(1.0 / churn.mean_lifespan);
                        scheduler.schedule_after(d, MarketEvent::Leave(id));
                    }
                    let d = self.exp_delay(churn.arrival_rate);
                    scheduler.schedule_after(d, MarketEvent::Join);
                }
                // Each initial peer rolls its crash die once, in
                // ascending-id order (the plan's documented bootstrap
                // order).
                if let Some(plan) = self.fault_plan.as_mut() {
                    for &id in &ids {
                        if let Some(d) = plan.crash_delay(now) {
                            scheduler.schedule_after(d, MarketEvent::Crash(id));
                        }
                    }
                }
            }
            MarketEvent::Spend(id) => self.handle_spend(id, now, scheduler),
            MarketEvent::Sample => self.handle_sample(now, scheduler),
            MarketEvent::Join => self.handle_join(scheduler),
            MarketEvent::Leave(id) => self.handle_leave(id),
            MarketEvent::Deliver {
                buyer,
                seller,
                price,
                attempt,
            } => self.handle_deliver(buyer, seller, price, attempt, now, scheduler),
            MarketEvent::Crash(id) => self.handle_crash(id),
        }
    }

    /// Starts the loads of an upcoming spend's buyer while the current
    /// event runs (the next live event, or one of the next bucket's on
    /// a queue sized for more than 2¹⁶ events): its pick-order slot,
    /// its wallet, its `μ` and the row header and both ends of its
    /// overlay row, which the seller pick indexes. Every read is
    /// bounds-checked, so a departed or unknown id reads a zero or
    /// `None`; nothing is drawn or written.
    fn prefetch(&self, next: &MarketEvent) {
        if let MarketEvent::Spend(id) = *next {
            black_box(self.ledger.has_account(id));
            black_box(self.ledger.balance(id));
            black_box(self.mu.get(id.index()).copied());
            let row = self.graph.neighbor_slice(id).unwrap_or_default();
            black_box((row.first().copied(), row.last().copied()));
        }
    }
}

/// Convenience runner: builds the market, simulates until `horizon`, and
/// returns the finished model.
#[doc = "\n\nPrefer [`crate::obs::Session`] for new code: it runs both market \
granularities behind one entry point and supports pluggable \
[`crate::obs::Probe`]s. This function is kept as a thin wrapper over a \
probe-less session (bit-identical results, zero overhead) so existing \
callers keep working."]
///
/// # Errors
/// Returns [`CoreError`] if market construction fails.
pub fn run_market(
    config: MarketConfig,
    seed: u64,
    horizon: SimTime,
) -> Result<CreditMarket, CoreError> {
    if config.streaming.is_some() {
        // Preserve CreditMarket::build's refusal without running the
        // chunk-level stack.
        return Err(CoreError::Config(
            "config selects a chunk-level streaming market; build it with \
             crate::protocol::run_streaming_market instead"
                .into(),
        ));
    }
    let mut session = crate::obs::Session::from_config(&config, seed)?;
    session.run_until(horizon);
    Ok(session
        .finish()
        .1
        .queue()
        .expect("queue-level config yields a queue-level model"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scrip_des::Simulation;

    fn run(config: MarketConfig, seed: u64, secs: u64) -> CreditMarket {
        run_market(config, seed, SimTime::from_secs(secs)).expect("market runs")
    }

    #[test]
    fn config_validation() {
        assert!(CreditMarket::build(MarketConfig::new(1, 10), 0).is_err());
        assert!(CreditMarket::build(MarketConfig::new(10, 10).base_rate(0.0), 0).is_err());
        assert!(CreditMarket::build(
            MarketConfig::new(10, 10).sample_interval(SimDuration::ZERO),
            0
        )
        .is_err());
        assert!(ChurnConfig::new(0.0, 100.0, 5).is_err());
        assert!(ChurnConfig::new(1.0, 0.0, 5).is_err());
        assert!(ChurnConfig::new(1.0, 100.0, 0).is_err());
        assert!(
            (ChurnConfig::new(2.0, 500.0, 5)
                .expect("valid")
                .expected_size()
                - 1000.0)
                .abs()
                < 1e-9
        );
        // A struct-literal churn skips `ChurnConfig::new`; validation
        // still refuses it, with the same message at both granularities.
        let bad = [
            (0.0, 100.0, 8, "arrival rate must be > 0, got 0"),
            (f64::NAN, 100.0, 8, "arrival rate must be > 0, got NaN"),
            (0.5, 0.0, 8, "mean lifespan must be > 0, got 0"),
            (0.5, f64::NAN, 8, "mean lifespan must be > 0, got NaN"),
            (0.5, 100.0, 0, "attach degree must be positive"),
        ];
        for (arrival_rate, mean_lifespan, attach_degree, message) in bad {
            let churn = ChurnConfig {
                arrival_rate,
                mean_lifespan,
                attach_degree,
            };
            let queue = MarketConfig::new(20, 10).churn(churn);
            let chunk = queue
                .clone()
                .streaming_market(scrip_streaming::StreamingConfig::market_paced(1.0));
            let expected = CoreError::Config(message.into());
            assert_eq!(
                CreditMarket::build(queue.clone(), 0).err(),
                Some(expected.clone())
            );
            for config in [&queue, &chunk] {
                assert_eq!(
                    crate::obs::Session::from_config(config, 0).err(),
                    Some(expected.clone()),
                    "{config:?}"
                );
            }
        }
    }

    #[test]
    fn closed_market_conserves_credits() {
        let config = MarketConfig::new(50, 20).topology(TopologyKind::Complete);
        let market = run(config, 1, 500);
        assert_eq!(market.ledger().total(), 50 * 20);
        assert!(market.ledger().conserved());
        assert!(
            market.purchases() > 1_000,
            "purchases {}",
            market.purchases()
        );
    }

    #[test]
    fn gini_series_is_recorded_and_bounded() {
        let config = MarketConfig::new(40, 10).sample_interval(SimDuration::from_secs(50));
        let market = run(config, 2, 2_000);
        let series = market.gini_series();
        assert!(series.len() >= 30, "samples {}", series.len());
        for &(_, g) in series.samples() {
            assert!((0.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn asymmetric_market_is_more_unequal_than_symmetric() {
        // The paper's central qualitative claim at equal average wealth.
        let horizon = 4_000;
        let sym = run(MarketConfig::new(60, 50).symmetric(), 3, horizon);
        let asym = run(MarketConfig::new(60, 50).asymmetric(), 3, horizon);
        let g_sym = sym.gini_series().tail_mean(5).expect("samples");
        let g_asym = asym.gini_series().tail_mean(5).expect("samples");
        assert!(
            g_asym > g_sym,
            "asymmetric Gini {g_asym} should exceed symmetric {g_sym}"
        );
    }

    #[test]
    fn taxation_reduces_inequality() {
        let base = MarketConfig::new(60, 50).asymmetric();
        let taxed = base.clone().tax(TaxConfig::new(0.2, 40).expect("valid"));
        let horizon = 4_000;
        let no_tax = run(base, 4, horizon);
        let with_tax = run(taxed, 4, horizon);
        let g_plain = no_tax.gini_series().tail_mean(5).expect("samples");
        let g_taxed = with_tax.gini_series().tail_mean(5).expect("samples");
        assert!(
            g_taxed < g_plain,
            "taxed Gini {g_taxed} should be below untaxed {g_plain}"
        );
        let tax = with_tax.taxation().expect("enabled");
        assert!(tax.collected > 0, "no tax collected");
        assert!(tax.redistributed <= tax.collected);
        assert!(with_tax.ledger().conserved());
    }

    #[test]
    fn dynamic_spending_reduces_inequality() {
        let base = MarketConfig::new(60, 50).asymmetric();
        let dynamic = base
            .clone()
            .spending(SpendingPolicy::Dynamic { threshold: 50 });
        let horizon = 4_000;
        let fixed = run(base, 5, horizon);
        let dyn_market = run(dynamic, 5, horizon);
        let g_fixed = fixed.gini_series().tail_mean(5).expect("samples");
        let g_dyn = dyn_market.gini_series().tail_mean(5).expect("samples");
        assert!(
            g_dyn < g_fixed,
            "dynamic-spending Gini {g_dyn} should be below fixed {g_fixed}"
        );
    }

    #[test]
    fn churn_market_stays_near_expected_size() {
        let churn = ChurnConfig::new(0.5, 200.0, 8).expect("valid"); // expected size 100
        let config = MarketConfig::new(100, 10)
            .churn(churn)
            .topology(TopologyKind::Complete)
            .sample_interval(SimDuration::from_secs(100));
        let market = run(config, 6, 3_000);
        let n = market.peer_count();
        assert!(
            (40..=220).contains(&n),
            "population drifted to {n}, expected ≈ 100"
        );
        assert!(market.ledger().conserved());
        assert!(market.ledger().burned() > 0, "departures burn credits");
        assert!(market.ledger().minted() > 100 * 10, "joiners mint credits");
    }

    #[test]
    fn spending_rates_sorted_is_monotone() {
        let market = run(MarketConfig::new(30, 10), 7, 1_000);
        let rates = market
            .ledger()
            .spending_rates_sorted(SimTime::from_secs(1_000));
        assert_eq!(rates.len(), 30);
        for w in rates.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(rates.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn broke_market_denies_purchases() {
        // One credit per peer with prices ≥ 1: most attempts fail.
        let market = run(MarketConfig::new(30, 1), 8, 500);
        assert!(market.denied() > 0);
    }

    #[test]
    fn bootstrap_is_idempotent() {
        let market = CreditMarket::build(MarketConfig::new(20, 10), 9).expect("built");
        let mut sim = Simulation::new(market);
        sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
        sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(100));
        // Should not double-count: one Sample chain, one spend loop each.
        let samples = sim.model().gini_series().len();
        assert_eq!(samples, 1, "duplicate bootstrap doubled the sampling");
    }

    /// The zero-alloc claim for the spend loop, observed from the
    /// outside: every buffer the hot path touches (event queue, scratch
    /// weights, per-peer columns) reaches a fixed capacity during warmup and
    /// never grows again, over tens of thousands of further events. The
    /// simulation is hand-built, so its queue has the default profile
    /// and no reservation for the 40 spend loops: the warmup grows it
    /// to its working size.
    /// (The workspace forbids `unsafe`, so a counting global allocator
    /// is out; `docs/ARCHITECTURE.md` documents the per-event allocation
    /// audit.)
    #[test]
    fn spend_loop_buffers_stop_growing_after_warmup() {
        let config = MarketConfig::new(40, 50)
            .asymmetric()
            .with_availability_feedback();
        let market = CreditMarket::build(config, 17).expect("built");
        let mut sim = Simulation::new(market);
        sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(200)); // warmup (~8k events)
        let queue_cap = sim.scheduler().capacity();
        let scratch_cap = sim.model().seller_sampler.capacity();
        let events_before = sim.stats().events_processed;
        sim.run_until(SimTime::from_secs(2_200));
        assert!(
            sim.stats().events_processed > events_before + 50_000,
            "workload too small to be meaningful: {} events",
            sim.stats().events_processed
        );
        assert_eq!(
            sim.scheduler().capacity(),
            queue_cap,
            "event queue grew during steady-state spending"
        );
        assert_eq!(
            sim.model().seller_sampler.capacity(),
            scratch_cap,
            "availability-feedback seller sampler grew during steady state"
        );
        assert!(scratch_cap > 0, "seller sampler was exercised");
    }

    /// The steady-state claim on the queue sizing the runners select
    /// via `queue_profile()`, over a long horizon. The wheel's node slab
    /// never holds more nodes than the pending population, but
    /// exponential spend delays have unbounded tails, so the live and
    /// overflow heaps can always meet a first-ever occupancy high-water
    /// mark, and exact capacity equality cannot be promised for every
    /// horizon. The invariant is that the amortized allocation rate
    /// decays to zero: across tens of thousands of post-warmup events,
    /// total queue storage grows by at most a few percent, and a second
    /// equally long window grows no more than the first.
    #[test]
    fn wheel_backed_spend_loop_stops_growing_after_warmup() {
        let config = MarketConfig::new(40, 50)
            .asymmetric()
            .with_availability_feedback();
        let market = CreditMarket::build(config, 17).expect("built");
        let profile = market.queue_profile();
        let mut sim = Simulation::with_profile(market, profile);
        sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(1_200)); // warmup: many wheel revolutions
        let warm_cap = sim.scheduler().capacity();
        let events_before = sim.stats().events_processed;
        sim.run_until(SimTime::from_secs(3_200));
        let mid_cap = sim.scheduler().capacity();
        sim.run_until(SimTime::from_secs(5_200));
        let end_cap = sim.scheduler().capacity();
        assert!(
            sim.stats().events_processed > events_before + 100_000,
            "workload too small to be meaningful: {} events",
            sim.stats().events_processed
        );
        assert!(
            end_cap <= warm_cap + warm_cap / 10,
            "wheel storage grew more than 10% after warmup: {warm_cap} -> {end_cap}"
        );
        assert!(
            end_cap - mid_cap <= mid_cap - warm_cap,
            "wheel allocation rate is not decaying: \
             {warm_cap} -> {mid_cap} -> {end_cap}"
        );
    }

    /// The arena layout audit's budget: flat per-peer market state
    /// (registry, wallets, prices, rates, counters, activity traces)
    /// stays within 66 B/peer at a population large enough that
    /// constant overheads vanish: 61 B measured with one peer registry
    /// of 32-bit ids, an overlay indexed by raw id and one wallet record
    /// per id, plus headroom (64-bit ids measured 67 B).
    /// Adjacency (4 B per neighbor entry plus a 24 B row header per id)
    /// and population-independent scratch are accounted — and bounded —
    /// separately.
    #[test]
    fn arena_layout_stays_within_per_peer_budget() {
        let config = MarketConfig::new(10_000, 50)
            .asymmetric()
            .with_availability_feedback();
        let market = run(config, 42, 200);
        let audit = market.memory_audit();
        assert_eq!(audit.peers, 10_000);
        let per_peer = audit.state_bytes_per_peer();
        assert!(
            (40..=66).contains(&per_peer),
            "per-peer state out of budget: {per_peer} B/peer ({audit:?})"
        );
        // Adjacency is one 4 B entry per edge end plus one 24 B row
        // header per id ever allocated: 0.98 MB measured against 0.96 MB
        // exact, so 10% headroom covers row slack and still fails 64-bit
        // entries (1.69 MB) or anything quadratic.
        let graph = market.graph();
        let exact = 4 * 2 * graph.edge_count() + 24 * graph.next_raw_id() as usize;
        assert!(
            audit.adjacency_bytes <= exact + exact / 10,
            "adjacency out of budget: {} B against {exact} B exact",
            audit.adjacency_bytes
        );
        // Fixed costs (sampler scratch, Gini rank array, sample
        // series) are sized by max degree / max wealth / horizon, not
        // the population — a few MB here regardless of n. An absolute
        // cap catches anything that started scaling with n².
        assert!(
            audit.fixed_bytes < 16 << 20,
            "fixed costs blew up: {audit:?}"
        );
    }

    /// Ids are 32 bits, so a pending event and its wheel entry stay
    /// small: 24 B per event and 40 B scheduled (64-bit ids made them
    /// 32 B and 48 B).
    #[test]
    fn ids_and_pending_events_stay_small() {
        use std::mem::size_of;
        assert_eq!(size_of::<NodeId>(), 4);
        assert!(size_of::<MarketEvent>() <= 24);
        assert!(size_of::<scrip_des::Scheduled<MarketEvent>>() <= 40);
    }

    /// A churned market (so dead ids exist) under `pricing`, and the
    /// bytes `write_state` emits for it.
    fn churned_state(pricing: PricingConfig) -> (CreditMarket, Vec<u8>) {
        let config = MarketConfig::new(60, 10)
            .churn(ChurnConfig::new(0.5, 200.0, 8).expect("valid"))
            .pricing(pricing);
        let market = run(config, 9, 600);
        let mut bytes = Vec::new();
        market.write_state(&mut bytes);
        (market, bytes)
    }

    /// Decodes `bytes` as a market of `market`'s configuration,
    /// crediting it with one event per id `market` allocated since its
    /// build: the fewest events that could have produced its overlay.
    fn decode(market: &CreditMarket, bytes: &[u8]) -> Result<CreditMarket, CoreError> {
        let config = market.config().clone();
        let joins = market.graph().next_raw_id() - config.n as u64;
        let mut r = crate::snapshot::Reader::new(bytes);
        let decoded = CreditMarket::read_state(config, 9, &mut r, joins)?;
        r.finish()?;
        Ok(decoded)
    }

    fn word(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
    }

    /// Offsets of the registry, ledger and posted-price counts in the
    /// state of a fault-free, tax-free market, checked against the
    /// counts they must hold.
    fn section_offsets(market: &CreditMarket, bytes: &[u8]) -> (usize, usize, usize) {
        let graph = market.graph();
        let n = market.peer_count();
        // Four RNG words and the (false) fault-plan flag, then the
        // overlay: watermark, live ids, edges.
        let registry = 33 + 16 + 8 * graph.node_count() + 8 + 16 * graph.edge_count();
        // Registry entries are 48 bytes; ledger entries 16, then three
        // pools, four counters, seven fault counters, an empty retry
        // histogram and the (false) taxation flag.
        let ledger = registry + 8 + 48 * n;
        let sellers = ledger + 8 + 16 * n + 8 * (3 + 4 + 7 + 1) + 1;
        assert_eq!(word(bytes, registry), n as u64);
        assert_eq!(word(bytes, ledger), n as u64);
        let posted = matches!(market.config().pricing, PricingConfig::SellerPoisson { .. });
        assert_eq!(word(bytes, sellers), if posted { n as u64 } else { 0 });
        let round_trip = decode(market, bytes).expect("pristine state decodes");
        assert_eq!(round_trip.state_digest(), market.state_digest());
        (registry, ledger, sellers)
    }

    fn assert_refused(result: Result<CreditMarket, CoreError>, needle: &str) {
        match result {
            Err(CoreError::Checkpoint(msg)) => assert!(msg.contains(needle), "{msg}"),
            Err(other) => panic!("expected a checkpoint error, got {other}"),
            Ok(_) => panic!("corrupt state decoded without error"),
        }
    }

    #[test]
    fn overlay_watermark_outside_its_bounds_fails_closed() {
        // Byte 33 (after four RNG words and the fault-plan flag) holds
        // the overlay's id watermark. `decode` allows exactly the ids the
        // run allocated, so one more is out of bounds, as is one fewer
        // than the live peers.
        let (market, bytes) = churned_state(PricingConfig::default());
        let watermark = market.graph().next_raw_id();
        assert_eq!(word(&bytes, 33), watermark);
        let live = market.peer_count() as u64;
        for corrupt in [watermark + 1, live - 1] {
            let mut bytes = bytes.clone();
            bytes[33..41].copy_from_slice(&corrupt.to_le_bytes());
            assert_refused(decode(&market, &bytes), "watermark");
        }
    }

    /// Ids are 32 bits wide but stored as `u64`s: a raw id of 2^32 as a
    /// live id, an edge endpoint, a registry, ledger or posted-price id
    /// is a checkpoint error, not a panic or a truncation to id 0.
    #[test]
    fn ids_past_the_32_bit_space_fail_closed() {
        let (market, bytes) = churned_state(PricingConfig::SellerPoisson { mean: 2.0 });
        let (registry, ledger, sellers) = section_offsets(&market, &bytes);
        // The live ids follow the watermark and their count at byte 33.
        let live = 33 + 16;
        let edges = live + 8 * market.graph().node_count() + 8;
        for at in [live, edges, registry + 8, ledger + 8, sellers + 8] {
            let mut bytes = bytes.clone();
            bytes[at..at + 8].copy_from_slice(&(NodeId::MAX_RAW + 1).to_le_bytes());
            assert_refused(decode(&market, &bytes), "32-bit");
        }
    }

    #[test]
    fn registry_id_not_live_in_the_overlay_fails_closed() {
        let (market, mut bytes) = churned_state(PricingConfig::default());
        let (registry, _, _) = section_offsets(&market, &bytes);
        let dead = (0..market.graph().next_raw_id())
            .find(|&raw| !market.graph().has_node(NodeId::from_raw(raw)))
            .expect("churn left dead ids");
        bytes[registry + 8..registry + 16].copy_from_slice(&dead.to_le_bytes());
        assert_refused(decode(&market, &bytes), "not a permutation");
    }

    #[test]
    fn duplicate_registry_id_fails_closed() {
        let (market, mut bytes) = churned_state(PricingConfig::default());
        let (registry, _, _) = section_offsets(&market, &bytes);
        let first = word(&bytes, registry + 8);
        bytes[registry + 56..registry + 64].copy_from_slice(&first.to_le_bytes());
        assert_refused(decode(&market, &bytes), "not a permutation");
    }

    #[test]
    fn registry_count_unlike_the_overlay_fails_closed() {
        // A well-formed registry section one peer short.
        let (market, mut bytes) = churned_state(PricingConfig::default());
        let (registry, ledger, _) = section_offsets(&market, &bytes);
        let n = market.peer_count() as u64;
        bytes[registry..registry + 8].copy_from_slice(&(n - 1).to_le_bytes());
        bytes.drain(ledger - 48..ledger);
        assert_refused(decode(&market, &bytes), "not a permutation");
    }

    #[test]
    fn ledger_entries_out_of_registry_order_fail_closed() {
        let (market, mut bytes) = churned_state(PricingConfig::default());
        let (_, ledger, _) = section_offsets(&market, &bytes);
        let (first, second) = bytes[ledger + 8..ledger + 40].split_at_mut(16);
        first.swap_with_slice(second);
        assert_refused(decode(&market, &bytes), "ledger entries");
    }

    #[test]
    fn posted_prices_out_of_registry_order_fail_closed() {
        let (market, mut bytes) = churned_state(PricingConfig::SellerPoisson { mean: 2.0 });
        let (_, _, sellers) = section_offsets(&market, &bytes);
        let (first, second) = bytes[sellers + 8..sellers + 40].split_at_mut(16);
        first.swap_with_slice(second);
        assert_refused(decode(&market, &bytes), "posted prices");
    }

    #[test]
    fn zero_posted_price_fails_closed() {
        let (market, mut bytes) = churned_state(PricingConfig::SellerPoisson { mean: 2.0 });
        let (_, _, sellers) = section_offsets(&market, &bytes);
        bytes[sellers + 16..sellers + 24].copy_from_slice(&0u64.to_le_bytes());
        assert_refused(decode(&market, &bytes), "zero price");
    }

    #[test]
    fn posted_prices_under_uniform_pricing_fail_closed() {
        let (market, mut bytes) = churned_state(PricingConfig::default());
        let (registry, _, sellers) = section_offsets(&market, &bytes);
        let first = word(&bytes, registry + 8);
        let mut entry = first.to_le_bytes().to_vec();
        entry.extend_from_slice(&3u64.to_le_bytes());
        bytes[sellers..sellers + 8].copy_from_slice(&1u64.to_le_bytes());
        bytes.splice(sellers + 8..sellers + 8, entry);
        assert_refused(decode(&market, &bytes), "posts none");
    }

    /// Offset of the stored `total_spent` counter: after the ledger's
    /// entries and its three pools. `in_flight_total` is three counters
    /// later.
    fn counters_offset(market: &CreditMarket, bytes: &[u8]) -> usize {
        let (_, ledger, _) = section_offsets(market, bytes);
        let at = ledger + 8 + 16 * market.peer_count() + 24;
        assert_eq!(word(bytes, at), market.ledger().total_spent());
        assert_eq!(word(bytes, at + 24), market.in_flight_escrow());
        at
    }

    #[test]
    fn total_spent_unlike_the_spent_column_fails_closed() {
        let (market, bytes) = churned_state(PricingConfig::default());
        let at = counters_offset(&market, &bytes);
        let total = market.ledger().total_spent();
        assert!(total > 0, "the run spent credits");
        for corrupt in [total - 1, total + 1, u64::MAX] {
            let mut bytes = bytes.clone();
            bytes[at..at + 8].copy_from_slice(&corrupt.to_le_bytes());
            assert_refused(decode(&market, &bytes), "total spent");
        }
        // A spent column that overflows when summed is refused too.
        let (registry, _, _) = section_offsets(&market, &bytes);
        let mut bytes = bytes.clone();
        for entry in 0..2 {
            let spent = registry + 8 + 48 * entry + 16;
            bytes[spent..spent + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        assert_refused(decode(&market, &bytes), "total spent");
    }

    #[test]
    fn in_flight_total_unlike_its_column_fails_closed() {
        let (market, mut bytes) = churned_state(PricingConfig::default());
        let at = counters_offset(&market, &bytes) + 24;
        bytes[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
        assert_refused(decode(&market, &bytes), "in-flight total");
    }

    #[test]
    fn in_flight_escrow_beyond_the_pool_fails_closed() {
        // The column and its total agree, but no escrow backs them.
        let (market, mut bytes) = churned_state(PricingConfig::default());
        assert_eq!(market.ledger().escrow(), 0);
        let at = counters_offset(&market, &bytes) + 24;
        let (registry, _, _) = section_offsets(&market, &bytes);
        let in_flight = registry + 8 + 40;
        bytes[in_flight..in_flight + 8].copy_from_slice(&5u64.to_le_bytes());
        bytes[at..at + 8].copy_from_slice(&5u64.to_le_bytes());
        assert_refused(decode(&market, &bytes), "exceeds the escrow");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(MarketConfig::new(40, 20), 10, 1_000);
        let b = run(MarketConfig::new(40, 20), 10, 1_000);
        assert_eq!(a.ledger().balances_vec(), b.ledger().balances_vec());
        assert_eq!(a.gini_series(), b.gini_series());
        let c = run(MarketConfig::new(40, 20), 11, 1_000);
        assert_ne!(a.ledger().balances_vec(), c.ledger().balances_vec());
    }

    #[test]
    fn zero_rate_fault_spec_is_byte_identical_to_none() {
        // An all-zero spec must not even build the plan: trajectories
        // match a fault-free run bit for bit.
        let base = MarketConfig::new(40, 20);
        let zeroed = base.clone().faults(FaultSpec::default());
        let a = run(base, 10, 1_000);
        let b = run(zeroed, 10, 1_000);
        assert!(!b.faults_enabled());
        assert_eq!(a.ledger().balances_vec(), b.ledger().balances_vec());
        assert_eq!(a.gini_series(), b.gini_series());
        assert_eq!(a.purchases(), b.purchases());
        assert_eq!(b.fault_stats(), &FaultStats::default());
    }

    #[test]
    fn faulty_market_recovers_and_conserves() {
        let spec = FaultSpec {
            drop_rate: 0.10,
            defect_rate: 0.05,
            delay_rate: 0.05,
            crash_fraction: 0.10,
            onset: SimTime::from_secs(50),
            ..FaultSpec::default()
        };
        let config = MarketConfig::new(50, 30)
            .topology(TopologyKind::Complete)
            .faults(spec);
        let market = run(config, 14, 2_000);
        assert!(market.faults_enabled());
        let stats = market.fault_stats();
        assert!(stats.delivered > 100, "delivered {}", stats.delivered);
        assert!(stats.dropped > 0, "no drops injected");
        assert!(stats.defected > 0, "no defections injected");
        assert!(stats.delayed > 0, "no delays injected");
        assert!(stats.retries > 0, "failures never retried");
        assert!(stats.crashes > 0, "no crashes fired");
        assert!(market.ledger().conserved());
        // Per-trade escrow is a sub-pool of the ledger's total escrow
        // (which also holds unredistributed tax).
        assert!(market.in_flight_escrow() <= market.ledger().escrow());
        assert!(
            !stats.retry_depth.is_empty()
                && stats.retry_depth.iter().sum::<u64>() >= stats.delivered,
            "conclusion histogram inconsistent: {:?}",
            stats.retry_depth
        );
        assert_eq!(market.purchases(), stats.delivered);
    }

    #[test]
    fn faults_compose_with_churn_and_tax() {
        let spec = FaultSpec {
            drop_rate: 0.15,
            defect_rate: 0.05,
            crash_fraction: 0.2,
            ..FaultSpec::default()
        };
        let churn = ChurnConfig::new(0.5, 200.0, 8).expect("valid");
        let config = MarketConfig::new(100, 30)
            .churn(churn)
            .tax(TaxConfig::new(0.2, 25).expect("valid"))
            .topology(TopologyKind::Complete)
            .faults(spec);
        let market = run(config, 15, 2_000);
        let stats = market.fault_stats();
        assert!(stats.delivered > 0);
        assert!(stats.crashes > 0, "crash fraction 0.2 never fired");
        assert!(market.ledger().conserved());
        assert!(market.ledger().burned() > 0, "departures burn credits");
    }

    #[test]
    fn faulty_runs_are_deterministic_given_seed() {
        let spec = FaultSpec {
            drop_rate: 0.2,
            defect_rate: 0.1,
            delay_rate: 0.1,
            crash_fraction: 0.1,
            ..FaultSpec::default()
        };
        let config = MarketConfig::new(40, 20).faults(spec);
        let a = run(config.clone(), 16, 1_000);
        let b = run(config.clone(), 16, 1_000);
        assert_eq!(a.ledger().balances_vec(), b.ledger().balances_vec());
        assert_eq!(a.fault_stats(), b.fault_stats());
        assert_eq!(a.gini_series(), b.gini_series());
        let c = run(config, 17, 1_000);
        assert_ne!(a.ledger().balances_vec(), c.ledger().balances_vec());
    }

    /// The lookahead hook only reads. On a churned, faulted,
    /// seller-Poisson market it is shown every pending event (spends of
    /// departed buyers and in-flight deliveries included) and a spend
    /// by an id past every table; it neither panics nor changes the
    /// state digest or the bytes a checkpoint would hold.
    #[test]
    fn prefetch_reads_every_pending_event_without_a_change() {
        let spec = FaultSpec {
            drop_rate: 0.1,
            delay_rate: 0.1,
            crash_fraction: 0.2,
            ..FaultSpec::default()
        };
        let config = MarketConfig::new(60, 10)
            .churn(ChurnConfig::new(0.5, 200.0, 8).expect("valid"))
            .pricing(PricingConfig::SellerPoisson { mean: 2.0 })
            .faults(spec);
        let market = CreditMarket::build(config, 9).expect("builds");
        let profile = market.queue_profile();
        let mut sim = Simulation::with_profile(market, profile);
        sim.schedule(SimTime::ZERO, MarketEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(600));
        let (market, pending) = (sim.model(), sim.scheduler().snapshot_events());
        assert!(
            pending.iter().any(|s| matches!(s.event,
                MarketEvent::Spend(id) if !market.ledger().has_account(id))),
            "a departed buyer's spend is pending"
        );
        assert!(pending
            .iter()
            .any(|s| matches!(s.event, MarketEvent::Deliver { .. })));
        let state = || {
            let mut bytes = Vec::new();
            for scheduled in &pending {
                scheduled.event.encode(&mut bytes);
            }
            market.write_state(&mut bytes);
            (market.state_digest(), bytes)
        };
        let before = state();
        for scheduled in &pending {
            market.prefetch(&scheduled.event);
        }
        market.prefetch(&MarketEvent::Spend(NodeId::from_raw(NodeId::MAX_RAW)));
        assert_eq!(state(), before);
    }

    #[test]
    fn ring_and_regular_topologies_run() {
        let ring = run(
            MarketConfig::new(20, 5).topology(TopologyKind::Ring),
            12,
            200,
        );
        assert_eq!(ring.peer_count(), 20);
        let reg = run(
            MarketConfig::new(20, 5).topology(TopologyKind::Regular(4)),
            13,
            200,
        );
        assert_eq!(reg.peer_count(), 20);
    }
}
