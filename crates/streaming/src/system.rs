//! The event-driven mesh-pull streaming system.
//!
//! ## Hot-path layout
//!
//! All per-peer protocol state is indexed by raw [`NodeId`], like the
//! graph's rows: the [`PeerState`] table holds `None` for a departed id
//! and the source-fed flags hold `false`, so a join pushes one entry and
//! a leave moves nothing. Neighbor sets are borrowed straight from the
//! graph's rows ([`Graph::neighbor_slice`]), and the per-round work
//! lists (wanted chunks, rarest-first keys, candidate providers) go
//! through scratch buffers kept warm across events — a steady-state
//! chunk trade allocates nothing. This mirrors the market simulator's
//! architecture (see the "Performance model" section of
//! `docs/ARCHITECTURE.md`).
//!
//! A [`PeerArena`] keeps the live peers in pick order (join order
//! perturbed by swap-removes) for the two loops whose result depends on
//! order: the bootstrap draws and the stall average, a float sum.
//! Summing the stall in ascending-id order instead changes the
//! `streaming-tax-churn` golden in its last bits.

use scrip_des::dist::Exp;
use scrip_des::stats::TimeSeries;
use scrip_des::{
    DeliveryOutcome, FaultPlan, FaultSpec, FaultStats, FenwickSampler, Model, QueueProfile,
    Scheduler, SimDuration, SimRng, SimTime,
};
use scrip_topology::churn::{AttachmentRule, ChurnTopology};
use scrip_topology::{Graph, NodeId, PeerArena};

use crate::config::{ChunkStrategy, ProviderSelection, StreamingConfig};
use crate::metrics::SystemReport;
use crate::peer::PeerState;
use crate::policy::TradePolicy;

/// Events driving the streaming protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamEvent {
    /// Kick-off: starts the source, every peer's scheduling loop, the
    /// sampling chain, and (when configured) churn. Schedule exactly
    /// once, at the desired stream start time.
    Bootstrap,
    /// The source emits its next chunk.
    SourceChunk,
    /// A peer runs one pull-scheduling round.
    Schedule(NodeId),
    /// A peer's playback deadline tick.
    Playback(NodeId),
    /// A peer-to-peer chunk transfer completes.
    PeerDelivery {
        /// Receiving peer.
        to: NodeId,
        /// Uploading peer.
        from: NodeId,
        /// Chunk sequence number.
        chunk: u64,
    },
    /// A source-to-peer chunk transfer completes.
    SourceDelivery {
        /// Receiving peer.
        to: NodeId,
        /// Chunk sequence number.
        chunk: u64,
    },
    /// A new peer joins the overlay, attaching to `attach_degree` random
    /// existing peers (churn support).
    Join {
        /// Number of neighbors the joiner connects to.
        attach_degree: usize,
    },
    /// A peer departs, dropping its edges and in-flight state.
    Leave(NodeId),
    /// A peer crashes abruptly (fault injection only): an unplanned
    /// departure scheduled by the [`FaultPlan`], counted apart from
    /// ordinary churn.
    Crash(NodeId),
    /// Periodic metrics tick: records the swarm stall rate and calls
    /// [`TradePolicy::sample`]. Scheduled by [`StreamEvent::Bootstrap`]
    /// when [`StreamingConfig::sample_interval`] is set.
    Sample,
}

/// The mesh-pull streaming system: a [`Model`] for the
/// [`scrip_des::Simulation`] kernel.
///
/// See the [crate-level documentation](crate) for the protocol and an
/// end-to-end example, and the [module docs](self) for the hot-path
/// data layout.
#[derive(Clone, Debug)]
pub struct StreamingSystem<T: TradePolicy> {
    config: StreamingConfig,
    graph: Graph,
    /// The live peers in pick order (see the [module docs](self)).
    arena: PeerArena,
    /// Protocol state by raw id (`None` for departed ids).
    peers: Vec<Option<PeerState>>,
    /// "Directly fed by the source" flags by raw id.
    source_fed: Vec<bool>,
    source_active_uploads: usize,
    next_chunk: u64,
    policy: T,
    rng: SimRng,
    transfer_time: Exp,
    bootstrapped: bool,
    /// The deterministic fault oracle; present only when a spec with at
    /// least one positive rate was installed
    /// ([`StreamingSystem::with_faults`]), so the fault-free delivery
    /// path pays a single `is_some` branch. The plan draws from its own
    /// seed-derived stream, never from `rng`, so installing it does not
    /// perturb the protocol's randomness.
    fault_plan: Option<FaultPlan>,
    /// Injected-fault counters (all zero when faults are off). The
    /// streaming layer settles on delivery, so `retries`/`refunded`/
    /// `retry_depth` stay empty here: a failed chunk simply becomes
    /// wanted again and the pull loop re-requests it organically.
    fault_stats: FaultStats,
    /// `(t, stall rate)` samples (see [`StreamingSystem::stall_series`]
    /// for the exact definition).
    stall_series: TimeSeries,
    /// Scratch: missing chunks of the scheduling round (reused so the
    /// hot path never allocates in steady state).
    scratch_wanted: Vec<u64>,
    /// Scratch: `(provider count, chunk)` keys for rarest-first.
    scratch_keyed: Vec<(usize, u64)>,
    /// Scratch: candidate providers for one chunk.
    scratch_providers: Vec<NodeId>,
    /// Scratch: Fenwick tree for availability-weighted provider picks
    /// ([`crate::config::ProviderSelection::AvailabilityWeighted`]).
    scratch_sampler: FenwickSampler,
}

impl<T: TradePolicy> StreamingSystem<T> {
    /// Builds a streaming system over `graph` with the given protocol
    /// configuration and trade policy.
    ///
    /// # Errors
    /// Returns a message if the configuration is inconsistent or the
    /// graph is empty.
    pub fn new(
        graph: Graph,
        config: StreamingConfig,
        policy: T,
        mut rng: SimRng,
    ) -> Result<Self, String> {
        config.validate()?;
        if graph.node_count() == 0 {
            return Err("streaming needs at least one peer".into());
        }
        let ids: Vec<NodeId> = graph.node_ids().collect();
        let mut arena = PeerArena::default();
        let mut peers = Vec::new();
        peers.resize_with(graph.next_raw_id() as usize, || None);
        for &id in &ids {
            arena.insert(id);
            peers[id.index()] = Some(PeerState::new(config.window));
        }
        // The source feeds a random subset of peers.
        let mut shuffled = ids;
        rng.shuffle(&mut shuffled);
        let mut source_fed = vec![false; graph.next_raw_id() as usize];
        for &id in shuffled.iter().take(config.source_degree) {
            source_fed[id.index()] = true;
        }
        let transfer_time = Exp::new(1.0 / config.transfer_time_mean)
            .map_err(|e| format!("transfer time distribution: {e}"))?;
        Ok(StreamingSystem {
            config,
            graph,
            arena,
            peers,
            source_fed,
            source_active_uploads: 0,
            next_chunk: 0,
            policy,
            rng,
            transfer_time,
            bootstrapped: false,
            fault_plan: None,
            fault_stats: FaultStats::default(),
            stall_series: TimeSeries::new(),
            scratch_wanted: Vec::new(),
            scratch_keyed: Vec::new(),
            scratch_providers: Vec::new(),
            scratch_sampler: FenwickSampler::new(),
        })
    }

    /// Installs deterministic fault injection: dropped, defected, and
    /// delayed peer deliveries plus abrupt peer crashes, scheduled by a
    /// [`FaultPlan`] derived from `root_seed` (an all-zero spec installs
    /// nothing, keeping the run byte-identical to a fault-free one).
    ///
    /// Unlike the queue-level market, the streaming layer settles on
    /// delivery, so there is no escrow window: a drop moves no credits,
    /// a defection settles without goods, and recovery is organic — the
    /// failed chunk becomes wanted again and the pull scheduler
    /// re-requests it on its next round. Source deliveries are never
    /// faulted (faults model peer misbehavior, not the operator).
    ///
    /// # Errors
    /// Returns the message from [`FaultSpec::validate`].
    pub fn with_faults(mut self, spec: FaultSpec, root_seed: u64) -> Result<Self, String> {
        spec.validate()?;
        if spec.any_faults() {
            self.fault_plan = Some(FaultPlan::new(spec, root_seed)?);
        }
        Ok(self)
    }

    /// Whether a fault plan is active on this system.
    pub fn faults_enabled(&self) -> bool {
        self.fault_plan.is_some()
    }

    /// Injected-fault counters (all zero when faults are off).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// The protocol configuration.
    pub fn config(&self) -> &StreamingConfig {
        &self.config
    }

    /// The overlay graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The trade policy (e.g. to read out market state after a run).
    pub fn policy(&self) -> &T {
        &self.policy
    }

    /// One peer's protocol state, if the peer is (still) in the overlay.
    pub fn peer(&self, id: NodeId) -> Option<&PeerState> {
        live(&self.peers, id)
    }

    /// Iterates over `(id, state)` for all live peers in ascending ID
    /// order.
    pub fn peers(&self) -> impl Iterator<Item = (NodeId, &PeerState)> {
        (0..)
            .zip(&self.peers)
            .filter_map(|(raw, state)| Some((NodeId::from_raw(raw), state.as_ref()?)))
    }

    /// Number of live peers.
    pub fn peer_count(&self) -> usize {
        self.arena.len()
    }

    /// Whether `id` is directly fed by the source (`false` once it
    /// departed).
    pub fn is_source_fed(&self, id: NodeId) -> bool {
        self.source_fed.get(id.index()).copied().unwrap_or(false)
    }

    /// The recorded `(t, stall rate)` series — one sample per
    /// [`StreamEvent::Sample`] tick. The stall rate averages, over live
    /// peers, each peer's missed-deadline fraction — with a peer that
    /// has not yet started playback counting as fully stalled, so a
    /// credit-starved swarm whose peers never leave the startup screen
    /// reads as stalled rather than as suspiciously healthy.
    pub fn stall_series(&self) -> &TimeSeries {
        &self.stall_series
    }

    /// Aggregated protocol metrics at instant `now`.
    pub fn report(&self, now: SimTime) -> SystemReport {
        SystemReport::compute(self, now)
    }

    /// The steady-state event-queue population this swarm sustains: per
    /// peer one scheduling loop, one playback timer, and up to
    /// `max_pending` in-flight deliveries; plus the source chunk clock,
    /// the sampling chain, and (under churn) one leave timer per peer
    /// and the arrival process. [`StreamingSystem::queue_profile`] sizes
    /// the queue's node slab with it.
    pub fn queue_capacity_hint(&self) -> usize {
        let per_peer = 2 + self.config.max_pending + usize::from(self.config.churn.is_some());
        self.arena.len() * per_peer + 3
    }

    /// How this swarm's event queue is sized: the steady-state population
    /// from [`StreamingSystem::queue_capacity_hint`], with the scheduling
    /// interval as the typical lookahead (the per-peer pull loop
    /// dominates the queue; transfer completions and playback ticks land
    /// within a few intervals of it).
    pub fn queue_profile(&self) -> QueueProfile {
        QueueProfile {
            expected_events: self.queue_capacity_hint(),
            typical_delay: self.config.schedule_interval,
        }
    }

    /// The range of chunks a peer currently wants: from its playback
    /// position (or the live edge for not-yet-started peers) up to the
    /// pull horizon.
    fn desired_range(config: &StreamingConfig, next_chunk: u64, state: &PeerState) -> (u64, u64) {
        let lookahead = (config.window - config.serve_behind) as u64;
        match state.playback_pos {
            Some(pos) => (pos, (pos + lookahead).min(next_chunk)),
            None => {
                let anchor = next_chunk.saturating_sub(2 * config.startup_buffer as u64);
                (anchor, next_chunk)
            }
        }
    }

    /// One pull-scheduling round — the streaming hot path. All borrows
    /// are split at field level so the graph's neighbor slice, the
    /// raw-id peer states, the RNG, and the scratch buffers can
    /// be used together without any per-round allocation.
    fn handle_schedule(
        &mut self,
        id: NodeId,
        now: SimTime,
        scheduler: &mut Scheduler<StreamEvent>,
    ) {
        let StreamingSystem {
            config,
            graph,
            peers,
            source_fed,
            source_active_uploads,
            next_chunk,
            policy,
            rng,
            transfer_time,
            scratch_wanted: wanted,
            scratch_keyed: keyed,
            scratch_providers: providers,
            scratch_sampler: sampler,
            ..
        } = self;
        let Some(state) = live(peers, id) else {
            return; // departed
        };
        let (from, to) = Self::desired_range(config, *next_chunk, state);
        let is_source_fed = source_fed[id.index()];

        // Missing, not-in-flight chunks in the desired range.
        wanted.clear();
        wanted.extend((from..to).filter(|&c| !state.buffer.has(c) && !state.pending.contains(c)));
        let capacity = config.max_pending.saturating_sub(state.pending.len());
        if capacity == 0 || wanted.is_empty() {
            scheduler.schedule_after(config.schedule_interval, StreamEvent::Schedule(id));
            return;
        }
        let neighbors = graph.neighbor_slice(id).unwrap_or(&[]);

        // Provider counts for rarest-first ordering.
        if config.strategy == ChunkStrategy::RarestFirst {
            keyed.clear();
            keyed.extend(wanted.iter().map(|&c| {
                let providers = neighbors
                    .iter()
                    .filter(|&&nb| live(peers, nb).is_some_and(|s| s.buffer.has(c)))
                    .count();
                (providers, c)
            }));
            keyed.sort_unstable();
            wanted.clear();
            wanted.extend(keyed.iter().map(|&(_, c)| c));
        } // DeadlineFirst: already ascending by chunk id.

        let mut issued = 0usize;
        for &chunk in wanted.iter() {
            if issued >= capacity {
                break;
            }
            // Candidate peer providers with a free upload slot.
            providers.clear();
            providers.extend(neighbors.iter().copied().filter(|&nb| {
                live(peers, nb)
                    .is_some_and(|s| s.buffer.has(chunk) && s.can_upload(config.max_uploads))
            }));
            rng.shuffle(providers);
            match config.provider_selection {
                ProviderSelection::Random => {}
                ProviderSelection::LeastUploads => {
                    // Fair rotation: least-served provider first (shuffle
                    // above breaks ties randomly thanks to stable sorting).
                    providers.sort_by_key(|&nb| live(peers, nb).map_or(0, |s| s.stats.uploaded));
                }
                ProviderSelection::AvailabilityWeighted => {
                    // Paper Sec. III: "credit transfer probabilities to
                    // neighbors are decided by their data chunks
                    // availability during streaming". Weight each
                    // candidate by the useful chunks it currently offers
                    // this peer, plus one so empty providers stay
                    // selectable; integer weights keep the Fenwick
                    // arithmetic exact. One weighted pick moves to the
                    // front; the rest stay shuffled as authorize
                    // fallbacks.
                    if providers.len() > 1 {
                        sampler.clear();
                        let own = &live(peers, id).expect("checked live").buffer;
                        for &nb in providers.iter() {
                            let useful = live(peers, nb).map_or(0, |s| own.useful_from(&s.buffer));
                            sampler.push(useful as f64 + 1.0);
                        }
                        sampler.build();
                        let target = rng.uniform_f64() * sampler.total();
                        let k = sampler.pick(target);
                        providers.swap(0, k);
                    }
                }
            }

            let mut served = false;
            let mut denied_any = false;
            for &provider in providers.iter() {
                if policy.authorize(id, provider, chunk, now) {
                    live_mut(peers, provider).active_uploads += 1;
                    live_mut(peers, id).pending.insert(chunk);
                    let delay = SimDuration::from_secs_f64(transfer_time.sample(rng));
                    scheduler.schedule_after(
                        delay,
                        StreamEvent::PeerDelivery {
                            to: id,
                            from: provider,
                            chunk,
                        },
                    );
                    served = true;
                    issued += 1;
                    break;
                }
                denied_any = true;
            }
            if served {
                continue;
            }
            if denied_any {
                live_mut(peers, id).stats.denied += 1;
            }
            // Fall back to the source when directly fed by it.
            if is_source_fed
                && chunk < *next_chunk
                && *source_active_uploads < config.source_uploads
            {
                if policy.authorize_source(id, chunk, now) {
                    *source_active_uploads += 1;
                    live_mut(peers, id).pending.insert(chunk);
                    let delay = SimDuration::from_secs_f64(transfer_time.sample(rng));
                    scheduler.schedule_after(delay, StreamEvent::SourceDelivery { to: id, chunk });
                    issued += 1;
                } else {
                    live_mut(peers, id).stats.denied += 1;
                }
            }
        }
        scheduler.schedule_after(config.schedule_interval, StreamEvent::Schedule(id));
    }

    fn maybe_start_playback(&mut self, id: NodeId, scheduler: &mut Scheduler<StreamEvent>) {
        let period = self.config.playback_period();
        let startup = self.config.startup_buffer;
        let state = live_mut(&mut self.peers, id);
        if !state.started() && state.buffer.held() >= startup {
            state.playback_pos = state.buffer.first_held();
            scheduler.schedule_after(period, StreamEvent::Playback(id));
        }
    }

    fn handle_playback(&mut self, id: NodeId, scheduler: &mut Scheduler<StreamEvent>) {
        let serve_behind = self.config.serve_behind as u64;
        let next_chunk = self.next_chunk;
        let period = self.config.playback_period();
        let Some(Some(state)) = self.peers.get_mut(id.index()) else {
            return; // departed
        };
        let Some(pos) = state.playback_pos else {
            return;
        };
        if pos < next_chunk {
            // A deadline actually passes; at the live edge we just wait.
            if state.buffer.has(pos) {
                state.stats.played += 1;
            } else {
                state.stats.missed += 1;
            }
            state.playback_pos = Some(pos + 1);
            let new_base = (pos + 1).saturating_sub(serve_behind);
            state.buffer.advance_to(new_base);
        }
        scheduler.schedule_after(period, StreamEvent::Playback(id));
    }

    fn exp_delay(&mut self, rate: f64) -> SimDuration {
        let u = self.rng.uniform_open01();
        SimDuration::from_secs_f64(-u.ln() / rate.max(1e-12))
    }

    fn handle_join(
        &mut self,
        attach_degree: usize,
        now: SimTime,
        scheduler: &mut Scheduler<StreamEvent>,
    ) {
        // Joiners attach to uniformly random live peers (a partial
        // Fisher–Yates shuffle through the overlay's join index).
        let join = ChurnTopology {
            attach_degree,
            rule: AttachmentRule::Uniform,
        };
        let new = join.join(&mut self.graph, &mut self.rng);
        // Ids are dense: the joiner's entry is the next one of each
        // table.
        debug_assert_eq!(new.index(), self.peers.len(), "ids are dense");
        self.arena.insert(new);
        self.peers.push(Some(PeerState::new(self.config.window)));
        self.source_fed.push(false);
        self.policy.on_join(new, now);
        if let Some(plan) = &mut self.fault_plan {
            if let Some(d) = plan.crash_delay(now) {
                scheduler.schedule_after(d, StreamEvent::Crash(new));
            }
        }
        scheduler.schedule_after(self.config.schedule_interval, StreamEvent::Schedule(new));
        if let Some(churn) = self.config.churn {
            let lifespan = self.exp_delay(1.0 / churn.mean_lifespan);
            scheduler.schedule_after(lifespan, StreamEvent::Leave(new));
            let arrival = self.exp_delay(churn.arrival_rate);
            scheduler.schedule_after(
                arrival,
                StreamEvent::Join {
                    attach_degree: churn.attach_degree,
                },
            );
        }
    }

    fn handle_leave(&mut self, id: NodeId, now: SimTime) {
        if !self.graph.has_node(id) {
            return;
        }
        self.graph.remove_node(id).expect("checked live");
        self.arena.remove(id);
        self.peers[id.index()] = None;
        self.source_fed[id.index()] = false;
        self.policy.on_leave(id, now);
        // In-flight deliveries to/from this peer are dropped on arrival by
        // the liveness guards in the delivery handlers.
    }

    fn handle_sample(&mut self, now: SimTime, scheduler: &mut Scheduler<StreamEvent>) {
        let Some(interval) = self.config.sample_interval else {
            return;
        };
        let n = self.arena.len();
        if n > 0 {
            // A peer that has not started playback is fully stalled (it
            // is stuck at the startup screen — exactly the fate of a
            // broke peer in a credit-starved swarm); a started peer
            // contributes its missed-deadline fraction. Summed in pick
            // order (see the module docs).
            let mean_stall: f64 = self
                .arena
                .ids()
                .iter()
                .map(|&id| {
                    let s = live(&self.peers, id).expect("arena ids are live");
                    if s.started() {
                        1.0 - s.stats.continuity()
                    } else {
                        1.0
                    }
                })
                .sum::<f64>()
                / n as f64;
            self.stall_series.record(now, mean_stall);
        }
        self.policy.sample(now);
        scheduler.schedule_after(interval, StreamEvent::Sample);
    }
}

impl<T: TradePolicy> Model for StreamingSystem<T> {
    type Event = StreamEvent;

    fn handle(&mut self, now: SimTime, event: StreamEvent, scheduler: &mut Scheduler<StreamEvent>) {
        match event {
            StreamEvent::Bootstrap => {
                if self.bootstrapped {
                    return;
                }
                self.bootstrapped = true;
                scheduler.schedule_after(SimDuration::ZERO, StreamEvent::SourceChunk);
                // Stagger peers' scheduling phases to avoid a thundering
                // herd, drawing in pick order.
                let ids: Vec<NodeId> = self.arena.ids().to_vec();
                let interval_us = self.config.schedule_interval.as_micros();
                for &id in &ids {
                    let phase =
                        SimDuration::from_micros(self.rng.index(interval_us as usize) as u64);
                    scheduler.schedule_after(phase, StreamEvent::Schedule(id));
                }
                if self.config.sample_interval.is_some() {
                    scheduler.schedule_after(SimDuration::ZERO, StreamEvent::Sample);
                }
                if let Some(plan) = &mut self.fault_plan {
                    // Crash draws in pick order (== construction order at
                    // bootstrap), one per peer, per the plan's contract.
                    for &id in &ids {
                        if let Some(d) = plan.crash_delay(now) {
                            scheduler.schedule_after(d, StreamEvent::Crash(id));
                        }
                    }
                }
                if let Some(churn) = self.config.churn {
                    for &id in &ids {
                        let d = self.exp_delay(1.0 / churn.mean_lifespan);
                        scheduler.schedule_after(d, StreamEvent::Leave(id));
                    }
                    let d = self.exp_delay(churn.arrival_rate);
                    scheduler.schedule_after(
                        d,
                        StreamEvent::Join {
                            attach_degree: churn.attach_degree,
                        },
                    );
                }
            }
            StreamEvent::SourceChunk => {
                self.next_chunk += 1;
                scheduler.schedule_after(self.config.playback_period(), StreamEvent::SourceChunk);
            }
            StreamEvent::Schedule(id) => self.handle_schedule(id, now, scheduler),
            StreamEvent::Playback(id) => self.handle_playback(id, scheduler),
            StreamEvent::PeerDelivery { to, from, chunk } => {
                let outcome = match &mut self.fault_plan {
                    Some(plan) => plan.delivery_outcome(now),
                    None => DeliveryOutcome::Delivered,
                };
                if outcome == DeliveryOutcome::Delayed {
                    // The transfer stays in flight — provider slot busy,
                    // chunk pending — and the completion re-fires after
                    // the penalty (re-drawn then, so longer delay chains
                    // stay possible but geometrically rare).
                    self.fault_stats.delayed += 1;
                    let penalty = self
                        .fault_plan
                        .as_mut()
                        .expect("delayed outcome implies a plan")
                        .delay_penalty();
                    scheduler
                        .schedule_after(penalty, StreamEvent::PeerDelivery { to, from, chunk });
                    return;
                }
                if let Some(Some(provider)) = self.peers.get_mut(from.index()) {
                    provider.active_uploads = provider.active_uploads.saturating_sub(1);
                    if outcome == DeliveryOutcome::Delivered {
                        provider.stats.uploaded += 1;
                    }
                }
                if let Some(Some(state)) = self.peers.get_mut(to.index()) {
                    state.pending.remove(chunk);
                    match outcome {
                        DeliveryOutcome::Delivered => {
                            state.buffer.insert(chunk);
                            state.stats.received_from_peers += 1;
                            self.policy.settle(to, from, chunk, now);
                            if self.fault_plan.is_some() {
                                self.fault_stats.delivered += 1;
                            }
                            self.maybe_start_playback(to, scheduler);
                        }
                        DeliveryOutcome::Dropped => {
                            // Lost in transit: settlement is on delivery,
                            // so no credits move; the chunk becomes
                            // wanted again on the next pull round.
                            self.fault_stats.dropped += 1;
                        }
                        DeliveryOutcome::Defected => {
                            // The seller takes payment and never uploads:
                            // settle without inserting the chunk.
                            self.fault_stats.defected += 1;
                            self.policy.settle(to, from, chunk, now);
                        }
                        DeliveryOutcome::Delayed => unreachable!("rescheduled above"),
                    }
                }
            }
            StreamEvent::SourceDelivery { to, chunk } => {
                self.source_active_uploads = self.source_active_uploads.saturating_sub(1);
                if let Some(Some(state)) = self.peers.get_mut(to.index()) {
                    state.pending.remove(chunk);
                    state.buffer.insert(chunk);
                    state.stats.received_from_source += 1;
                    self.policy.settle_source(to, chunk, now);
                    self.maybe_start_playback(to, scheduler);
                }
            }
            StreamEvent::Join { attach_degree } => self.handle_join(attach_degree, now, scheduler),
            StreamEvent::Leave(id) => self.handle_leave(id, now),
            StreamEvent::Crash(id) => {
                if self.arena.contains(id) {
                    self.fault_stats.crashes += 1;
                    self.handle_leave(id, now);
                }
            }
            StreamEvent::Sample => self.handle_sample(now, scheduler),
        }
    }
}

/// The state of `id`, if it is live.
#[inline]
fn live(peers: &[Option<PeerState>], id: NodeId) -> Option<&PeerState> {
    peers.get(id.index())?.as_ref()
}

/// The state of `id`, which the caller knows is live.
#[inline]
fn live_mut(peers: &mut [Option<PeerState>], id: NodeId) -> &mut PeerState {
    peers[id.index()].as_mut().expect("peer is live")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CountingPolicy, FreeTrade};
    use scrip_des::Simulation;
    use scrip_topology::churn::ChurnConfig;
    use scrip_topology::generators::{self, ScaleFreeConfig};

    fn small_system(seed: u64) -> StreamingSystem<FreeTrade> {
        let mut rng = SimRng::seed_from_u64(seed);
        let graph = generators::scale_free(&ScaleFreeConfig::new(40).expect("cfg"), &mut rng)
            .expect("graph");
        StreamingSystem::new(graph, StreamingConfig::default(), FreeTrade, rng).expect("system")
    }

    fn run(
        system: StreamingSystem<FreeTrade>,
        secs: u64,
    ) -> Simulation<StreamingSystem<FreeTrade>> {
        let mut sim = Simulation::new(system);
        sim.schedule(SimTime::ZERO, StreamEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(secs));
        sim
    }

    #[test]
    fn construction_validates() {
        let rng = SimRng::seed_from_u64(1);
        let empty = Graph::new();
        assert!(StreamingSystem::new(empty, StreamingConfig::default(), FreeTrade, rng).is_err());
        let rng = SimRng::seed_from_u64(1);
        let bad = StreamingConfig {
            window: 0,
            ..Default::default()
        };
        assert!(StreamingSystem::new(generators::complete(4), bad, FreeTrade, rng).is_err());
    }

    #[test]
    fn source_emits_at_chunk_rate() {
        let sim = run(small_system(2), 10);
        // 10 chunks/sec for 10 s (first at t=0) -> 101 chunks.
        assert_eq!(sim.model().next_chunk, 101);
    }

    #[test]
    fn peers_start_and_play() {
        let sim = run(small_system(3), 120);
        let started = sim.model().peers().filter(|(_, s)| s.started()).count();
        assert!(
            started > 35,
            "only {started}/40 peers started playback after 120 s"
        );
        let report = sim.model().report(sim.now());
        assert!(
            report.mean_continuity > 0.6,
            "mean continuity {}",
            report.mean_continuity
        );
    }

    #[test]
    fn chunks_propagate_beyond_source_neighbors() {
        let sim = run(small_system(4), 120);
        let model = sim.model();
        let indirect_received: u64 = model
            .peers()
            .filter(|&(id, _)| !model.is_source_fed(id))
            .map(|(_, s)| s.stats.received())
            .sum();
        assert!(
            indirect_received > 100,
            "mesh relaying is not happening: {indirect_received}"
        );
        let peer_uploads: u64 = model.peers().map(|(_, s)| s.stats.uploaded).sum();
        assert!(peer_uploads > 100, "peer uploads {peer_uploads}");
    }

    #[test]
    fn policy_settlements_match_peer_receives() {
        let mut rng = SimRng::seed_from_u64(5);
        let graph = generators::scale_free(&ScaleFreeConfig::new(30).expect("cfg"), &mut rng)
            .expect("graph");
        let system = StreamingSystem::new(
            graph,
            StreamingConfig::default(),
            CountingPolicy::default(),
            rng,
        )
        .expect("system");
        let mut sim = Simulation::new(system);
        sim.schedule(SimTime::ZERO, StreamEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(60));
        let model = sim.model();
        let received: u64 = model
            .peers()
            .map(|(_, s)| s.stats.received_from_peers)
            .sum();
        assert_eq!(model.policy().settled, received);
        assert!(model.policy().authorized >= model.policy().settled);
    }

    #[test]
    fn join_and_leave_keep_system_running() {
        let mut sim = run(small_system(7), 30);
        let before = sim.model().peer_count();
        sim.schedule(sim.now(), StreamEvent::Join { attach_degree: 8 });
        let victim = sim.model().peers().next().map(|(id, _)| id).expect("some");
        sim.schedule(sim.now(), StreamEvent::Leave(victim));
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(sim.model().peer_count(), before);
        assert!(sim.model().peer(victim).is_none());
        // The joiner eventually receives chunks.
        let max_id = sim.model().peers().map(|(id, _)| id).max().expect("some");
        let joiner = sim.model().peer(max_id).expect("live");
        assert!(joiner.stats.received() > 0, "joiner never received a chunk");
    }

    #[test]
    fn churn_config_drives_joins_and_leaves() {
        let mut rng = SimRng::seed_from_u64(17);
        let graph = generators::scale_free(&ScaleFreeConfig::new(40).expect("cfg"), &mut rng)
            .expect("graph");
        let config = StreamingConfig {
            churn: Some(ChurnConfig::new(0.4, 100.0, 8).expect("valid")),
            ..Default::default()
        };
        let system = StreamingSystem::new(graph, config, FreeTrade, rng).expect("system");
        let mut sim = Simulation::new(system);
        sim.schedule(SimTime::ZERO, StreamEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(300));
        let model = sim.model();
        // Arrivals happened: IDs beyond the initial 40 exist.
        let max_id = model.peers().map(|(id, _)| id.raw()).max().expect("some");
        assert!(
            max_id >= 40,
            "no joiner was ever admitted (max id {max_id})"
        );
        // Expected population 0.4 × 100 = 40; allow a generous band.
        let n = model.peer_count();
        assert!((15..=90).contains(&n), "population drifted to {n}");
        // The swarm keeps streaming through the churn.
        let report = model.report(sim.now());
        assert!(report.total_uploads > 100, "{report}");
    }

    #[test]
    fn sampling_records_stall_series() {
        let mut rng = SimRng::seed_from_u64(18);
        let graph = generators::scale_free(&ScaleFreeConfig::new(30).expect("cfg"), &mut rng)
            .expect("graph");
        let config = StreamingConfig {
            sample_interval: Some(SimDuration::from_secs(10)),
            ..Default::default()
        };
        let system = StreamingSystem::new(graph, config, FreeTrade, rng).expect("system");
        let mut sim = Simulation::new(system);
        sim.schedule(SimTime::ZERO, StreamEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(120));
        let series = sim.model().stall_series();
        assert!(series.len() >= 12, "samples {}", series.len());
        for &(_, stall) in series.samples() {
            assert!((0.0..=1.0).contains(&stall), "stall {stall}");
        }
        // A healthy free-trade swarm stalls rarely once warmed up.
        let last = series.samples().last().expect("non-empty").1;
        assert!(last < 0.5, "stall rate {last}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(small_system(42), 60);
        let b = run(small_system(42), 60);
        let ra = a.model().report(a.now());
        let rb = b.model().report(b.now());
        assert_eq!(ra, rb);
    }

    #[test]
    fn bootstrap_is_idempotent() {
        let mut sim = run(small_system(8), 5);
        let head_before = sim.model().next_chunk;
        // A second bootstrap must not double the source.
        sim.schedule(sim.now(), StreamEvent::Bootstrap);
        sim.run_until(SimTime::from_secs(10));
        let head_after = sim.model().next_chunk;
        assert_eq!(head_after, head_before + 50);
    }

    /// The zero-alloc claim for the trade loop, observed from the
    /// outside: every reusable buffer the hot path touches reaches a
    /// fixed capacity during warmup and never grows again.
    #[test]
    fn trade_loop_buffers_stop_growing_after_warmup() {
        let mut sim = run(small_system(9), 60); // warmup
        let caps = |m: &StreamingSystem<FreeTrade>| {
            (
                m.scratch_wanted.capacity(),
                m.scratch_keyed.capacity(),
                m.scratch_providers.capacity(),
            )
        };
        let warm = caps(sim.model());
        let queue_cap = sim.scheduler().capacity();
        let events_before = sim.stats().events_processed;
        sim.run_until(SimTime::from_secs(300));
        assert!(
            sim.stats().events_processed > events_before + 50_000,
            "workload too small: {} events",
            sim.stats().events_processed
        );
        assert_eq!(caps(sim.model()), warm, "scratch buffers grew");
        assert_eq!(
            sim.scheduler().capacity(),
            queue_cap,
            "event queue grew during steady-state streaming"
        );
        assert!(warm.0 > 0 && warm.2 > 0, "scratch buffers were exercised");
    }

    fn faulty_spec() -> FaultSpec {
        FaultSpec {
            drop_rate: 0.15,
            defect_rate: 0.05,
            delay_rate: 0.05,
            crash_fraction: 0.2,
            onset: SimTime::from_secs(20),
            crash_spread: SimDuration::from_secs(50),
            ..FaultSpec::default()
        }
    }

    #[test]
    fn fault_injection_drops_defects_delays_and_crashes() {
        let build = |spec: Option<FaultSpec>| {
            let mut rng = SimRng::seed_from_u64(33);
            let graph = generators::scale_free(&ScaleFreeConfig::new(40).expect("cfg"), &mut rng)
                .expect("graph");
            let system = StreamingSystem::new(graph, StreamingConfig::default(), FreeTrade, rng)
                .expect("system");
            match spec {
                Some(s) => system.with_faults(s, 33).expect("valid"),
                None => system,
            }
        };
        let faulted = run(build(Some(faulty_spec())), 240);
        let stats = faulted.model().fault_stats().clone();
        assert!(stats.dropped > 0, "{stats:?}");
        assert!(stats.defected > 0, "{stats:?}");
        assert!(stats.delayed > 0, "{stats:?}");
        assert!(stats.delivered > 0, "{stats:?}");
        assert!(stats.crashes > 0, "{stats:?}");
        assert_eq!(
            faulted.model().peer_count(),
            40 - stats.crashes as usize,
            "crashes are abrupt departures"
        );
        // Same seed, same fault schedule, same run.
        let again = run(build(Some(faulty_spec())), 240);
        assert_eq!(again.model().fault_stats(), &stats);
        assert_eq!(
            again.model().report(again.now()),
            faulted.model().report(faulted.now())
        );
        // The swarm recovers: failed chunks are re-requested by the pull
        // loop, so peers keep receiving despite the fault load.
        let received: u64 = faulted
            .model()
            .peers()
            .map(|(_, s)| s.stats.received())
            .sum();
        assert!(received > 100, "swarm collapsed: {received} chunks");
    }

    #[test]
    fn zero_fault_spec_is_byte_identical_to_no_faults() {
        let build = |install_zero_spec: bool| {
            let mut rng = SimRng::seed_from_u64(34);
            let graph = generators::scale_free(&ScaleFreeConfig::new(30).expect("cfg"), &mut rng)
                .expect("graph");
            let system = StreamingSystem::new(graph, StreamingConfig::default(), FreeTrade, rng)
                .expect("system");
            if install_zero_spec {
                system.with_faults(FaultSpec::default(), 34).expect("valid")
            } else {
                system
            }
        };
        let zeroed = build(true);
        assert!(!zeroed.faults_enabled(), "all-zero spec installs no plan");
        let clean = run(build(false), 120);
        let zeroed = run(zeroed, 120);
        assert_eq!(
            clean.model().report(clean.now()),
            zeroed.model().report(zeroed.now())
        );
        assert_eq!(zeroed.model().fault_stats(), &FaultStats::default());
    }

    /// The opt-in availability-weighted provider pick: deterministic
    /// under a fixed seed, actually changes routing relative to the
    /// default uniform pick, and keeps the Fenwick scratch at a fixed
    /// size once warm (the weighted pick stays allocation-free).
    #[test]
    fn availability_weighted_provider_pick_works() {
        let build = |selection: ProviderSelection| {
            let mut rng = SimRng::seed_from_u64(23);
            let graph = generators::scale_free(&ScaleFreeConfig::new(40).expect("cfg"), &mut rng)
                .expect("graph");
            let config = StreamingConfig {
                provider_selection: selection,
                ..Default::default()
            };
            StreamingSystem::new(graph, config, FreeTrade, rng).expect("system")
        };
        let weighted_a = run(build(ProviderSelection::AvailabilityWeighted), 120);
        let weighted_b = run(build(ProviderSelection::AvailabilityWeighted), 120);
        let uniform = run(build(ProviderSelection::Random), 120);
        let report_a = weighted_a.model().report(weighted_a.now());
        assert_eq!(
            report_a,
            weighted_b.model().report(weighted_b.now()),
            "weighted pick is not deterministic"
        );
        assert!(
            report_a.total_uploads > 100,
            "weighted swarm is not streaming: {report_a}"
        );
        // Same seed, same overlay — a different per-upload distribution
        // proves the weighted branch actually routed differently.
        let uploads = |sim: &Simulation<StreamingSystem<FreeTrade>>| {
            let mut v: Vec<u64> = sim.model().peers().map(|(_, s)| s.stats.uploaded).collect();
            v.sort_unstable();
            v
        };
        assert_ne!(
            uploads(&weighted_a),
            uploads(&uniform),
            "availability weighting never changed a provider pick"
        );
        // The Fenwick scratch was exercised and reaches a fixed size.
        let mut warm = weighted_a;
        let cap = warm.model().scratch_sampler.capacity();
        assert!(cap > 0, "sampler scratch never used");
        warm.run_until(SimTime::from_secs(240));
        assert_eq!(
            warm.model().scratch_sampler.capacity(),
            cap,
            "sampler scratch grew after warmup"
        );
    }
}
