//! Per-layer measurements, each taken by timing calls into one crate's
//! public API on the end state of a traced run.

use crate::market;
use crate::report::Report;
use scrip_core::econ::IncrementalGini;
use scrip_core::market::{CreditMarket, MarketEvent};
use scrip_core::Ledger;
use scrip_des::{EventQueue, FenwickSampler, SimDuration, SimRng, Simulation};
use scrip_topology::churn::ChurnTopology;
use scrip_topology::generators::{scale_free, ScaleFreeConfig};
use scrip_topology::NodeId;
use std::hint::black_box;
use std::time::Instant;

/// Calls `op` in batches of `batch` until at least `budget_s` seconds
/// and `min_calls` calls have passed; returns mean ns per call.
fn ns_per_call(budget_s: f64, min_calls: u64, batch: u64, mut op: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            op();
        }
        calls += batch;
        let elapsed = start.elapsed().as_secs_f64();
        if calls >= min_calls && elapsed >= budget_s {
            return elapsed * 1e9 / calls as f64;
        }
    }
}

/// Layer costs the traced run's reconciliation charges per event kind.
pub struct LayerCosts {
    pub join_ns: f64,
    pub leave_ns: f64,
    /// Picking a seller and quoting its price.
    pub seller_ns: f64,
    pub queue_ns: f64,
    pub transfer_ns: f64,
    pub gini_sample_ns: f64,
}

/// Measures the topology, pricing, des, credits and econ layers on the
/// end state of `sim` and adds their metrics to `report`.
pub fn market_layers(report: &mut Report, sim: &Simulation<CreditMarket>, seed: u64) -> LayerCosts {
    let market = sim.model();
    let mut rng = SimRng::seed_from_u64(seed ^ 0x5eed_1a7e);
    let (join_ns, leave_ns) = topology(report, market, &mut rng);
    let seller_ns = seller(report, market, &mut rng);
    let t = Instant::now();
    let generated = scale_free(
        &ScaleFreeConfig::new(market.config().n).expect("workload n is valid"),
        &mut SimRng::seed_from_u64(seed),
    )
    .expect("overlay generates");
    report.metric("topology.generate_s", t.elapsed().as_secs_f64(), "s");
    drop(black_box(generated));
    fenwick(report, market, &mut rng);
    let queue_ns = queue(report, sim, &mut rng);
    let (transfer_ns, gini_sample_ns) = ledger(report, market, &mut rng);
    LayerCosts {
        join_ns,
        leave_ns,
        seller_ns,
        queue_ns,
        transfer_ns,
        gini_sample_ns,
    }
}

/// `ChurnTopology::join`/`leave` on a clone of the end-state overlay.
fn topology(report: &mut Report, market: &CreditMarket, rng: &mut SimRng) -> (f64, f64) {
    let attach = market.config().churn.map_or(20, |c| c.attach_degree);
    let churn = ChurnTopology::new(attach);
    let mut graph = market.graph().clone();
    let mut leavers: Vec<NodeId> = graph.node_ids().collect();
    rng.shuffle(&mut leavers);
    let join_ns = ns_per_call(0.25, 20, 1, || {
        black_box(churn.join(&mut graph, rng));
    });
    // A tenth of the original peers leave (at most 20 000), so the
    // overlay stays close to its measured size.
    leavers.truncate((leavers.len() / 10).clamp(1, 20_000));
    let t = Instant::now();
    for &id in &leavers {
        black_box(churn.leave(&mut graph, id).expect("live peer leaves"));
    }
    let leave_ns = t.elapsed().as_secs_f64() * 1e9 / leavers.len() as f64;
    report.metric("topology.join_ns", join_ns, "ns");
    report.metric("topology.leave_ns", leave_ns, "ns");
    report.metric(
        "topology.live_nodes",
        market.graph().node_count() as f64,
        "count",
    );
    report.metric(
        "topology.edges",
        market.graph().edge_count() as f64,
        "count",
    );
    (join_ns, leave_ns)
}

/// The spend path's seller choice: a random peer's neighbor slice, a
/// uniform pick from it, and the chosen seller's price quote.
fn seller(report: &mut Report, market: &CreditMarket, rng: &mut SimRng) -> f64 {
    let graph = market.graph();
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let pick_ns = ns_per_call(0.1, 4096, 256, || {
        let slice = graph
            .neighbor_slice(ids[rng.index(ids.len())])
            .unwrap_or(&[]);
        if !slice.is_empty() {
            black_box(slice[rng.index(slice.len())]);
        }
    });
    report.metric("topology.neighbor_pick_ns", pick_ns, "ns");
    let pricing = market.pricing();
    let mut chunk = 0u64;
    let quote_ns = ns_per_call(0.1, 4096, 256, || {
        chunk += 1;
        black_box(pricing.price(ids[rng.index(ids.len())], chunk));
    });
    report.metric("pricing.quote_ns", quote_ns, "ns");
    pick_ns + quote_ns
}

/// `FenwickSampler` build and pick over neighbor slices weighted by the
/// neighbors' degrees, for a random sample of live peers.
fn fenwick(report: &mut Report, market: &CreditMarket, rng: &mut SimRng) {
    let graph = market.graph();
    let ids: Vec<NodeId> = graph.node_ids().collect();
    let slices: Vec<Vec<f64>> = (0..1024)
        .map(|_| {
            let id = ids[rng.index(ids.len())];
            graph
                .neighbor_slice(id)
                .unwrap_or(&[])
                .iter()
                .map(|&nb| graph.degree(nb).unwrap_or(0) as f64 + 1.0)
                .collect()
        })
        .collect();
    let mut sampler = FenwickSampler::new();
    let mut i = 0;
    let build_ns = ns_per_call(0.1, 1024, 64, || {
        sampler.clear();
        for &w in &slices[i % slices.len()] {
            sampler.push(w);
        }
        sampler.build();
        i += 1;
    });
    let built: Vec<FenwickSampler> = slices
        .iter()
        .map(|weights| {
            let mut s = FenwickSampler::new();
            weights.iter().for_each(|&w| s.push(w));
            s.build();
            s
        })
        .collect();
    let targets: Vec<f64> = (0..4096).map(|_| rng.uniform_f64()).collect();
    let mut j = 0;
    let pick_ns = ns_per_call(0.1, 4096, 256, || {
        let s = &built[j % built.len()];
        black_box(s.pick(targets[j % targets.len()] * s.total()));
        j += 1;
    });
    report.metric("des.fenwick_build_ns", build_ns, "ns");
    report.metric("des.fenwick_pick_ns", pick_ns, "ns");
}

/// Hold model on the market's own queue backend: fill an `EventQueue`
/// with the end-state pending events, then pop the earliest and push it
/// back at a lookahead drawn from the pending lookaheads of its own kind
/// (spend timers are short, leave timers long).
fn queue(report: &mut Report, sim: &Simulation<CreditMarket>, rng: &mut SimRng) -> f64 {
    let pending = sim.scheduler().snapshot_events();
    let now = sim.now();
    let mut lookaheads: Vec<Vec<SimDuration>> = vec![Vec::new(); market::KINDS.len() + 1];
    for s in &pending {
        lookaheads[market::kind(&s.event)].push(s.time.saturating_duration_since(now));
    }
    let mut queue: EventQueue<MarketEvent> = EventQueue::with_profile(sim.model().queue_profile());
    for s in &pending {
        queue.push(s.time, s.event.clone());
    }
    let draws: Vec<usize> = (0..4096).map(|_| rng.index(usize::MAX)).collect();
    let mut i = 0;
    let ns = ns_per_call(0.2, 4096, 1024, || {
        let s = queue.pop().expect("hold model keeps the queue full");
        let own = &lookaheads[market::kind(&s.event)];
        queue.push(s.time + own[draws[i % draws.len()] % own.len()], s.event);
        i += 1;
    });
    report.metric("des.queue_push_pop_ns", ns, "ns");
    report.metric("des.pending_events", pending.len() as f64, "count");
    ns
}

/// `Ledger::transfer` with wealth tracking on, restored from the end
/// state's balances, and `IncrementalGini` update and sample on the
/// same balances.
fn ledger(report: &mut Report, market: &CreditMarket, rng: &mut SimRng) -> (f64, f64) {
    let source = market.ledger();
    let entries: Vec<(NodeId, u64)> = source.slot_entries().collect();
    let mut ledger = Ledger::restore(&entries, source.escrow(), source.minted(), source.burned());
    ledger.enable_wealth_tracking();
    // Accounts are drawn afresh on every call, so the working set is the
    // whole population, as on the spend path.
    let n = entries.len();
    let transfer_ns = ns_per_call(0.1, 4096, 256, || {
        let (from, to) = (entries[rng.index(n)].0, entries[rng.index(n)].0);
        if from != to && ledger.balance(from) > 0 {
            ledger.transfer(from, to, 1).expect("balance checked");
        }
    });
    assert!(ledger.conserved(), "transfers conserve credits");

    let mut balances: Vec<u64> = entries.iter().map(|&(_, b)| b).collect();
    let mut gini = IncrementalGini::new();
    gini.reserve_values(balances.iter().copied().max().unwrap_or(0) + 1);
    balances.iter().for_each(|&b| gini.insert(b));
    let update_ns = ns_per_call(0.1, 4096, 256, || {
        let (a, b) = (rng.index(n), rng.index(n));
        if a != b && balances[a] > 0 {
            gini.update(balances[a], balances[a] - 1);
            gini.update(balances[b], balances[b] + 1);
            balances[a] -= 1;
            balances[b] += 1;
        }
    }) / 2.0;
    let sample_ns = ns_per_call(0.05, 4096, 256, || {
        black_box(gini.gini());
    });
    report.metric("credits.transfer_ns", transfer_ns, "ns");
    report.metric("econ.gini_update_ns", update_ns, "ns");
    report.metric("econ.gini_sample_ns", sample_ns, "ns");
    (transfer_ns, sample_ns)
}

/// Streaming, scenario and daemon layers, which only `served` exercises:
/// reported as 0 on the market workloads.
pub fn zero_served_layers(report: &mut Report) {
    for (name, unit) in SERVED_LAYERS {
        report.metric(name, 0.0, unit);
    }
}

/// The layer metrics only the `served` workload measures.
pub const SERVED_LAYERS: [(&str, &str); 8] = [
    ("streaming.schedule_ns", "ns"),
    ("streaming.delivery_ns", "ns"),
    ("streaming.playback_ns", "ns"),
    ("scenario.parse_us", "us"),
    ("serve.journal_append_us", "us"),
    ("serve.submit_ack_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.overhead_ms", "ms"),
];
