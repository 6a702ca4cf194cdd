//! The trade-authorization hook that couples streaming to the credit
//! market.
//!
//! The paper's protocol transfers credits in the reverse direction of
//! every peer-to-peer chunk transfer. The streaming simulator stays
//! currency-agnostic by delegating the two relevant moments to a
//! [`TradePolicy`]:
//!
//! 1. **authorize** — before a transfer starts: may this buyer purchase
//!    this chunk from this seller? (A broke peer's request is refused —
//!    this is exactly how wealth condensation degrades streaming
//!    performance.)
//! 2. **settle** — after the chunk arrives: move the credits.
//!
//! The `scrip-core` crate implements the paper's credit market on top of
//! this trait; [`FreeTrade`] is the policy-free baseline.

use scrip_des::SimTime;
use scrip_topology::NodeId;

/// Hooks called around every peer-to-peer chunk transfer.
///
/// Source-to-peer transfers never consult the policy: the stream
/// operator seeds content for free, as in deployed systems.
pub trait TradePolicy {
    /// Whether `buyer` may purchase `chunk` from `seller` right now.
    ///
    /// Returning `false` refuses the transfer (the buyer will look for
    /// another provider or retry later).
    fn authorize(&mut self, buyer: NodeId, seller: NodeId, chunk: u64, now: SimTime) -> bool;

    /// Settles payment after `chunk` has been delivered.
    ///
    /// Implementations must tolerate a settlement for a trade whose
    /// buyer's balance changed since authorization (e.g. by capping the
    /// payment), because transfers take simulated time.
    fn settle(&mut self, buyer: NodeId, seller: NodeId, chunk: u64, now: SimTime);

    /// Whether `buyer` may purchase `chunk` directly from the source.
    ///
    /// The default is `true` (a free-seeding operator). Credit-market
    /// policies typically charge for source downloads too and recycle
    /// the income — otherwise source-fed peers earn from relaying
    /// without ever spending, becoming credit sinks that drain the whole
    /// economy.
    fn authorize_source(&mut self, _buyer: NodeId, _chunk: u64, _now: SimTime) -> bool {
        true
    }

    /// Settles a source-to-peer delivery. Default: no payment.
    fn settle_source(&mut self, _buyer: NodeId, _chunk: u64, _now: SimTime) {}

    /// A peer joined the swarm (churn). Credit-market policies endow the
    /// joiner's wallet and register it with the pricing model here.
    /// Default: no-op.
    fn on_join(&mut self, _peer: NodeId, _now: SimTime) {}

    /// A peer left the swarm (churn). Credit-market policies burn the
    /// departing wallet here ("takes away its credits in possession").
    /// Default: no-op.
    fn on_leave(&mut self, _peer: NodeId, _now: SimTime) {}

    /// A periodic sampling tick (see
    /// [`StreamingConfig::sample_interval`]). Credit-market policies
    /// record their wealth-Gini series here. Default: no-op.
    ///
    /// [`StreamingConfig::sample_interval`]: crate::StreamingConfig::sample_interval
    fn sample(&mut self, _now: SimTime) {}
}

/// The no-currency policy: every trade is authorized and settlement is a
/// no-op. Used for protocol-only experiments and as the baseline against
/// credit-constrained runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FreeTrade;

impl TradePolicy for FreeTrade {
    fn authorize(&mut self, _buyer: NodeId, _seller: NodeId, _chunk: u64, _now: SimTime) -> bool {
        true
    }

    fn settle(&mut self, _buyer: NodeId, _seller: NodeId, _chunk: u64, _now: SimTime) {}
}

/// A counting policy for tests: authorizes everything, recording how
/// many authorizations and settlements happened.
#[cfg(test)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CountingPolicy {
    /// Number of authorize calls.
    pub authorized: u64,
    /// Number of settle calls.
    pub settled: u64,
}

#[cfg(test)]
impl TradePolicy for CountingPolicy {
    fn authorize(&mut self, _buyer: NodeId, _seller: NodeId, _chunk: u64, _now: SimTime) -> bool {
        self.authorized += 1;
        true
    }

    fn settle(&mut self, _buyer: NodeId, _seller: NodeId, _chunk: u64, _now: SimTime) {
        self.settled += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_trade_always_authorizes() {
        let mut p = FreeTrade;
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        assert!(p.authorize(a, b, 42, SimTime::ZERO));
        p.settle(a, b, 42, SimTime::ZERO);
    }

    #[test]
    fn counting_policy_counts() {
        let mut p = CountingPolicy::default();
        let a = NodeId::from_raw(0);
        let b = NodeId::from_raw(1);
        assert!(p.authorize(a, b, 1, SimTime::ZERO));
        assert!(p.authorize(a, b, 2, SimTime::ZERO));
        p.settle(a, b, 1, SimTime::ZERO);
        assert_eq!(p.authorized, 2);
        assert_eq!(p.settled, 1);
    }
}
