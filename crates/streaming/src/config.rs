//! Streaming-protocol configuration.

use scrip_des::SimDuration;
use scrip_topology::churn::ChurnConfig;

/// How a peer orders its missing chunks when issuing pull requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChunkStrategy {
    /// Request the chunk held by the fewest neighbors first — the classic
    /// mesh-pull heuristic that maximizes chunk diversity in the swarm.
    #[default]
    RarestFirst,
    /// Request the chunk with the earliest playback deadline first —
    /// favors continuity over diversity.
    DeadlineFirst,
}

/// How a buyer picks among the neighbors able to serve a chunk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProviderSelection {
    /// Uniformly at random among capable providers.
    #[default]
    Random,
    /// The capable provider with the fewest completed uploads so far
    /// (fair-rotation load balancing). In credit markets this spreads
    /// upload income across the swarm, which is what keeps peripheral
    /// peers solvent.
    LeastUploads,
    /// A weighted random pick: each capable provider is weighted by the
    /// number of useful chunks it currently offers the requester, plus
    /// one (so a provider with nothing new stays selectable as a
    /// fallback). This is the paper's availability-feedback routing rule
    /// applied in-protocol, inverted in O(log candidates) by a
    /// [`scrip_des::FenwickSampler`] with exact integer weights.
    AvailabilityWeighted,
}

/// Parameters of the mesh-pull streaming protocol.
///
/// Defaults are sized for the paper's experiments: a live stream where
/// each peer needs `chunk_rate` chunks per second for smooth playback,
/// over scale-free overlays of 500–1000 peers.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamingConfig {
    /// Stream chunk rate in chunks per second (the paper's streaming
    /// rate `r`).
    pub chunk_rate: f64,
    /// Buffer-map window width in chunks.
    pub window: usize,
    /// Interval between a peer's scheduling (pull) rounds.
    pub schedule_interval: SimDuration,
    /// Contiguous chunks a peer buffers before starting playback.
    pub startup_buffer: usize,
    /// Maximum outstanding chunk requests per peer.
    pub max_pending: usize,
    /// Maximum simultaneous uploads per peer.
    pub max_uploads: usize,
    /// Maximum simultaneous uploads by the source.
    pub source_uploads: usize,
    /// Number of peers directly fed by the source.
    pub source_degree: usize,
    /// Mean chunk transfer time in seconds (exponentially distributed).
    pub transfer_time_mean: f64,
    /// Chunk-request ordering strategy.
    pub strategy: ChunkStrategy,
    /// Provider (seller) selection rule.
    pub provider_selection: ProviderSelection,
    /// How many chunks behind the playback position a peer keeps
    /// available for uploading to others.
    pub serve_behind: usize,
    /// Interval between [`StreamEvent::Sample`] ticks, which record the
    /// swarm stall rate and let the trade policy sample its own metrics
    /// (e.g. the wealth Gini). [`None`] disables sampling. On the credit
    /// market path, `scrip_core::protocol::build_streaming_market` sets
    /// it from the market's `sample_interval`.
    ///
    /// [`StreamEvent::Sample`]: crate::StreamEvent::Sample
    pub sample_interval: Option<SimDuration>,
    /// Peer dynamics (joins/leaves). [`None`] keeps the swarm static.
    /// On the credit market path, `build_streaming_market` sets it from
    /// the market's `churn`.
    pub churn: Option<ChurnConfig>,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            chunk_rate: 10.0,
            window: 128,
            schedule_interval: SimDuration::from_millis(500),
            startup_buffer: 10,
            max_pending: 12,
            max_uploads: 12,
            source_uploads: 40,
            source_degree: 12,
            transfer_time_mean: 0.15,
            strategy: ChunkStrategy::RarestFirst,
            provider_selection: ProviderSelection::Random,
            serve_behind: 32,
            sample_interval: None,
            churn: None,
        }
    }
}

impl StreamingConfig {
    /// A configuration paced for credit-market experiments: per-peer
    /// upload bandwidth is ~1.7× the stream rate (as for real broadband
    /// peers), so upload income is necessarily spread across the swarm
    /// instead of being monopolized by high-degree hubs with unbounded
    /// upload slots.
    ///
    /// With the default config a hub can upload ~80 chunks/s and absorbs
    /// the whole swarm's spending; with `market_paced` each peer serves
    /// at most `max_uploads / transfer_time_mean ≈ 1.7 × chunk_rate`, so
    /// at uniform prices incomes roughly match expenditures — the
    /// balanced regime the paper's Fig. 1 case 2 exhibits.
    ///
    /// # Panics
    /// Panics if `chunk_rate` is not positive and finite.
    pub fn market_paced(chunk_rate: f64) -> Self {
        assert!(
            chunk_rate.is_finite() && chunk_rate > 0.0,
            "chunk_rate must be > 0, got {chunk_rate}"
        );
        StreamingConfig {
            chunk_rate,
            window: 64,
            schedule_interval: SimDuration::from_secs_f64(0.5 / chunk_rate.max(1.0)),
            startup_buffer: 8,
            max_pending: 4,
            max_uploads: 1,
            source_uploads: 4,
            // The operator serves any requester (capacity-limited), as
            // deployed CDNs do; a fixed fed subset would enjoy a
            // persistent first-seller advantage and soak up all credits.
            source_degree: usize::MAX,
            transfer_time_mean: 0.6 / chunk_rate,
            strategy: ChunkStrategy::RarestFirst,
            provider_selection: ProviderSelection::LeastUploads,
            serve_behind: 24,
            sample_interval: None,
            churn: None,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.chunk_rate.is_finite() && self.chunk_rate > 0.0) {
            return Err(format!("chunk_rate must be > 0, got {}", self.chunk_rate));
        }
        if self.window == 0 {
            return Err("window must be positive".into());
        }
        if self.startup_buffer >= self.window {
            return Err(format!(
                "startup_buffer {} must be below window {}",
                self.startup_buffer, self.window
            ));
        }
        if self.serve_behind >= self.window {
            return Err(format!(
                "serve_behind {} must be below window {}",
                self.serve_behind, self.window
            ));
        }
        if self.max_pending == 0 || self.max_uploads == 0 || self.source_uploads == 0 {
            return Err("capacities must be positive".into());
        }
        if self.source_degree == 0 {
            return Err("source must feed at least one peer".into());
        }
        if !(self.transfer_time_mean.is_finite() && self.transfer_time_mean > 0.0) {
            return Err(format!(
                "transfer_time_mean must be > 0, got {}",
                self.transfer_time_mean
            ));
        }
        if self.schedule_interval.is_zero() {
            return Err("schedule_interval must be positive".into());
        }
        if self.sample_interval.is_some_and(|s| s.is_zero()) {
            return Err("sample_interval must be positive when set".into());
        }
        if let Some(churn) = &self.churn {
            churn.validate()?;
        }
        Ok(())
    }

    /// The playback period `1/chunk_rate`.
    pub fn playback_period(&self) -> SimDuration {
        SimDuration::from_secs_f64(1.0 / self.chunk_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        StreamingConfig::default().validate().expect("valid");
    }

    #[test]
    fn validation_catches_violations() {
        let defaults = StreamingConfig::default();
        let broken = [
            StreamingConfig {
                chunk_rate: 0.0,
                ..defaults.clone()
            },
            StreamingConfig {
                window: 0,
                ..defaults.clone()
            },
            StreamingConfig {
                startup_buffer: defaults.window,
                ..defaults.clone()
            },
            StreamingConfig {
                serve_behind: defaults.window + 1,
                ..defaults.clone()
            },
            StreamingConfig {
                max_pending: 0,
                ..defaults.clone()
            },
            StreamingConfig {
                source_degree: 0,
                ..defaults.clone()
            },
            StreamingConfig {
                transfer_time_mean: f64::NAN,
                ..defaults.clone()
            },
            StreamingConfig {
                schedule_interval: SimDuration::ZERO,
                ..defaults.clone()
            },
            StreamingConfig {
                sample_interval: Some(SimDuration::ZERO),
                ..defaults.clone()
            },
            StreamingConfig {
                churn: Some(ChurnConfig {
                    arrival_rate: 0.0,
                    mean_lifespan: 100.0,
                    attach_degree: 5,
                }),
                ..defaults.clone()
            },
        ];
        for c in broken {
            assert!(c.validate().is_err(), "{c:?} should fail validation");
        }
    }

    #[test]
    fn churn_validation() {
        // The config validates the churn it carries, in its own words.
        let zero_degree = StreamingConfig {
            churn: Some(ChurnConfig {
                arrival_rate: 0.5,
                mean_lifespan: 200.0,
                attach_degree: 0,
            }),
            ..Default::default()
        };
        assert_eq!(
            zero_degree.validate(),
            Err("attach degree must be positive".into())
        );
        let config = StreamingConfig {
            churn: Some(ChurnConfig::new(0.5, 200.0, 8).expect("valid")),
            sample_interval: Some(SimDuration::from_secs(10)),
            ..Default::default()
        };
        config.validate().expect("valid");
    }

    #[test]
    fn playback_period() {
        let c = StreamingConfig {
            chunk_rate: 4.0,
            ..Default::default()
        };
        assert_eq!(c.playback_period(), SimDuration::from_millis(250));
    }
}
