//! Declarative, string-keyed market descriptions.
//!
//! [`MarketSpec`] is the bridge between scenario files and
//! [`MarketConfig`]: every knob of the credit market is addressable by a
//! stable kebab-case key with a compact textual value syntax, so an
//! experiment harness can construct, override, and serialize market
//! configurations without writing Rust. The spec is a plain-data
//! description — nothing is realized (no graphs, no RNG draws) until
//! [`MarketSpec::build`] produces a validated [`MarketConfig`] for the
//! simulator.
//!
//! | key                     | value syntax                                   |
//! |-------------------------|------------------------------------------------|
//! | `peers`                 | integer ≥ 2                                    |
//! | `credits`               | integer ≥ 0 (initial credits per peer, `c`)    |
//! | `base-rate`             | float > 0 (credits/sec, `μ_s`)                 |
//! | `profile`               | `symmetric` \| `near-symmetric:SPREAD` \| `asymmetric` |
//! | `pricing`               | `uniform:PRICE` \| `seller-poisson:MEAN` \| `chunk-poisson:MEAN` |
//! | `spending`              | `fixed` \| `dynamic:THRESHOLD`                 |
//! | `tax`                   | `none` \| `RATE:THRESHOLD`                     |
//! | `churn`                 | `none` \| `ARRIVAL:LIFESPAN:ATTACH`            |
//! | `topology`              | `scale-free` \| `complete` \| `ring` \| `regular:DEGREE` |
//! | `sample`                | float > 0 (Gini sampling interval, seconds)    |
//! | `availability-feedback` | `true` \| `false`                              |
//! | `streaming`             | `none` \| `paced:CHUNK_RATE` (chunk-level market) |
//!
//! Setting `streaming = paced:CHUNK_RATE` switches the realized market
//! to *chunk granularity*: the mesh-pull streaming protocol
//! ([`scrip_streaming::StreamingConfig::market_paced`] at the given
//! chunk rate) runs on the overlay and every chunk transfer settles
//! through the shared ledger. The `streaming` value is a **preset**:
//! every (re-)set of the key reinitializes *all* protocol knobs to the
//! `market_paced` defaults for that rate, so customize with the
//! sub-keys *after* it — sweeping or overriding `streaming` itself
//! deliberately resets any sub-key customization (canonical
//! serialization always emits `streaming` before its sub-keys, so
//! round-trips are exact). The protocol knobs below are addressable
//! while streaming is enabled (setting any of them while `streaming`
//! is `none` is an error — enable streaming first):
//!
//! | key                          | value syntax                            |
//! |------------------------------|-----------------------------------------|
//! | `streaming.window`           | integer ≥ 1 (buffer-map width, chunks)  |
//! | `streaming.startup`          | integer (chunks buffered before playback) |
//! | `streaming.max-pending`      | integer ≥ 1 (in-flight requests per peer) |
//! | `streaming.max-uploads`      | integer ≥ 1 (concurrent uploads per peer) |
//! | `streaming.source-uploads`   | integer ≥ 1 (concurrent source uploads)   |
//! | `streaming.source-degree`    | `all` \| integer ≥ 1 (source-fed peers)  |
//! | `streaming.transfer-time`    | float > 0 (mean chunk transfer secs)     |
//! | `streaming.schedule-interval`| float > 0 (pull-round period, secs)      |
//! | `streaming.strategy`         | `rarest-first` \| `deadline-first`       |
//! | `streaming.provider`         | `random` \| `least-uploads` \| `availability-weighted` |
//! | `streaming.serve-behind`     | integer (chunks kept behind playback)    |
//!
//! The `faults` toggle enables deterministic fault injection
//! ([`scrip_des::FaultSpec`]): delivery drops, seller defections,
//! delivery delays, and peer crashes, with escrow-backed retry and
//! refund recovery. Like `streaming`, the toggle is a **preset**: every
//! (re-)set of `faults` to a rate tuple reinitializes the timing
//! sub-keys to the [`scrip_des::FaultSpec::default`] constants, so
//! customize with the sub-keys *after* it. Sub-keys are refused (and
//! not serialized) while `faults` is `none`:
//!
//! | key                   | value syntax                                     |
//! |-----------------------|--------------------------------------------------|
//! | `faults`              | `none` \| `DROP:DEFECT:DELAY:CRASH` (probabilities in [0, 1]) |
//! | `faults.onset`        | float ≥ 0 (no fault fires before this, seconds)  |
//! | `faults.retries`      | integer (max retry attempts before refund)       |
//! | `faults.delivery-time`| float > 0 (mean delivery latency, seconds)       |
//! | `faults.delay-time`   | float > 0 (mean delay-fault penalty, seconds)    |
//! | `faults.backoff`      | `BASE:CAP` (retry backoff, seconds)              |
//! | `faults.crash-spread` | float > 0 (mean onset→crash delay, seconds)      |
//!
//! ```
//! use scrip_core::spec::MarketSpec;
//!
//! # fn main() -> Result<(), scrip_core::CoreError> {
//! let mut spec = MarketSpec::default();
//! spec.set("peers", "60")?;
//! spec.set("credits", "200")?;
//! spec.set("profile", "near-symmetric:0.03")?;
//! spec.set("tax", "0.2:50")?;
//! let config = spec.build()?;
//! assert_eq!(config.n, 60);
//! assert_eq!(config.initial_credits, 200);
//! # Ok(())
//! # }
//! ```

use scrip_des::{FaultSpec, SimDuration, SimTime};
use scrip_streaming::{ChunkStrategy, ProviderSelection, StreamingConfig};

use crate::error::CoreError;
use crate::market::{ChurnConfig, MarketConfig, TopologyKind};
use crate::model::UtilizationProfile;
use crate::policy::{SpendingPolicy, TaxConfig};
use crate::pricing::PricingConfig;

/// The spec keys, in canonical serialization order. The `streaming`
/// toggle precedes its sub-keys so serialized specs always re-parse
/// (sub-keys require streaming to be enabled).
pub const MARKET_SPEC_KEYS: [&str; 30] = [
    "peers",
    "credits",
    "base-rate",
    "profile",
    "pricing",
    "spending",
    "tax",
    "churn",
    "topology",
    "sample",
    "availability-feedback",
    "faults",
    "faults.onset",
    "faults.retries",
    "faults.delivery-time",
    "faults.delay-time",
    "faults.backoff",
    "faults.crash-spread",
    "streaming",
    "streaming.window",
    "streaming.startup",
    "streaming.max-pending",
    "streaming.max-uploads",
    "streaming.source-uploads",
    "streaming.source-degree",
    "streaming.transfer-time",
    "streaming.schedule-interval",
    "streaming.strategy",
    "streaming.provider",
    "streaming.serve-behind",
];

/// A declarative market description with string-keyed access.
///
/// Wraps a [`MarketConfig`] (the paper's Sec. VI defaults: 500 peers,
/// 100 credits each, asymmetric utilization) and exposes it through the
/// key/value grammar documented at the [module level](self).
#[derive(Clone, Debug, PartialEq)]
pub struct MarketSpec {
    config: MarketConfig,
}

impl Default for MarketSpec {
    fn default() -> Self {
        MarketSpec {
            config: MarketConfig::new(500, 100),
        }
    }
}

fn bad(key: &str, value: &str, expected: &str) -> CoreError {
    CoreError::Config(format!(
        "invalid value {value:?} for key {key:?}: expected {expected}"
    ))
}

fn parse_u64(key: &str, value: &str) -> Result<u64, CoreError> {
    value
        .parse::<u64>()
        .map_err(|_| bad(key, value, "a non-negative integer"))
}

fn parse_usize(key: &str, value: &str) -> Result<usize, CoreError> {
    value
        .parse::<usize>()
        .map_err(|_| bad(key, value, "a non-negative integer"))
}

fn parse_f64(key: &str, value: &str) -> Result<f64, CoreError> {
    value
        .parse::<f64>()
        .ok()
        .filter(|x| x.is_finite())
        .ok_or_else(|| bad(key, value, "a finite number"))
}

impl MarketSpec {
    /// A spec with the given population and per-peer initial credits, all
    /// other knobs at the paper's defaults.
    pub fn new(peers: usize, credits: u64) -> Self {
        MarketSpec {
            config: MarketConfig::new(peers, credits),
        }
    }

    /// Wraps an existing configuration.
    pub fn from_config(config: MarketConfig) -> Self {
        MarketSpec { config }
    }

    /// Read-only view of the wrapped configuration.
    pub fn config(&self) -> &MarketConfig {
        &self.config
    }

    /// Validates the spec and returns the configuration it describes.
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] for out-of-range parameter
    /// combinations.
    pub fn build(&self) -> Result<MarketConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config.clone())
    }

    /// Sets `key` to the textual `value` (grammar in the
    /// [module docs](self)).
    ///
    /// # Errors
    /// Returns [`CoreError::Config`] for unknown keys or malformed
    /// values.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), CoreError> {
        match key {
            "peers" => {
                let n = parse_usize(key, value)?;
                if n < 2 {
                    return Err(bad(key, value, "an integer >= 2"));
                }
                self.config.n = n;
            }
            "credits" => self.config.initial_credits = parse_u64(key, value)?,
            "base-rate" => {
                let rate = parse_f64(key, value)?;
                if rate <= 0.0 {
                    return Err(bad(key, value, "a rate > 0"));
                }
                self.config.base_rate = rate;
            }
            "profile" => {
                self.config.profile = match value.split_once(':') {
                    None if value == "symmetric" => UtilizationProfile::Symmetric,
                    None if value == "asymmetric" => UtilizationProfile::Asymmetric,
                    Some(("near-symmetric", spread)) => {
                        let spread = parse_f64(key, spread)?;
                        if !(0.0..1.0).contains(&spread) {
                            return Err(bad(key, value, "a spread in [0, 1)"));
                        }
                        UtilizationProfile::NearSymmetric { spread }
                    }
                    _ => {
                        return Err(bad(
                            key,
                            value,
                            "symmetric | near-symmetric:SPREAD | asymmetric",
                        ))
                    }
                };
            }
            "pricing" => {
                let pricing = match value.split_once(':') {
                    Some(("uniform", p)) => PricingConfig::Uniform {
                        price: parse_u64(key, p)?,
                    },
                    Some(("seller-poisson", m)) => PricingConfig::SellerPoisson {
                        mean: parse_f64(key, m)?,
                    },
                    Some(("chunk-poisson", m)) => PricingConfig::ChunkPoisson {
                        mean: parse_f64(key, m)?,
                    },
                    _ => {
                        return Err(bad(
                            key,
                            value,
                            "uniform:PRICE | seller-poisson:MEAN | chunk-poisson:MEAN",
                        ))
                    }
                };
                pricing.validate()?;
                self.config.pricing = pricing;
            }
            "spending" => {
                self.config.spending = match value.split_once(':') {
                    None if value == "fixed" => SpendingPolicy::Fixed,
                    Some(("dynamic", t)) => SpendingPolicy::Dynamic {
                        threshold: parse_u64(key, t)?,
                    },
                    _ => return Err(bad(key, value, "fixed | dynamic:THRESHOLD")),
                };
            }
            "tax" => {
                self.config.tax = if value == "none" {
                    None
                } else {
                    let (rate, threshold) = value
                        .split_once(':')
                        .ok_or_else(|| bad(key, value, "none | RATE:THRESHOLD"))?;
                    Some(TaxConfig::new(
                        parse_f64(key, rate)?,
                        parse_u64(key, threshold)?,
                    )?)
                };
            }
            "churn" => {
                self.config.churn = if value == "none" {
                    None
                } else {
                    let parts: Vec<&str> = value.split(':').collect();
                    let [arrival, lifespan, attach] = parts[..] else {
                        return Err(bad(key, value, "none | ARRIVAL:LIFESPAN:ATTACH"));
                    };
                    Some(
                        ChurnConfig::new(
                            parse_f64(key, arrival)?,
                            parse_f64(key, lifespan)?,
                            parse_usize(key, attach)?,
                        )
                        .map_err(CoreError::Config)?,
                    )
                };
            }
            "topology" => {
                self.config.topology = match value.split_once(':') {
                    None if value == "scale-free" => TopologyKind::ScaleFree,
                    None if value == "complete" => TopologyKind::Complete,
                    None if value == "ring" => TopologyKind::Ring,
                    Some(("regular", d)) => TopologyKind::Regular(parse_usize(key, d)?),
                    _ => {
                        return Err(bad(
                            key,
                            value,
                            "scale-free | complete | ring | regular:DEGREE",
                        ))
                    }
                };
            }
            "sample" => {
                let secs = parse_f64(key, value)?;
                if secs <= 0.0 {
                    return Err(bad(key, value, "a positive number of seconds"));
                }
                self.config.sample_interval = SimDuration::from_secs_f64(secs);
            }
            "availability-feedback" => {
                self.config.availability_feedback = match value {
                    "true" => true,
                    "false" => false,
                    _ => return Err(bad(key, value, "true | false")),
                };
            }
            "shards" => {
                return Err(CoreError::Config(
                    "`shards` was removed: execution is always serial".into(),
                ))
            }
            "faults" => {
                self.config.faults = if value == "none" {
                    None
                } else {
                    let parts: Vec<&str> = value.split(':').collect();
                    let [drop, defect, delay, crash] = parts[..] else {
                        return Err(bad(key, value, "none | DROP:DEFECT:DELAY:CRASH"));
                    };
                    let spec = FaultSpec {
                        drop_rate: parse_f64(key, drop)?,
                        defect_rate: parse_f64(key, defect)?,
                        delay_rate: parse_f64(key, delay)?,
                        crash_fraction: parse_f64(key, crash)?,
                        ..FaultSpec::default()
                    };
                    spec.validate().map_err(CoreError::Config)?;
                    Some(spec)
                };
            }
            sub if sub.starts_with("faults.") => {
                let Some(current) = self.config.faults.as_ref() else {
                    return Err(CoreError::Config(format!(
                        "key {key:?} requires fault injection: set `faults` to \
                         `DROP:DEFECT:DELAY:CRASH` first (in scenario files, \
                         `faults` must precede its sub-keys)"
                    )));
                };
                // Mutate a copy and validate before committing, so a
                // failed set leaves the spec untouched and valid.
                let mut faults = *current;
                match sub {
                    "faults.onset" => {
                        let secs = parse_f64(key, value)?;
                        if secs < 0.0 {
                            return Err(bad(key, value, "a non-negative number of seconds"));
                        }
                        faults.onset = SimTime::from_secs_f64(secs);
                    }
                    "faults.retries" => {
                        faults.max_retries = value
                            .parse::<u32>()
                            .map_err(|_| bad(key, value, "a non-negative integer"))?;
                    }
                    "faults.delivery-time" => {
                        faults.delivery_mean = SimDuration::from_secs_f64(parse_f64(key, value)?);
                    }
                    "faults.delay-time" => {
                        faults.delay_mean = SimDuration::from_secs_f64(parse_f64(key, value)?);
                    }
                    "faults.backoff" => {
                        let (base, cap) = value
                            .split_once(':')
                            .ok_or_else(|| bad(key, value, "BASE:CAP seconds"))?;
                        faults.backoff_base = SimDuration::from_secs_f64(parse_f64(key, base)?);
                        faults.backoff_cap = SimDuration::from_secs_f64(parse_f64(key, cap)?);
                    }
                    "faults.crash-spread" => {
                        faults.crash_spread = SimDuration::from_secs_f64(parse_f64(key, value)?);
                    }
                    _ => {
                        return Err(CoreError::Config(format!(
                            "unknown market key {key:?} (known keys: {})",
                            MARKET_SPEC_KEYS.join(", ")
                        )))
                    }
                }
                faults
                    .validate()
                    .map_err(|e| CoreError::Config(format!("{key}: {e}")))?;
                self.config.faults = Some(faults);
            }
            "streaming" => {
                self.config.streaming = if value == "none" {
                    None
                } else {
                    match value.split_once(':') {
                        Some(("paced", rate)) => {
                            let rate = parse_f64(key, rate)?;
                            if rate <= 0.0 {
                                return Err(bad(key, value, "a chunk rate > 0"));
                            }
                            Some(StreamingConfig::market_paced(rate))
                        }
                        _ => return Err(bad(key, value, "none | paced:CHUNK_RATE")),
                    }
                };
            }
            sub if sub.starts_with("streaming.") => {
                let Some(current) = self.config.streaming.as_ref() else {
                    return Err(CoreError::Config(format!(
                        "key {key:?} requires a streaming market: set \
                         `streaming` to `paced:CHUNK_RATE` first (in scenario \
                         files, `streaming` must precede its sub-keys)"
                    )));
                };
                // Mutate a copy and validate the combined protocol
                // config before committing, so a failed set leaves the
                // spec untouched and valid.
                let mut streaming = current.clone();
                match sub {
                    "streaming.window" => streaming.window = parse_usize(key, value)?,
                    "streaming.startup" => streaming.startup_buffer = parse_usize(key, value)?,
                    "streaming.max-pending" => streaming.max_pending = parse_usize(key, value)?,
                    "streaming.max-uploads" => streaming.max_uploads = parse_usize(key, value)?,
                    "streaming.source-uploads" => {
                        streaming.source_uploads = parse_usize(key, value)?;
                    }
                    "streaming.source-degree" => {
                        streaming.source_degree = if value == "all" {
                            usize::MAX
                        } else {
                            parse_usize(key, value)?
                        };
                    }
                    "streaming.transfer-time" => {
                        streaming.transfer_time_mean = parse_f64(key, value)?;
                    }
                    "streaming.schedule-interval" => {
                        let secs = parse_f64(key, value)?;
                        if secs <= 0.0 {
                            return Err(bad(key, value, "a positive number of seconds"));
                        }
                        streaming.schedule_interval = SimDuration::from_secs_f64(secs);
                    }
                    "streaming.strategy" => {
                        streaming.strategy = match value {
                            "rarest-first" => ChunkStrategy::RarestFirst,
                            "deadline-first" => ChunkStrategy::DeadlineFirst,
                            _ => return Err(bad(key, value, "rarest-first | deadline-first")),
                        };
                    }
                    "streaming.provider" => {
                        streaming.provider_selection = match value {
                            "random" => ProviderSelection::Random,
                            "least-uploads" => ProviderSelection::LeastUploads,
                            "availability-weighted" => ProviderSelection::AvailabilityWeighted,
                            _ => {
                                return Err(bad(
                                    key,
                                    value,
                                    "random | least-uploads | availability-weighted",
                                ))
                            }
                        };
                    }
                    "streaming.serve-behind" => {
                        streaming.serve_behind = parse_usize(key, value)?;
                    }
                    _ => {
                        return Err(CoreError::Config(format!(
                            "unknown market key {key:?} (known keys: {})",
                            MARKET_SPEC_KEYS.join(", ")
                        )))
                    }
                }
                streaming
                    .validate()
                    .map_err(|e| CoreError::Config(format!("{key}: {e}")))?;
                self.config.streaming = Some(streaming);
            }
            _ => {
                return Err(CoreError::Config(format!(
                    "unknown market key {key:?} (known keys: {})",
                    MARKET_SPEC_KEYS.join(", ")
                )))
            }
        }
        Ok(())
    }

    /// The canonical textual value of `key`, or [`None`] for unknown
    /// keys. `spec.set(key, &spec.get(key)?)` is always a no-op.
    pub fn get(&self, key: &str) -> Option<String> {
        let c = &self.config;
        Some(match key {
            "peers" => c.n.to_string(),
            "credits" => c.initial_credits.to_string(),
            "base-rate" => c.base_rate.to_string(),
            "profile" => match c.profile {
                UtilizationProfile::Symmetric => "symmetric".into(),
                UtilizationProfile::NearSymmetric { spread } => format!("near-symmetric:{spread}"),
                UtilizationProfile::Asymmetric => "asymmetric".into(),
            },
            "pricing" => match c.pricing {
                PricingConfig::Uniform { price } => format!("uniform:{price}"),
                PricingConfig::SellerPoisson { mean } => format!("seller-poisson:{mean}"),
                PricingConfig::ChunkPoisson { mean } => format!("chunk-poisson:{mean}"),
            },
            "spending" => match c.spending {
                SpendingPolicy::Fixed => "fixed".into(),
                SpendingPolicy::Dynamic { threshold } => format!("dynamic:{threshold}"),
            },
            "tax" => match c.tax {
                None => "none".into(),
                Some(t) => format!("{}:{}", t.rate, t.threshold),
            },
            "churn" => match c.churn {
                None => "none".into(),
                Some(ch) => format!(
                    "{}:{}:{}",
                    ch.arrival_rate, ch.mean_lifespan, ch.attach_degree
                ),
            },
            "topology" => match c.topology {
                TopologyKind::ScaleFree => "scale-free".into(),
                TopologyKind::Complete => "complete".into(),
                TopologyKind::Ring => "ring".into(),
                TopologyKind::Regular(d) => format!("regular:{d}"),
            },
            "sample" => c.sample_interval.as_secs_f64().to_string(),
            "availability-feedback" => c.availability_feedback.to_string(),
            "faults" => match &c.faults {
                None => "none".into(),
                Some(f) => format!(
                    "{}:{}:{}:{}",
                    f.drop_rate, f.defect_rate, f.delay_rate, f.crash_fraction
                ),
            },
            sub if sub.starts_with("faults.") => {
                // Sub-keys are only addressable (and only serialized)
                // while fault injection is enabled.
                let f = c.faults.as_ref()?;
                match sub {
                    "faults.onset" => f.onset.as_secs_f64().to_string(),
                    "faults.retries" => f.max_retries.to_string(),
                    "faults.delivery-time" => f.delivery_mean.as_secs_f64().to_string(),
                    "faults.delay-time" => f.delay_mean.as_secs_f64().to_string(),
                    "faults.backoff" => format!(
                        "{}:{}",
                        f.backoff_base.as_secs_f64(),
                        f.backoff_cap.as_secs_f64()
                    ),
                    "faults.crash-spread" => f.crash_spread.as_secs_f64().to_string(),
                    _ => return None,
                }
            }
            "streaming" => match &c.streaming {
                None => "none".into(),
                Some(s) => format!("paced:{}", s.chunk_rate),
            },
            sub if sub.starts_with("streaming.") => {
                // Sub-keys are only addressable (and only serialized)
                // while streaming is enabled.
                let s = c.streaming.as_ref()?;
                match sub {
                    "streaming.window" => s.window.to_string(),
                    "streaming.startup" => s.startup_buffer.to_string(),
                    "streaming.max-pending" => s.max_pending.to_string(),
                    "streaming.max-uploads" => s.max_uploads.to_string(),
                    "streaming.source-uploads" => s.source_uploads.to_string(),
                    "streaming.source-degree" => {
                        if s.source_degree == usize::MAX {
                            "all".into()
                        } else {
                            s.source_degree.to_string()
                        }
                    }
                    "streaming.transfer-time" => s.transfer_time_mean.to_string(),
                    "streaming.schedule-interval" => s.schedule_interval.as_secs_f64().to_string(),
                    "streaming.strategy" => match s.strategy {
                        ChunkStrategy::RarestFirst => "rarest-first".into(),
                        ChunkStrategy::DeadlineFirst => "deadline-first".into(),
                    },
                    "streaming.provider" => match s.provider_selection {
                        ProviderSelection::Random => "random".into(),
                        ProviderSelection::LeastUploads => "least-uploads".into(),
                        ProviderSelection::AvailabilityWeighted => "availability-weighted".into(),
                    },
                    "streaming.serve-behind" => s.serve_behind.to_string(),
                    _ => return None,
                }
            }
            _ => return None,
        })
    }

    /// All `(key, canonical value)` pairs in serialization order.
    /// Streaming sub-keys appear only when streaming is enabled, so a
    /// queue-level spec serializes exactly as it did before the
    /// chunk-level market existed.
    pub fn entries(&self) -> Vec<(&'static str, String)> {
        MARKET_SPEC_KEYS
            .iter()
            .filter_map(|&k| Some((k, self.get(k)?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_config() {
        let spec = MarketSpec::default();
        assert_eq!(spec.config(), &MarketConfig::new(500, 100));
        assert_eq!(spec.build().expect("valid").n, 500);
    }

    #[test]
    fn every_key_round_trips_through_get_and_set() {
        let mut spec = MarketSpec::new(60, 12);
        for (key, value) in [
            ("base-rate", "2.5"),
            ("profile", "near-symmetric:0.03"),
            ("pricing", "chunk-poisson:1"),
            ("spending", "dynamic:100"),
            ("tax", "0.2:50"),
            ("churn", "1.5:500:20"),
            ("topology", "regular:8"),
            ("sample", "50"),
            ("availability-feedback", "true"),
            ("streaming", "paced:2"),
            ("faults", "0.1:0.05:0.02:0.2"),
            ("faults.onset", "50"),
            ("faults.retries", "5"),
            ("faults.delivery-time", "0.5"),
            ("faults.delay-time", "4"),
            ("faults.backoff", "0.25:20"),
            ("faults.crash-spread", "300"),
            ("streaming.window", "96"),
            ("streaming.startup", "6"),
            ("streaming.max-pending", "8"),
            ("streaming.max-uploads", "2"),
            ("streaming.source-uploads", "6"),
            ("streaming.source-degree", "20"),
            ("streaming.transfer-time", "0.25"),
            ("streaming.schedule-interval", "0.4"),
            ("streaming.strategy", "deadline-first"),
            ("streaming.provider", "availability-weighted"),
            ("streaming.serve-behind", "16"),
        ] {
            spec.set(key, value)
                .unwrap_or_else(|e| panic!("{key}: {e}"));
        }
        // get() returns canonical forms that set() accepts unchanged.
        let mut copy = MarketSpec::default();
        for (key, value) in spec.entries() {
            copy.set(key, &value).expect("canonical value");
        }
        assert_eq!(spec, copy);
        assert_eq!(copy.get("tax").expect("known"), "0.2:50");
        assert_eq!(copy.get("churn").expect("known"), "1.5:500:20");
        assert_eq!(copy.get("profile").expect("known"), "near-symmetric:0.03");
        assert_eq!(copy.get("streaming").expect("known"), "paced:2");
        assert_eq!(copy.get("streaming.window").expect("known"), "96");
        assert_eq!(
            copy.get("streaming.strategy").expect("known"),
            "deadline-first"
        );
        assert_eq!(copy.get("faults").expect("known"), "0.1:0.05:0.02:0.2");
        assert_eq!(copy.get("faults.backoff").expect("known"), "0.25:20");
        assert_eq!(copy.get("faults.retries").expect("known"), "5");
    }

    #[test]
    fn fault_keys_gate_on_the_toggle() {
        let mut spec = MarketSpec::new(40, 20);
        // Sub-keys are refused while faults are disabled…
        let err = spec.set("faults.onset", "50").expect_err("gated");
        assert!(err.to_string().contains("faults"), "{err}");
        assert_eq!(spec.get("faults").expect("known"), "none");
        assert_eq!(spec.get("faults.onset"), None, "hidden while disabled");
        // …and they don't serialize either.
        assert!(spec
            .entries()
            .iter()
            .all(|(k, _)| !k.starts_with("faults.")));

        spec.set("faults", "0.1:0:0:0").expect("enables");
        let f = spec.config().faults.expect("set");
        assert_eq!(f.drop_rate, 0.1);
        assert_eq!(f.max_retries, 3, "sub-keys start at defaults");
        spec.set("faults.onset", "100").expect("sub-key works now");
        spec.build().expect("valid faulty market");

        // Re-setting the toggle resets the sub-keys (preset semantics).
        spec.set("faults", "0.2:0:0:0").expect("re-set");
        assert_eq!(spec.get("faults.onset").expect("known"), "0");

        // A failed sub-key set leaves the spec untouched and valid.
        assert!(spec.set("faults.delivery-time", "0").is_err());
        spec.build().expect("still valid");

        // Disabling faults drops the sub-keys again.
        spec.set("faults", "none").expect("disables");
        assert!(spec.build().expect("valid").faults.is_none());
    }

    #[test]
    fn streaming_keys_gate_on_the_toggle() {
        let mut spec = MarketSpec::new(40, 20);
        // Sub-keys are refused while streaming is disabled…
        let err = spec.set("streaming.window", "64").expect_err("gated");
        assert!(err.to_string().contains("streaming"), "{err}");
        assert_eq!(spec.get("streaming").expect("known"), "none");
        assert_eq!(spec.get("streaming.window"), None, "hidden while disabled");
        // …and the toggle doesn't serialize them either.
        assert!(spec.entries().iter().all(|(k, _)| !k.contains('.')));

        spec.set("streaming", "paced:1").expect("enables");
        assert_eq!(
            spec.config().streaming.as_ref().expect("set").chunk_rate,
            1.0
        );
        // market_paced source degree is "all".
        assert_eq!(spec.get("streaming.source-degree").expect("known"), "all");
        spec.set("streaming.source-degree", "all")
            .expect("round trips");
        spec.set("streaming.window", "48")
            .expect("sub-key works now");
        // All keys but the six faults sub-keys (faults stay disabled).
        assert_eq!(spec.entries().len(), MARKET_SPEC_KEYS.len() - 6);
        spec.build().expect("valid streaming market");

        // A failed sub-key set leaves the spec untouched and valid.
        assert!(
            spec.set("streaming.startup", "48").is_err(),
            "startup >= window"
        );
        assert_eq!(spec.get("streaming.startup").expect("known"), "8");
        spec.build().expect("still valid");

        // Disabling streaming drops the sub-keys again.
        spec.set("streaming", "none").expect("disables");
        assert!(spec.build().expect("valid").streaming.is_none());
    }

    #[test]
    fn variant_values_parse() {
        let mut spec = MarketSpec::default();
        spec.set("profile", "symmetric").expect("valid");
        assert_eq!(spec.config().profile, UtilizationProfile::Symmetric);
        spec.set("profile", "asymmetric").expect("valid");
        spec.set("pricing", "uniform:3").expect("valid");
        assert_eq!(spec.config().pricing, PricingConfig::Uniform { price: 3 });
        spec.set("pricing", "seller-poisson:2.0").expect("valid");
        spec.set("spending", "fixed").expect("valid");
        spec.set("tax", "none").expect("valid");
        assert_eq!(spec.config().tax, None);
        spec.set("churn", "none").expect("valid");
        for t in ["scale-free", "complete", "ring"] {
            spec.set("topology", t).expect("valid");
        }
    }

    #[test]
    fn malformed_values_are_rejected() {
        let mut spec = MarketSpec::default();
        for (key, value) in [
            ("peers", "1"),
            ("peers", "many"),
            ("credits", "-3"),
            ("base-rate", "0"),
            ("base-rate", "inf"),
            ("profile", "lopsided"),
            ("profile", "near-symmetric:2"),
            ("pricing", "uniform:0"),
            ("pricing", "free"),
            ("spending", "dynamic"),
            ("tax", "2.0:50"),
            ("tax", "0.1"),
            ("churn", "1.0:500"),
            ("topology", "torus"),
            ("sample", "0"),
            ("availability-feedback", "yes"),
            ("streaming", "fast"),
            ("streaming", "paced:0"),
            ("streaming.window", "64"),
            ("streaming.bogus", "1"),
            ("faults", "0.1"),
            ("faults", "1.5:0:0:0"),
            ("faults", "0.1:0.95:0:0"),
            ("faults.onset", "50"),
            ("color", "red"),
        ] {
            assert!(spec.set(key, value).is_err(), "{key}={value} should fail");
        }
        // The failed sets left the spec valid.
        spec.build().expect("still valid");
    }

    #[test]
    fn unknown_key_lists_known_keys() {
        let err = MarketSpec::default()
            .set("colour", "blue")
            .expect_err("unknown");
        assert!(err.to_string().contains("peers"), "{err}");
        assert_eq!(MarketSpec::default().get("colour"), None);
    }
}
