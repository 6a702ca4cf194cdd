//! Pins the golden fixture files byte-for-byte.
//!
//! The point of this PR-level guard is subtle but central: the Fenwick
//! seller sampler and the timing-wheel scheduler were introduced with
//! the claim that they are *draw-compatible* with the linear walk and
//! the binary heap — every golden trajectory must reproduce without a
//! re-bless. `golden_trajectories.rs` and `scenario_golden.rs` verify
//! that simulations still *match* the fixtures; this test verifies the
//! fixtures themselves were not quietly regenerated (`SCRIP_BLESS=1`)
//! to paper over a divergence. If an intentional behaviour change ever
//! re-blesses a golden, this table must be updated in the same commit,
//! making the re-bless loud in review.
//!
//! Hashes are FNV-1a over the raw bytes; sizes are checked first so a
//! truncation shows up with a clearer message than a hash mismatch.

use std::path::Path;

use scrip_core::market::{ChurnConfig, MarketConfig, TopologyKind};
use scrip_core::obs::Session;
use scrip_core::policy::{SpendingPolicy, TaxConfig};
use scrip_core::pricing::PricingConfig;
use scrip_des::{SimDuration, SimTime};

/// (file name under `tests/golden/`, byte length, FNV-1a 64 of contents)
const PINNED: &[(&str, u64, u64)] = &[
    ("market_trajectories.txt", 2855, 0x34f594ec18d9bff5),
    ("scenario_fig07_full.csv", 33837, 0xaf633be24a1a4efc),
    ("scenario_fig07_reduced.csv", 3829, 0xc8e18e331392aca3),
    ("scenario_streaming_full.csv", 13902, 0xb8dc17344c7c1375),
    ("scenario_streaming_reduced.csv", 2848, 0xcc73759a16b5d917),
];

fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in data {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn golden_fixtures_are_byte_identical_to_pinned_hashes() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for &(name, len, hash) in PINNED {
        let bytes = std::fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("golden fixture {name} unreadable: {e}"));
        assert_eq!(
            bytes.len() as u64,
            len,
            "golden fixture {name} changed size; if the re-bless was \
             intentional, update the PINNED table in fixture_guard.rs"
        );
        assert_eq!(
            fnv1a(&bytes),
            hash,
            "golden fixture {name} changed contents; if the re-bless was \
             intentional, update the PINNED table in fixture_guard.rs"
        );
    }
}

/// `MarketView::state_digest()` pins for the golden queue-level
/// configurations (the same configs `golden_trajectories.rs` renders).
/// The digest is the fold the trace stack's boundary frames and the
/// bisector compare against, so these constants pin the *semantics* of
/// every recorded `SCRIPTRC` digest frame: if the digest algorithm or
/// the serialized state layout changes, every existing trace's digest
/// frames silently stop matching — this table makes that change loud.
/// Update it only together with a trace-format version bump or an
/// intentional behaviour change.
const DIGEST_PINS: &[(&str, u64)] = &[
    ("availability-feedback", 0xfe16_a9d2_1e66_310c),
    ("tax-churn-dynamic", 0xe74a_01e9_b280_6e2e),
    ("seller-poisson-churn", 0x0e57_e51c_a598_dff7),
];

/// Golden config A of `golden_trajectories.rs`.
fn digest_config_a() -> (MarketConfig, u64, u64) {
    let config = MarketConfig::new(60, 50)
        .asymmetric()
        .with_availability_feedback()
        .pricing(PricingConfig::SellerPoisson { mean: 2.0 })
        .sample_interval(SimDuration::from_secs(100));
    (config, 11, 2_000)
}

/// Golden config B of `golden_trajectories.rs`.
fn digest_config_b() -> (MarketConfig, u64, u64) {
    let config = MarketConfig::new(50, 40)
        .near_symmetric(0.2)
        .spending(SpendingPolicy::Dynamic { threshold: 60 })
        .tax(TaxConfig::new(0.2, 40).expect("valid tax"))
        .churn(ChurnConfig::new(0.25, 200.0, 8).expect("valid churn"))
        .topology(TopologyKind::Complete)
        .pricing(PricingConfig::ChunkPoisson { mean: 1.0 })
        .sample_interval(SimDuration::from_secs(100));
    (config, 23, 2_000)
}

/// Seller-Poisson prices under churn: the only pin whose posted-price
/// section is written after swap-removes (config A has no churn, config
/// B quotes per-chunk prices and posts none).
fn digest_config_c() -> (MarketConfig, u64, u64) {
    let config = MarketConfig::new(60, 40)
        .asymmetric()
        .churn(ChurnConfig::new(0.3, 200.0, 8).expect("valid churn"))
        .pricing(PricingConfig::SellerPoisson { mean: 2.0 })
        .sample_interval(SimDuration::from_secs(100));
    (config, 31, 2_000)
}

#[test]
fn state_digests_match_pinned_values_for_golden_configs() {
    for (label, pinned) in DIGEST_PINS {
        let (config, seed, horizon_secs) = match *label {
            "availability-feedback" => digest_config_a(),
            "tax-churn-dynamic" => digest_config_b(),
            "seller-poisson-churn" => digest_config_c(),
            other => panic!("unknown digest pin label {other:?}"),
        };
        let mut session = Session::from_config(&config, seed).expect("builds");
        session.run_until(SimTime::from_secs(horizon_secs));
        let digest = session.view().state_digest();
        assert_eq!(
            digest, *pinned,
            "state digest for golden config {label:?} drifted from {pinned:#018x} to \
             {digest:#018x}; if the digest algorithm or state layout changed \
             intentionally, bump the trace format version and update DIGEST_PINS"
        );
    }
}

#[test]
fn no_unpinned_fixtures_appear() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .expect("golden dir readable")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    found.sort();
    let pinned: Vec<&str> = PINNED.iter().map(|&(n, _, _)| n).collect();
    assert_eq!(
        found, pinned,
        "tests/golden/ contents drifted from the PINNED table"
    );
}
