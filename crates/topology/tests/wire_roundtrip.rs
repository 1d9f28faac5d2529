//! Property tests for the three scenario wire formats and the two
//! generation paths:
//!
//! * sparse JSON (the default wire) roundtrips a generated scenario;
//! * legacy dense JSON (`to_legacy_dense_value`) parses back into the
//!   byte-identical scenario — dense JSON ↔ CSR `Instance` is lossless;
//! * `.mcb` (compact binary) roundtrips through a real file;
//! * streaming generation produces byte-identical scenarios to the
//!   batch path for arbitrary configs, and rejects the same configs.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use mcast_core::{Kbps, Load, RatePolicy};
use mcast_topology::{read_mcb, write_mcb, Scenario, ScenarioConfig, SessionPopularity};

/// A temp path no other test, case or process uses.
fn scratch_path() -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mcast_wire_prop_{}_{}.mcb",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn config() -> impl Strategy<Value = ScenarioConfig> {
    (
        0u64..u64::MAX,
        1usize..16,
        0usize..40,
        1usize..4,
        100.0f64..900.0,
        (
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        850u32..1000,
    )
        .prop_map(
            |(seed, n_aps, n_users, n_sessions, side, (basic_only, zipf, coverage), permille)| {
                ScenarioConfig {
                    n_aps,
                    n_users,
                    n_sessions,
                    width_m: side,
                    height_m: side,
                    budget: Load::permille(permille),
                    rate_policy: if basic_only {
                        RatePolicy::BasicOnly
                    } else {
                        RatePolicy::MultiRate
                    },
                    popularity: if zipf {
                        SessionPopularity::Zipf { exponent: 1.1 }
                    } else {
                        SessionPopularity::Uniform
                    },
                    session_rates: (n_sessions == 3)
                        .then(|| vec![Kbps::from_mbps(1), Kbps::from_mbps(2), Kbps(512)]),
                    require_coverage: coverage,
                    ..ScenarioConfig::paper_default()
                }
                .with_seed(seed)
            },
        )
}

fn sparse_json(sc: &Scenario) -> String {
    serde_json::to_string(sc).expect("scenario serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_and_dense_json_roundtrip_the_instance(cfg in config()) {
        let sc = cfg.generate();
        let sparse = sparse_json(&sc);

        // Sparse wire: parse → re-emit is byte-identical.
        let reloaded: Scenario = serde_json::from_str(&sparse).expect("sparse wire loads");
        prop_assert_eq!(&sparse_json(&reloaded), &sparse, "sparse roundtrip drifted");

        // Dense wire: legacy emit → fallback read → same scenario.
        let dense = serde_json::to_string(&sc.to_legacy_dense_value()).unwrap();
        let from_dense: Scenario = serde_json::from_str(&dense).expect("dense wire loads");
        prop_assert_eq!(&sparse_json(&from_dense), &sparse, "dense roundtrip drifted");
        // And the dense emit itself is stable across the hop.
        let dense_again = serde_json::to_string(&from_dense.to_legacy_dense_value()).unwrap();
        prop_assert_eq!(dense_again, dense, "dense emit drifted after a hop");
    }

    #[test]
    fn mcb_roundtrips_the_scenario(cfg in config()) {
        let sc = cfg.generate();
        let path = scratch_path();
        write_mcb(&sc, &path).expect("mcb writes");
        let reloaded = read_mcb(&path).expect("mcb reads");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(sparse_json(&reloaded), sparse_json(&sc), "mcb roundtrip drifted");
    }

    #[test]
    fn streaming_generation_matches_batch(cfg in config()) {
        let batch = cfg.try_generate();
        let streamed = cfg.try_generate_streaming();
        match (batch, streamed) {
            (Ok(b), Ok(s)) => {
                prop_assert_eq!(sparse_json(&s), sparse_json(&b), "streaming generation drifted");
            }
            (Err(b), Err(s)) => prop_assert_eq!(format!("{s}"), format!("{b}")),
            (b, s) => prop_assert!(
                false,
                "paths disagree on validity: batch {:?}, streaming {:?}",
                b.is_ok(),
                s.is_ok()
            ),
        }
    }
}
