//! Paper-style WLAN instances for unit tests.
//!
//! `mcast_topology` generates them. It is a dev-dependency built against
//! this crate's library, so its `Kbps`, `RatePolicy` and `Instance` are
//! different types from the ones under test; [`cross`] carries values
//! between the two through their serde wire format.

use serde::{Deserialize, Serialize};

use crate::instance::Instance;

/// Re-reads `value` as the same-named type of the other build of this
/// crate.
pub(crate) fn cross<A: Serialize, B: Deserialize>(value: &A) -> B {
    let wire = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&wire).expect("the other build reads its own wire format")
}

/// The instance `ScenarioConfig::paper_default()` generates at `seed`,
/// after `tweak` edits the config.
pub(crate) fn paper_instance(
    seed: u64,
    tweak: impl FnOnce(&mut mcast_topology::ScenarioConfig),
) -> Instance {
    let mut cfg = mcast_topology::ScenarioConfig::paper_default().with_seed(seed);
    tweak(&mut cfg);
    cross(&cfg.generate().instance)
}

/// [`paper_instance`] at the paper's AP and user density (200 APs and
/// 400 users on 1.2 km²), shrunk to `n_aps` APs.
pub(crate) fn paper_density(seed: u64, n_aps: usize) -> Instance {
    paper_instance(seed, |cfg| {
        let side = (1.2e6 * n_aps as f64 / 200.0).sqrt();
        cfg.n_aps = n_aps;
        cfg.n_users = 2 * n_aps;
        cfg.width_m = side;
        cfg.height_m = side;
    })
}
