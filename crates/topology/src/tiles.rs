//! Spatial tile partitioning for the partitioned parallel engine.
//!
//! [`tile_partition`] splits a generated [`Scenario`] into `n_tiles`
//! vertical stripes of [`SpatialGrid`] cells (cells are sized to the radio
//! range, so a stripe boundary is crossed only by coverage disks of APs in
//! the two adjacent cell columns). APs take the tile of their cell; users
//! follow their nearest in-range AP, so each tile's users cluster around
//! its APs and the serially-sequenced boundary fraction stays small. The
//! exact interior/boundary classification is then derived from instance
//! reachability by [`Partition::new`] — a tight refinement of the
//! geometric "disk crosses a tile edge" test (geometry can only
//! over-approximate which APs are shared; reachability is definitive).

use mcast_core::Partition;

use crate::geometry::Point;
use crate::grid::SpatialGrid;
use crate::scenario::Scenario;

/// Partitions `scenario` into `n_tiles` vertical stripes of grid cells
/// for [`run_partitioned`](mcast_core::run_partitioned).
///
/// Deterministic: the stripe of a position depends only on the AP layout
/// and the rate table, never on thread scheduling or iteration order.
/// With `n_tiles = 1` everything is interior and the partitioned driver
/// degenerates to the single-threaded engine.
///
/// # Panics
///
/// Panics if `n_tiles` is zero.
pub fn tile_partition(scenario: &Scenario, n_tiles: usize) -> Partition {
    assert!(n_tiles >= 1, "at least one tile");
    let cfg = &scenario.config;
    // The same scaled table / range / grid recipe as scenario generation
    // and mobility perturbation, so cells line up with radio coverage.
    let table = if cfg.power_scale == 1.0 {
        cfg.rate_table.clone()
    } else {
        cfg.rate_table.scale_distances(cfg.power_scale)
    };
    let range = table.range_m();
    let grid = SpatialGrid::build(&scenario.ap_positions, range);
    let (nx, _ny) = grid.dims();
    let stripe_of = |p: &Point| -> u32 {
        if nx == 0 {
            return 0;
        }
        let (ix, _iy) = grid.cell_of(p);
        (ix * n_tiles / nx).min(n_tiles - 1) as u32
    };
    let ap_tile: Vec<u32> = scenario.ap_positions.iter().map(stripe_of).collect();
    let mut hits: Vec<(u32, f64)> = Vec::new();
    let user_tile: Vec<u32> = scenario
        .user_positions
        .iter()
        .map(|p| {
            grid.neighbors_within_into(p, range, &mut hits);
            hits.iter()
                .min_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .expect("distances are finite")
                        .then(a.0.cmp(&b.0))
                })
                .map_or_else(|| stripe_of(p), |&(ai, _)| ap_tile[ai as usize])
        })
        .collect();
    Partition::new(&scenario.instance, n_tiles, ap_tile, user_tile)
        .expect("stripe indices are always in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use mcast_core::ApId;

    fn small() -> Scenario {
        ScenarioConfig {
            n_aps: 40,
            n_users: 120,
            ..ScenarioConfig::paper_default()
        }
        .with_seed(11)
        .generate()
    }

    #[test]
    fn tiles_cover_and_are_deterministic() {
        let s = small();
        for w in [1usize, 2, 4] {
            let p1 = tile_partition(&s, w);
            let p2 = tile_partition(&s, w);
            assert_eq!(p1.n_tiles(), w);
            for a in s.instance.aps() {
                assert_eq!(p1.ap_tile(a), p2.ap_tile(a));
                assert!(p1.ap_tile(a) < w);
            }
            for u in s.instance.users() {
                assert_eq!(p1.user_tile(u), p2.user_tile(u));
            }
        }
        // One tile: nothing is boundary.
        assert_eq!(tile_partition(&s, 1).boundary_ap_count(), 0);
    }

    /// The reachability-derived boundary set is contained in the
    /// geometric one: an AP whose coverage disk stays strictly inside its
    /// stripe (more than one cell column from both stripe edges, cells
    /// being range-sized) is never classified boundary.
    #[test]
    fn interior_disks_are_interior() {
        let s = small();
        let cfg = &s.config;
        let table = if cfg.power_scale == 1.0 {
            cfg.rate_table.clone()
        } else {
            cfg.rate_table.scale_distances(cfg.power_scale)
        };
        let grid = SpatialGrid::build(&s.ap_positions, table.range_m());
        let (nx, _) = grid.dims();
        let w = 3usize;
        let part = tile_partition(&s, w);
        for (i, p) in s.ap_positions.iter().enumerate() {
            let (ix, _) = grid.cell_of(p);
            let tile = ix * w / nx;
            // Cell columns owned by this tile:
            let lo = (0..nx).find(|&c| c * w / nx == tile).unwrap();
            let hi = (0..nx).rev().find(|&c| c * w / nx == tile).unwrap();
            // Strictly interior columns (a full range-sized column away
            // from both edges) ⇒ no other-tile user can reach the AP.
            if ix > lo + 1 && ix + 1 < hi {
                assert!(
                    !part.is_boundary_ap(ApId(i as u32)),
                    "ap {i} in column {ix} of [{lo}, {hi}] should be interior"
                );
            }
        }
    }

    /// Users follow an in-range AP's tile (coverage is required in the
    /// default config, so every user has an in-range AP).
    #[test]
    fn users_follow_reachable_aps() {
        let s = small();
        let part = tile_partition(&s, 4);
        for u in s.instance.users() {
            let t = part.user_tile(u);
            assert!(
                s.instance
                    .candidate_aps(u)
                    .iter()
                    .any(|&(a, _)| part.ap_tile(a) == t),
                "user {u} assigned to a tile none of its candidates are in"
            );
        }
    }
}
