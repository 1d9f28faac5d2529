//! Equivalence proptests for the AP-load fast paths against the oracles
//! in `mcast_core::reference`:
//!
//! * `Load`'s `u64` gcd fast path against checked `i128` arithmetic, for
//!   `new`, `+`, `-` and `cmp`, on operands inside and outside `i64`;
//! * the one-sweep `Association::{loads, validate, session_rates}`,
//!   `LoadLedger::new` and `Solution::evaluate` against the per-AP user
//!   scans, under both rate policies;
//! * `LoadLedger::load_if_joined` (which skips the arithmetic when the
//!   joining user is no slower than the session's rate) against
//!   `ReferenceLedger`.

use std::cmp::Ordering;

use proptest::collection::vec;
use proptest::prelude::*;

use mcast_core::reference::{
    ap_load_scan, ap_session_rate_scan, load_add_i128, load_cmp_i128, load_new_i128, validate_scan,
};
use mcast_core::{
    ApId, AssocError, Association, Instance, InstanceBuilder, Kbps, Load, LoadLedger, Objective,
    RatePolicy, ReferenceLedger, Solution, UserId,
};

const RATES: [u32; 4] = [6, 12, 24, 54];
const BIG: i128 = i64::MAX as i128;

/// A load component pair `(num, den)` of one size class: 0 small, 1
/// anywhere in `i64`, 2 with a numerator above `i64::MAX` (so `Load`
/// takes its `i128` path).
fn raw(kind: u8) -> impl Strategy<Value = (i128, i128)> {
    (
        -200i128..200,
        1i128..60,
        -BIG..=BIG,
        1i128..=BIG,
        (BIG + 1)..=(4 * BIG),
        proptest::bool::ANY,
    )
        .prop_map(move |(sn, sd, en, ed, bn, neg)| match kind {
            0 => (sn, sd),
            1 => (en, ed),
            _ => (if neg { -bn } else { bn }, sd),
        })
}

/// Two loads whose sum and cross products stay inside `i128`: any pairing
/// of size classes except "anywhere in `i64`" with "above `i64::MAX`".
fn load_pair() -> impl Strategy<Value = (Load, Load)> {
    (0u8..7).prop_flat_map(|pick| {
        let (ka, kb) = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (2, 2)][pick as usize];
        (raw(ka), raw(kb)).prop_map(|((an, ad), (bn, bd))| (Load::new(an, ad), Load::new(bn, bd)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn load_new_fast_path_matches_i128(
        (num, den) in (0u8..3).prop_flat_map(raw),
        neg_den in proptest::bool::ANY,
        edge in 0u8..4,
    ) {
        let num = match edge {
            0 => i128::from(i64::MIN),
            1 => BIG,
            _ => num,
        };
        let den = if neg_den { -den } else { den };
        let fast = Load::new(num, den);
        let oracle = load_new_i128(num, den);
        prop_assert_eq!((fast.numer(), fast.denom()), (oracle.numer(), oracle.denom()));
    }

    #[test]
    fn load_add_sub_cmp_fast_paths_match_i128((a, b) in load_pair()) {
        prop_assert_eq!(a + b, load_add_i128(a, b));
        prop_assert_eq!(a - b, load_add_i128(a, -b));
        prop_assert_eq!(b - a, load_add_i128(b, -a));
        prop_assert_eq!(a.cmp(&b), load_cmp_i128(a, b));
        prop_assert_eq!((a - b).cmp(&Load::ZERO), load_cmp_i128(a, b));
    }
}

/// A random instance under `policy`, with random budgets (some tight
/// enough to overflow), and a random association: mostly users on APs
/// they hear, some on APs they do not, some unassociated.
fn instance_and_association(policy: RatePolicy) -> impl Strategy<Value = (Instance, Association)> {
    (1usize..6, 1usize..14, 1usize..4).prop_flat_map(move |(n_aps, n_users, n_sessions)| {
        (
            vec(0u32..(n_sessions as u32), n_users),
            vec(proptest::option::of(0usize..RATES.len()), n_aps * n_users),
            vec(1u64..40, n_aps),
            vec((0u8..10, 0u32..(n_aps as u32)), n_users),
        )
            .prop_map(move |(sessions, links, budgets, picks)| {
                let mut b = InstanceBuilder::new();
                b.supported_rates(RATES.iter().map(|&m| Kbps::from_mbps(m)));
                b.rate_policy(policy);
                let session_ids: Vec<_> = (0..n_sessions)
                    .map(|i| b.add_session(Kbps::from_mbps(1 + i as u32)))
                    .collect();
                let aps: Vec<_> = budgets
                    .iter()
                    .map(|&t| b.add_ap(Load::from_ratio(t, 20)))
                    .collect();
                let users: Vec<_> = sessions
                    .iter()
                    .map(|&s| b.add_user(session_ids[s as usize]))
                    .collect();
                for (a, &ap) in aps.iter().enumerate() {
                    for (u, &user) in users.iter().enumerate() {
                        if let Some(r) = links[a * n_users + u] {
                            b.link(ap, user, Kbps::from_mbps(RATES[r])).unwrap();
                        }
                    }
                }
                let inst = b.build().unwrap();
                let assoc = Association::from_vec(
                    picks
                        .iter()
                        .enumerate()
                        .map(|(u, &(kind, raw))| {
                            let heard = inst.candidate_aps(UserId(u as u32));
                            match kind {
                                // Unassociated.
                                0..=1 => None,
                                // Any AP, heard or not (rarely out of range).
                                2 => Some(ApId(raw)),
                                // A heard AP, if any.
                                _ if heard.is_empty() => None,
                                _ => Some(heard[raw as usize % heard.len()].0),
                            }
                        })
                        .collect(),
                );
                (inst, assoc)
            })
    })
}

fn policy() -> impl Strategy<Value = RatePolicy> {
    proptest::bool::ANY.prop_map(|basic| {
        if basic {
            RatePolicy::BasicOnly
        } else {
            RatePolicy::MultiRate
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `validate` returns exactly the oracle's verdict: the same variant
    /// and the same first offending user or AP.
    #[test]
    fn one_pass_validate_matches_per_ap_scan(
        (inst, assoc) in policy().prop_flat_map(instance_and_association),
        truncate in 0u8..8,
    ) {
        let assoc = if truncate == 0 {
            Association::from_vec(assoc.to_vec()[1..].to_vec())
        } else {
            assoc
        };
        let fast = assoc.validate(&inst);
        prop_assert_eq!(&fast, &validate_scan(&assoc, &inst));
        prop_assert_eq!(assoc.is_feasible(&inst), fast.is_ok());
    }

    /// On every association in range, the one-sweep loads, rates, ledger
    /// and solution metrics equal the per-AP scans.
    #[test]
    fn one_pass_loads_match_per_ap_scan(
        (inst, assoc) in policy().prop_flat_map(instance_and_association),
    ) {
        if let Err(AssocError::OutOfRange { .. }) = validate_scan(&assoc, &inst) {
            return Ok(());
        }
        let scanned: Vec<Load> = inst.aps().map(|a| ap_load_scan(&assoc, a, &inst)).collect();
        prop_assert_eq!(&assoc.loads(&inst), &scanned);
        let rates = assoc.session_rates(&inst);
        for a in inst.aps() {
            prop_assert_eq!(rates.ap_load(a), scanned[a.index()]);
            for s in inst.sessions() {
                prop_assert_eq!(rates.rate(a, s), ap_session_rate_scan(&assoc, a, s, &inst));
            }
        }
        let total: Load = scanned.iter().copied().sum();
        let max = scanned.iter().copied().max().unwrap_or(Load::ZERO);
        prop_assert_eq!(assoc.total_load(&inst), total);
        prop_assert_eq!(assoc.max_load(&inst), max);

        let ledger = LoadLedger::new(&inst, assoc.clone());
        let reference = ReferenceLedger::new(&inst, assoc.clone());
        for a in inst.aps() {
            prop_assert_eq!(ledger.ap_load(a), scanned[a.index()]);
            prop_assert_eq!(reference.ap_load(a), scanned[a.index()]);
        }
        ledger.assert_consistent();

        let evaluated = Solution::evaluate(Objective::Mla, assoc.clone(), &inst, None);
        let from_ledger = Solution::from_ledger(Objective::Mla, ledger, None);
        prop_assert_eq!(evaluated.total_load, total);
        prop_assert_eq!(evaluated.max_load, max);
        prop_assert_eq!(evaluated.satisfied, assoc.satisfied_count());
        prop_assert_eq!(from_ledger, evaluated);
    }

    /// `load_if_joined` equals the reference ledger for every user and AP
    /// (`None` out of range), and a user no slower than the session's
    /// current rate leaves the AP's load unchanged.
    #[test]
    fn load_if_joined_shortcut_matches_reference(
        (inst, assoc) in policy().prop_flat_map(instance_and_association),
    ) {
        let assoc = assoc.restricted_to(&inst);
        let fast = LoadLedger::new(&inst, assoc.clone());
        let reference = ReferenceLedger::new(&inst, assoc);
        for u in inst.users() {
            let s = inst.user_session(u);
            for a in inst.aps() {
                let joined = fast.load_if_joined(u, a);
                prop_assert_eq!(joined, reference.load_if_joined(u, a));
                let rides_free = matches!(
                    (inst.multicast_rate_to(a, u), fast.ap_session_rate(a, s)),
                    (Some(r), Some(tx)) if r >= tx
                );
                if rides_free {
                    prop_assert_eq!(joined, Some(fast.ap_load(a)));
                }
            }
        }
    }
}

/// Fixed operands on both sides of the `i64` boundary, so each `Load`
/// branch runs against the oracle whatever the random cases draw.
#[test]
fn load_paths_cover_both_branches() {
    let small = Load::from_ratio(7, 12);
    let edge = Load::new(BIG, BIG - 1);
    let big = Load::new(3 * BIG + 2, 5);
    for (a, b) in [(small, edge), (edge, edge), (small, big), (big, big)] {
        assert_eq!(a + b, load_add_i128(a, b));
        assert_eq!(a - b, load_add_i128(a, -b));
        assert_eq!(a.cmp(&b), load_cmp_i128(a, b));
    }
    assert_eq!(big.cmp(&small), Ordering::Greater);
    assert_eq!(
        Load::new(i128::from(i64::MIN), -4),
        load_new_i128(i128::from(i64::MIN), -4)
    );
}
