//! Incremental repair: greedy re-homing of individual users against a
//! live [`LoadLedger`].
//!
//! The one-shot solvers ([`solve_mnu`](crate::solve_mnu) and friends)
//! rebuild the whole association from scratch. When a fault orphans a
//! handful of users — an AP crashed, a user moved — re-solving everything
//! is both expensive and disruptive (the greedy covering solvers may
//! rearrange users that were never affected). The entry points here
//! instead place *one user at a time* against the current ledger state,
//! leaving every other association untouched. They are the second rung
//! of the online controller's degradation ladder and the building block
//! of its admission sweep.
//!
//! Each call is `O(k)` in the user's candidate-AP count (`load_if_joined`
//! is `O(1)` per candidate thanks to the ledger's count arrays), versus
//! `Ω(Σᵤ kᵤ · |R|)` for a full re-solve.

use crate::assoc::LoadLedger;
use crate::ids::{ApId, UserId};
use crate::instance::Instance;
use crate::load::Load;
use crate::solution::Objective;

/// The best AP to re-home unassociated user `u` onto, given the current
/// ledger loads — or `None` if no allowed candidate can take it.
///
/// `allowed` masks candidates out (down APs, links lost to mobility).
/// When `enforce_budget` is set, an AP whose post-join load would exceed
/// its multicast budget is not a valid target (MNU's admission rule);
/// BLA/MLA treat budgets as soft and pass `false`.
///
/// The ranking is objective-aware, mirroring what a full re-solve
/// optimizes locally:
///
/// * [`Objective::Mnu`] / [`Objective::Bla`] — smallest post-join load
///   (keeps the bottleneck AP as light as possible; this is the same
///   rule as MNU's leftover-admission sweep).
/// * [`Objective::Mla`] — smallest load *increase* (a user whose rate is
///   already being multicast joins for free), then smallest post-join
///   load.
///
/// Ties break toward the lower [`ApId`], so repair is deterministic.
pub fn best_rehome_target<F>(
    ledger: &LoadLedger<'_>,
    u: UserId,
    objective: Objective,
    enforce_budget: bool,
    allowed: F,
) -> Option<ApId>
where
    F: Fn(ApId) -> bool,
{
    let inst = ledger.instance();
    let mut best: Option<(Load, Load, ApId)> = None;
    for &(a, _) in inst.candidate_aps(u) {
        if !allowed(a) {
            continue;
        }
        let Some(post) = ledger.load_if_joined(u, a) else {
            continue;
        };
        if enforce_budget && post > inst.budget(a) {
            continue;
        }
        let key = match objective {
            Objective::Mnu | Objective::Bla => (post, Load::ZERO, a),
            Objective::Mla => (post - ledger.ap_load(a), post, a),
        };
        if best.is_none_or(|b| key < b) {
            best = Some(key);
        }
    }
    best.map(|(_, _, a)| a)
}

/// Picks the [`best_rehome_target`] for `u` and joins it to the ledger.
///
/// Returns the AP the user was placed on, or `None` (ledger untouched)
/// if no allowed candidate can take it. `u` must currently be
/// unassociated — orphaned by an eviction, newly arrived, or explicitly
/// [`LoadLedger::leave`]-d by the caller first.
pub fn repair_user<F>(
    ledger: &mut LoadLedger<'_>,
    u: UserId,
    objective: Objective,
    enforce_budget: bool,
    allowed: F,
) -> Option<ApId>
where
    F: Fn(ApId) -> bool,
{
    debug_assert!(ledger.ap_of(u).is_none(), "repair target must be orphaned");
    let a = best_rehome_target(ledger, u, objective, enforce_budget, &allowed)?;
    ledger.join(u, a);
    Some(a)
}

/// The strongest-signal AP of `u` among allowed candidates — the SSA
/// baseline rule ([`crate::ssa::strongest_ap`]) restricted to a mask.
///
/// Used by the controller's SSA fallback rung, where down APs and
/// mobility-lost links must be skipped. Ties break toward the lower
/// [`ApId`], like the unmasked baseline.
pub fn strongest_allowed_ap<F>(inst: &Instance, u: UserId, allowed: F) -> Option<ApId>
where
    F: Fn(ApId) -> bool,
{
    inst.candidate_aps(u)
        .iter()
        .filter(|&&(a, _)| allowed(a))
        .map(|&(a, _)| {
            let sig = inst.signal(a, u).expect("candidate implies link");
            (sig, std::cmp::Reverse(a))
        })
        .max()
        .map(|(_, std::cmp::Reverse(a))| a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::{a, figure1_instance, u};
    use crate::instance::InstanceBuilder;
    use crate::load::Load;
    use crate::rate::Kbps;

    #[test]
    fn rehome_prefers_least_loaded_ap() {
        // Figure 1 at 1 Mbps: u5 can go to a1 (rate 4) or a2 (rate 3).
        // With u3, u4 already on a2, joining a2 would slow its s2 stream
        // to 3 Mbps (load 1/5 + 1/3 = 8/15); empty a1 costs only 1/4.
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(u(3), a(2));
        ledger.join(u(4), a(2));
        let placed = repair_user(&mut ledger, u(5), Objective::Mnu, true, |_| true);
        assert_eq!(placed, Some(a(1)));
        assert_eq!(ledger.ap_load(a(1)), Load::from_ratio(1, 4));
    }

    #[test]
    fn mla_rehome_joins_existing_multicast_for_free() {
        // u4 is already streaming session 1 from a2 at rate 2; placing u5
        // there adds nothing to the total load, so MLA repair prefers a2
        // even though a1's post-join load would be smaller.
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(u(4), a(2));
        let t = best_rehome_target(&ledger, u(5), Objective::Mla, true, |_| true);
        assert_eq!(t, Some(a(2)));
        // The load-minimizing objectives pick the lighter AP instead.
        let t = best_rehome_target(&ledger, u(5), Objective::Bla, true, |_| true);
        assert_eq!(t, Some(a(1)));
    }

    #[test]
    fn budget_enforcement_blocks_and_soft_mode_allows() {
        // At 3 Mbps, u1 on a1 fills its unit budget; u2 (only candidate
        // a1) cannot be admitted under MNU rules but can under soft ones.
        let inst = figure1_instance(Kbps::from_mbps(3));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(u(1), a(1));
        assert_eq!(
            best_rehome_target(&ledger, u(2), Objective::Mnu, true, |_| true),
            None
        );
        assert_eq!(
            best_rehome_target(&ledger, u(2), Objective::Bla, false, |_| true),
            Some(a(1))
        );
    }

    #[test]
    fn allowed_mask_excludes_aps() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        // u5 reaches a1 and a2; with a1 masked (down), repair lands on a2.
        let placed = repair_user(&mut ledger, u(5), Objective::Mnu, true, |ap| ap != a(1));
        assert_eq!(placed, Some(a(2)));
        // With both masked there is no target and the ledger is untouched.
        assert_eq!(
            best_rehome_target(&ledger, u(1), Objective::Mnu, true, |_| false),
            None
        );
        assert_eq!(ledger.ap_of(u(1)), None);
    }

    #[test]
    fn strongest_allowed_matches_ssa_when_unmasked() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        for user in inst.users() {
            assert_eq!(
                strongest_allowed_ap(&inst, user, |_| true),
                crate::ssa::strongest_ap(&inst, user),
            );
        }
        // Masking the strongest candidate falls back to the next one.
        let s = crate::ssa::strongest_ap(&inst, u(5)).unwrap();
        let second = strongest_allowed_ap(&inst, u(5), |ap| ap != s);
        assert!(second.is_some());
        assert_ne!(second, Some(s));
    }

    #[test]
    fn ties_break_to_lower_ap_id() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let s = b.add_session(Kbps::from_mbps(1));
        let a1 = b.add_ap(Load::ONE);
        let a2 = b.add_ap(Load::ONE);
        let us = b.add_user(s);
        b.link(a1, us, Kbps::from_mbps(6)).unwrap();
        b.link(a2, us, Kbps::from_mbps(6)).unwrap();
        let inst = b.build().unwrap();
        let ledger = LoadLedger::fresh(&inst);
        for obj in [Objective::Mnu, Objective::Bla, Objective::Mla] {
            assert_eq!(
                best_rehome_target(&ledger, us, obj, true, |_| true),
                Some(a1)
            );
        }
    }
}
