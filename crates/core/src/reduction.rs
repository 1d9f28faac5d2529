//! Reductions from the WLAN association problems to covering problems
//! (paper Theorems 1, 3 and 5).
//!
//! All three objectives share one construction: the ground set is the user
//! set; for every AP `a`, session `s` and usable multicast rate `r`, there
//! is a set containing every user that requests `s` and can decode rate `r`
//! from `a`, with cost `rate(s) / r`; the sets of AP `a` form group `a`.
//! MNU adds per-group budgets (the AP load limits); BLA minimizes the
//! maximum group cost; MLA ignores groups and minimizes total cost.

use mcast_covering::{Cover, SetId, SetSystem, SetSystemBuilder};
use serde::{Deserialize, Serialize};

use crate::assoc::Association;
use crate::ids::{ApId, SessionId, UserId};
use crate::instance::Instance;
use crate::load::Load;
use crate::rate::Kbps;

/// What a covering set means in WLAN terms: AP `ap` multicasts session
/// `session` at transmission rate `tx_rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Choice {
    /// The transmitting AP (also the group of the set).
    pub ap: ApId,
    /// The multicast session transmitted.
    pub session: SessionId,
    /// The transmission rate used.
    pub tx_rate: Kbps,
}

/// The covering instance produced from a WLAN [`Instance`], with the
/// mapping back from set ids to [`Choice`]s.
#[derive(Debug, Clone)]
pub struct Reduction {
    system: SetSystem<Load>,
    choices: Vec<Choice>,
    budgets: Vec<Load>,
}

impl Reduction {
    /// Builds the covering instance (Theorem 1/3/5 construction).
    ///
    /// Duplicate sets — e.g. two rates reaching exactly the same members —
    /// are pruned, keeping the cheaper (higher-rate) one; this never
    /// changes what any solver can achieve.
    ///
    /// Each AP's reachable users are bucketed by session once, with the
    /// rate the AP must use for each; a set is then one filter of its
    /// bucket. That is O(links × rates) overall, where a scan of every
    /// session's users per (AP, session, rate) would be
    /// O(APs × sessions × rates × users per session).
    pub fn build(inst: &Instance) -> Reduction {
        let mut builder = SetSystemBuilder::<Load>::new(inst.n_users());
        builder.ensure_groups(inst.n_aps());
        let mut choices: Vec<Choice> = Vec::new();

        // `buckets[s]`: AP `a`'s reachable requesters of session `s`, with
        // the multicast rate each needs, ascending user id; `touched` lists
        // the non-empty buckets so clearing costs only what `a` filled.
        let mut buckets: Vec<Vec<(u32, Kbps)>> = vec![Vec::new(); inst.n_sessions()];
        let mut touched: Vec<SessionId> = Vec::new();
        for a in inst.aps() {
            for &u in inst.reachable_users(a) {
                let s = inst.user_session(u);
                let rate = inst
                    .multicast_rate_to(a, u)
                    .expect("reachable users have a link");
                if buckets[s.index()].is_empty() {
                    touched.push(s);
                }
                buckets[s.index()].push((u.0, rate));
            }
            touched.sort_unstable();
            for &s in &touched {
                let bucket = &buckets[s.index()];
                let stream = inst.session_rate(s);
                let mut last_members: Option<Vec<u32>> = None;
                // Ascending rates: members shrink as the rate climbs, cost
                // falls. Identical member sets at adjacent rates keep only
                // the cheaper (later) one.
                let mut pending: Vec<(Vec<u32>, Kbps)> = Vec::new();
                for &r in inst.multicast_rates() {
                    let members: Vec<u32> = bucket
                        .iter()
                        .filter(|&&(_, link)| link >= r)
                        .map(|&(u, _)| u)
                        .collect();
                    if members.is_empty() {
                        continue;
                    }
                    if last_members.as_ref() == Some(&members) {
                        // Same coverage, strictly cheaper: replace.
                        pending.pop();
                    }
                    last_members = Some(members.clone());
                    pending.push((members, r));
                }
                for (members, r) in pending {
                    builder
                        .push_set(members, Load::per_transmission(stream, r), a.0)
                        .expect("reduction sets are valid by construction");
                    choices.push(Choice {
                        ap: a,
                        session: s,
                        tx_rate: r,
                    });
                }
            }
            for s in touched.drain(..) {
                buckets[s.index()].clear();
            }
        }

        // `push_set` order and `choices` stay parallel; the builder assigns
        // ids in push order and `prune_duplicates` is *not* called (the
        // adjacent-rate dedup above already handles the only duplicates the
        // construction can produce within a group).
        let system = builder.build().expect("valid construction");
        debug_assert_eq!(system.n_sets(), choices.len());

        let budgets = inst.aps().map(|a| inst.budget(a)).collect();
        Reduction {
            system,
            choices,
            budgets,
        }
    }

    /// The covering instance.
    pub fn system(&self) -> &SetSystem<Load> {
        &self.system
    }

    /// The WLAN meaning of set `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn choice(&self, id: SetId) -> Choice {
        self.choices[id.0 as usize]
    }

    /// Per-group (= per-AP) budgets for the MNU instance.
    pub fn budgets(&self) -> &[Load] {
        &self.budgets
    }

    /// Users no AP can reach — the instance is uncoverable if non-empty.
    pub fn uncoverable_users(&self) -> Vec<UserId> {
        self.system
            .uncoverable_elements()
            .into_iter()
            .map(|e| UserId(e.0))
            .collect()
    }

    /// Translates a covering solution into an association: each covered
    /// element (user) associates with the AP of the set that covered it.
    ///
    /// The *realized* load of that association (minimum member rate per
    /// session, Definition 1) is never more than the covering-model cost:
    /// if two sets for the same (AP, session) were chosen, the AP really
    /// transmits once, at the lower rate.
    pub fn to_association(&self, cover: &Cover<Load>) -> Association {
        let mut assoc = Association::empty(self.system.n_elements());
        for (e, assigned) in cover.assignment().iter().enumerate() {
            if let Some(sid) = assigned {
                assoc.set(UserId(e as u32), Some(self.choice(*sid).ap));
            }
        }
        assoc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure1_instance;
    use crate::instance::InstanceBuilder;
    use crate::rate::RatePolicy;
    use mcast_covering::{ElementId, GroupId};

    fn mbps(m: u32) -> Kbps {
        Kbps::from_mbps(m)
    }

    /// The per-session scan `Reduction::build` replaced: for every (AP,
    /// session, rate), filter all of the session's users by a link lookup.
    /// Kept as the oracle the bucketed build must match set for set.
    fn build_by_session_scan(inst: &Instance) -> Reduction {
        let mut builder = SetSystemBuilder::<Load>::new(inst.n_users());
        builder.ensure_groups(inst.n_aps());
        let mut choices: Vec<Choice> = Vec::new();
        let mut by_session: Vec<Vec<UserId>> = vec![Vec::new(); inst.n_sessions()];
        for u in inst.users() {
            by_session[inst.user_session(u).index()].push(u);
        }
        for a in inst.aps() {
            for s in inst.sessions() {
                let stream = inst.session_rate(s);
                let mut last_members: Option<Vec<u32>> = None;
                let mut pending: Vec<(Vec<u32>, Kbps)> = Vec::new();
                for &r in inst.multicast_rates() {
                    let members: Vec<u32> = by_session[s.index()]
                        .iter()
                        .filter(|&&u| inst.multicast_rate_to(a, u).is_some_and(|link| link >= r))
                        .map(|u| u.0)
                        .collect();
                    if members.is_empty() {
                        continue;
                    }
                    if last_members.as_ref() == Some(&members) {
                        pending.pop();
                    }
                    last_members = Some(members.clone());
                    pending.push((members, r));
                }
                for (members, r) in pending {
                    builder
                        .push_set(members, Load::per_transmission(stream, r), a.0)
                        .unwrap();
                    choices.push(Choice {
                        ap: a,
                        session: s,
                        tx_rate: r,
                    });
                }
            }
        }
        Reduction {
            system: builder.build().unwrap(),
            choices,
            budgets: inst.aps().map(|a| inst.budget(a)).collect(),
        }
    }

    /// `Reduction::build` equals the per-session scan: same sets in the
    /// same order, with the same members, costs, groups and choices.
    fn assert_matches_scan(inst: &Instance) {
        let fast = Reduction::build(inst);
        let scan = build_by_session_scan(inst);
        let (f, s) = (fast.system(), scan.system());
        assert_eq!(f.n_elements(), s.n_elements());
        assert_eq!(f.n_groups(), s.n_groups());
        assert_eq!(f.n_sets(), s.n_sets());
        for i in 0..f.n_sets() {
            let id = SetId(i as u32);
            assert_eq!(f.set(id).members(), s.set(id).members(), "set {i}");
            assert_eq!(f.set(id).cost(), s.set(id).cost(), "set {i}");
            assert_eq!(f.set(id).group(), s.set(id).group(), "set {i}");
            assert_eq!(fast.choice(id), scan.choice(id), "set {i}");
        }
        assert_eq!(fast.budgets(), scan.budgets());
        assert_eq!(fast.uncoverable_users(), scan.uncoverable_users());
    }

    #[test]
    fn build_matches_session_scan_on_generated_wlans() {
        use crate::generated::{cross, paper_density, paper_instance};
        assert_matches_scan(&figure1_instance(mbps(1)));
        for seed in 1..=3 {
            assert_matches_scan(&paper_density(seed, 60));
            // Basic-rate multicast: one set per (AP, session).
            assert_matches_scan(&paper_instance(seed, |cfg| {
                cfg.n_aps = 40;
                cfg.n_users = 120;
                cfg.rate_policy = cross(&RatePolicy::BasicOnly);
            }));
            // Heterogeneous session rates.
            assert_matches_scan(&paper_instance(seed, |cfg| {
                cfg.n_aps = 40;
                cfg.n_users = 120;
                let kbps = [500, 1000, 1500, 3000, 4000].map(Kbps);
                cfg.session_rates = Some(cross(&kbps.to_vec()));
            }));
            // A sparse area without the coverage guarantee: some users
            // are out of every AP's range.
            let sparse = paper_instance(seed, |cfg| {
                cfg.n_aps = 10;
                cfg.n_users = 100;
                cfg.width_m = 3000.0;
                cfg.height_m = 3000.0;
                cfg.require_coverage = false;
            });
            assert!(!Reduction::build(&sparse).uncoverable_users().is_empty());
            assert_matches_scan(&sparse);
        }
    }

    /// The reduction of Figure 1 at 1 Mbps must be exactly the paper's
    /// Figure 5 / Figure 7 set system (7 sets, after deduplication).
    #[test]
    fn figure1_reduction_matches_figure5() {
        let inst = figure1_instance(mbps(1));
        let red = Reduction::build(&inst);
        let sys = red.system();
        assert_eq!(sys.n_elements(), 5);
        assert_eq!(sys.n_groups(), 2);
        assert_eq!(sys.n_sets(), 7);

        // Collect (ap, members, cost) triples.
        let mut triples: Vec<(u32, Vec<u32>, Load)> = (0..sys.n_sets())
            .map(|i| {
                let set = sys.set(SetId(i as u32));
                (
                    set.group().0,
                    set.members().iter().map(|e| e.0).collect(),
                    *set.cost(),
                )
            })
            .collect();
        triples.sort();
        let expected: Vec<(u32, Vec<u32>, Load)> = vec![
            // a1: s1 @4 {u3}, s1 @3 {u1,u3}, s2 @6 {u2}, s2 @4 {u2,u4,u5}
            (0, vec![0, 2], Load::from_ratio(1, 3)),
            (0, vec![1], Load::from_ratio(1, 6)),
            (0, vec![1, 3, 4], Load::from_ratio(1, 4)),
            (0, vec![2], Load::from_ratio(1, 4)),
            // a2: s1 @5 {u3}, s2 @5 {u4}, s2 @3 {u4,u5}
            (1, vec![2], Load::from_ratio(1, 5)),
            (1, vec![3], Load::from_ratio(1, 5)),
            (1, vec![3, 4], Load::from_ratio(1, 3)),
        ];
        let mut expected = expected;
        expected.sort();
        assert_eq!(triples, expected);
    }

    /// With 3 Mbps sessions the same sets appear with tripled costs
    /// (Figure 2), and the budgets are the AP load limits.
    #[test]
    fn figure1_reduction_at_3mbps_matches_figure2() {
        let inst = figure1_instance(mbps(3));
        let red = Reduction::build(&inst);
        assert_eq!(red.system().n_sets(), 7);
        assert_eq!(red.budgets(), &[Load::ONE, Load::ONE]);
        // The (a1, s2, @4) set now costs 3/4.
        let found = (0..red.system().n_sets()).any(|i| {
            let id = SetId(i as u32);
            let set = red.system().set(id);
            let c = red.choice(id);
            c.ap == ApId(0)
                && c.tx_rate == mbps(4)
                && set.members() == [ElementId(1), ElementId(3), ElementId(4)]
                && *set.cost() == Load::from_ratio(3, 4)
        });
        assert!(found, "expected the S4 set of Figure 2");
    }

    #[test]
    fn choices_align_with_groups() {
        let inst = figure1_instance(mbps(1));
        let red = Reduction::build(&inst);
        for i in 0..red.system().n_sets() {
            let id = SetId(i as u32);
            let choice = red.choice(id);
            assert_eq!(GroupId(choice.ap.0), red.system().set(id).group());
            // Cost is rate(session)/tx_rate.
            assert_eq!(
                *red.system().set(id).cost(),
                Load::per_transmission(inst.session_rate(choice.session), choice.tx_rate)
            );
            // Every member can decode tx_rate from the AP.
            for e in red.system().set(id).members() {
                let u = UserId(e.0);
                assert_eq!(inst.user_session(u), choice.session);
                assert!(inst.multicast_rate_to(choice.ap, u).unwrap() >= choice.tx_rate);
            }
        }
    }

    #[test]
    fn basic_only_policy_collapses_to_one_set_per_ap_session() {
        // The Figure 1 WLAN rebuilt with BasicOnly: every (AP, session)
        // gets exactly one set at the basic rate (3 Mbps) containing all
        // reachable requesters.
        let mut b = InstanceBuilder::new();
        b.supported_rates([mbps(3), mbps(4), mbps(5), mbps(6)]);
        b.rate_policy(RatePolicy::BasicOnly);
        let s1 = b.add_session(mbps(1));
        let s2 = b.add_session(mbps(1));
        let a1 = b.add_ap(Load::ONE);
        let a2 = b.add_ap(Load::ONE);
        let users = [
            (s1, vec![(a1, 3)]),
            (s2, vec![(a1, 6)]),
            (s1, vec![(a1, 4), (a2, 5)]),
            (s2, vec![(a1, 4), (a2, 5)]),
            (s2, vec![(a1, 4), (a2, 3)]),
        ];
        for (s, links) in users {
            let u = b.add_user(s);
            for (a, r) in links {
                b.link(a, u, mbps(r)).unwrap();
            }
        }
        let inst = b.build().unwrap();
        let red = Reduction::build(&inst);
        // a1 serves s1 and s2; a2 serves s1 and s2 => 4 sets, all at 3 Mbps.
        assert_eq!(red.system().n_sets(), 4);
        for i in 0..4 {
            assert_eq!(red.choice(SetId(i)).tx_rate, mbps(3));
            assert_eq!(*red.system().set(SetId(i)).cost(), Load::from_ratio(1, 3));
        }
    }

    #[test]
    fn uncoverable_user_reported() {
        let mut b = InstanceBuilder::new();
        let s = b.add_session(mbps(1));
        b.add_ap(Load::ONE);
        let _lonely = b.add_user(s);
        let inst = b.build().unwrap();
        let red = Reduction::build(&inst);
        assert_eq!(red.uncoverable_users(), vec![UserId(0)]);
    }
}
