//! Association state and exact multicast load accounting.
//!
//! The load model is Definition 1 of the paper: an AP multicasting session
//! `s` to member set `M` transmits at `min_{u∈M} r(a,u)` (multi-rate
//! policy) or at the basic rate (basic-only), contributing
//! `rate(s) / tx_rate` to the AP's load; an AP's load is the sum over the
//! sessions it serves, and the network's total load is the sum over APs.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::ids::{ApId, SessionId, UserId};
use crate::instance::Instance;
use crate::load::Load;
use crate::rate::Kbps;

/// A (partial) assignment of users to APs.
///
/// `None` means the user is unsatisfied — it receives no multicast service.
/// This type is plain data; all load computations take the [`Instance`]
/// explicitly and run in one O(users + APs × sessions) sweep
/// ([`Association::session_rates`]), or use the incremental
/// [`LoadLedger`].
///
/// Storage is 4 bytes per user: a bare `u32` AP index with a sentinel for
/// "unsatisfied", half the footprint of the former `Vec<Option<ApId>>`
/// (whose niche-less pair padded to 8 bytes). The `Option<ApId>` API and
/// the serialized form (`null` for unsatisfied) are unchanged.
///
/// # Example
///
/// ```
/// use mcast_core::examples_paper::figure1_instance;
/// use mcast_core::{ApId, Association, Kbps, Load, UserId};
///
/// let inst = figure1_instance(Kbps::from_mbps(1));
/// let mut assoc = Association::empty(inst.n_users());
/// assoc.set(UserId(0), Some(ApId(0)));
/// assoc.set(UserId(2), Some(ApId(0)));
/// // a1 serves session s1 at min(3, 4) = 3 Mbps: load 1/3.
/// assert_eq!(assoc.loads(&inst)[0], Load::from_ratio(1, 3));
/// assert_eq!(assoc.satisfied_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Association {
    /// `NO_AP` = unsatisfied, anything else = the AP's index.
    by_user: Vec<u32>,
}

/// Sentinel in [`Association::by_user`] for an unsatisfied user.
const NO_AP: u32 = u32::MAX;

// The wire shape predates the compact representation: an object with one
// `by_user` array of AP indices with `null` for unsatisfied — exactly what
// `Vec<Option<ApId>>` derived. Hand-written so the sentinel never leaks.
impl Serialize for Association {
    fn serialize_value(&self) -> Value {
        let entries = self
            .by_user
            .iter()
            .map(|&a| {
                if a == NO_AP {
                    Value::Null
                } else {
                    Value::Int(i128::from(a))
                }
            })
            .collect();
        Value::Object(vec![("by_user".into(), Value::Array(entries))])
    }
}

impl Deserialize for Association {
    fn deserialize_value(v: &Value) -> Result<Association, DeError> {
        let by_user = Vec::<Option<ApId>>::deserialize_value(
            v.get("by_user")
                .ok_or_else(|| DeError::custom("association: missing field `by_user`"))?,
        )?;
        Ok(Association::from_vec(by_user))
    }
}

/// Errors from [`Association::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssocError {
    /// A user is associated with an AP out of its radio range.
    OutOfRange {
        /// The user.
        user: UserId,
        /// The AP it is (wrongly) associated with.
        ap: ApId,
    },
    /// An AP's multicast load exceeds its budget.
    OverBudget {
        /// The overloaded AP.
        ap: ApId,
        /// Its computed load.
        load: Load,
        /// Its budget.
        budget: Load,
    },
    /// The association vector length does not match the instance.
    WrongSize {
        /// Length of the association vector.
        got: usize,
        /// Number of users in the instance.
        expected: usize,
    },
}

impl fmt::Display for AssocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssocError::OutOfRange { user, ap } => {
                write!(f, "user {user} associated with out-of-range AP {ap}")
            }
            AssocError::OverBudget { ap, load, budget } => {
                write!(f, "AP {ap} load {load} exceeds budget {budget}")
            }
            AssocError::WrongSize { got, expected } => {
                write!(f, "association covers {got} users, instance has {expected}")
            }
        }
    }
}

impl std::error::Error for AssocError {}

impl Association {
    /// An association with every user unsatisfied.
    pub fn empty(n_users: usize) -> Association {
        Association {
            by_user: vec![NO_AP; n_users],
        }
    }

    /// Builds from an explicit per-user vector.
    pub fn from_vec(by_user: Vec<Option<ApId>>) -> Association {
        Association {
            by_user: by_user
                .into_iter()
                .map(|a| a.map_or(NO_AP, |a| a.0))
                .collect(),
        }
    }

    /// The AP user `u` is associated with, if any.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn ap_of(&self, u: UserId) -> Option<ApId> {
        let a = self.by_user[u.index()];
        (a != NO_AP).then_some(ApId(a))
    }

    /// Associates `u` with `a` (or disassociates with `None`).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn set(&mut self, u: UserId, a: Option<ApId>) {
        self.by_user[u.index()] = a.map_or(NO_AP, |a| a.0);
    }

    /// Number of users the association covers (satisfied or not).
    pub fn len(&self) -> usize {
        self.by_user.len()
    }

    /// True when the association covers no users.
    pub fn is_empty(&self) -> bool {
        self.by_user.is_empty()
    }

    /// Number of users receiving service.
    pub fn satisfied_count(&self) -> usize {
        self.by_user.iter().filter(|&&a| a != NO_AP).count()
    }

    /// Number of users without service.
    pub fn unsatisfied_count(&self) -> usize {
        self.by_user.len() - self.satisfied_count()
    }

    /// Per-user view in `UserId` order (what `as_slice` was before the
    /// compact sentinel representation made a `&[Option<ApId>]` view
    /// impossible to hand out without allocating).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Option<ApId>> + '_ {
        self.by_user
            .iter()
            .map(|&a| (a != NO_AP).then_some(ApId(a)))
    }

    /// The per-user vector, materialized (for set keys and checkpoints).
    pub fn to_vec(&self) -> Vec<Option<ApId>> {
        self.iter().collect()
    }

    /// The per-(AP, session) transmission rates of this association, from
    /// one sweep over the users: O(users + APs × sessions).
    ///
    /// # Panics
    ///
    /// Panics if a user is associated with an AP out of its range.
    pub fn session_rates<'a>(&self, inst: &'a Instance) -> SessionRates<'a> {
        self.sweep(inst, |_, _| {})
            .unwrap_or_else(|e| panic!("associated user must be in range: {e}"))
    }

    /// The one pass every load query shares: builds the per-(AP, session)
    /// minimum member rate, calling `member(slot, rate_idx)` for each
    /// associated user (the ledger counts members through it).
    ///
    /// # Errors
    ///
    /// [`AssocError::OutOfRange`] for the first user, in id order, that is
    /// associated with an AP it cannot hear.
    fn sweep<'a>(
        &self,
        inst: &'a Instance,
        mut member: impl FnMut(usize, usize),
    ) -> Result<SessionRates<'a>, AssocError> {
        let mut rates = SessionRates {
            inst,
            min_rate: vec![NO_RATE; inst.n_aps() * inst.n_sessions()],
        };
        for (u, &ap) in self.by_user.iter().enumerate() {
            if ap == NO_AP {
                continue;
            }
            let (u, a) = (UserId(u as u32), ApId(ap));
            let rate = inst
                .multicast_rate_to(a, u)
                .ok_or(AssocError::OutOfRange { user: u, ap: a })?;
            let slot = rates.slot(a, inst.user_session(u));
            let idx = rate_idx(inst, rate);
            member(slot, idx);
            rates.min_rate[slot] = rates.min_rate[slot].min(idx as u32);
        }
        Ok(rates)
    }

    /// All AP loads (Definition 1), indexable by `ApId::index`.
    pub fn loads(&self, inst: &Instance) -> Vec<Load> {
        self.session_rates(inst).loads()
    }

    /// The total multicast load of the network.
    pub fn total_load(&self, inst: &Instance) -> Load {
        self.loads(inst).into_iter().sum()
    }

    /// The maximum AP load.
    pub fn max_load(&self, inst: &Instance) -> Load {
        self.loads(inst).into_iter().max().unwrap_or(Load::ZERO)
    }

    /// Checks structural validity and budget feasibility.
    ///
    /// # Errors
    ///
    /// See [`AssocError`]: the wrong size first, then the first
    /// out-of-range user in id order, then the first over-budget AP in id
    /// order.
    pub fn validate(&self, inst: &Instance) -> Result<(), AssocError> {
        if self.by_user.len() != inst.n_users() {
            return Err(AssocError::WrongSize {
                got: self.by_user.len(),
                expected: inst.n_users(),
            });
        }
        let loads = self.sweep(inst, |_, _| {})?.loads();
        match inst.aps().find(|&a| loads[a.index()] > inst.budget(a)) {
            Some(a) => Err(AssocError::OverBudget {
                ap: a,
                load: loads[a.index()],
                budget: inst.budget(a),
            }),
            None => Ok(()),
        }
    }

    /// True if [`validate`](Association::validate) passes.
    pub fn is_feasible(&self, inst: &Instance) -> bool {
        self.validate(inst).is_ok()
    }

    /// Drops assignments that are invalid for `inst` — users out of their
    /// AP's range become unsatisfied. Used to carry an association across
    /// mobility epochs: moved users that left coverage of their AP must
    /// re-associate.
    ///
    /// # Panics
    ///
    /// Panics if the association length does not match `inst`.
    pub fn restricted_to(&self, inst: &Instance) -> Association {
        assert_eq!(self.by_user.len(), inst.n_users(), "association size");
        Association {
            by_user: self
                .iter()
                .enumerate()
                .map(|(u, ap)| {
                    ap.filter(|&a| inst.link_rate(a, UserId(u as u32)).is_some())
                        .map_or(NO_AP, |a| a.0)
                })
                .collect(),
        }
    }
}

/// The transmission rate of every (AP, session) pair under an
/// association: the minimum multicast rate over the AP's members of the
/// session (Definition 1), or none when the AP serves no such member.
///
/// Built by [`Association::session_rates`] in one sweep over the users and
/// kept live by [`LoadLedger`]; every AP-load query in the crate reads it.
///
/// # Example
///
/// ```
/// use mcast_core::examples_paper::figure1_instance;
/// use mcast_core::{ApId, Association, Kbps, Load, SessionId, UserId};
///
/// let inst = figure1_instance(Kbps::from_mbps(1));
/// let mut assoc = Association::empty(inst.n_users());
/// assoc.set(UserId(0), Some(ApId(0)));
/// assoc.set(UserId(2), Some(ApId(0)));
/// let rates = assoc.session_rates(&inst);
/// // a1 serves session s1 at min(3, 4) = 3 Mbps: load 1/3.
/// assert_eq!(rates.rate(ApId(0), SessionId(0)), Some(Kbps::from_mbps(3)));
/// assert_eq!(rates.ap_load(ApId(0)), Load::from_ratio(1, 3));
/// ```
#[derive(Debug, Clone)]
pub struct SessionRates<'a> {
    inst: &'a Instance,
    /// Per (AP, session): index of the minimum member rate in the
    /// supported-rate set, or [`NO_RATE`] when the slot has no members.
    min_rate: Vec<u32>,
}

/// Sentinel for an empty (AP, session) slot in [`SessionRates::min_rate`].
const NO_RATE: u32 = u32::MAX;

/// Index of `rate` in the instance's discrete supported-rate set.
fn rate_idx(inst: &Instance, rate: Kbps) -> usize {
    inst.supported_rates()
        .binary_search(&rate)
        .expect("multicast rate is in the supported set")
}

impl SessionRates<'_> {
    fn slot(&self, a: ApId, s: SessionId) -> usize {
        a.index() * self.inst.n_sessions() + s.index()
    }

    /// The rate AP `a` transmits session `s` at, if it serves it.
    pub fn rate(&self, a: ApId, s: SessionId) -> Option<Kbps> {
        let m = self.min_rate[self.slot(a, s)];
        (m != NO_RATE).then(|| self.inst.supported_rates()[m as usize])
    }

    /// The multicast load of AP `a`: `Σ stream(s) / rate(a, s)` over the
    /// sessions it serves.
    pub fn ap_load(&self, a: ApId) -> Load {
        self.inst
            .sessions()
            .filter_map(|s| {
                self.rate(a, s)
                    .map(|tx| Load::per_transmission(self.inst.session_rate(s), tx))
            })
            .sum()
    }

    /// All AP loads, indexable by `ApId::index`.
    pub fn loads(&self) -> Vec<Load> {
        self.inst.aps().map(|a| self.ap_load(a)).collect()
    }
}

/// Incrementally maintained load state used by the distributed algorithms:
/// O(1) joins/leaves and load queries, plus *hypothetical* deltas ("what
/// would AP `a`'s load be if I joined / if I left?") that the paper's
/// users compute from AP query responses.
///
/// The per-(AP, session) member-rate multiset is a fixed-size count array
/// over the instance's discrete supported-rate set (~8 entries for
/// 802.11a) with a cached minimum-occupied index (a live
/// [`SessionRates`]), so `ap_session_rate`, `load_if_joined` and move
/// application never walk members or tree nodes. [`LoadLedger::new`]
/// builds all of it in the same single sweep over the users as
/// [`Association::loads`]. The original `BTreeMap`-multiset
/// implementation is preserved as
/// [`reference::ReferenceLedger`](crate::reference::ReferenceLedger), and
/// `repro bench` plus the equivalence proptests pin the two to identical
/// outputs.
///
/// # Example
///
/// ```
/// use mcast_core::examples_paper::figure1_instance;
/// use mcast_core::{ApId, Kbps, Load, LoadLedger, UserId};
///
/// let inst = figure1_instance(Kbps::from_mbps(1));
/// let mut ledger = LoadLedger::fresh(&inst);
/// // "What would a1's load be if u3 joined?" — without joining.
/// assert_eq!(
///     ledger.load_if_joined(UserId(2), ApId(0)),
///     Some(Load::from_ratio(1, 4))
/// );
/// ledger.join(UserId(2), ApId(0));
/// assert_eq!(ledger.ap_load(ApId(0)), Load::from_ratio(1, 4));
/// ```
#[derive(Debug, Clone)]
pub struct LoadLedger<'a> {
    inst: &'a Instance,
    assoc: Association,
    /// Flattened member counts: `counts[slot(a, s) * n_rates + rate_idx]`
    /// is the number of members of session `s` on AP `a` whose multicast
    /// rate is `supported_rates()[rate_idx]`.
    counts: Vec<u32>,
    /// The minimum occupied rate of each slot, kept in step with `counts`.
    rates: SessionRates<'a>,
    ap_load: Vec<Load>,
    n_rates: usize,
}

impl<'a> LoadLedger<'a> {
    /// Starts from an existing association, in one sweep over its users.
    ///
    /// # Panics
    ///
    /// Panics if the association is structurally invalid for `inst`
    /// (wrong size or out-of-range assignment). Budgets are *not* checked —
    /// ledgers are also used to explore infeasible intermediate states.
    pub fn new(inst: &'a Instance, assoc: Association) -> LoadLedger<'a> {
        assert_eq!(assoc.len(), inst.n_users(), "association size");
        let n_rates = inst.supported_rates().len();
        let mut counts = vec![0; inst.n_aps() * inst.n_sessions() * n_rates];
        let rates = assoc
            .sweep(inst, |slot, idx| counts[slot * n_rates + idx] += 1)
            .unwrap_or_else(|e| panic!("{e}"));
        LoadLedger {
            inst,
            counts,
            ap_load: rates.loads(),
            rates,
            assoc,
            n_rates,
        }
    }

    /// Starts with every user unsatisfied.
    pub fn fresh(inst: &'a Instance) -> LoadLedger<'a> {
        LoadLedger::new(inst, Association::empty(inst.n_users()))
    }

    /// The load AP `a` currently carries.
    pub fn ap_load(&self, a: ApId) -> Load {
        self.ap_load[a.index()]
    }

    /// The AP user `u` is currently associated with.
    pub fn ap_of(&self, u: UserId) -> Option<ApId> {
        self.assoc.ap_of(u)
    }

    /// The current association (cheap clone of plain data).
    pub fn association(&self) -> &Association {
        &self.assoc
    }

    /// Consumes the ledger, returning the association.
    pub fn into_association(self) -> Association {
        self.assoc
    }

    /// Total load over all APs.
    pub fn total_load(&self) -> Load {
        self.ap_load.iter().copied().sum()
    }

    /// Maximum AP load.
    pub fn max_load(&self) -> Load {
        self.ap_load.iter().copied().max().unwrap_or(Load::ZERO)
    }

    /// The transmission rate AP `a` uses for session `s`, if it serves it.
    pub fn ap_session_rate(&self, a: ApId, s: SessionId) -> Option<Kbps> {
        self.rates.rate(a, s)
    }

    /// The load AP `a` would have if user `u` joined it (without joining).
    ///
    /// Returns `None` if `u` is out of `a`'s range.
    pub fn load_if_joined(&self, u: UserId, a: ApId) -> Option<Load> {
        let s = self.inst.user_session(u);
        let u_rate = self.inst.multicast_rate_to(a, u)?;
        let stream = self.inst.session_rate(s);
        let cur = self.ap_session_rate(a, s);
        let old_part = match cur {
            // A member no slower than the session's rate rides for free.
            Some(tx) if u_rate >= tx => return Some(self.ap_load[a.index()]),
            Some(tx) => Load::per_transmission(stream, tx),
            None => Load::ZERO,
        };
        Some(self.ap_load[a.index()] - old_part + Load::per_transmission(stream, u_rate))
    }

    /// The load user `u`'s current AP would have if `u` left it
    /// (the "load of `a` if it leaves AP `a`" the paper's users query).
    ///
    /// Returns `None` if `u` is not associated.
    pub fn load_if_left(&self, u: UserId) -> Option<Load> {
        let a = self.assoc.ap_of(u)?;
        let s = self.inst.user_session(u);
        let stream = self.inst.session_rate(s);
        let u_rate = self
            .inst
            .multicast_rate_to(a, u)
            .expect("associated user in range");
        let slot = self.rates.slot(a, s);
        let base = slot * self.n_rates;
        let min_idx = self.rates.min_rate[slot] as usize;
        let cur_tx = self.inst.supported_rates()[min_idx];
        let old_part = Load::per_transmission(stream, cur_tx);
        // Remaining members after u leaves: remove one instance of u_rate.
        let u_idx = rate_idx(self.inst, u_rate);
        let new_tx = if self.counts[base + u_idx] > 1 {
            Some(cur_tx) // another member shares u's rate; min unchanged
        } else if u_idx == min_idx {
            // u was the unique slowest; the next occupied rate takes over.
            self.counts[base + u_idx + 1..base + self.n_rates]
                .iter()
                .position(|&c| c > 0)
                .map(|off| self.inst.supported_rates()[u_idx + 1 + off])
        } else {
            Some(cur_tx) // a slower member than u pins the rate
        };
        let new_part = new_tx.map_or(Load::ZERO, |tx| Load::per_transmission(stream, tx));
        Some(self.ap_load[a.index()] - old_part + new_part)
    }

    /// Associates `u` with `a`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is already associated or out of `a`'s range.
    pub fn join(&mut self, u: UserId, a: ApId) {
        assert!(self.assoc.ap_of(u).is_none(), "user {u} already associated");
        let new_load = self
            .load_if_joined(u, a)
            .unwrap_or_else(|| panic!("user {u} out of range of AP {a}"));
        let s = self.inst.user_session(u);
        let u_rate = self.inst.multicast_rate_to(a, u).expect("checked in range");
        let slot = self.rates.slot(a, s);
        let u_idx = rate_idx(self.inst, u_rate);
        self.counts[slot * self.n_rates + u_idx] += 1;
        self.rates.min_rate[slot] = self.rates.min_rate[slot].min(u_idx as u32);
        self.ap_load[a.index()] = new_load;
        self.assoc.set(u, Some(a));
    }

    /// Disassociates `u` from its current AP.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not associated.
    pub fn leave(&mut self, u: UserId) {
        let new_load = self
            .load_if_left(u)
            .unwrap_or_else(|| panic!("user {u} is not associated"));
        let a = self.assoc.ap_of(u).expect("checked associated");
        let s = self.inst.user_session(u);
        let u_rate = self.inst.multicast_rate_to(a, u).expect("in range");
        let slot = self.rates.slot(a, s);
        let base = slot * self.n_rates;
        let u_idx = rate_idx(self.inst, u_rate);
        self.counts[base + u_idx] -= 1;
        if self.counts[base + u_idx] == 0 && self.rates.min_rate[slot] == u_idx as u32 {
            // The minimum emptied: advance to the next occupied rate.
            self.rates.min_rate[slot] = self.counts[base + u_idx + 1..base + self.n_rates]
                .iter()
                .position(|&c| c > 0)
                .map_or(NO_RATE, |off| (u_idx + 1 + off) as u32);
        }
        self.ap_load[a.index()] = new_load;
        self.assoc.set(u, None);
    }

    /// Moves `u` to `a` (leaving its current AP first, if any).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of `a`'s range.
    pub fn reassociate(&mut self, u: UserId, a: ApId) {
        if self.assoc.ap_of(u) == Some(a) {
            return;
        }
        if self.assoc.ap_of(u).is_some() {
            self.leave(u);
        }
        self.join(u, a);
    }

    /// Forcibly disassociates every user currently served by `a`
    /// (modelling an AP crash), returning the evicted users in ascending
    /// id order.
    ///
    /// Equivalent to each member leaving in turn, so every ledger
    /// invariant (per-session rate multisets, cached loads) holds
    /// afterwards and `ap_load(a)` is zero.
    pub fn evict_ap(&mut self, a: ApId) -> Vec<UserId> {
        // Members are in range, so scanning the users `a` reaches suffices.
        let evicted: Vec<UserId> = self
            .inst
            .reachable_users(a)
            .iter()
            .copied()
            .filter(|&u| self.assoc.ap_of(u) == Some(a))
            .collect();
        for &u in &evicted {
            self.leave(u);
        }
        debug_assert_eq!(self.ap_load(a), Load::ZERO);
        evicted
    }

    /// Verifies the cached loads and per-session rate multisets against a
    /// from-scratch recomputation from the association.
    ///
    /// A no-op in the happy path; fault-injection code calls it after
    /// every forced disassociation to assert the ledger never drifts.
    ///
    /// # Panics
    ///
    /// Panics if any cached value diverges from the recomputation.
    pub fn assert_consistent(&self) {
        let fresh = self.assoc.session_rates(self.inst);
        for a in self.inst.aps() {
            assert_eq!(
                self.ap_load(a),
                fresh.ap_load(a),
                "cached load of {a} diverged from its association"
            );
            for s in self.inst.sessions() {
                assert_eq!(
                    self.ap_session_rate(a, s),
                    fresh.rate(a, s),
                    "cached rate of ({a}, {s}) diverged from its association"
                );
            }
        }
    }

    /// The instance this ledger is built over.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure1_instance;
    use crate::instance::InstanceBuilder;

    fn mbps(m: u32) -> Kbps {
        Kbps::from_mbps(m)
    }

    /// §3.2 MLA example: sessions at 1 Mbps, everyone on a1 → 1/3 + 1/4.
    #[test]
    fn figure1_all_on_a1_total_load() {
        let inst = figure1_instance(mbps(1));
        let mut assoc = Association::empty(5);
        for u in 0..5 {
            assoc.set(UserId(u), Some(ApId(0)));
        }
        assert_eq!(
            assoc.loads(&inst)[0],
            Load::from_ratio(1, 3) + Load::from_ratio(1, 4)
        );
        assert_eq!(assoc.total_load(&inst), Load::from_ratio(7, 12));
        assert_eq!(assoc.max_load(&inst), Load::from_ratio(7, 12));
        assert!(assoc.is_feasible(&inst));
    }

    /// §3.2 BLA example: u1,u2,u3 on a1; u4,u5 on a2 → loads 1/2 and 1/3.
    #[test]
    fn figure1_bla_optimal_loads() {
        let inst = figure1_instance(mbps(1));
        let assoc = Association::from_vec(vec![
            Some(ApId(0)),
            Some(ApId(0)),
            Some(ApId(0)),
            Some(ApId(1)),
            Some(ApId(1)),
        ]);
        let loads = assoc.loads(&inst);
        assert_eq!(loads[0], Load::from_ratio(1, 2));
        assert_eq!(loads[1], Load::from_ratio(1, 3));
        assert_eq!(assoc.max_load(&inst), Load::from_ratio(1, 2));
    }

    /// §3.2 MNU example: 3 Mbps sessions; u2,u4,u5 on a1, u3 on a2.
    #[test]
    fn figure1_mnu_optimal_loads() {
        let inst = figure1_instance(mbps(3));
        let assoc = Association::from_vec(vec![
            None,
            Some(ApId(0)),
            Some(ApId(1)),
            Some(ApId(0)),
            Some(ApId(0)),
        ]);
        let loads = assoc.loads(&inst);
        assert_eq!(loads[0], Load::from_ratio(3, 4));
        assert_eq!(loads[1], Load::from_ratio(3, 5));
        assert_eq!(assoc.satisfied_count(), 4);
        assert_eq!(assoc.unsatisfied_count(), 1);
        assert!(assoc.is_feasible(&inst));
    }

    /// §3.2: serving both u1 and u2 from a1 at 3 Mbps is infeasible.
    #[test]
    fn figure1_mnu_infeasible_pair() {
        let inst = figure1_instance(mbps(3));
        let mut assoc = Association::empty(5);
        assoc.set(UserId(0), Some(ApId(0)));
        assoc.set(UserId(1), Some(ApId(0)));
        // Load = 3/3 + 3/6 = 3/2 > 1.
        assert_eq!(assoc.loads(&inst)[0], Load::from_ratio(3, 2));
        assert!(matches!(
            assoc.validate(&inst).unwrap_err(),
            AssocError::OverBudget { ap: ApId(0), .. }
        ));
    }

    #[test]
    fn validate_catches_out_of_range_and_size() {
        let inst = figure1_instance(mbps(1));
        let mut assoc = Association::empty(5);
        assoc.set(UserId(0), Some(ApId(1))); // u1 unreachable from a2
        assert!(matches!(
            assoc.validate(&inst).unwrap_err(),
            AssocError::OutOfRange {
                user: UserId(0),
                ap: ApId(1)
            }
        ));
        let short = Association::empty(3);
        assert!(matches!(
            short.validate(&inst).unwrap_err(),
            AssocError::WrongSize {
                got: 3,
                expected: 5
            }
        ));
    }

    #[test]
    fn ledger_matches_batch_computation() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(UserId(0), ApId(0));
        ledger.join(UserId(1), ApId(0));
        ledger.join(UserId(2), ApId(0));
        ledger.join(UserId(3), ApId(1));
        ledger.join(UserId(4), ApId(1));
        let assoc = ledger.association().clone();
        let loads = assoc.loads(&inst);
        assert_eq!(ledger.ap_load(ApId(0)), loads[0]);
        assert_eq!(ledger.ap_load(ApId(1)), loads[1]);
        assert_eq!(ledger.total_load(), assoc.total_load(&inst));
        assert_eq!(ledger.max_load(), assoc.max_load(&inst));
    }

    #[test]
    fn ledger_hypothetical_join_and_leave() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        // u3 (rate 4 from a1) joins a1: load 1/4.
        assert_eq!(
            ledger.load_if_joined(UserId(2), ApId(0)),
            Some(Load::from_ratio(1, 4))
        );
        ledger.join(UserId(2), ApId(0));
        // u1 (rate 3) would drag the session rate down to 3: 1/3.
        assert_eq!(
            ledger.load_if_joined(UserId(0), ApId(0)),
            Some(Load::from_ratio(1, 3))
        );
        ledger.join(UserId(0), ApId(0));
        assert_eq!(ledger.ap_load(ApId(0)), Load::from_ratio(1, 3));
        // If u1 left, rate returns to 4.
        assert_eq!(ledger.load_if_left(UserId(0)), Some(Load::from_ratio(1, 4)));
        // If u3 left instead, u1 still pins rate 3: load unchanged.
        assert_eq!(ledger.load_if_left(UserId(2)), Some(Load::from_ratio(1, 3)));
        // Out-of-range join is None.
        assert_eq!(ledger.load_if_joined(UserId(0), ApId(1)), None);
        // Actually leave and verify.
        ledger.leave(UserId(0));
        assert_eq!(ledger.ap_load(ApId(0)), Load::from_ratio(1, 4));
        assert_eq!(ledger.ap_of(UserId(0)), None);
    }

    #[test]
    fn ledger_duplicate_rates_leave_keeps_min() {
        // Two members at the same (minimum) rate: one leaving must not
        // change the transmission rate.
        let mut b = InstanceBuilder::new();
        b.supported_rates([mbps(3), mbps(6)]);
        let s = b.add_session(mbps(1));
        let a = b.add_ap(Load::ONE);
        let u0 = b.add_user(s);
        let u1 = b.add_user(s);
        let u2 = b.add_user(s);
        b.link(a, u0, mbps(3)).unwrap();
        b.link(a, u1, mbps(3)).unwrap();
        b.link(a, u2, mbps(6)).unwrap();
        let inst = b.build().unwrap();
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(u0, a);
        ledger.join(u1, a);
        ledger.join(u2, a);
        assert_eq!(ledger.ap_session_rate(a, s), Some(mbps(3)));
        assert_eq!(ledger.load_if_left(u0), Some(Load::from_ratio(1, 3)));
        ledger.leave(u0);
        assert_eq!(ledger.ap_session_rate(a, s), Some(mbps(3)));
        ledger.leave(u1);
        assert_eq!(ledger.ap_session_rate(a, s), Some(mbps(6)));
        ledger.leave(u2);
        assert_eq!(ledger.ap_session_rate(a, s), None);
        assert_eq!(ledger.ap_load(a), Load::ZERO);
    }

    #[test]
    fn reassociate_moves_user() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(UserId(3), ApId(0));
        ledger.reassociate(UserId(3), ApId(1));
        assert_eq!(ledger.ap_of(UserId(3)), Some(ApId(1)));
        assert_eq!(ledger.ap_load(ApId(0)), Load::ZERO);
        assert_eq!(ledger.ap_load(ApId(1)), Load::from_ratio(1, 5));
        // Reassociating to the same AP is a no-op.
        ledger.reassociate(UserId(3), ApId(1));
        assert_eq!(ledger.ap_load(ApId(1)), Load::from_ratio(1, 5));
    }

    #[test]
    fn restricted_to_drops_out_of_range_assignments() {
        let inst = figure1_instance(mbps(1));
        // u1 on a2 is invalid (no link); u3 on a2 is fine.
        let assoc = Association::from_vec(vec![
            Some(ApId(1)),
            Some(ApId(0)),
            Some(ApId(1)),
            None,
            Some(ApId(0)),
        ]);
        let fixed = assoc.restricted_to(&inst);
        assert_eq!(fixed.ap_of(UserId(0)), None);
        assert_eq!(fixed.ap_of(UserId(1)), Some(ApId(0)));
        assert_eq!(fixed.ap_of(UserId(2)), Some(ApId(1)));
        assert_eq!(fixed.ap_of(UserId(3)), None);
        assert!(fixed.validate(&inst).is_ok());
    }

    #[test]
    fn session_rates_of_empty_association_are_empty() {
        let inst = figure1_instance(mbps(1));
        let rates = Association::empty(5).session_rates(&inst);
        for a in inst.aps() {
            for s in inst.sessions() {
                assert_eq!(rates.rate(a, s), None);
            }
        }
        assert_eq!(rates.loads(), vec![Load::ZERO; 2]);
        assert_eq!(Association::empty(5).total_load(&inst), Load::ZERO);
        assert_eq!(Association::empty(5).max_load(&inst), Load::ZERO);
    }

    #[test]
    fn session_rates_take_the_slowest_member_per_session() {
        let inst = figure1_instance(mbps(1));
        // u1 (s1, 3 Mbps), u3 (s1, 4 Mbps) and u2 (s2, 6 Mbps) on a1.
        let assoc = Association::from_vec(vec![
            Some(ApId(0)),
            Some(ApId(0)),
            Some(ApId(0)),
            None,
            None,
        ]);
        let rates = assoc.session_rates(&inst);
        assert_eq!(rates.rate(ApId(0), SessionId(0)), Some(mbps(3)));
        assert_eq!(rates.rate(ApId(0), SessionId(1)), Some(mbps(6)));
        assert_eq!(rates.rate(ApId(1), SessionId(0)), None);
        assert_eq!(rates.ap_load(ApId(0)), Load::from_ratio(1, 2));
        assert_eq!(rates.ap_load(ApId(1)), Load::ZERO);
    }

    #[test]
    #[should_panic(expected = "in range")]
    fn session_rates_panic_on_out_of_range_member() {
        let inst = figure1_instance(mbps(1));
        let mut assoc = Association::empty(5);
        assoc.set(UserId(1), Some(ApId(1))); // u2 cannot hear a2
        let _ = assoc.session_rates(&inst);
    }

    /// Users 0 and 3 overload a1 (3/3 + 3/4 at 3 Mbps sessions); users 2
    /// and 4 overload a2 (3/5 + 3/3).
    fn both_aps_over_budget() -> Association {
        Association::from_vec(vec![
            Some(ApId(0)),
            None,
            Some(ApId(1)),
            Some(ApId(0)),
            Some(ApId(1)),
        ])
    }

    #[test]
    fn validate_reports_out_of_range_before_over_budget() {
        let inst = figure1_instance(mbps(3));
        let mut assoc = both_aps_over_budget();
        assoc.set(UserId(1), Some(ApId(1))); // u2 cannot hear a2
        let err = assoc.validate(&inst).unwrap_err();
        assert_eq!(
            err,
            AssocError::OutOfRange {
                user: UserId(1),
                ap: ApId(1)
            }
        );
        assert_eq!(Err(err), crate::reference::validate_scan(&assoc, &inst));
    }

    #[test]
    fn validate_reports_the_first_over_budget_ap() {
        let inst = figure1_instance(mbps(3));
        let assoc = both_aps_over_budget();
        let err = assoc.validate(&inst).unwrap_err();
        assert_eq!(
            err,
            AssocError::OverBudget {
                ap: ApId(0),
                load: Load::from_ratio(7, 4),
                budget: Load::ONE,
            }
        );
        assert_eq!(Err(err), crate::reference::validate_scan(&assoc, &inst));
        assert!(!assoc.is_feasible(&inst));
    }

    #[test]
    fn validate_checks_size_before_range() {
        let inst = figure1_instance(mbps(3));
        let assoc = Association::from_vec(vec![Some(ApId(1)); 6]);
        assert_eq!(
            assoc.validate(&inst),
            Err(AssocError::WrongSize {
                got: 6,
                expected: 5
            })
        );
    }

    #[test]
    fn load_if_joined_faster_joiner_keeps_the_load() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        let mut oracle = crate::reference::ReferenceLedger::fresh(&inst);
        ledger.join(UserId(0), ApId(0)); // s1 at 3 Mbps
        oracle.join(UserId(0), ApId(0));
        // u3 hears a1 at 4 Mbps, faster than the session's 3 Mbps.
        assert_eq!(
            ledger.load_if_joined(UserId(2), ApId(0)),
            Some(Load::from_ratio(1, 3))
        );
        assert_eq!(
            ledger.load_if_joined(UserId(2), ApId(0)),
            oracle.load_if_joined(UserId(2), ApId(0))
        );
    }

    #[test]
    fn load_if_joined_equal_rate_rides_free() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        // s2 at 4 Mbps; u5 also hears a1 at 4 Mbps.
        ledger.join(UserId(3), ApId(0));
        assert_eq!(
            ledger.load_if_joined(UserId(4), ApId(0)),
            Some(Load::from_ratio(1, 4))
        );
        ledger.join(UserId(4), ApId(0));
        assert_eq!(ledger.ap_load(ApId(0)), Load::from_ratio(1, 4));
        ledger.assert_consistent();
    }

    #[test]
    fn load_if_joined_new_session_adds_its_part() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        // s1 at 3 Mbps: 1/3; u2 brings s2 at 6 Mbps: + 1/6.
        ledger.join(UserId(0), ApId(0));
        assert_eq!(
            ledger.load_if_joined(UserId(1), ApId(0)),
            Some(Load::from_ratio(1, 2))
        );
    }

    #[test]
    fn ledger_new_matches_incremental_joins() {
        let inst = figure1_instance(mbps(1));
        let assoc = Association::from_vec(vec![
            Some(ApId(0)),
            Some(ApId(0)),
            Some(ApId(1)),
            Some(ApId(0)),
            Some(ApId(1)),
        ]);
        let built = LoadLedger::new(&inst, assoc.clone());
        let mut joined = LoadLedger::fresh(&inst);
        for (u, a) in assoc.iter().enumerate() {
            joined.join(UserId(u as u32), a.unwrap());
        }
        built.assert_consistent();
        for a in inst.aps() {
            assert_eq!(built.ap_load(a), joined.ap_load(a));
            for s in inst.sessions() {
                assert_eq!(built.ap_session_rate(a, s), joined.ap_session_rate(a, s));
            }
        }
        assert_eq!(built.association(), joined.association());
    }

    #[test]
    fn evict_ap_returns_members_in_id_order() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        for (u, a) in [(4, 0), (0, 0), (2, 0), (3, 1)] {
            ledger.join(UserId(u), ApId(a));
        }
        let a2_load = ledger.ap_load(ApId(1));
        assert_eq!(
            ledger.evict_ap(ApId(0)),
            vec![UserId(0), UserId(2), UserId(4)]
        );
        assert_eq!(ledger.ap_load(ApId(0)), Load::ZERO);
        assert_eq!(ledger.ap_load(ApId(1)), a2_load);
        assert_eq!(ledger.association().satisfied_count(), 1);
        ledger.assert_consistent();
        assert!(ledger.evict_ap(ApId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn assert_consistent_catches_a_drifted_load() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(UserId(0), ApId(0));
        ledger.ap_load[0] = Load::from_ratio(1, 4);
        ledger.assert_consistent();
    }

    #[test]
    #[should_panic(expected = "already associated")]
    fn double_join_panics() {
        let inst = figure1_instance(mbps(1));
        let mut ledger = LoadLedger::fresh(&inst);
        ledger.join(UserId(0), ApId(0));
        ledger.join(UserId(0), ApId(0));
    }
}
