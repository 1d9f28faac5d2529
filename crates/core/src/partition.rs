//! Partitioned parallel execution of the distributed association rules.
//!
//! The paper's local decision rules read only the APs inside a user's
//! coverage disk, so a large WLAN decomposes spatially: partition the APs
//! and users into `W` tiles, give each tile to a worker thread that owns a
//! private slice of the load ledger, and exchange only the state of
//! *boundary* APs — those reachable from another tile — at deterministic
//! synchronization points. [`run_partitioned`] is the parallel driver; it
//! is **bit-for-bit equivalent** to
//! [`run_distributed`](crate::distributed::run_distributed), which remains
//! the `W = 1` path and the equivalence oracle.
//!
//! # Architecture
//!
//! * [`Partition`] assigns every AP and user to a tile and classifies each
//!   AP as *interior* (reachable only from its own tile) or *boundary*
//!   (reachable from some other tile). Users with a boundary candidate AP
//!   are themselves *boundary users*. The geometric tilers in
//!   `mcast-topology` build partitions from `SpatialGrid` cell
//!   coordinates; [`Partition::contiguous`] is a geometry-free fallback.
//! * Each worker holds a [`TileLedger`]: exact per-(AP, session) rate
//!   multisets — the same representation as
//!   [`LoadLedger`](crate::assoc::LoadLedger) — but only for the APs its
//!   own users can reach. Tracked APs of *other* tiles are read-only ghost
//!   replicas, updated by applying [`MoveRec`] deltas shipped over
//!   `std::sync::mpsc` channels at round barriers (the halo exchange).
//!   Because the ledger state of an AP is a pure function of its member
//!   multiset and [`Load`](crate::load::Load) arithmetic is exact
//!   rational, delta application commutes — replicas converge to the
//!   identical state no matter which order the deltas arrive in. Deltas
//!   are nevertheless merged in ascending tile index so even intermediate
//!   states are schedule-independent.
//! * [`ExecutionMode::Simultaneous`] parallelizes directly: every
//!   decision reads the frozen round-start state, so workers decide their
//!   own users independently and the round barrier merges the moves.
//! * [`ExecutionMode::Serial`] must reproduce the *exact* single-threaded
//!   decision sequence. Interior users only ever read interior APs of
//!   their own tile (if a user could read another tile's AP, that AP
//!   would be boundary and the user a boundary user), so they run
//!   concurrently, wavefront-style. Boundary users are sequenced on a
//!   rank chain — a mutex + condvar protecting the next global boundary
//!   rank and the log of boundary moves — so each one decides exactly at
//!   its position of the global [`DecisionOrder`], seeing every earlier
//!   boundary move.
//!
//! # Determinism
//!
//! The outcome (association, rounds, moves, convergence and cycle flags,
//! and the full decision trace) is independent of thread scheduling and
//! identical to the single-threaded engine for every `W`; the
//! `partition_equivalence` proptest suite pins this across policies,
//! modes, hysteresis settings and worker counts.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::assoc::Association;
use crate::checkpoint::{PartitionCheckpoint, CHECKPOINT_SCHEMA};
use crate::distributed::{
    continue_distributed, local_decision_scratch, ApStateView, DecisionScratch, DistributedConfig,
    DistributedOutcome, ExecutionMode,
};
use crate::ids::{ApId, SessionId, UserId};
use crate::instance::Instance;
use crate::load::Load;
use crate::rate::Kbps;
use crate::supervise::{
    ChaosPlan, FailureKind, RecoveryReport, ReplyFate, SuperviseOptions, WorkerFailure,
};

/// One applied association change: the unit of the halo exchange and of
/// decision traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MoveRec {
    /// The 1-based round the move was applied in.
    pub round: u32,
    /// Position of the deciding user in the round's reference decision
    /// sequence: the index into the [`DecisionOrder`](crate::DecisionOrder)
    /// permutation in `Serial` mode, the raw user id in `Simultaneous`
    /// mode (which visits users in ascending id). Sorting a trace by
    /// `(round, pos)` therefore reproduces the exact order in which the
    /// single-threaded engine applies moves.
    pub pos: u32,
    /// The user that moved.
    pub user: UserId,
    /// The AP it left (`None` for an initial join).
    pub from: Option<ApId>,
    /// The AP it joined.
    pub to: ApId,
}

/// Why a [`Partition`] could not be built, or a partitioned run could
/// not start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// `n_tiles` was zero — at least one tile is required.
    NoTiles,
    /// The AP or user tile assignment had the wrong length for the
    /// instance.
    WrongSize,
    /// An assignment named a tile index `>= n_tiles`.
    TileOutOfRange,
    /// The initial association puts a user on an AP outside its range
    /// (the single-threaded ledger panics on this; the partitioned
    /// driver reports it as a typed error).
    InvalidInitialAssociation {
        /// The misassociated user.
        user: UserId,
        /// The AP it cannot reach.
        ap: ApId,
    },
    /// A resume checkpoint did not match the instance or schema.
    BadCheckpoint(&'static str),
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::NoTiles => write!(f, "a partition needs at least one tile"),
            PartitionError::WrongSize => {
                write!(f, "tile assignment length does not match the instance")
            }
            PartitionError::TileOutOfRange => {
                write!(f, "tile assignment names a tile index >= n_tiles")
            }
            PartitionError::InvalidInitialAssociation { user, ap } => {
                write!(f, "initial association puts {user} out of range of {ap}")
            }
            PartitionError::BadCheckpoint(why) => write!(f, "bad checkpoint: {why}"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// A tiling of an instance's APs and users, with every AP classified as
/// interior or boundary (see the [module docs](self)).
///
/// The classification is derived from the instance's *exact* reachability
/// (an AP is boundary iff some user of another tile can reach it), so it
/// is a sound — and tight — refinement of the geometric "coverage disk
/// crosses a tile edge" test: any AP whose disk stays strictly inside its
/// tile is interior here too.
#[derive(Debug, Clone)]
pub struct Partition {
    n_tiles: usize,
    ap_tile: Vec<u32>,
    user_tile: Vec<u32>,
    boundary_ap: Vec<bool>,
    boundary_user: Vec<bool>,
}

impl Partition {
    /// Builds a partition from explicit per-AP and per-user tile
    /// assignments, deriving the boundary classification from the
    /// instance's reachability.
    pub fn new(
        inst: &Instance,
        n_tiles: usize,
        ap_tile: Vec<u32>,
        user_tile: Vec<u32>,
    ) -> Result<Partition, PartitionError> {
        if n_tiles == 0 {
            return Err(PartitionError::NoTiles);
        }
        if ap_tile.len() != inst.n_aps() || user_tile.len() != inst.n_users() {
            return Err(PartitionError::WrongSize);
        }
        if ap_tile
            .iter()
            .chain(user_tile.iter())
            .any(|&t| t as usize >= n_tiles)
        {
            return Err(PartitionError::TileOutOfRange);
        }
        // An AP is boundary iff a user of another tile can reach it; a
        // user is boundary iff one of its candidate APs is boundary.
        let mut boundary_ap = vec![false; inst.n_aps()];
        for ap in inst.aps() {
            let t = ap_tile[ap.index()];
            boundary_ap[ap.index()] = inst
                .reachable_users(ap)
                .iter()
                .any(|&u| user_tile[u.index()] != t);
        }
        let mut boundary_user = vec![false; inst.n_users()];
        for u in inst.users() {
            boundary_user[u.index()] = inst
                .candidate_aps(u)
                .iter()
                .any(|&(a, _)| boundary_ap[a.index()]);
        }
        Ok(Partition {
            n_tiles,
            ap_tile,
            user_tile,
            boundary_ap,
            boundary_user,
        })
    }

    /// A geometry-free partition striping APs into `n_tiles` contiguous
    /// id ranges; each user follows its first candidate AP (users with no
    /// candidates land on tile 0). Useful as a fallback and for tests —
    /// the spatial tiler in `mcast-topology` produces far fewer boundary
    /// APs on generated scenarios.
    pub fn contiguous(inst: &Instance, n_tiles: usize) -> Result<Partition, PartitionError> {
        if n_tiles == 0 {
            return Err(PartitionError::NoTiles);
        }
        let n_aps = inst.n_aps().max(1);
        let ap_tile: Vec<u32> = (0..inst.n_aps())
            .map(|i| (i * n_tiles / n_aps) as u32)
            .collect();
        let user_tile: Vec<u32> = inst
            .users()
            .map(|u| {
                inst.candidate_aps(u)
                    .first()
                    .map_or(0, |&(a, _)| ap_tile[a.index()])
            })
            .collect();
        Partition::new(inst, n_tiles, ap_tile, user_tile)
    }

    /// The trivial one-tile partition (everything interior).
    pub fn single(inst: &Instance) -> Partition {
        Partition::contiguous(inst, 1).expect("one tile is always valid")
    }

    /// Number of tiles (= worker threads of the partitioned driver).
    pub fn n_tiles(&self) -> usize {
        self.n_tiles
    }

    /// The tile AP `a` belongs to.
    pub fn ap_tile(&self, a: ApId) -> usize {
        self.ap_tile[a.index()] as usize
    }

    /// The tile user `u` belongs to.
    pub fn user_tile(&self, u: UserId) -> usize {
        self.user_tile[u.index()] as usize
    }

    /// True if some user of another tile can reach `a`.
    pub fn is_boundary_ap(&self, a: ApId) -> bool {
        self.boundary_ap[a.index()]
    }

    /// True if `u` has a boundary AP among its candidates.
    pub fn is_boundary_user(&self, u: UserId) -> bool {
        self.boundary_user[u.index()]
    }

    /// Number of boundary APs (the halo-exchange working set).
    pub fn boundary_ap_count(&self) -> usize {
        self.boundary_ap.iter().filter(|&&b| b).count()
    }

    /// Number of boundary users (the serially-sequenced fraction in
    /// `Serial` mode).
    pub fn boundary_user_count(&self) -> usize {
        self.boundary_user.iter().filter(|&&b| b).count()
    }
}

/// Sentinel for an AP the tile ledger does not track.
const UNTRACKED: u32 = u32::MAX;
/// Sentinel for an empty (AP, session) slot (same as the global ledger).
const NO_RATE: u32 = u32::MAX;

/// A worker's slice of the load ledger: exact per-(AP, session) member
/// rate multisets — the same representation and arithmetic as
/// [`LoadLedger`](crate::assoc::LoadLedger) — restricted to the APs the
/// tile's own users can reach. Tracked APs of other tiles are ghost
/// replicas kept identical to the owner's state by replaying [`MoveRec`]
/// deltas; untracked APs are skipped (their state can never influence an
/// own user's decision).
#[derive(Debug)]
struct TileLedger<'a> {
    inst: &'a Instance,
    /// Global AP index → tracked-slot index, or [`UNTRACKED`].
    local: Vec<u32>,
    /// `counts[slot(a, s) * n_rates + rate_idx]` members, tracked APs only.
    counts: Vec<u32>,
    /// Minimum occupied rate index per (tracked AP, session) slot.
    min_rate: Vec<u32>,
    /// Cached load per tracked AP.
    loads: Vec<Load>,
    n_rates: usize,
    n_sessions: usize,
    /// Current AP per user. Own users are authoritative; other tiles'
    /// users are a *shadow* updated from shipped halo deltas, exact for
    /// every tracked AP (a remote move touching a tracked AP is always
    /// shipped, because any tracked AP a remote user can reach is by
    /// definition boundary) and possibly stale only at untracked APs,
    /// which no decision and no audit ever reads.
    assoc: Vec<Option<ApId>>,
}

impl<'a> TileLedger<'a> {
    /// Builds the tile's slice: tracked APs are the union of the own
    /// users' candidate sets; every user of `initial` associated with a
    /// tracked AP is counted into it (other tiles' members contribute to
    /// ghost state too — `load_if_left` of a shared AP depends on the
    /// full member multiset).
    fn new(inst: &'a Instance, initial: &Association, own: &[(u32, UserId)]) -> TileLedger<'a> {
        let mut local = vec![UNTRACKED; inst.n_aps()];
        let mut tracked = 0u32;
        for &(_, u) in own {
            for &(a, _) in inst.candidate_aps(u) {
                if local[a.index()] == UNTRACKED {
                    local[a.index()] = 0; // numbered below, in ascending id
                    tracked += 1;
                }
            }
        }
        let mut next = 0u32;
        for l in local.iter_mut() {
            if *l != UNTRACKED {
                *l = next;
                next += 1;
            }
        }
        let n_rates = inst.supported_rates().len();
        let n_sessions = inst.n_sessions();
        let slots = tracked as usize * n_sessions;
        let mut ledger = TileLedger {
            inst,
            local,
            counts: vec![0; slots * n_rates],
            min_rate: vec![NO_RATE; slots],
            loads: vec![Load::ZERO; tracked as usize],
            n_rates,
            n_sessions,
            assoc: initial.to_vec(),
        };
        for (i, ap) in initial.iter().enumerate() {
            if let Some(a) = ap {
                ledger.count_join(UserId(i as u32), a);
            }
        }
        ledger
    }

    fn lidx(&self, a: ApId) -> Option<usize> {
        let l = self.local[a.index()];
        (l != UNTRACKED).then_some(l as usize)
    }

    fn rate_idx(&self, rate: Kbps) -> usize {
        self.inst
            .supported_rates()
            .binary_search(&rate)
            .expect("multicast rate is in the supported set")
    }

    fn slot(&self, li: usize, s: SessionId) -> usize {
        li * self.n_sessions + s.index()
    }

    /// Counts `u` into tracked AP `a`'s member multiset (no-op when `a`
    /// is untracked). Does not touch `assoc` — ghost members are counted
    /// but not owned.
    fn count_join(&mut self, u: UserId, a: ApId) {
        let Some(li) = self.lidx(a) else { return };
        let s = self.inst.user_session(u);
        let stream = self.inst.session_rate(s);
        let u_rate = self
            .inst
            .multicast_rate_to(a, u)
            .expect("joining user is in range");
        let slot = self.slot(li, s);
        let base = slot * self.n_rates;
        let u_idx = self.rate_idx(u_rate);
        let rates = self.inst.supported_rates();
        let old = self.min_rate[slot];
        let old_part = if old == NO_RATE {
            Load::ZERO
        } else {
            Load::per_transmission(stream, rates[old as usize])
        };
        self.counts[base + u_idx] += 1;
        if old == NO_RATE || (u_idx as u32) < old {
            self.min_rate[slot] = u_idx as u32;
        }
        let new_part = Load::per_transmission(stream, rates[self.min_rate[slot] as usize]);
        self.loads[li] = self.loads[li] - old_part + new_part;
    }

    /// Removes `u` from tracked AP `a`'s member multiset (no-op when `a`
    /// is untracked).
    fn count_leave(&mut self, u: UserId, a: ApId) {
        let Some(li) = self.lidx(a) else { return };
        let s = self.inst.user_session(u);
        let stream = self.inst.session_rate(s);
        let u_rate = self
            .inst
            .multicast_rate_to(a, u)
            .expect("leaving user was in range");
        let slot = self.slot(li, s);
        let base = slot * self.n_rates;
        let u_idx = self.rate_idx(u_rate);
        let rates = self.inst.supported_rates();
        let min_idx = self.min_rate[slot];
        debug_assert_ne!(min_idx, NO_RATE, "leave from an empty slot");
        let old_part = Load::per_transmission(stream, rates[min_idx as usize]);
        self.counts[base + u_idx] -= 1;
        if self.counts[base + u_idx] == 0 && min_idx == u_idx as u32 {
            // The minimum emptied: advance to the next occupied rate.
            self.min_rate[slot] = self.counts[base + u_idx + 1..base + self.n_rates]
                .iter()
                .position(|&c| c > 0)
                .map_or(NO_RATE, |off| (u_idx + 1 + off) as u32);
        }
        let new_part = match self.min_rate[slot] {
            NO_RATE => Load::ZERO,
            m => Load::per_transmission(stream, rates[m as usize]),
        };
        self.loads[li] = self.loads[li] - old_part + new_part;
    }

    /// Applies a move by one of this tile's own users (endpoints are
    /// candidates of the mover, hence always tracked).
    fn apply_own(&mut self, rec: &MoveRec) {
        debug_assert_eq!(self.assoc[rec.user.index()], rec.from);
        if let Some(f) = rec.from {
            self.count_leave(rec.user, f);
        }
        self.count_join(rec.user, rec.to);
        self.assoc[rec.user.index()] = Some(rec.to);
    }

    /// Applies another tile's move to the ghost replicas: pure count
    /// deltas, skipping untracked endpoints. The shadow association
    /// follows so the drift auditor can rebuild membership from scratch.
    fn apply_remote(&mut self, rec: &MoveRec) {
        if let Some(f) = rec.from {
            self.count_leave(rec.user, f);
        }
        self.count_join(rec.user, rec.to);
        self.assoc[rec.user.index()] = Some(rec.to);
    }

    /// Ghost-replica drift auditor: rebuilds every tracked *boundary*
    /// AP's per-session member multiset from the shadow association and
    /// compares it against the incrementally maintained ghost state —
    /// counts, cached min-rate index, and cached load. Panics with a
    /// named report of the first diverging (AP, session, rate) entry;
    /// under supervision that quarantines the tile instead of poisoning
    /// the run.
    fn audit_ghosts(&self, part: &Partition) {
        let rates = self.inst.supported_rates();
        for a in self.inst.aps() {
            let Some(li) = self.lidx(a) else { continue };
            if !part.is_boundary_ap(a) {
                continue;
            }
            let mut rebuilt = vec![0u32; self.n_sessions * self.n_rates];
            for &u in self.inst.reachable_users(a) {
                if self.assoc[u.index()] == Some(a) {
                    let r = self.rate_idx(
                        self.inst
                            .multicast_rate_to(a, u)
                            .expect("member is in range"),
                    );
                    rebuilt[self.inst.user_session(u).index() * self.n_rates + r] += 1;
                }
            }
            let mut load = Load::ZERO;
            for s in self.inst.sessions() {
                let slot = self.slot(li, s);
                let base = s.index() * self.n_rates;
                for r in 0..self.n_rates {
                    let have = self.counts[slot * self.n_rates + r];
                    let want = rebuilt[base + r];
                    assert!(
                        have == want,
                        "ghost drift at ({a}, {s}, rate {rate}): \
                         ledger counts {have} members, rebuild counts {want}",
                        rate = rates[r],
                    );
                }
                let min = rebuilt[base..base + self.n_rates]
                    .iter()
                    .position(|&c| c > 0);
                let want_min = min.map_or(NO_RATE, |m| m as u32);
                assert!(
                    self.min_rate[slot] == want_min,
                    "ghost drift at ({a}, {s}): ledger min-rate index {have} != rebuilt {want_min}",
                    have = self.min_rate[slot],
                );
                if let Some(m) = min {
                    load += Load::per_transmission(self.inst.session_rate(s), rates[m]);
                }
            }
            assert!(
                self.loads[li] == load,
                "ghost drift at {a}: cached load {:?} != rebuilt {:?}",
                self.loads[li],
                load,
            );
        }
    }
}

impl ApStateView for TileLedger<'_> {
    fn instance(&self) -> &Instance {
        self.inst
    }
    fn reachable_aps_into(&self, u: UserId, out: &mut Vec<ApId>) {
        out.clear();
        out.extend(self.inst.candidate_aps(u).iter().map(|&(a, _)| a));
    }
    fn ap_of(&self, u: UserId) -> Option<ApId> {
        self.assoc[u.index()]
    }
    fn ap_load(&self, a: ApId) -> Load {
        let li = self.lidx(a).expect("decisions read only tracked APs");
        self.loads[li]
    }
    fn load_if_joined(&self, u: UserId, a: ApId) -> Option<Load> {
        let li = self.lidx(a)?;
        let s = self.inst.user_session(u);
        let u_rate = self.inst.multicast_rate_to(a, u)?;
        let stream = self.inst.session_rate(s);
        let slot = self.slot(li, s);
        let rates = self.inst.supported_rates();
        let cur = self.min_rate[slot];
        let u_idx = self.rate_idx(u_rate);
        let (old_part, new_min) = if cur == NO_RATE {
            (Load::ZERO, u_idx as u32)
        } else {
            (
                Load::per_transmission(stream, rates[cur as usize]),
                cur.min(u_idx as u32),
            )
        };
        let new_part = Load::per_transmission(stream, rates[new_min as usize]);
        Some(self.loads[li] - old_part + new_part)
    }
    fn load_if_left(&self, u: UserId) -> Option<Load> {
        let a = self.assoc[u.index()]?;
        let li = self.lidx(a).expect("an own user's AP is tracked");
        let s = self.inst.user_session(u);
        let stream = self.inst.session_rate(s);
        let u_rate = self
            .inst
            .multicast_rate_to(a, u)
            .expect("associated user in range");
        let slot = self.slot(li, s);
        let base = slot * self.n_rates;
        let rates = self.inst.supported_rates();
        let min_idx = self.min_rate[slot] as usize;
        let old_part = Load::per_transmission(stream, rates[min_idx]);
        let u_idx = self.rate_idx(u_rate);
        let new_tx = if self.counts[base + u_idx] > 1 {
            Some(rates[min_idx]) // another member shares u's rate
        } else if u_idx == min_idx {
            self.counts[base + u_idx + 1..base + self.n_rates]
                .iter()
                .position(|&c| c > 0)
                .map(|off| rates[u_idx + 1 + off])
        } else {
            Some(rates[min_idx]) // a slower member pins the rate
        };
        let new_part = new_tx.map_or(Load::ZERO, |tx| Load::per_transmission(stream, tx));
        Some(self.loads[li] - old_part + new_part)
    }
}

/// The rank chain sequencing boundary users in `Serial` mode: a worker
/// about to decide the boundary user of global rank `r` blocks until
/// every earlier boundary user (of any tile) has decided, and reads their
/// moves from the shared log.
struct BoundaryChain {
    state: Mutex<ChainState>,
    cv: Condvar,
}

struct ChainState {
    /// The global boundary rank allowed to decide next.
    next_rank: usize,
    /// Boundary moves of the current round, tagged with the mover's tile.
    log: Vec<(u32, MoveRec)>,
    /// Set when a worker failed (or the coordinator gave up on the
    /// round): waiters bail out instead of blocking forever, and the
    /// round is void.
    aborted: bool,
}

impl BoundaryChain {
    fn new() -> BoundaryChain {
        BoundaryChain {
            state: Mutex::new(ChainState {
                next_rank: 0,
                log: Vec::new(),
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Locks the chain, tolerating poison: a worker panicking under
    /// `catch_unwind` while holding the guard poisons the mutex, but the
    /// state itself stays consistent (panic sites never leave a
    /// half-pushed log) and the aborted round is discarded anyway.
    fn lock(&self) -> MutexGuard<'_, ChainState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Blocks until `next_rank == rank` — or the chain is aborted,
    /// which callers must check on the returned guard. Also the
    /// end-of-round barrier (`rank` = total boundary users).
    fn wait_for(&self, rank: usize) -> MutexGuard<'_, ChainState> {
        let mut st = self.lock();
        while st.next_rank != rank && !st.aborted {
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st
    }

    /// Voids the round: wakes every waiter and makes further waits
    /// return immediately.
    fn abort(&self) {
        let mut st = self.lock();
        st.aborted = true;
        drop(st);
        self.cv.notify_all();
    }

    fn reset(&self) {
        let mut st = self.lock();
        st.next_rank = 0;
        st.log.clear();
        st.aborted = false;
    }
}

/// Commands from the coordinator to a worker; replies carry the round's
/// own moves back. Channels queue, so workers need no explicit barrier
/// between an `Apply` and the next `Decide`.
enum Cmd {
    /// Simultaneous: decide all dirty own users against the frozen
    /// round-start ledger; reply with the moves, keep them pending.
    Decide { round: u32 },
    /// Simultaneous: apply the round's moves — own pending list plus the
    /// boundary-filtered lists of the other tiles — in ascending tile
    /// order; acknowledge so apply/audit failures surface before the
    /// tile's next decide.
    Apply {
        round: u32,
        boundary: Arc<Vec<Vec<MoveRec>>>,
    },
    /// Serial: run the round's wavefront (interior users free-running,
    /// boundary users sequenced on the chain); reply with the own moves.
    Serial { round: u32 },
    /// Supervision: re-send the last cached reply (the coordinator
    /// missed it — dropped, or delayed past the exchange deadline).
    Resend,
    /// Shut down.
    Stop,
}

/// A worker's answer to one command: its round, and either the round's
/// own moves (empty for `Apply` acks) or the typed failure.
#[derive(Clone)]
struct Reply {
    tile: usize,
    round: u32,
    result: Result<Vec<MoveRec>, WorkerFailure>,
}

/// Sends a reply, caching it for `Cmd::Resend` and applying the chaos
/// plan's scripted fate (drop / duplicate / delay) at the send site.
fn send_reply(
    reply: Reply,
    tx: &mpsc::Sender<Reply>,
    chaos: Option<&ChaosPlan>,
    cached: &mut Option<Reply>,
) {
    *cached = Some(reply.clone());
    let fate = chaos.map_or(ReplyFate::Deliver, |c| {
        c.reply_fate(reply.tile as u32, reply.round)
    });
    match fate {
        ReplyFate::Deliver => {
            let _ = tx.send(reply);
        }
        ReplyFate::Drop => {}
        ReplyFate::Duplicate => {
            let _ = tx.send(reply.clone());
            let _ = tx.send(reply);
        }
        ReplyFate::Delay(d) => {
            std::thread::sleep(d);
            let _ = tx.send(reply);
        }
    }
}

/// One worker's state: its tile ledger, own users in processing order,
/// and the dirty-user worklist (only own users' bits are meaningful).
struct Shard<'a> {
    tile: u32,
    part: &'a Partition,
    ledger: TileLedger<'a>,
    /// Own users as `(pos, user)` in processing order: global decision
    /// order in `Serial` mode, ascending id in `Simultaneous` mode.
    own: Vec<(u32, UserId)>,
    dirty: Vec<bool>,
    scratch: DecisionScratch,
    config: &'a DistributedConfig,
    /// Simultaneous: the round's own moves, held for the apply phase.
    pending: Vec<MoveRec>,
}

impl<'a> Shard<'a> {
    fn new(
        inst: &'a Instance,
        part: &'a Partition,
        tile: u32,
        initial: &Association,
        own: Vec<(u32, UserId)>,
        config: &'a DistributedConfig,
    ) -> Shard<'a> {
        let ledger = TileLedger::new(inst, initial, &own);
        Shard {
            tile,
            part,
            ledger,
            own,
            dirty: vec![true; inst.n_users()],
            scratch: DecisionScratch::default(),
            config,
            pending: Vec::new(),
        }
    }

    fn decide(&mut self, u: UserId) -> Option<ApId> {
        local_decision_scratch(
            &self.ledger,
            u,
            self.config.policy,
            self.config.respect_budget,
            self.config.hysteresis,
            &mut self.scratch,
        )
    }

    /// Marks every own user whose view the move could have changed (the
    /// same rule as the single-threaded worklist; bits of other tiles'
    /// users are never read, so marking them too is harmless).
    fn mark_dirty(&mut self, rec: &MoveRec) {
        for &v in self.ledger.inst.reachable_users(rec.to) {
            self.dirty[v.index()] = true;
        }
        if let Some(f) = rec.from {
            for &v in self.ledger.inst.reachable_users(f) {
                self.dirty[v.index()] = true;
            }
        }
    }

    /// Simultaneous decide phase: all decisions read the frozen
    /// round-start ledger.
    fn decide_round(&mut self, round: u32) -> Vec<MoveRec> {
        self.pending.clear();
        let own = std::mem::take(&mut self.own);
        for &(pos, u) in &own {
            if !std::mem::replace(&mut self.dirty[u.index()], false) {
                continue;
            }
            if let Some(a) = self.decide(u) {
                self.pending.push(MoveRec {
                    round,
                    pos,
                    user: u,
                    from: self.ledger.ap_of(u),
                    to: a,
                });
            }
        }
        self.own = own;
        self.pending.clone()
    }

    /// Simultaneous apply phase: merge the round's moves in ascending
    /// tile order — own moves from the full pending list, other tiles'
    /// from their boundary-filtered lists.
    fn apply_round(&mut self, boundary: &[Vec<MoveRec>]) {
        for (t, list) in boundary.iter().enumerate() {
            if t == self.tile as usize {
                let pending = std::mem::take(&mut self.pending);
                for rec in &pending {
                    self.ledger.apply_own(rec);
                    self.mark_dirty(rec);
                }
            } else {
                for rec in list {
                    self.ledger.apply_remote(rec);
                    self.mark_dirty(rec);
                }
            }
        }
    }

    /// Serial wavefront: own users in global decision order; interior
    /// users run lock-free, boundary users synchronize on the chain.
    fn serial_round(
        &mut self,
        round: u32,
        chain: &BoundaryChain,
        n_boundary: usize,
        rank_of: &[u32],
    ) -> Vec<MoveRec> {
        let mut moves = Vec::new();
        let mut cursor = 0usize;
        let mut voided = false;
        let own = std::mem::take(&mut self.own);
        for &(pos, u) in &own {
            if self.part.is_boundary_user(u) {
                let mut st = chain.wait_for(rank_of[u.index()] as usize);
                if st.aborted {
                    // A peer failed: the round is void (the coordinator
                    // discards it and degrades to the W = 1 engine).
                    voided = true;
                    break;
                }
                self.drain_log(&st.log, &mut cursor);
                if std::mem::replace(&mut self.dirty[u.index()], false) {
                    if let Some(a) = self.decide(u) {
                        let rec = MoveRec {
                            round,
                            pos,
                            user: u,
                            from: self.ledger.ap_of(u),
                            to: a,
                        };
                        self.ledger.apply_own(&rec);
                        self.mark_dirty(&rec);
                        st.log.push((self.tile, rec));
                        moves.push(rec);
                    }
                }
                st.next_rank += 1;
                drop(st);
                chain.cv.notify_all();
            } else if std::mem::replace(&mut self.dirty[u.index()], false) {
                if let Some(a) = self.decide(u) {
                    let rec = MoveRec {
                        round,
                        pos,
                        user: u,
                        from: self.ledger.ap_of(u),
                        to: a,
                    };
                    self.ledger.apply_own(&rec);
                    self.mark_dirty(&rec);
                    moves.push(rec);
                }
            }
        }
        self.own = own;
        if voided {
            return moves;
        }
        // End-of-round barrier: wait for every boundary user of every
        // tile, then absorb the remaining boundary moves.
        let st = chain.wait_for(n_boundary);
        if !st.aborted {
            self.drain_log(&st.log, &mut cursor);
        }
        moves
    }

    /// Applies the not-yet-seen suffix of the boundary log (skipping own
    /// moves, which were applied when they were made).
    fn drain_log(&mut self, log: &[(u32, MoveRec)], cursor: &mut usize) {
        while *cursor < log.len() {
            let (t, rec) = log[*cursor];
            *cursor += 1;
            if t != self.tile {
                self.ledger.apply_remote(&rec);
                self.mark_dirty(&rec);
            }
        }
    }
}

/// Outcome of a supervised partitioned run: the distributed outcome
/// (identical to the fault-free run), the decision trace, and what
/// recovery had to happen along the way.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// The distributed outcome — byte-identical to `run_distributed`
    /// regardless of injected or real faults.
    pub outcome: DistributedOutcome,
    /// The decision trace sorted by `(round, pos)`; empty unless
    /// [`SuperviseOptions::trace`] (or the resumed checkpoint's
    /// `traced`) was set.
    pub trace: Vec<MoveRec>,
    /// Failures observed, retries, quarantines, degradation, and
    /// checkpoints written.
    pub recovery: RecoveryReport,
}

/// Where a partitioned run starts.
#[derive(Debug, Clone)]
pub enum Start<'a> {
    /// Round 1 from an association. A user associated with an AP out of
    /// its range is reported as
    /// [`PartitionError::InvalidInitialAssociation`] (the single-threaded
    /// engine panics on the same input).
    Fresh(Association),
    /// The round after a checkpoint, carrying its move count, cycle
    /// history and trace prefix. Shards are rebuilt from the checkpointed
    /// association with an all-dirty worklist (outcome- and
    /// trace-neutral), so the finished run's outcome and trace are
    /// byte-identical to the uninterrupted run's. The trace is continued
    /// iff the checkpointed run collected one (`cp.traced`), whatever
    /// [`SuperviseOptions::trace`] says.
    Resume(&'a PartitionCheckpoint),
}

/// Collects one reply per still-`need`ed tile for `round`, enforcing the
/// exchange deadline: a timeout triggers up to `max_retries` resend
/// sweeps (the workers cache their last reply) before the missing tiles
/// are written off with [`FailureKind::ExchangeTimeout`]. Stale rounds
/// and duplicate deliveries are discarded by the `(round, tile)` filter.
#[allow(clippy::too_many_arguments)]
fn collect_replies(
    reply_rx: &mpsc::Receiver<Reply>,
    cmd_txs: &[mpsc::Sender<Cmd>],
    round: u32,
    need: &mut [bool],
    deadline: Option<Duration>,
    max_retries: u32,
    recovery: &mut RecoveryReport,
    mut on_ok: impl FnMut(usize, Vec<MoveRec>),
) -> Vec<WorkerFailure> {
    let mut failures = Vec::new();
    let mut retries_left = max_retries;
    while need.iter().any(|&n| n) {
        let reply = match deadline {
            None => match reply_rx.recv() {
                Ok(r) => r,
                Err(_) => {
                    timeout_missing(need, round, &mut failures);
                    break;
                }
            },
            Some(d) => match reply_rx.recv_timeout(d) {
                Ok(r) => r,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if retries_left > 0 {
                        retries_left -= 1;
                        recovery.retries += 1;
                        for (t, &n) in need.iter().enumerate() {
                            if n {
                                let _ = cmd_txs[t].send(Cmd::Resend);
                            }
                        }
                        continue;
                    }
                    timeout_missing(need, round, &mut failures);
                    break;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    timeout_missing(need, round, &mut failures);
                    break;
                }
            },
        };
        if reply.round != round || !need[reply.tile] {
            continue; // stale round, duplicate, or already-settled tile
        }
        need[reply.tile] = false;
        match reply.result {
            Ok(moves) => on_ok(reply.tile, moves),
            Err(f) => failures.push(f),
        }
    }
    failures
}

fn timeout_missing(need: &mut [bool], round: u32, failures: &mut Vec<WorkerFailure>) {
    for (t, n) in need.iter_mut().enumerate() {
        if *n {
            *n = false;
            failures.push(WorkerFailure {
                tile: t,
                round,
                kind: FailureKind::ExchangeTimeout,
            });
        }
    }
}

fn stop_workers(cmd_txs: &[mpsc::Sender<Cmd>]) {
    for tx in cmd_txs {
        let _ = tx.send(Cmd::Stop);
    }
}

/// The tile ledgers silently skip untracked APs, so the structural
/// validation the single-threaded ledger performs on construction is
/// reproduced for every start association explicitly — as a typed error.
pub(crate) fn check_in_range(
    inst: &Instance,
    assoc: impl Iterator<Item = Option<ApId>>,
) -> Result<(), PartitionError> {
    for (i, ap) in assoc.enumerate() {
        if let Some(a) = ap {
            if inst.multicast_rate_to(a, UserId(i as u32)).is_none() {
                return Err(PartitionError::InvalidInitialAssociation {
                    user: UserId(i as u32),
                    ap: a,
                });
            }
        }
    }
    Ok(())
}

/// Runs a distributed algorithm on `part.n_tiles()` supervised worker
/// threads, bit-for-bit equivalent to
/// [`run_distributed`](crate::distributed::run_distributed) — identical
/// association, rounds, moves, convergence and cycle flags, and decision
/// sequence (the trace, sorted by `(round, pos)`, matches
/// [`run_distributed_traced`](crate::distributed::run_distributed_traced))
/// — for every partition and thread schedule (see the
/// [module docs](self) for the argument).
///
/// Workers run under `catch_unwind`, the halo exchange honors
/// [`SuperviseOptions::deadline`] with bounded resend retries, and
/// failures — injected by a [`ChaosPlan`] or real, such as ghost-replica
/// drift caught by the auditor — escalate along the recovery ladder
/// (retry → quarantine tile → degrade to W = 1). Checkpoints are written
/// every [`SuperviseOptions::checkpoint_every`] rounds. The outcome and
/// trace are byte-identical to the fault-free run under *any* plan;
/// [`SupervisedOutcome::recovery`] says what recovery was needed.
///
/// # Errors
///
/// [`PartitionError::InvalidInitialAssociation`] for an out-of-range
/// start, and the checkpoint's validation error for a bad
/// [`Start::Resume`].
///
/// # Panics
///
/// Panics if `part` does not fit `inst` or the association has the wrong
/// size.
pub fn run_partitioned(
    inst: &Instance,
    config: &DistributedConfig,
    part: &Partition,
    start: Start<'_>,
    opts: &SuperviseOptions<'_>,
) -> Result<SupervisedOutcome, PartitionError> {
    assert_eq!(part.ap_tile.len(), inst.n_aps(), "partition AP count");
    assert_eq!(part.user_tile.len(), inst.n_users(), "partition user count");
    let (initial, start_round, start_moves, seen_list, mut trace, collect_trace) = match start {
        Start::Fresh(initial) => {
            assert_eq!(initial.len(), inst.n_users(), "association size");
            check_in_range(inst, initial.iter())?;
            let seen_list = vec![initial.to_vec()];
            (initial, 1, 0, seen_list, Vec::new(), opts.trace)
        }
        Start::Resume(cp) => {
            cp.validate(inst)?;
            (
                cp.association(),
                cp.round as usize + 1,
                cp.moves as usize,
                cp.seen.clone(),
                cp.trace.clone(),
                cp.traced,
            )
        }
    };

    let w = part.n_tiles;
    let order = config.order.order(inst.n_users());

    // Per-user position in the round's decision sequence, and the global
    // rank chain over boundary users (Serial mode).
    let mut pos_of = vec![0u32; inst.n_users()];
    for (pos, &u) in order.iter().enumerate() {
        pos_of[u.index()] = pos as u32;
    }
    let mut boundary_ranked: Vec<UserId> = inst
        .users()
        .filter(|&u| part.boundary_user[u.index()])
        .collect();
    boundary_ranked.sort_unstable_by_key(|u| pos_of[u.index()]);
    let mut rank_of = vec![u32::MAX; inst.n_users()];
    for (k, &u) in boundary_ranked.iter().enumerate() {
        rank_of[u.index()] = k as u32;
    }
    let n_boundary = boundary_ranked.len();

    // Own users per tile, in the mode's processing order. A copy stays
    // with the coordinator: quarantined tiles are rebuilt from it.
    let mut own_lists: Vec<Vec<(u32, UserId)>> = vec![Vec::new(); w];
    match config.mode {
        ExecutionMode::Serial => {
            for (pos, &u) in order.iter().enumerate() {
                own_lists[part.user_tile[u.index()] as usize].push((pos as u32, u));
            }
        }
        ExecutionMode::Simultaneous => {
            for u in inst.users() {
                own_lists[part.user_tile[u.index()] as usize].push((u.0, u));
            }
        }
    }
    let own_backup = own_lists.clone();

    // A chaos plan's dropped replies are only recoverable through the
    // deadline path, so chaos implies a (short) default deadline.
    let deadline = opts
        .deadline
        .or_else(|| opts.chaos.map(|_| Duration::from_millis(250)));
    let audit = opts.audit;
    let chaos = opts.chaos;

    let chain = BoundaryChain::new();
    let (reply_tx, reply_rx) = mpsc::channel::<Reply>();
    let mut cmd_txs: Vec<mpsc::Sender<Cmd>> = Vec::with_capacity(w);
    let mut cmd_rxs: Vec<mpsc::Receiver<Cmd>> = Vec::with_capacity(w);
    for _ in 0..w {
        let (tx, rx) = mpsc::channel::<Cmd>();
        cmd_txs.push(tx);
        cmd_rxs.push(rx);
    }

    let mut global: Vec<Option<ApId>> = initial.to_vec();
    let mut seen: HashSet<Vec<Option<ApId>>> = seen_list.iter().cloned().collect();
    // The insertion-ordered history is only needed for checkpoints.
    let mut seen_list = if opts.sink.is_some() {
        seen_list
    } else {
        Vec::new()
    };
    let initial_ref = &initial;
    let chain_ref = &chain;
    let rank_of_ref = &rank_of;

    let (outcome, recovery) = std::thread::scope(|scope| {
        for (tile, (rx, own)) in cmd_rxs.into_iter().zip(own_lists).enumerate() {
            let reply_tx = reply_tx.clone();
            scope.spawn(move || {
                let mut shard = Shard::new(inst, part, tile as u32, initial_ref, own, config);
                // Once a worker fails it stays failed: its ledger may be
                // inconsistent, so every later command is refused with
                // the original failure.
                let mut dead: Option<WorkerFailure> = None;
                let mut cached: Option<Reply> = None;
                while let Ok(cmd) = rx.recv() {
                    match cmd {
                        Cmd::Decide { round } => {
                            let result = match &dead {
                                Some(f) => Err(f.clone()),
                                None => catch_unwind(AssertUnwindSafe(|| {
                                    if let Some(c) = chaos {
                                        if c.panic_due(tile as u32, round) {
                                            panic!("chaos: injected worker panic");
                                        }
                                    }
                                    shard.decide_round(round)
                                }))
                                .map_err(|p| {
                                    let f = WorkerFailure::from_panic(tile, round, p.as_ref());
                                    dead = Some(f.clone());
                                    f
                                }),
                            };
                            send_reply(
                                Reply {
                                    tile,
                                    round,
                                    result,
                                },
                                &reply_tx,
                                chaos,
                                &mut cached,
                            );
                        }
                        Cmd::Apply { round, boundary } => {
                            let result = match &dead {
                                Some(f) => Err(f.clone()),
                                None => catch_unwind(AssertUnwindSafe(|| {
                                    shard.apply_round(&boundary);
                                    if audit {
                                        shard.ledger.audit_ghosts(part);
                                    }
                                    Vec::new()
                                }))
                                .map_err(|p| {
                                    let f = WorkerFailure::from_panic(tile, round, p.as_ref());
                                    dead = Some(f.clone());
                                    f
                                }),
                            };
                            send_reply(
                                Reply {
                                    tile,
                                    round,
                                    result,
                                },
                                &reply_tx,
                                chaos,
                                &mut cached,
                            );
                        }
                        Cmd::Serial { round } => {
                            let result = match &dead {
                                Some(f) => Err(f.clone()),
                                None => catch_unwind(AssertUnwindSafe(|| {
                                    if let Some(c) = chaos {
                                        if c.panic_due(tile as u32, round) {
                                            panic!("chaos: injected worker panic");
                                        }
                                    }
                                    let moves = shard.serial_round(
                                        round,
                                        chain_ref,
                                        n_boundary,
                                        rank_of_ref,
                                    );
                                    if audit {
                                        shard.ledger.audit_ghosts(part);
                                    }
                                    moves
                                }))
                                .map_err(|p| {
                                    // Release peers blocked on the chain.
                                    chain_ref.abort();
                                    let f = WorkerFailure::from_panic(tile, round, p.as_ref());
                                    dead = Some(f.clone());
                                    f
                                }),
                            };
                            send_reply(
                                Reply {
                                    tile,
                                    round,
                                    result,
                                },
                                &reply_tx,
                                chaos,
                                &mut cached,
                            );
                        }
                        Cmd::Resend => {
                            if let Some(r) = &cached {
                                let _ = reply_tx.send(r.clone());
                            }
                        }
                        Cmd::Stop => break,
                    }
                }
            });
        }

        let mut moves_total = start_moves;
        let mut recovery = RecoveryReport::default();
        // alive[t]: the worker still gets commands. A quarantined tile's
        // shard is recomputed inline by the coordinator instead.
        let mut alive = vec![true; w];
        let mut inline: Vec<Option<Shard>> = (0..w).map(|_| None).collect();
        let mut result: Option<DistributedOutcome> = None;
        let mut degraded: Option<usize> = None;

        'rounds: for round in start_round..=config.max_rounds {
            let r32 = round as u32;
            let mut per_tile: Vec<Vec<MoveRec>> = vec![Vec::new(); w];
            let mut changed = false;
            match config.mode {
                ExecutionMode::Simultaneous => {
                    for (t, tx) in cmd_txs.iter().enumerate() {
                        if alive[t] {
                            let _ = tx.send(Cmd::Decide { round: r32 });
                        }
                    }
                    for (t, shard) in inline.iter_mut().enumerate() {
                        if let Some(shard) = shard {
                            per_tile[t] = shard.decide_round(r32);
                        }
                    }
                    let mut need = alive.clone();
                    let failures = collect_replies(
                        &reply_rx,
                        &cmd_txs,
                        r32,
                        &mut need,
                        deadline,
                        opts.max_retries,
                        &mut recovery,
                        |t, m| per_tile[t] = m,
                    );
                    for f in failures {
                        let t = f.tile;
                        recovery.failures.push(f);
                        recovery.quarantined.push(t);
                        alive[t] = false;
                        // Quarantine: rebuild the tile from the
                        // round-start global state (the TileLedger is a
                        // pure function of it) and recompute its round
                        // inline; all-dirty is decision-neutral.
                        let snap = Association::from_vec(global.clone());
                        let mut shard =
                            Shard::new(inst, part, t as u32, &snap, own_backup[t].clone(), config);
                        per_tile[t] = shard.decide_round(r32);
                        inline[t] = Some(shard);
                    }
                    // Merge in fixed tile-index order (order-free for the
                    // global association — each user moves at most once
                    // per round — but fixed anyway so every observable is
                    // schedule-independent).
                    for list in &per_tile {
                        for rec in list {
                            global[rec.user.index()] = Some(rec.to);
                            moves_total += 1;
                            changed = true;
                        }
                        if collect_trace {
                            trace.extend_from_slice(list);
                        }
                    }
                    // Halo exchange: ship each tile's boundary-AP moves;
                    // interior moves are invisible outside their tile and
                    // each worker already holds its own full list.
                    let shipped: Arc<Vec<Vec<MoveRec>>> = Arc::new(
                        per_tile
                            .iter()
                            .map(|list| {
                                list.iter()
                                    .copied()
                                    .filter(|r| {
                                        part.boundary_ap[r.to.index()]
                                            || r.from.is_some_and(|f| part.boundary_ap[f.index()])
                                    })
                                    .collect()
                            })
                            .collect(),
                    );
                    for (t, tx) in cmd_txs.iter().enumerate() {
                        if alive[t] {
                            let _ = tx.send(Cmd::Apply {
                                round: r32,
                                boundary: Arc::clone(&shipped),
                            });
                        }
                    }
                    for shard in inline.iter_mut().flatten() {
                        shard.apply_round(&shipped);
                        if audit {
                            shard.ledger.audit_ghosts(part);
                        }
                    }
                    // Collect the apply acks: an apply or audit failure
                    // must surface before the tile's next decide, or its
                    // corrupt ledger would poison later rounds.
                    let mut need = alive.clone();
                    let failures = collect_replies(
                        &reply_rx,
                        &cmd_txs,
                        r32,
                        &mut need,
                        deadline,
                        opts.max_retries,
                        &mut recovery,
                        |_t, _m| {},
                    );
                    for f in failures {
                        let t = f.tile;
                        recovery.failures.push(f);
                        recovery.quarantined.push(t);
                        alive[t] = false;
                        // The merge already advanced `global` past this
                        // round, so the replacement shard starts at the
                        // post-round state, ready for the next decide.
                        let snap = Association::from_vec(global.clone());
                        let shard =
                            Shard::new(inst, part, t as u32, &snap, own_backup[t].clone(), config);
                        inline[t] = Some(shard);
                    }
                }
                ExecutionMode::Serial => {
                    chain.reset();
                    for tx in &cmd_txs {
                        let _ = tx.send(Cmd::Serial { round: r32 });
                    }
                    let mut need = vec![true; w];
                    let failures = collect_replies(
                        &reply_rx,
                        &cmd_txs,
                        r32,
                        &mut need,
                        deadline,
                        opts.max_retries,
                        &mut recovery,
                        |t, m| per_tile[t] = m,
                    );
                    if !failures.is_empty() {
                        recovery.failures.extend(failures);
                        // A serial round is a single global decision
                        // sequence — it cannot be patched per-tile. Void
                        // it (workers applied at most a prefix to their
                        // private ledgers, which are discarded) and
                        // degrade: recompute from the round-start state
                        // on the W = 1 engine.
                        chain.abort();
                        degraded = Some(round);
                        break 'rounds;
                    }
                    for list in &per_tile {
                        for rec in list {
                            global[rec.user.index()] = Some(rec.to);
                            moves_total += 1;
                            changed = true;
                        }
                        if collect_trace {
                            trace.extend_from_slice(list);
                        }
                    }
                }
            }

            if !changed {
                result = Some(DistributedOutcome {
                    association: Association::from_vec(global.clone()),
                    rounds: round,
                    moves: moves_total,
                    converged: true,
                    cycle_detected: false,
                });
                break;
            }
            if !seen.insert(global.clone()) {
                result = Some(DistributedOutcome {
                    association: Association::from_vec(global.clone()),
                    rounds: round,
                    moves: moves_total,
                    converged: false,
                    cycle_detected: true,
                });
                break;
            }
            if opts.sink.is_some() {
                seen_list.push(global.clone());
            }
            // Checkpoint after every K completed (non-final) rounds.
            if let (Some(k), Some(sink)) = (opts.checkpoint_every, opts.sink) {
                if k > 0 && round % k == 0 {
                    let cp = PartitionCheckpoint {
                        schema: CHECKPOINT_SCHEMA.to_string(),
                        round: r32,
                        moves: moves_total as u64,
                        assoc: global.clone(),
                        seen: seen_list.clone(),
                        trace: if collect_trace {
                            trace.clone()
                        } else {
                            Vec::new()
                        },
                        traced: collect_trace,
                    };
                    let torn = chaos.is_some_and(|c| c.checkpoint_torn(r32));
                    let res = if torn {
                        sink.save_torn(&cp)
                    } else {
                        sink.save(&cp)
                    };
                    match res {
                        Ok(()) if !torn => recovery.checkpoints_written += 1,
                        Ok(()) => {}
                        Err(_) => recovery.checkpoint_errors += 1,
                    }
                }
            }
        }

        if let Some(round) = degraded {
            recovery.degraded_at_round = Some(round);
            // Degrade to W = 1: re-run the failed round and everything
            // after it single-threaded from the round-start state,
            // carrying moves, cycle history, and trace. Checkpointing
            // stops here — the degraded tail is already the oracle.
            let carried = if collect_trace {
                Some(std::mem::take(&mut trace))
            } else {
                None
            };
            let (out, t) = continue_distributed(
                inst,
                config,
                Association::from_vec(global.clone()),
                round,
                moves_total,
                std::mem::take(&mut seen),
                carried,
            );
            if let Some(t) = t {
                trace = t;
            }
            result = Some(out);
        }

        stop_workers(&cmd_txs);
        let outcome = result.unwrap_or_else(|| DistributedOutcome {
            association: Association::from_vec(global.clone()),
            rounds: config.max_rounds,
            moves: moves_total,
            converged: false,
            cycle_detected: false,
        });
        (outcome, recovery)
    });

    trace.sort_unstable_by_key(|r| (r.round, r.pos));
    Ok(SupervisedOutcome {
        outcome,
        trace,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::{run_distributed, run_distributed_traced, DecisionOrder, Policy};
    use crate::examples_paper::{figure1_instance, figure4_instance, figure4_start};
    use crate::instance::InstanceBuilder;
    use crate::supervise::ChaosOp;

    fn fresh(inst: &Instance) -> Start<'static> {
        Start::Fresh(Association::empty(inst.n_users()))
    }

    fn outcomes_match(a: &DistributedOutcome, b: &DistributedOutcome) {
        assert_eq!(a.association, b.association);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.moves, b.moves);
        assert_eq!(a.converged, b.converged);
        assert_eq!(a.cycle_detected, b.cycle_detected);
    }

    /// A 3×3 AP grid split into 2×2 quadrant tiles, with one user per
    /// interesting spot. Links model unit-disk reachability of the
    /// conceptual layout:
    ///
    /// ```text
    ///   a0 a1 a2      tiles:  0 0 1
    ///   a3 a4 a5              0 0 1
    ///   a6 a7 a8              2 2 3
    /// ```
    fn quadrant_fixture() -> (Instance, Partition) {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let s = b.add_session(Kbps::from_mbps(1));
        let aps: Vec<ApId> = (0..9).map(|_| b.add_ap(Load::ONE)).collect();
        // One user "at" each AP, reaching the APs adjacent to it
        // (4-neighborhood) — u_i sits at a_i.
        let adj: [&[usize]; 9] = [
            &[0, 1, 3],
            &[1, 0, 2, 4],
            &[2, 1, 5],
            &[3, 0, 4, 6],
            &[4, 1, 3, 5, 7],
            &[5, 2, 4, 8],
            &[6, 3, 7],
            &[7, 4, 6, 8],
            &[8, 5, 7],
        ];
        for reach in adj {
            let u = b.add_user(s);
            for &ai in reach {
                b.link(aps[ai], u, Kbps::from_mbps(6)).unwrap();
            }
        }
        let inst = b.build().unwrap();
        let ap_tile = vec![0, 0, 1, 0, 0, 1, 2, 2, 3];
        let user_tile = ap_tile.clone();
        let part = Partition::new(&inst, 4, ap_tile, user_tile).unwrap();
        (inst, part)
    }

    /// Boundary classification at tile edges and corners: the corner AP
    /// of a quadrant that only inner users reach is interior; every AP on
    /// a tile edge reached from across it is boundary.
    #[test]
    fn quadrant_boundary_classification() {
        let (_inst, part) = quadrant_fixture();
        // a0 is the outer corner of tile 0: reached by u0, u1, u3 — all
        // tile 0 — so interior.
        assert!(!part.is_boundary_ap(ApId(0)));
        // a1 sits on the edge between tiles 0 and 1: u2 (tile 1) reaches
        // it — boundary. Symmetrically a3 (edge to tile 2).
        assert!(part.is_boundary_ap(ApId(1)));
        assert!(part.is_boundary_ap(ApId(3)));
        // a4 is the inner corner where all four tiles meet: u5 (tile 1)
        // and u7 (tile 2) reach it — boundary.
        assert!(part.is_boundary_ap(ApId(4)));
        // a2, the outer corner of tile 1, is reached by u1 (tile 0)
        // across the edge — boundary.
        assert!(part.is_boundary_ap(ApId(2)));
        // a8, the outer corner of tile 3, is reached only by u5 (tile 1)
        // and u7 (tile 2)? No: u5 reaches a8 and is tile 1 — boundary.
        assert!(part.is_boundary_ap(ApId(8)));
        // Users: u0 only reaches interior a0 and boundary a1/a3 — it has
        // boundary candidates, so it is a boundary user.
        assert!(part.is_boundary_user(UserId(0)));
        assert_eq!(part.n_tiles(), 4);
        assert_eq!(part.ap_tile(ApId(4)), 0);
        assert_eq!(part.user_tile(UserId(8)), 3);
    }

    /// An interior AP's users may still be interior: a two-tile line
    /// where each tile has a private AP + user.
    #[test]
    fn disjoint_tiles_have_no_boundary() {
        let mut b = InstanceBuilder::new();
        b.supported_rates([Kbps::from_mbps(6)]);
        let s = b.add_session(Kbps::from_mbps(1));
        let a0 = b.add_ap(Load::ONE);
        let a1 = b.add_ap(Load::ONE);
        let u0 = b.add_user(s);
        let u1 = b.add_user(s);
        b.link(a0, u0, Kbps::from_mbps(6)).unwrap();
        b.link(a1, u1, Kbps::from_mbps(6)).unwrap();
        let inst = b.build().unwrap();
        let part = Partition::new(&inst, 2, vec![0, 1], vec![0, 1]).unwrap();
        assert_eq!(part.boundary_ap_count(), 0);
        assert_eq!(part.boundary_user_count(), 0);
    }

    #[test]
    fn partition_validation_errors() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        assert_eq!(
            Partition::new(&inst, 0, vec![0, 0], vec![0; 5]).unwrap_err(),
            PartitionError::NoTiles
        );
        assert_eq!(
            Partition::new(&inst, 2, vec![0], vec![0; 5]).unwrap_err(),
            PartitionError::WrongSize
        );
        assert_eq!(
            Partition::new(&inst, 2, vec![0, 2], vec![0; 5]).unwrap_err(),
            PartitionError::TileOutOfRange
        );
        assert!(PartitionError::NoTiles.to_string().contains("tile"));
    }

    /// The quadrant fixture, every mode × policy × worker count: the
    /// partitioned engine reproduces the single-threaded outcome and
    /// decision trace exactly.
    #[test]
    fn quadrant_equivalence_all_modes() {
        let (inst, part) = quadrant_fixture();
        for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
            for policy in [Policy::MinTotalLoad, Policy::MinMaxVector] {
                let config = DistributedConfig {
                    policy,
                    mode,
                    max_rounds: 30,
                    order: DecisionOrder::Shuffled(7),
                    ..DistributedConfig::default()
                };
                let (single, strace) =
                    run_distributed_traced(&inst, &config, Association::empty(inst.n_users()));
                let opts = SuperviseOptions {
                    trace: true,
                    ..SuperviseOptions::default()
                };
                let par = run_partitioned(&inst, &config, &part, fresh(&inst), &opts).unwrap();
                outcomes_match(&par.outcome, &single);
                assert_eq!(par.trace, strace);
                assert!(par.recovery.clean());
            }
        }
    }

    /// Figure 4's simultaneous oscillation is detected identically by the
    /// partitioned engine (same round, same cycle flag).
    #[test]
    fn figure4_partitioned_detects_oscillation() {
        let inst = figure4_instance();
        for w in [1, 2] {
            let part = Partition::contiguous(&inst, w).unwrap();
            let config = DistributedConfig {
                mode: ExecutionMode::Simultaneous,
                ..DistributedConfig::default()
            };
            let single = run_distributed(&inst, &config, figure4_start());
            let par = run_partitioned(
                &inst,
                &config,
                &part,
                Start::Fresh(figure4_start()),
                &SuperviseOptions::default(),
            )
            .unwrap()
            .outcome;
            assert!(par.cycle_detected);
            outcomes_match(&par, &single);
        }
    }

    /// `max_rounds = 0` returns the validated initial state, like the
    /// single-threaded engine.
    #[test]
    fn zero_rounds_is_identity() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let config = DistributedConfig {
            max_rounds: 0,
            ..DistributedConfig::default()
        };
        let part = Partition::contiguous(&inst, 2).unwrap();
        let out = run_partitioned(
            &inst,
            &config,
            &part,
            fresh(&inst),
            &SuperviseOptions::default(),
        )
        .unwrap()
        .outcome;
        assert_eq!(out.rounds, 0);
        assert_eq!(out.moves, 0);
        assert!(!out.converged);
    }

    /// Out-of-range initial associations are reported as a typed error
    /// (the single-threaded engine panics on the same input).
    #[test]
    fn invalid_initial_is_typed_error() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let part = Partition::single(&inst);
        // u0 can only reach ApId(0) — associating it with ApId(1) is
        // invalid.
        let bad = Association::from_vec(vec![Some(ApId(1)), None, None, None, None]);
        let err = run_partitioned(
            &inst,
            &DistributedConfig::default(),
            &part,
            Start::Fresh(bad),
            &SuperviseOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            PartitionError::InvalidInitialAssociation {
                user: UserId(0),
                ap: ApId(1),
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    /// More tiles than users/APs still works (some shards are empty).
    #[test]
    fn more_tiles_than_aps() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let part = Partition::contiguous(&inst, 8).unwrap();
        let config = DistributedConfig::default();
        let single = run_distributed(&inst, &config, Association::empty(inst.n_users()));
        let par = run_partitioned(
            &inst,
            &config,
            &part,
            fresh(&inst),
            &SuperviseOptions::default(),
        )
        .unwrap();
        outcomes_match(&par.outcome, &single);
    }

    /// An injected worker panic is quarantined (Simultaneous) or degrades
    /// to the W = 1 engine (Serial) — either way the outcome and trace
    /// are byte-identical to the fault-free reference.
    #[test]
    fn injected_panic_is_quarantined_with_identical_outcome() {
        let (inst, part) = quadrant_fixture();
        for mode in [ExecutionMode::Simultaneous, ExecutionMode::Serial] {
            let config = DistributedConfig {
                mode,
                max_rounds: 30,
                order: DecisionOrder::Shuffled(7),
                ..DistributedConfig::default()
            };
            let (single, strace) =
                run_distributed_traced(&inst, &config, Association::empty(inst.n_users()));
            let chaos = ChaosPlan::new(vec![ChaosOp::WorkerPanic { tile: 1, round: 1 }]);
            let opts = SuperviseOptions {
                deadline: Some(Duration::from_millis(200)),
                trace: true,
                chaos: Some(&chaos),
                ..SuperviseOptions::default()
            };
            let sup = run_partitioned(&inst, &config, &part, fresh(&inst), &opts).unwrap();
            outcomes_match(&sup.outcome, &single);
            assert_eq!(sup.trace, strace);
            assert!(!sup.recovery.clean());
            match mode {
                ExecutionMode::Simultaneous => {
                    assert!(sup.recovery.quarantined.contains(&1));
                    assert_eq!(sup.recovery.degraded_at_round, None);
                }
                ExecutionMode::Serial => {
                    assert_eq!(sup.recovery.degraded_at_round, Some(1));
                }
            }
        }
    }

    /// A dropped halo reply is recovered by the deadline + resend path
    /// (the worker caches its last reply), with an identical outcome.
    #[test]
    fn dropped_reply_is_recovered_by_resend() {
        let (inst, part) = quadrant_fixture();
        let config = DistributedConfig {
            mode: ExecutionMode::Simultaneous,
            max_rounds: 30,
            order: DecisionOrder::Shuffled(7),
            ..DistributedConfig::default()
        };
        let (single, strace) =
            run_distributed_traced(&inst, &config, Association::empty(inst.n_users()));
        let chaos = ChaosPlan::new(vec![ChaosOp::DropReply { tile: 2, round: 1 }]);
        let opts = SuperviseOptions {
            deadline: Some(Duration::from_millis(50)),
            trace: true,
            chaos: Some(&chaos),
            ..SuperviseOptions::default()
        };
        let sup = run_partitioned(&inst, &config, &part, fresh(&inst), &opts).unwrap();
        outcomes_match(&sup.outcome, &single);
        assert_eq!(sup.trace, strace);
        assert!(
            sup.recovery.retries >= 1 || !sup.recovery.failures.is_empty(),
            "the drop must have been noticed: {:?}",
            sup.recovery
        );
    }

    /// An in-memory sink recording every checkpoint.
    struct MemSink(std::sync::Mutex<Vec<PartitionCheckpoint>>);

    impl MemSink {
        fn new() -> Self {
            MemSink(std::sync::Mutex::new(Vec::new()))
        }
    }

    impl crate::checkpoint::CheckpointSink for MemSink {
        fn save(&self, cp: &PartitionCheckpoint) -> Result<(), crate::checkpoint::CheckpointError> {
            self.0.lock().unwrap().push(cp.clone());
            Ok(())
        }
    }

    /// Resuming from *any* checkpoint of a run reproduces the
    /// uninterrupted outcome and trace byte-for-byte.
    #[test]
    fn checkpoint_restore_is_byte_identical() {
        let (inst, part) = quadrant_fixture();
        for mode in [ExecutionMode::Serial, ExecutionMode::Simultaneous] {
            let config = DistributedConfig {
                mode,
                max_rounds: 30,
                order: DecisionOrder::Shuffled(7),
                ..DistributedConfig::default()
            };
            let sink = MemSink::new();
            let opts = SuperviseOptions {
                checkpoint_every: Some(1),
                trace: true,
                sink: Some(&sink),
                ..SuperviseOptions::default()
            };
            let full = run_partitioned(&inst, &config, &part, fresh(&inst), &opts).unwrap();
            assert!(full.recovery.checkpoints_written >= 1);
            let cps = sink.0.lock().unwrap().clone();
            assert_eq!(cps.len(), full.recovery.checkpoints_written);
            for cp in &cps {
                let resumed = run_partitioned(
                    &inst,
                    &config,
                    &part,
                    Start::Resume(cp),
                    &SuperviseOptions::default(),
                )
                .unwrap();
                outcomes_match(&resumed.outcome, &full.outcome);
                assert_eq!(resumed.trace, full.trace);
            }
        }
    }

    fn resume_config() -> DistributedConfig {
        DistributedConfig {
            mode: ExecutionMode::Simultaneous,
            max_rounds: 30,
            order: DecisionOrder::Shuffled(7),
            ..DistributedConfig::default()
        }
    }

    /// The outcome of an untraced run of the quadrant fixture and the
    /// checkpoint it wrote after round 1.
    fn untraced_round1_checkpoint(
        inst: &Instance,
        part: &Partition,
    ) -> (DistributedOutcome, PartitionCheckpoint) {
        let sink = MemSink::new();
        let opts = SuperviseOptions {
            checkpoint_every: Some(1),
            sink: Some(&sink),
            ..SuperviseOptions::default()
        };
        let full = run_partitioned(inst, &resume_config(), part, fresh(inst), &opts).unwrap();
        let cp = sink.0.lock().unwrap()[0].clone();
        assert!(!cp.traced);
        (full.outcome, cp)
    }

    /// A resumed run traces iff the checkpointed run did, whatever
    /// `opts.trace` says.
    #[test]
    fn resume_traces_iff_the_checkpoint_did() {
        let (inst, part) = quadrant_fixture();
        let (full, cp) = untraced_round1_checkpoint(&inst, &part);
        // Moves after the checkpoint would show in a wrongly started trace.
        assert!(full.moves > cp.moves as usize);
        let traced = SuperviseOptions {
            trace: true,
            ..SuperviseOptions::default()
        };
        let resumed =
            run_partitioned(&inst, &resume_config(), &part, Start::Resume(&cp), &traced).unwrap();
        outcomes_match(&resumed.outcome, &full);
        assert!(resumed.trace.is_empty());
    }

    /// A checkpoint that does not fit the instance is a typed error, one
    /// per validation rule.
    #[test]
    fn resume_rejects_a_checkpoint_that_does_not_fit() {
        let (inst, part) = quadrant_fixture();
        let (_, cp) = untraced_round1_checkpoint(&inst, &part);
        let resume = |cp: &PartitionCheckpoint| {
            run_partitioned(
                &inst,
                &resume_config(),
                &part,
                Start::Resume(cp),
                &SuperviseOptions::default(),
            )
            .unwrap_err()
        };
        let mut bad = cp.clone();
        bad.schema = "other".to_string();
        assert_eq!(
            resume(&bad),
            PartitionError::BadCheckpoint("unknown checkpoint schema")
        );
        let mut bad = cp.clone();
        bad.assoc.pop();
        assert_eq!(
            resume(&bad),
            PartitionError::BadCheckpoint(
                "checkpoint association length does not match the instance"
            )
        );
        let mut bad = cp.clone();
        bad.seen.pop();
        assert_eq!(
            resume(&bad),
            PartitionError::BadCheckpoint(
                "checkpoint history does not end at the checkpointed association"
            )
        );
        // u0 reaches a0, a1 and a3 only.
        let mut bad = cp;
        bad.assoc[0] = Some(ApId(8));
        *bad.seen.last_mut().unwrap() = bad.assoc.clone();
        assert_eq!(
            resume(&bad),
            PartitionError::InvalidInitialAssociation {
                user: UserId(0),
                ap: ApId(8),
            }
        );
    }

    /// The drift auditor names the first diverging (AP, session, rate)
    /// entry when a ghost replica is tampered with — and stays silent on
    /// a consistent ledger.
    #[test]
    fn ghost_drift_auditor_names_the_divergence() {
        let (inst, part) = quadrant_fixture();
        // Tile 0's shard with every user parked on its home AP.
        let initial =
            Association::from_vec((0..inst.n_users()).map(|i| Some(ApId(i as u32))).collect());
        let own: Vec<(u32, UserId)> = inst
            .users()
            .filter(|&u| part.user_tile(u) == 0)
            .map(|u| (u.0, u))
            .collect();
        let mut ledger = TileLedger::new(&inst, &initial, &own);
        ledger.audit_ghosts(&part); // consistent: must not panic
                                    // Tamper: inflate the (a1, s0) member count at rate index 0.
        let li = ledger.lidx(ApId(1)).expect("a1 is tracked by tile 0");
        let slot = ledger.slot(li, SessionId(0));
        let n_rates = ledger.n_rates;
        ledger.counts[slot * n_rates] += 1;
        let tampered = std::panic::catch_unwind(AssertUnwindSafe(|| ledger.audit_ghosts(&part)));
        let payload = tampered.expect_err("tampered ledger must be reported");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            msg.contains("ghost drift at (ap1, s0"),
            "unexpected audit message: {msg}"
        );
    }
}
