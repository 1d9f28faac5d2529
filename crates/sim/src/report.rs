//! Simulation outcome reporting.

use std::collections::BTreeMap;

use mcast_core::{ApId, Association, Load, UserId};
use mcast_faults::RecoverySummary;

use crate::event::Time;

/// One association change observed during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssociationChange {
    /// When the AP granted the (re)association — or, for `to: None`
    /// records, when the user departed or was forcibly disassociated.
    pub at: Time,
    /// The moving user.
    pub user: UserId,
    /// Previous AP (`None` = was unassociated).
    pub from: Option<ApId>,
    /// New AP (`None` = lost or gave up service).
    pub to: Option<ApId>,
}

impl AssociationChange {
    /// Effect of this change on the satisfied-user count.
    fn coverage_delta(&self) -> i64 {
        match (self.from, self.to) {
            (None, Some(_)) => 1,
            (Some(_), None) => -1,
            _ => 0,
        }
    }
}

/// The outcome of a [`Simulator`](crate::Simulator) run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The association when the run ended.
    pub association: Association,
    /// Wake cycles executed.
    pub cycles: usize,
    /// True if two consecutive cycles passed without any change.
    pub converged: bool,
    /// Heuristic: the run hit its cycle limit while still churning at
    /// least as many changes as there are users — a live oscillation
    /// (always true for the Figure 4 gadget under synchronized wake-ups).
    pub oscillating: bool,
    /// Every association change, in order.
    pub changes: Vec<AssociationChange>,
    /// Control frames sent, by type.
    pub message_counts: BTreeMap<&'static str, u64>,
    /// Control frames dropped in the air (the crude `loss_prob` process
    /// plus per-class fault-plan drops).
    pub frames_lost: u64,
    /// Per user: time from its first wake to its first granted
    /// association (`None` if it never associated). Indexable by
    /// `UserId::index`.
    pub join_latencies: Vec<Option<Time>>,
    /// Simulated clock when the run ended.
    pub finished_at: Time,
    /// Satisfied users in the association the run started from.
    pub initial_satisfied: usize,
    /// Fault-plan events applied (AP down/up, departures, jumps).
    pub fault_events: u64,
    /// Distinct instants at which fault events were applied — the "fault
    /// epochs" the recovery metrics are segmented by. Simultaneous events
    /// (a coordinated multi-AP outage) form a single epoch.
    pub fault_epochs: Vec<Time>,
    /// Exchanges abandoned mid-flight (timeout or wake-over recovery).
    pub abandoned_exchanges: u64,
    /// Association requests the AP denied (stale, out of range, or over
    /// budget).
    pub assoc_denied: u64,
    /// Highest per-AP load the ledger ever held during the run — the
    /// transient overshoot faults cause before the protocol rebalances.
    pub peak_max_load: Load,
}

impl SimReport {
    /// Total control frames sent.
    pub fn total_messages(&self) -> u64 {
        self.message_counts.values().sum()
    }

    /// Median time from a user's first wake to its first granted
    /// association, over users that did associate. `None` if nobody did.
    pub fn median_join_latency(&self) -> Option<Time> {
        let mut v: Vec<Time> = self.join_latencies.iter().flatten().copied().collect();
        if v.is_empty() {
            return None;
        }
        v.sort_unstable();
        Some(v[v.len() / 2])
    }

    /// Retried work that bought nothing: lock denials, denied association
    /// requests, and exchanges abandoned to a timeout or wake-over.
    pub fn wasted_retries(&self) -> u64 {
        self.message_counts.get("lock_deny").copied().unwrap_or(0)
            + self.assoc_denied
            + self.abandoned_exchanges
    }

    /// Per fault epoch: how long after the fault the association kept
    /// changing — the time to reconvergence.
    ///
    /// The epoch's observation window runs to the next epoch (or the end
    /// of the run). `Some(Time::ZERO)` means the fault caused no
    /// re-association at all; `None` means the window is the last one and
    /// the run never reconverged.
    pub fn reconvergence_times(&self) -> Vec<Option<Time>> {
        self.fault_epochs
            .iter()
            .enumerate()
            .map(|(i, &start)| {
                let end = self.fault_epochs.get(i + 1).copied();
                let last = self
                    .changes
                    .iter()
                    .filter(|c| c.at > start && end.is_none_or(|e| c.at <= e))
                    .map(|c| c.at)
                    .next_back();
                match last {
                    None => Some(Time::ZERO),
                    Some(lc) if end.is_some() || self.converged => Some(Time(lc.0 - start.0)),
                    Some(_) => None,
                }
            })
            .collect()
    }

    /// Percentile summary of [`SimReport::reconvergence_times`], in
    /// microseconds.
    ///
    /// Windows that never settled (`None`) count as unsettled; the same
    /// [`RecoverySummary`] type is used by the online controller (with
    /// epochs as the unit), so simulator and controller recovery
    /// behavior can be compared side by side.
    pub fn reconvergence_summary(&self) -> RecoverySummary {
        let samples: Vec<Option<f64>> = self
            .reconvergence_times()
            .iter()
            .map(|t| t.map(|t| t.0 as f64))
            .collect();
        RecoverySummary::from_options(&samples)
    }

    /// Per fault epoch: the transient coverage loss, in user-microseconds.
    ///
    /// Replays the change log to reconstruct the satisfied-user count over
    /// time, then integrates how far it stays below its pre-fault level
    /// across the epoch's window (next epoch or end of run). An AP outage
    /// that drops 12 users who rejoin within 2 s contributes about
    /// 12 × 2 × 10⁶; permanent losses (departures) accrue until the
    /// window closes.
    pub fn coverage_loss_user_us(&self) -> Vec<u64> {
        self.fault_epochs
            .iter()
            .enumerate()
            .map(|(i, &start)| {
                let end = self
                    .fault_epochs
                    .get(i + 1)
                    .copied()
                    .unwrap_or(self.finished_at)
                    .max(start);
                // Satisfied count just before the fault hit.
                let mut sat = self.initial_satisfied as i64
                    + self
                        .changes
                        .iter()
                        .take_while(|c| c.at < start)
                        .map(AssociationChange::coverage_delta)
                        .sum::<i64>();
                let baseline = sat;
                let mut loss: u64 = 0;
                let mut t = start;
                for c in self.changes.iter().filter(|c| c.at >= start && c.at < end) {
                    loss += (baseline - sat).max(0) as u64 * (c.at.0 - t.0);
                    sat += c.coverage_delta();
                    t = c.at;
                }
                loss += (baseline - sat).max(0) as u64 * end.0.saturating_sub(t.0);
                loss
            })
            .collect()
    }
}
