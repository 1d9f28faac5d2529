//! Folding an event stream back into controller state.
//!
//! The service publishes everything it decided — every association
//! change, every solve summary, every epoch boundary — so this fold
//! rebuilds the [`ControllerReport`](crate::ControllerReport) and final
//! association **without re-running a single solver**: it only applies
//! logged `Assoc` diffs and re-derives the metrics with the same
//! [`assemble_report`] the live runtimes use, which is what makes the
//! replayed report byte-identical to the live one.
//!
//! Epochs commit at their `EpochClosed` marker (the stream's
//! durability boundary): a crash-truncated stream replays to the report
//! of its fully closed prefix, and whatever the torn epoch had already
//! streamed is discarded rather than half-applied.

use mcast_core::{ApId, Association, Instance, LoadLedger, UserId};
use mcast_events::{
    replay_stream_bytes, replay_stream_bytes_from, Event, EventKind, STREAM_SCHEMA,
};
use serde::{Deserialize, Serialize};

use crate::ladder::SolvePath;
use crate::report::{assemble_report, EpochRecord, ReportParts};
use crate::runtime::ControllerOutcome;

/// Schema tag of serialized [`ServiceCheckpoint`]s.
pub const SERVICE_CKPT_SCHEMA: &str = "mcast-serve-ckpt/v1";

/// A snapshot of the service's committed fold state after an
/// `EpochClosed` durability boundary. Recovery is snapshot +
/// event-log-**suffix** replay ([`replay_stream_from`]) instead of
/// full-log replay: the checkpoint pins the log byte position and next
/// sequence number it covers, so only later bytes are folded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceCheckpoint {
    /// Format tag ([`SERVICE_CKPT_SCHEMA`]).
    pub schema: String,
    /// Epochs committed in this snapshot.
    pub epoch: u64,
    /// The run's objective (from the stream header).
    pub objective: String,
    /// The run's repair policy name (from the stream header).
    pub policy: String,
    /// Epoch length in µs (from the stream header).
    pub epoch_us: u64,
    /// The committed association after `epoch` epochs.
    pub committed: Vec<Option<ApId>>,
    /// Every committed epoch record.
    pub records: Vec<EpochRecord>,
    /// The capped violation sample accumulated so far.
    pub violations_sample: Vec<String>,
    /// The solve rule carried across idle epochs.
    pub carry_rule: String,
    /// Bytes of event log covered by this snapshot.
    pub log_bytes: u64,
    /// Sequence number of the first event *after* the snapshot.
    pub next_seq: u64,
}

/// What replaying an event stream recovered.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The reconstructed report and final association, over every fully
    /// closed epoch.
    pub outcome: ControllerOutcome,
    /// Epochs that closed in the valid prefix.
    pub epochs_replayed: u64,
    /// True if the stream carried a matching `StreamClosed` trailer —
    /// the run completed and the reconstruction is total.
    pub complete: bool,
    /// Bytes dropped past the valid prefix (0 on a clean stream).
    pub dropped_bytes: u64,
    /// Why the tail was dropped, when it was.
    pub tail_reason: Option<String>,
}

/// Replays raw `events.jsonl` bytes: crc32 framing first (torn tails
/// truncate to the valid prefix), then [`fold_events`] over what
/// survived.
///
/// # Errors
///
/// A structurally invalid stream (no header, wrong schema, an instance
/// mismatch, out-of-order epochs). Torn tails are **not** errors — they
/// shorten the reconstruction.
pub fn replay_stream(inst: &Instance, bytes: &[u8]) -> Result<ReplayOutcome, String> {
    let stream = replay_stream_bytes(bytes);
    let outcome = fold_events(inst, &stream.events)?;
    Ok(ReplayOutcome {
        epochs_replayed: outcome.report.n_epochs,
        outcome,
        complete: stream.closed,
        dropped_bytes: stream.dropped_bytes,
        tail_reason: stream.tail_reason,
    })
}

/// The not-yet-committed solve summary of the epoch being folded.
struct PendingSolve {
    path: SolvePath,
    degraded: bool,
    rule: String,
    work: u64,
    rehomed: u64,
    shed: u64,
    readmitted: u64,
    deferred: u64,
}

/// Folds a decoded event stream into the controller outcome it
/// documents. Only fully closed epochs commit; trailing events of a
/// never-closed epoch are ignored.
///
/// # Errors
///
/// A stream that does not start with a matching `ServiceStarted`
/// header, whose shape contradicts itself (two solve summaries in one
/// epoch, epochs closing out of order, events after the trailer), or
/// that references users/APs the instance does not have.
pub fn fold_events(inst: &Instance, events: &[Event]) -> Result<ControllerOutcome, String> {
    let mut iter = events.iter();
    let header = iter
        .next()
        .ok_or_else(|| "empty stream: no ServiceStarted header".to_string())?;
    let mut state = FoldState::from_header(inst, header)?;
    for event in iter {
        state.step(inst, event)?;
    }
    Ok(state.finish(inst))
}

/// The incremental event fold: the same state machine [`fold_events`]
/// runs, exposed stepwise so the live service can mirror its own stream
/// into a [`ServiceCheckpoint`] at each durability boundary.
pub(crate) struct FoldState {
    objective: String,
    policy: String,
    epoch_us: u64,
    committed: Vec<Option<ApId>>,
    /// Users with an AP in `committed`, kept while diffs apply.
    satisfied: usize,
    records: Vec<EpochRecord>,
    violations_sample: Vec<String>,
    // `rule` persists across idle epochs in the live record stream, so
    // the fold carries the last solve's rule forward the same way.
    carry_rule: String,
    pending_changes: Vec<(UserId, Option<ApId>)>,
    pending_solve: Option<PendingSolve>,
    pending_violations: Vec<String>,
    closed: bool,
}

impl FoldState {
    /// Starts the fold from a `ServiceStarted` header event.
    pub(crate) fn from_header(inst: &Instance, header: &Event) -> Result<FoldState, String> {
        let (objective, policy, epoch_us) = match &header.kind {
            EventKind::ServiceStarted {
                schema,
                objective,
                policy,
                epoch_us,
                n_aps,
                n_users,
                ..
            } => {
                if schema != STREAM_SCHEMA {
                    return Err(format!("stream schema {schema:?} is not {STREAM_SCHEMA:?}"));
                }
                if *n_users != inst.n_users() as u64 || *n_aps != inst.n_aps() as u64 {
                    return Err(format!(
                        "stream is for a {n_aps}-AP/{n_users}-user network, \
                         instance has {}/{}",
                        inst.n_aps(),
                        inst.n_users()
                    ));
                }
                (objective.clone(), policy.clone(), *epoch_us)
            }
            other => return Err(format!("stream starts with {other:?}, not ServiceStarted")),
        };
        Ok(FoldState {
            objective,
            policy,
            epoch_us,
            committed: vec![None; inst.n_users()],
            satisfied: 0,
            records: Vec::new(),
            violations_sample: Vec::new(),
            carry_rule: "exact".to_string(),
            pending_changes: Vec::new(),
            pending_solve: None,
            pending_violations: Vec::new(),
            closed: false,
        })
    }

    /// Restarts the fold from a committed snapshot, ready to step the
    /// log suffix past `cp.log_bytes`.
    pub(crate) fn from_checkpoint(
        inst: &Instance,
        cp: &ServiceCheckpoint,
    ) -> Result<FoldState, String> {
        if cp.schema != SERVICE_CKPT_SCHEMA {
            return Err(format!(
                "checkpoint schema {:?} is not {SERVICE_CKPT_SCHEMA:?}",
                cp.schema
            ));
        }
        if cp.committed.len() != inst.n_users() {
            return Err(format!(
                "checkpoint is for {} users, instance has {}",
                cp.committed.len(),
                inst.n_users()
            ));
        }
        if cp.records.len() as u64 != cp.epoch {
            return Err(format!(
                "checkpoint claims {} epochs but carries {} records",
                cp.epoch,
                cp.records.len()
            ));
        }
        Ok(FoldState {
            objective: cp.objective.clone(),
            policy: cp.policy.clone(),
            epoch_us: cp.epoch_us,
            committed: cp.committed.clone(),
            satisfied: cp.committed.iter().filter(|a| a.is_some()).count(),
            records: cp.records.clone(),
            violations_sample: cp.violations_sample.clone(),
            carry_rule: cp.carry_rule.clone(),
            pending_changes: Vec::new(),
            pending_solve: None,
            pending_violations: Vec::new(),
            closed: false,
        })
    }

    /// Snapshots the committed state. Only legal at a durability
    /// boundary: nothing of the next epoch may be pending.
    pub(crate) fn checkpoint(
        &self,
        log_bytes: u64,
        next_seq: u64,
    ) -> Result<ServiceCheckpoint, String> {
        if !self.pending_changes.is_empty()
            || self.pending_solve.is_some()
            || !self.pending_violations.is_empty()
        {
            return Err("checkpoint requested mid-epoch (uncommitted events pending)".to_string());
        }
        if self.closed {
            return Err("checkpoint requested after the StreamClosed trailer".to_string());
        }
        Ok(ServiceCheckpoint {
            schema: SERVICE_CKPT_SCHEMA.to_string(),
            epoch: self.records.len() as u64,
            objective: self.objective.clone(),
            policy: self.policy.clone(),
            epoch_us: self.epoch_us,
            committed: self.committed.clone(),
            records: self.records.clone(),
            violations_sample: self.violations_sample.clone(),
            carry_rule: self.carry_rule.clone(),
            log_bytes,
            next_seq,
        })
    }

    /// Steps one post-header event through the fold.
    pub(crate) fn step(&mut self, inst: &Instance, event: &Event) -> Result<(), String> {
        if self.closed {
            return Err("events after the StreamClosed trailer".to_string());
        }
        match &event.kind {
            kind if kind.is_input() => {
                // Inputs are logged for observability; their per-epoch
                // counts commit authoritatively via EpochClosed.
            }
            EventKind::Assoc { user, ap } => {
                if user.index() >= inst.n_users() {
                    return Err(format!("stream re-homes unknown user {user}"));
                }
                if let Some(a) = ap {
                    if a.index() >= inst.n_aps() {
                        return Err(format!("stream re-homes {user} to unknown AP {a}"));
                    }
                }
                self.pending_changes.push((*user, *ap));
            }
            EventKind::SolveCompleted {
                path,
                degraded,
                rule,
                work,
                rehomed,
                shed,
                readmitted,
                deferred,
            } => {
                if self.pending_solve.is_some() {
                    return Err("two SolveCompleted events in one epoch".to_string());
                }
                self.pending_solve = Some(PendingSolve {
                    path: SolvePath::from_name(path)
                        .ok_or_else(|| format!("unknown solve path {path:?}"))?,
                    degraded: *degraded,
                    rule: rule.clone(),
                    work: *work,
                    rehomed: *rehomed,
                    shed: *shed,
                    readmitted: *readmitted,
                    deferred: *deferred,
                });
            }
            EventKind::Violation { epoch, message } => {
                self.pending_violations
                    .push(format!("epoch {epoch}: {message}"));
            }
            EventKind::EpochClosed {
                epoch,
                events,
                joins,
                violations,
            } => {
                if *epoch != self.records.len() as u64 {
                    return Err(format!(
                        "epoch {epoch} closed out of order (expected {})",
                        self.records.len()
                    ));
                }
                // Commit the epoch: apply its association diff and
                // rebuild the record exactly as the engine wrote it.
                let mut handoffs = 0u64;
                let mut changed = false;
                for (u, ap) in self.pending_changes.drain(..) {
                    let before = self.committed[u.index()];
                    if before != ap {
                        changed = true;
                        match (before, ap) {
                            (Some(_), Some(_)) => handoffs += 1,
                            (None, Some(_)) => self.satisfied += 1,
                            (Some(_), None) => self.satisfied -= 1,
                            (None, None) => {}
                        }
                    }
                    self.committed[u.index()] = ap;
                }
                let solve = self.pending_solve.take();
                let (path, degraded, rule, work, rehomed, shed, readmitted, deferred) = match solve
                {
                    Some(s) => {
                        self.carry_rule = s.rule.clone();
                        (
                            s.path,
                            s.degraded,
                            s.rule,
                            s.work,
                            s.rehomed,
                            s.shed,
                            s.readmitted,
                            s.deferred,
                        )
                    }
                    None => (
                        SolvePath::Idle,
                        false,
                        self.carry_rule.clone(),
                        0,
                        0,
                        0,
                        0,
                        0,
                    ),
                };
                for v in self.pending_violations.drain(..) {
                    if self.violations_sample.len() < 8 {
                        self.violations_sample.push(v);
                    }
                }
                self.records.push(EpochRecord {
                    epoch: *epoch,
                    events: *events,
                    joins: *joins,
                    path,
                    degraded,
                    rule,
                    work,
                    handoffs,
                    rehomed,
                    shed,
                    readmitted,
                    deferred,
                    satisfied: self.satisfied,
                    changed,
                    violations: *violations,
                });
            }
            EventKind::StreamClosed { .. } => self.closed = true,
            EventKind::ServiceStarted { .. } => {
                return Err("second ServiceStarted mid-stream".to_string());
            }
            other => return Err(format!("unexpected event in stream: {other:?}")),
        }
        Ok(())
    }

    /// Assembles the outcome over every committed epoch; pending events
    /// of a never-closed epoch are discarded.
    pub(crate) fn finish(self, inst: &Instance) -> ControllerOutcome {
        let mut assoc = Association::empty(inst.n_users());
        for (i, ap) in self.committed.iter().enumerate() {
            assoc.set(UserId(i as u32), *ap);
        }
        let ledger = LoadLedger::new(inst, assoc);
        let report = assemble_report(ReportParts {
            objective: self.objective,
            policy: self.policy,
            epoch_us: self.epoch_us,
            records: self.records,
            violations_sample: self.violations_sample,
            final_max_load: ledger.max_load().as_f64(),
            final_total_load: ledger.total_load().as_f64(),
        });
        ControllerOutcome {
            report,
            association: ledger.into_association(),
        }
    }
}

/// Recovers the controller outcome from a [`ServiceCheckpoint`] plus the
/// event log: only the log **suffix** past `cp.log_bytes` is decoded
/// (continuing at `cp.next_seq`) and folded on top of the snapshot, so
/// recovery cost scales with the log written *after* the checkpoint, not
/// the full run. Byte-identical to [`replay_stream`] over the whole log.
///
/// # Errors
///
/// A checkpoint that does not match the instance or the log (suffix
/// starting mid-frame or off-sequence), or a structurally invalid
/// suffix. Torn tails are not errors — they shorten the reconstruction.
pub fn replay_stream_from(
    inst: &Instance,
    cp: &ServiceCheckpoint,
    bytes: &[u8],
) -> Result<ReplayOutcome, String> {
    let mut state = FoldState::from_checkpoint(inst, cp)?;
    if cp.log_bytes as usize > bytes.len() {
        return Err(format!(
            "checkpoint covers {} log bytes but the log has only {}",
            cp.log_bytes,
            bytes.len()
        ));
    }
    let stream = replay_stream_bytes_from(&bytes[cp.log_bytes as usize..], cp.next_seq);
    for event in &stream.events {
        state.step(inst, event)?;
    }
    let outcome = state.finish(inst);
    Ok(ReplayOutcome {
        epochs_replayed: outcome.report.n_epochs,
        outcome,
        complete: stream.closed,
        dropped_bytes: stream.dropped_bytes,
        tail_reason: stream.tail_reason,
    })
}
