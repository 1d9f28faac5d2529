//! Deterministic checkpoints for the partitioned distributed engine.
//!
//! Every K completed rounds the supervised coordinator snapshots the
//! run's *complete* resumable state into a [`PartitionCheckpoint`]:
//! the finished round, the global association, the cycle-detection
//! history (in insertion order), and the decision trace so far. Nothing
//! else is needed — per-tile [`TileLedger`](crate::partition) counts and
//! ghost replicas are a pure function of the global association (exact
//! rational `Load` arithmetic makes them history-independent), and the
//! "RNG stream position" is the run's [`DecisionOrder`](crate::DecisionOrder)
//! seed, which lives in the config and is re-expanded on resume. A resume
//! therefore rebuilds every shard from the checkpointed association with
//! an all-dirty worklist, which is outcome- and trace-neutral (a user
//! whose neighborhood did not change re-decides "stay").
//!
//! Serialization and framing live in `mcast-events` (crc32-framed JSONL,
//! torn-tail truncation on load); this module only defines the state and
//! the [`CheckpointSink`] boundary so `mcast-core` stays I/O-free.

use serde::{Deserialize, Serialize};

use crate::assoc::Association;
use crate::ids::ApId;
use crate::instance::Instance;
use crate::partition::{check_in_range, MoveRec, PartitionError};

/// Schema tag of serialized [`PartitionCheckpoint`]s.
pub const CHECKPOINT_SCHEMA: &str = "mcast-ckpt/v1";

/// The complete resumable state of a partitioned run after `round`
/// completed rounds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionCheckpoint {
    /// Format tag ([`CHECKPOINT_SCHEMA`]).
    pub schema: String,
    /// Completed (1-based) rounds; the resume starts at `round + 1`.
    pub round: u32,
    /// Total moves applied so far.
    pub moves: u64,
    /// The global association after `round` rounds.
    pub assoc: Vec<Option<ApId>>,
    /// The cycle-detection history in insertion order (initial state
    /// first; the last entry equals `assoc`).
    pub seen: Vec<Vec<Option<ApId>>>,
    /// The decision trace so far (empty unless `traced`).
    pub trace: Vec<MoveRec>,
    /// Whether the checkpointed run was collecting a trace.
    pub traced: bool,
}

impl PartitionCheckpoint {
    /// Validates the checkpoint against an instance: schema, sizes, and
    /// in-range associations (the same check a fresh run performs on its
    /// initial association).
    pub fn validate(&self, inst: &Instance) -> Result<(), PartitionError> {
        if self.schema != CHECKPOINT_SCHEMA {
            return Err(PartitionError::BadCheckpoint("unknown checkpoint schema"));
        }
        if self.assoc.len() != inst.n_users() || self.seen.iter().any(|s| s.len() != inst.n_users())
        {
            return Err(PartitionError::BadCheckpoint(
                "checkpoint association length does not match the instance",
            ));
        }
        if self.seen.last() != Some(&self.assoc) {
            return Err(PartitionError::BadCheckpoint(
                "checkpoint history does not end at the checkpointed association",
            ));
        }
        check_in_range(inst, self.assoc.iter().copied())
    }

    /// The checkpointed association as an [`Association`].
    pub fn association(&self) -> Association {
        Association::from_vec(self.assoc.clone())
    }
}

/// Why a checkpoint could not be written or read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointError(pub String);

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint error: {}", self.0)
    }
}

impl std::error::Error for CheckpointError {}

/// Where checkpoints go. `mcast-events` provides the crc32-framed file
/// sink; tests use in-memory sinks. Implementations must be callable
/// through a shared reference (the coordinator writes from inside a
/// thread scope).
pub trait CheckpointSink {
    /// Durably appends a whole checkpoint frame.
    fn save(&self, cp: &PartitionCheckpoint) -> Result<(), CheckpointError>;

    /// Chaos hook: persist a *torn* (partial) frame, as if the process
    /// died mid-write. Loaders must fall back to the previous whole
    /// frame. The default is a no-op (the tear loses the write entirely).
    fn save_torn(&self, cp: &PartitionCheckpoint) -> Result<(), CheckpointError> {
        let _ = cp;
        Ok(())
    }
}
