//! The write-accepting node of a replication group.
//!
//! [`PrimaryNode`] wraps a [`GroupCommit`] — so server sessions can
//! share the store and batch their fsyncs — with an epoch and a fencing
//! flag: once fenced, every write is refused with
//! [`ReplicaError::Fenced`]. The quorum supervisor
//! (`mvolap_cluster::ClusterSet`), the networked
//! [`crate::net::ReplicaServer`] and the shell's `--serve` all drive
//! this one type.
//!
//! It also owns the one place a follower's hello is answered
//! ([`HelloView::answer`]): the divergence gate, then a heartbeat, then
//! the frames or the snapshot the follower is missing.

use std::path::PathBuf;

use mvolap_core::Tmd;
use mvolap_durable::{CheckpointId, GroupCommit, WalRecord};

use crate::error::ReplicaError;
use crate::record::ReplicaMsg;
use crate::tailer::{TailSource, WalTailer};

/// The write-accepting node: a shared group-commit handle plus the
/// epoch/fencing discipline.
#[derive(Debug)]
pub struct PrimaryNode {
    name: String,
    group: GroupCommit,
    dir: PathBuf,
    epoch: u64,
    fenced: bool,
}

impl PrimaryNode {
    /// Wraps a group-commit handle as primary at `epoch`.
    pub fn new(name: impl Into<String>, group: GroupCommit, epoch: u64) -> PrimaryNode {
        let dir = group.with_store(|s| s.dir().to_path_buf());
        PrimaryNode {
            name: name.into(),
            group,
            dir,
            epoch,
            fenced: false,
        }
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this node has been fenced.
    pub fn is_fenced(&self) -> bool {
        self.fenced
    }

    /// The shared group-commit handle (clone it into server sessions;
    /// read the store through [`GroupCommit::with_store`]).
    pub fn group(&self) -> &GroupCommit {
        &self.group
    }

    /// Current schema, cloned out of the shared store.
    pub fn schema(&self) -> Tmd {
        self.group.with_store(|s| s.schema().clone())
    }

    /// Log head (next LSN).
    pub fn wal_position(&self) -> u64 {
        self.group.wal_position()
    }

    /// Highest LSN below which every record is majority-durable.
    pub fn quorum_lsn(&self) -> u64 {
        self.group.quorum_lsn()
    }

    /// A tailer over this node's log.
    pub fn tailer(&self) -> WalTailer {
        WalTailer::new(&self.dir)
    }

    /// Journals and locally fsyncs one record — refused once fenced.
    /// Quorum acknowledgement is the supervisor's business; this only
    /// establishes local durability.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Fenced`] after fencing; otherwise as
    /// [`GroupCommit::commit`].
    pub fn commit(&mut self, record: WalRecord) -> Result<u64, ReplicaError> {
        if self.fenced {
            return Err(ReplicaError::Fenced { epoch: self.epoch });
        }
        Ok(self.group.commit(record)?)
    }

    /// Checkpoints the store — refused once fenced.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Fenced`] after fencing; otherwise as
    /// [`mvolap_durable::DurableTmd::checkpoint`].
    pub fn checkpoint(&mut self) -> Result<(), ReplicaError> {
        if self.fenced {
            return Err(ReplicaError::Fenced { epoch: self.epoch });
        }
        self.group.with_store_mut(|s| s.checkpoint())?;
        Ok(())
    }

    /// Runs the store's policy-gated checkpoint check — the periodic
    /// driver behind `CheckpointPolicy::max_tail_age_ms`. A fenced
    /// node's store is frozen, so the check is skipped (`Ok(None)`).
    ///
    /// # Errors
    ///
    /// As [`mvolap_durable::DurableTmd::maybe_checkpoint`].
    pub fn maybe_checkpoint(&mut self) -> Result<Option<CheckpointId>, ReplicaError> {
        if self.fenced {
            return Ok(None);
        }
        Ok(self.group.with_store_mut(|s| s.maybe_checkpoint())?)
    }

    /// Fences this node at `epoch`: every further write is refused with
    /// [`ReplicaError::Fenced`]. The supervisor calls this on the
    /// deposed primary at an election; a [`crate::net::ReplicaServer`]
    /// calls it when a request proves a newer primary exists.
    pub fn fence(&mut self, epoch: u64) {
        self.fenced = true;
        self.epoch = epoch;
    }

    /// Adopts a newer epoch without fencing — the supervisor re-asserts
    /// a standing primary after an aborted election, so members that
    /// granted a vote (and adopted the new epoch) accept its
    /// heartbeats again.
    pub fn adopt_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// What answering a hello needs — epoch, durable head and a tailer
    /// — copied out of the node. The head is the group's synced
    /// watermark, not [`PrimaryNode::wal_position`]: a concurrent
    /// committer may have appended records still waiting for their
    /// fsync, and those must never ship (the primary could still lose
    /// them while a follower keeps them). A caller holding the node
    /// behind a lock releases it before [`HelloView::answer`] touches
    /// the disk.
    pub fn hello_view(&self) -> HelloView {
        HelloView {
            epoch: self.epoch,
            head: self.group.synced_lsn(),
            tailer: self.tailer(),
        }
    }
}

/// A primary's serving position, detached from the node: see
/// [`PrimaryNode::hello_view`].
#[derive(Debug, Clone)]
pub struct HelloView {
    epoch: u64,
    head: u64,
    tailer: WalTailer,
}

impl HelloView {
    /// The durable log head (first LSN not yet fsynced) the view was
    /// taken at.
    pub fn head(&self) -> u64 {
        self.head
    }

    /// Answers one follower hello: the divergence gate first (a
    /// position claim whose frame CRC this log never wrote is answered
    /// with a lone `diverged`), then a heartbeat carrying the head, then
    /// up to `batch_frames` frames below the head — or the covering
    /// snapshot when the follower's position is already pruned. A
    /// serving-side read
    /// failure after the gate yields the heartbeat alone; the follower
    /// simply asks again.
    ///
    /// # Errors
    ///
    /// [`ReplicaError::Durable`] when the position check itself cannot
    /// read the log.
    pub fn answer(
        &self,
        next_lsn: u64,
        last_crc: u32,
        batch_frames: usize,
    ) -> Result<Vec<ReplicaMsg>, ReplicaError> {
        let epoch = self.epoch;
        match self.tailer.verify_position(next_lsn, last_crc, self.head) {
            Ok(()) => {}
            Err(ReplicaError::Diverged {
                lsn,
                expected_crc,
                got_crc,
            }) => {
                return Ok(vec![ReplicaMsg::Diverged {
                    epoch,
                    lsn,
                    expected_crc,
                    got_crc,
                }])
            }
            Err(e) => return Err(e),
        }
        let mut out = vec![ReplicaMsg::Heartbeat {
            epoch,
            next_lsn: self.head,
        }];
        if next_lsn < self.head {
            match self
                .tailer
                .fetch_budget(next_lsn, self.head, batch_frames, usize::MAX)
            {
                Ok(TailSource::Frames(frames)) => out.push(ReplicaMsg::Frames { epoch, frames }),
                Ok(TailSource::Snapshot { next_lsn, snapshot }) => {
                    out.push(ReplicaMsg::Snapshot {
                        epoch,
                        next_lsn,
                        snapshot,
                    });
                }
                Err(_) => {}
            }
        }
        Ok(out)
    }
}
