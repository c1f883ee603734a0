//! # mvolap-cluster — quorum-replicated commit and leader election
//!
//! The one replication supervisor: a primary
//! ([`mvolap_replica::PrimaryNode`]) plus N members run as one
//! replication group with majority-ack semantics on top of the
//! [`mvolap_replica`] primitives:
//!
//! - **Quorum commit** ([`ClusterSet::commit_quorum`]): a commit is
//!   acknowledged only once it is fsynced locally *and* acked by a
//!   majority of the group (⌈(N+1)/2⌉ members, primary included). The
//!   `quorum_lsn` watermark is maintained by the group-commit layer
//!   ([`mvolap_durable::GroupCommit`]) and threaded up to sessions.
//! - **Deterministic election** ([`ClusterSet::elect`]): members vote
//!   for the candidate with the highest `(synced_lsn, member_id)`
//!   credential; the winner fences the deposed primary by bumping the
//!   epoch. Because a majority acked every quorum commit and the
//!   winner outranks a majority, the winner's log contains every
//!   acknowledged record — the winner never truncates.
//! - **Truncation on rejoin** ([`ClusterSet::rejoin_member`]): a
//!   deposed primary walks its log backwards against the new
//!   primary's, cuts everything past the last CRC match (its
//!   un-quorum'd suffix), and only then re-enters the group.
//! - **Fault sweeps** ([`cluster_sweep`], [`cluster_sweep_net`]): kill
//!   the primary or a member at every I/O primitive and fault a
//!   member's link at every transport step — over the in-process
//!   channel and over loopback TCP — asserting that no
//!   quorum-acknowledged commit is ever lost, no two primaries accept
//!   writes in the same epoch, and every surviving node is
//!   byte-identical to the replay of its log.
//!   [`membership_sweep`] does the same during reconfiguration.
//! - **Async pump** ([`MemberPump`]): per-member shipping engines
//!   that tail the primary's WAL and ship batched frame envelopes
//!   with a bounded in-flight window; [`MemberPump::spawn`] runs one
//!   on a dedicated thread so commits stop paying a caller's pump
//!   interval, while [`MemberPump::step`] stays a synchronous hook
//!   deterministic tests drive directly.
//!
//! The supervisor is deterministic: no wall-clock, no threads — every
//! protocol step happens inside [`ClusterSet::tick`], which is what
//! makes the exhaustive sweep possible; threaded shipping lives only
//! in the pump/serving layer above it.

#![warn(missing_docs)]

pub mod pump;
pub mod serve;
pub mod set;
pub mod sweep;

pub use pump::{
    MemberPump, MemberPumpStatus, PumpConfig, PumpShared, PumpState, PumpStep, PumpThread,
    PumpTracker,
};
pub use serve::LocalCluster;
pub use set::{
    ClusterConfig, ClusterEvent, ClusterSet, ClusterStats, PendingReconfig, RejoinOutcome,
};
pub use sweep::{
    cluster_sweep, cluster_sweep_net, membership_sweep, ClusterSweepOutcome, MembershipSweepOutcome,
};
