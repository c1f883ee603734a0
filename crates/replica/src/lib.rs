//! `mvolap-replica` — WAL-shipping replication primitives for the
//! temporal warehouse: followers, divergence detection, the primary
//! node and the transports.
//!
//! The durability crate journals every evolution operator as a
//! CRC-framed, LSN-addressed WAL record; this crate ships those frames
//! to follower nodes:
//!
//! * **Tailing** ([`WalTailer`]). The primary serves its log from any
//!   LSN; positions already pruned by checkpointing are served as a
//!   covering checkpoint *snapshot* instead, and the follower
//!   re-bootstraps from it at the right LSN.
//! * **Replay through the validated path** ([`Follower`]). A follower
//!   journals the frames it receives into its own WAL + checkpoint
//!   store via the same validated apply path the primary committed
//!   them with. Record encoding is canonical, so the follower's log is
//!   *byte-identical* to the primary's at every LSN — frame-CRC
//!   comparison is therefore a sound divergence test in both
//!   directions.
//! * **Divergence refusal.** A follower whose log provably forks from
//!   the serving primary's (CRC mismatch at a shared LSN, or frames
//!   past the primary's head) is refused with a typed
//!   [`ReplicaError::Diverged`] — never patched, never silently
//!   rewound.
//! * **The primary** ([`PrimaryNode`]). A [`mvolap_durable::GroupCommit`]
//!   with an epoch and a fencing flag: once a newer primary exists the
//!   deposed node refuses every write with [`ReplicaError::Fenced`]. It
//!   answers follower hellos in one place ([`HelloView::answer`]).
//! * **Networked transport** ([`net`]). The same protocol over real
//!   TCP or unix sockets: every request and reply is one CRC frame of
//!   canonical escaped-token text, with explicit connect/read/write
//!   timeouts, bounded reconnect, and epoch fencing enforced at the
//!   protocol layer by [`ReplicaServer`]. [`TcpTransport`] carries the
//!   supervisor's messages through a [`MsgRouter`], and a
//!   [`FaultProxy`] injects socket faults (dropped and stalled
//!   connections) between them.
//!
//! Supervision — quorum commit, elections, fencing, rejoin and the
//! fault sweeps — lives one layer up, in `mvolap-cluster`.

#![warn(missing_docs)]

pub mod error;
pub mod follower;
pub mod net;
pub mod primary;
pub mod record;
pub mod tailer;
pub mod transport;

pub use error::{ReplicaError, TransportError};
pub use follower::Follower;
pub use net::{
    accept_loop, decode_batch, encode_batch, read_frame, stop_listener, sync_follower, write_frame,
    FaultProxy, FrameReader, MsgRouter, NetAddr, NetClient, NetConfig, NetListener, NetStream,
    ProxyFault, ReplicaServer, ServerConfig, SyncRound, TcpTransport,
};
pub use primary::{HelloView, PrimaryNode};
pub use record::{esc_bytes, unesc_bytes, ReplicaMsg};
pub use tailer::{TailSource, WalTailer};
pub use transport::{ChannelTransport, ReplicaTransport};
