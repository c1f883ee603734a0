//! Message transport between replication nodes.
//!
//! The supervisor is transport-agnostic: anything that can move encoded
//! [`ReplicaMsg`] bytes between named nodes works. The in-process
//! channel ([`ChannelTransport`]) lives here; the socket transport
//! ([`crate::net::TcpTransport`]) speaks the same trait over a
//! [`crate::net::MsgRouter`].

use std::collections::BTreeMap;
use std::collections::VecDeque;

use crate::error::TransportError;
use crate::record::ReplicaMsg;

/// Moves messages between named nodes. Every message crosses the wire
/// as its canonical encoding — even the in-process transport encodes
/// and decodes, so the wire grammar is exercised on every hop.
pub trait ReplicaTransport {
    /// Queue `msg` for delivery to node `to`.
    fn send(&mut self, to: &str, msg: &ReplicaMsg) -> Result<(), TransportError>;

    /// Pop the next message addressed to `node`, if any.
    fn recv(&mut self, node: &str) -> Result<Option<ReplicaMsg>, TransportError>;

    /// Number of transport operations performed so far (sends plus
    /// receive attempts). Fault-injection harnesses use this to
    /// enumerate injection points.
    fn steps(&self) -> u64;
}

/// In-process transport: one FIFO inbox per node.
#[derive(Debug, Default)]
pub struct ChannelTransport {
    inboxes: BTreeMap<String, VecDeque<Vec<u8>>>,
    steps: u64,
}

impl ChannelTransport {
    /// An empty transport; inboxes materialise on first use.
    pub fn new() -> ChannelTransport {
        ChannelTransport::default()
    }

    /// Messages currently queued for `node`.
    pub fn pending(&self, node: &str) -> usize {
        self.inboxes.get(node).map_or(0, VecDeque::len)
    }
}

impl ReplicaTransport for ChannelTransport {
    fn send(&mut self, to: &str, msg: &ReplicaMsg) -> Result<(), TransportError> {
        self.steps += 1;
        self.inboxes
            .entry(to.to_string())
            .or_default()
            .push_back(msg.encode());
        Ok(())
    }

    fn recv(&mut self, node: &str) -> Result<Option<ReplicaMsg>, TransportError> {
        self.steps += 1;
        let Some(inbox) = self.inboxes.get_mut(node) else {
            return Ok(None);
        };
        let Some(wire) = inbox.pop_front() else {
            return Ok(None);
        };
        // A message that does not decode is treated as lost on the
        // wire: the sender will retransmit on the next round.
        match ReplicaMsg::decode(&wire) {
            Ok(msg) => Ok(Some(msg)),
            Err(_) => Err(TransportError::Lost),
        }
    }

    fn steps(&self) -> u64 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb(epoch: u64) -> ReplicaMsg {
        ReplicaMsg::Heartbeat { epoch, next_lsn: 1 }
    }

    #[test]
    fn channel_delivers_in_order_per_node() {
        let mut t = ChannelTransport::new();
        t.send("a", &hb(1)).unwrap();
        t.send("b", &hb(2)).unwrap();
        t.send("a", &hb(3)).unwrap();
        assert_eq!(t.recv("a").unwrap(), Some(hb(1)));
        assert_eq!(t.recv("a").unwrap(), Some(hb(3)));
        assert_eq!(t.recv("a").unwrap(), None);
        assert_eq!(t.recv("b").unwrap(), Some(hb(2)));
        assert_eq!(t.steps(), 7);
    }
}
