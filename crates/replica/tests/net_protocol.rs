//! Protocol fuzz table for the networked transport: every malformed or
//! hostile exchange must surface as a *typed* [`ReplicaError`] — never
//! a panic, never a hang (every socket carries a read timeout), never
//! a silent success. One test per row:
//!
//! * truncated length prefix        → `Transport`
//! * oversized length field         → `Protocol`
//! * CRC-mismatched frame           → `Protocol`
//! * mid-stream disconnect          → `Transport`
//! * stale-epoch request            → fence reply / `Fenced`
//! * forged future-LSN ack          → capped at the log head
//! * hello while a commit awaits its fsync → only durable frames ship
//! * undecodable message payload    → `Protocol` (server survives)
//!
//! and for the quorum envelope (`qack` / `votereq` / `vote`):
//!
//! * truncated quorum ack           → `Protocol` (server survives)
//! * stale-epoch vote request       → `Fenced`
//! * duplicate vote                 → idempotent re-grant; a second
//!   candidate in the same epoch is a typed `Protocol` violation
//! * vote for an under-ranked candidate → `Protocol`
//!
//! and for the batched frame envelope the async pump ships
//! (`batch <n> <frames …>*`):
//!
//! * truncated inner `frames` message → `Protocol`
//! * oversized inner frame count      → `Protocol`
//! * lying outer batch count          → `Protocol`
//!
//! and for the membership wire records (`snap` / `reconfig`):
//!
//! * truncated `snap` chunk           → `Protocol`
//! * lying chunk count                → `Protocol` (assembly dropped)
//! * stale-epoch reconfig             → `Fenced`
//! * unexpected chunk at a server     → typed `err` (server survives)
//!
//! Named `net_*` so CI's network job runs exactly this surface.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use mvolap_core::case_study;
use mvolap_durable::checksum::crc32;
use mvolap_durable::{
    frame, CheckpointPolicy, DurableTmd, FactRow, GroupCommit, GroupConfig, Io, Options,
    TimeSource, WalRecord,
};
use mvolap_replica::{
    decode_batch, encode_batch, esc_bytes, sync_follower, Follower, NetAddr, NetClient, NetConfig,
    PrimaryNode, ReplicaError, ReplicaMsg, ReplicaServer, ServerConfig,
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvolap_netproto_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> Options {
    Options {
        segment_bytes: 2048,
        policy: CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    }
}

/// Strict client config: tight read timeout, no reconnects — a
/// misbehaving server must surface as an error on the first exchange.
fn strict_cfg() -> NetConfig {
    NetConfig {
        connect_timeout_ms: 2_000,
        read_timeout_ms: 500,
        write_timeout_ms: 2_000,
        reconnect_attempts: 0,
        backoff_start_ms: 0,
    }
}

fn hello() -> ReplicaMsg {
    ReplicaMsg::Hello {
        node: "probe".into(),
        epoch: 0,
        next_lsn: 1,
        last_crc: 0,
    }
}

/// A server that misbehaves on exactly one connection: accepts it,
/// hands it to `abuse`, then exits.
fn rogue_server(abuse: impl FnOnce(TcpStream) + Send + 'static) -> NetAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = NetAddr::Tcp(listener.local_addr().unwrap().to_string());
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            abuse(stream);
        }
    });
    addr
}

/// Reads and discards one whole frame so the client's request is fully
/// consumed before the abuse starts.
fn swallow_request(s: &mut TcpStream) {
    let mut hdr = [0u8; frame::HEADER];
    s.read_exact(&mut hdr).unwrap();
    let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).unwrap();
}

#[test]
fn net_truncated_length_prefix_is_a_typed_transport_error() {
    let addr = rogue_server(|mut s| {
        swallow_request(&mut s);
        // Half a header, then hang up.
        s.write_all(&[0x2a, 0, 0, 0]).unwrap();
    });
    let mut client = NetClient::connect(addr, strict_cfg());
    match client.request(&hello()) {
        Err(ReplicaError::Transport(_)) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
}

#[test]
fn net_oversized_length_field_is_a_typed_protocol_error() {
    let addr = rogue_server(|mut s| {
        swallow_request(&mut s);
        let huge = (frame::MAX_PAYLOAD as u32) + 1;
        let mut hdr = huge.to_le_bytes().to_vec();
        hdr.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&hdr).unwrap();
        // Keep the connection open: the client must refuse from the
        // header alone, not wait for (or allocate) the claimed body.
        std::thread::sleep(std::time::Duration::from_millis(1_500));
    });
    let mut client = NetClient::connect(addr, strict_cfg());
    match client.request(&hello()) {
        Err(ReplicaError::Protocol(m)) => assert!(m.contains("exceeds"), "{m}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn net_crc_mismatched_frame_is_a_typed_protocol_error() {
    let addr = rogue_server(|mut s| {
        swallow_request(&mut s);
        let payload = b"batch 0";
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&(crc32(payload) ^ 0xDEAD_BEEF).to_le_bytes());
        buf.extend_from_slice(payload);
        s.write_all(&buf).unwrap();
    });
    let mut client = NetClient::connect(addr, strict_cfg());
    match client.request(&hello()) {
        Err(ReplicaError::Protocol(m)) => assert!(m.contains("checksum"), "{m}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
}

#[test]
fn net_mid_stream_disconnect_is_a_typed_transport_error() {
    let addr = rogue_server(|mut s| {
        // Take the whole request, answer nothing, hang up.
        swallow_request(&mut s);
    });
    let mut client = NetClient::connect(addr, strict_cfg());
    match client.request(&hello()) {
        Err(ReplicaError::Transport(_)) => {}
        other => panic!("expected a transport error, got {other:?}"),
    }
}

/// A stale-epoch request against a real server is answered with
/// nothing but `fence`, and a fenced server refuses everyone: the
/// syncing client surfaces it as the typed [`ReplicaError::Fenced`].
#[test]
fn net_stale_epoch_request_is_fenced_at_the_protocol_layer() {
    let base = tmp("stale");
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(&base.join("p"), cs.tmd, opts(), Io::plain()).unwrap();
    let primary = Arc::new(Mutex::new(PrimaryNode::new(
        "primary",
        GroupCommit::new(store, GroupConfig::default()),
        3,
    )));
    let server = ReplicaServer::spawn(
        &NetAddr::Tcp("127.0.0.1:0".into()),
        primary,
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());

    // A stale ack (epoch 0 against a server at 3) plants nothing — the
    // server answers only with its fence.
    let reply = client
        .request(&ReplicaMsg::Ack {
            node: "old".into(),
            epoch: 0,
            next_lsn: 99,
        })
        .unwrap();
    assert_eq!(reply, vec![ReplicaMsg::Fence { epoch: 3 }]);
    assert_eq!(server.acked_lsn("old"), 0, "stale ack was not recorded");

    // A newer-epoch fence deposes the server; syncing against it now
    // surfaces the typed refusal.
    client.request(&ReplicaMsg::Fence { epoch: 4 }).unwrap();
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    match sync_follower(&mut client, &mut f) {
        Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 4),
        other => panic!("expected Fenced, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A current-epoch ack claiming a position far past the log head is
/// capped at the head: a follower can never hold more than the primary
/// wrote, so `acked_lsn` never points past records that exist.
#[test]
fn net_forged_future_ack_is_capped_at_the_head() {
    let base = tmp("futureack");
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(&base.join("p"), cs.tmd, opts(), Io::plain()).unwrap();
    let primary = Arc::new(Mutex::new(PrimaryNode::new(
        "primary",
        GroupCommit::new(store, GroupConfig::default()),
        0,
    )));
    let server = ReplicaServer::spawn(
        &NetAddr::Tcp("127.0.0.1:0".into()),
        primary,
        ServerConfig::default(),
    )
    .unwrap();
    let head = server.primary().lock().unwrap().wal_position();
    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());
    let reply = client
        .request(&ReplicaMsg::Ack {
            node: "liar".into(),
            epoch: 0,
            next_lsn: 1_000_000_000,
        })
        .unwrap();
    assert!(reply.is_empty(), "{reply:?}");
    assert_eq!(
        server.acked_lsn("liar"),
        head,
        "the forged claim must be capped at the log head"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// A hello answered while another writer's commit is appended but
/// still held open before its fsync must not ship that record: the
/// heartbeat reports the synced watermark and every frame lies below
/// it. Once the sync lands, the record ships.
#[test]
fn net_hello_never_ships_an_unsynced_record() {
    let base = tmp("unsynced");
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(&base.join("p"), cs.tmd, opts(), Io::plain()).unwrap();
    let time = TimeSource::manual(0);
    let group = GroupCommit::new(
        store,
        GroupConfig {
            hold_ms: 40,
            time: time.clone(),
        },
    );
    let primary = Arc::new(Mutex::new(PrimaryNode::new("primary", group.clone(), 0)));
    let server = ReplicaServer::spawn(
        &NetAddr::Tcp("127.0.0.1:0".into()),
        primary,
        ServerConfig::default(),
    )
    .unwrap();
    let synced = group.synced_lsn();

    // A writer appends one record; its sync window stays open until
    // the manual timeline is advanced.
    let writer = {
        let group = group.clone();
        std::thread::spawn(move || {
            group.commit(WalRecord::FactBatch {
                rows: vec![FactRow {
                    coords: vec![cs.brian],
                    at: mvolap_temporal::Instant::ym(2003, 1),
                    values: vec![1.0],
                }],
            })
        })
    };
    while group.wal_position() == synced {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(
        group.synced_lsn(),
        synced,
        "the sync window must still be open"
    );

    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());
    let shipped = |reply: &[ReplicaMsg]| -> (u64, Vec<u64>) {
        let mut head = 0;
        let mut lsns = Vec::new();
        for msg in reply {
            match msg {
                ReplicaMsg::Heartbeat { next_lsn, .. } => head = *next_lsn,
                ReplicaMsg::Frames { frames, .. } => lsns.extend(frames.iter().map(|f| f.lsn)),
                other => panic!("unexpected reply {other:?}"),
            }
        }
        (head, lsns)
    };
    let (head, lsns) = shipped(&client.request(&hello()).unwrap());
    assert_eq!(head, synced, "the heartbeat must carry the synced head");
    assert!(
        lsns.iter().all(|&l| l < synced),
        "an unsynced record shipped: {lsns:?} (synced below {synced})"
    );

    time.advance(1_000);
    let lsn = writer.join().unwrap().unwrap();
    assert_eq!(lsn, synced);
    let (head, lsns) = shipped(&client.request(&hello()).unwrap());
    assert_eq!(head, lsn + 1);
    assert!(lsns.contains(&lsn), "the synced record must ship: {lsns:?}");
    std::fs::remove_dir_all(&base).ok();
}

/// Truncated or garbled quorum-envelope messages must die in the
/// decoder as typed `Protocol` errors — and when one arrives over the
/// wire, the server refuses it cleanly and keeps serving.
#[test]
fn net_truncated_quorum_ack_is_refused_and_server_survives() {
    // The decoder first: every truncation of a valid qack (and a vote
    // with a non-numeric LSN) is a typed refusal, never a panic.
    let full = ReplicaMsg::QuorumAck {
        node: "m1".into(),
        epoch: 3,
        applied_lsn: 9,
        synced_lsn: 9,
    }
    .encode();
    let text = String::from_utf8(full.clone()).unwrap();
    for cut in ["qack", "qack m1", "qack m1 3", "qack m1 3 9"] {
        assert!(
            matches!(
                ReplicaMsg::decode(cut.as_bytes()),
                Err(ReplicaError::Protocol(_))
            ),
            "truncation {cut:?} was not a typed protocol error"
        );
    }
    assert!(
        matches!(
            ReplicaMsg::decode(format!("{text} trailing").as_bytes()),
            Err(ReplicaError::Protocol(_))
        ),
        "trailing garbage accepted"
    );
    assert!(matches!(
        ReplicaMsg::decode(b"vote m1 3 cand notanumber"),
        Err(ReplicaError::Protocol(_))
    ));

    // Then the wire: a real replica server answers the truncated ack
    // with a typed `err` frame and survives for the next client.
    let base = tmp("qack");
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(&base.join("p"), cs.tmd, opts(), Io::plain()).unwrap();
    let primary = Arc::new(Mutex::new(PrimaryNode::new(
        "primary",
        GroupCommit::new(store, GroupConfig::default()),
        0,
    )));
    let server = ReplicaServer::spawn(
        &NetAddr::Tcp("127.0.0.1:0".into()),
        primary,
        ServerConfig::default(),
    )
    .unwrap();
    let mut rogue = NetClient::connect(server.addr().clone(), strict_cfg());
    let reply = rogue
        .rpc(b"qack m1 3 9")
        .expect("the refusal must be a clean frame");
    let reply_text = String::from_utf8(reply).unwrap();
    assert!(reply_text.starts_with("err "), "{reply_text}");
    assert_eq!(server.acked_lsn("m1"), 0, "truncated ack was recorded");

    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());
    let replies = client.request(&hello()).unwrap();
    assert!(
        matches!(replies.first(), Some(ReplicaMsg::Heartbeat { .. })),
        "{replies:?}"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// A vote request that does not open a new epoch is refused with the
/// typed `Fenced` error carrying the voter's current epoch.
#[test]
fn net_stale_epoch_vote_request_is_fenced() {
    let base = tmp("stalevote");
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    // The member is at epoch 5 (learnt from its primary's heartbeat).
    f.handle(ReplicaMsg::Heartbeat {
        epoch: 5,
        next_lsn: 1,
    })
    .unwrap();
    // A vote request from epoch 3 — decoded off the wire, as the
    // supervisor would deliver it — must be fenced, not granted.
    let stale = ReplicaMsg::decode(
        &ReplicaMsg::VoteRequest {
            candidate: "cand".into(),
            epoch: 3,
            synced_lsn: 99,
        }
        .encode(),
    )
    .unwrap();
    match f.handle(stale) {
        Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 5),
        other => panic!("expected Fenced, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// One candidate per epoch: re-granting the same candidate is
/// idempotent (lost grants can be re-requested), while a *different*
/// candidate in the same epoch is a typed protocol violation — the
/// split-vote guard.
#[test]
fn net_duplicate_vote_is_idempotent_and_second_candidate_refused() {
    let base = tmp("dupvote");
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    let req = |candidate: &str| {
        ReplicaMsg::decode(
            &ReplicaMsg::VoteRequest {
                candidate: candidate.into(),
                epoch: 7,
                synced_lsn: 42,
            }
            .encode(),
        )
        .unwrap()
    };
    let first = f.handle(req("cand-a")).expect("first vote granted");
    let again = f.handle(req("cand-a")).expect("re-grant is idempotent");
    assert_eq!(first, again, "duplicate grant differs from the original");
    assert!(
        matches!(
            first,
            Some(ReplicaMsg::VoteGrant { ref candidate, epoch: 7, .. }) if candidate == "cand-a"
        ),
        "{first:?}"
    );
    match f.handle(req("cand-b")) {
        Err(ReplicaError::Protocol(m)) => assert!(m.contains("already voted"), "{m}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A vote request whose credential ranks below the voter's own is
/// refused: electing it could lose quorum-acknowledged records.
#[test]
fn net_under_ranked_candidate_is_refused() {
    let base = tmp("rankvote");
    let cs = case_study::case_study();
    // Give the voter real state so its own position outranks a
    // candidate claiming less.
    let store = DurableTmd::create_with(&base.join("p"), cs.tmd, opts(), Io::plain()).unwrap();
    let position = store.wal_position();
    drop(store);
    let mut f = Follower::open("f1", base.join("p"), opts(), Io::plain()).unwrap();
    let lowball = ReplicaMsg::decode(
        &ReplicaMsg::VoteRequest {
            candidate: "cand".into(),
            epoch: 2,
            synced_lsn: position - 1,
        }
        .encode(),
    )
    .unwrap();
    match f.handle(lowball) {
        Err(ReplicaError::Protocol(m)) => assert!(m.contains("ranks below"), "{m}"),
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A frame that passes the CRC but does not decode as a protocol
/// message gets a typed `err` refusal — and the server survives to
/// serve the next, well-formed client.
#[test]
fn net_undecodable_payload_is_refused_and_server_survives() {
    let base = tmp("garbage");
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(&base.join("p"), cs.tmd, opts(), Io::plain()).unwrap();
    let primary = Arc::new(Mutex::new(PrimaryNode::new(
        "primary",
        GroupCommit::new(store, GroupConfig::default()),
        0,
    )));
    let server = ReplicaServer::spawn(
        &NetAddr::Tcp("127.0.0.1:0".into()),
        primary,
        ServerConfig::default(),
    )
    .unwrap();

    let mut rogue = NetClient::connect(server.addr().clone(), strict_cfg());
    let reply = rogue
        .rpc(b"warp speed")
        .expect("the refusal itself must be a clean frame");
    let text = String::from_utf8(reply).unwrap();
    assert!(text.starts_with("err "), "{text}");

    // A fresh, well-formed client is served normally afterwards.
    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());
    let replies = client.request(&hello()).unwrap();
    assert!(
        matches!(
            replies.first(),
            Some(ReplicaMsg::Heartbeat { epoch: 0, .. })
        ),
        "{replies:?}"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// Fuzz rows for the **batched frame envelope** — the async pump's
/// wire shape: one `batch` envelope carrying several `frames`
/// messages (many WAL frames per request/reply round-trip). A valid
/// envelope round-trips exactly; truncated or oversized inner frames
/// die in the decoder as typed `Protocol` errors, never a panic.
#[test]
fn net_batched_frame_envelope_rejects_truncated_and_oversized_inners() {
    use mvolap_durable::TailFrame;
    let frame = |lsn: u64, payload: &[u8]| TailFrame {
        lsn,
        crc: crc32(payload),
        payload: payload.to_vec(),
    };

    // The happy row first: heartbeat + two frames messages in one
    // envelope — exactly what a pump ships — survives the round-trip.
    let msgs = vec![
        ReplicaMsg::Heartbeat {
            epoch: 3,
            next_lsn: 7,
        },
        ReplicaMsg::Frames {
            epoch: 3,
            frames: vec![frame(4, b"alpha"), frame(5, b"beta gamma")],
        },
        ReplicaMsg::Frames {
            epoch: 3,
            frames: vec![frame(6, &[0, 1, 2, 255])],
        },
    ];
    assert_eq!(decode_batch(&encode_batch(&msgs)).unwrap(), msgs);

    // An envelope whose inner frames message is cut anywhere — or
    // lies about its counts — is a typed protocol refusal.
    let wrap = |inner: &str| format!("batch 1 {}", esc_bytes(inner.as_bytes())).into_bytes();
    let truncated_or_oversized = [
        // Truncations of `frames <epoch> <n> (<lsn> <crc> <payload>)*`.
        "frames",
        "frames 3",
        "frames 3 2",
        "frames 3 2 4",
        "frames 3 2 4 12345",
        "frames 3 2 4 12345 alpha",
        "frames 3 2 4 12345 alpha 5 678",
        // Inner count larger than the frames actually present.
        "frames 3 9 4 12345 alpha",
        // Inner count past the decoder's hard cap (1 << 20).
        "frames 3 99999999",
        "frames 3 18446744073709551615",
        // Non-numeric and overflowing frame fields.
        "frames 3 1 notanlsn 12345 alpha",
        "frames 3 1 4 99999999999 alpha",
    ];
    for inner in truncated_or_oversized {
        assert!(
            matches!(decode_batch(&wrap(inner)), Err(ReplicaError::Protocol(_))),
            "inner {inner:?} was not a typed protocol error"
        );
    }

    // Trailing garbage after a complete inner message is refused too.
    let mut good = String::from_utf8(
        ReplicaMsg::Frames {
            epoch: 3,
            frames: vec![frame(4, b"alpha")],
        }
        .encode(),
    )
    .unwrap();
    good.push_str(" trailing");
    assert!(matches!(
        decode_batch(&wrap(&good)),
        Err(ReplicaError::Protocol(_))
    ));

    // And the envelope itself: a batch count exceeding its own cap or
    // claiming more messages than present is refused before any inner
    // decode runs.
    for envelope in [
        b"batch 2".as_slice(),
        b"batch 99999999999999999999".as_slice(),
        b"batch 1048577".as_slice(),
    ] {
        assert!(
            matches!(decode_batch(envelope), Err(ReplicaError::Protocol(_))),
            "envelope {:?} was not a typed protocol error",
            String::from_utf8_lossy(envelope)
        );
    }
}

/// The membership wire records: truncated `snap` chunks and malformed
/// `reconfig` records die in the decoder as typed `Protocol` errors; a
/// reassembly whose bytes do not add up to the declared image size (a
/// lying chunk count) is refused and the assembly dropped; a
/// stale-epoch reconfig is fenced; and a server that receives a chunk
/// it never asked for answers with a typed `err` frame and survives.
#[test]
fn net_snap_chunk_and_reconfig_rows_are_typed_refusals() {
    // Decoder rows: truncations and structural lies, also wrapped in
    // the pump's batch envelope (the only way these ship for real).
    let rows = [
        "snap",                      // bare tag
        "snap 1",                    // epoch only
        "snap 1 2 0 1",              // no byte count, no chunk
        "snap 1 2 0 1 3",            // no chunk payload
        "snap 1 2 3 3 10 abc",       // seq outside total
        "snap 1 2 0 0 10 abc",       // zero total
        "snap 1 2 0 1 2 abc",        // chunk larger than declared image
        "snap 1 2 0 1 3 abc extra",  // trailing garbage
        "reconfig",                  // bare tag
        "reconfig 1 add m3",         // no address
        "reconfig 1 sideways m3 a",  // unknown direction
        "reconfig notanint add m a", // non-numeric epoch
    ];
    for row in rows {
        assert!(
            matches!(
                ReplicaMsg::decode(row.as_bytes()),
                Err(ReplicaError::Protocol(_))
            ),
            "row {row:?} was not a typed protocol error"
        );
        let enveloped = format!("batch 1 {}", esc_bytes(row.as_bytes())).into_bytes();
        assert!(
            matches!(decode_batch(&enveloped), Err(ReplicaError::Protocol(_))),
            "enveloped row {row:?} was not a typed protocol error"
        );
    }

    // Lying chunk count: both chunks arrive and the sequence is
    // complete, but the bytes do not add up to the declared image
    // size. The follower refuses with a typed `Protocol` error, drops
    // the assembly, and accepts a fresh (honest) restart at seq 0.
    let base = tmp("snapfuzz");
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    let chunk = |seq: u64, total_bytes: u64, body: &[u8]| ReplicaMsg::SnapChunk {
        epoch: 0,
        next_lsn: 9,
        seq,
        total: 2,
        total_bytes,
        chunk: body.to_vec(),
    };
    f.handle(chunk(0, 10, b"abc"))
        .expect("first chunk accepted");
    match f.handle(chunk(1, 10, b"def")) {
        Err(ReplicaError::Protocol(m)) => assert!(m.contains("lying"), "{m}"),
        other => panic!("lying chunk count accepted: {other:?}"),
    }
    // The poisoned assembly is gone: a continuation is refused as an
    // out-of-order start, not resumed.
    match f.handle(chunk(1, 6, b"def")) {
        Err(ReplicaError::Protocol(_)) => {}
        other => panic!("continuation after drop accepted: {other:?}"),
    }

    // Stale-epoch reconfig: a follower fenced at epoch 3 refuses an
    // epoch-1 reconfig with the typed `Fenced`, like any stale write.
    f.handle(ReplicaMsg::Fence { epoch: 3 }).unwrap();
    match f.handle(ReplicaMsg::Reconfig {
        epoch: 1,
        add: true,
        member: "m9".into(),
        addr: "tcp:127.0.0.1:0".into(),
    }) {
        Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 3),
        other => panic!("stale-epoch reconfig accepted: {other:?}"),
    }

    // A chunk the server never asked for: answered with a typed `err`
    // frame — no hang, and the next client is served normally.
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(&base.join("p"), cs.tmd, opts(), Io::plain()).unwrap();
    let primary = Arc::new(Mutex::new(PrimaryNode::new(
        "primary",
        GroupCommit::new(store, GroupConfig::default()),
        0,
    )));
    let server = ReplicaServer::spawn(
        &NetAddr::Tcp("127.0.0.1:0".into()),
        primary,
        ServerConfig::default(),
    )
    .unwrap();
    let mut rogue = NetClient::connect(server.addr().clone(), strict_cfg());
    let reply = rogue
        .rpc(&chunk(0, 3, b"abc").encode())
        .expect("the refusal must be a clean frame");
    let reply_text = String::from_utf8(reply).unwrap();
    assert!(reply_text.starts_with("err "), "{reply_text}");

    let mut client = NetClient::connect(server.addr().clone(), strict_cfg());
    let replies = client.request(&hello()).unwrap();
    assert!(
        matches!(replies.first(), Some(ReplicaMsg::Heartbeat { .. })),
        "{replies:?}"
    );
    std::fs::remove_dir_all(&base).ok();
}
