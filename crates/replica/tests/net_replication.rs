//! Networked replication over real sockets on loopback: follower
//! catch-up through a [`ReplicaServer`], snapshot bootstrap, the
//! unix-socket variant, and time-based checkpoints on the served
//! primary. (The supervisor over `TcpTransport` and the loopback
//! failover sweep are exercised in `mvolap-cluster`.)
//!
//! Every test is named `net_*` so CI can run exactly this surface with
//! `cargo test -p mvolap-replica net_`.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use mvolap_core::case_study;
use mvolap_core::persist::write_tmd;
use mvolap_core::Tmd;
use mvolap_durable::{
    CheckpointPolicy, DurableTmd, FactRow, GroupCommit, GroupConfig, Io, Options, TimeSource,
    WalRecord,
};
use mvolap_replica::{
    sync_follower, Follower, NetAddr, NetClient, NetConfig, PrimaryNode, ReplicaError, ReplicaMsg,
    ReplicaServer, ServerConfig, SyncRound,
};
use mvolap_temporal::Instant;

const QUERY: &str = "SELECT sum(Amount) BY year, Org.Division IN MODE tcm";

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvolap_net_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> Options {
    Options {
        segment_bytes: 512,
        policy: CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    }
}

fn client_cfg() -> NetConfig {
    NetConfig {
        connect_timeout_ms: 2_000,
        read_timeout_ms: 2_000,
        write_timeout_ms: 2_000,
        reconnect_attempts: 1,
        backoff_start_ms: 1,
    }
}

fn serialise(tmd: &Tmd) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tmd(tmd, &mut buf).unwrap();
    buf
}

fn answer(tmd: &Tmd) -> String {
    let versions = tmd.structure_versions();
    format!(
        "{:?}",
        mvolap_query::run_with_versions(tmd, &versions, QUERY).unwrap()
    )
}

fn facts(coord: mvolap_core::MemberVersionId, month: u32, v: f64) -> WalRecord {
    WalRecord::FactBatch {
        rows: vec![FactRow {
            coords: vec![coord],
            at: Instant::ym(2003, month),
            values: vec![v],
        }],
    }
}

/// Spawns a [`ReplicaServer`] over a fresh store seeded with the case
/// study, at epoch 0.
fn spawn_server(bind: &NetAddr, dir: &std::path::Path) -> (ReplicaServer, case_study::CaseStudy) {
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(dir, cs.tmd.clone(), opts(), Io::plain()).unwrap();
    let primary = Arc::new(Mutex::new(PrimaryNode::new(
        "primary",
        GroupCommit::new(store, GroupConfig::default()),
        0,
    )));
    let server = ReplicaServer::spawn(bind, primary, ServerConfig::default()).unwrap();
    (server, cs)
}

/// Syncs `f` against the server until it holds the whole log (or
/// panics after a bounded number of rounds).
fn sync_until_caught_up(client: &mut NetClient, f: &mut Follower) -> SyncRound {
    for _ in 0..64 {
        let round = sync_follower(client, f).expect("sync round");
        if round.caught_up() {
            return round;
        }
    }
    panic!("follower failed to catch up over the network");
}

/// A follower syncs over TCP to a byte-identical store; after
/// promotion it answers the reference query identically, a fence probe
/// deposes the old server at the protocol layer, and the deposed node
/// refuses writes with the typed error.
#[test]
fn net_follower_syncs_over_tcp_then_promotion_fences_old_server() {
    let base = tmp("tcp_promote");
    let (server, cs) = spawn_server(&NetAddr::Tcp("127.0.0.1:0".into()), &base.join("p"));

    {
        let primary = server.primary();
        let mut p = primary.lock().unwrap();
        for m in 1..=5 {
            p.commit(facts(cs.brian, m, f64::from(m) * 10.0)).unwrap();
        }
    }

    let mut client = NetClient::connect(server.addr().clone(), client_cfg());
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    let round = sync_until_caught_up(&mut client, &mut f);

    let primary = server.primary();
    let expect_bytes;
    let expect_answer;
    {
        let p = primary.lock().unwrap();
        assert_eq!(round.next_lsn, p.wal_position());
        expect_bytes = serialise(&p.schema());
        expect_answer = answer(&p.schema());
        assert_eq!(serialise(f.schema().unwrap()), expect_bytes);
        // The logs themselves are byte-identical frame by frame.
        assert_eq!(
            p.group().with_store(|s| s.tail(1)).unwrap(),
            f.store().unwrap().tail(1).unwrap()
        );
    }
    assert_eq!(
        server.acked_lsn("f1"),
        round.next_lsn,
        "the ack travelled over the wire"
    );

    // Promote: the follower's store becomes a primary at epoch 1 and
    // answers run_with_versions byte-identically to the deposed one.
    let store = f.into_primary_store().unwrap();
    let promoted = PrimaryNode::new("f1", GroupCommit::new(store, GroupConfig::default()), 1);
    assert_eq!(serialise(&promoted.schema()), expect_bytes);
    assert_eq!(answer(&promoted.schema()), expect_answer);

    // Fence the old server at the protocol layer: a newer-epoch fence
    // request deposes it on the spot.
    let reply = client.request(&ReplicaMsg::Fence { epoch: 1 }).unwrap();
    assert_eq!(reply, vec![ReplicaMsg::Fence { epoch: 1 }]);
    {
        let mut p = primary.lock().unwrap();
        assert!(p.is_fenced());
        match p.commit(facts(cs.brian, 6, 1.0)) {
            Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 1),
            other => panic!("expected Fenced, got {other:?}"),
        }
    }
    // And over the wire the deposed server serves nothing but fence.
    let mut f2 = Follower::create("f2", base.join("f2"), opts(), Io::plain());
    match sync_follower(&mut client, &mut f2) {
        Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 1),
        other => panic!("expected Fenced over the wire, got {other:?}"),
    }
    std::fs::remove_dir_all(&base).ok();
}

/// A follower joining after the server pruned its log is bootstrapped
/// from a checkpoint snapshot over the socket, at the right LSN.
#[test]
fn net_late_joiner_bootstraps_from_snapshot_over_tcp() {
    let base = tmp("tcp_snapshot");
    let (server, cs) = spawn_server(&NetAddr::Tcp("127.0.0.1:0".into()), &base.join("p"));

    let primary = server.primary();
    let oldest;
    {
        let mut p = primary.lock().unwrap();
        for m in 1..=10 {
            p.commit(facts(cs.brian, m.min(12), 1.0)).unwrap();
        }
        p.checkpoint().unwrap();
        oldest = p.group().with_store(DurableTmd::oldest_lsn).unwrap();
        assert!(oldest > 1, "512-byte segments must have pruned");
    }

    let mut client = NetClient::connect(server.addr().clone(), client_cfg());
    let mut f = Follower::create("late", base.join("late"), opts(), Io::plain());
    sync_until_caught_up(&mut client, &mut f);

    let p = primary.lock().unwrap();
    assert_eq!(f.next_lsn(), p.wal_position());
    assert_eq!(serialise(f.schema().unwrap()), serialise(&p.schema()));
    assert!(
        f.store().unwrap().oldest_lsn().unwrap() >= oldest,
        "the follower was served the snapshot path, not a replay from LSN 1 \
         (its oldest: {}, primary's: {oldest})",
        f.store().unwrap().oldest_lsn().unwrap()
    );
    std::fs::remove_dir_all(&base).ok();
}

/// The same server and client code runs over a unix socket: only the
/// address differs.
#[cfg(unix)]
#[test]
fn net_unix_socket_serves_the_same_protocol() {
    let base = tmp("unix");
    let sock = base.join("replica.sock");
    let addr = NetAddr::parse(&format!("unix:{}", sock.display())).unwrap();
    let (server, cs) = spawn_server(&addr, &base.join("p"));
    assert_eq!(server.addr(), &addr);

    let primary = server.primary();
    {
        let mut p = primary.lock().unwrap();
        for m in 1..=3 {
            p.commit(facts(cs.bill, m, 7.0)).unwrap();
        }
    }
    let mut client = NetClient::connect(addr, client_cfg());
    let mut f = Follower::create("f1", base.join("f"), opts(), Io::plain());
    sync_until_caught_up(&mut client, &mut f);
    let p = primary.lock().unwrap();
    assert_eq!(serialise(f.schema().unwrap()), serialise(&p.schema()));
    std::fs::remove_dir_all(&base).ok();
}

/// `CheckpointPolicy::max_tail_age_ms` on a manual [`TimeSource`]: the
/// served primary checkpoints once its tail has sat long enough on the
/// store's own timeline, and a fenced primary is frozen.
#[test]
fn net_manual_time_drives_time_based_checkpoints() {
    let base = tmp("clock_ckpt");
    let cs = case_study::case_study();
    let time = TimeSource::manual(0);
    let mut store = DurableTmd::create_with(
        &base,
        cs.tmd.clone(),
        Options {
            segment_bytes: 2048,
            policy: CheckpointPolicy::max_tail_age(1_000),
            prune_on_checkpoint: true,
        },
        Io::plain(),
    )
    .unwrap();
    store.set_time_source(time.clone());
    let mut p = PrimaryNode::new(
        "primary",
        GroupCommit::new(store, GroupConfig::default()),
        0,
    );

    p.commit(facts(cs.brian, 1, 1.0)).unwrap();
    assert!(p.maybe_checkpoint().unwrap().is_none(), "tail too young");
    time.advance(999);
    assert!(p.maybe_checkpoint().unwrap().is_none(), "one ms short");
    time.advance(1);
    let id = p.maybe_checkpoint().unwrap().expect("tail aged out");
    assert_eq!(id.next_lsn, p.wal_position());
    assert!(p.maybe_checkpoint().unwrap().is_none(), "tail now empty");

    // A fenced node's store is frozen: no more checkpoint driving.
    p.commit(facts(cs.brian, 2, 2.0)).unwrap();
    time.advance(5_000);
    p.fence(1);
    assert!(p.maybe_checkpoint().unwrap().is_none(), "fenced: frozen");
    std::fs::remove_dir_all(&base).ok();
}
