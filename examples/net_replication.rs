//! Networked replication walkthrough: a primary served over real TCP
//! on loopback, a follower syncing through the socket protocol,
//! promotion, and a fenced-write probe against the deposed server.
//!
//! The two-process deployment (what `--serve` and `--follow` run), in
//! one process, with every frame crossing a socket: the primary sits
//! behind a [`ReplicaServer`], the follower pulls
//! hello → heartbeat/frames → ack round trips through a
//! [`NetClient`], and epoch fencing is enforced at the protocol layer —
//! a single `fence` request at a newer epoch deposes the server for
//! every later caller.
//!
//! ```text
//! cargo run --example net_replication
//! ```
//!
//! CI runs this binary as the networked-failover acceptance check: it
//! exits non-zero unless the promoted follower answers the paper's Q1
//! byte-identically to the primary it replaced.

use std::sync::{Arc, Mutex};

use mvolap::core::case_study;
use mvolap::durable::{DurableTmd, FactRow, GroupCommit, GroupConfig, Io, Options, WalRecord};
use mvolap::prelude::*;
use mvolap::replica::{
    sync_follower, Follower, NetAddr, NetClient, NetConfig, PrimaryNode, ReplicaError, ReplicaMsg,
    ReplicaServer, ServerConfig,
};

const Q1: &str = "SELECT sum(Amount) BY year, Org.Division FOR 2001..2004 IN MODE tcm";

fn render(rs: &mvolap::core::ResultSet) -> Vec<String> {
    rs.rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r
                .cells
                .iter()
                .map(|c| match c.value {
                    Some(v) => format!("{v} ({:?})", c.confidence),
                    None => format!("? ({:?})", c.confidence),
                })
                .collect();
            format!("{} | {} | {}", r.time, r.keys.join(", "), cells.join(", "))
        })
        .collect()
}

fn main() {
    let base = std::env::temp_dir().join(format!("mvolap_net_replication_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).expect("temp dir");

    // 1. A primary on the paper's case study, served over loopback TCP.
    //    Port 0 lets the OS pick; the server reports the bound address.
    let cs = case_study::case_study();
    let store = DurableTmd::create_with(
        &base.join("primary"),
        cs.tmd,
        Options::default(),
        Io::plain(),
    )
    .expect("create primary store");
    let primary = Arc::new(Mutex::new(PrimaryNode::new(
        "primary",
        GroupCommit::new(store, GroupConfig::default()),
        0,
    )));
    let mut server = ReplicaServer::spawn(
        &NetAddr::Tcp("127.0.0.1:0".into()),
        Arc::clone(&primary),
        ServerConfig::default(),
    )
    .expect("bind loopback server");
    let addr = server.addr().clone();
    println!("primary serving on {addr} from {}", base.display());

    // 2. Evolve and load on the primary while it is being served.
    {
        let mut p = primary.lock().expect("primary lock");
        p.commit(WalRecord::Create {
            dim: cs.org,
            name: "Dpt.NanoTech".into(),
            level: Some("Department".into()),
            at: Instant::ym(2004, 1),
            parents: vec![cs.rnd],
        })
        .expect("create member");
        p.commit(WalRecord::FactBatch {
            rows: vec![
                FactRow {
                    coords: vec![cs.bill],
                    at: Instant::ym(2003, 5),
                    values: vec![55.0],
                },
                FactRow {
                    coords: vec![cs.paul],
                    at: Instant::ym(2003, 5),
                    values: vec![80.0],
                },
            ],
        })
        .expect("fact batch");
    }

    // 3. A follower syncs through the socket: hello → heartbeat +
    //    frames → ack, one CRC frame per request and reply, until its
    //    log is a byte-identical copy of the primary's.
    let mut follower = Follower::create("f1", base.join("f1"), Options::default(), Io::plain());
    let mut client = NetClient::connect(addr.clone(), NetConfig::default());
    loop {
        let round = sync_follower(&mut client, &mut follower).expect("sync round");
        if round.caught_up() {
            break;
        }
    }
    println!(
        "  follower caught up at LSN {} (server acked {})",
        follower.next_lsn(),
        server.acked_lsn("f1"),
    );

    let before = {
        let p = primary.lock().expect("primary lock");
        render(&mvolap::query::run(&p.schema(), Q1).expect("query"))
    };
    println!("\nQ1 on the primary:");
    for line in &before {
        println!("  {line}");
    }

    // 4. Fail over: the follower's store becomes a primary at epoch 1,
    //    and one fence request at the new epoch deposes the old server
    //    at the protocol layer — no shared memory, just the socket.
    let promoted_store = follower.into_primary_store().expect("promote follower");
    let promoted = PrimaryNode::new(
        "f1",
        GroupCommit::new(promoted_store, GroupConfig::default()),
        1,
    );
    let reply = client
        .request(&ReplicaMsg::Fence { epoch: 1 })
        .expect("fence rpc");
    assert_eq!(reply, vec![ReplicaMsg::Fence { epoch: 1 }]);
    println!(
        "\nf1 promoted to epoch {}; old server fenced over the wire",
        promoted.epoch()
    );

    // 5. The promoted follower answers Q1 byte-identically.
    let after = render(&mvolap::query::run(&promoted.schema(), Q1).expect("query"));
    println!("\nQ1 on the promoted follower:");
    for line in &after {
        println!("  {line}");
    }
    assert_eq!(
        after, before,
        "failover must preserve every acknowledged answer"
    );

    // 6. Fenced-write probe: the deposed primary refuses the write with
    //    the typed error, and the server refuses every later caller —
    //    a freshly syncing follower gets the same typed refusal.
    let probe = primary
        .lock()
        .expect("primary lock")
        .commit(WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![cs.smith],
                at: Instant::ym(2003, 7),
                values: vec![999.0],
            }],
        });
    match probe {
        Err(ReplicaError::Fenced { epoch }) => {
            println!("\ndeposed primary is fenced (epoch {epoch}): split-brain write refused")
        }
        other => panic!("expected Fenced, got {other:?}"),
    }
    let mut late = Follower::create("f2", base.join("f2"), Options::default(), Io::plain());
    match sync_follower(&mut client, &mut late) {
        Err(ReplicaError::Fenced { epoch }) => {
            println!("late follower refused by the fenced server (epoch {epoch})")
        }
        other => panic!("expected Fenced over the wire, got {other:?}"),
    }

    server.stop();
    println!("\nnetworked failover complete: promoted follower serves the same answers over TCP.");
    std::fs::remove_dir_all(&base).ok();
}
