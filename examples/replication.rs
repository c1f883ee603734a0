//! Replication walkthrough: evolve → replicate at quorum → crash the
//! primary → the group elects a successor → the query answer survives
//! byte-for-byte → a deposed primary refuses writes.
//!
//! Bootstraps a three-node group (a primary plus members `m1` and `m2`)
//! on the paper's case study over the in-process transport, and
//! journals an evolution and a fact load through majority-acknowledged
//! commits. Then the primary crashes; after a few silent rounds the
//! supervisor elects the best-placed member, which answers the paper's
//! Q1 exactly as the primary would have — from a byte-identical log.
//! The crashed node recovers and rejoins, and an operator failover
//! hands leadership back to it: the deposed primary is fenced and
//! refuses a split-brain write.
//!
//! ```text
//! cargo run --example replication
//! ```

use mvolap::cluster::{ClusterConfig, ClusterEvent, ClusterSet};
use mvolap::core::case_study;
use mvolap::durable::{FactRow, GroupConfig, Io, Options, WalRecord};
use mvolap::prelude::*;
use mvolap::replica::{ChannelTransport, ReplicaError};

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

fn q1(set: &ClusterSet<ChannelTransport>) -> Vec<String> {
    let schema = set.primary().expect("a primary serves").schema();
    render(&mvolap::query::run(&schema, Q1).expect("query"))
}

fn main() {
    let base = std::env::temp_dir().join(format!("mvolap_replication_{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).expect("temp dir");

    // 1. Bootstrap the group: a primary journaling to `base/primary`
    //    and two members that build their own WAL + checkpoint stores
    //    under `base/m1` and `base/m2`, fed over an in-process transport.
    let cs = case_study::case_study();
    let mut set = ClusterSet::bootstrap(
        &base,
        cs.tmd,
        Options::default(),
        GroupConfig::default(),
        ClusterConfig::default(),
        ChannelTransport::new(),
        Io::plain(),
    )
    .expect("bootstrap primary");
    set.add_member("m1", Io::plain());
    set.add_member("m2", Io::plain());
    println!("primary + members m1, m2 under {}", base.display());

    // 2. Evolve and load. Each commit returns only once a majority
    //    (2 of 3) holds it durably; every shipped frame is CRC-checked
    //    in transit and replayed through the validated apply path.
    set.commit_quorum(WalRecord::Create {
        dim: cs.org,
        name: "Dpt.NanoTech".into(),
        level: Some("Department".into()),
        at: Instant::ym(2004, 1),
        parents: vec![cs.rnd],
    })
    .expect("create member");
    set.commit_quorum(WalRecord::FactBatch {
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
    set.run_ticks(2);
    let p = set.primary().expect("alive");
    println!(
        "  head LSN {}, quorum watermark {}, m1 at {}, m2 at {}",
        p.wal_position(),
        p.quorum_lsn(),
        set.member_synced("m1"),
        set.member_synced("m2"),
    );
    let before = q1(&set);
    println!("\nQ1 on the primary:");
    for line in &before {
        println!("  {line}");
    }

    // 3. The primary crashes. After `heartbeat_miss_limit` silent
    //    rounds the supervisor runs a deterministic election: the
    //    member with the highest (synced LSN, name) wins, and it holds
    //    every quorum-acknowledged record.
    drop(set.kill_primary());
    let elected = set.run_ticks(8).into_iter().find_map(|e| match e {
        ClusterEvent::Elected { node, epoch } => Some((node, epoch)),
        _ => None,
    });
    let (winner, epoch) = elected.expect("the survivors elect a primary");
    println!("\nprimary crashed; {winner} elected at epoch {epoch}");

    // 4. The new primary answers Q1 identically.
    let after = q1(&set);
    println!("\nQ1 on {winner}:");
    for line in &after {
        println!("  {line}");
    }
    assert_eq!(
        after, before,
        "failover must preserve every acknowledged answer"
    );

    // 5. The crashed node recovers from its own directory and rejoins,
    //    cutting any suffix the group never acknowledged; then an
    //    operator failover hands leadership back to it.
    let rejoin = set.rejoin_member("primary").expect("rejoin");
    set.run_ticks(4);
    let (back, epoch) = set.elect().expect("operator failover");
    println!("\nold primary rejoined ({rejoin:?}); {back} leads again at epoch {epoch}");
    assert_eq!(q1(&set), before, "the handover preserves every answer");

    // 6. Fencing: the deposed primary refuses writes at its stale epoch.
    let retired = set.retired_mut().expect("deposed primary retained");
    match retired.commit(WalRecord::FactBatch {
        rows: vec![FactRow {
            coords: vec![cs.smith],
            at: Instant::ym(2003, 7),
            values: vec![999.0],
        }],
    }) {
        Err(ReplicaError::Fenced { epoch }) => {
            println!("\ndeposed {winner} is fenced (epoch {epoch}): split-brain write refused")
        }
        other => panic!("expected Fenced, got {other:?}"),
    }

    println!(
        "\nfailover complete: every primary served the same answers from a byte-identical log."
    );
    std::fs::remove_dir_all(&base).ok();
}
