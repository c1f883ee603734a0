//! Cluster integration tests: quorum commit, byte-identical replay,
//! divergence refusal, deterministic election, fencing,
//! truncation-on-rejoin, read routing, the async pumps, and the full
//! fault-injection sweeps (which also cover snapshot bootstrap, member
//! crash/restart and supervision over loopback TCP).

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use mvolap_cluster::{
    cluster_sweep, cluster_sweep_net, ClusterConfig, ClusterEvent, ClusterSet, LocalCluster,
    MemberPump, PumpConfig, PumpShared, PumpState, PumpStep, PumpTracker, RejoinOutcome,
};
use mvolap_core::{case_study, Tmd};
use mvolap_durable::fault::{generate, Step};
use mvolap_durable::{
    CheckpointPolicy, DurableError, DurableTmd, FactRow, FaultPlan, GroupCommit, GroupConfig, Io,
    Options, TailFrame, TimeSource, WalRecord,
};
use mvolap_replica::{
    ChannelTransport, Follower, NetAddr, NetConfig, ReplicaError, ReplicaMsg, ReplicaTransport,
    TailSource, WalTailer,
};
use mvolap_server::{ServerError, ServerOptions};
use mvolap_temporal::Instant;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvolap_cluster_{name}_{}", std::process::id()));
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

fn group_cfg() -> GroupConfig {
    GroupConfig {
        hold_ms: 0,
        time: TimeSource::manual(0),
    }
}

/// A three-node group (primary + m1 + m2) with `n` quorum-committed
/// records from the seeded workload, plus the remaining records of the
/// workload for later use.
fn three_nodes(dir: &Path, n: usize) -> (ClusterSet<ChannelTransport>, Vec<WalRecord>) {
    let workload = generate(7, n + 4);
    let mut records: Vec<WalRecord> = workload
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Op(r) => Some(r.clone()),
            Step::Checkpoint => None,
        })
        .collect();
    let rest = records.split_off(n);
    let mut set = ClusterSet::bootstrap(
        dir,
        workload.seed_schema.clone(),
        opts(),
        group_cfg(),
        ClusterConfig::default(),
        ChannelTransport::new(),
        Io::plain(),
    )
    .expect("bootstrap");
    set.add_member("m1", Io::plain());
    set.add_member("m2", Io::plain());
    for r in records {
        set.commit_quorum(r).expect("quorum commit");
    }
    (set, rest)
}

#[test]
fn quorum_commit_advances_watermark_and_members() {
    let dir = tmp("watermark");
    let (set, _) = three_nodes(&dir, 5);
    let p = set.primary().expect("primary alive");
    let head = p.wal_position();
    assert!(
        p.quorum_lsn() >= head - 1,
        "watermark {} never caught head {head}",
        p.quorum_lsn()
    );
    // A majority acked every commit; with a fully-connected channel
    // transport *both* members end up at the head.
    for m in ["m1", "m2"] {
        assert!(
            set.member_synced(m) >= head - 1,
            "{m} synced only to {}",
            set.member_synced(m)
        );
    }
    assert_eq!(set.quorum_required(), 2);
    assert_eq!(set.group_size(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn commit_without_reachable_members_is_unreplicated() {
    let dir = tmp("unreplicated");
    let workload = generate(3, 2);
    let record = workload
        .steps
        .iter()
        .find_map(|s| match s {
            Step::Op(r) => Some(r.clone()),
            Step::Checkpoint => None,
        })
        .unwrap();
    // Both members crash on their very first I/O primitive: they exist
    // but can never fsync, so no ack ever arrives and the commit must
    // surface the typed unreplicated error while staying locally
    // durable.
    let mut set = ClusterSet::bootstrap(
        &dir,
        workload.seed_schema,
        opts(),
        group_cfg(),
        ClusterConfig {
            commit_ticks: 4,
            ..ClusterConfig::default()
        },
        ChannelTransport::new(),
        Io::plain(),
    )
    .expect("bootstrap");
    set.add_member(
        "m1",
        Io::faulty(mvolap_durable::FaultPlan::crash_after(0, 1)),
    );
    set.add_member(
        "m2",
        Io::faulty(mvolap_durable::FaultPlan::crash_after(0, 1)),
    );
    match set.commit_quorum(record) {
        Err(ReplicaError::Durable(DurableError::Unreplicated { lsn, acked })) => {
            assert_eq!(acked, 1, "only the primary's own fsync counts");
            assert!(lsn >= 2);
        }
        other => panic!("expected Unreplicated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn election_is_deterministic_and_fences_the_deposed_primary() {
    let dir = tmp("election");
    let (mut set, rest) = three_nodes(&dir, 5);
    let epoch_before = set.epoch();
    let old = set.kill_primary().expect("primary present");
    drop(old);
    let (winner, epoch) = set.elect().expect("two live members elect");
    // Both members are at the same LSN, so the tie breaks on the
    // member id — deterministically the lexically greatest.
    assert_eq!(winner, "m2");
    assert!(epoch > epoch_before);
    assert_eq!(set.primary().expect("new primary").name(), "m2");
    assert_eq!(set.primary().expect("new primary").epoch(), epoch);
    // m2 left the member set; m1 remains.
    assert_eq!(set.member_names(), vec!["m1".to_string()]);
    // The group keeps committing at quorum (primary + m1 = 2 of 3).
    let mut rest = rest;
    let r = rest.remove(0);
    set.commit_quorum(r).expect("post-failover quorum commit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn operator_failover_fences_live_primary() {
    let dir = tmp("failover");
    let (mut set, mut rest) = three_nodes(&dir, 5);
    // Planned handover: the primary is alive and yields.
    let (winner, epoch) = set.elect().expect("operator failover");
    assert_eq!(winner, "m2");
    let retired = set.retired_mut().expect("deposed primary retained");
    assert!(retired.is_fenced());
    match retired.commit(rest.remove(0)) {
        Err(ReplicaError::Fenced { epoch: at }) => assert_eq!(at, epoch),
        other => panic!("deposed primary accepted a write: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rejoin_truncates_unquorumed_suffix() {
    let dir = tmp("rejoin");
    let (mut set, mut rest) = three_nodes(&dir, 5);
    // Two more commits that never replicate: locally durable only.
    let first_lost = set.commit_local(rest.remove(0)).expect("local commit");
    set.commit_local(rest.remove(0)).expect("local commit");
    let old = set.kill_primary().expect("primary present");
    drop(old);
    let (winner, _) = set.elect().expect("election");
    assert_eq!(winner, "m2");
    // The deposed primary's log runs past the group's history; rejoin
    // must cut the un-quorum'd suffix at the divergence point.
    match set.rejoin_member("primary").expect("rejoin") {
        RejoinOutcome::Truncated { cut } => assert_eq!(cut, first_lost),
        other => panic!("expected truncation, got {other:?}"),
    }
    // And it now follows the new primary faithfully.
    let head = set.primary().expect("primary").wal_position();
    set.run_ticks(32);
    assert!(set.member("primary").expect("rejoined").next_lsn() >= head);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn election_without_any_member_state_is_refused() {
    let dir = tmp("noquorum");
    let workload = generate(11, 2);
    let mut set = ClusterSet::bootstrap(
        &dir,
        workload.seed_schema,
        opts(),
        group_cfg(),
        ClusterConfig::default(),
        ChannelTransport::new(),
        Io::plain(),
    )
    .expect("bootstrap");
    let old = set.kill_primary().expect("primary present");
    drop(old);
    match set.elect() {
        Err(ReplicaError::NoQuorum {
            votes, required, ..
        }) => {
            assert!(votes < required);
        }
        other => panic!("expected NoQuorum, got {other:?}"),
    }
    assert!(set.primary().is_none(), "no primary may appear sans quorum");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn read_routing_picks_the_freshest_member() {
    let dir = tmp("routing");
    let (set, _) = three_nodes(&dir, 5);
    let head = set.primary().expect("primary").wal_position();
    // Both members are at the head; the router must satisfy a bound
    // just under it and break the tie deterministically.
    let chosen = set.route_read(head - 1).expect("a member qualifies");
    assert_eq!(chosen, "m2");
    // A bound beyond every member is unsatisfiable.
    assert!(set.route_read(head + 10).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// The quorum-envelope row the wire fuzz table cannot cover: a forged
/// ack claiming a *future* LSN decodes fine, so the refusal is
/// semantic — the supervisor must cap the claim at the primary's head
/// so neither the quorum watermark nor read routing ever points past
/// records that exist.
#[test]
fn forged_future_lsn_ack_never_advances_the_watermark() {
    let dir = tmp("forged_ack");
    let (mut set, _) = three_nodes(&dir, 4);
    let head = set.primary().expect("primary").wal_position();
    let epoch = set.epoch();
    set.transport_mut()
        .send(
            "primary",
            &ReplicaMsg::QuorumAck {
                node: "m1".to_string(),
                epoch,
                applied_lsn: head + 500,
                synced_lsn: head + 500,
            },
        )
        .unwrap();
    set.run_ticks(4);
    let p = set.primary().expect("primary");
    assert!(
        p.quorum_lsn() <= p.wal_position(),
        "forged ack pushed the watermark past the head"
    );
    assert!(
        set.member_synced("m1") <= head,
        "forged ack inflated m1's position to {}",
        set.member_synced("m1")
    );
    assert!(
        set.route_read(head + 100).is_none(),
        "read routed to a position nobody holds"
    );
    // An ack from a *future epoch* is ignored outright.
    set.transport_mut()
        .send(
            "primary",
            &ReplicaMsg::QuorumAck {
                node: "m1".to_string(),
                epoch: epoch + 10,
                applied_lsn: head + 500,
                synced_lsn: head + 500,
            },
        )
        .unwrap();
    set.run_ticks(4);
    assert!(set.member_synced("m1") <= head);
    std::fs::remove_dir_all(&dir).ok();
}

/// A case-study group: the primary plus `members`, on 512-byte
/// segments so a checkpoint prunes quickly, over `transport`.
fn case_study_group<T: ReplicaTransport>(
    dir: &Path,
    members: &[&str],
    transport: T,
) -> (ClusterSet<T>, case_study::CaseStudy) {
    let cs = case_study::case_study();
    let mut set = ClusterSet::bootstrap(
        dir,
        cs.tmd.clone(),
        Options {
            segment_bytes: 512,
            ..opts()
        },
        group_cfg(),
        ClusterConfig::default(),
        transport,
        Io::plain(),
    )
    .expect("bootstrap");
    for m in members {
        set.add_member(m, Io::plain());
    }
    (set, cs)
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

fn serialise(tmd: &Tmd) -> Vec<u8> {
    let mut buf = Vec::new();
    mvolap_core::persist::write_tmd(tmd, &mut buf).unwrap();
    buf
}

fn answer(tmd: &Tmd) -> String {
    const Q: &str = "SELECT sum(Amount) BY year, Org.Division IN MODE tcm";
    let versions = tmd.structure_versions();
    format!(
        "{:?}",
        mvolap_query::run_with_versions(tmd, &versions, Q).unwrap()
    )
}

/// Asserts member `name` holds the primary's exact state: the same
/// serialised schema, the same query answer and the same log, frame by
/// frame.
fn assert_replica_identical<T: ReplicaTransport>(set: &ClusterSet<T>, name: &str) {
    let p = set.primary().expect("primary alive");
    let m = set.member(name).expect("member exists");
    assert_eq!(m.next_lsn(), p.wal_position(), "{name} lags");
    let schema = m.schema().expect("bootstrapped");
    assert_eq!(serialise(schema), serialise(&p.schema()), "{name} state");
    assert_eq!(answer(schema), answer(&p.schema()), "{name} answer");
    let oldest = m.store().unwrap().oldest_lsn().unwrap();
    assert_eq!(
        m.store().unwrap().tail(oldest).unwrap(),
        p.group().with_store(|s| s.tail(oldest)).unwrap(),
        "{name} log"
    );
}

/// Members replay the primary's evolutions through the validated path
/// into byte-identical logs — even for member names full of wire
/// metacharacters (spaces, backslashes, tabs, newlines, non-ASCII),
/// which must survive the escaped token encoding end to end.
#[test]
fn members_replay_byte_identical_logs_with_awkward_names() {
    let dir = tmp("identical");
    let (mut set, cs) = case_study_group(&dir, &["m1", "m2"], ChannelTransport::new());
    for name in [
        "Dept with spaces",
        "back\\slash\\dept",
        "tab\tand\nnewline",
        "unicode—départ№7",
        " leading and trailing ",
    ] {
        set.commit_quorum(WalRecord::Create {
            dim: cs.org,
            name: name.into(),
            level: Some("Department".into()),
            at: Instant::ym(2004, 1),
            parents: vec![cs.sales],
        })
        .unwrap();
    }
    for m in 1..=4 {
        set.commit_quorum(facts(cs.brian, m, f64::from(m) * 10.0))
            .unwrap();
    }
    set.run_ticks(4);
    assert_replica_identical(&set, "m1");
    assert_replica_identical(&set, "m2");
    std::fs::remove_dir_all(&dir).ok();
}

/// Delivers member `name` a duplicate of LSN 2 with a different
/// checksum — the claim that some other history holds that position —
/// and returns the events of the round that refuses it.
fn forge_divergence<T: ReplicaTransport>(set: &mut ClusterSet<T>, name: &str) -> Vec<ClusterEvent> {
    let genuine = set
        .primary()
        .unwrap()
        .group()
        .with_store(|s| s.tail(2))
        .unwrap()
        .remove(0);
    let forged = TailFrame {
        crc: genuine.crc ^ 0xDEAD_BEEF,
        ..genuine
    };
    let epoch = set.epoch();
    set.transport_mut()
        .send(
            name,
            &ReplicaMsg::Frames {
                epoch,
                frames: vec![forged],
            },
        )
        .unwrap();
    set.tick()
}

/// A frame whose CRC contradicts a member's own log at the same LSN is
/// a divergence: refused with the typed error, sticky, and the refusing
/// member is never elected — even though it outranks its peer.
#[test]
fn divergent_frame_is_refused_sticky_and_never_elected() {
    let dir = tmp("diverge");
    let (mut set, cs) = case_study_group(&dir, &["m1", "m2"], ChannelTransport::new());
    for m in 1..=3 {
        set.commit_quorum(facts(cs.brian, m, 5.0)).unwrap();
    }
    let events = forge_divergence(&mut set, "m2");
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ClusterEvent::MemberRefused { node, .. } if node == "m2")),
        "{events:?}"
    );
    assert!(matches!(
        set.member("m2").unwrap().refusal_error(),
        Some(ReplicaError::Diverged { lsn: 2, .. })
    ));
    // Sticky: later commits never reach it.
    let at = set.member("m2").unwrap().next_lsn();
    set.commit_quorum(facts(cs.brian, 4, 5.0)).unwrap();
    set.run_ticks(4);
    assert!(set.member_refusing("m2"));
    assert_eq!(set.member("m2").unwrap().next_lsn(), at);
    // m2 outranks m1 on the tie-break, yet the failover seats m1.
    let (winner, _) = set.elect().expect("operator failover");
    assert_eq!(winner, "m1");
    std::fs::remove_dir_all(&dir).ok();
}

/// A vote grant redelivered by the transport (a retried send whose
/// first attempt did arrive) counts once: two real votes of five never
/// seat a primary.
#[test]
fn duplicate_vote_grant_counts_once() {
    let dir = tmp("dupvote");
    let (mut set, cs) = case_study_group(&dir, &["m1", "m2", "m3", "m4"], ChannelTransport::new());
    set.commit_quorum(facts(cs.brian, 1, 5.0)).unwrap();
    set.commit_quorum(facts(cs.brian, 2, 5.0)).unwrap();
    // m1 and m2 refuse replay, so they never vote: only m3 can back m4.
    forge_divergence(&mut set, "m1");
    forge_divergence(&mut set, "m2");
    drop(set.kill_primary());
    let epoch = set.epoch() + 1;
    let grant = ReplicaMsg::VoteGrant {
        node: "m3".into(),
        epoch,
        candidate: "m4".into(),
        synced_lsn: set.member("m3").unwrap().next_lsn(),
    };
    set.transport_mut().send("supervisor", &grant).unwrap();
    match set.elect() {
        Err(ReplicaError::NoQuorum {
            votes: 2,
            required: 3,
            ..
        }) => {}
        other => panic!("a redelivered grant swung the election: {other:?}"),
    }
    assert!(set.primary().is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// A failover preserves every answer — down to the exported §5.1
/// warehouse tables — fences the deposed primary against writes and
/// checkpoints, and members refuse the stale epoch's traffic.
#[test]
fn failover_preserves_answers_and_fences_stale_epochs() {
    let dir = tmp("fence");
    let (mut set, cs) = case_study_group(&dir, &["m1", "m2"], ChannelTransport::new());
    for m in 1..=4 {
        set.commit_quorum(facts(cs.paul, m, 3.0)).unwrap();
    }
    let digest = |tmd: &Tmd| {
        mvolap_storage::persist::catalog_digest(
            &mvolap_core::logical::build_multiversion_warehouse(tmd).unwrap(),
        )
    };
    let before = set.primary().unwrap().schema();
    let (winner, epoch) = set.elect().expect("operator failover");
    assert_eq!((winner.as_str(), epoch), ("m2", 1));
    let after = set.primary().unwrap().schema();
    assert_eq!(serialise(&after), serialise(&before));
    assert_eq!(answer(&after), answer(&before));
    assert_eq!(digest(&after), digest(&before));

    let retired = set.retired_mut().unwrap();
    assert!(matches!(
        retired.commit(facts(cs.paul, 5, 9.9)),
        Err(ReplicaError::Fenced { epoch: 1 })
    ));
    assert!(matches!(
        retired.checkpoint(),
        Err(ReplicaError::Fenced { epoch: 1 })
    ));

    // m1 learns the new epoch; a stale-epoch frame batch is fenced
    // before it is even checked, so it neither applies nor refuses.
    set.run_ticks(2);
    assert_eq!(set.member("m1").unwrap().epoch(), 1);
    let at = set.member("m1").unwrap().next_lsn();
    let frames = set
        .primary()
        .unwrap()
        .group()
        .with_store(|s| s.tail(1))
        .unwrap();
    set.transport_mut()
        .send("m1", &ReplicaMsg::Frames { epoch: 0, frames })
        .unwrap();
    set.tick();
    assert!(!set.member_refusing("m1"));
    assert_eq!(set.member("m1").unwrap().next_lsn(), at);
    std::fs::remove_dir_all(&dir).ok();
}

/// The served three-node loopback group: quorum-gated commits over the
/// wire, fleet read routing with the member named in refusals.
#[test]
fn served_cluster_quorums_commits_and_routes_reads() {
    let dir = tmp("served");
    let workload = generate(5, 3);
    let records: Vec<WalRecord> = workload
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Op(r) => Some(r.clone()),
            Step::Checkpoint => None,
        })
        .collect();
    let loopback = NetAddr::parse("127.0.0.1:0").unwrap();
    let mut cluster = LocalCluster::start(
        &dir,
        workload.seed_schema.clone(),
        &loopback,
        &[
            ("m1".to_string(), loopback.clone()),
            ("m2".to_string(), loopback.clone()),
        ],
        opts(),
        GroupConfig::default(),
        ServerOptions {
            quorum_timeout_ms: 300,
            ..ServerOptions::default()
        },
        NetConfig::default(),
    )
    .expect("cluster starts");

    // 1. With nobody pumping replication, a commit is locally durable
    //    but the quorum never forms: typed unreplicated refusal.
    let mut client = cluster.client(NetConfig::default());
    match client.commit(&records[0]) {
        Err(ServerError::Unreplicated { acked, .. }) => {
            assert_eq!(acked, 1, "only the primary acked");
        }
        other => panic!("expected Unreplicated, got {other:?}"),
    }

    // 2. One caller-driven round reports per-member results — every
    //    member ships, nobody aborts the round.
    let round = cluster.pump();
    assert_eq!(round.len(), 2, "one result slot per member");
    for (name, res) in &round {
        let applied = res
            .as_ref()
            .unwrap_or_else(|e| panic!("{name} failed: {e}"));
        assert!(*applied > 0, "{name} applied nothing");
    }

    // 3. Hand replication to the async pump threads: the same commit
    //    path clears the quorum with nobody driving a loop.
    cluster.spawn_pumps(PumpConfig::default());
    let group = cluster.group();
    let lsn = client.commit(&records[1]).expect("quorum commit over wire");
    assert!(group.quorum_lsn() > lsn);
    for (name, status) in cluster.pump_status() {
        assert!(
            !matches!(
                status.state,
                PumpState::Stalled { .. } | PumpState::Fenced { .. }
            ),
            "pump for {name} unhealthy: {:?}",
            status.state
        );
    }

    // 4. Fleet read routing: a bound at the committed LSN is served
    //    by a member (freshness advanced by the pump threads alone);
    //    an unsatisfiable bound is refused naming the freshest member
    //    consulted.
    let out = client.read_at(lsn, "SELECT sum(Amount) BY year IN MODE tcm");
    let table = out.expect("fleet read served");
    assert!(!table.is_empty());
    match client.read_at(lsn + 100, "SELECT sum(Amount) BY year IN MODE tcm") {
        Err(ServerError::TooStale {
            required, member, ..
        }) => {
            assert_eq!(required, lsn + 100);
            let who = member.expect("fleet refusal names the member");
            assert!(who == "m1" || who == "m2", "unexpected member {who}");
        }
        other => panic!("expected TooStale with member, got {other:?}"),
    }
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
}

/// Extracts the plain ops of a generated workload.
fn ops(workload: &mvolap_durable::fault::Workload) -> Vec<WalRecord> {
    workload
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Op(r) => Some(r.clone()),
            Step::Checkpoint => None,
        })
        .collect()
}

/// Drives a pump until it reports Idle, panicking on anything other
/// than progress/blocked along the way.
fn drive_to_idle(pump: &mut MemberPump) {
    for _ in 0..200 {
        match pump.step() {
            PumpStep::Idle => return,
            PumpStep::Progress { .. } | PumpStep::Blocked { .. } => {}
            other => panic!("pump for {} derailed: {other:?}", pump.member()),
        }
    }
    panic!("pump for {} never converged", pump.member());
}

/// Backpressure: a member that stops acking caps the primary's
/// in-flight window — bounded queue, typed `Blocked` state in the
/// tracker, no further fetches — and the pump recovers cleanly when
/// the member heals. A member whose store crashes is typed `Stalled`
/// with every retry gated by the manual clock. Fully deterministic:
/// the engine is stepped directly, no threads.
#[test]
fn pump_backpressure_caps_window_and_recovers_on_heal() {
    let dir = tmp("backpressure");
    let workload = generate(9, 16);
    let records = ops(&workload);
    assert!(records.len() >= 12);
    let primary_dir = dir.join("primary");
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        opts(),
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    commit.configure_quorum(2);
    let follower = Arc::new(Mutex::new(Follower::create(
        "m1",
        dir.join("m1"),
        opts(),
        Io::plain(),
    )));
    let time = TimeSource::manual(0);
    let cfg = PumpConfig {
        max_batch_frames: 2,
        max_inflight_frames: 4,
        max_inflight_bytes: 1 << 16,
        snap_chunk_bytes: 64 << 10,
        idle_wait_ms: 1,
        retry_wait_ms: 30,
        time: time.clone(),
    };
    let shared = PumpShared::new(commit.clone(), 0);
    let tracker = PumpTracker::new();
    let mut pump = MemberPump::new(
        shared.clone(),
        "m1",
        follower.clone(),
        &primary_dir,
        cfg.clone(),
        tracker.clone(),
    );

    for r in records.iter().take(12) {
        commit.commit(r.clone()).unwrap();
    }
    let head = commit.synced_lsn();

    // The first step fills the whole window into one envelope: 4
    // frames (2 per inner message) of the 12+ available.
    match pump.step() {
        PumpStep::Progress { shipped, acked } => {
            assert_eq!(shipped, 4, "window cap bounds the first ship");
            assert_eq!(acked, 0);
        }
        other => panic!("expected Progress, got {other:?}"),
    }

    // Wedge the member — a long-running read holds its lock, so it
    // stops acking. The window must not grow past its cap no matter
    // how often the pump steps.
    {
        let _wedge = follower.lock().unwrap();
        for _ in 0..5 {
            match pump.step() {
                PumpStep::Blocked { inflight } => assert_eq!(inflight, 4),
                other => panic!("expected Blocked, got {other:?}"),
            }
        }
        let st = tracker.status("m1").unwrap();
        assert_eq!(st.state, PumpState::Blocked);
        assert_eq!(st.inflight_frames, 4, "bounded in-flight queue");
        assert_eq!(st.requests, 1, "nothing further fetched while blocked");
        assert_eq!(st.replies, 0, "wedged member never acked");
    }

    // Healed: delivery drains the window, acks flow, the 2-of-2
    // quorum watermark passes the head.
    drive_to_idle(&mut pump);
    assert_eq!(commit.quorum_lsn(), head, "member acks formed the quorum");
    let st = tracker.status("m1").unwrap();
    assert_eq!(st.state, PumpState::Idle);
    assert_eq!(st.acked_lsn, head);
    assert_eq!(st.inflight_frames, 0);
    assert_eq!(st.shipped_frames, head - 1, "whole log shipped");
    assert!(
        st.requests < st.shipped_frames,
        "batching: fewer envelopes than frames"
    );

    // A member whose store crashes on its first I/O primitive is
    // typed Stalled; the manual clock gates every retry.
    let sick = Arc::new(Mutex::new(Follower::create(
        "m2",
        dir.join("m2"),
        opts(),
        Io::faulty(FaultPlan::crash_after(0, 1)),
    )));
    let mut sick_pump = MemberPump::new(
        shared.clone(),
        "m2",
        sick,
        &primary_dir,
        cfg,
        tracker.clone(),
    );
    assert!(matches!(sick_pump.step(), PumpStep::Progress { .. }));
    match sick_pump.step() {
        PumpStep::Stalled { reason } => assert!(!reason.is_empty()),
        other => panic!("expected Stalled, got {other:?}"),
    }
    let st = tracker.status("m2").unwrap();
    assert!(matches!(st.state, PumpState::Stalled { .. }));
    assert_eq!(st.stalls, 1);
    assert_eq!(st.inflight_frames, 0, "stall drops the window");
    // Inside the backoff window nothing moves — the manual clock
    // gates the retry. Past it the pump re-derives the member's
    // position and ships again; the crash plan was consumed by the
    // failed bootstrap, so the healed member now catches all the way
    // up.
    assert_eq!(sick_pump.step(), PumpStep::Backoff);
    time.advance(30);
    assert!(matches!(sick_pump.step(), PumpStep::Progress { .. }));
    drive_to_idle(&mut sick_pump);
    let st = tracker.status("m2").unwrap();
    assert_eq!(st.state, PumpState::Idle);
    assert_eq!(st.acked_lsn, head, "healed member caught up");
    assert_eq!(st.stalls, 1);
    assert_eq!(commit.quorum_lsn(), head);
    std::fs::remove_dir_all(&dir).ok();
}

/// Election interaction: a pump with an envelope mid-flight when its
/// primary is fenced stops shipping and drops the window; a member
/// that learned the new epoch refuses stale-epoch frames; and the new
/// primary's pumps (stamped with the higher epoch) take over shipping
/// to the surviving members.
#[test]
fn fenced_pump_stops_shipping_and_new_primary_pumps_take_over() {
    let dir = tmp("pumpfence");
    let workload = generate(11, 10);
    let records = ops(&workload);
    assert!(records.len() >= 7);
    let primary_dir = dir.join("primary");
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        opts(),
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    commit.configure_quorum(3);
    let m1 = Arc::new(Mutex::new(Follower::create(
        "m1",
        dir.join("m1"),
        opts(),
        Io::plain(),
    )));
    let m2 = Arc::new(Mutex::new(Follower::create(
        "m2",
        dir.join("m2"),
        opts(),
        Io::plain(),
    )));
    let cfg = PumpConfig {
        max_batch_frames: 4,
        idle_wait_ms: 1,
        retry_wait_ms: 10,
        time: TimeSource::manual(0),
        ..PumpConfig::default()
    };
    let shared = PumpShared::new(commit.clone(), 1);
    let tracker = PumpTracker::new();
    let mut p1 = MemberPump::new(
        shared.clone(),
        "m1",
        m1.clone(),
        &primary_dir,
        cfg.clone(),
        tracker.clone(),
    );
    let mut p2 = MemberPump::new(
        shared.clone(),
        "m2",
        m2.clone(),
        &primary_dir,
        cfg.clone(),
        tracker.clone(),
    );

    // Steady state: 4 quorum-covered records on both members.
    for r in records.iter().take(4) {
        commit.commit(r.clone()).unwrap();
    }
    drive_to_idle(&mut p1);
    drive_to_idle(&mut p2);
    let h = commit.synced_lsn();
    assert_eq!(commit.quorum_lsn(), h);

    // Two more records land; m1 wedges with the envelope mid-flight
    // (shipped, not yet delivered).
    for r in records.iter().skip(4).take(2) {
        commit.commit(r.clone()).unwrap();
    }
    let wedge = m1.lock().unwrap();
    match p1.step() {
        PumpStep::Progress { shipped, acked } => {
            assert_eq!(shipped, 2);
            assert_eq!(acked, 0, "wedged member took nothing yet");
        }
        other => panic!("expected Progress, got {other:?}"),
    }

    // An election deposes this primary. Both pumps observe the fence
    // on their next step, drop their windows, and ship nothing more —
    // ever.
    shared.fence(2);
    assert_eq!(p1.step(), PumpStep::Fenced { epoch: 2 });
    assert_eq!(p2.step(), PumpStep::Fenced { epoch: 2 });
    let requests_at_fence = tracker.status("m1").unwrap().requests;
    assert_eq!(tracker.status("m1").unwrap().inflight_frames, 0);
    drop(wedge);
    assert_eq!(p1.step(), PumpStep::Fenced { epoch: 2 });
    assert_eq!(
        tracker.status("m1").unwrap().requests,
        requests_at_fence,
        "a fenced pump ships nothing, even after the member heals"
    );

    // The member side is independently safe: once m1 learns the new
    // epoch, stale-epoch frames are refused outright — applied LSN
    // unmoved.
    {
        let mut f = m1.lock().unwrap();
        f.handle(ReplicaMsg::Fence { epoch: 2 }).unwrap();
        let before = f.next_lsn();
        let stale = match WalTailer::new(&primary_dir).fetch(before, 8).unwrap() {
            TailSource::Frames(frames) => frames,
            other => panic!("expected frames, got {other:?}"),
        };
        assert!(!stale.is_empty(), "the deposed primary has a suffix");
        match f.handle(ReplicaMsg::Frames {
            epoch: 1,
            frames: stale,
        }) {
            Err(ReplicaError::Fenced { epoch }) => assert_eq!(epoch, 2),
            other => panic!("expected Fenced, got {other:?}"),
        }
        assert_eq!(f.next_lsn(), before, "no stale-epoch frame applied");
    }

    // m2 — at the full quorum-acked history — is promoted. Its pumps,
    // stamped with epoch 2, take over shipping to m1.
    drop(p2);
    let promoted = Arc::try_unwrap(m2)
        .expect("sole handle")
        .into_inner()
        .unwrap();
    let new_store = promoted.into_primary_store().expect("promotable");
    let new_commit = GroupCommit::new(new_store, group_cfg());
    new_commit.configure_quorum(3);
    let new_shared = PumpShared::new(new_commit.clone(), 2);
    let takeover = PumpTracker::new();
    let mut np1 = MemberPump::new(
        new_shared,
        "m1",
        m1.clone(),
        &dir.join("m2"),
        cfg,
        takeover.clone(),
    );
    let r = records[6].clone();
    new_commit.commit(r).unwrap();
    drive_to_idle(&mut np1);
    let new_head = new_commit.synced_lsn();
    assert_eq!(
        m1.lock().unwrap().next_lsn(),
        new_head,
        "the new primary's pump caught m1 up"
    );
    assert_eq!(
        new_commit.quorum_lsn(),
        new_head,
        "primary + m1 = 2 of 3: quorum commits resumed at epoch 2"
    );
    assert_eq!(takeover.status("m1").unwrap().acked_lsn, new_head);
    std::fs::remove_dir_all(&dir).ok();
}

/// The full fault sweep over the in-process channel: the primary or
/// member `m1` crashed at every I/O primitive, `m1`'s link cut at every
/// transport step, a late joiner served a snapshot, and the divergence
/// scenario's three typed refusals. Debug builds run a smaller
/// workload (the release CI job runs the big one).
#[test]
fn cluster_sweep_holds_every_invariant() {
    let records = if cfg!(debug_assertions) { 6 } else { 12 };
    let dir = tmp("sweep");
    let outcome = cluster_sweep(&dir, 0xC1u64, records).expect("sweep invariants hold");
    let floor = if cfg!(debug_assertions) { 60 } else { 200 };
    assert!(
        outcome.injection_points >= floor,
        "sweep too small: {} points (floor {floor})",
        outcome.injection_points
    );
    assert!(outcome.primary_crashes > 0, "no primary crash exercised");
    assert!(outcome.member_crashes > 0, "no member crash exercised");
    assert!(outcome.partitions > 0, "no partition exercised");
    assert!(outcome.healed_outages > 0, "no outage healed");
    assert!(outcome.elections > 0, "no election ran");
    assert!(outcome.fenced_refusals > 0, "dual-primary probe never ran");
    assert!(
        outcome.truncated_rejoins + outcome.rebuilt_rejoins + outcome.clean_rejoins > 0,
        "no rejoin exercised"
    );
    assert!(outcome.snapshots_served > 0, "no snapshot was served");
    assert_eq!(outcome.divergence_refusals, 3, "{outcome:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The same per-point classes over loopback TCP: every message crosses
/// a socket through a router, and `m1`'s link suffers socket faults —
/// stalled and dropped connections — at every step it takes. Debug
/// builds run a smaller workload (the release CI job runs the big one).
#[test]
fn net_cluster_sweep_holds_over_loopback_tcp() {
    let records = if cfg!(debug_assertions) { 6 } else { 12 };
    let dir = tmp("net-sweep");
    let outcome = cluster_sweep_net(&dir, 0xC1u64, records).expect("net sweep invariants hold");
    let floor = if cfg!(debug_assertions) { 60 } else { 200 };
    assert!(
        outcome.injection_points >= floor,
        "net sweep too small: {} points (floor {floor})",
        outcome.injection_points
    );
    assert!(outcome.primary_crashes > 0, "no primary crash exercised");
    assert!(outcome.member_crashes > 0, "no member crash exercised");
    assert!(outcome.partitions > 0, "no socket fault exercised");
    assert!(outcome.elections > 0, "no election ran");
    assert!(outcome.fenced_refusals > 0, "dual-primary probe never ran");
    std::fs::remove_dir_all(&dir).ok();
}

/// The membership sweep: crash the primary at every I/O primitive and
/// partition the joiner / the removed member during a journaled
/// reconfiguration. Debug builds run a smaller workload (the release
/// CI job runs the big one and asserts the ≥200-point floor).
#[test]
fn membership_sweep_holds_every_invariant() {
    let records = if cfg!(debug_assertions) { 6 } else { 18 };
    let dir = tmp("membership-sweep");
    let outcome =
        mvolap_cluster::membership_sweep(&dir, 0xA11u64, records).expect("membership invariants");
    let floor = if cfg!(debug_assertions) { 60 } else { 200 };
    assert!(
        outcome.injection_points >= floor,
        "membership sweep too small: {} points (floor {floor})",
        outcome.injection_points
    );
    assert!(outcome.primary_crashes > 0, "no mid-reconfig crash");
    assert!(outcome.partitions > 0, "no joiner/removed partition");
    assert!(outcome.promotions > 0, "no learner promotion observed");
    assert!(outcome.removals > 0, "no journaled removal completed");
    assert!(outcome.elections > 0, "no election during reconfiguration");
    assert!(outcome.fenced_refusals > 0, "dual-primary probe never ran");
    assert!(outcome.stale_acks_fenced > 0, "stale-group probe never ran");
    assert!(
        outcome.resumed_reconfigs > 0,
        "no in-flight reconfiguration survived a failover"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A joiner that crashes mid-snapshot resumes from its last fsynced
/// chunk, not from zero: the spill file survives the crash, the
/// reopened follower reports how many chunks of the same image it
/// already holds, and a fresh pump ships only the remainder.
#[test]
fn joiner_crash_mid_snapshot_resumes_from_last_chunk() {
    let dir = tmp("snapresume");
    let workload = generate(17, 10);
    let records = ops(&workload);
    let primary_dir = dir.join("primary");
    // Tiny segments: the workload seals several, so the checkpoint
    // prunes the WAL below LSN 1 and the joiner can only bootstrap
    // via the snapshot path.
    let small_segments = Options {
        segment_bytes: 256,
        policy: CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    };
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        small_segments,
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    commit.configure_quorum(2);
    for r in &records {
        commit.commit(r.clone()).unwrap();
    }
    commit
        .with_store_mut(|s| s.checkpoint())
        .expect("checkpoint");
    let oldest = commit.with_store(|s| s.oldest_lsn()).expect("oldest");
    assert!(
        oldest > 1,
        "sealed segments must have pruned, oldest={oldest}"
    );
    let head = commit.wal_position();
    let mut image = Vec::new();
    mvolap_core::persist::write_tmd(&commit.with_store(|s| s.schema().clone()), &mut image)
        .unwrap();
    let total = (image.len() as u64).div_ceil(64);
    assert!(total >= 3, "image too small to interrupt ({total} chunks)");

    // Tiny chunks and a tight in-flight window: one packing round
    // ships only a prefix of the image.
    let cfg = PumpConfig {
        max_batch_frames: 2,
        max_inflight_frames: 4,
        max_inflight_bytes: 128,
        snap_chunk_bytes: 64,
        idle_wait_ms: 1,
        retry_wait_ms: 30,
        time: TimeSource::manual(0),
    };
    let shared = PumpShared::new(commit.clone(), 0);
    let tracker = PumpTracker::new();
    let joiner_dir = dir.join("joiner");
    let follower = Arc::new(Mutex::new(Follower::create(
        "joiner",
        joiner_dir.clone(),
        opts(),
        Io::plain(),
    )));
    let mut pump = MemberPump::new(
        shared.clone(),
        "joiner",
        follower.clone(),
        &primary_dir,
        cfg.clone(),
        tracker.clone(),
    );
    assert!(
        matches!(pump.step(), PumpStep::Progress { .. }),
        "first round ships the image prefix"
    );
    // The envelope packed above delivers on the NEXT step — the
    // window is request/reply pipelined — so take one more turn to
    // land a chunk prefix in the joiner's durable spill.
    assert!(
        matches!(pump.step(), PumpStep::Progress { .. }),
        "second round delivers the prefix to the member"
    );

    // Crash: the pump dies with its member; only the disk survives.
    drop(pump);
    drop(follower);

    let reopened = Follower::open("joiner", joiner_dir, opts(), Io::plain()).expect("reopen");
    let received = reopened.snap_resume(head, total, image.len() as u64);
    assert!(
        received > 0 && received < total,
        "expected a partial assembly to survive the crash, got {received}/{total}"
    );

    // A fresh pump resumes the transfer mid-image and finishes it.
    let follower = Arc::new(Mutex::new(reopened));
    let mut pump = MemberPump::new(
        shared,
        "joiner",
        follower.clone(),
        &primary_dir,
        cfg,
        tracker.clone(),
    );
    drive_to_idle(&mut pump);
    let f = follower.lock().unwrap();
    assert_eq!(f.next_lsn(), head, "joiner caught up to the head");
    let st = tracker.status("joiner").unwrap();
    assert_eq!(st.snapshots, 1, "exactly one completed snapshot bootstrap");
    assert_eq!(
        commit.quorum_lsn(),
        head,
        "the caught-up joiner's acks formed the quorum"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Live membership on the served group: a join bootstraps the learner
/// through the pump's chunked snapshot and promotes it only at the
/// quorum watermark; overlapping and duplicate changes are typed
/// refusals; and removing the *freshest* member immediately re-routes
/// bounded reads to the next-freshest — no spurious `stale` refusal.
#[test]
fn live_join_and_leave_reconfigure_the_served_group() {
    let dir = tmp("livejoin");
    let workload = generate(13, 8);
    let records = ops(&workload);
    assert!(records.len() >= 5);
    let loopback = NetAddr::parse("127.0.0.1:0").unwrap();
    let mut cluster = LocalCluster::start(
        &dir,
        workload.seed_schema.clone(),
        &loopback,
        &[
            ("m1".to_string(), loopback.clone()),
            ("m2".to_string(), loopback.clone()),
        ],
        // Tiny segments so the pre-join checkpoint genuinely prunes
        // the tail — the joiner must take the snapshot path.
        Options {
            segment_bytes: 128,
            policy: CheckpointPolicy::manual(),
            prune_on_checkpoint: true,
        },
        GroupConfig::default(),
        ServerOptions {
            quorum_timeout_ms: 2_000,
            ..ServerOptions::default()
        },
        NetConfig::default(),
    )
    .expect("cluster starts");
    cluster.spawn_pumps(PumpConfig {
        snap_chunk_bytes: 64,
        ..PumpConfig::default()
    });
    let mut client = cluster.client(NetConfig::default());
    for r in records.iter().take(3) {
        client.commit(r).expect("quorum commit");
    }
    // Prune the tail so the joiner must bootstrap via the pump's
    // chunked snapshot, not a frame replay from LSN 1.
    cluster
        .group()
        .with_store_mut(|s| s.checkpoint())
        .expect("checkpoint");
    let oldest = cluster
        .group()
        .with_store(|s| s.oldest_lsn())
        .expect("oldest");
    assert!(
        oldest > 1,
        "sealed segments must have pruned, oldest={oldest}"
    );

    // A duplicate add for an existing member id is a typed refusal.
    match cluster.join("m1", &loopback) {
        Err(ServerError::Commit(m)) => assert!(m.contains("already a member"), "{m}"),
        other => panic!("duplicate join accepted: {other:?}"),
    }

    let join_lsn = cluster.join("m3", &loopback).expect("join journaled");
    // A second change while this one is in flight is refused with the
    // typed in-flight error.
    match cluster.join("m4", &loopback) {
        Err(ServerError::Commit(m)) => {
            assert!(m.contains("reconfiguration is already in flight"), "{m}")
        }
        other => panic!("overlapping join accepted: {other:?}"),
    }
    let promoted = cluster
        .await_membership(std::time::Duration::from_secs(20))
        .expect("joiner catches up and is promoted");
    assert_eq!(promoted, "m3");
    assert!(
        cluster.membership().iter().any(|(n, l)| n == "m3" && !l),
        "m3 is a voter after catch-up"
    );
    let snap_bootstraps = cluster
        .pump_status()
        .iter()
        .find(|(n, _)| n == "m3")
        .map_or(0, |(_, st)| st.snapshots);
    assert!(
        snap_bootstraps >= 1,
        "the joiner bootstrapped via the pump-shipped snapshot"
    );
    assert!(
        cluster.group().quorum_lsn() > join_lsn,
        "the reconfig record itself is quorum-committed"
    );

    // Commit with the grown group, then drop the freshest member —
    // the read must re-route to the next-freshest immediately.
    let lsn = client
        .commit(&records[3])
        .expect("commit under 4-node group");
    let query = "SELECT sum(Amount) BY year IN MODE tcm";
    client.read_at(lsn, query).expect("bounded read pre-remove");
    cluster.leave("m3").expect("leave journaled");
    cluster
        .await_membership(std::time::Duration::from_secs(20))
        .expect("remove quorum-commits under the shrunk group");
    client
        .read_at(lsn, query)
        .expect("read re-routed to the next-freshest member, not refused");
    // The shrunk group still quorums: primary + m1 + m2, majority 2.
    client
        .commit(&records[4])
        .expect("commit under shrunk group");

    // Removing a non-member is a typed refusal.
    match cluster.leave("m3") {
        Err(ServerError::Commit(m)) => assert!(m.contains("not a member"), "{m}"),
        other => panic!("double leave accepted: {other:?}"),
    }
    cluster.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression (bounded parking): a pump thread parked on
/// `wait_synced_past` on a manual `TimeSource` — its member effectively
/// vanished, nothing will ever advance the commit — must still
/// observe `PumpThread::stop` promptly, because every park is bounded
/// by the retry deadline rather than the idle interval.
#[test]
fn pump_thread_stop_interrupts_parked_wait() {
    let dir = tmp("parkstop");
    let workload = generate(19, 4);
    let primary_dir = dir.join("primary");
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        opts(),
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    for r in ops(&workload).into_iter().take(2) {
        commit.commit(r).unwrap();
    }
    let follower = Arc::new(Mutex::new(Follower::create(
        "ghost",
        dir.join("ghost"),
        opts(),
        Io::plain(),
    )));
    // A pathological idle interval: without the retry-deadline bound
    // the park would sleep this long and shutdown would hang with it.
    let cfg = PumpConfig {
        idle_wait_ms: 600_000,
        retry_wait_ms: 10,
        ..PumpConfig::default()
    };
    let shared = PumpShared::new(commit.clone(), 0);
    let tracker = PumpTracker::new();
    let pump = MemberPump::new(
        shared,
        "ghost",
        follower,
        &primary_dir,
        cfg,
        tracker.clone(),
    );
    let mut thread = pump.spawn();
    // Let the engine catch the member up and park idle.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if tracker
            .status("ghost")
            .is_some_and(|st| st.state == PumpState::Idle)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pump never went idle: {:?}",
            tracker.status("ghost")
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let t0 = std::time::Instant::now();
    thread.stop();
    thread.join();
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "stop() took {:?} — the park is not bounded",
        t0.elapsed()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression (status honesty): a pump halted by `stop()` must report
/// the typed `Stopped` state in the tracker — not linger as `Idle`,
/// which would read as a healthy caught-up member in `\status` output
/// long after the shipping thread is gone.
#[test]
fn stopped_pump_reports_stopped_not_idle() {
    let dir = tmp("stopstate");
    let workload = generate(23, 4);
    let primary_dir = dir.join("primary");
    let store = DurableTmd::create_with(
        &primary_dir,
        workload.seed_schema.clone(),
        opts(),
        Io::plain(),
    )
    .unwrap();
    let commit = GroupCommit::new(store, group_cfg());
    for r in ops(&workload).into_iter().take(2) {
        commit.commit(r).unwrap();
    }
    let follower = Arc::new(Mutex::new(Follower::create(
        "ghost",
        dir.join("ghost"),
        opts(),
        Io::plain(),
    )));
    let shared = PumpShared::new(commit.clone(), 0);
    let tracker = PumpTracker::new();
    let pump = MemberPump::new(
        shared,
        "ghost",
        follower,
        &primary_dir,
        PumpConfig::default(),
        tracker.clone(),
    );
    let mut thread = pump.spawn();
    // Let it catch the member up and go idle, so the regression is
    // exactly Idle -> stop -> must read Stopped.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if tracker
            .status("ghost")
            .is_some_and(|st| st.state == PumpState::Idle)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pump never went idle: {:?}",
            tracker.status("ghost")
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    thread.stop();
    thread.join();
    let status = tracker.status("ghost").expect("tracker keeps the member");
    assert_eq!(
        status.state,
        PumpState::Stopped,
        "a halted pump must not masquerade as Idle"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Session spread across the fleet: with shipping threads keeping the
/// members at the quorum watermark, a plain `query` against the
/// primary is forwarded to a member read server — visible in the
/// pool's `forwarded` counter — and the forwarded rendering is
/// bit-identical to what the primary itself produces for the same
/// query. Commits meanwhile never leave the primary.
#[test]
fn fleet_spread_sessions_forward_queries_bit_identically() {
    let dir = tmp("spread");
    let workload = generate(11, 5);
    let records = ops(&workload);
    let loopback = NetAddr::parse("127.0.0.1:0").unwrap();
    let mut cluster = LocalCluster::start(
        &dir,
        workload.seed_schema.clone(),
        &loopback,
        &[
            ("m1".to_string(), loopback.clone()),
            ("m2".to_string(), loopback.clone()),
        ],
        opts(),
        GroupConfig::default(),
        ServerOptions {
            // Generous quorum window: this test runs alongside the
            // whole suite and a slow shipping round must not read as
            // an Unreplicated refusal.
            quorum_timeout_ms: 30_000,
            ..ServerOptions::default()
        },
        NetConfig::default(),
    )
    .expect("cluster starts");
    cluster.spawn_pumps(PumpConfig::default());

    let mut client = cluster.client(NetConfig::default());
    let mut head = 0;
    for r in records.iter().take(3) {
        head = client.commit(r).expect("quorum commit");
    }
    // Quorum needs one member; spreading wants a *specific* (pinned)
    // member. Wait until both members acked the head so the routing
    // decision below is deterministic.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let positions = cluster.group().member_positions();
        let caught_up = ["m1", "m2"].iter().all(|m| {
            positions
                .iter()
                .any(|(n, p)| n == m && p.saturating_sub(1) >= head)
        });
        if caught_up {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "members never caught up: {positions:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    const Q: &str = "SELECT sum(Amount) BY year IN MODE tcm";
    let served = client.query(Q).expect("query served");
    assert_eq!(
        served,
        client.query(Q).expect("repeat query served"),
        "spread routing must be stable across a session's requests"
    );

    // The primary's own rendering of the same query, straight off the
    // group-committed store — spreading must not change a byte. (All
    // quorum-acked commits are applied on the forwarding target, and
    // nothing commits concurrently here, so the states coincide.)
    let local = cluster.group().with_store(|s| {
        let svs = s.schema().structure_versions();
        let exec = mvolap_core::ExecContext::new(2);
        let memo = mvolap_core::QueryMemo::new();
        mvolap_query::run_with_versions_par(s.schema(), &svs, Q, &exec, &memo)
            .unwrap()
            .render("result")
            .unwrap()
    });
    assert!(
        served.contains(local.trim_end()) || served.trim_end() == local.trim_end(),
        "forwarded rendering diverged from the primary's:\n--- served\n{served}\n--- local\n{local}"
    );

    let stats = cluster.primary_stats();
    assert!(
        stats.forwarded >= 1,
        "queries must spread across the fleet: {stats:?}"
    );
    assert!(stats.served >= 5, "commits + queries counted: {stats:?}");
    drop(cluster);
    std::fs::remove_dir_all(&dir).ok();
}
