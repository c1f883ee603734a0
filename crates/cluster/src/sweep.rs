//! Fault-injected quorum sweeps: the replication subsystem's
//! correctness argument, executable.
//!
//! [`cluster_sweep`] runs the seeded workload
//! ([`mvolap_durable::generate`]) on a primary with two members under
//! majority-ack commit, then re-runs it once per injection point
//! across three fault classes:
//!
//! 1. **Primary crashes** — the primary's I/O layer crashes (torn
//!    writes included) at every I/O primitive. The survivors must
//!    elect a new primary deterministically, every *quorum-acknowledged*
//!    commit must be present (same LSN, same frame CRC) on the winner,
//!    and the crashed primary must rejoin by truncating any un-quorum'd
//!    suffix before replicating again.
//! 2. **Member crashes** — member `m1`'s I/O layer crashes at every
//!    primitive; the supervisor restarts it from its own directory and
//!    it must reconverge byte-identically while the quorum rides on
//!    `m2`.
//! 3. **Link faults** — `m1`'s link fails at every transport step. A
//!    healing outage must reconverge byte-identically; a permanent
//!    partition must still quorum through the surviving member, and an
//!    operator failover must fence the deposed primary so it refuses
//!    writes in the new epoch — the dual-primary probe.
//!
//! Every check uses one byte-identity oracle: the node's state
//! serialised, and the reference query's answer fingerprinted, against
//! the in-memory replay of the same log prefix.
//!
//! The fault-free run also serves a **late joiner**: a member added
//! after a pruning checkpoint must bootstrap from a snapshot. Two
//! staged scenarios run once, on the channel transport: **quorum
//! loss** (a leaderless, partitioned group refuses to elect with
//! [`ReplicaError::NoQuorum`], then elects on its own once the
//! partition heals) and **divergence** (a forked history is refused by
//! the primary-side gate and by the member's duplicate check, and the
//! refusing member is never elected).
//!
//! The per-point classes are generic over how the transport is built
//! (`TransportLab`): [`cluster_sweep`] runs them over the in-process
//! channel, [`cluster_sweep_net`] over loopback TCP — a
//! [`MsgRouter`] per run, with `m1`'s link passing through a
//! [`FaultProxy`] that drops or stalls its connections.

use std::path::Path;

use mvolap_core::persist::write_tmd;
use mvolap_core::{MemberVersionId, Tmd};
use mvolap_durable::fault::{generate, Step, Workload};
use mvolap_durable::{
    CheckpointPolicy, DurableError, DurableTmd, FaultPlan, GroupCommit, GroupConfig, Io, Options,
    TimeSource, WalRecord,
};
use mvolap_replica::{
    ChannelTransport, FaultProxy, Follower, MsgRouter, NetAddr, NetConfig, PrimaryNode, ProxyFault,
    ReplicaError, ReplicaMsg, ReplicaTransport, TcpTransport, TransportError,
};
use mvolap_temporal::Instant;

use crate::set::{ClusterConfig, ClusterEvent, ClusterSet, RejoinOutcome};

/// The reference query every surviving node must answer identically to
/// the in-memory prefix replay.
const QUERY: &str = "SELECT sum(Amount) BY year, Org.Division IN MODE tcm";

/// Ticks the drain loop will spend waiting for convergence. Generous:
/// a cut member burns only a couple of transport operations per tick,
/// so healing an outage takes many rounds.
const DRAIN_TICKS: usize = 128;

/// Cut transport operations before a healing outage repairs itself.
/// Must be comfortably below `DRAIN_TICKS` × ops-per-tick (~2 for a
/// silent member) so convergence is reachable within the drain budget.
const OUTAGE_OPS: u64 = 32;

/// The member whose I/O and link the per-point classes fault.
const CUT: &str = "m1";

/// What a [`cluster_sweep`] or [`cluster_sweep_net`] established.
#[derive(Debug, Default)]
pub struct ClusterSweepOutcome {
    /// Total injection points exercised across all classes.
    pub injection_points: u64,
    /// Runs where the primary's I/O crashed.
    pub primary_crashes: u64,
    /// Runs where member `m1`'s I/O crashed and it was restarted.
    pub member_crashes: u64,
    /// Runs with a fault on `m1`'s link (a partition on the channel, a
    /// dropped or stalled socket over TCP), healing or permanent.
    pub partitions: u64,
    /// Healing outages that reconverged exactly.
    pub healed_outages: u64,
    /// Elections won (crash failovers and operator failovers).
    pub elections: u64,
    /// Elections that closed without a majority.
    pub failed_elections: u64,
    /// Deposed primaries observed refusing a write with `Fenced` —
    /// the dual-primary probe.
    pub fenced_refusals: u64,
    /// Rejoins that truncated an un-quorum'd suffix.
    pub truncated_rejoins: u64,
    /// Rejoins that wiped and re-bootstrapped.
    pub rebuilt_rejoins: u64,
    /// Rejoins whose log was already a clean prefix.
    pub clean_rejoins: u64,
    /// Crashes so early no member held state to elect.
    pub unpromotable: u64,
    /// Commits that timed out waiting for quorum (locally durable,
    /// never cluster-acknowledged).
    pub unreplicated_commits: u64,
    /// Snapshot bootstraps served (pruned-log path).
    pub snapshots_served: u64,
    /// Typed refusals observed in the divergence scenario.
    pub divergence_refusals: u64,
    /// Logical records in the workload.
    pub records: usize,
}

/// Store options shared by every sweep: tiny segments so rotation and
/// pruning happen often, manual checkpoints.
fn sweep_options() -> Options {
    Options {
        segment_bytes: 2048,
        policy: CheckpointPolicy::manual(),
        prune_on_checkpoint: true,
    }
}

fn sweep_cluster_config() -> ClusterConfig {
    ClusterConfig {
        batch_frames: 32,
        heartbeat_miss_limit: 3,
        commit_ticks: 16,
    }
}

/// Deterministic group commit: no hold window, manual clock — the
/// watermark moves only through supervision rounds.
fn sweep_group_config() -> GroupConfig {
    GroupConfig {
        hold_ms: 0,
        time: TimeSource::manual(0),
    }
}

fn serialise(tmd: &Tmd) -> Vec<u8> {
    let mut buf = Vec::new();
    write_tmd(tmd, &mut buf).expect("in-memory serialisation cannot fail");
    buf
}

/// Fingerprints the reference query's full answer through the query
/// pipeline, value bits and confidences included.
fn fingerprint(tmd: &Tmd) -> Result<Vec<String>, String> {
    let svs = tmd.structure_versions();
    let rs = mvolap_query::run_with_versions(tmd, &svs, QUERY)
        .map_err(|e| format!("query failed: {e}"))?;
    Ok(rs
        .rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r
                .cells
                .iter()
                .map(|c| format!("{}:{:?}", c.value.map_or(0, f64::to_bits), c.confidence))
                .collect();
            format!("{}|{}|{}", r.time, r.keys.join(","), cells.join(","))
        })
        .collect())
}

/// The byte-identity oracle: `got` must serialise exactly like
/// `expect` and answer the reference query identically.
fn assert_identical(got: &Tmd, expect: &Tmd, what: &str) -> Result<(), String> {
    if serialise(got) != serialise(expect) {
        return Err(format!("{what}: state is not byte-identical"));
    }
    if fingerprint(got)? != fingerprint(expect)? {
        return Err(format!("{what}: answers the reference query differently"));
    }
    Ok(())
}

/// The workload's records, checkpoints skipped.
fn ops(workload: &Workload) -> Vec<WalRecord> {
    workload
        .steps
        .iter()
        .filter_map(|s| match s {
            Step::Op(r) => Some(r.clone()),
            Step::Checkpoint => None,
        })
        .collect()
}

/// The state after every prefix of the workload, by record count.
fn prefix_states(workload: &Workload) -> Result<Vec<Tmd>, String> {
    let mut state = workload.seed_schema.clone();
    let mut prefixes = vec![state.clone()];
    for record in ops(workload) {
        record
            .apply(&mut state)
            .map_err(|e| format!("prefix replay failed: {e}"))?;
        prefixes.push(state.clone());
    }
    Ok(prefixes)
}

/// A valid evolution no workload contains: a new department `name`
/// under the first division, far in the future.
fn fresh_department(workload: &Workload, name: String) -> WalRecord {
    WalRecord::Create {
        dim: workload.org,
        name,
        level: Some("Department".to_string()),
        at: Instant::ym(2030, 1),
        parents: vec![MemberVersionId(0)],
    }
}

/// The node a message speaks for, if it names one.
fn sender(msg: &ReplicaMsg) -> Option<&str> {
    match msg {
        ReplicaMsg::Hello { node, .. }
        | ReplicaMsg::Ack { node, .. }
        | ReplicaMsg::QuorumAck { node, .. }
        | ReplicaMsg::VoteGrant { node, .. } => Some(node),
        _ => None,
    }
}

/// A channel transport that silently cuts traffic to and from a set of
/// nodes once a global operation counter passes `from_step`, for
/// `outage_len` cut operations (`u64::MAX` = permanent partition). The
/// cut is *per node*: the rest of the group keeps replicating, which is
/// what makes the quorum path observable.
#[derive(Debug)]
struct MemberPartition {
    inner: ChannelTransport,
    cut: Vec<String>,
    from_step: u64,
    outage_len: u64,
    ops: u64,
    faulted_ops: u64,
}

impl MemberPartition {
    fn new(cut: &[&str], from_step: u64, outage_len: u64) -> MemberPartition {
        MemberPartition {
            inner: ChannelTransport::new(),
            cut: cut.iter().map(|s| (*s).to_string()).collect(),
            from_step,
            outage_len,
            ops: 0,
            faulted_ops: 0,
        }
    }

    /// A partition that never fires.
    fn clean() -> MemberPartition {
        MemberPartition::new(&[], u64::MAX, 0)
    }

    fn faulted(&mut self, node: &str) -> bool {
        self.ops += 1;
        if self.ops <= self.from_step || !self.cut.iter().any(|c| c == node) {
            return false;
        }
        if self.faulted_ops >= self.outage_len {
            return false; // Outage over; the link healed.
        }
        self.faulted_ops += 1;
        true
    }
}

impl ReplicaTransport for MemberPartition {
    fn send(&mut self, to: &str, msg: &ReplicaMsg) -> Result<(), TransportError> {
        // A partitioned member can neither be reached nor speak: the
        // hellos and acks the supervisor relays on its behalf name it
        // as sender, so everything addressed to or naming it is cut.
        if self.faulted(to) || sender(msg).is_some_and(|from| self.faulted(from)) {
            return Ok(()); // Silently dropped.
        }
        self.inner.send(to, msg)
    }

    fn recv(&mut self, node: &str) -> Result<Option<ReplicaMsg>, TransportError> {
        if self.faulted(node) {
            return Ok(None);
        }
        self.inner.recv(node)
    }

    fn steps(&self) -> u64 {
        self.ops
    }
}

/// Builds the transports a sweep runs over. The per-point classes are
/// generic over this, so the identical invariants run over the
/// in-process channel and over real sockets.
trait TransportLab {
    /// The transport this lab builds.
    type T: ReplicaTransport;

    /// A fault-free transport.
    fn clean(&self) -> Result<Self::T, String>;

    /// Injection points on `m1`'s link, counted on the transport of a
    /// fault-free run.
    fn link_points(&self, clean: &Self::T) -> u64;

    /// `m1`'s link fails from point `j` on, then heals.
    fn outage(&self, j: u64) -> Result<Self::T, String>;

    /// `m1`'s link fails from point `j` on, for good.
    fn partition(&self, j: u64) -> Result<Self::T, String>;
}

/// The in-process lab: channel transports cut by [`MemberPartition`].
/// Every transport step of the fault-free run is an injection point.
struct ChannelLab;

impl TransportLab for ChannelLab {
    type T = MemberPartition;

    fn clean(&self) -> Result<MemberPartition, String> {
        Ok(MemberPartition::clean())
    }

    fn link_points(&self, clean: &MemberPartition) -> u64 {
        clean.steps()
    }

    fn outage(&self, j: u64) -> Result<MemberPartition, String> {
        Ok(MemberPartition::new(&[CUT], j, OUTAGE_OPS))
    }

    fn partition(&self, j: u64) -> Result<MemberPartition, String> {
        Ok(MemberPartition::new(&[CUT], j, u64::MAX))
    }
}

/// The loopback-TCP lab: every run gets its own [`MsgRouter`] on an
/// ephemeral port. The supervisor reaches it over two connections:
/// everything to, from or about `m1` rides one, and in faulted runs
/// that one passes through a [`FaultProxy`] counting its request
/// frames. Every request frame of `m1`'s link in the fault-free run is
/// an injection point. A healing outage stalls a few requests past the
/// client's read timeout — how a hung link presents over a socket; a
/// permanent partition drops every connection on the spot.
struct TcpLab;

/// The client's read timeout on the TCP lab's links: comfortably above
/// a loopback round trip, comfortably below anyone's patience — a
/// stalled request must time out fast.
const READ_TIMEOUT_MS: u64 = 50;

/// How long a stalled proxy connection stays silent before closing;
/// longer than [`READ_TIMEOUT_MS`], so the client sees a timeout.
const STALL_MS: u64 = 150;

/// Request frames a healing TCP outage stalls. With one reconnect per
/// request, three fail one operation outright and stall the next
/// before the link heals.
const STALLED_FRAMES: u64 = 3;

impl TcpLab {
    fn cfg() -> NetConfig {
        NetConfig {
            connect_timeout_ms: 2_000,
            read_timeout_ms: READ_TIMEOUT_MS,
            write_timeout_ms: 2_000,
            reconnect_attempts: 1,
            backoff_start_ms: 1,
        }
    }

    fn build(&self, fault: Option<(u64, u64, ProxyFault)>) -> Result<NetSweepTransport, String> {
        let router = MsgRouter::spawn(&NetAddr::Tcp("127.0.0.1:0".into()))
            .map_err(|e| format!("sweep router spawn: {e}"))?;
        let (proxy, link_addr) = match fault {
            Some((j, outage_len, kind)) => {
                let plan = FaultPlan::crash_after(j, 0);
                let p = FaultProxy::spawn(router.addr().clone(), plan, outage_len, kind)
                    .map_err(|e| format!("sweep proxy spawn: {e}"))?;
                let a = p.addr().clone();
                (Some(p), a)
            }
            None => (None, router.addr().clone()),
        };
        Ok(NetSweepTransport {
            direct: TcpTransport::connect(router.addr().clone(), TcpLab::cfg()),
            link: TcpTransport::connect(link_addr, TcpLab::cfg()),
            _proxy: proxy,
            _router: router,
        })
    }
}

impl TransportLab for TcpLab {
    type T = NetSweepTransport;

    fn clean(&self) -> Result<NetSweepTransport, String> {
        self.build(None)
    }

    fn link_points(&self, clean: &NetSweepTransport) -> u64 {
        clean.link.steps()
    }

    fn outage(&self, j: u64) -> Result<NetSweepTransport, String> {
        self.build(Some((j, STALLED_FRAMES, ProxyFault::Stall(STALL_MS))))
    }

    fn partition(&self, j: u64) -> Result<NetSweepTransport, String> {
        self.build(Some((j, u64::MAX, ProxyFault::Drop)))
    }
}

/// Two [`TcpTransport`]s into one router — `m1`'s link and everyone
/// else's — bundled with the loopback infrastructure that must outlive
/// them; dropping it per run tears the sockets and threads down so a
/// long sweep never accumulates them.
struct NetSweepTransport {
    direct: TcpTransport,
    link: TcpTransport,
    _proxy: Option<FaultProxy>,
    _router: MsgRouter,
}

impl ReplicaTransport for NetSweepTransport {
    fn send(&mut self, to: &str, msg: &ReplicaMsg) -> Result<(), TransportError> {
        if to == CUT || sender(msg) == Some(CUT) {
            self.link.send(to, msg)
        } else {
            self.direct.send(to, msg)
        }
    }

    fn recv(&mut self, node: &str) -> Result<Option<ReplicaMsg>, TransportError> {
        if node == CUT {
            self.link.recv(node)
        } else {
            self.direct.recv(node)
        }
    }

    fn steps(&self) -> u64 {
        self.direct.steps() + self.link.steps()
    }
}

/// Result of one clustered workload run.
struct ClusterRun<T: ReplicaTransport> {
    /// The set, unless the primary crashed while bootstrapping.
    set: Option<ClusterSet<T>>,
    /// Every commit the cluster *acknowledged* at quorum: `(lsn, frame
    /// crc)` — the records no failure is allowed to lose.
    acked: Vec<(u64, u32)>,
    committed: u64,
    unreplicated: u64,
    primary_crashed: bool,
    /// Times `m1` crashed and was restarted from its directory.
    member_restarts: u64,
}

/// Restarts `m1` if its store crashed; returns whether it did.
fn restart_crashed<T: ReplicaTransport>(set: &mut ClusterSet<T>) -> Result<bool, String> {
    if !set.member_crashed(CUT) {
        return Ok(false);
    }
    set.restart_member(CUT)
        .map_err(|e| format!("member restart failed: {e}"))?;
    Ok(true)
}

/// Runs `workload` on a fresh primary + m1 + m2 group under `base`
/// with majority-ack commits; `m1` runs on `member_io` and is restarted
/// whenever it crashes. Injected primary crashes are recorded;
/// non-faulty failures are hard errors.
fn run_cluster<T: ReplicaTransport>(
    base: &Path,
    workload: &Workload,
    primary_io: Io,
    member_io: Io,
    transport: T,
) -> Result<ClusterRun<T>, String> {
    std::fs::remove_dir_all(base).ok();
    let mut run = ClusterRun {
        set: None,
        acked: Vec::new(),
        committed: 0,
        unreplicated: 0,
        primary_crashed: false,
        member_restarts: 0,
    };
    let mut set = match ClusterSet::bootstrap(
        base,
        workload.seed_schema.clone(),
        sweep_options(),
        sweep_group_config(),
        sweep_cluster_config(),
        transport,
        primary_io,
    ) {
        Ok(set) => set,
        Err(ReplicaError::Durable(e)) if e.is_io_class() => {
            run.primary_crashed = true;
            return Ok(run);
        }
        Err(e) => return Err(format!("cluster bootstrap failed non-faultily: {e}")),
    };
    set.add_member(CUT, member_io);
    set.add_member("m2", Io::plain());

    for step in &workload.steps {
        let res = match step {
            Step::Op(record) => set.commit_quorum(record.clone()).map(Some),
            Step::Checkpoint => set.checkpoint().map(|()| None),
        };
        match res {
            Ok(Some(lsn)) => {
                run.committed += 1;
                let crc = set
                    .primary()
                    .expect("primary lives")
                    .tailer()
                    .crc_at(lsn)
                    .map_err(|e| format!("crc_at({lsn}) failed: {e}"))?;
                if let Some(crc) = crc {
                    run.acked.push((lsn, crc));
                }
            }
            Ok(None) => {}
            Err(ReplicaError::Durable(DurableError::Unreplicated { .. })) => {
                // Locally durable, never cluster-acknowledged: the
                // session would see a typed `unreplicated` error. The
                // workload presses on.
                run.unreplicated += 1;
            }
            Err(ReplicaError::Durable(e)) if e.is_io_class() => {
                run.primary_crashed = true;
                break;
            }
            Err(e) => return Err(format!("workload step failed non-faultily: {e}")),
        }
        if restart_crashed(&mut set)? {
            run.member_restarts += 1;
        }
    }
    run.set = Some(set);
    Ok(run)
}

/// Asserts every quorum-acknowledged `(lsn, crc)` pair is present in
/// the current primary's log (or pruned into a covering checkpoint —
/// never *different*).
fn assert_acked_present<T: ReplicaTransport>(
    set: &ClusterSet<T>,
    acked: &[(u64, u32)],
    what: &str,
) -> Result<(), String> {
    let tailer = set.primary().expect("primary lives").tailer();
    for (lsn, crc) in acked {
        match tailer.crc_at(*lsn) {
            Ok(Some(c)) if c == *crc => {}
            Ok(Some(c)) => {
                return Err(format!(
                    "{what}: acked LSN {lsn} rewritten (crc {crc:#010x} -> {c:#010x})"
                ))
            }
            Ok(None) => {} // Pruned into a checkpoint; still durable.
            Err(e) => return Err(format!("{what}: acked LSN {lsn} unreadable: {e}")),
        }
    }
    Ok(())
}

/// Asserts the primary's state is byte-identical to the in-memory
/// replay of its own log length.
fn assert_prefix_consistent<T: ReplicaTransport>(
    set: &ClusterSet<T>,
    prefixes: &[Tmd],
    what: &str,
) -> Result<(), String> {
    let p = set.primary().expect("primary lives");
    let q = (p.wal_position() - 2) as usize;
    let expect = prefixes
        .get(q)
        .ok_or_else(|| format!("{what}: primary holds {q} records, out of range"))?;
    assert_identical(
        &p.schema(),
        expect,
        &format!("{what}: primary at prefix {q}"),
    )
}

/// Pumps ticks until member `name` catches the primary's head (or the
/// tick budget runs out); asserts byte-identity with the replay of the
/// head's prefix once caught.
fn converge_member<T: ReplicaTransport>(
    set: &mut ClusterSet<T>,
    name: &str,
    prefixes: &[Tmd],
    what: &str,
) -> Result<(), String> {
    let head = set.primary().expect("primary lives").wal_position();
    for _ in 0..DRAIN_TICKS {
        if set.member(name).is_some_and(|f| f.next_lsn() >= head) {
            break;
        }
        set.tick();
    }
    let f = set
        .member(name)
        .ok_or_else(|| format!("{what}: member {name} missing"))?;
    if f.next_lsn() < head {
        return Err(format!(
            "{what}: member {name} stopped at LSN {} of {head}",
            f.next_lsn()
        ));
    }
    let schema = f
        .schema()
        .ok_or_else(|| format!("{what}: member {name} never bootstrapped"))?;
    let q = (head - 2) as usize;
    let expect = prefixes
        .get(q)
        .ok_or_else(|| format!("{what}: head {head} past the replayed prefixes"))?;
    assert_identical(schema, expect, &format!("{what}: member {name}"))
}

/// A probe record for fencing checks.
fn probe_record(workload: &Workload) -> WalRecord {
    ops(workload)
        .into_iter()
        .next()
        .expect("workload has records")
}

/// Counts a rejoin by its outcome.
fn count_rejoin(
    outcome: &mut ClusterSweepOutcome,
    res: Result<RejoinOutcome, ReplicaError>,
    what: &str,
) -> Result<(), String> {
    match res {
        Ok(RejoinOutcome::Truncated { .. }) => outcome.truncated_rejoins += 1,
        Ok(RejoinOutcome::Rebuilt) => outcome.rebuilt_rejoins += 1,
        Ok(RejoinOutcome::Clean) => outcome.clean_rejoins += 1,
        Err(e) => return Err(format!("{what}: rejoin failed: {e}")),
    }
    Ok(())
}

/// Late joiner: pads the fault-free log with fresh evolutions until a
/// checkpoint prunes its head, then adds a member that must be served
/// the snapshot path and converge byte-identically, and keep up with
/// one more commit after it. Returns the snapshots served.
fn late_joiner<T: ReplicaTransport>(
    set: &mut ClusterSet<T>,
    workload: &Workload,
    prefixes: &[Tmd],
) -> Result<u64, String> {
    let mut prefixes = prefixes.to_vec();
    let mut pad = 0;
    loop {
        set.checkpoint()
            .map_err(|e| format!("late joiner: checkpoint failed: {e}"))?;
        let oldest = set
            .primary()
            .expect("primary lives")
            .group()
            .with_store(DurableTmd::oldest_lsn)
            .map_err(|e| format!("late joiner: oldest_lsn failed: {e}"))?;
        if oldest > 1 {
            break;
        }
        if pad == 64 {
            return Err("late joiner: 64 padding records never pruned the log".to_string());
        }
        let record = fresh_department(workload, format!("Dept-late-{pad}"));
        let mut state = prefixes.last().expect("seed state").clone();
        record
            .apply(&mut state)
            .map_err(|e| format!("late joiner: padding replay failed: {e}"))?;
        prefixes.push(state);
        set.commit_quorum(record)
            .map_err(|e| format!("late joiner: padding commit failed: {e}"))?;
        pad += 1;
    }
    let before = set.stats().snapshots_served;
    set.add_member("late", Io::plain());
    converge_member(set, "late", &prefixes, "late joiner")?;
    let served = set.stats().snapshots_served - before;
    if served == 0 {
        return Err("late joiner: log head pruned but no snapshot was served".to_string());
    }
    // Bootstrapped from the snapshot, it must then keep up frame by frame.
    let record = fresh_department(workload, format!("Dept-late-{pad}"));
    let mut state = prefixes.last().expect("seed state").clone();
    record
        .apply(&mut state)
        .map_err(|e| format!("late joiner: follow-up replay failed: {e}"))?;
    prefixes.push(state);
    set.commit_quorum(record)
        .map_err(|e| format!("late joiner: follow-up commit failed: {e}"))?;
    converge_member(set, "late", &prefixes, "late joiner follow-up")?;
    Ok(served)
}

/// Staged quorum-loss scenario: the primary dies while `m1` is
/// partitioned, so the group cannot reach a majority — the election
/// must fail with a typed [`ReplicaError::NoQuorum`] and the group
/// must stay primary-less. Once the partition heals, the supervisor's
/// own heartbeat-miss counter must elect without being asked.
fn quorum_loss_scenario(
    base: &Path,
    workload: &Workload,
    outcome: &mut ClusterSweepOutcome,
) -> Result<(), String> {
    // Cut m1 from the first step after the workload, for a bounded
    // outage: measure where a clean run's workload ends first.
    let clean = run_cluster(
        base,
        workload,
        Io::plain(),
        Io::plain(),
        MemberPartition::clean(),
    )?;
    let steps_after_workload = clean.set.as_ref().map_or(0, ClusterSet::transport_steps);
    drop(clean);
    let transport = MemberPartition::new(&[CUT], steps_after_workload, OUTAGE_OPS);
    let mut run = run_cluster(base, workload, Io::plain(), Io::plain(), transport)?;
    if run.primary_crashed || run.committed != workload.records as u64 {
        return Err(format!(
            "quorum-loss scenario committed {}/{}",
            run.committed, workload.records
        ));
    }
    let set = run.set.as_mut().expect("set lives");
    drop(set.kill_primary());
    // Direct election while m1 is cut: m2 stands, m1 cannot vote.
    match set.elect() {
        Err(ReplicaError::NoQuorum {
            votes, required, ..
        }) => {
            if votes >= required {
                return Err("quorum-loss scenario: NoQuorum with enough votes".to_string());
            }
            outcome.failed_elections += 1;
        }
        other => {
            return Err(format!(
                "quorum-loss scenario: election without a majority did not refuse ({other:?})"
            ))
        }
    }
    if set.primary().is_some() {
        return Err("quorum-loss scenario: a primary appeared without quorum".to_string());
    }
    // Heartbeat-miss driven: once the outage window is consumed, the
    // supervisor's own tick must elect.
    let elected = (0..DRAIN_TICKS).any(|_| {
        set.tick()
            .iter()
            .any(|e| matches!(e, ClusterEvent::Elected { .. }))
    });
    if !elected {
        return Err("quorum-loss scenario: healed partition never elected".to_string());
    }
    outcome.elections += 1;
    assert_acked_present(set, &run.acked, "quorum-loss scenario")?;
    std::fs::remove_dir_all(base).ok();
    Ok(())
}

/// Forks two histories after a shared prefix and proves each side of
/// the protocol refuses the divergence with a typed error. Returns the
/// refusals observed: the primary-side gate, the member's duplicate
/// check, and the election that will not seat the refusing member.
fn divergence_scenario(base: &Path, workload: &Workload) -> Result<u64, String> {
    std::fs::remove_dir_all(base).ok();
    let records = ops(workload);

    // History A: the whole workload, quorum-replicated to m1.
    let mut set = ClusterSet::bootstrap(
        &base.join("a"),
        workload.seed_schema.clone(),
        sweep_options(),
        sweep_group_config(),
        sweep_cluster_config(),
        ChannelTransport::new(),
        Io::plain(),
    )
    .map_err(|e| format!("fork scenario bootstrap: {e}"))?;
    set.add_member(CUT, Io::plain());
    for r in &records {
        set.commit_quorum(r.clone())
            .map_err(|e| format!("fork scenario commit: {e}"))?;
    }

    // History B: same prefix, but the last record is replaced by a
    // different (valid) evolution — the classic post-failover fork.
    let mut b = DurableTmd::create_with(
        &base.join("b"),
        workload.seed_schema.clone(),
        sweep_options(),
        Io::plain(),
    )
    .map_err(|e| format!("fork scenario history B create: {e}"))?;
    for r in &records[..records.len() - 1] {
        b.apply(r.clone())
            .map_err(|e| format!("fork scenario history B apply: {e}"))?;
    }
    b.apply(fresh_department(workload, "Dept-fork".to_string()))
        .map_err(|e| format!("fork record apply: {e}"))?;
    let b = PrimaryNode::new("b", GroupCommit::new(b, sweep_group_config()), set.epoch());

    let mut refusals = 0u64;

    // Primary-side gate: m1's position claim names a frame CRC history
    // B never wrote — B answers with a lone `diverged`.
    let ReplicaMsg::Hello {
        next_lsn, last_crc, ..
    } = set.member(CUT).expect("member registered").hello()
    else {
        unreachable!("hello() builds a Hello")
    };
    let replies = b
        .hello_view()
        .answer(next_lsn, last_crc, 32)
        .map_err(|e| format!("fork scenario: history B cannot answer: {e}"))?;
    match replies.as_slice() {
        [ReplicaMsg::Diverged { lsn, .. }] if *lsn == next_lsn - 1 => refusals += 1,
        other => {
            return Err(format!(
                "fork scenario: primary-side gate did not refuse ({other:?})"
            ))
        }
    }

    // Member-side duplicate check: history B's forked frame reaches m1
    // over the transport; m1 must refuse it, and the refusal is sticky.
    let fork_lsn = b.wal_position() - 1;
    let frames = b
        .group()
        .with_store(|s| s.tail(fork_lsn))
        .map_err(|e| format!("fork scenario tail: {e}"))?;
    let epoch = set.epoch();
    set.transport_mut()
        .send(CUT, &ReplicaMsg::Frames { epoch, frames })
        .map_err(|e| format!("fork scenario send: {e}"))?;
    let events = set.tick();
    let reported = events
        .iter()
        .any(|e| matches!(e, ClusterEvent::MemberRefused { node, .. } if node == CUT));
    match set.member(CUT).and_then(Follower::refusal_error) {
        Some(ReplicaError::Diverged { lsn, .. }) if lsn == fork_lsn && reported => refusals += 1,
        other => {
            return Err(format!(
                "fork scenario: member duplicate check did not refuse ({other:?})"
            ))
        }
    }

    // A refusing member is never elected: with the primary gone, the
    // group's only member refuses, so no candidate may stand.
    drop(set.kill_primary());
    match set.elect() {
        Err(ReplicaError::NoQuorum { votes: 0, .. }) if set.primary().is_none() => refusals += 1,
        other => {
            return Err(format!(
                "fork scenario: the refusing member was electable ({other:?})"
            ))
        }
    }

    drop(set);
    std::fs::remove_dir_all(base).ok();
    Ok(refusals)
}

/// Sweeps every fault-injection point of the quorum-replicated workload
/// over the in-process channel and checks the cluster invariants at
/// each one: **no quorum-acknowledged commit is ever lost** across a
/// single-node crash or partition, **no two primaries accept writes in
/// the same epoch** (the deposed one is probed at every failover), and
/// every surviving or restarted node is **byte-identical** to the
/// replay of its log. Then runs the quorum-loss and divergence
/// scenarios.
///
/// # Errors
///
/// A description of the first violated invariant — any `Err` is a
/// cluster bug.
pub fn cluster_sweep(
    base_dir: &Path,
    seed: u64,
    target_records: usize,
) -> Result<ClusterSweepOutcome, String> {
    let workload = generate(seed, target_records);
    let mut outcome = sweep_with(&ChannelLab, base_dir, &workload, seed)?;
    quorum_loss_scenario(&base_dir.join("q-loss"), &workload, &mut outcome)?;
    outcome.divergence_refusals = divergence_scenario(&base_dir.join("fork"), &workload)?;
    Ok(outcome)
}

/// The per-point classes of [`cluster_sweep`] over loopback TCP: every
/// run ships its messages through a [`MsgRouter`] socket, and the link
/// faults are *socket* faults on `m1`'s connection — stalled past the
/// client's read timeout (healing) or dropped (permanent) — injected by
/// a [`FaultProxy`]. The invariants checked are identical.
///
/// # Errors
///
/// A description of the first violated invariant — any `Err` is a
/// cluster (or socket-layer) bug.
pub fn cluster_sweep_net(
    base_dir: &Path,
    seed: u64,
    target_records: usize,
) -> Result<ClusterSweepOutcome, String> {
    sweep_with(&TcpLab, base_dir, &generate(seed, target_records), seed)
}

fn sweep_with<L: TransportLab>(
    lab: &L,
    base_dir: &Path,
    workload: &Workload,
    seed: u64,
) -> Result<ClusterSweepOutcome, String> {
    let prefixes = prefix_states(workload)?;
    let mut outcome = ClusterSweepOutcome {
        records: workload.records,
        ..ClusterSweepOutcome::default()
    };

    // ---- Stage 0: fault-free quorum run, then a late joiner --------
    let free_dir = base_dir.join("free");
    let free = run_cluster(&free_dir, workload, Io::plain(), Io::plain(), lab.clean()?)?;
    let mut set = free.set.expect("fault-free run has a set");
    if free.primary_crashed || free.unreplicated != 0 || free.committed != workload.records as u64 {
        return Err(format!(
            "fault-free run committed {}/{} ({} unreplicated)",
            free.committed, workload.records, free.unreplicated
        ));
    }
    if free.acked.len() != workload.records {
        return Err(format!(
            "fault-free run acked {} of {} commits",
            free.acked.len(),
            workload.records
        ));
    }
    let head = set.primary().expect("primary lives").wal_position();
    if set.primary().expect("primary lives").quorum_lsn() < head {
        return Err("fault-free watermark never caught the head".to_string());
    }
    converge_member(&mut set, CUT, &prefixes, "fault-free")?;
    converge_member(&mut set, "m2", &prefixes, "fault-free")?;
    let primary_points = set
        .primary()
        .expect("primary lives")
        .group()
        .with_store(DurableTmd::io_ops);
    let member_points = set.member(CUT).expect("member registered").io_ops();
    let link_points = lab.link_points(set.transport_mut());
    outcome.snapshots_served += late_joiner(&mut set, workload, &prefixes)?;
    drop(set);

    // ---- Stage A: primary crashes at every I/O primitive -----------
    let a_dir = base_dir.join("p-crash");
    for k in 0..primary_points {
        outcome.injection_points += 1;
        let io = Io::faulty(FaultPlan::crash_after(k, seed));
        let run = run_cluster(&a_dir, workload, io, Io::plain(), lab.clean()?)?;
        let Some(mut set) = run.set else {
            outcome.primary_crashes += 1;
            outcome.unpromotable += 1; // Crashed creating the primary.
            continue;
        };
        let what = format!("primary crash {k}");
        if !run.primary_crashed {
            // The fault fired inside a read path or not at all on this
            // run's shorter op sequence; the workload completed — treat
            // as a clean point.
            assert_acked_present(&set, &run.acked, &format!("{what} (no-fire)"))?;
            continue;
        }
        outcome.primary_crashes += 1;
        outcome.unreplicated_commits += run.unreplicated;
        outcome.snapshots_served += set.stats().snapshots_served;
        drop(set.kill_primary()); // Release the store; rejoin reopens the dir.
        match set.elect() {
            Ok(_) => {
                outcome.elections += 1;
                assert_acked_present(&set, &run.acked, &what)?;
                assert_prefix_consistent(&set, &prefixes, &what)?;
                // The crashed primary rejoins: recovery, then the
                // truncation-on-rejoin invariant — any suffix beyond
                // the CRC match point with the new primary is cut.
                count_rejoin(&mut outcome, set.rejoin_member("primary"), &what)?;
                converge_member(&mut set, "primary", &prefixes, &what)?;
                assert_acked_present(&set, &run.acked, &format!("{what} post-rejoin"))?;
            }
            Err(ReplicaError::NoQuorum { .. }) if run.acked.is_empty() => {
                // Crashed before anything replicated; no member holds
                // state worth electing.
                outcome.unpromotable += 1;
            }
            Err(e) => {
                return Err(format!(
                    "{what}: election failed despite {} acked commits: {e}",
                    run.acked.len()
                ))
            }
        }
    }

    // ---- Stage M: member crashes at every I/O primitive ------------
    let m_dir = base_dir.join("m-crash");
    for k in 0..member_points {
        outcome.injection_points += 1;
        let what = format!("member crash {k}");
        let io = Io::faulty(FaultPlan::crash_after(k, seed ^ 0x5EED_F011));
        let run = run_cluster(&m_dir, workload, Io::plain(), io, lab.clean()?)?;
        if run.primary_crashed || run.committed != workload.records as u64 {
            return Err(format!(
                "{what}: primary was disturbed ({} committed)",
                run.committed
            ));
        }
        if run.unreplicated > 0 {
            return Err(format!(
                "{what}: one crashed member blocked the quorum ({} unreplicated)",
                run.unreplicated
            ));
        }
        let mut set = run.set.expect("set lives");
        // Late crash points fire while the member catches up.
        let mut restarts = run.member_restarts;
        let head = set.primary().expect("primary lives").wal_position();
        for _ in 0..DRAIN_TICKS {
            if restart_crashed(&mut set)? {
                restarts += 1;
            }
            if set.member(CUT).is_some_and(|f| f.next_lsn() >= head) {
                break;
            }
            set.tick();
        }
        if restarts == 0 {
            return Err(format!("{what}: the crash never fired"));
        }
        outcome.member_crashes += 1;
        outcome.snapshots_served += set.stats().snapshots_served;
        assert_acked_present(&set, &run.acked, &what)?;
        converge_member(&mut set, CUT, &prefixes, &what)?;
        converge_member(&mut set, "m2", &prefixes, &what)?;
    }

    // ---- Stage B: fault m1's link at every transport step ----------
    let b_dir = base_dir.join("partition");
    for point in 0..2 * link_points {
        let (j, heals) = (point / 2, point % 2 == 0);
        outcome.injection_points += 1;
        outcome.partitions += 1;
        let what = format!("partition {j}");
        if heals {
            // Healing outage: the group must reconverge exactly, and
            // no commit may be lost or rewritten.
            let run = run_cluster(&b_dir, workload, Io::plain(), Io::plain(), lab.outage(j)?)?;
            if run.primary_crashed {
                return Err(format!("{what}: primary was disturbed"));
            }
            let mut set = run.set.expect("set lives");
            outcome.unreplicated_commits += run.unreplicated;
            outcome.snapshots_served += set.stats().snapshots_served;
            assert_acked_present(&set, &run.acked, &what)?;
            converge_member(&mut set, CUT, &prefixes, &what)?;
            converge_member(&mut set, "m2", &prefixes, &what)?;
            outcome.healed_outages += 1;
        } else {
            // Permanent partition of m1, then an operator failover:
            // the quorum must have stayed reachable through m2, the
            // deposed primary must be fenced, and it must refuse a
            // write in the new epoch — no two primaries ever accept
            // writes in the same epoch.
            let run = run_cluster(
                &b_dir,
                workload,
                Io::plain(),
                Io::plain(),
                lab.partition(j)?,
            )?;
            if run.primary_crashed {
                return Err(format!("{what}: primary was disturbed"));
            }
            let mut set = run.set.expect("set lives");
            outcome.snapshots_served += set.stats().snapshots_served;
            if run.unreplicated > 0 {
                return Err(format!(
                    "{what}: quorum unreachable with a single member cut \
                     ({} unreplicated)",
                    run.unreplicated
                ));
            }
            assert_acked_present(&set, &run.acked, &what)?;
            match set.elect() {
                Ok((_winner, epoch)) => {
                    outcome.elections += 1;
                    let failover = format!("{what} failover");
                    assert_acked_present(&set, &run.acked, &failover)?;
                    assert_prefix_consistent(&set, &prefixes, &failover)?;
                    let old = set.retired_mut().expect("deposed primary retained");
                    if !old.is_fenced() {
                        return Err(format!("{what}: deposed primary not fenced"));
                    }
                    match old.commit(probe_record(workload)) {
                        Err(ReplicaError::Fenced { epoch: at }) if at == epoch => {
                            outcome.fenced_refusals += 1;
                        }
                        other => {
                            return Err(format!(
                                "{what}: deposed primary accepted a write or was \
                                 fenced at the wrong epoch ({other:?})"
                            ))
                        }
                    }
                    // The deposed primary rejoins the group it lost.
                    count_rejoin(&mut outcome, set.rejoin_member("primary"), &what)?;
                    converge_member(&mut set, "primary", &prefixes, &format!("{what} rejoin"))?;
                }
                Err(ReplicaError::NoQuorum { .. }) => {
                    // The partition fired before m2 replicated enough
                    // to stand safely; the standing primary must keep
                    // serving.
                    outcome.failed_elections += 1;
                    let lsn = set
                        .commit_local(probe_record(workload))
                        .map_err(|e| format!("{what}: standing primary refused: {e}"))?;
                    if lsn == 0 {
                        return Err(format!("{what}: probe commit returned LSN 0"));
                    }
                    assert_acked_present(&set, &run.acked, &format!("{what} no-quorum"))?;
                }
                Err(e) => return Err(format!("{what}: election failed oddly: {e}")),
            }
        }
    }

    if outcome.fenced_refusals == 0 {
        return Err("no failover ever probed the dual-primary invariant".to_string());
    }
    if outcome.elections == 0 {
        return Err("no election ever ran".to_string());
    }

    std::fs::remove_dir_all(&free_dir).ok();
    std::fs::remove_dir_all(&a_dir).ok();
    std::fs::remove_dir_all(&m_dir).ok();
    std::fs::remove_dir_all(&b_dir).ok();
    Ok(outcome)
}

// ---------------------------------------------------- membership sweep

/// What a [`membership_sweep`] established.
#[derive(Debug, Default)]
pub struct MembershipSweepOutcome {
    /// Total injection points exercised across all classes.
    pub injection_points: u64,
    /// Runs where the primary's I/O crashed mid-reconfiguration.
    pub primary_crashes: u64,
    /// Runs with an injected partition of the joiner or the removed
    /// member.
    pub partitions: u64,
    /// Learner promotions observed (catch-up-before-vote completing).
    pub promotions: u64,
    /// Journaled removals that completed.
    pub removals: u64,
    /// Elections won during or after a reconfiguration.
    pub elections: u64,
    /// Deposed primaries probed refusing a write — the dual-primary
    /// invariant under reconfiguration.
    pub fenced_refusals: u64,
    /// Forged acks from a removed id that the watermark ignored.
    pub stale_acks_fenced: u64,
    /// Reconfigurations that completed *after* a failover — the
    /// in-flight change survives the primary's crash.
    pub resumed_reconfigs: u64,
    /// Crashes so early no member held state to elect.
    pub unpromotable: u64,
    /// Commits that timed out waiting for quorum.
    pub unreplicated_commits: u64,
    /// Logical records in the workload.
    pub records: usize,
}

/// Result of one scripted membership-change run.
struct MembershipRun {
    set: Option<ClusterSet<MemberPartition>>,
    /// Every quorum-acknowledged `(lsn, crc)` pair.
    acked: Vec<(u64, u32)>,
    /// LSN of the journaled add, once issued.
    add_lsn: Option<u64>,
    /// The learner was promoted to voter.
    promoted: bool,
    /// The journaled remove completed.
    remove_done: bool,
    unreplicated: u64,
    primary_crashed: bool,
}

/// Commits one record under quorum inside the scripted run; returns
/// `false` when the primary crashed (script must stop).
fn script_commit(
    set: &mut ClusterSet<MemberPartition>,
    record: WalRecord,
    run: &mut MembershipRun,
) -> Result<bool, String> {
    match set.commit_quorum(record) {
        Ok(lsn) => {
            let crc = set
                .primary()
                .expect("primary lives")
                .tailer()
                .crc_at(lsn)
                .map_err(|e| format!("crc_at({lsn}) failed: {e}"))?;
            if let Some(crc) = crc {
                run.acked.push((lsn, crc));
            }
            Ok(true)
        }
        Err(ReplicaError::Durable(DurableError::Unreplicated { .. })) => {
            run.unreplicated += 1;
            Ok(true)
        }
        Err(ReplicaError::Durable(e)) if e.is_io_class() => {
            run.primary_crashed = true;
            Ok(false)
        }
        Err(e) => Err(format!("scripted commit failed non-faultily: {e}")),
    }
}

/// Drives one scripted membership-change workload: base traffic on
/// primary + m1 + m2, a checkpoint (pruning the tail the joiner will
/// need, forcing the snapshot path), a journaled **add** of `m3`
/// (learner until caught up), traffic during catch-up, a journaled
/// **remove** of `m1`, and tail traffic under the shrunk group. Ends
/// with the forged-ack probe: a stale ack from the removed id must
/// never move the watermark.
fn run_membership(
    base: &Path,
    workload: &Workload,
    primary_io: Io,
    transport: MemberPartition,
) -> Result<MembershipRun, String> {
    std::fs::remove_dir_all(base).ok();
    let mut run = MembershipRun {
        set: None,
        acked: Vec::new(),
        add_lsn: None,
        promoted: false,
        remove_done: false,
        unreplicated: 0,
        primary_crashed: false,
    };
    let mut set = match ClusterSet::bootstrap(
        base,
        workload.seed_schema.clone(),
        sweep_options(),
        sweep_group_config(),
        sweep_cluster_config(),
        transport,
        primary_io,
    ) {
        Ok(set) => set,
        Err(ReplicaError::Durable(e)) if e.is_io_class() => {
            run.primary_crashed = true;
            return Ok(run);
        }
        Err(e) => return Err(format!("membership bootstrap failed non-faultily: {e}")),
    };
    set.add_member("m1", Io::plain());
    set.add_member("m2", Io::plain());

    // Split the workload: the last six ops are reserved as the
    // traffic that rides *through* the reconfiguration phases.
    let op_positions: Vec<usize> = workload
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, Step::Op(_)))
        .map(|(i, _)| i)
        .collect();
    let reserve = 6.min(op_positions.len().saturating_sub(1));
    let phase_cut = op_positions[op_positions.len() - reserve];
    let tail_ops: Vec<WalRecord> = workload.steps[phase_cut..]
        .iter()
        .filter_map(|s| match s {
            Step::Op(r) => Some(r.clone()),
            Step::Checkpoint => None,
        })
        .collect();

    // Phase 1 — base traffic.
    for step in &workload.steps[..phase_cut] {
        let ok = match step {
            Step::Op(record) => script_commit(&mut set, record.clone(), &mut run)?,
            Step::Checkpoint => match set.checkpoint() {
                Ok(()) => true,
                Err(ReplicaError::Durable(e)) if e.is_io_class() => {
                    run.primary_crashed = true;
                    false
                }
                Err(e) => return Err(format!("scripted checkpoint failed: {e}")),
            },
        };
        if !ok {
            run.set = Some(set);
            return Ok(run);
        }
    }
    // Checkpoint so the joiner's tail is pruned: its bootstrap must go
    // through the snapshot path, not a frame replay from LSN 1.
    if let Err(e) = set.checkpoint() {
        match e {
            ReplicaError::Durable(e) if e.is_io_class() => {
                run.primary_crashed = true;
                run.set = Some(set);
                return Ok(run);
            }
            e => return Err(format!("pre-join checkpoint failed: {e}")),
        }
    }

    // Phase 2 — journaled add of m3; it enters as a learner.
    match set.reconfig_add("m3", "local://m3", Io::plain()) {
        Ok(lsn) => run.add_lsn = Some(lsn),
        Err(ReplicaError::Durable(e)) if e.is_io_class() => {
            run.primary_crashed = true;
            run.set = Some(set);
            return Ok(run);
        }
        Err(e) => return Err(format!("reconfig_add failed non-faultily: {e}")),
    }
    if !set.is_learner("m3") {
        return Err("joiner did not enter as a learner".to_string());
    }
    let mut tail = tail_ops.into_iter();
    for record in tail.by_ref().take(2) {
        if !script_commit(&mut set, record, &mut run)? {
            run.set = Some(set);
            return Ok(run);
        }
    }
    // Catch-up: ticks until the learner's synced position reaches the
    // watermark and the supervisor promotes it. Promotion may already
    // have happened inside a commit's own supervision rounds, so the
    // *state* — not the event stream — is the authority.
    for _ in 0..DRAIN_TICKS {
        if set.pending_reconfig().is_none() && !set.is_learner("m3") {
            run.promoted = true;
            break;
        }
        set.tick();
    }

    // Phase 3 — journaled remove of m1 (even while it is partitioned:
    // removal must never need the removed member's cooperation).
    if run.promoted {
        match set.reconfig_remove("m1") {
            Ok(_) => {}
            Err(ReplicaError::Durable(e)) if e.is_io_class() => {
                run.primary_crashed = true;
                run.set = Some(set);
                return Ok(run);
            }
            Err(e) => return Err(format!("reconfig_remove failed non-faultily: {e}")),
        }
        for record in tail.by_ref().take(2) {
            if !script_commit(&mut set, record, &mut run)? {
                run.set = Some(set);
                return Ok(run);
            }
        }
        for _ in 0..DRAIN_TICKS {
            if set.pending_reconfig().is_none() {
                run.remove_done = true;
                break;
            }
            set.tick();
        }
        // Tail traffic under the shrunk group.
        for record in tail {
            if !script_commit(&mut set, record, &mut run)? {
                run.set = Some(set);
                return Ok(run);
            }
        }
    }
    run.set = Some(set);
    Ok(run)
}

/// Probes that a forged ack from the removed member id cannot move
/// the quorum watermark — "no quorum counted against a stale group".
fn probe_stale_ack(
    set: &ClusterSet<MemberPartition>,
    outcome: &mut MembershipSweepOutcome,
    what: &str,
) -> Result<(), String> {
    let Some(p) = set.primary() else {
        return Ok(());
    };
    let before = p.quorum_lsn();
    p.group().member_synced("m1", u64::MAX);
    if p.quorum_lsn() != before {
        return Err(format!(
            "{what}: a forged ack from removed `m1` moved the watermark \
             ({before} -> {})",
            p.quorum_lsn()
        ));
    }
    outcome.stale_acks_fenced += 1;
    Ok(())
}

/// Ticks until member `name` reaches the primary's head, then asserts
/// its replicated schema is byte-identical to the primary's.
fn converge_membership(
    set: &mut ClusterSet<MemberPartition>,
    name: &str,
    what: &str,
) -> Result<(), String> {
    let head = set.primary().expect("primary lives").wal_position();
    for _ in 0..DRAIN_TICKS {
        if set.member(name).is_some_and(|f| f.next_lsn() >= head) {
            break;
        }
        set.tick();
    }
    let primary_bytes = serialise(&set.primary().expect("primary lives").schema());
    let f = set
        .member(name)
        .ok_or_else(|| format!("{what}: member {name} missing"))?;
    if f.next_lsn() < head {
        return Err(format!(
            "{what}: member {name} stopped at LSN {} of {head}",
            f.next_lsn()
        ));
    }
    let schema = f
        .schema()
        .ok_or_else(|| format!("{what}: member {name} never bootstrapped"))?;
    if serialise(schema) != primary_bytes {
        return Err(format!("{what}: member {name} diverged from the primary"));
    }
    Ok(())
}

/// After a crash-driven failover, completes whatever reconfiguration
/// was still in flight: a pending add must still promote the learner
/// under the new primary; a pending remove must still commit under
/// the shrunk group (probe commits push the watermark past it).
fn resume_reconfig(
    set: &mut ClusterSet<MemberPartition>,
    workload: &Workload,
    run: &mut MembershipRun,
    outcome: &mut MembershipSweepOutcome,
    what: &str,
) -> Result<(), String> {
    let Some(pending) = set.pending_reconfig().cloned() else {
        return Ok(());
    };
    if pending.add {
        if set.member(&pending.member).is_none() {
            return Err(format!("{what}: pending joiner vanished across failover"));
        }
        for _ in 0..DRAIN_TICKS {
            if set.pending_reconfig().is_none() {
                break;
            }
            set.tick();
        }
        if set.pending_reconfig().is_some() {
            return Err(format!(
                "{what}: in-flight add never completed after the failover"
            ));
        }
        run.promoted = true;
    } else {
        for _ in 0..8 {
            if set.pending_reconfig().is_none() {
                break;
            }
            let _ = script_commit(set, probe_record(workload), run)?;
        }
        if set.pending_reconfig().is_some() {
            return Err(format!(
                "{what}: in-flight remove never committed after the failover"
            ));
        }
        run.remove_done = true;
    }
    outcome.resumed_reconfigs += 1;
    Ok(())
}

/// Staged dual-primary scenario: an operator failover *while the add
/// is in flight* (learner unpromoted). The deposed primary must be
/// fenced and refuse a write; the winner must not be the learner; the
/// add must complete under the new primary.
fn reconfig_failover_scenario(
    base: &Path,
    workload: &Workload,
    outcome: &mut MembershipSweepOutcome,
) -> Result<(), String> {
    let mut run = run_membership(base, workload, Io::plain(), MemberPartition::clean())?;
    let mut set = run.set.take().expect("clean run has a set");
    // Re-issue a fresh add so a reconfiguration is in flight now: the
    // clean run completed both changes, so add a fourth member.
    let lsn = set
        .reconfig_add("m4", "local://m4", Io::plain())
        .map_err(|e| format!("failover scenario: add refused: {e}"))?;
    // A second change while this one is in flight must be refused with
    // the typed error.
    match set.reconfig_remove("m2") {
        Err(ReplicaError::Durable(DurableError::ReconfigInFlight { lsn: at, member })) => {
            if at != lsn || member != "m4" {
                return Err(format!(
                    "failover scenario: ReconfigInFlight names ({member}, {at}), \
                     expected (m4, {lsn})"
                ));
            }
        }
        other => {
            return Err(format!(
                "failover scenario: overlapping reconfig not refused ({other:?})"
            ))
        }
    }
    let old = set.kill_primary().expect("primary present");
    drop(old);
    let (winner, epoch) = set
        .elect()
        .map_err(|e| format!("failover scenario: election failed: {e}"))?;
    outcome.elections += 1;
    if winner == "m4" {
        return Err("failover scenario: unpromoted learner won the election".to_string());
    }
    assert_acked_present(&set, &run.acked, "failover scenario")?;
    // Rejoin the deposed primary, then probe the dual-primary
    // invariant through a retired handle: a second operator failover
    // fences the *standing* primary.
    match set.rejoin_member("primary") {
        Ok(_) => {}
        Err(e) => return Err(format!("failover scenario: rejoin failed: {e}")),
    }
    resume_reconfig(&mut set, workload, &mut run, outcome, "failover scenario")?;
    let _ = set.run_ticks(8);
    match set.elect() {
        Ok((_, epoch2)) => {
            outcome.elections += 1;
            if epoch2 <= epoch {
                return Err("failover scenario: epoch did not advance".to_string());
            }
            let old = set.retired_mut().expect("deposed primary retained");
            if !old.is_fenced() {
                return Err("failover scenario: deposed primary not fenced".to_string());
            }
            match old.commit(probe_record(workload)) {
                Err(ReplicaError::Fenced { epoch: at }) if at == epoch2 => {
                    outcome.fenced_refusals += 1;
                }
                other => {
                    return Err(format!(
                        "failover scenario: deposed primary accepted a write ({other:?})"
                    ))
                }
            }
        }
        Err(e) => return Err(format!("failover scenario: second election failed: {e}")),
    }
    std::fs::remove_dir_all(base).ok();
    Ok(())
}

/// Sweeps every fault-injection point of a scripted **membership
/// change** (journaled add with learner catch-up, then a journaled
/// remove) and checks, at each point: **no quorum-acknowledged commit
/// is ever lost**, **no two primaries accept writes in the same
/// epoch**, **an unpromoted learner never wins an election**, and **no
/// quorum is ever counted against a stale group** (forged acks from
/// the removed id are fenced; an in-flight change survives failover
/// and completes under the new primary).
///
/// # Errors
///
/// A description of the first violated invariant — any `Err` is a
/// cluster bug.
pub fn membership_sweep(
    base_dir: &Path,
    seed: u64,
    target_records: usize,
) -> Result<MembershipSweepOutcome, String> {
    let workload = generate(seed, target_records);
    let mut outcome = MembershipSweepOutcome {
        records: workload.records,
        ..MembershipSweepOutcome::default()
    };

    // ---- Stage 0: fault-free membership run ------------------------
    let free_dir = base_dir.join("m-free");
    let free = run_membership(&free_dir, &workload, Io::plain(), MemberPartition::clean())?;
    if free.primary_crashed {
        return Err("fault-free membership run crashed".to_string());
    }
    if !free.promoted || !free.remove_done {
        return Err(format!(
            "fault-free membership run: promoted={}, remove_done={}",
            free.promoted, free.remove_done
        ));
    }
    let mut set = free.set.expect("fault-free run has a set");
    if set.group_size() != 3 {
        return Err(format!(
            "fault-free membership run: group size {} after add+remove, expected 3",
            set.group_size()
        ));
    }
    probe_stale_ack(&set, &mut outcome, "fault-free")?;
    assert_acked_present(&set, &free.acked, "fault-free membership")?;
    converge_membership(&mut set, "m2", "fault-free membership")?;
    converge_membership(&mut set, "m3", "fault-free membership")?;
    outcome.promotions += 1;
    outcome.removals += 1;
    let primary_points = set
        .primary()
        .expect("primary lives")
        .group()
        .with_store(mvolap_durable::DurableTmd::io_ops);
    let transport_points = set.transport_steps();
    drop(set);

    // ---- Stage A: crash the primary at every I/O primitive ---------
    let a_dir = base_dir.join("m-crash");
    for k in 0..primary_points {
        outcome.injection_points += 1;
        let io = Io::faulty(FaultPlan::crash_after(k, seed));
        let mut run = run_membership(&a_dir, &workload, io, MemberPartition::clean())?;
        let Some(mut set) = run.set.take() else {
            outcome.primary_crashes += 1;
            outcome.unpromotable += 1;
            continue;
        };
        if !run.primary_crashed {
            assert_acked_present(&set, &run.acked, &format!("member crash {k} (no-fire)"))?;
            continue;
        }
        outcome.primary_crashes += 1;
        outcome.unreplicated_commits += run.unreplicated;
        let learner_standing = set.is_learner("m3");
        let old = set.kill_primary().expect("primary present before kill");
        drop(old);
        match set.elect() {
            Ok((winner, _epoch)) => {
                outcome.elections += 1;
                if learner_standing && winner == "m3" {
                    return Err(format!(
                        "member crash {k}: unpromoted learner won the election"
                    ));
                }
                assert_acked_present(&set, &run.acked, &format!("member crash {k}"))?;
                match set.rejoin_member("primary") {
                    Ok(_) => {}
                    Err(e) => return Err(format!("member crash {k}: rejoin failed: {e}")),
                }
                resume_reconfig(
                    &mut set,
                    &workload,
                    &mut run,
                    &mut outcome,
                    &format!("member crash {k}"),
                )?;
                assert_acked_present(&set, &run.acked, &format!("member crash {k} post-resume"))?;
            }
            Err(ReplicaError::NoQuorum { .. }) if run.acked.is_empty() => {
                outcome.unpromotable += 1;
            }
            Err(e) => {
                return Err(format!(
                    "member crash {k}: election failed despite {} acked commits: {e}",
                    run.acked.len()
                ))
            }
        }
    }

    // ---- Stage B: partition the joiner / the removed member --------
    let b_dir = base_dir.join("m-partition");
    // Every protocol step, bounded to keep the sweep tractable: the
    // stride still lands points in every phase of the script.
    let stride = (transport_points / 128).max(1) as usize;
    for j in (0..transport_points).step_by(stride) {
        outcome.injection_points += 1;
        outcome.partitions += 1;
        if (j / stride as u64).is_multiple_of(2) {
            // The *joiner* suffers a healing outage mid-catch-up: the
            // snapshot transfer and promotion must still complete.
            let transport = MemberPartition::new(&["m3"], j, OUTAGE_OPS);
            let run = run_membership(&b_dir, &workload, Io::plain(), transport)?;
            if run.primary_crashed {
                return Err(format!("member partition {j}: primary was disturbed"));
            }
            let mut set = run.set.expect("set lives");
            outcome.unreplicated_commits += run.unreplicated;
            if !run.promoted {
                return Err(format!(
                    "member partition {j}: joiner never promoted after the outage healed"
                ));
            }
            if !run.remove_done {
                return Err(format!("member partition {j}: removal never completed"));
            }
            assert_acked_present(&set, &run.acked, &format!("member partition {j}"))?;
            probe_stale_ack(&set, &mut outcome, &format!("member partition {j}"))?;
            converge_membership(&mut set, "m3", &format!("member partition {j}"))?;
            outcome.promotions += 1;
            outcome.removals += 1;
        } else {
            // The member being *removed* is cut permanently: removal
            // must never need its cooperation, and the group must
            // re-route quorum through the surviving voters.
            let transport = MemberPartition::new(&["m1"], j, u64::MAX);
            let run = run_membership(&b_dir, &workload, Io::plain(), transport)?;
            if run.primary_crashed {
                return Err(format!("member partition {j}: primary was disturbed"));
            }
            let mut set = run.set.expect("set lives");
            outcome.unreplicated_commits += run.unreplicated;
            if !run.promoted {
                return Err(format!(
                    "member partition {j}: joiner never promoted with m1 cut"
                ));
            }
            if !run.remove_done {
                return Err(format!(
                    "member partition {j}: removing a partitioned member never completed"
                ));
            }
            if set.member("m1").is_some() {
                return Err(format!("member partition {j}: removed member still routed"));
            }
            assert_acked_present(&set, &run.acked, &format!("member partition {j}"))?;
            probe_stale_ack(&set, &mut outcome, &format!("member partition {j}"))?;
            converge_membership(&mut set, "m3", &format!("member partition {j}"))?;
            outcome.promotions += 1;
            outcome.removals += 1;
        }
    }

    // ---- Staged scenario: failover mid-reconfiguration -------------
    reconfig_failover_scenario(&base_dir.join("m-failover"), &workload, &mut outcome)?;
    outcome.injection_points += 1;

    if outcome.fenced_refusals == 0 {
        return Err("no failover ever probed the dual-primary invariant".to_string());
    }
    if outcome.stale_acks_fenced == 0 {
        return Err("no run ever probed the stale-group fence".to_string());
    }
    if outcome.promotions == 0 || outcome.removals == 0 {
        return Err("the sweep never completed a reconfiguration".to_string());
    }

    std::fs::remove_dir_all(&free_dir).ok();
    std::fs::remove_dir_all(&a_dir).ok();
    std::fs::remove_dir_all(&b_dir).ok();
    Ok(outcome)
}
