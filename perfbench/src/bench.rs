//! The three workloads: set-up, the measured window, the correctness
//! gate and the metrics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mvolap_cluster::{LocalCluster, PumpConfig};
use mvolap_core::{ExecContext, MemoStats, QueryMemo, Tmd};
use mvolap_durable::{DurableTmd, GroupCommit, GroupConfig, Options};
use mvolap_prng::Rng;
use mvolap_replica::{NetAddr, NetConfig};
use mvolap_server::{PoolStats, ServerOptions, SessionClient, SessionServer};

use crate::check::{render_query, verify_answers, QueryRecord};
use crate::gen::{self, QueryStream, Script, Template, Warehouse};
use crate::report::{median, tail, Report};
use crate::run::{load, Backend, InProcess, Progress, Reader, SessionLog, Shared, Wire};
use crate::trace::{write_spans, Span, Tracer};

/// Client sessions per run — the reference host's processor count.
pub const SESSIONS: usize = 2;
/// Commits per second the paced loader aims at. The pace fixes how much
/// the warehouse grows in a run and keeps a run's commits below the
/// 1,024 records that trigger a checkpoint.
pub const COMMIT_RATE: f64 = 40.0;
/// Every n-th `evolve_mixed` commit is an evolution operator. At 16
/// (2.5 a second) every query window between two evolutions is about
/// four queries long, so nearly every `tcm` query finds the memo
/// flushed. At 64 about half did, and whether a run's `tcm` median was
/// cold or warm, and with it the query tail, changed from run to run.
pub const EVOLUTION_EVERY: usize = 16;
/// Every n-th request of the first `olap_read` session is a commit.
pub const OLAP_COMMIT_EVERY: usize = 4;
/// Offered rate of the open-loop query session, per second.
pub const OPEN_RATE: f64 = 10.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// A traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two closed-loop analysts; one commits a fact batch every 8th request.
    OlapRead,
    /// A closed-loop loader with evolutions beside an open-loop reader.
    EvolveMixed,
    /// Fact-only quorum commits beside open-loop fleet-routed reads.
    Quorum3,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "olap_read" => Some(Workload::OlapRead),
            "evolve_mixed" => Some(Workload::EvolveMixed),
            "quorum3" => Some(Workload::Quorum3),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OlapRead => "olap_read",
            Workload::EvolveMixed => "evolve_mixed",
            Workload::Quorum3 => "quorum3",
        }
    }
}

/// The command line.
pub struct Args {
    /// Traffic mix.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
}

/// The served system.
enum System {
    Single(SessionServer),
    Cluster(Box<LocalCluster>),
}

impl System {
    fn group(&self) -> GroupCommit {
        match self {
            System::Single(s) => s.group(),
            System::Cluster(c) => c.group(),
        }
    }

    fn addr(&self) -> NetAddr {
        match self {
            System::Single(s) => s.addr().clone(),
            System::Cluster(c) => c.primary_addr().clone(),
        }
    }

    fn pool_stats(&self) -> PoolStats {
        match self {
            System::Single(s) => s.pool_stats(),
            System::Cluster(c) => c.primary_stats(),
        }
    }

    /// `(shipped frames, requests, stalls)` summed over the pumps.
    fn pumps(&self) -> (u64, u64, u64) {
        match self {
            System::Single(_) => (0, 0, 0),
            System::Cluster(c) => c.pump_status().iter().fold((0, 0, 0), |a, (_, s)| {
                (a.0 + s.shipped_frames, a.1 + s.requests, a.2 + s.stalls)
            }),
        }
    }
}

struct Setup {
    wh: Warehouse,
    script: Script,
    sys: System,
    dir: PathBuf,
    store: PathBuf,
    first_lsn: u64,
    clients: Vec<SessionClient>,
    secs: f64,
    catchup_s: f64,
}

fn net() -> NetConfig {
    // No transparent retry: a resent commit could be journaled twice.
    NetConfig {
        reconnect_attempts: 0,
        read_timeout_ms: 30_000,
        write_timeout_ms: 30_000,
        ..NetConfig::default()
    }
}

fn loopback() -> NetAddr {
    NetAddr::parse("127.0.0.1:0").expect("loopback address parses")
}

/// One query per template, the same for every seed's check.
fn examples(versions: usize) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(7);
    Template::ALL
        .iter()
        .map(|t| t.text(&mut rng, versions))
        .collect()
}

/// Records enough for any session: none commits faster than the loader.
fn script_len(seconds: f64) -> usize {
    (seconds * COMMIT_RATE).ceil() as usize + 64
}

/// Generates the inputs, creates the store(s), serves them, waits for
/// members to catch up and warms every session's memo.
///
/// Each store is checkpointed once at creation, as a deployed warehouse
/// would be, so its bytes are checkpoint plus WAL from the start. A run
/// commits fewer than the 1,024 records after which the store
/// checkpoints again: a checkpoint stalls the store for tens of
/// milliseconds, and one inside some runs but not others would flip the
/// commit tail from run to run.
fn setup(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Setup, String> {
    let start = Instant::now();
    let wh = gen::warehouse(seed)?;
    let every = (w == Workload::EvolveMixed).then_some(EVOLUTION_EVERY);
    let script = gen::script(&wh, seed, script_len(seconds), every)?;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut catchup_s = 0.0;
    let (sys, store) = match w {
        Workload::OlapRead | Workload::EvolveMixed => {
            let store_dir = dir.join("store");
            let mut store =
                DurableTmd::create(&store_dir, wh.tmd.clone()).map_err(|e| e.to_string())?;
            store.checkpoint().map_err(|e| e.to_string())?;
            let group = GroupCommit::new(store, GroupConfig::default());
            let server = SessionServer::spawn(&loopback(), group, ServerOptions::default())
                .map_err(|e| e.to_string())?;
            (System::Single(server), store_dir)
        }
        Workload::Quorum3 => {
            let members = [
                ("m1".to_string(), loopback()),
                ("m2".to_string(), loopback()),
            ];
            let mut cluster = LocalCluster::start(
                dir,
                wh.tmd.clone(),
                &loopback(),
                &members,
                Options::default(),
                GroupConfig::default(),
                ServerOptions::default(),
                NetConfig::default(),
            )
            .map_err(|e| e.to_string())?;
            cluster
                .group()
                .with_store_mut(|st| st.checkpoint())
                .map_err(|e| e.to_string())?;
            let caught = Instant::now();
            cluster.spawn_pumps(PumpConfig::default());
            wait_caught_up(&cluster.group(), Duration::from_secs(60))?;
            catchup_s = caught.elapsed().as_secs_f64();
            (System::Cluster(Box::new(cluster)), dir.join("primary"))
        }
    };
    let first_lsn = sys.group().wal_position();
    let mut clients: Vec<SessionClient> = (0..SESSIONS)
        .map(|_| SessionClient::connect(sys.addr(), net()))
        .collect();
    for c in &mut clients {
        for _ in 0..2 {
            for text in examples(wh.versions) {
                c.query(&text)
                    .map_err(|e| format!("warm-up `{text}`: {e}"))?;
            }
        }
    }
    Ok(Setup {
        wh,
        script,
        sys,
        dir: dir.to_path_buf(),
        store,
        first_lsn,
        clients,
        secs: start.elapsed().as_secs_f64(),
        catchup_s,
    })
}

fn teardown(s: Setup) {
    let dir = s.dir.clone();
    drop(s); // stops the servers, then closes the sessions
    let _ = std::fs::remove_dir_all(dir);
}

/// Waits until every member has synced the primary's whole WAL.
fn wait_caught_up(group: &GroupCommit, timeout: Duration) -> Result<(), String> {
    let deadline = Instant::now() + timeout;
    loop {
        let head = group.wal_position();
        let positions = group.member_positions();
        if positions.len() == 2 && positions.iter().all(|(_, p)| *p >= head) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("members did not catch up to {head}: {positions:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Runs each session's role until `deadline` on its backend, calling
/// `sample` on this thread meanwhile. Returns the backends and logs.
fn drive<B: Backend + Send>(
    w: Workload,
    backends: Vec<B>,
    readers: &mut [Reader],
    sh: &Shared<'_>,
    deadline: Instant,
    sample: &mut dyn FnMut(),
) -> Vec<(B, SessionLog)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = backends
            .into_iter()
            .zip(readers.iter_mut())
            .enumerate()
            .map(|(i, (mut b, r))| {
                scope.spawn(move || {
                    let mut log = SessionLog::default();
                    match (w, i) {
                        (Workload::OlapRead, 0) => {
                            r.closed(&mut b, sh, deadline, Some(OLAP_COMMIT_EVERY), &mut log)
                        }
                        (Workload::OlapRead, _) => r.closed(&mut b, sh, deadline, None, &mut log),
                        (_, 0) => load(&mut b, sh, deadline, COMMIT_RATE, &mut log),
                        _ => r.open(&mut b, sh, deadline, OPEN_RATE, &mut log),
                    }
                    (b, log)
                })
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            sample();
            std::thread::sleep(Duration::from_millis(5));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    })
}

/// Bytes of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Next-LSN of the newest checkpoint file in `store`.
fn newest_checkpoint(store: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(store.join("checkpoint")) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            let lsn = name.strip_prefix("ckpt-g")?.split("-l").nth(1)?;
            lsn.strip_suffix(".tmd")?.parse().ok()
        })
        .max()
        .unwrap_or(0)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn memo_counts(s: MemoStats) -> (u64, u64) {
    let hits = s.routes.hits + s.ancestors.hits;
    (hits, hits + s.routes.misses + s.ancestors.misses)
}

/// Counters read before and after the measured window.
#[derive(Clone, Copy)]
struct Counters {
    fsyncs: u64,
    io_ops: u64,
    wal_bytes: u64,
    refused: u64,
    forwarded: u64,
    pumps: (u64, u64, u64),
}

impl Counters {
    fn read(sys: &System, store: &Path) -> Counters {
        let group = sys.group();
        let pool = sys.pool_stats();
        Counters {
            fsyncs: group.fsyncs(),
            io_ops: group.with_store(|s| s.io_ops()),
            wal_bytes: dir_bytes(&store.join("wal")),
            refused: pool.refused,
            forwarded: pool.forwarded,
            pumps: sys.pumps(),
        }
    }
}

/// What one run produced.
pub struct Outcome {
    /// Metrics and context lines.
    pub report: Report,
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed or refused.
    pub failed: u64,
}

/// Runs one workload in `work` (created and removed here).
///
/// # Errors
///
/// A failure that leaves nothing to report (set-up, I/O).
pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let dir = work.join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let s = setup(w, args.seed, args.seconds, &dir)?;
        setup_secs.push(s.secs);
        teardown(s);
    }
    let mut s = setup(w, args.seed, args.seconds, &dir)?;
    setup_secs.push(s.secs);
    let mut rep = Report::default();
    rep.set("setup_s", median(&setup_secs));
    context_notes(&mut rep, args, &s, &setup_secs);

    let versions = s.wh.versions;
    let progress = Progress::default();
    let sh = Shared {
        script: &s.script,
        progress: &progress,
        first_lsn: s.first_lsn,
        seed: args.seed,
    };
    let mut readers: Vec<Reader> = (0..SESSIONS as u64)
        .map(|i| Reader::new(QueryStream::new(args.seed, i, versions)))
        .collect();
    let exec = ExecContext::new(ServerOptions::default().exec_threads.max(1));
    let wire_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    // Sampled on the main thread while sessions run (traced runs only).
    let mut queued_max = 0usize;
    let mut lag: Vec<f64> = Vec::new();
    let mut checkpoints = 0u64;
    let mut last_ckpt = newest_checkpoint(&s.store);
    let group = s.sys.group();
    let before = Counters::read(&s.sys, &s.store);
    let traced = args.trace;
    let mut sample = || {
        if !traced {
            return;
        }
        queued_max = queued_max.max(s.sys.pool_stats().queued);
        if let System::Cluster(_) = s.sys {
            let head = group.wal_position();
            let behind = group
                .member_positions()
                .iter()
                .map(|(_, p)| head.saturating_sub(*p))
                .max()
                .unwrap_or(0);
            lag.push(behind as f64);
        }
        let ckpt = newest_checkpoint(&s.store);
        if ckpt != last_ckpt {
            checkpoints += 1;
            last_ckpt = ckpt;
        }
    };

    // The wire: every end-to-end number comes from here.
    let started = Instant::now();
    let wire: Vec<Wire<'_>> = s.clients.iter_mut().map(Wire).collect();
    let deadline = started + Duration::from_secs_f64(wire_secs);
    let wire_logs: Vec<SessionLog> = drive(w, wire, &mut readers, &sh, deadline, &mut sample)
        .into_iter()
        .map(|(_, log)| log)
        .collect();
    let wire_elapsed = started.elapsed().as_secs_f64();

    // In-process with spans, continuing the same schedule.
    let mut inproc_logs = Vec::new();
    let mut sessions: Vec<InProcess<'_>> = Vec::new();
    let mut memo_before = (0, 0);
    if args.trace {
        let epoch = Instant::now();
        let mut backends: Vec<InProcess<'_>> = (0..SESSIONS as u64)
            .map(|i| {
                InProcess::new(
                    group.clone(),
                    &exec,
                    Tracer::new(epoch, i),
                    w == Workload::Quorum3,
                )
            })
            .collect();
        for b in &mut backends {
            for text in examples(versions) {
                group
                    .with_store(|st| render_query(st.schema(), &text, &exec, &b.memo))
                    .map_err(|e| format!("in-process warm-up `{text}`: {e}"))?;
            }
            let (h, n) = memo_counts(b.memo.stats());
            memo_before = (memo_before.0 + h, memo_before.1 + n);
        }
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds - wire_secs);
        for (b, log) in drive(w, backends, &mut readers, &sh, deadline, &mut sample) {
            sessions.push(b);
            inproc_logs.push(log);
        }
    }
    let after = Counters::read(&s.sys, &s.store);
    // Before the oracle's replay, whose memory is the benchmark's own.
    rep.set("peak_rss_mb", peak_rss_mb());
    let all_logs: Vec<&SessionLog> = wire_logs.iter().chain(&inproc_logs).collect();
    let acked = progress.acked.load(std::sync::atomic::Ordering::SeqCst);
    let (attempted, failed, mut problems) = tally(&mut rep, &all_logs, &s.script, acked);
    wire_metrics(&mut rep, &wire_logs, wire_elapsed, !args.trace);

    if args.trace {
        let spans: Vec<Span> = sessions
            .iter_mut()
            .flat_map(|b| std::mem::take(&mut b.tracer.spans))
            .collect();
        let trace_path = work.join(format!("spans-{}-{}.tsv", w.name(), args.seed));
        write_spans(&trace_path, &spans).map_err(|e| format!("{}: {e}", trace_path.display()))?;
        rep.note(format!(
            "{} spans written to {}",
            spans.len(),
            trace_path.display()
        ));
        let memo_after = sessions
            .iter()
            .map(|b| memo_counts(b.memo.stats()))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        layer_metrics(
            &mut rep,
            &spans,
            &sessions,
            &wire_logs,
            &all_logs,
            LayerInputs {
                before,
                after,
                commits: acked as u64,
                memo: (memo_after.0 - memo_before.0, memo_after.1 - memo_before.1),
                queued_max,
                lag,
                checkpoints,
                catchup_s: s.catchup_s,
                replicated: w == Workload::Quorum3,
            },
        );
    }
    let records: Vec<QueryRecord> = all_logs
        .iter()
        .flat_map(|l| l.records.iter().cloned())
        .collect();
    drop(all_logs);
    drop((sessions, wire_logs, inproc_logs));

    // The correctness gate.
    let growth = group.wal_position() - s.first_lsn;
    if growth != acked as u64 {
        problems.push(format!(
            "{acked} acknowledged commits but the WAL grew by {growth}"
        ));
    }
    let checked = Instant::now();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let end = verify_answers(&s.wh.tmd, &s.script, &records, acked, cpus)
        .map_err(|e| problems.push(e))
        .ok();
    rep.note(format!(
        "checked {} answers against local replay in {:.2} s",
        records.iter().filter(|r| r.answer.is_some()).count(),
        checked.elapsed().as_secs_f64()
    ));
    let texts = examples(versions);
    if let Some(end) = &end {
        problems.extend(same_state(
            "served store",
            &group_tmd_bytes(&group),
            end,
            &texts,
            &exec,
            |t| group.with_store(|st| render_query(st.schema(), t, &exec, &QueryMemo::new())),
        ));
        if let System::Cluster(c) = &s.sys {
            problems.extend(members_agree(c, &group, end, &texts, &exec));
        }
    }
    let store = s.store.clone();
    drop(group);
    drop(s); // stops the servers and flushes the group commit
    let facts_end = end.as_ref().map_or(0, |t| t.facts().len());
    rep.set(
        "store_bytes_per_row",
        dir_bytes(&store) as f64 / facts_end.max(1) as f64,
    );
    if let (Workload::EvolveMixed, Some(end)) = (w, &end) {
        match DurableTmd::open(&store) {
            Ok(reopened) => {
                let snapshot = tmd_bytes(reopened.schema());
                problems.extend(same_state(
                    "reopened store",
                    &snapshot,
                    end,
                    &texts,
                    &exec,
                    |t| render_query(reopened.schema(), t, &exec, &QueryMemo::new()),
                ));
            }
            Err(e) => problems.push(format!("reopen failed: {e}")),
        }
    }
    for p in &problems {
        rep.note(format!("CHECK FAILED: {p}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Outcome {
        report: rep,
        correct: problems.is_empty(),
        attempted,
        failed,
    })
}

/// The run's context: seed, host, warehouse shape, server defaults,
/// flush policy and the schedule hash.
fn context_notes(rep: &mut Report, args: &Args, s: &Setup, setup_secs: &[f64]) {
    rep.note(format!(
        "workload {} seed {} seconds {} trace {} host_cpus {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    let st = &s.wh.stats;
    rep.note(format!(
        "warehouse (generated from seed {}): {} facts, {} structure versions, splits {} merges {} \
         reclassifications {} creations {} deletions {}",
        s.wh.seed,
        s.wh.tmd.facts().len(),
        s.wh.versions,
        st.splits,
        st.merges,
        st.reclassifications,
        st.creations,
        st.deletions
    ));
    let opts = ServerOptions::default();
    rep.note(format!(
        "server: workers {} exec_threads {}; flush: group hold {} ms, checkpoint every {} records",
        opts.workers,
        opts.exec_threads,
        GroupConfig::default().hold_ms,
        Options::default().policy.every_records
    ));
    rep.note(format!(
        "schedule hash {:016x}; setup_s runs {setup_secs:?}",
        gen::schedule_hash(&s.script, args.seed, SESSIONS as u64, s.wh.versions, 256),
    ));
}

/// Counts attempts and failures over every session (none are dropped)
/// and notes what failed; returns `(attempted, failed, problems)`.
fn tally(
    rep: &mut Report,
    logs: &[&SessionLog],
    script: &Script,
    acked: usize,
) -> (u64, u64, Vec<String>) {
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for l in logs {
        attempted += l.queries.len() + l.commits.len();
        failed += l.queries.iter().filter(|q| !q.ok).count();
        failed += l.commits.iter().filter(|c| !c.ok).count();
        for e in &l.errors {
            if e.starts_with("commit script exhausted") {
                problems.push(e.clone());
            } else {
                rep.note(format!("failed op: {e}"));
            }
        }
    }
    rep.note(format!(
        "ops attempted {attempted} failed {failed} ops_failed_frac {}",
        failed as f64 / attempted.max(1) as f64
    ));
    let evolutions: Vec<String> = script
        .evolution_kinds(acked)
        .iter()
        .map(|(k, n)| format!("{k} {n}"))
        .collect();
    rep.note(format!(
        "acknowledged commits {acked}; evolutions among them: {}",
        if evolutions.is_empty() {
            "none".to_string()
        } else {
            evolutions.join(", ")
        }
    ));
    (attempted as u64, failed as u64, problems)
}

/// Notes the wire window's sample counts and per-template latency and,
/// when `record`, sets the end-to-end latency and rate metrics.
fn wire_metrics(rep: &mut Report, logs: &[SessionLog], elapsed: f64, record: bool) {
    let queries = || logs.iter().flat_map(|l| &l.queries);
    let commits = || logs.iter().flat_map(|l| &l.commits);
    // A failed op counts as missing every latency limit.
    let q_ms: Vec<f64> = queries()
        .map(|q| if q.ok { q.ms } else { f64::INFINITY })
        .collect();
    let c_ms: Vec<f64> = commits()
        .map(|c| if c.ok { c.ms } else { f64::INFINITY })
        .collect();
    let (q_tail, q_q) = tail(&q_ms);
    let (c_tail, c_q) = tail(&c_ms);
    rep.note(format!(
        "queries: {} samples, query_p99_ms is the p{:.2}; commits: {} samples, commit_p99_ms is \
         the p{:.2}",
        q_ms.len(),
        q_q * 100.0,
        c_ms.len(),
        c_q * 100.0
    ));
    let per_template: Vec<String> = Template::ALL
        .iter()
        .map(|t| {
            let v: Vec<f64> = queries()
                .filter(|q| q.template == *t)
                .map(|q| q.ms)
                .collect();
            format!("{} n={} p50={:.3}", t.name(), v.len(), median(&v))
        })
        .collect();
    rep.note(format!(
        "wire query latency by template (ms): {}",
        per_template.join("; ")
    ));
    let by_kind = |evolution: bool| {
        let v: Vec<f64> = commits()
            .filter(|c| c.evolution == evolution)
            .map(|c| c.ms)
            .collect();
        format!("n={} p50={:.3}", v.len(), median(&v))
    };
    rep.note(format!(
        "wire commit latency (ms): fact batches {}; evolutions {}",
        by_kind(false),
        by_kind(true)
    ));
    if record {
        rep.set("query_p50_ms", median(&q_ms));
        rep.set("query_p99_ms", q_tail);
        rep.set(
            "queries_per_s",
            queries().filter(|q| q.ok).count() as f64 / elapsed,
        );
        rep.set("commit_p50_ms", median(&c_ms));
        rep.set("commit_p99_ms", c_tail);
        rep.set(
            "commits_per_s",
            commits().filter(|c| c.ok).count() as f64 / elapsed,
        );
    }
}

/// Once the members catch up, each must answer every example like the
/// local copy at the primary's last LSN.
fn members_agree(
    c: &LocalCluster,
    group: &GroupCommit,
    end: &Tmd,
    texts: &[String],
    exec: &ExecContext,
) -> Vec<String> {
    if let Err(e) = wait_caught_up(group, Duration::from_secs(30)) {
        return vec![e];
    }
    let at = group.wal_position() - 1;
    let mut problems = Vec::new();
    for (name, addr) in c.member_addrs() {
        let mut client = SessionClient::connect(addr, net());
        for t in texts {
            let member = client.read_at(at, t).map_err(|e| e.to_string());
            if member != render_query(end, t, exec, &QueryMemo::new()) {
                problems.push(format!(
                    "member {name} answers `{t}` differently at LSN {at}"
                ));
            }
        }
    }
    problems
}

fn tmd_bytes(tmd: &Tmd) -> Vec<u8> {
    let mut out = Vec::new();
    mvolap_core::persist::write_tmd(tmd, &mut out).expect("in-memory write");
    out
}

fn group_tmd_bytes(group: &GroupCommit) -> Vec<u8> {
    group.with_store(|s| tmd_bytes(s.schema()))
}

/// Compares a store's state with the local replay: snapshot bytes, fact
/// count and every example answer.
fn same_state(
    what: &str,
    snapshot: &[u8],
    end: &Tmd,
    texts: &[String],
    exec: &ExecContext,
    answer: impl Fn(&str) -> Result<String, String>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if snapshot != tmd_bytes(end).as_slice() {
        problems.push(format!("{what} differs from the locally evolved copy"));
    }
    for t in texts {
        if answer(t) != render_query(end, t, exec, &QueryMemo::new()) {
            problems.push(format!(
                "{what} answers `{t}` differently from the local copy"
            ));
        }
    }
    problems
}

struct LayerInputs {
    before: Counters,
    after: Counters,
    commits: u64,
    memo: (u64, u64),
    queued_max: usize,
    lag: Vec<f64>,
    checkpoints: u64,
    catchup_s: f64,
    replicated: bool,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[allow(clippy::too_many_lines)]
fn layer_metrics(
    rep: &mut Report,
    spans: &[Span],
    sessions: &[InProcess<'_>],
    wire_logs: &[SessionLog],
    all_logs: &[&SessionLog],
    x: LayerInputs,
) {
    let of = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    };
    let us = |name: &str| median(&of(name)) / 1e3;
    let msm = |name: &str| median(&of(name)) / 1e6;
    rep.set("query.parse_us", us("query.parse"));
    rep.set("query.plan_us", us("query.plan"));
    rep.set("core.structure_versions_us", us("core.structure_versions"));
    rep.set("core.present_ms", msm("core.present"));
    rep.set("core.compare_ms", msm("core.compare"));
    rep.set("storage.render_us", us("storage.render"));
    rep.set("server.proto_us", us("server.proto"));

    let mut evaluate: HashMap<u64, f64> = HashMap::new();
    let mut present: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        match s.name {
            "core.evaluate" => {
                evaluate.insert(s.req, s.ns() as f64);
            }
            "core.present" => {
                present.insert(s.req, s.ns() as f64);
            }
            _ => {}
        }
    }
    let fold: Vec<f64> = evaluate
        .iter()
        .filter_map(|(req, e)| present.get(req).map(|p| (e - p) / 1e6))
        .collect();
    rep.set("core.fold_ms", median(&fold));
    let (presented, results) = sessions
        .iter()
        .flat_map(|b| &b.rows)
        .fold((0usize, 0usize), |a, r| (a.0 + r.0, a.1 + r.1));
    rep.set(
        "core.rows_per_result_row",
        ratio(presented as f64, results as f64),
    );
    rep.set(
        "core.memo_hit_ratio",
        ratio(x.memo.0 as f64, x.memo.1 as f64),
    );
    let post: Vec<f64> = sessions
        .iter()
        .flat_map(|b| b.post_evolution.iter().copied())
        .collect();
    rep.set("core.post_evolution_query_ms", median(&post));

    // Wire minus in-process, per op type.
    let wire_q: Vec<f64> = wire_logs
        .iter()
        .flat_map(|l| &l.queries)
        .filter(|q| q.ok)
        .map(|q| q.service_ms)
        .collect();
    let wire_c: Vec<f64> = wire_logs
        .iter()
        .flat_map(|l| &l.commits)
        .filter(|c| c.ok)
        .map(|c| c.ms)
        .collect();
    let local_q: Vec<f64> = of("query.request").iter().map(|n| n / 1e6).collect();
    let local_c: Vec<f64> = if x.replicated {
        of("cluster.commit_replicated")
    } else {
        [of("durable.commit_fact"), of("durable.commit_evolution")].concat()
    }
    .iter()
    .map(|n| n / 1e6)
    .collect();
    let overhead = |wire: &[f64], local: &[f64]| {
        if wire.is_empty() || local.is_empty() {
            0.0
        } else {
            median(wire) - median(local)
        }
    };
    rep.set("server.wire_overhead_query_ms", overhead(&wire_q, &local_q));
    rep.set(
        "server.wire_overhead_commit_ms",
        overhead(&wire_c, &local_c),
    );
    rep.set("server.queued_max", x.queued_max as f64);
    rep.set(
        "server.refused",
        (x.after.refused - x.before.refused) as f64,
    );
    rep.set(
        "server.forwarded_frac",
        ratio(
            (x.after.forwarded - x.before.forwarded) as f64,
            wire_q.len() as f64,
        ),
    );

    let waits: Vec<f64> = of("durable.lock_wait").iter().map(|n| n / 1e3).collect();
    rep.set("durable.store_lock_wait_p50_us", median(&waits));
    rep.set("durable.store_lock_wait_p99_us", tail(&waits).0);
    rep.set("durable.fact_commit_ms", msm("durable.commit_fact"));
    rep.set(
        "durable.evolution_commit_ms",
        msm("durable.commit_evolution"),
    );
    let commits = x.commits as f64;
    rep.set(
        "durable.fsyncs_per_commit",
        ratio((x.after.fsyncs - x.before.fsyncs) as f64, commits),
    );
    rep.set(
        "durable.io_ops_per_commit",
        ratio((x.after.io_ops - x.before.io_ops) as f64, commits),
    );
    rep.set(
        "durable.wal_bytes_per_commit",
        ratio(
            x.after.wal_bytes.saturating_sub(x.before.wal_bytes) as f64,
            commits,
        ),
    );
    rep.set("durable.checkpoints", x.checkpoints as f64);

    let (frames, requests, stalls) = (
        (x.after.pumps.0 - x.before.pumps.0) as f64,
        (x.after.pumps.1 - x.before.pumps.1) as f64,
        (x.after.pumps.2 - x.before.pumps.2) as f64,
    );
    rep.set("replica.follower_lag_lsn_p99", tail(&x.lag).0);
    rep.set("replica.frames_per_request", ratio(frames, requests));
    rep.set("cluster.requests_per_commit", ratio(requests, commits));
    let replicated = of("cluster.commit_replicated");
    rep.set(
        "cluster.quorum_wait_ms",
        if replicated.is_empty() {
            0.0
        } else {
            msm("cluster.commit_replicated") - msm("durable.commit_fact")
        },
    );
    rep.set("cluster.pump_stalls", stalls);
    rep.set("cluster.catchup_s", x.catchup_s);
    let late: Vec<f64> = all_logs
        .iter()
        .flat_map(|l| l.late_ms.iter().copied())
        .collect();
    rep.set("loadgen.late_p99_ms", tail(&late).0);

    // Tracing overhead: the same query traced and untraced, back to
    // back. The second run of a pair finds warmer caches, so the two
    // orders are summarised apart and averaged.
    let overhead = |traced_first: bool| -> f64 {
        let v: Vec<f64> = sessions
            .iter()
            .flat_map(|b| &b.pairs)
            .filter(|p| p.2 == traced_first)
            .map(|(traced, plain, _)| ratio(*traced, *plain) - 1.0)
            .collect();
        median(&v)
    };
    rep.set(
        "trace.overhead_frac",
        (overhead(true) + overhead(false)) / 2.0,
    );

    // Unaccounted: request time not inside one of the layer spans.
    let kinds: HashMap<u64, &'static str> = sessions
        .iter()
        .flat_map(|b| b.tracer.requests.iter().copied())
        .collect();
    let mut covered: HashMap<u64, f64> = HashMap::new();
    let mut roots: HashMap<u64, (u64, f64)> = HashMap::new();
    for s in spans {
        match s.name {
            "query.request" => {
                roots.insert(s.id, (s.req, s.ns() as f64));
            }
            "core.structure_versions"
            | "query.parse"
            | "query.plan"
            | "core.evaluate"
            | "core.compare"
            | "storage.render" => {
                *covered.entry(s.parent).or_default() += s.ns() as f64;
            }
            _ => {}
        }
    }
    for t in Template::ALL {
        let fracs: Vec<f64> = roots
            .iter()
            .filter(|(_, (req, _))| kinds.get(req) == Some(&t.name()))
            .map(|(id, (_, total))| ratio(total - covered.get(id).copied().unwrap_or(0.0), *total))
            .collect();
        rep.set(unaccounted_name(t), median(&fracs));
    }
}

fn unaccounted_name(t: Template) -> &'static str {
    match t {
        Template::Tcm => "trace.unaccounted_frac.tcm",
        Template::Version => "trace.unaccounted_frac.version",
        Template::At => "trace.unaccounted_frac.at",
        Template::Dept => "trace.unaccounted_frac.dept",
        Template::Where => "trace.unaccounted_frac.where",
        Template::Range => "trace.unaccounted_frac.range",
        Template::AllModes => "trace.unaccounted_frac.allmodes",
    }
}
