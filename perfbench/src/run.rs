//! Sessions and their schedules. A session drives one [`Backend`]:
//! the wire (a [`SessionClient`] against the real server) for the
//! end-to-end numbers, or the layers' public functions in-process with
//! spans for the per-layer numbers. Both follow the same schedule.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

use mvolap_core::multiversion::present_par;
use mvolap_core::{evaluate_par, ExecContext, QueryMemo, TemporalMode};
use mvolap_durable::{GroupCommit, WalRecord};
use mvolap_prng::Rng;
use mvolap_query::{is_all_modes, parse, plan, run_compare_par};
use mvolap_server::{decode_reply, encode_reply, encode_request, Reply, Request, SessionClient};

use crate::check::{digest, mode_header, render_query, unmapped_note, QueryRecord};
use crate::gen::{QueryStream, Script, Template};
use crate::trace::Tracer;

/// How long a replicated commit waits for its quorum.
pub const QUORUM_TIMEOUT_MS: u64 = 2_000;

/// One way of executing requests.
pub trait Backend {
    /// Runs a query of `template`; `after_evolution` marks the first
    /// query a session sends after an evolution was acknowledged.
    ///
    /// # Errors
    ///
    /// The failure, as text.
    fn query(
        &mut self,
        template: Template,
        text: &str,
        after_evolution: bool,
    ) -> Result<String, String>;

    /// Commits one record; returns its LSN.
    ///
    /// # Errors
    ///
    /// The failure, as text.
    fn commit(&mut self, record: &WalRecord, evolution: bool) -> Result<u64, String>;
}

/// Over the wire, through the session server.
pub struct Wire<'a>(pub &'a mut SessionClient);

impl Backend for Wire<'_> {
    fn query(&mut self, _: Template, text: &str, _: bool) -> Result<String, String> {
        self.0.query(text).map_err(|e| e.to_string())
    }

    fn commit(&mut self, record: &WalRecord, _: bool) -> Result<u64, String> {
        self.0.commit(record).map_err(|e| e.to_string())
    }
}

/// In-process calls into each layer, recording spans. Every fourth
/// query also runs once without spans, right before or after the traced
/// run in turn, so the tracing overhead is measured on the same work;
/// every fourth, offset by two, also runs presentation alone, to split
/// `evaluate_par`. The rest run traced only, keeping the session's load
/// close to the wire's.
pub struct InProcess<'a> {
    /// The primary's group-commit handle.
    pub group: GroupCommit,
    /// This session's memo (the server shards the same type by session).
    pub memo: QueryMemo,
    /// Morsel parallelism, as the server configures it.
    pub exec: &'a ExecContext,
    /// Span recorder.
    pub tracer: Tracer,
    /// Commit through the quorum (`quorum3`).
    pub replicated: bool,
    queries: u64,
    commits: u64,
    /// `(traced ms, untraced ms, traced ran first)` of each measured pair.
    pub pairs: Vec<(f64, f64, bool)>,
    /// Request-span ms of traced first-queries after an evolution.
    pub post_evolution: Vec<f64>,
    /// `(presented rows, result rows)` per traced single-mode query.
    pub rows: Vec<(usize, usize)>,
}

impl<'a> InProcess<'a> {
    /// A session over `group`.
    pub fn new(
        group: GroupCommit,
        exec: &'a ExecContext,
        tracer: Tracer,
        replicated: bool,
    ) -> Self {
        InProcess {
            group,
            memo: QueryMemo::new(),
            exec,
            tracer,
            replicated,
            queries: 0,
            commits: 0,
            pairs: Vec::new(),
            post_evolution: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn untraced(&self, text: &str) -> f64 {
        let start = Instant::now();
        let out = self
            .group
            .with_store(|s| render_query(s.schema(), text, self.exec, &self.memo));
        std::hint::black_box(out).ok();
        ms(start.elapsed())
    }

    /// The request path with a span around each layer call, then with
    /// `probe` presentation alone; returns the answer and the request
    /// span's length in ms.
    fn traced(
        &mut self,
        template: Template,
        text: &str,
        probe: bool,
    ) -> (Result<String, String>, f64) {
        let InProcess {
            group,
            memo,
            exec,
            tracer: tr,
            rows,
            ..
        } = self;
        let exec: &ExecContext = exec;
        let req = tr.begin(template.name());
        let root = tr.reserve();
        let start = tr.now();
        let served: Result<(String, Option<(TemporalMode, usize)>), String> =
            group.with_store(|s| {
                let entered = tr.now();
                tr.record(req, root, "durable.lock_wait", start, entered);
                let tmd = s.schema();
                if is_all_modes(text) {
                    let modes = tr
                        .time(req, root, "core.compare", || {
                            run_compare_par(tmd, text, exec, memo)
                        })
                        .map_err(text_err)?;
                    let mut out = String::new();
                    for r in modes {
                        let rendered = tr
                            .time(req, root, "storage.render", || r.result.render("result"))
                            .map_err(text_err)?;
                        out.push_str(&format!(
                            "{}\n{rendered}\n",
                            mode_header(&r.result, r.quality)
                        ));
                    }
                    return Ok((out, None));
                }
                let svs = tr.time(req, root, "core.structure_versions", || {
                    tmd.structure_versions()
                });
                let ast = tr
                    .time(req, root, "query.parse", || parse(text))
                    .map_err(text_err)?;
                let q = tr
                    .time(req, root, "query.plan", || plan(tmd, &svs, &ast))
                    .map_err(text_err)?;
                let rs = tr
                    .time(req, root, "core.evaluate", || {
                        evaluate_par(tmd, &svs, &q, exec, memo)
                    })
                    .map_err(text_err)?;
                let out = tr.time(req, root, "storage.render", || {
                    rs.render("result").map(|r| unmapped_note(&rs) + &r)
                });
                Ok((out.map_err(text_err)?, Some((q.mode, rs.rows.len()))))
            });
        let end = tr.now();
        tr.record_reserved(root, req, 0, "query.request", start, end);
        let request_ms = (end - start) as f64 / 1e6;
        let (out, planned) = match served {
            Ok(v) => v,
            Err(e) => return (Err(e), request_ms),
        };
        // Presentation alone, outside the request span: evaluate_par
        // minus this is the fold.
        if let Some((mode, result_rows)) = planned.filter(|_| probe) {
            let presented = group.with_store(|s| {
                let tmd = s.schema();
                let svs = tmd.structure_versions();
                tr.time(req, 0, "core.present", || {
                    present_par(tmd, &svs, &mode, exec, memo)
                })
                .map(|p| p.rows.len())
            });
            if let Ok(n) = presented {
                rows.push((n, result_rows));
            }
        }
        let reply = encode_reply(&Reply::Result(out.clone()));
        tr.time(req, 0, "server.proto", || {
            std::hint::black_box(encode_request(&Request::Query(text.to_string())));
            std::hint::black_box(decode_reply(&reply)).ok();
        });
        (Ok(out), request_ms)
    }
}

fn text_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Backend for InProcess<'_> {
    fn query(
        &mut self,
        template: Template,
        text: &str,
        after_evolution: bool,
    ) -> Result<String, String> {
        let k = self.queries;
        self.queries += 1;
        let pair = k.is_multiple_of(4);
        // The first query after an evolution runs traced first, so its
        // span sees the invalidated memo.
        let plain_first =
            (pair && k.is_multiple_of(8) && !after_evolution).then(|| self.untraced(text));
        let (out, traced_ms) = self.traced(template, text, k % 4 == 2);
        if after_evolution {
            self.post_evolution.push(traced_ms);
        }
        // A cold-memo query would compare cold against warm.
        if pair && !after_evolution && out.is_ok() {
            let traced_first = plain_first.is_none();
            let plain_ms = plain_first.unwrap_or_else(|| self.untraced(text));
            self.pairs.push((traced_ms, plain_ms, traced_first));
        }
        out
    }

    fn commit(&mut self, record: &WalRecord, evolution: bool) -> Result<u64, String> {
        let tr = &mut self.tracer;
        let req = tr.begin(if evolution { "evolution" } else { "fact" });
        let record = record.clone();
        self.commits += 1;
        if self.replicated && self.commits.is_multiple_of(2) {
            let group = &self.group;
            return tr
                .time(req, 0, "cluster.commit_replicated", || {
                    group.commit_replicated(record, QUORUM_TIMEOUT_MS)
                })
                .map_err(text_err);
        }
        let name = if evolution {
            "durable.commit_evolution"
        } else {
            "durable.commit_fact"
        };
        let group = &self.group;
        let lsn = tr
            .time(req, 0, name, || group.commit(record))
            .map_err(text_err)?;
        if self.replicated {
            // Keep the closed loop's shape: the next commit starts once
            // this one is quorum-acknowledged, as commit_replicated would.
            let deadline = Instant::now() + Duration::from_millis(QUORUM_TIMEOUT_MS);
            while self.group.quorum_lsn() <= lsn {
                if Instant::now() > deadline {
                    return Err(format!(
                        "commit {lsn} unreplicated after {QUORUM_TIMEOUT_MS} ms"
                    ));
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
        Ok(lsn)
    }
}

/// Milliseconds of `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Script progress shared by the sessions of one run.
#[derive(Default)]
pub struct Progress {
    /// Script records whose commit has been sent.
    pub sent: AtomicUsize,
    /// Script records acknowledged.
    pub acked: AtomicUsize,
    /// Evolution records acknowledged.
    pub evolutions: AtomicUsize,
}

/// What a session shares with the others.
pub struct Shared<'a> {
    /// The commit script.
    pub script: &'a Script,
    /// Progress through it.
    pub progress: &'a Progress,
    /// LSN of script record 0.
    pub first_lsn: u64,
    /// Run seed; seeds the send-time jitter of the paced sessions.
    pub seed: u64,
}

/// Send times of a paced session: one per slot of `1 / rate` seconds
/// from the start, each drawn uniformly within its slot from a seeded
/// generator. Evenly spaced sends would hold one phase against the other
/// session and the server's timers for a whole run, and that phase,
/// drawn anew by each run's thread start-up, moved whole runs' latency.
struct Slots {
    start: Instant,
    rate: f64,
    rng: Rng,
    k: u64,
}

impl Slots {
    fn new(seed: u64, stream: u64, rate: f64) -> Slots {
        Slots {
            start: Instant::now(),
            rate,
            rng: Rng::seed_from_u64(seed ^ (stream + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)),
            k: 0,
        }
    }

    /// The next send time.
    fn next_due(&mut self) -> Instant {
        let at = (self.k as f64 + self.rng.f64_unit()) / self.rate;
        self.k += 1;
        self.start + Duration::from_secs_f64(at)
    }
}

/// One query as the client saw it.
pub struct QuerySample {
    /// Template.
    pub template: Template,
    /// Latency from the due time (= send time in a closed loop), ms.
    pub ms: f64,
    /// Latency from the send time, ms.
    pub service_ms: f64,
    /// Whether an answer came back.
    pub ok: bool,
}

/// One commit as the client saw it.
pub struct CommitSample {
    /// Evolution operator (not a fact batch).
    pub evolution: bool,
    /// Latency, ms.
    pub ms: f64,
    /// Whether it was acknowledged at the expected LSN.
    pub ok: bool,
}

/// Everything one session observed.
#[derive(Default)]
pub struct SessionLog {
    /// Queries.
    pub queries: Vec<QuerySample>,
    /// Commits.
    pub commits: Vec<CommitSample>,
    /// Query answers with their state windows, for the oracle.
    pub records: Vec<QueryRecord>,
    /// Open-loop lateness of each send, ms.
    pub late_ms: Vec<f64>,
    /// Failures, as text.
    pub errors: Vec<String>,
}

/// A session's query stream plus what it last saw.
pub struct Reader {
    stream: QueryStream,
    seen_evolutions: usize,
}

impl Reader {
    /// Reads from `stream`.
    pub fn new(stream: QueryStream) -> Reader {
        Reader {
            stream,
            seen_evolutions: 0,
        }
    }

    fn once<B: Backend>(&mut self, b: &mut B, sh: &Shared<'_>, due: Instant, log: &mut SessionLog) {
        let (template, text) = self.stream.next_query();
        let lo = sh.progress.acked.load(SeqCst);
        let evolutions = sh.progress.evolutions.load(SeqCst);
        let after = evolutions > self.seen_evolutions;
        self.seen_evolutions = evolutions;
        let sent = Instant::now();
        let answer = b.query(template, &text, after);
        let (total, service) = (ms(due.elapsed()), ms(sent.elapsed()));
        let hi = sh.progress.sent.load(SeqCst);
        if let Err(e) = &answer {
            log.errors.push(format!("query `{text}`: {e}"));
        }
        log.queries.push(QuerySample {
            template,
            ms: total,
            service_ms: service,
            ok: answer.is_ok(),
        });
        log.records.push(QueryRecord {
            text,
            answer: answer.ok().map(|a| digest(&a)),
            lo,
            hi,
        });
    }

    /// Closed loop until `deadline`: each query waits for the previous
    /// answer. With `commit_every = Some(n)` every n-th request is the
    /// next script commit instead.
    pub fn closed<B: Backend>(
        &mut self,
        b: &mut B,
        sh: &Shared<'_>,
        deadline: Instant,
        commit_every: Option<usize>,
        log: &mut SessionLog,
    ) {
        let mut i = 0usize;
        let mut committing = true;
        while Instant::now() < deadline {
            i += 1;
            if committing && commit_every.is_some_and(|n| i.is_multiple_of(n)) {
                committing = commit_next(b, sh, log);
            } else {
                self.once(b, sh, Instant::now(), log);
            }
        }
    }

    /// Open loop at `rate` queries per second until `deadline`: query
    /// `k` is due at a jittered time in the `k`-th slot of `1 / rate`
    /// seconds ([`Slots`]) and timed from then.
    pub fn open<B: Backend>(
        &mut self,
        b: &mut B,
        sh: &Shared<'_>,
        deadline: Instant,
        rate: f64,
        log: &mut SessionLog,
    ) {
        let mut slots = Slots::new(sh.seed, 1, rate);
        loop {
            let due = slots.next_due();
            if due >= deadline {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            log.late_ms
                .push(ms(Instant::now().saturating_duration_since(due)));
            self.once(b, sh, due, log);
        }
    }
}

/// Commits the next script record; returns whether to keep committing.
fn commit_next<B: Backend>(b: &mut B, sh: &Shared<'_>, log: &mut SessionLog) -> bool {
    let idx = sh.progress.sent.load(SeqCst);
    let Some(record) = sh.script.records.get(idx) else {
        log.errors
            .push(format!("commit script exhausted after {idx} records"));
        return false;
    };
    let evolution = sh.script.is_evolution(idx);
    sh.progress.sent.store(idx + 1, SeqCst);
    let start = Instant::now();
    let res = b.commit(record, evolution);
    let latency = ms(start.elapsed());
    let expected = sh.first_lsn + idx as u64;
    let ok = res.as_ref().is_ok_and(|&lsn| lsn == expected);
    log.commits.push(CommitSample {
        evolution,
        ms: latency,
        ok,
    });
    match res {
        Ok(_) if ok => {
            sh.progress.acked.store(idx + 1, SeqCst);
            if evolution {
                sh.progress.evolutions.fetch_add(1, SeqCst);
            }
            true
        }
        Ok(lsn) => {
            log.errors.push(format!(
                "commit {idx} acknowledged at LSN {lsn}, expected {expected}"
            ));
            false
        }
        Err(e) => {
            log.errors
                .push(format!("commit {idx} ({}): {e}", record.kind()));
            false
        }
    }
}

/// Paced closed-loop loader until `deadline`: commits the script in
/// order, one at a time, the `k`-th no earlier than its jittered time
/// in the `k`-th slot of `1 / rate` seconds ([`Slots`]). Behind
/// schedule it sends each commit as soon as the previous one is
/// acknowledged.
pub fn load<B: Backend>(
    b: &mut B,
    sh: &Shared<'_>,
    deadline: Instant,
    rate: f64,
    log: &mut SessionLog,
) {
    let mut slots = Slots::new(sh.seed, 0, rate);
    loop {
        let slot = slots.next_due();
        if slot >= deadline {
            return;
        }
        let now = Instant::now();
        if now < slot {
            std::thread::sleep(slot - now);
        }
        if !commit_next(b, sh, log) {
            return;
        }
    }
}
