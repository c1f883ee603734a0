//! In-memory spans around calls into each layer. One [`Tracer`] per
//! session thread, so recording takes no lock; the spans are merged
//! and written out when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Request the span belongs to.
    pub req: u64,
    /// Span id, unique within the run.
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer call, e.g. `query.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A session's span recorder.
pub struct Tracer {
    epoch: Instant,
    session: u64,
    next: u64,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
    /// `(request, kind)` for every request begun: a template name or
    /// a commit kind.
    pub requests: Vec<(u64, &'static str)>,
}

impl Tracer {
    /// A recorder for `session`, timing against `epoch`.
    pub fn new(epoch: Instant, session: u64) -> Tracer {
        Tracer {
            epoch,
            session,
            next: 0,
            spans: Vec::new(),
            requests: Vec::new(),
        }
    }

    /// A fresh span id, for a span recorded later with
    /// [`Tracer::record_reserved`] (a parent whose children finish first).
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.session + 1) << 40 | self.next
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a request of `kind`; returns its id.
    pub fn begin(&mut self, kind: &'static str) -> u64 {
        let req = self.reserve();
        self.requests.push((req, kind));
        req
    }

    /// Records a finished span; returns its id.
    pub fn record(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.reserve();
        self.record_reserved(id, req, parent, name, start_ns, end_ns);
        id
    }

    /// Records a finished span under an id from [`Tracer::reserve`].
    pub fn record_reserved(
        &mut self,
        id: u64,
        req: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(req, parent, name, start, end);
        out
    }
}

/// Writes every span as a tab-separated line.
///
/// # Errors
///
/// I/O failures.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.req, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
