//! Seeded inputs: the evolving warehouse, the commit script and the
//! query streams. Everything here is a pure function of the seed, so a
//! run can be repeated exactly and its schedule hashed.

use mvolap_core::evolution::{MergeSource, SplitPart};
use mvolap_core::{DimensionId, MemberVersionId, Tmd};
use mvolap_durable::{FactRow, WalRecord};
use mvolap_prng::Rng;
use mvolap_temporal::Instant;
use mvolap_workload::{generate, WorkloadConfig, WorkloadStats};

/// Departments created in the first period.
pub const DEPARTMENTS: usize = 80;
/// Yearly periods, 2001 ..= 2008.
pub const PERIODS: u32 = 8;
/// Facts per live department per period.
pub const FACTS_PER_DEPARTMENT: usize = 24;
/// Facts the warehouse is held to, within [`FACT_BAND`]: the evolution
/// events make the fact count vary by seed, and query cost follows it.
pub const TARGET_FACTS: usize = 27_500;
/// Relative band around [`TARGET_FACTS`].
pub const FACT_BAND: f64 = 0.03;
/// Rows in one `FactBatch` commit.
pub const BATCH_ROWS: usize = 16;
/// Year every script fact falls in: the warehouse's last period, so
/// evolutions at later boundaries never invalidate a fact's leaf.
pub const FACT_YEAR: i32 = 2001 + PERIODS as i32 - 1;
/// The period boundaries script evolutions happen at. A fixed small set
/// bounds the number of structure versions a run can add.
pub const BOUNDARIES: [i32; 3] = [FACT_YEAR + 1, FACT_YEAR + 2, FACT_YEAR + 3];

/// The generated warehouse plus what the script and the queries need
/// to know about it.
#[derive(Clone)]
pub struct Warehouse {
    /// The populated schema.
    pub tmd: Tmd,
    /// The organisation dimension.
    pub dim: DimensionId,
    /// What generation did.
    pub stats: WorkloadStats,
    /// Seed the warehouse was generated from.
    pub seed: u64,
    /// Structure versions of the generated warehouse.
    pub versions: usize,
    /// Department leaves valid throughout [`FACT_YEAR`].
    pub fact_leaves: Vec<MemberVersionId>,
    /// The static divisions.
    pub divisions: Vec<MemberVersionId>,
}

/// The evolving-organisation warehouse of `seed`, with the evolution
/// rates of the repository's `parallel_scaling` bench: 8 structure
/// versions and [`TARGET_FACTS`] facts within [`FACT_BAND`]. Seeds are
/// derived from `seed` in turn until a warehouse lands in the band, so
/// every seed gives a warehouse of the same size.
///
/// # Errors
///
/// Generation failures (none are expected), or no derived seed in the
/// band.
pub fn warehouse(seed: u64) -> Result<Warehouse, String> {
    let band = |n: usize| (n as f64 / TARGET_FACTS as f64 - 1.0).abs() <= FACT_BAND;
    for attempt in 0..256u64 {
        let derived = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt);
        let mut cfg = WorkloadConfig::small(derived)
            .with_departments(DEPARTMENTS)
            .with_periods(PERIODS)
            .with_facts_per_department(FACTS_PER_DEPARTMENT);
        cfg.split_prob = 0.25;
        cfg.merge_prob = 0.10;
        cfg.reclassify_prob = 0.15;
        cfg.create_prob = 0.0;
        cfg.delete_prob = 0.0;
        let w = generate(&cfg).map_err(|e| format!("warehouse generation: {e}"))?;
        if !band(w.tmd.facts().len()) {
            continue;
        }
        let versions = w.tmd.structure_versions().len();
        let mid = Instant::ym(FACT_YEAR, 6);
        let fact_leaves = at_level(&w.tmd, w.dim, mid, "Department")?;
        let divisions = at_level(&w.tmd, w.dim, mid, "Division")?;
        if fact_leaves.is_empty() || divisions.len() < 2 {
            return Err("generated warehouse has too few members".into());
        }
        return Ok(Warehouse {
            tmd: w.tmd,
            dim: w.dim,
            stats: w.stats,
            seed: derived,
            versions,
            fact_leaves,
            divisions,
        });
    }
    Err(format!(
        "no warehouse within {FACT_BAND} of {TARGET_FACTS} facts"
    ))
}

/// Member versions at `level` valid at `t`.
fn at_level(
    tmd: &Tmd,
    dim: DimensionId,
    t: Instant,
    level: &str,
) -> Result<Vec<MemberVersionId>, String> {
    let d = tmd.dimension(dim).map_err(|e| e.to_string())?;
    Ok(d.snapshot(t)
        .members()
        .iter()
        .copied()
        .filter(|&id| {
            d.version(id)
                .is_ok_and(|v| v.level.as_deref() == Some(level))
        })
        .collect())
}

/// A commit script: records in commit order. Record `i` gets LSN
/// `first_lsn + i` on a store whose WAL position was `first_lsn`.
pub struct Script {
    /// The records.
    pub records: Vec<WalRecord>,
}

impl Script {
    /// Whether record `i` is an evolution operator (not a fact batch).
    pub fn is_evolution(&self, i: usize) -> bool {
        !matches!(self.records[i], WalRecord::FactBatch { .. })
    }

    /// Evolution records in the first `n` records, by operator kind.
    pub fn evolution_kinds(&self, n: usize) -> Vec<(&'static str, usize)> {
        let mut out: Vec<(&'static str, usize)> = Vec::new();
        for r in self.records.iter().take(n) {
            if matches!(r, WalRecord::FactBatch { .. }) {
                continue;
            }
            match out.iter_mut().find(|(k, _)| *k == r.kind()) {
                Some((_, c)) => *c += 1,
                None => out.push((r.kind(), 1)),
            }
        }
        out
    }
}

/// Generates `len` records: 16-row fact batches, with every
/// `evolution_every`-th record an evolution operator (none when `None`).
/// Each record is validated by applying it to a local copy of `base`,
/// so the script is known to commit cleanly in order.
///
/// # Errors
///
/// A record the local copy refuses (a generator bug).
pub fn script(
    base: &Warehouse,
    seed: u64,
    len: usize,
    evolution_every: Option<usize>,
) -> Result<Script, String> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5C21_9700_0000_0001);
    let mut local = base.tmd.clone();
    let mut records = Vec::with_capacity(len);
    let mut evolutions = 0usize;
    for i in 0..len {
        let evolve = evolution_every.is_some_and(|n| (i + 1).is_multiple_of(n));
        if evolve {
            let boundary = Instant::ym(BOUNDARIES[evolutions % BOUNDARIES.len()], 1);
            let rec = evolution(base, &mut local, &mut rng, boundary, evolutions)?;
            records.push(rec);
            evolutions += 1;
        } else {
            let rows = (0..BATCH_ROWS)
                .map(|_| FactRow {
                    coords: vec![*rng.choose(&base.fact_leaves).expect("leaves exist")],
                    at: Instant::ym(FACT_YEAR, rng.u32_in(1, 13)),
                    values: vec![rng.f64_in(10.0, 200.0).round()],
                })
                .collect();
            let rec = WalRecord::FactBatch { rows };
            rec.apply(&mut local)
                .map_err(|e| format!("script record {i} (facts) does not apply: {e}"))?;
            records.push(rec);
        }
    }
    Ok(Script { records })
}

/// Evolution operator number `serial`, at `at`, validated on a clone of
/// `local` (which it then replaces). Kinds come in a fixed rotation so
/// every seed evolves alike; the targets are drawn from `rng` among the
/// current departments valid on both sides of the boundary. A kind with
/// no valid target falls back to the next kind, then to a creation.
fn evolution(
    base: &Warehouse,
    local: &mut Tmd,
    rng: &mut Rng,
    at: Instant,
    serial: usize,
) -> Result<WalRecord, String> {
    let dim = base.dim;
    let before = at.pred();
    let mut eligible: Vec<MemberVersionId> = {
        let d = local.dimension(dim).map_err(|e| e.to_string())?;
        let after = d.snapshot(at).members().to_vec();
        d.snapshot(before)
            .members()
            .iter()
            .copied()
            .filter(|id| after.contains(id))
            .filter(|&id| {
                d.version(id).is_ok_and(|v| {
                    v.level.as_deref() == Some("Department") && v.validity.is_current()
                })
            })
            .collect()
    };
    rng.shuffle(&mut eligible);
    let name = |suffix: &str| format!("Evo{serial}{suffix}");
    let kind = serial % 6;
    for attempt in 0..4 {
        let rec = match (kind + attempt) % 6 {
            _ if eligible.len() < 2 => break,
            0 => WalRecord::Create {
                dim,
                name: name(""),
                level: Some("Department".into()),
                at,
                parents: vec![*rng.choose(&base.divisions).expect("divisions exist")],
            },
            1 => WalRecord::Delete {
                dim,
                id: eligible[0],
                at,
            },
            2 => WalRecord::Transform {
                dim,
                id: eligible[0],
                new_name: name("t"),
                new_attributes: Default::default(),
                at,
            },
            3 => WalRecord::Merge {
                dim,
                sources: vec![
                    MergeSource::with_share(eligible[0], 0.5, 1),
                    MergeSource::with_share(eligible[1], 0.5, 1),
                ],
                new_name: name("m"),
                level: Some("Department".into()),
                at,
                parents: parents(local, dim, eligible[0], before)?,
            },
            4 => {
                let share = rng.f64_in(0.2, 0.8);
                WalRecord::Split {
                    dim,
                    source: eligible[0],
                    parts: vec![
                        SplitPart::proportional(name("a"), share, 1),
                        SplitPart::proportional(name("b"), 1.0 - share, 1),
                    ],
                    at,
                    parents: parents(local, dim, eligible[0], before)?,
                }
            }
            _ => {
                let old = parents(local, dim, eligible[0], before)?;
                let Some(&target) = base.divisions.iter().find(|d| !old.contains(d)) else {
                    continue;
                };
                WalRecord::Reclassify {
                    dim,
                    id: eligible[0],
                    at,
                    old_parents: old,
                    new_parents: vec![target],
                }
            }
        };
        let mut next = local.clone();
        if rec.apply(&mut next).is_ok() {
            *local = next;
            return Ok(rec);
        }
        eligible.rotate_left(1);
    }
    let rec = WalRecord::Create {
        dim,
        name: name("c"),
        level: Some("Department".into()),
        at,
        parents: vec![base.divisions[0]],
    };
    rec.apply(local)
        .map_err(|e| format!("fallback create at {at:?} does not apply: {e}"))?;
    Ok(rec)
}

fn parents(
    tmd: &Tmd,
    dim: DimensionId,
    id: MemberVersionId,
    t: Instant,
) -> Result<Vec<MemberVersionId>, String> {
    Ok(tmd
        .dimension(dim)
        .map_err(|e| e.to_string())?
        .parents_at(id, t))
}

/// The query templates of the read mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Division roll-up, temporally consistent.
    Tcm,
    /// Division roll-up in structure version `k`.
    Version,
    /// Division roll-up in the version valid at a month.
    At,
    /// Department-level roll-up in structure version `k`.
    Dept,
    /// Department roll-up sliced to one division.
    Where,
    /// Division roll-up over a year range.
    Range,
    /// Every mode, ranked by quality.
    AllModes,
}

impl Template {
    /// Every template, in reporting order.
    pub const ALL: [Template; 7] = [
        Template::Tcm,
        Template::Version,
        Template::At,
        Template::Dept,
        Template::Where,
        Template::Range,
        Template::AllModes,
    ];

    /// Queries of this template in every cycle of 100. `IN ALL MODES`
    /// is rare but slow; at this share it holds more queries than the
    /// ten beyond the tail percentile in every workload, so it sets the
    /// query p99 rather than straddling it.
    fn weight(self) -> usize {
        match self {
            Template::Version | Template::Range => 16,
            Template::Tcm | Template::At | Template::Dept | Template::Where => 15,
            Template::AllModes => 8,
        }
    }

    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Template::Tcm => "tcm",
            Template::Version => "version",
            Template::At => "at",
            Template::Dept => "dept",
            Template::Where => "where",
            Template::Range => "range",
            Template::AllModes => "allmodes",
        }
    }

    /// Index into [`Template::ALL`].
    pub fn index(self) -> usize {
        Template::ALL
            .iter()
            .position(|&t| t == self)
            .expect("listed")
    }

    /// One query text of this template, with its parameters drawn from
    /// `rng`; `versions` bounds `VERSION k`.
    pub fn text(self, rng: &mut Rng, versions: usize) -> String {
        const DIV: &str = "SELECT sum(Amount) BY year, Org.Division";
        let k = rng.usize_below(versions);
        match self {
            Template::Tcm => format!("{DIV} IN MODE tcm"),
            Template::Version => format!("{DIV} IN MODE VERSION {k}"),
            Template::At => format!(
                "{DIV} IN MODE AT {:02}/{}",
                rng.u32_in(1, 13),
                rng.i64_in(2001, i64::from(FACT_YEAR) + 1)
            ),
            Template::Dept => {
                format!("SELECT sum(Amount) BY year, Org.Department IN MODE VERSION {k}")
            }
            Template::Where => format!(
                "SELECT sum(Amount) BY year, Org.Department WHERE Org.Division = 'Div{}' \
                 IN MODE VERSION {k}",
                rng.usize_below(3)
            ),
            Template::Range => {
                let (a, b) = year_range(rng);
                format!("{DIV} FOR {a}..{b} IN MODE VERSION {k}")
            }
            Template::AllModes => {
                let (a, b) = year_range(rng);
                format!("{DIV} FOR {a}..{b} IN ALL MODES")
            }
        }
    }
}

fn year_range(rng: &mut Rng) -> (i64, i64) {
    let a = rng.i64_in(2001, i64::from(FACT_YEAR));
    (a, rng.i64_in(a + 1, i64::from(FACT_YEAR) + 1))
}

/// An endless seeded stream of queries. Templates come in cycles of
/// 100 holding each template's exact share in a seeded order, so the
/// mix does not drift between seeds; parameters are drawn per query.
/// The slow `IN ALL MODES` queries are spaced evenly through each cycle
/// with the other templates shuffled between them: an open-loop session
/// queues behind a slow query, and back-to-back pairs, as many or as few
/// as a shuffle happened to place, decided the query tail run by run.
pub struct QueryStream {
    rng: Rng,
    versions: usize,
    cycle: Vec<Template>,
}

impl QueryStream {
    /// Stream `stream` of run `seed`; `versions` bounds `VERSION k`.
    pub fn new(seed: u64, stream: u64, versions: usize) -> QueryStream {
        QueryStream {
            rng: Rng::seed_from_u64(seed ^ (stream + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            versions,
            cycle: Vec::new(),
        }
    }

    /// The next query.
    pub fn next_query(&mut self) -> (Template, String) {
        if self.cycle.is_empty() {
            let mut rest: Vec<Template> = Template::ALL
                .into_iter()
                .filter(|&t| t != Template::AllModes)
                .flat_map(|t| std::iter::repeat_n(t, t.weight()))
                .collect();
            self.rng.shuffle(&mut rest);
            let n = Template::AllModes.weight();
            for i in 0..n {
                self.cycle.push(Template::AllModes);
                self.cycle
                    .extend_from_slice(&rest[i * rest.len() / n..(i + 1) * rest.len() / n]);
            }
        }
        let t = self.cycle.pop().expect("cycle refilled");
        (t, t.text(&mut self.rng, self.versions))
    }
}

/// FNV-1a over the first `n` script records and the first `n` queries
/// of each of `streams` query streams: equal seeds give equal hashes.
pub fn schedule_hash(script: &Script, seed: u64, streams: u64, versions: usize, n: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in script.records.iter().take(n) {
        feed(&r.encode());
    }
    for s in 0..streams {
        let mut q = QueryStream::new(seed, s, versions);
        for _ in 0..n {
            feed(q.next_query().1.as_bytes());
        }
    }
    h
}
