//! Logical WAL records — one per evolution operator, plus fact batches.
//!
//! A record captures the *intent* of one §3.2 evolution operation
//! (insert/create, exclude/delete, transform, merge, split, reclassify,
//! associate, confidence change, and the complex increase / decrease /
//! partial-annexation compilations) or one batch of fact-table appends.
//! Replay goes through the **validated construction API**
//! (`mvolap_core::evolution` and `Tmd::add_facts`), exactly like
//! `core::persist` does on load: a tampered or corrupted log can never
//! yield a cyclic `D(t)`, dangling edges or non-leaf facts — replay
//! refuses instead.
//!
//! Payloads are space-separated escaped tokens (same escaping idiom as
//! the snapshot format: `\\`, `\s`, `\t`, `\n`, `\e`, empty = `\0`),
//! with count-prefixed lists so the grammar needs no lookahead. Floats
//! use Rust's shortest round-tripping `Display`, so mapping factors and
//! measures survive bit-exactly.

use std::collections::BTreeMap;

use mvolap_core::evolution::{self, BasicOp, MergeSource, SplitPart};
use mvolap_core::{
    Confidence, CoreError, DimensionId, MappingFunction, MappingRelationship, MeasureMapping,
    MemberVersionId, Tmd,
};
use mvolap_temporal::Instant;

use crate::error::DurableError;

/// One row of a fact batch.
#[derive(Debug, Clone, PartialEq)]
pub struct FactRow {
    /// Leaf coordinates, one per dimension.
    pub coords: Vec<MemberVersionId>,
    /// Fact time.
    pub at: Instant,
    /// One value per measure.
    pub values: Vec<f64>,
}

impl FactRow {
    /// The batch as the `(coords, at, values)` rows `Tmd::check_facts`
    /// and `Tmd::add_facts` take.
    pub(crate) fn views(
        rows: &[FactRow],
    ) -> impl Iterator<Item = (&[MemberVersionId], Instant, &[f64])> + Clone {
        rows.iter().map(|r| (&r.coords[..], r.at, &r.values[..]))
    }
}

/// A logical write-ahead-log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// Store bootstrap: the seed schema, serialised with
    /// `core::persist::write_tmd`. Always the first record of a fresh
    /// store, so recovery works even before the first checkpoint.
    Bootstrap {
        /// `write_tmd` bytes of the seed schema.
        snapshot: Vec<u8>,
    },
    /// *Creation of a dimension member* (Insert).
    Create {
        /// Target dimension.
        dim: DimensionId,
        /// New member name.
        name: String,
        /// Optional explicit level.
        level: Option<String>,
        /// Creation instant.
        at: Instant,
        /// Parents to wire under.
        parents: Vec<MemberVersionId>,
    },
    /// *Deletion of a dimension member* (Exclude).
    Delete {
        /// Target dimension.
        dim: DimensionId,
        /// The member version to exclude.
        id: MemberVersionId,
        /// Exclusion instant.
        at: Instant,
    },
    /// *Transformation of a member* (rename / attribute change).
    Transform {
        /// Target dimension.
        dim: DimensionId,
        /// The member version to transform.
        id: MemberVersionId,
        /// Successor name.
        new_name: String,
        /// Successor attributes.
        new_attributes: BTreeMap<String, String>,
        /// Transformation instant.
        at: Instant,
    },
    /// *Merging of n members into one*.
    Merge {
        /// Target dimension.
        dim: DimensionId,
        /// Sources with their per-measure mappings.
        sources: Vec<MergeSource>,
        /// Name of the merged member.
        new_name: String,
        /// Optional level of the merged member.
        level: Option<String>,
        /// Merge instant.
        at: Instant,
        /// Parents of the merged member.
        parents: Vec<MemberVersionId>,
    },
    /// *Splitting of one member into n*.
    Split {
        /// Target dimension.
        dim: DimensionId,
        /// The member version being split.
        source: MemberVersionId,
        /// Parts with their per-measure mappings.
        parts: Vec<SplitPart>,
        /// Split instant.
        at: Instant,
        /// Parents of the parts.
        parents: Vec<MemberVersionId>,
    },
    /// *Reclassification of a member*.
    Reclassify {
        /// Target dimension.
        dim: DimensionId,
        /// The member version to reclassify.
        id: MemberVersionId,
        /// Reclassification instant.
        at: Instant,
        /// Parents to detach.
        old_parents: Vec<MemberVersionId>,
        /// Parents to attach.
        new_parents: Vec<MemberVersionId>,
    },
    /// Bare *Associate*: registers a mapping relationship.
    Associate {
        /// Target dimension.
        dim: DimensionId,
        /// The mapping relationship.
        rel: MappingRelationship,
    },
    /// *Confidence change*: revises an existing mapping relationship.
    Confidence {
        /// Target dimension.
        dim: DimensionId,
        /// Source endpoint.
        from: MemberVersionId,
        /// Target endpoint.
        to: MemberVersionId,
        /// Revised forward mappings.
        forward: Vec<MeasureMapping>,
        /// Revised backward mappings.
        backward: Vec<MeasureMapping>,
    },
    /// Complex *Increase*.
    Increase {
        /// Target dimension.
        dim: DimensionId,
        /// The member version growing.
        id: MemberVersionId,
        /// Successor name.
        new_name: String,
        /// Growth factor.
        factor: f64,
        /// Instant.
        at: Instant,
        /// Parents of the successor.
        parents: Vec<MemberVersionId>,
    },
    /// Complex *Decrease*.
    Decrease {
        /// Target dimension.
        dim: DimensionId,
        /// The member version shrinking.
        id: MemberVersionId,
        /// Successor name.
        new_name: String,
        /// Kept fraction in `(0, 1]`.
        kept: f64,
        /// Instant.
        at: Instant,
        /// Parents of the successor.
        parents: Vec<MemberVersionId>,
    },
    /// A batch of fact-table appends.
    FactBatch {
        /// The rows, in append order.
        rows: Vec<FactRow>,
    },
    /// A cluster membership change, journaled and quorum-committed
    /// like any commit. Single-change: one add *or* one remove. The
    /// new voting-group size takes effect exactly at this record's
    /// LSN. The record is a no-op for the schema — it evolves the
    /// *replication group*, not the multidimensional structure — but
    /// riding the WAL gives it the same durability, ordering and
    /// recovery guarantees as every evolution operator.
    Reconfig {
        /// Epoch the reconfiguration was issued under.
        epoch: u64,
        /// `true` = add `member`, `false` = remove it.
        add: bool,
        /// The member id joining or leaving.
        member: String,
        /// The member's read-server address (empty for removals).
        addr: String,
    },
}

// ---------------------------------------------------------------------
// Token encoding
// ---------------------------------------------------------------------

pub(crate) fn esc(s: &str) -> String {
    if s.is_empty() {
        return "\\0".to_owned();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\s"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

pub(crate) fn unesc(s: &str) -> Result<String, DurableError> {
    if s == "\\0" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('s') => out.push(' '),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            other => {
                return Err(DurableError::corrupt(format!(
                    "bad token escape \\{other:?}"
                )))
            }
        }
    }
    Ok(out)
}

fn enc_instant(t: Instant) -> String {
    if t.is_forever() {
        "now".to_owned()
    } else if t.is_dawn() {
        "dawn".to_owned()
    } else {
        t.tick().to_string()
    }
}

fn enc_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_owned()
    } else if x == f64::INFINITY {
        "inf".to_owned()
    } else if x == f64::NEG_INFINITY {
        "-inf".to_owned()
    } else {
        format!("{x}")
    }
}

fn dec_f64(t: &str) -> Option<f64> {
    match t {
        "NaN" => Some(f64::NAN),
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        _ => t.parse().ok(),
    }
}

fn enc_mm(m: &MeasureMapping) -> String {
    let f = match m.func {
        MappingFunction::Identity => "id".to_owned(),
        MappingFunction::Unknown => "u".to_owned(),
        MappingFunction::Scale(k) => format!("s{}", enc_f64(k)),
        MappingFunction::Affine { a, b } => format!("a{}:{}", enc_f64(a), enc_f64(b)),
    };
    format!("{f}@{}", m.confidence.code())
}

/// A space-joined token writer.
#[derive(Default)]
struct Enc {
    out: String,
}

impl Enc {
    fn raw(&mut self, token: impl std::fmt::Display) -> &mut Self {
        if !self.out.is_empty() {
            self.out.push(' ');
        }
        let _ = std::fmt::Write::write_fmt(&mut self.out, format_args!("{token}"));
        self
    }

    fn text(&mut self, s: &str) -> &mut Self {
        let escaped = esc(s);
        self.raw(escaped)
    }

    fn level(&mut self, level: &Option<String>) -> &mut Self {
        match level {
            Some(l) => {
                self.raw(1);
                self.text(l)
            }
            None => self.raw(0),
        }
    }

    fn ids(&mut self, ids: &[MemberVersionId]) -> &mut Self {
        self.raw(ids.len());
        for id in ids {
            self.raw(id.0);
        }
        self
    }

    fn mappings(&mut self, ms: &[MeasureMapping]) -> &mut Self {
        self.raw(ms.len());
        for m in ms {
            self.raw(enc_mm(m));
        }
        self
    }
}

/// A token reader with positional error reporting.
struct Dec<'a> {
    toks: std::str::Split<'a, char>,
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(s: &'a str) -> Self {
        Dec {
            toks: s.split(' '),
            at: 0,
        }
    }

    fn next(&mut self) -> Result<&'a str, DurableError> {
        self.at += 1;
        self.toks
            .next()
            .ok_or_else(|| DurableError::corrupt(format!("record truncated at token {}", self.at)))
    }

    fn bad(&self, what: &str, tok: &str) -> DurableError {
        DurableError::corrupt(format!("bad {what} `{tok}` at token {}", self.at))
    }

    fn text(&mut self) -> Result<String, DurableError> {
        let t = self.next()?;
        unesc(t)
    }

    fn u32(&mut self) -> Result<u32, DurableError> {
        let t = self.next()?;
        t.parse().map_err(|_| self.bad("integer", t))
    }

    fn u64(&mut self) -> Result<u64, DurableError> {
        let t = self.next()?;
        t.parse().map_err(|_| self.bad("integer", t))
    }

    fn usize(&mut self) -> Result<usize, DurableError> {
        let t = self.next()?;
        let n: usize = t.parse().map_err(|_| self.bad("count", t))?;
        if n > 1 << 24 {
            return Err(self.bad("count (too large)", t));
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, DurableError> {
        let t = self.next()?;
        dec_f64(t).ok_or_else(|| self.bad("float", t))
    }

    fn instant(&mut self) -> Result<Instant, DurableError> {
        let t = self.next()?;
        match t {
            "now" => Ok(Instant::FOREVER),
            "dawn" => Ok(Instant::DAWN),
            _ => t
                .parse::<i64>()
                .map(Instant::at)
                .map_err(|_| self.bad("instant", t)),
        }
    }

    fn dim(&mut self) -> Result<DimensionId, DurableError> {
        Ok(DimensionId(self.u32()?))
    }

    fn id(&mut self) -> Result<MemberVersionId, DurableError> {
        Ok(MemberVersionId(self.u32()?))
    }

    fn level(&mut self) -> Result<Option<String>, DurableError> {
        match self.u32()? {
            0 => Ok(None),
            1 => Ok(Some(self.text()?)),
            n => Err(self.bad("level flag", &n.to_string())),
        }
    }

    /// A count-prefixed list, one `item` per entry.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, DurableError>,
    ) -> Result<Vec<T>, DurableError> {
        let n = self.usize()?;
        (0..n).map(|_| item(self)).collect()
    }

    fn ids(&mut self) -> Result<Vec<MemberVersionId>, DurableError> {
        self.list(Self::id)
    }

    fn mapping(&mut self) -> Result<MeasureMapping, DurableError> {
        let t = self.next()?;
        let (f, cf) = t
            .rsplit_once('@')
            .ok_or_else(|| self.bad("mapping (missing @cf)", t))?;
        let confidence = match cf {
            "sd" => Confidence::Source,
            "em" => Confidence::Exact,
            "am" => Confidence::Approx,
            "uk" => Confidence::Unknown,
            _ => return Err(self.bad("confidence", cf)),
        };
        let func = if f == "id" {
            MappingFunction::Identity
        } else if f == "u" {
            MappingFunction::Unknown
        } else if let Some(k) = f.strip_prefix('s') {
            MappingFunction::Scale(dec_f64(k).ok_or_else(|| self.bad("scale", k))?)
        } else if let Some(ab) = f.strip_prefix('a') {
            let (a, b) = ab.split_once(':').ok_or_else(|| self.bad("affine", ab))?;
            MappingFunction::Affine {
                a: dec_f64(a).ok_or_else(|| self.bad("affine a", a))?,
                b: dec_f64(b).ok_or_else(|| self.bad("affine b", b))?,
            }
        } else {
            return Err(self.bad("mapping function", f));
        };
        Ok(MeasureMapping { func, confidence })
    }

    fn mappings(&mut self) -> Result<Vec<MeasureMapping>, DurableError> {
        self.list(Self::mapping)
    }

    fn done(mut self) -> Result<(), DurableError> {
        match self.toks.next() {
            None => Ok(()),
            Some(t) => Err(DurableError::corrupt(format!(
                "trailing token `{t}` after record"
            ))),
        }
    }
}

impl WalRecord {
    /// The record's operator tag: the first token of its encoding, and
    /// its name in logs and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Bootstrap { .. } => "bootstrap",
            WalRecord::Create { .. } => "create",
            WalRecord::Delete { .. } => "delete",
            WalRecord::Transform { .. } => "transform",
            WalRecord::Merge { .. } => "merge",
            WalRecord::Split { .. } => "split",
            WalRecord::Reclassify { .. } => "reclassify",
            WalRecord::Associate { .. } => "associate",
            WalRecord::Confidence { .. } => "confidence",
            WalRecord::Increase { .. } => "increase",
            WalRecord::Decrease { .. } => "decrease",
            WalRecord::FactBatch { .. } => "facts",
            WalRecord::Reconfig { .. } => "reconfig",
        }
    }

    /// Serialises the record into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.raw(self.kind());
        match self {
            WalRecord::Bootstrap { snapshot } => {
                // The snapshot is an opaque blob; frame it after the tag
                // token so the payload needs no escaping.
                let mut out = e.out.into_bytes();
                out.push(b' ');
                out.extend_from_slice(snapshot);
                return out;
            }
            WalRecord::Create {
                dim,
                name,
                level,
                at,
                parents,
            } => {
                e.raw(dim.0).text(name).level(level);
                e.raw(enc_instant(*at)).ids(parents);
            }
            WalRecord::Delete { dim, id, at } => {
                e.raw(dim.0).raw(id.0).raw(enc_instant(*at));
            }
            WalRecord::Transform {
                dim,
                id,
                new_name,
                new_attributes,
                at,
            } => {
                e.raw(dim.0).raw(id.0).text(new_name);
                e.raw(enc_instant(*at)).raw(new_attributes.len());
                for (k, v) in new_attributes {
                    e.text(k).text(v);
                }
            }
            WalRecord::Merge {
                dim,
                sources,
                new_name,
                level,
                at,
                parents,
            } => {
                e.raw(dim.0).text(new_name).level(level);
                e.raw(enc_instant(*at)).ids(parents).raw(sources.len());
                for s in sources {
                    e.raw(s.id.0).mappings(&s.forward).mappings(&s.backward);
                }
            }
            WalRecord::Split {
                dim,
                source,
                parts,
                at,
                parents,
            } => {
                e.raw(dim.0).raw(source.0).raw(enc_instant(*at));
                e.ids(parents).raw(parts.len());
                for p in parts {
                    e.text(&p.name).mappings(&p.forward).mappings(&p.backward);
                }
            }
            WalRecord::Reclassify {
                dim,
                id,
                at,
                old_parents,
                new_parents,
            } => {
                e.raw(dim.0).raw(id.0);
                e.raw(enc_instant(*at)).ids(old_parents).ids(new_parents);
            }
            WalRecord::Associate { dim, rel } => {
                e.raw(dim.0).raw(rel.from.0).raw(rel.to.0);
                e.mappings(&rel.forward).mappings(&rel.backward);
            }
            WalRecord::Confidence {
                dim,
                from,
                to,
                forward,
                backward,
            } => {
                e.raw(dim.0).raw(from.0).raw(to.0);
                e.mappings(forward).mappings(backward);
            }
            WalRecord::Increase {
                dim,
                id,
                new_name,
                factor,
                at,
                parents,
            } => {
                e.raw(dim.0).raw(id.0).text(new_name);
                e.raw(enc_f64(*factor)).raw(enc_instant(*at)).ids(parents);
            }
            WalRecord::Decrease {
                dim,
                id,
                new_name,
                kept,
                at,
                parents,
            } => {
                e.raw(dim.0).raw(id.0).text(new_name);
                e.raw(enc_f64(*kept)).raw(enc_instant(*at)).ids(parents);
            }
            WalRecord::FactBatch { rows } => {
                e.raw(rows.len());
                for r in rows {
                    e.raw(enc_instant(r.at)).ids(&r.coords).raw(r.values.len());
                    for v in &r.values {
                        e.raw(enc_f64(*v));
                    }
                }
            }
            WalRecord::Reconfig {
                epoch,
                add,
                member,
                addr,
            } => {
                e.raw(epoch).raw(if *add { "add" } else { "remove" });
                e.text(member).text(addr);
            }
        }
        e.out.into_bytes()
    }

    /// Deserialises a record from a frame payload.
    ///
    /// # Errors
    ///
    /// [`DurableError::Corrupt`] on any malformed payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, DurableError> {
        if let Some(snapshot) = payload.strip_prefix(b"bootstrap ") {
            return Ok(WalRecord::Bootstrap {
                snapshot: snapshot.to_vec(),
            });
        }
        let text = std::str::from_utf8(payload)
            .map_err(|_| DurableError::corrupt("record payload is not UTF-8"))?;
        let mut d = Dec::new(text);
        let tag = d.next()?;
        let record = match tag {
            "create" => WalRecord::Create {
                dim: d.dim()?,
                name: d.text()?,
                level: d.level()?,
                at: d.instant()?,
                parents: d.ids()?,
            },
            "delete" => WalRecord::Delete {
                dim: d.dim()?,
                id: d.id()?,
                at: d.instant()?,
            },
            // Struct-expression fields evaluate in the order written,
            // which is the token order.
            "transform" => WalRecord::Transform {
                dim: d.dim()?,
                id: d.id()?,
                new_name: d.text()?,
                at: d.instant()?,
                new_attributes: d
                    .list(|d| Ok((d.text()?, d.text()?)))?
                    .into_iter()
                    .collect(),
            },
            "merge" => WalRecord::Merge {
                dim: d.dim()?,
                new_name: d.text()?,
                level: d.level()?,
                at: d.instant()?,
                parents: d.ids()?,
                sources: d.list(|d| {
                    Ok(MergeSource {
                        id: d.id()?,
                        forward: d.mappings()?,
                        backward: d.mappings()?,
                    })
                })?,
            },
            "split" => WalRecord::Split {
                dim: d.dim()?,
                source: d.id()?,
                at: d.instant()?,
                parents: d.ids()?,
                parts: d.list(|d| {
                    Ok(SplitPart {
                        name: d.text()?,
                        forward: d.mappings()?,
                        backward: d.mappings()?,
                    })
                })?,
            },
            "reclassify" => WalRecord::Reclassify {
                dim: d.dim()?,
                id: d.id()?,
                at: d.instant()?,
                old_parents: d.ids()?,
                new_parents: d.ids()?,
            },
            "associate" => WalRecord::Associate {
                dim: d.dim()?,
                rel: MappingRelationship {
                    from: d.id()?,
                    to: d.id()?,
                    forward: d.mappings()?,
                    backward: d.mappings()?,
                },
            },
            "confidence" => WalRecord::Confidence {
                dim: d.dim()?,
                from: d.id()?,
                to: d.id()?,
                forward: d.mappings()?,
                backward: d.mappings()?,
            },
            "increase" => WalRecord::Increase {
                dim: d.dim()?,
                id: d.id()?,
                new_name: d.text()?,
                factor: d.f64()?,
                at: d.instant()?,
                parents: d.ids()?,
            },
            "decrease" => WalRecord::Decrease {
                dim: d.dim()?,
                id: d.id()?,
                new_name: d.text()?,
                kept: d.f64()?,
                at: d.instant()?,
                parents: d.ids()?,
            },
            "facts" => WalRecord::FactBatch {
                rows: d.list(|d| {
                    Ok(FactRow {
                        at: d.instant()?,
                        coords: d.ids()?,
                        values: d.list(Dec::f64)?,
                    })
                })?,
            },
            "reconfig" => {
                let epoch = d.u64()?;
                let add = match d.next()? {
                    "add" => true,
                    "remove" => false,
                    t => return Err(d.bad("reconfig direction", t)),
                };
                WalRecord::Reconfig {
                    epoch,
                    add,
                    member: d.text()?,
                    addr: d.text()?,
                }
            }
            other => return Err(DurableError::corrupt(format!("unknown record `{other}`"))),
        };
        d.done()?;
        Ok(record)
    }

    /// Applies the record to a schema through the validated construction
    /// API. Replay of a committed record on the state it was journaled
    /// against always succeeds; on any other state the model validation
    /// rejects inconsistencies instead of constructing them.
    ///
    /// # Errors
    ///
    /// Propagates the evolution-operator / fact-validation errors.
    pub fn apply(&self, tmd: &mut Tmd) -> Result<(), CoreError> {
        match self {
            WalRecord::Bootstrap { snapshot } => {
                if !tmd.dimensions().is_empty()
                    || !tmd.measures().is_empty()
                    || !tmd.facts().is_empty()
                {
                    return Err(CoreError::InvalidEvolution(
                        "bootstrap record replayed onto a non-empty schema".into(),
                    ));
                }
                *tmd = mvolap_core::persist::read_tmd(&mut snapshot.as_slice())
                    .map_err(|e| CoreError::InvalidEvolution(format!("bad bootstrap: {e}")))?;
                Ok(())
            }
            WalRecord::Create {
                dim,
                name,
                level,
                at,
                parents,
            } => {
                evolution::create(tmd, *dim, name.clone(), level.clone(), *at, parents).map(|_| ())
            }
            WalRecord::Delete { dim, id, at } => evolution::delete(tmd, *dim, *id, *at).map(|_| ()),
            WalRecord::Transform {
                dim,
                id,
                new_name,
                new_attributes,
                at,
            } => evolution::transform(
                tmd,
                *dim,
                *id,
                new_name.clone(),
                new_attributes.clone(),
                *at,
            )
            .map(|_| ()),
            WalRecord::Merge {
                dim,
                sources,
                new_name,
                level,
                at,
                parents,
            } => evolution::merge(
                tmd,
                *dim,
                sources,
                new_name.clone(),
                level.clone(),
                *at,
                parents,
            )
            .map(|_| ()),
            WalRecord::Split {
                dim,
                source,
                parts,
                at,
                parents,
            } => evolution::split(tmd, *dim, *source, parts, *at, parents).map(|_| ()),
            WalRecord::Reclassify {
                dim,
                id,
                at,
                old_parents,
                new_parents,
            } => evolution::reclassify(tmd, *dim, *id, *at, old_parents, new_parents).map(|_| ()),
            WalRecord::Associate { dim, rel } => BasicOp::Associate {
                dim: *dim,
                rel: rel.clone(),
            }
            .apply(tmd)
            .map(|_| ()),
            WalRecord::Confidence {
                dim,
                from,
                to,
                forward,
                backward,
            } => evolution::change_confidence(
                tmd,
                *dim,
                *from,
                *to,
                forward.clone(),
                backward.clone(),
            ),
            WalRecord::Increase {
                dim,
                id,
                new_name,
                factor,
                at,
                parents,
            } => evolution::increase(tmd, *dim, *id, new_name.clone(), *factor, *at, parents)
                .map(|_| ()),
            WalRecord::Decrease {
                dim,
                id,
                new_name,
                kept,
                at,
                parents,
            } => evolution::decrease(tmd, *dim, *id, new_name.clone(), *kept, *at, parents)
                .map(|_| ()),
            WalRecord::FactBatch { rows } => tmd.add_facts(FactRow::views(rows)),
            // Membership changes do not touch the schema; the group
            // layer reads them back out of the log (and the membership
            // sidecar) instead.
            WalRecord::Reconfig { .. } => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: &WalRecord) -> WalRecord {
        let payload = r.encode();
        let back = WalRecord::decode(&payload).expect("decode");
        // Structural equality via re-encoding (records hold f64s and
        // foreign types without PartialEq).
        assert_eq!(back.encode(), payload);
        back
    }

    #[test]
    fn all_record_kinds_roundtrip() {
        let edge_cases = [
            WalRecord::Create {
                dim: DimensionId(0),
                name: "Dpt. = weird \\name".into(),
                level: Some("Department level".into()),
                at: Instant::ym(2003, 1),
                parents: vec![MemberVersionId(1), MemberVersionId(2)],
            },
            WalRecord::Create {
                dim: DimensionId(0),
                name: String::new(),
                level: None,
                at: Instant::DAWN,
                parents: vec![],
            },
            WalRecord::Reconfig {
                epoch: u64::MAX,
                add: false,
                member: "m1".into(),
                addr: String::new(),
            },
            WalRecord::Reconfig {
                epoch: 7,
                add: true,
                member: "m3 with space".into(),
                addr: "127.0.0.1:9001".into(),
            },
        ];
        for (r, _) in golden() {
            roundtrip(&r);
        }
        for r in &edge_cases {
            roundtrip(r);
        }
    }

    /// One record of every kind, each with its exact payload bytes.
    fn golden() -> Vec<(WalRecord, &'static [u8])> {
        let dim = DimensionId(0);
        let v = MemberVersionId;
        vec![
            (
                WalRecord::Bootstrap {
                    snapshot: b"mvolap-tmd v1\nschema t month\n".to_vec(),
                },
                b"bootstrap mvolap-tmd v1\nschema t month\n",
            ),
            (
                WalRecord::Create {
                    dim,
                    name: "Dpt. Bill".into(),
                    level: Some("Department".into()),
                    at: Instant::ym(2003, 1),
                    parents: vec![v(1)],
                },
                b"create 0 Dpt.\\sBill 1 Department 24036 1 1",
            ),
            (
                WalRecord::Delete {
                    dim,
                    id: v(7),
                    at: Instant::FOREVER,
                },
                b"delete 0 7 now",
            ),
            (
                WalRecord::Transform {
                    dim,
                    id: v(3),
                    new_name: "Dpt.Brian".into(),
                    new_attributes: [("budget".to_owned(), "very high".to_owned())].into(),
                    at: Instant::ym(2002, 6),
                },
                b"transform 0 3 Dpt.Brian 24029 1 budget very\\shigh",
            ),
            (
                WalRecord::Merge {
                    dim,
                    sources: vec![
                        MergeSource::with_share(v(1), 0.5, 2),
                        MergeSource::with_unknown_share(v(2), 2),
                    ],
                    new_name: "Merged".into(),
                    level: None,
                    at: Instant::ym(2003, 1),
                    parents: vec![v(0)],
                },
                b"merge 0 Merged 0 24036 1 0 2 1 2 id@em id@em 2 s0.5@am s0.5@am 2 2 id@em id@em 2 u@uk u@uk",
            ),
            (
                WalRecord::Split {
                    dim,
                    source: v(4),
                    parts: vec![
                        SplitPart::proportional("Dpt.Bill", 0.4, 1),
                        SplitPart::proportional("Dpt.Paul", 0.6, 1),
                    ],
                    at: Instant::ym(2003, 1),
                    parents: vec![v(0)],
                },
                b"split 0 4 24036 1 0 2 Dpt.Bill 1 s0.4@am 1 id@em Dpt.Paul 1 s0.6@am 1 id@em",
            ),
            (
                WalRecord::Reclassify {
                    dim,
                    id: v(5),
                    at: Instant::ym(2002, 1),
                    old_parents: vec![v(0)],
                    new_parents: vec![v(8), v(9)],
                },
                b"reclassify 0 5 24024 1 0 2 8 9",
            ),
            (
                WalRecord::Associate {
                    dim,
                    rel: MappingRelationship {
                        from: v(1),
                        to: v(2),
                        forward: vec![MeasureMapping::approx_scale(0.4), MeasureMapping::UNKNOWN],
                        backward: vec![
                            MeasureMapping::EXACT_IDENTITY,
                            MeasureMapping {
                                func: MappingFunction::Affine { a: 0.1, b: -2.5 },
                                confidence: Confidence::Source,
                            },
                        ],
                    },
                },
                b"associate 0 1 2 2 s0.4@am u@uk 2 id@em a0.1:-2.5@sd",
            ),
            (
                WalRecord::Confidence {
                    dim: DimensionId(1),
                    from: v(1),
                    to: v(2),
                    forward: vec![
                        MeasureMapping::approx_scale(0.4),
                        MeasureMapping::EXACT_IDENTITY,
                    ],
                    backward: vec![
                        MeasureMapping::approx_scale(1.0 / 3.0),
                        MeasureMapping::UNKNOWN,
                    ],
                },
                b"confidence 1 1 2 2 s0.4@am id@em 2 s0.3333333333333333@am u@uk",
            ),
            (
                WalRecord::Increase {
                    dim,
                    id: v(3),
                    new_name: "Bigger".into(),
                    factor: 1.25,
                    at: Instant::ym(2004, 2),
                    parents: vec![v(0)],
                },
                b"increase 0 3 Bigger 1.25 24049 1 0",
            ),
            (
                WalRecord::Decrease {
                    dim,
                    id: v(3),
                    new_name: "Smaller".into(),
                    kept: 0.75,
                    at: Instant::DAWN,
                    parents: vec![],
                },
                b"decrease 0 3 Smaller 0.75 dawn 0",
            ),
            (
                WalRecord::FactBatch {
                    rows: vec![
                        FactRow {
                            coords: vec![v(1), v(4)],
                            at: Instant::ym(2001, 6),
                            values: vec![100.0, -0.0],
                        },
                        FactRow {
                            coords: vec![v(2), v(4)],
                            at: Instant::ym(2001, 7),
                            values: vec![0.1 + 0.2, 1e-300],
                        },
                    ],
                },
                b"facts 2 24017 2 1 4 2 100 -0 24018 2 2 4 2 0.30000000000000004 0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001",
            ),
            (
                WalRecord::Reconfig {
                    epoch: 7,
                    add: true,
                    member: "m3 x".into(),
                    addr: String::new(),
                },
                b"reconfig 7 add m3\\sx \\0",
            ),
        ]
    }

    /// Pins the on-disk and wire format: every kind encodes to exactly
    /// these bytes, and every literal decodes back to its record.
    #[test]
    fn every_record_kind_has_pinned_bytes() {
        let golden = golden();
        assert_eq!(golden.len(), 13, "one record per kind");
        for (record, bytes) in &golden {
            let encoded = record.encode();
            assert!(
                encoded == *bytes,
                "{} encoding changed: {:?}",
                record.kind(),
                String::from_utf8_lossy(&encoded)
            );
            assert_eq!(&WalRecord::decode(bytes).expect("decode"), record);
        }
    }

    #[test]
    fn fact_values_roundtrip_bit_exact() {
        let r = WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![MemberVersionId(0)],
                at: Instant::at(42),
                values: vec![0.1, -0.0, 1.0 / 3.0, f64::MIN_POSITIVE / 2.0, 1e300],
            }],
        };
        match roundtrip(&r) {
            WalRecord::FactBatch { rows } => {
                let orig = match &r {
                    WalRecord::FactBatch { rows } => &rows[0].values,
                    _ => unreachable!(),
                };
                for (a, b) in orig.iter().zip(&rows[0].values) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(WalRecord::decode(b"").is_err());
        assert!(WalRecord::decode(b"nonsense 1 2 3").is_err());
        assert!(WalRecord::decode(b"delete 0 zero 5").is_err());
        assert!(WalRecord::decode(b"delete 0 1").is_err()); // truncated
        assert!(WalRecord::decode(b"delete 0 1 5 extra").is_err()); // trailing
        assert!(WalRecord::decode(&[0xFF, 0xFE, b' ']).is_err()); // not UTF-8
                                                                  // A count field claiming 2^30 parents must not allocate.
        assert!(WalRecord::decode(b"create 0 x 0 5 1073741824").is_err());
        // Reconfig: bad direction, truncation, trailing garbage.
        assert!(WalRecord::decode(b"reconfig 3 sideways m1 \\0").is_err());
        assert!(WalRecord::decode(b"reconfig 3 add m1").is_err());
        assert!(WalRecord::decode(b"reconfig 3 add m1 \\0 extra").is_err());
        assert!(WalRecord::decode(b"reconfig -1 add m1 \\0").is_err());
    }

    #[test]
    fn reconfig_applies_as_a_schema_noop() {
        let mut tmd = Tmd::new("empty", Default::default());
        let before = format!("{tmd:?}");
        WalRecord::Reconfig {
            epoch: 1,
            add: true,
            member: "m3".into(),
            addr: "127.0.0.1:0".into(),
        }
        .apply(&mut tmd)
        .expect("reconfig is a schema no-op");
        assert_eq!(format!("{tmd:?}"), before);
    }
}
