//! The correctness oracle: local evaluation plus rendering, and the
//! replay that checks every served answer against the state it could
//! have been computed on.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use mvolap_core::{ExecContext, QueryMemo, Tmd};
use mvolap_query::{is_all_modes, run_compare_par, run_with_versions_par};

use crate::gen::Script;

/// Runs `text` on `tmd` and renders it the way the session server and
/// the shell do, so a served answer can be compared byte for byte.
///
/// # Errors
///
/// Query failures, as text.
pub fn render_query(
    tmd: &Tmd,
    text: &str,
    exec: &ExecContext,
    memo: &QueryMemo,
) -> Result<String, String> {
    let mut out = String::new();
    if is_all_modes(text) {
        for r in run_compare_par(tmd, text, exec, memo).map_err(|e| e.to_string())? {
            let _ = writeln!(out, "{}", mode_header(&r.result, r.quality));
            let _ = writeln!(
                out,
                "{}",
                r.result.render("result").map_err(|e| e.to_string())?
            );
        }
    } else {
        let svs = tmd.structure_versions();
        let rs = run_with_versions_par(tmd, &svs, text, exec, memo).map_err(|e| e.to_string())?;
        out.push_str(&unmapped_note(&rs));
        out.push_str(&rs.render("result").map_err(|e| e.to_string())?);
    }
    Ok(out)
}

/// The line that opens each mode of an `IN ALL MODES` answer.
pub fn mode_header(rs: &mvolap_core::ResultSet, quality: f64) -> String {
    format!(
        "== mode {} (Q = {:.3}, {} unmapped) ==",
        rs.mode.label(),
        quality,
        rs.unmapped_rows
    )
}

/// The note printed above a single-mode answer with unmapped rows.
pub fn unmapped_note(rs: &mvolap_core::ResultSet) -> String {
    if rs.unmapped_rows > 0 {
        format!(
            "note: {} source facts have no representation in this mode\n",
            rs.unmapped_rows
        )
    } else {
        String::new()
    }
}

/// A 64-bit digest of an answer: records keep this, not the text, so
/// the benchmark's own memory stays small beside the server's.
pub fn digest(answer: &str) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    answer.hash(&mut h);
    h.finish()
}

/// One served query: its text, the answer's digest, and the script
/// states it may have been computed on — `lo` records were acknowledged
/// before it was sent and at most `hi` had been sent when the answer
/// arrived.
#[derive(Clone)]
pub struct QueryRecord {
    /// Query text.
    pub text: String,
    /// [`digest`] of what came back (`None` for a failed query).
    pub answer: Option<u64>,
    /// Fewest script records the answer may reflect.
    pub lo: usize,
    /// Most script records the answer may reflect.
    pub hi: usize,
}

/// Replays `script` over `base` and checks that every successful answer
/// in `records` equals local evaluation on some state in its window.
/// The records are split across `threads` replays. Returns the local
/// state after the first `end` records.
///
/// # Errors
///
/// An answer that matches no state in its window, or a script record
/// that does not apply.
pub fn verify_answers(
    base: &Tmd,
    script: &Script,
    records: &[QueryRecord],
    end: usize,
    threads: usize,
) -> Result<Tmd, String> {
    let threads = threads.max(1);
    std::thread::scope(|scope| {
        let replays: Vec<_> = (0..threads)
            .map(|t| {
                let share: Vec<&QueryRecord> = records.iter().skip(t).step_by(threads).collect();
                scope.spawn(move || replay(base, script, &share, end))
            })
            .collect();
        let mut end_state = None;
        for r in replays {
            let tmd = r.join().expect("replay thread panicked")?;
            end_state.get_or_insert(tmd);
        }
        Ok(end_state.expect("at least one replay"))
    })
}

fn replay(
    base: &Tmd,
    script: &Script,
    records: &[&QueryRecord],
    end: usize,
) -> Result<Tmd, String> {
    let mut order: Vec<&QueryRecord> = records
        .iter()
        .copied()
        .filter(|r| r.answer.is_some())
        .collect();
    order.sort_by_key(|r| r.lo);
    let last = order
        .iter()
        .map(|r| r.hi)
        .max()
        .unwrap_or(0)
        .max(end)
        .min(script.records.len());
    let exec = ExecContext::sequential();
    let memo = QueryMemo::new();
    let mut tmd = base.clone();
    let mut next = 0; // position in `order` of the first unstarted record
    let mut pending: Vec<&QueryRecord> = Vec::new();
    let mut end_state = None;
    for state in 0..=last {
        if state > 0 {
            script.records[state - 1]
                .apply(&mut tmd)
                .map_err(|e| format!("script record {} does not apply: {e}", state - 1))?;
        }
        while next < order.len() && order[next].lo <= state {
            pending.push(order[next]);
            next += 1;
        }
        let mut local: HashMap<&str, Option<u64>> = HashMap::new();
        let mut still = Vec::with_capacity(pending.len());
        for r in pending {
            let here = local.entry(r.text.as_str()).or_insert_with(|| {
                render_query(&tmd, &r.text, &exec, &memo)
                    .ok()
                    .map(|a| digest(&a))
            });
            if *here == r.answer {
                continue;
            }
            if state >= r.hi.min(last) {
                return Err(format!(
                    "served answer to `{}` matches no state in {}..={}",
                    r.text, r.lo, r.hi
                ));
            }
            still.push(r);
        }
        pending = still;
        if state == end {
            end_state = Some(tmd.clone());
        }
    }
    if let Some(r) = pending.first() {
        return Err(format!("answer to `{}` was never checked", r.text));
    }
    end_state.ok_or_else(|| format!("end state {end} is past the script"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{script, warehouse};

    #[test]
    fn a_stale_answer_is_caught_and_a_windowed_one_passes() {
        let wh = warehouse(3).unwrap();
        let sc = script(&wh, 3, 6, Some(3)).unwrap();
        let text = "SELECT sum(Amount) BY year, Org.Division IN MODE tcm";
        let mut state = wh.tmd.clone();
        for r in &sc.records[..2] {
            r.apply(&mut state).unwrap();
        }
        let answer = render_query(&state, text, &ExecContext::new(2), &QueryMemo::new()).unwrap();
        let record = |lo, hi| QueryRecord {
            text: text.into(),
            answer: Some(digest(&answer)),
            lo,
            hi,
        };
        let end = verify_answers(&wh.tmd, &sc, &[record(1, 3)], 6, 2).unwrap();
        // Records 2 and 5 are evolutions, the rest fact batches.
        assert_eq!(end.facts().len(), wh.tmd.facts().len() + 4 * 16);
        // Fact batch 3 changed the answer.
        assert!(verify_answers(&wh.tmd, &sc, &[record(4, 5)], 6, 2).is_err());
    }
}
