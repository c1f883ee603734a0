//! Integration tests for the replication tap (`tail`/`frames_from`),
//! the typed `Pruned` error, checkpoint policies and snapshot-based
//! store creation.

use std::path::{Path, PathBuf};

use mvolap_core::case_study;
use mvolap_core::persist::write_tmd;
use mvolap_durable::checksum::crc32;
use mvolap_durable::{
    wal, CheckpointPolicy, DurableError, DurableTmd, FactRow, Io, Options, WalRecord,
};
use mvolap_temporal::Instant;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mvolap_tail_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_opts(policy: CheckpointPolicy) -> Options {
    Options {
        segment_bytes: 256,
        policy,
        prune_on_checkpoint: true,
    }
}

fn load(store: &mut DurableTmd, coord: mvolap_core::MemberVersionId, month: u32, v: f64) {
    store
        .apply(WalRecord::FactBatch {
            rows: vec![FactRow {
                coords: vec![coord],
                at: Instant::ym(2003, month),
                values: vec![v],
            }],
        })
        .unwrap();
}

fn ckpt_count(dir: &Path) -> usize {
    let cdir = dir.join("checkpoint");
    if !cdir.is_dir() {
        return 0;
    }
    std::fs::read_dir(cdir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("ckpt-")
        })
        .count()
}

/// `tail` streams every frame from any LSN: contiguous LSNs, CRCs that
/// match the payloads, payloads that decode and re-encode canonically.
#[test]
fn tail_streams_crc_framed_records_from_any_lsn() {
    let dir = tmp("stream");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create_with(
        &dir,
        cs.tmd.clone(),
        small_opts(CheckpointPolicy::manual()),
        Io::plain(),
    )
    .unwrap();
    for m in 1..=6 {
        load(&mut store, cs.brian, m, f64::from(m));
    }
    let head = store.wal_position();
    assert_eq!(head, 8, "bootstrap + 6 records");

    let frames = store.tail(1).unwrap();
    assert_eq!(frames.len(), 7);
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(f.lsn, 1 + i as u64, "contiguous LSNs");
        assert_eq!(f.crc, crc32(&f.payload), "frame CRC covers the payload");
        let rec = WalRecord::decode(&f.payload).unwrap();
        assert_eq!(rec.encode(), f.payload, "canonical encoding");
    }
    assert!(matches!(
        WalRecord::decode(&frames[0].payload).unwrap(),
        WalRecord::Bootstrap { .. }
    ));

    // Mid-log and head positions, through both the handle and the
    // module-level reader.
    assert_eq!(store.tail(5).unwrap().len(), 3);
    assert_eq!(store.tail(head).unwrap().len(), 0, "tail at head is empty");
    assert_eq!(wal::tail(&dir, 3).unwrap(), store.tail(3).unwrap());

    // Past the head is corruption-class, not an empty answer.
    assert!(matches!(
        store.tail(head + 1),
        Err(DurableError::Corrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// Pruning makes old LSNs unavailable with the *typed* error carrying
/// the oldest still-served LSN — not a generic corruption report.
#[test]
fn pruned_tail_reports_oldest_available() {
    let dir = tmp("pruned");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create_with(
        &dir,
        cs.tmd.clone(),
        small_opts(CheckpointPolicy::manual()),
        Io::plain(),
    )
    .unwrap();
    for m in 1..=8 {
        load(&mut store, cs.brian, m, 1.0);
    }
    store.checkpoint().unwrap();
    let oldest = store.oldest_lsn().unwrap();
    assert!(oldest > 1, "256-byte segments must have rotated and pruned");

    match store.tail(1) {
        Err(DurableError::Pruned { oldest_available }) => {
            assert_eq!(oldest_available, oldest);
        }
        other => panic!("expected Pruned, got {other:?}"),
    }
    match wal::tail(&dir, oldest - 1) {
        Err(DurableError::Pruned { oldest_available }) => {
            assert_eq!(oldest_available, oldest);
        }
        other => panic!("expected Pruned, got {other:?}"),
    }
    // The oldest surviving LSN itself is served.
    let frames = store.tail(oldest).unwrap();
    assert_eq!(frames.first().map(|f| f.lsn), Some(oldest));
    std::fs::remove_dir_all(&dir).ok();
}

/// `every_records` checkpoints automatically after N commits.
#[test]
fn policy_every_records_checkpoints_automatically() {
    let dir = tmp("every");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create_with(
        &dir,
        cs.tmd.clone(),
        small_opts(CheckpointPolicy::every_records(3)),
        Io::plain(),
    )
    .unwrap();
    load(&mut store, cs.brian, 1, 1.0);
    load(&mut store, cs.brian, 2, 2.0);
    assert_eq!(ckpt_count(&dir), 0, "below threshold: no checkpoint yet");
    load(&mut store, cs.brian, 3, 3.0);
    assert_eq!(ckpt_count(&dir), 1, "third commit crosses the threshold");
    std::fs::remove_dir_all(&dir).ok();
}

/// `max_tail_bytes` bounds the uncheckpointed tail by size: with a
/// 1-byte budget every commit (whose tail includes the bootstrap)
/// checkpoints immediately.
#[test]
fn policy_max_tail_bytes_checkpoints_on_size() {
    let dir = tmp("bytes");
    let cs = case_study::case_study();
    let policy = CheckpointPolicy {
        max_tail_bytes: 1,
        ..CheckpointPolicy::manual()
    };
    let mut store =
        DurableTmd::create_with(&dir, cs.tmd.clone(), small_opts(policy), Io::plain()).unwrap();
    assert_eq!(ckpt_count(&dir), 0, "creation alone does not checkpoint");
    load(&mut store, cs.brian, 1, 1.0);
    assert_eq!(ckpt_count(&dir), 1, "first commit crosses the byte budget");
    std::fs::remove_dir_all(&dir).ok();
}

/// `max_tail_ops` counts records replayed at open: a store recovered
/// with a long tail checkpoints promptly on its next commit instead of
/// re-replaying that tail forever.
#[test]
fn policy_max_tail_ops_covers_recovered_tail() {
    let dir = tmp("ops");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create_with(
        &dir,
        cs.tmd.clone(),
        small_opts(CheckpointPolicy::manual()),
        Io::plain(),
    )
    .unwrap();
    for m in 1..=5 {
        load(&mut store, cs.brian, m, 1.0);
    }
    drop(store);
    assert_eq!(ckpt_count(&dir), 0);

    let policy = CheckpointPolicy {
        max_tail_ops: 4,
        ..CheckpointPolicy::manual()
    };
    let mut reopened = DurableTmd::open_with(&dir, small_opts(policy), Io::plain()).unwrap();
    load(&mut reopened, cs.brian, 6, 6.0);
    assert_eq!(
        ckpt_count(&dir),
        1,
        "the replayed tail counts toward max_tail_ops"
    );
    // And the checkpoint actually covers it: a fresh open replays the
    // checkpoint + empty-ish tail to the same state.
    let before = {
        let mut buf = Vec::new();
        write_tmd(reopened.schema(), &mut buf).unwrap();
        buf
    };
    drop(reopened);
    let again = DurableTmd::open(&dir).unwrap();
    let after = {
        let mut buf = Vec::new();
        write_tmd(again.schema(), &mut buf).unwrap();
        buf
    };
    assert_eq!(before, after);
    std::fs::remove_dir_all(&dir).ok();
}

/// `max_tail_age_ms` checkpoints by wall clock: a tail that sits
/// uncheckpointed past the age budget is compacted by the periodic
/// `maybe_checkpoint` driver, not by further commits. Driven by a
/// manual [`mvolap_durable::TimeSource`] so the test is deterministic.
#[test]
fn policy_max_tail_age_checkpoints_by_wall_clock() {
    let dir = tmp("age");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create_with(
        &dir,
        cs.tmd.clone(),
        small_opts(CheckpointPolicy::max_tail_age(1_000)),
        Io::plain(),
    )
    .unwrap();
    let clock = mvolap_durable::TimeSource::manual(0);
    store.set_time_source(clock.clone());

    load(&mut store, cs.brian, 1, 1.0);
    assert_eq!(ckpt_count(&dir), 0, "commit alone does not checkpoint");
    clock.advance(999);
    assert!(store.maybe_checkpoint().unwrap().is_none(), "under budget");
    clock.advance(1);
    let id = store
        .maybe_checkpoint()
        .unwrap()
        .expect("age budget crossed");
    assert_eq!(id.next_lsn, store.wal_position());
    assert_eq!(ckpt_count(&dir), 1);

    // The tail is empty again: no further time-based checkpoints until
    // something new is journaled.
    clock.advance(10_000);
    assert!(store.maybe_checkpoint().unwrap().is_none(), "empty tail");
    load(&mut store, cs.brian, 2, 2.0);
    clock.advance(1_000);
    assert!(store.maybe_checkpoint().unwrap().is_some(), "new tail aged");
    assert_eq!(ckpt_count(&dir), 1, "older checkpoints pruned");
    std::fs::remove_dir_all(&dir).ok();
}

/// `create_from_snapshot` starts a store at an arbitrary LSN with the
/// checkpoint as its bootstrap: no bootstrap WAL record, correct
/// positions, recoverable, and positions below the base are `Pruned`.
#[test]
fn create_from_snapshot_aligns_lsns() {
    let dir = tmp("snapshot");
    let cs = case_study::case_study();
    let mut store = DurableTmd::create_from_snapshot(
        &dir,
        cs.tmd.clone(),
        10,
        small_opts(CheckpointPolicy::manual()),
        Io::plain(),
    )
    .unwrap();
    assert_eq!(store.wal_position(), 10);
    assert_eq!(store.oldest_lsn().unwrap(), 10);
    assert_eq!(store.tail(10).unwrap(), vec![]);
    match store.tail(4) {
        Err(DurableError::Pruned { oldest_available }) => assert_eq!(oldest_available, 10),
        other => panic!("expected Pruned, got {other:?}"),
    }

    load(&mut store, cs.brian, 1, 42.0);
    assert_eq!(store.wal_position(), 11);
    let frames = store.tail(10).unwrap();
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].lsn, 10);

    let before = {
        let mut buf = Vec::new();
        write_tmd(store.schema(), &mut buf).unwrap();
        buf
    };
    drop(store);
    let reopened = DurableTmd::open(&dir).unwrap();
    assert_eq!(reopened.wal_position(), 11);
    let after = {
        let mut buf = Vec::new();
        write_tmd(reopened.schema(), &mut buf).unwrap();
        buf
    };
    assert_eq!(before, after);

    // Refuses to clobber an existing store.
    assert!(DurableTmd::create_from_snapshot(
        &dir,
        cs.tmd,
        20,
        small_opts(CheckpointPolicy::manual()),
        Io::plain(),
    )
    .is_err());
    std::fs::remove_dir_all(&dir).ok();
}
