//! SCD baselines vs the multiversion model (DESIGN.md
//! `bench_scd_baselines`): ingesting the same snapshot stream.
//!
//! Expected shape: SCD1 is cheapest (overwrite), SCD3 close behind,
//! SCD2 pays row rewriting, and the multiversion load pays the
//! evolution operators (validity maintenance, DAG checks) — the price of
//! being the only strategy that can answer *both* history and
//! cross-transition comparison queries (see `examples/scd_comparison`).
//!
//! The `load_durable` group journals every maintainer — the SCD
//! baselines through [`DurableScd`] (WAL append + fsync per snapshot),
//! the multiversion model through [`DurableTmd`] (one journaled record
//! per evolution operator) — and `recover` prices replaying those
//! journals, so the comparison includes the durability and recovery
//! cost each strategy would pay in production.

use std::path::{Path, PathBuf};

use mvolap_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mvolap_core::{MeasureDef, TemporalDimension, Tmd};
use mvolap_durable::DurableTmd;
use mvolap_etl::{
    apply_changes, diff, DurableScd, Scd1Dimension, Scd2Dimension, Scd3Dimension, ScdMaintainer,
    Snapshot, SnapshotRow,
};
use mvolap_prng::Rng;
use mvolap_temporal::{Granularity, Instant};

/// Generates a stream of yearly snapshots with `members` departments,
/// each year reclassifying ~10% of them across `divisions` divisions.
fn snapshot_stream(members: usize, divisions: usize, years: usize, seed: u64) -> Vec<Snapshot> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut parent_of: Vec<usize> = (0..members).map(|i| i % divisions).collect();
    let mut out = Vec::with_capacity(years);
    for y in 0..years {
        if y > 0 {
            for p in parent_of.iter_mut() {
                if rng.f64_unit() < 0.10 {
                    *p = rng.usize_below(divisions);
                }
            }
        }
        let rows = (0..divisions)
            .map(|d| SnapshotRow::new(format!("Div{d}"), None).at_level("Division"))
            .chain((0..members).map(|m| {
                SnapshotRow::new(format!("Dept{m}"), Some(&format!("Div{}", parent_of[m])))
                    .at_level("Department")
            }));
        out.push(Snapshot::new(Instant::ym(2001 + y as i32, 1), rows));
    }
    out
}

fn bench_loads(c: &mut Criterion) {
    let mut group = c.benchmark_group("scd/load");
    group.sample_size(10);
    for members in [20usize, 100] {
        let stream = snapshot_stream(members, 4, 6, 77);
        let rows: usize = stream.iter().map(Snapshot::len).sum();
        group.throughput(Throughput::Elements(rows as u64));

        group.bench_with_input(BenchmarkId::new("scd1", members), &stream, |b, stream| {
            b.iter(|| {
                let mut d = Scd1Dimension::new("org").expect("schema");
                for s in stream {
                    d.load(s).expect("load");
                }
                d
            })
        });
        group.bench_with_input(BenchmarkId::new("scd2", members), &stream, |b, stream| {
            b.iter(|| {
                let mut d = Scd2Dimension::new("org").expect("schema");
                for s in stream {
                    d.load(s).expect("load");
                }
                d
            })
        });
        group.bench_with_input(BenchmarkId::new("scd3", members), &stream, |b, stream| {
            b.iter(|| {
                let mut d = Scd3Dimension::new("org").expect("schema");
                for s in stream {
                    d.load(s).expect("load");
                }
                d
            })
        });
        group.bench_with_input(
            BenchmarkId::new("multiversion", members),
            &stream,
            |b, stream| {
                b.iter(|| {
                    let mut tmd = Tmd::new("org", Granularity::Month);
                    let dim = tmd
                        .add_dimension(TemporalDimension::new("Org"))
                        .expect("fresh schema");
                    tmd.add_measure(MeasureDef::summed("Amount"))
                        .expect("fresh schema");
                    mvolap_etl::load::bootstrap(&mut tmd, dim, &stream[0]).expect("bootstrap");
                    for pair in stream.windows(2) {
                        let events = diff(&pair[0], &pair[1]);
                        apply_changes(&mut tmd, dim, &events, pair[1].period).expect("load");
                    }
                    tmd
                })
            },
        );
    }
    group.finish();
}

fn bench_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mvolap_bench_scdj_{name}_{}", std::process::id()))
}

fn fresh(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("bench dir");
}

/// One full journaled SCD run: fresh WAL, every snapshot appended and
/// fsynced before it hits the table.
fn durable_scd_run<D: ScdMaintainer>(dir: &Path, stream: &[Snapshot]) -> u64 {
    fresh(dir);
    let mut d: DurableScd<D> = DurableScd::create(dir, "org").expect("journal");
    for s in stream {
        d.load(s).expect("load");
    }
    d.journaled()
}

/// One full journaled multiversion run: bootstrap + every evolution
/// operator journaled through the write-ahead log.
fn durable_mv_run(dir: &Path, stream: &[Snapshot]) -> u64 {
    fresh(dir);
    let mut tmd = Tmd::new("org", Granularity::Month);
    let dim = tmd
        .add_dimension(TemporalDimension::new("Org"))
        .expect("fresh schema");
    tmd.add_measure(MeasureDef::summed("Amount"))
        .expect("fresh schema");
    let mut store = DurableTmd::create(dir, tmd).expect("store");
    mvolap_etl::load::bootstrap(&mut store, dim, &stream[0]).expect("bootstrap");
    for pair in stream.windows(2) {
        let events = diff(&pair[0], &pair[1]);
        apply_changes(&mut store, dim, &events, pair[1].period).expect("load");
    }
    store.wal_position()
}

fn bench_durable_loads(c: &mut Criterion) {
    let mut group = c.benchmark_group("scd/load_durable");
    group.sample_size(10);
    let members = 20usize;
    let stream = snapshot_stream(members, 4, 6, 77);
    let rows: usize = stream.iter().map(Snapshot::len).sum();
    group.throughput(Throughput::Elements(rows as u64));

    let d = bench_dir("load");
    group.bench_with_input(BenchmarkId::new("scd1", members), &stream, |b, stream| {
        b.iter(|| durable_scd_run::<Scd1Dimension>(&d, stream))
    });
    group.bench_with_input(BenchmarkId::new("scd2", members), &stream, |b, stream| {
        b.iter(|| durable_scd_run::<Scd2Dimension>(&d, stream))
    });
    group.bench_with_input(BenchmarkId::new("scd3", members), &stream, |b, stream| {
        b.iter(|| durable_scd_run::<Scd3Dimension>(&d, stream))
    });
    group.bench_with_input(
        BenchmarkId::new("multiversion", members),
        &stream,
        |b, stream| b.iter(|| durable_mv_run(&d, stream)),
    );
    group.finish();
    std::fs::remove_dir_all(&d).ok();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("scd/recover");
    group.sample_size(10);
    let members = 20usize;
    let stream = snapshot_stream(members, 4, 6, 77);
    let rows: usize = stream.iter().map(Snapshot::len).sum();
    group.throughput(Throughput::Elements(rows as u64));

    // Prepare the journals once; each iteration replays them cold.
    let scd_dir = bench_dir("recover_scd2");
    durable_scd_run::<Scd2Dimension>(&scd_dir, &stream);
    let mv_dir = bench_dir("recover_mv");
    durable_mv_run(&mv_dir, &stream);

    group.bench_with_input(BenchmarkId::new("scd2", members), &scd_dir, |b, dir| {
        b.iter(|| DurableScd::<Scd2Dimension>::open(dir, "org").expect("recover"))
    });
    group.bench_with_input(
        BenchmarkId::new("multiversion", members),
        &mv_dir,
        |b, dir| b.iter(|| DurableTmd::open(dir).expect("recover")),
    );
    group.finish();
    std::fs::remove_dir_all(&scd_dir).ok();
    std::fs::remove_dir_all(&mv_dir).ok();
}

criterion_group!(benches, bench_loads, bench_durable_loads, bench_recovery);
criterion_main!(benches);
