//! Fig 9 — application-level throughput on three database engines.

use serde::{Deserialize, Serialize};
use twob_core::TwoBSsd;
use twob_sim::SimRng;
use twob_ssd::{Ssd, SsdConfig};
use twob_wal::{BaWal, BlockWal, CommitMode, WalConfig, WalWriter};
use twob_workloads::{EngineKind, EngineSession};

use crate::Table;

/// Which log device/scheme backs the engine's WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogKind {
    /// Conventional WAL, synchronous commit, on the DC-SSD.
    Dc,
    /// Conventional WAL, synchronous commit, on the ULL-SSD.
    Ull,
    /// BA-WAL on the 2B-SSD.
    TwoB,
    /// Asynchronous commit (theoretical maximum; risk of data loss).
    Async,
}

impl LogKind {
    /// All four configurations of Fig 9, in the paper's order.
    pub fn all() -> [LogKind; 4] {
        [LogKind::Dc, LogKind::Ull, LogKind::TwoB, LogKind::Async]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            LogKind::Dc => "DC-SSD",
            LogKind::Ull => "ULL-SSD",
            LogKind::TwoB => "2B-SSD",
            LogKind::Async => "ASYNC",
        }
    }
}

/// How a BA-WAL should be buffered for an engine (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaLayout {
    /// Two halves of the BA-buffer (PostgreSQL: segment = buffer/2).
    Halves,
    /// Two quarters (RocksDB: log file = buffer/4, half the buffer is
    /// reserved for the second memtable's log).
    Quarters,
    /// One window spanning the whole buffer (Redis: no double buffering).
    SingleWhole,
}

/// Builds the WAL for one `(kind, layout)` cell of Fig 9.
///
/// The 2B device gets a 2 MiB BA-buffer (a scaled-down 8 MB of Table I, in
/// proportion to the bench-scale device) so segment halves hold thousands
/// of records and double buffering can hide flushes, as on the prototype.
///
/// # Panics
///
/// Panics on invalid configuration — the presets here are all valid.
pub fn make_wal(kind: LogKind, layout: BaLayout) -> Box<dyn WalWriter> {
    let cfg = WalConfig {
        region_pages: 2048,
        ..WalConfig::default()
    };
    match kind {
        LogKind::Dc => Box::new(
            BlockWal::new(
                Ssd::new(SsdConfig::dc_ssd().bench_scale()),
                cfg,
                CommitMode::Sync,
            )
            .expect("dc wal"),
        ),
        LogKind::Ull => Box::new(
            BlockWal::new(
                Ssd::new(SsdConfig::ull_ssd().bench_scale()),
                cfg,
                CommitMode::Sync,
            )
            .expect("ull wal"),
        ),
        LogKind::Async => Box::new(
            BlockWal::new(
                Ssd::new(SsdConfig::ull_ssd().bench_scale()),
                cfg,
                CommitMode::Async,
            )
            .expect("async wal"),
        ),
        LogKind::TwoB => {
            // A bench-scale base device so the log region never starves
            // the FTL of free blocks (the prototype is 800 GB; GC on a
            // tiny test device would distort application results).
            let spec = twob_core::TwoBSpec {
                ba_buffer_bytes: 2 << 20,
                ..twob_core::TwoBSpec::default()
            };
            let dev = TwoBSsd::new(SsdConfig::base_2b().bench_scale(), spec);
            let buffer_pages = (dev.spec().ba_buffer_bytes / 4096) as u32;
            match layout {
                BaLayout::Halves => {
                    Box::new(BaWal::new(dev, cfg, buffer_pages / 2).expect("ba wal"))
                }
                BaLayout::Quarters => {
                    Box::new(BaWal::new(dev, cfg, buffer_pages / 4).expect("ba wal"))
                }
                BaLayout::SingleWhole => {
                    Box::new(BaWal::new_single(dev, cfg, buffer_pages).expect("ba wal"))
                }
            }
        }
    }
}

/// The BA-WAL buffering the paper gives each engine (§IV-B).
fn layout(engine: EngineKind) -> BaLayout {
    match engine {
        EngineKind::Pg => BaLayout::Halves,
        EngineKind::Rocks => BaLayout::Quarters,
        EngineKind::Redis => BaLayout::SingleWhole,
    }
}

/// Steady-state throughput (ops/s or txns/s) of `engine` over `wal` under
/// the workload the paper pairs it with: a 500-key working set, 8
/// closed-loop clients (Redis runs one), `ops` measured operations after
/// the load phase. `payload` sizes the YCSB values; Linkbench carries its
/// own and ignores it.
///
/// # Panics
///
/// Panics if the engine or its WAL fails — the presets here never do.
pub fn throughput(
    engine: EngineKind,
    wal: Box<dyn WalWriter>,
    payload: usize,
    ops: u64,
    seed: u64,
) -> f64 {
    EngineSession::new(engine, wal, 500, payload)
        .run(&mut SimRng::seed_from(seed), 8, ops)
        .expect("fig 9 run")
        .ops_per_sec()
}

/// Throughput of the four log configurations for one engine/payload cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineSeries {
    /// DC-SSD, synchronous commit.
    pub dc: f64,
    /// ULL-SSD, synchronous commit.
    pub ull: f64,
    /// 2B-SSD, BA commit.
    pub twob: f64,
    /// Asynchronous commit.
    pub async_max: f64,
}

impl EngineSeries {
    /// Speed-up of 2B-SSD over DC-SSD (paper headline: 1.2–2.8×).
    pub fn gain_vs_dc(&self) -> f64 {
        self.twob / self.dc
    }

    /// Speed-up of 2B-SSD over ULL-SSD (paper: 1.15–2.3×).
    pub fn gain_vs_ull(&self) -> f64 {
        self.twob / self.ull
    }

    /// Fraction of the asynchronous-commit maximum 2B-SSD reaches
    /// (paper: 75–95 %).
    pub fn fraction_of_async(&self) -> f64 {
        self.twob / self.async_max
    }
}

/// The whole figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Report {
    /// PostgreSQL + Linkbench (one cell).
    pub pg: EngineSeries,
    /// RocksDB + YCSB-A per payload size.
    pub rocks: Vec<(usize, EngineSeries)>,
    /// Redis + YCSB-A per payload size.
    pub redis: Vec<(usize, EngineSeries)>,
}

/// The payload sizes the paper sweeps for the key-value engines.
pub fn payload_sizes() -> Vec<usize> {
    vec![64, 256, 1024, 4096]
}

fn series(mut f: impl FnMut(LogKind) -> f64) -> EngineSeries {
    EngineSeries {
        dc: f(LogKind::Dc),
        ull: f(LogKind::Ull),
        twob: f(LogKind::TwoB),
        async_max: f(LogKind::Async),
    }
}

/// Regenerates Fig 9. `quick` runs a reduced op count for tests.
pub fn run(quick: bool) -> Fig9Report {
    let (pg_txns, kv_ops, redis_ops) = if quick {
        (4_000, 4_000, 2_500)
    } else {
        (20_000, 20_000, 10_000)
    };
    let cell = |engine, payload, ops, seed| {
        series(|kind| throughput(engine, make_wal(kind, layout(engine)), payload, ops, seed))
    };
    let sweep = |engine, ops, seed| {
        payload_sizes()
            .into_iter()
            .map(|p| (p, cell(engine, p, ops, seed)))
            .collect()
    };
    Fig9Report {
        pg: cell(EngineKind::Pg, 0, pg_txns, 42),
        rocks: sweep(EngineKind::Rocks, kv_ops, 43),
        redis: sweep(EngineKind::Redis, redis_ops, 44),
    }
}

/// Renders every workload's series as one table.
pub(crate) fn render(report: &Fig9Report) -> String {
    let mut rows = vec![("PostgreSQL+Linkbench".to_string(), report.pg)];
    for (engine, series) in [("RocksDB", &report.rocks), ("Redis", &report.redis)] {
        rows.extend(
            series
                .iter()
                .map(|(p, s)| (format!("{engine}+YCSB-A {p}B"), *s)),
        );
    }
    let table = Table::new(&rows)
        .col("workload", |r| r.0.clone())
        .col("DC-SSD", |r| format!("{:.0}", r.1.dc))
        .col("ULL-SSD", |r| format!("{:.0}", r.1.ull))
        .col("2B-SSD", |r| format!("{:.0}", r.1.twob))
        .col("ASYNC", |r| format!("{:.0}", r.1.async_max))
        .col("2B/DC", |r| format!("{:.2}x", r.1.gain_vs_dc()))
        .col("2B/ULL", |r| format!("{:.2}x", r.1.gain_vs_ull()))
        .col("of ASYNC", |r| {
            format!("{:.0}%", 100.0 * r.1.fraction_of_async())
        });
    format!("Fig 9: application throughput (ops/s or txns/s)\n\n{table}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape_matches_paper() {
        let report = run(true);

        // PostgreSQL: 2B > ULL > DC, with gains inside the paper's bands.
        let pg = report.pg;
        assert!(pg.twob > pg.ull && pg.ull > pg.dc, "{pg:?}");
        assert!((1.2..=3.0).contains(&pg.gain_vs_dc()), "{pg:?}");
        assert!((1.1..=2.4).contains(&pg.gain_vs_ull()), "{pg:?}");
        assert!(pg.fraction_of_async() <= 1.0, "{pg:?}");
        assert!(pg.fraction_of_async() > 0.75, "{pg:?}");

        // RocksDB: gains shrink as the payload grows (paper §V-C).
        let first = report.rocks.first().unwrap().1;
        let last = report.rocks.last().unwrap().1;
        assert!(
            first.gain_vs_dc() > last.gain_vs_dc(),
            "64 B gain {} should exceed 4 KiB gain {}",
            first.gain_vs_dc(),
            last.gain_vs_dc()
        );
        for (payload, s) in &report.rocks {
            assert!(
                (1.2..=3.2).contains(&s.gain_vs_dc()),
                "rocks payload {payload}: {s:?}"
            );
            assert!(s.twob > s.ull, "rocks payload {payload}: {s:?}");
        }
        // ULL's best showing over DC is RocksDB (paper: up to 1.5×), and it
        // stays below the 2B gain.
        let ull_gain = first.ull / first.dc;
        assert!((1.1..=1.7).contains(&ull_gain), "{first:?}");

        // Redis: DC and ULL are nearly identical (single-threaded event
        // loop dominates), yet 2B still wins.
        for (payload, s) in &report.redis {
            let ull_vs_dc = s.ull / s.dc;
            assert!(
                (0.95..=1.25).contains(&ull_vs_dc),
                "redis payload {payload} ull/dc {ull_vs_dc}: {s:?}"
            );
            assert!(s.twob > s.ull, "redis payload {payload}: {s:?}");
            assert!(
                s.fraction_of_async() > 0.75,
                "redis payload {payload}: {s:?}"
            );
        }
        // Redis gain also shrinks with payload.
        let redis_first = report.redis.first().unwrap().1;
        let redis_last = report.redis.last().unwrap().1;
        assert!(redis_first.gain_vs_dc() >= redis_last.gain_vs_dc() * 0.98);
    }
}
