//! Runs the RocksDB-style engine under YCSB-A on two log devices and
//! reports throughput, mirroring one cell of paper Fig 9.
//!
//! Run with: `cargo run --release --example kvstore_ycsb`

use twob::sim::SimRng;
use twob::ssd::{Ssd, SsdConfig};
use twob::wal::{BlockWal, CommitMode, WalConfig, WalWriter};
use twob::workloads::{EngineKind, EngineSession};

fn run(wal: Box<dyn WalWriter>, label: &str, payload: usize) -> f64 {
    // The Fig 9 pairing for RocksDB: YCSB-A over a 500-key working set,
    // a load phase, then 10,000 measured operations from 8 virtual clients.
    let mut db = EngineSession::new(EngineKind::Rocks, wal, 500, payload);
    let pool = db
        .run(&mut SimRng::seed_from(7), 8, 10_000)
        .expect("ycsb run");
    let tput = pool.ops_per_sec();
    println!(
        "{label:<24} {tput:>12.0} ops/s   (wal: {}, log WAF {:.1})",
        db.wal_scheme(),
        db.wal_stats().log_waf()
    );
    tput
}

fn main() {
    let payload = 256;
    println!("== MiniRocks + YCSB-A, {payload} B values, 8 clients ==\n");

    let dc = run(
        Box::new(
            BlockWal::new(
                Ssd::new(SsdConfig::dc_ssd().bench_scale()),
                WalConfig::default(),
                CommitMode::Sync,
            )
            .expect("wal"),
        ),
        "conventional on DC-SSD",
        payload,
    );

    let ba = run(twob_bench_wal(), "BA-WAL on 2B-SSD", payload);

    println!("\nspeed-up: {:.2}x (paper Fig 9 reports 1.2-2.8x)", ba / dc);
}

/// The same BA-WAL layout the Fig 9 harness uses for RocksDB: each log
/// file is a quarter of the BA-buffer (paper §IV-B).
fn twob_bench_wal() -> Box<dyn WalWriter> {
    use twob::core::{TwoBSpec, TwoBSsd};
    use twob::wal::BaWal;
    let spec = TwoBSpec {
        ba_buffer_bytes: 2 << 20,
        ..TwoBSpec::default()
    };
    let dev = TwoBSsd::new(SsdConfig::base_2b().bench_scale(), spec);
    let cfg = WalConfig {
        region_pages: 2048,
        ..WalConfig::default()
    };
    Box::new(BaWal::new(dev, cfg, 128).expect("ba wal"))
}
