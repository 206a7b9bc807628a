//! Multiple real host threads sharing one simulated 2B-SSD, each logging
//! into its own pinned window — a multi-tenant version of the paper's
//! logging case study.
//!
//! Run with: `cargo run --release --example concurrent_clients`

use std::sync::mpsc;

use twob::core::{EntryId, SharedTwoBSsd, TwoBSsd};
use twob::ftl::Lba;
use twob::sim::{SimDuration, SimTime};

fn main() {
    let dev = SharedTwoBSsd::new(TwoBSsd::small_for_tests());
    let clients = 4u8;
    let commits_per_client = 50u64;
    let (tx, rx) = mpsc::channel();

    let handles: Vec<_> = (0..clients)
        .map(|i| {
            let dev = dev.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                // Each tenant pins its own 4-page log window.
                let window = u64::from(i) * 16384;
                let lba = Lba(u64::from(i) * 8);
                let pin = dev
                    .ba_pin(SimTime::ZERO, EntryId(i), window, lba, 4)
                    .expect("pin");
                let mut t = pin.complete_at;
                let mut used = 0u64;
                let mut worst = SimDuration::ZERO;
                for seq in 0..commits_per_client {
                    let record = format!("tenant-{i} commit-{seq:04}");
                    let issue = t + SimDuration::from_micros(5); // think time
                    let store = dev
                        .mmio_write(issue, EntryId(i), used, record.as_bytes())
                        .expect("store");
                    let sync = dev
                        .ba_sync_range(store.retired_at, EntryId(i), used, record.len() as u64)
                        .expect("sync");
                    worst = worst.max(sync.complete_at.saturating_since(issue));
                    used += record.len() as u64;
                    t = sync.complete_at;
                }
                tx.send((i, t, worst)).expect("report");
            })
        })
        .collect();
    drop(tx);
    for h in handles {
        h.join().expect("client thread");
    }

    println!("== {clients} tenants x {commits_per_client} durable commits each ==\n");
    let mut reports: Vec<_> = rx.iter().collect();
    reports.sort_by_key(|(i, _, _)| *i);
    for (i, done_at, worst) in &reports {
        println!("tenant {i}: finished at {done_at}, worst durable commit {worst}");
    }
    let stats = dev.stats();
    println!(
        "\ndevice totals: {} pins, {} stores, {} syncs, {} bytes logged",
        stats.pins, stats.mmio_stores, stats.syncs, stats.bytes_stored
    );
    assert_eq!(stats.syncs, u64::from(clients) * commits_per_client);
}
