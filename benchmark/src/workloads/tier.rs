//! `tier_churn`: one writer on a `TieredWal` (CXL front-end) over a
//! benchmark-owned device, calendar and pin table — reads beside writes on
//! the WAL layer, and the only workload where the tier policy, the CXL
//! channel, demotion/promotion and FTL GC interact. The benchmark makes
//! every call itself, so per-operation latencies (and full percentiles)
//! are its own to record.

use std::cell::RefCell;
use std::rc::Rc;

use twob_core::{IoCalendar, PinTable, TenantId, TwoBSpec, TwoBSsd};
use twob_cxl::{TierWalConfig, TieredWal};
use twob_faults::FaultPlan;
use twob_ftl::Lba;
use twob_nand::NandGeometry;
use twob_sim::{Histogram, SimDuration, SimRng, SimTime, Zipfian};
use twob_ssd::{BlockDevice, SsdConfig};
use twob_wal::{LogRecord, Lsn, WalConfig};

use crate::{mix, spans, Outcome, Scale, Workload, FNV_BASIS};

/// Operations per repetition: three appends, then one read.
const OPS: u64 = 560_000;
const PAYLOAD_BYTES: usize = 112;
/// An encoded record: the payload behind `twob-wal`'s 16-byte header
/// (`TierChurn::new` checks this against `LogRecord::encoded_len`).
const RECORD_BYTES: u64 = PAYLOAD_BYTES as u64 + 16;
const PAGE: u64 = 4096;
/// The log region: 128 segments of 2 pages, wrapped. A segment holds 64
/// records, so 1.6 % of appends rotate the tail: the commit p99 lies well
/// inside the rotation stalls instead of on their edge.
const REGION_PAGES: u32 = 256;
const WINDOW_PAGES: u32 = 2;
const RECORDS_PER_SEGMENT: u64 = WINDOW_PAGES as u64 * PAGE / RECORD_BYTES;
const SEGMENTS: u64 = (REGION_PAGES / WINDOW_PAGES) as u64;
/// Reads in the hot tail pick one of this many newest records.
const HOT_TAIL_RECORDS: u64 = 16;
/// `TieredWal::sweep` runs every this many operations.
const SWEEP_EVERY: u64 = 1024;

/// A 21 MiB device (5376 exported pages): small enough that the wrapped
/// log keeps greedy GC moving cold pages for the whole run.
fn device_config() -> SsdConfig {
    let mut cfg = SsdConfig::base_2b().small();
    cfg.geometry = NandGeometry {
        channels: 2,
        ways_per_channel: 2,
        planes_per_way: 1,
        blocks_per_plane: 32,
        pages_per_block: 64,
        page_size: 4096,
        spare_per_page: 128,
    };
    cfg
}

/// The 112 B payload of `lsn`: its number, then seed-derived filler.
fn payload_of(lsn: u64, filler: &[u8; PAYLOAD_BYTES]) -> [u8; PAYLOAD_BYTES] {
    let mut payload = *filler;
    payload[..8].copy_from_slice(&lsn.to_le_bytes());
    payload
}

/// What the last repetition left behind, for the power-cut check.
struct Last {
    dev: Rc<RefCell<TwoBSsd>>,
    now: SimTime,
    appended: u64,
}

pub struct TierChurn {
    seed: u64,
    ops: u64,
    /// The pre-filled device every repetition starts from, with the
    /// instant its pre-fill finished.
    pristine: TwoBSsd,
    ready_at: SimTime,
    filler: [u8; PAYLOAD_BYTES],
    last: Option<Last>,
}

impl TierChurn {
    pub fn new(seed: u64, scale: Scale) -> Self {
        assert_eq!(
            LogRecord::new(Lsn(0), vec![0; PAYLOAD_BYTES]).encoded_len() as u64,
            RECORD_BYTES,
            "the record framing changed; the segment arithmetic here must follow"
        );
        let mut rng = SimRng::seed_from(seed);
        let mut dev = TwoBSsd::new(device_config(), TwoBSpec::small_for_tests());
        let capacity = dev.capacity_pages();
        // Fill every exported page, then overwrite the pages outside the
        // log region at random once over, so blocks hold a mix of valid
        // and stale pages and GC is in steady state before timing starts.
        let mut chunk = vec![0u8; 8 * PAGE as usize];
        let mut t = SimTime::ZERO;
        for lba in (0..capacity - 7).step_by(8) {
            rng.fill_bytes(&mut chunk[..64]);
            t = dev
                .write_pages(t, Lba(lba), &chunk)
                .expect("pre-fill write");
        }
        let outside = capacity - u64::from(REGION_PAGES);
        for _ in 0..capacity {
            let lba = u64::from(REGION_PAGES) + rng.next_u64_below(outside);
            t = dev
                .write_pages(t, Lba(lba), &chunk[..PAGE as usize])
                .expect("pre-fill overwrite");
        }
        let ready_at = dev.flush(t) + SimDuration::from_micros(100);
        let mut filler = [0u8; PAYLOAD_BYTES];
        rng.fill_bytes(&mut filler);
        TierChurn {
            seed,
            ops: scale.of(OPS, 8_000),
            pristine: dev,
            ready_at,
            filler,
            last: None,
        }
    }
}

impl Workload for TierChurn {
    fn sizes(&self) -> String {
        format!(
            "closed loop, 1 writer, {} ops ({PAYLOAD_BYTES} B appends, every 4th a read: 80 % in \
             the newest {HOT_TAIL_RECORDS} records, 20 % zipf over older live LSNs), sweep every \
             {SWEEP_EVERY} ops, {REGION_PAGES}-page log in {WINDOW_PAGES}-page segments on a \
             pre-filled {}-page device",
            self.ops,
            self.pristine.capacity_pages()
        )
    }

    fn rep(&mut self) -> Outcome {
        let dev = Rc::new(RefCell::new(self.pristine.clone()));
        let pins = Rc::new(RefCell::new(
            PinTable::new(dev.borrow().spec(), 1).expect("a one-tenant pin table"),
        ));
        let cal = Rc::new(RefCell::new(IoCalendar::new()));
        let cfg = TierWalConfig {
            wal: WalConfig {
                region_pages: REGION_PAGES,
                ..WalConfig::default()
            },
            window_pages: WINDOW_PAGES,
            ..TierWalConfig::default()
        };
        let mut wal = TieredWal::new(dev.clone(), cal.clone(), pins, TenantId(0), cfg)
            .expect("the tier rig builds");
        let before = dev.borrow().ssd().ftl().stats();

        let mut out = Outcome {
            digest: FNV_BASIS,
            attempted: self.ops,
            ..Outcome::default()
        };
        let mut rng = SimRng::seed_from(self.seed ^ 0x7157_c4a9);
        let ages = Zipfian::new(RECORDS_PER_SEGMENT * SEGMENTS / 2, 0.99);
        let (mut commits, mut reads) = (Histogram::new(), Histogram::new());
        let mut now = self.ready_at;
        let mut appended = 0u64;
        for i in 0..self.ops {
            if i % 4 == 3 {
                let newest = appended - 1;
                let lsn = if rng.chance(0.8) {
                    newest - rng.next_u64_below(HOT_TAIL_RECORDS.min(appended))
                } else {
                    // Older records, skewed toward the recent past so a few
                    // segments absorb repeated cold reads and promote.
                    let oldest_live = (newest / RECORDS_PER_SEGMENT).saturating_sub(SEGMENTS - 1)
                        * RECORDS_PER_SEGMENT;
                    let age = HOT_TAIL_RECORDS + 2 * ages.sample(&mut rng);
                    newest.saturating_sub(age).max(oldest_live)
                };
                match spans::scope("cxl.read", || wal.read(now, Lsn(lsn))) {
                    Ok((payload, done)) => {
                        if payload != payload_of(lsn, &self.filler) {
                            out.fail(format!("read of lsn {lsn} returned other bytes"));
                        }
                        reads.record(done.saturating_since(now));
                        now = done;
                        out.ops += 1;
                    }
                    Err(e) => out.fail(format!("read of lsn {lsn}: {e}")),
                }
            } else {
                let payload = payload_of(appended, &self.filler);
                match spans::scope("cxl.append", || wal.append(now, &payload)) {
                    Ok(done) => {
                        commits.record(done.commit_at.saturating_since(now));
                        now = done.commit_at;
                        appended += 1;
                        out.ops += 1;
                    }
                    Err(e) => out.fail(format!("append {appended}: {e}")),
                }
            }
            if i % SWEEP_EVERY == SWEEP_EVERY - 1 {
                if let Err(e) = spans::scope("cxl.sweep", || wal.sweep(now)) {
                    out.fail(format!("sweep at op {i}: {e}"));
                }
            }
        }

        let tier = wal.stats();
        let (ftl, twob, ssd) = {
            let dev = dev.borrow();
            (dev.ssd().ftl().stats(), dev.stats(), dev.ssd().stats())
        };
        out.virtual_secs = now.saturating_since(self.ready_at).as_secs_f64();
        out.digest = [
            now.as_nanos(),
            appended,
            tier.promotions,
            tier.demotions,
            tier.hot_hits,
            tier.cold_hits,
            ftl.gc_writes,
        ]
        .into_iter()
        .fold(out.digest, mix);
        out.v
            .insert("commit_p50_vus", commits.interpolated(0.5) / 1e3);
        out.v.insert("tail_p99_vus", commits.p99() / 1e3);
        out.v
            .insert("model_ops_per_s", out.ops as f64 / out.virtual_secs);
        out.v.insert("cxl.v_commit_p999_us", commits.p999() / 1e3);
        out.v.insert("cxl.v_read_p99_us", reads.p99() / 1e3);
        out.v.insert("cxl.promotions", tier.promotions as f64);
        out.v.insert("cxl.demotions", tier.demotions as f64);
        out.v.insert(
            "cxl.hot_hit_ratio",
            tier.hot_hits as f64 / (tier.hot_hits + tier.cold_hits).max(1) as f64,
        );
        out.v
            .insert("cxl.clamped_posts", cal.borrow().clamped_posts() as f64);
        let host_writes = ftl.host_writes - before.host_writes;
        let gc_writes = ftl.gc_writes - before.gc_writes;
        out.v.insert(
            "ftl.waf",
            (host_writes + gc_writes) as f64 / host_writes.max(1) as f64,
        );
        out.v.insert("ftl.gc_pages_moved", gc_writes as f64);
        out.v
            .insert("ftl.erases", (ftl.erases - before.erases) as f64);
        out.v.insert("core.pins", twob.pins as f64);
        out.v.insert("core.flushes", twob.flushes as f64);
        out.v.insert("core.syncs", twob.cxl_persists as f64);
        out.v.insert("core.bytes_stored", twob.bytes_stored as f64);
        out.v.insert(
            "ssd.prefetch_hit_ratio",
            ssd.prefetch_hits as f64 / ssd.read_cmds.max(1) as f64,
        );
        self.last = Some(Last { dev, now, appended });
        out
    }

    /// Cuts power after the last acknowledged append (at the delay a
    /// `twob-faults` plan draws for this seed), restores, and reads every
    /// acknowledged record of the live window back byte-equal: pinned
    /// segments from the restored BA buffer, demoted ones from NAND.
    fn verify(&mut self) -> Vec<String> {
        let Some(Last { dev, now, appended }) = self.last.take() else {
            return vec!["no repetition ran before the power-cut check".into()];
        };
        let mut dev = dev.borrow_mut();
        let cut_at = now + SimDuration::from_nanos(FaultPlan::random(self.seed).cut_delay_ns);
        let dump = dev.power_loss(cut_at);
        if !dump.dumped {
            return vec![format!("capacitor dump failed: {:?}", dump.reason)];
        }
        let recover_at = cut_at + SimDuration::from_millis(1);
        if !dev.power_on(recover_at).restored {
            return vec!["restore found no valid dump".into()];
        }
        let mut errors = Vec::new();
        let newest = appended - 1;
        let tail_seg = newest / RECORDS_PER_SEGMENT;
        let window_bytes = u64::from(WINDOW_PAGES) * PAGE;
        for seg in tail_seg.saturating_sub(SEGMENTS - 1)..=tail_seg {
            let lba = Lba((seg % SEGMENTS) * u64::from(WINDOW_PAGES));
            let pinned = dev.entries().into_iter().find(|e| e.start_lba == lba);
            let bytes = match pinned {
                Some(entry) => dev
                    .mmio_read(recover_at, entry.eid, 0, window_bytes)
                    .map(|read| read.data)
                    .map_err(|e| e.to_string()),
                None => dev
                    .read_pages(recover_at, lba, WINDOW_PAGES)
                    .map(|read| read.data)
                    .map_err(|e| e.to_string()),
            };
            let bytes = match bytes {
                Ok(bytes) => bytes,
                Err(e) => {
                    errors.push(format!("segment {seg} unreadable after restore: {e}"));
                    continue;
                }
            };
            let first = seg * RECORDS_PER_SEGMENT;
            for lsn in first..(first + RECORDS_PER_SEGMENT).min(appended) {
                let at = ((lsn - first) * RECORD_BYTES) as usize;
                let intact = LogRecord::decode(&bytes[at..at + RECORD_BYTES as usize]).is_some_and(
                    |(record, _)| {
                        record.lsn == Lsn(lsn) && record.payload == payload_of(lsn, &self.filler)
                    },
                );
                if !intact {
                    errors.push(format!(
                        "acked lsn {lsn} (segment {seg}) lost by the power cut"
                    ));
                }
            }
        }
        errors.truncate(8);
        errors
    }
}
