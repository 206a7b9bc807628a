//! Multi-tenant pool: N independent database engines sharing one 2B-SSD.
//!
//! The paper's §V runs PostgreSQL, RocksDB, and Redis *concurrently* on a
//! single prototype, each logging into its own slice of the BA region. This
//! module generalizes that setup to N tenants for the tenant sweep:
//!
//! - each tenant gets its own [`EngineSession`] (the engine, its paired
//!   workload and its client rule), chosen round-robin from a mix list;
//! - each tenant commits through its own [`GroupCommit`] over a per-tenant
//!   WAL — [`TenantBaWal`] windows arbitrated by the shared [`PinTable`],
//!   or [`TenantBlockWal`] regions on the same device's block path;
//! - all tenants' durability traffic funnels through one [`IoCalendar`]
//!   onto one [`TwoBSsd`], so cross-tenant interference (channel and
//!   datapath contention, shared write cache, background GC) is what the
//!   sweep measures.
//!
//! Engines log through a recording sink; the driver forwards each produced
//! record to the tenant's group committer, and a committing client blocks
//! until its batch's durability point. The pool holds state only — the
//! event loop lives in [`crate::ServiceDriver::run_sessions`], which always
//! dispatches the earliest event (farthest-behind ready client or armed
//! batch deadline, ties broken by tenant then client index), so a run is a
//! pure function of its configuration.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use twob_core::{IoCalendar, PinTable, RegionFrontEnd, TenantId, TwoBSsd};
use twob_db::{DbError, EngineKind};
use twob_sim::{SimDuration, SimRng, SimTime};
use twob_wal::{
    CommitOutcome, GroupCommit, Lsn, TenantBaWal, TenantBlockWal, WalConfig, WalError, WalStats,
    WalWriter,
};

use crate::EngineSession;

/// Which logging scheme every tenant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalScheme {
    /// BA-WAL: pinned byte-path windows arbitrated by the [`PinTable`],
    /// served through the paper's MMIO front-end.
    Ba,
    /// The same pinned windows served through the CXL.mem front-end:
    /// cache-line stores committed by persist barriers.
    Cxl,
    /// Conventional block WAL with a flush per batch, on the same device.
    Block,
}

impl WalScheme {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            WalScheme::Ba => "ba",
            WalScheme::Cxl => "cxl",
            WalScheme::Block => "block",
        }
    }

    /// Whether the scheme logs through pinned byte-path windows (and so
    /// needs a [`PinTable`] and BA-buffer capacity).
    pub fn is_byte_path(self) -> bool {
        matches!(self, WalScheme::Ba | WalScheme::Cxl)
    }

    /// The pin-table front-end serving this scheme's windows (block has
    /// none and maps to the default).
    pub fn front_end(self) -> RegionFrontEnd {
        match self {
            WalScheme::Cxl => RegionFrontEnd::Cxl,
            _ => RegionFrontEnd::BaMmio,
        }
    }
}

/// Configuration of a [`TenantPool`] run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantPoolConfig {
    /// Number of tenants sharing the device.
    pub tenants: u16,
    /// Engine mix; tenant `i` runs `mix[i % mix.len()]`.
    pub mix: Vec<EngineKind>,
    /// Logging scheme for every tenant.
    pub scheme: WalScheme,
    /// Simulated clients per tenant (Redis tenants are single-threaded and
    /// always run one).
    pub clients_per_tenant: usize,
    /// Measured commits... operations dispatched per tenant.
    pub ops_per_tenant: u64,
    /// Base RNG seed; tenant `i` derives its own stream from it.
    pub seed: u64,
    /// Group-commit window.
    pub group_window: SimDuration,
    /// Group-commit batch cap.
    pub max_batch: usize,
    /// Log-region pages per tenant (regions are laid out contiguously from
    /// LBA 0: tenant `i` owns `[i * region_pages, (i+1) * region_pages)`).
    pub region_pages: u32,
    /// YCSB payload bytes for the key-value tenants.
    pub payload_bytes: usize,
    /// Working-set size (Linkbench nodes / YCSB records) per tenant.
    pub keys: u64,
}

impl TenantPoolConfig {
    /// The tenant-sweep preset: 4 clients per tenant, 10 µs group window,
    /// 16-record batches, 16-page log regions, 128 B YCSB payloads over a
    /// 200-key working set.
    pub fn standard(tenants: u16, mix: Vec<EngineKind>, scheme: WalScheme, seed: u64) -> Self {
        TenantPoolConfig {
            tenants,
            mix,
            scheme,
            clients_per_tenant: 4,
            ops_per_tenant: 400,
            seed,
            group_window: SimDuration::from_micros(10),
            max_batch: 16,
            region_pages: 16,
            payload_bytes: 128,
            keys: 200,
        }
    }
}

/// Per-tenant results of a pool run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantOutcome {
    /// Tenant index.
    pub tenant: u16,
    /// Engine this tenant ran.
    pub engine: EngineKind,
    /// Commits that reached a durability point.
    pub commits: u64,
    /// Median commit latency, µs.
    pub p50_us: f64,
    /// 99th-percentile commit latency, µs.
    pub p99_us: f64,
}

/// Aggregate results of a pool run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant count.
    pub tenants: u16,
    /// Scheme label (`"ba"` or `"block"`).
    pub scheme: String,
    /// Total commits across tenants.
    pub commits: u64,
    /// Group-commit batches issued across tenants.
    pub batches: u64,
    /// Percentage of commits that shared a batch.
    pub grouped_pct: f64,
    /// Median commit latency across all tenants' commits, µs.
    pub p50_us: f64,
    /// 99th-percentile commit latency across all tenants' commits, µs.
    pub p99_us: f64,
    /// Worst single tenant's p99, µs.
    pub worst_tenant_p99_us: f64,
    /// Aggregate commit throughput over the measured span.
    pub commits_per_sec: f64,
    /// Per-tenant breakdown.
    pub per_tenant: Vec<TenantOutcome>,
}

/// A [`WalWriter`] that records payloads instead of logging them: the
/// engine's in-process log sink. The pool drains what the engine produced
/// after each operation and forwards it to the tenant's group committer,
/// which owns the real (shared-device) WAL.
#[derive(Debug, Clone)]
struct RecordingWal {
    sink: Rc<RefCell<Vec<Vec<u8>>>>,
    next_lsn: u64,
}

impl WalWriter for RecordingWal {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        self.sink.borrow_mut().push(payload.to_vec());
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        Ok(CommitOutcome {
            lsn,
            commit_at: now,
            durable_at: None,
        })
    }

    fn scheme(&self) -> String {
        "RECORDER".into()
    }

    fn stats(&self) -> WalStats {
        WalStats::default()
    }
}

/// The real per-tenant log behind the group committer.
pub(crate) enum TenantWal {
    Ba(TenantBaWal),
    Block(TenantBlockWal),
}

impl WalWriter for TenantWal {
    fn append_commit(&mut self, now: SimTime, payload: &[u8]) -> Result<CommitOutcome, WalError> {
        match self {
            TenantWal::Ba(w) => w.append_commit(now, payload),
            TenantWal::Block(w) => w.append_commit(now, payload),
        }
    }

    fn append_batch(
        &mut self,
        now: SimTime,
        payloads: &[Vec<u8>],
    ) -> Result<CommitOutcome, WalError> {
        match self {
            TenantWal::Ba(w) => w.append_batch(now, payloads),
            TenantWal::Block(w) => w.append_batch(now, payloads),
        }
    }

    fn scheme(&self) -> String {
        match self {
            TenantWal::Ba(w) => w.scheme(),
            TenantWal::Block(w) => w.scheme(),
        }
    }

    fn stats(&self) -> WalStats {
        match self {
            TenantWal::Ba(w) => w.stats(),
            TenantWal::Block(w) => w.stats(),
        }
    }
}

pub(crate) struct Tenant {
    pub(crate) engine_kind: EngineKind,
    pub(crate) engine: EngineSession,
    pub(crate) recorder: Rc<RefCell<Vec<Vec<u8>>>>,
    pub(crate) group: GroupCommit<TenantWal>,
    pub(crate) rng: SimRng,
    /// Per-client clocks; `None` while the client waits on a commit.
    pub(crate) clients: Vec<Option<SimTime>>,
    /// Ticket → client index, for the ticket each blocked client waits on.
    pub(crate) waiting: HashMap<u64, usize>,
    pub(crate) remaining: u64,
    pub(crate) latencies_ns: Vec<u64>,
    pub(crate) end: SimTime,
}

/// N engines over one shared device. See the module docs.
pub struct TenantPool {
    dev: Rc<RefCell<TwoBSsd>>,
    pub(crate) tenants: Vec<Tenant>,
    pub(crate) cfg: TenantPoolConfig,
}

impl TenantPool {
    /// Builds the pool on `dev`: constructs the shared calendar (and, for
    /// the BA scheme, the [`PinTable`] with equal tenant shares), then one
    /// engine + WAL + group committer per tenant.
    ///
    /// # Errors
    ///
    /// Configuration errors (zero tenants, clients or batch cap, regions
    /// that do not fit the device, shares too small for a window) surface
    /// as [`DbError::Wal`].
    pub fn new(dev: TwoBSsd, cfg: TenantPoolConfig) -> Result<Self, DbError> {
        if cfg.tenants == 0
            || cfg.mix.is_empty()
            || cfg.clients_per_tenant == 0
            || cfg.max_batch == 0
        {
            return Err(DbError::Wal(WalError::BadConfig(
                "need at least one tenant, engine, client, and record per batch".into(),
            )));
        }
        let pins = if cfg.scheme.is_byte_path() {
            Some(Rc::new(RefCell::new(
                PinTable::new(dev.spec(), cfg.tenants).map_err(WalError::from)?,
            )))
        } else {
            None
        };
        let dev = Rc::new(RefCell::new(dev));
        let cal = Rc::new(RefCell::new(IoCalendar::new()));
        let mut tenants = Vec::with_capacity(usize::from(cfg.tenants));
        for i in 0..cfg.tenants {
            let wal_cfg = WalConfig {
                region_base_lba: u64::from(i) * u64::from(cfg.region_pages),
                region_pages: cfg.region_pages,
                ..WalConfig::default()
            };
            let wal = match &pins {
                Some(pins) => {
                    // Largest power-of-two window ≤ min(share, 4 pages), so
                    // it always divides a power-of-two region.
                    let share = pins.borrow().share_pages().min(4);
                    let window = if share >= 4 {
                        4
                    } else if share >= 2 {
                        2
                    } else {
                        1
                    };
                    TenantWal::Ba(TenantBaWal::with_front_end(
                        dev.clone(),
                        cal.clone(),
                        pins.clone(),
                        TenantId(i),
                        wal_cfg,
                        window,
                        cfg.scheme.front_end(),
                    )?)
                }
                None => TenantWal::Block(TenantBlockWal::new(
                    dev.clone(),
                    cal.clone(),
                    TenantId(i),
                    wal_cfg,
                )?),
            };
            let engine_kind = cfg.mix[usize::from(i) % cfg.mix.len()];
            let recorder = Rc::new(RefCell::new(Vec::new()));
            let sink = Box::new(RecordingWal {
                sink: recorder.clone(),
                next_lsn: 0,
            });
            let engine = EngineSession::new(engine_kind, sink, cfg.keys, cfg.payload_bytes);
            let clients = engine.clients(cfg.clients_per_tenant);
            tenants.push(Tenant {
                engine_kind,
                engine,
                recorder,
                group: GroupCommit::new(wal, cfg.group_window, cfg.max_batch),
                rng: crate::gen::tenant_rng(cfg.seed, i),
                clients: vec![Some(SimTime::ZERO); clients],
                waiting: HashMap::new(),
                remaining: cfg.ops_per_tenant,
                latencies_ns: Vec::new(),
                end: SimTime::ZERO,
            });
        }
        Ok(TenantPool { dev, tenants, cfg })
    }

    /// The shared device (e.g. to inspect stats after a run).
    pub fn device(&self) -> Rc<RefCell<TwoBSsd>> {
        self.dev.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::ServiceDriver;
    use twob_core::TwoBSpec;
    use twob_ssd::SsdConfig;

    fn device(tenants: u16) -> TwoBSsd {
        let spec = TwoBSpec {
            ba_buffer_bytes: 256 << 10, // 64 pages
            max_entries: usize::from(tenants).max(8),
            ..TwoBSpec::default()
        };
        TwoBSsd::new(SsdConfig::base_2b().bench_scale(), spec)
    }

    fn quick_cfg(tenants: u16, scheme: WalScheme) -> TenantPoolConfig {
        TenantPoolConfig {
            ops_per_tenant: 60,
            keys: 50,
            ..TenantPoolConfig::standard(
                tenants,
                vec![EngineKind::Pg, EngineKind::Rocks, EngineKind::Redis],
                scheme,
                7,
            )
        }
    }

    #[test]
    fn mixed_tenants_share_one_device() {
        let mut pool = TenantPool::new(device(4), quick_cfg(4, WalScheme::Ba)).unwrap();
        let report = ServiceDriver::run_sessions(&mut pool).unwrap();
        assert_eq!(report.tenants, 4);
        assert_eq!(report.per_tenant.len(), 4);
        // The mix assigns engines round-robin.
        assert_eq!(report.per_tenant[0].engine, EngineKind::Pg);
        assert_eq!(report.per_tenant[1].engine, EngineKind::Rocks);
        assert_eq!(report.per_tenant[2].engine, EngineKind::Redis);
        assert_eq!(report.per_tenant[3].engine, EngineKind::Pg);
        // Every tenant committed, and latencies are sane.
        for t in &report.per_tenant {
            assert!(t.commits > 0, "{t:?}");
            assert!(t.p99_us >= t.p50_us, "{t:?}");
            assert!(t.p50_us > 0.0, "{t:?}");
        }
        // All four tenants' windows live on the device at once.
        assert_eq!(pool.device().borrow().entries().len(), 4);
    }

    #[test]
    fn pool_runs_are_deterministic() {
        let run = || {
            let mut pool = TenantPool::new(device(4), quick_cfg(4, WalScheme::Ba)).unwrap();
            ServiceDriver::run_sessions(&mut pool).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ba_scheme_commits_faster_than_block_on_the_same_chassis() {
        let mut ba_pool = TenantPool::new(device(4), quick_cfg(4, WalScheme::Ba)).unwrap();
        let ba = ServiceDriver::run_sessions(&mut ba_pool).unwrap();
        let mut block_pool = TenantPool::new(device(4), quick_cfg(4, WalScheme::Block)).unwrap();
        let block = ServiceDriver::run_sessions(&mut block_pool).unwrap();
        assert!(
            ba.p99_us < block.p99_us,
            "ba p99 {} should beat block p99 {}",
            ba.p99_us,
            block.p99_us
        );
    }

    #[test]
    fn cxl_scheme_runs_the_pool_through_persist_barriers() {
        let mut pool = TenantPool::new(device(4), quick_cfg(4, WalScheme::Cxl)).unwrap();
        let report = ServiceDriver::run_sessions(&mut pool).unwrap();
        assert_eq!(report.scheme, "cxl");
        assert!(report.commits > 0);
        let stats = pool.device().borrow().stats();
        assert!(stats.cxl_persists > 0, "commits must ride persist barriers");
        assert_eq!(stats.syncs, 0, "no BA_SYNC should fire under CXL");
        assert_eq!(stats.mmio_stores, 0, "stores must ride the CXL path");
        // The block comparator on the same chassis is still slower.
        let mut block_pool = TenantPool::new(device(4), quick_cfg(4, WalScheme::Block)).unwrap();
        let block = ServiceDriver::run_sessions(&mut block_pool).unwrap();
        assert!(
            report.p99_us < block.p99_us,
            "cxl p99 {} should beat block p99 {}",
            report.p99_us,
            block.p99_us
        );
    }

    #[test]
    fn mix_parsing_round_trips_and_rejects_junk() {
        for kind in [EngineKind::Pg, EngineKind::Rocks, EngineKind::Redis] {
            assert_eq!(EngineKind::parse(kind.label()).unwrap(), kind);
        }
        assert!(EngineKind::parse("mysql").is_err());
        assert_eq!(
            EngineKind::parse_mix("pg,rocks,redis").unwrap(),
            vec![EngineKind::Pg, EngineKind::Rocks, EngineKind::Redis]
        );
        assert_eq!(
            EngineKind::parse_mix(" redis , pg ").unwrap(),
            vec![EngineKind::Redis, EngineKind::Pg]
        );
        assert!(EngineKind::parse_mix("pg,mysql").is_err());
        assert!(EngineKind::parse_mix("").is_err());
    }

    #[test]
    fn bad_configs_error_cleanly() {
        let cfg = TenantPoolConfig {
            tenants: 0,
            ..quick_cfg(1, WalScheme::Ba)
        };
        assert!(TenantPool::new(device(1), cfg).is_err());
        let cfg = TenantPoolConfig {
            max_batch: 0,
            ..quick_cfg(1, WalScheme::Ba)
        };
        assert!(matches!(
            TenantPool::new(device(1), cfg).err(),
            Some(DbError::Wal(WalError::BadConfig(_)))
        ));
    }
}
