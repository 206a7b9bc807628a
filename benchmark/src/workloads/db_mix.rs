//! `db_mix`: the paper's Fig 9 restated — pg/rocks/redis tenants sharing
//! one device through group commit and the tenant WALs, once with BA
//! logging and once with block logging. YCSB/Linkbench reads run beside
//! the commits.

use twob_core::{TwoBSpec, TwoBSsd};
use twob_sim::SimDuration;
use twob_ssd::SsdConfig;
use twob_workloads::{EngineKind, ServiceDriver, TenantPool, TenantPoolConfig, WalScheme};

use crate::{mix, spans, Outcome, Scale, Workload, FNV_BASIS};

const TENANTS: u16 = 16;
const CLIENTS_PER_TENANT: usize = 4;
const OPS_PER_TENANT: u64 = 17_000;

pub struct DbMix {
    seed: u64,
    ops_per_tenant: u64,
}

impl DbMix {
    pub fn new(seed: u64, scale: Scale) -> Self {
        DbMix {
            seed,
            ops_per_tenant: scale.of(OPS_PER_TENANT, 100),
        }
    }

    fn pool_config(&self, scheme: WalScheme) -> TenantPoolConfig {
        TenantPoolConfig {
            clients_per_tenant: CLIENTS_PER_TENANT,
            ops_per_tenant: self.ops_per_tenant,
            group_window: SimDuration::from_micros(10),
            ..TenantPoolConfig::standard(
                TENANTS,
                vec![EngineKind::Pg, EngineKind::Rocks, EngineKind::Redis],
                scheme,
                self.seed,
            )
        }
    }
}

/// The `tenant_sweep` device: bench-scale NAND behind a 1 MiB BA buffer
/// whose mapping table is virtualised to 64 entries.
fn device() -> TwoBSsd {
    let spec = TwoBSpec {
        ba_buffer_bytes: 1 << 20,
        max_entries: 64,
        ..TwoBSpec::default()
    };
    TwoBSsd::new(SsdConfig::base_2b().bench_scale(), spec)
}

impl Workload for DbMix {
    fn sizes(&self) -> String {
        format!(
            "closed loop, {TENANTS} tenants x {CLIENTS_PER_TENANT} clients (redis 1), \
             pg/rocks/redis round-robin, 10 us group window, {} ops/tenant, ba then block",
            self.ops_per_tenant
        )
    }

    fn rep(&mut self) -> Outcome {
        let mut out = Outcome {
            digest: FNV_BASIS,
            ..Outcome::default()
        };
        let (mut host_writes, mut programs, mut gc_moved, mut erases) = (0u64, 0u64, 0u64, 0u64);
        let mut commits_per_sec = [0.0f64; 2];
        for (half, scheme) in [WalScheme::Ba, WalScheme::Block].into_iter().enumerate() {
            let mut pool = spans::scope("workloads.pool_new", || {
                TenantPool::new(device(), self.pool_config(scheme))
            })
            .expect("the db_mix pool configuration is valid");
            let dispatched = u64::from(TENANTS) * self.ops_per_tenant;
            out.attempted += dispatched;
            match spans::scope("workloads.run_sessions", || {
                ServiceDriver::run_sessions(&mut pool)
            }) {
                Ok(report) => {
                    out.ops += dispatched;
                    out.digest = mix(out.digest, report.commits);
                    for tenant in &report.per_tenant {
                        out.digest = mix(out.digest, tenant.commits);
                        out.digest = mix(out.digest, tenant.p99_us.to_bits());
                    }
                    commits_per_sec[half] = report.commits_per_sec;
                    out.virtual_secs += report.commits as f64 / report.commits_per_sec;
                    if scheme == WalScheme::Ba {
                        out.v.insert("commit_p50_vus", report.p50_us);
                        out.v.insert("tail_p99_vus", report.p99_us);
                        out.v.insert("model_ops_per_s", report.commits_per_sec);
                        out.v.insert("wal.grouped_pct", report.grouped_pct);
                        out.v.insert("wal.batches", report.batches as f64);
                    }
                }
                Err(e) => {
                    out.failed += dispatched;
                    out.errors
                        .push(format!("{} half failed: {e}", scheme.label()));
                }
            }
            let dev = pool.device();
            let dev = dev.borrow();
            let ftl = dev.ssd().ftl().stats();
            host_writes += ftl.host_writes;
            programs += ftl.total_programs();
            gc_moved += ftl.gc_writes;
            erases += ftl.erases;
            if scheme == WalScheme::Ba {
                let stats = dev.stats();
                out.v.insert("core.pins", stats.pins as f64);
                out.v.insert("core.flushes", stats.flushes as f64);
                out.v.insert("core.syncs", stats.syncs as f64);
                out.v.insert("core.bytes_stored", stats.bytes_stored as f64);
                // A BA tenant rotates its window with one BA_FLUSH.
                out.v.insert("wal.rotations", stats.flushes as f64);
            }
        }
        out.v
            .insert("wal.ba_gain_x", commits_per_sec[0] / commits_per_sec[1]);
        out.v
            .insert("ftl.waf", programs as f64 / host_writes.max(1) as f64);
        out.v.insert("ftl.gc_pages_moved", gc_moved as f64);
        out.v.insert("ftl.erases", erases as f64);
        out
    }
}
