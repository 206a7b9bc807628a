//! Session/driver, control, and measurement layers of the serving stack.
//!
//! [`ServiceDriver`] owns every calendar-driven loop of the workload layer:
//! the open-loop serving drives below, the multi-tenant session mode
//! ([`ServiceDriver::run_sessions`]: engines behind group commit on one
//! shared device) and the NVMe queue-pair mode
//! ([`ServiceDriver::run_nvme`]). Lock-step slot loops — `N` interchangeable
//! slots, each issuing its next operation the instant its last one
//! completes — need no calendar and are [`crate::ClientPool`]'s job,
//! usually through [`crate::EngineSession::run`].
//!
//! The open-loop serving path has four layers:
//!
//! 1. **generation** — per-tenant [`ArrivalProcess`] streams offer load in
//!    *traffic time*, independent of what the device can absorb;
//! 2. **admission** — [`ServiceDriver::plan`] applies the control layer at
//!    arrival time, from host-side accounting only: a per-tenant
//!    queue-depth trigger (at most `admit_per_window` admissions per
//!    tenant-window; excess is *deferred* up to `defer_windows` windows,
//!    then *shed*) and a BA-buffer-saturation trigger (admitted BA bytes
//!    per device group per window capped at the group's BA buffer;
//!    excess is shed). Decisions never consult completions, so the same
//!    plan drives every backend identically;
//! 3. **execution** — admitted ops are distilled WAL commits
//!    ([`IoOp::BaSyncRange`] on a pinned per-tenant window for the BA
//!    scheme, an [`IoOp::CxlPersist`] barrier on the same window for the
//!    CXL scheme; a page [`IoOp::BlockWrite`] + [`IoOp::BlockFlush`] for
//!    the block scheme), spelled once by a lazy iterator in
//!    `(admit instant, tenant)` order. [`ServiceDriver::serve`] streams
//!    it through [`IoCalendar::drive_with`], so a commit enters the
//!    calendar only when it is due; [`ServiceDriver::serve_sharded`]
//!    submits it whole to a [`ShardedIoCalendar`] placement, digest-equal
//!    across lock-step, adaptive, and parallel drives;
//! 4. **measurement** — each completion is counted as it lands (the
//!    sharded drive replays its host observation log), joined to its plan
//!    entry by id arithmetic. Latency is measured from *original arrival*
//!    (deferral is not free), tracked per tenant and per SLO window
//!    against p99/p999 targets with the interpolated [`Histogram`]
//!    quantiles.

use std::sync::Arc;

use serde::Serialize;
use twob_core::{
    EntryId, GroupPlacement, IoCalendar, IoOp, PinTable, ShardedIoCalendar, TenantId, TwoBSpec,
    TwoBSsd,
};
use twob_db::DbError;
use twob_ftl::Lba;
use twob_sim::{mix, Executor, Histogram, SimDuration, SimTime, FNV_BASIS};
use twob_ssd::{NvmeEvent, NvmeOp, NvmeSsd, QdReport, SsdConfig};

use crate::arrival::{ArrivalConfig, ArrivalProcess};
use crate::tenant::{TenantOutcome, TenantPool, TenantReport, WalScheme};

/// Configuration of one open-loop serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Simulated tenants (the BA scheme needs `tenants / groups ≤ 256`
    /// mapping entries per device).
    pub tenants: u16,
    /// Commit scheme every tenant logs through.
    pub scheme: WalScheme,
    /// Per-tenant arrival process.
    pub arrival: ArrivalConfig,
    /// Traffic-time horizon: arrivals are generated in `[0, horizon)`.
    pub horizon: SimDuration,
    /// Commit payload bytes (the BA sync length).
    pub payload_bytes: usize,
    /// Block-scheme log-region pages per tenant (writes rotate within).
    pub region_pages: u32,
    /// Admission/SLO window length.
    pub window: SimDuration,
    /// Queue-depth trigger: admissions per tenant per window before
    /// deferral.
    pub admit_per_window: u32,
    /// How many windows an op may be deferred before it is shed.
    pub defer_windows: u64,
    /// p99 latency target, µs (measured from original arrival).
    pub slo_p99_us: f64,
    /// p999 latency target, µs.
    pub slo_p999_us: f64,
}

impl ServeConfig {
    /// The serving preset: 4 ms horizon, 100 µs windows, queue-depth 8
    /// per window, 2-window defer budget, 128 B payloads, 400/2000 µs
    /// p99/p999 SLOs.
    pub fn standard(tenants: u16, scheme: WalScheme, arrival: ArrivalConfig) -> Self {
        ServeConfig {
            tenants,
            scheme,
            arrival,
            horizon: SimDuration::from_micros(4_000),
            payload_bytes: 128,
            region_pages: 4,
            window: SimDuration::from_micros(100),
            admit_per_window: 8,
            defer_windows: 2,
            slo_p99_us: 400.0,
            slo_p999_us: 2_000.0,
        }
    }
}

/// One admitted operation, in traffic time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmittedOp {
    /// Owning tenant.
    pub tenant: u16,
    /// The open-loop arrival instant (latency is measured from here).
    pub arrival: SimTime,
    /// The instant admission releases it to the device (`≥ arrival`;
    /// later iff deferred).
    pub submit_at: SimTime,
}

/// The control layer's verdict on an offered-load stream: what gets
/// through, what waits, what is turned away.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionPlan {
    /// Arrivals generated over the horizon.
    pub offered: u64,
    /// Ops admitted, sorted by `(submit_at, tenant)` — the deterministic
    /// device submission order.
    pub admitted: Vec<AdmittedOp>,
    /// Admitted ops that waited for a later window.
    pub deferred: u64,
    /// Ops shed by the queue-depth trigger (defer budget exhausted).
    pub shed_queue: u64,
    /// Ops shed by the BA-buffer-saturation trigger.
    pub shed_buffer: u64,
}

impl AdmissionPlan {
    /// Total ops turned away.
    pub fn shed(&self) -> u64 {
        self.shed_queue + self.shed_buffer
    }
}

/// How a sharded serve drives its placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardDrive {
    /// The fine-grained lock-step oracle (sequential baseline).
    Lockstep,
    /// Adaptive round batching on one thread.
    Adaptive,
    /// Adaptive round batching on up to `n` worker threads.
    Parallel(usize),
}

impl ShardDrive {
    /// Stable label for reports.
    pub fn label(self) -> String {
        match self {
            ShardDrive::Lockstep => "lockstep".into(),
            ShardDrive::Adaptive => "adaptive".into(),
            ShardDrive::Parallel(n) => format!("par{n}"),
        }
    }
}

/// Aggregate result of one open-loop serving run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeReport {
    /// Tenant count.
    pub tenants: u16,
    /// Scheme label (`"ba"` or `"block"`).
    pub scheme: String,
    /// Arrival-process label.
    pub arrival: String,
    /// Arrivals offered over the horizon.
    pub offered: u64,
    /// Ops admitted by the control layer.
    pub admitted: u64,
    /// Admitted ops that completed (all of them, absent device errors).
    pub completed: u64,
    /// Ops that completed with a device error.
    pub errors: u64,
    /// Admitted ops that waited for a later window.
    pub deferred: u64,
    /// Ops shed by the queue-depth trigger.
    pub shed_queue: u64,
    /// Ops shed by the BA-buffer trigger.
    pub shed_buffer: u64,
    /// Aggregate offered load, ops/sec.
    pub offered_ops_per_sec: f64,
    /// Sustained throughput of admitted ops over the completion span.
    pub admitted_ops_per_sec: f64,
    /// Median admitted latency (from arrival), µs, interpolated.
    pub p50_us: f64,
    /// p99 admitted latency, µs, interpolated.
    pub p99_us: f64,
    /// p999 admitted latency, µs, interpolated.
    pub p999_us: f64,
    /// Worst single tenant's interpolated p99, µs.
    pub worst_tenant_p99_us: f64,
    /// The run's p99 target, µs.
    pub slo_p99_us: f64,
    /// Whether the aggregate p99 met the target and nothing was shed.
    pub slo_ok: bool,
    /// SLO windows that saw at least one completion.
    pub windows: u64,
    /// Windows whose interpolated p99 or p999 exceeded its target.
    pub windows_over_slo: u64,
    /// Canonical completion-log digest (mode-invariant on a sharded
    /// placement).
    pub digest: u64,
    /// Events posted into the past (must be zero).
    pub clamped_posts: u64,
}

/// The single event-loop owner of the workload layer. See the module docs.
pub struct ServiceDriver;

impl ServiceDriver {
    /// Runs the arrival and control layers: generates every tenant's
    /// open-loop stream over the horizon and decides admit / defer / shed
    /// per op. Pure host-side traffic-time computation — no device state,
    /// so the same plan feeds every backend and drive mode.
    ///
    /// `groups` is the device-group count the plan will be served on
    /// (tenant `t` lives on group `t % groups`); `group_ba_bytes` is one
    /// group's BA-buffer capacity, the saturation trigger's budget.
    pub fn plan(cfg: &ServeConfig, groups: usize, group_ba_bytes: u64) -> AdmissionPlan {
        assert!(cfg.tenants > 0, "need at least one tenant");
        assert!(groups > 0, "need at least one device group");
        assert!(
            cfg.window > SimDuration::ZERO,
            "need a non-zero admission window"
        );
        assert!(cfg.admit_per_window > 0, "need a non-zero admission depth");
        let win_ns = cfg.window.as_nanos();
        let horizon_ns = cfg.horizon.as_nanos();

        // Arrival layer: every tenant's stream, merged into one
        // deterministic (time, tenant) order.
        let mut raw: Vec<(SimTime, u16)> = Vec::new();
        for tenant in 0..cfg.tenants {
            let mut process: Box<dyn ArrivalProcess> = cfg.arrival.build(tenant);
            let mut at = SimTime::ZERO;
            loop {
                at = process.next_after(at);
                if at.as_nanos() >= horizon_ns {
                    break;
                }
                raw.push((at, tenant));
            }
        }
        raw.sort_unstable();
        let offered = raw.len() as u64;

        // Queue-depth trigger: per tenant, at most `admit_per_window`
        // admissions per window; the earliest window with free capacity
        // takes the op, up to `defer_windows` past its arrival window.
        struct TenantAdmit {
            window: u64,
            admitted_in_window: u32,
        }
        let mut states: Vec<TenantAdmit> = (0..cfg.tenants)
            .map(|_| TenantAdmit {
                window: 0,
                admitted_in_window: 0,
            })
            .collect();
        let mut admitted: Vec<AdmittedOp> = Vec::with_capacity(raw.len());
        let mut deferred = 0u64;
        let mut shed_queue = 0u64;
        for (arrival, tenant) in raw {
            let state = &mut states[usize::from(tenant)];
            let arrival_window = arrival.as_nanos() / win_ns;
            // `state.window` always has free capacity (the invariant below).
            let window = state.window.max(arrival_window);
            if window - arrival_window > cfg.defer_windows {
                shed_queue += 1; // Shed ops consume no window capacity.
                continue;
            }
            if window > state.window {
                state.window = window;
                state.admitted_in_window = 0;
            }
            let submit_at = if window == arrival_window {
                arrival
            } else {
                deferred += 1;
                SimTime::from_nanos(window * win_ns)
            };
            admitted.push(AdmittedOp {
                tenant,
                arrival,
                submit_at,
            });
            state.admitted_in_window += 1;
            if state.admitted_in_window >= cfg.admit_per_window {
                state.window += 1;
                state.admitted_in_window = 0;
            }
        }

        // BA-buffer-saturation trigger, in device submission order: the
        // bytes a group's admitted commits pin per window may not outrun
        // its BA buffer. (The block scheme has no BA window to saturate.)
        admitted.sort_unstable_by_key(|op| (op.submit_at, op.tenant));
        let mut shed_buffer = 0u64;
        if cfg.scheme.is_byte_path() {
            // One `(window, bytes)` tally per group: submission order never
            // moves a group's window index backwards.
            let mut tallies = vec![(0u64, 0u64); groups];
            let payload = cfg.payload_bytes as u64;
            admitted.retain(|op| {
                let window = op.submit_at.as_nanos() / win_ns;
                let (current, used) = &mut tallies[usize::from(op.tenant) % groups];
                if *current != window {
                    (*current, *used) = (window, 0);
                }
                if *used + payload > group_ba_bytes {
                    shed_buffer += 1;
                    // `deferred` counts admitted ops only.
                    deferred -= u64::from(op.submit_at > op.arrival);
                    false
                } else {
                    *used += payload;
                    true
                }
            });
        }

        AdmissionPlan {
            offered,
            admitted,
            deferred,
            shed_queue,
            shed_buffer,
        }
    }

    /// The per-group device spec a serving run uses: one BA-buffer page
    /// per tenant (so the `PinTable` grants every tenant a share) with at
    /// least the test-scale 64 KiB buffer.
    pub fn group_spec(tenants_per_group: u16) -> TwoBSpec {
        TwoBSpec {
            ba_buffer_bytes: (u64::from(tenants_per_group) * 4096).max(64 << 10),
            max_entries: usize::from(tenants_per_group).max(8),
            ..TwoBSpec::default()
        }
    }

    /// Serves the plan on one plain [`IoCalendar`]-routed device.
    ///
    /// # Panics
    ///
    /// Panics if a BA-scheme fleet exceeds the 256 mapping entries one
    /// device can hold, or on an internal setup failure.
    pub fn serve(cfg: &ServeConfig) -> ServeReport {
        if cfg.scheme.is_byte_path() {
            assert!(
                cfg.tenants <= 256,
                "one device holds at most 256 BA mapping entries; shard the fleet"
            );
        }
        let spec = Self::group_spec(cfg.tenants);
        let plan = Self::plan(cfg, 1, spec.ba_buffer_bytes);
        let mut dev = TwoBSsd::new(SsdConfig::base_2b().bench_scale(), spec);
        let (eids, epoch) = Self::pin_fleet(cfg, &mut dev, cfg.tenants);

        let mut cal = IoCalendar::new();
        let eids = [eids];
        let ops = Self::commit_ops(cfg, &plan, epoch, &eids).map(|(at, _, op)| (at, op));
        let mut measure = Measure::new(cfg, &plan, epoch);
        let mut digest = FNV_BASIS;
        let mut last = None;
        cal.drive_with(&mut dev, ops, |c| {
            let (at, id, failed) = (c.complete_at, c.id, c.error.is_some());
            // Ids follow the plan's (submit_at, tenant) order, so the sink
            // order is the canonical sort the sharded digest applies.
            debug_assert!(
                last < Some((at, id)),
                "completions land in (complete_at, id) order"
            );
            last = Some((at, id));
            digest = mix(mix(mix(digest, at.as_nanos()), id), u64::from(failed));
            measure.record(id, at, failed);
        });
        measure.report(digest, cal.clamped_posts())
    }

    /// Serves the plan on a [`ShardedIoCalendar`] placement of
    /// `groups` die-sliced devices (tenant `t` on group `t % groups`),
    /// driven by `drive`. The completion digest is invariant across
    /// [`ShardDrive`] modes — the acceptance property for the sharded
    /// serving path.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not evenly divide the tenant count or the
    /// per-group fleet exceeds one device's 256 mapping entries.
    pub fn serve_sharded(cfg: &ServeConfig, groups: usize, drive: ShardDrive) -> ServeReport {
        Self::serve_sharded_placed(cfg, groups, groups, drive)
    }

    /// Like [`ServiceDriver::serve_sharded`], but with an explicit
    /// group→shard placement: `shards` time domains over `groups` die
    /// groups, round-robin. The completion digest is placement-invariant
    /// (coalescing groups onto fewer shards reorders nothing observable),
    /// which is what lets the tier and tenant sweeps pin one digest per
    /// workload across every placement they run.
    ///
    /// # Panics
    ///
    /// As for [`ServiceDriver::serve_sharded`], plus a zero `shards`.
    pub fn serve_sharded_placed(
        cfg: &ServeConfig,
        groups: usize,
        shards: usize,
        drive: ShardDrive,
    ) -> ServeReport {
        assert!(groups > 0, "need at least one group");
        assert!(
            usize::from(cfg.tenants) % groups == 0,
            "groups must evenly divide the tenant fleet"
        );
        let per_group = (usize::from(cfg.tenants) / groups) as u16;
        assert!(
            usize::from(per_group) <= 256,
            "one device holds at most 256 BA mapping entries"
        );
        let spec = Self::group_spec(per_group);
        let plan = Self::plan(cfg, groups, spec.ba_buffer_bytes);

        let mut devices: Vec<TwoBSsd> = (0..groups)
            .map(|_| {
                TwoBSsd::new(
                    SsdConfig::base_2b().bench_scale().die_slice(groups as u32),
                    spec,
                )
            })
            .collect();
        // Pin every tenant's window on its group device before the
        // calendar takes ownership; local tenant `t / groups` on group
        // `t % groups`.
        let mut epoch = SimDuration::ZERO;
        let eids: Vec<Vec<EntryId>> = devices
            .iter_mut()
            .map(|dev| {
                let (eids, ready) = Self::pin_fleet(cfg, dev, per_group);
                epoch = epoch.max(ready);
                eids
            })
            .collect();
        let mut cal = ShardedIoCalendar::new(
            devices,
            GroupPlacement::round_robin(groups, shards),
            SimDuration::from_micros(2),
        );
        for (at, group, op) in Self::commit_ops(cfg, &plan, epoch, &eids) {
            cal.submit(at, group, op);
        }
        match drive {
            ShardDrive::Lockstep => cal.run_lockstep(),
            ShardDrive::Adaptive => cal.run(),
            ShardDrive::Parallel(threads) => cal.run_parallel(threads),
        }
        assert_eq!(cal.unresolved_chains(), 0, "no dangling op chains");
        let mut measure = Measure::new(cfg, &plan, epoch);
        for (id, complete_at, failed) in cal.observed_log() {
            measure.record(id, complete_at, failed);
        }
        measure.report(cal.host_digest(), cal.clamped_posts())
    }

    /// Pins one byte-path window per tenant of one device through a fresh
    /// [`PinTable`] and returns `(entry ids, setup end)`; the block scheme
    /// needs neither.
    fn pin_fleet(
        cfg: &ServeConfig,
        dev: &mut TwoBSsd,
        tenants: u16,
    ) -> (Vec<EntryId>, SimDuration) {
        let mut eids = Vec::with_capacity(usize::from(tenants));
        let mut epoch = SimDuration::ZERO;
        if cfg.scheme.is_byte_path() {
            let mut pins = PinTable::new(dev.spec(), tenants).expect("per-tenant shares fit");
            for tenant in 0..tenants {
                let (eid, done) = pins
                    .pin(
                        dev,
                        SimTime::ZERO,
                        TenantId(tenant),
                        Lba(u64::from(tenant) * u64::from(cfg.region_pages)),
                        1,
                    )
                    .expect("fleet pins fit their shares");
                eids.push(eid);
                epoch = epoch.max(SimDuration::from_nanos(done.complete_at.as_nanos()));
            }
        }
        (eids, epoch)
    }

    /// Every admitted op's commit as calendar ops `(start, group, op)`, in
    /// plan order, each made only when the iterator is pulled. The one
    /// place a scheme becomes calendar ops: a range `BA_SYNC` or a CXL
    /// persist barrier on the tenant's window (`eids[group][local
    /// tenant]`), or a page write plus the flush that is measured —
    /// [`Self::ops_per_commit`] ops per commit, the last one measured.
    /// Tenant `t` is local tenant `t / groups` of group `t % groups`, with
    /// `groups = eids.len()`.
    fn commit_ops<'a>(
        cfg: &'a ServeConfig,
        plan: &'a AdmissionPlan,
        epoch: SimDuration,
        eids: &'a [Vec<EntryId>],
    ) -> impl Iterator<Item = (SimTime, usize, IoOp)> + 'a {
        let groups = eids.len();
        let len = cfg.payload_bytes as u64;
        let region_pages = u64::from(cfg.region_pages);
        let mut block_seq = vec![0u64; usize::from(cfg.tenants)];
        // Every block commit writes this one page image; a queued write
        // holds a reference to it, not a copy.
        let page: Arc<[u8]> = vec![0xA5; 4096].into();
        plan.admitted.iter().flat_map(move |op| {
            let at = op.submit_at + epoch;
            let tenant = usize::from(op.tenant);
            let (group, local) = (tenant % groups, tenant / groups);
            let (write, commit) = match cfg.scheme {
                WalScheme::Ba => (
                    None,
                    IoOp::BaSyncRange {
                        eid: eids[group][local],
                        rel_offset: 0,
                        len,
                    },
                ),
                WalScheme::Cxl => (
                    None,
                    IoOp::CxlPersist {
                        eid: eids[group][local],
                        rel_offset: 0,
                        len,
                    },
                ),
                WalScheme::Block => {
                    let seq = &mut block_seq[tenant];
                    let lba = Lba(local as u64 * region_pages + *seq % region_pages);
                    *seq += 1;
                    let data = Arc::clone(&page);
                    (Some(IoOp::BlockWrite { lba, data }), IoOp::BlockFlush)
                }
            };
            write
                .into_iter()
                .chain([commit])
                .map(move |op| (at, group, op))
        })
    }

    /// Calendar ops [`ServiceDriver::commit_ops`] spells per commit: the
    /// measured one, plus the block scheme's page write.
    fn ops_per_commit(scheme: WalScheme) -> u64 {
        1 + u64::from(scheme == WalScheme::Block)
    }

    /// Session mode: drives every tenant's engine, group committer, and
    /// shared-device WAL to completion and reports commit latencies. The
    /// loop always advances the earliest event — a ready client's next
    /// operation or an armed group-commit deadline — so a run is a pure
    /// function of the pool configuration.
    ///
    /// # Errors
    ///
    /// Engine or WAL failures.
    pub fn run_sessions(pool: &mut TenantPool) -> Result<TenantReport, DbError> {
        // Load phase: populate each engine's in-memory state. These records
        // never reach the shared log (the measured phase starts cold at the
        // latest load end so tenants begin together).
        let mut start = SimTime::ZERO;
        for tenant in &mut pool.tenants {
            let end = tenant.engine.load(&mut tenant.rng)?;
            tenant.recorder.borrow_mut().clear();
            start = start.max(end);
        }
        for tenant in &mut pool.tenants {
            for c in &mut tenant.clients {
                *c = Some(start);
            }
        }

        // Event loop: always advance the earliest event — a ready client's
        // next operation or an armed group-commit deadline.
        loop {
            let mut next_client: Option<(usize, usize, SimTime)> = None;
            let mut next_deadline: Option<(usize, SimTime)> = None;
            for (ti, tenant) in pool.tenants.iter().enumerate() {
                if tenant.remaining > 0 {
                    for (ci, clock) in tenant.clients.iter().enumerate() {
                        if let Some(at) = clock {
                            if next_client.is_none_or(|(_, _, t)| *at < t) {
                                next_client = Some((ti, ci, *at));
                            }
                        }
                    }
                }
                if let Some(d) = tenant.group.next_deadline() {
                    if next_deadline.is_none_or(|(_, t)| d < t) {
                        next_deadline = Some((ti, d));
                    }
                }
            }
            match (next_client, next_deadline) {
                (Some((ti, ci, at)), deadline) => {
                    if let Some((di, d)) = deadline {
                        if d <= at {
                            Self::drive_session(&mut pool.tenants[di], d)?;
                            continue;
                        }
                    }
                    Self::dispatch_session(pool, ti, ci, at)?;
                }
                (None, Some((di, d))) => {
                    Self::drive_session(&mut pool.tenants[di], d)?;
                }
                (None, None) => break,
            }
        }
        // Tail flush: batches armed after the last ops, and any committer
        // stranded by an empty deadline queue.
        let tail = pool.tenants.iter().map(|t| t.end).max().unwrap_or(start);
        for tenant in &mut pool.tenants {
            Self::flush_session(tenant, tail)?;
        }

        Ok(Self::session_report(pool, start))
    }

    /// Runs one client operation and forwards produced log records to the
    /// tenant's group committer.
    fn dispatch_session(
        pool: &mut TenantPool,
        ti: usize,
        ci: usize,
        at: SimTime,
    ) -> Result<(), DbError> {
        let tenant = &mut pool.tenants[ti];
        tenant.remaining -= 1;
        let done = tenant.engine.step(at, &mut tenant.rng)?;
        tenant.end = tenant.end.max(done);
        let records: Vec<Vec<u8>> = tenant.recorder.borrow_mut().drain(..).collect();
        if records.is_empty() {
            // Read-only operation: the client moves on immediately.
            tenant.clients[ci] = Some(done);
            return Ok(());
        }
        let mut last_ticket = 0;
        for payload in &records {
            last_ticket = tenant.group.submit(done, payload);
        }
        // The committing client blocks until its batch is durable.
        tenant.clients[ci] = None;
        tenant.waiting.insert(last_ticket, ci);
        if tenant.group.pending_len() >= pool.cfg.max_batch {
            Self::drive_session(tenant, done)?;
        }
        Ok(())
    }

    /// Advances one tenant's group committer to `now`, recording latencies
    /// and unblocking clients whose commits completed.
    fn drive_session(tenant: &mut crate::tenant::Tenant, now: SimTime) -> Result<(), DbError> {
        let waiting = &mut tenant.waiting;
        let clients = &mut tenant.clients;
        let latencies = &mut tenant.latencies_ns;
        let mut end = tenant.end;
        tenant.group.drive(now, |out| {
            latencies.push(out.commit_at.saturating_since(out.submitted).as_nanos());
            end = end.max(out.commit_at);
            if let Some(ci) = waiting.remove(&out.ticket) {
                clients[ci] = Some(out.commit_at);
            }
        })?;
        tenant.end = end;
        Ok(())
    }

    /// Forces out everything a tenant still has pending (end of run).
    fn flush_session(tenant: &mut crate::tenant::Tenant, now: SimTime) -> Result<(), DbError> {
        let waiting = &mut tenant.waiting;
        let clients = &mut tenant.clients;
        let latencies = &mut tenant.latencies_ns;
        let mut end = tenant.end;
        tenant.group.flush_now(now, |out| {
            latencies.push(out.commit_at.saturating_since(out.submitted).as_nanos());
            end = end.max(out.commit_at);
            if let Some(ci) = waiting.remove(&out.ticket) {
                clients[ci] = Some(out.commit_at);
            }
        })?;
        tenant.end = end;
        Ok(())
    }

    fn session_report(pool: &TenantPool, start: SimTime) -> TenantReport {
        let mut all = Histogram::new();
        let mut per_tenant = Vec::with_capacity(pool.tenants.len());
        let mut commits = 0u64;
        let mut batches = 0u64;
        let mut grouped = 0u64;
        let mut worst = 0.0f64;
        let mut end = start;
        for (i, tenant) in pool.tenants.iter().enumerate() {
            let lat = Histogram::from_nanos_samples(tenant.latencies_ns.clone());
            let p99 = percentile_us(&lat, 0.99);
            worst = worst.max(p99);
            per_tenant.push(TenantOutcome {
                tenant: i as u16,
                engine: tenant.engine_kind,
                commits: lat.len() as u64,
                p50_us: percentile_us(&lat, 0.50),
                p99_us: p99,
            });
            commits += lat.len() as u64;
            batches += tenant.group.batches();
            grouped += tenant.group.grouped_commits();
            all.merge(&lat);
            end = end.max(tenant.end);
        }
        let span = end.saturating_since(start).as_secs_f64();
        TenantReport {
            tenants: pool.cfg.tenants,
            scheme: pool.cfg.scheme.label().to_string(),
            commits,
            batches,
            grouped_pct: if commits == 0 {
                0.0
            } else {
                100.0 * grouped as f64 / commits as f64
            },
            p50_us: percentile_us(&all, 0.50),
            p99_us: percentile_us(&all, 0.99),
            worst_tenant_p99_us: worst,
            commits_per_sec: if span > 0.0 {
                commits as f64 / span
            } else {
                0.0
            },
            per_tenant,
        }
    }

    /// NVMe queue-pair mode: every queue pair is kept at its configured
    /// depth, and each completion immediately submits the next command to
    /// the queue that finished. `next_op` maps the global command index to
    /// `(qid, op)` for the priming phase; refills reuse the completing
    /// queue id.
    ///
    /// # Panics
    ///
    /// Panics if `next_op` returns an out-of-bounds `qid`.
    pub fn run_nvme<G>(
        dev: &mut NvmeSsd,
        start: SimTime,
        total_ops: u64,
        mut next_op: G,
    ) -> QdReport
    where
        G: FnMut(u64) -> (usize, NvmeOp),
    {
        let mut exec: Executor<NvmeEvent> = Executor::new();
        let mut issued = 0u64;
        // Prime every queue to its depth, round-robin across pairs so the
        // arbitration order is exercised from the first doorbell.
        'prime: loop {
            let mut any = false;
            for _ in 0..dev.queue_config().pairs {
                if issued >= total_ops {
                    break 'prime;
                }
                let (qid, op) = next_op(issued);
                if !dev.can_submit(qid) {
                    continue;
                }
                dev.submit(&mut exec, start, qid, op)
                    .expect("can_submit was checked");
                issued += 1;
                any = true;
            }
            if !any {
                break;
            }
        }
        let mut report = QdReport {
            ops: 0,
            errors: 0,
            bytes: 0,
            epoch: start,
            makespan: start,
            latency: Histogram::new(),
        };
        // The closed loop proper: each CQ entry refills its queue at the
        // completion instant, keeping the device at depth until the work
        // runs out.
        let mut drive = |dev: &mut NvmeSsd, ex: &mut Executor<NvmeEvent>, t, ev| {
            dev.handle(ex, t, ev);
            for entry in dev.drain_completions() {
                report.ops += 1;
                report.bytes += entry.bytes;
                report.makespan = report.makespan.max(entry.completed);
                report
                    .latency
                    .record(entry.completed.saturating_since(entry.submitted));
                if entry.result.is_err() {
                    report.errors += 1;
                }
                if issued < total_ops {
                    let (_, op) = next_op(issued);
                    issued += 1;
                    dev.submit(ex, entry.completed, entry.qid, op)
                        .expect("a completion freed a slot on this queue");
                }
            }
        };
        exec.run(|ex, t, ev| drive(dev, ex, t, ev));
        debug_assert_eq!(
            exec.clamped_posts(),
            0,
            "closed-loop drive posted events into the past: every completion \
             and refill is scheduled at or after the instant that caused it"
        );
        report
    }
}

/// The measurement layer, fed one completion at a time by either drive:
/// joins each completion to its plan entry by arithmetic (completion `id`
/// belongs to commit `id / k`, `k` = [`ServiceDriver::ops_per_commit`],
/// and only a commit's last op is measured) and keeps latency, SLO-window,
/// and throughput accounting.
struct Measure<'a> {
    cfg: &'a ServeConfig,
    plan: &'a AdmissionPlan,
    epoch: SimDuration,
    per_commit: u64,
    all: Histogram,
    /// Indexed by tenant.
    per_tenant: Vec<Histogram>,
    /// Indexed by arrival window.
    per_window: Vec<Histogram>,
    errors: u64,
    last_completion: SimTime,
}

impl<'a> Measure<'a> {
    fn new(cfg: &'a ServeConfig, plan: &'a AdmissionPlan, epoch: SimDuration) -> Self {
        let windows = cfg.horizon.as_nanos().div_ceil(cfg.window.as_nanos());
        Measure {
            cfg,
            plan,
            epoch,
            per_commit: ServiceDriver::ops_per_commit(cfg.scheme),
            all: Histogram::new(),
            per_tenant: vec![Histogram::new(); usize::from(cfg.tenants)],
            per_window: vec![Histogram::new(); windows as usize],
            errors: 0,
            last_completion: SimTime::ZERO,
        }
    }

    fn record(&mut self, id: u64, complete_at: SimTime, failed: bool) {
        if id % self.per_commit != self.per_commit - 1 {
            return; // A block-scheme page write; its flush is measured.
        }
        let op = &self.plan.admitted[(id / self.per_commit) as usize];
        self.errors += u64::from(failed);
        self.last_completion = self.last_completion.max(complete_at);
        let latency = complete_at.saturating_since(op.arrival + self.epoch);
        self.all.record(latency);
        self.per_tenant[usize::from(op.tenant)].record(latency);
        let window = op.arrival.as_nanos() / self.cfg.window.as_nanos();
        self.per_window[window as usize].record(latency);
    }

    fn report(self, digest: u64, clamped_posts: u64) -> ServeReport {
        let (cfg, plan) = (self.cfg, self.plan);
        let worst_tenant_p99_us = self
            .per_tenant
            .iter()
            .map(|h| h.p99() / 1e3)
            .fold(0.0f64, f64::max);
        let windows: Vec<&Histogram> = self.per_window.iter().filter(|h| !h.is_empty()).collect();
        let windows_over_slo = windows
            .iter()
            .filter(|h| h.p99() / 1e3 > cfg.slo_p99_us || h.p999() / 1e3 > cfg.slo_p999_us)
            .count() as u64;
        let horizon_secs = cfg.horizon.as_secs_f64();
        let span_secs = self
            .last_completion
            .saturating_since(SimTime::ZERO + self.epoch)
            .as_secs_f64();
        let p99_us = self.all.p99() / 1e3;
        ServeReport {
            tenants: cfg.tenants,
            scheme: cfg.scheme.label().to_string(),
            arrival: cfg.arrival.kind.label().to_string(),
            offered: plan.offered,
            admitted: plan.admitted.len() as u64,
            completed: self.all.len() as u64,
            errors: self.errors,
            deferred: plan.deferred,
            shed_queue: plan.shed_queue,
            shed_buffer: plan.shed_buffer,
            offered_ops_per_sec: if horizon_secs > 0.0 {
                plan.offered as f64 / horizon_secs
            } else {
                0.0
            },
            admitted_ops_per_sec: if span_secs > 0.0 {
                self.all.len() as f64 / span_secs
            } else {
                0.0
            },
            p50_us: self.all.interpolated(0.5) / 1e3,
            p99_us,
            p999_us: self.all.p999() / 1e3,
            worst_tenant_p99_us,
            slo_p99_us: cfg.slo_p99_us,
            slo_ok: p99_us <= cfg.slo_p99_us && plan.shed() == 0,
            windows: windows.len() as u64,
            windows_over_slo,
            digest,
            clamped_posts,
        }
    }
}

/// Nearest-rank percentile of a latency histogram, in µs — the exact
/// arithmetic the golden fixtures pinned before `Histogram` took over the
/// bench layer's p99 extraction.
fn percentile_us(hist: &Histogram, q: f64) -> f64 {
    if hist.is_empty() {
        return 0.0;
    }
    hist.percentile(q).as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::ArrivalKind;
    use crate::executor::drive_slots;

    fn quick_cfg(tenants: u16, scheme: WalScheme, kind: ArrivalKind, rate: f64) -> ServeConfig {
        ServeConfig {
            horizon: SimDuration::from_micros(1_000),
            ..ServeConfig::standard(tenants, scheme, ArrivalConfig::new(kind, rate, 13))
        }
    }

    #[test]
    fn plan_admits_everything_under_light_load() {
        let cfg = quick_cfg(8, WalScheme::Ba, ArrivalKind::Poisson, 10_000.0);
        let plan = ServiceDriver::plan(&cfg, 1, ServiceDriver::group_spec(8).ba_buffer_bytes);
        assert!(plan.offered > 0);
        assert_eq!(plan.admitted.len() as u64, plan.offered);
        assert_eq!(plan.shed(), 0);
        // Submission order is the deterministic (submit_at, tenant) sort.
        for w in plan.admitted.windows(2) {
            assert!((w[0].submit_at, w[0].tenant) <= (w[1].submit_at, w[1].tenant));
        }
    }

    #[test]
    fn plan_defers_then_sheds_under_overload() {
        // 2 M ops/s per tenant dwarfs the 8-per-100 µs admission depth
        // (80 k ops/s sustainable), so the defer budget exhausts fast.
        let cfg = quick_cfg(4, WalScheme::Ba, ArrivalKind::Poisson, 2_000_000.0);
        let plan = ServiceDriver::plan(&cfg, 1, ServiceDriver::group_spec(4).ba_buffer_bytes);
        assert!(plan.deferred > 0, "overload must defer");
        assert!(plan.shed_queue > 0, "overload must shed");
        // Every admitted op still respects the defer bound, which is what
        // keeps admitted-op latency bounded under any overload.
        let bound = cfg.window.as_nanos() * (cfg.defer_windows + 1);
        for op in &plan.admitted {
            assert!(op.submit_at.saturating_since(op.arrival).as_nanos() <= bound);
        }
    }

    #[test]
    fn ba_buffer_trigger_sheds_byte_floods() {
        let mut cfg = quick_cfg(2, WalScheme::Ba, ArrivalKind::Poisson, 400_000.0);
        cfg.payload_bytes = 32 << 10; // 32 KiB commits into a 64 KiB buffer
        cfg.admit_per_window = 64;
        let plan = ServiceDriver::plan(&cfg, 1, ServiceDriver::group_spec(2).ba_buffer_bytes);
        assert!(plan.shed_buffer > 0, "byte flood must trip the BA trigger");
        // The block scheme has no BA window to saturate.
        cfg.scheme = WalScheme::Block;
        let plan = ServiceDriver::plan(&cfg, 1, ServiceDriver::group_spec(2).ba_buffer_bytes);
        assert_eq!(plan.shed_buffer, 0);
    }

    #[test]
    fn deferred_counts_only_ops_that_were_admitted() {
        // Both triggers bite: the queue-depth pass defers most of the
        // flood, then the BA-buffer trigger sheds most of what it deferred.
        let mut cfg = quick_cfg(2, WalScheme::Ba, ArrivalKind::Poisson, 400_000.0);
        cfg.payload_bytes = 32 << 10;
        let plan = ServiceDriver::plan(&cfg, 1, ServiceDriver::group_spec(2).ba_buffer_bytes);
        let waited = plan
            .admitted
            .iter()
            .filter(|op| op.submit_at > op.arrival)
            .count() as u64;
        assert!(waited > 0 && plan.shed_buffer > 0 && plan.shed_queue > 0);
        assert_eq!(plan.deferred, waited);
        assert_eq!(
            plan.offered,
            plan.admitted.len() as u64 + plan.shed_queue + plan.shed_buffer
        );
    }

    #[test]
    fn serve_runs_every_scheme_and_meets_accounting() {
        for scheme in [WalScheme::Ba, WalScheme::Cxl, WalScheme::Block] {
            let cfg = quick_cfg(4, scheme, ArrivalKind::Poisson, 20_000.0);
            let report = ServiceDriver::serve(&cfg);
            assert_eq!(report.scheme, scheme.label());
            assert_eq!(report.completed, report.admitted, "{scheme:?}");
            assert_eq!(report.errors, 0, "{scheme:?}");
            assert_eq!(report.clamped_posts, 0, "{scheme:?}");
            assert!(report.p99_us >= report.p50_us, "{scheme:?}");
            assert!(report.windows > 0, "{scheme:?}");
        }
    }

    #[test]
    fn sharded_serve_digest_is_drive_and_placement_invariant_for_cxl() {
        let cfg = quick_cfg(8, WalScheme::Cxl, ArrivalKind::Poisson, 30_000.0);
        let baseline = ServiceDriver::serve_sharded(&cfg, 4, ShardDrive::Lockstep);
        assert_eq!(baseline.clamped_posts, 0);
        assert!(baseline.completed > 0);
        for drive in [
            ShardDrive::Adaptive,
            ShardDrive::Parallel(2),
            ShardDrive::Parallel(4),
        ] {
            let got = ServiceDriver::serve_sharded(&cfg, 4, drive);
            assert_eq!(got.digest, baseline.digest, "{} drifted", drive.label());
        }
        // Coalescing the 4 groups onto 2 shards is byte-front-end
        // irrelevant: same digest.
        for shards in [1, 2] {
            let got = ServiceDriver::serve_sharded_placed(&cfg, 4, shards, ShardDrive::Adaptive);
            assert_eq!(
                got.digest, baseline.digest,
                "{shards}-shard placement drifted"
            );
        }
    }

    #[test]
    fn serve_is_deterministic_across_runs() {
        for kind in ArrivalKind::ALL {
            let run = || ServiceDriver::serve(&quick_cfg(4, WalScheme::Ba, kind, 30_000.0));
            assert_eq!(run(), run(), "{} serve drifted", kind.label());
        }
    }

    /// `clients` closed-loop clients each keeping `qd` operations in flight
    /// are `clients × qd` interchangeable slots of one [`crate::ClientPool`].
    fn slot_pool(
        clients: usize,
        qd: usize,
        start: SimTime,
        ops: usize,
        service: impl Fn(usize) -> SimDuration,
    ) -> crate::ClientPool {
        drive_slots(clients * qd, start, ops, |slot, _| service(slot / qd)).0
    }

    #[test]
    fn closed_loop_slots_overlap_by_queue_depth() {
        let fixed = |_| SimDuration::from_micros(10);
        let qd1 = slot_pool(1, 1, SimTime::ZERO, 16, fixed);
        let qd4 = slot_pool(1, 4, SimTime::ZERO, 16, fixed);
        assert_eq!(qd1.ops(), 16);
        assert_eq!(qd4.ops(), 16);
        // A fixed-latency engine admits perfect overlap: QD4 finishes 4x
        // sooner and reports 4x the throughput.
        assert_eq!(qd1.makespan(), SimTime::from_nanos(160_000));
        assert_eq!(qd4.makespan(), SimTime::from_nanos(40_000));
        assert!((qd4.ops_per_sec() / qd1.ops_per_sec() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_slots_count_makespan_from_epoch() {
        let start = SimTime::from_nanos(2_000_000);
        let pool = slot_pool(2, 2, start, 8, |_| SimDuration::from_micros(10));
        assert_eq!(pool.epoch(), start);
        assert_eq!(pool.makespan(), start + SimDuration::from_micros(20));
        assert!((pool.ops_per_sec() - 400_000.0).abs() < 1.0);
    }

    #[test]
    fn closed_loop_slots_are_deterministic() {
        let run = || {
            slot_pool(4, 8, SimTime::ZERO, 100, |c| {
                SimDuration::from_nanos(1_000 + (c as u64) * 37)
            })
        };
        // Equal pools: every slot clock, the op count and the epoch.
        assert_eq!(run(), run());
        assert_eq!(run().ops(), 100);
    }
}
