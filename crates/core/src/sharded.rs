//! Die-placed parallel submission: the [`IoCalendar`] model sharded across
//! per-die-group time domains.
//!
//! [`IoCalendar`]: crate::IoCalendar
//!
//! A real 2B-SSD's NAND array is a grid of independent dies; traffic that
//! lands on disjoint die groups only ever meets at shared host-side
//! resources. This module exploits that: the flash array is carved into
//! *die groups* (see [`twob_ssd::SsdConfig::die_slice`]), each group gets
//! its own [`TwoBSsd`] device model, and a [`GroupPlacement`] assigns every
//! group to a shard of a [`ShardedExecutor`]. Operations are routed to the
//! shard that owns their group and priced there by the *same*
//! `dispatch_completion` the single calendar uses — including the
//! background GC/dump chains, which therefore ride with their die group on
//! its shard and never cross a shard boundary.
//!
//! Only genuinely cross-shard traffic goes through outboxes:
//!
//! - **completion delivery** — every completion is observed by the host
//!   (shard 0) one interconnect delay after it completes;
//! - **chained submissions** — follow-up operations registered with
//!   [`ShardedIoCalendar::submit_after`] are released by the host upon
//!   observing the parent completion and sent to the owning shard another
//!   interconnect delay later.
//!
//! The interconnect delay doubles as the executor's lookahead. Crucially,
//! the host observation path is uniform: completions pay the interconnect
//! delay even when their group lives on shard 0 (the executor turns such
//! self-sends into ordinary local posts), so per-group digests, host
//! observation order, and latency totals are *placement-invariant* — any
//! assignment of groups to any number of shards, driven sequentially, in
//! parallel, or under the lock-step oracle, yields byte-identical results.

use twob_sim::{
    mix, mix_bytes, LatencyBreakdown, ShardCtx, ShardedExecutor, SimDuration, SimTime, FNV_BASIS,
};

use crate::calendar::dispatch_completion;
use crate::{IoCompletion, IoOp, TwoBSsd};

/// Assignment of die groups to shards.
///
/// Group indices correspond to the devices handed to
/// [`ShardedIoCalendar::new`] — typically one per die slice of the full
/// geometry, placed by die index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlacement {
    shard_of: Vec<usize>,
    shards: usize,
}

impl GroupPlacement {
    /// Places group `g` on shard `shard_of[g]` across `shards` shards.
    ///
    /// # Panics
    ///
    /// If there are no groups, no shards, or an assignment is out of range.
    pub fn new(shard_of: Vec<usize>, shards: usize) -> Self {
        assert!(!shard_of.is_empty(), "a placement needs at least one group");
        assert!(shards > 0, "a placement needs at least one shard");
        for (g, &s) in shard_of.iter().enumerate() {
            assert!(s < shards, "group {g} placed on out-of-range shard {s}");
        }
        GroupPlacement { shard_of, shards }
    }

    /// Places `groups` die groups round-robin across `shards` shards —
    /// the natural die-index placement, since group `g` covers dies
    /// `[g * dies_per_group, (g + 1) * dies_per_group)`.
    pub fn round_robin(groups: usize, shards: usize) -> Self {
        assert!(groups > 0, "a placement needs at least one group");
        assert!(shards > 0, "a placement needs at least one shard");
        GroupPlacement {
            shard_of: (0..groups).map(|g| g % shards).collect(),
            shards,
        }
    }

    /// Number of die groups.
    pub fn groups(&self) -> usize {
        self.shard_of.len()
    }

    /// Number of shards (time domains).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning group `g`.
    pub fn shard_of(&self, g: usize) -> usize {
        self.shard_of[g]
    }
}

/// One event on the sharded calendar.
#[derive(Debug, Clone)]
enum Ev {
    /// An operation starting on its owning shard.
    Start {
        id: u64,
        submitted: SimTime,
        group: usize,
        op: IoOp,
    },
    /// Its completion landing on the same shard (local post).
    Done {
        group: usize,
        completion: IoCompletion,
    },
    /// The host (shard 0) observing the completion one interconnect later.
    Observe {
        id: u64,
        complete_at: SimTime,
        failed: bool,
    },
}

/// A follow-up operation gated on a parent completion, held by the host
/// until the parent's `Observe` fires.
#[derive(Debug, Clone)]
struct Chain {
    after: u64,
    delay: SimDuration,
    group: usize,
    op: IoOp,
    id: u64,
}

/// Per-group accumulation: completion digest, completed-operation count,
/// and component-wise latency totals.
#[derive(Debug, Clone)]
struct GroupTotals {
    group: usize,
    digest: u64,
    completed: u64,
    breakdown: LatencyBreakdown,
}

/// Per-shard state: the die-group devices this shard owns, their running
/// totals, and (on shard 0 only) the host observation log and chain table.
#[derive(Debug)]
struct ShardState {
    devices: Vec<(usize, TwoBSsd)>,
    totals: Vec<GroupTotals>,
    observed: Vec<(u64, u64, bool)>,
    chains: Vec<Chain>,
}

/// Folds one completion into a group digest: completion instant, payload
/// bytes, and (via its debug form) the exact error, if any.
fn fold_completion(h: u64, c: &IoCompletion) -> u64 {
    let mut h = mix(h, c.complete_at.as_nanos());
    match (&c.data, &c.error) {
        (Some(data), _) => h = mix_bytes(mix(h, data.len() as u64), data),
        (None, Some(e)) => h = mix_bytes(mix(h, u64::MAX), format!("{e:?}").as_bytes()),
        (None, None) => h = mix(h, 1),
    }
    h
}

/// The sharded counterpart of [`crate::IoCalendar`]: die-group devices
/// placed on per-shard calendars, operations routed to their owning shard,
/// completions delivered to the host through outboxes. See the module docs
/// for the model and the placement-invariance argument.
#[derive(Debug)]
pub struct ShardedIoCalendar {
    pdes: ShardedExecutor<Ev>,
    states: Vec<ShardState>,
    placement: GroupPlacement,
    interconnect: SimDuration,
    next_id: u64,
}

impl ShardedIoCalendar {
    /// Builds a sharded calendar over `devices` (one per die group, in
    /// group order) under `placement`, with `interconnect` as both the
    /// host-observation delay and the executor lookahead.
    ///
    /// # Panics
    ///
    /// If the device count does not match the placement's group count, or
    /// `interconnect` is zero (a PDES needs positive lookahead).
    pub fn new(
        devices: Vec<TwoBSsd>,
        placement: GroupPlacement,
        interconnect: SimDuration,
    ) -> Self {
        assert_eq!(
            devices.len(),
            placement.groups(),
            "one device per die group"
        );
        let shards = placement.shards();
        let mut states: Vec<ShardState> = (0..shards)
            .map(|_| ShardState {
                devices: Vec::new(),
                totals: Vec::new(),
                observed: Vec::new(),
                chains: Vec::new(),
            })
            .collect();
        for (g, dev) in devices.into_iter().enumerate() {
            let s = placement.shard_of(g);
            states[s].devices.push((g, dev));
            states[s].totals.push(GroupTotals {
                group: g,
                digest: FNV_BASIS,
                completed: 0,
                breakdown: LatencyBreakdown::ZERO,
            });
        }
        ShardedIoCalendar {
            pdes: ShardedExecutor::new(shards, interconnect),
            states,
            placement,
            interconnect,
            next_id: 0,
        }
    }

    /// Schedules `op` on group `group` at `at`, returning its id.
    pub fn submit(&mut self, at: SimTime, group: usize, op: IoOp) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pdes.seed(
            self.placement.shard_of(group),
            at,
            Ev::Start {
                id,
                submitted: at,
                group,
                op,
            },
        );
        id
    }

    /// Schedules `op` on group `group` to start `delay` after the host
    /// observes the completion of operation `after` — a cross-shard
    /// dependency released through the outboxes. Returns the new id.
    ///
    /// Chains must be registered before the run that completes `after`;
    /// [`ShardedIoCalendar::unresolved_chains`] reports leftovers.
    pub fn submit_after(&mut self, after: u64, delay: SimDuration, group: usize, op: IoOp) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.states[0].chains.push(Chain {
            after,
            delay,
            group,
            op,
            id,
        });
        id
    }

    fn handler(
        &self,
    ) -> impl Fn(&mut ShardCtx<'_, Ev>, &mut ShardState, SimTime, Ev) + Sync + use<> {
        let placement = self.placement.clone();
        let interconnect = self.interconnect;
        move |ctx, state, t, ev| match ev {
            Ev::Start {
                id,
                submitted,
                group,
                op,
            } => {
                let (_, dev) = state
                    .devices
                    .iter_mut()
                    .find(|(g, _)| *g == group)
                    .expect("operation routed to a shard that does not own its group");
                let completion = dispatch_completion(dev, t, id, submitted, op);
                let complete_at = completion.complete_at;
                let failed = completion.error.is_some();
                ctx.post(complete_at, Ev::Done { group, completion });
                // Uniform host delivery: even shard-0 groups pay the
                // interconnect delay (the executor turns self-sends into
                // local posts), keeping observation placement-invariant.
                ctx.send(
                    0,
                    complete_at + interconnect,
                    Ev::Observe {
                        id,
                        complete_at,
                        failed,
                    },
                );
            }
            Ev::Done { group, completion } => {
                let totals = state
                    .totals
                    .iter_mut()
                    .find(|tot| tot.group == group)
                    .expect("completion landed on a shard that does not own its group");
                totals.digest = fold_completion(totals.digest, &completion);
                totals.completed += 1;
                totals.breakdown.accumulate(&completion.breakdown);
            }
            Ev::Observe {
                id,
                complete_at,
                failed,
            } => {
                state.observed.push((id, complete_at.as_nanos(), failed));
                let mut i = 0;
                while i < state.chains.len() {
                    if state.chains[i].after == id {
                        let c = state.chains.remove(i);
                        ctx.send(
                            placement.shard_of(c.group),
                            t + interconnect + c.delay,
                            Ev::Start {
                                id: c.id,
                                submitted: t + interconnect + c.delay,
                                group: c.group,
                                op: c.op,
                            },
                        );
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    /// Drains every shard sequentially with adaptive round batching.
    pub fn run(&mut self) {
        let handler = self.handler();
        self.pdes.run(&mut self.states, &handler);
    }

    /// Drains every shard on up to `threads` worker threads (clamped to
    /// the shard count and the host's available parallelism), producing
    /// the identical schedule to [`ShardedIoCalendar::run`].
    pub fn run_parallel(&mut self, threads: usize) {
        let handler = self.handler();
        self.pdes.run_parallel(&mut self.states, &handler, threads);
    }

    /// Drains every shard under the fine-grained lock-step oracle (one
    /// lookahead window per round) — the differential baseline.
    pub fn run_lockstep(&mut self) {
        let handler = self.handler();
        self.pdes.run_lockstep(&mut self.states, &handler);
    }

    /// Number of die groups.
    pub fn groups(&self) -> usize {
        self.placement.groups()
    }

    /// The placement in force.
    pub fn placement(&self) -> &GroupPlacement {
        &self.placement
    }

    /// Synchronisation rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.pdes.rounds()
    }

    /// Rounds in which the unique earliest shard got an extended horizon
    /// and could drain multiple lookahead windows.
    pub fn batched_rounds(&self) -> u64 {
        self.pdes.batched_rounds()
    }

    /// Events processed across all shards.
    pub fn processed(&self) -> u64 {
        self.pdes.processed()
    }

    /// Posts clamped forward to a shard's current instant — must stay zero
    /// on every path; a non-zero count means a stale cross-shard delivery.
    pub fn clamped_posts(&self) -> u64 {
        self.pdes.clamped_posts()
    }

    /// Completed operations across all groups.
    pub fn completed(&self) -> u64 {
        self.states
            .iter()
            .flat_map(|s| s.totals.iter())
            .map(|t| t.completed)
            .sum()
    }

    /// `(group, digest)` pairs in group order: a digest over every
    /// completion the group produced (instant, payload, error).
    pub fn group_digests(&self) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = self
            .states
            .iter()
            .flat_map(|s| s.totals.iter())
            .map(|t| (t.group, t.digest))
            .collect();
        out.sort_unstable_by_key(|&(g, _)| g);
        out
    }

    /// `(group, totals)` pairs in group order: component-wise
    /// [`LatencyBreakdown`] sums over the group's completions.
    pub fn breakdown_totals(&self) -> Vec<(usize, LatencyBreakdown)> {
        let mut out: Vec<(usize, LatencyBreakdown)> = self
            .states
            .iter()
            .flat_map(|s| s.totals.iter())
            .map(|t| (t.group, t.breakdown))
            .collect();
        out.sort_unstable_by_key(|&(g, _)| g);
        out
    }

    /// Digest of the host's observation log, canonically ordered by
    /// `(completion instant, id)` so causally unrelated same-instant
    /// observations cannot perturb it.
    pub fn host_digest(&self) -> u64 {
        let mut log = self.states[0].observed.clone();
        log.sort_unstable_by_key(|&(id, at, _)| (at, id));
        log.iter().fold(FNV_BASIS, |h, &(id, at, failed)| {
            mix(mix(mix(h, at), id), u64::from(failed))
        })
    }

    /// Completions the host has observed.
    pub fn host_observations(&self) -> usize {
        self.states[0].observed.len()
    }

    /// The host's observation log — `(id, completion instant, failed)` per
    /// completion — canonically ordered by `(completion instant, id)`, the
    /// same order [`ShardedIoCalendar::host_digest`] folds over. This is
    /// how a serving layer recovers per-operation latencies from a sharded
    /// run without threading a callback through the PDES seam.
    pub fn observed_log(&self) -> Vec<(u64, SimTime, bool)> {
        let mut log = self.states[0].observed.clone();
        log.sort_unstable_by_key(|&(id, at, _)| (at, id));
        log.into_iter()
            .map(|(id, at, failed)| (id, SimTime::from_nanos(at), failed))
            .collect()
    }

    /// Chains whose parent never completed during a run.
    pub fn unresolved_chains(&self) -> usize {
        self.states[0].chains.len()
    }

    /// The device modelling die group `group`.
    pub fn device(&self, group: usize) -> &TwoBSsd {
        let s = self.placement.shard_of(group);
        &self.states[s]
            .devices
            .iter()
            .find(|(g, _)| *g == group)
            .expect("placement and device list agree by construction")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntryId, TwoBSpec};
    use twob_ftl::Lba;
    use twob_ssd::{BlockDevice, GcPolicy, SsdConfig};

    const IC: SimDuration = SimDuration::from_micros(2);

    /// One die-sliced device per group, each with one BA entry pre-pinned
    /// on LBA 0 so byte-path ops have a target.
    fn sliced_devices(groups: usize) -> (Vec<TwoBSsd>, Vec<EntryId>) {
        let cfg = SsdConfig::base_2b().small().die_slice(groups as u32);
        let mut devices = Vec::new();
        let mut eids = Vec::new();
        for _ in 0..groups {
            let mut dev = TwoBSsd::new(cfg.clone(), TwoBSpec::small_for_tests());
            let (eid, _) = dev.ba_pin_auto(SimTime::ZERO, Lba(0), 1).unwrap();
            devices.push(dev);
            eids.push(eid);
        }
        (devices, eids)
    }

    /// A mixed BA/block workload with cross-group chained follow-ups.
    /// Identical regardless of placement: op times are salted by id only.
    fn seed_workload(cal: &mut ShardedIoCalendar, eids: &[EntryId], ops: usize) {
        let groups = cal.groups();
        for i in 0..ops {
            let g = i % groups;
            let at = SimTime::from_nanos(1_000_000 + 37_000 * i as u64);
            let id = match i % 4 {
                0 => cal.submit(
                    at,
                    g,
                    IoOp::BlockWrite {
                        lba: Lba(8 + (i as u64 % 16)),
                        data: vec![i as u8; 4096].into(),
                    },
                ),
                1 => cal.submit(
                    at,
                    g,
                    IoOp::BlockRead {
                        lba: Lba(8 + (i as u64 % 16)),
                        pages: 1,
                    },
                ),
                2 => cal.submit(at, g, IoOp::BaSync { eid: eids[g] }),
                _ => cal.submit(at, g, IoOp::BlockFlush),
            };
            if i % 3 == 0 {
                // Chase each third op with a read on the *next* group —
                // a genuinely cross-shard dependency under most placements.
                cal.submit_after(
                    id,
                    SimDuration::from_micros(5),
                    (g + 1) % groups,
                    IoOp::BlockRead {
                        lba: Lba(8),
                        pages: 1,
                    },
                );
            }
        }
    }

    /// Everything a drive must reproduce regardless of placement or mode:
    /// per-group digests, per-group latency totals, host digest, count.
    type Fingerprint = (Vec<(usize, u64)>, Vec<(usize, LatencyBreakdown)>, u64, u64);

    fn fingerprint(cal: &ShardedIoCalendar) -> Fingerprint {
        (
            cal.group_digests(),
            cal.breakdown_totals(),
            cal.host_digest(),
            cal.completed(),
        )
    }

    fn drive(groups: usize, placement: GroupPlacement, mode: u8) -> ShardedIoCalendar {
        let (devices, eids) = sliced_devices(groups);
        let mut cal = ShardedIoCalendar::new(devices, placement, IC);
        seed_workload(&mut cal, &eids, 24);
        match mode {
            0 => cal.run(),
            1 => cal.run_parallel(2),
            2 => cal.run_parallel(4),
            _ => cal.run_lockstep(),
        }
        assert_eq!(cal.clamped_posts(), 0, "stale cross-shard delivery");
        assert_eq!(cal.unresolved_chains(), 0, "chain parent never observed");
        cal
    }

    #[test]
    fn sequential_parallel_and_lockstep_agree() {
        let seq = drive(4, GroupPlacement::round_robin(4, 2), 0);
        for mode in [1u8, 2] {
            let par = drive(4, GroupPlacement::round_robin(4, 2), mode);
            assert_eq!(fingerprint(&par), fingerprint(&seq), "mode {mode}");
            assert_eq!(par.rounds(), seq.rounds(), "schedules must be identical");
        }
        let lock = drive(4, GroupPlacement::round_robin(4, 2), 3);
        assert_eq!(fingerprint(&lock), fingerprint(&seq));
        assert!(seq.rounds() <= lock.rounds());
    }

    #[test]
    fn placement_does_not_change_results() {
        let baseline = drive(4, GroupPlacement::round_robin(4, 1), 0);
        for placement in [
            GroupPlacement::round_robin(4, 2),
            GroupPlacement::round_robin(4, 4),
            GroupPlacement::new(vec![1, 0, 1, 0], 2),
            GroupPlacement::new(vec![2, 2, 0, 1], 3),
        ] {
            let other = drive(4, placement.clone(), 0);
            assert_eq!(
                fingerprint(&other),
                fingerprint(&baseline),
                "placement {placement:?} changed observable results"
            );
        }
    }

    #[test]
    fn background_gc_rides_with_its_die_group() {
        let run = |mode: u8| {
            let groups = 2usize;
            let cfg = SsdConfig::base_2b()
                .small()
                .die_slice(groups as u32)
                .with_background_gc(GcPolicy::Greedy);
            let devices: Vec<TwoBSsd> = (0..groups)
                .map(|_| TwoBSsd::new(cfg.clone(), TwoBSpec::small_for_tests()))
                .collect();
            let cap = devices[0].capacity_pages();
            let mut cal =
                ShardedIoCalendar::new(devices, GroupPlacement::round_robin(groups, groups), IC);
            // Churn group 0 only: enough overwrites to force greedy GC.
            for i in 0..(cap * 3) {
                cal.submit(
                    SimTime::from_nanos(100_000 + 40_000 * i),
                    0,
                    IoOp::BlockWrite {
                        lba: Lba(i % cap),
                        data: vec![i as u8; 4096].into(),
                    },
                );
            }
            match mode {
                0 => cal.run(),
                _ => cal.run_parallel(2),
            }
            assert_eq!(cal.clamped_posts(), 0);
            cal
        };
        let seq = run(0);
        assert!(
            seq.device(0).ssd().ftl().stats().erases > 0,
            "churned group never collected garbage on its shard"
        );
        assert_eq!(
            seq.device(1).ssd().ftl().stats().erases,
            0,
            "idle group's GC must not be driven by the other shard's load"
        );
        let par = run(1);
        assert_eq!(par.group_digests(), seq.group_digests());
        assert_eq!(
            par.device(0).ssd().ftl().stats().erases,
            seq.device(0).ssd().ftl().stats().erases
        );
    }
}
