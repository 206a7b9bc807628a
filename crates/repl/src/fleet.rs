//! The cluster control plane: many replica sets on a fleet of 2B-SSD
//! nodes, with live shard moves and joint-consensus membership change.
//!
//! [`ReplicaSet`](crate::ReplicaSet) runs one replica set, chaos and all,
//! on one calendar; [`Fleet`] runs many over clean links, each node its
//! own PDES time domain. Every node of the fleet is one simulated 2B-SSD
//! hosting the WALs of the shards placed on it through a [`ShardWalHost`]
//! (one pin-table slot per shard — PR 4's multi-tenant arbitration applied
//! to shards). The only way nodes interact is over [`NetLink`]s, so the
//! link's one-way delay *is* the conservative lookahead: a record or ack
//! put on the wire at `t` cannot arrive anywhere before `t + one_way`,
//! which is the cross-shard send bound the executor enforces. A 1-shard
//! fleet is a single replica set on per-node shards.
//!
//! On top of that device layer sit the three cluster mechanisms this
//! module exists to prove:
//!
//! 1. **Failure-domain-aware placement** — a [`ClusterMap`] spreads each
//!    shard's `rf` replicas across zones, so a correlated rack or zone
//!    power cut (a [`ClusterFaultPlan`](twob_faults::ClusterFaultPlan))
//!    takes at most one replica of any shard.
//! 2. **Live shard moves** — the mover reads the source's WAL tail
//!    through the shipping path (priced on `BA_READ_DMA`), catches the
//!    joiners up cursor-style, runs traffic under a *joint* release rule
//!    (old-set and new-set quorums, both anchored at their primaries),
//!    and hands off atomically at a **fenced LSN**: the source WAL
//!    provably rejects appends past the fence, so the old and new owner
//!    can never diverge.
//! 3. **Membership change** — the release rule of every in-flight commit
//!    is fixed at issue time; during a reconfig it is the conjunction of
//!    the old and the new configuration's rules ([`joint_rule`]), whose
//!    quorums all contain both primaries — consecutive configurations'
//!    quorums always intersect (the property the `cluster_props` suite
//!    brute-forces).
//!
//! Followers serve reads: every released commit is read back from a
//! deterministic member of its ack set, priced on the host's
//! log path — `BA_READ_DMA` out of the pinned window for BA hosts, NAND
//! page reads for block hosts — so the byte-path advantage shows up as
//! cluster-level read latency.
//!
//! Shipped records enter a follower through a per-shard reorder buffer
//! that drains **densely** through [`ShardWalHost::append_record`], which
//! errors on any LSN gap: a dropped or reordered shipment can never be
//! silently absorbed. Verification after quiescence power-cycles every
//! node, recovers every hosted slot, promotes the most caught-up eligible
//! holder per shard, and checks the two guarantees of the failover layer
//! at fleet scale: no acknowledged commit is lost, and all eligible
//! holders' logs are byte-identical prefixes of the promoted log.

use std::collections::{BTreeMap, BTreeSet};

use twob_core::TwoBSsd;
use twob_faults::{promote, ClusterFaultPlan, CutScope, T0};
use twob_sim::{
    mix, mix_bytes, Histogram, ShardCtx, ShardDrive, ShardedExecutor, SimDuration, SimRng, SimTime,
    FNV_BASIS,
};
use twob_wal::{HostConfig, HostMode, LogRecord, Lsn, ShardWalHost, WalError};

use crate::link::{NetLink, NetLinkConfig, ACK_WIRE_BYTES, RECORD_WIRE_OVERHEAD};
use crate::placement::{splitmix64, ClusterMap, DomainLayout, PlacementKind};
use crate::{CommitPolicy, ShipScheme};

/// A planned live shard move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMove {
    /// The shard to move.
    pub shard: u16,
    /// The mover triggers once this many of the shard's commits released.
    pub at_release: u64,
    /// Destination replica set, new primary first. Must not contain the
    /// shard's original primary (it retires behind the fence).
    pub new_set: Vec<usize>,
}

/// A correlated power cut.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetCut {
    /// Every node that dies at the cut instant.
    pub victims: Vec<usize>,
    /// When they die.
    pub at: SimTime,
}

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fleet size.
    pub nodes: usize,
    /// Logical shard count.
    pub shards: u16,
    /// Replicas per shard (primary included).
    pub rf: usize,
    /// How shard anchors map onto the fleet.
    pub placement: PlacementKind,
    /// Zone/rack labelling.
    pub layout: DomainLayout,
    /// Release policy of every shard.
    pub policy: CommitPolicy,
    /// Log path of every host: BA slots or block slots.
    pub scheme: ShipScheme,
    /// Commits per shard (single closed-loop stream each).
    pub commits_per_shard: u64,
    /// Network model for every node pair.
    pub link: NetLinkConfig,
    /// Seed for link jitter and client think time.
    pub seed: u64,
    /// Live shard moves (at most one per shard).
    pub moves: Vec<ShardMove>,
    /// A correlated power cut, if any.
    pub cut: Option<FleetCut>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 9,
            shards: 6,
            rf: 3,
            placement: PlacementKind::Hash,
            layout: DomainLayout::three_zones(),
            policy: CommitPolicy::SemiSync(1),
            scheme: ShipScheme::Ba,
            commits_per_shard: 8,
            link: NetLinkConfig::default(),
            seed: 42,
            moves: Vec::new(),
            cut: None,
        }
    }
}

impl FleetConfig {
    /// Resolves a [`ClusterFaultPlan`] into a runnable fleet config: the
    /// plan's domain layout, a cut expanded to its node/rack/zone victim
    /// set, and its shard move turned into a concrete destination set that
    /// excludes the original primary (so the fenced handoff is exercised).
    pub fn from_plan(
        plan: &ClusterFaultPlan,
        placement: PlacementKind,
        policy: CommitPolicy,
        scheme: ShipScheme,
    ) -> FleetConfig {
        let layout = DomainLayout {
            zones: plan.zones,
            racks_per_zone: plan.racks_per_zone,
        };
        let victims = match plan.scope {
            CutScope::Node => vec![plan.victim],
            CutScope::Rack => layout.nodes_in_rack(plan.nodes, plan.victim as u32),
            CutScope::Zone => layout.nodes_in_zone(plan.nodes, plan.victim as u32),
        };
        let rf = 3;
        let map = ClusterMap::build(placement, plan.shards, plan.nodes, rf, layout);
        let moves = plan
            .shard_move
            .iter()
            .filter_map(|&(shard, after)| {
                let old_primary = map.primary_of(shard);
                (1..plan.nodes)
                    .map(|step| {
                        ClusterMap::spread_from(
                            (old_primary + step) % plan.nodes,
                            plan.nodes,
                            rf,
                            layout,
                        )
                    })
                    .find(|set| !set.contains(&old_primary))
                    .map(|new_set| ShardMove {
                        shard,
                        at_release: after % plan.commits_per_shard,
                        new_set,
                    })
            })
            .collect();
        FleetConfig {
            nodes: plan.nodes,
            shards: plan.shards,
            rf,
            placement,
            layout,
            policy,
            scheme,
            commits_per_shard: plan.commits_per_shard,
            seed: plan.seed,
            moves,
            cut: Some(FleetCut {
                victims,
                at: T0 + SimDuration::from_nanos(plan.cut_delay_ns),
            }),
            ..FleetConfig::default()
        }
    }
}

/// One ack-counting constraint: at least `0` members of `1` must be in
/// the ack set.
pub type RuleClause = (usize, Vec<usize>);

/// The release rule of a stable configuration: the primary must be
/// durable, plus the policy's follower-ack requirement.
pub fn release_rule(policy: CommitPolicy, members: &[usize], primary: usize) -> Vec<RuleClause> {
    let followers: Vec<usize> = members.iter().copied().filter(|&m| m != primary).collect();
    let k = policy.required_acks(followers.len());
    let mut rule = vec![(1, vec![primary])];
    if k > 0 {
        rule.push((k, followers));
    }
    rule
}

/// The joint release rule of a reconfiguration: the conjunction of the
/// old and the new configuration's rules, each anchored at its own
/// primary — every joint quorum contains *both* primaries, so quorums of
/// consecutive configurations always intersect.
pub fn joint_rule(
    policy: CommitPolicy,
    old: &[usize],
    old_primary: usize,
    new: &[usize],
    new_primary: usize,
) -> Vec<RuleClause> {
    let mut rule = release_rule(policy, old, old_primary);
    rule.extend(release_rule(policy, new, new_primary));
    rule
}

/// Whether `acks` satisfies every clause of `rule`.
pub fn rule_met(rule: &[RuleClause], acks: &BTreeSet<usize>) -> bool {
    rule.iter()
        .all(|(need, set)| set.iter().filter(|m| acks.contains(m)).count() >= *need)
}

/// Commit payload bytes.
const PAYLOAD_BYTES: usize = 64;

/// Deterministic commit payload, distinct per (shard, lsn).
fn shard_payload(shard: u16, lsn: u64) -> Vec<u8> {
    let h = splitmix64((u64::from(shard) << 32) ^ lsn);
    (0..PAYLOAD_BYTES)
        .map(|i| (h.rotate_left((i % 8) as u32 * 8) as u8).wrapping_add(i as u8))
        .collect()
}

/// Events of the fleet protocol.
#[derive(Debug, Clone)]
enum Ev {
    /// The client issues commit `txn` on `shard`'s current primary.
    Issue { shard: u16, txn: u64 },
    /// A shipped record arrives at a member.
    Replicate {
        shard: u16,
        lsn: u64,
        payload: Vec<u8>,
        reply_to: usize,
    },
    /// A durability ack arrives at the issuing primary.
    Ack { shard: u16, lsn: u64, from: usize },
    /// A catch-up batch (the source's full tail) arrives at a joiner.
    Catchup {
        shard: u16,
        records: Vec<(u64, Vec<u8>)>,
        target: u64,
        reply_to: usize,
    },
    /// A joiner reports its log reached the catch-up target.
    CatchupDone { shard: u16, from: usize },
    /// The fenced handoff: ledger authority moves to the new primary.
    Handoff {
        shard: u16,
        members: Vec<usize>,
        next_txn: u64,
        released: u64,
    },
    /// A follower read of a released commit.
    Read {
        shard: u16,
        lsn: u64,
        issued_at: SimTime,
    },
}

/// Where a shard's ledger is in its configuration lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    /// One configuration; its rule alone releases commits.
    Stable,
    /// Reconfiguring: old and new rules must both pass.
    Joint { new_set: Vec<usize> },
    /// This node handed the shard off; it never issues again.
    Retired,
}

/// Mover state attached to the ledger of the shard being moved.
#[derive(Debug, Clone)]
struct MoveState {
    new_set: Vec<usize>,
    at_release: u64,
    joiners: Vec<usize>,
    done: BTreeSet<usize>,
    triggered: bool,
    armed: bool,
}

/// The single in-flight commit of a shard's closed-loop stream.
#[derive(Debug, Clone)]
struct Outstanding {
    lsn: u64,
    issued_at: SimTime,
    acks: BTreeSet<usize>,
    /// Fixed at issue time — a reconfig mid-flight cannot weaken it.
    rule: Vec<RuleClause>,
}

/// The issuing authority for one shard, owned by its current primary.
#[derive(Debug, Clone)]
struct Ledger {
    members: Vec<usize>,
    mode: Mode,
    released: u64,
    outstanding: Option<Outstanding>,
    mv: Option<MoveState>,
    config_log: Vec<String>,
}

/// A record waiting in a follower's dense reorder buffer.
#[derive(Debug, Clone)]
struct PendingRec {
    payload: Vec<u8>,
    /// Ack destination once durable (followers), `None` for local issues.
    ack_to: Option<usize>,
    /// Local issue: ship to these members and self-ack once durable.
    ship_to: Vec<usize>,
    local: bool,
}

/// One fleet node: a 2B-SSD shard-WAL host plus protocol state.
struct NodeState {
    id: usize,
    host: ShardWalHost,
    /// One link per destination node (index = destination).
    links: Vec<NetLink>,
    fails_at: Option<SimTime>,
    digest: u64,
    /// Per-shard dense reorder buffers.
    pending: BTreeMap<u16, BTreeMap<u64, PendingRec>>,
    /// Per-shard catch-up obligations: `(target lsn, reply_to)`.
    catchup_ack: BTreeMap<u16, (u64, usize)>,
    /// Ledgers of the shards this node currently (or formerly) leads.
    ledgers: BTreeMap<u16, Ledger>,
    /// Releases performed here: `(shard, lsn, latency ns)`.
    commit_lats: Vec<(u16, u64, u64)>,
    /// Follower reads served here: `(shard, lsn, latency ns)`.
    read_lats: Vec<(u16, u64, u64)>,
    violations: Vec<String>,
    think_rng: SimRng,
}

/// Outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Commits released fleet-wide.
    pub released: u64,
    /// Releases per shard.
    pub shard_released: Vec<u64>,
    /// Follower reads served.
    pub reads: u64,
    /// Median client-visible commit latency, microseconds.
    pub commit_p50_us: f64,
    /// p99 follower-read latency, microseconds (0 when no reads ran).
    pub read_p99_us: f64,
    /// Per-node observation digests — byte-identical across drives.
    pub node_digests: Vec<u64>,
    /// Per-shard digests over the promoted recovered log (lsn + payload
    /// only, so they are placement- and timing-invariant).
    pub shard_digests: Vec<u64>,
    /// Configuration history, node-ordered then shard-ordered.
    pub config_log: Vec<String>,
    /// Synchronisation rounds the executor ran.
    pub rounds: u64,
    /// Rounds with a multi-window horizon.
    pub batched_rounds: u64,
    /// Events processed across all shards.
    pub processed: u64,
    /// Stale cross-shard deliveries (must be zero).
    pub clamped_posts: u64,
    /// Latest local virtual instant at quiescence.
    pub final_now: SimTime,
    /// Every guarantee violation found during and after the run.
    pub violations: Vec<String>,
}

impl FleetReport {
    /// Whether every guarantee held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A cluster of replica sets where every node is its own PDES time
/// domain. See the module docs for the model.
pub struct Fleet {
    cfg: FleetConfig,
    map: ClusterMap,
    pdes: ShardedExecutor<Ev>,
    states: Vec<NodeState>,
}

impl Fleet {
    /// Builds the fleet: placement, one host per node with its shard
    /// slots opened, ledgers at the primaries, and all-pairs links.
    ///
    /// # Errors
    ///
    /// [`WalError::BadConfig`] for a lossy link (the fleet has no
    /// retransmit path — chaos here is power cuts), an empty run, an `rf`
    /// the fleet cannot host, a move whose destination contains the
    /// shard's original primary, or a commit stream longer than a node's
    /// slot log holds ([`HostConfig::records_per_slot`]); host
    /// construction/open failures.
    pub fn new(cfg: FleetConfig) -> Result<Fleet, WalError> {
        let bad = |msg: String| Err(WalError::BadConfig(msg));
        if cfg.link.drop_prob != 0.0 || cfg.link.dup_prob != 0.0 {
            return bad(
                "the fleet has no retransmit path: drop_prob and dup_prob must be 0".into(),
            );
        }
        if cfg.commits_per_shard == 0 || cfg.shards == 0 {
            return bad("commits_per_shard and shards must be positive".into());
        }
        if cfg.rf == 0 || cfg.rf > cfg.nodes {
            return bad(format!("rf {} does not fit {} nodes", cfg.rf, cfg.nodes));
        }
        let map = ClusterMap::build(cfg.placement, cfg.shards, cfg.nodes, cfg.rf, cfg.layout);
        for m in cfg.moves.iter().filter(|m| m.shard < cfg.shards) {
            let primary = map.primary_of(m.shard);
            if m.new_set.contains(&primary) {
                return bad(format!(
                    "move of shard {} keeps the fenced primary {primary}",
                    m.shard
                ));
            }
        }
        let host_cfg = HostConfig {
            mode: match cfg.scheme {
                ShipScheme::Ba => HostMode::Ba,
                ShipScheme::Block => HostMode::Block,
            },
            slots: cfg.shards,
            ..HostConfig::default()
        };
        let capacity = host_cfg.records_per_slot(PAYLOAD_BYTES);
        if cfg.commits_per_shard > capacity {
            return bad(format!(
                "{} commits per shard of {PAYLOAD_BYTES} B exceed the {capacity} records a {} slot log holds",
                cfg.commits_per_shard, host_cfg.mode
            ));
        }
        let mut net_rng = SimRng::seed_from(cfg.seed ^ 0xF1EE_7F1E_E7F1_EE7F);
        let mut states = Vec::with_capacity(cfg.nodes);
        for id in 0..cfg.nodes {
            let mut host = ShardWalHost::new(TwoBSsd::small_for_tests(), host_cfg)?;
            for shard in map.shards_on(id) {
                host.open_slot(SimTime::ZERO, shard)?;
            }
            let links = (0..cfg.nodes)
                .map(|dst| NetLink::new(cfg.link, net_rng.fork((id * cfg.nodes + dst) as u64)))
                .collect();
            let mut ledgers = BTreeMap::new();
            for shard in 0..cfg.shards {
                if map.primary_of(shard) != id {
                    continue;
                }
                let members = map.replicas_of(shard).to_vec();
                let mv = cfg
                    .moves
                    .iter()
                    .find(|m| m.shard == shard)
                    .map(|m| MoveState {
                        new_set: m.new_set.clone(),
                        at_release: m.at_release,
                        joiners: m
                            .new_set
                            .iter()
                            .copied()
                            .filter(|n| !members.contains(n))
                            .collect(),
                        done: BTreeSet::new(),
                        triggered: false,
                        armed: false,
                    });
                ledgers.insert(
                    shard,
                    Ledger {
                        config_log: vec![format!(
                            "shard {shard}: node {id} leads {members:?} ({})",
                            cfg.placement
                        )],
                        members,
                        mode: Mode::Stable,
                        released: 0,
                        outstanding: None,
                        mv,
                    },
                );
            }
            states.push(NodeState {
                id,
                host,
                links,
                fails_at: cfg
                    .cut
                    .as_ref()
                    .and_then(|c| c.victims.contains(&id).then_some(c.at)),
                digest: FNV_BASIS,
                pending: BTreeMap::new(),
                catchup_ack: BTreeMap::new(),
                ledgers,
                commit_lats: Vec::new(),
                read_lats: Vec::new(),
                violations: Vec::new(),
                think_rng: SimRng::seed_from(cfg.seed ^ 0xc11e_47c1_1e47_c11e ^ id as u64),
            });
        }
        let mut pdes = ShardedExecutor::new(cfg.nodes, cfg.link.one_way);
        for shard in 0..cfg.shards {
            pdes.seed(
                map.primary_of(shard),
                T0 + cfg.link.one_way.mul_f64(f64::from(shard) * 0.1),
                Ev::Issue { shard, txn: 0 },
            );
        }
        Ok(Fleet {
            cfg,
            map,
            pdes,
            states,
        })
    }

    /// The placement the fleet runs under.
    pub fn map(&self) -> &ClusterMap {
        &self.map
    }

    fn handler(
        &self,
    ) -> impl Fn(&mut ShardCtx<'_, Ev>, &mut NodeState, SimTime, Ev) + Sync + use<> {
        let policy = self.cfg.policy;
        let commits = self.cfg.commits_per_shard;
        let one_way = self.cfg.link.one_way;
        move |ctx, node, t, ev| {
            if node.fails_at.is_some_and(|f| t >= f) {
                return; // powered off: consume silently, never speak again
            }
            match ev {
                Ev::Issue { shard, txn } => {
                    let Some(led) = node.ledgers.get_mut(&shard) else {
                        return;
                    };
                    if led.mode == Mode::Retired {
                        return;
                    }
                    let rule = match &led.mode {
                        Mode::Stable => release_rule(policy, &led.members, node.id),
                        Mode::Joint { new_set } => {
                            joint_rule(policy, &led.members, node.id, new_set, new_set[0])
                        }
                        Mode::Retired => unreachable!(),
                    };
                    let ship_to: Vec<usize> = rule
                        .iter()
                        .flat_map(|(_, set)| set.iter().copied())
                        .chain(led.members.iter().copied())
                        .filter(|&m| m != node.id)
                        .collect::<BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    led.outstanding = Some(Outstanding {
                        lsn: txn,
                        issued_at: t,
                        acks: BTreeSet::new(),
                        rule,
                    });
                    node.pending.entry(shard).or_default().insert(
                        txn,
                        PendingRec {
                            payload: shard_payload(shard, txn),
                            ack_to: None,
                            ship_to,
                            local: true,
                        },
                    );
                    drain(node, ctx, t, shard);
                }
                Ev::Replicate {
                    shard,
                    lsn,
                    payload,
                    reply_to,
                } => {
                    if !node.host.is_open(shard) {
                        if let Err(e) = node.host.open_slot(t, shard) {
                            node.violations.push(format!(
                                "node {}: open slot {shard} for replicate: {e}",
                                node.id
                            ));
                            return;
                        }
                    }
                    let next = node.host.next_lsn(shard).expect("slot open").0;
                    if lsn >= next {
                        node.pending.entry(shard).or_default().insert(
                            lsn,
                            PendingRec {
                                payload,
                                ack_to: Some(reply_to),
                                ship_to: Vec::new(),
                                local: false,
                            },
                        );
                    }
                    drain(node, ctx, t, shard);
                }
                Ev::Catchup {
                    shard,
                    records,
                    target,
                    reply_to,
                } => {
                    if !node.host.is_open(shard) {
                        if let Err(e) = node.host.open_slot(t, shard) {
                            node.violations.push(format!(
                                "node {}: open slot {shard} for catch-up: {e}",
                                node.id
                            ));
                            return;
                        }
                    }
                    let next = node.host.next_lsn(shard).expect("slot open").0;
                    let pend = node.pending.entry(shard).or_default();
                    for (lsn, payload) in records {
                        if lsn >= next {
                            pend.entry(lsn).or_insert(PendingRec {
                                payload,
                                ack_to: None,
                                ship_to: Vec::new(),
                                local: false,
                            });
                        }
                    }
                    node.catchup_ack.insert(shard, (target, reply_to));
                    drain(node, ctx, t, shard);
                }
                Ev::Ack { shard, lsn, from } => {
                    on_ack(node, ctx, t, shard, lsn, from, commits);
                }
                Ev::CatchupDone { shard, from } => {
                    let Some(led) = node.ledgers.get_mut(&shard) else {
                        return;
                    };
                    let Some(mv) = led.mv.as_mut() else { return };
                    mv.done.insert(from);
                    if mv.done.len() == mv.joiners.len() && mv.triggered {
                        mv.armed = true;
                        // A fully drained stream never reaches another
                        // release point, so hand off right here.
                        if led.outstanding.is_none() && led.released >= commits {
                            do_handoff(node, ctx, t, shard);
                        }
                    }
                }
                Ev::Handoff {
                    shard,
                    members,
                    next_txn,
                    released,
                } => {
                    node.ledgers.insert(
                        shard,
                        Ledger {
                            config_log: vec![format!(
                                "shard {shard}: node {} leads {members:?} from lsn {next_txn}",
                                node.id
                            )],
                            members,
                            mode: Mode::Stable,
                            released,
                            outstanding: None,
                            mv: None,
                        },
                    );
                    node.digest = mix(mix(node.digest, 0x44DD ^ u64::from(shard)), next_txn);
                    if next_txn < commits {
                        ctx.post(
                            t,
                            Ev::Issue {
                                shard,
                                txn: next_txn,
                            },
                        );
                    }
                }
                Ev::Read {
                    shard,
                    lsn,
                    issued_at,
                } => match node.host.read_record(t, shard, Lsn(lsn)) {
                    Ok((rec, done)) => {
                        if rec.payload != shard_payload(shard, lsn) {
                            node.violations.push(format!(
                                "read shard {shard} lsn {lsn} at node {}: wrong payload",
                                node.id
                            ));
                        }
                        let lat = done.saturating_since(issued_at) + one_way;
                        node.read_lats.push((shard, lsn, lat.as_nanos()));
                        node.digest = mix(mix(node.digest, 0x5EAD ^ lsn), done.as_nanos());
                    }
                    Err(e) => node.violations.push(format!(
                        "read shard {shard} lsn {lsn} at acked node {}: {e}",
                        node.id
                    )),
                },
            }
        }
    }

    /// Drives the fleet to quiescence sequentially (adaptive batching).
    pub fn run(self) -> FleetReport {
        self.run_with(ShardDrive::Adaptive)
    }

    /// Drives the fleet on up to `threads` workers — identical schedule.
    pub fn run_parallel(self, threads: usize) -> FleetReport {
        self.run_with(ShardDrive::Parallel(threads))
    }

    /// Drives the fleet to quiescence under `drive`: the adaptive
    /// schedule on one worker or several, which fire identically, or the
    /// fine-grained lock-step oracle.
    pub fn run_with(mut self, drive: ShardDrive) -> FleetReport {
        let handler = self.handler();
        let feeds = vec![std::iter::empty(); self.states.len()];
        self.pdes.run_fed(&mut self.states, feeds, &handler, drive);
        self.report()
    }

    /// Post-quiescence verification: power-cycle every node, recover
    /// every hosted slot, promote per shard, and check both guarantees.
    fn report(mut self) -> FleetReport {
        let final_now = (0..self.states.len())
            .map(|i| self.pdes.shard(i).now())
            .fold(SimTime::ZERO, SimTime::max);
        let victims: Vec<usize> = self
            .cfg
            .cut
            .as_ref()
            .map(|c| c.victims.clone())
            .unwrap_or_default();

        let mut violations: Vec<String> = Vec::new();
        for n in &self.states {
            violations.extend(n.violations.iter().cloned());
        }

        // Merge releases; the closed loop makes each shard's stream
        // 0..k dense — any gap or duplicate is a reorder/drop of an
        // acknowledged record.
        let releases = merged(self.states.iter().map(|n| &n.commit_lats[..]));
        let mut shard_released = vec![0u64; usize::from(self.cfg.shards)];
        for shard in 0..self.cfg.shards {
            let lsns: Vec<u64> = releases
                .iter()
                .filter(|&&(s, _, _)| s == shard)
                .map(|&(_, l, _)| l)
                .collect();
            for (i, &l) in lsns.iter().enumerate() {
                if l != i as u64 {
                    violations.push(format!(
                        "shard {shard}: acked stream not dense at position {i} (lsn {l})"
                    ));
                    break;
                }
            }
            shard_released[usize::from(shard)] = lsns.len() as u64;
        }
        let mut commit_hist = Histogram::new();
        for &(_, _, ns) in &releases {
            commit_hist.record(SimDuration::from_nanos(ns));
        }
        let read_lats = merged(self.states.iter().map(|n| &n.read_lats[..]));
        let mut read_hist = Histogram::new();
        for &(_, _, ns) in &read_lats {
            read_hist.record(SimDuration::from_nanos(ns));
        }

        // Power-cycle everything. A cut node's device froze at its death
        // instant, so dumping now preserves exactly what was synced then.
        let margin = SimDuration::from_millis(1);
        let up = final_now + margin + margin;
        for n in &mut self.states {
            if let Err(e) = n.host.power_cycle(final_now + margin, up) {
                violations.push(format!("node {}: power cycle: {e}", n.id));
            }
        }

        // Promote per shard and check both guarantees.
        let mut shard_digests = vec![0u64; usize::from(self.cfg.shards)];
        for shard in 0..self.cfg.shards {
            let mut logs: Vec<(usize, Vec<LogRecord>)> = Vec::new();
            for n in &mut self.states {
                if !n.host.is_open(shard) {
                    continue;
                }
                match n.host.recover_slot(up, shard) {
                    Ok(recs) => logs.push((n.id, recs)),
                    Err(e) => violations.push(format!("node {}: recover shard {shard}: {e}", n.id)),
                }
            }
            shard_digests[usize::from(shard)] = check_shard(
                shard,
                shard_released[usize::from(shard)],
                self.cfg.policy,
                &victims,
                &logs,
                &mut violations,
            );
        }

        let mut config_log = Vec::new();
        for n in &self.states {
            for led in n.ledgers.values() {
                config_log.extend(led.config_log.iter().cloned());
            }
        }
        config_log.sort();

        FleetReport {
            released: releases.len() as u64,
            shard_released,
            reads: read_lats.len() as u64,
            commit_p50_us: if releases.is_empty() {
                0.0
            } else {
                commit_hist.percentile(0.50).as_micros_f64()
            },
            read_p99_us: if read_lats.is_empty() {
                0.0
            } else {
                read_hist.percentile(0.99).as_micros_f64()
            },
            node_digests: self.states.iter().map(|n| n.digest).collect(),
            shard_digests,
            config_log,
            rounds: self.pdes.rounds(),
            batched_rounds: self.pdes.batched_rounds(),
            processed: self.pdes.processed(),
            clamped_posts: self.pdes.clamped_posts(),
            final_now,
            violations,
        }
    }
}

/// Aggregate of a multi-plan cluster fault sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSweepReport {
    /// Fleet runs executed (plans × placements × policies).
    pub runs: u64,
    /// Commits released across every run.
    pub released: u64,
    /// Follower reads served across every run.
    pub reads: u64,
    /// Runs whose plan included a live shard move.
    pub moved: u64,
    /// Runs per cut scope: `[node, rack, zone]`.
    pub scope_counts: [u64; 3],
    /// Fold of every run's per-shard digests and counters — one number
    /// that pins the whole sweep byte-for-byte.
    pub digest: u64,
    /// Every violation, prefixed with the offending configuration.
    pub violations: Vec<String>,
}

impl FleetSweepReport {
    /// Whether every run upheld every guarantee.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for FleetSweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} runs ({} node / {} rack / {} zone cuts, {} moves): {} commits, {} reads, digest {:016x}, {} violations",
            self.runs,
            self.scope_counts[0],
            self.scope_counts[1],
            self.scope_counts[2],
            self.moved,
            self.released,
            self.reads,
            self.digest,
            self.violations.len()
        )
    }
}

/// Runs `plans` seeded [`ClusterFaultPlan`]s through every placement ×
/// commit-policy combination on the adaptive sequential drive, checking
/// every fleet guarantee and folding all observations into one digest.
///
/// The policy sweep covers [`CommitPolicy::Async`], `SemiSync(1)` and
/// [`CommitPolicy::Sync`]; each plan contributes its cut scope and any
/// live shard move. Fully deterministic in `(plans, seed)`.
pub fn fleet_sweep(plans: u64, seed: u64) -> FleetSweepReport {
    let policies = [
        CommitPolicy::Async,
        CommitPolicy::SemiSync(1),
        CommitPolicy::Sync,
    ];
    let mut report = FleetSweepReport {
        runs: 0,
        released: 0,
        reads: 0,
        moved: 0,
        scope_counts: [0; 3],
        digest: FNV_BASIS,
        violations: Vec::new(),
    };
    for i in 0..plans {
        let plan = ClusterFaultPlan::random(seed ^ (i << 17));
        report.scope_counts[match plan.scope {
            CutScope::Node => 0,
            CutScope::Rack => 1,
            CutScope::Zone => 2,
        }] += 1;
        for placement in PlacementKind::ALL {
            for policy in policies {
                let label = format!(
                    "plan {i} (seed {:#x}, {:?} cut) {placement}/{policy:?}",
                    plan.seed, plan.scope
                );
                let cfg = FleetConfig::from_plan(&plan, placement, policy, ShipScheme::Ba);
                let moved = !cfg.moves.is_empty();
                let fleet = match Fleet::new(cfg) {
                    Ok(f) => f,
                    Err(e) => {
                        report.violations.push(format!("{label}: build: {e}"));
                        continue;
                    }
                };
                let r = fleet.run();
                report.runs += 1;
                report.released += r.released;
                report.reads += r.reads;
                report.moved += u64::from(moved);
                if r.clamped_posts != 0 {
                    report
                        .violations
                        .push(format!("{label}: {} clamped posts", r.clamped_posts));
                }
                for v in &r.violations {
                    report.violations.push(format!("{label}: {v}"));
                }
                for (s, d) in r.shard_digests.iter().enumerate() {
                    report.digest = mix(report.digest, (s as u64) << 48 ^ d);
                }
                report.digest = mix(report.digest, r.released);
            }
        }
    }
    report
}

/// Every node's `(shard, lsn, ns)` samples of one kind, merged in one total
/// order: ties between nodes never depend on the sort.
fn merged<'a>(parts: impl Iterator<Item = &'a [(u16, u64, u64)]>) -> Vec<(u16, u64, u64)> {
    let mut all: Vec<(u16, u64, u64)> = parts.flatten().copied().collect();
    all.sort_unstable();
    all
}

/// Promotes `shard`'s most caught-up eligible holder among `logs` (each
/// node's recovered slot) and checks both guarantees against the
/// `released` acknowledged commits, pushing what fails. Returns the
/// promoted log's digest, 0 when no holder is eligible.
///
/// Async releases at primary-local durability only, and power cuts
/// preserve synced bytes (capacitor dump) — so the cut primary's log is
/// legitimate recovery input. Quorum policies must survive on the
/// non-victim holders alone.
fn check_shard(
    shard: u16,
    released: u64,
    policy: CommitPolicy,
    victims: &[usize],
    logs: &[(usize, Vec<LogRecord>)],
    violations: &mut Vec<String>,
) -> u64 {
    let eligible = logs
        .iter()
        .filter(|(id, _)| policy_includes(policy, victims, *id))
        .map(|(id, recs)| (*id, &recs[..]));
    let Some(promotion) = promote(eligible) else {
        if released > 0 {
            violations.push(format!(
                "shard {shard}: {released} acked commits but no eligible holder"
            ));
        }
        return 0;
    };
    let leader = promotion.leader;
    // Guarantee 1: every acknowledged commit is in the promoted log,
    // byte-for-byte.
    for lsn in 0..released {
        match promotion.log.get(lsn as usize) {
            Some(rec) if rec.lsn == Lsn(lsn) && rec.payload == shard_payload(shard, lsn) => {}
            _ => violations.push(format!(
                "shard {shard}: acked lsn {lsn} lost or corrupt on promoted node {leader}"
            )),
        }
    }
    // Guarantee 2: every eligible holder is a byte-identical prefix of the
    // promoted log — catch-up converges them.
    for (id, _) in &promotion.diverged {
        violations.push(format!(
            "shard {shard}: node {id} diverges from promoted node {leader}"
        ));
    }
    promotion.log.iter().fold(FNV_BASIS, |d, rec| {
        mix_bytes(mix(d, rec.lsn.0), &rec.payload)
    })
}

/// Sends `ev` to node `to` over `links[to]`, leaving at `at` with `bytes`
/// on the wire.
fn send(
    links: &mut [NetLink],
    ctx: &mut ShardCtx<'_, Ev>,
    to: usize,
    at: SimTime,
    bytes: u64,
    ev: Ev,
) {
    let arrive = links[to]
        .delivery_reliable(at, bytes)
        .expect("Fleet::new refuses lossy links and nothing partitions a fleet link");
    ctx.send(to, arrive, ev);
}

/// Whether `id`'s recovered log may be promoted under `policy`.
fn policy_includes(policy: CommitPolicy, victims: &[usize], id: usize) -> bool {
    match policy {
        CommitPolicy::Async => true,
        _ => !victims.contains(&id),
    }
}

/// Drains `shard`'s dense reorder buffer through the host, acking and
/// shipping from each record's durability point.
fn drain(node: &mut NodeState, ctx: &mut ShardCtx<'_, Ev>, t: SimTime, shard: u16) {
    if !node.host.is_open(shard) {
        return;
    }
    loop {
        let next = node.host.next_lsn(shard).expect("slot open").0;
        let Some(p) = node.pending.get_mut(&shard).and_then(|m| m.remove(&next)) else {
            break;
        };
        let rec = LogRecord::new(Lsn(next), p.payload);
        let out = match node.host.append_record(t, shard, &rec) {
            Ok(out) => out,
            Err(e) => {
                // The fence doing its job is not a violation — anything
                // else is.
                if !matches!(e, WalError::Fenced { .. }) {
                    node.violations
                        .push(format!("node {}: append shard {shard}: {e}", node.id));
                }
                break;
            }
        };
        let durable = out.durable_at.unwrap_or(out.commit_at);
        node.digest = mix(
            mix(node.digest, u64::from(shard) << 32 | next),
            durable.as_nanos(),
        );
        if p.local {
            let bytes = rec.payload.len() as u64 + RECORD_WIRE_OVERHEAD;
            for &target in &p.ship_to {
                let ev = Ev::Replicate {
                    shard,
                    lsn: next,
                    payload: rec.payload.clone(),
                    reply_to: node.id,
                };
                send(&mut node.links, ctx, target, durable, bytes, ev);
            }
            ctx.post(
                durable,
                Ev::Ack {
                    shard,
                    lsn: next,
                    from: node.id,
                },
            );
        } else if let Some(to) = p.ack_to {
            let ev = Ev::Ack {
                shard,
                lsn: next,
                from: node.id,
            };
            send(&mut node.links, ctx, to, durable, ACK_WIRE_BYTES, ev);
        }
    }
    if let Some(&(target, reply_to)) = node.catchup_ack.get(&shard) {
        if node.host.next_lsn(shard).expect("slot open").0 >= target {
            node.catchup_ack.remove(&shard);
            let ev = Ev::CatchupDone {
                shard,
                from: node.id,
            };
            send(&mut node.links, ctx, reply_to, t, ACK_WIRE_BYTES, ev);
        }
    }
}

/// Handles an ack at the shard's current primary: quorum counting under
/// the commit's fixed rule, release, follower-read issue, move trigger,
/// fenced handoff, and the closed loop's next issue.
fn on_ack(
    node: &mut NodeState,
    ctx: &mut ShardCtx<'_, Ev>,
    t: SimTime,
    shard: u16,
    lsn: u64,
    from: usize,
    commits: u64,
) {
    let Some(led) = node.ledgers.get_mut(&shard) else {
        return;
    };
    let Some(out) = led.outstanding.as_mut() else {
        return;
    };
    if out.lsn != lsn {
        return;
    }
    out.acks.insert(from);
    if !rule_met(&out.rule, &out.acks) {
        return;
    }
    let outst = led.outstanding.take().expect("checked present");
    led.released += 1;
    let released = led.released;
    node.commit_lats
        .push((shard, lsn, t.saturating_since(outst.issued_at).as_nanos()));
    node.digest = mix(mix(node.digest, 0xACC0 ^ lsn), t.as_nanos());

    // Follower read: a deterministic member of the ack set holds the
    // record (dense appends), so route the read there — the read-your-
    // quorum routing real systems get from replica LSN tracking.
    let ackers: Vec<usize> = outst.acks.iter().copied().collect();
    let target = ackers[lsn as usize % ackers.len()];
    let ev = Ev::Read {
        shard,
        lsn,
        issued_at: t,
    };
    send(&mut node.links, ctx, target, t, ACK_WIRE_BYTES, ev);

    // Move lifecycle at this release point.
    let mut hand_off = false;
    if let Some(led) = node.ledgers.get_mut(&shard) {
        if let Some(mv) = led.mv.as_mut() {
            if !mv.triggered && released > mv.at_release && led.mode == Mode::Stable {
                mv.triggered = true;
                if mv.joiners.is_empty() {
                    mv.armed = true;
                }
                led.mode = Mode::Joint {
                    new_set: mv.new_set.clone(),
                };
                led.config_log.push(format!(
                    "shard {shard}: joint {:?}+{:?} from lsn {}",
                    led.members,
                    mv.new_set,
                    lsn + 1
                ));
                let joiners = mv.joiners.clone();
                if !joiners.is_empty() {
                    // Catch the joiners up over the WAL-tail shipping
                    // path: one BA_READ_DMA (or block re-read) of the
                    // source log, shipped as a batch.
                    match node.host.read_tail(t, shard, Lsn(0)) {
                        Ok(batch) => {
                            let records: Vec<(u64, Vec<u8>)> = batch
                                .records
                                .iter()
                                .map(|r| (r.lsn.0, r.payload.clone()))
                                .collect();
                            let target_lsn = records.last().map(|&(l, _)| l + 1).unwrap_or(0);
                            let bytes: u64 = records
                                .iter()
                                .map(|(_, p)| p.len() as u64 + RECORD_WIRE_OVERHEAD)
                                .sum();
                            for j in joiners {
                                let ev = Ev::Catchup {
                                    shard,
                                    records: records.clone(),
                                    target: target_lsn,
                                    reply_to: node.id,
                                };
                                send(&mut node.links, ctx, j, batch.complete_at, bytes.max(1), ev);
                            }
                        }
                        Err(e) => node
                            .violations
                            .push(format!("shard {shard}: catch-up read: {e}")),
                    }
                }
            }
        }
        if let Some(mv) = led.mv.as_ref() {
            hand_off = mv.armed && led.mode != Mode::Retired;
        }
    }
    if hand_off {
        do_handoff(node, ctx, t, shard);
        return;
    }
    let next_txn = lsn + 1;
    if next_txn < commits {
        let think = SimDuration::from_nanos(node.think_rng.next_u64_below(400));
        ctx.post(
            t + think,
            Ev::Issue {
                shard,
                txn: next_txn,
            },
        );
    }
}

/// The atomic handoff: fence the local slot at the frontier and transfer
/// ledger authority to the new primary.
fn do_handoff(node: &mut NodeState, ctx: &mut ShardCtx<'_, Ev>, t: SimTime, shard: u16) {
    let fence = node.host.next_lsn(shard).expect("slot open");
    if let Err(e) = node.host.fence(shard, fence) {
        node.violations
            .push(format!("shard {shard}: fence at {fence}: {e}"));
        return;
    }
    let Some(led) = node.ledgers.get_mut(&shard) else {
        return;
    };
    let Some(mv) = led.mv.as_ref() else { return };
    let new_set = mv.new_set.clone();
    let released = led.released;
    led.mode = Mode::Retired;
    led.config_log.push(format!(
        "shard {shard}: handoff to node {} fenced at lsn {fence}",
        new_set[0]
    ));
    node.digest = mix(mix(node.digest, 0xFE9CE ^ u64::from(shard)), fence.0);
    let to = new_set[0];
    let ev = Ev::Handoff {
        shard,
        members: new_set,
        next_txn: fence.0,
        released,
    };
    send(&mut node.links, ctx, to, t, ACK_WIRE_BYTES, ev);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> FleetConfig {
        FleetConfig {
            nodes: 9,
            shards: 4,
            commits_per_shard: 6,
            ..FleetConfig::default()
        }
    }

    /// A shard's slot as an honest holder recovers it: `n` records.
    fn slot(shard: u16, n: u64) -> Vec<LogRecord> {
        (0..n)
            .map(|l| LogRecord::new(Lsn(l), shard_payload(shard, l)))
            .collect()
    }

    fn shard_check(
        released: u64,
        policy: CommitPolicy,
        victims: &[usize],
        logs: &[(usize, Vec<LogRecord>)],
    ) -> (u64, Vec<String>) {
        let mut violations = Vec::new();
        let digest = check_shard(1, released, policy, victims, logs, &mut violations);
        (digest, violations)
    }

    #[test]
    fn merged_samples_sort_on_the_whole_tuple() {
        let a = [(1, 0, 9), (0, 2, 5)];
        let b = [(0, 2, 3), (0, 1, 7)];
        let want = vec![(0, 1, 7), (0, 2, 3), (0, 2, 5), (1, 0, 9)];
        assert_eq!(merged([&a[..], &b[..]].into_iter()), want);
        assert_eq!(merged([&b[..], &a[..]].into_iter()), want);
    }

    #[test]
    fn shard_check_passes_prefix_holders_and_names_what_breaks() {
        let quorum = CommitPolicy::SemiSync(2);
        let clean = vec![(3, slot(1, 4)), (5, slot(1, 4)), (7, slot(1, 3))];
        let (digest, v) = shard_check(4, quorum, &[], &clean);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(digest, shard_check(4, quorum, &[], &clean[1..2]).0);

        // A lost acked record: every holder stops short of lsn 3.
        let short = vec![(3, slot(1, 3)), (5, slot(1, 2))];
        let (_, v) = shard_check(4, quorum, &[], &short);
        assert_eq!(
            v,
            ["shard 1: acked lsn 3 lost or corrupt on promoted node 3"]
        );

        // A diverging eligible holder.
        let mut diverging = clean.clone();
        diverging[2].1[1] = LogRecord::new(Lsn(1), b"torn".to_vec());
        let (_, v) = shard_check(4, quorum, &[], &diverging);
        assert_eq!(v, ["shard 1: node 7 diverges from promoted node 3"]);

        // Two equally long holders: the lowest id (3) is promoted, so its
        // corrupt record is an acked loss and both others diverge from it.
        let mut tied = clean.clone();
        tied[0].1[2] = LogRecord::new(Lsn(2), b"torn".to_vec());
        let (_, v) = shard_check(4, quorum, &[], &tied);
        assert_eq!(
            v,
            [
                "shard 1: acked lsn 2 lost or corrupt on promoted node 3",
                "shard 1: node 5 diverges from promoted node 3",
                "shard 1: node 7 diverges from promoted node 3",
            ]
        );
    }

    #[test]
    fn a_cut_victim_is_promotable_under_async_only() {
        // Victim 3 holds a longer, diverging log: under a quorum policy it
        // is no holder at all; under async it is the longest and wins.
        let mut victim = slot(1, 5);
        victim[1] = LogRecord::new(Lsn(1), b"torn".to_vec());
        let logs = vec![(3, victim), (5, slot(1, 4)), (7, slot(1, 4))];
        for quorum in [CommitPolicy::SemiSync(2), CommitPolicy::Sync] {
            let (digest, v) = shard_check(4, quorum, &[3], &logs);
            assert!(v.is_empty(), "{quorum}: {v:?}");
            assert_eq!(digest, shard_check(4, quorum, &[], &logs[1..2]).0);
        }
        let (_, v) = shard_check(4, CommitPolicy::Async, &[3], &logs);
        assert_eq!(
            v,
            [
                "shard 1: acked lsn 1 lost or corrupt on promoted node 3",
                "shard 1: node 5 diverges from promoted node 3",
                "shard 1: node 7 diverges from promoted node 3",
            ]
        );
        // Every holder a victim: nothing is left to promote.
        let (digest, v) = shard_check(4, CommitPolicy::SemiSync(2), &[3, 5, 7], &logs);
        assert_eq!(digest, 0);
        assert_eq!(v, ["shard 1: 4 acked commits but no eligible holder"]);
    }

    #[test]
    fn clean_fleet_releases_everything_and_drives_agree() {
        let seq = Fleet::new(base_cfg()).unwrap().run();
        assert!(seq.passed(), "{:?}", seq.violations);
        assert_eq!(seq.released, 24);
        assert_eq!(seq.clamped_posts, 0);
        assert!(seq.reads > 0);
        let par = Fleet::new(base_cfg()).unwrap().run_parallel(4);
        assert_eq!(par, seq, "parallel run diverged");
        let lock = Fleet::new(base_cfg())
            .unwrap()
            .run_with(ShardDrive::Lockstep);
        assert_eq!(lock.node_digests, seq.node_digests);
        assert_eq!(lock.shard_digests, seq.shard_digests);
        assert_eq!(lock.released, seq.released);
        assert_eq!(lock.clamped_posts, 0);
    }

    /// One replica set on per-node shards: a single shard replicated on
    /// every node of a 4-node fleet, released at 2 of 3 follower acks.
    fn one_set_cfg() -> FleetConfig {
        FleetConfig {
            nodes: 4,
            shards: 1,
            rf: 4,
            policy: CommitPolicy::SemiSync(2),
            commits_per_shard: 72,
            ..FleetConfig::default()
        }
    }

    fn rtt_us(cfg: &FleetConfig) -> f64 {
        cfg.link.one_way.as_micros_f64() * 2.0
    }

    #[test]
    fn quorum_release_waits_at_least_one_rtt() {
        let report = Fleet::new(one_set_cfg()).unwrap().run();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.released, 72);
        assert!(
            report.commit_p50_us >= rtt_us(&one_set_cfg()),
            "quorum release ({} us) beat the network round trip ({} us)",
            report.commit_p50_us,
            rtt_us(&one_set_cfg())
        );
    }

    #[test]
    fn replica_wal_appends_are_priced_by_their_own_devices() {
        // With one follower whose ack is required, the release path is
        // exactly primary append → ship → follower append → ack. On a
        // jitter-free link that is the round trip plus the primary's own
        // durability cost (what `Async` releases at) plus whatever the
        // follower's device charges for its append — which must not be free.
        let solo = |policy| FleetConfig {
            nodes: 2,
            rf: 2,
            policy,
            commits_per_shard: 12,
            link: NetLinkConfig {
                jitter_ns: 0,
                ..NetLinkConfig::default()
            },
            ..one_set_cfg()
        };
        let local = Fleet::new(solo(CommitPolicy::Async)).unwrap().run();
        let quorum = Fleet::new(solo(CommitPolicy::SemiSync(1))).unwrap().run();
        assert!(local.passed() && quorum.passed());
        let cfg = solo(CommitPolicy::Async);
        let wire_bytes = PAYLOAD_BYTES as u64 + RECORD_WIRE_OVERHEAD + ACK_WIRE_BYTES;
        let wire_us = rtt_us(&cfg) + wire_bytes as f64 / cfg.link.bytes_per_sec * 1e6;
        assert!(
            quorum.commit_p50_us > wire_us + local.commit_p50_us,
            "release latency {} us leaves no room for the follower's append \
             (wire {wire_us} us + primary {} us)",
            quorum.commit_p50_us,
            local.commit_p50_us
        );
    }

    #[test]
    fn deterministic_across_identical_builds() {
        let a = Fleet::new(one_set_cfg()).unwrap().run();
        let b = Fleet::new(one_set_cfg()).unwrap().run();
        assert_eq!(a, b);
    }

    /// Every config `Fleet::new` cannot run is an error, not a panic.
    fn bad_config(cfg: FleetConfig) -> String {
        match Fleet::new(cfg) {
            Err(WalError::BadConfig(msg)) => msg,
            Err(other) => panic!("expected BadConfig, got {other}"),
            Ok(_) => panic!("expected BadConfig, got a fleet"),
        }
    }

    #[test]
    fn lossy_link_is_a_bad_config() {
        for link in [
            NetLinkConfig {
                drop_prob: 0.1,
                ..NetLinkConfig::default()
            },
            NetLinkConfig {
                dup_prob: 0.1,
                ..NetLinkConfig::default()
            },
        ] {
            let msg = bad_config(FleetConfig { link, ..base_cfg() });
            assert!(msg.contains("drop_prob"), "{msg}");
        }
    }

    #[test]
    fn empty_run_is_a_bad_config() {
        for cfg in [
            FleetConfig {
                commits_per_shard: 0,
                ..base_cfg()
            },
            FleetConfig {
                shards: 0,
                ..base_cfg()
            },
        ] {
            assert!(bad_config(cfg).contains("must be positive"));
        }
    }

    #[test]
    fn rf_that_does_not_fit_the_fleet_is_a_bad_config() {
        for (nodes, rf) in [(2, 3), (9, 0), (0, 0)] {
            let msg = bad_config(FleetConfig {
                nodes,
                rf,
                ..base_cfg()
            });
            assert_eq!(msg, format!("rf {rf} does not fit {nodes} nodes"));
        }
    }

    #[test]
    fn stream_past_the_slot_log_is_a_bad_config() {
        for (scheme, commits_per_shard, limit) in
            [(ShipScheme::Block, 410, 409), (ShipScheme::Ba, 511, 510)]
        {
            let msg = bad_config(FleetConfig {
                scheme,
                commits_per_shard,
                ..base_cfg()
            });
            assert!(
                msg.contains(&format!("exceed the {limit} records")),
                "{msg}"
            );
        }
    }

    #[test]
    fn stream_that_fills_the_slot_log_runs_clean() {
        for (scheme, commits_per_shard) in [(ShipScheme::Block, 409), (ShipScheme::Ba, 510)] {
            let report = Fleet::new(FleetConfig {
                scheme,
                shards: 2,
                commits_per_shard,
                ..base_cfg()
            })
            .unwrap()
            .run();
            assert!(report.passed(), "{scheme:?}: {:?}", report.violations);
            assert_eq!(report.released, 2 * commits_per_shard);
        }
    }

    #[test]
    fn block_hosts_take_more_shards_than_the_pin_table_has_shares() {
        // Block slots never pin, so 17 shards fit where the 16-page buffer
        // would give a 17th pin-table share no room.
        let report = Fleet::new(FleetConfig {
            scheme: ShipScheme::Block,
            shards: 17,
            commits_per_shard: 2,
            ..base_cfg()
        })
        .unwrap()
        .run();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.released, 34);
        // BA slots each hold a mapping-table entry: the ninth is refused
        // by name.
        let msg = bad_config(FleetConfig {
            shards: 9,
            commits_per_shard: 2,
            ..base_cfg()
        });
        assert_eq!(msg, "9 slots exceed the 8-entry mapping table");
    }

    #[test]
    fn move_that_keeps_the_fenced_primary_is_a_bad_config() {
        let mut cfg = base_cfg();
        let old_set = Fleet::new(cfg.clone())
            .unwrap()
            .map()
            .replicas_of(1)
            .to_vec();
        cfg.moves = vec![ShardMove {
            shard: 1,
            at_release: 2,
            new_set: old_set.clone(),
        }];
        let msg = bad_config(cfg);
        assert_eq!(
            msg,
            format!("move of shard 1 keeps the fenced primary {}", old_set[0])
        );
    }

    #[test]
    fn shard_digests_are_placement_invariant() {
        // Same ops, different placement/fleet shapes → identical
        // per-shard digests (they fold lsn + payload only).
        let a = Fleet::new(base_cfg()).unwrap().run();
        let b = Fleet::new(FleetConfig {
            nodes: 12,
            placement: PlacementKind::Range,
            layout: DomainLayout {
                zones: 3,
                racks_per_zone: 2,
            },
            ..base_cfg()
        })
        .unwrap()
        .run();
        assert!(b.passed(), "{:?}", b.violations);
        assert_eq!(a.shard_digests, b.shard_digests);
    }

    #[test]
    fn live_move_hands_off_behind_the_fence() {
        let mut cfg = base_cfg();
        let probe = Fleet::new(cfg.clone()).unwrap();
        let old_primary = probe.map().primary_of(1);
        let new_set = (1..cfg.nodes)
            .map(|s| {
                ClusterMap::spread_from((old_primary + s) % cfg.nodes, cfg.nodes, 3, cfg.layout)
            })
            .find(|set| !set.contains(&old_primary))
            .unwrap();
        cfg.moves = vec![ShardMove {
            shard: 1,
            at_release: 2,
            new_set: new_set.clone(),
        }];
        let report = Fleet::new(cfg).unwrap().run();
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.released, 24, "live move dropped commits");
        let log = report.config_log.join("\n");
        assert!(log.contains("joint"), "no joint phase: {log}");
        assert!(log.contains("handoff"), "no handoff: {log}");
        assert!(
            log.contains(&format!("node {} leads {new_set:?} from", new_set[0])),
            "new primary never took over: {log}"
        );
    }

    #[test]
    fn zone_cut_loses_nothing_acked() {
        for placement in PlacementKind::ALL {
            let plan = ClusterFaultPlan {
                seed: 7,
                nodes: 9,
                zones: 3,
                racks_per_zone: 1,
                shards: 4,
                commits_per_shard: 8,
                scope: CutScope::Zone,
                victim: 1,
                cut_delay_ns: 150_000,
                shard_move: None,
            };
            let cfg =
                FleetConfig::from_plan(&plan, placement, CommitPolicy::SemiSync(1), ShipScheme::Ba);
            let report = Fleet::new(cfg).unwrap().run();
            assert!(report.passed(), "{placement}: {:?}", report.violations);
        }
    }

    #[test]
    fn joint_quorums_always_intersect_across_steps() {
        // The structural membership-change property, checked directly on
        // the rule constructors for a concrete reconfig.
        let old = [0usize, 3, 6];
        let new = [1usize, 4, 7];
        for policy in [CommitPolicy::SemiSync(1), CommitPolicy::Sync] {
            let stable_old = release_rule(policy, &old, 0);
            let joint = joint_rule(policy, &old, 0, &new, 1);
            let stable_new = release_rule(policy, &new, 1);
            let all: Vec<usize> = (0..9).collect();
            let quorums = |rule: &[RuleClause]| -> Vec<BTreeSet<usize>> {
                // All subsets of the 9 nodes that satisfy the rule.
                (0u32..512)
                    .map(|bits| {
                        all.iter()
                            .copied()
                            .filter(|&n| bits & (1 << n) != 0)
                            .collect::<BTreeSet<usize>>()
                    })
                    .filter(|s| rule_met(rule, s))
                    .collect()
            };
            for (a, b) in [(&stable_old, &joint), (&joint, &stable_new)] {
                for qa in quorums(a) {
                    for qb in quorums(b) {
                        assert!(
                            qa.intersection(&qb).next().is_some(),
                            "{policy:?}: disjoint quorums {qa:?} / {qb:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ba_follower_reads_beat_block_under_load() {
        let ba = Fleet::new(base_cfg()).unwrap().run();
        let block = Fleet::new(FleetConfig {
            scheme: ShipScheme::Block,
            ..base_cfg()
        })
        .unwrap()
        .run();
        assert!(ba.passed() && block.passed());
        assert!(
            ba.read_p99_us < block.read_p99_us,
            "BA read p99 {:.1} us should beat block {:.1} us",
            ba.read_p99_us,
            block.read_p99_us
        );
    }
}
