//! Failure-domain-aware shard placement.
//!
//! A fleet is a flat list of nodes labelled with `(zone, rack)` by a
//! [`DomainLayout`]; [`ClusterMap::build`] places `rf` replicas of every
//! logical shard onto distinct nodes, spreading them across failure
//! domains: first choice prefers an unused *zone*, then an unused *rack*,
//! then any unused node. With `zones >= rf` (the sweeps run 3 zones,
//! rf=3), every shard ends up zone-disjoint, so a whole-zone power cut can
//! take at most one replica of any shard — the structural half of the
//! cluster durability guarantee.
//!
//! Two placement functions pick each shard's *anchor* node:
//!
//! - [`PlacementKind::Hash`] — splitmix64 of the shard id, modulo the
//!   fleet: uniform, placement history-free;
//! - [`PlacementKind::Range`] — contiguous shard ranges onto contiguous
//!   nodes (`shard * nodes / shards`): preserves shard order locality.
//!
//! The walk from the anchor is deterministic in `(kind, shards, nodes,
//! layout, rf)` alone — no RNG — so the same cluster shape always yields
//! the same map, and the property tests can replay placement decisions
//! byte for byte.

use std::fmt;

/// Zone/rack labelling of a node fleet.
///
/// Nodes are dealt round-robin over `zones * racks_per_zone` racks, so
/// consecutive node indices land in different zones — the layout every
/// real deployment approximates when it stripes hosts across facilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainLayout {
    /// Availability zones.
    pub zones: u32,
    /// Racks inside each zone.
    pub racks_per_zone: u32,
}

impl DomainLayout {
    /// Three zones, one rack each — the smallest rf=3 zone-disjoint shape.
    pub fn three_zones() -> Self {
        DomainLayout {
            zones: 3,
            racks_per_zone: 1,
        }
    }

    /// Total rack count.
    pub fn racks(&self) -> u32 {
        self.zones * self.racks_per_zone
    }

    /// The global rack index of `node`.
    pub fn rack_of(&self, node: usize) -> u32 {
        (node as u32) % self.racks().max(1)
    }

    /// The zone index of `node`.
    pub fn zone_of(&self, node: usize) -> u32 {
        self.rack_of(node) / self.racks_per_zone.max(1)
    }

    /// Every node index (within `nodes`) in the given rack.
    pub fn nodes_in_rack(&self, nodes: usize, rack: u32) -> Vec<usize> {
        (0..nodes).filter(|&n| self.rack_of(n) == rack).collect()
    }

    /// Every node index (within `nodes`) in the given zone.
    pub fn nodes_in_zone(&self, nodes: usize, zone: u32) -> Vec<usize> {
        (0..nodes).filter(|&n| self.zone_of(n) == zone).collect()
    }
}

/// How shard anchors map onto the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementKind {
    /// splitmix64(shard) % nodes — uniform, history-free.
    Hash,
    /// shard * nodes / shards — contiguous ranges, order-preserving.
    Range,
}

impl PlacementKind {
    /// Both placements, sweep order.
    pub const ALL: [PlacementKind; 2] = [PlacementKind::Hash, PlacementKind::Range];
}

impl fmt::Display for PlacementKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementKind::Hash => write!(f, "hash"),
            PlacementKind::Range => write!(f, "range"),
        }
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The placement of every shard's replica set across the fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterMap {
    nodes: usize,
    layout: DomainLayout,
    /// `replicas[shard]` — node indices, primary first.
    replicas: Vec<Vec<usize>>,
}

impl ClusterMap {
    /// Places `rf` replicas of each of `shards` shards onto `nodes` nodes
    /// labelled by `layout`, domain-spread from each shard's anchor.
    ///
    /// # Panics
    ///
    /// If `rf` is zero or exceeds the fleet.
    pub fn build(
        kind: PlacementKind,
        shards: u16,
        nodes: usize,
        rf: usize,
        layout: DomainLayout,
    ) -> ClusterMap {
        assert!(rf > 0 && rf <= nodes, "rf {rf} does not fit {nodes} nodes");
        let mut replicas = Vec::with_capacity(usize::from(shards));
        for shard in 0..u64::from(shards) {
            let anchor = match kind {
                PlacementKind::Hash => (splitmix64(shard) % nodes as u64) as usize,
                PlacementKind::Range => (shard as usize * nodes) / usize::from(shards).max(1),
            };
            replicas.push(Self::spread(anchor, nodes, rf, layout));
        }
        ClusterMap {
            nodes,
            layout,
            replicas,
        }
    }

    /// The replica set a shard anchored at `anchor` gets — the building
    /// block movers use to pick a destination set for a live shard move.
    pub fn spread_from(anchor: usize, nodes: usize, rf: usize, layout: DomainLayout) -> Vec<usize> {
        Self::spread(anchor, nodes, rf, layout)
    }

    /// Walks the fleet from `anchor`, greedily preferring nodes in unused
    /// zones, then unused racks, then any unused node.
    fn spread(anchor: usize, nodes: usize, rf: usize, layout: DomainLayout) -> Vec<usize> {
        let mut set = vec![anchor];
        let mut zones = vec![layout.zone_of(anchor)];
        let mut racks = vec![layout.rack_of(anchor)];
        for pass in 0..3 {
            for step in 1..nodes {
                if set.len() == rf {
                    return set;
                }
                let cand = (anchor + step) % nodes;
                if set.contains(&cand) {
                    continue;
                }
                let (zone, rack) = (layout.zone_of(cand), layout.rack_of(cand));
                let ok = match pass {
                    0 => !zones.contains(&zone),
                    1 => !racks.contains(&rack),
                    _ => true,
                };
                if ok {
                    set.push(cand);
                    zones.push(zone);
                    racks.push(rack);
                }
            }
        }
        assert_eq!(set.len(), rf, "fleet of {nodes} cannot host rf={rf}");
        set
    }

    /// Fleet size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The fleet's domain labelling.
    pub fn layout(&self) -> DomainLayout {
        self.layout
    }

    /// Shard count.
    pub fn shards(&self) -> u16 {
        self.replicas.len() as u16
    }

    /// The replica set of `shard`, primary first.
    pub fn replicas_of(&self, shard: u16) -> &[usize] {
        &self.replicas[usize::from(shard)]
    }

    /// The primary node of `shard`.
    pub fn primary_of(&self, shard: u16) -> usize {
        self.replicas[usize::from(shard)][0]
    }

    /// Every shard hosted on `node` (as primary or follower).
    pub fn shards_on(&self, node: usize) -> Vec<u16> {
        (0..self.shards())
            .filter(|&s| self.replicas_of(s).contains(&node))
            .collect()
    }

    /// Replaces `shard`'s replica set (a completed move or reconfig).
    ///
    /// # Panics
    ///
    /// If the new set repeats a node or leaves the fleet.
    pub fn reassign(&mut self, shard: u16, new_replicas: Vec<usize>) {
        assert!(!new_replicas.is_empty());
        for (i, &n) in new_replicas.iter().enumerate() {
            assert!(n < self.nodes, "node {n} outside the fleet");
            assert!(!new_replicas[..i].contains(&n), "node {n} repeated");
        }
        self.replicas[usize::from(shard)] = new_replicas;
    }

    /// The maximum number of replicas any single shard loses when every
    /// node of `victims` dies at once — the correlated-failure blast
    /// radius of the placement.
    pub fn max_loss(&self, victims: &[usize]) -> usize {
        (0..self.shards())
            .map(|s| {
                self.replicas_of(s)
                    .iter()
                    .filter(|n| victims.contains(n))
                    .count()
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_disjoint_when_zones_cover_rf() {
        for kind in PlacementKind::ALL {
            for nodes in [6, 9, 12, 15] {
                let layout = DomainLayout {
                    zones: 3,
                    racks_per_zone: 2,
                };
                let map = ClusterMap::build(kind, 8, nodes, 3, layout);
                for s in 0..8 {
                    let set = map.replicas_of(s);
                    assert_eq!(set.len(), 3);
                    let mut zones: Vec<u32> = set.iter().map(|&n| layout.zone_of(n)).collect();
                    zones.sort_unstable();
                    zones.dedup();
                    assert_eq!(
                        zones.len(),
                        3,
                        "{kind} shard {s} not zone-disjoint: {set:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn zone_cut_never_kills_a_quorum() {
        let layout = DomainLayout::three_zones();
        for kind in PlacementKind::ALL {
            let map = ClusterMap::build(kind, 6, 12, 3, layout);
            for zone in 0..3 {
                let victims = layout.nodes_in_zone(12, zone);
                assert!(
                    map.max_loss(&victims) <= 1,
                    "{kind}: zone {zone} cut loses a quorum"
                );
            }
        }
    }

    #[test]
    fn placement_is_deterministic_and_kinds_differ() {
        let layout = DomainLayout::three_zones();
        let a = ClusterMap::build(PlacementKind::Hash, 8, 12, 3, layout);
        let b = ClusterMap::build(PlacementKind::Hash, 8, 12, 3, layout);
        assert_eq!(a, b);
        let c = ClusterMap::build(PlacementKind::Range, 8, 12, 3, layout);
        assert_ne!(a, c, "hash and range should place differently at 8x12");
    }

    #[test]
    fn range_placement_is_order_preserving() {
        let map = ClusterMap::build(PlacementKind::Range, 4, 12, 3, DomainLayout::three_zones());
        let anchors: Vec<usize> = (0..4).map(|s| map.primary_of(s)).collect();
        let mut sorted = anchors.clone();
        sorted.sort_unstable();
        assert_eq!(anchors, sorted, "range anchors out of order: {anchors:?}");
    }

    #[test]
    fn shards_on_inverts_replicas_of() {
        let map = ClusterMap::build(PlacementKind::Hash, 6, 9, 3, DomainLayout::three_zones());
        for node in 0..9 {
            for s in map.shards_on(node) {
                assert!(map.replicas_of(s).contains(&node));
            }
        }
        let hosted: usize = (0..9).map(|n| map.shards_on(n).len()).sum();
        assert_eq!(hosted, 6 * 3, "every replica hosted exactly once");
    }

    #[test]
    fn reassign_replaces_the_set() {
        let mut map = ClusterMap::build(PlacementKind::Hash, 4, 9, 3, DomainLayout::three_zones());
        map.reassign(2, vec![1, 4, 7]);
        assert_eq!(map.replicas_of(2), &[1, 4, 7]);
        assert_eq!(map.primary_of(2), 1);
    }
}
