//! A Linkbench-like social-graph transaction mix.

use serde::{Deserialize, Serialize};
use twob_db::PgOp;
use twob_sim::{SimRng, Zipfian};

// The published Linkbench mix (Armstrong et al., SIGMOD'13), which the
// paper describes as "read intensive with about 30 % writes": the fraction
// of each transaction type, in draw order.
const GET_LINK_LIST: f64 = 0.509;
const COUNT_LINKS: f64 = 0.049;
const GET_NODE: f64 = 0.129;
const ADD_LINK: f64 = 0.090;
const UPDATE_LINK: f64 = 0.080;
const DELETE_LINK: f64 = 0.030;
const ADD_NODE: f64 = 0.026;
const UPDATE_NODE: f64 = 0.074;
const DELETE_NODE: f64 = 0.013;

/// Total write fraction of the mix.
const WRITE_FRACTION: f64 =
    ADD_LINK + UPDATE_LINK + DELETE_LINK + ADD_NODE + UPDATE_NODE + DELETE_NODE;

// The fractions sum to 1, to within 1 %.
const _: () = {
    let sum = GET_LINK_LIST + COUNT_LINKS + GET_NODE + WRITE_FRACTION;
    assert!(sum > 0.99 && sum < 1.01, "the Linkbench mix must sum to 1");
};

/// Zipfian skew of node popularity.
const THETA: f64 = 0.85;

/// Payload bytes attached to nodes and links.
const PAYLOAD_BYTES: usize = 128;

/// Size of the Linkbench-like graph; the mix is the published one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkbenchConfig {
    /// Number of graph nodes.
    pub nodes: u64,
}

impl LinkbenchConfig {
    /// The published Linkbench mix over `nodes` nodes.
    pub fn standard(nodes: u64) -> Self {
        LinkbenchConfig { nodes }
    }
}

/// Generates Linkbench-like transactions as [`PgOp`] batches.
#[derive(Debug, Clone)]
pub struct LinkbenchWorkload {
    cfg: LinkbenchConfig,
    zipf: Zipfian,
    next_new_node: u64,
}

impl LinkbenchWorkload {
    /// Creates a generator.
    pub fn new(cfg: LinkbenchConfig) -> Self {
        LinkbenchWorkload {
            zipf: Zipfian::new(cfg.nodes, THETA),
            next_new_node: cfg.nodes,
            cfg,
        }
    }

    fn payload(&self, rng: &mut SimRng) -> Vec<u8> {
        let mut data = vec![0u8; PAYLOAD_BYTES];
        rng.fill_bytes(&mut data);
        data
    }

    /// Transactions that seed the graph: one `InsertNode` per node plus a
    /// few links, run before measurement starts.
    pub fn load_phase(&mut self, rng: &mut SimRng, links_per_node: u32) -> Vec<Vec<PgOp>> {
        let mut txns = Vec::new();
        for id in 0..self.cfg.nodes {
            let mut ops = vec![PgOp::InsertNode {
                id,
                data: self.payload(rng),
            }];
            for _ in 0..links_per_node {
                ops.push(PgOp::AddLink {
                    from: id,
                    to: rng.next_u64_below(self.cfg.nodes),
                    data: self.payload(rng),
                });
            }
            txns.push(ops);
        }
        txns
    }

    /// Draws the next transaction from the mix.
    pub fn next_txn(&mut self, rng: &mut SimRng) -> Vec<PgOp> {
        let id1 = self.zipf.sample(rng);
        let id2 = self.zipf.sample(rng);
        let mut pick = rng.next_f64();
        let mut take = |fraction: f64| {
            if pick < fraction {
                pick = 2.0; // consumed
                true
            } else {
                pick -= fraction;
                false
            }
        };
        if take(GET_LINK_LIST) {
            vec![PgOp::GetLinkList { id: id1 }]
        } else if take(COUNT_LINKS) {
            vec![PgOp::CountLinks { id: id1 }]
        } else if take(GET_NODE) {
            vec![PgOp::GetNode { id: id1 }]
        } else if take(ADD_LINK) || take(UPDATE_LINK) {
            // Linkbench's add_link and update_link both upsert a link row.
            vec![PgOp::AddLink {
                from: id1,
                to: id2,
                data: self.payload(rng),
            }]
        } else if take(DELETE_LINK) {
            vec![PgOp::DeleteLink { from: id1, to: id2 }]
        } else if take(ADD_NODE) {
            let id = self.next_new_node;
            self.next_new_node += 1;
            vec![PgOp::InsertNode {
                id,
                data: self.payload(rng),
            }]
        } else if take(UPDATE_NODE) {
            vec![PgOp::UpdateNode {
                id: id1,
                data: self.payload(rng),
            }]
        } else {
            vec![PgOp::DeleteNode { id: id1 }]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_mix_is_about_30_percent_writes() {
        assert!(
            (0.25..0.36).contains(&WRITE_FRACTION),
            "write fraction {WRITE_FRACTION}"
        );
    }

    #[test]
    fn generated_mix_matches_configured_fractions() {
        let mut rng = SimRng::seed_from(3);
        let mut wl = LinkbenchWorkload::new(LinkbenchConfig::standard(1_000));
        let n = 20_000;
        let writes = (0..n)
            .filter(|_| wl.next_txn(&mut rng).iter().any(PgOp::is_write))
            .count();
        let fraction = writes as f64 / n as f64;
        assert!(
            (fraction - WRITE_FRACTION).abs() < 0.02,
            "measured write fraction {fraction}, configured {WRITE_FRACTION}"
        );
    }

    #[test]
    fn load_phase_seeds_every_node() {
        let mut rng = SimRng::seed_from(1);
        let mut wl = LinkbenchWorkload::new(LinkbenchConfig::standard(50));
        let txns = wl.load_phase(&mut rng, 2);
        assert_eq!(txns.len(), 50);
        assert!(txns.iter().all(|t| t.len() == 3));
    }

    #[test]
    fn add_node_mints_fresh_ids() {
        let mut rng = SimRng::seed_from(5);
        let mut wl = LinkbenchWorkload::new(LinkbenchConfig::standard(10));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5_000 {
            for op in wl.next_txn(&mut rng) {
                if let PgOp::InsertNode { id, .. } = op {
                    assert!(id >= 10, "new nodes must not collide with seeds");
                    assert!(seen.insert(id), "duplicate new node id {id}");
                }
            }
        }
    }
}
