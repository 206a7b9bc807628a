//! Property-based tests of the workload generators and executor.

use proptest::prelude::*;
use twob_sim::{SimDuration, SimRng, SimTime};
use twob_workloads::{
    parse_trace, ClientPool, LinkbenchConfig, LinkbenchWorkload, TraceOp, YcsbConfig, YcsbWorkload,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The client pool conserves operations and its makespan is bounded by
    /// the serial sum and below by the perfect-parallel bound.
    #[test]
    fn client_pool_bounds(
        services in prop::collection::vec(1u64..10_000, 1..100),
        clients in 1usize..16
    ) {
        let mut pool = ClientPool::new(clients);
        for &s in &services {
            let (c, at) = pool.next_client();
            pool.complete(c, at + SimDuration::from_nanos(s));
        }
        let total: u64 = services.iter().sum();
        let makespan = pool.makespan().saturating_since(SimTime::ZERO).as_nanos();
        prop_assert!(makespan <= total, "makespan beyond serial time");
        prop_assert!(
            makespan >= total / clients as u64,
            "makespan beats perfect parallelism"
        );
        prop_assert_eq!(pool.ops(), services.len() as u64);
    }

    /// The YCSB read fraction is honored for any seed and keyspace.
    #[test]
    fn ycsb_mix_matches_fraction(records in 1u64..1_000, seed in any::<u64>()) {
        let mut wl = YcsbWorkload::new(YcsbConfig::workload_a(records, 16));
        let mut rng = SimRng::seed_from(seed);
        let n = 2_000;
        let updates = (0..n).filter(|_| wl.next_op(&mut rng).is_update()).count();
        let measured = 1.0 - updates as f64 / n as f64;
        let configured = YcsbConfig::READ_FRACTION;
        prop_assert!(
            (measured - configured).abs() < 0.06,
            "measured read fraction {measured} vs configured {configured}"
        );
    }

    /// Linkbench transactions always reference nodes the generator could
    /// know about (seeded range or freshly minted IDs).
    #[test]
    fn linkbench_ids_are_plausible(nodes in 2u64..500, seed in any::<u64>()) {
        let mut wl = LinkbenchWorkload::new(LinkbenchConfig::standard(nodes));
        let mut rng = SimRng::seed_from(seed);
        let mut minted = nodes;
        for _ in 0..200 {
            for op in wl.next_txn(&mut rng) {
                use twob_db::PgOp;
                let ids: Vec<u64> = match &op {
                    PgOp::InsertNode { id, .. } => {
                        // Fresh IDs are handed out sequentially.
                        prop_assert_eq!(*id, minted);
                        minted += 1;
                        vec![]
                    }
                    PgOp::UpdateNode { id, .. }
                    | PgOp::DeleteNode { id }
                    | PgOp::GetNode { id }
                    | PgOp::GetLinkList { id }
                    | PgOp::CountLinks { id } => vec![*id],
                    PgOp::AddLink { from, to, .. } => vec![*from, *to],
                    PgOp::DeleteLink { from, to } => vec![*from, *to],
                };
                for id in ids {
                    prop_assert!(id < nodes, "id {id} outside the seeded range");
                }
            }
        }
    }

    /// The trace parser is total: arbitrary text never panics, and every
    /// accepted line round-trips through the documented format.
    #[test]
    fn trace_parser_is_total(lines in prop::collection::vec(".*", 0..20)) {
        let text = lines.join("\n");
        let _ = parse_trace(&text); // must not panic
    }

    /// Well-formed traces parse to exactly their ops.
    #[test]
    fn trace_roundtrip(
        ops in prop::collection::vec((0u8..4, 0u64..1000, 1u32..8), 0..40)
    ) {
        let mut text = String::new();
        let mut expected = Vec::new();
        for (kind, lba, pages) in ops {
            match kind {
                0 => {
                    text.push_str(&format!("W {lba} {pages}\n"));
                    expected.push(TraceOp::Write { lba, pages });
                }
                1 => {
                    text.push_str(&format!("R {lba} {pages}\n"));
                    expected.push(TraceOp::Read { lba, pages });
                }
                2 => {
                    text.push_str(&format!("T {lba} {pages}\n"));
                    expected.push(TraceOp::Trim { lba, pages });
                }
                _ => {
                    text.push_str("F\n");
                    expected.push(TraceOp::Flush);
                }
            }
        }
        prop_assert_eq!(parse_trace(&text).unwrap(), expected);
    }
}
