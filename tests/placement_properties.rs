//! Randomised property tests of the retire-time placement strategies:
//! for *any* trace, every strategy must produce a valid physical
//! placement (injective into the line, within per-cluster capacity), and
//! chain state must evolve monotonically under pinning.
//!
//! Cases are drawn from the vendored [`Pcg32`] generator so the suite
//! runs offline; a failing assertion reports the case seed.

use ctcp::core::assign::{
    baseline_placement, friendly_placement, FdrtAssigner, FdrtConfig, MapChainStore, SlotFillOrder,
};
use ctcp::core::{ClusterGeometry, Topology};
use ctcp::isa::{Instruction, Opcode, Reg};
use ctcp::tracecache::{ChainRole, ExecFeedback, PendingInst, ProfileFields, RawTrace};
use ctcp::workload::Pcg32;

const CASES: u64 = 64;

/// A random (possibly dependent) instruction.
fn arb_inst(r: &mut Pcg32) -> Instruction {
    let d = Reg::int(r.index(8) as u8);
    let a = Reg::int(r.index(8) as u8);
    let b = Reg::int(r.index(8) as u8);
    match r.index(5) {
        0 => Instruction::new(Opcode::Add, Some(d), Some(a), Some(b), 0),
        1 => Instruction::new(Opcode::Xor, Some(d), Some(a), Some(b), 0),
        2 => Instruction::new(Opcode::Mul, Some(d), Some(a), Some(b), 0),
        3 => Instruction::new(Opcode::Ld, Some(d), Some(a), None, 8),
        _ => Instruction::new(Opcode::St, None, Some(a), Some(b), 8),
    }
}

fn arb_trace(r: &mut Pcg32, max_len: usize) -> RawTrace {
    let len = r.range(1, max_len as i64 + 1) as usize;
    let insts: Vec<PendingInst> = (0..len)
        .map(|i| {
            let crit = if r.chance(0.5) {
                Some(r.index(2) as u8)
            } else {
                None
            };
            PendingInst {
                seq: i as u64,
                index: i as u32,
                pc: 0x1000 + 4 * i as u64,
                inst: arb_inst(r),
                profile: ProfileFields::default(),
                tc_loc: None,
                feedback: ExecFeedback {
                    critical_src: crit,
                    critical_forwarded: crit.is_some(),
                    ..ExecFeedback::default()
                },
                taken: None,
            }
        })
        .collect();
    RawTrace::analyze(insts)
}

fn assert_valid_placement(placement: &[u8], n: usize, geom: &ClusterGeometry) {
    assert_eq!(placement.len(), n);
    let capacity = geom.total_slots();
    let mut used = vec![false; capacity];
    for &s in placement {
        assert!((s as usize) < capacity, "slot {s} out of range");
        assert!(!used[s as usize], "slot {s} assigned twice");
        used[s as usize] = true;
    }
    // Per-cluster occupancy can never exceed slots_per_cluster by
    // construction of slots, but check it anyway for documentation value.
    let mut per = vec![0u8; geom.clusters as usize];
    for &s in placement {
        per[geom.cluster_of_slot(s) as usize] += 1;
    }
    assert!(per.iter().all(|&c| c <= geom.slots_per_cluster));
}

#[test]
fn baseline_is_the_identity() {
    for n in 1usize..=16 {
        let p = baseline_placement(n);
        assert_eq!(p, (0..n as u8).collect::<Vec<_>>());
    }
}

#[test]
fn friendly_placements_are_valid() {
    for case in 0..CASES {
        let mut r = Pcg32::seed_from_u64(0xF1 ^ case);
        let trace = arb_trace(&mut r, 16);
        let geom = ClusterGeometry::default();
        for order in [SlotFillOrder::Sequential, SlotFillOrder::MiddleFirst] {
            let p = friendly_placement(&trace, &geom, order);
            assert_valid_placement(&p, trace.len(), &geom);
        }
    }
}

#[test]
fn friendly_handles_two_cluster_geometry() {
    for case in 0..CASES {
        let mut r = Pcg32::seed_from_u64(0xF2 ^ case);
        let trace = arb_trace(&mut r, 8);
        let geom = ClusterGeometry {
            clusters: 2,
            slots_per_cluster: 4,
            ..ClusterGeometry::default()
        };
        let p = friendly_placement(&trace, &geom, SlotFillOrder::Sequential);
        assert_valid_placement(&p, trace.len(), &geom);
    }
}

#[test]
fn fdrt_placements_are_valid() {
    for case in 0..CASES {
        let mut r = Pcg32::seed_from_u64(0xF3 ^ case);
        let geom = ClusterGeometry::default();
        let mut assigner = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        for _ in 0..r.range(1, 6) {
            let mut t = arb_trace(&mut r, 16);
            let p = assigner.assign(&mut t, &geom, &mut store);
            assert_valid_placement(&p, t.len(), &geom);
        }
    }
}

#[test]
fn fdrt_option_counts_are_conserved() {
    for case in 0..CASES {
        let mut r = Pcg32::seed_from_u64(0xF4 ^ case);
        let geom = ClusterGeometry::default();
        let mut assigner = FdrtAssigner::new(FdrtConfig::default());
        let mut store = MapChainStore::new();
        let mut total = 0u64;
        for _ in 0..r.range(1, 6) {
            let mut t = arb_trace(&mut r, 16);
            total += t.len() as u64;
            assigner.assign(&mut t, &geom, &mut store);
        }
        let s = assigner.stats();
        assert_eq!(
            s.options.iter().sum::<u64>() + s.skipped,
            total,
            "case {case}"
        );
    }
}

/// The 8-cluster machines: the widest geometry the engine takes, where
/// a neighbour list is longest (7 clusters under full connection) and a
/// ring wraps its ends together.
fn eight_cluster_geometries() -> Vec<ClusterGeometry> {
    let mut out = Vec::new();
    for topology in [Topology::Ring, Topology::FullyConnected] {
        for slots_per_cluster in [2, 4] {
            out.push(ClusterGeometry {
                clusters: 8,
                slots_per_cluster,
                topology,
            });
        }
    }
    out
}

#[test]
fn friendly_placements_are_valid_on_eight_clusters() {
    for geom in eight_cluster_geometries() {
        for case in 0..CASES {
            let mut r = Pcg32::seed_from_u64(0xF6 ^ case);
            let trace = arb_trace(&mut r, geom.total_slots());
            for order in [SlotFillOrder::Sequential, SlotFillOrder::MiddleFirst] {
                let p = friendly_placement(&trace, &geom, order);
                assert_valid_placement(&p, trace.len(), &geom);
            }
        }
    }
}

#[test]
fn fdrt_placements_are_valid_on_eight_clusters() {
    for geom in eight_cluster_geometries() {
        for case in 0..CASES {
            let mut r = Pcg32::seed_from_u64(0xF7 ^ case);
            let mut assigner = FdrtAssigner::new(FdrtConfig::default());
            let mut store = MapChainStore::new();
            let mut total = 0u64;
            for _ in 0..r.range(1, 6) {
                let mut t = arb_trace(&mut r, geom.total_slots());
                // Chain members on any of the eight clusters drive
                // options B and C, whose priority lists are the longest.
                for inst in &mut t.insts {
                    if r.chance(0.4) {
                        inst.profile = ProfileFields {
                            role: ChainRole::Follower,
                            chain_cluster: Some(r.index(8) as u8),
                        };
                    }
                }
                total += t.len() as u64;
                let p = assigner.assign(&mut t, &geom, &mut store);
                assert_valid_placement(&p, t.len(), &geom);
            }
            let s = assigner.stats();
            assert_eq!(
                s.options.iter().sum::<u64>() + s.skipped,
                total,
                "{geom:?} case {case}"
            );
        }
    }
}

#[test]
fn intra_trace_analysis_is_well_formed() {
    for case in 0..CASES {
        let mut r = Pcg32::seed_from_u64(0xF5 ^ case);
        let trace = arb_trace(&mut r, 16);
        for (i, producers) in trace.intra_producers.iter().enumerate() {
            for p in producers.iter().flatten() {
                // A producer is strictly older and actually writes the
                // register the consumer reads.
                assert!((*p as usize) < i);
                let dest = trace.insts[*p as usize].inst.dest;
                assert!(dest.is_some());
                let consumed: Vec<_> = trace.insts[i].inst.sources().collect();
                assert!(consumed.contains(&dest.unwrap()));
            }
        }
        // has_intra_consumer agrees with intra_producers.
        for (w, &flag) in trace.has_intra_consumer.iter().enumerate() {
            let referenced = trace
                .intra_producers
                .iter()
                .any(|ps| ps.iter().flatten().any(|&p| p as usize == w));
            assert_eq!(flag, referenced, "case {case} slot {w}");
        }
    }
}

#[test]
fn pinned_chain_state_never_changes_role_back() {
    // Once a slot is a Leader under pinning, further assigns must not
    // demote it or move its cluster.
    use ctcp::tracecache::TcLocation;
    let geom = ClusterGeometry::default();
    let mut assigner = FdrtAssigner::new(FdrtConfig::default());
    let mut store = MapChainStore::new();
    let loc = TcLocation {
        line_id: 1,
        slot: 0,
    };
    store.insert(loc, ProfileFields::default());

    for round in 0..10u8 {
        let producer = ctcp::tracecache::ProducerInfo {
            pc: 0x500,
            cluster: round % 4, // producer "executes" somewhere new each time
            same_trace: false,
            role: ChainRole::None,
            chain_cluster: None,
            tc_location: Some(loc),
        };
        let mut insts = vec![PendingInst {
            seq: 0,
            index: 0,
            pc: 0x1000,
            inst: Instruction::new(Opcode::Add, Some(Reg::R1), Some(Reg::R2), Some(Reg::R3), 0),
            profile: ProfileFields::default(),
            tc_loc: None,
            feedback: ExecFeedback {
                executed_cluster: 0,
                src_producers: [Some(producer), None],
                critical_src: Some(0),
                critical_forwarded: true,
            },
            taken: None,
        }];
        let mut t = RawTrace::analyze(std::mem::take(&mut insts));
        assigner.assign(&mut t, &geom, &mut store);
        let p = store.get(loc).unwrap();
        assert_eq!(p.role, ChainRole::Leader);
        // Cluster pinned at the first promotion (round 0 -> cluster 0).
        assert_eq!(p.chain_cluster, Some(0));
    }
}
