//! Equivalence of the engine's scoring control planes: partner
//! pre-scoring fed by the real delta-gossip protocol
//! (`gossip=event:PERIODms`) must land at the same quality as fresh
//! scoring on the same pruned selection — the paper's claim that
//! gossip-disseminated views are good enough to balance on (§IV),
//! checked against actual protocol traffic.
//!
//! This file is its own test binary so the `DLB_THREADS` mutations
//! cannot race with unrelated tests.

use dlb_distributed::mine::PartnerSelection;
use dlb_distributed::{ConvergenceReport, Engine, EngineOptions};
use dlb_scenario::runner::GOSSIP_TOP_K;
use dlb_scenario::{AlgoSpec, GossipSpec, RunRecord, ScenarioSpec};

fn base() -> ScenarioSpec {
    "algo=sequential net=pl m=60 seed=5 budget=300"
        .parse()
        .unwrap()
}

/// `base()` fed by delta gossip every 100 virtual ms.
const EVENT: GossipSpec = GossipSpec::Event { period_ms: 100.0 };

/// Fresh scoring on the forced-pruned selection the gossip axis uses:
/// the engine on live loads, isolating staleness from pruning.
fn fresh_pruned(spec: ScenarioSpec) -> ConvergenceReport {
    let options = EngineOptions {
        seed: spec.seed,
        selection: Some(PartnerSelection::Pruned {
            top_k: GOSSIP_TOP_K,
        }),
        ..Default::default()
    };
    let mut engine = Engine::new(spec.build_instance(), options);
    engine.run_to_convergence(spec.eps, spec.patience, spec.budget)
}

#[test]
fn real_gossip_views_land_within_one_percent_of_fresh_scoring() {
    let fresh = fresh_pruned(base());
    let event = ScenarioSpec {
        gossip: EVENT,
        ..base()
    };
    let event = event.run();
    assert!(fresh.converged && event.converged);
    let f = fresh.final_cost;
    // The acceptance bar: real per-server gossip views are near-fresh
    // (the protocol runs ⌈log2 m⌉× faster than the balancer, so views
    // lag by a fraction of an iteration).
    assert!(
        (event.final_cost() - f).abs() <= f * 0.01,
        "event final {} vs fresh {f}",
        event.final_cost()
    );
    // The gossip-fed engine stays near the unpruned exact-selection
    // fixpoint too.
    let exact = base().run();
    assert!(exact.converged);
    assert!(event.final_cost() <= exact.final_cost() * 1.05);
    // Only the event control plane moves real bytes.
    assert!(exact.gossip.is_quiet());
    assert!(!event.gossip.is_quiet(), "{:?}", event.gossip);
    assert!(event.gossip.bytes > 0 && event.gossip.exchanges > 0);
}

#[test]
fn gossip_fed_records_are_bit_identical_across_thread_counts() {
    let spec = ScenarioSpec {
        algo: AlgoSpec::Batched,
        gossip: EVENT,
        ..base()
    };
    let mut records: Vec<RunRecord> = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var("DLB_THREADS", threads);
        records.push(spec.run());
        records.push(spec.run()); // repeat under the same count
    }
    std::env::remove_var("DLB_THREADS");
    // Engine runs report real wall time; zero it before comparing the
    // rest of the record bit for bit.
    for r in records.iter_mut() {
        r.wall_secs = 0.0;
    }
    for r in &records[1..] {
        assert_eq!(records[0], *r, "RunRecord diverged");
    }
    assert!(records[0].converged);
    assert!(!records[0].gossip.is_quiet());
}

/// FNV-1a-64 over the bits of a cost history, eight bytes per entry.
fn history_hash(history: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in history.iter().flat_map(|c| c.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Gossip-fed engine runs on the shapes the frame path sees: the
/// `engine_gossip_pl_m500` ledger workload's own scenario (108
/// iterations of six seconds' budget), the same net at another seed,
/// a sequential sweep on a Euclidean net gossiping twice as often, and
/// a wide homogeneous net. Each pins its iteration count, the bits of
/// its cost history and the metered gossip traffic, so a frame that
/// ships, meters or merges one entry differently fails here.
#[test]
fn gossip_records_are_pinned() {
    let cases = [
        (
            "algo=batched net=pl m=500 gossip=event:100ms patience=108 budget=108 seed=1",
            108,
            0x8255_1949_b109_2810,
            (972_500, 2_000_534_480, 485_905),
        ),
        (
            "algo=batched net=pl m=500 gossip=event:100ms budget=30 seed=7",
            30,
            0x88ef_f39e_803b_7ca2,
            (270_500, 820_626_160, 134_895),
        ),
        (
            "algo=sequential net=euclid m=450 gossip=event:50ms budget=20 seed=3",
            20,
            0x96ed_5fc6_b791_3a96,
            (162_450, 521_843_900, 80_831),
        ),
        (
            "algo=batched net=homog m=700 gossip=event:100ms budget=15 seed=2",
            15,
            0xffad_8d13_6ebf_f9f8,
            (210_700, 447_621_980, 105_000),
        ),
    ];
    for (text, iterations, hash, traffic) in cases {
        let record = text.parse::<ScenarioSpec>().unwrap().run();
        let got = (
            record.iterations,
            history_hash(&record.history),
            (
                record.gossip.frames,
                record.gossip.bytes,
                record.gossip.exchanges,
            ),
        );
        assert_eq!(got, (iterations, hash, traffic), "{text}");
    }
}
