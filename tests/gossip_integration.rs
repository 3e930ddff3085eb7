//! The gossip layer and the engine working together: loads
//! disseminated by delta gossip feed the partner-selection heuristic,
//! and the engine tolerates the resulting staleness.

use delay_lb::distributed::mine::PartnerSelection;
use delay_lb::gossip::wire::{decode_delta, encode_delta, DeltaFrame, WireEntry};
use delay_lb::prelude::*;

/// Cold-starts a gossip network on `loads` over the instance's own
/// links and runs it to full dissemination — within 40 periods.
fn disseminate(instance: &Instance, loads: &[f64], seed: u64) -> DeltaGossip {
    let mut gossip = DeltaGossip::new(loads, seed, DeltaGossipConfig::default());
    let (complete, _) = gossip.run_until_complete(4_000.0, |i, j| instance.c(i, j) / 2.0);
    assert!(complete, "dissemination took more than 4 s of virtual time");
    gossip
}

#[test]
fn gossip_views_converge_to_real_loads() {
    let mut rng = delay_lb::core::rngutil::rng_for(1, 1300);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 50.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(LatencyMatrix::homogeneous(64, 20.0), &mut rng);
    let a = Assignment::local(&instance);
    let gossip = disseminate(&instance, a.loads(), 3);
    for node in 0..64 {
        assert_eq!(gossip.loads()[node], a.loads());
    }
}

#[test]
fn gossiped_views_yield_the_theorem1_band_at_every_node() {
    let mut rng = delay_lb::core::rngutil::rng_for(2, 1301);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Uniform,
        avg_load: 100.0,
        speeds: SpeedDistribution::Constant(1.0),
    }
    .sample(LatencyMatrix::homogeneous(100, 20.0), &mut rng);
    let gossip = disseminate(&instance, instance.own_loads(), 5);
    let truth = theorem1_bounds(20.0, 1.0, instance.average_load());
    // Every node can evaluate the Theorem 1 PoA band locally: `l_av`
    // is the mean of the view gossip left it with.
    for view in gossip.loads() {
        let l_av = view.iter().sum::<f64>() / view.len() as f64;
        assert_eq!(theorem1_bounds(20.0, 1.0, l_av), truth);
    }
}

#[test]
fn stale_views_cost_little() {
    let mut rng = delay_lb::core::rngutil::rng_for(3, 1302);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 60.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(LatencyMatrix::homogeneous(80, 20.0), &mut rng);
    let run = |period_ms: Option<f64>| {
        let mut engine = Engine::new(
            instance.clone(),
            EngineOptions {
                seed: 4,
                parallel: false,
                selection: Some(PartnerSelection::Pruned { top_k: 6 }),
                ..Default::default()
            },
        );
        if let Some(period_ms) = period_ms {
            engine.attach_gossip_feed(period_ms);
        }
        engine.run_to_convergence(1e-12, 3, 200).final_cost
    };
    let fresh = run(None);
    let stale = run(Some(100.0));
    assert!(
        stale <= fresh * 1.01,
        "gossip-fed result {stale} vs fresh {fresh}"
    );
}

#[test]
fn load_views_survive_the_wire() {
    let mut rng = delay_lb::core::rngutil::rng_for(4, 1303);
    let instance = WorkloadSpec {
        loads: LoadDistribution::Exponential,
        avg_load: 40.0,
        speeds: SpeedDistribution::paper_uniform(),
    }
    .sample(LatencyMatrix::homogeneous(32, 20.0), &mut rng);
    let a = Assignment::local(&instance);
    let entries: Vec<WireEntry> = a
        .loads()
        .iter()
        .enumerate()
        .map(|(origin, &load)| WireEntry {
            origin: origin as u32,
            version: 1,
            load,
        })
        .collect();
    let frame = DeltaFrame {
        shard: 0,
        since: vec![entries.len() as u64],
        changed: vec![],
        full: entries,
    };
    let decoded = decode_delta(encode_delta(&frame)).expect("wire roundtrip");
    assert_eq!(decoded, frame);
}
