//! Two figures pinned to the bit on paths no scenario record reaches.
//!
//! The engine's `ΣC` history: accumulated exchange deltas, the cadence
//! resync, the recompute after negative-cycle removal and the one after
//! `Engine::update_loads`. No scenario axis sets cycle removal or
//! reloads, so the engine record pins never take the last two.
//!
//! The negative-cycle answer of `flow::bellman_ford::has_negative_cycle`
//! on small random edge lists, with weights drawn from −3..=3 and the
//! three non-finite values.

use delay_lb::core::rngutil::rng_for;
use delay_lb::flow::bellman_ford::{has_negative_cycle, WeightedEdge};
use delay_lb::prelude::*;
use rand::Rng;

/// FNV-1a over the little-endian bytes of `words`.
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Hash of every `history()` entry's bits.
fn history_hash(engine: &Engine) -> u64 {
    fnv64(engine.history().iter().map(|c| c.to_bits()))
}

/// `[140 iterations, the same with cycle removal every 50, 70
/// iterations + update_loads + 70]` on `net=pl m=60` at `granularity`.
fn cost_histories(granularity: f64) -> [u64; 3] {
    let spec: ScenarioSpec = "net=pl m=60".parse().expect("valid scenario");
    let instance = spec.build_instance();
    let options = EngineOptions {
        seed: 5,
        granularity,
        ..Default::default()
    };
    let run = |options: EngineOptions, reload: bool| {
        let mut engine = Engine::new(instance.clone(), options);
        for i in 0..140 {
            if reload && i == 70 {
                let m = instance.len();
                let reversed = (0..m).map(|k| instance.own_load(m - 1 - k)).collect();
                engine.update_loads(reversed);
            }
            engine.run_iteration();
        }
        history_hash(&engine)
    };
    [
        run(options, false),
        run(
            EngineOptions {
                cycle_removal_every: Some(50),
                ..options
            },
            false,
        ),
        run(options, true),
    ]
}

#[test]
fn continuous_cost_histories_are_pinned() {
    assert_eq!(
        cost_histories(0.0),
        [
            0xdbc1_3db4_0ca6_3b17,
            0x8b24_c49d_1414_88d4,
            0xb53f_f4a5_2989_6620
        ]
    );
}

#[test]
fn unit_cost_histories_are_pinned() {
    assert_eq!(
        cost_histories(1.0),
        [
            0x6631_9393_a24c_948c,
            0x9ef6_4599_8e9e_1811,
            0x9716_d90f_8083_7c1f
        ]
    );
}

/// One weight: −3..=3, `+∞`, `−∞` or `NaN`.
fn weight(rng: &mut impl Rng) -> f64 {
    match rng.gen_range(0u32..10) {
        7 => f64::INFINITY,
        8 => f64::NEG_INFINITY,
        9 => f64::NAN,
        w => f64::from(w) - 3.0,
    }
}

#[test]
fn negative_cycle_answers_are_pinned() {
    let mut rng = rng_for(52, 0xB0F0);
    let answers: Vec<u64> = (0..512)
        .map(|_| {
            let n = rng.gen_range(0usize..=8);
            let len = if n == 0 {
                0
            } else {
                rng.gen_range(0usize..=12)
            };
            let edges: Vec<WeightedEdge> = (0..len)
                .map(|_| WeightedEdge {
                    from: rng.gen_range(0..n),
                    to: rng.gen_range(0..n),
                    weight: weight(&mut rng),
                })
                .collect();
            u64::from(has_negative_cycle(n, &edges))
        })
        .collect();
    let negative = answers.iter().sum::<u64>();
    assert_eq!((negative, fnv64(answers)), (237, 0xc9e5_f9e5_b8ef_3324));
}
