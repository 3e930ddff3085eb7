//! The centralized solvers pinned to the bit on two seeded scenarios:
//! BCD's and uncapped PGD's objective and final rows, and every
//! organization's selfish best response against the all-local start and
//! against the BCD optimum. A change to the water-filling row solver
//! that moves any uncapped result by one ulp fails here.

use delay_lb::game::best_response;
use delay_lb::prelude::*;
use delay_lb::solver::{dense_to_assignment, DenseState};

/// FNV-1a over the bit patterns of `values`.
fn fnv64(values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// `(objective bits, hash of every row)` of a solved state.
fn pin(objective: f64, state: &DenseState) -> (u64, u64) {
    (objective.to_bits(), fnv64(state.r.iter().copied()))
}

/// Hash of every organization's best response against `a`.
fn best_responses(instance: &Instance, a: &Assignment) -> u64 {
    fnv64((0..instance.len()).flat_map(|i| best_response(instance, a, i)))
}

/// `[bcd, pgd, best responses at local, best responses at the BCD
/// optimum]` for one scenario.
fn pins(scenario: &str) -> [(u64, u64); 3] {
    let spec: ScenarioSpec = scenario.parse().expect("valid scenario");
    let instance = spec.build_instance();
    let (bcd_state, bcd) = solve_bcd(&instance, 500, 1e-10);
    let (pgd_state, pgd) = solve_pgd(&instance, None);
    let optimum = dense_to_assignment(&instance, &bcd_state);
    [
        pin(bcd.objective, &bcd_state),
        pin(pgd.objective, &pgd_state),
        (
            best_responses(&instance, &Assignment::local(&instance)),
            best_responses(&instance, &optimum),
        ),
    ]
}

/// Equal speeds: the sweep sorts the bare costs.
#[test]
fn homog_equal_speeds_solvers_are_pinned() {
    assert_eq!(
        pins("net=homog m=16 seed=2 speeds=const"),
        [
            (0x40d6_bd44_cca9_d2d0, 0x6afb_ded6_d5d7_cc79),
            (0x40d6_bd44_cca9_d38e, 0xf955_3a09_a376_88c4),
            (0x26f0_7d37_4451_3367, 0xc011_4158_2c55_122a),
        ]
    );
}

/// Unequal speeds: the sweep sorts an index permutation.
#[test]
fn pl_solvers_are_pinned() {
    assert_eq!(
        pins("net=pl m=20 seed=3"),
        [
            (0x40d2_fabf_534d_0163, 0x3f40_2c87_42a7_6c89),
            (0x40d2_fabf_534d_0194, 0x6000_d921_b0d3_2346),
            (0xaf0c_3bce_101d_8f34, 0xeac6_6670_5ec1_66f6),
        ]
    );
}
