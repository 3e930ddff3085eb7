//! The centralized solver pinned to the bit on two seeded scenarios:
//! BCD's objective and final rows, uncapped and under the R = 3
//! replication caps, and every organization's selfish best response
//! against the all-local start and against the BCD optimum. A change to
//! the water-filling row solver that moves any result by one ulp fails
//! here. Below them, objectives recorded from an independent solver
//! hold the capped and uncapped solves to 1e-6.

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

/// `[bcd, bcd under R = 3, best responses at local, best responses at
/// the BCD optimum]` for one scenario.
fn pins(scenario: &str) -> [(u64, u64); 3] {
    let spec: ScenarioSpec = scenario.parse().expect("valid scenario");
    let instance = spec.build_instance();
    let (bcd_state, bcd) = solve_bcd(&instance, 500, 1e-10, None);
    let caps = replication_caps(&instance, 3);
    let (capped_state, capped) = solve_bcd(&instance, 500, 1e-10, Some(&caps));
    let optimum = dense_to_assignment(&instance, &bcd_state);
    [
        pin(bcd.objective, &bcd_state),
        pin(capped.objective, &capped_state),
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
            (0x40db_cdfe_7cea_85aa, 0x3fd3_acbd_04bf_42a3),
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
            (0x40de_19f9_bf13_9497, 0xa775_debf_9e3e_2136),
            (0xaf0c_3bce_101d_8f34, 0xeac6_6670_5ec1_66f6),
        ]
    );
}

/// `ΣC` that FISTA projected gradient descent, the solver that
/// preceded capped BCD here, reached at a relative Frank–Wolfe gap of
/// 1e-7, on `(net, m, seed)` with
/// uncapped rows and under the R-replication caps `r_kj ≤ n_k / R` for
/// `R = 2, 3, 5`. An optimum oracle for the capped path that does not
/// depend on block-coordinate descent.
#[rustfmt::skip] // a table: one scenario per entry
const RECORDED_OBJECTIVES: [(&str, usize, u64, [f64; 4]); 12] = [
    ("homog", 12, 1, [2006.3929713199468, 4115.823376815668, 5032.712048451361, 5806.437250709968]),
    ("homog", 12, 2, [10189.707079911635, 12557.051866121854, 13966.423272734099, 15509.822298192088]),
    ("homog", 30, 1, [28913.40595457345, 38985.176906188324, 43634.361527271474, 47997.048648843585]),
    ("homog", 30, 2, [25949.20771986438, 36543.44482782673, 40976.37164265645, 44829.86038983542]),
    ("homog", 60, 1, [39596.879323025605, 55048.75626257472, 62825.3836835358, 70152.22987461781]),
    ("homog", 60, 2, [60321.71040930944, 77499.42258946225, 88649.2509064046, 98345.82951231928]),
    ("pl", 12, 1, [1918.2643520444537, 5035.885321104045, 7323.09092574739, 9981.442554003108]),
    ("pl", 12, 2, [12439.289583863907, 17649.825163798865, 21458.532193819545, 28957.220184553902]),
    ("pl", 30, 1, [30587.981770509316, 41720.3177427211, 50701.81236748869, 64262.84379074563]),
    ("pl", 30, 2, [26606.710440465497, 35193.61608894767, 43503.668036741794, 54710.0479390729]),
    ("pl", 60, 1, [38014.74274344208, 45842.15651640169, 54365.16438917902, 69323.8313735766]),
    ("pl", 60, 2, [60036.362919276566, 69502.71350526335, 80182.95514768735, 97943.60656429167]),
];

/// The replication caps `r_kj ≤ n_k / r` (row-major, `m²` entries).
fn replication_caps(instance: &Instance, r: usize) -> Vec<f64> {
    let m = instance.len();
    (0..m * m)
        .map(|idx| instance.own_load(idx / m) / r as f64)
        .collect()
}

/// Solves every recorded scenario of `net` and checks the objective
/// against the record (1e-6 relative), every entry against its cap and
/// every row against its budget (1e-12 relative). The objective is the
/// check, not the gap: on `net=pl m=60 seed=2` at `R = 3` capped BCD is
/// on a slow tail, and its 2 000 sweeps end at a gap of 3.4e-2 with ΣC
/// 1.1e-7 above the record.
fn meets_recorded_objectives(net: &str) {
    for &(_, m, seed, recorded) in RECORDED_OBJECTIVES.iter().filter(|row| row.0 == net) {
        let spec: ScenarioSpec = format!("net={net} m={m} seed={seed}").parse().unwrap();
        let instance = spec.build_instance();
        for (r, want) in [None, Some(2), Some(3), Some(5)].into_iter().zip(recorded) {
            let caps = r.map(|r| replication_caps(&instance, r));
            let (state, report) = solve_bcd(&instance, 2_000, 1e-7, caps.as_deref());
            let at = format!("net={net} m={m} seed={seed} R={r:?}");
            assert!(
                (report.objective - want).abs() <= 1e-6 * want,
                "{at}: ΣC {} vs recorded {want}",
                report.objective
            );
            for k in 0..m {
                let (row, n_k) = (state.row(k), instance.own_load(k));
                if let Some(caps) = &caps {
                    assert!(
                        row.iter().zip(&caps[k * m..]).all(|(x, cap)| x <= cap),
                        "{at}: row {k} over a cap"
                    );
                }
                let sum: f64 = row.iter().sum();
                assert!(
                    (sum - n_k).abs() <= 1e-12 * n_k,
                    "{at}: row {k} sums to {sum}, not {n_k}"
                );
            }
        }
    }
}

#[test]
fn homog_solves_meet_the_recorded_objectives() {
    meets_recorded_objectives("homog");
}

#[test]
fn pl_solves_meet_the_recorded_objectives() {
    meets_recorded_objectives("pl");
}
