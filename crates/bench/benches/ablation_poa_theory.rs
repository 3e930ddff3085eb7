//! Ablation (Theorem 1): measured homogeneous price of anarchy vs. the
//! closed-form band `1 + 2cs/l_av ± O((cs/l_av)²)`.
//!
//! Two checks: (a) equilibria found by best-response dynamics never
//! exceed the upper bound; (b) the tightness construction from the
//! proof actually sits inside the band, i.e. the band is not vacuous.
//!
//! Run: `cargo bench -p dlb-bench --bench ablation_poa_theory`.

use dlb_core::cost::total_cost;
use dlb_core::{Assignment, Instance};
use dlb_scenario::results::{JsonlSink, Record};
use dlb_solver::game::poa::{cost_ratio, load_spread};
use dlb_solver::game::{
    run_best_response_dynamics, theorem1_bounds, theorem1_tight_equilibrium, DynamicsOptions,
};

fn main() {
    let mut sink = JsonlSink::create("ablation_poa_theory");
    let m = 40;
    let s = 1.0;
    let c = 20.0;
    println!("\n== Theorem 1 — homogeneous price of anarchy vs closed-form band ==");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "l_av", "lower", "upper", "tight-eq", "measured", "spread"
    );
    for &l_av in &[50.0, 100.0, 200.0, 500.0, 1000.0] {
        let instance = Instance::homogeneous(m, s, c, l_av);
        let (lo, hi) = theorem1_bounds(c, s, l_av);
        // Optimal: equal initial loads need no relaying.
        let opt = Assignment::local(&instance);

        // The tightness construction (requires l_av >= 2cs).
        let tight_ratio = if l_av >= 2.0 * c * s {
            let eq = theorem1_tight_equilibrium(&instance);
            cost_ratio(&instance, &eq, &opt)
        } else {
            f64::NAN
        };

        // Measured equilibrium from best-response dynamics.
        let mut nash = Assignment::local(&instance);
        run_best_response_dynamics(
            &instance,
            &mut nash,
            &DynamicsOptions {
                change_threshold: 1e-8,
                ..Default::default()
            },
        );
        let measured = total_cost(&instance, &nash) / total_cost(&instance, &opt);
        sink.record(
            &Record::new("table_row")
                .str("table", "ablation_poa_theory")
                .num("l_av", l_av)
                .num("lower", lo)
                .num("upper", hi)
                .num("tight_eq", tight_ratio)
                .num("measured", measured)
                .num("spread", load_spread(&nash)),
        );
        println!(
            "{l_av:>8.0} {lo:>10.4} {hi:>10.4} {tight_ratio:>12.4} {measured:>12.4} {:>10.2}",
            load_spread(&nash)
        );
        assert!(
            measured <= hi + 1e-6,
            "measured PoA {measured} violates Theorem 1 upper bound {hi}"
        );
    }
    println!(
        "\npaper: PoA = 1 + 2cs/l_av + O((cs/l_av)^2); spread obeys Lemma 3 (<= c*s = {})",
        c * s
    );
}
