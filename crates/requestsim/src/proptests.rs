//! Property-based tests for the arrival-plan text grammar: arbitrary
//! plans survive plan → text → parse bit-exactly, matching the
//! coverage the `dlb-faults` plan grammar has.

#![cfg(test)]

use proptest::prelude::*;

use crate::stream::{ArrivalPlan, BurstArrivals, DiurnalArrivals, PoissonArrivals};

/// Virtual instants that keep `start + gap > start` exactly
/// representable, so windows built from them stay strictly ordered.
fn arb_ms() -> impl Strategy<Value = f64> {
    0.0f64..1e5
}

fn arb_gap() -> impl Strategy<Value = f64> {
    0.5f64..1e5
}

/// Strictly positive arrival rates (req/s).
fn arb_rate() -> impl Strategy<Value = f64> {
    0.01f64..1e4
}

fn arb_poisson() -> impl Strategy<Value = PoissonArrivals> {
    arb_rate().prop_map(|rate| PoissonArrivals { rate })
}

fn arb_burst() -> impl Strategy<Value = BurstArrivals> {
    (arb_rate(), arb_ms(), arb_gap()).prop_map(|(rate, from_ms, gap)| BurstArrivals {
        rate,
        from_ms,
        to_ms: from_ms + gap,
    })
}

fn arb_diurnal() -> impl Strategy<Value = DiurnalArrivals> {
    (arb_rate(), arb_gap()).prop_map(|(rate, period_ms)| DiurnalArrivals { rate, period_ms })
}

fn arb_plan() -> impl Strategy<Value = ArrivalPlan> {
    (
        proptest::option::of(arb_poisson()),
        proptest::option::of(arb_burst()),
        proptest::option::of(arb_diurnal()),
    )
        .prop_map(|(poisson, burst, diurnal)| ArrivalPlan {
            poisson,
            burst,
            diurnal,
        })
}

proptest! {
    /// Every plan survives Display → parse bit-exactly: `{}` renders
    /// the shortest decimal that re-parses to the same f64, so the
    /// text form is lossless.
    #[test]
    fn plan_text_roundtrip(plan in arb_plan()) {
        let text = plan.to_string();
        let back = ArrivalPlan::parse(&text)
            .unwrap_or_else(|e| panic!("'{text}' failed to re-parse: {e}"));
        prop_assert_eq!(back, plan);
    }

    /// The text form is a fixpoint: rendering the re-parsed plan
    /// yields the same string.
    #[test]
    fn display_is_canonical(plan in arb_plan()) {
        let text = plan.to_string();
        let back: ArrivalPlan = text.parse().unwrap();
        prop_assert_eq!(back.to_string(), text);
    }

    /// Garbage never parses: appending an unknown process is always
    /// rejected, whatever valid prefix precedes it.
    #[test]
    fn garbage_is_rejected(plan in arb_plan(), pick in 0usize..6) {
        const NOISE: [&str; 6] = ["bogus", "pareto", "poissonx", "burst2", "trace", "x"];
        let noise = NOISE[pick];
        let text = plan.to_string();
        let garbled = if text.is_empty() {
            format!("{noise}:1")
        } else {
            format!("{text},{noise}:1")
        };
        prop_assert!(ArrivalPlan::parse(&garbled).is_err());
    }

    /// Compilation is deterministic in `(seed, duration, weights)`
    /// regardless of how the plan reached it. Rates are clamped low so
    /// the schedules stay small.
    #[test]
    fn compile_is_pure(
        poisson in proptest::option::of(0.01f64..50.0),
        seed in any::<u64>(),
        duration in 0.0f64..2000.0,
    ) {
        let plan = ArrivalPlan {
            poisson: poisson.map(|rate| PoissonArrivals { rate }),
            ..ArrivalPlan::default()
        };
        let a = plan.compile(seed, duration, &[1.0, 2.0]);
        let b: ArrivalPlan = plan.to_string().parse().unwrap();
        prop_assert_eq!(a, b.compile(seed, duration, &[1.0, 2.0]));
    }
}
