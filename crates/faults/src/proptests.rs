//! Property-based tests for the fault-plan text grammar: arbitrary
//! plans survive plan → text → parse bit-exactly, matching the
//! coverage the `dlb-gossip` wire codec has.

#![cfg(test)]

use proptest::prelude::*;

use crate::plan::{CrashFault, FaultPlan, LossFault, PartitionFault, SlowFault, SpikeFault};

/// Virtual instants that keep `start + gap > start` exactly
/// representable, so windows built from them stay strictly ordered.
fn arb_ms() -> impl Strategy<Value = f64> {
    0.0f64..1e5
}

fn arb_gap() -> impl Strategy<Value = f64> {
    0.5f64..1e5
}

fn arb_window() -> impl Strategy<Value = (f64, f64)> {
    (arb_ms(), arb_gap()).prop_map(|(a, d)| (a, a + d))
}

/// Fractions in `(0, 1]`.
fn arb_frac() -> impl Strategy<Value = f64> {
    (0.0f64..1.0).prop_map(|x| 1.0 - x)
}

fn arb_crash() -> impl Strategy<Value = CrashFault> {
    (arb_frac(), arb_ms(), proptest::option::of(arb_gap())).prop_map(|(frac, at_ms, gap)| {
        CrashFault {
            frac,
            at_ms,
            recover_ms: gap.map(|d| at_ms + d),
        }
    })
}

fn arb_loss() -> impl Strategy<Value = LossFault> {
    (0.0f64..1.0, proptest::option::of(arb_window()))
        .prop_map(|(prob, window)| LossFault { prob, window })
}

fn arb_spike() -> impl Strategy<Value = SpikeFault> {
    (1.0f64..100.0, arb_window()).prop_map(|(factor, (from_ms, to_ms))| SpikeFault {
        factor,
        from_ms,
        to_ms,
    })
}

fn arb_partition() -> impl Strategy<Value = PartitionFault> {
    arb_window().prop_map(|(from_ms, to_ms)| PartitionFault { from_ms, to_ms })
}

fn arb_slow() -> impl Strategy<Value = SlowFault> {
    (
        arb_frac(),
        1.0f64..100.0,
        proptest::option::of(arb_window()),
    )
        .prop_map(|(frac, factor, window)| SlowFault {
            frac,
            factor,
            window,
        })
}

fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        proptest::option::of(arb_crash()),
        proptest::option::of(arb_loss()),
        proptest::option::of(arb_spike()),
        proptest::option::of(arb_partition()),
        proptest::option::of(arb_slow()),
    )
        .prop_map(|(crash, loss, spike, partition, slow)| FaultPlan {
            crash,
            loss,
            spike,
            partition,
            slow,
        })
}

proptest! {
    /// Every plan survives Display → parse bit-exactly: `{}` renders
    /// the shortest decimal that re-parses to the same f64, so the
    /// text form is lossless.
    #[test]
    fn plan_text_roundtrip(plan in arb_plan()) {
        let text = plan.to_string();
        let back = FaultPlan::parse(&text)
            .unwrap_or_else(|e| panic!("'{text}' failed to re-parse: {e}"));
        prop_assert_eq!(back, plan);
    }

    /// The text form is a fixpoint: rendering the re-parsed plan
    /// yields the same string.
    #[test]
    fn display_is_canonical(plan in arb_plan()) {
        let text = plan.to_string();
        let back: FaultPlan = text.parse().unwrap();
        prop_assert_eq!(back.to_string(), text);
    }

    /// Compilation is deterministic in `(seed, m)` regardless of how
    /// the plan reached it.
    #[test]
    fn compile_is_pure(plan in arb_plan(), seed in any::<u64>(), m in 1usize..64) {
        let a = plan.compile(seed, m);
        let b: FaultPlan = plan.to_string().parse().unwrap();
        prop_assert_eq!(a, b.compile(seed, m));
    }
}
