//! Property-based tests: every record the sink can write reads back as
//! itself, whatever its strings, numbers and field groups.

#![cfg(test)]

use proptest::prelude::*;

use crate::report::parse_jsonl;
use crate::results::Record;
use crate::{AlgoSpec, RunRecord};

/// Text over the whole of Unicode, weighted towards ASCII so quotes,
/// backslashes and control characters turn up often.
fn arb_text() -> impl Strategy<Value = String> {
    let ch = prop_oneof![0u32..0x80, 0x80u32..0x11_0000];
    prop::collection::vec(ch, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// Floats from every bit pattern (NaN, infinities, -0, subnormals, the
/// integers `f64` cannot hold exactly) plus plainly integral ones.
fn arb_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (-1_000_000i64..1_000_000).prop_map(|i| i as f64),
        -1e6f64..1e6,
    ]
}

/// One builder call: key, which builder, and each builder's argument.
type Field = (String, u8, String, f64, i64, bool, Vec<f64>);

fn add(r: Record, (key, which, s, x, i, b, xs): Field) -> Record {
    match which {
        0 => r.str(&key, &s),
        1 => r.num(&key, x),
        2 => r.int(&key, i),
        3 => r.bool(&key, b),
        _ => r.nums(&key, &xs),
    }
}

/// A record built through the builders, each field of a random kind.
fn arb_record() -> impl Strategy<Value = Record> {
    let field = (
        arb_text(),
        0u8..5,
        arb_text(),
        arb_f64(),
        any::<i64>(),
        any::<bool>(),
        prop::collection::vec(arb_f64(), 0..6),
    );
    (arb_text(), prop::collection::vec(field, 0..8))
        .prop_map(|(kind, fields)| fields.into_iter().fold(Record::new(&kind), add))
}

/// A run record with each optional field group filled or quiet at
/// random.
fn arb_run() -> impl Strategy<Value = RunRecord> {
    (
        arb_text(),
        prop::collection::vec(arb_f64(), 0..6),
        any::<u64>(),
        any::<u64>(),
        arb_f64(),
        arb_f64(),
        0u8..8,
    )
        .prop_map(|(scenario, history, n, count, x, y, filled)| {
            let on = |bit: u8| filled & (1 << bit) != 0;
            let mut run = RunRecord {
                scenario,
                algo: AlgoSpec::ALL[n as usize % AlgoSpec::ALL.len()].label(),
                m: n as usize,
                history,
                iterations: count as usize,
                converged: n % 2 == 0,
                wall_secs: x,
                faults: dlb_faults::FaultSummary {
                    crashes: n as u32,
                    recoveries: count as u32,
                    dropped_frames: n,
                    delayed_frames: count,
                    extra_delay_ms: y,
                },
                detector: dlb_runtime::DetectorSummary {
                    suspicions: count as u32,
                    false_positives: n as u32,
                    detection_latency_ms: x,
                    rejoin_ms: y,
                    aborted_exchanges: 1,
                },
                stream: Default::default(),
                gossip: Default::default(),
                obs: Default::default(),
            };
            if on(0) {
                run.stream = dlb_runtime::StreamSummary {
                    served: n,
                    dropped: count,
                    p50_ms: x,
                    p99_ms: y,
                    imbalance_ms: 1.5,
                };
            }
            if on(1) {
                run.gossip = crate::GossipTraffic {
                    frames: n,
                    bytes: count,
                    exchanges: 1,
                    delta_entries: n,
                    full_entries: count,
                };
            }
            if on(2) {
                run.obs = dlb_obs::ObsSummary {
                    events: n | 1,
                    frames: count,
                    dropped: n,
                    held: count,
                    frame_p50_ms: x,
                    frame_p99_ms: y,
                };
            }
            run
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A JSON-lines document of builder-made records parses back to
    /// exactly those records: strings, every float the builders accept
    /// (non-finite ones as `null`), every `i64`, arrays.
    #[test]
    fn written_records_read_back_as_themselves(records in prop::collection::vec(arb_record(), 1..4)) {
        let text: Vec<String> = records.iter().map(Record::to_json).collect();
        prop_assert_eq!(parse_jsonl(&text.join("\n")).unwrap(), records);
    }

    /// The same for run records, whichever optional groups they carry.
    #[test]
    fn run_records_read_back_as_themselves(run in arb_run()) {
        let record = Record::from_run("run", &run);
        prop_assert_eq!(parse_jsonl(&record.to_json()).unwrap(), vec![record]);
    }
}
