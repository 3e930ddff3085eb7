//! The committed `BENCH_*.json` artifacts are the corpus of scenario
//! texts this repository has actually emitted — some from before the
//! `runtime=` key was retired. Every one must still parse, and must
//! print back byte for byte (minus the obsolete ` runtime=events`):
//! the guard that the spec's text form keeps its key order and number
//! formatting.

use dlb_scenario::ScenarioSpec;
use std::collections::BTreeSet;

const ARTIFACTS: [&str; 7] = [
    "BENCH_detector.json",
    "BENCH_faults.json",
    "BENCH_figure2.json",
    "BENCH_gossip.json",
    "BENCH_obs.json",
    "BENCH_runtime.json",
    "BENCH_streaming.json",
];

#[test]
fn committed_scenario_texts_parse_and_reprint_to_themselves() {
    const FIELD: &str = "\"scenario\":\"";
    let mut total = 0;
    let mut distinct = BTreeSet::new();
    let mut obsolete = 0;
    for name in ARTIFACTS {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for (at, _) in json.match_indices(FIELD) {
            let text = &json[at + FIELD.len()..];
            let text = &text[..text.find('"').expect("closing quote")];
            let spec =
                ScenarioSpec::parse(text).unwrap_or_else(|e| panic!("{name}: '{text}': {e}"));
            assert_eq!(
                spec.to_string(),
                text.replace(" runtime=events", ""),
                "{name}"
            );
            total += 1;
            obsolete += usize::from(text.contains(" runtime=events"));
            distinct.insert(text.to_string());
        }
    }
    // A scan that silently matched nothing would pass the loop above.
    assert_eq!((total, distinct.len()), (39, 35));
    assert!(obsolete > 0, "the corpus still carries runtime=events");
}
