//! The committed `BENCH_*.json` artifacts are the corpus of scenario
//! texts this repository has actually emitted — some from before the
//! `runtime=` key was retired. Every one must still parse, and must
//! print back byte for byte (minus the obsolete ` runtime=events`):
//! the guard that the spec's text form keeps its key order and number
//! formatting.

use dlb_scenario::ScenarioSpec;
use std::collections::BTreeSet;

const ARTIFACTS: [&str; 6] = [
    "BENCH_detector.json",
    "BENCH_faults.json",
    "BENCH_figure2.json",
    "BENCH_gossip.json",
    "BENCH_obs.json",
    "BENCH_streaming.json",
];

/// The four scenario texts of the retired `BENCH_runtime.json` (its
/// speed claims live in `benchmark/` now): the corpus's only `avg=`
/// with sixteen significant digits and its only `load=peak …
/// patience=13 budget=12` forms.
const RETIRED_TEXTS: [&str; 4] = [
    "algo=protocol net=pl m=100 load=peak avg=1000 seed=7 eps=0.000000001 patience=13 budget=12 runtime=events",
    "algo=protocol net=pl m=300 load=peak avg=333.3333333333333 seed=7 eps=0.000000001 patience=13 budget=12 runtime=events",
    "algo=protocol net=pl m=1000 load=peak avg=100 seed=7 eps=0.000000001 patience=13 budget=12 runtime=events",
    "algo=protocol net=pl m=2000 load=peak seed=7 eps=0.000000001 patience=13 budget=12 runtime=events",
];

#[test]
fn committed_scenario_texts_parse_and_reprint_to_themselves() {
    const FIELD: &str = "\"scenario\":\"";
    let mut corpus: Vec<(&str, String)> = Vec::new();
    for name in ARTIFACTS {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        let json = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        for (at, _) in json.match_indices(FIELD) {
            let text = &json[at + FIELD.len()..];
            let text = &text[..text.find('"').expect("closing quote")];
            corpus.push((name, text.to_string()));
        }
    }
    corpus.extend(RETIRED_TEXTS.map(|text| ("RETIRED_TEXTS", text.to_string())));
    let mut distinct = BTreeSet::new();
    let mut obsolete = 0;
    for (name, text) in &corpus {
        let spec = ScenarioSpec::parse(text).unwrap_or_else(|e| panic!("{name}: '{text}': {e}"));
        assert_eq!(
            spec.to_string(),
            text.replace(" runtime=events", ""),
            "{name}"
        );
        obsolete += usize::from(text.contains(" runtime=events"));
        distinct.insert(text);
    }
    // A scan that silently matched nothing would pass the loop above.
    assert_eq!((corpus.len(), distinct.len()), (39, 35));
    assert!(obsolete > 0, "the corpus still carries runtime=events");
}
