//! Property-based tests: every record the sink can write reads back as
//! itself, whatever its strings, numbers and field groups; no typed
//! input — scenario text, a frame log's bytes, a JSON-lines line —
//! panics or aborts: it reads, runs finitely, or is a typed error; and
//! a spec built field by field is refused exactly where its text is.

#![cfg(test)]

use proptest::prelude::*;

use dlb_core::workload::LoadDistribution;
use dlb_faults::{CrashFault, FaultPlan, LossFault, PartitionFault, SlowFault, SpikeFault};
use dlb_requestsim::stream::{ArrivalPlan, BurstArrivals, DiurnalArrivals, PoissonArrivals};

use crate::report::parse_jsonl;
use crate::results::Record;
use crate::runner::{run_protocol_events, trailer};
use crate::spec::AXES;
use crate::{
    replay_frame_log, AlgoSpec, DetectSpec, GossipSpec, NetSpec, RunRecord, ScenarioSpec,
    SelectSpec, SpeedKind, TraceSpec,
};

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

/// Values at the edges of every reader: signs, extremes, non-finite
/// spellings, the empty text, doubled suffixes.
const EDGES: [&str; 16] = [
    "0", "-0", "-1", "1e-300", "1e308", "inf", "nan", "", "5msms", "4xx", "1", "4", "100ms", "0.5",
    "2000", "1e10",
];

/// Every enum label and keyword value, and a few near misses.
const LABELS: [&str; 30] = [
    "sequential",
    "batched",
    "nash",
    "protocol",
    "bcd",
    "homog",
    "euclid",
    "pl",
    "const",
    "uniform",
    "exp",
    "peak",
    "exact",
    "topk:4",
    "topk:0",
    "topk:",
    "oracle",
    "adaptive",
    "timeout:200ms",
    "timeout:1e10",
    "emulated",
    "event:25ms",
    "event:100ms",
    "event:1e-300",
    "off",
    "summary",
    "frames:fuzz.dlbf",
    "frames:",
    "events",
    "threads",
];

const KINDS: [&str; 9] = [
    "crash", "loss", "spike", "part", "slow", "poisson", "burst", "diurnal", "warp",
];

const OPERANDS: [&str; 16] = [
    "0", "0.1", "0.5", "1", "2x", "4x", "1e6x", "1e308x", "100", "100ms", "1e9", "1e10ms", "-1",
    "nan", "xx", "",
];

fn pick<const N: usize>(pool: &'static [&'static str; N]) -> impl Strategy<Value = &'static str> {
    (0..N).prop_map(move |i| pool[i])
}

/// One plan primitive: `KIND:A[@B[..C]]`, from any kind and operand.
fn arb_primitive() -> impl Strategy<Value = String> {
    let tail = prop::option::of((pick(&OPERANDS), prop::option::of(pick(&OPERANDS))));
    (pick(&KINDS), pick(&OPERANDS), tail).prop_map(|(kind, a, tail)| match tail {
        None => format!("{kind}:{a}"),
        Some((b, None)) => format!("{kind}:{a}@{b}"),
        Some((b, Some(c))) => format!("{kind}:{a}@{b}..{c}"),
    })
}

/// A value for any key: an edge, a label, or one to three primitives.
fn arb_value() -> impl Strategy<Value = String> {
    prop_oneof![
        pick(&EDGES).prop_map(String::from),
        pick(&LABELS).prop_map(String::from),
        prop::collection::vec(arb_primitive(), 1..4).prop_map(|p| p.join(",")),
    ]
}

/// A token soup: `KEY=VALUE` tokens over every axis key (and an unknown
/// one), now and then a token without `=`.
fn arb_soup() -> impl Strategy<Value = String> {
    let key = (0..=AXES.len()).prop_map(|i| AXES.get(i).map_or("warp", |axis| axis.key));
    let token = (key, arb_value(), 0u8..16).prop_map(|(key, value, shape)| match shape {
        0 => value,
        _ => format!("{key}={value}"),
    });
    prop::collection::vec(token, 0..6).prop_map(|tokens| tokens.join(" "))
}

/// Values each key reads, out to the edges of its range, and some just
/// past them: what a spec that parses can hold, and what it must not.
fn accepted_values(key: &str) -> &'static [&'static str] {
    match key {
        "algo" => &[
            "protocol",
            "protocol",
            "protocol",
            "sequential",
            "batched",
            "nash",
            "bcd",
        ],
        "net" => &["homog", "euclid", "pl"],
        "m" => &["1", "2", "5", "8"],
        "lat" | "avg" => &["0", "-0", "1e-300", "20", "1e9", "1e308"],
        "load" => &["const", "uniform", "exp", "peak"],
        "speeds" => &["const", "uniform"],
        "seed" => &["0", "7", "18446744073709551615"],
        "gran" | "eps" => &["0", "1e-300", "1", "1e308"],
        "patience" => &["0", "1", "5"],
        "budget" => &["1", "5", "30"],
        "select" => &["exact", "topk:1", "topk:4", "topk:4294967295"],
        "detect" => &[
            "oracle",
            "adaptive",
            "timeout:1e-300",
            "timeout:1e9",
            "timeout:1e308",
        ],
        // `arrivals=` and `duration=` come as a pair.
        "duration" => &["1e-300 arrivals=poisson:1", "500ms arrivals=diurnal:1@1e9"],
        "gossip" => &[
            "emulated",
            "event:25ms",
            "event:1e-300",
            "event:100ms",
            "event:1e9",
        ],
        "trace" => &["off", "summary"],
        "runtime" => &["events"],
        "faults" => &[
            "crash:1e-300@0",
            "crash:1@1e-300..1e9ms",
            "loss:0.999@0..1e-300",
            "spike:1e6x@0ms..1e9ms",
            "part:0..1e9",
            "slow:0.5@1e6x",
            "slow:1@1x@100ms..200ms",
            "crash:0.5@1ms,loss:0.5,spike:4x@0..500,part:0..1e9,slow:1@1e6x",
            "spike:1e308x@0ms..10ms",
            "slow:1@1e308x",
            "part:0ms..1e308ms,crash:0.5@1ms",
        ],
        "arrivals" => &[
            "poisson:1e-300 duration=1e9",
            "poisson:2000 duration=1000",
            "burst:2000@0..1e9 duration=1e-300",
            "diurnal:2000@1e-300 duration=500ms",
            "diurnal:1@1e9ms duration=1000",
            "poisson:200,burst:2000@1e-300..500ms,diurnal:1000@100 duration=1e3",
        ],
        _ => &EDGES,
    }
}

/// A soup that parses more often than not: `algo=` and about a
/// quarter of the other keys, each once, with values from
/// [`accepted_values`] and now and then an edge value.
fn arb_accepted_soup() -> impl Strategy<Value = String> {
    let draw = (0u8..4, any::<usize>(), 0u8..10);
    prop::collection::vec(draw, AXES.len()).prop_map(|draws| {
        let tokens = AXES
            .iter()
            .zip(draws)
            .filter_map(|(axis, (keep, pick, edge))| {
                let key = axis.key;
                if keep != 0 && key != "algo" {
                    return None;
                }
                let values = accepted_values(key);
                let value = match edge {
                    0 if key != "algo" => EDGES[pick % EDGES.len()],
                    _ => values[pick % values.len()],
                };
                Some(format!("{key}={value}"))
            });
        tokens.collect::<Vec<_>>().join(" ")
    })
}

/// The bytes the scenario and plan grammars are written in.
const PUNCTUATION: &[u8] = b"=:,@. msx0123456789-e";

/// Arbitrary text, weighted towards the grammar's own punctuation.
fn arb_chars() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        (0..PUNCTUATION.len()).prop_map(|i| u32::from(PUNCTUATION[i])),
        0u32..0x80,
        0x80u32..0x11_0000,
    ];
    prop::collection::vec(ch, 0..40)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

/// A real frame log of a small faulted, streamed run, encoded.
fn recorded_log() -> Vec<u8> {
    let spec = ScenarioSpec::parse(
        "algo=protocol m=6 seed=3 budget=12 faults=crash:0.2@50ms,loss:0.1 \
         arrivals=poisson:50 duration=300",
    )
    .expect("the fixture spec parses");
    let instance = spec.build_instance();
    let mut sink = dlb_obs::MemorySink::default();
    let report = run_protocol_events(&spec, &instance, &mut sink);
    let log = dlb_obs::FrameLog {
        spec: spec.to_string(),
        events: sink.events,
        trailer: trailer(&report),
    };
    log.encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Scenario text never panics the parser, and text it accepts
    /// prints to a canonical text that parses back to the same spec.
    #[test]
    fn scenario_text_reads_or_is_refused(
        text in prop_oneof![arb_soup(), arb_accepted_soup(), arb_chars()],
    ) {
        if let Ok(spec) = ScenarioSpec::parse(&text) {
            let printed = spec.to_string();
            prop_assert_eq!(ScenarioSpec::parse(&printed), Ok(spec), "{} -> {}", text, printed);
        }
    }

    /// JSON-lines text never aborts the report parser, however deeply
    /// a line nests its brackets.
    #[test]
    fn report_lines_parse_or_are_refused(
        text in arb_chars(),
        depth in 0usize..50_000,
        open in prop_oneof![Just("["), Just("[1,"), Just("{\"a\":[")],
    ) {
        let _ = parse_jsonl(&text);
        let nest = format!("{{\"kind\":\"run\",\"x\":{}", open.repeat(depth));
        let _ = parse_jsonl(&nest);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every accepted spec runs — small and short, and without a frame
    /// log — to a finite record or a typed error, never a panic, `NaN`
    /// or `inf`.
    #[test]
    fn accepted_specs_run_finitely(text in arb_accepted_soup()) {
        let Ok(mut spec) = ScenarioSpec::parse(&text) else { return };
        prop_assume!(!matches!(spec.trace, TraceSpec::Frames(_)));
        spec.m = spec.m.min(8);
        spec.budget = spec.budget.min(30);
        spec.duration = spec.duration.min(1000.0);
        if let Ok(run) = spec.try_run_on(spec.build_instance()) {
            prop_assert!(run.wall_secs.is_finite(), "{}: wall_secs {}", spec, run.wall_secs);
            prop_assert!(run.history.iter().all(|c| c.is_finite()), "{}: {:?}", spec, run.history);
        }
    }

    /// Arbitrary bytes, and single-byte mutations of a real frame log,
    /// replay or decode to a verdict or a typed error.
    #[test]
    fn frame_log_bytes_replay_or_are_refused(
        noise in prop::collection::vec(any::<u8>(), 0..64),
        at in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let _ = replay_frame_log(&noise);
        let mut bytes = recorded_log();
        let at = at % bytes.len();
        bytes[at] = byte;
        let _ = replay_frame_log(&bytes);
        if let Ok(log) = dlb_obs::FrameLog::decode(&bytes) {
            let _ = dlb_obs::chrome::render(&log);
        }
    }
}

/// The edges of every real-valued field: signs, the extremes, the
/// non-finite values.
const EDGE_REALS: [f64; 7] = [0.0, -0.0, -1.0, 1e-300, 1e308, f64::INFINITY, f64::NAN];

/// The edges of every count: zero, one, the largest node id and one
/// past it, the largest `usize`.
const EDGE_COUNTS: [usize; 5] = [0, 1, u32::MAX as usize, u32::MAX as usize + 1, usize::MAX];

/// Field values drawn one after another: a field keeps a plausible
/// value three times in four and takes an edge value otherwise.
struct Draws(std::vec::IntoIter<u32>);

impl Draws {
    fn index(&mut self, n: usize) -> usize {
        self.0.next().expect("enough draws") as usize % n
    }

    fn edge(&mut self) -> bool {
        self.index(4) == 0
    }

    fn pick<T: Copy>(&mut self, choices: &[T]) -> T {
        choices[self.index(choices.len())]
    }

    fn real(&mut self, plain: f64) -> f64 {
        if self.edge() {
            self.pick(&EDGE_REALS)
        } else {
            plain
        }
    }

    fn count(&mut self, plain: usize) -> usize {
        if self.edge() {
            self.pick(&EDGE_COUNTS)
        } else {
            plain
        }
    }

    fn some<T>(&mut self, value: impl FnOnce(&mut Self) -> T) -> Option<T> {
        self.edge().then(|| value(self))
    }

    fn window(&mut self) -> (f64, f64) {
        (self.real(100.0), self.real(900.0))
    }

    fn faults(&mut self) -> FaultPlan {
        FaultPlan {
            crash: self.some(|d| CrashFault {
                frac: d.real(0.1),
                at_ms: d.real(500.0),
                recover_ms: d.some(|d| d.real(900.0)),
            }),
            loss: self.some(|d| LossFault {
                prob: d.real(0.05),
                window: d.some(Self::window),
            }),
            spike: self.some(|d| SpikeFault {
                factor: d.real(4.0),
                from_ms: d.real(200.0),
                to_ms: d.real(800.0),
            }),
            partition: self.some(|d| PartitionFault {
                from_ms: d.real(500.0),
                to_ms: d.real(1500.0),
            }),
            slow: self.some(|d| SlowFault {
                frac: d.real(0.05),
                factor: d.real(4.0),
                window: d.some(Self::window),
            }),
        }
    }

    fn arrivals(&mut self) -> ArrivalPlan {
        ArrivalPlan {
            poisson: self.some(|d| PoissonArrivals { rate: d.real(80.0) }),
            burst: self.some(|d| BurstArrivals {
                rate: d.real(200.0),
                from_ms: d.real(500.0),
                to_ms: d.real(900.0),
            }),
            diurnal: self.some(|d| DiurnalArrivals {
                rate: d.real(50.0),
                period_ms: d.real(2000.0),
            }),
        }
    }

    fn spec(&mut self) -> ScenarioSpec {
        use AlgoSpec::*;
        let base = ScenarioSpec::default();
        let arrivals = self.arrivals();
        let duration = if arrivals.is_empty() { 0.0 } else { 1000.0 };
        ScenarioSpec {
            algo: self.pick(&[Protocol, Protocol, Protocol, Sequential, Batched, Nash, Bcd]),
            net: self.pick(&[NetSpec::Homog, NetSpec::Euclid, NetSpec::Pl]),
            m: self.count(8),
            lat: self.real(base.lat),
            load: self.pick(&[LoadDistribution::Uniform, LoadDistribution::Peak]),
            avg: self.real(base.avg),
            speeds: self.pick(&[SpeedKind::Const, SpeedKind::Uniform]),
            seed: self.pick(&[0, 1, u64::MAX]),
            gran: self.real(base.gran),
            eps: self.real(base.eps),
            patience: self.count(base.patience),
            budget: self.count(base.budget),
            select: match self.some(|d| d.pick(&[0, 1, u32::MAX])) {
                Some(k) => SelectSpec::TopK(k),
                None => SelectSpec::Exact,
            },
            faults: self.faults(),
            detect: match self.index(3) {
                0 => DetectSpec::Timeout(self.real(200.0)),
                1 => DetectSpec::Adaptive,
                _ => DetectSpec::Oracle,
            },
            arrivals,
            duration: self.real(duration),
            gossip: match self.some(|d| d.real(100.0)) {
                Some(period_ms) => GossipSpec::Event { period_ms },
                None => GossipSpec::Emulated,
            },
            // Frame-log paths have no length cap; this one is 210 bytes.
            trace: match self.index(3) {
                0 => TraceSpec::Off,
                1 => TraceSpec::Summary,
                _ => TraceSpec::Frames(format!("{}/edge.dlbf", "e".repeat(200))),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A spec built field by field, its plans too, out to the edges of
    /// every value: `validate` accepts it exactly when its own text
    /// parses, the text then parses back to it, and otherwise the two
    /// refusals are one error.
    #[test]
    fn validate_is_parse_of_the_specs_own_text(draws in prop::collection::vec(any::<u32>(), 96)) {
        let spec = Draws(draws.into_iter()).spec();
        let text = spec.to_string();
        match (spec.validate(), ScenarioSpec::parse(&text)) {
            (Ok(()), Ok(back)) => prop_assert_eq!(back, spec, "{}", text),
            (Err(refused), Err(text_refused)) => prop_assert_eq!(refused, text_refused, "{}", text),
            (validated, parsed) => panic!("{text}: validate {validated:?}, parse {parsed:?}"),
        }
    }
}
