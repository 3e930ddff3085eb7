//! Metric names, units and bounds: the benchmark's contract in code.
//!
//! `BENCHMARK.json` at the repository root states the same tables for
//! the pipeline; a unit test holds the two together.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Simulated statistics repeat bit for bit for one (workload,
    /// seed); host measurements do not.
    pub exact: bool,
}

/// Every workload reports every one of these, tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "cost_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "rounds",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
        exact: true,
    },
    EndToEnd {
        name: "host_us_per_round",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
];

/// One measured value with its name and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        assert!(
            valid_name(name),
            "metric name '{name}' breaks the naming rule"
        );
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// The pipeline's naming rule: starts with a letter or digit, then
/// letters, digits, `_`, `.`, `-`; at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// The pipeline's unit rule: letters, digits, `_ / % . -`; 1 to 16
/// characters.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// Prints `workload/metric value unit`, one line per metric.
pub fn print_lines(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload}/{} {} {}", m.name, m.value, m.unit);
    }
}

/// Correctness checks of one measurement: each is one attempted
/// operation, and a failed one is remembered with its reason.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub problems: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }

    /// Every failed check, on standard error.
    pub fn print_problems(&self) {
        for problem in &self.problems {
            eprintln!("FAILED {problem}");
        }
    }

    /// The result line the pipeline reads: the last line of standard
    /// output, one JSON object.
    pub fn result_line(&self, metrics: &[Metric]) -> String {
        let metrics = Json::obj(metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        }));
        Json::obj([
            ("correct", Json::Bool(self.passed())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.problems.len() as f64)),
            ("metrics", metrics),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer_metrics::PER_LAYER;
    use crate::workloads::WORKLOADS;

    #[test]
    fn names_follow_the_rule() {
        for good in [
            "run_wall_s",
            "runtime.round_host_ms_p50",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".hidden", "-x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("us") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("µs") && !valid_unit("seventeen_letters_"));
    }

    #[test]
    fn every_declared_metric_is_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for m in END_TO_END {
            assert!(
                valid_unit(m.unit) && m.bound >= 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut checks = Checks::default();
        checks.check(true, || unreachable!());
        checks.check(false, || "boom".into());
        let line = checks.result_line(&[Metric::new("run_wall_s", 15.25, "s")]);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(2.0));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(1.0));
        let m = doc.get("metrics").unwrap().get("run_wall_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(15.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    /// `BENCHMARK.json` is what the pipeline reads; the tables above
    /// are what the binaries print. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables_in_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("{key} is not an array"),
        };
        let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
            assert_eq!(
                j.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            assert_eq!(field(j, "better"), m.better.label());
        }
        let workloads = list("workloads");
        let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
        assert_eq!(workloads.len(), gated.len());
        for (j, w) in workloads.iter().zip(gated) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why);
        }
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(crate::workloads::RUN_SECONDS as f64)
        );
    }
}
