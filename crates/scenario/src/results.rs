//! The record plane's write side: `dlb run`, every harness and the
//! committed `BENCH_*.json` write [`Record`]s — ordered `(key, Value)`
//! rows, one flat JSON object per line — through a [`JsonlSink`], and
//! [`crate::report`] parses the same rows back. A [`RunRecord`] becomes
//! a row through one field table. Hand-rolled: no JSON crate.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::RunRecord;
use dlb_obs::json_string;

/// One JSON value. A number is held as what its JSON text reads back
/// as — an integer literal that fits `i64` is [`Value::Int`], any other
/// number [`Value::Num`] — so a record equals its own parse, and an
/// integer written as one never passes through `f64`. Non-finite
/// floats are written, and so held, as [`Value::Null`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// An integer literal.
    Int(i64),
    /// Any other (finite) number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array (the sink only writes arrays of numbers).
    Arr(Vec<Value>),
}

/// The value the JSON number literal `text` denotes, if it is one.
pub(crate) fn number(text: &str) -> Option<Value> {
    match text.parse::<i64>() {
        Ok(i) if i.to_string() == text => Some(Value::Int(i)),
        _ => text.parse().ok().map(Value::Num),
    }
}

impl From<f64> for Value {
    /// `null` if not finite, else what `{v}` (never an exponent) reads as.
    fn from(v: f64) -> Self {
        let parsed = || number(&v.to_string());
        v.is_finite().then(parsed).flatten().unwrap_or(Value::Null)
    }
}

/// The JSON text of a value.
fn json(value: &Value) -> String {
    match value {
        Value::Str(s) => json_string(s),
        Value::Int(i) => i.to_string(),
        Value::Num(v) => v.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Null => "null".into(),
        Value::Arr(items) => format!("[{}]", items.iter().map(json).collect::<Vec<_>>().join(",")),
    }
}

/// One flat JSON record: its fields in write order. This is the row a
/// sink writes, [`crate::report::parse_jsonl`] returns and
/// [`crate::report::render`] draws.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// `(key, value)` pairs in order; only the builders and the parser
    /// fill it, so every number is in the form its text reads back as.
    pub(crate) fields: Vec<(String, Value)>,
}

impl Record {
    /// Starts a record tagged with a `kind` discriminator field.
    pub fn new(kind: &str) -> Self {
        Self::default().str("kind", kind)
    }

    fn with(mut self, key: &str, value: Value) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a string field.
    pub fn str(self, key: &str, value: &str) -> Self {
        self.with(key, Value::Str(value.into()))
    }

    /// Adds a numeric field (non-finite values render as `null`).
    pub fn num(self, key: &str, value: f64) -> Self {
        self.with(key, value.into())
    }

    /// Adds an integer field.
    pub fn int(self, key: &str, value: i64) -> Self {
        self.with(key, Value::Int(value))
    }

    /// Adds a boolean field.
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.with(key, Value::Bool(value))
    }

    /// Adds an array of numbers (non-finite entries render as `null`).
    pub fn nums(self, key: &str, values: &[f64]) -> Self {
        self.with(key, Value::Arr(values.iter().map(|&v| v.into()).collect()))
    }

    /// The value of the first field named `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A runner's [`RunRecord`] under the given `kind` tag: one field
    /// per `RUN_FIELDS` row whose group the run filled.
    pub fn from_run(kind: &str, run: &RunRecord) -> Self {
        let rows = RUN_FIELDS.iter().filter(|(_, filled, _)| filled(run));
        rows.fold(Record::new(kind), |r, (key, _, get)| r.with(key, get(run)))
    }

    /// Renders the record as one JSON object.
    pub fn to_json(&self) -> String {
        let field = |(k, v): &(String, Value)| format!("{}:{}", json_string(k), json(v));
        let body: Vec<String> = self.fields.iter().map(field).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Whether a run filled a group of [`RUN_FIELDS`].
type Group = fn(&RunRecord) -> bool;
/// A field's value on a run.
type Get = fn(&RunRecord) -> Value;

const ALWAYS: Group = |_| true;
const STREAM: Group = |run| !run.stream.is_quiet();
const GOSSIP: Group = |run| !run.gossip.is_quiet();
const OBS: Group = |run| !run.obs.is_quiet();

/// The run record's fields in write order: key, group, value.
///
/// The quiet-group rule: the `ALWAYS` fields — the `fault_*` and
/// `detector_*` groups included, zeroed on quiet runs — are on every
/// record, so consumers project columns without sniffing rows. A group
/// added after records existed (`stream_*` for `arrivals=` runs,
/// `gossip_*` for `gossip=event:` runs, `obs_*` for traced runs) is
/// written only when the run filled it, so no record that could exist
/// before the group changes by a byte.
#[rustfmt::skip] // a table: one field per entry
const RUN_FIELDS: &[(&str, Group, Get)] = &[
    ("scenario", ALWAYS, |run| Value::Str(run.scenario.clone())),
    ("algo", ALWAYS, |run| Value::Str(run.algo.into())),
    ("m", ALWAYS, |run| Value::Int(run.m as i64)),
    ("initial_cost", ALWAYS, |run| run.initial_cost().into()),
    ("final_cost", ALWAYS, |run| run.final_cost().into()),
    ("iterations", ALWAYS, |run| Value::Int(run.iterations as i64)),
    ("converged", ALWAYS, |run| Value::Bool(run.converged)),
    ("wall_secs", ALWAYS, |run| run.wall_secs.into()),
    ("fault_crashes", ALWAYS, |run| Value::Int(run.faults.crashes as i64)),
    ("fault_recoveries", ALWAYS, |run| Value::Int(run.faults.recoveries as i64)),
    ("fault_dropped_frames", ALWAYS, |run| Value::Int(run.faults.dropped_frames as i64)),
    ("fault_delayed_frames", ALWAYS, |run| Value::Int(run.faults.delayed_frames as i64)),
    ("fault_extra_delay_ms", ALWAYS, |run| run.faults.extra_delay_ms.into()),
    ("detector_suspicions", ALWAYS, |run| Value::Int(run.detector.suspicions as i64)),
    ("detector_false_positives", ALWAYS, |run| Value::Int(run.detector.false_positives as i64)),
    ("detector_latency_ms", ALWAYS, |run| run.detector.detection_latency_ms.into()),
    ("detector_rejoin_ms", ALWAYS, |run| run.detector.rejoin_ms.into()),
    ("detector_aborted_exchanges", ALWAYS, |run| Value::Int(run.detector.aborted_exchanges as i64)),
    ("stream_served", STREAM, |run| Value::Int(run.stream.served as i64)),
    ("stream_dropped", STREAM, |run| Value::Int(run.stream.dropped as i64)),
    ("stream_p50_ms", STREAM, |run| run.stream.p50_ms.into()),
    ("stream_p99_ms", STREAM, |run| run.stream.p99_ms.into()),
    ("stream_imbalance_ms", STREAM, |run| run.stream.imbalance_ms.into()),
    ("gossip_frames", GOSSIP, |run| Value::Int(run.gossip.frames as i64)),
    ("gossip_bytes", GOSSIP, |run| Value::Int(run.gossip.bytes as i64)),
    ("gossip_exchanges", GOSSIP, |run| Value::Int(run.gossip.exchanges as i64)),
    ("obs_events", OBS, |run| Value::Int(run.obs.events as i64)),
    ("obs_frames", OBS, |run| Value::Int(run.obs.frames as i64)),
    ("obs_dropped", OBS, |run| Value::Int(run.obs.dropped as i64)),
    ("obs_held", OBS, |run| Value::Int(run.obs.held as i64)),
    ("obs_frame_p50_ms", OBS, |run| run.obs.frame_p50_ms.into()),
    ("obs_frame_p99_ms", OBS, |run| run.obs.frame_p99_ms.into()),
    ("history", ALWAYS, |run| Value::Arr(run.history.iter().map(|&c| c.into()).collect())),
];

/// A JSON-lines sink for one experiment.
#[derive(Debug)]
pub struct JsonlSink {
    file: Option<fs::File>,
    /// The first write that failed; [`finish`](Self::finish) hands it
    /// to whoever promised the file to a user.
    failed: Option<std::io::Error>,
}

impl JsonlSink {
    /// Opens (truncates) `<DLB_RESULTS_DIR>/<name>.jsonl`; a no-op when
    /// the variable is unset, so benches never fail on read-only
    /// filesystems.
    pub fn create(name: &str) -> Self {
        let dir = std::env::var("DLB_RESULTS_DIR").ok().map(PathBuf::from);
        let dir = dir.filter(|dir| fs::create_dir_all(dir).is_ok());
        let file = dir.and_then(|dir| fs::File::create(dir.join(format!("{name}.jsonl"))).ok());
        Self { file, failed: None }
    }

    /// Opens (truncates) an explicit path; errors propagate so callers
    /// producing committed artifacts notice a broken destination.
    pub fn create_at(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = Some(fs::File::create(path)?);
        Ok(Self { file, failed: None })
    }

    /// Appends one record as a JSON line, stamped with `host_cores` and
    /// `dlb_threads` (the pool width `DLB_THREADS` resolved to) so two
    /// result files can explain their wall-clock differences. A failed
    /// write does not stop the experiment; the first is kept for
    /// [`finish`](Self::finish).
    pub fn record(&mut self, record: &Record) {
        if let Some(f) = &mut self.file {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let stamped = (record.clone().int("host_cores", cores as i64))
                .int("dlb_threads", dlb_par::num_threads() as i64);
            let written = writeln!(f, "{}", stamped.to_json());
            if self.failed.is_none() {
                self.failed = written.err();
            }
        }
    }

    /// Closes the sink: `Err` with the first write that failed — a
    /// caller given the path by a user (`dlb --out`) must not report
    /// success over an empty file. Best-effort sinks are just dropped.
    pub fn finish(self) -> std::io::Result<()> {
        self.failed.map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_flat_json() {
        let r = Record::new("scaling")
            .int("m", 2000)
            .str("mode", "batched")
            .num("secs_per_iter", 0.25)
            .num("bad", f64::NAN)
            .bool("parallel", true);
        assert_eq!(
            r.to_json(),
            r#"{"kind":"scaling","m":2000,"mode":"batched","secs_per_iter":0.25,"bad":null,"parallel":true}"#
        );
    }

    /// A number is held as what its text reads back as: an integral
    /// float prints, and so is held, as an integer; an integer that
    /// `f64` cannot hold exactly keeps every digit.
    #[test]
    fn numbers_are_held_as_their_text_reads_back() {
        assert_eq!(Value::from(3.0), Value::Int(3));
        assert_eq!(Value::from(1.5), Value::Num(1.5));
        assert_eq!(json(&Value::from(-0.0)), "-0");
        assert_eq!(Value::from(1e300), Value::Num(1e300));
        assert_eq!(Value::from(f64::INFINITY), Value::Null);
        let seed = u64::MAX - 2;
        let r = Record::new("estimate").int("seed", seed as i64);
        assert_eq!(r.to_json(), r#"{"kind":"estimate","seed":-3}"#);
        let big = Record::new("x").int("n", i64::MAX).to_json();
        assert!(big.ends_with("\"n\":9223372036854775807}"), "{big}");
    }

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("\r\t\u{1}"), "\"\\r\\t\\u0001\"");
    }

    /// One sequential test: the env-driven sink depends on a
    /// process-wide variable, so the no-op and active cases must not
    /// run as separate (parallel) tests.
    #[test]
    fn sink_honours_results_dir_env() {
        std::env::remove_var("DLB_RESULTS_DIR");
        let mut sink = JsonlSink::create("unit_noop");
        sink.record(&Record::new("x")); // must not panic
        assert!(
            !Path::new("unit_noop.jsonl").exists(),
            "an unset DLB_RESULTS_DIR writes nowhere, the working directory included"
        );

        let dir = std::env::temp_dir().join("dlb_jsonl_test");
        std::env::set_var("DLB_RESULTS_DIR", &dir);
        let mut sink = JsonlSink::create("unit_rows");
        assert!(dir.join("unit_rows.jsonl").exists(), "opened on create");
        sink.record(&Record::new("row").int("i", 1));
        sink.record(&Record::new("row").int("i", 2).str("note", "a,b"));
        drop(sink);
        let stamp = format!(
            ",\"host_cores\":{},\"dlb_threads\":{}",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            dlb_par::num_threads()
        );
        let content = fs::read_to_string(dir.join("unit_rows.jsonl")).unwrap();
        assert_eq!(
            content,
            format!(
                "{{\"kind\":\"row\",\"i\":1{stamp}}}\n\
                 {{\"kind\":\"row\",\"i\":2,\"note\":\"a,b\"{stamp}}}\n"
            )
        );
        std::env::remove_var("DLB_RESULTS_DIR");
    }

    #[test]
    fn create_at_writes_explicit_path() {
        let path = std::env::temp_dir().join("dlb_jsonl_explicit.json");
        let mut sink = JsonlSink::create_at(&path).unwrap();
        sink.record(&Record::new("scaling").int("m", 500));
        drop(sink);
        let content = fs::read_to_string(&path).unwrap();
        assert!(
            content.starts_with("{\"kind\":\"scaling\",\"m\":500,\"host_cores\":"),
            "{content}"
        );
        assert!(content.contains("\"dlb_threads\":"), "{content}");
        let _ = fs::remove_file(path);
    }

    /// The machine-context stamp lands on every persisted line and
    /// nowhere else: `to_json` on a bare record stays stamp-free, so
    /// record *construction* is reproducible and only persistence adds
    /// the per-machine fields.
    #[test]
    fn to_json_is_unstamped() {
        let json = Record::new("row").int("i", 1).to_json();
        assert!(!json.contains("host_cores"), "{json}");
        assert!(!json.contains("dlb_threads"), "{json}");
    }
}
