//! Self-describing JSON-lines results output.
//!
//! `dlb run` and every experiment harness append one flat JSON object
//! per measurement — [`Record::from_run`] is the shape of a
//! [`RunRecord`] — so [`crate::report`] renders them all without
//! per-file schemas. Hand-rolled: the dependency set has no JSON crate.
//!
//! Two sinks are provided:
//! * [`JsonlSink::create`] — the environment-driven sink harnesses use:
//!   writes `<DLB_RESULTS_DIR>/<name>.jsonl`, and is a silent no-op
//!   when the variable is unset (so benches never fail on read-only
//!   filesystems),
//! * [`JsonlSink::create_at`] — an explicit-path sink for committed
//!   artifacts such as the repo-root `BENCH_figure2.json` scaling
//!   record.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::RunRecord;

/// One flat JSON record under construction. Field order is preserved.
#[derive(Debug, Clone, Default)]
pub struct Record {
    fields: Vec<(String, String)>,
}

impl Record {
    /// Starts a record tagged with a `kind` discriminator field.
    pub fn new(kind: &str) -> Self {
        let mut r = Self::default();
        r.push_raw("kind", json_string(kind));
        r
    }

    fn push_raw(&mut self, key: &str, rendered: String) {
        self.fields.push((key.to_string(), rendered));
    }

    /// Adds a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.push_raw(key, json_string(value));
        self
    }

    /// Adds a numeric field (non-finite values render as `null`).
    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.push_raw(key, json_number(value));
        self
    }

    /// Adds an integer field.
    pub fn int(mut self, key: &str, value: i64) -> Self {
        self.push_raw(key, value.to_string());
        self
    }

    /// Adds a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.push_raw(key, value.to_string());
        self
    }

    /// Adds a JSON array of numbers (non-finite entries render as
    /// `null`).
    pub fn nums(mut self, key: &str, values: &[f64]) -> Self {
        let body: Vec<String> = values.iter().map(|&v| json_number(v)).collect();
        self.push_raw(key, format!("[{}]", body.join(",")));
        self
    }

    /// Flattens a runner's [`RunRecord`] —
    /// scenario text, summary costs, and the full cost trajectory —
    /// under the given `kind` tag. This is the one shape every CLI
    /// command and ported harness emits, so `dlb report` renders them
    /// all the same way.
    ///
    /// Record shape, v3: the `fault_*` and `detector_*` field groups
    /// are always present (zeroed on quiet runs). v1 omitted `fault_*`
    /// on fault-free records, which made downstream schemas dependent
    /// on the scenario's content; a stable shape lets `dlb report` and
    /// external consumers project columns without sniffing rows.
    /// v3 appends the `stream_*` group — but only on streamed runs
    /// (`arrivals=` scenarios): the group is new, so emitting it
    /// unconditionally would silently reshape every existing
    /// no-stream record (and break the CI byte-identity check against
    /// pre-stream output). Streamed scenarios are themselves new, so
    /// conditioning on `stream.is_quiet()` changes no record that
    /// could exist before v3. The `gossip_*` group follows the same
    /// rule: emitted only when the run's `gossip=event:...` control
    /// plane actually moved bytes. v4 adds the `obs_*` group under the
    /// same quiet-group rule: emitted only when the run's `trace=`
    /// mode actually observed events, so untraced records keep the v3
    /// shape byte for byte.
    pub fn from_run(kind: &str, run: &RunRecord) -> Self {
        let mut r = Record::new(kind)
            .str("scenario", &run.scenario)
            .str("algo", run.algo)
            .int("m", run.m as i64)
            .num("initial_cost", run.initial_cost())
            .num("final_cost", run.final_cost())
            .int("iterations", run.iterations as i64)
            .bool("converged", run.converged)
            .num("wall_secs", run.wall_secs)
            .int("fault_crashes", run.faults.crashes as i64)
            .int("fault_recoveries", run.faults.recoveries as i64)
            .int("fault_dropped_frames", run.faults.dropped_frames as i64)
            .int("fault_delayed_frames", run.faults.delayed_frames as i64)
            .num("fault_extra_delay_ms", run.faults.extra_delay_ms)
            .int("detector_suspicions", run.detector.suspicions as i64)
            .int(
                "detector_false_positives",
                run.detector.false_positives as i64,
            )
            .num("detector_latency_ms", run.detector.detection_latency_ms)
            .num("detector_rejoin_ms", run.detector.rejoin_ms)
            .int(
                "detector_aborted_exchanges",
                run.detector.aborted_exchanges as i64,
            );
        if !run.stream.is_quiet() {
            r = r
                .int("stream_served", run.stream.served as i64)
                .int("stream_dropped", run.stream.dropped as i64)
                .num("stream_p50_ms", run.stream.p50_ms)
                .num("stream_p99_ms", run.stream.p99_ms)
                .num("stream_imbalance_ms", run.stream.imbalance_ms);
        }
        if !run.gossip.is_quiet() {
            r = r
                .int("gossip_frames", run.gossip.frames as i64)
                .int("gossip_bytes", run.gossip.bytes as i64)
                .int("gossip_exchanges", run.gossip.exchanges as i64);
        }
        if !run.obs.is_quiet() {
            r = r
                .int("obs_events", run.obs.events as i64)
                .int("obs_frames", run.obs.frames as i64)
                .int("obs_dropped", run.obs.dropped as i64)
                .int("obs_held", run.obs.held as i64)
                .num("obs_frame_p50_ms", run.obs.frame_p50_ms)
                .num("obs_frame_p99_ms", run.obs.frame_p99_ms);
        }
        r.nums("history", &run.history)
    }

    /// Renders the record as one JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_string(k)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{v}` alone prints integers without a dot, which is still
        // valid JSON; keep it terse.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON-lines sink for one experiment.
#[derive(Debug)]
pub struct JsonlSink {
    file: Option<fs::File>,
    /// The first write that failed; [`finish`](Self::finish) hands it
    /// to whoever promised the file to a user.
    failed: Option<std::io::Error>,
}

impl JsonlSink {
    /// Opens (truncates) `<DLB_RESULTS_DIR>/<name>.jsonl`. When the
    /// variable is unset the sink is a no-op, mirroring the old CSV
    /// sink's best-effort contract.
    pub fn create(name: &str) -> Self {
        let file = std::env::var("DLB_RESULTS_DIR").ok().and_then(|dir| {
            let mut path = PathBuf::from(dir);
            if fs::create_dir_all(&path).is_err() {
                return None;
            }
            path.push(format!("{name}.jsonl"));
            fs::File::create(path).ok()
        });
        Self { file, failed: None }
    }

    /// Opens (truncates) an explicit path; errors propagate so callers
    /// producing committed artifacts notice a broken destination.
    pub fn create_at(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self {
            file: Some(fs::File::create(path)?),
            failed: None,
        })
    }

    /// Appends one record as a JSON line. A failed write does not stop
    /// the experiment; the first one is kept for
    /// [`finish`](Self::finish).
    ///
    /// Every persisted record is stamped with the machine context —
    /// `host_cores` (the machine's available parallelism) and
    /// `dlb_threads` (the worker-pool width this process resolved from
    /// `DLB_THREADS`). Virtual-time results are bit-identical across
    /// thread counts, but wall-clock columns are not; the stamp lets
    /// two result files explain their timing differences instead of
    /// looking mysteriously divergent. Stamping happens here, at write
    /// time, so [`Record`] values under construction stay pure data.
    pub fn record(&mut self, record: &Record) {
        if let Some(f) = &mut self.file {
            let written = writeln!(f, "{}", Self::stamped(record).to_json());
            if self.failed.is_none() {
                self.failed = written.err();
            }
        }
    }

    /// Closes the sink: `Err` with the first write that failed, if any
    /// did — a caller that was given the path by a user (`dlb --out`)
    /// must not report success over an empty file. Sinks that are
    /// best-effort by contract (the `DLB_RESULTS_DIR` ones) are simply
    /// dropped instead.
    pub fn finish(self) -> std::io::Result<()> {
        self.failed.map_or(Ok(()), Err)
    }

    /// The record plus the machine-context fields every persisted line
    /// carries.
    fn stamped(record: &Record) -> Record {
        let host_cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        record
            .clone()
            .int("host_cores", host_cores as i64)
            .int("dlb_threads", dlb_par::num_threads() as i64)
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

    #[test]
    fn string_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
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
