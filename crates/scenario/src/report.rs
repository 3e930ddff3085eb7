//! The record plane's read side, behind `dlb report`: [`parse_jsonl`]
//! turns each line back into the [`Record`] the sink wrote (any flat
//! JSON object, arrays included), and [`render`] draws records as one
//! aligned table per `kind`.

use crate::results::{number, Record, Value};

/// Parses a JSON-lines document (one flat object per non-empty line).
pub fn parse_jsonl(text: &str) -> Result<Vec<Record>, String> {
    let lines = text.lines().map(str::trim).enumerate();
    lines
        .filter(|(_, line)| !line.is_empty())
        .map(|(n, line)| parse_object(line).map_err(|e| format!("line {}: {e}", n + 1)))
        .collect()
}

fn parse_object(line: &str) -> Result<Record, String> {
    let mut sc = Scanner { s: line, pos: 0 };
    sc.skip_ws();
    sc.expect(b'{')?;
    let fields = sc.list(b'}', |sc| {
        let key = sc.string()?;
        sc.skip_ws();
        sc.expect(b':')?;
        sc.skip_ws();
        Ok((key, sc.value(false)?))
    })?;
    sc.skip_ws();
    if sc.pos != sc.s.len() {
        return Err(format!("trailing content at byte {}", sc.pos));
    }
    Ok(Record { fields })
}

struct Scanner<'a> {
    s: &'a str,
    pos: usize,
}

impl Scanner<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        let at = self.pos;
        (self.eat(b).then_some(())).ok_or(format!("expected '{}' at byte {at}", b as char))
    }

    /// Consumes `word` (a `true`/`false`/`null` literal) for `value`.
    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        let hit = self.s[self.pos..].starts_with(word);
        let at = self.pos;
        self.pos += if hit { word.len() } else { 0 };
        hit.then_some(value)
            .ok_or(format!("bad literal at byte {at}"))
    }

    fn next_char(&mut self, missing: &str) -> Result<char, String> {
        let ch = self.s[self.pos..].chars().next().ok_or(missing)?;
        self.pos += ch.len_utf8();
        Ok(ch)
    }

    /// Comma-separated items up to `close`, the opening bracket already
    /// consumed.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        self.skip_ws();
        while !self.eat(close) {
            if !items.is_empty() && !self.eat(b',') {
                let close = close as char;
                return Err(format!("expected ',' or '{close}' at byte {}", self.pos));
            }
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
        }
        Ok(items)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next_char("unterminated string")? {
                '"' => return Ok(out),
                '\\' => match self.next_char("unterminated escape")? {
                    esc @ ('"' | '\\' | '/') => out.push(esc),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let hex = self.s.get(self.pos..self.pos + 4);
                        let hex = hex.ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        self.pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("unknown escape '\\{other}'")),
                },
                ch => out.push(ch),
            }
        }
    }

    /// A field's value: a scalar, or a flat array of them (all the sink
    /// writes, and no recursion for a hostile line to overflow).
    fn value(&mut self, in_array: bool) -> Result<Value, String> {
        match self.peek().ok_or("unexpected end of line")? {
            b'"' => Ok(Value::Str(self.string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'[' if in_array => Err(format!("nested array at byte {}", self.pos)),
            b'[' => {
                self.pos += 1;
                Ok(Value::Arr(self.list(b']', |sc| sc.value(true))?))
            }
            b'{' => Err(format!("nested object at byte {}", self.pos)),
            _ => {
                let start = self.pos;
                let numeric = |b: &u8| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E');
                while self.peek().as_ref().is_some_and(numeric) {
                    self.pos += 1;
                }
                let text = &self.s[start..self.pos];
                number(text).ok_or_else(|| format!("bad number '{text}' at byte {start}"))
            }
        }
    }
}

/// A value as a table cell: `null` as `-`, arrays summarized, numbers
/// compact — integral ones plain, extreme magnitudes in scientific
/// notation, the rest to 4 decimals.
fn cell(value: &Value) -> String {
    let v = match value {
        Value::Str(s) => return s.clone(),
        Value::Bool(b) => return b.to_string(),
        Value::Null => return "-".into(),
        Value::Arr(items) => return format!("[{} pts]", items.len()),
        Value::Int(i) => *i as f64,
        Value::Num(v) => *v,
    };
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders one JSON-lines document: [`parse_jsonl`], then [`render`].
pub fn render_report(text: &str) -> Result<String, String> {
    let records = parse_jsonl(text)?;
    if records.is_empty() {
        return Err("no records found".into());
    }
    Ok(render(&records))
}

/// Draws records as tables: one per `kind` (in first-seen order), the
/// tables separated by a blank line.
pub fn render(records: &[Record]) -> String {
    let kind = |r: &Record| r.get("kind").map_or("record".into(), cell);
    let mut kinds: Vec<String> = Vec::new();
    for k in records.iter().map(kind) {
        if !kinds.contains(&k) {
            kinds.push(k);
        }
    }
    let tables = kinds.iter().map(|k| {
        let members: Vec<&Record> = records.iter().filter(|r| kind(r) == *k).collect();
        table(k, &members)
    });
    tables.collect::<Vec<_>>().join("\n")
}

/// One aligned table. Its columns are the union of the members' keys;
/// textual columns are left-aligned, the others right-aligned, and a
/// member without a column shows `-`.
fn table(kind: &str, members: &[&Record]) -> String {
    // Walking a record, a known key moves the cursor past it and an
    // unknown one is *inserted at the cursor*: a mid-row group a later
    // record carries (`obs_*` before `history`) lands where it put it.
    let mut cols: Vec<&str> = Vec::new();
    for record in members {
        let mut cursor = 0;
        for (key, _) in record.fields.iter().filter(|(k, _)| k != "kind") {
            match cols.iter().position(|c| c == key) {
                Some(p) => cursor = p + 1,
                None => {
                    cols.insert(cursor, key);
                    cursor += 1;
                }
            }
        }
    }
    let cell_of = |r: &Record, col: &str| r.get(col).map_or("-".into(), cell);
    let mut rows = vec![cols.iter().map(|c| c.to_string()).collect::<Vec<_>>()];
    for r in members {
        rows.push(cols.iter().map(|c| cell_of(r, c)).collect());
    }
    let textual: Vec<bool> = (cols.iter())
        .map(|c| {
            let is_str = |(k, v): &(String, Value)| k == c && matches!(v, Value::Str(_));
            members.iter().any(|r| r.fields.iter().any(is_str))
        })
        .collect();
    let widths: Vec<usize> = (0..cols.len())
        .map(|c| rows.iter().map(|row| row[c].len()).max().unwrap_or(0))
        .collect();
    let plural = if members.len() == 1 { "" } else { "s" };
    let mut out = format!("== {kind} ({} record{plural}) ==\n", members.len());
    for row in &rows {
        let padded: Vec<String> = (row.iter().enumerate())
            .map(|(c, v)| match textual[c] {
                true => format!("{v:<w$}", w = widths[c]),
                false => format!("{v:>w$}", w = widths[c]),
            })
            .collect();
        out.push_str(padded.join("  ").trim_end());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunRecord;

    #[test]
    fn parses_what_the_sink_writes() {
        let line = Record::new("run")
            .str("scenario", "algo=batched net=pl m=500")
            .num("final_cost", 12277790.44382619)
            .int("iterations", 20)
            .bool("converged", true)
            .num("bad", f64::NAN)
            .nums("history", &[3.0, 2.0, 1.5])
            .to_json();
        let rows = parse_jsonl(&line).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0].fields;
        assert_eq!(row[0], ("kind".into(), Value::Str("run".into())));
        assert_eq!(
            row[1],
            (
                "scenario".into(),
                Value::Str("algo=batched net=pl m=500".into())
            )
        );
        assert_eq!(row[2], ("final_cost".into(), Value::Num(12277790.44382619)));
        assert_eq!(row[3], ("iterations".into(), Value::Int(20)));
        assert_eq!(row[4], ("converged".into(), Value::Bool(true)));
        assert_eq!(row[5], ("bad".into(), Value::Null));
        assert_eq!(
            row[6],
            (
                "history".into(),
                Value::Arr(vec![Value::Int(3), Value::Int(2), Value::Num(1.5)])
            )
        );
    }

    #[test]
    fn parses_escapes_and_empty_objects() {
        let rows = parse_jsonl("{\"a\":\"x\\n\\\"y\\\"\",\"b\":\"\\u0041\"}\n\n{}").unwrap();
        assert_eq!(rows[0].fields[0].1, Value::Str("x\n\"y\"".into()));
        assert_eq!(rows[0].fields[1].1, Value::Str("A".into()));
        assert!(rows[1].fields.is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "not json",
            "{\"a\":}",
            "{\"a\":1",
            "{\"a\":1} trailing",
            "{\"a\":{\"nested\":1}}",
            "{\"a\":zz}",
        ] {
            assert!(parse_jsonl(bad).is_err(), "accepted: {bad}");
        }
        // Arrays are flat, however deep a line nests them.
        let deep = format!("{{\"kind\":\"run\",\"x\":{}", "[".repeat(30_000));
        for line in ["{\"x\":[1,[2]]}", &deep] {
            let err = parse_jsonl(line).unwrap_err();
            assert!(err.starts_with("line 1: nested array at byte "), "{err}");
        }
    }

    #[test]
    fn renders_grouped_aligned_tables() {
        let text = "\
{\"kind\":\"scaling\",\"m\":1000,\"mode\":\"sequential\",\"secs_per_iter\":0.03305}\n\
{\"kind\":\"scaling\",\"m\":2000,\"mode\":\"batched\",\"secs_per_iter\":0.141}\n\
{\"kind\":\"series\",\"m\":500,\"history\":[1.0,0.5]}\n";
        let report = render_report(text).unwrap();
        assert!(report.contains("== scaling (2 records) =="), "{report}");
        assert!(report.contains("== series (1 record) =="), "{report}");
        assert!(report.contains("sequential"), "{report}");
        assert!(report.contains("[2 pts]"), "{report}");
        // Numeric columns are right-aligned to a shared width: the two
        // m cells end at the same column as the m header.
        let lines: Vec<&str> = report.lines().collect();
        let header = lines[1];
        let m_end = header.find('m').unwrap() + 1;
        assert_eq!(&lines[2][m_end - 4..m_end], "1000");
        assert_eq!(&lines[3][m_end - 4..m_end], "2000");
    }

    /// Run records always carry the fault and detector field groups,
    /// and the report renders them as columns — the operator-facing
    /// view of what the failure detector did.
    #[test]
    fn renders_fault_and_detector_columns_for_run_records() {
        let run = RunRecord {
            scenario: "algo=protocol runtime=events m=8 detect=adaptive".into(),
            algo: "protocol",
            m: 8,
            history: vec![10.0, 4.0],
            iterations: 7,
            converged: true,
            wall_secs: 1.25,
            faults: dlb_faults::FaultSummary {
                crashes: 2,
                dropped_frames: 5,
                ..Default::default()
            },
            detector: dlb_runtime::DetectorSummary {
                suspicions: 3,
                false_positives: 1,
                detection_latency_ms: 212.5,
                rejoin_ms: 90.0,
                aborted_exchanges: 2,
            },
            stream: Default::default(),
            gossip: Default::default(),
            obs: Default::default(),
        };
        let line = Record::from_run("run", &run).to_json();
        let report = render_report(&line).unwrap();
        for col in [
            "fault_crashes",
            "fault_dropped_frames",
            "detector_suspicions",
            "detector_false_positives",
            "detector_latency_ms",
            "detector_rejoin_ms",
            "detector_aborted_exchanges",
        ] {
            assert!(report.contains(col), "missing column {col}:\n{report}");
        }
        assert!(report.contains("212.5"), "{report}");
        // Quiet runs keep the same shape, zero-filled.
        let quiet = RunRecord {
            faults: Default::default(),
            detector: Default::default(),
            ..run
        };
        let json = Record::from_run("run", &quiet).to_json();
        assert!(json.contains("\"fault_crashes\":0"), "{json}");
        assert!(json.contains("\"detector_suspicions\":0"), "{json}");
    }

    /// Streamed run records carry the `stream_*` group and the report
    /// renders its columns; unstreamed records omit the group entirely
    /// (the quiet-group rule).
    #[test]
    fn renders_stream_columns_only_for_streamed_runs() {
        let run = RunRecord {
            scenario: "algo=protocol runtime=events m=8 arrivals=poisson:200 duration=1000".into(),
            algo: "protocol",
            m: 8,
            history: vec![10.0, 4.0],
            iterations: 9,
            converged: true,
            wall_secs: 1.1,
            faults: Default::default(),
            detector: Default::default(),
            stream: dlb_runtime::StreamSummary {
                served: 180,
                dropped: 20,
                p50_ms: 31.5,
                p99_ms: 140.25,
                imbalance_ms: 415.0,
            },
            gossip: Default::default(),
            obs: Default::default(),
        };
        let line = Record::from_run("run", &run).to_json();
        let report = render_report(&line).unwrap();
        for col in [
            "stream_served",
            "stream_dropped",
            "stream_p50_ms",
            "stream_p99_ms",
            "stream_imbalance_ms",
        ] {
            assert!(report.contains(col), "missing column {col}:\n{report}");
        }
        assert!(report.contains("140.25"), "{report}");
        // An unstreamed record has no stream_* keys at all.
        let quiet = RunRecord {
            stream: Default::default(),
            ..run
        };
        let json = Record::from_run("run", &quiet).to_json();
        assert!(!json.contains("stream_"), "{json}");
        // Mixed files still render: the report fills the missing
        // stream cells with '-'.
        let mixed = format!("{line}\n{json}\n");
        let report = render_report(&mixed).unwrap();
        assert!(report.contains("stream_served"), "{report}");
        assert!(report.contains('-'), "{report}");
    }

    /// Gossip-fed run records carry the `gossip_*` group and the report
    /// renders its columns; runs without a gossip plane omit the group
    /// entirely.
    #[test]
    fn renders_gossip_columns_only_for_gossip_fed_runs() {
        let run = RunRecord {
            scenario: "algo=batched net=homog m=30 gossip=event:100ms".into(),
            algo: "batched",
            m: 30,
            history: vec![10.0, 4.0],
            iterations: 12,
            converged: true,
            wall_secs: 0.8,
            faults: Default::default(),
            detector: Default::default(),
            stream: Default::default(),
            gossip: crate::GossipTraffic {
                frames: 1500,
                bytes: 937_500,
                exchanges: 750,
                delta_entries: 64,
                full_entries: 4800,
            },
            obs: Default::default(),
        };
        let line = Record::from_run("run", &run).to_json();
        let report = render_report(&line).unwrap();
        for col in ["gossip_frames", "gossip_bytes", "gossip_exchanges"] {
            assert!(report.contains(col), "missing column {col}:\n{report}");
        }
        assert!(report.contains("937500"), "{report}");
        // A quiet (`gossip=emulated`) record has no gossip_* keys at all.
        let quiet = RunRecord {
            gossip: Default::default(),
            ..run
        };
        let json = Record::from_run("run", &quiet).to_json();
        assert!(!json.contains("gossip_"), "{json}");
        // Mixed files still render: the report fills the missing
        // gossip cells with '-'.
        let mixed = format!("{line}\n{json}\n");
        let report = render_report(&mixed).unwrap();
        assert!(report.contains("gossip_bytes"), "{report}");
        assert!(report.contains('-'), "{report}");
    }

    /// Traced run records append the `obs_*` group; untraced records
    /// omit it (quiet-group rule), and mixed files render with '-'
    /// fills.
    #[test]
    fn renders_obs_columns_only_for_traced_runs() {
        let run = RunRecord {
            scenario: "algo=protocol runtime=events m=8 trace=summary".into(),
            algo: "protocol",
            m: 8,
            history: vec![10.0, 4.0],
            iterations: 5,
            converged: true,
            wall_secs: 0.4,
            faults: Default::default(),
            detector: Default::default(),
            stream: Default::default(),
            gossip: Default::default(),
            obs: dlb_obs::ObsSummary {
                events: 420,
                frames: 310,
                dropped: 7,
                held: 12,
                frame_p50_ms: 18.5,
                frame_p99_ms: 96.25,
            },
        };
        let line = Record::from_run("run", &run).to_json();
        let report = render_report(&line).unwrap();
        for col in [
            "obs_events",
            "obs_frames",
            "obs_dropped",
            "obs_held",
            "obs_frame_p50_ms",
            "obs_frame_p99_ms",
        ] {
            assert!(report.contains(col), "missing column {col}:\n{report}");
        }
        let quiet = RunRecord {
            obs: Default::default(),
            ..run
        };
        let json = Record::from_run("run", &quiet).to_json();
        assert!(!json.contains("obs_"), "{json}");
    }

    /// The column union respects each record's own key order: when a
    /// later record introduces a field group *before* its trailing
    /// `history` column, the new columns are inserted there — not
    /// appended after `history`.
    #[test]
    fn column_union_respects_each_records_key_order() {
        let text = "\
{\"kind\":\"run\",\"m\":8,\"final\":4.0,\"history\":[1.0]}\n\
{\"kind\":\"run\",\"m\":16,\"final\":3.0,\"obs_events\":42,\"history\":[2.0]}\n";
        let report = render_report(text).unwrap();
        let header = report.lines().nth(1).unwrap();
        let obs = header.find("obs_events").expect("obs column present");
        let history = header.find("history").expect("history column present");
        assert!(
            obs < history,
            "obs_events must precede history in: {header}"
        );
    }

    #[test]
    fn number_formatting_is_compact() {
        let num = |v: f64| cell(&Value::Num(v));
        assert_eq!(num(2000.0), "2000");
        assert_eq!(num(0.03305312366666666), "0.0331");
        assert_eq!(num(2334915899.196365), "2.3349e9");
        assert_eq!(num(0.000012), "1.2000e-5");
        // Integer cells format like the float they read as.
        assert_eq!(cell(&Value::Int(-3)), "-3");
        assert_eq!(cell(&Value::Int(i64::MAX)), "9.2234e18");
    }

    #[test]
    fn renders_the_committed_figure2_artifact() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_figure2.json"
        ))
        .expect("committed artifact present");
        let report = render_report(&text).unwrap();
        assert!(report.contains("== figure2_series"), "{report}");
        assert!(report.contains("== scaling"), "{report}");
        assert!(report.contains("secs_per_iter"), "{report}");
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(render_report("").is_err());
        assert!(render_report("\n\n").is_err());
    }
}
