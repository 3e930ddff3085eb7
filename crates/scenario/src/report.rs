//! Render paper-style tables from JSON-lines result files.
//!
//! Every harness and CLI command writes flat JSON records through
//! [`crate::results::JsonlSink`]; this module is the read side: a
//! dependency-free parser for those lines and a renderer that groups
//! records by their `kind` field and prints one aligned table per
//! group — the `dlb report` subcommand. The parser accepts any flat
//! JSON object (plus arrays of numbers for cost trajectories), so it
//! renders both freshly written run records and committed artifacts
//! like the repo-root `BENCH_figure2.json`.

use std::fmt;

/// One parsed JSON value. Arrays are kept as values so trajectories
/// survive parsing; nested objects are not part of the sink's format
/// and are rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string.
    Str(String),
    /// A JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array (the sink only writes arrays of numbers/nulls).
    Arr(Vec<Value>),
}

impl Value {
    fn is_textual(&self) -> bool {
        matches!(self, Value::Str(_))
    }
}

impl fmt::Display for Value {
    /// Table-cell rendering: numbers compact, arrays summarized.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::Num(v) => write!(f, "{}", fmt_num(*v)),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "-"),
            Value::Arr(xs) => write!(f, "[{} pts]", xs.len()),
        }
    }
}

/// Formats a number for a table cell: integers plain, extreme
/// magnitudes in scientific notation, everything else to 4 decimals.
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else if v.abs() >= 1e6 || v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// One record: key/value pairs in file order.
pub type Row = Vec<(String, Value)>;

/// Parses a JSON-lines document (one flat object per non-empty line).
pub fn parse_jsonl(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        rows.push(parse_object(line).map_err(|e| format!("line {}: {e}", n + 1))?);
    }
    Ok(rows)
}

fn parse_object(line: &str) -> Result<Row, String> {
    let mut sc = Scanner {
        s: line.as_bytes(),
        pos: 0,
    };
    sc.skip_ws();
    sc.expect(b'{')?;
    let mut row = Row::new();
    sc.skip_ws();
    if sc.peek() == Some(b'}') {
        sc.pos += 1;
    } else {
        loop {
            sc.skip_ws();
            let key = sc.parse_string()?;
            sc.skip_ws();
            sc.expect(b':')?;
            sc.skip_ws();
            let value = sc.parse_value()?;
            row.push((key, value));
            sc.skip_ws();
            match sc.peek() {
                Some(b',') => sc.pos += 1,
                Some(b'}') => {
                    sc.pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", sc.pos)),
            }
        }
    }
    sc.skip_ws();
    if sc.pos != sc.s.len() {
        return Err(format!("trailing content at byte {}", sc.pos));
    }
    Ok(row)
}

struct Scanner<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Scanner<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.s[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = std::str::from_utf8(&self.s[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let ch = rest.chars().next().ok_or("unterminated string")?;
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or("unexpected end of line")? {
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            b'{' => Err(format!("nested object at byte {}", self.pos)),
            _ => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.pos]).unwrap_or("");
                text.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| format!("bad number '{text}' at byte {start}"))
            }
        }
    }
}

/// Renders the report for one JSON-lines document: records are grouped
/// by their `kind` field (in first-seen order) and each group becomes
/// one aligned table whose columns are the union of the group's keys
/// in first-seen order. Textual columns are left-aligned, numeric ones
/// right-aligned.
pub fn render_report(text: &str) -> Result<String, String> {
    let rows = parse_jsonl(text)?;
    if rows.is_empty() {
        return Err("no records found".into());
    }
    let mut groups: Vec<(String, Vec<&Row>)> = Vec::new();
    for row in &rows {
        let kind = row
            .iter()
            .find(|(k, _)| k == "kind")
            .map(|(_, v)| v.to_string())
            .unwrap_or_else(|| "record".to_string());
        match groups.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, members)) => members.push(row),
            None => groups.push((kind, vec![row])),
        }
    }
    let mut out = String::new();
    for (kind, members) in &groups {
        // Column order is the order-respecting union of the group's
        // keys: walking a record, a key already known moves the
        // cursor to just past it; an unknown key is *inserted at the
        // cursor*, not appended. So when a later record carries a
        // mid-row field group the first record lacked (a traced run's
        // `obs_*` columns before its trailing `history`), those
        // columns land where the record put them — plain appending
        // parked every late-appearing group behind whichever trailing
        // column the first record happened to end with.
        let mut cols: Vec<&str> = Vec::new();
        for row in members {
            let mut cursor = 0;
            for (k, _) in row.iter() {
                if k == "kind" {
                    continue;
                }
                match cols.iter().position(|c| *c == k.as_str()) {
                    Some(p) => cursor = p + 1,
                    None => {
                        cols.insert(cursor, k);
                        cursor += 1;
                    }
                }
            }
        }
        let cell = |row: &Row, col: &str| -> String {
            row.iter()
                .find(|(k, _)| k.as_str() == col)
                .map(|(_, v)| v.to_string())
                .unwrap_or_else(|| "-".to_string())
        };
        let textual: Vec<bool> = cols
            .iter()
            .map(|col| {
                members.iter().any(|row| {
                    row.iter()
                        .any(|(k, v)| k.as_str() == *col && v.is_textual())
                })
            })
            .collect();
        let widths: Vec<usize> = cols
            .iter()
            .map(|col| {
                members
                    .iter()
                    .map(|row| cell(row, col).len())
                    .chain(std::iter::once(col.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let plural = if members.len() == 1 { "" } else { "s" };
        out.push_str(&format!(
            "== {kind} ({} record{plural}) ==\n",
            members.len()
        ));
        let mut header = String::new();
        for (c, col) in cols.iter().enumerate() {
            if c > 0 {
                header.push_str("  ");
            }
            if textual[c] {
                header.push_str(&format!("{col:<w$}", w = widths[c]));
            } else {
                header.push_str(&format!("{col:>w$}", w = widths[c]));
            }
        }
        out.push_str(header.trim_end());
        out.push('\n');
        for row in members {
            let mut line = String::new();
            for (c, col) in cols.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                let v = cell(row, col);
                if textual[c] {
                    line.push_str(&format!("{v:<w$}", w = widths[c]));
                } else {
                    line.push_str(&format!("{v:>w$}", w = widths[c]));
                }
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out.push('\n');
    }
    out.pop();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::Record;
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
        let row = &rows[0];
        assert_eq!(row[0], ("kind".into(), Value::Str("run".into())));
        assert_eq!(
            row[1],
            (
                "scenario".into(),
                Value::Str("algo=batched net=pl m=500".into())
            )
        );
        assert_eq!(row[2], ("final_cost".into(), Value::Num(12277790.44382619)));
        assert_eq!(row[3], ("iterations".into(), Value::Num(20.0)));
        assert_eq!(row[4], ("converged".into(), Value::Bool(true)));
        assert_eq!(row[5], ("bad".into(), Value::Null));
        assert_eq!(
            row[6],
            (
                "history".into(),
                Value::Arr(vec![Value::Num(3.0), Value::Num(2.0), Value::Num(1.5)])
            )
        );
    }

    #[test]
    fn parses_escapes_and_empty_objects() {
        let rows = parse_jsonl("{\"a\":\"x\\n\\\"y\\\"\",\"b\":\"\\u0041\"}\n\n{}").unwrap();
        assert_eq!(rows[0][0].1, Value::Str("x\n\"y\"".into()));
        assert_eq!(rows[0][1].1, Value::Str("A".into()));
        assert!(rows[1].is_empty());
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

    /// Run records (shape v3) always carry the fault and detector
    /// field groups, and the report renders them as columns — the
    /// operator-facing view of what the failure detector did.
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
        // Quiet runs keep the same shape, zero-filled (v2 contract).
        let quiet = RunRecord {
            faults: Default::default(),
            detector: Default::default(),
            ..run
        };
        let json = Record::from_run("run", &quiet).to_json();
        assert!(json.contains("\"fault_crashes\":0"), "{json}");
        assert!(json.contains("\"detector_suspicions\":0"), "{json}");
    }

    /// Streamed run records (shape v3) append the `stream_*` group and
    /// the report renders its columns; unstreamed records omit the
    /// group entirely, keeping pre-v3 output byte-identical.
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

    /// Gossip-fed run records (shape v3) append the `gossip_*` group
    /// and the report renders its columns; runs on the emulated
    /// snapshot omit the group entirely, keeping earlier output
    /// byte-identical.
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
        // A quiet (emulated/fresh) record has no gossip_* keys at all.
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
    /// appended after `history` (the pre-v4 behavior, which parked
    /// every late-appearing group behind the first record's last
    /// column).
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
        assert_eq!(fmt_num(2000.0), "2000");
        assert_eq!(fmt_num(0.03305312366666666), "0.0331");
        assert_eq!(fmt_num(2334915899.196365), "2.3349e9");
        assert_eq!(fmt_num(0.000012), "1.2000e-5");
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
