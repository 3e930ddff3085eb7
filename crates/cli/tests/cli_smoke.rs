//! End-to-end tests of the `dlb` binary.
//!
//! * `dlb run` with `algo=sequential` and `algo=batched` must
//!   reproduce a direct [`Engine::run_to_convergence`] call *exactly*
//!   — same instance (one sampling path), same trajectory, bit-equal
//!   final cost — with the comparison made through the emitted
//!   JSON-lines record, so the whole spec → runner → sink path is
//!   under test.
//! * `dlb report` output over a committed fixture is pinned by a
//!   golden string.

use dlb_distributed::{Engine, EngineOptions, RoundMode};
use dlb_scenario::report::parse_jsonl;
use dlb_scenario::results::{Record, Value};
use dlb_scenario::ScenarioSpec;
use std::process::Command;

fn dlb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dlb"))
}

/// The summary line of a `dlb run`'s standard output.
fn converged_line(stdout: &[u8]) -> String {
    let text = String::from_utf8_lossy(stdout);
    let line = text.lines().find(|l| l.starts_with("converged:"));
    line.expect("a 'converged:' summary line").to_string()
}

fn field<'a>(row: &'a Record, key: &str) -> &'a Value {
    row.get(key)
        .unwrap_or_else(|| panic!("record lacks '{key}'"))
}

#[test]
fn run_reproduces_engine_costs_exactly() {
    for (algo, mode) in [
        ("sequential", RoundMode::Sequential),
        ("batched", RoundMode::Batched),
    ] {
        let text = format!("algo={algo} m=14 avg=35 seed=5 budget=60");
        let out_path = std::env::temp_dir().join(format!("dlb_cli_smoke_{algo}.jsonl"));
        let output = dlb()
            .args([
                "run",
                "--scenario",
                &text,
                "--out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("dlb binary runs");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );

        // Engine runs time themselves: their seconds are real.
        let summary = converged_line(&output.stdout);
        assert!(summary.ends_with(" s wall)"), "{summary}");

        // The record the CLI emitted through the shared sink...
        let rows = parse_jsonl(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(*field(row, "algo"), Value::Str(algo.to_string()));

        // ...must match a direct engine run on the shared sampling
        // path bit for bit (JSON numbers use Rust's shortest
        // round-trip form, so parsing them back is lossless).
        let spec: ScenarioSpec = text.parse().unwrap();
        let mut engine = Engine::new(
            spec.build_instance(),
            EngineOptions {
                seed: 5,
                round_mode: mode,
                ..Default::default()
            },
        );
        let report = engine.run_to_convergence(1e-10, 3, 60);
        assert_eq!(
            *field(row, "final_cost"),
            Value::from(report.final_cost),
            "{algo}: CLI final cost differs from direct engine run"
        );
        assert_eq!(
            *field(row, "iterations"),
            Value::Int(report.iterations as i64)
        );
        let expected: Vec<Value> = engine.history().iter().map(|&c| c.into()).collect();
        assert_eq!(*field(row, "history"), Value::Arr(expected), "{algo}");
        let _ = std::fs::remove_file(&out_path);
    }
}

/// Protocol runs are deterministic end to end (the obsolete
/// `runtime=events` token rides along, accepted and ignored): two
/// CLI invocations of the same scenario must emit byte-identical
/// JSON-lines records (including `wall_secs`, which carries simulated
/// protocol time), and they must match the in-process runner.
#[test]
fn event_protocol_runs_emit_reproducible_records() {
    let text = "algo=protocol runtime=events m=10 avg=40 seed=3 patience=5 budget=80";
    let mut records = Vec::new();
    for tag in ["a", "b"] {
        let out_path = std::env::temp_dir().join(format!("dlb_cli_events_{tag}.jsonl"));
        let output = dlb()
            .args([
                "run",
                "--scenario",
                text,
                "--out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("dlb binary runs");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        // Protocol seconds are simulated; the host's are printed
        // beside them (stdout only, never in the record).
        let summary = converged_line(&output.stdout);
        assert!(
            summary.contains(" s simulated, ") && summary.ends_with(" s host)"),
            "{summary}"
        );
        records.push(std::fs::read_to_string(&out_path).unwrap());
        let _ = std::fs::remove_file(&out_path);
    }
    assert_eq!(records[0], records[1], "event records must be bit-equal");
    let rows = parse_jsonl(&records[0]).unwrap();
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert_eq!(*field(row, "algo"), Value::Str("protocol".into()));
    let spec: ScenarioSpec = text.parse().unwrap();
    let run = spec.run();
    assert_eq!(*field(row, "final_cost"), Value::from(run.final_cost()));
    assert_eq!(*field(row, "wall_secs"), Value::from(run.wall_secs));
    assert_eq!(*field(row, "iterations"), Value::Int(run.iterations as i64));
}

/// An idle cluster (`avg=0`: every ledger empty) costs plain zero. The
/// per-node cost fold used to start from `Iterator::sum`'s `-0.0`, so
/// the record said `"final_cost":-0` and the summary `ΣC = -0.0`.
#[test]
fn idle_protocol_run_records_plain_zeros() {
    let out_path = std::env::temp_dir().join("dlb_cli_idle.jsonl");
    let output = dlb()
        .args(["run", "algo=protocol", "m=8", "avg=0", "--out"])
        .arg(&out_path)
        .output()
        .expect("dlb binary runs");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let record = std::fs::read_to_string(&out_path).unwrap();
    let _ = std::fs::remove_file(&out_path);
    assert!(
        record.contains(r#""initial_cost":0,"final_cost":0,"#),
        "{record}"
    );
    assert!(record.contains(r#""history":[0,0,0,0],"#), "{record}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("final ΣC = 0.0 "), "{stdout}");
    assert!(!stdout.contains("-0.0"), "{stdout}");
}

/// The `detect=` axis end to end: a faulted adaptive-detector run
/// succeeds, emits the v2 record shape (fault_* and detector_* always
/// present), reproduces bit for bit, and a misplaced `detect=` on a
/// non-protocol algorithm is rejected at parse time with a pointed
/// message.
#[test]
fn detect_axis_rides_the_cli_end_to_end() {
    let text = "algo=protocol runtime=events m=16 avg=80 seed=5 patience=9 budget=800 \
                faults=crash:0.2@150ms,slow:0.2@4x detect=adaptive";
    let mut records = Vec::new();
    for tag in ["a", "b"] {
        let out_path = std::env::temp_dir().join(format!("dlb_cli_detect_{tag}.jsonl"));
        let output = dlb()
            .args([
                "run",
                "--scenario",
                text,
                "--out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .expect("dlb binary runs");
        assert!(
            output.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        records.push(std::fs::read_to_string(&out_path).unwrap());
        let _ = std::fs::remove_file(&out_path);
    }
    assert_eq!(records[0], records[1], "detect records must be bit-equal");
    let rows = parse_jsonl(&records[0]).unwrap();
    let row = &rows[0];
    assert_eq!(*field(row, "converged"), Value::Bool(true));
    let Value::Int(suspicions) = *field(row, "detector_suspicions") else {
        panic!("detector_suspicions must be an integer");
    };
    assert!(suspicions > 0, "crashes must be suspected from silence");
    assert_eq!(
        *field(row, "fault_crashes"),
        Value::Int(3),
        "20% of 16 nodes"
    );

    let output = dlb()
        .args(["run", "--scenario", "algo=batched m=8 detect=adaptive"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("detect= requires"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

// The column union respects each record's own key order: the later
// records' fault_*/detector_*/stream_* groups sit where those records
// carry them — before the trailing `history` — instead of being
// appended behind the first record's last column.
const GOLDEN_REPORT: &str = "\
== run (4 records) ==
scenario                                                                                                algo          m  initial_cost  final_cost  iterations  converged  wall_secs  fault_crashes  fault_recoveries  fault_dropped_frames  fault_delayed_frames  fault_extra_delay_ms  detector_suspicions  detector_false_positives  detector_latency_ms  detector_rejoin_ms  detector_aborted_exchanges  stream_served  stream_dropped  stream_p50_ms  stream_p99_ms  stream_imbalance_ms  history
algo=sequential net=homog m=8                                                                           sequential    8     1234.5000        1000           7       true     0.2500              -                 -                     -                     -                     -                    -                         -                    -                   -                           -              -               -              -              -                    -  [3 pts]
algo=batched net=pl m=500 load=peak avg=200 seed=7                                                      batched     500      2.3349e9    1.2278e7          20      false     5.5000              -                 -                     -                     -                     -                    -                         -                    -                   -                           -              -               -              -              -                    -  [2 pts]
algo=protocol net=homog m=16 runtime=events faults=crash:0.2@150ms,slow:0.2@4x detect=adaptive          protocol     16    60943.2000  38049.9300         539       true    41.4080              3                 0                    15                  3188            98918.2700                   12                         9             134.2400           1094.1200                           9              -               -              -              -                    -  [2 pts]
algo=protocol net=homog m=24 runtime=events arrivals=poisson:200,burst:400@500ms..1500ms duration=2000  protocol     24    71234.5000  40321.7500          88       true     2.4020              0                 0                     0                     0                     0                    0                         0                    0                   0                           0            412               0        15.8200        47.3100             612.4000  [2 pts]

== table_row (1 record) ==
table   bucket   dist     avg  max     std   n
table1  m <= 50  exp   2.3500    3  0.4787  12

";

#[test]
fn report_matches_golden_fixture() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/report_fixture.jsonl"
    );
    let output = dlb().args(["report", fixture]).output().expect("dlb runs");
    assert!(output.status.success());
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert_eq!(stdout, GOLDEN_REPORT, "golden mismatch:\n{stdout}");
}

#[test]
fn report_renders_the_committed_figure2_artifact() {
    let artifact = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_figure2.json");
    let output = dlb().args(["report", artifact]).output().expect("dlb runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("== figure2_series"), "{stdout}");
    assert!(stdout.contains("== scaling"), "{stdout}");
    assert!(stdout.contains("secs_per_iter"), "{stdout}");
}

/// FNV-1a, 64-bit.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every committed artifact renders to the same bytes it did when the
/// hashes were captured: a change to the record plane that moves one
/// cell of one table fails here.
#[test]
fn report_renders_every_committed_artifact_unchanged() {
    for (artifact, pinned) in [
        ("detector", 0x3785_5f27_55e6_cf68_u64),
        ("faults", 0x6cdd_d057_b8ac_72e4),
        ("figure2", 0x02ae_870f_b112_e7ae),
        ("gossip", 0x8cad_1247_a661_90bd),
        ("obs", 0x1d54_37ca_00c7_1ec5),
        ("streaming", 0xa508_da9e_f4ba_00d9),
    ] {
        let path = format!("{}/../../BENCH_{artifact}.json", env!("CARGO_MANIFEST_DIR"));
        let output = dlb().args(["report", &path]).output().expect("dlb runs");
        assert!(output.status.success(), "{artifact}");
        assert_eq!(
            fnv64(&output.stdout),
            pinned,
            "BENCH_{artifact}.json renders differently:\n{}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
}

#[test]
fn bad_specs_and_missing_files_fail_cleanly() {
    let output = dlb().args(["run", "algo=warp"]).output().unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("not one of"));
    let output = dlb()
        .args(["report", "/nonexistent/x.jsonl"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let output = dlb()
        .args(["run", "m=50", "seed=1", "m=60"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("twice"));
    // An unwritable frame-log path is refused before the run, as a
    // plain error (exit 1) — not a panic after it.
    let output = dlb()
        .args([
            "run",
            "algo=protocol",
            "m=8",
            "trace=frames:/nonexistent_dir/x.dlbf",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("error: trace=frames:/nonexistent_dir/x.dlbf: cannot create"),
        "stderr: {stderr}"
    );
    // `run` is the only way to name an experiment: the retired alias
    // commands are unknown commands (whatever flags follow), and the
    // values their flags used to carry fail as scenario tokens.
    for (args, needle) in [
        (
            &["optimize", "--servers", "10"][..],
            "unknown command 'optimize'",
        ),
        (&["run", "m=0"][..], "m must be at least 1"),
        (
            &["run", "m=banana"][..],
            "m: 'banana' is not a non-negative integer",
        ),
        // Schedules past the stream compiler's cap are refused as
        // text, not by its assert (exit 101).
        (
            &[
                "run",
                "algo=protocol",
                "m=5",
                "arrivals=poisson:1e12",
                "duration=1000",
            ][..],
            "arrivals= requires rate × duration under 1000000 requests",
        ),
        (
            &[
                "run",
                "algo=protocol",
                "m=5",
                "arrivals=poisson:10",
                "duration=1e9",
            ][..],
            "arrivals= requires rate × duration under 1000000 requests",
        ),
        // Times, `lat=` and delay factors that would take a run's
        // virtual clock to `inf` or `NaN` (these ran, printed `NaN s
        // simulated` or `inf s simulated` and exited 0).
        (
            &[
                "run",
                "algo=protocol",
                "m=4",
                "faults=spike:1e308x@0ms..10ms",
            ][..],
            "error: faults: spike factor: '1e308' must be at most 1e6",
        ),
        (
            &["run", "algo=protocol", "m=4", "faults=slow:1@1e308x"][..],
            "error: faults: slow factor: '1e308' must be at most 1e6",
        ),
        (
            &["run", "algo=protocol", "m=4", "lat=1e308"][..],
            "error: lat: '1e308' must be at most 1e9",
        ),
        (
            &[
                "run",
                "algo=protocol",
                "m=8",
                "faults=part:0ms..1e308ms,crash:0.5@1ms",
                "detect=adaptive",
            ][..],
            "error: faults: part window: '1e308ms' must be at most 1e9",
        ),
        (
            &[
                "run",
                "algo=protocol",
                "m=5",
                "arrivals=poisson:10",
                "duration=1e300",
            ][..],
            "error: duration: '1e300' must be at most 1e9",
        ),
        // An average load whose sampled loads (`Instance::new` aborted
        // on `inf`, exit 101) or initial ΣC (printed `inf`, exit 0)
        // cannot stay finite is refused as text too.
        (
            &["run", "algo=protocol", "m=8", "avg=1e308"][..],
            "error: avg= requires a value up to 1e100",
        ),
        (
            &["run", "algo=protocol", "m=8", "avg=1e300"][..],
            "error: avg= requires a value up to 1e100",
        ),
        // More nodes than 32-bit node ids can name.
        (
            &["run", "algo=protocol", "m=99999999999"][..],
            "error: m= requires a value of at most 4294967295 (node ids are 32-bit)",
        ),
        // The shared stale snapshot is retired: stale views come from
        // the delta-gossip plane only.
        (
            &["run", "algo=batched", "m=30", "gossip=emulated:3"][..],
            "error: gossip: the emulated stale snapshot (emulated:T) was retired",
        ),
        // `estimate --servers` is an `m=` and answers to its rules.
        (
            &["estimate", "--servers", "0"][..],
            "error: m must be at least 1",
        ),
        // A command without options says so, not "(valid: )".
        (
            &["report", "--bogus", "x"][..],
            "error: unknown option '--bogus': 'report' takes no options",
        ),
    ] {
        let output = dlb().args(args).output().unwrap();
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
    // A typed tick count sizes no allocation up front: however large,
    // the first tick is simply run and printed.
    {
        use std::io::{BufRead, BufReader};
        let mut child = dlb()
            .args(["estimate", "--servers", "4", "--ticks", "99999999999999"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .unwrap();
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let first_two: Vec<String> = lines.by_ref().take(2).map(Result::unwrap).collect();
        child.kill().unwrap();
        child.wait().unwrap();
        assert_eq!(first_two[0], "tick  median relative error");
        assert!(first_two[1].starts_with("   1  "), "{first_two:?}");
    }
    // A record that cannot reach the file `--out` names is an error
    // naming it, not a silent success over an empty file.
    if std::path::Path::new("/dev/full").exists() {
        for args in [
            &["run", "algo=batched", "m=16", "budget=5"][..],
            &["estimate", "--servers", "8", "--ticks", "3"][..],
        ] {
            let output = dlb().args(args).args(["--out", "/dev/full"]).output();
            let output = output.unwrap();
            assert_eq!(output.status.code(), Some(1), "{args:?}");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                stderr.contains("error: --out /dev/full: cannot write"),
                "{args:?}: {stderr}"
            );
        }
        // So is a frame log the run cannot write: a typed error, not
        // a panic.
        let output = dlb()
            .args(["run", "algo=protocol", "m=8", "trace=frames:/dev/full"])
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("error: trace=frames:/dev/full: cannot write ("),
            "{stderr}"
        );
    }
    // The retired thread runtime is a typed error too.
    let output = dlb()
        .args(["run", "algo=protocol", "runtime=threads"])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("was retired"));
}

/// `--help` and `-h` print the usage after any command and exit 0;
/// they were "unknown option" errors (exit 1) after one.
#[test]
fn help_flags_print_the_usage_after_any_command() {
    let usage = dlb().arg("help").output().unwrap();
    assert!(usage.status.success());
    assert!(String::from_utf8_lossy(&usage.stdout).starts_with("dlb — "));
    for command in ["run", "report", "trace", "estimate"] {
        for flag in ["--help", "-h"] {
            let output = dlb().args([command, flag]).output().unwrap();
            assert_eq!(output.status.code(), Some(0), "dlb {command} {flag}");
            assert_eq!(output.stdout, usage.stdout, "dlb {command} {flag}");
            assert!(output.stderr.is_empty(), "dlb {command} {flag}");
        }
    }
}

/// A reader that goes away (`dlb … | head -1`) is a clean stop: every
/// printing command exits 0 when the read end of its stdout is already
/// closed, where a bare `println!` panicked with "Broken pipe" (exit
/// 101). Any other failed write is an `error: …` and exit 1.
#[test]
fn closed_stdout_is_a_clean_stop() {
    let log = std::env::temp_dir().join("dlb_cli_closed_stdout.dlbf");
    let log = log.to_str().unwrap();
    let trace = format!("trace=frames:{log}");
    let recorded = dlb()
        .args(["run", "algo=protocol", "m=8", "seed=3", &trace])
        .output()
        .unwrap();
    assert!(recorded.status.success());
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/report_fixture.jsonl"
    );
    let commands: [&[&str]; 5] = [
        &["run", "algo=batched", "m=16", "budget=5"],
        &["report", fixture],
        &["estimate", "--servers", "8", "--ticks", "3"],
        &["trace", "show", log],
        &["trace", "chrome", log],
    ];
    for args in commands {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let output = dlb().args(args).stdout(writer).output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
        if let Ok(full) = std::fs::File::create("/dev/full") {
            let output = dlb().args(args).stdout(full).output().unwrap();
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains("error: cannot write to standard output ("),
                "{args:?}: {stderr}"
            );
        }
    }
    let _ = std::fs::remove_file(log);
}

/// A frame log's path has no length cap: a run records to a file whose
/// name alone is 200 bytes, and the log replays bit-exactly.
#[test]
fn frame_logs_take_paths_of_any_length() {
    let dir = std::env::temp_dir().join("dlb_cli_long_trace_path");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join(format!("{}.dlbf", "l".repeat(200)));
    let log = log.to_str().unwrap();
    let trace = format!("trace=frames:{log}");
    let recorded = dlb()
        .args(["run", "algo=protocol", "m=8", "seed=3", &trace])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&recorded.stderr);
    assert_eq!(recorded.status.code(), Some(0), "{stderr}");
    let replayed = dlb().args(["trace", "replay", log]).output().unwrap();
    let stdout = String::from_utf8_lossy(&replayed.stdout);
    assert_eq!(replayed.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("replay is bit-exact"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
