//! `layers` — the traced half of the benchmark: where a run's time goes.
//!
//! ```text
//! layers --workload W --seed S --seconds T --trace 1   one workload, result line last
//! layers trace [--seed S] [--seconds T]                all five
//! layers pins                                          re-record expected.json's layers section
//! ```
//!
//! Surface rule: this binary may use the workspace's wide public
//! surface, and is allowed to stop compiling when a refactor moves it;
//! `e2e` (the gate) is not. Nothing inside the program is
//! instrumented. Every number here comes from timing a call into a
//! public function, from the benchmark's own `StampSink`, or from
//! `/proc/self/{status,stat}`.
//!
//! One pass runs the job `e2e` repeats (`job_seconds` of `--seconds`)
//! twice: an untraced reference run through the scenario API and the
//! traced run proper, so that tracing overhead is a like-for-like ratio
//! and the pass costs no more than an end-to-end run. The traced run
//! must reproduce the reference's simulated statistics exactly — the
//! proof that the hand-built options are the scenario's — and, being
//! the same job, `e2e`'s too. The timings here never feed the
//! end-to-end numbers.

mod engine;
mod executor;
mod probes;
mod stamp_sink;

use std::collections::BTreeMap;
use std::process::ExitCode;

use dlb_benchmark::args::Args;
use dlb_benchmark::expected::{Pins, Values};
use dlb_benchmark::layer_metrics::PER_LAYER;
use dlb_benchmark::metrics::{print_lines, Checks, Metric};
use dlb_benchmark::procfs::ProcStat;
use dlb_benchmark::spans::Trace;
use dlb_benchmark::stamp;
use dlb_benchmark::workloads::{
    job_seconds, max_threads, Kind, Workload, PINNED_SEED, RUN_SECONDS, WORKLOADS,
};
use dlb_scenario::ScenarioSpec;

/// Where span files go, relative to the benchmark's directory (the
/// process changes into it first).
const OUT_DIR: &str = "out";

/// The top-level spans of a pass must cover this share of its wall.
const MIN_COVERAGE: f64 = 0.98;

/// The per-layer values and check results of one pass.
pub struct Sheet {
    values: BTreeMap<&'static str, f64>,
    checks: Checks,
}

impl Sheet {
    fn new() -> Self {
        Self {
            values: PER_LAYER.iter().map(|m| (m.name, 0.0)).collect(),
            checks: Checks::default(),
        }
    }

    /// Records a per-layer value; the name must be in the table.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("'{name}' is not in the per-layer table"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// One correctness check: counted, and remembered when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks.check(ok, what);
    }

    /// What every traced run reports about itself: its simulated
    /// outcome, its wall against the untraced reference's, and the
    /// process's CPU time and faults across it.
    pub fn set_traced_run(
        &mut self,
        (cost_ratio, rounds): (f64, usize),
        (wall_s, reference_s): (f64, f64),
        (before, after): (ProcStat, ProcStat),
    ) {
        self.set("trace.cost_ratio", cost_ratio);
        self.set("trace.rounds", rounds as f64);
        self.set("trace.wall_s", wall_s);
        self.set(
            "runtime.trace_overhead_pct",
            (wall_s - reference_s) / reference_s * 100.0,
        );
        let cpu = after.cpu_s() - before.cpu_s();
        self.set("process.cpu_s", cpu);
        self.set("process.cpu_per_wall", cpu / wall_s);
        self.set("process.sys_s", after.sys_s - before.sys_s);
        self.set(
            "process.minor_faults",
            after.minor_faults.saturating_sub(before.minor_faults) as f64,
        );
    }

    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| Metric::new(m.name, self.values[m.name], m.unit))
            .collect()
    }

    /// The values that repeat bit for bit, for the pins.
    fn exact_values(&self) -> Values {
        PER_LAYER
            .iter()
            .filter(|m| m.exact)
            .map(|m| (m.name.to_string(), self.values[m.name]))
            .collect()
    }
}

/// What every kind of pass starts from.
pub struct Setup {
    pub workload: &'static Workload,
    pub text: String,
    pub spec: ScenarioSpec,
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let outcome = match args.command() {
        Some("trace") => trace_all(&args, false),
        Some("pins") => trace_all(&args, true),
        None if args.flag("workload").is_some() => contract(&args),
        _ => Err("usage: layers --workload W --seed S --seconds T --trace 1 | trace | pins".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("layers: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs one workload's traced pass and writes its spans.
fn pass(
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    pins: Option<&Pins>,
) -> Result<Sheet, String> {
    w.check_host()?;
    // dlb-par reads the variable at every fan-out; no pool or worker
    // thread is alive between passes, so setting it here is safe.
    std::env::set_var("DLB_THREADS", w.threads.to_string());
    std::env::set_current_dir(env!("CARGO_MANIFEST_DIR")).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    let mut sheet = Sheet::new();
    let mut trace = Trace::new(format!("{}/seed{seed}/{seconds}s", w.name));
    trace.span("pass", |t| {
        let text = w.scenario(seed, job_seconds(seconds));
        let spec = t.span("scenario.parse", |_| ScenarioSpec::parse(&text));
        let spec = match spec {
            Ok(spec) => spec,
            Err(e) => {
                sheet.check(false, || {
                    format!("{}: '{text}' does not parse: {e}", w.name)
                });
                return;
            }
        };
        let setup = Setup {
            workload: w,
            text,
            spec,
        };
        match w.kind {
            Kind::Executor | Kind::Stream => executor::pass(t, &mut sheet, &setup),
            Kind::Engine => engine::pass(t, &mut sheet, &setup),
        }
    });

    let root = trace.find("pass").expect("the pass span exists");
    if let Some(id) = trace.find("scenario.parse") {
        sheet.set(
            "scenario.parse_us",
            trace.spans()[id].duration_ns() as f64 / 1e3,
        );
    }
    sheet.set(
        "scenario.build_instance_s",
        trace.total_s("scenario.build_instance"),
    );
    sheet.set(
        "scenario.setup_raw_s",
        trace.total_s("scenario.parse") + trace.total_s("scenario.build_instance"),
    );
    let coverage = trace.coverage(root);
    sheet.set("trace.span_coverage", coverage);
    let valid = trace.validate();
    sheet.check(valid.is_ok(), || {
        format!("{}: span tree is broken: {valid:?}", w.name)
    });
    sheet.check(coverage >= MIN_COVERAGE, || {
        format!(
            "{}: top-level spans cover {:.1} % of the pass, under {:.0} %",
            w.name,
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        )
    });
    if let Some(pins) = pins.filter(|p| p.applies(seed, seconds)) {
        let mismatches = pins.check("layers", w.name, &sheet.exact_values());
        sheet.check(mismatches.is_empty(), || {
            format!(
                "{}: exact per-layer values moved from expected.json:\n  {}",
                w.name,
                mismatches.join("\n  ")
            )
        });
    }
    let path = format!("{OUT_DIR}/trace-{}.json", w.name);
    std::fs::write(&path, trace.to_json().render()).map_err(|e| format!("{path}: {e}"))?;
    Ok(sheet)
}

fn report(w: &Workload, sheet: &Sheet) {
    print_lines(w.name, &sheet.metrics());
    println!(
        "{}/runtime.event_hash_hex {:013x} hex",
        w.name,
        sheet.get("runtime.event_hash") as u64
    );
    sheet.checks.print_problems();
}

/// The pipeline's entry: one workload, result line last.
fn contract(args: &Args) -> Result<bool, String> {
    let name = args.flag("workload").unwrap_or_default();
    let w = Workload::by_name(name).ok_or(format!("unknown workload '{name}'"))?;
    if args.parsed("trace", 1u8)? != 1 {
        return Err("--trace 0 is the `e2e` binary's job (benchmark/run.sh dispatches)".into());
    }
    let (seed, seconds) = args.seed_and_seconds()?;
    let pins = Pins::embedded()?;
    stamp::print_header(w.threads);
    let sheet = pass(w, seed, seconds, Some(&pins))?;
    report(w, &sheet);
    println!("{}", sheet.checks.result_line(&sheet.metrics()));
    Ok(sheet.checks.passed())
}

/// `layers trace` runs all five; `layers pins` also re-records the
/// layers section of `expected.json` from what it measured.
fn trace_all(args: &Args, record: bool) -> Result<bool, String> {
    let (seed, seconds) = if record {
        (PINNED_SEED, f64::from(RUN_SECONDS))
    } else {
        args.seed_and_seconds()?
    };
    let mut pins = if record {
        Pins::on_disk()
    } else {
        Pins::embedded()?
    };
    stamp::print_header(max_threads());
    let mut ok = true;
    for w in &WORKLOADS {
        let sheet = pass(w, seed, seconds, (!record).then_some(&pins))?;
        report(w, &sheet);
        ok &= sheet.checks.passed();
        if record {
            pins.record("layers", w.name, &sheet.exact_values());
        }
    }
    if record && ok {
        pins.save()?;
    }
    println!(
        "# {}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}
