//! `e2e` — the end-to-end half of the benchmark, tracing off.
//!
//! ```text
//! e2e --workload W --seed S --seconds T --trace 0   one workload, result line last
//! e2e run   [--seed S] [--seconds T] [--passes N]   all five, round-robin
//! e2e noise [--sets 2] [--passes 5] [--seed S]      A/A check of the harness itself
//! e2e pins                                          re-record expected.json's e2e section
//! ```
//!
//! Surface rule: of the whole workspace this file touches only
//! `ScenarioSpec::{parse, build_instance, run_on}` and the `RunRecord`
//! fields `history`, `iterations`, `converged` and
//! `stream.{served, dropped, p99_ms}`, so that a refactor of anything
//! beneath the scenario API cannot break the gate (README: checklist).
//!
//! A run is `REPEATS` repeats of one job, each in a fresh child process
//! (`e2e child ...`): the parent sleeps, the child stamps its own clock
//! around `run_on`, reads its own `/proc/self/{status,stat}` and prints
//! one JSON line. The run reports the repeat whose wall is the median.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use dlb_benchmark::args::Args;
use dlb_benchmark::child::{run_child, READY};
use dlb_benchmark::expected::{Pins, Values};
use dlb_benchmark::json::Json;
use dlb_benchmark::metrics::{print_lines, Checks, Metric, END_TO_END};
use dlb_benchmark::workloads::{
    job_seconds, max_threads, Kind, Workload, PINNED_SEED, REPEATS, RUN_SECONDS, WORKLOADS,
};
use dlb_benchmark::{procfs, stamp, stats};
use dlb_scenario::ScenarioSpec;

/// A child that has not finished after this many times its intended
/// run length is killed and counted as failed.
const HANG_FACTOR: f64 = 4.0;

/// After each timed repeat, set-up alone is sampled in further fresh
/// children (they exit at `ready`), so that the samples are spread over
/// the whole run instead of sitting in one short window of machine
/// state. A batch ends at `SETUP_BATCH_MAX` samples, or as soon as one
/// more sample (at the cost of the last) would take it past
/// `SETUP_BATCH_S`: milliseconds of set-up get ten samples a batch,
/// seconds of set-up none beyond the timed repeats' own.
const SETUP_BATCH_MAX: usize = 10;
const SETUP_BATCH_S: f64 = 0.5;

/// ΣC along an engine history may rise by this share at a cost resync
/// (delta-tracked cost replaced by a fresh sum) and still count as
/// non-increasing.
const MONOTONE_REL_TOL: f64 = 1e-9;

fn main() -> ExitCode {
    let t0 = Instant::now();
    let args = Args::from_env();
    let outcome = match args.command() {
        Some("child") => return child(t0, &args),
        Some("run") => run(&args),
        Some("noise") => noise(&args),
        Some("pins") => pins(),
        None if args.flag("workload").is_some() => contract(&args),
        _ => Err(
            "usage: e2e --workload W --seed S --seconds T --trace 0 | run | noise | pins".into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------- child

/// `e2e child <workload> <seed> <job seconds> [setup-only]`
fn child(t0: Instant, args: &Args) -> ExitCode {
    let parsed = (|| {
        let workload = Workload::by_name(args.positional(1)?)?;
        let seed: u64 = args.positional(2)?.parse().ok()?;
        let seconds: f64 = args.positional(3)?.parse().ok()?;
        Some((workload, seed, seconds))
    })();
    let Some((workload, seed, seconds)) = parsed else {
        eprintln!("e2e child: bad arguments");
        return ExitCode::from(2);
    };
    let text = workload.scenario(seed, seconds);
    let spec = match ScenarioSpec::parse(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("e2e child: scenario '{text}' does not parse: {e}");
            return ExitCode::from(2);
        }
    };
    let instance = spec.build_instance();
    let t1 = Instant::now();
    println!("{READY}");
    if args.positional(4) == Some("setup-only") {
        return ExitCode::SUCCESS;
    }
    let record = spec.run_on(instance);
    let t2 = Instant::now();

    let history = &record.history;
    let monotone = history
        .windows(2)
        .all(|w| w[1] <= w[0] + w[0].abs() * MONOTONE_REL_TOL);
    let stat = procfs::self_stat().unwrap_or_default();
    let line = Json::obj([
        ("scenario", Json::Str(text)),
        ("setup_raw_s", Json::Num((t1 - t0).as_secs_f64())),
        ("run_wall_s", Json::Num((t2 - t1).as_secs_f64())),
        (
            "peak_rss_bytes",
            Json::Num(procfs::peak_rss_bytes().unwrap_or(0) as f64),
        ),
        ("user_s", Json::Num(stat.user_s)),
        ("sys_s", Json::Num(stat.sys_s)),
        ("minor_faults", Json::Num(stat.minor_faults as f64)),
        (
            "cost_first",
            Json::Num(history.first().copied().unwrap_or(f64::NAN)),
        ),
        (
            "cost_last",
            Json::Num(history.last().copied().unwrap_or(f64::NAN)),
        ),
        ("history_len", Json::Num(history.len() as f64)),
        (
            "history_finite",
            Json::Bool(history.iter().all(|c| c.is_finite())),
        ),
        ("history_monotone", Json::Bool(monotone)),
        ("iterations", Json::Num(record.iterations as f64)),
        ("converged", Json::Bool(record.converged)),
        ("served", Json::Num(record.stream.served as f64)),
        ("dropped", Json::Num(record.stream.dropped as f64)),
        ("p99_ms", Json::Num(record.stream.p99_ms)),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

// --------------------------------------------------------------- parent

/// One workload measured once: `REPEATS` timed repeats of one job, with
/// set-up samples in between.
struct Measurement {
    /// The end-to-end metrics, in `END_TO_END` order.
    metrics: Vec<Metric>,
    /// Simulated statistics, compared exactly between repeats and with
    /// the pins.
    simulated: Values,
    /// Host figures printed for the reader, not part of the contract.
    info: Vec<Metric>,
    checks: Checks,
}

impl Measurement {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    fn passed(&self) -> bool {
        self.checks.passed()
    }
}

fn child_args(w: &Workload, seed: u64, job_s: f64, setup_only: bool) -> Vec<String> {
    let mut args = vec![
        "child".to_string(),
        w.name.to_string(),
        seed.to_string(),
        job_s.to_string(),
    ];
    if setup_only {
        args.push("setup-only".into());
    }
    args
}

/// A timed child's report line, read by key.
struct Report(Json);

impl Report {
    fn num(&self, key: &str) -> f64 {
        self.0.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.get(key) == Some(&Json::Bool(true))
    }

    fn cost_ratio(&self) -> f64 {
        self.num("cost_last") / self.num("cost_first")
    }

    /// What must repeat bit for bit for one (workload, seed, size).
    fn simulated(&self) -> Values {
        vec![
            ("cost_ratio".into(), self.cost_ratio()),
            ("rounds".into(), self.num("iterations")),
            ("stream_served".into(), self.num("served")),
            ("stream_dropped".into(), self.num("dropped")),
            ("stream_p99_ms".into(), self.num("p99_ms")),
        ]
    }

    /// The invariants every run of any seed must satisfy.
    fn check(&self, w: &Workload, job_s: f64, checks: &mut Checks) {
        let (cost_ratio, rounds) = (self.cost_ratio(), self.num("iterations"));
        checks.check(
            self.num("history_len") >= 1.0 && self.flag("history_finite"),
            || format!("{}: history empty or not finite", w.name),
        );
        checks.check(cost_ratio <= 1.0, || {
            format!("{}: cost_ratio {cost_ratio} is not <= 1", w.name)
        });
        checks.check(self.num("run_wall_s") > 0.0 && rounds >= 1.0, || {
            format!(
                "{}: no timed region or no rounds in the child's report",
                w.name
            )
        });
        match w.kind {
            Kind::Engine => checks.check(self.flag("history_monotone"), || {
                format!("{}: total cost rose along the engine's history", w.name)
            }),
            Kind::Stream => checks.check(self.num("served") + self.num("dropped") > 0.0, || {
                format!("{}: the stream served and dropped nothing", w.name)
            }),
            Kind::Executor => {}
        }
        checks.check(rounds == w.rounds(job_s) as f64, || {
            format!(
                "{}: ran {rounds} rounds on a budget of {}",
                w.name,
                w.rounds(job_s)
            )
        });
    }
}

fn measure(
    w: &Workload,
    seed: u64,
    seconds: f64,
    pins: Option<&Pins>,
) -> Result<Measurement, String> {
    w.check_host()?;
    let job_s = job_seconds(seconds);
    let limit = Duration::from_secs_f64(job_s * HANG_FACTOR + 30.0);
    let spawn = |setup_only: bool| {
        run_child(&child_args(w, seed, job_s, setup_only), w.threads, limit)
            .map_err(|e| format!("cannot spawn child: {e}"))
    };
    let mut checks = Checks::default();

    // Spawn → `ready` of every child, timed or not: each is a process
    // that has never run before.
    let mut setup = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..REPEATS {
        let out = spawn(false)?;
        checks.check(out.success, || {
            if out.timed_out {
                format!(
                    "{}: child killed after {:.0} s\n{}",
                    w.name,
                    limit.as_secs_f64(),
                    out.stderr
                )
            } else {
                format!("{}: child exited non-zero\n{}", w.name, out.stderr)
            }
        });
        let report = Report(Json::parse(out.stdout.trim()).unwrap_or(Json::Null));
        report.check(w, job_s, &mut checks);
        reports.push(report);

        setup.extend(out.ready_s);
        let batch = Instant::now();
        let mut cost = out.ready_s;
        for _ in 0..SETUP_BATCH_MAX {
            // One more sample costs about what the last one did.
            if !cost.is_some_and(|c| batch.elapsed().as_secs_f64() + c <= SETUP_BATCH_S) {
                break;
            }
            let out = spawn(true)?;
            cost = out.ready_s.filter(|_| out.success);
            checks.check(cost.is_some(), || {
                format!("{}: set-up child failed\n{}", w.name, out.stderr)
            });
            setup.extend(cost);
        }
    }

    // Repeats of one job are the same computation: any difference in a
    // simulated statistic is a determinism bug in the program.
    let simulated: Vec<Values> = reports.iter().map(Report::simulated).collect();
    let differing = repeat_mismatches(w, &simulated);
    checks.check(differing.is_empty(), || differing.join("\n"));
    let simulated = simulated.into_iter().next().unwrap_or_default();
    if let Some(pins) = pins.filter(|p| p.applies(seed, seconds)) {
        let mismatches = pins.check("e2e", w.name, &simulated);
        checks.check(mismatches.is_empty(), || {
            format!(
                "{}: simulated statistics moved from expected.json:\n  {}",
                w.name,
                mismatches.join("\n  ")
            )
        });
    }

    // The run reports the repeat whose wall is the median, whole: its
    // time, memory and CPU figures belong to one process.
    let walls: Vec<f64> = reports.iter().map(|r| r.num("run_wall_s")).collect();
    let mut by_wall: Vec<&Report> = reports.iter().collect();
    by_wall.sort_by(|a, b| a.num("run_wall_s").total_cmp(&b.num("run_wall_s")));
    let mid = by_wall[REPEATS / 2];
    let (run_wall_s, rounds) = (mid.num("run_wall_s"), mid.num("iterations"));

    let value = |name: &str| match name {
        "run_wall_s" => run_wall_s,
        "setup_s" => stats::median(&setup),
        "peak_rss_mb" => mid.num("peak_rss_bytes") / 1e6,
        "cost_ratio" => mid.cost_ratio(),
        "rounds" => rounds,
        "host_us_per_round" => run_wall_s / rounds * 1e6,
        other => unreachable!("end-to-end metric '{other}' has no source"),
    };
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|m| Metric::new(m.name, value(m.name), m.unit))
        .collect();
    checks.check(
        metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
        || {
            format!(
                "{}: an end-to-end metric is missing, zero or not finite",
                w.name
            )
        },
    );
    let cpu_s = mid.num("user_s") + mid.num("sys_s");
    let info = vec![
        Metric::new("run_wall_min_s", stats::min(&walls), "s"),
        Metric::new("run_wall_max_s", stats::max(&walls), "s"),
        Metric::new("setup_samples", setup.len() as f64, "count"),
        Metric::new("setup_raw_s", mid.num("setup_raw_s"), "s"),
        Metric::new("process.cpu_s", cpu_s, "s"),
        Metric::new(
            "process.cpu_per_wall",
            cpu_s / (mid.num("setup_raw_s") + run_wall_s),
            "ratio",
        ),
        Metric::new("process.sys_s", mid.num("sys_s"), "s"),
        Metric::new("process.minor_faults", mid.num("minor_faults"), "count"),
        Metric::new("stream_served", mid.num("served"), "count"),
        Metric::new("stream_dropped", mid.num("dropped"), "count"),
        Metric::new("stream_p99_ms", mid.num("p99_ms"), "ms"),
        Metric::new(
            "converged",
            f64::from(u8::from(mid.flag("converged"))),
            "bool",
        ),
    ];
    Ok(Measurement {
        metrics,
        simulated,
        info,
        checks,
    })
}

fn report(w: &Workload, m: &Measurement) {
    print_lines(w.name, &m.metrics);
    print_lines(w.name, &m.info);
    m.checks.print_problems();
}

/// The pipeline's entry: one workload, result line last.
fn contract(args: &Args) -> Result<bool, String> {
    let name = args.flag("workload").unwrap_or_default();
    let w = Workload::by_name(name).ok_or(format!("unknown workload '{name}'"))?;
    if args.parsed("trace", 0u8)? != 0 {
        return Err("--trace 1 is the `layers` binary's job (benchmark/run.sh dispatches)".into());
    }
    let (seed, seconds) = args.seed_and_seconds()?;
    let pins = Pins::embedded()?;
    stamp::print_header(w.threads);
    let m = measure(w, seed, seconds, Some(&pins))?;
    report(w, &m);
    println!("{}", m.checks.result_line(&m.metrics));
    Ok(m.passed())
}

/// Runs every workload `passes` times, round-robin, and returns the
/// measurements per workload in pass order.
fn passes(
    seed: u64,
    seconds: f64,
    passes: usize,
    pins: &Pins,
) -> Result<Vec<Vec<Measurement>>, String> {
    let mut all: Vec<Vec<Measurement>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for pass in 0..passes {
        for (slot, w) in all.iter_mut().zip(&WORKLOADS) {
            let m = measure(w, seed, seconds, Some(pins))?;
            println!("# pass {} {}", pass + 1, w.name);
            report(w, &m);
            slot.push(m);
        }
    }
    Ok(all)
}

/// Repeats of one (workload, seed) must agree exactly on every
/// simulated statistic. Returns what does not.
fn repeat_mismatches<'a>(w: &Workload, runs: impl IntoIterator<Item = &'a Values>) -> Vec<String> {
    let mut runs = runs.into_iter();
    let Some(first) = runs.next() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, run) in runs.enumerate() {
        for ((name, a), (_, b)) in first.iter().zip(run) {
            if a.to_bits() != b.to_bits() {
                out.push(format!(
                    "{}/{name}: run 1 gave {a}, run {} gave {b}",
                    w.name,
                    i + 2
                ));
            }
        }
    }
    out
}

/// `e2e run`: the ledger command. Every metric of every workload by
/// name with its unit, outputs checked.
fn run(args: &Args) -> Result<bool, String> {
    let (seed, seconds) = args.seed_and_seconds()?;
    let n = args.parsed("passes", 1usize)?.max(1);
    let pins = Pins::embedded()?;
    stamp::print_header(max_threads());
    let all = passes(seed, seconds, n, &pins)?;
    let mut ok = true;
    println!("# medians over {n} pass(es), seed {seed}, {seconds} s");
    for (w, runs) in WORKLOADS.iter().zip(&all) {
        for m in END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.value(m.name)).collect();
            println!(
                "{}/{} {} {}",
                w.name,
                m.name,
                stats::median(&values),
                m.unit
            );
        }
        ok &= runs.iter().all(Measurement::passed);
        for line in repeat_mismatches(w, runs.iter().map(|r| &r.simulated)) {
            eprintln!("FAILED {line}");
            ok = false;
        }
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

/// `e2e noise`: two (or more) sets of passes of the same binary; the
/// gap between set medians is the harness's own noise, and must sit
/// inside every metric's bound for the bound to mean anything.
fn noise(args: &Args) -> Result<bool, String> {
    let (seed, seconds) = args.seed_and_seconds()?;
    let sets: usize = args.parsed("sets", 2)?;
    let n: usize = args.parsed("passes", 5)?;
    if sets < 2 || n < 1 {
        return Err("noise needs --sets >= 2 and --passes >= 1".into());
    }
    let pins = Pins::embedded()?;
    stamp::print_header(max_threads());
    let mut by_set = Vec::new();
    for set in 0..sets {
        println!("# set {}", set + 1);
        by_set.push(passes(seed, seconds, n, &pins)?);
    }

    let mut ok = true;
    println!();
    println!("| workload | metric | unit | n | median | q1 | q3 | spread | set medians | gap | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    for (wi, w) in WORKLOADS.iter().enumerate() {
        let runs: Vec<&Measurement> = by_set.iter().flat_map(|set| set[wi].iter()).collect();
        ok &= runs.iter().all(|r| r.passed());
        for line in repeat_mismatches(w, runs.iter().map(|r| &r.simulated)) {
            eprintln!("FAILED {line}");
            ok = false;
        }
        for m in END_TO_END {
            let all: Vec<f64> = runs.iter().map(|r| r.value(m.name)).collect();
            let medians: Vec<f64> = by_set
                .iter()
                .map(|set| {
                    stats::median(&set[wi].iter().map(|r| r.value(m.name)).collect::<Vec<_>>())
                })
                .collect();
            let base = medians[0];
            let gap = medians
                .iter()
                .map(|x| ((x - base) / base).abs())
                .fold(0.0, f64::max);
            let identical = all.iter().all(|x| x.to_bits() == all[0].to_bits());
            // A simulated statistic must not differ at all between
            // sets; a host measurement must stay inside its bound.
            let pass = if m.exact { identical } else { gap <= m.bound };
            ok &= pass;
            let (q1, q3) = stats::quartiles(&all).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "| {} | {} | {} | {} | {:.6} | {:.6} | {:.6} | {:.2} % | {} | {:.2} % | {:.0} % | {} |",
                w.name,
                m.name,
                m.unit,
                all.len(),
                stats::median(&all),
                q1,
                q3,
                stats::spread(&all).unwrap_or(f64::NAN) * 100.0,
                medians.iter().map(|x| format!("{x:.6}")).collect::<Vec<_>>().join(" / "),
                gap * 100.0,
                m.bound * 100.0,
                match (pass, m.exact) {
                    (true, true) => "identical",
                    (true, false) => "ok",
                    (false, _) => "FAIL",
                },
            );
        }
    }
    println!();
    println!(
        "# {}",
        if ok {
            "noise check passed"
        } else {
            "NOISE CHECK FAILED"
        }
    );
    Ok(ok)
}

/// `e2e pins`: re-records the e2e section of `expected.json` from this
/// build, at the pinned seed and size.
fn pins() -> Result<bool, String> {
    let mut pins = Pins::on_disk();
    for w in &WORKLOADS {
        let m = measure(w, PINNED_SEED, f64::from(RUN_SECONDS), None)?;
        report(w, &m);
        if !m.passed() {
            return Ok(false);
        }
        pins.record("e2e", w.name, &m.simulated);
    }
    pins.save()?;
    Ok(true)
}
