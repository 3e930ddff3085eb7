//! `dlb` — run the paper's systems from a shell.
//!
//! ```text
//! dlb run algo=batched net=pl m=500 load=peak avg=200 seed=7
//! dlb run algo=protocol faults=crash:0.1@500ms,loss:0.05 m=2000
//! dlb run algo=protocol m=100000 net=homog select=topk:32 patience=8
//! dlb run --scenario "algo=nash m=24 eps=0.01 patience=2" --out nash.jsonl
//! dlb report BENCH_figure2.json
//! ```
//!
//! `dlb run KEY=VALUE...` is the one way to name an experiment: the
//! tokens are a [`dlb_scenario::ScenarioSpec`] (deterministic per
//! `seed`), which `run` executes through
//! [`dlb_scenario::ScenarioSpec::run`], prints as a compact report,
//! and emits as a JSON-lines record through
//! [`dlb_scenario::results::JsonlSink`] — `--out FILE` writes to an
//! explicit file, otherwise `DLB_RESULTS_DIR` selects the directory
//! (unset = no record). `dlb report` renders those records (and the
//! committed bench artifacts) as aligned tables. The full experiment
//! grids — and the engine-vs-optimum, selfish-vs-cooperative and
//! protocol-vs-engine comparisons — live in `cargo bench -p dlb-bench`
//! and the root examples.

/// `println!` whose failed write comes back through `?` ([`write_failed`]).
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        writeln!(std::io::stdout(), $($arg)*).map_err(crate::write_failed)?
    }};
}

mod args;
mod trace;

use args::Args;
use dlb_scenario::report::render_report;
use dlb_scenario::results::{JsonlSink, Record};
use dlb_scenario::{AlgoSpec, ScenarioSpec, SpecError, TraceSpec};
use dlb_topology::coords::{Estimator, EstimatorConfig};
use std::io::{self, Write};
use std::process::ExitCode;

const USAGE: &str = "\
dlb — network delay-aware load balancing (Skowron & Rzadca, IPDPS'13)

commands:
  run        run one declaratively named scenario
  report     render tables from JSON-lines result files
  trace      inspect, replay-verify, or export a recorded frame log
  estimate   run Vivaldi latency estimation against a synthetic network
  help       show this text

run:
  dlb run [KEY=VALUE]... [--scenario TEXT] [--out FILE]
  scenario keys (defaults shown):
    algo=sequential   sequential | batched | nash | protocol | bcd
                      (protocol: the message-passing deployment on the
                      deterministic virtual-time executor — m=5000 in
                      one process, m=100000 with select=topk; reports
                      simulated protocol seconds)
    net=homog         homog | euclid | pl
    m=20              number of organizations
    lat=20            homogeneous latency in ms (net=homog only)
    load=exp          const | uniform | exp | peak
    avg=50            average initial load per server
    speeds=uniform    uniform | const
    seed=1            RNG seed (sampling + iteration order)
    gran=0            transfer quantum (0 = continuous)
    eps=1e-10         termination tolerance
    patience=3        consecutive calm rounds to stop
    budget=2000       iteration/round/sweep budget
    select=exact      exact | topk:K — partner selection, algo=protocol
                      only. exact scores every peer per round (O(m)
                      per node); topk:K scores the K delay-nearest
                      peers plus the gossiped hot set (most/least
                      loaded), rebuilt only when the load vector
                      changes. topk:32 runs m=100000 event rounds:
                      dlb run algo=protocol m=100000 net=homog \\
                        select=topk:32 patience=8
    faults=           deterministic fault schedule, algo=protocol
                      only. Comma-separated primitives:
                      crash:F@Tms[..Tms] (fraction F crashes at T,
                      optional recovery), loss:P[@Tms..Tms] (per-frame
                      loss), spike:Fx@Tms..Tms (delay multiplier),
                      part:Tms..Tms (bipartition), slow:F@Fx[@Tms..Tms]
                      (fraction F straggles at Fx× outbound delay).
                      Example: faults=crash:0.1@500ms,loss:0.05 — one
                      seed fixes workload, delays, and the fault
                      trajectory, so records reproduce bit for bit
    detect=oracle     oracle | timeout:MS | adaptive — liveness source,
                      algo=protocol only. oracle consults
                      the fault script directly (the idealized baseline);
                      timeout:MS suspects any node silent MS past the
                      round start; adaptive learns per-node report
                      cadence (phi-accrual-style) and sets per-node
                      deadlines. Suspected nodes are excluded from the
                      next round, wrongly suspected stragglers rejoin
                      with exact load conservation, and the record
                      carries a detector_* summary
    arrivals=         open-system request stream, algo=protocol
                      only; requires duration=.
                      Comma-separated processes, rates in requests per
                      second of virtual time: poisson:RATE (constant
                      rate over the whole run), burst:RATE@Tms..Tms
                      (extra rate inside the window),
                      diurnal:RATE@PERIODms (sinusoidal rate, one
                      cycle per period). Requests arrive at their home
                      organization, are routed where the protocol has
                      placed that organization's load, and are served
                      at the host's speed; the protocol keeps
                      rebalancing while the stream runs instead of
                      quiescing. The record carries a stream_* summary
                      (served/dropped counts, p50/p99 sojourn in
                      virtual ms, time spent imbalanced). One seed
                      fixes the arrival times, routing draws, delays,
                      and faults, so records reproduce bit for bit.
                      Example: dlb run algo=protocol m=2000 \\
                        arrivals=poisson:500,burst:2000@1000ms..2000ms \\
                        duration=4000
    duration=         stream horizon in virtual ms (accepts an 'ms'
                      suffix); requires arrivals=
    gossip=emulated   emulated | event:PERIODms — control plane
                      behind the engine's partner scoring,
                      algo=sequential|batched only. emulated (the
                      default) runs none: scoring reads live loads.
                      event:PERIODms runs the delta-gossip protocol
                      from dlb-gossip: per-server views fed by sharded
                      delta frames every PERIOD virtual ms, advanced
                      ~log2(m) periods per engine iteration,
                      with every byte metered — the record carries a
                      gossip_* summary. A non-default value switches
                      the engine to pruned partner selection (stale
                      views only reach the pruned pre-scoring).
                      Example: dlb run algo=batched m=500 net=pl \\
                        gossip=event:100ms
    trace=off         off | summary | frames:FILE — deterministic
                      observability, algo=protocol only.
                      off (the default) observes nothing and keeps the
                      run byte-identical to an untraced one. summary
                      attaches the trace plane and adds an obs_*
                      summary to the record (event counts, frame
                      latency percentiles — all stamped in virtual
                      time, so they reproduce bit for bit per seed).
                      frames:FILE additionally writes the full event
                      stream as a binary frame log for `dlb trace`.
                      Example: dlb run algo=protocol m=2000 \\
                        faults=crash:0.1@500ms detect=adaptive \\
                        trace=frames:run.dlbf

report:
  dlb report FILE...          (e.g. dlb report BENCH_figure2.json)

trace:
  dlb trace show FILE [--node N|coord] [--kind LABEL|FAMILY]
                      [--from MS] [--to MS] [--limit N]
                      render the recorded event stream as an aligned
                      table; families: frame, timer, round, exchange,
                      detector, gossip, stream
  dlb trace replay FILE
                      re-derive the run from the log's own scenario
                      header and verify it reproduces the recording
                      bit-exactly (event stream, event_hash, outcomes);
                      a divergence is a non-zero exit naming the first
                      disagreement
  dlb trace chrome FILE [--out FILE.json]
                      export Chrome trace-event JSON for
                      chrome://tracing / Perfetto

estimate options:
  --servers N  --ticks N  --probes N  --seed N  --out FILE";

/// A write to stdout failed: a reader gone away (`BrokenPipe`, as under
/// `dlb … | head -1`) is a clean stop, exit 0; anything else exit 1.
fn write_failed(e: io::Error) -> SpecError {
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    SpecError(format!("cannot write to standard output ({e})"))
}

/// Opens the run sink: `--out FILE` explicitly, the
/// `DLB_RESULTS_DIR`-driven sink otherwise.
fn open_sink(args: &Args) -> Result<JsonlSink, SpecError> {
    match args.get("out") {
        Some(path) => JsonlSink::create_at(path)
            .map_err(|e| SpecError(format!("--out {path}: cannot create ({e})"))),
        None => Ok(JsonlSink::create("cli")),
    }
}

/// Closes the sink [`open_sink`] opened. A record that did not reach a
/// file the user named with `--out` is an error; the `DLB_RESULTS_DIR`
/// sink stays best-effort.
fn close_sink(args: &Args, sink: JsonlSink) -> Result<(), SpecError> {
    match (args.get("out"), sink.finish()) {
        (Some(path), Err(e)) => Err(SpecError(format!("--out {path}: cannot write ({e})"))),
        _ => Ok(()),
    }
}

/// Runs one scenario through the shared runner layer, prints the
/// compact report, and emits the `RunRecord` through the sink.
fn cmd_run(args: &Args) -> Result<(), SpecError> {
    let mut text = args.positionals.join(" ");
    if let Some(flag) = args.get("scenario") {
        if !text.is_empty() {
            text.push(' ');
        }
        text.push_str(flag);
    }
    let spec = ScenarioSpec::parse(&text)?;
    let mut sink = open_sink(args)?;
    if let TraceSpec::Frames(path) = &spec.trace {
        // Create (or truncate) the frame log before the run, like
        // `--out`: an unwritable path must not cost a whole run first.
        std::fs::File::create(path)
            .map_err(|e| SpecError(format!("trace=frames:{path}: cannot create ({e})")))?;
    }
    let started = std::time::Instant::now();
    let run = spec.try_run_on(spec.build_instance())?;
    let host_secs = started.elapsed().as_secs_f64();
    sink.record(&Record::from_run("run", &run));
    outln!("scenario: {}", run.scenario);
    outln!("m = {}, initial ΣC = {:.1}", run.m, run.initial_cost());
    let trajectory = &run.history[1..];
    let shown = 12usize;
    for (i, c) in trajectory.iter().take(shown).enumerate() {
        outln!("iteration {:>3}: ΣC = {c:.1}", i + 1);
    }
    if trajectory.len() > shown {
        outln!("... ({} more)", trajectory.len() - shown);
    }
    // A protocol record's `wall_secs` is simulated protocol time; say
    // so, next to what the simulation cost this host.
    let clock = match spec.algo {
        AlgoSpec::Protocol => format!("{:.3} s simulated, {host_secs:.3} s host", run.wall_secs),
        _ => format!("{:.3} s wall", run.wall_secs),
    };
    outln!(
        "converged: {} after {} iterations; final ΣC = {:.1} ({clock})",
        run.converged,
        run.iterations,
        run.final_cost(),
    );
    if !run.stream.is_quiet() {
        outln!(
            "stream: {} served, {} dropped; sojourn p50 = {:.1} ms, p99 = {:.1} ms; \
             imbalanced {:.1} ms",
            run.stream.served,
            run.stream.dropped,
            run.stream.p50_ms,
            run.stream.p99_ms,
            run.stream.imbalance_ms
        );
    }
    if !run.gossip.is_quiet() {
        outln!(
            "gossip: {} frames, {:.2} MB on the wire, {} exchanges",
            run.gossip.frames,
            run.gossip.bytes as f64 / 1e6,
            run.gossip.exchanges
        );
    }
    outln!();
    close_sink(args, sink)
}

fn cmd_report(args: &Args) -> Result<(), SpecError> {
    if args.positionals.is_empty() {
        return Err(SpecError(
            "report needs at least one JSON-lines file (try 'dlb report BENCH_figure2.json')"
                .into(),
        ));
    }
    for path in &args.positionals {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError(format!("{path}: cannot read ({e})")))?;
        if args.positionals.len() > 1 {
            outln!("-- {path} --");
        }
        outln!(
            "{}",
            render_report(&text).map_err(|e| SpecError(format!("{path}: {e}")))?
        );
    }
    Ok(())
}

fn cmd_estimate(args: &Args) -> Result<(), SpecError> {
    if let Some(tok) = args.positionals.first() {
        return Err(SpecError(format!(
            "unexpected argument '{tok}' for 'estimate' (key=value scenario tokens only work \
             with 'dlb run')"
        )));
    }
    let m = args.get_num("servers", 40)?;
    let seed = args.get_num("seed", 1)?;
    let ticks = args.get_num("ticks", 50)?;
    let probes = args.get_num("probes", 4)?;
    // The network is a scenario, so `--servers` answers to `m=`'s rules.
    let truth = ScenarioSpec::parse(&format!("net=pl m={m} seed={seed}"))?.build_latency();
    let mut est = Estimator::new(
        m,
        EstimatorConfig {
            probes_per_tick: probes,
            seed,
        },
    );
    let mut sink = open_sink(args)?;
    outln!("tick  median relative error");
    let step = (ticks / 10).max(1);
    let mut errors = Vec::new();
    for t in 0..ticks {
        est.tick(&truth);
        errors.push(est.median_relative_error(&truth));
        if t % step == 0 || t + 1 == ticks {
            outln!("{:>4}  {:.4}", t + 1, errors[t]);
        }
    }
    sink.record(
        &Record::new("estimate")
            .int("m", m as i64)
            .int("ticks", ticks as i64)
            .int("probes", probes as i64)
            .int("seed", seed as i64)
            .num(
                "final_median_rel_error",
                errors.last().copied().unwrap_or(f64::NAN),
            )
            .nums("history", &errors),
    );
    close_sink(args, sink)
}

fn run() -> Result<(), SpecError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--help` or `-h` anywhere asks for the usage, `dlb run --help` too.
    let help = |arg: &String| arg == "--help" || arg == "-h";
    if raw.first().is_none_or(|first| first == "help") || raw.iter().any(help) {
        outln!("{USAGE}");
        return Ok(());
    }
    type Command = fn(&Args) -> Result<(), SpecError>;
    let (allowed, command): (&[&str], Command) = match raw[0].as_str() {
        "run" => (&["scenario", "out"], cmd_run),
        "report" => (&[], cmd_report),
        "trace" => (
            &["node", "kind", "from", "to", "limit", "out"],
            trace::cmd_trace,
        ),
        "estimate" => (&["servers", "ticks", "probes", "seed", "out"], cmd_estimate),
        other => {
            // A leading option is `Args::parse`'s error to word;
            // anything else is a command this binary does not have.
            Args::parse([other], &[])?;
            return Err(SpecError(format!(
                "unknown command '{other}' (try 'dlb help')"
            )));
        }
    };
    command(&Args::parse(raw, allowed)?)
}

fn main() -> ExitCode {
    match run().and_then(|()| io::stdout().flush().map_err(write_failed)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
