//! The five workloads: names, thread counts and scenario text.
//!
//! A workload is a `dlb run` scenario (the *job*) whose size follows
//! from the `--seconds` argument: each has one knob (a round budget, or
//! the streamed duration) that scales the work linearly, and a rate —
//! units of that knob per second of job — measured on the 2-vCPU runner
//! the benchmark was sized on. A run spends its `--seconds` on
//! `REPEATS` repeats of one job, so at the default `--seconds 30` a job
//! is about 6 s there. Rounds are pinned to the budget (`patience`
//! equals it), because how early a run would quiesce depends on the
//! seed far more than on the code, and a run length that moves with the
//! seed cannot gate a speed change.

/// `run_seconds` in `BENCHMARK.json`, and the size the pins in
/// `expected.json` were recorded at.
pub const RUN_SECONDS: u32 = 30;

/// The seed the pins in `expected.json` were recorded at.
pub const PINNED_SEED: u64 = 1;

/// Timed repeats of the job in one run, each in a fresh process. The
/// run reports the repeat whose wall is the median: a stall of the
/// shared runner, or a first repeat that pays for pages the host had
/// taken back, lands in a repeat that is not reported. Odd, so that the
/// median is a repeat.
pub const REPEATS: usize = 5;

/// The size of one job, in seconds on the sizing runner, when a run is
/// given `seconds` in all.
pub fn job_seconds(seconds: f64) -> f64 {
    seconds / REPEATS as f64
}

/// What a workload's rounds run on; decides which checks and which
/// traced pass apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `algo=protocol runtime=events`, closed batch, oracle detector.
    Executor,
    /// The same executor under open-loop arrivals, faults and the
    /// adaptive detector.
    Stream,
    /// `algo=batched`: the iteration engine, optionally gossip-fed.
    Engine,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// `DLB_THREADS` for the run.
    pub threads: usize,
    /// Listed in `BENCHMARK.json`, so the pipeline gates on it. The
    /// other workloads run everywhere else (`e2e run`, `e2e noise`,
    /// `layers trace`) but their wall time swings by more between runs
    /// of identical code on the shared runner than the largest bound
    /// the pipeline allows (`NOISE.md` has the figures), so a gate on
    /// them would only measure the runner.
    pub gated: bool,
    /// Units of the size knob (`{n}`) per second of job on the sizing
    /// runner.
    pub rate: f64,
    /// Rounds (`{rounds}`) per second of job. Equal to `rate` where the
    /// size knob is the round budget.
    pub rounds_rate: f64,
    /// The `dlb run` text, with `{n}`, `{rounds}`, `{seed}` and (a
    /// crash window from an eighth to a half of `{n}`) `{from}`, `{to}`
    /// to fill in.
    template: &'static str,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "exact_m5000",
        gated: true,
        kind: Kind::Executor,
        threads: 2,
        rate: 2.0,
        rounds_rate: 2.0,
        template: "algo=protocol runtime=events net=homog m=5000 select=exact \
                   patience={rounds} budget={rounds} seed={seed}",
        why: "O(m^2) exact partner scoring at m=5000 on 2 threads: compute-bound NodeMachine rounds, negligible heap and allocation",
    },
    Workload {
        name: "topk_m100k",
        gated: true,
        kind: Kind::Executor,
        threads: 2,
        rate: 1.6,
        rounds_rate: 1.6,
        template: "algo=protocol runtime=events net=homog m=100000 select=topk:32 \
                   patience={rounds} budget={rounds} seed={seed}",
        why: "m=100000 with top-32 candidates: machine construction, event heap, pool dispatch, per-frame allocation and page faults dominate",
    },
    // Two knobs here: `{n}` virtual milliseconds of arrivals, and a
    // round budget. Host time goes to the requests, not the rounds (a
    // round costs a few milliseconds), so the budget only has to be
    // small enough that no seed quiesces first and large enough to
    // outlast the arrivals (it does about thirteenfold in virtual
    // time), so that every scheduled request is served or dropped
    // before the run ends. The crash window scales with the duration,
    // so a shorter run still sees every crash and every recovery.
    Workload {
        name: "stream_chaos_m2000",
        gated: false,
        kind: Kind::Stream,
        threads: 1,
        rate: 1000.0,
        rounds_rate: 32.0,
        template: "algo=protocol runtime=events net=homog m=2000 avg=60 \
                   patience={rounds} budget={rounds} select=topk:16 \
                   arrivals=poisson:20000 duration={n} \
                   faults=crash:0.1@{from}ms..{to}ms,loss:0.02 detect=adaptive seed={seed}",
        why: "open-loop Poisson arrivals at 20000 req/s of virtual time with crashes, loss and the adaptive detector on the pool's inline path",
    },
    Workload {
        name: "engine_pl_m1500",
        gated: false,
        kind: Kind::Engine,
        threads: 2,
        rate: 27.0,
        rounds_rate: 27.0,
        template: "algo=batched net=pl m=1500 patience={rounds} budget={rounds} seed={seed}",
        why: "the paper's batched engine (Algorithms 1 and 2) on PlanetLab-like delays: bypasses the executor; set-up is seconds of real work",
    },
    Workload {
        name: "engine_gossip_pl_m500",
        gated: true,
        kind: Kind::Engine,
        threads: 2,
        rate: 18.0,
        rounds_rate: 18.0,
        template: "algo=batched net=pl m=500 gossip=event:100ms \
                   patience={rounds} budget={rounds} seed={seed}",
        why: "the same engine fed by real delta gossip: most of each iteration is GossipFeed::step, DeltaGossip merges and the wire codec",
    },
];

fn scaled(rate: f64, seconds: f64) -> u64 {
    ((rate * seconds).round() as u64).max(1)
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The size knob for a job of `seconds`: a round budget, or virtual
    /// milliseconds of streaming for the stream workload.
    pub fn size(&self, seconds: f64) -> u64 {
        scaled(self.rate, seconds)
    }

    /// The rounds a job of `seconds` must execute.
    pub fn rounds(&self, seconds: f64) -> u64 {
        scaled(self.rounds_rate, seconds)
    }

    /// The scenario text `dlb run` would take. `seed` reaches the
    /// program only through this text.
    pub fn scenario(&self, seed: u64, seconds: f64) -> String {
        let n = self.size(seconds);
        self.template
            .replace("{n}", &n.to_string())
            .replace("{rounds}", &self.rounds(seconds).to_string())
            .replace("{from}", &(n / 8).to_string())
            .replace("{to}", &(n / 2).to_string())
            .replace("{seed}", &seed.to_string())
    }

    /// Refuses a host with fewer cores than the workload's thread
    /// count: numbers from there would measure something else.
    pub fn check_host(&self) -> Result<(), String> {
        if host_cores() < self.threads {
            return Err(format!(
                "{} runs on DLB_THREADS={} but this host offers {} core(s); \
                 numbers from here would measure something else",
                self.name,
                self.threads,
                host_cores()
            ));
        }
        Ok(())
    }
}

/// The largest `DLB_THREADS` any workload runs on.
pub fn max_threads() -> usize {
    WORKLOADS.iter().map(|w| w.threads).max().unwrap_or(1)
}

/// Logical cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_scales_linearly_with_seconds_and_never_reaches_zero() {
        let w = Workload::by_name("exact_m5000").unwrap();
        assert_eq!(w.size(15.0), 30);
        assert_eq!(w.size(30.0), 60);
        assert_eq!(job_seconds(30.0) * REPEATS as f64, 30.0);
        assert_eq!(w.size(0.01), 1);
        assert_eq!(Workload::by_name("topk_m100k").unwrap().rounds(15.0), 24);
    }

    #[test]
    fn scenario_text_carries_seed_and_size_and_leaves_no_placeholder() {
        for w in &WORKLOADS {
            let text = w.scenario(7, 2.0);
            assert!(text.contains("seed=7"), "{text}");
            assert!(text.contains(&w.size(2.0).to_string()), "{text}");
            assert!(!text.contains('{') && !text.contains("  "), "{text}");
            assert_ne!(w.scenario(7, 2.0), w.scenario(8, 2.0));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        let stream = Workload::by_name("stream_chaos_m2000").unwrap();
        let text = stream.scenario(1, 16.0);
        assert!(text.contains("duration=16000"), "{text}");
        assert!(text.contains("crash:0.1@2000ms..8000ms"), "{text}");
        assert!(text.contains("patience=512 budget=512"), "{text}");
        assert_eq!(stream.rounds(16.0), 512);
    }

    #[test]
    fn unknown_names_are_not_workloads() {
        assert!(Workload::by_name("exact_m5001").is_none());
    }
}
