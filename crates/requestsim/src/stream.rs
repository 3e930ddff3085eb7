//! Open-system arrival schedules: the declarative [`ArrivalPlan`] and
//! its compiled, per-run [`StreamScript`].
//!
//! The paper's §II offers a second reading of `n_i`: not a one-shot
//! batch but "a steady state rate of incoming requests in a system
//! continuously processing requests". This module is that reading made
//! executable. An [`ArrivalPlan`] is a comma-separated list of arrival
//! processes, at most one of each kind, written without spaces so the
//! whole plan fits in one `arrivals=` scenario token:
//!
//! ```text
//! poisson:80                 homogeneous Poisson arrivals, 80 req/s
//! burst:200@500ms..900ms     extra 200 req/s inside the window
//! diurnal:50@2000ms          sinusoidal rate, mean 50 req/s,
//!                            period 2000ms (peaks at 100, troughs at 0)
//! ```
//!
//! [`ArrivalPlan::parse`] and the [`Display`](std::fmt::Display) impl
//! round-trip exactly (processes render in the fixed order poisson,
//! burst, diurnal), the same contract `FaultPlan` keeps. Compilation
//! ([`ArrivalPlan::compile`]) resolves the plan against one `(seed,
//! duration, weights)` triple into a concrete, time-sorted arrival
//! schedule with **no RNG stream**: every sampled decision is a pure
//! SplitMix64 hash of its coordinates, so the same plan compiles to
//! the same schedule from any thread, any number of times — the
//! property the virtual-time executor's bit-reproducibility rests on.

use std::fmt;
use std::str::FromStr;

use dlb_core::plan_text::{split_at, Floor, Primitives, Reader, SpecError};
use dlb_core::rngutil::{derive_seed, unit_f64};

/// Homogeneous Poisson arrivals at `rate` requests per (virtual)
/// second for the whole run (`poisson:RATE`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoissonArrivals {
    /// Cluster-wide arrival rate, requests per second, > 0.
    pub rate: f64,
}

/// Extra homogeneous arrivals at `rate` req/s confined to a window —
/// a load burst on top of the base process (`burst:RATE@Tms..Tms`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstArrivals {
    /// Extra arrival rate inside the window, requests per second, > 0.
    pub rate: f64,
    /// Window start (ms).
    pub from_ms: f64,
    /// Window end (ms).
    pub to_ms: f64,
}

/// A sinusoidally modulated arrival process: instantaneous rate
/// `rate · (1 + sin(2πt/period))` — mean `rate`, peaks at `2·rate`,
/// troughs at zero — the classic diurnal load shape compressed onto
/// the virtual clock (`diurnal:RATE@PERIODms`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalArrivals {
    /// Mean arrival rate, requests per second, > 0.
    pub rate: f64,
    /// Oscillation period in virtual ms, > 0.
    pub period_ms: f64,
}

/// A declarative, seed-independent open-system arrival schedule: at
/// most one process of each kind (see the [module docs](self) for the
/// text grammar). [`ArrivalPlan::compile`] turns it into the per-run
/// [`StreamScript`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ArrivalPlan {
    /// Base homogeneous Poisson process.
    pub poisson: Option<PoissonArrivals>,
    /// Windowed burst on top of the base process.
    pub burst: Option<BurstArrivals>,
    /// Sinusoidal (diurnal) process.
    pub diurnal: Option<DiurnalArrivals>,
}

impl ArrivalPlan {
    /// Whether the plan generates nothing.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Parses the text form (see the [module docs](self)). The empty
    /// string yields the empty plan. Messages start with `arrivals: `,
    /// the key whose value the plan is.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        GRAMMAR.parse(text)
    }

    /// Whether the schedule [`compile`](Self::compile) would build
    /// over `duration_ms` is sure to stay under its cap of one million
    /// arrivals: the plan's expected count (each process's rate
    /// integrated over its part of the horizon) plus ten standard
    /// deviations of that Poisson count. A spec that fails this is
    /// refused as text; `compile`'s own assert is the backstop.
    pub fn fits(&self, duration_ms: f64) -> bool {
        let poisson = self.poisson.map_or(0.0, |p| p.rate * duration_ms);
        let burst = self.burst.map_or(0.0, |b| {
            b.rate * (b.to_ms.min(duration_ms) - b.from_ms).max(0.0)
        });
        // ∫₀ᴰ (1 + sin(2πt/P)) dt = D + (P/2π)(1 − cos(2πD/P)); the
        // second term never exceeds D, which is also what `min` makes
        // of the NaN a vanishing period turns it into.
        let diurnal = self.diurnal.map_or(0.0, |d| {
            let turns = std::f64::consts::TAU / d.period_ms;
            let swell = (1.0 - (turns * duration_ms).cos()) / turns;
            d.rate * (duration_ms + swell.min(duration_ms))
        });
        let expected = (poisson + burst + diurnal) / 1000.0;
        expected + 10.0 * expected.sqrt() < MAX_ARRIVALS as f64
    }

    /// Compiles the plan for one run: `seed` fixes every sampled gap
    /// and routing draw, `duration_ms` closes the arrival window, and
    /// `weights` (the instance's own loads — the §II steady-state
    /// rates) weight which organization each request belongs to. See
    /// [`StreamScript`].
    pub fn compile(&self, seed: u64, duration_ms: f64, weights: &[f64]) -> StreamScript {
        StreamScript::compile(self, seed, duration_ms, weights)
    }
}

/// The `arrivals=` grammar: one reader per process kind, in print
/// order.
const GRAMMAR: Primitives<ArrivalPlan> = Primitives {
    key: "arrivals",
    item: "arrival process",
    example: "'poisson:80'",
    family: "arrival",
    kinds: &[
        ("poisson", |plan, value| {
            let rate = rate("arrivals: poisson rate").number(value)?;
            plan.poisson = Some(PoissonArrivals { rate });
            Ok(())
        }),
        ("burst", |plan, value| {
            let example = "burst:200@500ms..900ms";
            let (rate_text, window) = split_at("arrivals: burst", value, "FROM..TO", example)?;
            let rate = rate("arrivals: burst rate").number(rate_text)?;
            let (from_ms, to_ms) =
                Reader::new("arrivals: burst window", "a time in ms").window(window)?;
            plan.burst = Some(BurstArrivals {
                rate,
                from_ms,
                to_ms,
            });
            Ok(())
        }),
        ("diurnal", |plan, value| {
            let (rate_text, period) =
                split_at("arrivals: diurnal", value, "PERIOD", "diurnal:50@2000ms")?;
            let rate = rate("arrivals: diurnal rate").number(rate_text)?;
            let period_ms = Reader::new("arrivals: diurnal period", "a time in ms").ms(period)?;
            if period_ms <= 0.0 {
                return Err(SpecError(format!(
                    "arrivals: diurnal period {period_ms}ms must be positive"
                )));
            }
            plan.diurnal = Some(DiurnalArrivals { rate, period_ms });
            Ok(())
        }),
    ],
};

/// A reader of an arrival rate in requests per second.
fn rate(what: &str) -> Reader<'_> {
    Reader::new(what, "a number").floor(Floor::Positive)
}

impl fmt::Display for ArrivalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(p) = &self.poisson {
            write!(f, "poisson:{}", p.rate)?;
            sep = ",";
        }
        if let Some(b) = &self.burst {
            write!(f, "{sep}burst:{}@{}ms..{}ms", b.rate, b.from_ms, b.to_ms)?;
            sep = ",";
        }
        if let Some(d) = &self.diurnal {
            write!(f, "{sep}diurnal:{}@{}ms", d.rate, d.period_ms)?;
        }
        Ok(())
    }
}

impl FromStr for ArrivalPlan {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Hash-stream salts: distinct SplitMix64 domains per decision family
/// (the `FaultScript` technique).
const SALT_POISSON: u64 = 0xA881_07B5;
const SALT_BURST: u64 = 0xB0B5_7A12;
const SALT_DIURNAL: u64 = 0xD1A4_AA17;
const SALT_ORG: u64 = 0x0497_AB1E;
const SALT_ROUTE: u64 = 0x407E_5EED;

/// Schedules larger than this abort compilation: at ~1 µs of virtual
/// time per event the executor would spend longer on arrivals than on
/// the protocol, and a runaway `rate × duration` product is almost
/// always a spec typo. [`ArrivalPlan::fits`] is the check a scenario
/// text meets first; the `arrivals=` rule that words its refusal
/// (`dlb-scenario`'s axis table) quotes this number.
const MAX_ARRIVALS: usize = 1_000_000;

/// Uniform in `[0, 1)` from the hash stream `(seed, salt, index,
/// lane)` — pure in its coordinates, so schedule generation never
/// holds RNG state.
fn hash_unit(seed: u64, salt: u64, index: u64, lane: u64) -> f64 {
    unit_f64(derive_seed(
        seed ^ salt ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        lane,
    ))
}

/// One scheduled request: emitted by organization `org` at virtual
/// instant `at_ms`, carrying one unit of work and a pre-drawn routing
/// uniform (so the executor that places the request stays RNG-free
/// too).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Virtual instant the request enters the system, ms.
    pub at_ms: f64,
    /// Organization the request belongs to (its `n_i` stream).
    pub org: u32,
    /// Routing draw in `[0, 1)`: the executor inverts it against the
    /// org's current hosting distribution to pick the serving node.
    pub route: f64,
}

/// An [`ArrivalPlan`] compiled for one run: the full, time-sorted
/// arrival schedule. Holds no RNG and no counters — two compilations
/// of the same `(plan, seed, duration, weights)` are `==`, which is
/// what makes streamed runs bit-reproducible across repeats and
/// `DLB_THREADS`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamScript {
    arrivals: Vec<Arrival>,
}

impl StreamScript {
    /// Compiles `plan` under `(seed, duration_ms, weights)` (see
    /// [`ArrivalPlan::compile`]).
    ///
    /// # Panics
    /// Panics when `duration_ms` is not finite, when `weights` is
    /// empty while the plan is not, or when the schedule would exceed
    /// one million events.
    pub fn compile(plan: &ArrivalPlan, seed: u64, duration_ms: f64, weights: &[f64]) -> Self {
        assert!(
            duration_ms.is_finite() && duration_ms >= 0.0,
            "stream duration must be finite and non-negative, got {duration_ms}"
        );
        if plan.is_empty() || duration_ms == 0.0 {
            return Self::default();
        }
        assert!(!weights.is_empty(), "stream needs at least one org");
        // Inverse-CDF table over the org weights: requests follow the
        // §II steady-state rates. All-zero weights fall back to
        // uniform.
        let total: f64 = weights.iter().sum();
        let cdf: Vec<f64> = if total > 0.0 {
            let mut acc = 0.0;
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect()
        } else {
            (1..=weights.len())
                .map(|i| i as f64 / weights.len() as f64)
                .collect()
        };
        let pick_org =
            |u: f64| -> u32 { cdf.partition_point(|&c| c <= u).min(cdf.len() - 1) as u32 };

        let mut arrivals: Vec<(f64, u64, u64)> = Vec::new();
        // One Poisson candidate stream: exponential gaps at `per_ms`
        // from `from` until `to`, candidate `k` at `t` scheduled when
        // `keep(t, k)` holds.
        let mut candidates = |salt, per_ms: f64, from: f64, to, keep: &dyn Fn(f64, u64) -> bool| {
            let mut t = from;
            for k in 0u64.. {
                t += -(1.0 - hash_unit(seed, salt, k, 0)).ln() / per_ms;
                if t >= to {
                    break;
                }
                if keep(t, k) {
                    assert!(
                        arrivals.len() < MAX_ARRIVALS,
                        "arrival schedule exceeds {MAX_ARRIVALS} events — lower the rate or duration"
                    );
                    arrivals.push((t, salt, k));
                }
            }
        };
        let all = |_, _| true;
        if let Some(p) = &plan.poisson {
            candidates(SALT_POISSON, p.rate / 1000.0, 0.0, duration_ms, &all);
        }
        if let Some(b) = &plan.burst {
            let end = b.to_ms.min(duration_ms);
            candidates(SALT_BURST, b.rate / 1000.0, b.from_ms, end, &all);
        }
        if let Some(d) = &plan.diurnal {
            // Thinning: candidates at the peak rate 2·rate, each kept
            // with probability λ(t)/(2·rate) = (1 + sin(2πt/P))/2.
            let swing = |t: f64| (1.0 + (2.0 * std::f64::consts::PI * t / d.period_ms).sin()) / 2.0;
            candidates(
                SALT_DIURNAL,
                2.0 * d.rate / 1000.0,
                0.0,
                duration_ms,
                &|t, k| hash_unit(seed, SALT_DIURNAL, k, 1) < swing(t),
            );
        }
        // Merge the processes onto one timeline. The tie-break (salt,
        // then per-process index) is arbitrary but fixed, so the
        // schedule is a pure function of the inputs. Org and routing
        // draws key on the per-process coordinates, not the merged
        // position, for the same reason.
        arrivals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        let arrivals = arrivals
            .into_iter()
            .map(|(at_ms, salt, k)| Arrival {
                at_ms,
                org: pick_org(hash_unit(seed, salt ^ SALT_ORG, k, 2)),
                route: hash_unit(seed, salt ^ SALT_ROUTE, k, 3),
            })
            .collect();
        Self { arrivals }
    }

    /// The empty script: no arrivals, the closed-batch regime.
    /// [`StreamScript::is_empty`] distinguishes it so hosts can skip
    /// stream bookkeeping entirely and stay byte-identical with their
    /// pre-stream behavior.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the script schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// The time-sorted arrival schedule.
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(text: &str) -> ArrivalPlan {
        text.parse().unwrap()
    }

    #[test]
    fn empty_round_trips() {
        let plan = ArrivalPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.to_string(), "");
    }

    #[test]
    fn all_processes_round_trip() {
        for text in [
            "poisson:80",
            "poisson:12.5",
            "burst:200@500ms..900ms",
            "diurnal:50@2000ms",
            "poisson:80,burst:200@500ms..900ms",
            "poisson:80,burst:200@500ms..900ms,diurnal:50@2000ms",
        ] {
            let plan: ArrivalPlan = text.parse().unwrap();
            assert_eq!(plan.to_string(), text);
            assert_eq!(plan.to_string().parse::<ArrivalPlan>().unwrap(), plan);
        }
    }

    #[test]
    fn ms_suffix_is_optional_on_input() {
        let a: ArrivalPlan = "burst:10@500..900".parse().unwrap();
        let b: ArrivalPlan = "burst:10@500ms..900ms".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "burst:10@500ms..900ms");
        assert_eq!(
            "diurnal:5@100".parse::<ArrivalPlan>().unwrap().to_string(),
            "diurnal:5@100ms"
        );
    }

    #[test]
    fn rejects_bad_plans() {
        for (text, needle) in [
            ("bogus:1", "unknown arrival kind"),
            ("poisson", "not KIND:VALUE"),
            ("poisson:abc", "not a number"),
            ("poisson:0", "finite and positive"),
            ("poisson:-4", "finite and positive"),
            ("poisson:1,poisson:2", "poisson given twice"),
            ("burst:10", "needs '@FROM..TO'"),
            ("burst:10@5ms", "not 'FROMms..TOms'"),
            ("burst:10@9ms..3ms", "must come after"),
            ("burst:0@1ms..2ms", "finite and positive"),
            ("burst:1@1ms..2ms,burst:1@3ms..4ms", "burst given twice"),
            ("diurnal:10", "needs '@PERIOD'"),
            ("diurnal:10@0ms", "must be positive"),
            ("diurnal:10@abc", "not a time"),
            ("diurnal:1@1ms,diurnal:2@2ms", "diurnal given twice"),
            (
                "burst:1@0..1e10ms",
                "burst window: '1e10ms' must be at most 1e9",
            ),
            (
                "diurnal:1@1e308",
                "diurnal period: '1e308' must be at most 1e9",
            ),
        ] {
            let err = ArrivalPlan::parse(text).unwrap_err();
            assert!(err.0.contains(needle), "'{text}' -> {err}");
        }
    }

    #[test]
    fn fits_prices_each_process_over_its_own_part_of_the_horizon() {
        let poisson = plan("poisson:20000");
        assert!(poisson.fits(16_000.0)); // the perf ledger's stream workload
        assert!(poisson.fits(49_000.0)); // 980 000 + 10σ
        assert!(!poisson.fits(50_000.0));
        // A burst counts only where its window and the horizon overlap.
        let burst = plan("burst:1e6@100ms..1200ms");
        assert!(burst.fits(50.0) && burst.fits(1000.0));
        assert!(!burst.fits(1200.0) && !burst.fits(1e9));
        // The diurnal mean, whatever the period does to the float math.
        assert!(plan("diurnal:1000@2000ms").fits(900_000.0));
        assert!(!plan("diurnal:1000@2000ms").fits(1_000_000.0));
        assert!(plan("diurnal:10@1e-320ms").fits(1000.0));
        // Processes add up, and absurd products are refused, not run.
        assert!(!plan("poisson:20000,diurnal:20000@500ms").fits(25_000.0));
        assert!(!plan("poisson:1e12").fits(1000.0));
        assert!(!plan("poisson:10").fits(1e300));
        assert!(ArrivalPlan::default().fits(1e300));
    }

    #[test]
    fn empty_script_schedules_nothing() {
        let s = StreamScript::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(
            ArrivalPlan::default().compile(7, 1000.0, &[1.0, 2.0]),
            StreamScript::empty()
        );
        assert_eq!(
            plan("poisson:50").compile(7, 0.0, &[1.0]),
            StreamScript::empty()
        );
    }

    #[test]
    fn poisson_rate_and_bounds_hold() {
        let s = plan("poisson:100").compile(3, 10_000.0, &[1.0, 1.0]);
        // 100 req/s over 10 virtual seconds ≈ 1000 arrivals.
        let n = s.len() as f64;
        assert!((n - 1000.0).abs() < 150.0, "got {n} arrivals");
        assert!(s
            .arrivals()
            .iter()
            .all(|a| a.at_ms >= 0.0 && a.at_ms < 10_000.0));
        // Sorted by time.
        assert!(s.arrivals().windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
    }

    #[test]
    fn compile_is_pure_and_seed_sensitive() {
        let both = plan("poisson:50,burst:80@100ms..400ms");
        let a = both.compile(9, 2000.0, &[1.0, 2.0, 3.0]);
        let b = both.compile(9, 2000.0, &[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        let c = both.compile(10, 2000.0, &[1.0, 2.0, 3.0]);
        assert_ne!(a, c);
    }

    #[test]
    fn burst_stays_inside_its_window() {
        let s = plan("burst:500@300ms..600ms").compile(11, 10_000.0, &[1.0]);
        assert!(!s.is_empty());
        assert!(s
            .arrivals()
            .iter()
            .all(|a| (300.0..600.0).contains(&a.at_ms)));
    }

    #[test]
    fn diurnal_oscillates_around_the_mean() {
        let s = plan("diurnal:100@2000ms").compile(5, 20_000.0, &[1.0]);
        // Mean 100 req/s over 20 s ≈ 2000 arrivals.
        let n = s.len() as f64;
        assert!((n - 2000.0).abs() < 300.0, "got {n} arrivals");
        // First half-period (rising sine) must out-arrive the second
        // (falling below the mean): the modulation is real.
        let up = s
            .arrivals()
            .iter()
            .filter(|a| a.at_ms.rem_euclid(2000.0) < 1000.0)
            .count();
        let down = s.len() - up;
        assert!(up > down + down / 2, "up {up} vs down {down}");
    }

    #[test]
    fn orgs_follow_the_weights() {
        let s = plan("poisson:500").compile(13, 20_000.0, &[1.0, 3.0]);
        let org1 = s.arrivals().iter().filter(|a| a.org == 1).count();
        let frac = org1 as f64 / s.len() as f64;
        assert!((frac - 0.75).abs() < 0.05, "org-1 share {frac}");
        // Zero weights fall back to uniform.
        let u = plan("poisson:500").compile(13, 20_000.0, &[0.0, 0.0]);
        let org1 = u.arrivals().iter().filter(|a| a.org == 1).count();
        let frac = org1 as f64 / u.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "uniform org-1 share {frac}");
        // Routing draws are uniforms in [0, 1).
        assert!(s.arrivals().iter().all(|a| (0.0..1.0).contains(&a.route)));
    }
}
