//! The declarative fault schedule and its text form.
//!
//! A [`FaultPlan`] is a comma-separated list of fault primitives, at
//! most one of each kind, written without spaces so the whole plan fits
//! in one `faults=` scenario token:
//!
//! ```text
//! crash:0.1@500ms             a tenth of the nodes crash at t=500ms
//! crash:0.1@500ms..2000ms     ...and recover at t=2000ms
//! loss:0.05                   5% per-frame loss for the whole run
//! loss:0.2@100ms..900ms       ...or only inside a window
//! spike:4x@200ms..800ms       link delays ×4 inside the window
//! part:500ms..1500ms          bipartition drops crossing frames
//! slow:0.05@4x                5% of the nodes send at 4× delay
//! slow:0.05@4x@100ms..900ms   ...or only inside a window
//! ```
//!
//! [`FaultPlan::parse`] and the [`Display`](std::fmt::Display) impl
//! round-trip exactly (primitives render in the fixed order crash,
//! loss, spike, part, slow), so plans travel through scenario text,
//! shell flags, and committed JSON records unchanged.

use std::fmt;
use std::str::FromStr;

use dlb_core::plan_text;

use crate::script::FaultScript;

/// A fault-plan parse/validation error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError(pub String);

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for FaultError {}

/// A fraction of the nodes crashes at a virtual instant, optionally
/// recovering at a later one (`crash:FRAC@Tms` / `crash:FRAC@Tms..Tms`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashFault {
    /// Fraction of the cluster that crashes, in `(0, 1]`. Compilation
    /// always leaves at least one survivor.
    pub frac: f64,
    /// Virtual instant (ms) at which the chosen nodes go down.
    pub at_ms: f64,
    /// Virtual instant (ms) at which they come back, if ever.
    pub recover_ms: Option<f64>,
}

/// Independent per-frame loss with probability `prob`, optionally
/// confined to a window (`loss:P` / `loss:P@Tms..Tms`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossFault {
    /// Per-frame (per-attempt) loss probability, in `[0, 1)`.
    pub prob: f64,
    /// Active window `[from, to)` in ms; `None` = the whole run.
    pub window: Option<(f64, f64)>,
}

/// Every link delay is multiplied by `factor` inside the window
/// (`spike:Fx@Tms..Tms`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeFault {
    /// Delay multiplier, ≥ 1.
    pub factor: f64,
    /// Window start (ms).
    pub from_ms: f64,
    /// Window end (ms).
    pub to_ms: f64,
}

/// A seed-deterministic bipartition of the nodes; frames crossing the
/// cut are blocked while the window is active (`part:Tms..Tms`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionFault {
    /// Window start (ms).
    pub from_ms: f64,
    /// Window end (ms) — the instant the partition heals.
    pub to_ms: f64,
}

/// A fraction of the nodes straggles: slow-but-alive nodes whose
/// outbound frames take `factor`× the base link delay, optionally
/// confined to a window (`slow:FRAC@Fx` / `slow:FRAC@Fx@Tms..Tms`).
/// Stragglers keep participating in the protocol — they exist to
/// exercise the failure detector's false-positive path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowFault {
    /// Fraction of the cluster that straggles, in `(0, 1]`.
    pub frac: f64,
    /// Outbound delay multiplier, ≥ 1.
    pub factor: f64,
    /// Active window `[from, to)` in ms; `None` = the whole run.
    pub window: Option<(f64, f64)>,
}

/// A declarative, seed-independent fault schedule: at most one
/// primitive of each kind (see the [module docs](self) for the text
/// grammar). [`FaultPlan::compile`] turns it into the per-run
/// [`FaultScript`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Node crash/recover schedule.
    pub crash: Option<CrashFault>,
    /// Per-link frame loss.
    pub loss: Option<LossFault>,
    /// Delay-spike window.
    pub spike: Option<SpikeFault>,
    /// Network bipartition window.
    pub partition: Option<PartitionFault>,
    /// Straggler (slow-but-alive) schedule.
    pub slow: Option<SlowFault>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Adds a crash of `frac` of the nodes at `at_ms` (no recovery).
    pub fn crash(mut self, frac: f64, at_ms: f64) -> Self {
        self.crash = Some(CrashFault {
            frac,
            at_ms,
            recover_ms: None,
        });
        self
    }

    /// Adds a crash of `frac` of the nodes over `[at_ms, recover_ms)`.
    pub fn churn(mut self, frac: f64, at_ms: f64, recover_ms: f64) -> Self {
        self.crash = Some(CrashFault {
            frac,
            at_ms,
            recover_ms: Some(recover_ms),
        });
        self
    }

    /// Adds whole-run per-frame loss with probability `prob`.
    pub fn loss(mut self, prob: f64) -> Self {
        self.loss = Some(LossFault { prob, window: None });
        self
    }

    /// Adds per-frame loss with probability `prob` inside a window.
    pub fn loss_window(mut self, prob: f64, from_ms: f64, to_ms: f64) -> Self {
        self.loss = Some(LossFault {
            prob,
            window: Some((from_ms, to_ms)),
        });
        self
    }

    /// Adds a delay spike: link delays × `factor` inside the window.
    pub fn spike(mut self, factor: f64, from_ms: f64, to_ms: f64) -> Self {
        self.spike = Some(SpikeFault {
            factor,
            from_ms,
            to_ms,
        });
        self
    }

    /// Adds a bipartition over `[from_ms, to_ms)`.
    pub fn partition(mut self, from_ms: f64, to_ms: f64) -> Self {
        self.partition = Some(PartitionFault { from_ms, to_ms });
        self
    }

    /// Adds whole-run stragglers: `frac` of the nodes send every frame
    /// at `factor`× the base link delay.
    pub fn slow(mut self, frac: f64, factor: f64) -> Self {
        self.slow = Some(SlowFault {
            frac,
            factor,
            window: None,
        });
        self
    }

    /// Adds stragglers active only inside a window.
    pub fn slow_window(mut self, frac: f64, factor: f64, from_ms: f64, to_ms: f64) -> Self {
        self.slow = Some(SlowFault {
            frac,
            factor,
            window: Some((from_ms, to_ms)),
        });
        self
    }

    /// Parses the text form (see the [module docs](self)). The empty
    /// string yields the empty plan.
    pub fn parse(text: &str) -> Result<Self, FaultError> {
        let mut plan = Self::default();
        if text.is_empty() {
            return Ok(plan);
        }
        for part in text.split(',') {
            let (kind, value) = part.split_once(':').ok_or_else(|| {
                FaultError(format!(
                    "fault '{part}' is not KIND:VALUE (try 'crash:0.1@500ms' or 'loss:0.05')"
                ))
            })?;
            match kind {
                "crash" => {
                    if plan.crash.is_some() {
                        return Err(FaultError("crash given twice".into()));
                    }
                    let (frac, when) = value.split_once('@').ok_or_else(|| {
                        FaultError(format!(
                            "crash '{value}' needs '@TIME' (try 'crash:0.1@500ms')"
                        ))
                    })?;
                    let frac = parse_unit("crash fraction", frac)?;
                    if frac <= 0.0 || frac > 1.0 {
                        return Err(FaultError(format!(
                            "crash fraction {frac} must be in (0, 1]"
                        )));
                    }
                    let (at_ms, recover_ms) = match when.split_once("..") {
                        Some((a, b)) => {
                            let a = parse_ms("crash time", a)?;
                            let b = parse_ms("crash recovery time", b)?;
                            if b <= a {
                                return Err(FaultError(format!(
                                    "crash recovery {b}ms must come after the crash at {a}ms"
                                )));
                            }
                            (a, Some(b))
                        }
                        None => (parse_ms("crash time", when)?, None),
                    };
                    plan.crash = Some(CrashFault {
                        frac,
                        at_ms,
                        recover_ms,
                    });
                }
                "loss" => {
                    if plan.loss.is_some() {
                        return Err(FaultError("loss given twice".into()));
                    }
                    let (prob, window) = match value.split_once('@') {
                        Some((p, w)) => (p, Some(parse_window("loss window", w)?)),
                        None => (value, None),
                    };
                    let prob = parse_unit("loss probability", prob)?;
                    if !(0.0..1.0).contains(&prob) {
                        return Err(FaultError(format!(
                            "loss probability {prob} must be in [0, 1)"
                        )));
                    }
                    plan.loss = Some(LossFault { prob, window });
                }
                "spike" => {
                    if plan.spike.is_some() {
                        return Err(FaultError("spike given twice".into()));
                    }
                    let (factor, window) = value.split_once('@').ok_or_else(|| {
                        FaultError(format!(
                            "spike '{value}' needs '@FROM..TO' (try 'spike:4x@200ms..800ms')"
                        ))
                    })?;
                    let factor = factor.strip_suffix('x').ok_or_else(|| {
                        FaultError(format!("spike factor '{factor}' needs an 'x' suffix"))
                    })?;
                    let factor = parse_unit("spike factor", factor)?;
                    if factor < 1.0 {
                        return Err(FaultError(format!(
                            "spike factor {factor} must be at least 1"
                        )));
                    }
                    let (from_ms, to_ms) = parse_window("spike window", window)?;
                    plan.spike = Some(SpikeFault {
                        factor,
                        from_ms,
                        to_ms,
                    });
                }
                "part" => {
                    if plan.partition.is_some() {
                        return Err(FaultError("part given twice".into()));
                    }
                    let (from_ms, to_ms) = parse_window("part window", value)?;
                    plan.partition = Some(PartitionFault { from_ms, to_ms });
                }
                "slow" => {
                    if plan.slow.is_some() {
                        return Err(FaultError("slow given twice".into()));
                    }
                    let (frac, rest) = value.split_once('@').ok_or_else(|| {
                        FaultError(format!(
                            "slow '{value}' needs '@FACTORx' (try 'slow:0.05@4x')"
                        ))
                    })?;
                    let frac = parse_unit("slow fraction", frac)?;
                    if frac <= 0.0 || frac > 1.0 {
                        return Err(FaultError(format!(
                            "slow fraction {frac} must be in (0, 1]"
                        )));
                    }
                    let (factor, window) = match rest.split_once('@') {
                        Some((fx, w)) => (fx, Some(parse_window("slow window", w)?)),
                        None => (rest, None),
                    };
                    let factor = factor.strip_suffix('x').ok_or_else(|| {
                        FaultError(format!("slow factor '{factor}' needs an 'x' suffix"))
                    })?;
                    let factor = parse_unit("slow factor", factor)?;
                    if factor < 1.0 {
                        return Err(FaultError(format!(
                            "slow factor {factor} must be at least 1"
                        )));
                    }
                    plan.slow = Some(SlowFault {
                        frac,
                        factor,
                        window,
                    });
                }
                _ => {
                    return Err(FaultError(format!(
                        "unknown fault kind '{kind}' (valid: crash loss spike part slow)"
                    )))
                }
            }
        }
        Ok(plan)
    }

    /// Compiles the plan for one run: `seed` fixes every sampled
    /// decision (crash victims, partition sides, per-frame loss), `m`
    /// is the cluster size. See [`FaultScript`].
    pub fn compile(&self, seed: u64, m: usize) -> FaultScript {
        FaultScript::compile(self, seed, m)
    }
}

/// Parses a dimensionless value (fraction, probability, factor).
fn parse_unit(what: &str, value: &str) -> Result<f64, FaultError> {
    let x: f64 = value
        .parse()
        .map_err(|_| FaultError(format!("{what}: '{value}' is not a number")))?;
    if !x.is_finite() {
        return Err(FaultError(format!("{what}: '{value}' must be finite")));
    }
    Ok(x)
}

fn parse_ms(what: &str, value: &str) -> Result<f64, FaultError> {
    plan_text::parse_ms(what, value).map_err(FaultError)
}

fn parse_window(what: &str, value: &str) -> Result<(f64, f64), FaultError> {
    plan_text::parse_window(what, value).map_err(FaultError)
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        if let Some(c) = &self.crash {
            write!(f, "crash:{}@{}ms", c.frac, c.at_ms)?;
            if let Some(r) = c.recover_ms {
                write!(f, "..{r}ms")?;
            }
            sep = ",";
        }
        if let Some(l) = &self.loss {
            write!(f, "{sep}loss:{}", l.prob)?;
            if let Some((a, b)) = l.window {
                write!(f, "@{a}ms..{b}ms")?;
            }
            sep = ",";
        }
        if let Some(s) = &self.spike {
            write!(f, "{sep}spike:{}x@{}ms..{}ms", s.factor, s.from_ms, s.to_ms)?;
            sep = ",";
        }
        if let Some(p) = &self.partition {
            write!(f, "{sep}part:{}ms..{}ms", p.from_ms, p.to_ms)?;
            sep = ",";
        }
        if let Some(s) = &self.slow {
            write!(f, "{sep}slow:{}@{}x", s.frac, s.factor)?;
            if let Some((a, b)) = s.window {
                write!(f, "@{a}ms..{b}ms")?;
            }
        }
        Ok(())
    }
}

impl FromStr for FaultPlan {
    type Err = FaultError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_round_trips() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.to_string(), "");
        assert_eq!(FaultPlan::new(), FaultPlan::default());
    }

    #[test]
    fn parses_the_issue_example() {
        let plan: FaultPlan = "crash:0.1@500ms,loss:0.05".parse().unwrap();
        assert_eq!(
            plan.crash,
            Some(CrashFault {
                frac: 0.1,
                at_ms: 500.0,
                recover_ms: None,
            })
        );
        assert_eq!(
            plan.loss,
            Some(LossFault {
                prob: 0.05,
                window: None,
            })
        );
        assert_eq!(plan.to_string(), "crash:0.1@500ms,loss:0.05");
    }

    #[test]
    fn all_primitives_round_trip() {
        for text in [
            "crash:0.1@500ms",
            "crash:0.25@500ms..2000ms",
            "loss:0.05",
            "loss:0.2@100ms..900ms",
            "spike:4x@200ms..800ms",
            "part:500ms..1500ms",
            "slow:0.05@4x",
            "slow:0.2@2.5x@100ms..900ms",
            "crash:0.1@500ms,loss:0.05,spike:2.5x@0ms..300ms,part:50ms..60ms,slow:0.1@3x",
        ] {
            let plan: FaultPlan = text.parse().unwrap();
            assert_eq!(plan.to_string(), text);
            assert_eq!(plan.to_string().parse::<FaultPlan>().unwrap(), plan);
        }
    }

    #[test]
    fn ms_suffix_is_optional_on_input() {
        let a: FaultPlan = "crash:0.1@500".parse().unwrap();
        let b: FaultPlan = "crash:0.1@500ms".parse().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "crash:0.1@500ms");
    }

    #[test]
    fn builder_matches_parse() {
        assert_eq!(
            FaultPlan::new().crash(0.1, 500.0).loss(0.05),
            "crash:0.1@500ms,loss:0.05".parse().unwrap()
        );
        assert_eq!(
            FaultPlan::new()
                .churn(0.2, 100.0, 300.0)
                .loss_window(0.5, 0.0, 50.0)
                .spike(2.0, 10.0, 20.0)
                .partition(5.0, 6.0)
                .slow(0.05, 4.0),
            "crash:0.2@100ms..300ms,loss:0.5@0ms..50ms,spike:2x@10ms..20ms,part:5ms..6ms,slow:0.05@4x"
                .parse()
                .unwrap()
        );
        assert_eq!(
            FaultPlan::new().slow_window(0.1, 2.0, 50.0, 80.0),
            "slow:0.1@2x@50ms..80ms".parse().unwrap()
        );
    }

    #[test]
    fn rejects_bad_plans() {
        for (text, needle) in [
            ("bogus:1", "unknown fault kind"),
            ("crash", "not KIND:VALUE"),
            ("crash:0.1", "needs '@TIME'"),
            ("crash:0.1@abc", "not a time"),
            ("crash:0@500ms", "must be in (0, 1]"),
            ("crash:1.5@500ms", "must be in (0, 1]"),
            ("crash:0.1@500ms..400ms", "must come after"),
            ("crash:0.1@1ms,crash:0.1@2ms", "crash given twice"),
            ("loss:1", "must be in [0, 1)"),
            ("loss:-0.1", "must be in [0, 1)"),
            ("loss:0.1@9ms", "not 'FROMms..TOms'"),
            ("loss:0.1,loss:0.2", "loss given twice"),
            ("spike:4@1ms..2ms", "'x' suffix"),
            ("spike:0.5x@1ms..2ms", "at least 1"),
            ("spike:4x", "needs '@FROM..TO'"),
            ("spike:2x@1ms..2ms,spike:2x@3ms..4ms", "spike given twice"),
            ("part:5ms..5ms", "must come after"),
            ("part:1ms..2ms,part:3ms..4ms", "part given twice"),
            ("crash:0.1@NaNms", "finite and non-negative"),
            ("slow:0.1", "needs '@FACTORx'"),
            ("slow:0@4x", "must be in (0, 1]"),
            ("slow:1.5@4x", "must be in (0, 1]"),
            ("slow:0.1@4", "'x' suffix"),
            ("slow:0.1@0.5x", "at least 1"),
            ("slow:0.1@4x@9ms..3ms", "must come after"),
            ("slow:0.1@2x,slow:0.1@3x", "slow given twice"),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.0.contains(needle), "'{text}' -> {err}");
        }
    }
}
