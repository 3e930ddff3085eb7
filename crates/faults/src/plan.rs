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

use dlb_core::plan_text::{split_at, Floor, Primitives, Reader, SpecError};

use crate::script::FaultScript;

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
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Parses the text form (see the [module docs](self)). The empty
    /// string yields the empty plan. Messages start with `faults: `, the
    /// key whose value the plan is.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        GRAMMAR.parse(text)
    }

    /// Compiles the plan for one run: `seed` fixes every sampled
    /// decision (crash victims, partition sides, per-frame loss), `m`
    /// is the cluster size. See [`FaultScript`].
    pub fn compile(&self, seed: u64, m: usize) -> FaultScript {
        FaultScript::compile(self, seed, m)
    }
}

/// The `faults=` grammar: one reader per primitive kind, in print
/// order.
const GRAMMAR: Primitives<FaultPlan> = Primitives {
    key: "faults",
    item: "fault",
    example: "'crash:0.1@500ms' or 'loss:0.05'",
    family: "fault",
    kinds: &[
        ("crash", crash),
        ("loss", loss),
        ("spike", spike),
        ("part", part),
        ("slow", slow),
    ],
};

/// A reader of a virtual instant or window.
fn time(what: &str) -> Reader<'_> {
    Reader::new(what, "a time in ms")
}

/// Reads a dimensionless value that must pass `ok`, whose interval
/// the refusal names.
fn unit(what: &str, text: &str, ok: fn(f64) -> bool, interval: &str) -> Result<f64, SpecError> {
    let x = Reader::new(what, "a number").floor(Floor::Any);
    match x.number(text)? {
        x if ok(x) => Ok(x),
        x => Err(SpecError(format!("{what} {x} must be in {interval}"))),
    }
}

fn crash(plan: &mut FaultPlan, value: &str) -> Result<(), SpecError> {
    let (frac, when) = split_at("faults: crash", value, "TIME", "crash:0.1@500ms")?;
    let frac = unit(
        "faults: crash fraction",
        frac,
        |x| x > 0.0 && x <= 1.0,
        "(0, 1]",
    )?;
    let (at_ms, recover_ms) = match when.split_once("..") {
        Some((a, b)) => {
            let a = time("faults: crash time").ms(a)?;
            let b = time("faults: crash recovery time").ms(b)?;
            if b <= a {
                return Err(SpecError(format!(
                    "faults: crash recovery {b}ms must come after the crash at {a}ms"
                )));
            }
            (a, Some(b))
        }
        None => (time("faults: crash time").ms(when)?, None),
    };
    plan.crash = Some(CrashFault {
        frac,
        at_ms,
        recover_ms,
    });
    Ok(())
}

fn loss(plan: &mut FaultPlan, value: &str) -> Result<(), SpecError> {
    let (prob, window) = match value.split_once('@') {
        Some((p, w)) => (p, Some(time("faults: loss window").window(w)?)),
        None => (value, None),
    };
    let prob = unit(
        "faults: loss probability",
        prob,
        |x| (0.0..1.0).contains(&x),
        "[0, 1)",
    )?;
    plan.loss = Some(LossFault { prob, window });
    Ok(())
}

fn spike(plan: &mut FaultPlan, value: &str) -> Result<(), SpecError> {
    let (factor, window) = split_at("faults: spike", value, "FROM..TO", "spike:4x@200ms..800ms")?;
    let factor = Reader::new("faults: spike factor", "a number").factor(factor)?;
    let (from_ms, to_ms) = time("faults: spike window").window(window)?;
    plan.spike = Some(SpikeFault {
        factor,
        from_ms,
        to_ms,
    });
    Ok(())
}

fn part(plan: &mut FaultPlan, value: &str) -> Result<(), SpecError> {
    let (from_ms, to_ms) = time("faults: part window").window(value)?;
    plan.partition = Some(PartitionFault { from_ms, to_ms });
    Ok(())
}

fn slow(plan: &mut FaultPlan, value: &str) -> Result<(), SpecError> {
    let (frac, rest) = split_at("faults: slow", value, "FACTORx", "slow:0.05@4x")?;
    let frac = unit(
        "faults: slow fraction",
        frac,
        |x| x > 0.0 && x <= 1.0,
        "(0, 1]",
    )?;
    let (factor, window) = match rest.split_once('@') {
        Some((fx, w)) => (fx, Some(time("faults: slow window").window(w)?)),
        None => (rest, None),
    };
    let factor = Reader::new("faults: slow factor", "a number").factor(factor)?;
    plan.slow = Some(SlowFault {
        frac,
        factor,
        window,
    });
    Ok(())
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
    type Err = SpecError;

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
            // Times and factors large enough to overflow a run's clock.
            (
                "spike:1e308x@0ms..10ms",
                "spike factor: '1e308' must be at most 1e6",
            ),
            ("slow:1@1e308x", "slow factor: '1e308' must be at most 1e6"),
            (
                "part:0ms..1e308ms",
                "part window: '1e308ms' must be at most 1e9",
            ),
            ("crash:0.5@1e10", "crash time: '1e10' must be at most 1e9"),
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.0.contains(needle), "'{text}' -> {err}");
        }
    }
}
