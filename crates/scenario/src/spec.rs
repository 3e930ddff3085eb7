//! The declarative scenario specification and its text form.
//!
//! A [`ScenarioSpec`] names one experiment of the paper's evaluation:
//! which algorithm runs (`algo`), on which latency substrate (`net`),
//! over which sampled workload (`m`, `load`, `avg`, `speeds`, `seed`),
//! and when it stops (`eps`, `patience`, `budget`). The text form is a
//! flat list of `key=value` tokens in a fixed key order with default
//! values omitted, e.g.
//!
//! ```text
//! algo=batched net=pl m=500 load=peak avg=200 seed=7
//! ```
//!
//! [`ScenarioSpec::parse`] and the [`Display`](fmt::Display) impl round-trip exactly,
//! so specs can travel through shell flags, bench grids, and committed
//! JSON-lines records without a serialization dependency.
//!
//! Every key is one row of a private axis table — how its value is
//! read, how it is printed, which algorithms honour it and why — that
//! `parse`, `Display` and [`ScenarioSpec::validate`] all walk, so the
//! key list and the compatibility rules are each written once.

use std::fmt;
use std::str::FromStr;

use dlb_core::plan_text::{without_ms, Floor, Reader, MAX_MS};
use dlb_core::rngutil::rng_for;
use dlb_core::workload::{LoadDistribution, SpeedDistribution, WorkloadSpec};
use dlb_core::{Instance, LatencyMatrix};
use dlb_faults::FaultPlan;
use dlb_requestsim::stream::ArrivalPlan;
use dlb_topology::{euclidean, planetlab};

/// RNG stream salt of the single instance-sampling path. This is the
/// salt the bench harnesses have always used, so the committed
/// `BENCH_figure2.json` series remain comparable across PRs.
pub const SAMPLE_SALT: u64 = 0xBE7C;

/// The input error: a spec that does not parse or validate, a plan
/// or flag that does not read, or a run that cannot write what it
/// names. Defined with the readers, in `dlb_core::plan_text`.
pub use dlb_core::plan_text::SpecError;

/// Which system a scenario runs (the `algo=` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgoSpec {
    /// The distributed engine with the §VI-B sequential sweep.
    #[default]
    Sequential,
    /// The distributed engine with batched propose/match/apply rounds.
    Batched,
    /// Selfish best-response dynamics (§VI-C).
    Nash,
    /// The message-passing protocol on the deterministic virtual-time
    /// event executor (state machines + wire frames).
    Protocol,
    /// The centralized block-coordinate-descent solver baseline (§III).
    Bcd,
}

impl AlgoSpec {
    /// All algorithms, in spec-text order.
    pub const ALL: [AlgoSpec; 5] = [
        AlgoSpec::Sequential,
        AlgoSpec::Batched,
        AlgoSpec::Nash,
        AlgoSpec::Protocol,
        AlgoSpec::Bcd,
    ];

    /// The `algo=` token value.
    pub fn label(&self) -> &'static str {
        match self {
            AlgoSpec::Sequential => "sequential",
            AlgoSpec::Batched => "batched",
            AlgoSpec::Nash => "nash",
            AlgoSpec::Protocol => "protocol",
            AlgoSpec::Bcd => "bcd",
        }
    }
}

/// Which latency substrate a scenario runs on (the `net=` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetSpec {
    /// Homogeneous `c_ij = lat` network (the paper's `c = 20`).
    #[default]
    Homog,
    /// Random geometric latencies (points in a plane).
    Euclid,
    /// Synthetic PlanetLab-like matrix (see `dlb-topology`).
    Pl,
}

impl NetSpec {
    /// The `net=` token value.
    pub fn label(&self) -> &'static str {
        match self {
            NetSpec::Homog => "homog",
            NetSpec::Euclid => "euclid",
            NetSpec::Pl => "pl",
        }
    }
}

/// Which speed distribution a scenario samples (the `speeds=` key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpeedKind {
    /// All servers at speed 1 (the paper's "const s_i" rows).
    Const,
    /// Speeds uniform on `⟨1, 5⟩` (the paper's default).
    #[default]
    Uniform,
}

impl SpeedKind {
    /// The `speeds=` token value.
    pub fn label(&self) -> &'static str {
        match self {
            SpeedKind::Const => "const",
            SpeedKind::Uniform => "uniform",
        }
    }

    /// The sampling distribution this kind names.
    pub fn distribution(&self) -> SpeedDistribution {
        match self {
            SpeedKind::Const => SpeedDistribution::Constant(1.0),
            SpeedKind::Uniform => SpeedDistribution::paper_uniform(),
        }
    }
}

/// Checks a `runtime=` token. The key used to pick between a
/// thread-per-node runtime and the event executor; the executor is now
/// the only protocol host, so `runtime=events` — still carried by
/// committed records, scripts, and the header of every frame log
/// written while the key existed — is accepted and means nothing, and
/// the canonical text form never prints it.
fn check_runtime(v: &str) -> Result<(), SpecError> {
    match v {
        "events" => Ok(()),
        "threads" => Err(SpecError(
            "runtime: the thread-per-node runtime was retired; algo=protocol always runs on \
             the deterministic event executor (drop the key)"
                .into(),
        )),
        _ => Err(SpecError(format!(
            "runtime: '{v}' is not 'events' (the key is obsolete: algo=protocol always runs \
             on the event executor)"
        ))),
    }
}

/// The `select=` value: the protocol runtime's partner-selection
/// policy, `exact` or `topk:K` in the text form.
pub use dlb_runtime::SelectPolicy as SelectSpec;

/// The `detect=` value: the protocol runtime's liveness source,
/// `oracle`, `timeout:MS` or `adaptive` in the text form.
pub use dlb_runtime::DetectMode as DetectSpec;

/// The text grammar of an axis whose value type lives in `dlb-runtime`:
/// the [`AXES`] row's reader and printer.
trait AxisValue: Sized {
    fn parse(v: &str) -> Result<Self, SpecError>;
    fn text(&self) -> String;
}

impl AxisValue for SelectSpec {
    fn parse(v: &str) -> Result<Self, SpecError> {
        if v == "exact" {
            return Ok(SelectSpec::Exact);
        }
        if let Some(k) = v.strip_prefix("topk:") {
            let count = Reader::new("select", "a positive candidate count")
                .floor(Floor::Positive)
                .refusal("select: topk needs at least 1 candidate");
            return Ok(SelectSpec::TopK(count.number(k)?));
        }
        Err(SpecError(format!(
            "select: '{v}' is not exact or topk:K (e.g. topk:32)"
        )))
    }

    fn text(&self) -> String {
        match self {
            SelectSpec::Exact => "exact".into(),
            SelectSpec::TopK(k) => format!("topk:{k}"),
        }
    }
}

impl AxisValue for DetectSpec {
    fn parse(v: &str) -> Result<Self, SpecError> {
        match v {
            "oracle" => return Ok(DetectSpec::Oracle),
            "adaptive" => return Ok(DetectSpec::Adaptive),
            _ => {}
        }
        if let Some(ms) = v.strip_prefix("timeout:") {
            let deadline = Reader::new("detect", "a deadline in ms")
                .floor(Floor::Positive)
                .refusal("detect: the timeout deadline must be positive");
            return Ok(DetectSpec::Timeout(deadline.ms(ms)?));
        }
        Err(SpecError(format!(
            "detect: '{v}' is not one of oracle|timeout:MS|adaptive (e.g. timeout:200ms)"
        )))
    }

    fn text(&self) -> String {
        match self {
            DetectSpec::Oracle => "oracle".into(),
            DetectSpec::Timeout(ms) => format!("timeout:{ms}ms"),
            DetectSpec::Adaptive => "adaptive".into(),
        }
    }
}

/// Which control plane feeds the engine's partner scoring (the
/// `gossip=` key). Only the engine algorithms (`algo=sequential` and
/// `algo=batched`) read it; [`ScenarioSpec::parse`] rejects other
/// combinations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GossipSpec {
    /// `emulated` (the default) — no control plane: the engine scores
    /// on live loads and no bytes move.
    #[default]
    Emulated,
    /// `event:PERIODms` — the real delta-gossip control plane
    /// (`dlb-gossip`): one gossip node per server exchanging sharded,
    /// delta-encoded frames every `PERIOD` virtual ms, serving
    /// genuinely per-server stale views with every byte metered.
    Event {
        /// Gossip period in virtual ms.
        period_ms: f64,
    },
}

impl GossipSpec {
    fn parse(v: &str) -> Result<Self, SpecError> {
        if v == "emulated" {
            return Ok(GossipSpec::Emulated);
        }
        if v.starts_with("emulated:") {
            return Err(SpecError(
                "gossip: the emulated stale snapshot (emulated:T) was retired; stale views come \
                 from the delta-gossip plane (use event:PERIODms, e.g. event:100ms)"
                    .into(),
            ));
        }
        if let Some(p) = v.strip_prefix("event:") {
            let period = Reader::new("gossip", "a period in ms")
                .floor(Floor::Positive)
                .refusal("gossip: the event-gossip period must be positive");
            return Ok(GossipSpec::Event {
                period_ms: period.ms(p)?,
            });
        }
        Err(SpecError(format!(
            "gossip: '{v}' is not one of emulated|event:PERIODms (e.g. event:100ms)"
        )))
    }
}

impl fmt::Display for GossipSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GossipSpec::Emulated => write!(f, "emulated"),
            GossipSpec::Event { period_ms } => write!(f, "event:{period_ms}ms"),
        }
    }
}

/// Observability mode of a run (the `trace=` key). Only
/// `algo=protocol` can trace — the deterministic executor is where the
/// virtual-clock hooks live; [`ScenarioSpec::parse`] rejects other
/// combinations. `Clone`, not `Copy`: a frame log's path is a `String`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TraceSpec {
    /// No observer: the run is byte-identical to an untraced one (the
    /// hooks compile down to a dead branch).
    #[default]
    Off,
    /// Stream events into deterministic metrics only (per-kind counts,
    /// the frame-latency histogram) — the `obs_*` record fields — without
    /// retaining the event stream.
    Summary,
    /// `frames:FILE` — record the full event stream as a binary frame
    /// log at `FILE`, replayable bit-exactly with `dlb trace replay`.
    Frames(String),
}

impl TraceSpec {
    fn parse(v: &str) -> Result<Self, SpecError> {
        let path = match v {
            "off" => return Ok(TraceSpec::Off),
            "summary" => return Ok(TraceSpec::Summary),
            _ => v.strip_prefix("frames:"),
        };
        let refusal = match path {
            Some("") => "frames needs a file path (e.g. trace=frames:run.dlbtrace)".into(),
            Some(path) if path.contains(char::is_whitespace) => {
                "the frame-log path may not contain whitespace".into()
            }
            Some(path) => return Ok(TraceSpec::Frames(path.into())),
            None => format!(
                "'{v}' is not one of off|summary|frames:FILE (e.g. trace=frames:run.dlbtrace)"
            ),
        };
        Err(SpecError(format!("trace: {refusal}")))
    }
}

impl fmt::Display for TraceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceSpec::Off => write!(f, "off"),
            TraceSpec::Summary => write!(f, "summary"),
            TraceSpec::Frames(path) => write!(f, "frames:{path}"),
        }
    }
}

/// One declaratively named experiment: topology, workload, algorithm
/// and termination. See the [module docs](self) for the text form.
/// `Clone`, not `Copy` ([`TraceSpec::Frames`] owns its path): a struct
/// update from a borrowed spec takes `ScenarioSpec { m, ..spec.clone() }`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Algorithm to run (`algo=`).
    pub algo: AlgoSpec,
    /// Latency substrate (`net=`).
    pub net: NetSpec,
    /// Number of organizations/servers (`m=`).
    pub m: usize,
    /// Homogeneous pairwise latency in ms (`lat=`; only `net=homog`
    /// reads it — the generated substrates have their own scales).
    pub lat: f64,
    /// Initial-load distribution (`load=`).
    pub load: LoadDistribution,
    /// Average initial load per server (`avg=`, at most 1e100).
    pub avg: f64,
    /// Speed distribution (`speeds=`).
    pub speeds: SpeedKind,
    /// RNG seed for sampling and iteration order (`seed=`).
    pub seed: u64,
    /// Transfer quantum for the engine runners; `0` = continuous
    /// (`gran=`).
    pub gran: f64,
    /// Termination tolerance (`eps=`): engine stall tolerance, dynamics
    /// change threshold, cluster quiescent volume, or solver tolerance.
    pub eps: f64,
    /// Consecutive calm/quiet rounds required to stop (`patience=`).
    pub patience: usize,
    /// Hard iteration/round/sweep budget (`budget=`).
    pub budget: usize,
    /// Partner-selection policy of the protocol runtime (`select=`):
    /// the exact per-round scan or the delay-aware `topk:K` candidate
    /// index. Only `algo=protocol` honours it (like the axes below,
    /// under the rules of [`validate`](Self::validate)).
    pub select: SelectSpec,
    /// Fault schedule injected into the run (`faults=`), e.g.
    /// `faults=crash:0.1@500ms,loss:0.05`. Only `algo=protocol` (the
    /// deterministic simulation that can replay faults) honours it.
    /// Compiled per run with the scenario's seed.
    pub faults: FaultPlan,
    /// Liveness-detection mode (`detect=`): the script-fed oracle
    /// (default), a fixed report deadline (`timeout:MS`), or adaptive
    /// per-node deadlines (`adaptive`). Only `algo=protocol` honours
    /// it.
    pub detect: DetectSpec,
    /// Live request-arrival processes (`arrivals=`), e.g.
    /// `arrivals=poisson:200,burst:400@500ms..1500ms`. Compiled per
    /// run with the scenario's seed and the sampled own-loads, then
    /// delivered as virtual-time events so the protocol rebalances
    /// *while* requests flow. Requires `duration=` and `algo=protocol`.
    pub arrivals: ArrivalPlan,
    /// Stream horizon in virtual ms (`duration=`): arrivals are
    /// generated on `[0, duration)`. Zero (the default) means no
    /// stream; positive requires `arrivals=`.
    pub duration: f64,
    /// Control plane behind the engine's partner scoring (`gossip=`):
    /// none (`emulated`, the default: live loads) or the real
    /// delta-gossip protocol (`event:PERIODms`). Only the engine
    /// algorithms (`algo=sequential`/`algo=batched`) honour it. A
    /// non-default value forces the engine into pruned partner
    /// selection — exact selection recomputes improvements from true
    /// loads and would never observe staleness.
    pub gossip: GossipSpec,
    /// Observability mode (`trace=`): off (default, byte-identical to
    /// an untraced run), `summary` (deterministic metrics → `obs_*`
    /// record fields), or `frames:FILE` (binary frame log, replayable
    /// bit-exactly). Only `algo=protocol` honours it.
    pub trace: TraceSpec,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self {
            algo: AlgoSpec::Sequential,
            net: NetSpec::Homog,
            m: 20,
            lat: 20.0,
            load: LoadDistribution::Exponential,
            avg: 50.0,
            speeds: SpeedKind::Uniform,
            seed: 1,
            gran: 0.0,
            eps: 1e-10,
            patience: 3,
            // Sized for Figure-2-scale event runs: m = 2000 needs
            // ~900 rounds to quiesce, and fault schedules stretch
            // that further. Convergent runs stop on eps/patience long
            // before the budget binds.
            budget: 2_000,
            select: SelectSpec::Exact,
            faults: FaultPlan::default(),
            detect: DetectSpec::Oracle,
            arrivals: ArrivalPlan::default(),
            duration: 0.0,
            gossip: GossipSpec::default(),
            trace: TraceSpec::Off,
        }
    }
}

impl ScenarioSpec {
    /// Parses the text form. Empty input yields the default scenario;
    /// unknown keys, malformed values, duplicate keys, and key
    /// combinations [`validate`](Self::validate) refuses are errors.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let spec = Self::read(text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// Reads the tokens of a text form into a spec, each value through
    /// its [`AXES`] row's reader; the key combination is not checked.
    fn read(text: &str) -> Result<Self, SpecError> {
        let mut spec = Self::default();
        let mut seen: Vec<&str> = Vec::new();
        for token in text.split_whitespace() {
            let (key, value) = token.split_once('=').ok_or_else(|| {
                SpecError(format!("'{token}' is not a key=value token (try 'm=50')"))
            })?;
            if seen.contains(&key) {
                return Err(SpecError(format!("key '{key}' given twice")));
            }
            let axis = AXES.iter().find(|axis| axis.key == key).ok_or_else(|| {
                let printed = AXES.iter().filter(|axis| axis.show.is_some());
                let valid: Vec<&str> = printed.map(|axis| axis.key).collect();
                SpecError(format!("unknown key '{key}' (valid: {})", valid.join(" ")))
            })?;
            (axis.read)(&mut spec, value)?;
            // `split_once` borrows from `token`, which lives as long as
            // `text`; remember the key for duplicate detection.
            seen.push(key);
        }
        Ok(spec)
    }

    /// Checks a spec however it was built. Its own text form is read
    /// back first, so a value the text would refuse — `lat=1e308`,
    /// `avg=-5`, `select=topk:0`, a `NaN` anywhere — fails with the
    /// error [`parse`](Self::parse) gives for that text. Then the key
    /// combination meets the rule book in the axis table: an axis set
    /// away from its default must be one the spec's `algo` honours —
    /// any other system would silently measure, say, a fault-free run
    /// and report it as a faulted one — and `arrivals=` and `duration=`
    /// come as a pair. `parse` ends with this check and every runner
    /// begins with it. Rules fire in key order, so a spec that breaks
    /// two is told about the earlier key.
    pub fn validate(&self) -> Result<(), SpecError> {
        Self::read(&self.to_string())?;
        let default = Self::default();
        for axis in AXES.iter().filter(|axis| (axis.differs)(self, &default)) {
            for ((needed, met), why) in axis.needs {
                if !met(self) {
                    let key = axis.key;
                    return Err(SpecError(format!("{key}= requires {needed} ({why})")));
                }
            }
        }
        Ok(())
    }

    /// Builds the latency matrix this spec names (deterministic per
    /// seed).
    pub fn build_latency(&self) -> LatencyMatrix {
        match self.net {
            NetSpec::Homog => LatencyMatrix::homogeneous(self.m, self.lat),
            NetSpec::Euclid => euclidean::generate(self.m, self.seed),
            NetSpec::Pl => planetlab::generate(self.m, self.seed),
        }
    }

    /// Draws the §VI-A instance this spec names. This is the single
    /// sampling path shared by the CLI, the bench harnesses, and the
    /// examples: equal specs produce equal instances everywhere.
    pub fn build_instance(&self) -> Instance {
        let latency = self.build_latency();
        let mut rng = rng_for(self.seed, SAMPLE_SALT);
        WorkloadSpec {
            loads: self.load,
            avg_load: self.avg,
            speeds: self.speeds.distribution(),
        }
        .sample(latency, &mut rng)
    }
}

/// Reads a value that is the label of one of `choices`.
fn one_of<T: Copy>(
    key: &str,
    value: &str,
    choices: &[T],
    label: impl Fn(&T) -> &'static str,
) -> Result<T, SpecError> {
    let found = choices.iter().find(|choice| label(choice) == value);
    found.copied().ok_or_else(|| {
        let labels: Vec<&str> = choices.iter().map(label).collect();
        let labels = labels.join("|");
        SpecError(format!("{key}: '{value}' is not one of {labels}"))
    })
}

/// What the text of an integer key must be.
const INT: &str = "a non-negative integer";
/// What the text of a real-valued key must be.
const REAL: &str = "a number";

/// The reader of a key a run needs at least one of.
const fn count<'a>(key: &'a str, refusal: &'a str) -> Reader<'a> {
    Reader::new(key, INT)
        .floor(Floor::Positive)
        .refusal(refusal)
}

/// Something a non-default value of an axis needs from the rest of
/// the spec: what [`ScenarioSpec::validate`]'s message calls it, and
/// the test that the spec has it.
type Needs = (&'static str, fn(&ScenarioSpec) -> bool);

/// The largest `avg=`: a sampled load (at most `avg × m`) can still be
/// squared by `ΣC` and summed over any `m` that fits in memory. Not far
/// beyond, `ΣC` is `inf` or a load is, which `Instance::new` panics on.
const MAX_AVG: f64 = 1e100;

/// The largest `m=`: the protocol machines and their frames carry node
/// ids as `u32`, so a larger cluster would alias them.
const MAX_M: usize = u32::MAX as usize;

/// The largest `m=` on `net=euclid|pl`, whose latency matrix is `m²`
/// dense floats, and under `algo=bcd`, whose request matrix is: 3.2 GB
/// at this bound (Figure 2's grid stops at 5000).
const MAX_DENSE_M: usize = 20_000;

/// The only system that honours the event-executor axes.
const PROTOCOL: Needs = ("algo=protocol", |spec| spec.algo == AlgoSpec::Protocol);
/// The two round modes of the distributed engine.
const ENGINE: Needs = ("algo=sequential or algo=batched", |spec| {
    matches!(spec.algo, AlgoSpec::Sequential | AlgoSpec::Batched)
});
/// The one network whose latency is a parameter.
const HOMOG: Needs = ("net=homog", |spec| spec.net == NetSpec::Homog);

/// One key of the text form: a row of [`AXES`].
pub(crate) struct Axis {
    /// The `key=` token name.
    pub(crate) key: &'static str,
    /// Reads a token's value into the spec.
    read: fn(&mut ScenarioSpec, &str) -> Result<(), SpecError>,
    /// Whether two specs disagree on this axis. Asked against the
    /// default spec, it decides both whether `Display` prints the key
    /// and whether `validate` applies `needs`.
    differs: fn(&ScenarioSpec, &ScenarioSpec) -> bool,
    /// Writes the value's text form; `None` for a key that is read but
    /// never printed back nor listed as valid.
    show: Option<fn(&ScenarioSpec, &mut fmt::Formatter<'_>) -> fmt::Result>,
    /// Printed even at its default.
    always: bool,
    /// What a non-default value requires, each rule with its reason,
    /// in the order the rules fire.
    needs: &'static [(Needs, &'static str)],
}

/// The [`AXES`] row of the spec field named like its key. `$read` is a
/// `fn(key, value) -> Result<field, SpecError>`; the field prints
/// through `Display`, or through the `.method()` written after its
/// name. `key.label() in CHOICES` is the row of an enum read and
/// printed by its variants' labels.
macro_rules! axis {
    ($key:ident.label() in $choices:expr) => {
        axis!($key.label(), |key, value| one_of(key, value, &$choices, |choice| choice.label()))
    };
    ($key:ident $(.$via:ident())?, $read:expr) => {
        axis!($key $(.$via())?, $read, &[])
    };
    ($key:ident $(.$via:ident())?, $read:expr, $needs:expr) => {
        Axis {
            key: stringify!($key),
            read: |spec, value| {
                spec.$key = $read(stringify!($key), value)?;
                Ok(())
            },
            differs: |a, b| a.$key != b.$key,
            show: Some(|spec, f| write!(f, "{}", spec.$key $(.$via())?)),
            always: false,
            needs: $needs,
        }
    };
}

/// Every key of the text form, in canonical print order — the one
/// list behind [`ScenarioSpec::parse`], its unknown-key message, the
/// [`Display`](fmt::Display) impl and [`ScenarioSpec::validate`]. A new
/// axis is a field and a row here.
#[rustfmt::skip] // a table: one axis per entry, laid out by hand
pub(crate) const AXES: &[Axis] = &[
    // `algo`, `net` and `m` head every canonical text.
    Axis { always: true, ..axis!(algo.label() in AlgoSpec::ALL) },
    Axis { always: true, ..axis!(net.label() in [NetSpec::Homog, NetSpec::Euclid, NetSpec::Pl]) },
    Axis { always: true, ..axis!(m, |key, v| count(key, "m must be at least 1").number(v), &[
        (("a value of at most 4294967295", |spec| spec.m <= MAX_M), "node ids are 32-bit"),
        (
            ("at most 20000 with net=euclid or net=pl", |spec| {
                spec.net == NetSpec::Homog || spec.m <= MAX_DENSE_M
            }),
            "dense m×m latency matrix",
        ),
        (
            ("at most 20000 with algo=bcd", |spec| {
                spec.algo != AlgoSpec::Bcd || spec.m <= MAX_DENSE_M
            }),
            "dense m×m request matrix",
        ),
    ]) },
    axis!(lat, |key, v| Reader::new(key, REAL).max(MAX_MS).number(v), &[(
        HOMOG,
        "euclid and pl draw their latency matrices from the seed",
    )]),
    axis!(load.label() in [
        LoadDistribution::Constant,
        LoadDistribution::Uniform,
        LoadDistribution::Exponential,
        LoadDistribution::Peak,
    ]),
    axis!(avg, |key, v| Reader::new(key, REAL).number(v), &[(
        ("a value up to 1e100", |spec| spec.avg <= MAX_AVG),
        "a load reaches avg × m under load=peak and ΣC squares it; neither would stay finite",
    )]),
    axis!(speeds.label() in [SpeedKind::Const, SpeedKind::Uniform]),
    axis!(seed, |key, v| Reader::new(key, INT).number(v)),
    axis!(gran, |key, v| Reader::new(key, REAL).number(v), &[(
        ENGINE,
        "only the engines quantise Algorithm 1's transfers",
    )]),
    axis!(eps, |key, v| Reader::new(key, REAL).number(v)),
    axis!(patience, |key, v| Reader::new(key, INT).number(v)),
    axis!(budget, |key, v| count(key, "budget must be at least 1").number(v)),
    // Obsolete (see `check_runtime`): checked, stored nowhere.
    Axis {
        key: "runtime",
        read: |_, value| check_runtime(value),
        differs: |_, _| false,
        show: None,
        always: false,
        needs: &[],
    },
    axis!(select.text(), |_, v| SelectSpec::parse(v), &[(
        PROTOCOL,
        "partner selection is a protocol-runtime policy; the analytic engines have their own \
         pruning axis",
    )]),
    axis!(
        faults,
        |_, v| FaultPlan::parse(v),
        &[(PROTOCOL, "the deterministic simulation is what can replay a fault schedule")]
    ),
    axis!(detect.text(), |_, v| DetectSpec::parse(v), &[(
        PROTOCOL,
        "in-protocol failure detection needs the virtual clock to arm deadlines on",
    )]),
    axis!(
        arrivals,
        |_, v| ArrivalPlan::parse(v),
        &[
            (
                ("duration=", |spec| spec.duration > 0.0),
                "a positive stream horizon in virtual ms, e.g. duration=2000ms",
            ),
            (PROTOCOL, "live streaming rides the deterministic virtual-time event heap"),
            (
                ("rate × duration under 1000000 requests", |spec| spec.arrivals.fits(spec.duration)),
                "the whole schedule is compiled before the run; lower the rate or the horizon",
            ),
        ]
    ),
    axis!(
        duration,
        |key, v| Reader::new(key, REAL).max(MAX_MS).number(without_ms(v)),
        &[(
            ("arrivals=", |spec| !spec.arrivals.is_empty()),
            "the horizon only bounds a live arrival stream, e.g. arrivals=poisson:200",
        )]
    ),
    axis!(gossip, |_, v| GossipSpec::parse(v), &[(
        ENGINE,
        "stale partner scoring is an engine axis; the protocol runtime exchanges live views by \
         design",
    )]),
    axis!(trace, |_, v| TraceSpec::parse(v), &[(
        PROTOCOL,
        "the deterministic executor is what stamps trace events on the virtual clock",
    )]),
];

impl fmt::Display for ScenarioSpec {
    /// Renders the canonical text form: `algo`, `net`, and `m` always,
    /// every other key only when it differs from the default — so
    /// parsing the output reproduces the spec exactly and short specs
    /// stay short.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let default = Self::default();
        let mut separator = "";
        for axis in AXES {
            let Some(show) = axis.show else { continue };
            if axis.always || (axis.differs)(self, &default) {
                write!(f, "{separator}{}=", axis.key)?;
                show(self, f)?;
                separator = " ";
            }
        }
        Ok(())
    }
}

impl FromStr for ScenarioSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_parses_to_default() {
        assert_eq!(ScenarioSpec::parse("").unwrap(), ScenarioSpec::default());
        assert_eq!(
            ScenarioSpec::parse("  \t ").unwrap(),
            ScenarioSpec::default()
        );
    }

    #[test]
    fn display_omits_defaults() {
        assert_eq!(
            ScenarioSpec::default().to_string(),
            "algo=sequential net=homog m=20"
        );
        let spec = ScenarioSpec {
            algo: AlgoSpec::Batched,
            net: NetSpec::Pl,
            m: 500,
            load: LoadDistribution::Peak,
            seed: 7,
            ..ScenarioSpec::default()
        };
        assert_eq!(
            spec.to_string(),
            "algo=batched net=pl m=500 load=peak seed=7"
        );
    }

    #[test]
    fn round_trips_through_text() {
        let base = ScenarioSpec::default();
        let specs = [
            base.clone(),
            ScenarioSpec {
                algo: AlgoSpec::Nash,
                eps: 0.01,
                patience: 2,
                budget: 10_000,
                ..base.clone()
            },
            ScenarioSpec {
                algo: AlgoSpec::Protocol,
                net: NetSpec::Euclid,
                m: 16,
                avg: 80.0,
                speeds: SpeedKind::Const,
                ..base.clone()
            },
            ScenarioSpec {
                algo: AlgoSpec::Bcd,
                lat: 35.5,
                load: LoadDistribution::Uniform,
                seed: 999,
                ..base.clone()
            },
            ScenarioSpec {
                algo: AlgoSpec::Batched,
                gran: 1.0,
                ..base.clone()
            },
        ];
        for spec in specs {
            let text = spec.to_string();
            assert_eq!(text.parse::<ScenarioSpec>().unwrap(), spec, "text: {text}");
        }
    }

    #[test]
    fn parses_the_issue_example() {
        let spec: ScenarioSpec = "algo=batched net=pl m=500 load=exp seed=7".parse().unwrap();
        assert_eq!(spec.algo, AlgoSpec::Batched);
        assert_eq!(spec.net, NetSpec::Pl);
        assert_eq!(spec.m, 500);
        assert_eq!(spec.load, LoadDistribution::Exponential);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.avg, 50.0, "unspecified keys keep their defaults");
    }

    #[test]
    fn rejects_bad_tokens() {
        for (text, needle) in [
            ("m", "not a key=value"),
            ("algo=warp", "not one of sequential"),
            ("net=mars", "not one of homog"),
            ("load=gauss", "not one of const|uniform|exp|peak"),
            ("speeds=fast", "not one of const|uniform"),
            ("m=0", "at least 1"),
            ("m=-3", "not a non-negative integer"),
            (
                "algo=protocol m=99999999999",
                "at most 4294967295 (node ids are 32-bit)",
            ),
            ("avg=NaN", "finite and non-negative"),
            ("avg=-1", "finite and non-negative"),
            ("eps=abc", "not a number"),
            ("budget=0", "at least 1"),
            ("seed=1 seed=2", "given twice"),
            ("runtime=fibers", "is not 'events'"),
            ("runtime=threads", "thread-per-node runtime was retired"),
            ("runtime=events runtime=events", "given twice"),
            ("algo=protocol select=nearest", "not exact or topk:K"),
            (
                "algo=protocol select=topk:",
                "not a positive candidate count",
            ),
            (
                "algo=protocol select=topk:x",
                "not a positive candidate count",
            ),
            ("algo=protocol select=topk:0", "at least 1 candidate"),
            ("warp=9", "unknown key 'warp'"),
            // Times, `lat=` and factors a run's virtual clock could not
            // keep finite (all four used to run to `NaN` or `inf`).
            (
                "algo=protocol m=4 faults=spike:1e308x@0ms..10ms",
                "faults: spike factor: '1e308' must be at most 1e6",
            ),
            (
                "algo=protocol m=4 faults=slow:1@1e308x",
                "faults: slow factor: '1e308' must be at most 1e6",
            ),
            (
                "algo=protocol m=4 lat=1e308",
                "lat: '1e308' must be at most 1e9",
            ),
            (
                "algo=protocol m=8 faults=part:0ms..1e308ms,crash:0.5@1ms detect=adaptive",
                "faults: part window: '1e308ms' must be at most 1e9",
            ),
            (
                "algo=protocol detect=timeout:1e10ms",
                "detect: '1e10ms' must be at most 1e9",
            ),
            ("gossip=event:1e10", "gossip: '1e10' must be at most 1e9"),
            (
                "algo=batched m=30 gossip=emulated:3",
                "use event:PERIODms, e.g. event:100ms",
            ),
            (
                "algo=protocol arrivals=poisson:1 duration=1e300",
                "duration: '1e300' must be at most 1e9",
            ),
            ("duration=5msms", "duration: '5ms' is not a number"),
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(err.0.contains(needle), "'{text}' -> {err}");
        }
    }

    /// `runtime=` no longer selects anything: the one value left is
    /// accepted for the sake of old records, scripts, and frame-log
    /// headers, parses to the same spec as its absence, and is never
    /// printed back.
    #[test]
    fn runtime_events_is_accepted_and_never_printed() {
        let with: ScenarioSpec = "algo=protocol m=40 runtime=events".parse().unwrap();
        let without: ScenarioSpec = "algo=protocol m=40".parse().unwrap();
        assert_eq!(with, without);
        assert_eq!(with.to_string(), "algo=protocol net=homog m=40");
        // Position is irrelevant, and non-protocol algorithms ignore it
        // as they always did.
        assert_eq!(
            "runtime=events algo=batched".parse::<ScenarioSpec>(),
            "algo=batched".parse()
        );
    }

    #[test]
    fn select_key_round_trips_and_validates() {
        assert_eq!(ScenarioSpec::default().select, SelectSpec::Exact);
        let spec: ScenarioSpec = "algo=protocol runtime=events m=40 select=topk:32"
            .parse()
            .unwrap();
        assert_eq!(spec.select, SelectSpec::TopK(32));
        assert_eq!(
            spec.to_string(),
            "algo=protocol net=homog m=40 select=topk:32"
        );
        assert_eq!(spec.to_string().parse::<ScenarioSpec>().unwrap(), spec);
        // select=exact is the default and is omitted from the text form;
        // writing it explicitly still parses.
        let explicit: ScenarioSpec = "algo=protocol select=exact".parse().unwrap();
        assert!(!explicit.to_string().contains("select="));
        // select= is a protocol axis only.
        for text in ["select=topk:8", "algo=batched select=topk:8"] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(
                err.0.contains("requires algo=protocol"),
                "'{text}' -> {err}"
            );
        }
        // Key order must not matter for the validation.
        assert!(ScenarioSpec::parse("select=topk:8 algo=protocol").is_ok());
    }

    #[test]
    fn faults_key_round_trips_and_validates() {
        let spec: ScenarioSpec =
            "algo=protocol runtime=events m=40 faults=crash:0.1@500ms,loss:0.05"
                .parse()
                .unwrap();
        assert!(!spec.faults.is_empty());
        assert_eq!(
            spec.to_string(),
            "algo=protocol net=homog m=40 faults=crash:0.1@500ms,loss:0.05"
        );
        assert_eq!(spec.to_string().parse::<ScenarioSpec>().unwrap(), spec);
        // The default (empty) plan is omitted from the canonical form.
        assert!(!ScenarioSpec::default().to_string().contains("faults="));
    }

    #[test]
    fn faults_require_the_event_protocol() {
        for text in [
            "faults=loss:0.1", // default algo=sequential
            "algo=batched runtime=events faults=loss:0.1",
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(
                err.0.contains("requires algo=protocol"),
                "'{text}' -> {err}"
            );
        }
        // Key order must not matter for the validation.
        assert!(ScenarioSpec::parse("faults=loss:0.1 algo=protocol").is_ok());
        // Bad plans surface the faults-specific message.
        let err = ScenarioSpec::parse("algo=protocol runtime=events faults=warp:1").unwrap_err();
        assert!(err.0.contains("faults: unknown fault kind"), "{err}");
    }

    #[test]
    fn detect_key_round_trips_and_validates() {
        assert_eq!(ScenarioSpec::default().detect, DetectSpec::Oracle);
        let spec: ScenarioSpec = "algo=protocol runtime=events m=40 detect=timeout:200ms"
            .parse()
            .unwrap();
        assert_eq!(spec.detect, DetectSpec::Timeout(200.0));
        assert_eq!(
            spec.to_string(),
            "algo=protocol net=homog m=40 detect=timeout:200ms"
        );
        assert_eq!(spec.to_string().parse::<ScenarioSpec>().unwrap(), spec);
        // The ms suffix is optional on input, canonical on output.
        let bare: ScenarioSpec = "algo=protocol runtime=events detect=timeout:200"
            .parse()
            .unwrap();
        assert_eq!(bare.detect, DetectSpec::Timeout(200.0));
        let adaptive: ScenarioSpec = "algo=protocol runtime=events detect=adaptive"
            .parse()
            .unwrap();
        assert_eq!(adaptive.detect, DetectSpec::Adaptive);
        assert_eq!(
            adaptive.to_string().parse::<ScenarioSpec>().unwrap(),
            adaptive
        );
        // detect=oracle is the default and omitted from the text form.
        let explicit: ScenarioSpec = "algo=protocol detect=oracle".parse().unwrap();
        assert!(!explicit.to_string().contains("detect="));
    }

    #[test]
    fn detect_requires_the_event_protocol() {
        for text in [
            "detect=adaptive", // default algo=sequential
            "algo=batched runtime=events detect=timeout:100ms",
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(
                err.0.contains("requires algo=protocol"),
                "'{text}' -> {err}"
            );
        }
        // Key order must not matter for the validation, and the oracle
        // default never trips it.
        assert!(ScenarioSpec::parse("detect=adaptive algo=protocol").is_ok());
        assert!(ScenarioSpec::parse("algo=batched detect=oracle").is_ok());
        for (text, needle) in [
            ("detect=psychic", "not one of oracle|timeout:MS|adaptive"),
            ("detect=timeout:", "not a deadline in ms"),
            ("detect=timeout:x", "not a deadline in ms"),
            ("detect=timeout:0", "must be positive"),
            ("detect=timeout:-5ms", "must be positive"),
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(err.0.contains(needle), "'{text}' -> {err}");
        }
    }

    #[test]
    fn gossip_key_round_trips_and_validates() {
        assert_eq!(ScenarioSpec::default().gossip, GossipSpec::Emulated);
        let spec: ScenarioSpec = "algo=batched m=40 gossip=event:100ms".parse().unwrap();
        assert_eq!(spec.gossip, GossipSpec::Event { period_ms: 100.0 });
        assert_eq!(
            spec.to_string(),
            "algo=batched net=homog m=40 gossip=event:100ms"
        );
        assert_eq!(spec.to_string().parse::<ScenarioSpec>().unwrap(), spec);
        // The ms suffix is optional on input, canonical on output.
        let bare: ScenarioSpec = "gossip=event:250".parse().unwrap();
        assert_eq!(bare.gossip, GossipSpec::Event { period_ms: 250.0 });
        assert_eq!(bare.to_string().parse::<ScenarioSpec>().unwrap(), bare);
        // The default is omitted even when written out.
        let explicit: ScenarioSpec = "algo=batched gossip=emulated".parse().unwrap();
        assert!(!explicit.to_string().contains("gossip="));
    }

    #[test]
    fn gossip_requires_an_engine_algorithm() {
        for text in [
            "algo=nash gossip=event:50ms",
            "algo=bcd gossip=event:100ms",
            "algo=protocol runtime=events gossip=event:100ms",
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(
                err.0.contains("requires algo=sequential or algo=batched"),
                "'{text}' -> {err}"
            );
        }
        // Key order must not matter; the default algo=sequential reads
        // the axis, and the explicit fresh default never trips it.
        assert!(ScenarioSpec::parse("gossip=event:100ms").is_ok());
        assert!(ScenarioSpec::parse("gossip=event:100ms algo=batched").is_ok());
        assert!(ScenarioSpec::parse("algo=nash gossip=emulated").is_ok());
        for (text, needle) in [
            ("gossip=psychic", "not one of emulated|event:PERIODms"),
            ("gossip=emulated:x", "(emulated:T) was retired"),
            ("gossip=event:", "not a period in ms"),
            ("gossip=event:0", "must be positive"),
            ("gossip=event:-5ms", "must be positive"),
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(err.0.contains(needle), "'{text}' -> {err}");
        }
    }

    #[test]
    fn arrivals_key_round_trips_and_validates() {
        assert!(ScenarioSpec::default().arrivals.is_empty());
        assert_eq!(ScenarioSpec::default().duration, 0.0);
        let spec: ScenarioSpec = "algo=protocol runtime=events m=40 \
                                  arrivals=poisson:200,burst:400@500ms..1500ms duration=2000"
            .parse()
            .unwrap();
        assert!(!spec.arrivals.is_empty());
        assert_eq!(spec.duration, 2000.0);
        assert_eq!(
            spec.to_string(),
            "algo=protocol net=homog m=40 \
             arrivals=poisson:200,burst:400@500ms..1500ms duration=2000"
        );
        assert_eq!(spec.to_string().parse::<ScenarioSpec>().unwrap(), spec);
        // The ms suffix is optional on duration input.
        let ms: ScenarioSpec = "algo=protocol runtime=events arrivals=poisson:50 duration=800ms"
            .parse()
            .unwrap();
        assert_eq!(ms.duration, 800.0);
    }

    #[test]
    fn arrivals_require_the_event_protocol_and_a_duration() {
        for text in [
            "arrivals=poisson:10 duration=100", // default algo=sequential
            "algo=batched runtime=events arrivals=poisson:10 duration=100",
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(
                err.0.contains("requires algo=protocol"),
                "'{text}' -> {err}"
            );
        }
        // The two stream keys come as a pair.
        let err =
            ScenarioSpec::parse("algo=protocol runtime=events arrivals=poisson:10").unwrap_err();
        assert!(err.0.contains("requires duration="), "{err}");
        let err = ScenarioSpec::parse("algo=protocol runtime=events duration=100").unwrap_err();
        assert!(err.0.contains("requires arrivals="), "{err}");
        // Key order must not matter for the validation.
        assert!(ScenarioSpec::parse("duration=100 arrivals=poisson:10 algo=protocol").is_ok());
        // Bad plans surface the arrivals-specific message.
        let err =
            ScenarioSpec::parse("algo=protocol runtime=events arrivals=pareto:1 duration=100")
                .unwrap_err();
        assert!(err.0.contains("arrivals: "), "{err}");
        // Streams compose with the fault and detection axes.
        assert!(ScenarioSpec::parse(
            "algo=protocol runtime=events m=50 arrivals=poisson:100 duration=500 \
             faults=crash:0.1@200ms detect=adaptive select=topk:8"
        )
        .is_ok());
    }

    #[test]
    fn trace_key_round_trips_and_validates() {
        assert_eq!(ScenarioSpec::default().trace, TraceSpec::Off);
        let spec: ScenarioSpec = "algo=protocol runtime=events m=40 trace=frames:run.dlbtrace"
            .parse()
            .unwrap();
        assert_eq!(spec.trace, TraceSpec::Frames("run.dlbtrace".into()));
        assert_eq!(
            spec.to_string(),
            "algo=protocol net=homog m=40 trace=frames:run.dlbtrace"
        );
        assert_eq!(spec.to_string().parse::<ScenarioSpec>().unwrap(), spec);
        let summary: ScenarioSpec = "algo=protocol runtime=events trace=summary"
            .parse()
            .unwrap();
        assert_eq!(summary.trace, TraceSpec::Summary);
        assert_eq!(
            summary.to_string().parse::<ScenarioSpec>().unwrap(),
            summary
        );
        // trace=off is the default and omitted from the text form.
        let explicit: ScenarioSpec = "algo=protocol runtime=events trace=off".parse().unwrap();
        assert!(!explicit.to_string().contains("trace="));
        // Paths of any length survive directories and dots, and round
        // trip through the text form.
        let deep = format!("target/traces/{}/m64.seed3.dlbtrace", "d".repeat(200));
        let text = format!("algo=protocol m=64 seed=3 trace=frames:{deep}");
        let spec = ScenarioSpec::parse(&text).unwrap();
        assert_eq!(spec.trace, TraceSpec::Frames(deep));
        assert_eq!(ScenarioSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn trace_requires_the_event_protocol() {
        for text in [
            "trace=summary", // default algo=sequential
            "algo=batched runtime=events trace=frames:x.dlbtrace",
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(
                err.0.contains("requires algo=protocol"),
                "'{text}' -> {err}"
            );
        }
        // Key order must not matter, and the off default never trips it.
        assert!(ScenarioSpec::parse("trace=summary algo=protocol").is_ok());
        assert!(ScenarioSpec::parse("algo=batched trace=off").is_ok());
        for (text, needle) in [
            ("trace=psychic", "not one of off|summary|frames:FILE"),
            ("trace=frames:", "needs a file path"),
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(err.0.contains(needle), "'{text}' -> {err}");
        }
    }

    /// A struct literal can hold what `parse` rejects; `validate` is
    /// the typed refusal `parse` ends with and `run_on` begins with.
    #[test]
    fn validate_refuses_axes_the_algo_does_not_honour() {
        use AlgoSpec::*;
        let on = |algo| ScenarioSpec {
            algo,
            m: 4,
            ..ScenarioSpec::default()
        };
        let faults = "loss:0.1".parse().unwrap();
        let arrivals = "poisson:100".parse().unwrap();
        let gossip = GossipSpec::Event { period_ms: 100.0 };
        let too_heavy = "avg= requires a value up to 1e100 (a load reaches avg × m under \
                         load=peak and ΣC squares it; neither would stay finite)";
        let dense = "m= requires at most 20000 with net=euclid or net=pl (dense m×m latency \
                     matrix)";
        for (spec, message) in [
            (
                ScenarioSpec {
                    select: SelectSpec::TopK(4),
                    ..on(Batched)
                },
                "select= requires algo=protocol (partner selection is a protocol-runtime \
                 policy; the analytic engines have their own pruning axis)",
            ),
            (
                ScenarioSpec { faults, ..on(Nash) },
                "faults= requires algo=protocol (the deterministic simulation is what can \
                 replay a fault schedule)",
            ),
            (
                ScenarioSpec {
                    detect: DetectSpec::Adaptive,
                    ..on(Batched)
                },
                "detect= requires algo=protocol (in-protocol failure detection needs the \
                 virtual clock to arm deadlines on)",
            ),
            (
                ScenarioSpec {
                    arrivals,
                    duration: 500.0,
                    ..on(Sequential)
                },
                "arrivals= requires algo=protocol (live streaming rides the deterministic \
                 virtual-time event heap)",
            ),
            // The two stream keys come as a pair, and the pairing is
            // checked before the algorithm.
            (
                ScenarioSpec {
                    arrivals,
                    ..on(Batched)
                },
                "arrivals= requires duration= (a positive stream horizon in virtual ms, \
                 e.g. duration=2000ms)",
            ),
            (
                ScenarioSpec {
                    duration: 500.0,
                    ..on(Protocol)
                },
                "duration= requires arrivals= (the horizon only bounds a live arrival \
                 stream, e.g. arrivals=poisson:200)",
            ),
            // Loads that could not stay finite, whatever the algorithm.
            (
                ScenarioSpec {
                    avg: 1e300,
                    ..on(Protocol)
                },
                too_heavy,
            ),
            (
                ScenarioSpec {
                    avg: 1e308,
                    faults,
                    ..on(Sequential)
                },
                too_heavy,
            ),
            // More nodes than there are node ids.
            (
                ScenarioSpec {
                    m: MAX_M + 1,
                    ..on(Protocol)
                },
                "m= requires a value of at most 4294967295 (node ids are 32-bit)",
            ),
            // More nodes than a dense latency matrix can hold.
            (
                ScenarioSpec {
                    net: NetSpec::Pl,
                    m: MAX_DENSE_M + 1,
                    ..on(Sequential)
                },
                dense,
            ),
            (
                ScenarioSpec {
                    net: NetSpec::Euclid,
                    m: MAX_M,
                    ..on(Protocol)
                },
                dense,
            ),
            // The centralized solver's state is dense on every net; a
            // dense net is named first.
            (
                ScenarioSpec {
                    m: MAX_DENSE_M + 1,
                    ..on(Bcd)
                },
                "m= requires at most 20000 with algo=bcd (dense m×m request matrix)",
            ),
            (
                ScenarioSpec {
                    net: NetSpec::Pl,
                    m: MAX_DENSE_M + 1,
                    ..on(Bcd)
                },
                dense,
            ),
            // A schedule the stream compiler would abort on.
            (
                ScenarioSpec {
                    arrivals,
                    duration: MAX_MS,
                    ..on(Protocol)
                },
                "arrivals= requires rate × duration under 1000000 requests (the whole \
                 schedule is compiled before the run; lower the rate or the horizon)",
            ),
            (
                ScenarioSpec { gossip, ..on(Nash) },
                "gossip= requires algo=sequential or algo=batched (stale partner scoring \
                 is an engine axis; the protocol runtime exchanges live views by design)",
            ),
            (
                ScenarioSpec {
                    trace: TraceSpec::Summary,
                    ..on(Bcd)
                },
                "trace= requires algo=protocol (the deterministic executor is what stamps \
                 trace events on the virtual clock)",
            ),
            (
                ScenarioSpec {
                    gran: 1.0,
                    ..on(Protocol)
                },
                "gran= requires algo=sequential or algo=batched (only the engines quantise \
                 Algorithm 1's transfers)",
            ),
            (
                ScenarioSpec {
                    net: NetSpec::Pl,
                    lat: 30.0,
                    ..on(Sequential)
                },
                "lat= requires net=homog (euclid and pl draw their latency matrices from \
                 the seed)",
            ),
            // Two rules broken: the earlier key is the one named.
            (
                ScenarioSpec {
                    faults,
                    gossip,
                    ..on(Nash)
                },
                "faults= requires algo=protocol (the deterministic simulation is what can \
                 replay a fault schedule)",
            ),
        ] {
            let refusal = SpecError(message.into());
            assert_eq!(spec.validate(), Err(refusal.clone()), "{spec}");
            assert_eq!(
                ScenarioSpec::parse(&spec.to_string()),
                Err(refusal),
                "{spec}"
            );
        }
        // Every axis at its default is honoured by every algorithm, and
        // so are the largest average and `m` the messages name.
        for algo in AlgoSpec::ALL {
            let heaviest = ScenarioSpec {
                avg: MAX_AVG,
                m: if algo == Bcd { MAX_DENSE_M } else { MAX_M },
                ..on(algo)
            };
            assert_eq!(on(algo).validate(), Ok(()), "{algo:?}");
            assert_eq!(heaviest.validate(), Ok(()), "{algo:?}");
            for net in [NetSpec::Euclid, NetSpec::Pl] {
                let densest = ScenarioSpec {
                    net,
                    m: MAX_DENSE_M,
                    ..on(algo)
                };
                assert_eq!(densest.validate(), Ok(()), "{algo:?} {net:?}");
            }
        }
        assert_eq!(
            MAX_DENSE_M.to_string(),
            "20000",
            "the bound the message names"
        );
        assert_eq!(Ok(MAX_AVG), "1e100".parse(), "the bound the message names");
    }

    #[test]
    fn build_instance_is_deterministic_and_seed_sensitive() {
        let spec: ScenarioSpec = "net=pl m=12 seed=5".parse().unwrap();
        assert_eq!(spec.build_instance(), spec.build_instance());
        let other = ScenarioSpec {
            seed: 6,
            ..spec.clone()
        };
        assert_ne!(spec.build_instance(), other.build_instance());
    }

    #[test]
    fn build_instance_covers_every_net() {
        for net in [NetSpec::Homog, NetSpec::Euclid, NetSpec::Pl] {
            let spec = ScenarioSpec {
                net,
                m: 8,
                ..ScenarioSpec::default()
            };
            let inst = spec.build_instance();
            assert_eq!(inst.len(), 8);
            assert!(inst.total_load() > 0.0);
        }
    }

    #[test]
    fn homog_latency_honours_lat_key() {
        let spec: ScenarioSpec = "lat=7.5".parse().unwrap();
        let inst = spec.build_instance();
        assert_eq!(inst.c(0, 1), 7.5);
    }
}
