//! In-memory spans around calls into the workspace's layers.
//!
//! Nothing inside the program is instrumented: a span is opened and
//! closed by the benchmark's own code around a call into a public
//! function. Spans nest by a stack (the benchmark is single-threaded
//! at this level), carry the id of the run they belong to, stay in
//! memory while timing, and are written out once at the end.

use std::time::Instant;

use crate::json::Json;

/// One recorded span. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one traced run.
#[derive(Debug)]
pub struct Trace {
    run_id: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(run_id: impl Into<String>) -> Self {
        Self {
            run_id: run_id.into(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the `&mut Trace` it receives become its children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        result
    }

    /// [`Trace::span`], also returning the seconds `f` took.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> R) -> (R, f64) {
        let started = Instant::now();
        let result = self.span(name, f);
        (result, started.elapsed().as_secs_f64())
    }

    /// Adds a finished span from stamps taken elsewhere (a trace sink's
    /// round stamps), as a child of the innermost span that is open
    /// now, or of `parent` when given.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant, parent: Option<usize>) {
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end.max(start)),
            parent: parent.or(self.open.last().copied()),
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the most recently started span called `name`.
    pub fn find(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// A span's duration minus the durations of its direct children:
    /// the time spent in the layer itself.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    /// Durations, in seconds, of every span called `name`, in start
    /// order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_s(name).iter().sum()
    }

    /// The share of span `id`'s duration that its direct children
    /// cover. The traced pass checks this on its root: what the
    /// top-level spans leave uncovered is time nobody accounts for.
    pub fn coverage(&self, id: usize) -> f64 {
        let total = self.spans[id].duration_ns();
        if total == 0 {
            return 1.0;
        }
        1.0 - self.self_ns(id) as f64 / total as f64
    }

    /// Checks the recorder's own invariants: every span closed at or
    /// after its start, children inside their parent, siblings
    /// disjoint. A violation means self times are meaningless.
    pub fn validate(&self) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} span(s) still open", self.open.len()));
        }
        for (id, span) in self.spans.iter().enumerate() {
            if span.end_ns < span.start_ns {
                return Err(format!("span {id} '{}' ends before it starts", span.name));
            }
            if let Some(p) = span.parent {
                let parent = self
                    .spans
                    .get(p)
                    .ok_or(format!("span {id}: no parent {p}"))?;
                if span.start_ns < parent.start_ns || span.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {id} '{}' leaves its parent '{}'",
                        span.name, parent.name
                    ));
                }
            }
        }
        let mut by_parent: Vec<(Option<usize>, u64, u64)> = self
            .spans
            .iter()
            .map(|s| (s.parent, s.start_ns, s.end_ns))
            .collect();
        by_parent.sort_unstable();
        for pair in by_parent.windows(2) {
            if pair[0].0 == pair[1].0 && pair[1].1 < pair[0].2 {
                return Err(format!(
                    "sibling spans overlap under parent {:?}",
                    pair[0].0
                ));
            }
        }
        Ok(())
    }

    /// The whole trace as JSON: run id plus one object per span with
    /// its self time worked out.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Num(id as f64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self.self_ns(id) as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("run", Json::Str(self.run_id.clone())),
            ("spans", Json::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let mut trace = Trace::new("t");
        trace.span("root", |t| {
            spin(Duration::from_millis(2));
            t.span("a", |t| {
                spin(Duration::from_millis(2));
                t.span("a.inner", |_| spin(Duration::from_millis(1)));
            });
            t.span("b", |_| spin(Duration::from_millis(3)));
        });
        trace.validate().unwrap();
        let root = trace.find("root").unwrap();
        let (a, b) = (trace.find("a").unwrap(), trace.find("b").unwrap());
        let s = trace.spans();
        assert_eq!(
            trace.self_ns(root),
            s[root].duration_ns() - s[a].duration_ns() - s[b].duration_ns()
        );
        // Grandchildren are charged to their parent, not to the root.
        let inner = trace.find("a.inner").unwrap();
        assert_eq!(
            trace.self_ns(a),
            s[a].duration_ns() - s[inner].duration_ns()
        );
        assert!(trace.self_ns(root) >= 2_000_000);
        // Self times of the whole tree add up to the root's duration.
        let total: u64 = (0..s.len()).map(|id| trace.self_ns(id)).sum();
        assert_eq!(total, s[root].duration_ns());
        assert!(trace.coverage(root) > 0.5 && trace.coverage(root) < 1.0);
    }

    #[test]
    fn recorded_stamps_become_children_of_the_named_parent() {
        let mut trace = Trace::new("t");
        let mut stamps = Vec::new();
        trace.span("run", |_| {
            for _ in 0..3 {
                let begin = Instant::now();
                spin(Duration::from_micros(200));
                stamps.push((begin, Instant::now()));
            }
        });
        let run = trace.find("run").unwrap();
        for (begin, end) in stamps {
            trace.record("round", begin, end, Some(run));
        }
        trace.validate().unwrap();
        assert_eq!(trace.durations_s("round").len(), 3);
        assert!(trace.total_s("round") <= trace.total_s("run"));
    }

    #[test]
    fn overlapping_siblings_are_rejected() {
        let mut trace = Trace::new("t");
        let t0 = Instant::now();
        spin(Duration::from_micros(300));
        let t1 = Instant::now();
        spin(Duration::from_micros(300));
        let t2 = Instant::now();
        trace.record("x", t0, t2, None);
        trace.record("y", t1, t2, None);
        assert!(trace.validate().unwrap_err().contains("overlap"));
    }

    #[test]
    fn json_carries_run_id_parent_and_self_time() {
        let mut trace = Trace::new("exact_m5000/seed1");
        trace.span("outer", |t| t.span("inner", |_| ()));
        let doc = Json::parse(&trace.to_json().render()).unwrap();
        assert_eq!(doc.get("run").unwrap().as_str(), Some("exact_m5000/seed1"));
        let Json::Arr(spans) = doc.get("spans").unwrap() else {
            panic!("spans is an array")
        };
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent"), Some(&Json::Num(0.0)));
        assert!(spans[1].get("self_ns").is_some());
    }
}
