//! # dlb-obs — the deterministic observability plane
//!
//! Zero-overhead-when-off tracing and metrics for the virtual-time
//! runtime. Everything here is stamped in **virtual milliseconds** and
//! derived from the executor's deterministic delivery order, so two
//! runs of one scenario produce byte-identical traces — which is what
//! makes frame logs *replayable*: `dlb trace replay FILE` re-derives
//! the run from the spec embedded in the log header and requires the
//! rerun to encode to the log's bytes: every event and every outcome.
//!
//! The pieces:
//! * [`TraceEvent`]/[`TraceKind`] — the flat event vocabulary
//!   (frames, timers, round phases, exchanges, detector verdicts,
//!   gossip exchanges, stream traffic).
//! * [`TraceSink`] — where events go: [`NullSink`] (disabled; one
//!   branch per hook, untraced runs stay byte-identical),
//!   [`MemorySink`] (recording), [`SummarySink`] (streaming metrics).
//! * [`Histogram`]/[`MetricSet`] — RNG-free log-bucketed metrics over
//!   integer state, folded in the executor's one delivery order, so a
//!   run's metrics are the same for every `DLB_THREADS` value.
//! * [`FrameLog`] — the binary container (`header · events ·
//!   trailer`) with a property-tested codec.
//! * [`chrome`] — Chrome trace-event JSON export of the virtual
//!   timeline, escaping its text with [`json_string`], as the
//!   JSON-lines records do.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod framelog;
pub mod metrics;
pub mod sink;

pub use event::{tag_label, TraceEvent, TraceKind, KIND_COUNT, NODE_COORD, NO_PEER};
pub use framelog::{FrameLog, Trailer, FORMAT_VERSION};
pub use metrics::{Histogram, MetricSet, ObsSummary, BUCKETS};
pub use sink::{MemorySink, NullSink, SummarySink, TraceSink};

/// `s` as a JSON string literal, quotes included. A quote, a backslash,
/// a newline, a carriage return and a tab are escaped by name (`\"`,
/// `\\`, `\n`, `\r`, `\t`), any other control character as `\u00XX`.
/// The one escaper of the chrome export and the JSON-lines records.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod proptests;
