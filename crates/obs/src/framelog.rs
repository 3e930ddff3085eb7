//! The binary frame-log container behind `trace=frames:FILE`.
//!
//! Layout (format v1, little-endian throughout, following the
//! bounds-checked cursor idiom of `dlb-gossip`'s `wire.rs`):
//!
//! ```text
//! header:  magic "DLBF" · version u32 · spec_len u32 · spec utf-8
//! body:    event_count u64 · events (34 bytes each:
//!          kind u8 · at_ms u64(bits) · node u32 · peer u32 ·
//!          round u64 · tag u8 · detail u64(bits))
//! trailer: magic "DLBE" · event_hash u64 · final_cost u64(bits) ·
//!          rounds u64 · exchanges u64 · virtual_ms u64(bits)
//! ```
//!
//! The header's `spec` is the run's canonical scenario text with the
//! `trace=` axis stripped — everything replay needs to re-derive the
//! instance, the fault/stream scripts, and the cluster options from
//! one seed. The trailer pins what the recorded run reported, and it
//! is part of the bytes a replay must reproduce: the rerun's outcomes
//! (`final_cost`, `rounds`, …) must encode to the recorded ones, not
//! only its `event_hash` to the recorded hash.

use crate::event::{TraceEvent, TraceKind};

/// Header magic.
const MAGIC: &[u8; 4] = b"DLBF";
/// Trailer magic.
const END_MAGIC: &[u8; 4] = b"DLBE";
/// Format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;
/// Encoded size of one event.
const EVENT_BYTES: usize = 1 + 8 + 4 + 4 + 8 + 1 + 8;

/// What the recorded run reported — bytes a replay must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Trailer {
    /// The executor's delivered-order fingerprint.
    pub event_hash: u64,
    /// Final ΣC of the recorded run.
    pub final_cost: f64,
    /// Protocol rounds executed.
    pub rounds: u64,
    /// Exchanges committed.
    pub exchanges: u64,
    /// Virtual milliseconds the run spanned.
    pub virtual_ms: f64,
}

/// A decoded frame log: the recording scenario, the event stream, and
/// the recorded outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameLog {
    /// Canonical scenario text (with `trace=` stripped) that produced
    /// the stream.
    pub spec: String,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
    /// Recorded outcomes.
    pub trailer: Trailer,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.s.len())
            .ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        let out = &self.s[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
}

impl FrameLog {
    /// Encodes the log to its binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            4 + 4 + 4 + self.spec.len() + 8 + self.events.len() * EVENT_BYTES + 4 + 40,
        );
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, FORMAT_VERSION);
        put_u32(&mut out, self.spec.len() as u32);
        out.extend_from_slice(self.spec.as_bytes());
        put_u64(&mut out, self.events.len() as u64);
        for ev in &self.events {
            out.push(ev.kind as u8);
            put_u64(&mut out, ev.at_ms.to_bits());
            put_u32(&mut out, ev.node);
            put_u32(&mut out, ev.peer);
            put_u64(&mut out, ev.round);
            out.push(ev.tag);
            put_u64(&mut out, ev.detail.to_bits());
        }
        out.extend_from_slice(END_MAGIC);
        put_u64(&mut out, self.trailer.event_hash);
        put_u64(&mut out, self.trailer.final_cost.to_bits());
        put_u64(&mut out, self.trailer.rounds);
        put_u64(&mut out, self.trailer.exchanges);
        put_u64(&mut out, self.trailer.virtual_ms.to_bits());
        out
    }

    /// Decodes a binary frame log, rejecting truncation, trailing
    /// garbage, bad magic, unknown versions, hostile lengths, and
    /// unknown event kinds.
    pub fn decode(bytes: &[u8]) -> Result<FrameLog, String> {
        let mut c = Cursor { s: bytes, pos: 0 };
        if c.take(4)? != MAGIC {
            return Err("not a dlb frame log (bad magic)".into());
        }
        let version = c.u32()?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "frame-log format v{version} (this build reads v{FORMAT_VERSION})"
            ));
        }
        let spec_len = c.u32()? as usize;
        let spec = std::str::from_utf8(c.take(spec_len)?)
            .map_err(|_| "spec text is not utf-8".to_string())?
            .to_string();
        let count = c.u64()? as usize;
        // Hostile-length protection: the remaining bytes must actually
        // hold `count` events plus the trailer.
        let need = count
            .checked_mul(EVENT_BYTES)
            .and_then(|n| n.checked_add(4 + 40))
            .ok_or("event count overflows")?;
        if bytes.len() - c.pos < need {
            return Err(format!(
                "event count {count} exceeds remaining {} bytes",
                bytes.len() - c.pos
            ));
        }
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            let kind = TraceKind::from_u8(c.u8()?)
                .ok_or_else(|| format!("unknown event kind at record {i}"))?;
            events.push(TraceEvent {
                kind,
                at_ms: c.f64()?,
                node: c.u32()?,
                peer: c.u32()?,
                round: c.u64()?,
                tag: c.u8()?,
                detail: c.f64()?,
            });
        }
        if c.take(4)? != END_MAGIC {
            return Err("missing trailer magic".into());
        }
        let trailer = Trailer {
            event_hash: c.u64()?,
            final_cost: c.f64()?,
            rounds: c.u64()?,
            exchanges: c.u64()?,
            virtual_ms: c.f64()?,
        };
        if c.pos != bytes.len() {
            return Err(format!("trailing garbage at byte {}", c.pos));
        }
        Ok(FrameLog {
            spec,
            events,
            trailer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{NODE_COORD, NO_PEER};

    pub(crate) fn sample_log() -> FrameLog {
        FrameLog {
            spec: "algo=protocol net=pl m=64 seed=3 runtime=events".into(),
            events: vec![
                TraceEvent {
                    kind: TraceKind::RoundBegin,
                    at_ms: 0.0,
                    node: NODE_COORD,
                    peer: NO_PEER,
                    round: 1,
                    tag: 0,
                    detail: 0.0,
                },
                TraceEvent {
                    kind: TraceKind::FrameScheduled,
                    at_ms: 0.0,
                    node: 3,
                    peer: NODE_COORD,
                    round: 1,
                    tag: 1,
                    detail: 12.25,
                },
                TraceEvent {
                    kind: TraceKind::FrameDelivered,
                    at_ms: 12.25,
                    node: 3,
                    peer: NODE_COORD,
                    round: 1,
                    tag: 1,
                    detail: 0.0,
                },
            ],
            trailer: Trailer {
                event_hash: 0xDEAD_BEEF_0BAD_F00D,
                final_cost: 34654.117784,
                rounds: 8,
                exchanges: 21,
                virtual_ms: 940.226659,
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let log = sample_log();
        let bytes = log.encode();
        assert_eq!(FrameLog::decode(&bytes).unwrap(), log);
    }

    #[test]
    fn empty_log_round_trips() {
        let log = FrameLog {
            spec: String::new(),
            events: vec![],
            trailer: Trailer {
                event_hash: 0,
                final_cost: 0.0,
                rounds: 0,
                exchanges: 0,
                virtual_ms: 0.0,
            },
        };
        assert_eq!(FrameLog::decode(&log.encode()).unwrap(), log);
    }

    #[test]
    fn decode_rejects_every_truncation() {
        let bytes = sample_log().encode();
        for len in 0..bytes.len() {
            assert!(
                FrameLog::decode(&bytes[..len]).is_err(),
                "accepted truncation to {len} bytes"
            );
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let good = sample_log().encode();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(FrameLog::decode(&bad).is_err());
        // Unknown version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(FrameLog::decode(&bad).is_err());
        // Hostile event count.
        let mut bad = good.clone();
        let spec_len = 4 + 4 + 4 + sample_log().spec.len();
        bad[spec_len..spec_len + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(FrameLog::decode(&bad).is_err());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(FrameLog::decode(&bad).is_err());
        // Unknown event kind.
        let mut bad = good;
        bad[spec_len + 8] = 250;
        assert!(FrameLog::decode(&bad).is_err());
    }
}
