//! Compact wire encoding for gossip messages.
//!
//! One frame kind, little-endian throughout: the sharded anti-entropy
//! **delta frame** ([`DeltaFrame`], [`encode_delta`]/[`decode_delta`]).
//! A frame names a fallback `shard` id, carries the sender's per-shard
//! version summary (`since`, one `u64` per shard — the watermark the
//! receiver answers against), a `changed` entry list (the sender's
//! recently-heard hot set) and a `full` entry list (the complete
//! contents of the named fallback shard). An entry is an
//! `(origin: u32, version: u64, load: f64)` triple — [`ENTRY_SIZE`] =
//! 20 bytes — and an entry list is a `u32` count followed by that many
//! entries. Steady-state traffic is O(changed entries) plus one
//! rotating shard instead of O(m).
//!
//! [`crate::DeltaGossip`] simulates its network in one process and
//! builds no [`DeltaFrame`] value on its frame path: a frame in flight
//! is a span of [`WireEntry`]s and summary words in one arena the
//! network owns, named by a few `u32`s on its event heap, and nothing
//! serializes it. The encoding is what a frame *weighs*:
//! [`crate::GossipTraffic`] meters every frame at
//! [`DeltaFrame::encoded_len`], and the gossip crate's tests check that
//! meter against `encode_delta` of a reference [`DeltaFrame`], and the
//! payload read back from the arena against that frame cut to what the
//! receiver lacks. Beyond that oracle the codec is the format a real
//! transport would put on a socket, and the subject of the ledger's
//! wire probe: [`decode_delta`] accepts exactly the buffers
//! `encode_delta` writes and returns `None` — never panics — on
//! truncated, malformed or trailing input.
//!
//! [`view_bytes`] prices the alternative the delta frame exists to
//! avoid: a frame carrying a node's whole m-entry view, ~100 kB at
//! m = 5000. Nothing ships one; the bandwidth tables quote it as the
//! baseline.

use std::sync::Arc;

/// One gossip view entry on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireEntry {
    /// Which server this entry describes.
    pub origin: u32,
    /// Freshness version.
    pub version: u64,
    /// Reported load.
    pub load: f64,
}

/// Bytes per encoded entry.
pub const ENTRY_SIZE: usize = 4 + 8 + 8;

/// Encoded size of one entry list carrying `n` entries — what a frame
/// holding a whole `n`-server view would weigh.
pub const fn view_bytes(n: usize) -> usize {
    4 + n * ENTRY_SIZE
}

/// One sharded delta frame: the sender's hot set plus a full-view
/// fallback for one rotating shard, stamped with the sender's per-shard
/// version summary.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFrame {
    /// Which shard the `full` list covers.
    pub shard: u32,
    /// Sender's per-shard version summary (sum of versions per shard);
    /// the receiver uses it to pick the neediest shard for its reply.
    pub since: Vec<u64>,
    /// Recently-changed entries (the sender's rumor hot set).
    pub changed: Vec<WireEntry>,
    /// Every known entry of shard `shard` — the anti-entropy fallback
    /// that guarantees convergence even when the hot set misses.
    pub full: Vec<WireEntry>,
}

impl DeltaFrame {
    /// Encoded size of this frame.
    pub fn encoded_len(&self) -> usize {
        4 + 4 + self.since.len() * 8 + view_bytes(self.changed.len()) + view_bytes(self.full.len())
    }
}

/// Encodes a delta frame: `u32` shard id, `u32` summary length, the
/// summary `u64`s, then the `changed` and `full` entry lists (each a
/// `u32` count and that many [`ENTRY_SIZE`]-byte entries). The result
/// is shared: cloning it is O(1).
pub fn encode_delta(frame: &DeltaFrame) -> Arc<[u8]> {
    let mut buf = Vec::with_capacity(frame.encoded_len());
    buf.extend_from_slice(&frame.shard.to_le_bytes());
    buf.extend_from_slice(&(frame.since.len() as u32).to_le_bytes());
    for v in &frame.since {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    for list in [&frame.changed, &frame.full] {
        buf.extend_from_slice(&(list.len() as u32).to_le_bytes());
        for e in list {
            buf.extend_from_slice(&e.origin.to_le_bytes());
            buf.extend_from_slice(&e.version.to_le_bytes());
            buf.extend_from_slice(&e.load.to_bits().to_le_bytes());
        }
    }
    Arc::from(buf)
}

/// Decodes a buffer holding exactly one delta frame. Every length
/// prefix is checked against the bytes left, in overflow-checked
/// arithmetic, before anything is sliced or allocated, and trailing
/// bytes are malformed: `None` on any of that, never a panic.
pub fn decode_delta(buf: impl AsRef<[u8]>) -> Option<DeltaFrame> {
    let s = buf.as_ref();
    let mut pos = 0usize;
    let shard = read_u32(s, &mut pos)?;
    let since = take_list(s, &mut pos, 8)?
        .chunks_exact(8)
        .map(le_u64)
        .collect();
    let changed = read_entries(s, &mut pos)?;
    let full = read_entries(s, &mut pos)?;
    (pos == s.len()).then_some(DeltaFrame {
        shard,
        since,
        changed,
        full,
    })
}

/// Reads one length-prefixed entry list at `*pos`, advancing it.
fn read_entries(s: &[u8], pos: &mut usize) -> Option<Vec<WireEntry>> {
    let entry = |raw: &[u8]| WireEntry {
        origin: u32::from_le_bytes(raw[..4].try_into().expect("4-byte field")),
        version: le_u64(&raw[4..12]),
        load: f64::from_bits(le_u64(&raw[12..])),
    };
    let raw = take_list(s, pos, ENTRY_SIZE)?;
    Some(raw.chunks_exact(ENTRY_SIZE).map(entry).collect())
}

/// The raw bytes of one `u32`-length-prefixed list of `unit`-byte
/// items at `*pos` (a whole number of `unit`-byte chunks), advancing
/// `*pos` past it. The claimed length is checked against what is left,
/// in overflow-checked arithmetic, before anything is sliced.
fn take_list<'a>(s: &'a [u8], pos: &mut usize, unit: usize) -> Option<&'a [u8]> {
    let count = read_u32(s, pos)? as usize;
    take(s, pos, count.checked_mul(unit)?)
}

/// `len` bytes at `*pos`, advancing it; `None` when fewer are left.
fn take<'a>(s: &'a [u8], pos: &mut usize, len: usize) -> Option<&'a [u8]> {
    let raw = s.get(*pos..pos.checked_add(len)?)?;
    *pos += len;
    Some(raw)
}

fn read_u32(s: &[u8], pos: &mut usize) -> Option<u32> {
    let raw = take(s, pos, 4)?;
    Some(u32::from_le_bytes(raw.try_into().expect("4-byte field")))
}

/// One little-endian `u64` from an 8-byte chunk.
fn le_u64(raw: &[u8]) -> u64 {
    u64::from_le_bytes(raw.try_into().expect("8-byte field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> DeltaFrame {
        DeltaFrame {
            shard: 3,
            since: vec![7, 0, 42, u64::MAX],
            changed: vec![
                WireEntry {
                    origin: 12,
                    version: 9,
                    load: 1.5,
                },
                WireEntry {
                    origin: 990,
                    version: 2,
                    load: 0.0,
                },
            ],
            full: vec![WireEntry {
                origin: 768,
                version: 1,
                load: 64.25,
            }],
        }
    }

    #[test]
    fn delta_roundtrip() {
        let frame = sample_frame();
        let bytes = encode_delta(&frame);
        assert_eq!(bytes.len(), frame.encoded_len());
        assert_eq!(decode_delta(bytes).unwrap(), frame);
    }

    #[test]
    fn delta_empty_frame_roundtrips() {
        let frame = DeltaFrame {
            shard: 0,
            since: vec![],
            changed: vec![],
            full: vec![],
        };
        let bytes = encode_delta(&frame);
        assert_eq!(bytes.len(), 4 + 4 + 4 + 4);
        assert_eq!(decode_delta(bytes).unwrap(), frame);
    }

    #[test]
    fn delta_rejects_every_truncation() {
        let bytes = encode_delta(&sample_frame());
        for cut in 0..bytes.len() {
            assert!(
                decode_delta(&bytes[..cut]).is_none(),
                "decoded a {cut}-byte prefix of a {}-byte frame",
                bytes.len()
            );
        }
    }

    #[test]
    fn delta_decode_rejects_concatenated_frames_and_hostile_lengths() {
        // One frame's buffer holds that frame and nothing else: two
        // frames back to back are one frame with trailing bytes.
        let one = encode_delta(&sample_frame());
        let stream = [&one[..], &one[..]].concat();
        assert!(decode_delta(&stream).is_none());
        assert!(decode_delta(&stream[..one.len()]).is_some());

        // A frame claiming u32::MAX summary slots must fail the bounds
        // check before allocating anything.
        let hostile = [0u32.to_le_bytes(), u32::MAX.to_le_bytes()].concat();
        assert!(decode_delta(hostile).is_none());
    }

    #[test]
    fn full_view_of_large_system_is_bounded() {
        assert_eq!(view_bytes(0), 4);
        assert!(view_bytes(5000) < 128 * 1024);
    }
}
