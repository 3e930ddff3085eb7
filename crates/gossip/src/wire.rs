//! Compact wire encoding for gossip messages.
//!
//! One frame kind, little-endian throughout (no serde overhead on the
//! hot path): the sharded anti-entropy **delta frame**
//! ([`encode_delta`]/[`decode_delta`]/[`decode_delta_from`]) that
//! [`crate::DeltaGossip`] ships. A frame names a fallback `shard` id,
//! carries the sender's per-shard version summary (`since`, one `u64`
//! per shard — the watermark the receiver answers against), a `changed`
//! entry list (the sender's recently-heard hot set) and a `full` entry
//! list (the complete contents of the named fallback shard). An entry
//! is an `(origin: u32, version: u64, load: f64)` triple —
//! [`ENTRY_SIZE`] = 20 bytes — and an entry list is a `u32` count
//! followed by that many entries. Steady-state traffic is O(changed
//! entries) plus one rotating shard instead of O(m).
//!
//! [`view_bytes`] prices the alternative the delta frame exists to
//! avoid: a frame carrying a node's whole m-entry view, ~100 kB at
//! m = 5000. Nothing ships one; the bandwidth tables quote it as the
//! baseline.
//!
//! The owned decoder comes in two flavours: [`decode_delta_from`]
//! decodes exactly one frame from the front of a slice and says how
//! many bytes it took (so concatenated / streamed frames parse
//! frame-by-frame), while [`decode_delta`] is the strict whole-buffer
//! wrapper that additionally rejects trailing garbage. Both return
//! `None` — never panic — on truncated or malformed input.
//!
//! Beside them sits [`DeltaFrameRef`], the borrowed form of the strict
//! delta decoder: [`DeltaFrameRef::parse`] accepts exactly the buffers
//! [`decode_delta`] accepts (same checked length arithmetic, same
//! whole-buffer rule, `None` and never a panic otherwise) but builds no
//! `Vec`s — it keeps three sub-slices of the input and decodes `since`
//! words and entries in place as they are iterated. It is what
//! [`crate::DeltaGossip`] merges delivered frames through;
//! [`encode_delta`]/[`decode_delta`] stay as the public owned codec and
//! as the oracle the borrowed path is property-tested against.

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

impl WireEntry {
    /// The entry's wire image: `origin`, `version`, `load` bits, all
    /// little-endian. Built whole so a writer does one 20-byte append.
    fn to_wire(self) -> [u8; ENTRY_SIZE] {
        let mut raw = [0u8; ENTRY_SIZE];
        raw[..4].copy_from_slice(&self.origin.to_le_bytes());
        raw[4..12].copy_from_slice(&self.version.to_le_bytes());
        raw[12..].copy_from_slice(&self.load.to_bits().to_le_bytes());
        raw
    }

    /// Inverse of [`to_wire`](Self::to_wire). `raw` must be exactly
    /// [`ENTRY_SIZE`] bytes (callers slice with `chunks_exact`).
    fn from_wire(raw: &[u8]) -> Self {
        WireEntry {
            origin: u32::from_le_bytes(raw[..4].try_into().expect("4-byte field")),
            version: u64::from_le_bytes(raw[4..12].try_into().expect("8-byte field")),
            load: f64::from_bits(u64::from_le_bytes(
                raw[12..ENTRY_SIZE].try_into().expect("8-byte field"),
            )),
        }
    }
}

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
    put_delta_header(&mut buf, frame.shard, &frame.since);
    put_entries(&mut buf, frame.changed.iter().copied());
    put_entries(&mut buf, frame.full.iter().copied());
    Arc::from(buf)
}

/// Decodes exactly one delta frame from the front of `s` and returns
/// it with the number of bytes it occupied; whatever follows is the
/// caller's. Returns `None` on truncated or malformed input.
pub fn decode_delta_from(s: &[u8]) -> Option<(DeltaFrame, usize)> {
    let mut pos = 0usize;
    let shard = read_u32(s, &mut pos)?;
    let since = take_list(s, &mut pos, 8)?
        .chunks_exact(8)
        .map(le_u64)
        .collect();
    let changed = read_entries(s, &mut pos)?;
    let full = read_entries(s, &mut pos)?;
    let frame = DeltaFrame {
        shard,
        since,
        changed,
        full,
    };
    Some((frame, pos))
}

/// Strict whole-buffer wrapper around [`decode_delta_from`]: trailing
/// bytes are rejected as malformed.
pub fn decode_delta(buf: impl AsRef<[u8]>) -> Option<DeltaFrame> {
    let buf = buf.as_ref();
    let (frame, used) = decode_delta_from(buf)?;
    (used == buf.len()).then_some(frame)
}

/// A delta frame parsed in place: the borrowed twin of
/// [`decode_delta`]. [`parse`](Self::parse) validates the whole buffer
/// up front and keeps three sub-slices of it; `since` words and entries
/// are decoded as they are iterated, so consuming a frame allocates
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct DeltaFrameRef<'a> {
    shard: u32,
    since: &'a [u8],
    changed: &'a [u8],
    full: &'a [u8],
}

impl<'a> DeltaFrameRef<'a> {
    /// Validates `raw` as exactly one delta frame — the rules of
    /// [`decode_delta`]: every length prefix is checked against the
    /// bytes left, in overflow-checked arithmetic, before it is used,
    /// and trailing bytes are malformed. `None`, never a panic, on
    /// anything else.
    pub fn parse(raw: &'a [u8]) -> Option<Self> {
        let mut pos = 0usize;
        let shard = read_u32(raw, &mut pos)?;
        let since = take_list(raw, &mut pos, 8)?;
        let changed = take_list(raw, &mut pos, ENTRY_SIZE)?;
        let full = take_list(raw, &mut pos, ENTRY_SIZE)?;
        (pos == raw.len()).then_some(DeltaFrameRef {
            shard,
            since,
            changed,
            full,
        })
    }

    /// Which shard the `full` list covers.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// The sender's per-shard version summary, in shard order.
    pub fn since(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.since.chunks_exact(8).map(le_u64)
    }

    /// The hot-set entries, in wire order.
    pub fn changed(&self) -> impl ExactSizeIterator<Item = WireEntry> + 'a {
        self.changed
            .chunks_exact(ENTRY_SIZE)
            .map(WireEntry::from_wire)
    }

    /// The fallback shard's entries, in wire order.
    pub fn full(&self) -> impl ExactSizeIterator<Item = WireEntry> + 'a {
        self.full.chunks_exact(ENTRY_SIZE).map(WireEntry::from_wire)
    }
}

/// Appends a delta frame's head: `u32` shard id, `u32` summary length,
/// the summary words. Two [`put_entries`] lists complete the frame.
pub(crate) fn put_delta_header(buf: &mut Vec<u8>, shard: u32, since: &[u64]) {
    buf.extend_from_slice(&shard.to_le_bytes());
    buf.extend_from_slice(&(since.len() as u32).to_le_bytes());
    for v in since {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends one length-prefixed entry list. The `u32` count is patched
/// in after the walk, so `entries` may be a filtered iterator whose
/// length is not known up front; each entry is one [`ENTRY_SIZE`]-byte
/// append.
pub(crate) fn put_entries(buf: &mut Vec<u8>, entries: impl Iterator<Item = WireEntry>) {
    let count_at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    let mut count = 0u32;
    for e in entries {
        buf.extend_from_slice(&e.to_wire());
        count += 1;
    }
    buf[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
}

/// Reads one length-prefixed entry list at `*pos`, advancing it.
/// Bounds are checked before any allocation so hostile length prefixes
/// cannot trigger huge reserves.
fn read_entries(s: &[u8], pos: &mut usize) -> Option<Vec<WireEntry>> {
    let raw = take_list(s, pos, ENTRY_SIZE)?;
    Some(
        raw.chunks_exact(ENTRY_SIZE)
            .map(WireEntry::from_wire)
            .collect(),
    )
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

/// One little-endian `u64` from an 8-byte `chunks_exact` chunk.
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
    fn delta_decode_from_consumes_one_frame_and_rejects_hostile_lengths() {
        let frame = sample_frame();
        let one = encode_delta(&frame);
        let stream = [&one[..], &one[..]].concat();
        let (first, used) = decode_delta_from(&stream).unwrap();
        assert_eq!((first, used), (frame.clone(), one.len()));
        let (second, used) = decode_delta_from(&stream[used..]).unwrap();
        assert_eq!((second, used), (frame, one.len()));

        // A frame claiming u32::MAX summary slots must fail the bounds
        // check before allocating anything.
        let hostile = [0u32.to_le_bytes(), u32::MAX.to_le_bytes()].concat();
        assert!(decode_delta_from(&hostile).is_none());
    }

    #[test]
    fn full_view_of_large_system_is_bounded() {
        assert_eq!(view_bytes(0), 4);
        assert!(view_bytes(5000) < 128 * 1024);
    }
}
