//! Property-based tests for the gossip wire encoding.

#![cfg(test)]

use proptest::prelude::*;

use crate::shard::ShardMap;
use crate::wire::{
    decode_delta, decode_delta_from, encode_delta, DeltaFrame, DeltaFrameRef, WireEntry, ENTRY_SIZE,
};

fn arb_entry() -> impl Strategy<Value = WireEntry> {
    (any::<u32>(), any::<u64>(), 0.0f64..1e12).prop_map(|(origin, version, load)| WireEntry {
        origin,
        version,
        load,
    })
}

fn arb_entries() -> impl Strategy<Value = Vec<WireEntry>> {
    proptest::collection::vec(arb_entry(), 0..64)
}

fn arb_delta_frame() -> impl Strategy<Value = DeltaFrame> {
    (
        any::<u32>(),
        proptest::collection::vec(any::<u64>(), 0..24),
        arb_entries(),
        arb_entries(),
    )
        .prop_map(|(shard, since, changed, full)| DeltaFrame {
            shard,
            since,
            changed,
            full,
        })
}

/// The borrowed parser must accept exactly what the owned strict
/// decoder accepts, and then yield the same frame — compared on bits,
/// because garbage can decode to NaN loads.
fn assert_ref_agrees_with_decode(raw: &[u8]) {
    let owned = decode_delta(raw);
    let borrowed = DeltaFrameRef::parse(raw);
    assert_eq!(borrowed.is_some(), owned.is_some());
    if let (Some(borrowed), Some(owned)) = (borrowed, owned) {
        let bits = |e: WireEntry| (e.origin, e.version, e.load.to_bits());
        assert_eq!(borrowed.shard(), owned.shard);
        assert_eq!(borrowed.since().collect::<Vec<_>>(), owned.since);
        assert_eq!(
            borrowed.changed().map(bits).collect::<Vec<_>>(),
            owned.changed.into_iter().map(bits).collect::<Vec<_>>()
        );
        assert_eq!(
            borrowed.full().map(bits).collect::<Vec<_>>(),
            owned.full.into_iter().map(bits).collect::<Vec<_>>()
        );
    }
}

proptest! {
    /// Delta frames round-trip exactly through both decoder flavours,
    /// and the encoded size matches `encoded_len`.
    #[test]
    fn delta_roundtrip_and_size(frame in arb_delta_frame()) {
        let bytes = encode_delta(&frame);
        prop_assert_eq!(bytes.len(), frame.encoded_len());
        prop_assert_eq!(&decode_delta(bytes.clone()).expect("strict"), &frame);
        let (streamed, used) = decode_delta_from(&bytes).expect("streaming");
        prop_assert_eq!(&streamed, &frame);
        prop_assert_eq!(used, bytes.len());
    }

    /// No truncated prefix of a delta frame decodes, through either
    /// flavour.
    #[test]
    fn delta_truncation_is_always_rejected(frame in arb_delta_frame()) {
        let bytes = encode_delta(&frame);
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            prop_assert!(decode_delta(prefix).is_none(), "strict decoded a {cut}-byte prefix");
            prop_assert!(decode_delta_from(prefix).is_none(), "streaming decoded a {cut}-byte prefix");
        }
    }

    /// Garbage never panics the delta decoder either, and whatever
    /// decodes re-encodes byte-exactly.
    #[test]
    fn delta_garbage_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Some(frame) = decode_delta(&raw) {
            prop_assert_eq!(encode_delta(&frame).as_ref(), &raw[..]);
        }
    }

    /// `DeltaFrameRef::parse` ≡ `decode_delta` on arbitrary bytes.
    #[test]
    fn borrowed_parse_agrees_with_decode_on_garbage(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_ref_agrees_with_decode(&raw);
    }

    /// … on a valid frame, on every truncation of it (none may parse),
    /// and on the frame followed by trailing garbage (strict: rejected).
    #[test]
    fn borrowed_parse_agrees_with_decode_on_frames_cuts_and_tails(
        frame in arb_delta_frame(),
        tail in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let bytes = encode_delta(&frame);
        prop_assert!(DeltaFrameRef::parse(&bytes).is_some());
        assert_ref_agrees_with_decode(&bytes);
        for cut in 0..bytes.len() {
            prop_assert!(DeltaFrameRef::parse(&bytes[..cut]).is_none(), "parsed a {cut}-byte prefix");
            assert_ref_agrees_with_decode(&bytes[..cut]);
        }
        let mut longer = bytes.to_vec();
        longer.extend_from_slice(&tail);
        prop_assert!(DeltaFrameRef::parse(&longer).is_none());
        assert_ref_agrees_with_decode(&longer);
    }

    /// … and when any of the three length prefixes is overwritten with
    /// a hostile value (`u32::MAX` overflows `count · 20` on 32-bit and
    /// dwarfs the buffer everywhere): `None` from both, no panic, no
    /// giant reserve.
    #[test]
    fn borrowed_parse_agrees_with_decode_on_hostile_lengths(
        frame in arb_delta_frame(),
        which in 0usize..3,
        claimed in prop_oneof![Just(u32::MAX), Just(u32::MAX / 20), Just(u32::MAX / 8), any::<u32>()],
    ) {
        let mut raw = encode_delta(&frame).to_vec();
        let since_at = 4;
        let changed_at = since_at + 4 + frame.since.len() * 8;
        let full_at = changed_at + 4 + frame.changed.len() * ENTRY_SIZE;
        let at = [since_at, changed_at, full_at][which];
        raw[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
        assert_ref_agrees_with_decode(&raw);
    }

    /// delta ∘ apply ≡ full view: merging a sender's hot subset plus
    /// every per-shard fallback frame into a receiver view produces
    /// exactly the same result as merging the sender's full view —
    /// the algebra that lets DeltaGossip ship O(changed) bytes without
    /// changing what converges.
    #[test]
    fn delta_apply_equals_full_view_merge(
        sender_versions in proptest::collection::vec(0u64..6, 1..48),
        receiver_versions in proptest::collection::vec(0u64..6, 1..48),
        hot_mask in proptest::collection::vec(any::<bool>(), 1..48),
    ) {
        let m = sender_versions.len().min(receiver_versions.len()).min(hot_mask.len());
        let shards = ShardMap::with_shard_size(m, 5);
        let entry = |o: usize, v: u64| WireEntry { origin: o as u32, version: v, load: (o * 100) as f64 + v as f64 };
        let sender: Vec<WireEntry> = (0..m).map(|o| entry(o, sender_versions[o])).collect();
        let receiver: Vec<WireEntry> = (0..m).map(|o| entry(o, receiver_versions[o])).collect();

        // Keep-freshest merge of an entry list into a view.
        let merge = |view: &mut Vec<WireEntry>, incoming: &[WireEntry]| {
            for e in incoming {
                let mine = &mut view[e.origin as usize];
                if e.version > mine.version {
                    *mine = *e;
                }
            }
        };

        // Full-view path: the sender's whole view, merged as is.
        let mut via_full = receiver.clone();
        merge(&mut via_full, &sender);

        // Delta path: the sender's hot subset rides `changed`; every
        // shard is eventually somebody's fallback, so apply one frame
        // per shard, each through the real codec.
        let mut via_delta = receiver.clone();
        for s in 0..shards.count() {
            let frame = DeltaFrame {
                shard: s as u32,
                since: vec![0; shards.count()],
                changed: (0..m)
                    .filter(|&o| hot_mask[o] && sender[o].version > 0)
                    .map(|o| sender[o])
                    .collect(),
                full: shards.range(s).map(|o| sender[o]).collect(),
            };
            let decoded = decode_delta(encode_delta(&frame)).expect("delta frame");
            merge(&mut via_delta, &decoded.changed);
            merge(&mut via_delta, &decoded.full);
        }
        prop_assert_eq!(via_delta, via_full);
    }
}
