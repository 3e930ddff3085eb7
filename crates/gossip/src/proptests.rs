//! Property-based tests for the gossip wire encoding.

#![cfg(test)]

use proptest::prelude::*;

use crate::shard::ShardMap;
use crate::wire::{decode_delta, encode_delta, DeltaFrame, WireEntry, ENTRY_SIZE};

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

proptest! {
    /// Delta frames round-trip exactly, and the encoded size matches
    /// `encoded_len`.
    #[test]
    fn delta_roundtrip_and_size(frame in arb_delta_frame()) {
        let bytes = encode_delta(&frame);
        prop_assert_eq!(bytes.len(), frame.encoded_len());
        prop_assert_eq!(&decode_delta(bytes).expect("decodes"), &frame);
    }

    /// No truncated prefix of a delta frame decodes.
    #[test]
    fn delta_truncation_is_always_rejected(frame in arb_delta_frame()) {
        let bytes = encode_delta(&frame);
        for cut in 0..bytes.len() {
            prop_assert!(decode_delta(&bytes[..cut]).is_none(), "decoded a {cut}-byte prefix");
        }
    }

    /// A frame followed by trailing bytes is malformed: a buffer holds
    /// one frame and nothing else.
    #[test]
    fn delta_trailing_bytes_are_rejected(
        frame in arb_delta_frame(),
        tail in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let longer = [&encode_delta(&frame)[..], &tail[..]].concat();
        prop_assert!(decode_delta(longer).is_none());
    }

    /// Garbage never panics the delta decoder either, and whatever
    /// decodes re-encodes byte-exactly.
    #[test]
    fn delta_garbage_never_panics(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Some(frame) = decode_delta(&raw) {
            prop_assert_eq!(encode_delta(&frame).as_ref(), &raw[..]);
        }
    }

    /// When any of the three length prefixes is overwritten with a
    /// hostile value — more items than the buffer can hold; `u32::MAX`
    /// overflows `count · 20` on 32-bit — the frame is rejected: `None`,
    /// no panic, no giant reserve.
    #[test]
    fn delta_hostile_lengths_are_rejected(
        frame in arb_delta_frame(),
        which in 0usize..3,
        claimed in prop_oneof![Just(u32::MAX), Just(u32::MAX / 20), Just(u32::MAX / 8), 4096..=u32::MAX],
    ) {
        let mut raw = encode_delta(&frame).to_vec();
        let since_at = 4;
        let changed_at = since_at + 4 + frame.since.len() * 8;
        let full_at = changed_at + 4 + frame.changed.len() * ENTRY_SIZE;
        let at = [since_at, changed_at, full_at][which];
        raw[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
        // Generated frames stay under 3 kB, so 4096 items of 8 bytes
        // or more overrun every one of them.
        prop_assert!(raw.len() < 4096);
        prop_assert!(decode_delta(&raw).is_none());
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
