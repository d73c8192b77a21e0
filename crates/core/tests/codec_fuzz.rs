//! Fuzz lane for the socket-facing decoders: the engine's `Msg` codec
//! (server-to-server frames) and the gt-proto `ClientMsg`/`ServerMsg`
//! codec (the front door). Malformed input must decode to `None`/`Err` —
//! never a panic, and never an allocation the input cannot back.
//!
//! The sample encodings are the golden files the codec unit tests pin.
//! Run harder with `PROPTEST_CASES=4096 cargo test --release -p graphtrek
//! --test codec_fuzz`.

use graphtrek::message::Msg;
use gt_proto::{ClientMsg, ServerMsg};
use gt_transport::WireCodec;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Records the largest single allocation made by the current thread, so a
/// decode can be checked against its input size.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(layout.size())));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = LARGEST.try_with(|l| l.set(l.get().max(new_size)));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// Decode `bytes` with all three decoders; return whether each accepted
/// it. Panics if any decode allocated more than a small multiple of the
/// input (the length guards size every allocation by the bytes behind
/// it; the multiple covers in-memory element sizes over encoded ones).
fn decode_all(bytes: &[u8]) -> [bool; 3] {
    LARGEST.with(|l| l.set(0));
    let accepted = [
        Msg::decode(bytes).is_some(),
        ClientMsg::decode(bytes).is_ok(),
        ServerMsg::decode(bytes).is_ok(),
    ];
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= 64 * bytes.len() + 4096,
        "decoding {} bytes allocated {largest} bytes at once",
        bytes.len()
    );
    accepted
}

/// `(decoder index, encoding)` for every golden sample: 0 = `Msg`,
/// 1 = `ClientMsg`, 2 = `ServerMsg`.
fn samples() -> Vec<(usize, Vec<u8>)> {
    let files = [
        include_str!("golden_msg.hex"),
        include_str!("../../proto/tests/golden.hex"),
    ];
    files
        .iter()
        .flat_map(|f| f.lines())
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (label, hex) = l.split_once(' ').expect("golden line is `label hex`");
            let which = match label.split("::").next() {
                Some("Msg") => 0,
                Some("ClientMsg") => 1,
                _ => 2,
            };
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex byte"))
                .collect();
            (which, bytes)
        })
        .collect()
}

#[test]
fn every_sample_decodes_and_every_strict_prefix_is_rejected() {
    let samples = samples();
    assert!(samples.len() > 60, "golden files found");
    for (which, bytes) in &samples {
        assert!(decode_all(bytes)[*which], "sample {bytes:02x?} decodes");
        for cut in 0..bytes.len() {
            assert!(
                !decode_all(&bytes[..cut])[*which],
                "strict prefix {cut}/{} of {bytes:02x?} was accepted",
                bytes.len()
            );
        }
    }
}

#[test]
fn retired_copy_tags_decode_to_none() {
    // Tags 41-44 carried the folded re-replication messages; a frame
    // from a peer that still speaks them is a counted drop.
    let bodies: Vec<Vec<u8>> = samples()
        .into_iter()
        .filter(|(which, _)| *which == 0)
        .map(|(_, bytes)| bytes[1..].to_vec())
        .collect();
    for tag in 41u8..=44 {
        for body in &bodies {
            let mut frame = vec![tag];
            frame.extend_from_slice(body);
            assert!(Msg::decode(&frame).is_none(), "retired tag {tag} decoded");
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_rejected_without_panic(
        tag in 0u8..64,
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        // A plausible tag first, so the fuzz reaches the variant bodies.
        let mut frame = vec![tag];
        frame.extend_from_slice(&body);
        decode_all(&frame);
        decode_all(&body);
    }

    #[test]
    fn mutated_samples_never_panic(
        pick in 0usize..1024,
        edits in proptest::collection::vec((0usize..4096, any::<u8>()), 1..6),
        hostile_len in any::<bool>(),
    ) {
        let samples = samples();
        let mut frame = samples[pick % samples.len()].1.clone();
        for &(pos, byte) in &edits {
            let at = pos % frame.len();
            if hostile_len && at + 4 <= frame.len() {
                // Plant a huge length prefix where a field used to be.
                frame[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            } else {
                frame[at] = byte;
            }
        }
        decode_all(&frame);
    }
}
