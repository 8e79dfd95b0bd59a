//! Property-based tests for the `BWSS3` columnar format.
//!
//! Invariants proved here:
//!
//! * an arbitrary valid trace round-trips through `BWSS3` record- and
//!   metadata-identically;
//! * transcoding `BWSS2` ↔ `BWSS3` preserves the record sequence exactly
//!   (the cross-format identity the whole fast path rests on);
//! * a single flipped byte anywhere in the file never panics the
//!   decoder: salvage returns a block-aligned subsequence of what was
//!   written, strict returns a typed error or the intact whole;
//! * truncation at any point never panics: salvage keeps a valid prefix
//!   of whole blocks, strict always reports the torn footer;
//! * salvaging a file whose first block is damaged but whose footer is
//!   intact gives one answer on both ingest paths — the block stream
//!   and the whole-file decode — with only the recovered records'
//!   branches interned.

use bwsa_core::columnar::analyze_columnar_stream;
use bwsa_core::AnalysisPipeline;
use bwsa_obs::Obs;
use bwsa_trace::columnar::{read_columnar, write_columnar, ColumnarWriter};
use bwsa_trace::stream::{RecoveryPolicy, StreamReader, StreamWriter};
use bwsa_trace::{BranchRecord, Trace, TraceBuilder};
use proptest::prelude::*;

const BLOCK: usize = 7;

/// Strategy producing a valid trace: pcs from a small pool, monotone
/// timestamps, so multi-block files exercise cross-block interning.
fn arb_trace() -> impl Strategy<Value = Trace> {
    (
        prop::collection::vec((0u8..24, any::<bool>(), 0u64..9), 0..220),
        "[a-z]{1,8}",
    )
        .prop_map(|(steps, name)| {
            let mut b = TraceBuilder::new(name);
            let mut t = 0u64;
            for (slot, taken, dt) in steps {
                t += dt + 1;
                b.record(0x1000 + u64::from(slot) * 4, taken, t);
            }
            b.finish()
        })
}

/// Encodes `trace` as a BWSS3 file with tiny blocks so corruption lands
/// in interesting places (block headers, payloads, the footer).
fn encode_columnar(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w = ColumnarWriter::new(&mut buf, &trace.meta().name)
        .unwrap()
        .with_block_records(BLOCK);
    for r in trace.records() {
        w.push(*r).unwrap();
    }
    w.finish(trace.meta().total_instructions).unwrap();
    buf
}

/// `sub` appears in `full` in order (not necessarily contiguously).
fn is_subsequence(sub: &[BranchRecord], full: &[BranchRecord]) -> bool {
    let mut it = full.iter();
    sub.iter().all(|r| it.any(|f| f == r))
}

proptest! {
    #[test]
    fn roundtrip_is_record_identical(trace in arb_trace()) {
        let bytes = encode_columnar(&trace);
        let (back, report) = read_columnar(&bytes, RecoveryPolicy::Strict).unwrap();
        prop_assert!(report.clean());
        prop_assert_eq!(back.records(), trace.records());
        prop_assert_eq!(&back.meta().name, &trace.meta().name);
        prop_assert_eq!(
            back.meta().total_instructions,
            trace.meta().total_instructions
        );
        prop_assert_eq!(back.static_branch_count(), trace.static_branch_count());
    }

    #[test]
    fn transcode_between_bwss2_and_bwss3_is_identity(trace in arb_trace()) {
        // trace -> BWSS2 -> decode -> BWSS3 -> decode: the record
        // sequence must survive both hops exactly.
        let mut bwss = Vec::new();
        let mut w = StreamWriter::new(&mut bwss, &trace.meta().name).unwrap();
        for r in trace.records() {
            w.push(*r).unwrap();
        }
        w.finish(trace.meta().total_instructions).unwrap();

        let mut reader = StreamReader::new(&bwss[..]).unwrap();
        let mut via_stream = Trace::new(reader.name().to_owned());
        for item in reader.by_ref() {
            via_stream.push(item.unwrap()).unwrap();
        }
        if let Some(total) = reader.total_instructions() {
            via_stream.meta_mut().total_instructions = total;
        }
        prop_assert_eq!(via_stream.records(), trace.records());

        let mut bws3 = Vec::new();
        write_columnar(&via_stream, &mut bws3).unwrap();
        let (via_columnar, _) = read_columnar(&bws3, RecoveryPolicy::Strict).unwrap();
        prop_assert_eq!(via_columnar.records(), trace.records());
        prop_assert_eq!(
            via_columnar.meta().total_instructions,
            via_stream.meta().total_instructions
        );
    }

    #[test]
    fn a_flipped_byte_never_panics_and_never_invents_records(
        trace in arb_trace(),
        position in 0usize..1 << 16,
        mask in 1u8..=255,
    ) {
        let bytes = encode_columnar(&trace);
        let mut damaged = bytes.clone();
        let at = position % damaged.len();
        damaged[at] ^= mask;

        // Strict: the intact whole or a typed error, never a panic.
        match read_columnar(&damaged, RecoveryPolicy::Strict) {
            Ok((back, _)) => prop_assert_eq!(back.records(), trace.records()),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
        // Salvage: whatever survives is a subsequence of what was
        // written — corruption can only lose records, not mint them.
        if let Ok((back, report)) = read_columnar(&damaged, RecoveryPolicy::Salvage) {
            prop_assert!(is_subsequence(back.records(), trace.records()));
            if back.records().len() < trace.len() {
                prop_assert!(
                    report.chunks_dropped > 0 || report.first_error.is_some(),
                    "silent record loss: {:?}",
                    report
                );
            }
        }
    }

    #[test]
    fn truncation_keeps_a_valid_prefix_and_never_panics(
        trace in arb_trace(),
        cut in 0usize..1 << 16,
    ) {
        let bytes = encode_columnar(&trace);
        let keep = cut % bytes.len();
        let torn = &bytes[..keep];

        // The trailer is gone, so strict must refuse the torn file.
        prop_assert!(read_columnar(torn, RecoveryPolicy::Strict).is_err());

        // Salvage recovers a prefix of whole blocks (or nothing).
        if let Ok((back, _)) = read_columnar(torn, RecoveryPolicy::Salvage) {
            let n = back.records().len();
            prop_assert_eq!(back.records(), &trace.records()[..n]);
            prop_assert!(n == trace.len() || n % BLOCK == 0);
        }
    }

    #[test]
    fn salvaging_a_lost_first_block_agrees_across_ingest_paths(
        trace in arb_trace(),
        offset in 0usize..64,
        mask in 1u8..=255,
    ) {
        if trace.len() <= BLOCK {
            return Ok(()); // a one-block file has nothing left to agree on
        }
        let mut damaged = encode_columnar(&trace);
        // Block 0's payload starts after the file header (magic, version,
        // name) and the 36-byte block header; flipping any payload byte
        // breaks the block CRC and leaves the footer intact.
        let payload = 4 + 2 + 4 + trace.meta().name.len() + 36;
        let payload_len = damaged[payload..].len().min(BLOCK * 2);
        damaged[payload + offset % payload_len] ^= mask;

        let (decoded, report) = read_columnar(&damaged, RecoveryPolicy::Salvage).unwrap();
        prop_assert_eq!(report.chunks_dropped, 1);
        prop_assert_eq!(decoded.records(), &trace.records()[BLOCK..]);
        let mut expected = TraceBuilder::new(trace.meta().name.clone());
        for r in &trace.records()[BLOCK..] {
            expected.record(r.pc.addr(), r.is_taken(), r.time.get());
        }
        let expected = expected.finish();
        prop_assert_eq!(decoded.table(), expected.table());

        let pipeline = AnalysisPipeline::new();
        let (streamed, _) =
            analyze_columnar_stream(&pipeline, &damaged, RecoveryPolicy::Salvage, &Obs::noop())
                .unwrap();
        prop_assert_eq!(&streamed, &pipeline.run_observed(&decoded, &Obs::noop()));
        prop_assert_eq!(streamed.profile.static_count(), expected.static_branch_count());
    }
}
