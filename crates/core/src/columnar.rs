//! Columnar (`BWSS3`) ingest for the analysis engines: footer-driven
//! shard planning and parallel block-range decode.
//!
//! A `BWSS2` stream must be scanned end to end before it can be split
//! for parallel work, so on ingest-bound corpora extra workers used to
//! *lose* time — every worker still paid the full per-record decode.
//! The `BWSS3` footer ([`bwsa_trace::columnar::Footer`]) carries a block
//! index (offset + record count per block), which makes shard planning
//! O(1) seeks: [`plan_block_shards`] balances contiguous block ranges by
//! record count without touching the data, and [`decode_columnar`] fans
//! the ranges out over [`parallel_map`], each worker decoding its blocks
//! independently (ids are pre-interned against the footer directory).
//! The assembled [`Trace`] is byte-identical to a serial decode.
//!
//! [`analyze_columnar_stream`] is the constant-memory alternative: it
//! walks blocks through [`bwsa_trace::columnar::BlockDecoder`]'s
//! reusable SoA scratch and feeds each block's `(id, time, taken)`
//! columns straight into a [`Fold`], never materialising the trace.

use crate::interleave::Fold;
use crate::parallel::parallel_map;
use crate::pipeline::{Analysis, AnalysisPipeline};
use bwsa_obs::Obs;
use bwsa_trace::columnar::{BlockDecoder, ColumnarFile};
use bwsa_trace::stream::{RecoveryPolicy, SalvageReport};
use bwsa_trace::{BranchId, BranchRecord, BranchTable, Pc, Trace, TraceError, TraceMeta};
use std::ops::Range;

/// Record count below which [`decode_columnar`] decodes serially even
/// when asked for more jobs: fanning out a sub-128k-record file loses
/// more to worker setup and shard stitching than the decode costs.
pub const PARALLEL_DECODE_MIN_RECORDS: u64 = 1 << 17;

/// Splits `blocks` (the footer's per-block record counts) into at most
/// `shards` contiguous ranges of near-equal record count.
///
/// Planning is O(blocks) arithmetic over the index — no trace bytes are
/// read. Every block lands in exactly one range and ranges preserve
/// order, so concatenating the decoded ranges reproduces the serial
/// record sequence.
///
/// # Example
///
/// ```
/// let blocks = [(0u64, 10u32), (0, 10), (0, 10), (0, 10)];
/// let plan = bwsa_core::columnar::plan_block_shards(&blocks, 2);
/// assert_eq!(plan, vec![0..2, 2..4]);
/// ```
pub fn plan_block_shards(blocks: &[(u64, u32)], shards: usize) -> Vec<Range<usize>> {
    let shards = shards.max(1);
    if blocks.is_empty() {
        return Vec::new();
    }
    let total: u64 = blocks.iter().map(|&(_, c)| u64::from(c)).sum();
    let target = total.div_ceil(shards as u64).max(1);
    let mut plan = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut in_range = 0u64;
    for (i, &(_, count)) in blocks.iter().enumerate() {
        in_range += u64::from(count);
        let ranges_left = shards - plan.len();
        let blocks_left = blocks.len() - i - 1;
        // Close the range at the target, but never strand more tail
        // blocks than there are ranges to hold them.
        if (in_range >= target && ranges_left > 1) || blocks_left + 1 == ranges_left {
            plan.push(start..i + 1);
            start = i + 1;
            in_range = 0;
        }
    }
    if start < blocks.len() {
        plan.push(start..blocks.len());
    }
    plan
}

/// Decodes a `BWSS3` buffer into a [`Trace`], fanning block ranges out
/// over `jobs` workers when the footer's block index allows it.
///
/// Footerless (torn) files and `jobs <= 1` fall back to the serial
/// decoder under the given policy; the parallel path requires an intact
/// footer and is strict per block, so under salvage a damaged block
/// sends the whole file back through the serial salvage decoder. The
/// result is identical to [`bwsa_trace::columnar::read_columnar`] for
/// every job count.
///
/// # Errors
///
/// Returns [`TraceError::Format`] for structural damage and
/// [`TraceError::Corrupt`] for a damaged block in strict mode.
pub fn decode_columnar(
    bytes: &[u8],
    policy: RecoveryPolicy,
    jobs: usize,
) -> Result<(Trace, SalvageReport), TraceError> {
    let file = ColumnarFile::parse(bytes)?;
    let Some(footer) = file.footer() else {
        return file.decode(policy);
    };
    // Below ~128k records the fan-out setup costs more wall-clock than
    // the decode itself (measured in corpus_bench's ingest phase), so
    // small files demote to the serial decoder — same records, and the
    // same rule the corpus runner applies to whole-entry fan-out.
    if jobs <= 1 || footer.blocks.len() < 2 || footer.record_count < PARALLEL_DECODE_MIN_RECORDS {
        return file.decode(policy);
    }
    let plan = plan_block_shards(&footer.blocks, jobs);
    let decoded = parallel_map(plan, jobs, |_, range| {
        let span: usize = footer.blocks[range.clone()]
            .iter()
            .map(|&(_, c)| c as usize)
            .sum();
        let mut ids: Vec<BranchId> = Vec::with_capacity(span);
        let mut records: Vec<BranchRecord> = Vec::with_capacity(span);
        file.decode_range(range, &mut ids, &mut records)
            .map(|()| (ids, records))
    });
    if policy == RecoveryPolicy::Salvage && decoded.iter().any(Result::is_err) {
        return file.decode(policy);
    }
    let mut ids: Vec<BranchId> = Vec::with_capacity(footer.record_count as usize);
    let mut records: Vec<BranchRecord> = Vec::with_capacity(footer.record_count as usize);
    let mut report = SalvageReport {
        chunks_ok: footer.blocks.len() as u64,
        ..SalvageReport::default()
    };
    for shard in decoded {
        let (mut shard_ids, mut shard_records) = shard?;
        ids.append(&mut shard_ids);
        records.append(&mut shard_records);
    }
    report.records_recovered = records.len() as u64;
    if report.records_recovered != footer.record_count {
        return Err(TraceError::format(format!(
            "footer promises {} records, blocks held {}",
            footer.record_count, report.records_recovered
        )));
    }
    let table = BranchTable::from_pcs(footer.pcs.iter().map(|&pc| Pc::new(pc)))?;
    let meta = TraceMeta {
        name: file.name().to_string(),
        total_instructions: footer.total_instructions,
    };
    Ok((Trace::from_parts(meta, table, ids, records)?, report))
}

/// Runs the full analysis pipeline over a `BWSS3` buffer block-at-a-time
/// without materialising the trace: each block is decoded into reusable
/// SoA scratch and its columns stream straight into a [`Fold`].
///
/// Directory ids map to fold nodes through a per-file table that
/// interns each branch on its first *recovered* execution, so nodes are
/// numbered exactly as a decoded trace numbers its branches — no record
/// is rebuilt and no pc is hashed per record. Memory stays bounded by
/// one block plus the engine state. The result is bit-identical to
/// decoding the whole trace and running [`AnalysisPipeline::run_observed`]
/// over it.
///
/// # Errors
///
/// Propagates decode errors per `policy` exactly as
/// [`bwsa_trace::columnar::read_columnar`] does; under salvage the
/// analysis covers whatever the salvage decode would recover.
pub fn analyze_columnar_stream(
    pipeline: &AnalysisPipeline,
    bytes: &[u8],
    policy: RecoveryPolicy,
    obs: &Obs,
) -> Result<(Analysis, SalvageReport), TraceError> {
    let file = ColumnarFile::parse(bytes)?;
    if policy == RecoveryPolicy::Strict && file.footer().is_none() {
        return Err(TraceError::format(
            "torn columnar file: footer missing or corrupt (retry with salvage)",
        ));
    }
    let mut report = SalvageReport::default();
    let mut fold = Fold::new(0);
    // Directory id → fold node, `UNSEEN` until the branch first executes.
    const UNSEEN: u32 = u32::MAX;
    let mut node_of: Vec<u32> = Vec::new();
    let mut table = BranchTable::new();
    let mut decoder = BlockDecoder::new(&file);
    let mut last_time = 0u64;
    loop {
        match decoder.next_block() {
            Ok(None) => break,
            Ok(Some(view)) => {
                if view.times.first().is_some_and(|&first| first < last_time) {
                    let e = TraceError::Corrupt {
                        chunk: decoder.blocks_seen() - 1,
                        reason: "out-of-order block".into(),
                    };
                    if policy == RecoveryPolicy::Strict {
                        return Err(e);
                    }
                    report.chunks_dropped += 1;
                    if report.first_error.is_none() {
                        report.first_error = Some(e.to_string());
                    }
                    continue;
                }
                last_time = view.times.last().copied().unwrap_or(last_time);
                report.chunks_ok += 1;
                report.records_recovered += view.ids.len() as u64;
                node_of.resize(view.pcs.len(), UNSEEN);
                for ((&id, &taken), &time) in view.ids.iter().zip(view.taken).zip(view.times) {
                    let mut node = node_of[id as usize];
                    if node == UNSEEN {
                        node = table.intern(Pc::new(view.pcs[id as usize])).as_u32();
                        node_of[id as usize] = node;
                    }
                    fold.push(node, time, taken);
                }
            }
            Err(e) => {
                if policy == RecoveryPolicy::Strict {
                    return Err(e);
                }
                report.chunks_dropped += 1;
                if report.first_error.is_none() {
                    report.first_error = Some(e.to_string());
                }
                if !decoder.can_continue() {
                    break;
                }
            }
        }
    }
    obs.add("trace.records_read", report.records_recovered);
    obs.add("trace.chunks_ok", report.chunks_ok);
    Ok((fold.into_delta().finish(pipeline, obs), report))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use bwsa_trace::columnar::{read_columnar, ColumnarWriter};
    use bwsa_trace::TraceBuilder;

    fn busy_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("busy");
        let mut lcg: u64 = 99;
        for i in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.record(0x4000 + (lcg >> 44) % 17 * 4, (lcg >> 21) & 1 == 1, i + 1);
        }
        b.finish()
    }

    fn encode(trace: &Trace, block_records: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ColumnarWriter::new(&mut buf, &trace.meta().name)
            .unwrap()
            .with_block_records(block_records);
        for r in trace.records() {
            w.push(*r).unwrap();
        }
        w.finish(trace.meta().total_instructions).unwrap();
        buf
    }

    #[test]
    fn plan_covers_every_block_exactly_once() {
        let blocks: Vec<(u64, u32)> = (0..23).map(|i| (i, 10 + (i as u32 % 5))).collect();
        for shards in [1, 2, 3, 7, 23, 50] {
            let plan = plan_block_shards(&blocks, shards);
            assert!(plan.len() <= shards, "shards {shards}: {plan:?}");
            let mut next = 0usize;
            for range in &plan {
                assert_eq!(range.start, next, "shards {shards}: {plan:?}");
                assert!(range.end > range.start);
                next = range.end;
            }
            assert_eq!(next, blocks.len(), "shards {shards}: {plan:?}");
        }
        assert!(plan_block_shards(&[], 4).is_empty());
    }

    #[test]
    fn parallel_decode_is_identical_to_serial_for_any_jobs() {
        let trace = busy_trace(2000);
        let buf = encode(&trace, 64);
        let (serial, serial_report) = read_columnar(&buf, RecoveryPolicy::Strict).unwrap();
        assert_eq!(serial, trace);
        for jobs in [1, 2, 3, 8, 64] {
            let (parallel, report) = decode_columnar(&buf, RecoveryPolicy::Strict, jobs).unwrap();
            assert_eq!(parallel, serial, "jobs {jobs}");
            assert_eq!(
                report.records_recovered, serial_report.records_recovered,
                "jobs {jobs}"
            );
        }
    }

    #[test]
    fn streamed_analysis_matches_in_memory_pipeline() {
        let trace = busy_trace(1500);
        let buf = encode(&trace, 128);
        let pipeline = AnalysisPipeline::new();
        let expected = pipeline.run_observed(&trace, &Obs::noop());
        let (streamed, report) =
            analyze_columnar_stream(&pipeline, &buf, RecoveryPolicy::Strict, &Obs::noop()).unwrap();
        assert!(report.clean());
        assert_eq!(report.records_recovered, 1500);
        assert_eq!(streamed, expected);
    }

    #[test]
    fn torn_file_streams_the_prefix_under_salvage() {
        let trace = busy_trace(200);
        let mut buf = Vec::new();
        let mut w = ColumnarWriter::new(&mut buf, "busy")
            .unwrap()
            .with_block_records(32);
        for r in trace.records() {
            w.push(*r).unwrap();
        }
        drop(w); // torn: no footer
        let pipeline = AnalysisPipeline::new();
        assert!(
            analyze_columnar_stream(&pipeline, &buf, RecoveryPolicy::Strict, &Obs::noop()).is_err()
        );
        let (streamed, report) =
            analyze_columnar_stream(&pipeline, &buf, RecoveryPolicy::Salvage, &Obs::noop())
                .unwrap();
        assert_eq!(report.records_recovered, 192); // 6 complete blocks
        let mut b = TraceBuilder::new("busy");
        for r in &trace.records()[..192] {
            b.record(r.pc.addr(), r.is_taken(), r.time.get());
        }
        let expected = pipeline.run_observed(&b.finish(), &Obs::noop());
        assert_eq!(streamed, expected);
    }

    #[test]
    fn parallel_salvage_of_a_damaged_block_matches_serial_salvage() {
        // Large enough for the block-parallel path, which is strict per
        // block: under salvage a damaged block must not fail the decode.
        let trace = busy_trace(PARALLEL_DECODE_MIN_RECORDS + 1000);
        let mut buf = encode(&trace, 4096);
        let file = ColumnarFile::parse(&buf).unwrap();
        let block1 = file.footer().unwrap().blocks[1].0 as usize;
        buf[block1 + 40] ^= 0xFF; // a payload byte: the block CRC fails
        let (serial, serial_report) = read_columnar(&buf, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(serial_report.chunks_dropped, 1);
        let (parallel, report) = decode_columnar(&buf, RecoveryPolicy::Salvage, 2).unwrap();
        assert_eq!(parallel, serial);
        assert_eq!(report, serial_report);
        assert!(decode_columnar(&buf, RecoveryPolicy::Strict, 2).is_err());
    }

    #[test]
    fn parallel_decode_of_torn_file_falls_back_to_serial_salvage() {
        let trace = busy_trace(100);
        let mut buf = Vec::new();
        let mut w = ColumnarWriter::new(&mut buf, "busy")
            .unwrap()
            .with_block_records(16);
        for r in trace.records() {
            w.push(*r).unwrap();
        }
        drop(w);
        let (salvaged, report) = decode_columnar(&buf, RecoveryPolicy::Salvage, 8).unwrap();
        assert_eq!(salvaged.len(), 96);
        assert_eq!(report.chunks_ok, 6);
    }
}
