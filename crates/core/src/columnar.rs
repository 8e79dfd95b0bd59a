//! Columnar (`BWSS3`) streaming analysis.
//!
//! [`analyze_columnar_stream`] walks blocks with
//! [`bwsa_trace::columnar::ColumnarFile::walk`] — the same block loop,
//! and so the same strict and salvage rules, as the whole-file decode —
//! and feeds each block's `(id, time, taken)` columns straight into a
//! [`Fold`], never materialising the trace. Whole-trace decoding lives
//! in [`bwsa_trace::format::Format::decode`].

use crate::interleave::Fold;
use crate::pipeline::{Analysis, AnalysisPipeline};
use bwsa_obs::Obs;
use bwsa_trace::columnar::{ColumnarFile, Walk};
use bwsa_trace::stream::RecoveryPolicy;
use bwsa_trace::{BranchTable, Pc, TraceError};

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
/// over it, and the returned [`Walk`] carries the salvage report and the
/// instruction count that decode gives the trace.
///
/// # Errors
///
/// Propagates decode errors per `policy` exactly as
/// [`ColumnarFile::walk`] does; under salvage the analysis covers
/// whatever the salvage decode would recover.
pub fn analyze_columnar_stream(
    pipeline: &AnalysisPipeline,
    bytes: &[u8],
    policy: RecoveryPolicy,
    obs: &Obs,
) -> Result<(Analysis, Walk), TraceError> {
    let mut fold = Fold::new(0);
    // Directory id → fold node, `UNSEEN` until the branch first executes.
    const UNSEEN: u32 = u32::MAX;
    let mut node_of: Vec<u32> = Vec::new();
    let mut table = BranchTable::new();
    let walk = ColumnarFile::parse(bytes)?.walk(policy, |view| {
        node_of.resize(view.pcs.len(), UNSEEN);
        for ((&id, &taken), &time) in view.ids.iter().zip(view.taken).zip(view.times) {
            let mut node = node_of[id as usize];
            if node == UNSEEN {
                node = table.intern(Pc::new(view.pcs[id as usize])).as_u32();
                node_of[id as usize] = node;
            }
            fold.push(node, time, taken);
        }
    })?;
    obs.add("trace.records_read", walk.report.records_recovered);
    obs.add("trace.chunks_ok", walk.report.chunks_ok);
    Ok((fold.into_delta().finish(pipeline, obs), walk))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use bwsa_trace::columnar::ColumnarWriter;
    use bwsa_trace::{Trace, TraceBuilder};

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
    fn streamed_analysis_matches_in_memory_pipeline() {
        let trace = busy_trace(1500);
        let buf = encode(&trace, 128);
        let pipeline = AnalysisPipeline::new();
        let expected = pipeline.run_observed(&trace, &Obs::noop());
        let (streamed, walk) =
            analyze_columnar_stream(&pipeline, &buf, RecoveryPolicy::Strict, &Obs::noop()).unwrap();
        assert!(walk.report.clean());
        assert_eq!(walk.report.records_recovered, 1500);
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
        let (streamed, walk) =
            analyze_columnar_stream(&pipeline, &buf, RecoveryPolicy::Salvage, &Obs::noop())
                .unwrap();
        assert_eq!(walk.report.records_recovered, 192); // 6 complete blocks
        assert_eq!(walk.total_instructions, trace.records()[191].time.get());
        let mut b = TraceBuilder::new("busy");
        for r in &trace.records()[..192] {
            b.record(r.pc.addr(), r.is_taken(), r.time.get());
        }
        let expected = pipeline.run_observed(&b.finish(), &Obs::noop());
        assert_eq!(streamed, expected);
    }
}
