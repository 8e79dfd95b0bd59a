//! Trace-driven simulation of predictors — the `sim-bpred` loop.

use crate::{checkpoint, BranchPredictor, Checkpointable, PredictorError};
use bwsa_trace::codec::{self, Cursor};
use bwsa_trace::{BranchId, Trace};
use std::fmt;

/// Aggregate result of simulating one predictor over one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Predictor label.
    pub predictor: String,
    /// Trace label.
    pub trace: String,
    /// Dynamic branches simulated.
    pub total: u64,
    /// Mispredicted dynamic branches.
    pub mispredictions: u64,
}

impl SimResult {
    /// Fraction of dynamic branches mispredicted, in `[0, 1]`.
    pub fn misprediction_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.total as f64
        }
    }

    /// Fraction predicted correctly, in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        1.0 - self.misprediction_rate()
    }
}

impl fmt::Display for SimResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {}/{} mispredicted ({:.2}%)",
            self.predictor,
            self.trace,
            self.mispredictions,
            self.total,
            100.0 * self.misprediction_rate()
        )
    }
}

/// [`SimResult`] plus per-static-branch misprediction counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetailedSimResult {
    /// The aggregate result.
    pub summary: SimResult,
    /// `misses[id]` / `executions[id]` per static branch.
    pub misses: Vec<u64>,
    /// Dynamic executions per static branch.
    pub executions: Vec<u64>,
}

impl DetailedSimResult {
    /// Per-branch misprediction rate, or `None` if the branch never ran.
    pub fn branch_rate(&self, id: BranchId) -> Option<f64> {
        let e = *self.executions.get(id.index())?;
        if e == 0 {
            None
        } else {
            Some(self.misses[id.index()] as f64 / e as f64)
        }
    }
}

/// A simple pipeline cost model translating misprediction counts into
/// cycles — the paper's motivation ("a wide issue and deeply pipelined
/// processor demands a highly accurate branch prediction mechanism")
/// made quantitative.
///
/// The model charges one cycle per `issue_width` instructions plus a
/// fixed `mispredict_penalty` flush per mispredicted branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineModel {
    /// Instructions issued per cycle when not stalled.
    pub issue_width: u32,
    /// Flush penalty in cycles per misprediction.
    pub mispredict_penalty: u32,
}

impl Default for PipelineModel {
    /// A late-90s wide core: 4-wide issue, 7-cycle flush.
    fn default() -> Self {
        PipelineModel {
            issue_width: 4,
            mispredict_penalty: 7,
        }
    }
}

impl PipelineModel {
    /// Estimated cycles to run `instructions` with `mispredictions`
    /// branch flushes.
    ///
    /// # Panics
    ///
    /// Panics if `issue_width` is zero.
    pub fn cycles(&self, instructions: u64, mispredictions: u64) -> u64 {
        assert!(self.issue_width > 0, "issue width must be positive");
        instructions.div_ceil(u64::from(self.issue_width))
            + mispredictions * u64::from(self.mispredict_penalty)
    }

    /// Speedup of predictor `better` over `worse` on the same run
    /// (`> 1.0` means `better` is faster).
    ///
    /// # Panics
    ///
    /// Panics if the two results cover different instruction streams
    /// (different trace names or totals).
    pub fn speedup(&self, instructions: u64, better: &SimResult, worse: &SimResult) -> f64 {
        assert_eq!(
            better.trace, worse.trace,
            "results must come from the same trace"
        );
        assert_eq!(
            better.total, worse.total,
            "results must cover the same branches"
        );
        self.cycles(instructions, worse.mispredictions) as f64
            / self.cycles(instructions, better.mispredictions) as f64
    }
}

/// Runs a predictor over a trace: predict, compare, train — once per
/// dynamic branch, in order.
///
/// # Example
///
/// ```
/// use bwsa_predictor::{simulate, StaticPredictor};
/// use bwsa_trace::TraceBuilder;
///
/// let mut b = TraceBuilder::new("t");
/// b.record(0x40, true, 1).record(0x40, false, 2);
/// let r = simulate(&mut StaticPredictor::always_taken(), &b.finish());
/// assert_eq!(r.total, 2);
/// assert_eq!(r.mispredictions, 1);
/// ```
pub fn simulate<P: BranchPredictor + ?Sized>(predictor: &mut P, trace: &Trace) -> SimResult {
    bwsa_resilience::failpoint!("predictor.simulate");
    let mut mispredictions = 0u64;
    for (id, rec) in trace.indexed_records() {
        let predicted = predictor.observe(rec.pc, id, rec.direction);
        if predicted != rec.direction {
            mispredictions += 1;
        }
    }
    SimResult {
        predictor: predictor.name(),
        trace: trace.meta().name.clone(),
        total: trace.len() as u64,
        mispredictions,
    }
}

/// [`simulate`] with a `simulate` span and `predictor.lookups`,
/// `predictor.mispredicts`, and (for schemes that track it)
/// `predictor.interference_events` counters reported into `obs`.
///
/// The counters are read off the finished result, never threaded through
/// the hot loop, so the simulation is bit-identical with or without a
/// recording observer.
pub fn simulate_observed<P: BranchPredictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
    obs: &bwsa_obs::Obs,
) -> SimResult {
    let events_before = predictor.interference_events();
    let span = obs.span("simulate");
    let result = simulate(predictor, trace);
    span.finish();
    obs.add("predictor.lookups", result.total);
    obs.add("predictor.mispredicts", result.mispredictions);
    if let (Some(before), Some(after)) = (events_before, predictor.interference_events()) {
        obs.add("predictor.interference_events", after - before);
    }
    result
}

/// Like [`simulate`] but also accumulates per-static-branch counts.
pub fn simulate_detailed<P: BranchPredictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
) -> DetailedSimResult {
    let mut misses = Vec::new();
    let mut executions = Vec::new();
    let summary = simulate_detailed_into(predictor, trace, &mut misses, &mut executions);
    DetailedSimResult {
        summary,
        misses,
        executions,
    }
}

/// [`simulate_detailed`] writing its per-branch counts into caller-owned
/// buffers, so a sweep running many cells can reuse the same two
/// allocations instead of paying a pair of fresh `Vec`s per cell.
///
/// The buffers are cleared and resized to the trace's static branch
/// count; on return `misses[id]` / `executions[id]` hold exactly what
/// [`simulate_detailed`] would have produced.
pub fn simulate_detailed_into<P: BranchPredictor + ?Sized>(
    predictor: &mut P,
    trace: &Trace,
    misses: &mut Vec<u64>,
    executions: &mut Vec<u64>,
) -> SimResult {
    let n = trace.static_branch_count();
    misses.clear();
    misses.resize(n, 0);
    executions.clear();
    executions.resize(n, 0);
    let mut mispredictions = 0u64;
    for (id, rec) in trace.indexed_records() {
        let predicted = predictor.observe(rec.pc, id, rec.direction);
        executions[id.index()] += 1;
        if predicted != rec.direction {
            mispredictions += 1;
            misses[id.index()] += 1;
        }
    }
    SimResult {
        predictor: predictor.name(),
        trace: trace.meta().name.clone(),
        total: trace.len() as u64,
        mispredictions,
    }
}

/// A point-in-time snapshot of a running simulation: which predictor on
/// which trace, how far it got, the miss count so far, and the predictor's
/// serialised tables.
///
/// Produced by [`simulate_resumable`] every `checkpoint_every` records and
/// consumed by a later [`simulate_resumable`] call to continue from that
/// point. The byte encoding is self-validating: magic `BWCK`, a format
/// version, a kind byte distinguishing simulation checkpoints from the
/// analysis checkpoints in the core crate, and a trailing CRC32 so a
/// checkpoint truncated by the very crash it guards against is rejected
/// rather than trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimCheckpoint {
    /// Name of the predictor that produced the state (encodes its
    /// configuration).
    pub predictor: String,
    /// Name of the trace being simulated.
    pub trace: String,
    /// Dynamic branches already consumed.
    pub records_consumed: u64,
    /// Mispredictions among the consumed records.
    pub mispredictions: u64,
    /// Opaque predictor state from [`Checkpointable::save_state`].
    pub predictor_state: Vec<u8>,
}

/// Magic prefix shared by all checkpoint files in the workspace.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"BWCK";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;
/// Kind byte for simulation checkpoints (analysis checkpoints use 2).
pub const CHECKPOINT_KIND_SIM: u8 = 1;

impl SimCheckpoint {
    /// Serialises the checkpoint, appending a CRC32 of everything before
    /// it.
    pub fn to_bytes(&self) -> Vec<u8> {
        bwsa_resilience::failpoint!("predictor.checkpoint_save");
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.push(CHECKPOINT_VERSION);
        buf.push(CHECKPOINT_KIND_SIM);
        checkpoint::put_str(&mut buf, &self.predictor);
        checkpoint::put_str(&mut buf, &self.trace);
        codec::put_varint(&mut buf, self.records_consumed);
        codec::put_varint(&mut buf, self.mispredictions);
        checkpoint::put_bytes(&mut buf, &self.predictor_state);
        let crc = codec::crc32(&buf);
        codec::put_u32_le(&mut buf, crc);
        buf
    }

    /// Parses and validates bytes produced by [`SimCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`PredictorError::Checkpoint`] on a bad magic, unsupported
    /// version, wrong kind, CRC mismatch, or malformed payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PredictorError> {
        if bytes.len() < CHECKPOINT_MAGIC.len() + 2 + 4 {
            return Err(PredictorError::checkpoint(
                "checkpoint too short to be valid",
            ));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split_at(len-4)"));
        if codec::crc32(body) != stored {
            return Err(PredictorError::checkpoint(
                "checkpoint CRC mismatch — file is corrupt or truncated",
            ));
        }
        let mut cur = Cursor::new(body);
        let magic = cur.take(4).map_err(checkpoint::malformed)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(PredictorError::checkpoint(
                "not a checkpoint file (bad magic)",
            ));
        }
        let version = cur.get_u8().map_err(checkpoint::malformed)?;
        if version != CHECKPOINT_VERSION {
            return Err(PredictorError::checkpoint(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let kind = cur.get_u8().map_err(checkpoint::malformed)?;
        if kind != CHECKPOINT_KIND_SIM {
            return Err(PredictorError::checkpoint(format!(
                "checkpoint kind {kind} is not a simulation checkpoint"
            )));
        }
        let predictor = checkpoint::get_str(&mut cur)?;
        let trace = checkpoint::get_str(&mut cur)?;
        let records_consumed = cur.get_varint().map_err(checkpoint::malformed)?;
        let mispredictions = cur.get_varint().map_err(checkpoint::malformed)?;
        let predictor_state = checkpoint::get_bytes(&mut cur)?;
        checkpoint::ensure_empty(&cur)?;
        Ok(SimCheckpoint {
            predictor,
            trace,
            records_consumed,
            mispredictions,
            predictor_state,
        })
    }
}

/// [`simulate`] with kill-and-resume support.
///
/// When `resume` is given, the predictor's state is restored from it and
/// simulation continues at record `records_consumed`; the final result is
/// bit-identical to an uninterrupted run. When `checkpoint_every` is
/// `Some(n)`, `on_checkpoint` is invoked with a fresh [`SimCheckpoint`]
/// after every `n` consumed records (skipping the end of the trace, where
/// a checkpoint would be useless).
///
/// # Errors
///
/// Returns [`PredictorError::Checkpoint`] when `resume` was produced by a
/// different predictor configuration or trace, or lies beyond the end of
/// the trace; also propagates any error from `on_checkpoint`.
pub fn simulate_resumable<P, F>(
    predictor: &mut P,
    trace: &Trace,
    resume: Option<&SimCheckpoint>,
    checkpoint_every: Option<u64>,
    mut on_checkpoint: F,
) -> Result<SimResult, PredictorError>
where
    P: Checkpointable + ?Sized,
    F: FnMut(&SimCheckpoint) -> Result<(), PredictorError>,
{
    let name = predictor.name();
    let trace_name = trace.meta().name.clone();
    let total = trace.len() as u64;
    let mut consumed = 0u64;
    let mut mispredictions = 0u64;
    if let Some(ck) = resume {
        if ck.predictor != name {
            return Err(PredictorError::checkpoint(format!(
                "checkpoint is for predictor {:?}, not {name:?}",
                ck.predictor
            )));
        }
        if ck.trace != trace_name {
            return Err(PredictorError::checkpoint(format!(
                "checkpoint is for trace {:?}, not {trace_name:?}",
                ck.trace
            )));
        }
        if ck.records_consumed > total {
            return Err(PredictorError::checkpoint(format!(
                "checkpoint consumed {} records but the trace has only {total}",
                ck.records_consumed
            )));
        }
        predictor.load_state(&ck.predictor_state)?;
        consumed = ck.records_consumed;
        mispredictions = ck.mispredictions;
    }
    let every = checkpoint_every.filter(|&n| n > 0);
    for (id, rec) in trace.indexed_records().skip(consumed as usize) {
        let predicted = predictor.observe(rec.pc, id, rec.direction);
        if predicted != rec.direction {
            mispredictions += 1;
        }
        consumed += 1;
        if let Some(n) = every {
            if consumed.is_multiple_of(n) && consumed < total {
                on_checkpoint(&SimCheckpoint {
                    predictor: name.clone(),
                    trace: trace_name.clone(),
                    records_consumed: consumed,
                    mispredictions,
                    predictor_state: predictor.save_state(),
                })?;
            }
        }
    }
    Ok(SimResult {
        predictor: name,
        trace: trace_name,
        total,
        mispredictions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StaticPredictor;
    use bwsa_trace::TraceBuilder;

    fn half_taken_trace() -> Trace {
        let mut b = TraceBuilder::new("half");
        for i in 0..10u64 {
            b.record(0x100 + (i % 2) * 4, i % 2 == 0, i + 1);
        }
        b.finish()
    }

    #[test]
    fn counts_are_exact() {
        let trace = half_taken_trace();
        let r = simulate(&mut StaticPredictor::always_taken(), &trace);
        assert_eq!(r.total, 10);
        assert_eq!(r.mispredictions, 5);
        assert_eq!(r.misprediction_rate(), 0.5);
        assert_eq!(r.accuracy(), 0.5);
    }

    #[test]
    fn detailed_splits_by_branch() {
        let trace = half_taken_trace();
        let d = simulate_detailed(&mut StaticPredictor::always_taken(), &trace);
        assert_eq!(d.summary.mispredictions, 5);
        assert_eq!(d.executions, vec![5, 5]);
        assert_eq!(d.misses, vec![0, 5]);
        assert_eq!(d.branch_rate(BranchId::new(0)), Some(0.0));
        assert_eq!(d.branch_rate(BranchId::new(1)), Some(1.0));
        assert_eq!(d.branch_rate(BranchId::new(9)), None);
    }

    #[test]
    fn empty_trace_is_zero_rate() {
        let trace = Trace::new("empty");
        let r = simulate(&mut StaticPredictor::always_taken(), &trace);
        assert_eq!(r.total, 0);
        assert_eq!(r.misprediction_rate(), 0.0);
    }

    #[test]
    fn pipeline_model_charges_issue_and_flushes() {
        let m = PipelineModel {
            issue_width: 4,
            mispredict_penalty: 10,
        };
        assert_eq!(m.cycles(100, 0), 25);
        assert_eq!(m.cycles(100, 3), 55);
        assert_eq!(m.cycles(101, 0), 26, "partial issue group rounds up");
    }

    #[test]
    fn speedup_compares_same_run() {
        let trace = half_taken_trace();
        let better = simulate(&mut crate::Bimodal::new(16), &trace);
        let worse = simulate(&mut StaticPredictor::always_not_taken(), &trace);
        let m = PipelineModel::default();
        let s = m.speedup(1000, &better, &worse);
        assert!(s >= 1.0, "fewer mispredictions must not slow down: {s}");
    }

    #[test]
    #[should_panic(expected = "same trace")]
    fn speedup_rejects_mismatched_traces() {
        let a = simulate(&mut StaticPredictor::always_taken(), &half_taken_trace());
        let mut other = Trace::new("different");
        other
            .push(bwsa_trace::BranchRecord::from_raw(0x4, true, 1))
            .unwrap();
        let b = simulate(&mut StaticPredictor::always_taken(), &other);
        PipelineModel::default().speedup(10, &a, &b);
    }

    #[test]
    fn display_shows_percentages() {
        let trace = half_taken_trace();
        let r = simulate(&mut StaticPredictor::always_taken(), &trace);
        assert!(r.to_string().contains("50.00%"));
    }

    fn busy_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("busy");
        let mut lcg: u64 = 7;
        for i in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.record(0x2000 + (lcg >> 45) % 23 * 4, (lcg >> 13) & 3 != 0, i + 1);
        }
        b.finish()
    }

    #[test]
    fn resumable_without_checkpointing_matches_simulate() {
        let trace = busy_trace(3000);
        let plain = simulate(&mut crate::Pag::paper_baseline(), &trace);
        let resumable = simulate_resumable(
            &mut crate::Pag::paper_baseline(),
            &trace,
            None,
            None,
            |_| Ok(()),
        )
        .unwrap();
        assert_eq!(plain, resumable);
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let trace = busy_trace(3000);
        let uninterrupted = simulate(&mut crate::Gshare::new(10), &trace);

        // First run: capture every checkpoint, as if we crashed later.
        let mut checkpoints = Vec::new();
        let _ = simulate_resumable(&mut crate::Gshare::new(10), &trace, None, Some(700), |ck| {
            checkpoints.push(ck.clone());
            Ok(())
        })
        .unwrap();
        assert_eq!(checkpoints.len(), 4, "3000/700 interior checkpoints");

        // Resume from each checkpoint with a *fresh* predictor.
        for ck in &checkpoints {
            let bytes = ck.to_bytes();
            let restored = SimCheckpoint::from_bytes(&bytes).unwrap();
            assert_eq!(&restored, ck, "serialisation round-trips");
            let mut fresh = crate::Gshare::new(10);
            let resumed =
                simulate_resumable(&mut fresh, &trace, Some(&restored), None, |_| Ok(())).unwrap();
            assert_eq!(
                resumed, uninterrupted,
                "resume from record {}",
                ck.records_consumed
            );
        }
    }

    #[test]
    fn checkpoints_skip_the_end_of_trace() {
        let trace = busy_trace(1000);
        let mut count = 0;
        let _ = simulate_resumable(
            &mut crate::Bimodal::new(64),
            &trace,
            None,
            Some(500),
            |_| {
                count += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(count, 1, "the checkpoint at record 1000 is elided");
    }

    #[test]
    fn resume_rejects_mismatches() {
        let trace = busy_trace(200);
        let mut checkpoints = Vec::new();
        let _ = simulate_resumable(
            &mut crate::Bimodal::new(64),
            &trace,
            None,
            Some(100),
            |ck| {
                checkpoints.push(ck.clone());
                Ok(())
            },
        )
        .unwrap();
        let ck = &checkpoints[0];
        // Wrong predictor configuration.
        let err = simulate_resumable(&mut crate::Bimodal::new(32), &trace, Some(ck), None, |_| {
            Ok(())
        })
        .unwrap_err();
        assert!(err.to_string().contains("predictor"), "{err}");
        // Wrong trace.
        let mut renamed = busy_trace(200);
        renamed.meta_mut().name = "other".into();
        let err = simulate_resumable(
            &mut crate::Bimodal::new(64),
            &renamed,
            Some(ck),
            None,
            |_| Ok(()),
        )
        .unwrap_err();
        assert!(err.to_string().contains("trace"), "{err}");
        // Checkpoint beyond the end of the trace.
        let mut ahead = ck.clone();
        ahead.records_consumed = 9999;
        let err = simulate_resumable(
            &mut crate::Bimodal::new(64),
            &trace,
            Some(&ahead),
            None,
            |_| Ok(()),
        )
        .unwrap_err();
        assert!(err.to_string().contains("records"), "{err}");
    }

    #[test]
    fn observed_simulation_is_identical_and_counts_its_work() {
        let mut b = TraceBuilder::new("obs");
        for i in 0..3000u64 {
            let pc = if i % 2 == 0 { 0x100 } else { 0x104 };
            b.record(pc, i % 3 != 0, i + 1);
        }
        let trace = b.finish();
        let plain = simulate(
            &mut crate::Pag::new(crate::BhtIndexer::pc_modulo(1), 4),
            &trace,
        );
        let obs = bwsa_obs::Obs::recording();
        let mut pag = crate::Pag::new(crate::BhtIndexer::pc_modulo(1), 4);
        let observed = simulate_observed(&mut pag, &trace, &obs);
        assert_eq!(observed, plain);
        let metrics = obs.snapshot().expect("recording observer");
        assert_eq!(metrics.counter("predictor.lookups"), observed.total);
        assert_eq!(
            metrics.counter("predictor.mispredicts"),
            observed.mispredictions
        );
        assert_eq!(
            metrics.counter("predictor.interference_events"),
            pag.interference_events()
        );
        assert!(
            metrics.stage("simulate").is_some(),
            "simulate span recorded"
        );
    }

    #[test]
    fn predictors_without_interference_tracking_report_no_counter() {
        let trace = {
            let mut b = TraceBuilder::new("t");
            for i in 0..100u64 {
                b.record(0x100, i % 2 == 0, i + 1);
            }
            b.finish()
        };
        let obs = bwsa_obs::Obs::recording();
        simulate_observed(&mut crate::Bimodal::new(16), &trace, &obs);
        let metrics = obs.snapshot().expect("recording observer");
        assert!(!metrics
            .counters
            .contains_key("predictor.interference_events"));
    }

    /// The fused `observe` loop must be observably identical to the
    /// split predict-then-update loop for every scheme that overrides it.
    #[test]
    fn fused_observe_matches_split_predict_update() {
        let trace = busy_trace(5000);
        let mut schemes: Vec<(Box<dyn BranchPredictor>, Box<dyn BranchPredictor>)> = vec![
            (
                Box::new(crate::Pag::paper_baseline()),
                Box::new(crate::Pag::paper_baseline()),
            ),
            (
                Box::new(crate::Pag::interference_free()),
                Box::new(crate::Pag::interference_free()),
            ),
            (
                Box::new(crate::Gshare::new(10)),
                Box::new(crate::Gshare::new(10)),
            ),
            (
                Box::new(crate::Bimodal::new(64)),
                Box::new(crate::Bimodal::new(64)),
            ),
        ];
        for (split, fused) in &mut schemes {
            let mut split_misses = 0u64;
            for (id, rec) in trace.indexed_records() {
                if split.predict(rec.pc, id) != rec.direction {
                    split_misses += 1;
                }
                split.update(rec.pc, id, rec.direction);
            }
            let r = simulate(&mut *fused, &trace);
            assert_eq!(r.mispredictions, split_misses, "{}", r.predictor);
            assert_eq!(
                split.interference_events(),
                fused.interference_events(),
                "{}",
                r.predictor
            );
        }
    }

    #[test]
    fn detailed_into_reuses_dirty_buffers() {
        let trace = busy_trace(2000);
        let fresh = simulate_detailed(&mut crate::Pag::paper_baseline(), &trace);
        // Deliberately dirty, wrong-sized buffers from a previous "cell".
        let mut misses = vec![u64::MAX; 3];
        let mut executions = vec![7u64; 99];
        let summary = simulate_detailed_into(
            &mut crate::Pag::paper_baseline(),
            &trace,
            &mut misses,
            &mut executions,
        );
        assert_eq!(summary, fresh.summary);
        assert_eq!(misses, fresh.misses);
        assert_eq!(executions, fresh.executions);
    }

    #[test]
    fn corrupt_checkpoint_bytes_are_rejected() {
        let ck = SimCheckpoint {
            predictor: "bimodal/64".into(),
            trace: "busy".into(),
            records_consumed: 100,
            mispredictions: 17,
            predictor_state: vec![1, 2, 3],
        };
        let bytes = ck.to_bytes();
        assert_eq!(SimCheckpoint::from_bytes(&bytes).unwrap(), ck);
        // Every single-bit flip must be caught by the CRC (or the parser).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(SimCheckpoint::from_bytes(&bad).is_err(), "flip at byte {i}");
        }
        // Truncations too.
        for cut in 0..bytes.len() {
            assert!(
                SimCheckpoint::from_bytes(&bytes[..cut]).is_err(),
                "truncated to {cut}"
            );
        }
    }
}
