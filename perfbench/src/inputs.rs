//! Seeded inputs: suite traces generated in-process by `bwsa_workload`,
//! encoded in the three trace formats the CLI reads.
//!
//! The benchmark's `--seed` relabels every branch address of each
//! profile's trace (see [`relabeled`]), so one seed always yields the
//! same files while the working sets the paper's Table 2 reports stay
//! those of the profile. Seeds change only the address layout; the held-
//! out seed draws input set B, a different schedule.

use crate::HELD_OUT_SEED;
use bwsa::trace::columnar;
use bwsa::trace::io as trace_io;
use bwsa::trace::stream::{RecoveryPolicy, StreamReader, StreamWriter};
use bwsa::trace::{Trace, TraceBuilder};
use bwsa::workload::suite::{Benchmark, InputSet};

/// The trace formats the CLI reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// BWSS3 columnar file (streamed block by block by `analyze`).
    Bws3,
    /// BWSS2 checksummed stream (the constant-memory `analyze` path).
    Bwss,
    /// BWST binary (materialised; the in-memory `Session` path).
    Bwst,
}

impl Format {
    pub const ALL: [Format; 3] = [Format::Bws3, Format::Bwss, Format::Bwst];

    /// Metric-name label and file extension.
    pub fn label(self) -> &'static str {
        match self {
            Format::Bws3 => "bws3",
            Format::Bwss => "bwss",
            Format::Bwst => "bwst",
        }
    }

    pub fn encode(self, trace: &Trace) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Format::Bws3 => columnar::write_columnar(trace, &mut out).expect("encode BWSS3"),
            Format::Bwss => {
                let mut w = StreamWriter::new(&mut out, &trace.meta().name).expect("encode BWSS2");
                for r in trace.records() {
                    w.push(*r).expect("encode BWSS2");
                }
                w.finish(trace.meta().total_instructions)
                    .expect("encode BWSS2");
            }
            Format::Bwst => trace_io::write_binary(trace, &mut out).expect("encode BWST"),
        }
        out
    }

    /// Decodes strictly, as the CLI and the daemon do for clean input.
    pub fn decode(self, bytes: &[u8]) -> Result<Trace, String> {
        match self {
            Format::Bws3 => columnar::read_columnar(bytes, RecoveryPolicy::Strict)
                .map(|(trace, _)| trace)
                .map_err(|e| e.to_string()),
            Format::Bwss => {
                let mut reader = StreamReader::new(bytes).map_err(|e| e.to_string())?;
                let mut trace = Trace::new(reader.name().to_owned());
                for item in reader.by_ref() {
                    trace
                        .push(item.map_err(|e| e.to_string())?)
                        .map_err(|e| e.to_string())?;
                }
                if let Some(total) = reader.total_instructions() {
                    trace.meta_mut().total_instructions = total;
                }
                Ok(trace)
            }
            Format::Bwst => trace_io::decode_binary(bytes).map_err(|e| e.to_string()),
        }
    }
}

/// One step of SplitMix64: a well-mixed 64-bit value from any input.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator for request schedules and sizes.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The profile's own input-A trace at `scale` (input B for
/// [`HELD_OUT_SEED`]), with every branch address relabelled by a seeded
/// bijection (an XOR of address bits 2–19).
///
/// Mixing the seed into `InputParams.seed` instead would redraw the
/// region popularities: that swings one li trace's static branch count
/// between about 1.0k and 2.1k and its analysis time by ±30% from seed
/// to seed, and the 13-profile corpus's time by ±6%, so no run could be
/// compared with another. Relabelling keeps the schedule — so the
/// working sets, the interleave work and the pc-modulo BHT aliasing —
/// and still changes every byte of the input and the layout of every
/// table keyed by address. An XOR maps the trace to an isomorphic one, so
/// the seeds of input A are repeats of one schedule; only input B is a
/// different one.
pub fn relabeled(bench: Benchmark, scale: f64, seed: u64) -> Trace {
    let set = if seed == HELD_OUT_SEED {
        InputSet::B
    } else {
        InputSet::A
    };
    let trace = bench.workload().trace_scaled(&bench.input(set), scale);
    let mask = mix(seed) & 0x000F_FFFC;
    let mut b = TraceBuilder::new(trace.meta().name.clone());
    for r in trace.records() {
        b.record(r.pc.addr() ^ mask, r.is_taken(), r.time.get());
    }
    let mut out = b.finish();
    out.meta_mut().total_instructions = trace.meta().total_instructions;
    out
}

/// The conflict threshold for a trace at `scale` of its profile's
/// budget: the paper's 100 at full scale, scaled with the trace as the
/// experiment harness does, and at least 1.
pub fn threshold_for(scale: f64) -> u64 {
    ((100.0 * scale).round() as u64).max(1)
}
