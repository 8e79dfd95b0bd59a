//! The host's speed, measured beside the program under test.
//!
//! This benchmark runs on a few cores of a shared host whose speed drifts
//! in phases from seconds to minutes long: measured on one 2-core VM,
//! the raw `wall_s` of the `analyze` workload, a median over ten 25 s
//! runs, was 0.61 s in one set and 0.54 s in the next, and that of the
//! `windowed` workload 1.51 s and 1.11 s. Two runs of the same code
//! minutes apart then disagree by more than any regression bound worth
//! having. So every
//! workload also times a fixed reference computation — the same
//! hash-table increments each time, in this process, right after each of
//! the program's operations — and the gated `wall_rel` is each
//! operation's wall time divided by the reference time measured after
//! it, the median of those per kind of operation, and their geometric
//! mean over the kinds: the program's speed in units of the host's speed
//! at that moment. The reference's code is this file's, not the
//! program's, so no change to the program moves it. The raw `wall_s` and
//! the run's median `reference_s` are printed beside it.
//!
//! The kernel is shaped like the program's detect: it walks a skewed
//! stream of branch ids and counts each (previous, current) pair in an
//! open-addressing table. It does so twice, in a table that fits a core's
//! L2 cache and in one far larger than it, and a sample is the sum of the
//! two times. The program's speed moves with both: with the cache share a
//! neighbour on the same core leaves it (in phases when the core is to
//! itself the program ran 0.43 s instead of 0.61 s, and the small table
//! sped up by the same 29%, the large one by only 8%) and with memory
//! contention, which the large table feels most.

use crate::report::Report;
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// One of the kernel's two passes: a table of `1 << slots_log2` keys
/// and counts, `ids` distinct branch ids (at most `ids²` pairs, so the
/// table never runs more than 69% full) and `steps` increments, about
/// 25 ms each on a 2-core Xeon VM with 2 MiB of L2 per core.
struct Pass {
    slots_log2: u32,
    ids: u64,
    steps: u32,
}

const PASSES: [Pass; 2] = [
    // 1.5 MiB: fits L2.
    Pass {
        slots_log2: 17,
        ids: 300,
        steps: 2_000_000,
    },
    // 24 MiB: every increment goes to memory.
    Pass {
        slots_log2: 21,
        ids: 1200,
        steps: 400_000,
    },
];

/// Program wall time per reference sample. After each operation the
/// kernel runs once per this much of the operation's time, and at least
/// once, so about a tenth of a run goes to it whatever the operations'
/// lengths, and a long operation is compared with the median of several
/// samples.
const PROGRAM_S_PER_SAMPLE: f64 = 0.5;

/// The reference kernel's samples in one run, and each operation's
/// wall time with the reference time measured right after it, by kind
/// of operation.
#[derive(Debug, Default)]
pub struct HostSpeed {
    tables: Vec<(Vec<u64>, Vec<u32>)>,
    samples: Vec<f64>,
    ops: BTreeMap<usize, Vec<(f64, f64)>>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            tables: PASSES
                .iter()
                .map(|p| (vec![0; 1 << p.slots_log2], vec![0; 1 << p.slots_log2]))
                .collect(),
            ..HostSpeed::default()
        }
    }

    /// Runs both passes of the kernel and returns their summed time.
    pub fn sample(&mut self) -> f64 {
        let mut time = 0.0;
        for (pass, (keys, counts)) in PASSES.iter().zip(&mut self.tables) {
            keys.fill(0);
            counts.fill(0);
            let start = Instant::now();
            let sum = count_pairs(keys, counts, pass);
            time += start.elapsed().as_secs_f64();
            assert_eq!(
                sum,
                u64::from(pass.steps),
                "the reference kernel lost a count"
            );
        }
        self.samples.push(time);
        time
    }

    /// Records an operation of `kind` that took `wall_s`, and samples the
    /// reference right after it.
    pub fn after(&mut self, kind: usize, wall_s: f64) {
        let n = (wall_s / PROGRAM_S_PER_SAMPLE).ceil().max(1.0) as usize;
        let reference: Vec<f64> = (0..n).map(|_| self.sample()).collect();
        self.record(kind, wall_s, stats::median(&reference));
    }

    /// Records an operation of `kind` that took `wall_s`, with the
    /// reference time measured next to it.
    pub fn record(&mut self, kind: usize, wall_s: f64, reference_s: f64) {
        self.ops
            .entry(kind)
            .or_default()
            .push((wall_s, reference_s));
    }

    /// Records the gated `wall_rel` and prints its parts. Each kind of
    /// operation gives its median wall time and its median ratio of wall
    /// to reference time; `wall_s` and `wall_rel` are the geometric means
    /// of those over the kinds, so a change to any one kind moves them by
    /// its share.
    ///
    /// # Panics
    ///
    /// When no operation was recorded.
    pub fn report(&self, report: &mut Report) {
        let per_kind = |f: fn(&(f64, f64)) -> f64| {
            let medians: Vec<f64> = self
                .ops
                .values()
                .map(|ops| stats::median(&ops.iter().map(f).collect::<Vec<_>>()))
                .collect();
            stats::geomean(&medians)
        };
        let n = self.ops.values().map(Vec::len).sum();
        report.note("wall_s", "s", per_kind(|&(wall, _)| wall), n);
        report.note(
            "reference_s",
            "s",
            stats::median(&self.samples),
            self.samples.len(),
        );
        report.set("wall_rel", "ratio", per_kind(|&(wall, r)| wall / r), n);
    }
}

/// The kernel: counts (previous, current) id pairs of an xorshift
/// stream, skewed toward low ids, in a linear-probing table. Returns the
/// sum of the counts, which must equal the pass's steps.
fn count_pairs(keys: &mut [u64], counts: &mut [u32], pass: &Pass) -> u64 {
    let mask = keys.len() - 1;
    let shift = 64 - keys.len().trailing_zeros();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut prev = 0u64;
    for _ in 0..pass.steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // The smaller of two draws: low ids are hot, as in real traces.
        let id = ((x >> 40) % pass.ids).min((x & 0xFF_FFFF) % pass.ids);
        let key = (prev << 32 | id) + 1;
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            if keys[slot] == key {
                counts[slot] += 1;
                break;
            }
            if keys[slot] == 0 {
                keys[slot] = key;
                counts[slot] = 1;
                break;
            }
            slot = (slot + 1) & mask;
        }
        prev = id;
    }
    counts.iter().map(|&c| u64::from(c)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_rel_is_each_kinds_median_ratio_to_the_reference() {
        let mut speed = HostSpeed::new();
        assert!(speed.sample() > 0.0);
        speed.record(0, 1.0, 0.5);
        speed.record(0, 3.0, 0.5);
        speed.record(1, 8.0, 1.0);
        let mut report = Report::new(false);
        speed.report(&mut report);
        // Medians 2 and 8, ratios 4 and 8: geometric means 4 and √32.
        assert!((report.value("wall_s").unwrap() - 4.0).abs() < 1e-9);
        assert!((report.value("wall_rel").unwrap() - 32f64.sqrt()).abs() < 1e-9);
    }
}
