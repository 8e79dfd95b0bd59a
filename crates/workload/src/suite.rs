//! The paper's benchmark suite, reimagined as synthetic workload profiles.
//!
//! Table 1 of the paper evaluates six SPECint95 benchmarks and seven
//! common UNIX applications. Each [`Benchmark`] here is a
//! [`WorkloadSpec`] whose knobs are tuned so the *relative* control-flow
//! characteristics track the original: `gcc`/`python` have thousands of
//! static branches and large working sets, `compress`/`ijpeg`/`pgp` are
//! small and loop-dominated, and so on. Dynamic-branch budgets are scaled
//! down ~20× from the paper's runs (which went up to 500M instructions)
//! to keep the whole harness laptop-scale; the shapes the paper reports
//! are preserved, as EXPERIMENTS.md documents.
//!
//! Each benchmark has two input sets ([`InputSet::A`] and [`InputSet::B`])
//! so the §5.2 experiments — input sensitivity (`perl_a`/`perl_b`,
//! `ss_a`/`ss_b`) and cumulative profiles — can be reproduced.
//!
//! # Example
//!
//! ```
//! use bwsa_workload::suite::{Benchmark, InputSet};
//!
//! for bench in Benchmark::ALL {
//!     assert!(bench.spec().validate().is_ok(), "{bench}");
//! }
//! let t = Benchmark::Pgp.generate_scaled(InputSet::A, 0.01);
//! assert!(!t.is_empty());
//! ```

use crate::spec::{BiasMix, InputParams, ScheduleModel, Workload, WorkloadSpec};
use bwsa_trace::Trace;
use std::fmt;

/// Which profiling/evaluation input to run a benchmark with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputSet {
    /// The primary input (the one named in Table 1).
    A,
    /// A secondary input exercising a different mix of program regions.
    B,
}

impl InputSet {
    /// Suffix used in experiment labels (`perl_a`, `perl_b`, ...).
    pub fn suffix(self) -> &'static str {
        match self {
            InputSet::A => "a",
            InputSet::B => "b",
        }
    }
}

/// One of the thirteen paper benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    Compress,
    Gcc,
    Ijpeg,
    Li,
    M88ksim,
    Perl,
    Chess,
    Gs,
    Pgp,
    Plot,
    Python,
    Ss,
    Tex,
}

impl Benchmark {
    /// All benchmarks, in the paper's Table 1 order.
    pub const ALL: [Benchmark; 13] = [
        Benchmark::Compress,
        Benchmark::Gcc,
        Benchmark::Ijpeg,
        Benchmark::Li,
        Benchmark::M88ksim,
        Benchmark::Perl,
        Benchmark::Chess,
        Benchmark::Gs,
        Benchmark::Pgp,
        Benchmark::Plot,
        Benchmark::Python,
        Benchmark::Ss,
        Benchmark::Tex,
    ];

    /// The benchmark's name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Compress => "compress",
            Benchmark::Gcc => "gcc",
            Benchmark::Ijpeg => "ijpeg",
            Benchmark::Li => "li",
            Benchmark::M88ksim => "m88ksim",
            Benchmark::Perl => "perl",
            Benchmark::Chess => "chess",
            Benchmark::Gs => "gs",
            Benchmark::Pgp => "pgp",
            Benchmark::Plot => "plot",
            Benchmark::Python => "python",
            Benchmark::Ss => "ss",
            Benchmark::Tex => "tex",
        }
    }

    /// The input-set label, mirroring Table 1 for input A.
    pub fn input_name(self, set: InputSet) -> &'static str {
        match (self, set) {
            (Benchmark::Compress, InputSet::A) => "compress_small.in",
            (Benchmark::Compress, InputSet::B) => "compress_big.in",
            (Benchmark::Gcc, InputSet::A) => "jump.i",
            (Benchmark::Gcc, InputSet::B) => "recog.i",
            (Benchmark::Ijpeg, InputSet::A) => "vigo.ppm",
            (Benchmark::Ijpeg, InputSet::B) => "penguin.ppm",
            (Benchmark::Li, InputSet::A) => "li_ref.out",
            (Benchmark::Li, InputSet::B) => "li_train.out",
            (Benchmark::M88ksim, InputSet::A) => "ctl.big",
            (Benchmark::M88ksim, InputSet::B) => "ctl.small",
            (Benchmark::Perl, InputSet::A) => "scrabbl.in",
            (Benchmark::Perl, InputSet::B) => "primes.in",
            (Benchmark::Chess, InputSet::A) => "sim.in",
            (Benchmark::Chess, InputSet::B) => "mate.in",
            (Benchmark::Gs, InputSet::A) => "sigmetrics94.ps",
            (Benchmark::Gs, InputSet::B) => "micro31.ps",
            (Benchmark::Pgp, InputSet::A) => "IJPP97.ps",
            (Benchmark::Pgp, InputSet::B) => "hpca98.ps",
            (Benchmark::Plot, InputSet::A) => "surface2.dem",
            (Benchmark::Plot, InputSet::B) => "contour1.dem",
            (Benchmark::Python, InputSet::A) => "yarn.tests.py",
            (Benchmark::Python, InputSet::B) => "regr.tests.py",
            (Benchmark::Ss, InputSet::A) => "test-fmath",
            (Benchmark::Ss, InputSet::B) => "test-math",
            (Benchmark::Tex, InputSet::A) => "output-PACT96.tex",
            (Benchmark::Tex, InputSet::B) => "output-MICRO31.tex",
        }
    }

    /// The workload profile (static structure + budgets) of this benchmark.
    pub fn spec(self) -> WorkloadSpec {
        // Shared defaults; per-benchmark overrides below.
        let base = |name: &str,
                    seed: u64,
                    regions: usize,
                    bpr: (usize, usize),
                    budget: u64|
         -> WorkloadSpec {
            WorkloadSpec {
                name: name.to_owned(),
                structure_seed: seed,
                regions,
                branches_per_region: bpr,
                trips: (60, 150),
                bias: BiasMix {
                    taken: 0.32,
                    not_taken: 0.22,
                },
                pattern_frac: 0.50,
                correlated_frac: 0.08,
                guard_frac: 0.20,
                block_instrs: (2, 14),
                target_dynamic_branches: budget,
                schedule: ScheduleModel::default(),
            }
        };
        match self {
            // Small, loop-dominated compressor: few static branches,
            // long-running inner loops, strongly biased branches.
            Benchmark::Compress => WorkloadSpec {
                trips: (110, 260),
                bias: BiasMix {
                    taken: 0.38,
                    not_taken: 0.25,
                },
                ..base("compress", 0xC0, 14, (22, 58), 400_000)
            },
            // Huge optimizer: many regions, very large working sets.
            Benchmark::Gcc => WorkloadSpec {
                trips: (80, 180),
                bias: BiasMix {
                    taken: 0.30,
                    not_taken: 0.20,
                },
                ..base("gcc", 0x6CC, 24, (270, 400), 2_500_000)
            },
            // Image codec: small working sets of mostly regular branches.
            Benchmark::Ijpeg => WorkloadSpec {
                trips: (120, 280),
                pattern_frac: 0.6,
                bias: BiasMix {
                    taken: 0.40,
                    not_taken: 0.22,
                },
                ..base("ijpeg", 0x13E6, 24, (18, 40), 400_000)
            },
            // Lisp interpreter: mid-sized dispatch-heavy working sets.
            Benchmark::Li => base("li", 0x11, 12, (150, 210), 800_000),
            // Microprocessor simulator: mid-sized regular working sets.
            Benchmark::M88ksim => WorkloadSpec {
                pattern_frac: 0.55,
                ..base("m88ksim", 0x88, 14, (115, 175), 800_000)
            },
            // Perl interpreter: many small working sets.
            Benchmark::Perl => base("perl", 0x9E41, 21, (35, 70), 450_000),
            // Chess engine: large search working sets, unbiased branches.
            Benchmark::Chess => WorkloadSpec {
                bias: BiasMix {
                    taken: 0.26,
                    not_taken: 0.18,
                },
                ..base("chess", 0xC4E5, 20, (190, 310), 1_800_000)
            },
            // Ghostscript: many mid-to-large rendering working sets.
            Benchmark::Gs => base("gs", 0x65, 30, (150, 250), 2_000_000),
            // PGP: small crypto-kernel working sets, heavy bias.
            Benchmark::Pgp => WorkloadSpec {
                trips: (100, 220),
                bias: BiasMix {
                    taken: 0.42,
                    not_taken: 0.24,
                },
                ..base("pgp", 0x969, 17, (30, 60), 350_000)
            },
            // Gnuplot: mid-sized numeric working sets.
            Benchmark::Plot => base("plot", 0x107, 20, (110, 180), 1_000_000),
            // Python interpreter: large dispatch working sets.
            Benchmark::Python => WorkloadSpec {
                bias: BiasMix {
                    taken: 0.28,
                    not_taken: 0.20,
                },
                ..base("python", 0x9c, 24, (280, 400), 2_500_000)
            },
            // SimpleScalar itself: large decode/dispatch working sets.
            Benchmark::Ss => base("ss", 0x55, 20, (230, 340), 1_800_000),
            // TeX: mid-sized working sets, biased error-checking branches.
            Benchmark::Tex => WorkloadSpec {
                bias: BiasMix {
                    taken: 0.40,
                    not_taken: 0.24,
                },
                ..base("tex", 0x7E, 25, (120, 200), 1_400_000)
            },
        }
    }

    /// Input parameters for one of this benchmark's input sets.
    ///
    /// Input B uses a different seed and a more concentrated region mix,
    /// reproducing the paper's observation that profiles from different
    /// inputs exercise different parts of the program.
    pub fn input(self, set: InputSet) -> InputParams {
        let base_seed = (self as u64 + 1) * 0x0123_4567_89AB_CDEF;
        match set {
            InputSet::A => InputParams {
                name: self.input_name(set).to_owned(),
                seed: base_seed,
                concentration: 0.8,
            },
            InputSet::B => InputParams {
                name: self.input_name(set).to_owned(),
                seed: base_seed ^ 0xFFFF_0000_FFFF_0000,
                concentration: 3.5,
            },
        }
    }

    /// Instantiates the static structure.
    ///
    /// # Panics
    ///
    /// Never in practice: all built-in specs validate (tested).
    pub fn workload(self) -> Workload {
        self.spec().instantiate().expect("built-in specs validate")
    }

    /// Generates the full-budget trace for an input set.
    pub fn generate(self, set: InputSet) -> Trace {
        self.workload().trace(&self.input(set))
    }

    /// Generates a trace with the dynamic-branch budget scaled by `scale`
    /// (e.g. `0.01` for quick tests).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn generate_scaled(self, set: InputSet, scale: f64) -> Trace {
        self.workload().trace_scaled(&self.input(set), scale)
    }

    /// The subset of benchmarks reported in the paper's Table 2.
    pub const TABLE2: [Benchmark; 11] = [
        Benchmark::Compress,
        Benchmark::Gcc,
        Benchmark::Ijpeg,
        Benchmark::Li,
        Benchmark::M88ksim,
        Benchmark::Perl,
        Benchmark::Chess,
        Benchmark::Pgp,
        Benchmark::Plot,
        Benchmark::Python,
        Benchmark::Ss,
    ];
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_validate() {
        for b in Benchmark::ALL {
            assert!(b.spec().validate().is_ok(), "{b}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Benchmark::ALL.len());
    }

    #[test]
    fn input_names_differ_between_sets() {
        for b in Benchmark::ALL {
            assert_ne!(b.input_name(InputSet::A), b.input_name(InputSet::B));
            assert_ne!(b.input(InputSet::A).seed, b.input(InputSet::B).seed);
        }
    }

    #[test]
    fn small_trace_generates_quickly_and_deterministically() {
        let a = Benchmark::Compress.generate_scaled(InputSet::A, 0.01);
        let b = Benchmark::Compress.generate_scaled(InputSet::A, 0.01);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4000);
    }

    #[test]
    fn static_branch_counts_scale_with_benchmark() {
        let compress = Benchmark::Compress.workload().static_branch_count();
        let gcc = Benchmark::Gcc.workload().static_branch_count();
        assert!(compress > 200, "compress has {compress}");
        assert!(compress < 1000, "compress has {compress}");
        assert!(gcc > 6000, "gcc has {gcc}");
    }

    #[test]
    fn trace_name_mentions_benchmark_and_input() {
        let t = Benchmark::Perl.generate_scaled(InputSet::A, 0.01);
        assert_eq!(t.meta().name, "perl:scrabbl.in");
    }

    #[test]
    fn table2_subset_is_within_all() {
        for b in Benchmark::TABLE2 {
            assert!(Benchmark::ALL.contains(&b));
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Benchmark::Gcc.to_string(), "gcc");
    }
}
