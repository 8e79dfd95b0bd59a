//! Metrics, correctness checks and the result line.
//!
//! Every metric is printed as `metric <name> = <value> <unit> (n=<k>)`
//! with `k` the number of samples behind it; every check as
//! `check <name>: <passed>/<run> passed`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics set with [`Report::set`] — the BENCHMARK.json list of the mode
//! that ran (`end_to_end` untraced, `per_layer` traced); metrics set with
//! [`Report::note`] are printed only.

use bwsa::obs::json::Json;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
struct Metric {
    unit: &'static str,
    value: f64,
    samples: usize,
    /// Whether the result line carries it.
    result: bool,
}

/// The outcome of one operation (a CLI invocation or a daemon request):
/// it failed when any of its checks did.
#[derive(Debug, Default)]
pub struct Op {
    checks: Vec<(&'static str, bool)>,
}

impl Op {
    pub fn new() -> Self {
        Op::default()
    }

    /// Records one check; prints `detail` to stderr when it fails.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            eprintln!("perfbench: check {name} failed: {}", detail());
        }
        self.checks.push((name, ok));
    }

    pub fn ok(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    checks: BTreeMap<&'static str, (u64, u64)>,
    attempted: u64,
    failed: u64,
    /// When set, the next expected digest handed out is wrong on purpose
    /// (the smoke test's proof that a mismatch is counted).
    tamper: bool,
}

impl Report {
    pub fn new(tamper: bool) -> Self {
        Report {
            tamper,
            ..Report::default()
        }
    }

    /// Records a metric of the result line.
    pub fn set(&mut self, name: impl Into<String>, unit: &'static str, value: f64, samples: usize) {
        self.insert(name.into(), unit, value, samples, true);
    }

    /// Records a metric that is printed but not in the result line.
    pub fn note(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) {
        self.insert(name.into(), unit, value, samples, false);
    }

    fn insert(
        &mut self,
        name: String,
        unit: &'static str,
        value: f64,
        samples: usize,
        result: bool,
    ) {
        assert!(value.is_finite(), "metric value must be finite");
        self.metrics.insert(
            name,
            Metric {
                unit,
                value,
                samples,
                result,
            },
        );
    }

    /// A recorded metric's value.
    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Counts a finished operation.
    pub fn finish(&mut self, op: Op) {
        self.attempted += 1;
        if !op.ok() {
            self.failed += 1;
        }
        for (name, ok) in op.checks {
            let row = self.checks.entry(name).or_insert((0, 0));
            row.0 += 1;
            if ok {
                row.1 += 1;
            }
        }
    }

    /// `expected`, unless a deliberate mismatch is pending.
    pub fn expected_digest(&mut self, expected: &str) -> String {
        if std::mem::take(&mut self.tamper) {
            format!("{expected}-tampered")
        } else {
            expected.to_owned()
        }
    }

    /// Prints every metric and check, then the result line.
    pub fn print(&self) {
        let error_rate = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "metric error_rate = {error_rate} ratio (n={})",
            self.attempted
        );
        for (name, m) in &self.metrics {
            println!("metric {name} = {} {} (n={})", m.value, m.unit, m.samples);
        }
        for (name, (run, passed)) in &self.checks {
            println!("check {name}: {passed}/{run} passed");
        }
        let metrics = self
            .metrics
            .iter()
            .filter(|(_, m)| m.result)
            .map(|(name, m)| {
                (
                    name.clone(),
                    Json::object([
                        ("value", Json::Float(m.value)),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect();
        // A run that attempted nothing measured nothing: report it as
        // one failed operation rather than as a success.
        let (attempted, failed) = match self.attempted {
            0 => (1, 1),
            n => (n, self.failed),
        };
        let line = Json::object([
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::UInt(attempted)),
            ("failed", Json::UInt(failed)),
            ("metrics", Json::Object(metrics)),
        ]);
        println!("{line}");
    }
}
