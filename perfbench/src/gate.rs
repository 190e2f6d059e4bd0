//! The correctness gate. Any violation fails the run, and every request
//! of a failed run counts as failed.

use veda_serving::ClusterReport;

/// `workload seed digest` lines recorded for the default and held-out
/// seeds (`--print-digest` prints the line for a run).
const GOLDENS: &str = include_str!("../goldens.txt");

#[derive(Debug, Default)]
pub struct Gate {
    pub violations: Vec<String>,
    pub golden_checked: bool,
}

impl Gate {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(why());
        }
    }

    /// Every request ends in exactly one terminal state, and per shard
    /// and per cluster: submitted = completed + rejected + shed +
    /// dead-lettered.
    pub fn conservation(&mut self, report: &ClusterReport, expected: usize) {
        let mut totals = [0usize; 5];
        for s in &report.shards {
            let mut counts = [0usize; 4];
            for r in &s.records {
                let states =
                    [r.finished.is_some(), r.rejected.is_some(), r.shed.is_some(), r.dead_letter.is_some()];
                let n = states.iter().filter(|&&b| b).count();
                self.require(n == 1, || format!("request {} ends in {n} terminal states", r.arrival));
                for (count, state) in counts.iter_mut().zip(states) {
                    *count += state as usize;
                }
            }
            let [completed, rejected, shed, dead] = counts;
            self.require(s.submitted == completed + rejected + shed + dead, || {
                format!(
                    "shard {}: submitted {} != completed {completed} + rejected {rejected} + shed {shed} + dead-lettered {dead}",
                    s.shard_id, s.submitted
                )
            });
            self.require(s.completed == completed, || {
                format!(
                    "shard {}: completed counter {} != {completed} finished records",
                    s.shard_id, s.completed
                )
            });
            totals[0] += s.submitted;
            totals[1] += completed;
            totals[2] += rejected;
            totals[3] += shed;
            totals[4] += dead;
        }
        let [submitted, completed, rejected, shed, dead] = totals;
        self.require(submitted == expected, || {
            format!("cluster: {submitted} submitted, workload has {expected}")
        });
        self.require(submitted == completed + rejected + shed + dead, || {
            format!("cluster: submitted {submitted} != {completed} + {rejected} + {shed} + {dead}")
        });
        let counted: usize = report.shards.iter().map(|s| s.rejected()).sum();
        self.require(counted == rejected, || {
            format!("cluster: rejection counters {counted} != {rejected} records")
        });
        self.require(report.dead_letters as usize == dead && report.shed as usize == shed, || {
            format!(
                "cluster: dead-letter/shed counters {}/{} != records {dead}/{shed}",
                report.dead_letters, report.shed
            )
        });
    }

    /// Two runs of one input must produce identical reports.
    pub fn same_report(&mut self, what: &str, a: &ClusterReport, b: &ClusterReport) {
        self.require(a == b, || format!("{what}: reports differ"));
    }

    pub fn same_digest(&mut self, what: &str, a: u64, b: u64) {
        self.require(a == b, || format!("{what}: digest {b:016x} != {a:016x}"));
    }

    /// Checks `digest` against the committed golden, when `seed` is one
    /// of the recorded seeds of `workload`.
    pub fn golden(&mut self, workload: &str, seed: u64, digest: u64) {
        if let Some(want) = golden(workload, seed) {
            self.golden_checked = true;
            self.require(want == digest, || {
                format!("{workload} seed {seed}: digest {digest:016x} != golden {want:016x}")
            });
        }
    }

    pub fn require_equal(&mut self, what: &str, a: u64, b: u64) {
        self.require(a == b, || format!("{what}: {a} != {b}"));
    }
}

/// The committed golden digest of (`workload`, `seed`), if recorded.
pub fn golden(workload: &str, seed: u64) -> Option<u64> {
    GOLDENS.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let mut parts = line.split_whitespace();
        let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed).then(|| u64::from_str_radix(d, 16).ok()).flatten()
    })
}
