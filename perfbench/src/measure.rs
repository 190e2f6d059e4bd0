//! One repetition of a workload (set-up, closed tick loop, report
//! assembly) and the deterministic summary computed from its report.

use std::collections::BTreeMap;
use std::time::Instant;

use veda::RequestOutcome;
use veda_model::ModelConfig;
use veda_serving::{Cluster, ClusterReport, ServingReport};

use crate::calib::{cpu_ns, Chunks};
use crate::traced::Spans;

/// Host-time observations of one repetition. Tick and loop times are
/// CPU times calibrated to the nominal host speed (see [`crate::calib`]).
pub struct Rep {
    /// Calibrated host nanoseconds of each `Cluster::tick`.
    pub tick_ns: Vec<u64>,
    /// Calibrated host seconds of the whole tick loop.
    pub loop_s: f64,
    /// CPU seconds of the tick loop, uncalibrated.
    pub cpu_s: f64,
    /// Wall seconds of the tick loop.
    pub wall_s: f64,
    /// Host seconds of report assembly plus per-shard metrics JSON export.
    pub report_s: f64,
    pub report: ClusterReport,
}

/// Drives `cluster` to completion, one timed `tick` at a time (with a
/// calibration pass for `model` every few milliseconds, outside the
/// timings), then assembles the report and exports every shard's
/// metrics as JSON.
/// With `spans`, records a span around each of those calls.
pub fn drive(mut cluster: Cluster, model: &ModelConfig, mut spans: Option<&mut Spans>) -> Rep {
    let mut tick_ns = Vec::new();
    let mut chunks = Chunks::start(model);
    while !cluster.is_done() {
        let span = spans.as_deref_mut().map(|s| s.begin("serving.tick", None));
        let c0 = cpu_ns();
        cluster.tick();
        tick_ns.push(cpu_ns() - c0);
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), span) {
            s.end(id);
        }
        chunks.after_tick(tick_ns.len());
    }
    let (loop_s, cpu_s, wall_s) = chunks.finish(&mut tick_ns);
    let t0 = Instant::now();
    let span = spans.as_deref_mut().map(|s| s.begin("telemetry.report", None));
    let report = cluster.run();
    let export = spans.as_deref_mut().map(|s| s.begin("telemetry.export", span));
    let exported: usize = report.shards.iter().map(|s| s.metrics().to_json().len()).sum();
    std::hint::black_box(exported);
    if let Some(s) = spans {
        export.into_iter().chain(span).for_each(|id| s.end(id));
    }
    Rep { tick_ns, loop_s, cpu_s, wall_s, report_s: t0.elapsed().as_secs_f64(), report }
}

/// Everything deterministic about one run, computed from the per-shard
/// `ServingReport`/`EngineReport` data.
#[derive(Debug, Clone, PartialEq)]
pub struct Virt {
    pub submitted: usize,
    pub completed: usize,
    pub admitted: usize,
    pub rejected: usize,
    pub shed: usize,
    pub dead_letters: usize,
    pub retries: u64,
    pub preemptions: u64,
    pub migrations: u64,
    pub ticks: u64,
    /// Engine steps (one batched mixed prefill/decode step per shard-tick
    /// with work).
    pub steps: u64,
    pub ttft: Vec<u64>,
    pub e2e: Vec<u64>,
    pub queue_wait: Vec<u64>,
    pub queue_depth_mean: f64,
    pub generated_tokens: u64,
    /// Prompt tokens run through the model on the clock.
    pub prefill_tokens: u64,
    /// Prompt tokens served from a cached prefix instead.
    pub prefill_skipped: u64,
    pub batched_cycles: u64,
    pub energy_mj: f64,
    pub evictions: u64,
    pub kv_reserved_peak: u64,
    pub kv_resident_peak: u64,
    pub prefix_hits: u64,
    pub prefix_lookups: u64,
    pub prefix_evictions: u64,
    pub prefix_expiries: u64,
    pub prefix_spills: u64,
    pub prefix_fills: u64,
    pub swap_bytes: u64,
    pub migration_bytes: u64,
    pub spill_bytes: u64,
    pub fill_bytes: u64,
    pub link_cycles: u64,
    /// FNV-1a digest of every request's outcome (see [`digest`]).
    pub digest: u64,
}

impl Virt {
    pub fn of(report: &ClusterReport) -> Self {
        let shards = &report.shards;
        let records = || shards.iter().flat_map(|s| s.records.iter());
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        let sum = |f: fn(&ServingReport) -> u64| shards.iter().map(f).sum::<u64>();
        let depth: Vec<usize> = shards.iter().flat_map(|s| s.queue_depth.iter().copied()).collect();
        Virt {
            submitted: shards.iter().map(|s| s.submitted).sum(),
            completed: shards.iter().map(|s| s.completed).sum(),
            admitted: shards.iter().map(|s| s.admitted).sum(),
            rejected: shards.iter().map(ServingReport::rejected).sum(),
            shed: shards.iter().map(ServingReport::shed).sum(),
            dead_letters: shards.iter().map(ServingReport::dead_lettered).sum(),
            retries: sum(ServingReport::retries),
            preemptions: sum(|s| s.preemptions),
            migrations: report.migrations,
            ticks: shards.iter().map(|s| s.ticks).max().unwrap_or(0),
            steps: sum(|s| s.decode_ticks),
            ttft: sorted(records().filter_map(|r| r.ttft()).collect()),
            e2e: sorted(records().filter_map(|r| r.e2e()).collect()),
            queue_wait: sorted(records().filter_map(|r| Some(r.admitted? - r.submitted)).collect()),
            queue_depth_mean: if depth.is_empty() {
                0.0
            } else {
                depth.iter().sum::<usize>() as f64 / depth.len() as f64
            },
            generated_tokens: sum(|s| s.engine.total_tokens as u64),
            prefill_tokens: sum(|s| s.engine.prefill_tokens as u64),
            prefill_skipped: sum(|s| s.engine.prefix.shared_tokens),
            batched_cycles: sum(|s| s.engine.batched_total_cycles),
            energy_mj: shards
                .iter()
                .map(|s| s.engine.batched_energy_mj_per_token * s.engine.total_tokens as f64)
                .fold(0.0, |a, b| a + b),
            evictions: shards
                .iter()
                .flat_map(|s| s.engine.requests.iter())
                .map(|r| r.report.evictions as u64)
                .sum(),
            kv_reserved_peak: shards.iter().map(|s| s.kv_reserved_peak_bytes).max().unwrap_or(0),
            kv_resident_peak: shards.iter().map(|s| s.kv_resident_peak_bytes).max().unwrap_or(0),
            prefix_hits: sum(|s| s.engine.prefix.hits),
            prefix_lookups: sum(|s| s.engine.prefix.hits + s.engine.prefix.misses),
            prefix_evictions: sum(|s| s.engine.prefix.evictions),
            prefix_expiries: sum(|s| s.engine.prefix.expiries),
            prefix_spills: sum(|s| s.engine.prefix.spills),
            prefix_fills: sum(|s| s.engine.prefix.fills),
            swap_bytes: sum(|s| s.swap_in_bytes + s.swap_out_bytes),
            migration_bytes: report.migration_bytes,
            spill_bytes: sum(|s| s.prefix_spill_bytes),
            fill_bytes: sum(|s| s.prefix_fill_bytes),
            link_cycles: sum(|s| s.swap_cycles + s.prefix_transfer_cycles) + report.migration_cycles,
            digest: digest(report),
        }
    }

    /// Prompt plus generated tokens the engines ran through the model.
    pub fn tokens(&self) -> u64 {
        self.prefill_tokens + self.generated_tokens
    }

    pub fn completed_frac(&self) -> f64 {
        self.completed as f64 / self.submitted.max(1) as f64
    }

    pub fn cycles_per_token(&self) -> f64 {
        self.batched_cycles as f64 / self.generated_tokens.max(1) as f64
    }

    pub fn energy_uj_per_token(&self) -> f64 {
        1000.0 * self.energy_mj / self.generated_tokens.max(1) as f64
    }

    pub fn goodput_per_ktick(&self) -> f64 {
        1000.0 * self.completed as f64 / self.ticks.max(1) as f64
    }
}

/// FNV-1a over every request's outcome. Requests are visited in
/// request-id (arrival) order: terminal state, lifecycle ticks, token
/// count and — when the home shard's engine finished the session — its
/// generated token ids and eviction count. Sessions that finished on
/// another shard after a migration are appended per shard, in
/// completion order.
pub fn digest(report: &ClusterReport) -> u64 {
    let mut h = Fnv::default();
    let mut outcomes: BTreeMap<(usize, usize), (&RequestOutcome, bool)> = BTreeMap::new();
    for (shard, s) in report.shards.iter().enumerate() {
        for outcome in &s.engine.requests {
            outcomes.insert((shard, outcome.session.id()), (outcome, false));
        }
    }
    let mut records: Vec<(usize, &veda_serving::RequestRecord)> =
        report.shards.iter().enumerate().flat_map(|(i, s)| s.records.iter().map(move |r| (i, r))).collect();
    records.sort_by_key(|(_, r)| r.arrival);
    for (shard, r) in records {
        let state = match (r.finished, r.rejected, r.shed, r.dead_letter) {
            (Some(_), ..) => 0,
            (_, Some(_), ..) => 1,
            (_, _, Some(_), _) => 2,
            (.., Some(_)) => 3,
            _ => 4,
        };
        h.u64(r.arrival as u64);
        h.u64(state);
        for t in [Some(r.submitted), r.admitted, r.first_token, r.finished] {
            h.u64(t.map_or(u64::MAX, |t| t));
        }
        h.u64(r.generated_tokens as u64);
        let key = r.session.map(|s| (shard, s.id()));
        if let Some((outcome, claimed)) = key.and_then(|k| outcomes.get_mut(&k)) {
            if outcome.report.generated.len() == r.generated_tokens {
                *claimed = true;
                hash_outcome(&mut h, outcome);
            }
        }
    }
    for (outcome, _) in outcomes.values().filter(|(_, claimed)| !claimed) {
        hash_outcome(&mut h, outcome);
    }
    h.0
}

fn hash_outcome(h: &mut Fnv, outcome: &RequestOutcome) {
    h.u64(outcome.report.generated.len() as u64);
    for &t in &outcome.report.generated {
        h.u64(t as u64);
    }
    h.u64(outcome.report.evictions as u64);
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail of an ascending sample: the highest of p99, p90, p75 and
/// p50 with at least ten samples beyond it (p50 when even that has
/// fewer). Returns (percentile, value, samples beyond).
pub fn tail(sorted: &[u64]) -> (u32, u64, usize) {
    let n = sorted.len();
    let beyond = |p: u32| n - ((p as f64 / 100.0) * n as f64).ceil().clamp(1.0, n.max(1) as f64) as usize;
    let p = [99, 90, 75].into_iter().find(|&p| n > 0 && beyond(p) >= 10).unwrap_or(50);
    (p, percentile(sorted, p as f64), if n == 0 { 0 } else { beyond(p) })
}

/// Median of a float sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
