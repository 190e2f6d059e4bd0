//! The traced run's instruments, all owned by the benchmark: host-time
//! spans around the calls it makes into each layer, and a `TraceSink`
//! that counts lifecycle events by kind and records the shapes the
//! per-layer probes replay (batch compositions, cache lengths, prefill
//! chunks, evictions).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use veda_accel::{CycleReport, DecodeScheduler, PrefillChunk};
use veda_serving::{SinkHandle, TraceEvent, TraceEventKind, TraceSink};

use crate::workloads::{self, Spec};
use crate::Error;

/// One host-time span: a call from the benchmark into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// In-memory span store, written out once the run ends.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.origin.elapsed().as_nanos() as u64;
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Total host seconds of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.end_ns - s.start_ns) as f64).sum::<f64>()
            / 1e9
    }

    /// Durations of the spans called `name`, in nanoseconds, ascending.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_ns - s.start_ns).collect();
        v.sort_unstable();
        v
    }

    /// The spans as a JSON array (name, start/end ns, parent index).
    /// Spans made here wrap calls that serve no single request, so they
    /// carry no request id; per-request lifecycles are the sink's events.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

/// One engine step as reconstructed from its trace events.
#[derive(Debug, Clone, Default)]
pub struct Step {
    pub shard: u32,
    /// Engine cycle clock stamped on the step's events (after the step).
    pub cycles_after: u64,
    pub chunks: Vec<PrefillChunk>,
    /// Costed cache length of each decoding session, in session order.
    pub decode_lens: Vec<usize>,
}

#[derive(Debug, Clone, Default)]
struct RequestState {
    prompt_len: usize,
    /// Decode steps taken in the current attempt.
    decoded: usize,
}

/// What the sink records.
#[derive(Debug, Default)]
pub struct Recorded {
    /// Events by kind label.
    pub counts: BTreeMap<&'static str, u64>,
    pub steps: Vec<Step>,
    /// Decode tokens by eviction policy.
    pub decode_by_policy: BTreeMap<&'static str, u64>,
    requests: Vec<RequestState>,
    current: Option<(u32, u64)>,
}

impl Recorded {
    pub fn events(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Cache length (before the token) of every decode token recorded.
    pub fn decode_lens(&self) -> impl Iterator<Item = usize> + '_ {
        self.steps.iter().flat_map(|s| s.decode_lens.iter().copied())
    }

    /// Cache length at which every on-clock prompt token ran.
    pub fn prefill_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.steps.iter().flat_map(|s| s.chunks.iter().flat_map(|c| c.start_len..c.start_len + c.tokens))
    }
}

/// The benchmark's trace sink; the recording is shared with the caller.
pub struct BenchSink {
    spec: Spec,
    shared: Arc<Mutex<Recorded>>,
}

impl BenchSink {
    /// A handle to install on the cluster plus the shared recording.
    pub fn install(spec: &Spec) -> (SinkHandle, Arc<Mutex<Recorded>>) {
        let shared = Arc::new(Mutex::new(Recorded::default()));
        (SinkHandle::new(BenchSink { spec: spec.clone(), shared: shared.clone() }), shared)
    }
}

impl TraceSink for BenchSink {
    fn record(&mut self, event: &TraceEvent) {
        let Ok(mut rec) = self.shared.lock() else { return };
        let rec = &mut *rec;
        *rec.counts.entry(event.kind.label()).or_insert(0) += 1;
        let id = event.request as usize;
        match event.kind {
            TraceEventKind::Submitted { prompt_tokens, .. } => {
                *rec.request(id) = RequestState { prompt_len: prompt_tokens as usize, decoded: 0 };
            }
            // Every attempt (first or retried) restarts from the prompt.
            TraceEventKind::Admitted { .. } => rec.request(id).decoded = 0,
            TraceEventKind::FirstToken | TraceEventKind::DecodeTick { .. } => {
                let RequestState { prompt_len, decoded } = rec.request(id).clone();
                rec.request(id).decoded += 1;
                // The engine costs a decode step at the resident cache
                // length clamped to the request's budget; prefill never
                // evicts, so that is min(prompt + tokens so far, cap).
                let cap = workloads::resident_cap(&self.spec, id, prompt_len);
                *rec.decode_by_policy.entry(self.spec.mix.policy(id).as_str()).or_insert(0) += 1;
                rec.step(event).decode_lens.push((prompt_len + decoded).min(cap).max(1));
            }
            TraceEventKind::PrefillChunk { tokens, remaining } => {
                let (tokens, remaining) = (tokens as usize, remaining as usize);
                let prompt_len = rec.request(id).prompt_len;
                rec.step(event).chunks.push(PrefillChunk {
                    start_len: prompt_len.saturating_sub(remaining + tokens),
                    tokens,
                    completes_prompt: remaining == 0,
                });
            }
            _ => {}
        }
    }
}

impl Recorded {
    fn request(&mut self, id: usize) -> &mut RequestState {
        if self.requests.len() <= id {
            self.requests.resize(id + 1, RequestState::default());
        }
        &mut self.requests[id]
    }

    /// The step `event` belongs to: one engine step per (shard, tick).
    fn step(&mut self, event: &TraceEvent) -> &mut Step {
        let key = (event.shard, event.tick);
        if self.current != Some(key) || self.steps.is_empty() {
            self.current = Some(key);
            self.steps.push(Step { shard: event.shard, ..Step::default() });
        }
        let step = self.steps.len() - 1;
        self.steps[step].cycles_after = event.cycles;
        &mut self.steps[step]
    }
}

/// Replays every recorded step through `scheduler`, returning the
/// per-component cycle totals, the total, and the host seconds the
/// replay took. Fails if any step's replayed cycles differ from the
/// cycles the engine charged for it.
pub fn replay(
    scheduler: &DecodeScheduler,
    steps: &[Step],
) -> Result<(BTreeMap<&'static str, u64>, u64, f64), Error> {
    let mut components: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total = 0u64;
    let mut last_stamp: BTreeMap<u32, u64> = BTreeMap::new();
    let mut host_s = 0.0;
    for (i, step) in steps.iter().enumerate() {
        let t0 = Instant::now();
        let report: CycleReport = scheduler.mixed_batch(&step.chunks, &step.decode_lens);
        host_s += t0.elapsed().as_secs_f64();
        let before = last_stamp.insert(step.shard, step.cycles_after).unwrap_or(0);
        let charged =
            step.cycles_after.checked_sub(before).ok_or("accel replay: engine cycle clock ran backwards")?;
        if report.total_cycles != charged {
            return Err(format!(
                "accel replay: step {i} on shard {} replays to {} cycles, the engine charged {charged}",
                step.shard, report.total_cycles
            )
            .into());
        }
        total += report.total_cycles;
        for (name, cycles) in report.components {
            *components.entry(name).or_insert(0) += cycles;
        }
    }
    Ok((components, total, host_s))
}
