//! Per-layer host-time probes. Inner layers run only inside
//! `Cluster::tick`, so the benchmark times calls into each crate's public
//! functions at the shapes the traced run recorded, and multiplies per
//! call cost by the recorded call count. Every result is an estimate.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use veda::{EngineBuilder, Request};
use veda_eviction::{PolicyKind, ScoreView};
use veda_model::{ModelConfig, SequenceState, TransformerModel};
use veda_tensor::ops::{gemv_inner_into, gemv_outer_into};
use veda_tensor::softmax::softmax_in_place;
use veda_tensor::Matrix;

use crate::measure::Virt;
use crate::traced::Recorded;
use crate::workloads::Spec;
use crate::Error;

/// One pass of every probe, at the traced run's recorded shapes.
#[derive(Debug, Clone, Copy)]
pub struct Costs {
    /// `forward_with_scratch` ns per token.
    pub forward_ns: f64,
    /// `Engine::step` us per token at the recorded tokens per step.
    pub step_us: f64,
    /// Eviction-policy observe ns per layer-token (policy-weighted).
    pub observe_ns: f64,
    /// Victim selection plus KV compaction ns per eviction.
    pub evict_ns: f64,
    /// (inner, outer) gemv GMAC/s at the LM-head shape.
    pub lm_gmacs: (f64, f64),
    /// (inner, outer) gemv GMAC/s at the d×d projection shape.
    pub dd_gmacs: (f64, f64),
    pub softmax_ns: f64,
}

impl Costs {
    pub fn measure(
        spec: &Spec,
        probe: &ModelProbe,
        rec: &Recorded,
        virt: &Virt,
        median_len: usize,
    ) -> Result<Self, Error> {
        let model = &spec.model;
        // The probe's sessions all decode; prompt tokens cost a forward
        // pass each too, so the batch matches the recorded tokens per step.
        let batch = (virt.tokens() as f64 / virt.steps.max(1) as f64).round() as usize;
        let (mut observe_ns, mut evict_ns) = (0.0, 0.0);
        let by_policy = policy_tokens(&rec.decode_by_policy);
        let weight = by_policy.iter().map(|p| p.1).sum::<u64>().max(1) as f64;
        if let Some(state) = probe.median_state() {
            for (policy, n) in &by_policy {
                let (o, e) = eviction_ns(*policy, model.n_heads, state);
                observe_ns += o * *n as f64 / weight;
                evict_ns += e * *n as f64 / weight;
            }
        }
        Ok(Costs {
            forward_ns: probe.forward_ns(),
            step_us: core_step_us(spec, batch.max(1), median_len)?,
            observe_ns,
            evict_ns,
            lm_gmacs: gemv_gmacs(model.vocab_size, model.d_model),
            dd_gmacs: gemv_gmacs(model.d_model, model.d_model),
            softmax_ns: softmax_ns(median_len),
        })
    }

    /// The faster of two passes, probe by probe.
    pub fn fastest(&self, other: &Costs) -> Costs {
        let max2 = |a: (f64, f64), b: (f64, f64)| (a.0.max(b.0), a.1.max(b.1));
        Costs {
            forward_ns: self.forward_ns.min(other.forward_ns),
            step_us: self.step_us.min(other.step_us),
            observe_ns: self.observe_ns.min(other.observe_ns),
            evict_ns: self.evict_ns.min(other.evict_ns),
            lm_gmacs: max2(self.lm_gmacs, other.lm_gmacs),
            dd_gmacs: max2(self.dd_gmacs, other.dd_gmacs),
            softmax_ns: self.softmax_ns.min(other.softmax_ns),
        }
    }
}

/// Host time one probe point measures, over all its samples.
const PROBE_S: f64 = 0.03;

/// Runs `f` (which does `work` units per call) for five samples of
/// `PROBE_S / 5` each and returns the fastest sample's nanoseconds per
/// unit: the uncontended cost, so estimates built from it are lower
/// bounds on the in-run cost and `serving.self_s` an upper bound.
fn time_per_unit(work: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut units = 0u64;
        while start.elapsed().as_secs_f64() < PROBE_S / 5.0 {
            f();
            units += work;
        }
        best = best.min(start.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    best
}

/// `n` evenly spread quantiles of an ascending sample.
pub fn quantiles(sorted: &[usize], n: usize) -> Vec<usize> {
    if sorted.is_empty() {
        return Vec::new();
    }
    (0..n).map(|i| sorted[((2 * i + 1) * sorted.len()) / (2 * n)]).collect()
}

/// A model whose states have been grown to each probe length.
pub struct ModelProbe {
    pub model: TransformerModel,
    /// (cache length, state holding that many tokens), ascending.
    pub states: Vec<(usize, SequenceState)>,
}

impl ModelProbe {
    /// Builds `config`'s model and snapshots one state per length.
    pub fn new(config: &ModelConfig, lengths: &[usize]) -> Self {
        let model = TransformerModel::new(config.clone());
        let mut scratch = model.new_scratch(lengths.last().copied().unwrap_or(1) + 8);
        let mut state = model.new_state();
        let mut states = Vec::new();
        let mut rng = StdRng::seed_from_u64(7);
        for &len in lengths {
            while state.cache_len() < len {
                let pos = state.cache_len();
                model.forward_with_scratch(
                    &mut state,
                    rng.gen_range(1..config.vocab_size),
                    pos,
                    &mut scratch,
                );
            }
            states.push((len, state.clone()));
        }
        ModelProbe { model, states }
    }

    /// Mean `forward_with_scratch` nanoseconds per token over the probe
    /// lengths. Each call appends one token to the probe state, and
    /// evicting that newest row (a truncation, no data moves) restores the
    /// length for the next call.
    pub fn forward_ns(&self) -> f64 {
        let config = self.model.config();
        let mut scratch = self.model.new_scratch(self.states.last().map_or(1, |s| s.0) + 8);
        let per_length: Vec<f64> = self
            .states
            .iter()
            .map(|(len, base)| {
                let mut state = base.clone();
                let token = len % (config.vocab_size - 1) + 1;
                time_per_unit(1, || {
                    self.model.forward_with_scratch(&mut state, token, *len, &mut scratch);
                    state.evict_all_layers(*len);
                    black_box(scratch.logits());
                })
            })
            .collect();
        per_length.iter().sum::<f64>() / per_length.len().max(1) as f64
    }

    /// The state closest to the median probe length.
    pub fn median_state(&self) -> Option<&(usize, SequenceState)> {
        self.states.get(self.states.len() / 2)
    }
}

/// Drives `Engine::submit`/`Engine::step` with `batch` decoding sessions
/// at cache length `len`; returns step microseconds per generated token.
pub fn core_step_us(spec: &Spec, batch: usize, len: usize) -> Result<f64, Error> {
    const STEPS: usize = 8;
    let engine_for_probe = || -> Result<_, Error> {
        let mut engine = EngineBuilder::new().model(spec.model.clone()).build()?;
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..batch.max(1) {
            let prompt: Vec<usize> =
                (0..len.max(2)).map(|_| rng.gen_range(1..spec.model.vocab_size)).collect();
            engine.submit(
                Request::new(prompt, STEPS + 2).policy(spec.mix.policy(i)).budget(spec.mix.budget(i)),
            )?;
        }
        Ok(engine)
    };
    // Fastest of at least five samples, as in `time_per_unit`.
    let mut best = f64::INFINITY;
    let mut samples = 0;
    let start = Instant::now();
    while samples < 5 || start.elapsed().as_secs_f64() < PROBE_S {
        let mut engine = engine_for_probe()?;
        let t0 = Instant::now();
        let mut tokens = 0;
        for _ in 0..STEPS {
            tokens += engine.step().decode_tokens;
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e6 / tokens.max(1) as f64);
        samples += 1;
    }
    Ok(best)
}

/// GMAC/s of the in-place gemv kernels: `(inner, outer)` for a
/// `rows × cols` matrix (outer runs over its `cols × rows` transpose, so
/// both produce `rows` outputs from a `cols`-long input).
pub fn gemv_gmacs(rows: usize, cols: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut fill = |n: usize| (0..n).map(|_| rng.gen::<f32>() - 0.5).collect::<Vec<f32>>();
    let m = Matrix::from_vec(rows, cols, fill(rows * cols)).unwrap_or_else(|_| Matrix::zeros(rows, cols));
    let mt = m.transposed();
    let x = fill(cols);
    let mut out = Vec::with_capacity(rows);
    let macs = (rows * cols) as u64;
    let inner = time_per_unit(macs, || {
        gemv_inner_into(&x, &m, &mut out);
        black_box(&out);
    });
    let outer = time_per_unit(macs, || {
        gemv_outer_into(&x, &mt, &mut out);
        black_box(&out);
    });
    (1.0 / inner, 1.0 / outer)
}

/// Nanoseconds of one `softmax_in_place` over `len` scores.
pub fn softmax_ns(len: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    let template: Vec<f32> = (0..len.max(1)).map(|_| rng.gen::<f32>() * 4.0).collect();
    let mut x = template.clone();
    time_per_unit(1, || {
        x.copy_from_slice(&template);
        softmax_in_place(&mut x);
        black_box(&x);
    })
}

/// Per-policy eviction costs at cache length `len` with `n_heads`
/// heads: `(observe ns, evict ns)` per layer-token, where observe is
/// `on_append` + `observe` and evict is `select_victim` + `on_evict` +
/// one `SequenceState::evict_many` victim, per layer.
pub fn eviction_ns(policy: PolicyKind, n_heads: usize, state: &(usize, SequenceState)) -> (f64, f64) {
    let (len, base) = state;
    let len = (*len).max(2);
    let mut rng = StdRng::seed_from_u64(9);
    let scores: Vec<f32> = (0..n_heads * (len + 1)).map(|_| rng.gen::<f32>() / len as f32).collect();
    let warm = |p: &mut Box<dyn veda_eviction::EvictionPolicy>| {
        for i in 1..=len {
            p.on_append();
            p.observe(ScoreView::new(&scores[..n_heads * i], n_heads));
        }
    };
    let mut observe_policy = policy.build();
    warm(&mut observe_policy);
    let observe = time_per_unit(1, || {
        observe_policy.on_append();
        observe_policy.observe(ScoreView::new(&scores, n_heads));
        // Keep the tracked length fixed so every call sees `len + 1`; a
        // policy that refuses to pick a victim drops the newest slot.
        let slot = observe_policy.select_victim(len + 1).unwrap_or(len);
        observe_policy.on_evict(slot);
    });
    let mut select_policy = policy.build();
    warm(&mut select_policy);
    let select = time_per_unit(1, || {
        if let Some(slot) = select_policy.select_victim(len + 1) {
            black_box(slot);
        }
    });
    let layers = base.n_layers().max(1);
    let mut state = base.clone();
    let copy = time_per_unit(1, || {
        state.clone_from(base);
        black_box(&state);
    });
    let evict = time_per_unit(1, || {
        state.clone_from(base);
        for layer in 0..layers {
            state.evict_many(layer, &[len / 2]);
        }
        black_box(&state);
    });
    let evict_per_layer = ((evict - copy) / layers as f64).max(0.0);
    // `observe` includes one select + on_evict; split it back out.
    ((observe - select).max(0.0), select + evict_per_layer)
}

/// Forward-pass multiply-accumulates and bytes touched (weights plus
/// KV cache, at f32) for one token at cache length `len`. Computed from
/// tensor sizes, not measured.
pub fn macs_and_bytes(config: &ModelConfig, len: usize) -> (f64, f64) {
    let (d, f, v, n) =
        (config.d_model as f64, config.ffn_hidden as f64, config.vocab_size as f64, config.n_layers as f64);
    let l = len as f64 + 1.0;
    let per_layer_macs = 4.0 * d * d + 3.0 * d * f + 2.0 * l * d;
    let macs = n * per_layer_macs + v * d;
    let weight_bytes = 4.0 * (n * (4.0 * d * d + 3.0 * d * f + 2.0 * d) + v * d + d);
    let kv_bytes = 4.0 * n * 2.0 * l * d;
    (macs, weight_bytes + kv_bytes)
}

/// Share of each policy in a token count map, as (policy, tokens).
pub fn policy_tokens(by_name: &BTreeMap<&'static str, u64>) -> Vec<(PolicyKind, u64)> {
    by_name.iter().filter_map(|(name, &n)| name.parse::<PolicyKind>().ok().map(|p| (p, n))).collect()
}
