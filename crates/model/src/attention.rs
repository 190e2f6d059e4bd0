//! Multi-head attention with a pluggable KV cache, computed with the two
//! GEMV interpretations VEDA maps to hardware.
//!
//! One query row per call: the row attends over all resident cache
//! entries (`q × Kᵀ` as inner products over `(l, d)` rows) and aggregates
//! values (`s' × V` as an outer product over `(l, d)` rows). The per-head
//! post-softmax score vectors are returned so eviction policies and the
//! voting engine can observe them.

use crate::config::ModelConfig;
use crate::kvcache::LayerKvCache;
use crate::rope::{apply_rope_table, extend_rope_table};
use crate::weights::LayerWeights;
use veda_eviction::ScoreView;
use veda_tensor::ops::{dot, gemv_outer};
use veda_tensor::softmax::softmax_in_place;

/// Result of one attention step.
#[derive(Debug, Clone)]
pub struct AttentionOutput {
    /// The attention output after the `W_O` projection, length `D`.
    pub output: Vec<f32>,
    /// Post-softmax attention scores per head over all resident cache
    /// slots (including the current token's own new entry).
    pub head_scores: Vec<Vec<f32>>,
}

/// The per-row core of one layer's attention, between the QKV and `W_O`
/// projections (which the caller batches across rows): rotates the row's
/// query and key (`qkv`, `d_model` each, heads of `dh` channels) by the
/// position's RoPE table, appends the key/value to `cache` — so the row
/// attends to itself and to every earlier row — and writes the
/// head-major post-softmax scores over all resident slots into `scores`
/// (cleared first) and the concatenated per-head outputs into `concat`
/// (`d_model`, accumulated onto its contents, which the caller zeroes).
/// Allocation-free once `scores` and the cache have capacity.
pub(crate) fn attend_row(
    cache: &mut LayerKvCache,
    position: usize,
    rope: &[(f32, f32)],
    dh: usize,
    (q, k, v): (&mut [f32], &mut [f32], &[f32]),
    scores: &mut Vec<f32>,
    concat: &mut [f32],
) {
    for (qh, kh) in q.chunks_exact_mut(dh).zip(k.chunks_exact_mut(dh)) {
        apply_rope_table(qh, rope);
        apply_rope_table(kh, rope);
    }
    cache.append(position, k, v);
    let scale = 1.0 / (dh as f32).sqrt();

    scores.clear();
    for (h, (qh, out)) in q.chunks_exact(dh).zip(concat.chunks_exact_mut(dh)).enumerate() {
        let span = h * dh..(h + 1) * dh;
        // q × Kᵀ: inner product over the (l, d) key rows — l is temporal.
        let start = scores.len();
        scores.extend(cache.keys().iter_rows().map(|key| dot(qh, &key[span.clone()]) * scale));
        let (_, head) = scores.split_at_mut(start);
        softmax_in_place(head);
        // s' × V: outer product over the (l, d) value rows — l is temporal.
        for (&sv, value) in head.iter().zip(cache.values().iter_rows()) {
            for (a, &vv) in out.iter_mut().zip(&value[span.clone()]) {
                *a += sv * vv;
            }
        }
    }
}

/// Runs one attention step for a single layer (allocating convenience
/// wrapper over the crate-internal `attend_row` kernel).
///
/// `x` is the RMS-normed hidden state of the current token, `position` its
/// absolute index. The token's K/V vectors are appended to `cache` before
/// attending, so causality holds and the score vectors have length
/// `cache.len()`.
pub fn attend(
    x: &[f32],
    position: usize,
    cache: &mut LayerKvCache,
    w: &LayerWeights,
    config: &ModelConfig,
) -> AttentionOutput {
    assert_eq!(x.len(), config.d_model, "hidden state width mismatch");
    let mut q = gemv_outer(x, &w.wq);
    let mut k = gemv_outer(x, &w.wk);
    let v = gemv_outer(x, &w.wv);
    let mut rope = Vec::new();
    extend_rope_table(position, config.head_dim(), config.rope_theta, &mut rope);
    let mut scores = Vec::new();
    let mut concat = vec![0.0; config.d_model];
    let dh = config.head_dim();
    attend_row(cache, position, &rope, dh, (&mut q, &mut k, &v), &mut scores, &mut concat);
    let head_scores = ScoreView::new(&scores, config.n_heads).heads().map(<[f32]>::to_vec).collect();
    AttentionOutput { output: gemv_outer(&concat, &w.wo), head_scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::ModelWeights;

    fn setup() -> (ModelConfig, ModelWeights, LayerKvCache) {
        let cfg = ModelConfig::tiny();
        let w = ModelWeights::synthetic(&cfg);
        (cfg, w, LayerKvCache::new())
    }

    #[test]
    fn scores_are_distributions_over_cache() {
        let (cfg, w, mut cache) = setup();
        let x = w.embed(5);
        for pos in 0..4 {
            let out = attend(&x, pos, &mut cache, &w.layers[0], &cfg);
            assert_eq!(out.head_scores.len(), cfg.n_heads);
            for s in &out.head_scores {
                assert_eq!(s.len(), pos + 1);
                let sum: f32 = s.iter().sum();
                assert!((sum - 1.0).abs() < 1e-4, "scores sum to {sum}");
            }
        }
    }

    #[test]
    fn first_token_attends_only_to_itself() {
        let (cfg, w, mut cache) = setup();
        let x = w.embed(3);
        let out = attend(&x, 0, &mut cache, &w.layers[0], &cfg);
        for s in &out.head_scores {
            assert!((s[0] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn output_width_is_d_model() {
        let (cfg, w, mut cache) = setup();
        let x = w.embed(1);
        let out = attend(&x, 0, &mut cache, &w.layers[0], &cfg);
        assert_eq!(out.output.len(), cfg.d_model);
        assert!(out.output.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cache_grows_by_one_per_step() {
        let (cfg, w, mut cache) = setup();
        let x = w.embed(2);
        for pos in 0..5 {
            attend(&x, pos, &mut cache, &w.layers[0], &cfg);
            assert_eq!(cache.len(), pos + 1);
        }
    }

    #[test]
    fn eviction_changes_attention_output() {
        let (cfg, w, _) = setup();
        let tokens = [5usize, 9, 13, 21, 2, 40];
        // Run with full cache.
        let mut full = LayerKvCache::new();
        let mut full_out = Vec::new();
        for (pos, &t) in tokens.iter().enumerate() {
            full_out = attend(&w.embed(t), pos, &mut full, &w.layers[0], &cfg).output;
        }
        // Run with one mid-entry evicted before the last step.
        let mut pruned = LayerKvCache::new();
        let mut pruned_out = Vec::new();
        for (pos, &t) in tokens.iter().enumerate() {
            if pos == tokens.len() - 1 {
                pruned.evict(2);
            }
            pruned_out = attend(&w.embed(t), pos, &mut pruned, &w.layers[0], &cfg).output;
        }
        let diff = veda_tensor::ops::max_abs_diff(&full_out, &pruned_out);
        assert!(diff > 1e-6, "eviction must perturb the output, diff {diff}");
    }

    #[test]
    fn attention_sink_emerges_on_bos() {
        // With the structured weights, later queries put above-uniform mass
        // on position 0 when the sequence starts with BOS (token 0).
        let (cfg, w, mut cache) = setup();
        let seq = [0usize, 17, 33, 21, 9, 41, 25, 13];
        let mut sink_mass = 0.0;
        let mut steps = 0;
        for (pos, &t) in seq.iter().enumerate() {
            let out = attend(&w.embed(t), pos, &mut cache, &w.layers[0], &cfg);
            if pos >= 4 {
                for s in &out.head_scores {
                    sink_mass += s[0];
                    steps += 1;
                }
            }
        }
        let avg = sink_mass / steps as f32;
        let uniform = 1.0 / 6.0; // average cache length in the measured span
        assert!(avg > uniform, "sink mass {avg} should exceed uniform {uniform}");
    }
}
