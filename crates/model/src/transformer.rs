//! The decoder-only transformer: prefill + autoregressive decode with
//! per-layer KV caches and eviction hooks.

use crate::attention::attend_row;
use crate::config::ModelConfig;
use crate::kvcache::LayerKvCache;
use crate::rope::extend_rope_table;
use crate::scratch::{ForwardScratch, ScoreBuffer};
use crate::weights::ModelWeights;
use veda_eviction::ScoreView;
use veda_tensor::norm::rmsnorm_rows_into;
use veda_tensor::ops::gemm_outer_into;
use veda_tensor::softmax::log_softmax;

/// Most rows one layer-major pass of [`TransformerModel::forward_batch`]
/// carries: longer row lists run as consecutive passes, which bounds the
/// activation buffers (a 4k-token prompt does not materialize 4k rows of
/// FFN activations) while still streaming each weight matrix once per
/// 64 rows.
pub const MAX_PASS_ROWS: usize = 64;

/// One row of a [`TransformerModel::forward_batch`] call: token `token`
/// at absolute position `position` of the sequence `states[seq]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRow {
    /// Index of the row's sequence in the call's state slice.
    pub seq: usize,
    /// Input token.
    pub token: usize,
    /// Absolute position of the token in its sequence.
    pub position: usize,
    /// Whether to compute this row's next-token logits (the tied LM
    /// head runs only for such rows).
    pub wants_logits: bool,
}

/// Result of one full forward step (all layers).
#[derive(Debug, Clone)]
pub struct StepOutput {
    /// Next-token logits, length `vocab_size`.
    pub logits: Vec<f32>,
    /// Per-layer, per-head post-softmax attention scores over the resident
    /// cache slots — the observation stream for eviction policies. Stored
    /// flat; `scores.layer(l)` yields the [`veda_eviction::ScoreView`]
    /// policies observe.
    pub scores: ScoreBuffer,
}

/// Per-sequence decoding state: the per-layer KV caches of one sequence.
///
/// Weights live in [`TransformerModel`] and are shared; each concurrent
/// sequence (a serving-engine session) owns exactly one `SequenceState`,
/// which is cheap to create and to free. [`TransformerModel::forward_in`]
/// advances a sequence against the shared weights.
#[derive(Debug, Clone, Default)]
pub struct SequenceState {
    caches: Vec<LayerKvCache>,
}

/// Lets [`TransformerModel::forward_batch`] take plain states as well as
/// caller types that own one.
impl AsMut<SequenceState> for SequenceState {
    fn as_mut(&mut self) -> &mut SequenceState {
        self
    }
}

impl SequenceState {
    /// Creates empty per-layer caches for `n_layers` layers.
    pub fn new(n_layers: usize) -> Self {
        Self { caches: (0..n_layers).map(|_| LayerKvCache::new()).collect() }
    }

    /// Number of layers this state tracks.
    pub fn n_layers(&self) -> usize {
        self.caches.len()
    }

    /// The per-layer KV caches (read-only).
    pub fn caches(&self) -> &[LayerKvCache] {
        &self.caches
    }

    /// Current cache length (identical across layers by construction).
    pub fn cache_len(&self) -> usize {
        self.caches.first().map_or(0, LayerKvCache::len)
    }

    /// Evicts cache slot `slot` in layer `layer`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of bounds.
    pub fn evict(&mut self, layer: usize, slot: usize) {
        self.caches[layer].evict(slot);
    }

    /// Evicts several cache slots of one layer in a single compaction
    /// pass (see [`LayerKvCache::evict_many`]). `sorted_slots` must be
    /// strictly ascending.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of bounds or unsorted.
    pub fn evict_many(&mut self, layer: usize, sorted_slots: &[usize]) {
        self.caches[layer].evict_many(sorted_slots);
    }

    /// Evicts the same slot in every layer (layer-synchronous eviction).
    pub fn evict_all_layers(&mut self, slot: usize) {
        for cache in &mut self.caches {
            cache.evict(slot);
        }
    }

    /// Reserves KV storage in every layer for `tokens` total resident
    /// rows of `width` features, so prefill and steady-state decode never
    /// reallocate mid-growth.
    pub fn reserve(&mut self, tokens: usize, width: usize) {
        for cache in &mut self.caches {
            cache.reserve(tokens, width);
        }
    }

    /// Seeds every layer of an empty state with the first `rows` resident
    /// rows of `source`, marked as a shared prefix span (see
    /// [`LayerKvCache::seed_from`]): the engine's prefix cache uses this
    /// to start a session from a cached shared-prefix KV without
    /// re-running prefill. The shared rows are excluded from
    /// [`SequenceState::fp16_bytes`] (they are resident once, in the cache
    /// entry) until an eviction inside the span privatizes them.
    ///
    /// # Panics
    ///
    /// Panics if the states' layer counts disagree, any layer is
    /// non-empty, or `rows` exceeds the source's cache length.
    pub fn seed_from(&mut self, source: &SequenceState, rows: usize) {
        assert_eq!(self.n_layers(), source.n_layers(), "seed_from layer count mismatch");
        for (cache, src) in self.caches.iter_mut().zip(&source.caches) {
            cache.seed_from(src, rows);
        }
    }

    /// Leading rows (identical across layers until a per-layer eviction
    /// privatizes a span) referenced from a shared prefix-cache entry in
    /// layer 0 — diagnostic for accounting tests.
    pub fn shared_len(&self) -> usize {
        self.caches.first().map_or(0, LayerKvCache::shared_len)
    }

    /// Converts all shared spans into privately owned rows (see
    /// [`LayerKvCache::clear_shared_marker`]).
    pub fn clear_shared_marker(&mut self) {
        for cache in &mut self.caches {
            cache.clear_shared_marker();
        }
    }

    /// FP16 bytes the sequence *privately owns* off-chip — excludes
    /// shared prefix spans, which are resident once in their prefix-cache
    /// entry and only referenced here.
    pub fn fp16_bytes(&self) -> usize {
        self.caches.iter().map(LayerKvCache::fp16_bytes).sum()
    }

    /// FP16 bytes of the shared prefix spans this sequence references
    /// across all layers (0 when nothing is shared).
    pub fn shared_fp16_bytes(&self) -> usize {
        self.caches.iter().map(LayerKvCache::shared_fp16_bytes).sum()
    }

    /// Total FP16 bytes of all resident rows, owned and shared — the
    /// attention-streaming footprint.
    pub fn total_fp16_bytes(&self) -> usize {
        self.caches.iter().map(LayerKvCache::total_fp16_bytes).sum()
    }

    /// Clears all caches (start over / free the sequence's KV memory).
    pub fn clear(&mut self) {
        for cache in &mut self.caches {
            cache.clear();
        }
    }
}

/// A runnable decoder-only transformer with synthetic structured weights.
///
/// The struct owns the *shared* substrate (config + weights) plus one
/// built-in [`SequenceState`] so the classic single-sequence API
/// ([`TransformerModel::forward_token`], [`TransformerModel::prefill`], …)
/// keeps working. Serving engines that decode many sequences against one
/// set of weights allocate extra states via [`TransformerModel::new_state`]
/// and drive them all at once through [`TransformerModel::forward_batch`]
/// (or one token at a time through [`TransformerModel::forward_in`]).
///
/// ```
/// use veda_model::{ModelConfig, TransformerModel};
/// let mut m = TransformerModel::new(ModelConfig::tiny());
/// let out = m.forward_token(1, 0);
/// assert_eq!(out.logits.len(), m.config().vocab_size);
///
/// // Two independent sequences against the same weights:
/// let (mut a, mut b) = (m.new_state(), m.new_state());
/// m.forward_in(&mut a, 1, 0);
/// m.forward_in(&mut b, 2, 0);
/// assert_eq!(a.cache_len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TransformerModel {
    config: ModelConfig,
    weights: ModelWeights,
    state: SequenceState,
    eps: f32,
}

/// `out = x · m` for every row of `x`, through the row-batched GEMM
/// seeded at `0.0` (the `gemv_outer` accumulation order).
fn project(x: &[f32], m: &veda_tensor::Matrix, out: &mut Vec<f32>) {
    out.clear();
    out.resize(x.len() / m.rows() * m.cols(), 0.0);
    gemm_outer_into(x, m, 0.0, out);
}

impl TransformerModel {
    /// Builds a model with synthetic structured weights for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: ModelConfig) -> Self {
        config.validate().expect("valid model config");
        let weights = ModelWeights::synthetic(&config);
        let state = SequenceState::new(config.n_layers);
        Self { config, weights, state, eps: veda_tensor::norm::DEFAULT_EPS }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Creates a fresh per-sequence state sized for this model.
    pub fn new_state(&self) -> SequenceState {
        SequenceState::new(self.config.n_layers)
    }

    /// The built-in sequence's per-layer KV caches (read-only).
    pub fn caches(&self) -> &[LayerKvCache] {
        self.state.caches()
    }

    /// Current cache length of the built-in sequence.
    pub fn cache_len(&self) -> usize {
        self.state.cache_len()
    }

    /// Evicts cache slot `slot` in layer `layer` of the built-in sequence.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of bounds.
    pub fn evict(&mut self, layer: usize, slot: usize) {
        self.state.evict(layer, slot);
    }

    /// Evicts the same slot in every layer (layer-synchronous eviction).
    pub fn evict_all_layers(&mut self, slot: usize) {
        self.state.evict_all_layers(slot);
    }

    /// Clears the built-in sequence's caches (new sequence).
    pub fn reset(&mut self) {
        self.state.clear();
    }

    /// Runs one token of the built-in sequence through all layers,
    /// returning logits and the attention observations.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn forward_token(&mut self, token: usize, position: usize) -> StepOutput {
        // Validate before the take below: a panic must not leave the
        // built-in state swapped out (a recovered caller would silently
        // continue on an empty cache).
        assert!(token < self.config.vocab_size, "token {token} outside vocabulary");
        let mut state = std::mem::take(&mut self.state);
        let out = self.forward_in(&mut state, token, position);
        self.state = state;
        out
    }

    /// Creates a [`ForwardScratch`] pre-sized for this model's geometry
    /// (`seq_hint` pre-sizes the score buffer for an expected resident
    /// cache length).
    pub fn new_scratch(&self, seq_hint: usize) -> ForwardScratch {
        ForwardScratch::for_config(&self.config, seq_hint)
    }

    /// Runs one token of an arbitrary sequence through all layers against
    /// the shared weights (allocating convenience wrapper over
    /// [`TransformerModel::forward_with_scratch`]). The model itself is
    /// untouched (`&self`), so any number of sequences can interleave
    /// steps.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary or the state's layer
    /// count disagrees with the model.
    pub fn forward_in(&self, state: &mut SequenceState, token: usize, position: usize) -> StepOutput {
        let mut scratch = ForwardScratch::new();
        self.forward_with_scratch(state, token, position, &mut scratch);
        StepOutput {
            logits: std::mem::take(&mut scratch.logits),
            scores: std::mem::take(&mut scratch.scores),
        }
    }

    /// Runs one token of an arbitrary sequence through all layers against
    /// the shared weights, reusing `scratch` for every intermediate buffer
    /// — the zero-allocation decode hot path. After the call
    /// [`ForwardScratch::logits`] holds the next-token logits and
    /// [`ForwardScratch::scores`] the step's attention observations.
    ///
    /// A one-row [`TransformerModel::forward_batch`] with logits on,
    /// collecting every layer's scores.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary or the state's layer
    /// count disagrees with the model.
    pub fn forward_with_scratch(
        &self,
        state: &mut SequenceState,
        token: usize,
        position: usize,
        scratch: &mut ForwardScratch,
    ) {
        let row = BatchRow { seq: 0, token, position, wants_logits: true };
        let mut scores = std::mem::take(&mut scratch.scores);
        scores.clear();
        self.forward_batch(std::slice::from_mut(state), &[row], scratch, |_, _, _, layer| {
            scores.push_layer(layer)
        });
        scratch.scores = scores;
    }

    /// Runs a batch of rows through all layers, **layer-major**: every
    /// layer's weight matrices are streamed once for all rows (row-batched
    /// outer-product GEMMs), then each row attends in row order. Rows
    /// index into `states`; a sequence's rows must be consecutive
    /// positions in ascending order (a prefill chunk), though they may
    /// interleave with other sequences' rows. Each row is appended to its
    /// caches before it attends, so a chunk's causal attention — and
    /// every row's bits — equal sequential one-row
    /// [`TransformerModel::forward_with_scratch`] calls in row order.
    ///
    /// `observe(state, row, layer, scores)` receives each row's
    /// post-softmax scores for each layer, with the row's sequence, as
    /// soon as the row has attended in that layer: layer-major, rows in
    /// order within a layer. Per layer, a sequence's observations
    /// therefore arrive in position order, which is all a per-layer
    /// eviction policy can see. The tied LM head runs
    /// only for rows with [`BatchRow::wants_logits`]; their logits are
    /// then readable through [`ForwardScratch::row_logits`], in row order.
    /// Row lists longer than [`MAX_PASS_ROWS`] run as consecutive passes.
    ///
    /// # Panics
    ///
    /// Panics if a token is outside the vocabulary, a row's `seq` is out
    /// of bounds, or a state's layer count disagrees with the model.
    pub fn forward_batch<S, F>(
        &self,
        states: &mut [S],
        rows: &[BatchRow],
        scratch: &mut ForwardScratch,
        mut observe: F,
    ) where
        S: AsMut<SequenceState>,
        F: FnMut(&mut S, &BatchRow, usize, ScoreView<'_>),
    {
        for row in rows {
            assert!(row.token < self.config.vocab_size, "token {} outside vocabulary", row.token);
            assert!(
                row.seq < states.len(),
                "row sequence {} out of bounds ({} states)",
                row.seq,
                states.len()
            );
        }
        for state in states.iter_mut() {
            let state = state.as_mut();
            if state.caches.is_empty() {
                // Allow `SequenceState::default()` to be used directly.
                *state = self.new_state();
            }
            assert_eq!(state.n_layers(), self.config.n_layers, "sequence state layer count mismatch");
        }
        scratch.vocab = self.config.vocab_size;
        scratch.logits.clear();
        for pass in rows.chunks(MAX_PASS_ROWS) {
            self.forward_pass(states, pass, scratch, &mut observe);
        }
    }

    /// One layer-major pass of [`TransformerModel::forward_batch`] over at
    /// most [`MAX_PASS_ROWS`] validated rows; appends the requested logits.
    fn forward_pass<S, F>(&self, states: &mut [S], rows: &[BatchRow], s: &mut ForwardScratch, observe: &mut F)
    where
        S: AsMut<SequenceState>,
        F: FnMut(&mut S, &BatchRow, usize, ScoreView<'_>),
    {
        let cfg = &self.config;
        let (d, dh) = (cfg.d_model, cfg.head_dim());
        s.hidden.clear();
        s.hidden.resize(rows.len() * d, 0.0);
        s.rope.clear();
        for (row, hidden) in rows.iter().zip(s.hidden.chunks_exact_mut(d)) {
            self.weights.embed_into(row.token, hidden);
            extend_rope_table(row.position, dh, cfg.rope_theta, &mut s.rope);
        }

        for (li, w) in self.weights.layers.iter().enumerate() {
            // Attention block with pre-norm residual: QKV for all rows,
            // then each row attends in order, then W_O for all rows.
            rmsnorm_rows_into(&s.hidden, d, &w.attn_norm, self.eps, &mut s.normed);
            project(&s.normed, &w.wq, &mut s.q);
            project(&s.normed, &w.wk, &mut s.k);
            project(&s.normed, &w.wv, &mut s.v);
            s.concat.clear();
            s.concat.resize(rows.len() * d, 0.0);
            let per_row =
                s.q.chunks_exact_mut(d)
                    .zip(s.k.chunks_exact_mut(d))
                    .zip(s.v.chunks_exact(d))
                    .zip(s.concat.chunks_exact_mut(d).zip(s.rope.chunks_exact(dh / 2)));
            for (row, (((q, k), v), (concat, rope))) in rows.iter().zip(per_row) {
                let state = &mut states[row.seq];
                let cache = &mut state.as_mut().caches[li];
                attend_row(cache, row.position, rope, dh, (q, k, v), &mut s.row_scores, concat);
                observe(state, row, li, ScoreView::new(&s.row_scores, cfg.n_heads));
            }
            project(&s.concat, &w.wo, &mut s.attn_out);
            for (xi, oi) in s.hidden.iter_mut().zip(&s.attn_out) {
                *xi += oi;
            }

            // FFN block with pre-norm residual (Step 4 of Fig. 1).
            rmsnorm_rows_into(&s.hidden, d, &w.ffn_norm, self.eps, &mut s.normed);
            project(&s.normed, &w.w1, &mut s.gate);
            cfg.activation.apply_slice(&mut s.gate);
            project(&s.normed, &w.w3, &mut s.up);
            // Hadamard gate ∘ up, in place in the gate buffer.
            for (g, &u) in s.gate.iter_mut().zip(&s.up) {
                *g *= u;
            }
            project(&s.gate, &w.w2, &mut s.down);
            for (xi, di) in s.hidden.iter_mut().zip(&s.down) {
                *xi += di;
            }
        }

        // Tied LM head, only for the rows whose logits are read: the
        // outer product over the (D, V) embedding, seeded at -0.0 so
        // every logit is bit-identical to `dot(x, embedding row)`.
        s.head_in.clear();
        for (row, hidden) in rows.iter().zip(s.hidden.chunks_exact(d)) {
            if row.wants_logits {
                s.head_in.extend_from_slice(hidden);
            }
        }
        rmsnorm_rows_into(&s.head_in, d, &self.weights.final_norm, self.eps, &mut s.normed);
        let start = s.logits.len();
        s.logits.resize(start + s.head_in.len() / d * cfg.vocab_size, 0.0);
        let (_, logits) = s.logits.split_at_mut(start);
        gemm_outer_into(&s.normed, &self.weights.embedding, -0.0, logits);
    }

    /// Prefills a prompt (GEMM realized as successive GEMVs, as VEDA does),
    /// returning the output of the final prompt token.
    pub fn prefill(&mut self, prompt: &[usize]) -> Option<StepOutput> {
        let mut last = None;
        for (pos, &t) in prompt.iter().enumerate() {
            last = Some(self.forward_token(t, pos));
        }
        last
    }

    /// Greedy generation of `n` tokens after `prompt`. Returns the
    /// generated token ids.
    pub fn generate_greedy(&mut self, prompt: &[usize], n: usize) -> Vec<usize> {
        let mut rng = veda_tensor::rng::seeded(0);
        self.generate_with(prompt, n, crate::sampling::Sampler::Greedy, &mut rng)
    }

    /// Generation with an arbitrary [`crate::sampling::Sampler`].
    pub fn generate_with(
        &mut self,
        prompt: &[usize],
        n: usize,
        sampler: crate::sampling::Sampler,
        rng: &mut rand::rngs::StdRng,
    ) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        let Some(mut step) = self.prefill(prompt) else {
            return out;
        };
        for position in prompt.len()..prompt.len() + n {
            let next = sampler.sample(&step.logits, rng);
            out.push(next);
            step = self.forward_token(next, position);
        }
        out
    }

    /// Negative log-likelihood of `target` under the logits of the last
    /// step (convenience for evaluation).
    pub fn nll(logits: &[f32], target: usize) -> f32 {
        -log_softmax(logits)[target]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_produces_finite_logits() {
        let mut m = TransformerModel::new(ModelConfig::tiny());
        let out = m.forward_token(5, 0);
        assert_eq!(out.logits.len(), 64);
        assert!(out.logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn layer_scores_cover_all_layers_and_heads() {
        let cfg = ModelConfig::tiny();
        let mut m = TransformerModel::new(cfg.clone());
        m.forward_token(1, 0);
        let out = m.forward_token(2, 1);
        assert_eq!(out.scores.n_layers(), cfg.n_layers);
        assert_eq!(out.scores.layer(0).n_heads(), cfg.n_heads);
        assert_eq!(out.scores.layer(0).len(), 2);
    }

    #[test]
    fn caches_grow_in_lockstep() {
        let mut m = TransformerModel::new(ModelConfig::tiny());
        for pos in 0..4 {
            m.forward_token(pos + 1, pos);
        }
        assert_eq!(m.cache_len(), 4);
        assert!(m.caches().iter().all(|c| c.len() == 4));
    }

    #[test]
    fn evict_all_layers_shrinks_every_cache() {
        let mut m = TransformerModel::new(ModelConfig::tiny());
        for pos in 0..4 {
            m.forward_token(1, pos);
        }
        m.evict_all_layers(1);
        assert!(m.caches().iter().all(|c| c.len() == 3));
        assert!(m.caches().iter().all(|c| c.positions() == [0, 2, 3]));
    }

    #[test]
    fn generation_is_deterministic() {
        let prompt = [1usize, 5, 9, 2];
        let mut a = TransformerModel::new(ModelConfig::tiny());
        let mut b = TransformerModel::new(ModelConfig::tiny());
        assert_eq!(a.generate_greedy(&prompt, 8), b.generate_greedy(&prompt, 8));
    }

    #[test]
    fn reset_allows_fresh_sequence() {
        let mut m = TransformerModel::new(ModelConfig::tiny());
        m.forward_token(1, 0);
        m.reset();
        assert_eq!(m.cache_len(), 0);
        let out = m.forward_token(1, 0);
        assert_eq!(out.scores.layer(0).len(), 1);
    }

    #[test]
    fn nll_is_lower_for_higher_logit() {
        let logits = [0.0f32, 2.0, -1.0];
        assert!(TransformerModel::nll(&logits, 1) < TransformerModel::nll(&logits, 2));
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn out_of_vocab_token_panics() {
        let mut m = TransformerModel::new(ModelConfig::tiny());
        m.forward_token(10_000, 0);
    }

    #[test]
    fn recovered_out_of_vocab_panic_leaves_cache_intact() {
        let mut m = TransformerModel::new(ModelConfig::tiny());
        m.forward_token(1, 0);
        m.forward_token(2, 1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.forward_token(10_000, 2);
        }));
        assert!(result.is_err());
        assert_eq!(m.cache_len(), 2, "panic must not wipe the built-in sequence state");
    }

    #[test]
    fn independent_states_share_weights_without_interference() {
        // Interleaving two sequences against one model must produce exactly
        // the streams each would produce alone — KV state is per-sequence,
        // weights are shared.
        let tokens_a = [1usize, 5, 9, 2];
        let tokens_b = [3usize, 7, 7, 7];

        let mut solo = TransformerModel::new(ModelConfig::tiny());
        let solo_a: Vec<Vec<f32>> =
            tokens_a.iter().enumerate().map(|(p, &t)| solo.forward_token(t, p).logits).collect();
        solo.reset();
        let solo_b: Vec<Vec<f32>> =
            tokens_b.iter().enumerate().map(|(p, &t)| solo.forward_token(t, p).logits).collect();

        let shared = TransformerModel::new(ModelConfig::tiny());
        let mut state_a = shared.new_state();
        let mut state_b = shared.new_state();
        for (p, (&ta, &tb)) in tokens_a.iter().zip(&tokens_b).enumerate() {
            let la = shared.forward_in(&mut state_a, ta, p).logits;
            let lb = shared.forward_in(&mut state_b, tb, p).logits;
            assert_eq!(la, solo_a[p], "sequence A diverged at {p}");
            assert_eq!(lb, solo_b[p], "sequence B diverged at {p}");
        }
        assert_eq!(state_a.cache_len(), 4);
        assert_eq!(state_b.cache_len(), 4);
    }

    #[test]
    fn sequence_state_clear_frees_kv() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let mut st = m.new_state();
        m.forward_in(&mut st, 1, 0);
        assert!(st.fp16_bytes() > 0);
        st.clear();
        assert_eq!(st.cache_len(), 0);
        assert_eq!(st.fp16_bytes(), 0);
        // Cleared state is reusable.
        m.forward_in(&mut st, 2, 0);
        assert_eq!(st.cache_len(), 1);
    }

    #[test]
    fn scratch_path_is_bit_identical_to_allocating_path() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let mut state_alloc = m.new_state();
        let mut state_scratch = m.new_state();
        let mut scratch = m.new_scratch(8);
        for (pos, token) in [1usize, 5, 9, 2, 40, 7].into_iter().enumerate() {
            let out = m.forward_in(&mut state_alloc, token, pos);
            m.forward_with_scratch(&mut state_scratch, token, pos, &mut scratch);
            assert_eq!(scratch.logits(), out.logits.as_slice(), "logits diverged at {pos}");
            assert_eq!(scratch.scores(), &out.scores, "scores diverged at {pos}");
        }
        assert_eq!(state_alloc.cache_len(), state_scratch.cache_len());
        for (a, b) in state_alloc.caches().iter().zip(state_scratch.caches()) {
            assert_eq!(a.keys(), b.keys());
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn seeded_state_is_bit_identical_to_prefilled_state() {
        // Seeding a state from another state's prefix rows must yield
        // exactly the forward results a full prefill would: the shared
        // span is a byte-accounting overlay, never a numeric one.
        let m = TransformerModel::new(ModelConfig::tiny());
        let prompt = [1usize, 5, 9, 2, 40, 7];
        let shared = 4;

        let mut reference = m.new_state();
        let mut ref_logits = Vec::new();
        for (pos, &t) in prompt.iter().enumerate() {
            ref_logits = m.forward_in(&mut reference, t, pos).logits;
        }

        let mut donor = m.new_state();
        for (pos, &t) in prompt[..shared].iter().enumerate() {
            m.forward_in(&mut donor, t, pos);
        }
        let mut seeded = m.new_state();
        seeded.seed_from(&donor, shared);
        assert_eq!(seeded.cache_len(), shared);
        assert_eq!(seeded.shared_len(), shared);
        assert_eq!(seeded.fp16_bytes(), 0, "shared rows are not privately owned");
        assert_eq!(seeded.shared_fp16_bytes(), donor.fp16_bytes());

        let mut logits = Vec::new();
        for (pos, &t) in prompt.iter().enumerate().skip(shared) {
            logits = m.forward_in(&mut seeded, t, pos).logits;
        }
        assert_eq!(logits, ref_logits, "seeded forward diverged from full prefill");
        assert_eq!(seeded.cache_len(), reference.cache_len());
        for (a, b) in seeded.caches().iter().zip(reference.caches()) {
            assert_eq!(a.keys(), b.keys());
            assert_eq!(a.values(), b.values());
            assert_eq!(a.positions(), b.positions());
        }
        assert_eq!(seeded.total_fp16_bytes(), reference.total_fp16_bytes());
    }

    #[test]
    fn default_state_is_lazily_sized() {
        let m = TransformerModel::new(ModelConfig::tiny());
        let mut st = SequenceState::default();
        m.forward_in(&mut st, 1, 0);
        assert_eq!(st.n_layers(), m.config().n_layers);
    }
}
