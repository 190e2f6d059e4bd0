//! Reusable forward-pass scratch: the zero-allocation hot path of the
//! row-batched forward.
//!
//! One token through the forward pass historically allocated ~10 fresh
//! `Vec`s per layer (q/k/v, per-head score vectors, softmax copies,
//! gate/up/hidden/down, plus the nested `Vec<Vec<Vec<f32>>>` score tensor
//! of the step output). A [`ForwardScratch`] owns all of those buffers,
//! sized for a batch of rows;
//! [`crate::TransformerModel::forward_batch`] threads them through every
//! kernel so a steady-state pass performs **zero heap allocations**
//! (pinned by counting-allocator tests) while producing bit-identical
//! results — every batched kernel keeps the per-row f32 summation order
//! of the one-row kernel it replaced.
//!
//! Attention-score observations are handed to the caller one row-layer
//! block at a time as borrowed [`ScoreView`]s; the one-row
//! [`crate::TransformerModel::forward_with_scratch`] collects them into a
//! [`ScoreBuffer`], one flat buffer for all layers and heads of the step.

use veda_eviction::ScoreView;

/// Flat per-step attention-score storage: every layer's head-major score
/// block, concatenated, with per-layer end offsets.
///
/// Layers may have different resident cache lengths (per-layer eviction
/// can diverge when a policy refuses a victim), so each layer records its
/// own segment boundary; within a layer all heads have equal length.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScoreBuffer {
    data: Vec<f32>,
    /// Cumulative end offset of each layer's segment in `data`.
    ends: Vec<usize>,
    n_heads: usize,
}

impl ScoreBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with room for `layers` layer segments
    /// holding `scores` scores in total, so filling it to that size
    /// allocates exactly once per backing vector.
    pub fn with_capacity(layers: usize, scores: usize) -> Self {
        Self { data: Vec::with_capacity(scores), ends: Vec::with_capacity(layers), n_heads: 0 }
    }

    /// Number of layers recorded in the current step.
    pub fn n_layers(&self) -> usize {
        self.ends.len()
    }

    /// Heads per layer.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// The flat head-major score block of layer `l` as a [`ScoreView`]
    /// (the observation eviction policies consume).
    ///
    /// # Panics
    ///
    /// Panics if `l >= n_layers()`.
    pub fn layer(&self, l: usize) -> ScoreView<'_> {
        assert!(l < self.ends.len(), "layer {l} out of bounds ({} layers)", self.ends.len());
        let start = if l == 0 { 0 } else { self.ends[l - 1] };
        ScoreView::new(&self.data[start..self.ends[l]], self.n_heads)
    }

    /// Appends one layer's head-major score block as the next layer
    /// segment (the first layer fixes the head count).
    ///
    /// # Panics
    ///
    /// Panics if the block's head count differs from earlier layers'.
    pub fn push_layer(&mut self, scores: ScoreView<'_>) {
        if self.ends.is_empty() {
            self.n_heads = scores.n_heads();
        }
        assert_eq!(scores.n_heads(), self.n_heads, "score block head count mismatch");
        self.data.extend_from_slice(scores.as_flat());
        self.ends.push(self.data.len());
    }

    /// Empties the buffer for a new step, retaining capacity.
    pub(crate) fn clear(&mut self) {
        self.data.clear();
        self.ends.clear();
    }
}

/// Reusable buffers for the forward pass (see the [module docs](self)).
/// Every activation buffer holds one row per batch row, row-major.
/// Create one per worker — via [`crate::TransformerModel::new_scratch`]
/// to pre-size the one-row buffers for the model geometry — and pass it
/// to every [`crate::TransformerModel::forward_batch`] or
/// [`crate::TransformerModel::forward_with_scratch`] call. After a call
/// the requested logits ([`ForwardScratch::row_logits`]) and, for the
/// one-row call, the step's [`ForwardScratch::scores`] remain readable
/// until the next call.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    /// Residual-stream hidden states, `rows × d_model`.
    pub(crate) hidden: Vec<f32>,
    /// Pre-norm outputs feeding attention / FFN / the LM head.
    pub(crate) normed: Vec<f32>,
    /// Query projections, `rows × d_model`.
    pub(crate) q: Vec<f32>,
    /// Key projections, `rows × d_model`.
    pub(crate) k: Vec<f32>,
    /// Value projections, `rows × d_model`.
    pub(crate) v: Vec<f32>,
    /// Concatenated per-head attention outputs, `rows × d_model`.
    pub(crate) concat: Vec<f32>,
    /// Attention outputs after `W_O`, `rows × d_model`.
    pub(crate) attn_out: Vec<f32>,
    /// FFN gate activations, `rows × ffn_hidden`.
    pub(crate) gate: Vec<f32>,
    /// FFN up projections, `rows × ffn_hidden`.
    pub(crate) up: Vec<f32>,
    /// FFN down projections, `rows × d_model`.
    pub(crate) down: Vec<f32>,
    /// RoPE `(sin, cos)` tables, `rows × head_dim / 2`.
    pub(crate) rope: Vec<(f32, f32)>,
    /// Hidden states of the rows that requested logits, compacted.
    pub(crate) head_in: Vec<f32>,
    /// One row-layer attention-score block, head-major.
    pub(crate) row_scores: Vec<f32>,
    /// Logits of the rows that requested them, in row order,
    /// `requested × vocab_size`.
    pub(crate) logits: Vec<f32>,
    /// Width of one logits row.
    pub(crate) vocab: usize,
    /// All attention-score observations of a one-row step.
    pub(crate) scores: ScoreBuffer,
}

impl ForwardScratch {
    /// Creates an empty scratch; buffers grow to their working sizes on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a scratch pre-sized for one-row passes over a model
    /// geometry, so even the first [`crate::TransformerModel::forward_with_scratch`]
    /// allocates only inside the KV cache. `seq_hint` pre-sizes the score
    /// buffers for an expected resident cache length.
    pub fn for_config(config: &crate::config::ModelConfig, seq_hint: usize) -> Self {
        let d = config.d_model;
        Self {
            hidden: Vec::with_capacity(d),
            normed: Vec::with_capacity(d),
            q: Vec::with_capacity(d),
            k: Vec::with_capacity(d),
            v: Vec::with_capacity(d),
            concat: Vec::with_capacity(d),
            attn_out: Vec::with_capacity(d),
            gate: Vec::with_capacity(config.ffn_hidden),
            up: Vec::with_capacity(config.ffn_hidden),
            down: Vec::with_capacity(d),
            rope: Vec::with_capacity(config.head_dim() / 2),
            head_in: Vec::with_capacity(d),
            row_scores: Vec::with_capacity(config.n_heads * seq_hint),
            logits: Vec::with_capacity(config.vocab_size),
            vocab: config.vocab_size,
            scores: ScoreBuffer {
                data: Vec::with_capacity(config.n_layers * config.n_heads * seq_hint),
                ends: Vec::with_capacity(config.n_layers),
                n_heads: config.n_heads,
            },
        }
    }

    /// Logits of every row of the most recent pass that requested them,
    /// concatenated in row order — for
    /// [`crate::TransformerModel::forward_with_scratch`], exactly the
    /// next-token logits.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }

    /// Logits of the `i`-th row (in row order) of the most recent pass
    /// that requested logits; `None` if fewer rows requested them.
    pub fn row_logits(&self, i: usize) -> Option<&[f32]> {
        self.logits.get(i * self.vocab..(i + 1) * self.vocab)
    }

    /// Attention-score observations of the most recent
    /// [`crate::TransformerModel::forward_with_scratch`] call.
    pub fn scores(&self) -> &ScoreBuffer {
        &self.scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_buffer_tracks_layer_segments() {
        let mut b = ScoreBuffer::new();
        b.push_layer(ScoreView::new(&[0.25, 0.75, 0.5, 0.5], 2));
        b.push_layer(ScoreView::new(&[1.0, 0.0], 2));
        assert_eq!(b.n_layers(), 2);
        assert_eq!(b.n_heads(), 2);
        let l0 = b.layer(0);
        assert_eq!(l0.len(), 2);
        assert_eq!(l0.head(0), &[0.25, 0.75]);
        assert_eq!(l0.head(1), &[0.5, 0.5]);
        let l1 = b.layer(1);
        assert_eq!(l1.len(), 1);
        assert_eq!(l1.head(0), &[1.0]);
        assert_eq!(l1.head(1), &[0.0]);
        // A new step resets the segments.
        b.clear();
        assert_eq!(b.n_layers(), 0);
    }

    #[test]
    #[should_panic(expected = "head count mismatch")]
    fn score_buffer_rejects_mixed_head_counts() {
        let mut b = ScoreBuffer::new();
        b.push_layer(ScoreView::new(&[0.5, 0.5], 2));
        b.push_layer(ScoreView::new(&[1.0], 1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn score_buffer_rejects_bad_layer() {
        ScoreBuffer::new().layer(0);
    }
}
