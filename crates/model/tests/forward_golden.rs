//! Bit-identity goldens for the forward pass, recorded against the
//! original one-token-at-a-time kernels (row-major tied embedding, LM
//! head through the sequential `dot`).
//!
//! A fixed token stream, with per-layer `evict_many` calls once the cache
//! exceeds a cap, runs through `forward_with_scratch` on the tiny and the
//! small model. Every step's logits and attention scores, and the final
//! KV rows and positions, are folded into FNV-1a digests over their f32
//! bit patterns. Any kernel or layout change that alters a single bit of
//! any of them fails here, even if every path still agrees with itself.

use veda_model::{ModelConfig, SequenceState, TransformerModel};

/// FNV-1a over 32-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn floats(&mut self, xs: &[f32]) {
        self.word(xs.len() as u32);
        for x in xs {
            self.word(x.to_bits());
        }
    }
}

/// Digests of one token stream: (logits, scores, KV rows).
fn run_stream(cfg: ModelConfig, steps: usize, cap: usize) -> (u64, u64, u64) {
    let model = TransformerModel::new(cfg.clone());
    let mut state: SequenceState = model.new_state();
    let mut scratch = model.new_scratch(cap + 1);
    let (mut logits, mut scores, mut kv) = (Digest::new(), Digest::new(), Digest::new());
    for pos in 0..steps {
        let token = (pos * 37 + 11) % cfg.vocab_size;
        model.forward_with_scratch(&mut state, token, pos, &mut scratch);
        logits.floats(scratch.logits());
        for layer in 0..scratch.scores().n_layers() {
            scores.floats(scratch.scores().layer(layer).as_flat());
        }
        // Per-layer evictions that diverge between layers: layer `l`
        // drops slots after a reserved sink, offset by the layer index.
        for layer in 0..state.n_layers() {
            let len = state.caches()[layer].len();
            if len > cap {
                let first = 1 + (layer + pos) % 3;
                let victims: Vec<usize> = (first..len).step_by(2).take(len - cap).collect();
                state.evict_many(layer, &victims);
            }
        }
    }
    for cache in state.caches() {
        kv.floats(cache.keys().as_slice());
        kv.floats(cache.values().as_slice());
        for &p in cache.positions() {
            kv.word(p as u32);
        }
    }
    (logits.0, scores.0, kv.0)
}

#[test]
fn forward_matches_recorded_goldens() {
    let tiny = run_stream(ModelConfig::tiny(), 48, 12);
    let small = run_stream(ModelConfig::small(), 24, 10);
    assert_eq!(
        [tiny, small],
        [
            (0x6241_c5d9_3326_5d3b, 0x9b33_75d2_808b_0cf8, 0x1767_8069_8b11_c318),
            (0x5b67_b514_a270_cf45, 0x402e_9bfb_d6b7_bee4, 0xbb2b_cca7_d8ba_0718),
        ],
        "forward output changed bits: tiny {tiny:#018x?}, small {small:#018x?}"
    );
}
