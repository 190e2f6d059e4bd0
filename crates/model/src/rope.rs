//! Rotary position embedding (RoPE), as used by the Llama family.
//!
//! RoPE rotates each even/odd pair of query/key channels by a
//! position-dependent angle; dot products between rotated vectors then
//! depend on the *relative* position, which gives random-weight attention a
//! natural recency structure — one of the ingredients the synthetic model
//! uses to reproduce realistic attention-score distributions.

/// Applies RoPE in place to a head vector `x` of even length at `position`.
///
/// # Panics
///
/// Panics if `x.len()` is odd.
pub fn apply_rope(x: &mut [f32], position: usize, theta: f32) {
    assert!(x.len().is_multiple_of(2), "RoPE requires an even head dimension, got {}", x.len());
    let dim = x.len();
    for (i, pair) in x.chunks_exact_mut(2).enumerate() {
        rotate(pair, rope_sin_cos(i, dim, position, theta));
    }
}

/// Appends to `table` the `(sin, cos)` of every channel pair's rotation
/// angle at `position` for heads of `dim` channels — the part of RoPE
/// that depends only on the position, so one row's table serves every
/// head, both `q` and `k`, and every layer.
/// [`apply_rope_table`] with this table is bit-identical to
/// [`apply_rope`].
pub(crate) fn extend_rope_table(position: usize, dim: usize, theta: f32, table: &mut Vec<(f32, f32)>) {
    table.extend((0..dim / 2).map(|i| rope_sin_cos(i, dim, position, theta)));
}

/// Rotates the head vector `x` by one position's table from
/// [`extend_rope_table`].
///
/// # Panics
///
/// Panics if `x` has a different number of channel pairs than `table`.
pub(crate) fn apply_rope_table(x: &mut [f32], table: &[(f32, f32)]) {
    assert_eq!(
        x.len(),
        2 * table.len(),
        "RoPE table covers {} pairs, head has {} channels",
        table.len(),
        x.len()
    );
    for (pair, &sc) in x.chunks_exact_mut(2).zip(table) {
        rotate(pair, sc);
    }
}

/// `(sin, cos)` of pair `i`'s angle at `position` for `dim` channels.
fn rope_sin_cos(i: usize, dim: usize, position: usize, theta: f32) -> (f32, f32) {
    let freq = theta.powf(-2.0 * i as f32 / dim as f32);
    let angle = position as f32 * freq;
    angle.sin_cos()
}

/// Rotates one even/odd channel pair by the angle with `(sin, cos)`.
fn rotate(pair: &mut [f32], (sin, cos): (f32, f32)) {
    if let [a, b] = pair {
        let (x0, x1) = (*a, *b);
        *a = x0 * cos - x1 * sin;
        *b = x0 * sin + x1 * cos;
    }
}

/// Returns a rotated copy (convenience for tests and tracing).
pub fn roped(x: &[f32], position: usize, theta: f32) -> Vec<f32> {
    let mut out = x.to_vec();
    apply_rope(&mut out, position, theta);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use veda_tensor::ops::{dot, norm2};

    #[test]
    fn position_zero_is_identity() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(roped(&x, 0, 10000.0), x.to_vec());
    }

    #[test]
    fn rotation_preserves_norm() {
        let x = [0.3, -1.2, 2.0, 0.7, -0.1, 0.9];
        for pos in [1, 17, 255, 4095] {
            let r = roped(&x, pos, 10000.0);
            assert!((norm2(&r) - norm2(&x)).abs() < 1e-4, "norm changed at pos {pos}");
        }
    }

    #[test]
    fn dot_product_depends_on_relative_position() {
        // <RoPE(q, m), RoPE(k, n)> is a function of (m - n): shifting both
        // positions by the same offset leaves the dot product unchanged.
        let q = [0.5, -0.2, 0.8, 0.1];
        let k = [-0.3, 0.9, 0.2, 0.4];
        let d1 = dot(&roped(&q, 10, 10000.0), &roped(&k, 7, 10000.0));
        let d2 = dot(&roped(&q, 110, 10000.0), &roped(&k, 107, 10000.0));
        assert!((d1 - d2).abs() < 1e-3, "{d1} vs {d2}");
    }

    #[test]
    fn self_similarity_decays_with_distance_on_average() {
        // For a generic vector, <RoPE(x, 0), RoPE(x, p)> trends downward as
        // p grows (not monotonically — it oscillates — so compare averages).
        let mut rng = veda_tensor::rng::seeded(2);
        let mut near = 0.0;
        let mut far = 0.0;
        for _ in 0..50 {
            let x = veda_tensor::rng::normal_vec(&mut rng, 16, 1.0);
            let base = roped(&x, 0, 10000.0);
            near += dot(&base, &roped(&x, 1, 10000.0));
            far += dot(&base, &roped(&x, 200, 10000.0));
        }
        assert!(near > far, "near {near} vs far {far}");
    }

    #[test]
    fn table_rotation_is_bit_identical_to_apply_rope() {
        let x = [0.3f32, -1.2, 2.0, 0.7, -0.1, 0.9, 1.5, -0.4];
        let mut table = Vec::new();
        for pos in [0, 1, 17, 4095] {
            table.clear();
            extend_rope_table(pos, x.len(), 10000.0, &mut table);
            let mut y = x;
            apply_rope_table(&mut y, &table);
            assert_eq!(y.to_vec(), roped(&x, pos, 10000.0), "diverged at {pos}");
        }
    }

    #[test]
    #[should_panic(expected = "even head dimension")]
    fn odd_dimension_panics() {
        let mut x = [1.0, 2.0, 3.0];
        apply_rope(&mut x, 1, 10000.0);
    }
}
