//! Flat parameter vectors: the unit of aggregation and migration.
//!
//! FedAvg's global aggregation (Eq. 7 of the paper) averages *parameter
//! vectors*, and FedMigr's model migration ships a parameter vector from one
//! client to another. These helpers convert between a model's per-layer
//! tensors and a single `Vec<f32>` in stable visit order, plus the wire
//! encoding of such a vector (`Vec<f32>` as [`fedmigr_telemetry::wire`]
//! lays it out), whose size the network simulator charges for a transfer.

use fedmigr_telemetry::wire;
use fedmigr_tensor::Tensor;

use crate::Layer;

/// Flattens every parameter of `model` into a single vector (visit order).
pub fn param_vector(model: &mut dyn Layer) -> Vec<f32> {
    // Sized up front: one allocation, not one per doubling.
    let mut n = 0;
    model.visit_params(&mut |p: &mut Tensor, _| n += p.numel());
    let mut out = Vec::with_capacity(n);
    model.visit_params(&mut |p: &mut Tensor, _| out.extend_from_slice(p.data()));
    out
}

/// Flattens every accumulated gradient of `model` into a single vector.
pub fn grad_vector(model: &mut dyn Layer) -> Vec<f32> {
    let mut out = Vec::new();
    model.visit_params(&mut |_, g: &mut Tensor| out.extend_from_slice(g.data()));
    out
}

/// Writes `values` back into the parameters of `model` (visit order).
///
/// # Panics
/// Panics if `values.len()` differs from the model's parameter count.
pub fn set_param_vector(model: &mut dyn Layer, values: &[f32]) {
    let mut offset = 0usize;
    model.visit_params(&mut |p: &mut Tensor, _| {
        let n = p.numel();
        assert!(
            offset + n <= values.len(),
            "parameter vector length mismatch: need at least {} values, got {}",
            offset + n,
            values.len()
        );
        p.data_mut().copy_from_slice(&values[offset..offset + n]);
        offset += n;
    });
    assert_eq!(offset, values.len(), "parameter vector length mismatch");
}

/// Weighted average of parameter vectors: `sum_k weight_k * w_k / sum_k
/// weight_k` — FedAvg's global aggregation with `weight_k = n_k`.
///
/// # Panics
/// Panics on empty input, mismatched lengths, or non-positive total weight.
pub fn weighted_average(entries: &[(&[f32], f64)]) -> Vec<f32> {
    assert!(!entries.is_empty(), "cannot average zero models");
    let dim = entries[0].0.len();
    let total: f64 = entries.iter().map(|(_, w)| *w).sum();
    assert!(total > 0.0, "total aggregation weight must be positive");
    let mut out = vec![0.0f64; dim];
    for (vec, w) in entries {
        assert_eq!(vec.len(), dim, "parameter vectors must share a dimension");
        let coef = *w / total;
        for (o, &v) in out.iter_mut().zip(*vec) {
            *o += coef * v as f64;
        }
    }
    out.into_iter().map(|x| x as f32).collect()
}

/// Size in bytes of the wire encoding of a parameter vector of length `n`.
pub fn wire_size(n: usize) -> u64 {
    8 + 4 * n as u64
}

/// Encodes a parameter vector as `u64 length || f32 LE values`.
pub fn encode_params(values: &[f32]) -> Vec<u8> {
    wire::encode(&mut values.to_vec())
}

/// Decodes a parameter vector produced by [`encode_params`].
///
/// Returns `None` if the buffer is truncated or the length prefix is
/// inconsistent.
pub fn decode_params(bytes: &[u8]) -> Option<Vec<f32>> {
    let mut out = Vec::new();
    wire::decode(bytes, &mut out).ok().map(|()| out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, Sequential};

    fn small_model(seed: u64) -> Sequential {
        Sequential::new().push(Dense::new(3, 4, seed)).push(Dense::new(4, 2, seed + 1))
    }

    #[test]
    fn vector_round_trip() {
        let mut m = small_model(0);
        let v = param_vector(&mut m);
        assert_eq!(v.len(), m.param_count());
        let doubled: Vec<f32> = v.iter().map(|x| x * 2.0).collect();
        set_param_vector(&mut m, &doubled);
        assert_eq!(param_vector(&mut m), doubled);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_rejects_wrong_length() {
        let mut m = small_model(0);
        set_param_vector(&mut m, &[0.0; 3]);
    }

    #[test]
    fn weighted_average_matches_fedavg_formula() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 6.0];
        // n_a = 1, n_b = 3 -> w = (1*1 + 3*3)/4, (1*2 + 3*6)/4
        let avg = weighted_average(&[(&a, 1.0), (&b, 3.0)]);
        assert!((avg[0] - 2.5).abs() < 1e-6);
        assert!((avg[1] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn equal_weights_give_plain_mean() {
        let a = [0.0f32, 10.0];
        let b = [10.0f32, 0.0];
        let avg = weighted_average(&[(&a, 5.0), (&b, 5.0)]);
        assert_eq!(avg, vec![5.0, 5.0]);
    }

    #[test]
    fn wire_round_trip() {
        let v = vec![1.5f32, -2.25, 0.0, f32::MIN_POSITIVE];
        let encoded = encode_params(&v);
        assert_eq!(encoded.len() as u64, wire_size(v.len()));
        assert_eq!(decode_params(&encoded).unwrap(), v);
    }

    #[test]
    fn decode_rejects_truncated() {
        let v = vec![1.0f32; 10];
        let encoded = encode_params(&v);
        assert!(decode_params(&encoded[..encoded.len() - 1]).is_none());
        assert!(decode_params(&[0, 1, 2]).is_none());
    }
}
