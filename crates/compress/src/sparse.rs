//! Top-k magnitude sparsification, plain and composed with quantization.
//!
//! Wire format: `u64 n || u64 k || k × u32 index`, followed by the kept
//! values either verbatim (`k × f32`, [`TopKCodec`]) or chunk-quantized
//! ([`TopKUniformCodec`], reusing the quantizer's per-chunk min/scale
//! layout without a redundant inner length prefix). Indices are emitted in
//! ascending order.
//!
//! What defines the kept set is a strict total order on coordinates —
//! magnitude descending with NaN counted as +∞, then index ascending — of
//! which the first `k` are kept. Ties in magnitude therefore break toward
//! the *lower* index, so selection is deterministic even for vectors full
//! of equal weights, and any algorithm that returns that set is conformant.

use crate::codec::{
    packed_len, put_f32, put_quantized, put_u64, take_quantized, Cursor, Scratch, CHUNK,
};

/// Coordinate `i`'s rank in the selection order as an integer: the bits of
/// its magnitude (non-negative floats order like their bits; NaN counts as
/// +∞ so corruption still travels and gets screened on decode by the
/// receiver's integrity checks) above the complemented index. A larger key
/// sorts earlier, and no two coordinates share one.
fn key(i: usize, v: f32) -> u64 {
    let a = v.abs();
    let magnitude = if a.is_nan() { f32::INFINITY } else { a };
    (u64::from(magnitude.to_bits()) << 32) | u64::from(!(i as u32))
}

/// The smallest key among the `k ≤ n` first coordinates in the selection
/// order, found by an O(n) selection: coordinate `i` is kept exactly when
/// `key(i, values[i])` reaches it.
fn select_topk(values: &[f32], k: usize, keys: &mut Vec<u64>) -> u64 {
    if k == 0 {
        // Keys leave their top bit clear, so nothing reaches this.
        return u64::MAX;
    }
    keys.clear();
    keys.extend(values.iter().enumerate().map(|(i, &v)| key(i, v)));
    *keys.select_nth_unstable(values.len() - k).1
}

/// Writes the part both top-k formats share — `n`, `k` and the kept indices,
/// ascending — into `scratch.wire`, and leaves the kept values in
/// `scratch.kept`.
fn put_selection(values: &[f32], k: usize, scratch: &mut Scratch) {
    let Scratch { wire, keys, kept } = scratch;
    put_u64(wire, values.len() as u64);
    put_u64(wire, k as u64);
    let threshold = select_topk(values, k, keys);
    // Which coordinates pass is as good as random, so the pass over them is
    // branch-free: every coordinate is written to the next free slot and
    // only a kept one advances it (hence the one spare slot).
    let idx_at = wire.len();
    wire.resize(idx_at + 4 * (k + 1), 0);
    kept.clear();
    kept.resize(k + 1, 0.0);
    let mut count = 0;
    for (i, &v) in values.iter().enumerate() {
        wire[idx_at + 4 * count..][..4].copy_from_slice(&(i as u32).to_le_bytes());
        kept[count] = v;
        count += usize::from(key(i, v) >= threshold);
    }
    debug_assert_eq!(count, k);
    wire.truncate(idx_at + 4 * k);
    kept.truncate(k);
}

/// Reads what [`put_selection`] wrote: the zeroed length-`n` output and the
/// kept indices, each checked against `n` as it is drawn.
fn take_selection<'a>(
    cur: &mut Cursor<'a>,
) -> Option<(Vec<f32>, impl ExactSizeIterator<Item = Option<usize>> + 'a)> {
    let n = cur.u64()? as usize;
    let k = cur.u64()? as usize;
    if k > n {
        return None;
    }
    let idx = cur.slice(k.checked_mul(4)?)?;
    let idx = idx.chunks_exact(4).map(move |b| {
        let i = u32::from_le_bytes(b.try_into().expect("a 4-byte slice")) as usize;
        (i < n).then_some(i)
    });
    Some((vec![0.0f32; n], idx))
}

/// Number of coordinates kept for a length-`n` vector at fraction `frac`:
/// `max(1, ceil(frac · n))`, capped at `n` (0 for an empty vector).
pub(crate) fn keep_count(frac: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    ((frac * n as f64).ceil() as usize).clamp(1, n)
}

/// Encoded size of a plain top-k blob keeping `k` coordinates.
pub(crate) fn topk_size(k: usize) -> u64 {
    16 + 8 * k as u64
}

/// Encoded size of a quantized top-k blob keeping `k` coordinates.
pub(crate) fn topk_uniform_size(k: usize, bits: u8) -> u64 {
    let mut size = 16 + 4 * k as u64;
    let mut remaining = k;
    while remaining > 0 {
        let len = remaining.min(CHUNK);
        size += 8 + packed_len(len, bits) as u64;
        remaining -= len;
    }
    size
}

/// Top-k magnitude sparsification with full-precision kept values.
#[derive(Clone, Debug)]
pub struct TopKCodec {
    frac: f64,
}

impl TopKCodec {
    /// Keeps the `frac` (in `(0, 1]`) largest-magnitude coordinates.
    pub fn new(frac: f64) -> Self {
        assert!(frac > 0.0 && frac <= 1.0, "sparsity fraction must be in (0, 1], got {frac}");
        Self { frac }
    }

    /// Coordinates kept for a length-`n` input.
    pub fn keep(&self, n: usize) -> usize {
        keep_count(self.frac, n)
    }

    pub(crate) fn encode_into(&self, values: &[f32], scratch: &mut Scratch) {
        put_selection(values, self.keep(values.len()), scratch);
        for &v in &scratch.kept {
            put_f32(&mut scratch.wire, v);
        }
    }

    pub(crate) fn decode(&self, bytes: &[u8]) -> Option<Vec<f32>> {
        let mut cur = Cursor::new(bytes);
        let (mut out, idx) = take_selection(&mut cur)?;
        for i in idx {
            out[i?] = cur.f32()?;
        }
        cur.done()?;
        Some(out)
    }
}

/// Top-k sparsification whose kept values are then uniformly quantized.
#[derive(Clone, Debug)]
pub struct TopKUniformCodec {
    frac: f64,
    bits: u8,
}

impl TopKUniformCodec {
    /// Keeps the top `frac` coordinates and quantizes them to `bits`.
    pub fn new(frac: f64, bits: u8) -> Self {
        assert!(frac > 0.0 && frac <= 1.0, "sparsity fraction must be in (0, 1], got {frac}");
        assert!(bits == 4 || bits == 8, "supported code widths are 4 and 8 bits, got {bits}");
        Self { frac, bits }
    }

    /// Coordinates kept for a length-`n` input.
    pub fn keep(&self, n: usize) -> usize {
        keep_count(self.frac, n)
    }

    /// Code width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    pub(crate) fn encode_into(&self, values: &[f32], scratch: &mut Scratch) {
        put_selection(values, self.keep(values.len()), scratch);
        put_quantized(&mut scratch.wire, &scratch.kept, self.bits, None);
    }

    pub(crate) fn decode(&self, bytes: &[u8]) -> Option<Vec<f32>> {
        let mut cur = Cursor::new(bytes);
        let (mut out, mut idx) = take_selection(&mut cur)?;
        let k = idx.len();
        take_quantized(&mut cur, k, self.bits, |v| {
            out[idx.next()??] = v;
            Some(())
        })?;
        cur.done()?;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{chunk_range, quantize_one, Codec, CompressedBlob, WireCodec};
    use proptest::prelude::*;

    /// The selection order executed literally — sort every index, keep the
    /// first `k` — which the O(n) selection is held to index for index.
    fn select_topk_reference(values: &[f32], k: usize) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..values.len() as u32).collect();
        let mag = |i: u32| {
            let a = values[i as usize].abs();
            if a.is_nan() {
                f32::INFINITY
            } else {
                a
            }
        };
        idx.sort_by(|&a, &b| mag(b).partial_cmp(&mag(a)).unwrap().then(a.cmp(&b)));
        idx.truncate(k);
        idx.sort_unstable();
        idx
    }

    /// A blob laid out by hand from the reference selection; `bits` selects
    /// the quantized format.
    fn reference_blob(values: &[f32], k: usize, bits: Option<u8>) -> Vec<u8> {
        let idx = select_topk_reference(values, k);
        let kept: Vec<f32> = idx.iter().map(|&i| values[i as usize]).collect();
        let mut out = Vec::new();
        out.extend((values.len() as u64).to_le_bytes());
        out.extend((k as u64).to_le_bytes());
        out.extend(idx.iter().flat_map(|i| i.to_le_bytes()));
        let Some(bits) = bits else {
            out.extend(kept.iter().flat_map(|v| v.to_le_bytes()));
            return out;
        };
        for chunk in kept.chunks(CHUNK) {
            let (min, scale) = chunk_range(chunk, bits);
            out.extend(min.to_le_bytes());
            out.extend(scale.to_le_bytes());
            let codes: Vec<u8> =
                chunk.iter().map(|&v| quantize_one(v, min, scale, bits, None)).collect();
            match bits {
                8 => out.extend(&codes),
                _ => out.extend(codes.chunks(2).map(|p| p[0] | (p.get(1).unwrap_or(&0) << 4))),
            }
        }
        out
    }

    /// Few distinct magnitudes, so vectors drawn from it are mostly ties,
    /// plus every value the order treats specially.
    const PALETTE: [f32; 14] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        3.5,
        1e-40,
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -f32::NAN,
    ];

    fn selected(values: &[f32], k: usize) -> Vec<u32> {
        let mut keys = vec![7; 3]; // stale scratch must not matter
        let threshold = select_topk(values, k, &mut keys);
        (0..values.len()).filter(|&i| key(i, values[i]) >= threshold).map(|i| i as u32).collect()
    }

    proptest! {
        #[test]
        fn selection_matches_the_full_sort_index_for_index(
            picks in prop::collection::vec(0usize..PALETTE.len(), 0..=600),
            k in 0usize..=600,
        ) {
            let values: Vec<f32> = picks.iter().map(|&p| PALETTE[p]).collect();
            let n = values.len();
            for k in [0, 1.min(n), n.saturating_sub(1), n, k.min(n)] {
                prop_assert_eq!(selected(&values, k), select_topk_reference(&values, k));
            }
        }

        #[test]
        fn selection_matches_the_full_sort_on_distinct_magnitudes(
            values in prop::collection::vec(-100.0f32..100.0, 0..=600),
            k in 0usize..=600,
        ) {
            let k = k.min(values.len());
            prop_assert_eq!(selected(&values, k), select_topk_reference(&values, k));
        }

        #[test]
        fn blobs_equal_blobs_built_from_the_reference_selection(
            picks in prop::collection::vec(0usize..2 * PALETTE.len(), 0..=600),
            frac in 0.001f64..=1.0,
        ) {
            // Half the draws are distinct finite values, so quantized chunks
            // see a real dynamic range next to the poisoned ones.
            let values: Vec<f32> = picks
                .iter()
                .enumerate()
                .map(|(i, &p)| PALETTE.get(p).copied().unwrap_or(i as f32 * 0.37 - 90.0))
                .collect();
            let k = keep_count(frac, values.len());
            let plain = Codec::TopK(TopKCodec::new(frac)).encode(&values, 0);
            prop_assert_eq!(plain.bytes(), &reference_blob(&values, k, None)[..]);
            for bits in [8, 4] {
                let quantized = Codec::TopKUniform(TopKUniformCodec::new(frac, bits));
                let blob = quantized.encode(&values, 0);
                prop_assert_eq!(blob.bytes(), &reference_blob(&values, k, Some(bits))[..]);
            }
        }
    }

    #[test]
    fn all_equal_vectors_keep_the_lowest_indices() {
        for v in [0.0, -0.0, 2.5, f32::INFINITY, f32::NAN] {
            for n in [1usize, 2, 255, 256, 600] {
                let values = vec![v; n];
                for k in [0, 1, n - 1, n] {
                    assert_eq!(selected(&values, k), (0..k as u32).collect::<Vec<_>>());
                }
            }
        }
    }

    fn topk(frac: f64) -> Codec {
        Codec::TopK(TopKCodec::new(frac))
    }

    #[test]
    fn topk_keeps_the_largest_magnitudes() {
        let v = vec![0.1, -5.0, 0.2, 4.0, -0.3];
        let c = topk(0.4);
        let blob = c.encode(&v, 0);
        assert_eq!(blob.wire_bytes(), topk_size(2));
        let d = c.decode(&blob).unwrap();
        assert_eq!(d, vec![0.0, -5.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn ties_break_toward_the_lower_index() {
        let v = vec![1.0f32; 8];
        let c = topk(0.25);
        let d = c.decode(&c.encode(&v, 0)).unwrap();
        assert_eq!(d, vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn keep_count_is_at_least_one_and_at_most_n() {
        assert_eq!(keep_count(0.01, 10), 1);
        assert_eq!(keep_count(1.0, 10), 10);
        assert_eq!(keep_count(0.5, 10), 5);
        assert_eq!(keep_count(0.5, 0), 0);
    }

    #[test]
    fn quantized_topk_round_trips_within_step() {
        let v: Vec<f32> = (0..600).map(|i| ((i as f32) * 0.11).cos() * (i % 7) as f32).collect();
        let c = Codec::TopKUniform(TopKUniformCodec::new(0.5, 8));
        let blob = c.encode(&v, 0);
        assert_eq!(blob.wire_bytes(), topk_uniform_size(keep_count(0.5, v.len()), 8));
        let d = c.decode(&blob).unwrap();
        assert_eq!(d.len(), v.len());
        // Every decoded coordinate is either 0 (dropped) or close to the
        // original (kept & quantized; ranges here are modest).
        for (&a, &b) in v.iter().zip(&d) {
            assert!(b == 0.0 || (a - b).abs() < 0.1, "a={a} b={b}");
        }
    }

    #[test]
    fn decode_rejects_out_of_range_indices() {
        let v = vec![1.0, 2.0, 3.0];
        for c in [topk(0.5), Codec::TopKUniform(TopKUniformCodec::new(0.5, 8))] {
            let raw = c.encode(&v, 0).bytes().to_vec();
            let decode = |raw: &[u8]| c.decode(&CompressedBlob::new(raw.to_vec()));
            assert!(decode(&raw).is_some());
            // Corrupt the first index (offset 16) to point past the end.
            let mut bad = raw.clone();
            bad[16..20].copy_from_slice(&100u32.to_le_bytes());
            assert!(decode(&bad).is_none());
            assert!(decode(&raw[..raw.len() - 1]).is_none(), "truncated");
            assert!(decode(&[&raw[..], &[0]].concat()).is_none(), "padded");
        }
    }

    #[test]
    fn nan_coordinates_are_prioritized_and_survive() {
        let mut v = vec![0.01f32; 50];
        v[33] = f32::NAN;
        let c = topk(0.02);
        let d = c.decode(&c.encode(&v, 0)).unwrap();
        assert!(d[33].is_nan(), "corruption must not be silently dropped");
    }
}
