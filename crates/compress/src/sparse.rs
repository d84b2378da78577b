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
    dequantize, packed_len, put_chunk, put_f32, put_u64, quantize, take_quantized, Cursor, Scratch,
    CHUNK,
};

/// The key of +∞, which NaN shares.
const INF_KEY: u32 = 0x7F80_0000;

/// Key bits below a histogram bucket: a bucket is an exponent and the top
/// three bits of the mantissa.
const SHIFT: u32 = 20;

/// Histogram buckets: every key lies in one.
const BUCKETS: usize = (INF_KEY >> SHIFT) as usize + 1;

/// A coordinate's magnitude as an integer that orders like it: the bits of
/// `|v|` (non-negative floats order like their bits), with NaN counted as
/// +∞ so corruption still travels and gets screened on decode by the
/// receiver's integrity checks. Equal magnitudes, ±0 included, share a key.
#[inline]
fn key(v: f32) -> u32 {
    (v.to_bits() & 0x7FFF_FFFF).min(INF_KEY)
}

/// A top-k selection's buffers: after [`Selection::select`], the kept
/// indices in ascending order and their values.
#[derive(Clone, Debug, Default)]
pub(crate) struct Selection {
    idx: Vec<u32>,
    kept: Vec<f32>,
    /// Keys of the bucket the threshold lies in.
    ties: Vec<u32>,
}

/// Above every key and every index.
const UNBOUNDED: u32 = i32::MAX as u32;

/// Which coordinates a [`Selection::gather`] keeps: those whose key is
/// above `t`, or equal to it at an index below `cut` — and in either case
/// below `hi`. Every bound is at most [`UNBOUNDED`], and keys and indices
/// are below it.
#[derive(Clone, Copy, Debug)]
struct Bounds {
    t: u32,
    cut: u32,
    hi: u32,
}

impl Bounds {
    /// Every key at least `lo` and below `hi`.
    fn range(lo: u32, hi: u32) -> Self {
        Self { t: lo, cut: UNBOUNDED, hi }
    }

    /// Whether coordinate `i`, of key `x`, is kept. Evaluates every
    /// comparison (`|` and `&`, not `||` and `&&`), so it compiles to no
    /// branch.
    #[inline]
    fn keeps(self, i: usize, x: u32) -> bool {
        ((x > self.t) | ((x == self.t) & (i < self.cut as usize))) & (x < self.hi)
    }
}

impl Selection {
    /// Selects the first `k ≤ n` coordinates of `values` in the selection
    /// order, in O(n) and without a sort. A histogram of the keys' top bits
    /// finds the bucket holding the k-th largest key; when the quota left
    /// for that bucket is short of its size, one pass gathers the bucket,
    /// whose keys alone give the threshold key `t`, and the index `cut` at
    /// which the keys equal to `t` fill the quota in index order — the
    /// order's tie-break. A last pass gathers the kept coordinates: those
    /// above `t`, and those equal to it below `cut`.
    fn select(&mut self, values: &[f32], k: usize) {
        assert!(values.len() < UNBOUNDED as usize, "top-k indexes fewer than 2^31 - 1 values");
        debug_assert!(k <= values.len());
        if k == 0 {
            self.idx.clear();
            self.kept.clear();
            return;
        }
        // Bucketed by the magnitude's bits as they are, NaNs spread over
        // buckets above +∞'s, which then take them in.
        let mut hist = [0u32; 1 << (31 - SHIFT)];
        for &v in values {
            hist[((v.to_bits() << 1) >> (SHIFT + 1)) as usize] += 1;
        }
        let (hist, nan) = hist.split_at_mut(BUCKETS);
        hist[BUCKETS - 1] += nan.iter().sum::<u32>();
        let (mut bucket, mut above) = (BUCKETS, 0);
        loop {
            bucket -= 1;
            if above + hist[bucket] as usize >= k {
                break;
            }
            above += hist[bucket] as usize;
        }
        let (lo, hi) = ((bucket as u32) << SHIFT, (bucket as u32 + 1) << SHIFT);
        let need = k - above;
        let bounds = if need == hist[bucket] as usize {
            Bounds::range(lo, UNBOUNDED)
        } else {
            self.gather(values, Bounds::range(lo, hi));
            self.ties.clear();
            self.ties.extend(self.kept.iter().map(|&v| key(v)));
            let t = *self.ties.select_nth_unstable_by(need - 1, |a, b| b.cmp(a)).1;
            let quota = need - self.ties.iter().filter(|&&x| x > t).count();
            let equal = self.idx.iter().zip(&self.kept).filter(|&(_, &v)| key(v) == t);
            let last = equal.map(|(&i, _)| i).nth(quota - 1).expect("the quota is within the ties");
            Bounds { t, cut: last + 1, hi: UNBOUNDED }
        };
        self.gather(values, bounds);
        debug_assert_eq!(self.idx.len(), k);
    }

    /// Sets the selection to the coordinates `bounds` keeps, in index
    /// order. Which ones pass is as good as random, so no build branches on
    /// it: each writes every coordinate to the next free slot and advances
    /// only past those that pass — the AVX-512 build sixteen at a time, the
    /// baseline build one.
    fn gather(&mut self, values: &[f32], bounds: Bounds) {
        let (idx, kept) = (&mut self.idx, &mut self.kept);
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("popcnt") {
                // SAFETY: the running CPU reports AVX-512F and POPCNT, the
                // features `gather_avx512` is compiled with.
                return unsafe { gather_avx512(values, bounds, idx, kept) };
            }
        }
        gather_baseline(values, bounds, idx, kept)
    }

    /// Writes the part both top-k formats share — `n`, `k` and the kept
    /// indices, ascending.
    fn put(&self, n: usize, wire: &mut Vec<u8>) {
        put_u64(wire, n as u64);
        put_u64(wire, self.idx.len() as u64);
        wire.extend(self.idx.iter().flat_map(|i| i.to_le_bytes()));
    }
}

/// [`Selection::gather`] one coordinate at a time.
fn gather_baseline(values: &[f32], bounds: Bounds, idx: &mut Vec<u32>, kept: &mut Vec<f32>) {
    idx.resize(values.len(), 0);
    kept.resize(values.len(), 0.0);
    let mut w = 0;
    for (i, &v) in values.iter().enumerate() {
        // `w ≤ i`: every slot written is in bounds.
        idx[w] = i as u32;
        kept[w] = v;
        w += usize::from(bounds.keeps(i, key(v)));
    }
    idx.truncate(w);
    kept.truncate(w);
}

/// [`Selection::gather`] sixteen coordinates at a time: test the keys
/// against `bounds` into a mask, compress the passing indices and values to
/// the front, store all sixteen lanes at the next free slot and advance past
/// the passing ones. Callable only on a CPU with AVX-512F and POPCNT.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,popcnt")]
fn gather_avx512(values: &[f32], bounds: Bounds, idx: &mut Vec<u32>, kept: &mut Vec<f32>) {
    use std::arch::x86_64::*;
    let (blocks, rest) = values.as_chunks::<16>();
    idx.clear();
    kept.clear();
    // Sixteen lanes of room past the last coordinate.
    idx.reserve(values.len() + 16);
    kept.reserve(values.len() + 16);
    let (idx_at, kept_at) = (idx.as_mut_ptr(), kept.as_mut_ptr());
    // Keys, indices and bounds are below 2^31: signed comparisons are exact.
    let splat = |x: u32| _mm512_set1_epi32(x as i32);
    let (magnitude, inf) = (splat(0x7FFF_FFFF), splat(INF_KEY));
    let (t, cut, hi) = (splat(bounds.t), splat(bounds.cut), splat(bounds.hi));
    let mut lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let mut w = 0;
    for block in blocks {
        // SAFETY: `block` is 16 floats.
        let v = unsafe { _mm512_loadu_ps(block.as_ptr()) };
        let keys = _mm512_min_epu32(_mm512_and_si512(_mm512_castps_si512(v), magnitude), inf);
        let tie = _mm512_cmpeq_epi32_mask(keys, t) & _mm512_cmplt_epi32_mask(lanes, cut);
        let mask = (_mm512_cmpgt_epi32_mask(keys, t) | tie) & _mm512_cmplt_epi32_mask(keys, hi);
        // SAFETY: `w` counts passing coordinates among those before this
        // block, so `w + 16 ≤ values.len() + 16`, which both buffers reserve.
        unsafe {
            _mm512_storeu_si512(idx_at.add(w).cast(), _mm512_maskz_compress_epi32(mask, lanes));
            _mm512_storeu_ps(kept_at.add(w), _mm512_maskz_compress_ps(mask, v));
        }
        w += mask.count_ones() as usize;
        lanes = _mm512_add_epi32(lanes, splat(16));
    }
    // SAFETY: the first `w` slots of both were written above.
    unsafe {
        idx.set_len(w);
        kept.set_len(w);
    }
    let first = values.len() - rest.len();
    for (i, &v) in (first..).zip(rest).filter(|&(i, &v)| bounds.keeps(i, key(v))) {
        idx.push(i as u32);
        kept.push(v);
    }
}

/// Reads what [`Selection::put`] wrote: the zeroed length-`n` output and the
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
        let Scratch { wire, selection } = scratch;
        selection.select(values, self.keep(values.len()));
        selection.put(values.len(), wire);
        selection.kept.iter().for_each(|&v| put_f32(wire, v));
    }

    /// `decode(encode(values))`: the kept values in place, zeros elsewhere.
    pub(crate) fn round_trip(&self, values: &[f32], selection: &mut Selection) -> Vec<f32> {
        selection.select(values, self.keep(values.len()));
        let mut out = vec![0.0f32; values.len()];
        for (&i, &v) in selection.idx.iter().zip(&selection.kept) {
            out[i as usize] = v;
        }
        out
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
        let Scratch { wire, selection } = scratch;
        selection.select(values, self.keep(values.len()));
        selection.put(values.len(), wire);
        quantize(&selection.kept, self.bits, None, |min, scale, codes| {
            put_chunk(wire, min, scale, codes, self.bits)
        });
    }

    /// `decode(encode(values))`: each kept value dequantized from its code
    /// in place, zeros elsewhere.
    pub(crate) fn round_trip(&self, values: &[f32], selection: &mut Selection) -> Vec<f32> {
        selection.select(values, self.keep(values.len()));
        let mut out = vec![0.0f32; values.len()];
        let mut idx = selection.idx.iter();
        quantize(&selection.kept, self.bits, None, |min, scale, codes| {
            for (&q, &i) in codes.iter().zip(&mut idx) {
                out[i as usize] = dequantize(min, scale, q);
            }
        });
        out
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
    use crate::codec::{reference, Codec, CompressedBlob, WireCodec};
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
        reference::put_quantized(&kept, bits, &mut out);
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

    type Gather = fn(&[f32], Bounds, &mut Vec<u32>, &mut Vec<f32>);

    /// Every build of [`Selection::gather`] this CPU runs, by name.
    fn gather_builds() -> Vec<(&'static str, Gather)> {
        #[allow(unused_mut)]
        let mut builds: Vec<(&str, Gather)> = vec![("baseline", gather_baseline)];
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("popcnt") {
            // SAFETY: pushed only on a CPU with AVX-512F and POPCNT.
            builds.push(("avx512", |v, b, i, k| unsafe { gather_avx512(v, b, i, k) }));
        }
        builds
    }

    #[test]
    fn every_gather_build_this_cpu_has_is_compared() {
        let names: Vec<&str> = gather_builds().iter().map(|&(name, _)| name).collect();
        println!("gather builds compared: {}", names.join(" vs "));
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("popcnt") {
            assert!(names.contains(&"avx512"), "an AVX-512 CPU must compare its AVX-512 build");
        }
    }

    fn selected(values: &[f32], k: usize) -> Vec<u32> {
        let mut sel = Selection::default();
        sel.select(&[7.0; 900], 300); // stale scratch must not matter
        sel.select(values, k);
        let kept: Vec<u32> = sel.idx.iter().map(|&i| values[i as usize].to_bits()).collect();
        assert_eq!(kept, sel.kept.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        sel.idx
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
            values in prop::collection::vec(-100.0f32..100.0, 0..=3000),
            k in 0usize..=3000,
        ) {
            let k = k.min(values.len());
            prop_assert_eq!(selected(&values, k), select_topk_reference(&values, k));
        }

        #[test]
        fn gather_builds_keep_what_the_bounds_keep(
            picks in prop::collection::vec(0usize..2 * PALETTE.len(), 0..=300),
            t_at in 0usize..300,
            cut in 0u32..=310,
            hi_pick in 0usize..3,
        ) {
            let values: Vec<f32> = picks
                .iter()
                .enumerate()
                .map(|(i, &p)| PALETTE.get(p).copied().unwrap_or(i as f32 * 0.37 - 50.0))
                .collect();
            let keys: Vec<u32> = values.iter().map(|&v| key(v)).collect();
            let t = keys.get(t_at).copied().unwrap_or(INF_KEY);
            let hi = [UNBOUNDED, t + 1, ((t >> SHIFT) + 1) << SHIFT][hi_pick];
            let bounds = Bounds { t, cut, hi };
            let expect: Vec<u32> =
                (0..values.len()).filter(|&i| bounds.keeps(i, keys[i])).map(|i| i as u32).collect();
            let expect_kept: Vec<u32> = expect.iter().map(|&i| values[i as usize].to_bits()).collect();
            for (_, build) in gather_builds() {
                let (mut idx, mut kept) = (vec![9; 5], vec![9.0; 5]);
                build(&values, bounds, &mut idx, &mut kept);
                prop_assert_eq!(&idx, &expect);
                let kept: Vec<u32> = kept.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(&kept, &expect_kept);
            }
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
