//! The codec trait, the compressed wire blob, and the quantizing codecs.
//!
//! Every codec writes a self-contained little-endian byte format whose
//! length is a *pure function of the input length* — never of the values —
//! so transfer times, budgets and DRL costs stay deterministic. The
//! quantizers are chunked: each run of [`CHUNK`] coordinates carries its own
//! `f32` zero-point (the chunk minimum) and `f32` scale, followed by the
//! packed fixed-width codes. Chunking bounds the quantization step by the
//! *local* dynamic range, which matters because a model's first-layer
//! weights and its biases can differ by orders of magnitude.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sparse::{topk_size, topk_uniform_size, TopKCodec, TopKUniformCodec};
use crate::CodecConfig;

/// Coordinates per quantization chunk (one `f32` min + `f32` scale each).
pub const CHUNK: usize = 256;

/// An encoded parameter vector plus its exact wire size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompressedBlob {
    bytes: Vec<u8>,
}

impl CompressedBlob {
    pub(crate) fn new(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Exact size of this blob on the wire, in bytes — what the network
    /// simulator charges for the transfer.
    pub fn wire_bytes(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// The raw encoded bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Reusable buffers for encode → decode round trips. Whoever runs the round
/// trips owns one — a [`crate::Compressor`] for its serial transfers, each
/// batch worker for its chunk — and nothing in it outlives a call: every
/// user clears a buffer before writing it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    /// The encoded blob.
    pub(crate) wire: Vec<u8>,
    /// Top-k selection keys.
    pub(crate) keys: Vec<u64>,
    /// Top-k kept values, in ascending index order.
    pub(crate) kept: Vec<f32>,
}

/// A wire codec: encodes a parameter vector into a [`CompressedBlob`] and
/// decodes it back (lossily, except for the identity codec).
pub trait WireCodec {
    /// Encodes `values`. `seed` feeds stochastic rounding only —
    /// deterministic codecs ignore it; equal `(values, seed)` always yields
    /// an identical blob.
    fn encode(&self, values: &[f32], seed: u64) -> CompressedBlob;

    /// Decodes a blob produced by [`WireCodec::encode`]. Returns `None` on
    /// a malformed buffer.
    fn decode(&self, blob: &CompressedBlob) -> Option<Vec<f32>>;

    /// Exact encoded size for an input of length `n` — a pure function of
    /// `n`, guaranteed equal to `encode(v, _).wire_bytes()` for any `v` of
    /// that length.
    fn encoded_size(&self, n: usize) -> u64;

    /// Whether decode(encode(v)) == v exactly for every finite v.
    fn is_lossless(&self) -> bool;
}

/// The concrete codec selected by a [`CodecConfig`].
#[derive(Clone, Debug)]
pub enum Codec {
    /// Uncompressed pass-through (`u64 n || f32 LE` — the seed wire format).
    Identity,
    /// Chunked uniform quantization, deterministic round-to-nearest.
    Uniform(QuantCodec),
    /// Chunked uniform quantization, stochastic rounding.
    Stochastic(QuantCodec),
    /// Top-k magnitude sparsification.
    TopK(TopKCodec),
    /// Top-k sparsification composed with uniform quantization.
    TopKUniform(TopKUniformCodec),
}

impl Codec {
    /// Builds the codec for a configuration.
    ///
    /// # Panics
    /// Panics on an unsupported bit width (only 4 and 8 are implemented) or
    /// an out-of-range sparsity fraction.
    pub fn from_config(config: &CodecConfig) -> Self {
        match *config {
            CodecConfig::Identity => Codec::Identity,
            CodecConfig::Uniform { bits, .. } => Codec::Uniform(QuantCodec::new(bits)),
            CodecConfig::Stochastic { bits, seed, .. } => {
                Codec::Stochastic(QuantCodec::with_seed(bits, seed))
            }
            CodecConfig::TopK { frac, .. } => Codec::TopK(TopKCodec::new(frac)),
            CodecConfig::TopKUniform { frac, bits, .. } => {
                Codec::TopKUniform(TopKUniformCodec::new(frac, bits))
            }
        }
    }
}

impl Codec {
    /// [`WireCodec::encode`] into `scratch.wire`.
    pub(crate) fn encode_into(&self, values: &[f32], seed: u64, scratch: &mut Scratch) {
        scratch.wire.clear();
        scratch.wire.reserve(self.encoded_size(values.len()) as usize);
        match self {
            Codec::Identity => {
                put_u64(&mut scratch.wire, values.len() as u64);
                for &v in values {
                    put_f32(&mut scratch.wire, v);
                }
            }
            Codec::Uniform(q) => q.encode_rounded(values, None, &mut scratch.wire),
            Codec::Stochastic(q) => {
                let mut rng = StdRng::seed_from_u64(q.mix_seed(seed));
                q.encode_rounded(values, Some(&mut rng), &mut scratch.wire)
            }
            Codec::TopK(t) => t.encode_into(values, scratch),
            Codec::TopKUniform(t) => t.encode_into(values, scratch),
        }
    }

    /// What a receiver decodes from `encode(values, seed)`, the blob passing
    /// through `scratch.wire`.
    pub(crate) fn round_trip(&self, values: &[f32], seed: u64, scratch: &mut Scratch) -> Vec<f32> {
        self.encode_into(values, seed, scratch);
        debug_assert_eq!(scratch.wire.len() as u64, self.encoded_size(values.len()));
        self.decode_bytes(&scratch.wire).expect("self-encoded blob must decode")
    }

    /// [`WireCodec::decode`] over the raw bytes of a blob.
    pub(crate) fn decode_bytes(&self, bytes: &[u8]) -> Option<Vec<f32>> {
        match self {
            Codec::Identity => {
                let mut cur = Cursor::new(bytes);
                let n = cur.u64()? as usize;
                let body = cur.slice(n.checked_mul(4)?)?;
                cur.done()?;
                Some(body.chunks_exact(4).map(le_f32).collect())
            }
            Codec::Uniform(q) | Codec::Stochastic(q) => q.decode(bytes),
            Codec::TopK(t) => t.decode(bytes),
            Codec::TopKUniform(t) => t.decode(bytes),
        }
    }
}

impl WireCodec for Codec {
    fn encode(&self, values: &[f32], seed: u64) -> CompressedBlob {
        let mut scratch = Scratch::default();
        self.encode_into(values, seed, &mut scratch);
        CompressedBlob::new(scratch.wire)
    }

    fn decode(&self, blob: &CompressedBlob) -> Option<Vec<f32>> {
        self.decode_bytes(blob.bytes())
    }

    fn encoded_size(&self, n: usize) -> u64 {
        match self {
            Codec::Identity => 8 + 4 * n as u64,
            Codec::Uniform(q) | Codec::Stochastic(q) => quant_size(n, q.bits),
            Codec::TopK(t) => topk_size(t.keep(n)),
            Codec::TopKUniform(t) => topk_uniform_size(t.keep(n), t.bits()),
        }
    }

    fn is_lossless(&self) -> bool {
        matches!(self, Codec::Identity)
    }
}

/// Chunked uniform affine quantizer (shared by the deterministic and
/// stochastic codecs; the rounding rule is the only difference).
#[derive(Clone, Debug)]
pub struct QuantCodec {
    bits: u8,
    seed: u64,
}

impl QuantCodec {
    /// A deterministic round-to-nearest quantizer. `bits` must be 4 or 8.
    pub fn new(bits: u8) -> Self {
        Self::with_seed(bits, 0)
    }

    /// A quantizer carrying a base seed for stochastic rounding.
    pub fn with_seed(bits: u8, seed: u64) -> Self {
        assert!(bits == 4 || bits == 8, "supported code widths are 4 and 8 bits, got {bits}");
        Self { bits, seed }
    }

    /// Code width in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    pub(crate) fn mix_seed(&self, transfer_seed: u64) -> u64 {
        self.seed ^ transfer_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
    }

    fn encode_rounded(&self, values: &[f32], rng: Option<&mut StdRng>, buf: &mut Vec<u8>) {
        put_u64(buf, values.len() as u64);
        put_quantized(buf, values, self.bits, rng);
    }

    fn decode(&self, bytes: &[u8]) -> Option<Vec<f32>> {
        let mut cur = Cursor::new(bytes);
        let n = cur.u64()? as usize;
        // Every value costs at least a nibble, which bounds `n` before the
        // allocation it sizes.
        let mut out = Vec::with_capacity(n.min(2 * bytes.len()));
        take_quantized(&mut cur, n, self.bits, |v| {
            out.push(v);
            Some(())
        })?;
        cur.done()?;
        Some(out)
    }
}

/// Appends the chunked quantization of `values`: per [`CHUNK`] the `f32`
/// minimum and step, then the packed codes (low nibble first for 4-bit),
/// written straight into `buf`. `rng` selects stochastic rounding and is
/// drawn from once per value, in order.
pub(crate) fn put_quantized(
    buf: &mut Vec<u8>,
    values: &[f32],
    bits: u8,
    mut rng: Option<&mut StdRng>,
) {
    for chunk in values.chunks(CHUNK) {
        let (min, scale) = chunk_range(chunk, bits);
        put_f32(buf, min);
        put_f32(buf, scale);
        let mut code = |&v: &f32| {
            let u = rng.as_deref_mut().map(|r| r.random::<f32>());
            quantize_one(v, min, scale, bits, u)
        };
        match bits {
            8 => buf.extend(chunk.iter().map(code)),
            4 => buf.extend(chunk.chunks(2).map(|pair| {
                let low = code(&pair[0]);
                (low & 0x0F) | (pair.get(1).map_or(0, &mut code) << 4)
            })),
            _ => unreachable!("unsupported width"),
        }
    }
}

/// Inverse of [`put_quantized`]: reads `count` values chunk by chunk and
/// hands each dequantized one to `sink`, in order.
pub(crate) fn take_quantized(
    cur: &mut Cursor<'_>,
    count: usize,
    bits: u8,
    mut sink: impl FnMut(f32) -> Option<()>,
) -> Option<()> {
    let mut remaining = count;
    while remaining > 0 {
        let len = remaining.min(CHUNK);
        let min = cur.f32()?;
        let scale = cur.f32()?;
        let packed = cur.slice(packed_len(len, bits))?;
        match bits {
            8 => packed.iter().try_for_each(|&q| sink(min + q as f32 * scale))?,
            4 => (0..len).try_for_each(|i| {
                sink(min + ((packed[i / 2] >> (4 * (i % 2))) & 0x0F) as f32 * scale)
            })?,
            _ => unreachable!("unsupported width"),
        }
        remaining -= len;
    }
    Some(())
}

/// Encoded size of a chunked `bits`-wide quantization of `n` values.
pub(crate) fn quant_size(n: usize, bits: u8) -> u64 {
    let mut size = 8u64;
    let mut remaining = n;
    while remaining > 0 {
        let len = remaining.min(CHUNK);
        size += 8 + packed_len(len, bits) as u64;
        remaining -= len;
    }
    size
}

/// Bytes needed to pack `len` codes of `bits` width (per-chunk padding).
pub(crate) fn packed_len(len: usize, bits: u8) -> usize {
    (len * bits as usize).div_ceil(8)
}

/// Per-chunk zero-point (minimum) and step so that `min + levels * scale`
/// spans the chunk. A constant (or non-finite) chunk gets scale 0: every
/// code decodes to the minimum.
pub(crate) fn chunk_range(chunk: &[f32], bits: u8) -> (f32, f32) {
    let levels = ((1u32 << bits) - 1) as f32;
    // A NaN/Inf coordinate poisons the whole chunk: encode it as (NaN, 0)
    // so the decode is NaN and downstream finite-ness screens (quarantine,
    // robust aggregation) see the corruption. The check must be explicit —
    // f32::min/max silently skip NaN operands.
    if chunk.iter().any(|v| !v.is_finite()) {
        return (f32::NAN, 0.0);
    }
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in chunk {
        min = min.min(v);
        max = max.max(v);
    }
    let scale = (max - min) / levels;
    (min, if scale.is_finite() && scale > 0.0 { scale } else { 0.0 })
}

/// Quantizes one value to a `bits`-wide code. `u` in `[0, 1)` selects
/// stochastic rounding (`None` = round-to-nearest).
pub(crate) fn quantize_one(v: f32, min: f32, scale: f32, bits: u8, u: Option<f32>) -> u8 {
    let levels = (1u32 << bits) - 1;
    if scale <= 0.0 || !v.is_finite() {
        return 0;
    }
    let t = ((v - min) / scale).clamp(0.0, levels as f32);
    let q = match u {
        None => t.round(),
        Some(u) => {
            let floor = t.floor();
            floor + if u < t - floor { 1.0 } else { 0.0 }
        }
    };
    (q.min(levels as f32)) as u8
}

/// Appends a little-endian `u64`.
#[inline]
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f32`.
#[inline]
pub(crate) fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// The little-endian `f32` in a 4-byte slice.
pub(crate) fn le_f32(b: &[u8]) -> f32 {
    f32::from_le_bytes(b.try_into().expect("a 4-byte slice"))
}

/// Minimal checked reader over a byte slice (decode must reject truncation
/// instead of panicking).
pub(crate) struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.slice(8)?.try_into().ok()?))
    }

    pub(crate) fn f32(&mut self) -> Option<f32> {
        Some(f32::from_le_bytes(self.slice(4)?.try_into().ok()?))
    }

    pub(crate) fn slice(&mut self, len: usize) -> Option<&'a [u8]> {
        let s = self.data.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(s)
    }

    /// Succeeds only when the buffer was consumed exactly.
    pub(crate) fn done(&self) -> Option<()> {
        (self.pos == self.data.len()).then_some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin() * (1.0 + i as f32 / 50.0)).collect()
    }

    #[test]
    fn identity_matches_the_seed_wire_format() {
        let v = ramp(10);
        let c = Codec::Identity;
        let blob = c.encode(&v, 0);
        assert_eq!(blob.wire_bytes(), 8 + 4 * 10);
        assert_eq!(blob.wire_bytes(), c.encoded_size(10));
        assert_eq!(c.decode(&blob).unwrap(), v);
        assert!(c.is_lossless());
    }

    #[test]
    fn int8_round_trip_error_is_bounded_by_half_step() {
        let v = ramp(1000);
        let c = Codec::Uniform(QuantCodec::new(8));
        let blob = c.encode(&v, 0);
        assert_eq!(blob.wire_bytes(), c.encoded_size(v.len()));
        let d = c.decode(&blob).unwrap();
        for (chunk, dchunk) in v.chunks(CHUNK).zip(d.chunks(CHUNK)) {
            let (_, scale) = chunk_range(chunk, 8);
            for (&a, &b) in chunk.iter().zip(dchunk) {
                assert!(
                    (a - b).abs() <= scale * 0.5 + 1e-6,
                    "error {} exceeds half-step {}",
                    (a - b).abs(),
                    scale * 0.5
                );
            }
        }
    }

    #[test]
    fn int4_packs_two_codes_per_byte() {
        let v = ramp(CHUNK);
        let c = Codec::Uniform(QuantCodec::new(4));
        let blob = c.encode(&v, 0);
        // 8 (len) + 8 (chunk header) + 128 (256 nibbles).
        assert_eq!(blob.wire_bytes(), 8 + 8 + 128);
        assert_eq!(blob.wire_bytes(), c.encoded_size(v.len()));
        assert_eq!(c.decode(&blob).unwrap().len(), v.len());
    }

    #[test]
    fn constant_chunks_decode_exactly() {
        let v = vec![0.75f32; 70];
        let c = Codec::Uniform(QuantCodec::new(8));
        let d = c.decode(&c.encode(&v, 0)).unwrap();
        assert_eq!(d, v, "zero dynamic range must be lossless");
    }

    #[test]
    fn nan_inputs_decode_to_nan_for_screening() {
        let mut v = ramp(20);
        v[7] = f32::NAN;
        let c = Codec::Uniform(QuantCodec::new(8));
        let d = c.decode(&c.encode(&v, 0)).unwrap();
        assert!(d.iter().any(|x| x.is_nan()), "corruption must survive the codec");
    }

    #[test]
    fn stochastic_rounding_is_seeded_and_deterministic() {
        let v = ramp(300);
        let c = Codec::Stochastic(QuantCodec::with_seed(8, 5));
        let a = c.encode(&v, 42);
        let b = c.encode(&v, 42);
        assert_eq!(a, b, "same transfer seed, same blob");
        let other = c.encode(&v, 43);
        assert_ne!(a, other, "different transfer seeds should round differently");
        assert_eq!(a.wire_bytes(), c.encoded_size(v.len()));
    }

    #[test]
    fn decode_rejects_truncated_and_padded_buffers() {
        let v = ramp(100);
        for codec in [Codec::Identity, Codec::Uniform(QuantCodec::new(8))] {
            let blob = codec.encode(&v, 0);
            let raw = blob.bytes();
            let truncated = CompressedBlob::new(raw[..raw.len() - 1].to_vec());
            assert!(codec.decode(&truncated).is_none());
        }
    }

    #[test]
    fn empty_vector_round_trips() {
        for codec in [Codec::Identity, Codec::Uniform(QuantCodec::new(4))] {
            let blob = codec.encode(&[], 0);
            assert_eq!(blob.wire_bytes(), codec.encoded_size(0));
            assert_eq!(codec.decode(&blob).unwrap(), Vec::<f32>::new());
        }
    }

    #[test]
    #[should_panic(expected = "supported code widths")]
    fn unsupported_width_panics() {
        let _ = QuantCodec::new(3);
    }
}
