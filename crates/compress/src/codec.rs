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

use crate::sparse::{topk_size, topk_uniform_size, Selection, TopKCodec, TopKUniformCodec};
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

/// Reusable buffers for encodes and round trips. Whoever runs them owns one
/// — a [`crate::Compressor`] for its serial transfers, each batch worker for
/// its chunk — and nothing in it outlives a call: every user clears a buffer
/// before writing it.
#[derive(Clone, Debug, Default)]
pub(crate) struct Scratch {
    /// The encoded blob (encodes only: a round trip writes no wire).
    pub(crate) wire: Vec<u8>,
    /// The top-k selection.
    pub(crate) selection: Selection,
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
        let wire = &mut scratch.wire;
        wire.clear();
        wire.reserve(self.encoded_size(values.len()) as usize);
        match self {
            Codec::Identity => {
                put_u64(wire, values.len() as u64);
                values.iter().for_each(|&v| put_f32(wire, v));
            }
            Codec::Uniform(q) | Codec::Stochastic(q) => {
                put_u64(wire, values.len() as u64);
                quantize(values, q.bits, self.rng(seed), |min, scale, codes| {
                    put_chunk(wire, min, scale, codes, q.bits)
                });
            }
            Codec::TopK(t) => t.encode_into(values, scratch),
            Codec::TopKUniform(t) => t.encode_into(values, scratch),
        }
    }

    /// What a receiver decodes from `encode(values, seed)`, computed from
    /// the same selection and codes without writing or parsing a wire:
    /// `decode(encode(values, seed))` bit for bit.
    pub(crate) fn round_trip(&self, values: &[f32], seed: u64, scratch: &mut Scratch) -> Vec<f32> {
        match self {
            Codec::Identity => values.to_vec(),
            Codec::Uniform(q) | Codec::Stochastic(q) => {
                let mut out = Vec::with_capacity(values.len());
                quantize(values, q.bits, self.rng(seed), |min, scale, codes| {
                    out.extend(codes.iter().map(|&q| dequantize(min, scale, q)))
                });
                out
            }
            Codec::TopK(t) => t.round_trip(values, &mut scratch.selection),
            Codec::TopKUniform(t) => t.round_trip(values, &mut scratch.selection),
        }
    }

    /// The rounding noise of one stochastic transmission (`None` for every
    /// other codec).
    fn rng(&self, seed: u64) -> Option<StdRng> {
        match self {
            Codec::Stochastic(q) => Some(StdRng::seed_from_u64(q.mix_seed(seed))),
            _ => None,
        }
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

/// The chunked quantization of `values`: per [`CHUNK`] the zero-point (the
/// chunk minimum), the step and the codes, handed to `emit` chunk by chunk,
/// in order. The wire writes them ([`put_chunk`]); a round trip dequantizes
/// them straight away ([`dequantize`]); both therefore see the same codes.
/// `rng` selects stochastic rounding and is drawn from once per value, in
/// order.
pub(crate) fn quantize(
    values: &[f32],
    bits: u8,
    mut rng: Option<StdRng>,
    mut emit: impl FnMut(f32, f32, &[u8]),
) {
    let levels = levels(bits);
    let mut buf = [0u8; CHUNK];
    for chunk in values.chunks(CHUNK) {
        let (min, scale) = chunk_range(chunk, bits);
        let codes = &mut buf[..chunk.len()];
        match rng.as_mut() {
            Some(rng) => {
                for (c, &v) in codes.iter_mut().zip(chunk) {
                    *c = stochastic_code(v, min, scale, levels, rng.random::<f32>());
                }
            }
            // A finite chunk with a positive step: every value has a code.
            None if scale > 0.0 => {
                for (c, &v) in codes.iter_mut().zip(chunk) {
                    *c = round_code(((v - min) / scale).clamp(0.0, levels));
                }
            }
            None => codes.fill(0),
        }
        emit(min, scale, codes);
    }
}

/// Appends one chunk as [`quantize`] hands it over: the `f32` minimum and
/// step, then the packed codes (low nibble first for 4-bit).
pub(crate) fn put_chunk(buf: &mut Vec<u8>, min: f32, scale: f32, codes: &[u8], bits: u8) {
    put_f32(buf, min);
    put_f32(buf, scale);
    match bits {
        8 => buf.extend_from_slice(codes),
        4 => buf.extend(codes.chunks(2).map(|p| p[0] | p.get(1).map_or(0, |&high| high << 4))),
        _ => unreachable!("unsupported width"),
    }
}

/// The value a code decodes to — the one expression of the dequantizer,
/// shared by [`take_quantized`] and the round trips.
#[inline]
pub(crate) fn dequantize(min: f32, scale: f32, code: u8) -> f32 {
    min + code as f32 * scale
}

/// Inverse of [`quantize`] through [`put_chunk`]: reads `count` values
/// chunk by chunk and hands each dequantized one to `sink`, in order.
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
            8 => packed.iter().try_for_each(|&q| sink(dequantize(min, scale, q)))?,
            4 => (0..len).try_for_each(|i| {
                sink(dequantize(min, scale, (packed[i / 2] >> (4 * (i % 2))) & 0x0F))
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

/// The largest code of a `bits`-wide quantizer.
fn levels(bits: u8) -> f32 {
    ((1u32 << bits) - 1) as f32
}

/// Lanes of [`chunk_range`]'s vector pass.
const LANES: usize = 8;

/// Per-chunk zero-point (minimum) and step so that `min + levels * scale`
/// spans the chunk. A constant (or non-finite) chunk gets scale 0: every
/// code decodes to the minimum.
///
/// One pass keeps a running minimum, maximum and non-finite flag in each of
/// [`LANES`] lanes, so it vectorizes. The result is a left-to-right fold's,
/// which keeps the first of equal minima: equal elements differ in bits
/// only as zeros of opposite sign, so a zero minimum is the chunk's first
/// zero. The sign of `max` reaches neither the step nor the wire.
pub(crate) fn chunk_range(chunk: &[f32], bits: u8) -> (f32, f32) {
    const EXP: u32 = 0x7F80_0000;
    let mut lo = [f32::INFINITY; LANES];
    let mut hi = [f32::NEG_INFINITY; LANES];
    let mut bad = [0u32; LANES];
    // The tail block is padded with the chunk's first element, which moves
    // none of the three.
    let (blocks, rest) = chunk.as_chunks::<LANES>();
    let mut tail = [chunk[0]; LANES];
    tail[..rest.len()].copy_from_slice(rest);
    for block in blocks.iter().chain([&tail]) {
        for (m, &v) in lo.iter_mut().zip(block) {
            *m = if v < *m { v } else { *m };
        }
        for (m, &v) in hi.iter_mut().zip(block) {
            *m = if v > *m { v } else { *m };
        }
        for (b, &v) in bad.iter_mut().zip(block) {
            *b |= u32::from(v.to_bits() & EXP == EXP);
        }
    }
    // A NaN/Inf coordinate poisons the whole chunk: encode it as (NaN, 0)
    // so the decode is NaN and downstream finite-ness screens (quarantine,
    // robust aggregation) see the corruption. The check must be explicit —
    // comparisons silently skip NaN operands.
    if bad.iter().any(|&b| b != 0) {
        return (f32::NAN, 0.0);
    }
    let min = lo.into_iter().fold(f32::INFINITY, |m, v| if v < m { v } else { m });
    let max = hi.into_iter().fold(f32::NEG_INFINITY, |m, v| if v > m { v } else { m });
    let min = if min == 0.0 {
        *chunk.iter().find(|&&v| v == 0.0).expect("a zero minimum is an element")
    } else {
        min
    };
    let scale = (max - min) / levels(bits);
    (min, if scale.is_finite() && scale > 0.0 { scale } else { 0.0 })
}

/// The stochastically rounded code of `v`: `u` in `[0, 1)` rounds up with
/// the probability of the fraction. A chunk without a step codes 0.
fn stochastic_code(v: f32, min: f32, scale: f32, levels: f32, u: f32) -> u8 {
    if scale <= 0.0 || !v.is_finite() {
        return 0;
    }
    let t = ((v - min) / scale).clamp(0.0, levels);
    let floor = t.floor();
    let q = floor + if u < t - floor { 1.0 } else { 0.0 };
    q.min(levels) as u8
}

/// `t.round()` for a `t` in `[0, 255]`, as a code, in float arithmetic
/// alone so that a loop of it vectorizes: the floor, plus one when the
/// fraction, which is exact, is at least a half. Adding 2^23 rounds a `t`
/// in that range to an integer, and the integer is then the low byte of
/// the sum's bits. Held equal to `round` on every `f32` in that range by a
/// test; `(t + 0.5) as u32` is not (at `t = 0.49999997` the sum rounds up
/// to 1).
#[inline]
fn round_code(t: f32) -> u8 {
    const TWO_23: f32 = 8_388_608.0;
    let nearest = (t + TWO_23) - TWO_23;
    let floor = nearest - if nearest > t { 1.0 } else { 0.0 };
    let q = floor + if t - floor >= 0.5 { 1.0 } else { 0.0 };
    (q + TWO_23).to_bits() as u8
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

/// The chunk quantizer executed literally, which the vectorized one is
/// held to bit for bit: minimum and maximum as folds in index order, a
/// division and `round()`.
#[cfg(test)]
pub(crate) mod reference {
    use super::CHUNK;

    /// One chunk's zero-point, step and codes.
    pub(crate) fn chunk(chunk: &[f32], bits: u8) -> (f32, f32, Vec<u8>) {
        let levels = ((1u32 << bits) - 1) as f32;
        if chunk.iter().any(|v| !v.is_finite()) {
            return (f32::NAN, 0.0, vec![0; chunk.len()]);
        }
        // The fold keeps the first of equal minima, as the wire always has.
        // Not `f32::min`: it leaves the sign of an equal zero unspecified,
        // and one release build of this very fold returned the later `-0.0`.
        let min = chunk.iter().fold(f32::INFINITY, |m, &v| if v < m { v } else { m });
        let max = chunk.iter().fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        let scale = (max - min) / levels;
        let scale = if scale.is_finite() && scale > 0.0 { scale } else { 0.0 };
        let code = |v: f32| match scale > 0.0 {
            true => ((v - min) / scale).clamp(0.0, levels).round() as u8,
            false => 0,
        };
        (min, scale, chunk.iter().map(|&v| code(v)).collect())
    }

    /// Appends the chunked quantization of `values`, without a length.
    pub(crate) fn put_quantized(values: &[f32], bits: u8, out: &mut Vec<u8>) {
        for c in values.chunks(CHUNK) {
            let (min, scale, codes) = chunk(c, bits);
            out.extend(min.to_le_bytes());
            out.extend(scale.to_le_bytes());
            match bits {
                8 => out.extend(&codes),
                _ => out.extend(codes.chunks(2).map(|p| p[0] | (p.get(1).unwrap_or(&0) << 4))),
            }
        }
    }

    /// What the chunked quantization of `values` decodes to.
    pub(crate) fn decoded(values: &[f32], bits: u8) -> Vec<f32> {
        let decode = |c: &[f32]| {
            let (min, scale, codes) = chunk(c, bits);
            codes.into_iter().map(move |q| min + q as f32 * scale)
        };
        values.chunks(CHUNK).flat_map(decode).collect()
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

    /// `round_code(t)` against `t.round()` on every `f32` in `[0, 255]`
    /// (≈ 1.13e9 values) and `-0.0`, in chunks the test harness runs in
    /// parallel. Exhaustive: a sample would miss the one value where the
    /// naive `(t + 0.5) as u32` differs.
    fn assert_round_code_is_round(chunk: u64, chunks: u64) {
        let end = 255.0f32.to_bits() as u64 + 1;
        let bound = |c: u64| (end * c / chunks) as u32;
        for t in (bound(chunk)..bound(chunk + 1)).map(f32::from_bits) {
            if u32::from(round_code(t)) != t.round() as u32 {
                panic!("round_code({t:e}) = {}, round = {}", round_code(t), t.round());
            }
        }
    }

    #[test]
    fn round_code_is_round_on_every_code_0() {
        assert_round_code_is_round(0, 4);
        assert_eq!(round_code(-0.0), 0);
        let trap = 0.49999997f32;
        assert_eq!((trap.round() as u32, round_code(trap) as u32, (trap + 0.5) as u32), (0, 0, 1));
    }

    #[test]
    fn round_code_is_round_on_every_code_1() {
        assert_round_code_is_round(1, 4);
    }

    #[test]
    fn round_code_is_round_on_every_code_2() {
        assert_round_code_is_round(2, 4);
    }

    #[test]
    fn round_code_is_round_on_every_code_3() {
        assert_round_code_is_round(3, 4);
    }

    #[test]
    #[should_panic(expected = "supported code widths")]
    fn unsupported_width_panics() {
        let _ = QuantCodec::new(3);
    }

    /// Vectors the quantizer treats specially, each cut into chunks as a
    /// codec would: signed-zero mixes (the minimum's bits are its first
    /// zero's, in whichever lane), NaN and ±∞ anywhere (the whole chunk
    /// becomes `(NaN, 0)`), subnormals, constant chunks, a `max − min` that
    /// overflows, values exactly on a code + ½, chunk lengths 1, 255, 256
    /// and 257, and odd lengths for int4's nibble pairs.
    fn special_vectors() -> Vec<Vec<f32>> {
        let with = |mut v: Vec<f32>, at: &[(usize, f32)]| {
            for &(i, x) in at {
                v[i] = x;
            }
            v
        };
        let ones = |n: usize| (1..=n).map(|i| i as f32).collect::<Vec<f32>>();
        let halves = |top: usize| {
            let mut v = vec![0.0, top as f32];
            v.extend((0..top).map(|c| c as f32 + 0.5));
            v
        };
        vec![
            vec![0.0, -0.0],
            vec![-0.0, 0.0, 2.0],
            vec![-0.0; 9],
            with(ones(40), &[(5, 0.0), (12, -0.0), (33, 0.0)]),
            with(ones(40), &[(6, -0.0), (9, 0.0), (17, -0.0)]),
            with(ones(256), &[(200, -0.0), (255, 0.0)]),
            with(vec![-1.0; 17], &[(3, -0.0), (16, 0.0)]),
            with(ramp(37), &[(36, f32::NAN)]),
            with(ramp(8), &[(0, f32::INFINITY)]),
            with(ramp(300), &[(100, f32::NEG_INFINITY)]),
            with(ramp(20), &[(3, -f32::NAN), (4, f32::INFINITY)]),
            vec![1e-40, -1e-40, 1e-45, -1e-45, 0.0, f32::MIN_POSITIVE, -0.0],
            vec![1e-45; 3],
            vec![0.75; 70],
            vec![-3.0; 256],
            vec![f32::MAX, -f32::MAX, 0.0],
            vec![f32::MAX, f32::MAX * 0.5, 1.0],
            halves(255),
            halves(15),
            ramp(1),
            ramp(3),
            ramp(255),
            ramp(256),
            ramp(257),
            ramp(513),
        ]
    }

    /// Each chunk's `(min, scale, codes)` bits from the quantizer.
    fn quantized(values: &[f32], bits: u8) -> Vec<(u32, u32, Vec<u8>)> {
        let mut out = Vec::new();
        quantize(values, bits, None, |min, scale, codes| {
            out.push((min.to_bits(), scale.to_bits(), codes.to_vec()))
        });
        out
    }

    fn to_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn the_quantizer_is_the_literal_reference_bit_for_bit() {
        for bits in [8, 4] {
            let codec = Codec::Uniform(QuantCodec::new(bits));
            for v in special_vectors() {
                let expect: Vec<(u32, u32, Vec<u8>)> = v
                    .chunks(CHUNK)
                    .map(|c| reference::chunk(c, bits))
                    .map(|(min, scale, codes)| (min.to_bits(), scale.to_bits(), codes))
                    .collect();
                assert_eq!(quantized(&v, bits), expect, "int{bits} {v:?}");
                let mut wire = (v.len() as u64).to_le_bytes().to_vec();
                reference::put_quantized(&v, bits, &mut wire);
                let blob = codec.encode(&v, 0);
                assert_eq!(blob.bytes(), &wire[..], "int{bits} {v:?}");
                let decoded = to_bits(&reference::decoded(&v, bits));
                assert_eq!(to_bits(&codec.decode(&blob).unwrap()), decoded, "int{bits} {v:?}");
                let trip = codec.round_trip(&v, 0, &mut Scratch::default());
                assert_eq!(to_bits(&trip), decoded, "int{bits} {v:?}");
            }
        }
    }

    /// Values the codecs treat specially, drawn from beside model-like ones.
    const SPECIALS: [f32; 10] = [
        0.0,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        f32::MAX,
        0.5,
        -0.5,
    ];

    proptest::proptest! {
        #[test]
        fn round_trip_is_decode_of_encode_for_every_codec(
            len in 0usize..4,
            picks in proptest::collection::vec(0usize..8 * SPECIALS.len(), 8634),
            exponent in -30i32..10,
            seed in proptest::any::<u64>(),
        ) {
            let n = [0, 1, 257, 8634][len];
            let values: Vec<f32> = picks[..n]
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let model = ((i * 37 % 101) as f32 - 50.0) * 2f32.powi(exponent);
                    SPECIALS.get(p).copied().unwrap_or(model)
                })
                .collect();
            let mut scratch = Scratch::default();
            for config in [
                CodecConfig::Identity,
                CodecConfig::int8(),
                CodecConfig::int4(),
                CodecConfig::stochastic8(3),
                CodecConfig::topk(0.1),
                CodecConfig::topk(1.0),
                CodecConfig::topk_int8(0.25),
                CodecConfig::TopKUniform { frac: 0.01, bits: 4, error_feedback: true },
            ] {
                let codec = Codec::from_config(&config);
                let decoded = codec.decode(&codec.encode(&values, seed)).unwrap();
                let trip = codec.round_trip(&values, seed, &mut scratch);
                let (trip, decoded) = (to_bits(&trip), to_bits(&decoded));
                proptest::prop_assert!(trip == decoded, "{} n {n}", config.name());
            }
        }
    }
}
