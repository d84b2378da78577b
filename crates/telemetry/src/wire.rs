//! The wire: the one binary codec behind every checkpointed value — the run
//! checkpoint (`FEDMIGRR`) and the parameter payload. It is the binary twin
//! of [`crate::record`].
//!
//! A [`Wire`] type lists its fields once, in wire order, in the module that
//! declares them; the [`Codec`] it is handed decides the direction, so the
//! encoder cannot drift from the decoder and private fields stay private.
//! Everything is little-endian; sequences carry a `u64` length prefix that a
//! reader bounds by the bytes that remain before it allocates.
//!
//! A *live* object (one whose shape the run's configuration fixed: lane
//! counts, network sizes, fleet size) is overwritten in place and checks
//! each count against itself as it is read — a snapshot taken under another
//! configuration is [`io::ErrorKind::InvalidData`], never a panic and never
//! a resize.
//!
//! A [`Container`] frames a payload for storage:
//!
//! ```text
//! [8]  magic
//! [4]  u32    format version
//! [..] payload
//! [4]  u32    CRC-32 (IEEE) over everything above
//! ```
//!
//! Magic, CRC and version are verified, in that order, before the payload's
//! first byte is interpreted.

use std::collections::VecDeque;
use std::io;

use rand::rngs::StdRng;

/// An [`io::ErrorKind::InvalidData`] error: the one kind every malformed,
/// truncated or mismatched wire value is reported as.
pub fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// One side of the wire: the buffer being written, or the bytes being read.
pub enum Codec<'a> {
    /// Capture: values are appended.
    Write(Vec<u8>),
    /// Restore: values are overwritten from `b[pos..]`.
    Read {
        /// The payload (container header and CRC trailer stripped).
        b: &'a [u8],
        /// Read cursor.
        pos: usize,
    },
}

impl Codec<'_> {
    /// Whether values are being overwritten rather than captured.
    pub fn reading(&self) -> bool {
        matches!(self, Codec::Read { .. })
    }

    /// Moves `N` raw bytes between `v` and the stream.
    pub fn raw<const N: usize>(&mut self, v: &mut [u8; N]) -> io::Result<()> {
        match self {
            Codec::Write(buf) => buf.extend_from_slice(v),
            Codec::Read { b, pos } => {
                let rest = &b[*pos..];
                if rest.len() < N {
                    return Err(bad("wire value truncated"));
                }
                v.copy_from_slice(&rest[..N]);
                *pos += N;
            }
        }
        Ok(())
    }

    /// A length prefix for elements of at least `elem` bytes each; on read
    /// it is rejected when the declared payload exceeds the remaining
    /// buffer (a corrupt length must not trigger a huge allocation).
    pub fn len(&mut self, n: &mut usize, elem: usize) -> io::Result<()> {
        n.wire(self)?;
        match self {
            Codec::Read { b, pos } if n.saturating_mul(elem.max(1)) > b.len() - *pos => {
                Err(bad("length prefix exceeds the remaining bytes"))
            }
            _ => Ok(()),
        }
    }

    /// Wires live objects in place: the count is part of the run's
    /// configuration, so a snapshot that disagrees is the mismatch `what`
    /// names, not a resize.
    pub fn in_place<T: Wire>(&mut self, items: &mut [T], what: &str) -> io::Result<()> {
        let mut n = items.len();
        self.len(&mut n, T::MIN_BYTES)?;
        if n != items.len() {
            return Err(bad(what));
        }
        T::wire_slice(items, self)
    }

    /// Wires an optional live subsystem in place. Whether it exists is
    /// decided by the run's configuration; a snapshot taken under the
    /// other choice is the mismatch `what` names.
    pub fn in_place_opt<T: Wire>(&mut self, live: &mut Option<T>, what: &str) -> io::Result<()> {
        let mut present = live.is_some();
        present.wire(self)?;
        if present != live.is_some() {
            return Err(bad(what));
        }
        live.as_mut().map_or(Ok(()), |v| v.wire(self))
    }
}

/// A type that can cross the wire. The one method visits the type's fields
/// in order; the codec decides the direction.
pub trait Wire {
    /// Smallest encoding of one value, bounding how many a length prefix
    /// may plausibly announce.
    const MIN_BYTES: usize = 1;

    /// Writes `self` to, or overwrites `self` from, the codec.
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()>;

    /// Wires `items` back to back, with no count of their own: the body of
    /// a sequence whose length is already on the wire. Visits each item in
    /// turn; the fixed-width scalars override it with one bulk copy of the
    /// same bytes.
    fn wire_slice(items: &mut [Self], c: &mut Codec<'_>) -> io::Result<()>
    where
        Self: Sized,
    {
        items.iter_mut().try_for_each(|v| v.wire(c))
    }
}

/// Implements [`Wire`] for a struct whose encoding is its listed fields, in
/// wire order, each through its own `Wire` impl.
#[macro_export]
macro_rules! wire_fields {
    ($t:ty: $($f:ident),+ $(,)?) => {
        impl $crate::wire::Wire for $t {
            fn wire(&mut self, c: &mut $crate::wire::Codec<'_>) -> std::io::Result<()> {
                $($crate::wire::Wire::wire(&mut self.$f, c)?;)+
                Ok(())
            }
        }
    };
}

/// Encodes a bare value (no container).
pub fn encode(x: &mut impl Wire) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096);
    write_into(&mut buf, |c| x.wire(c));
    buf
}

/// Decodes a bare value over `into`, requiring every byte be consumed.
pub fn decode(bytes: &[u8], into: &mut impl Wire) -> io::Result<()> {
    read_all(bytes, "value", |c| into.wire(c))
}

/// Replaces the contents of `buf` with what `body` writes, keeping its
/// allocation.
fn write_into(buf: &mut Vec<u8>, body: impl FnOnce(&mut Codec<'_>) -> io::Result<()>) {
    buf.clear();
    let mut c = Codec::Write(std::mem::take(buf));
    body(&mut c).expect("the writing codec never fails");
    let Codec::Write(written) = c else { unreachable!("codec direction is fixed") };
    *buf = written;
}

fn read_all(
    b: &[u8],
    what: &str,
    body: impl FnOnce(&mut Codec<'_>) -> io::Result<()>,
) -> io::Result<()> {
    let mut c = Codec::Read { b, pos: 0 };
    body(&mut c)?;
    match c {
        Codec::Read { b, pos } if pos != b.len() => {
            Err(bad(&format!("trailing bytes after {what} payload")))
        }
        _ => Ok(()),
    }
}

/// A stored format: what opens the file, which layout follows, and what to
/// call it in errors.
pub struct Container {
    /// Magic tag opening every file of this format.
    pub magic: &'static [u8; 8],
    /// The one payload layout this build reads and writes.
    pub version: u32,
    /// The format's name in error messages (`"run checkpoint"`).
    pub what: &'static str,
}

impl Container {
    /// Frames the payload `body` writes into `buf`, replacing what it held:
    /// magic and version before it, the CRC-32 of everything after it. A
    /// caller that seals every round reuses one allocation instead of
    /// growing a fresh one. The bytes do not depend on what `buf` held
    /// before.
    pub fn seal_into(
        &self,
        buf: &mut Vec<u8>,
        body: impl FnOnce(&mut Codec<'_>) -> io::Result<()>,
    ) {
        write_into(buf, |c| {
            (*self.magic, self.version).wire(c)?;
            body(c)
        });
        let crc = crc32(buf);
        buf.extend_from_slice(&crc.to_le_bytes());
    }

    /// Verifies length, magic, CRC and version, then hands the payload to
    /// `body`, which must consume it exactly. Any fault is
    /// [`io::ErrorKind::InvalidData`]; `body` does not run unless the frame
    /// is sound.
    pub fn open(
        &self,
        bytes: &[u8],
        body: impl FnOnce(&mut Codec<'_>) -> io::Result<()>,
    ) -> io::Result<()> {
        let what = self.what;
        if bytes.len() < self.magic.len() + 8 {
            return Err(bad(&format!("{what} too short")));
        }
        if &bytes[..8] != self.magic {
            return Err(bad(&format!("not a fedmigr {what} (bad magic)")));
        }
        let body_len = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body_len..].try_into().expect("four trailer bytes"));
        if crc32(&bytes[..body_len]) != stored {
            return Err(bad(&format!("{what} checksum mismatch")));
        }
        read_all(&bytes[8..body_len], what, |c| {
            let mut version = 0u32;
            version.wire(c)?;
            if version != self.version {
                return Err(bad(&format!(
                    "unsupported {what} version {version} (expected {})",
                    self.version
                )));
            }
            body(c)
        })
    }
}

/// `CRC32_TABLE[s][b]` is the CRC register after byte `b` is followed by
/// `s` zero bytes: row 0 is the classic byte-at-a-time table, and rows
/// 0..16 together fold a 16-byte block into the register in one step
/// (slicing-by-16).
const fn make_crc32_table() -> [[u32; 256]; 16] {
    let mut table = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = table[s - 1][i];
            table[s][i] = (prev >> 8) ^ table[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    table
}

static CRC32_TABLE: [[u32; 256]; 16] = make_crc32_table();

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) of `bytes` — the trailer of
/// every [`Container`]; the value is the byte-at-a-time CRC's. Inputs of
/// [`CLMUL_MIN`] bytes and more run in the carry-less-multiply build on a
/// CPU with PCLMULQDQ and SSE4.1, everything else by slicing-by-16.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= CLMUL_MIN && clmul_detected() {
        // SAFETY: the running CPU reports both features `crc32_clmul` is
        // compiled with.
        return !unsafe { crc32_clmul(!0, bytes) };
    }
    !crc32_slicing16(!0, bytes)
}

/// The shortest input [`crc32`] folds with carry-less multiplies (the fold
/// starts from four 16-byte blocks, so it needs at least 64 bytes).
const CLMUL_MIN: usize = 128;

#[cfg(target_arch = "x86_64")]
fn clmul_detected() -> bool {
    is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
}

/// The CRC register `c` (pre-inverted, as the byte loop keeps it) after
/// `bytes`: sixteen bytes per step, the tail byte by byte.
fn crc32_slicing16(mut c: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut block: [u8; 16] = block.try_into().expect("a 16-byte block");
        for (b, r) in block.iter_mut().zip(c.to_le_bytes()) {
            *b ^= r;
        }
        c = block.iter().enumerate().fold(0, |acc, (j, &b)| acc ^ CRC32_TABLE[15 - j][b as usize]);
    }
    for &b in blocks.remainder() {
        c = CRC32_TABLE[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// [`crc32_slicing16`]'s register after `bytes`, its whole 16-byte blocks
/// folded four at a time with carry-less multiplies and reduced to 32 bits
/// by Barrett reduction (Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction", Intel, 2009; the constants are
/// `x^k mod P` for the bit-reflected polynomial), the tail by slicing-by-16.
/// Inputs under 64 bytes go to slicing-by-16 whole. Callable only on a CPU
/// with PCLMULQDQ and SSE4.1.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_clmul(c: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    if bytes.len() < 64 {
        return crc32_slicing16(c, bytes);
    }
    let (body, tail) = bytes.split_at(bytes.len() & !15);
    let mut blocks = body.chunks_exact(16).map(|block| {
        // SAFETY: `block` is the 16 bytes an unaligned load reads.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    });
    let mut next = || blocks.next().expect("a 16-byte block");
    // `x` folded forward by `k` (x^(k1), x^(k2) in its two halves) into `y`.
    let fold = |x: __m128i, k: __m128i, y: __m128i| {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(hi, lo), y)
    };
    let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4);
    let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0);
    let mut x = [next(), next(), next(), next()];
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));
    for _ in 1..body.len() / 64 {
        x = x.map(|x| fold(x, k1k2, next()));
    }
    let mut acc = fold(fold(fold(x[0], k3k4, x[1]), k3k4, x[2]), k3k4, x[3]);
    for _ in 0..body.len() % 64 / 16 {
        acc = fold(acc, k3k4, next());
    }
    // 128 bits to 64, then Barrett reduction to the 32-bit register.
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);
    let acc = _mm_xor_si128(_mm_srli_si128::<8>(acc), _mm_clmulepi64_si128::<0x10>(acc, k3k4));
    let k5 = _mm_set_epi64x(0, 0x01_63cd_6124);
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), k5),
        _mm_srli_si128::<4>(acc),
    );
    let poly_mu = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641);
    let t = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly_mu);
    let t = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t, low32), poly_mu);
    let c = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t)) as u32;
    crc32_slicing16(c, tail)
}

// ---------------------------------------------------------------------------
// Primitives and collections.

macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
                let mut raw = self.to_le_bytes();
                c.raw(&mut raw)?;
                *self = <$t>::from_le_bytes(raw);
                Ok(())
            }

            /// One length check and one little-endian copy for the whole
            /// run: the bytes of the per-scalar loop.
            fn wire_slice(items: &mut [Self], c: &mut Codec<'_>) -> io::Result<()> {
                const W: usize = std::mem::size_of::<$t>();
                let n = items.len() * W;
                match c {
                    Codec::Write(buf) => {
                        let start = buf.len();
                        buf.resize(start + n, 0);
                        for (out, v) in buf[start..].chunks_exact_mut(W).zip(items.iter()) {
                            out.copy_from_slice(&v.to_le_bytes());
                        }
                    }
                    Codec::Read { b, pos } => {
                        if b.len() - *pos < n {
                            return Err(bad("wire value truncated"));
                        }
                        let raw = b[*pos..*pos + n].chunks_exact(W);
                        for (v, raw) in items.iter_mut().zip(raw) {
                            *v = <$t>::from_le_bytes(raw.try_into().expect("a W-byte chunk"));
                        }
                        *pos += n;
                    }
                }
                Ok(())
            }
        }
    )*};
}
wire_le!(u8, u32, u64, f32, f64);

impl Wire for usize {
    const MIN_BYTES: usize = 8;
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let mut v = *self as u64;
        v.wire(c)?;
        *self = usize::try_from(v).map_err(|_| bad("count overflows usize"))?;
        Ok(())
    }
}

impl Wire for bool {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let mut v = *self as u8;
        v.wire(c)?;
        *self = match v {
            0 => false,
            1 => true,
            _ => return Err(bad("invalid bool byte")),
        };
        Ok(())
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 8;
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let mut bytes = std::mem::take(self).into_bytes();
        bytes.wire(c)?;
        *self = String::from_utf8(bytes).map_err(|_| bad("invalid utf-8 string"))?;
        Ok(())
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    const MIN_BYTES: usize = N * T::MIN_BYTES;
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        T::wire_slice(self, c)
    }
}

impl<T: Wire + Default> Wire for Vec<T> {
    const MIN_BYTES: usize = 8;
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let mut n = self.len();
        c.len(&mut n, T::MIN_BYTES)?;
        if c.reading() {
            self.clear();
            self.resize_with(n, T::default);
        }
        T::wire_slice(self, c)
    }
}

impl<T: Wire + Default> Wire for VecDeque<T> {
    const MIN_BYTES: usize = 8;
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let mut items = Vec::from(std::mem::take(self));
        let result = items.wire(c);
        *self = items.into();
        result
    }
}

impl<T: Wire + Default> Wire for Option<T> {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let mut present = self.is_some();
        present.wire(c)?;
        if c.reading() {
            *self = present.then(T::default);
        }
        self.as_mut().map_or(Ok(()), |v| v.wire(c))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        self.0.wire(c)?;
        self.1.wire(c)
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES + C::MIN_BYTES;
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        self.0.wire(c)?;
        self.1.wire(c)?;
        self.2.wire(c)
    }
}

/// The raw xoshiro state — restored, never reseeded. All-zero (the one
/// state the generator could never leave) is refused.
impl Wire for StdRng {
    fn wire(&mut self, c: &mut Codec<'_>) -> io::Result<()> {
        let mut state = self.state();
        state.wire(c)?;
        if state == [0; 4] {
            return Err(bad("all-zero rng state"));
        }
        *self = StdRng::from_state(state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    use super::*;

    /// The codec law every `Wire` type must obey: `decode(encode(x)) == x`,
    /// and re-encoding what was decoded is byte-equal.
    fn assert_value_round_trips<T: Wire + Default + PartialEq + std::fmt::Debug>(mut x: T) {
        let bytes = encode(&mut x);
        let mut back = T::default();
        decode(&bytes, &mut back).expect("own encoding decodes");
        assert_eq!(back, x, "decode(encode(x)) must equal x");
        assert_eq!(encode(&mut back), bytes, "encode(decode(encode(x))) must be byte-equal");
    }

    #[derive(Debug, Default, PartialEq)]
    struct Sample {
        id: u32,
        name: String,
        lanes: Vec<Vec<f32>>,
    }
    wire_fields!(Sample: id, name, lanes);

    #[test]
    fn every_value_type_round_trips() {
        assert_value_round_trips(0xA5u8);
        assert_value_round_trips(0xDEAD_BEEFu32);
        assert_value_round_trips(u64::MAX - 1);
        assert_value_round_trips(usize::MAX / 3);
        assert_value_round_trips(-1.5f32);
        assert_value_round_trips(f64::MIN_POSITIVE);
        assert_value_round_trips(true);
        assert_value_round_trips(String::from("top25%+int8+ef"));
        assert_value_round_trips([1u64, 2, 3, 4]);
        assert_value_round_trips(vec![vec![0.25f64, 0.75], vec![]]);
        assert_value_round_trips(VecDeque::from(vec![1.0f64, 1.5]));
        assert_value_round_trips(Some(1.25f32));
        assert_value_round_trips(None::<f64>);
        assert_value_round_trips((0.1f64, 0.2f64));
        assert_value_round_trips(vec![(vec![1.0f32, 2.0], 0usize, 1usize)]);
        assert_value_round_trips(Sample {
            id: 7,
            name: "s".into(),
            lanes: vec![vec![0.5], vec![]],
        });
        let mut rng = StdRng::from_state([9, 10, 11, 12]);
        let mut back = StdRng::from_state([1; 4]);
        decode(&encode(&mut rng), &mut back).unwrap();
        assert_eq!(back.state(), [9, 10, 11, 12]);
    }

    #[test]
    fn the_layout_is_little_endian_and_length_prefixed() {
        assert_eq!(encode(&mut 0x0102_0304u32), [4, 3, 2, 1]);
        assert_eq!(encode(&mut vec![1.0f32]), [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x3f]);
        assert_eq!(encode(&mut Some(2u8)), [1, 2]);
        assert_eq!(encode(&mut String::from("ab")), [2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b']);
    }

    #[test]
    fn malformed_values_are_invalid_data() {
        let cases: [(&str, io::Result<()>); 6] = [
            ("bool", decode(&[2], &mut false)),
            ("utf-8", decode(&[2, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xfe], &mut String::new())),
            ("length", decode(&[0xff; 8], &mut Vec::<f32>::new())),
            ("rng", decode(&[0; 32], &mut StdRng::from_state([1, 2, 3, 4]))),
            ("truncated", decode(&[1, 2, 3], &mut 0u32)),
            ("trailing", decode(&[1, 2, 3, 4, 5], &mut 0u32)),
        ];
        for (name, result) in cases {
            assert_eq!(result.unwrap_err().kind(), io::ErrorKind::InvalidData, "{name}");
        }
    }

    #[test]
    fn live_values_reject_a_different_shape_in_place() {
        let bytes = encode(&mut vec![1.0f32, 2.0]);
        let mut c = Codec::Read { b: &bytes, pos: 0 };
        let err = c.in_place(&mut [0.0f32; 3], "lane count").unwrap_err();
        assert_eq!(
            (err.kind(), err.to_string().as_str()),
            (io::ErrorKind::InvalidData, "lane count")
        );
        let mut c = Codec::Read { b: &bytes, pos: 0 };
        let mut live = [0.0f32; 2];
        c.in_place(&mut live, "lane count").unwrap();
        assert_eq!(live, [1.0, 2.0]);
        // An optional subsystem: presence is configuration too.
        let mut c = Codec::Read { b: &[0], pos: 0 };
        assert!(c.in_place_opt(&mut Some(1u8), "presence").is_err());
        let mut c = Codec::Read { b: &[1, 9], pos: 0 };
        let mut live = Some(1u8);
        c.in_place_opt(&mut live, "presence").unwrap();
        assert_eq!(live, Some(9));
    }

    const FILE: Container = Container { magic: b"FEDMIGRT", version: 4, what: "test file" };

    /// `FILE` sealed into a fresh buffer.
    fn seal(body: impl FnOnce(&mut Codec<'_>) -> io::Result<()>) -> Vec<u8> {
        let mut buf = Vec::new();
        FILE.seal_into(&mut buf, body);
        buf
    }

    #[test]
    fn a_container_verifies_the_frame_before_the_payload_runs() {
        let sealed = seal(|c| 7u64.wire(c));
        assert_eq!(sealed.len(), 8 + 4 + 8 + 4);
        let mut got = 0u64;
        FILE.open(&sealed, |c| got.wire(c)).unwrap();
        assert_eq!(got, 7);

        let refuse = |bytes: &[u8], needle: &str| {
            let err = FILE
                .open(bytes, |_| unreachable!("the payload must not be read: {needle}"))
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{needle}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        };
        for keep in 0..sealed.len() {
            let err = FILE.open(&sealed[..keep], |c| 0u64.wire(c)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "len {keep}");
        }
        refuse(&sealed[..15], "too short");
        let mut wrong_magic = sealed.clone();
        wrong_magic[..8].copy_from_slice(b"FEDMIGRR");
        refuse(&wrong_magic, "magic");
        for pos in 8..sealed.len() {
            let mut flipped = sealed.clone();
            flipped[pos] ^= 0x10;
            refuse(&flipped, "checksum");
        }
        // Another version, correctly checksummed, is still refused.
        let mut other = sealed.clone();
        other[8..12].copy_from_slice(&5u32.to_le_bytes());
        let body_len = other.len() - 4;
        let crc = crc32(&other[..body_len]).to_le_bytes();
        other[body_len..].copy_from_slice(&crc);
        refuse(&other, "unsupported test file version 5");
        // A payload that leaves bytes behind is not the payload.
        let err = FILE.open(&sealed, |c| 0u32.wire(c)).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The reference: one byte per step through row 0 of the table.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLE[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    fn random_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.next_u32() as u8).collect()
    }

    proptest! {
        /// Every block/tail split and every alignment of the start.
        #[test]
        fn crc32_equals_the_bytewise_loop_at_every_length_and_offset(seed in any::<u64>()) {
            let bytes = random_bytes(seed, 16 + 64);
            for start in 0..16 {
                for len in 0..=64 {
                    let window = &bytes[start..start + len];
                    prop_assert_eq!(crc32(window), crc32_bytewise(window));
                }
            }
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_loop_on_a_snapshot_sized_buffer() {
        let bytes = random_bytes(27, 3 * 1024 * 1024 + 13);
        assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }

    /// Each build of [`crc32`] this CPU can run, called directly, against the
    /// byte loop at every length 0–300 (the fold's four-block, one-block and
    /// tail splits on both sides of [`CLMUL_MIN`]) and every start offset
    /// 0–15. Prints the builds it compared, so a CPU without PCLMULQDQ says
    /// so instead of passing silently.
    #[test]
    fn crc32_builds_match_the_bytewise_loop() {
        type Build = fn(u32, &[u8]) -> u32;
        let mut builds: Vec<(&str, Build)> = vec![("slicing16", crc32_slicing16)];
        #[cfg(target_arch = "x86_64")]
        if clmul_detected() {
            // SAFETY: the running CPU reports both features of the build.
            builds.push(("pclmul", |c, bytes| unsafe { crc32_clmul(c, bytes) }));
        } else {
            println!("this CPU has no pclmulqdq and sse4.1: the pclmul build was not run");
        }
        let bytes = random_bytes(41, 15 + 300);
        for start in 0..16 {
            for len in 0..=300 {
                let window = &bytes[start..start + len];
                let want = crc32_bytewise(window);
                for (build, crc) in &builds {
                    assert_eq!(!crc(!0, window), want, "{build}: offset {start}, length {len}");
                }
                assert_eq!(crc32(window), want, "dispatched: offset {start}, length {len}");
            }
        }
        let names: Vec<&str> = builds.iter().map(|(name, _)| *name).collect();
        println!("crc32 builds compared: {}", names.join(" vs "));
    }

    /// `items` through the one-value path: each scalar its own `wire` call.
    fn per_scalar<T: Wire>(items: &mut [T]) -> Vec<u8> {
        let mut c = Codec::Write(Vec::new());
        items.iter_mut().try_for_each(|v| v.wire(&mut c)).unwrap();
        let Codec::Write(buf) = c else { unreachable!() };
        buf
    }

    /// The bulk path writes the per-scalar bytes, reads them back exactly,
    /// and refuses every truncation without a panic.
    fn assert_bulk_matches_per_scalar<T>(mut items: Vec<T>, bits: impl Fn(&T) -> u64)
    where
        T: Wire + Default + Copy + std::fmt::Debug,
    {
        let bytes = per_scalar(&mut items);
        let mut bulk = Codec::Write(Vec::new());
        T::wire_slice(&mut items, &mut bulk).unwrap();
        let Codec::Write(bulk) = bulk else { unreachable!() };
        assert_eq!(bulk, bytes, "bulk bytes");
        let mut prefixed = encode(&mut items.len());
        prefixed.extend_from_slice(&bytes);
        assert_eq!(encode(&mut items), prefixed, "Vec<T> is its length, then the run");

        let mut back = vec![T::default(); items.len()];
        let mut c = Codec::Read { b: &bytes, pos: 0 };
        T::wire_slice(&mut back, &mut c).unwrap();
        let same = back.iter().map(&bits).eq(items.iter().map(&bits));
        assert!(same, "bit-exact read: {back:?} vs {items:?}");
        for keep in 0..bytes.len() {
            let mut c = Codec::Read { b: &bytes[..keep], pos: 0 };
            let err = T::wire_slice(&mut back, &mut c).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "slice prefix {keep}");
        }
        for keep in 0..prefixed.len() {
            let err = decode(&prefixed[..keep], &mut Vec::<T>::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "vec prefix {keep}");
        }
    }

    #[test]
    fn bulk_scalar_slices_write_the_per_scalar_bytes() {
        let f32s = [
            f32::from_bits(0x7FC0_1234), // quiet NaN with a payload
            f32::from_bits(0xFF80_0001), // signalling NaN, sign set
            0.0,
            -0.0,
            f32::from_bits(1), // smallest subnormal
            -f32::from_bits(0x007F_FFFF),
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.5,
            -3.25e-7,
        ];
        assert_bulk_matches_per_scalar(f32s.to_vec(), |v| v.to_bits() as u64);
        let f64s = [
            f64::from_bits(0x7FF8_0000_DEAD_BEEF),
            f64::from_bits(0xFFF0_0000_0000_0001),
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -2.5e300,
        ];
        assert_bulk_matches_per_scalar(f64s.to_vec(), |v| v.to_bits());
        assert_bulk_matches_per_scalar(vec![0, 1, u64::MAX, 0x0102_0304_0506_0708], |&v| v);
        assert_bulk_matches_per_scalar(vec![0, 7, u32::MAX, 0xA1B2_C3D4], |&v| v as u64);
        assert_bulk_matches_per_scalar(random_bytes(5, 37), |&v| v as u64);
        assert_bulk_matches_per_scalar(Vec::<f32>::new(), |v| v.to_bits() as u64);
        // A fixed-size array is the run without its length.
        let mut arr = [1.0f64, -0.0, f64::NAN];
        assert_eq!(encode(&mut arr), per_scalar(&mut arr));
        // A live slice of the wrong size still names its mismatch.
        let bytes = encode(&mut vec![1u64, 2, 3]);
        let err = Codec::Read { b: &bytes, pos: 0 }.in_place(&mut [0u64; 2], "k").unwrap_err();
        assert_eq!((err.kind(), err.to_string().as_str()), (io::ErrorKind::InvalidData, "k"));
    }

    #[test]
    fn sealing_into_a_used_buffer_writes_the_fresh_bytes() {
        let fresh = seal(|c| vec![1.5f32, -2.0].wire(c));
        let mut buf = seal(|c| vec![9u8; 1000].wire(c));
        FILE.seal_into(&mut buf, |c| vec![1.5f32, -2.0].wire(c));
        assert_eq!(buf, fresh);
    }
}
