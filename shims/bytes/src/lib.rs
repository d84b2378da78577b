//! Workspace-local stand-in for the `bytes` crate: a cheaply cloneable,
//! sliceable byte buffer (`Bytes`), a growable writer (`BytesMut`) and the
//! `Buf`/`BufMut` access traits — exactly the surface the wire format and
//! checkpoint code use. See `shims/README.md` for why external crates are
//! vendored.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer; clones and slices share the
/// underlying allocation.
#[derive(Clone, Debug, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Wraps a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Self::from(bytes.to_vec())
    }

    /// Number of bytes in view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-view sharing the same allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            std::ops::Bound::Included(&s) => s,
            std::ops::Bound::Excluded(&s) => s + 1,
            std::ops::Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            std::ops::Bound::Included(&e) => e + 1,
            std::ops::Bound::Excluded(&e) => e,
            std::ops::Bound::Unbounded => self.len(),
        };
        assert!(start <= end && end <= self.len(), "slice out of bounds");
        Bytes { data: Arc::clone(&self.data), start: self.start + start, end: self.start + end }
    }

    /// Splits off and returns the first `at` bytes, advancing `self` past
    /// them.
    ///
    /// # Panics
    /// Panics if `at > self.len()`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = self.slice(0..at);
        self.start += at;
        head
    }

    fn take(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "buffer underflow: need {n}, have {}", self.len());
        let s = self.start;
        self.start += n;
        &self.data[s..s + n]
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self { data: v.into(), start: 0, end }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

/// Sequential reader over a byte buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;

    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32;
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        let _ = self.take(cnt);
    }

    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().expect("8 bytes"))
    }

    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_le_bytes(self.take(4).try_into().expect("4 bytes"))
    }
}

/// A growable byte writer; `freeze` converts it into [`Bytes`].
#[derive(Clone, Debug, Default)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// An empty writer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { vec: Vec::with_capacity(capacity) }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

/// Sequential writer into a byte buffer.
pub trait BufMut {
    /// Appends a raw byte slice.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u64_le(7);
        w.put_u32_le(9);
        w.put_f32_le(1.5);
        w.put_slice(b"ab");
        let mut b = w.freeze();
        assert_eq!(b.len(), 18);
        assert_eq!(b.get_u64_le(), 7);
        assert_eq!(b.get_u32_le(), 9);
        assert_eq!(b.get_f32_le(), 1.5);
        assert_eq!(&b[..], b"ab");
    }

    #[test]
    fn slices_share_and_bound_check() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[1, 2, 3]);
        let s2 = s.slice(1..=1);
        assert_eq!(&s2[..], &[2]);
    }

    #[test]
    fn split_to_advances() {
        let mut b = Bytes::from(vec![9, 8, 7, 6]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[9, 8]);
        assert_eq!(&b[..], &[7, 6]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn reading_past_end_panics() {
        let mut b = Bytes::from(vec![1, 2]);
        let _ = b.get_u64_le();
    }
}
