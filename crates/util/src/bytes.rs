//! An immutable, cheaply-cloneable byte buffer.
//!
//! API-compatible (for the subset this workspace uses) with the
//! `bytes` crate: `Bytes::new/from/from_static/copy_from_slice`,
//! zero-copy `slice(range)`, `Deref<Target = [u8]>`, and conversions
//! from `Vec<u8>` and iterators. Backed by an `Arc<Box<[u8]>>` — or
//! a borrowed `&'static [u8]` for [`Bytes::from_static`] — plus a
//! window, so clones and sub-slices are O(1) and never copy the
//! payload. The box is the vector's own heap buffer, so
//! `Bytes::from(Vec<u8>)` takes it over without copying (an
//! `Arc<[u8]>` would have to copy it behind its refcount header).

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// The backing storage: refcounted heap bytes, or a borrowed static
/// slice (no allocation, no refcount traffic).
#[derive(Clone)]
enum Data {
    Shared(Arc<Box<[u8]>>),
    Static(&'static [u8]),
}

impl Data {
    fn as_slice(&self) -> &[u8] {
        match self {
            Data::Shared(a) => a,
            Data::Static(s) => s,
        }
    }
}

/// Immutable shared byte buffer; clones and `slice()` are O(1).
#[derive(Clone)]
pub struct Bytes {
    data: Data,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer (no allocation at all).
    pub fn new() -> Self {
        Bytes::from_static(&[])
    }

    /// Wraps a static slice without copying: the buffer borrows the
    /// slice for the program's lifetime, so construction, clones, and
    /// sub-slices never allocate.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            data: Data::Static(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from_vec(data.to_vec())
    }

    /// Takes over `v`'s buffer. `into_boxed_slice` reallocates only
    /// to shed spare capacity, and never when `len == capacity`.
    fn from_vec(v: Vec<u8>) -> Self {
        Bytes::from(v.into_boxed_slice())
    }

    /// Number of bytes in the (windowed) buffer.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Zero-copy sub-slice sharing the same allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted, matching the
    /// `bytes` crate.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let len = self.len();
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => len,
        };
        assert!(
            begin <= end && end <= len,
            "slice range {begin}..{end} out of bounds for Bytes of length {len}"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + begin,
            end: self.start + end,
        }
    }

    /// Copies the contents out into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data.as_slice()[self.start..self.end]
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        let end = v.len();
        Bytes {
            data: Data::Shared(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes::from_vec(v.into_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from_vec(iter.into_iter().collect())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        if self.len() > 32 {
            write!(f, "…(+{} bytes)", self.len() - 32)?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_is_zero_copy_and_windowed() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let s = b.slice(2..6);
        assert_eq!(&s[..], &[2, 3, 4, 5]);
        let s2 = s.slice(1..=2);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(s2.len(), 2);
        // Same allocation: s2's first byte is b's byte 3 in memory.
        assert!(std::ptr::eq(&b[3], &s2[0]));
        match (&b.data, &s2.data) {
            (Data::Shared(a), Data::Shared(c)) => assert!(Arc::ptr_eq(a, c)),
            _ => panic!("vec-backed Bytes must stay Shared"),
        }
    }

    #[test]
    fn from_vec_keeps_the_vec_heap_buffer() {
        let v = vec![7u8; 4096];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert!(std::ptr::eq(ptr, b.as_slice().as_ptr()));
    }

    #[test]
    fn from_static_borrows_without_copying() {
        static PAYLOAD: &[u8] = b"immutable static payload";
        let b = Bytes::from_static(PAYLOAD);
        // Genuinely zero-copy: the buffer points at the static itself.
        assert!(std::ptr::eq(PAYLOAD.as_ptr(), b.as_slice().as_ptr()));
        // And slicing it stays on the static — no allocation appears.
        let s = b.slice(10..16);
        assert_eq!(&s[..], b"static");
        assert!(std::ptr::eq(&PAYLOAD[10], &s[0]));
        assert!(matches!(s.data, Data::Static(_)));
        // The empty buffer rides the same path.
        assert!(matches!(Bytes::new().data, Data::Static(_)));
        assert!(Bytes::new().is_empty());
    }

    #[test]
    fn equality_and_conversions() {
        let b = Bytes::copy_from_slice(b"hello");
        assert_eq!(b, Bytes::from(b"hello".to_vec()));
        assert_eq!(b, b"hello"[..]);
        assert_eq!(b.to_vec(), b"hello".to_vec());
        assert!(Bytes::new().is_empty());
        let collected: Bytes = (0u8..4).collect();
        assert_eq!(&collected[..], &[0, 1, 2, 3]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_slice_panics() {
        Bytes::from(vec![1, 2, 3]).slice(1..9);
    }

    #[test]
    fn slice_edge_cases_match_native_slicing() {
        // Empty, full-range, and nested slices must agree with what the
        // same ranges produce on a plain &[u8], including at the ends.
        let raw: Vec<u8> = (0..=255u8).collect();
        let b = Bytes::from(raw.clone());
        assert_eq!(b.slice(..), raw[..]);
        assert_eq!(b.slice(0..0).len(), 0);
        assert_eq!(b.slice(256..256).len(), 0);
        assert_eq!(b.slice(..=255), raw[..]);
        assert_eq!(b.slice(100..100), raw[100..100][..]);
        // Nested re-slicing composes like nested range indexing.
        let outer = b.slice(16..240);
        let mid = outer.slice(10..200);
        let inner = mid.slice(5..=5);
        assert_eq!(mid, raw[26..216][..]);
        assert_eq!(inner, raw[31..32][..]);
        // A zero-length slice of a slice, at its very end.
        let empty = mid.slice(mid.len()..);
        assert!(empty.is_empty());
        assert_eq!(empty.to_vec(), Vec::<u8>::new());
        // Slicing an empty buffer by its full (empty) range works.
        assert!(Bytes::new().slice(..).is_empty());
        assert!(Bytes::new().slice(0..0).is_empty());
    }
}
