//! A minimal little-endian binary codec for cache payloads.
//!
//! The build environment has no serde, so artifact payloads are encoded by
//! hand, mirroring the house style of the text serializers in
//! `warpstl-programs`. Decoding is total: every read returns `Option` and
//! `None` bubbles up as a cache miss, never a panic — the store treats any
//! malformed payload as absent.

/// Append-only payload writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// A fresh, empty writer.
    #[must_use]
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128`, little-endian.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn write_len(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// The finished payload.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-style payload reader; every accessor returns `None` on underrun
/// or malformed data.
#[derive(Debug)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `data` positioned at the start.
    #[must_use]
    pub fn new(data: &'a [u8]) -> ByteReader<'a> {
        ByteReader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.data.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn read_len(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Bytes left unread.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether the reader consumed the whole payload (decoders call this
    /// last, so trailing garbage is rejected).
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut w = ByteWriter::new();
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        w.write_len(42);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32(), Some(0xdead_beef));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.u128(), Some(0x0123_4567_89ab_cdef_0011_2233_4455_6677));
        assert_eq!(r.read_len(), Some(42));
        assert!(r.at_end());
    }

    #[test]
    fn underrun_returns_none_not_panic() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), None);
        let mut r = ByteReader::new(&[]);
        assert_eq!(r.u64(), None);
        assert_eq!(r.read_len(), None);
    }
}
