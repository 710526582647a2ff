//! Minimal length-prefixed wire format helpers.
//!
//! Onion layers, DHT RPC payloads and cloud records all serialize through
//! these little-endian, length-prefixed primitives. Using one tiny hand-
//! rolled format keeps the whole system dependency-free and the parsing
//! failure modes explicit.

use crate::error::CryptoError;

/// Append-only byte writer.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian u16.
    pub fn put_u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Appends bytes with a u32 length prefix.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the u32 frame limit (4 GiB): a frame
    /// that cannot be length-prefixed must fail loudly, never truncate.
    pub fn put_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        // LINT-WAIVER(panic): an unencodable >4 GiB frame must abort; silent truncation would corrupt the wire format
        let len = u32::try_from(bytes.len()).expect("frame exceeds the u32 wire limit");
        self.put_u32(len);
        self.buf.extend_from_slice(bytes);
        self
    }

    /// Appends a length-prefixed table of byte strings: a u16 entry count
    /// followed by each entry as u32-length-prefixed bytes. This is the
    /// framing of the share scheme's flat segment table (format v2).
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u16::MAX` entries — beyond the
    /// format's table limit, failing loud beats silent truncation.
    pub fn put_table(&mut self, entries: &[Vec<u8>]) -> &mut Self {
        // LINT-WAIVER(panic): an unencodable >65535-entry table must abort; silent truncation would corrupt the wire format
        let count = u16::try_from(entries.len()).expect("table exceeds the u16 entry limit");
        self.put_u16(count);
        for entry in entries {
            self.put_bytes(entry);
        }
        self
    }

    /// Finishes and returns the accumulated buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The accumulated bytes without consuming the writer, so one writer
    /// can serve as a reusable scratch buffer across serializations.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the buffer, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Current length of the buffer.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor-based byte reader matching [`Writer`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CryptoError> {
        if self.buf.len() - self.pos < n {
            return Err(CryptoError::InvalidLength {
                context,
                expected: n,
                actual: self.buf.len() - self.pos,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CryptoError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a little-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, CryptoError> {
        let s = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CryptoError> {
        let s = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], CryptoError> {
        self.take(n, "raw bytes")
    }

    /// Reads a u32-length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], CryptoError> {
        let len = self.get_u32()? as usize;
        self.take(len, "length-prefixed bytes")
    }

    /// Reads a table written by [`Writer::put_table`], returning owned
    /// entries.
    ///
    /// # Errors
    ///
    /// Returns a [`CryptoError`] when the count or any entry overruns the
    /// input.
    pub fn get_table(&mut self) -> Result<Vec<Vec<u8>>, CryptoError> {
        let count = self.get_u16()? as usize;
        // Cap the pre-allocation by what the input could possibly hold
        // (each entry costs at least its 4-byte length prefix), so a
        // hostile count cannot force a huge reservation before the
        // per-entry reads fail.
        let mut entries = Vec::with_capacity(count.min(self.remaining() / 4 + 1));
        for _ in 0..count {
            entries.push(self.get_bytes()?.to_vec());
        }
        Ok(entries)
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current cursor offset from the start of the buffer, for parsers
    /// that record spans into the backing buffer instead of copying out.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Returns an error if any input remains unconsumed.
    ///
    /// Strict parsers call this to reject trailing garbage.
    pub fn expect_end(&self) -> Result<(), CryptoError> {
        if self.remaining() != 0 {
            return Err(CryptoError::Malformed("trailing bytes after structure"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut w = Writer::new();
        w.put_u8(7)
            .put_u16(0x1234)
            .put_u32(0xDEAD_BEEF)
            .put_bytes(b"hello")
            .put_raw(b"xyz");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0x1234);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_raw(3).unwrap(), b"xyz");
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn short_reads_error_cleanly() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.get_u32().is_err());
        // Failed read consumes nothing.
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.get_u16().unwrap(), 0x0201);
    }

    #[test]
    fn bytes_with_oversized_length_prefix_error() {
        let mut w = Writer::new();
        w.put_u32(1000); // claims 1000 bytes follow
        w.put_raw(b"short");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn expect_end_rejects_trailing() {
        let r = Reader::new(&[1]);
        assert!(matches!(r.expect_end(), Err(CryptoError::Malformed(_))));
    }

    #[test]
    fn empty_writer_properties() {
        let w = Writer::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn table_roundtrip_and_scratch_reuse() {
        let entries = vec![b"one".to_vec(), Vec::new(), vec![7u8; 300]];
        let mut w = Writer::new();
        w.put_table(&entries);
        let mut r = Reader::new(w.as_slice());
        assert_eq!(r.get_table().unwrap(), entries);
        assert!(r.expect_end().is_ok());
        // The writer is reusable as a scratch buffer.
        w.clear();
        assert!(w.is_empty());
        w.put_table(&[]);
        let mut r = Reader::new(w.as_slice());
        assert_eq!(r.get_table().unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn table_with_lying_count_errors_without_allocation_blowup() {
        let mut w = Writer::new();
        w.put_u16(u16::MAX); // claims 65535 entries in a 2-byte buffer
        let mut r = Reader::new(w.as_slice());
        assert!(r.get_table().is_err());
    }

    proptest! {
        #[test]
        fn table_roundtrip(
            entries in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..40),
                0..12,
            )
        ) {
            let mut w = Writer::new();
            w.put_table(&entries);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.get_table().unwrap(), entries);
            prop_assert!(r.expect_end().is_ok());
        }

        #[test]
        fn bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let mut w = Writer::new();
            w.put_bytes(&data);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.get_bytes().unwrap(), &data[..]);
            prop_assert!(r.expect_end().is_ok());
        }

        #[test]
        fn interleaved_roundtrip(
            a: u32,
            b in proptest::collection::vec(any::<u8>(), 0..50),
            c: u16,
        ) {
            let mut w = Writer::new();
            w.put_u32(a).put_bytes(&b).put_u16(c);
            let buf = w.into_bytes();
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.get_u32().unwrap(), a);
            prop_assert_eq!(r.get_bytes().unwrap(), &b[..]);
            prop_assert_eq!(r.get_u16().unwrap(), c);
        }
    }
}
