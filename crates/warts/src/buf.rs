//! Bounded big-endian cursor primitives.
//!
//! Everything in warts is big-endian. [`Cursor`] wraps a byte slice and
//! returns [`WartsError::Truncated`] instead of panicking when the input
//! runs out; [`put_*`](put_u8) helpers append to a `BytesMut`.

use crate::error::WartsError;
use bytes::{BufMut, BytesMut};

/// A bounded reading cursor over a byte slice.
#[derive(Clone, Debug)]
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a slice.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Current offset from the start of the slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// The unread bytes, without consuming them.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.data[self.pos..]
    }

    /// Checks that a cursor over one record body read all of it.
    pub(crate) fn expect_consumed(&self, record_type: u16) -> Result<(), WartsError> {
        if self.is_empty() {
            return Ok(());
        }
        Err(WartsError::LengthMismatch {
            record_type,
            declared: self.data.len(),
            consumed: self.pos,
        })
    }

    /// Reads one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, WartsError> {
        if self.remaining() < 1 {
            return Err(WartsError::Truncated { context });
        }
        let v = self.data[self.pos];
        self.pos += 1;
        Ok(v)
    }

    /// Reads a big-endian u16.
    pub fn u16(&mut self, context: &'static str) -> Result<u16, WartsError> {
        let b = self.bytes(2, context)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, WartsError> {
        let b = self.bytes(4, context)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], WartsError> {
        if self.remaining() < n {
            return Err(WartsError::Truncated { context });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a NUL-terminated string (warts string parameter).
    pub fn cstring(&mut self) -> Result<String, WartsError> {
        let rest = self.rest();
        let nul = rest
            .iter()
            .position(|&b| b == 0)
            .ok_or(WartsError::UnterminatedString)?;
        let s = String::from_utf8_lossy(&rest[..nul]).into_owned();
        self.pos += nul + 1;
        Ok(s)
    }

    /// Reads a warts timeval: seconds and microseconds, both u32.
    pub fn timeval(&mut self, context: &'static str) -> Result<(u32, u32), WartsError> {
        Ok((self.u32(context)?, self.u32(context)?))
    }
}

/// Appends one byte.
pub fn put_u8(buf: &mut BytesMut, v: u8) {
    buf.put_u8(v);
}

/// Appends a big-endian u16.
pub fn put_u16(buf: &mut BytesMut, v: u16) {
    buf.put_u16(v);
}

/// Appends a big-endian u32.
pub fn put_u32(buf: &mut BytesMut, v: u32) {
    buf.put_u32(v);
}

/// Appends a NUL-terminated string.
pub fn put_cstring(buf: &mut BytesMut, s: &str) {
    buf.put_slice(s.as_bytes());
    buf.put_u8(0);
}

/// Appends a warts timeval (seconds, microseconds).
pub fn put_timeval(buf: &mut BytesMut, sec: u32, usec: u32) {
    buf.put_u32(sec);
    buf.put_u32(usec);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut b = BytesMut::new();
        put_u8(&mut b, 0xAB);
        put_u16(&mut b, 0x1234);
        put_u32(&mut b, 0xDEADBEEF);
        let mut c = Cursor::new(&b);
        assert_eq!(c.u8("t").unwrap(), 0xAB);
        assert_eq!(c.u16("t").unwrap(), 0x1234);
        assert_eq!(c.u32("t").unwrap(), 0xDEADBEEF);
        assert!(c.is_empty());
    }

    #[test]
    fn truncation_is_an_error() {
        let data = [0x12];
        let mut c = Cursor::new(&data);
        assert_eq!(c.u16("field"), Err(WartsError::Truncated { context: "field" }));
        // Failed read must not advance.
        assert_eq!(c.position(), 0);
        assert_eq!(c.u8("field").unwrap(), 0x12);
    }

    #[test]
    fn cstring_roundtrip() {
        let mut b = BytesMut::new();
        put_cstring(&mut b, "ark.caida.org");
        put_u8(&mut b, 7);
        let mut c = Cursor::new(&b);
        assert_eq!(c.cstring().unwrap(), "ark.caida.org");
        assert_eq!(c.u8("tail").unwrap(), 7);
    }

    #[test]
    fn unterminated_string() {
        let data = b"abc";
        let mut c = Cursor::new(data);
        assert_eq!(c.cstring(), Err(WartsError::UnterminatedString));
    }

    #[test]
    fn timeval_roundtrip() {
        let mut b = BytesMut::new();
        put_timeval(&mut b, 1_400_000_000, 123_456);
        let mut c = Cursor::new(&b);
        assert_eq!(c.timeval("tv").unwrap(), (1_400_000_000, 123_456));
    }
}
