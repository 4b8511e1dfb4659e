//! The warts *flags* parameter mechanism.
//!
//! Record bodies start with a variable-length flag bitfield: a sequence
//! of bytes in which the seven low bits carry flags (flag numbers are
//! 1-based and increase from the least significant bit of the first
//! byte) and the high bit says another flag byte follows. When at least
//! one flag is set, a 16-bit *parameter length* follows the bitfield,
//! then the parameter values appear back-to-back in flag order.
//!
//! ```text
//! +---------+---------+ ... +-----------+------------------+
//! | flags₀  | flags₁  |     | param len | params in order  |
//! +---------+---------+ ... +-----------+------------------+
//!   bit7 = "more flag bytes follow"
//! ```

use crate::buf::Cursor;
use crate::error::WartsError;
use bytes::{BufMut, BytesMut};

/// A flag set under construction, for writing ([`Flags`] reads one).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlagSet {
    bits: Vec<u8>, // 7 usable bits per element, continuation bit stripped
}

impl FlagSet {
    /// An empty flag set.
    pub fn new() -> Self {
        FlagSet::default()
    }

    /// Sets 1-based flag `n`.
    pub fn set(&mut self, n: u16) {
        assert!(n >= 1, "flags are 1-based");
        let byte = ((n - 1) / 7) as usize;
        let bit = ((n - 1) % 7) as u8;
        if self.bits.len() <= byte {
            self.bits.resize(byte + 1, 0);
        }
        self.bits[byte] |= 1 << bit;
    }

    /// Tests 1-based flag `n`.
    pub fn is_set(&self, n: u16) -> bool {
        if n == 0 {
            return false;
        }
        let byte = ((n - 1) / 7) as usize;
        let bit = ((n - 1) % 7) as u8;
        self.bits.get(byte).is_some_and(|b| b & (1 << bit) != 0)
    }

    /// True when no flag is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&b| b == 0)
    }

    /// Unsets every flag, keeping the allocation.
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// Encodes the flag bitfield into `buf`.
    pub fn write(&self, buf: &mut BytesMut) {
        if self.bits.is_empty() {
            buf.put_u8(0);
            return;
        }
        // Trim trailing zero bytes but always emit at least one byte.
        let mut last = self.bits.len();
        while last > 1 && self.bits[last - 1] == 0 {
            last -= 1;
        }
        for (i, &b) in self.bits[..last].iter().enumerate() {
            let cont = if i + 1 < last { 0x80 } else { 0 };
            buf.put_u8(b | cont);
        }
    }
}

/// A parameter block under construction: flag set plus parameter bytes,
/// finalised into `flags ‖ u16 len ‖ params`.
#[derive(Debug, Default)]
pub struct ParamWriter {
    flags: FlagSet,
    params: BytesMut,
}

impl ParamWriter {
    /// An empty block.
    pub fn new() -> Self {
        ParamWriter::default()
    }

    /// Marks flag `n` and returns the buffer to append its value to.
    /// Parameters **must** be added in increasing flag order; this is
    /// asserted in debug builds via the flag set shape.
    pub fn param(&mut self, n: u16) -> &mut BytesMut {
        debug_assert!(!self.flags.is_set(n), "parameter {n} added twice");
        self.flags.set(n);
        &mut self.params
    }

    /// Finalises into the on-disk layout.
    pub fn finish(mut self, out: &mut BytesMut) {
        self.finish_reset(out);
    }

    /// [`ParamWriter::finish`] for a long-lived writer: emits the block,
    /// then clears the flag set and parameter buffer while keeping both
    /// allocations, so one scratch writer serves every hop of a record
    /// (and every record of a file) without reallocating.
    pub fn finish_reset(&mut self, out: &mut BytesMut) {
        self.flags.write(out);
        if !self.flags.is_empty() {
            out.put_u16(self.params.len() as u16);
            out.put_slice(&self.params);
        }
        self.flags.clear();
        self.params.clear();
    }
}

/// A flag bitfield borrowed from a record body, continuation bits and
/// all: reading and iterating it allocates nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flags<'a>(&'a [u8]);

impl<'a> Flags<'a> {
    /// Takes a flag bitfield (not the parameter length) from a cursor.
    pub fn read(cur: &mut Cursor<'a>) -> Result<Self, WartsError> {
        let last = cur.rest().iter().position(|b| b & 0x80 == 0);
        let last = last.ok_or(WartsError::Truncated { context: "flag byte" })?;
        Ok(Flags(cur.bytes(last + 1, "flag byte")?))
    }

    /// True when no flag is set.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&b| b & 0x7f == 0)
    }

    /// The raw flag bytes, continuation bits included.
    pub(crate) fn bytes(&self) -> &'a [u8] {
        self.0
    }

    /// Iterates over the set flag numbers in increasing order. A number
    /// past `u16::MAX` reads as `u16::MAX`, which no record defines.
    pub fn iter(&self) -> impl Iterator<Item = u16> + 'a {
        self.0.iter().enumerate().flat_map(|(byte, &b)| {
            let mut bits = b & 0x7f;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(u16::try_from(byte * 7 + bit + 1).unwrap_or(u16::MAX))
            })
        })
    }
}

/// Reads a flag set and, when non-empty, its parameter block; hands back
/// the flags and a sub-cursor bounded to exactly the parameter bytes.
pub fn read_params<'a>(
    cur: &mut Cursor<'a>,
    context: &'static str,
) -> Result<(Flags<'a>, Cursor<'a>), WartsError> {
    let flags = Flags::read(cur)?;
    if flags.is_empty() {
        return Ok((flags, Cursor::new(&[])));
    }
    let len = cur.u16(context)? as usize;
    let bytes = cur.bytes(len, context)?;
    Ok((flags, Cursor::new(bytes)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_test() {
        let mut f = FlagSet::new();
        f.set(1);
        f.set(7);
        f.set(8);
        f.set(29);
        for n in [1, 7, 8, 29] {
            assert!(f.is_set(n), "flag {n}");
        }
        for n in [2, 6, 9, 28, 30] {
            assert!(!f.is_set(n), "flag {n}");
        }
    }

    #[test]
    fn wire_roundtrip_multibyte() {
        let mut f = FlagSet::new();
        f.set(3);
        f.set(14);
        f.set(15);
        let mut b = BytesMut::new();
        f.write(&mut b);
        // 15 flags need 3 bytes: first two carry the continuation bit.
        assert_eq!(b.len(), 3);
        assert_eq!(b[0] & 0x80, 0x80);
        assert_eq!(b[1] & 0x80, 0x80);
        assert_eq!(b[2] & 0x80, 0);
        let mut c = Cursor::new(&b);
        let g = Flags::read(&mut c).unwrap();
        assert_eq!(g.iter().collect::<Vec<_>>(), [3, 14, 15]);
        assert!(c.is_empty());
    }

    #[test]
    fn empty_flagset_is_single_zero_byte() {
        let f = FlagSet::new();
        let mut b = BytesMut::new();
        f.write(&mut b);
        assert_eq!(&b[..], &[0]);
        let mut c = Cursor::new(&b);
        assert!(Flags::read(&mut c).unwrap().is_empty());
    }

    #[test]
    fn iter_in_order() {
        let mut f = FlagSet::new();
        for n in [9, 2, 17, 1] {
            f.set(n);
        }
        let mut b = BytesMut::new();
        f.write(&mut b);
        let g = Flags::read(&mut Cursor::new(&b)).unwrap();
        assert_eq!(g.iter().collect::<Vec<_>>(), vec![1, 2, 9, 17]);
    }

    #[test]
    fn param_writer_layout() {
        let mut w = ParamWriter::new();
        w.param(2).put_u8(0xAA);
        w.param(5).put_u16(0x0102);
        let mut out = BytesMut::new();
        w.finish(&mut out);
        // flags byte: bits for 2 and 5 => 0b0001_0010 = 0x12
        assert_eq!(out[0], 0x12);
        // param length = 3
        assert_eq!(u16::from_be_bytes([out[1], out[2]]), 3);
        assert_eq!(&out[3..], &[0xAA, 0x01, 0x02]);
    }

    #[test]
    fn empty_param_writer_writes_zero_flag_byte_only() {
        let w = ParamWriter::new();
        let mut out = BytesMut::new();
        w.finish(&mut out);
        assert_eq!(&out[..], &[0]);
    }

    #[test]
    fn read_params_bounds_subcursor() {
        let mut w = ParamWriter::new();
        w.param(1).put_u32(42);
        let mut out = BytesMut::new();
        w.finish(&mut out);
        out.put_u8(0xFF); // next structure

        let mut c = Cursor::new(&out);
        let (flags, mut params) = read_params(&mut c, "test").unwrap();
        assert_eq!(flags.iter().collect::<Vec<_>>(), [1]);
        assert_eq!(params.u32("v").unwrap(), 42);
        assert!(params.is_empty());
        // Outer cursor sits right after the param block.
        assert_eq!(c.u8("tail").unwrap(), 0xFF);
    }
}
