//! ICMP extension structures (RFC 4884) and the MPLS label-stack
//! extension object (RFC 4950).
//!
//! When an LSR's MPLS TTL expires it may quote the label stack of the
//! offending packet inside the ICMP `time-exceeded` message. scamper
//! stores the decoded extension objects on the hop record; the warts
//! encoding of the hop parameter is:
//!
//! ```text
//! u16 total-length
//!   repeat:
//!     u16 data-length ‖ u8 class ‖ u8 type ‖ data
//! ```
//!
//! For the MPLS object (class 1, type 1) the data is a sequence of
//! 4-byte label-stack entries, outermost first.

use crate::buf::Cursor;
use crate::error::WartsError;
use bytes::{BufMut, BytesMut};
use lpr_core::label::{LabelStack, Lse};

/// RFC 4950 MPLS label stack object class.
pub const MPLS_EXT_CLASS: u8 = 1;
/// RFC 4950 MPLS label stack object type.
pub const MPLS_EXT_TYPE: u8 = 1;

/// One decoded ICMP extension object.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IcmpExt {
    /// Extension class number.
    pub class: u8,
    /// Extension type number.
    pub kind: u8,
    /// Raw object payload.
    pub data: Vec<u8>,
}

impl IcmpExt {
    /// Builds the RFC 4950 object carrying an MPLS label stack.
    pub fn mpls(stack: &LabelStack) -> Self {
        let mut data = Vec::with_capacity(stack.depth() * 4);
        for lse in stack.entries() {
            data.extend_from_slice(&lse.to_u32().to_be_bytes());
        }
        IcmpExt { class: MPLS_EXT_CLASS, kind: MPLS_EXT_TYPE, data }
    }

    /// This object, borrowed.
    pub(crate) fn object(&self) -> ExtObject<'_> {
        ExtObject { class: self.class, kind: self.kind, data: &self.data }
    }

    /// Whether this object is an RFC 4950 MPLS label stack.
    pub fn is_mpls(&self) -> bool {
        self.object().is_mpls()
    }

    /// Decodes the MPLS label stack carried by this object, if it is
    /// one. Returns an error when the payload length is not a multiple
    /// of four.
    pub fn mpls_stack(&self) -> Result<Option<LabelStack>, WartsError> {
        if !self.is_mpls() {
            return Ok(None);
        }
        Ok(Some(self.object().mpls_entries()?.collect()))
    }
}

impl From<ExtObject<'_>> for IcmpExt {
    fn from(o: ExtObject<'_>) -> Self {
        IcmpExt { class: o.class, kind: o.kind, data: o.data.to_vec() }
    }
}

/// One extension object borrowed from a record body.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ExtObject<'a> {
    /// Extension class number.
    pub class: u8,
    /// Extension type number.
    pub kind: u8,
    /// Raw object payload.
    pub data: &'a [u8],
}

impl<'a> ExtObject<'a> {
    /// Whether this object is an RFC 4950 MPLS label stack.
    pub fn is_mpls(&self) -> bool {
        self.class == MPLS_EXT_CLASS && self.kind == MPLS_EXT_TYPE
    }

    /// The payload read as label-stack entries, outermost first; an
    /// error when its length is not a multiple of four.
    pub fn mpls_entries(&self) -> Result<impl ExactSizeIterator<Item = Lse> + 'a, WartsError> {
        if !self.data.len().is_multiple_of(4) {
            return Err(WartsError::BadIcmpExt { reason: "MPLS data not a multiple of 4 bytes" });
        }
        let words = self.data.chunks_exact(4);
        Ok(words.map(|c| Lse::from_u32(u32::from_be_bytes([c[0], c[1], c[2], c[3]]))))
    }
}

/// The warts ICMP-extension hop parameter, checked and left in the
/// record body.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ExtBlock<'a>(&'a [u8]);

impl<'a> ExtBlock<'a> {
    /// Takes the parameter from `cur`, checking that its objects fill
    /// the declared length exactly.
    pub fn read(cur: &mut Cursor<'a>) -> Result<Self, WartsError> {
        let total = cur.u16("icmpext total length")? as usize;
        let block = cur.bytes(total, "icmpext block")?;
        let mut inner = Cursor::new(block);
        while !inner.is_empty() {
            next_object(&mut inner)?;
        }
        Ok(ExtBlock(block))
    }

    /// The objects, in wire order.
    pub fn objects(self) -> impl Iterator<Item = ExtObject<'a>> {
        let mut inner = Cursor::new(self.0);
        std::iter::from_fn(move || next_object(&mut inner).ok())
    }
}

fn next_object<'a>(cur: &mut Cursor<'a>) -> Result<ExtObject<'a>, WartsError> {
    let dl = cur.u16("icmpext data length")? as usize;
    let class = cur.u8("icmpext class")?;
    let kind = cur.u8("icmpext type")?;
    let data = cur.bytes(dl, "icmpext data")?;
    Ok(ExtObject { class, kind, data })
}

/// Encodes a list of extension objects as the warts hop parameter.
pub fn write_exts(buf: &mut BytesMut, exts: &[IcmpExt]) {
    let total: usize = exts.iter().map(|e| 4 + e.data.len()).sum();
    buf.put_u16(total as u16);
    for e in exts {
        buf.put_u16(e.data.len() as u16);
        buf.put_u8(e.class);
        buf.put_u8(e.kind);
        buf.put_slice(&e.data);
    }
}

/// Convenience: the first MPLS label stack found among extension
/// objects, if any.
pub fn mpls_stack_of(exts: &[IcmpExt]) -> Result<Option<LabelStack>, WartsError> {
    for e in exts {
        if let Some(stack) = e.mpls_stack()? {
            return Ok(Some(stack));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpr_core::label::Label;

    fn read_exts(cur: &mut Cursor<'_>) -> Result<Vec<IcmpExt>, WartsError> {
        Ok(ExtBlock::read(cur)?.objects().map(IcmpExt::from).collect())
    }

    #[test]
    fn mpls_object_roundtrip() {
        let stack = LabelStack::from_entries(&[
            Lse::new(Label::new(300_000), 2, false, 250),
            Lse::new(Label::new(17), 0, true, 250),
        ]);
        let ext = IcmpExt::mpls(&stack);
        assert!(ext.is_mpls());
        assert_eq!(ext.data.len(), 8);
        assert_eq!(ext.mpls_stack().unwrap().unwrap(), stack);
    }

    #[test]
    fn non_mpls_object_yields_none() {
        let ext = IcmpExt { class: 2, kind: 1, data: vec![1, 2, 3] };
        assert_eq!(ext.mpls_stack().unwrap(), None);
    }

    #[test]
    fn bad_mpls_length() {
        let ext = IcmpExt { class: 1, kind: 1, data: vec![1, 2, 3] };
        assert!(ext.mpls_stack().is_err());
    }

    #[test]
    fn wire_roundtrip_multiple_objects() {
        let stack = LabelStack::from_entries(&[Lse::transit(42, 255)]);
        let exts = vec![
            IcmpExt::mpls(&stack),
            IcmpExt { class: 3, kind: 7, data: vec![0xAA, 0xBB] },
        ];
        let mut buf = BytesMut::new();
        write_exts(&mut buf, &exts);
        let mut cur = Cursor::new(&buf);
        let back = read_exts(&mut cur).unwrap();
        assert_eq!(back, exts);
        assert!(cur.is_empty());
        assert_eq!(mpls_stack_of(&back).unwrap().unwrap(), stack);
    }

    #[test]
    fn truncated_block_is_an_error() {
        let stack = LabelStack::from_entries(&[Lse::transit(42, 255)]);
        let mut buf = BytesMut::new();
        write_exts(&mut buf, &[IcmpExt::mpls(&stack)]);
        let cut = &buf[..buf.len() - 1];
        assert!(read_exts(&mut Cursor::new(cut)).is_err());
    }

    #[test]
    fn empty_ext_list() {
        let mut buf = BytesMut::new();
        write_exts(&mut buf, &[]);
        let mut cur = Cursor::new(&buf);
        assert!(read_exts(&mut cur).unwrap().is_empty());
    }
}
