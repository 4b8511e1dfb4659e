//! The warts dictionary-coded address scheme.
//!
//! Addresses appear many times in a trace file, so warts dictionary-
//! codes them per file: the first occurrence is embedded as
//! `u8 length ‖ u8 type ‖ bytes` and implicitly assigns the next
//! sequential table id; every later occurrence is `u8 0 ‖ u32 id`.
//! Reader and writer therefore both carry a table that persists across
//! records of the same file.

use crate::buf::Cursor;
use crate::error::WartsError;
use bytes::{BufMut, BytesMut};
use std::collections::HashMap;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Address type code for IPv4.
pub const ADDR_TYPE_IPV4: u8 = 1;
/// Address type code for IPv6.
pub const ADDR_TYPE_IPV6: u8 = 2;

/// A network address as stored in warts.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Addr {
    /// An IPv4 address.
    V4(Ipv4Addr),
    /// An IPv6 address (carried for completeness; the LPR analysis is
    /// IPv4-only, like the paper's dataset).
    V6(Ipv6Addr),
}

impl Addr {
    /// The IPv4 address, when this is one.
    pub fn as_v4(&self) -> Option<Ipv4Addr> {
        match self {
            Addr::V4(a) => Some(*a),
            Addr::V6(_) => None,
        }
    }
}

impl From<Ipv4Addr> for Addr {
    fn from(a: Ipv4Addr) -> Self {
        Addr::V4(a)
    }
}

impl From<Ipv6Addr> for Addr {
    fn from(a: Ipv6Addr) -> Self {
        Addr::V6(a)
    }
}

/// Reader-side address table.
#[derive(Clone, Debug, Default)]
pub struct AddrTableReader {
    table: Vec<Addr>,
    /// Reference ids at or past this fail: set once a lenient reader
    /// has lost a record, past which its ids and the writer's part.
    limit: Option<usize>,
}

impl AddrTableReader {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table preloaded with a file's full dictionary, in table-id
    /// order (as captured by [`AddrTableReader::snapshot`] at the end
    /// of a sequential pass).
    ///
    /// Re-decoding any record of the same file against the preloaded
    /// table yields the addresses the sequential decode saw: reference
    /// ids always resolve (the full table is a superset of every
    /// prefix), and embed-form occurrences append duplicates past the
    /// preload, which nothing references.
    pub fn from_table(table: Vec<Addr>) -> Self {
        AddrTableReader { table, limit: None }
    }

    /// The dictionary learned so far, in table-id order.
    pub fn snapshot(&self) -> Vec<Addr> {
        self.table.clone()
    }

    /// Number of addresses learned so far.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True when no address has been learned.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Refuses every later reference to an id at or past `len`, as
    /// [`WartsError::UnknownAddrId`]; embedded addresses still decode.
    /// Only the first call sets the limit.
    pub(crate) fn limit_references(&mut self, len: usize) {
        self.limit.get_or_insert(len);
    }

    /// Decodes one address parameter, updating the table on first
    /// occurrences.
    pub fn read(&mut self, cur: &mut Cursor<'_>) -> Result<Addr, WartsError> {
        let len = cur.u8("address length")?;
        if len == 0 {
            let id = cur.u32("address id")?;
            let usable = self.limit.is_none_or(|limit| (id as usize) < limit);
            return self
                .table
                .get(id as usize)
                .filter(|_| usable)
                .copied()
                .ok_or(WartsError::UnknownAddrId { id });
        }
        let type_code = cur.u8("address type")?;
        let addr = match (type_code, len) {
            (ADDR_TYPE_IPV4, 4) => {
                let b = cur.bytes(4, "IPv4 address")?;
                Addr::V4(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            (ADDR_TYPE_IPV6, 16) => {
                let b = cur.bytes(16, "IPv6 address")?;
                let mut oct = [0u8; 16];
                oct.copy_from_slice(b);
                Addr::V6(Ipv6Addr::from(oct))
            }
            _ => return Err(WartsError::BadAddrType { type_code, len }),
        };
        self.table.push(addr);
        Ok(addr)
    }
}

/// Writer-side address table.
#[derive(Clone, Debug, Default)]
pub struct AddrTableWriter {
    ids: HashMap<Addr, u32>,
}

impl AddrTableWriter {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes one address parameter, updating the table on first
    /// occurrences.
    pub fn write(&mut self, buf: &mut BytesMut, addr: Addr) {
        if let Some(&id) = self.ids.get(&addr) {
            buf.put_u8(0);
            buf.put_u32(id);
            return;
        }
        let id = self.ids.len() as u32;
        self.ids.insert(addr, id);
        match addr {
            Addr::V4(a) => {
                buf.put_u8(4);
                buf.put_u8(ADDR_TYPE_IPV4);
                buf.put_slice(&a.octets());
            }
            Addr::V6(a) => {
                buf.put_u8(16);
                buf.put_u8(ADDR_TYPE_IPV6);
                buf.put_slice(&a.octets());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_occurrence_embeds_then_references() {
        let a: Addr = Ipv4Addr::new(10, 0, 0, 1).into();
        let b: Addr = Ipv4Addr::new(10, 0, 0, 2).into();
        let mut w = AddrTableWriter::new();
        let mut buf = BytesMut::new();
        w.write(&mut buf, a); // embedded: 6 bytes
        w.write(&mut buf, b); // embedded: 6 bytes
        w.write(&mut buf, a); // reference: 5 bytes
        assert_eq!(buf.len(), 6 + 6 + 5);

        let mut r = AddrTableReader::new();
        let mut cur = Cursor::new(&buf);
        assert_eq!(r.read(&mut cur).unwrap(), a);
        assert_eq!(r.read(&mut cur).unwrap(), b);
        assert_eq!(r.read(&mut cur).unwrap(), a);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ipv6_roundtrip() {
        let a: Addr = "2001:db8::1".parse::<Ipv6Addr>().unwrap().into();
        let mut w = AddrTableWriter::new();
        let mut buf = BytesMut::new();
        w.write(&mut buf, a);
        let mut r = AddrTableReader::new();
        assert_eq!(r.read(&mut Cursor::new(&buf)).unwrap(), a);
        assert_eq!(a.as_v4(), None);
    }

    #[test]
    fn dangling_reference_is_an_error() {
        let mut buf = BytesMut::new();
        buf.put_u8(0);
        buf.put_u32(3);
        let mut r = AddrTableReader::new();
        assert_eq!(
            r.read(&mut Cursor::new(&buf)),
            Err(WartsError::UnknownAddrId { id: 3 })
        );
    }

    #[test]
    fn bad_type_is_an_error() {
        let mut buf = BytesMut::new();
        buf.put_u8(4);
        buf.put_u8(9); // bogus type code
        buf.put_slice(&[1, 2, 3, 4]);
        let mut r = AddrTableReader::new();
        assert_eq!(
            r.read(&mut Cursor::new(&buf)),
            Err(WartsError::BadAddrType { type_code: 9, len: 4 })
        );
    }

    #[test]
    fn table_state_is_shared_across_records() {
        // Simulates two records in one file: the second references an
        // address the first embedded.
        let a: Addr = Ipv4Addr::new(192, 0, 2, 1).into();
        let mut w = AddrTableWriter::new();
        let mut rec1 = BytesMut::new();
        w.write(&mut rec1, a);
        let mut rec2 = BytesMut::new();
        w.write(&mut rec2, a);
        assert_eq!(rec2.len(), 5);

        let mut r = AddrTableReader::new();
        r.read(&mut Cursor::new(&rec1)).unwrap();
        assert_eq!(r.read(&mut Cursor::new(&rec2)).unwrap(), a);
    }
}
