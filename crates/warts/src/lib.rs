//! # warts — the scamper binary traceroute format
//!
//! CAIDA's Archipelago measurement infrastructure stores its traceroute
//! campaigns in **warts**, the binary format of
//! [scamper](https://www.caida.org/catalog/software/scamper/). The LPR
//! study (paper §4.1) consumes five years of such dumps; this crate
//! provides the reader the study needs and a writer so that simulated
//! campaigns can be serialised into the very same container.
//!
//! ## Format overview
//!
//! A warts file is a sequence of records, each preceded by an 8-byte
//! header: a magic (`0x1205`), a record type and a 32-bit length, all
//! big-endian. This crate supports the record types an Ark trace file
//! contains:
//!
//! | type | record |
//! |------|--------|
//! | 0x01 | list definition |
//! | 0x02 | cycle start |
//! | 0x04 | cycle stop |
//! | 0x06 | traceroute |
//! | 0x07 | ping |
//!
//! Record bodies use warts' *flags* mechanism: a variable-length flag
//! bitfield (7 flags per byte, high bit = continuation), followed — when
//! any flag is set — by a 16-bit parameter-block length and the
//! parameters in flag order ([`flags`]). Addresses are dictionary-coded
//! per file: the first occurrence embeds the raw bytes and implicitly
//! assigns the next table id, later occurrences are 32-bit references
//! ([`addr`]). ICMP extensions (RFC 4884), and in particular the MPLS
//! label-stack object of RFC 4950, ride on hop records ([`icmpext`]).
//!
//! Both readers, [`WartsReader`] (a byte slice) and [`WartsStreamReader`]
//! (any `Read`), run one record [`Framer`]. They are strict about
//! structure (truncated records, bad magics, lengths over 64 MiB and
//! undecodable addresses are typed errors, never panics) unless made
//! [`Framer::lenient`], which skips and counts such records instead. They
//! are tolerant about content: unknown *record types* are surfaced as
//! [`Record::Unsupported`] so callers can skip them, like scamper tools
//! do.
//!
//! ## Example
//!
//! ```
//! use warts::{WartsWriter, WartsReader, Record, TraceRecord, HopRecord};
//! use std::net::Ipv4Addr;
//!
//! let mut writer = WartsWriter::new();
//! writer.list(1, "default");
//! writer.cycle_start(1, 1, 1_400_000_000);
//! let mut trace = TraceRecord::new(
//!     Ipv4Addr::new(192, 0, 2, 1).into(),
//!     Ipv4Addr::new(198, 51, 100, 9).into(),
//! );
//! trace.hops.push(HopRecord::reply(1, Ipv4Addr::new(10, 0, 0, 1).into(), 1200));
//! writer.trace(&trace).unwrap();
//! writer.cycle_stop(1, 1_400_000_600);
//! let bytes = writer.into_bytes();
//!
//! let mut reader = WartsReader::new(&bytes);
//! let records: Vec<Record> = reader.by_ref().collect::<Result<_, _>>().unwrap();
//! assert_eq!(records.len(), 4);
//! assert!(matches!(records[2], Record::Trace(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod buf;
pub mod convert;
pub mod cycle;
pub mod error;
pub mod file;
pub mod flags;
pub mod frame;
pub mod icmpext;
pub mod list;
pub mod ping;
pub mod stream;
pub mod text;
pub mod trace;

pub use addr::{Addr, AddrTableReader};
pub use convert::{encode_cycle, trace_to_core, trace_to_record, Conversion, TraceBuf};
pub use cycle::{CycleRecord, CycleStopRecord};
pub use error::WartsError;
pub use file::{read_path, write_path, Record, RecordType, WartsReader, WartsWriter, WARTS_MAGIC};
pub use frame::{
    decode_record_body, Framer, RecordHeader, RecordSpan, SkipReason, Source, MAX_RECORD_LEN,
};
pub use icmpext::{IcmpExt, MPLS_EXT_CLASS, MPLS_EXT_TYPE};
pub use list::ListRecord;
pub use ping::{PingRecord, PingReply};
pub use stream::{Refill, StreamError, WartsStreamReader};
pub use text::{ping_to_text, trace_to_text};
pub use trace::{HopRecord, StopReason, TraceRecord};
