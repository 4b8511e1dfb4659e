//! Records, the in-memory [`WartsReader`] and the [`WartsWriter`].
//!
//! Record framing (the 8-byte header, its magic and length bound) lives
//! in [`crate::frame`].

use crate::addr::AddrTableWriter;
use crate::cycle::{CycleRecord, CycleStopRecord};
use crate::error::WartsError;
use crate::frame::{Framer, Source};
use crate::list::ListRecord;
use crate::ping::PingRecord;
use crate::trace::TraceRecord;
use bytes::{BufMut, BytesMut};

/// The warts magic number.
pub const WARTS_MAGIC: u16 = 0x1205;

/// Record type codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u16)]
pub enum RecordType {
    /// List definition.
    List = 0x01,
    /// Cycle start.
    CycleStart = 0x02,
    /// Cycle definition (treated like a start).
    CycleDef = 0x03,
    /// Cycle stop.
    CycleStop = 0x04,
    /// Traceroute.
    Trace = 0x06,
    /// Ping.
    Ping = 0x07,
}

/// One decoded record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A list definition.
    List(ListRecord),
    /// A cycle start (or cycle definition).
    CycleStart(CycleRecord),
    /// A cycle stop.
    CycleStop(CycleStopRecord),
    /// A traceroute.
    Trace(TraceRecord),
    /// A ping.
    Ping(PingRecord),
    /// A record type this implementation does not decode (e.g.
    /// tracelb, 0x0a). The body is preserved so tools can re-emit it.
    Unsupported {
        /// Raw record type code.
        record_type: u16,
        /// Raw body bytes.
        body: Vec<u8>,
    },
}

/// The in-memory warts reader: the [`Framer`] over a byte slice, which
/// decodes bodies in place. Strict unless [`Framer::lenient`].
pub type WartsReader<'a> = Framer<&'a [u8]>;

impl<'a> Framer<&'a [u8]> {
    /// Wraps a byte slice holding a warts file.
    pub fn new(data: &'a [u8]) -> Self {
        Framer::from_source(data)
    }
}

/// A slice is all of its input at once: it never refills or fails.
impl Source for &[u8] {
    type Error = WartsError;

    fn window(&self) -> (&[u8], bool) {
        (self, true)
    }

    fn fill(&mut self, _n: usize) -> Result<(), WartsError> {
        Ok(())
    }

    fn consume(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// A writer building an in-memory warts file.
pub struct WartsWriter {
    out: BytesMut,
    addrs: AddrTableWriter,
    next_list_file_id: u32,
    next_cycle_file_id: u32,
}

impl Default for WartsWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl WartsWriter {
    /// An empty file.
    pub fn new() -> Self {
        WartsWriter {
            out: BytesMut::new(),
            addrs: AddrTableWriter::new(),
            next_list_file_id: 1,
            next_cycle_file_id: 1,
        }
    }

    /// Writes a record header with a zero length placeholder; the body
    /// is then encoded straight into the file buffer (no per-record
    /// allocation) and [`Self::end_record`] backpatches the length.
    fn begin_record(&mut self, record_type: RecordType) -> usize {
        self.out.put_u16(WARTS_MAGIC);
        self.out.put_u16(record_type as u16);
        self.out.put_u32(0);
        self.out.len()
    }

    /// Backpatches the length placeholder of the record whose body
    /// started at `body_start`.
    fn end_record(&mut self, body_start: usize) {
        let len = (self.out.len() - body_start) as u32;
        self.out[body_start - 4..body_start].copy_from_slice(&len.to_be_bytes());
    }

    /// Appends a list definition; returns its file-local id.
    pub fn list(&mut self, list_id: u32, name: &str) -> u32 {
        let id = self.next_list_file_id;
        self.next_list_file_id += 1;
        let rec = ListRecord { id, list_id, name: to_owned(name), descr: None, monitor: None };
        self.list_record(&rec);
        id
    }

    /// Appends a full list record.
    pub fn list_record(&mut self, rec: &ListRecord) {
        let start = self.begin_record(RecordType::List);
        rec.write(&mut self.out);
        self.end_record(start);
    }

    /// Appends a cycle start; returns its file-local id.
    pub fn cycle_start(&mut self, list_file_id: u32, cycle_id: u32, start: u32) -> u32 {
        let id = self.next_cycle_file_id;
        self.next_cycle_file_id += 1;
        let rec = CycleRecord {
            id,
            list_id: list_file_id,
            cycle_id,
            start,
            stop: None,
            hostname: None,
        };
        let at = self.begin_record(RecordType::CycleStart);
        rec.write(&mut self.out);
        self.end_record(at);
        id
    }

    /// Appends a cycle stop for a cycle's file-local id.
    pub fn cycle_stop(&mut self, cycle_file_id: u32, stop: u32) {
        let rec = CycleStopRecord { id: cycle_file_id, stop };
        let at = self.begin_record(RecordType::CycleStop);
        rec.write(&mut self.out);
        self.end_record(at);
    }

    /// Appends a traceroute record.
    pub fn trace(&mut self, rec: &TraceRecord) -> Result<(), WartsError> {
        let at = self.begin_record(RecordType::Trace);
        rec.write(&mut self.out, &mut self.addrs);
        self.end_record(at);
        Ok(())
    }

    /// Appends a ping record.
    pub fn ping(&mut self, rec: &PingRecord) -> Result<(), WartsError> {
        let at = self.begin_record(RecordType::Ping);
        rec.write(&mut self.out, &mut self.addrs);
        self.end_record(at);
        Ok(())
    }

    /// Finishes the file and hands back its bytes (no copy).
    pub fn into_bytes(self) -> Vec<u8> {
        self.out.into_vec()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }
}

fn to_owned(s: &str) -> String {
    s.to_string()
}

/// Reads every record of a warts file on disk.
pub fn read_path(path: impl AsRef<std::path::Path>) -> std::io::Result<Vec<Record>> {
    let bytes = std::fs::read(path)?;
    WartsReader::new(&bytes)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
}

/// Writes a finished [`WartsWriter`]'s bytes to disk.
pub fn write_path(
    path: impl AsRef<std::path::Path>,
    writer: WartsWriter,
) -> std::io::Result<()> {
    std::fs::write(path, writer.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::trace::{HopRecord, StopReason};
    use std::net::Ipv4Addr;

    fn a(o: u8) -> Addr {
        Addr::V4(Ipv4Addr::new(10, 0, 0, o))
    }

    fn sample_file() -> Vec<u8> {
        let mut w = WartsWriter::new();
        let list = w.list(1, "default");
        let cycle = w.cycle_start(list, 42, 1_400_000_000);
        let mut t = TraceRecord::new(a(1), a(9));
        t.stop_reason = StopReason::Completed;
        t.hops = vec![HopRecord::reply(1, a(2), 100), HopRecord::reply(2, a(9), 300)];
        w.trace(&t).unwrap();
        w.trace(&t).unwrap(); // same addresses -> dictionary reuse
        w.cycle_stop(cycle, 1_400_003_600);
        w.into_bytes()
    }

    #[test]
    fn read_back_all_records() {
        let bytes = sample_file();
        let mut r = WartsReader::new(&bytes);
        let recs: Vec<Record> = r.by_ref().collect::<Result<_, _>>().unwrap();
        assert_eq!(recs.len(), 5);
        assert!(matches!(recs[0], Record::List(_)));
        assert!(matches!(recs[1], Record::CycleStart(_)));
        assert!(matches!(recs[2], Record::Trace(_)));
        assert!(matches!(recs[3], Record::Trace(_)));
        assert!(matches!(recs[4], Record::CycleStop(_)));
        if let (Record::Trace(t1), Record::Trace(t2)) = (&recs[2], &recs[3]) {
            assert_eq!(t1, t2);
        }
    }

    #[test]
    fn traces_helper_skips_non_trace_records() {
        let bytes = sample_file();
        let traces = WartsReader::new(&bytes).traces().unwrap();
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].stop_reason, StopReason::Completed);
    }

    #[test]
    fn second_trace_is_smaller_thanks_to_dictionary() {
        let mut w = WartsWriter::new();
        let mut t = TraceRecord::new(a(1), a(9));
        t.hops = vec![HopRecord::reply(1, a(2), 100)];
        w.trace(&t).unwrap();
        let after_first = w.len();
        w.trace(&t).unwrap();
        let second = w.len() - after_first;
        assert!(second < after_first, "{second} !< {after_first}");
    }

    #[test]
    fn bad_magic_reported_with_offset() {
        let mut bytes = sample_file();
        bytes[0] = 0xFF;
        let mut r = WartsReader::new(&bytes);
        assert_eq!(
            r.next_record().unwrap_err(),
            WartsError::BadMagic { offset: 0, found: 0xFF05 }
        );
        // Reader is poisoned afterwards.
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn truncated_file_is_an_error() {
        let bytes = sample_file();
        let cut = &bytes[..bytes.len() - 2];
        let r = WartsReader::new(cut);
        let result: Result<Vec<Record>, WartsError> = r.collect();
        assert!(result.is_err());
    }

    /// Each broken input yields exactly one `Err`, then `None` (bounded
    /// with `take`, so a reader that never stops fails instead of
    /// hanging).
    fn assert_one_error_then_end(bytes: &[u8], what: &str) {
        let mut reader = WartsReader::new(bytes);
        let items: Vec<_> = reader.by_ref().take(8).collect();
        let errors = items.iter().filter(|r| r.is_err()).count();
        assert_eq!(errors, 1, "{what}: {items:?}");
        assert!(items.last().is_some_and(|r| r.is_err()), "{what}: error must be last");
        assert!(reader.next().is_none(), "{what}: iteration must end after the error");
    }

    #[test]
    fn iteration_stops_at_a_truncated_header_or_a_bad_body() {
        let file = sample_file();
        // A valid file followed by a 1..=7-byte tail: a header cut
        // anywhere, magic included.
        let header = [0x12, 0x05, 0x00, 0x06, 0x00, 0x00, 0x00];
        for n in 1..=header.len() {
            let mut bytes = file.clone();
            bytes.extend_from_slice(&header[..n]);
            assert_one_error_then_end(&bytes, &format!("{n}-byte tail"));
            assert_one_error_then_end(&header[..n], &format!("{n}-byte file"));
        }
        // A list record whose name never terminates, then a valid file:
        // the body error ends iteration rather than resuming after it.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&(RecordType::List as u16).to_be_bytes());
        bytes.extend_from_slice(&12u32.to_be_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 1, 0, 0, 0, 1, b'x', b'y', b'z', b'w']);
        bytes.extend_from_slice(&file);
        assert_one_error_then_end(&bytes, "smashed body");
    }

    #[test]
    fn unsupported_record_is_preserved() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&0x0Au16.to_be_bytes()); // tracelb
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut r = WartsReader::new(&bytes);
        match r.next_record().unwrap().unwrap() {
            Record::Unsupported { record_type, body } => {
                assert_eq!(record_type, 0x0A);
                assert_eq!(body, vec![1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(r.next_record().unwrap(), None);
    }

    #[test]
    fn ping_records_interleave_with_traces() {
        let mut w = WartsWriter::new();
        let list = w.list(1, "mixed");
        let cycle = w.cycle_start(list, 1, 0);
        let mut t = TraceRecord::new(a(1), a(9));
        t.hops = vec![HopRecord::reply(1, a(2), 100)];
        w.trace(&t).unwrap();
        let mut p = crate::ping::PingRecord::new(a(1), a(9));
        // Ping reply reuses an address the trace embedded: the shared
        // dictionary must resolve it.
        p.replies = vec![crate::ping::PingReply::echo(a(9), 4242)];
        w.ping(&p).unwrap();
        w.cycle_stop(cycle, 1);
        let bytes = w.into_bytes();

        let mut r = WartsReader::new(&bytes);
        let recs: Vec<Record> = r.by_ref().collect::<Result<_, _>>().unwrap();
        assert!(matches!(recs[2], Record::Trace(_)));
        match &recs[3] {
            Record::Ping(ping) => {
                assert_eq!(ping.replies.len(), 1);
                assert_eq!(ping.replies[0].addr, a(9));
            }
            other => panic!("unexpected {other:?}"),
        }
        // `traces()` still skips pings.
        let traces = WartsReader::new(&bytes).traces().unwrap();
        assert_eq!(traces.len(), 1);
    }

    #[test]
    fn length_mismatch_detected() {
        // A list record with one stray trailing byte inside the body.
        let rec = ListRecord { id: 1, list_id: 1, name: "x".into(), ..Default::default() };
        let mut body = BytesMut::new();
        rec.write(&mut body);
        body.put_u8(0xEE);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&(RecordType::List as u16).to_be_bytes());
        bytes.extend_from_slice(&(body.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&body);
        let mut r = WartsReader::new(&bytes);
        assert!(matches!(
            r.next_record(),
            Err(WartsError::LengthMismatch { record_type: 1, .. })
        ));
    }

    #[test]
    fn path_io_roundtrip() {
        let bytes = sample_file();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("warts-pathio-{}.warts", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let records = read_path(&path).unwrap();
        assert_eq!(records.len(), 5);
        std::fs::remove_file(&path).unwrap();

        let mut w = WartsWriter::new();
        w.list(1, "x");
        let path2 = dir.join(format!("warts-pathio2-{}.warts", std::process::id()));
        write_path(&path2, w).unwrap();
        assert_eq!(read_path(&path2).unwrap().len(), 1);
        std::fs::remove_file(&path2).unwrap();
    }

    #[test]
    fn read_path_surfaces_decode_errors() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("warts-bad-{}.warts", std::process::id()));
        std::fs::write(&path, [0xFFu8, 0x05, 0, 0]).unwrap();
        let err = read_path(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_file_yields_nothing() {
        let mut r = WartsReader::new(&[]);
        assert_eq!(r.next_record().unwrap(), None);
    }
}
