//! Incremental reading from any [`std::io::Read`].
//!
//! Ark cycle dumps run to gigabytes; [`WartsStreamReader`] reads one
//! record at a time from a buffered source instead of slurping the file
//! — pairing naturally with `lpr_core::stream::CycleAccumulator` for a
//! bounded-memory end-to-end pipeline:
//!
//! ```no_run
//! use warts::{Record, WartsStreamReader};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let file = std::fs::File::open("cycle.warts")?;
//! let mut reader = WartsStreamReader::new(std::io::BufReader::new(file));
//! while let Some(record) = reader.next_record()? {
//!     if let Record::Trace(t) = record {
//!         // feed a CycleAccumulator…
//!         let _ = t;
//!     }
//! }
//! # Ok(())
//! # }
//! ```
//!
//! It is a refill buffer around the [`Framer`] that [`crate::WartsReader`]
//! runs over a slice, so both readers take [`Framer::lenient`] and both
//! strict readers refuse records over 64 MiB ([`crate::MAX_RECORD_LEN`]).

use crate::error::WartsError;
use crate::frame::{Framer, Source};
use std::io::Read;

/// Errors from streaming reads: IO or decode.
#[derive(Debug)]
pub enum StreamError {
    /// The underlying source failed.
    Io(std::io::Error),
    /// The bytes did not decode as warts.
    Decode(WartsError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "io: {e}"),
            StreamError::Decode(e) => write!(f, "warts: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<WartsError> for StreamError {
    fn from(e: WartsError) -> Self {
        StreamError::Decode(e)
    }
}

/// The record-at-a-time reader over any byte source (wrap files in a
/// `BufReader`): the [`Framer`] over a [`Refill`] buffer.
pub type WartsStreamReader<R> = Framer<Refill<R>>;

impl<R: Read> Framer<Refill<R>> {
    /// Wraps a byte source.
    pub fn new(source: R) -> Self {
        Framer::from_source(Refill { source, buf: Vec::new(), start: 0, end: 0, eof: false })
    }
}

/// The bytes a [`WartsStreamReader`] has read from its source but not
/// yet framed (`buf[start..end]`).
pub struct Refill<R> {
    source: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    eof: bool,
}

impl<R: Read> Source for Refill<R> {
    type Error = StreamError;

    fn window(&self) -> (&[u8], bool) {
        (&self.buf[self.start..self.end], self.eof)
    }

    /// Reads until `n` bytes are buffered or the source ends. An
    /// `Interrupted` read is retried, as `Read::read_exact` does; any
    /// other IO error is returned.
    fn fill(&mut self, n: usize) -> Result<(), StreamError> {
        while self.end - self.start < n && !self.eof {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            let len = n.max(self.end + 4096);
            if self.buf.len() < len {
                self.buf.resize(len, 0);
            }
            match self.source.read(&mut self.buf[self.end..]) {
                Ok(0) => self.eof = true,
                Ok(got) => self.end += got,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Addr, AddrTableReader};
    use crate::file::{Record, RecordType, WartsWriter, WARTS_MAGIC};
    use crate::frame::{decode_record_body, SkipReason};
    use crate::trace::{HopRecord, TraceRecord};
    use std::collections::BTreeMap;
    use std::net::Ipv4Addr;

    fn a(o: u8) -> Addr {
        Addr::V4(Ipv4Addr::new(10, 0, 0, o))
    }

    fn sample_bytes() -> Vec<u8> {
        let mut w = WartsWriter::new();
        let list = w.list(1, "stream");
        let cycle = w.cycle_start(list, 1, 0);
        let mut t = TraceRecord::new(a(1), a(9));
        t.hops = vec![HopRecord::reply(1, a(2), 100)];
        w.trace(&t).unwrap();
        w.trace(&t).unwrap(); // dictionary reference crosses records
        w.cycle_stop(cycle, 1);
        w.into_bytes()
    }

    /// A reader that returns one byte at a time (worst-case chunking).
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn streaming_matches_in_memory() {
        let bytes = sample_bytes();
        let batch: Vec<Record> =
            crate::file::WartsReader::new(&bytes).collect::<Result<_, _>>().unwrap();
        let streamed: Vec<Record> = WartsStreamReader::new(bytes.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed, batch);
    }

    #[test]
    fn one_byte_chunks_are_fine() {
        let bytes = sample_bytes();
        let streamed: Vec<Record> = WartsStreamReader::new(Trickle(&bytes))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(streamed.len(), 5);
    }

    /// Fails every other read with `Interrupted`; the reads in between
    /// return one byte each.
    struct Interrupting<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl Read for Interrupting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            Trickle(self.bytes).read(buf).inspect(|&n| self.bytes = &self.bytes[n..])
        }
    }

    #[test]
    fn interrupted_reads_are_retried() {
        let bytes = sample_bytes();
        let batch: Vec<Record> =
            crate::file::WartsReader::new(&bytes).collect::<Result<_, _>>().unwrap();
        let source = Interrupting { bytes: &bytes, interrupt: false };
        let streamed: Vec<Record> =
            WartsStreamReader::new(source).collect::<Result<_, _>>().unwrap();
        assert_eq!(streamed, batch);
    }

    /// A source whose every read fails.
    struct Broken;

    impl Read for Broken {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
    }

    #[test]
    fn a_failing_source_yields_one_error_then_none() {
        let mut reader = WartsStreamReader::new(Broken);
        let items: Vec<_> = reader.by_ref().take(8).collect();
        assert_eq!(items.len(), 1, "{items:?}");
        assert!(matches!(items[0], Err(StreamError::Io(_))));
        assert!(reader.next().is_none());
    }

    #[test]
    fn clean_eof_vs_truncation() {
        let bytes = sample_bytes();
        // Clean end.
        let mut r = WartsStreamReader::new(bytes.as_slice());
        while r.next_record().unwrap().is_some() {}
        // Truncated mid-record.
        let cut = &bytes[..bytes.len() - 3];
        let r = WartsStreamReader::new(cut);
        let res: Result<Vec<Record>, _> = r.collect();
        assert!(res.is_err());
        // Truncated mid-header.
        let cut = &bytes[..3];
        let mut r = WartsStreamReader::new(cut);
        assert!(matches!(r.next_record(), Err(StreamError::Decode(_))));
    }

    #[test]
    fn lenient_mode_skips_malformed_record_and_counts_it() {
        // A valid header declaring a 4-byte trace body that cannot
        // decode (truncated content), followed by a fully valid stream.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&(RecordType::Trace as u16).to_be_bytes());
        bytes.extend_from_slice(&4u32.to_be_bytes());
        bytes.extend_from_slice(&[0xFF; 4]);
        bytes.extend_from_slice(&sample_bytes());

        // Strict mode aborts on the malformed body.
        let strict: Result<Vec<Record>, _> =
            WartsStreamReader::new(bytes.as_slice()).collect();
        assert!(strict.is_err());

        // Lenient mode counts the skip and keeps going; the declared
        // length keeps it aligned, so nothing is resynchronised. The
        // skipped body may have embedded addresses, so the second trace's
        // reference to an id learned after the skip is refused too.
        let (records, skips, resynced) = drain_lenient(&bytes);
        assert_eq!(records.len(), 4, "every record that refers to no lost id still streams");
        let traces = records.iter().filter(|r| matches!(r, Record::Trace(_))).count();
        assert_eq!(traces, 1);
        let expected = [(SkipReason::Truncated, 1), (SkipReason::BadAddress, 1)];
        assert_eq!(skips, BTreeMap::from(expected));
        assert_eq!(resynced, 0);
    }

    #[test]
    fn insane_length_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&6u16.to_be_bytes());
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = WartsStreamReader::new(bytes.as_slice());
        assert!(r.next_record().is_err());
    }

    /// Drains a lenient reader, returning the records it salvaged.
    fn drain_lenient(bytes: &[u8]) -> (Vec<Record>, BTreeMap<SkipReason, u64>, u64) {
        let mut r = WartsStreamReader::new(bytes).lenient();
        let mut records = Vec::new();
        while let Some(rec) = r.next_record().expect("lenient never errors on corrupt bytes") {
            records.push(rec);
        }
        (records, r.skip_counts().clone(), r.resync_bytes())
    }

    #[test]
    fn lenient_resyncs_over_leading_garbage() {
        let mut bytes = vec![0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02, 0x03];
        bytes.extend_from_slice(&sample_bytes());
        let (records, skips, resynced) = drain_lenient(&bytes);
        // The garbage may have held a record that embedded addresses, so
        // the second trace's reference past the limit is refused.
        assert_eq!(records.len(), 4, "every record but the referring trace survives");
        assert_eq!(skips[&SkipReason::BadMagic], 1, "one skip per garbage run");
        assert_eq!(skips[&SkipReason::BadAddress], 1);
        assert_eq!(resynced, 7);
    }

    #[test]
    fn lenient_resyncs_over_a_smashed_magic() {
        let mut bytes = sample_bytes();
        bytes[0] ^= 0xFF; // first record's magic
        let (records, skips, _) = drain_lenient(&bytes);
        // The first record (the list) is lost; resync lands on the next.
        // The second trace refers to an id past the reference limit.
        assert_eq!(records.len(), 3);
        assert!(skips[&SkipReason::BadMagic] >= 1);
        assert_eq!(skips[&SkipReason::BadAddress], 1);
    }

    #[test]
    fn lenient_survives_insane_length_and_recovers_the_tail() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&6u16.to_be_bytes());
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        bytes.extend_from_slice(&sample_bytes());
        let (records, skips, _) = drain_lenient(&bytes);
        assert_eq!(records.len(), 4, "records after the insane header still stream");
        assert_eq!(skips[&SkipReason::InsaneLength], 1);
        assert_eq!(skips[&SkipReason::BadAddress], 1, "but none refers to a lost id");
    }

    #[test]
    fn lenient_ends_cleanly_on_truncated_tail() {
        let bytes = sample_bytes();
        // Cut mid-body of the last record.
        let cut = &bytes[..bytes.len() - 3];
        let (records, skips, _) = drain_lenient(cut);
        assert_eq!(records.len(), 4, "all but the cut record");
        assert_eq!(skips[&SkipReason::TruncatedBody], 1);
        // Cut mid-header.
        let (records, skips, _) = drain_lenient(&bytes[..3]);
        assert!(records.is_empty());
        assert_eq!(skips[&SkipReason::TruncatedHeader], 1);
    }

    #[test]
    fn lenient_recovers_records_swallowed_by_a_bad_length() {
        // Inflate the first record's declared length so it would swallow
        // the rest of the stream; resync must rescue the later records.
        let mut bytes = sample_bytes();
        let len = u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        bytes[4..8].copy_from_slice(&(len + 9999).to_be_bytes());
        let (records, skips, _) = drain_lenient(&bytes);
        assert!(records.len() >= 3, "records after the bad length stream again");
        assert!(skips[&SkipReason::TruncatedBody] >= 1);
    }

    #[test]
    fn record_spans_tile_the_stream_and_redecode_identically() {
        let bytes = sample_bytes();
        let mut r = WartsStreamReader::new(bytes.as_slice());
        assert_eq!(r.last_record_span(), None);
        let mut spans = Vec::new();
        let mut records = Vec::new();
        while let Some(rec) = r.next_record().unwrap() {
            spans.push(r.last_record_span().unwrap());
            records.push(rec);
        }
        // Spans tile the stream exactly: each starts where the previous
        // ended, and they cover every byte.
        let mut expect = 0u64;
        for s in &spans {
            assert_eq!(s.offset, expect);
            expect += s.wire_len();
        }
        assert_eq!(expect, bytes.len() as u64);
        assert_eq!(r.offset(), bytes.len() as u64);

        // Re-decoding each span's body against the full preloaded
        // dictionary reproduces the sequential records (the dictionary
        // references in the second trace resolve from the preload).
        let dict = r.addr_snapshot();
        let mut addrs = AddrTableReader::from_table(dict);
        for (s, rec) in spans.iter().zip(&records) {
            let body = &bytes[s.offset as usize + 8..(s.offset + s.wire_len()) as usize];
            let redecoded = decode_record_body(s.record_type, body, &mut addrs).unwrap();
            assert_eq!(&redecoded, rec);
        }
    }

    #[test]
    fn elided_unsupported_bodies_are_empty_but_counted() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&0x00F0u16.to_be_bytes()); // unknown type
        bytes.extend_from_slice(&5u32.to_be_bytes());
        bytes.extend_from_slice(&[9; 5]);
        bytes.extend_from_slice(&sample_bytes());

        let kept: Vec<Record> = WartsStreamReader::new(bytes.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            kept[0],
            Record::Unsupported { record_type: 0x00F0, body: vec![9; 5] },
            "the framer preserves the body"
        );
        // Index-driven decode leaves the body empty, and the index
        // build still frames the record.
        let elided = decode_record_body(0x00F0, &[9; 5], &mut AddrTableReader::new()).unwrap();
        assert_eq!(elided, Record::Unsupported { record_type: 0x00F0, body: Vec::new() });
        let mut r = WartsStreamReader::new(bytes.as_slice());
        let span = r.next_span().unwrap().unwrap();
        assert_eq!((span.offset, span.body_len, span.record_type), (0, 5, 0x00F0));
        let mut spans = 1;
        while r.next_span().unwrap().is_some() {
            spans += 1;
        }
        assert_eq!(spans, kept.len());
    }

    #[test]
    fn skip_counts_reconcile_exactly() {
        // A stream with three distinct corruption events: leading
        // garbage, a bit-flipped body, and a truncated tail.
        let mut bytes = vec![0xFFu8; 5];
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&(RecordType::Trace as u16).to_be_bytes());
        bytes.extend_from_slice(&4u32.to_be_bytes());
        bytes.extend_from_slice(&[0xFF; 4]); // undecodable trace body
        bytes.extend_from_slice(&sample_bytes());
        bytes.truncate(bytes.len() - 3);

        let mut r = WartsStreamReader::new(bytes.as_slice()).lenient();
        let mut decoded_bytes = 0u64;
        let mut decoded = 0u64;
        while r.next_record().unwrap().is_some() {
            decoded_bytes += r.last_record_span().unwrap().wire_len();
            decoded += 1;
        }
        assert_eq!(decoded, 3, "the valid records still stream");

        // One skip per corruption event, under its reason, and the
        // total is their sum. The second trace refers to an id past the
        // reference limit the first skip set.
        let expected = BTreeMap::from([
            (SkipReason::BadMagic, 1),
            (SkipReason::TruncatedBody, 1),
            (SkipReason::Truncated, 1),
            (SkipReason::BadAddress, 1),
        ]);
        assert_eq!(r.skip_counts(), &expected);
        assert_eq!(r.skipped_total(), 4);
        // Every byte is a decoded record, the skipped 12-byte record,
        // the skipped second trace or resynchronisation garbage.
        let sample = sample_bytes();
        let mut pristine = WartsStreamReader::new(sample.as_slice());
        let mut spans = Vec::new();
        while pristine.next_record().unwrap().is_some() {
            spans.push(pristine.last_record_span().unwrap());
        }
        let second_trace = spans[3].wire_len();
        assert_eq!(r.offset(), bytes.len() as u64);
        assert_eq!(decoded_bytes + 12 + second_trace + r.resync_bytes(), bytes.len() as u64);
    }
}
