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

use crate::addr::AddrTableReader;
use crate::buf::Cursor;
use crate::cycle::{CycleRecord, CycleStopRecord};
use crate::error::WartsError;
use crate::file::{Record, RecordType, WARTS_MAGIC};
use crate::list::ListRecord;
use crate::ping::PingRecord;
use crate::trace::TraceRecord;
use lpr_obs::{Counter, Registry};
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::Arc;

/// Largest record body this reader will buffer (64 MiB — far above any
/// real scamper record; a larger length indicates corruption).
pub const MAX_RECORD_LEN: usize = 64 << 20;

/// Why a lenient reader skipped (part of) a stream instead of decoding
/// a record from it.
///
/// The taxonomy mirrors the decode failure modes: the first four are
/// framing-level (the stream had to be resynchronised or ended early),
/// the rest are body-level (framing was intact, the record content was
/// not). [`SkipReason::ALL`] lists every variant in counter order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SkipReason {
    /// Bytes at a record boundary that are not a plausible header; the
    /// reader scanned forward to the next candidate (one skip per
    /// contiguous garbage run).
    BadMagic = 0,
    /// The stream ended inside a record header.
    TruncatedHeader = 1,
    /// A header declared a length beyond [`MAX_RECORD_LEN`].
    InsaneLength = 2,
    /// The stream ended before a record's declared body length.
    TruncatedBody = 3,
    /// A record body ran out of bytes while decoding.
    Truncated = 4,
    /// A body decoded to a different length than its header declared.
    LengthMismatch = 5,
    /// A bad address: unknown dictionary reference or malformed entry.
    BadAddress = 6,
    /// A malformed flag/parameter block.
    ParamError = 7,
    /// A malformed ICMP extension block.
    BadIcmpExt = 8,
    /// A record using a feature this crate does not support.
    Unsupported = 9,
}

impl SkipReason {
    /// Every reason, in counter order (`reason as usize` indexes it).
    pub const ALL: [SkipReason; 10] = [
        SkipReason::BadMagic,
        SkipReason::TruncatedHeader,
        SkipReason::InsaneLength,
        SkipReason::TruncatedBody,
        SkipReason::Truncated,
        SkipReason::LengthMismatch,
        SkipReason::BadAddress,
        SkipReason::ParamError,
        SkipReason::BadIcmpExt,
        SkipReason::Unsupported,
    ];

    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            SkipReason::BadMagic => "bad_magic",
            SkipReason::TruncatedHeader => "truncated_header",
            SkipReason::InsaneLength => "insane_length",
            SkipReason::TruncatedBody => "truncated_body",
            SkipReason::Truncated => "truncated",
            SkipReason::LengthMismatch => "length_mismatch",
            SkipReason::BadAddress => "bad_address",
            SkipReason::ParamError => "param_error",
            SkipReason::BadIcmpExt => "bad_icmp_ext",
            SkipReason::Unsupported => "unsupported",
        }
    }

    /// The registry counter this reason tallies under (a constant from
    /// [`lpr_obs::names`], the workspace metric vocabulary).
    pub fn counter_name(self) -> &'static str {
        match self {
            SkipReason::BadMagic => lpr_obs::names::WARTS_SKIP_BAD_MAGIC,
            SkipReason::TruncatedHeader => lpr_obs::names::WARTS_SKIP_TRUNCATED_HEADER,
            SkipReason::InsaneLength => lpr_obs::names::WARTS_SKIP_INSANE_LENGTH,
            SkipReason::TruncatedBody => lpr_obs::names::WARTS_SKIP_TRUNCATED_BODY,
            SkipReason::Truncated => lpr_obs::names::WARTS_SKIP_TRUNCATED,
            SkipReason::LengthMismatch => lpr_obs::names::WARTS_SKIP_LENGTH_MISMATCH,
            SkipReason::BadAddress => lpr_obs::names::WARTS_SKIP_BAD_ADDRESS,
            SkipReason::ParamError => lpr_obs::names::WARTS_SKIP_PARAM_ERROR,
            SkipReason::BadIcmpExt => lpr_obs::names::WARTS_SKIP_BAD_ICMP_EXT,
            SkipReason::Unsupported => lpr_obs::names::WARTS_SKIP_UNSUPPORTED,
        }
    }

    /// Classifies a body-decode error.
    pub fn of(err: &WartsError) -> SkipReason {
        match err {
            WartsError::BadMagic { .. } => SkipReason::BadMagic,
            WartsError::Truncated { .. } => SkipReason::Truncated,
            WartsError::LengthMismatch { .. } => SkipReason::LengthMismatch,
            WartsError::UnknownAddrId { .. } | WartsError::BadAddrType { .. } => {
                SkipReason::BadAddress
            }
            WartsError::ParamOverrun { .. } | WartsError::UnterminatedString => {
                SkipReason::ParamError
            }
            WartsError::BadIcmpExt { .. } => SkipReason::BadIcmpExt,
            WartsError::Unsupported { .. } => SkipReason::Unsupported,
        }
    }
}

/// Ingest counters for a warts stream, registered under `warts.*`.
///
/// Hand one to [`WartsStreamReader::with_metrics`] and the reader tallies
/// what it sees; the same counters can be read back later from the
/// registry (or a `Recorder`) that created them.
#[derive(Clone)]
pub struct StreamMetrics {
    /// Records decoded successfully (`warts.records`).
    pub records: Arc<Counter>,
    /// Bytes consumed, headers included (`warts.bytes`).
    pub bytes: Arc<Counter>,
    /// Trace records among them (`warts.traces`).
    pub traces: Arc<Counter>,
    /// Total skips in lenient mode, every reason included
    /// (`warts.malformed_records`). Always equals the sum of the
    /// per-reason counters in [`StreamMetrics::skips`].
    pub malformed: Arc<Counter>,
    /// Records of a type this crate does not parse
    /// (`warts.unsupported_records`).
    pub unsupported: Arc<Counter>,
    /// ICMP extension objects that are not RFC 4950 MPLS stacks
    /// (`warts.unknown_icmp_ext`).
    pub unknown_icmp_ext: Arc<Counter>,
    /// Per-reason skip counters (`warts.skip.<reason>`), indexed in
    /// [`SkipReason::ALL`] order.
    pub skips: [Arc<Counter>; SkipReason::ALL.len()],
    /// Garbage bytes discarded while resynchronising
    /// (`warts.resync_bytes`).
    pub resync_bytes: Arc<Counter>,
    /// Optional event journal: every lenient skip records a
    /// `warts-skip` warn event alongside its counter (disabled by
    /// default — counting costs nothing extra).
    pub tracer: lpr_obs::Tracer,
}

impl StreamMetrics {
    /// Binds the `warts.*` counters in `registry` (creating them at
    /// zero on first use).
    pub fn from_registry(registry: &Registry) -> Self {
        StreamMetrics {
            records: registry.counter(lpr_obs::names::WARTS_RECORDS),
            bytes: registry.counter(lpr_obs::names::WARTS_BYTES),
            traces: registry.counter(lpr_obs::names::WARTS_TRACES),
            malformed: registry.counter(lpr_obs::names::WARTS_MALFORMED_RECORDS),
            unsupported: registry.counter(lpr_obs::names::WARTS_UNSUPPORTED_RECORDS),
            unknown_icmp_ext: registry.counter(lpr_obs::names::WARTS_UNKNOWN_ICMP_EXT),
            skips: SkipReason::ALL.map(|r| registry.counter(r.counter_name())),
            resync_bytes: registry.counter(lpr_obs::names::WARTS_RESYNC_BYTES),
            tracer: lpr_obs::Tracer::disabled(),
        }
    }

    /// [`StreamMetrics::from_registry`] over a recorder's registry,
    /// inheriting its tracer so skips journal warn events too.
    pub fn from_recorder(recorder: &lpr_obs::Recorder) -> Self {
        Self::from_registry(recorder.registry()).with_tracer(recorder.tracer().clone())
    }

    /// Attaches an event journal (see the `tracer` field).
    pub fn with_tracer(mut self, tracer: lpr_obs::Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    fn skip(&self, reason: SkipReason) {
        self.malformed.inc();
        self.skips[reason as usize].inc();
        if self.tracer.would_log(lpr_obs::Level::Warn) {
            self.tracer.event(
                self.tracer.default_parent(),
                lpr_obs::Level::Warn,
                "warts-skip",
                vec![("reason".to_string(), lpr_obs::FieldValue::Str(reason.name().to_string()))],
            );
        }
    }

    fn observe(&self, wire_len: usize, record: &Record) {
        self.records.inc();
        self.bytes.add(wire_len as u64);
        match record {
            Record::Trace(t) => {
                self.traces.inc();
                for hop in &t.hops {
                    for ext in &hop.icmp_exts {
                        if !ext.is_mpls() {
                            self.unknown_icmp_ext.inc();
                        }
                    }
                }
            }
            Record::Unsupported { .. } => self.unsupported.inc(),
            _ => {}
        }
    }
}

/// The wire position of one successfully decoded record: where its
/// 8-byte header starts, how long its body is, and its type code.
///
/// Spans are what the out-of-core record index stores per record — an
/// index-driven re-decode slices `bytes[offset + 8 .. offset + 8 +
/// body_len]` straight out of a memory-mapped file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordSpan {
    /// Byte offset of the record header from the start of the stream.
    pub offset: u64,
    /// Declared body length (the header's length field).
    pub body_len: u32,
    /// Record type code (e.g. `RecordType::Trace as u16`).
    pub record_type: u16,
}

impl RecordSpan {
    /// Total bytes on the wire, header included.
    pub fn wire_len(&self) -> u64 {
        8 + self.body_len as u64
    }
}

/// A record-at-a-time reader over any byte source.
pub struct WartsStreamReader<R: Read> {
    source: R,
    addrs: AddrTableReader,
    offset: usize,
    failed: bool,
    metrics: Option<StreamMetrics>,
    lenient: bool,
    elide_unsupported: bool,
    /// Bytes read from `source` but not yet consumed
    /// (`buf[buf_pos..]`); lenient resynchronisation scans here.
    buf: Vec<u8>,
    buf_pos: usize,
    eof: bool,
    skips: BTreeMap<SkipReason, u64>,
    resync_bytes: u64,
    last_span: Option<RecordSpan>,
}

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

impl<R: Read> WartsStreamReader<R> {
    /// Wraps a byte source (wrap files in a `BufReader`).
    pub fn new(source: R) -> Self {
        WartsStreamReader {
            source,
            addrs: AddrTableReader::new(),
            offset: 0,
            failed: false,
            metrics: None,
            lenient: false,
            elide_unsupported: false,
            buf: Vec::new(),
            buf_pos: 0,
            eof: false,
            skips: BTreeMap::new(),
            resync_bytes: 0,
            last_span: None,
        }
    }

    /// Tallies everything read into `metrics` (see [`StreamMetrics`]).
    pub fn with_metrics(mut self, metrics: StreamMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Survives corrupt input instead of aborting the stream, counting
    /// every skip under its [`SkipReason`]:
    ///
    /// * a record whose *body* fails to decode is skipped — the declared
    ///   header length keeps the reader aligned on the next boundary;
    /// * header-level corruption (bad magic, insane length, a body cut
    ///   short of its declared length) triggers *resynchronisation*: the
    ///   reader scans forward for the next plausible record header and
    ///   resumes there, counting one skip per corruption event and the
    ///   discarded bytes in `warts.resync_bytes`;
    /// * a stream ending mid-header or mid-body ends cleanly after a
    ///   final counted skip.
    ///
    /// Skips tally in [`StreamMetrics`] when attached and always in
    /// [`WartsStreamReader::skip_counts`]. Note a skipped trace/ping may
    /// have carried address-dictionary entries; later references to them
    /// then fail too (and are counted in turn).
    pub fn lenient(mut self) -> Self {
        self.lenient = true;
        self
    }

    /// Yields [`Record::Unsupported`] with an *empty* body instead of
    /// copying the bytes out of the stream buffer. The ingest paths use
    /// this: they only count unsupported records, so the one remaining
    /// per-record copy in the decoder disappears (`Vec::new()` does not
    /// allocate). Leave it off when bodies must be preserved (e.g. the
    /// `lpr dump` byte census).
    pub fn elide_unsupported_bodies(mut self) -> Self {
        self.elide_unsupported = true;
        self
    }

    /// Per-reason skip tallies so far (empty unless
    /// [`WartsStreamReader::lenient`]).
    pub fn skip_counts(&self) -> &BTreeMap<SkipReason, u64> {
        &self.skips
    }

    /// Total bytes consumed from the source so far (records plus any
    /// resynchronisation garbage).
    pub fn offset(&self) -> u64 {
        self.offset as u64
    }

    /// The wire span of the most recent record
    /// [`WartsStreamReader::next_record`] returned, or `None` before the
    /// first success. An index builder calls this after every
    /// `Ok(Some(_))`.
    pub fn last_record_span(&self) -> Option<RecordSpan> {
        self.last_span
    }

    /// The address dictionary accumulated so far, in table-id order
    /// (including entries added by records whose decode later failed —
    /// exactly the state a sequential lenient pass carries forward).
    pub fn addr_snapshot(&self) -> Vec<crate::addr::Addr> {
        self.addrs.snapshot()
    }

    /// Total records/runs skipped so far in lenient mode.
    pub fn skipped_total(&self) -> u64 {
        self.skips.values().sum()
    }

    /// Garbage bytes discarded while resynchronising.
    pub fn resync_bytes(&self) -> u64 {
        self.resync_bytes
    }

    fn buffered(&self) -> usize {
        self.buf.len() - self.buf_pos
    }

    /// Ensures at least `n` bytes are buffered, or as many as the
    /// source has before EOF.
    fn fill(&mut self, n: usize) -> Result<(), StreamError> {
        while self.buffered() < n && !self.eof {
            if self.buf_pos > 0 {
                self.buf.drain(..self.buf_pos);
                self.buf_pos = 0;
            }
            let old = self.buf.len();
            let want = (n - old).max(4096);
            self.buf.resize(old + want, 0);
            let got = match self.source.read(&mut self.buf[old..]) {
                Ok(g) => g,
                Err(e) => {
                    self.buf.truncate(old);
                    return Err(e.into());
                }
            };
            self.buf.truncate(old + got);
            if got == 0 {
                self.eof = true;
            }
        }
        Ok(())
    }

    /// Consumes `n` buffered bytes as (part of) a record.
    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.buffered());
        self.buf_pos += n;
        self.offset += n;
    }

    /// Consumes `n` buffered bytes as resynchronisation garbage.
    fn discard(&mut self, n: usize) {
        self.consume(n);
        self.resync_bytes += n as u64;
        if let Some(m) = &self.metrics {
            m.resync_bytes.add(n as u64);
        }
    }

    fn skip(&mut self, reason: SkipReason) {
        *self.skips.entry(reason).or_default() += 1;
        if let Some(m) = &self.metrics {
            m.skip(reason);
        }
    }

    /// Scans forward to the next plausible record header (magic plus a
    /// sane declared length), discarding garbage. Stops at EOF with the
    /// un-frameable tail discarded. Always makes progress when invoked
    /// after at least one byte of the bad region was consumed.
    fn resync(&mut self) -> Result<(), StreamError> {
        loop {
            self.fill(8)?;
            let window = &self.buf[self.buf_pos..];
            if window.len() < 8 {
                let n = window.len();
                self.discard(n);
                return Ok(());
            }
            let magic = WARTS_MAGIC.to_be_bytes();
            let mut found = None;
            for i in 0..=window.len() - 8 {
                if window[i] == magic[0] && window[i + 1] == magic[1] {
                    let len = u32::from_be_bytes([
                        window[i + 4],
                        window[i + 5],
                        window[i + 6],
                        window[i + 7],
                    ]) as usize;
                    if len <= MAX_RECORD_LEN {
                        found = Some(i);
                        break;
                    }
                }
            }
            match found {
                Some(0) => return Ok(()),
                Some(i) => {
                    self.discard(i);
                    return Ok(());
                }
                None => {
                    // Keep the last 7 bytes: a header may straddle the
                    // window edge.
                    let n = window.len() - 7;
                    self.discard(n);
                    if self.eof {
                        let tail = self.buffered();
                        self.discard(tail);
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Reads the next record; `Ok(None)` at a clean end of stream.
    pub fn next_record(&mut self) -> Result<Option<Record>, StreamError> {
        loop {
            if self.failed {
                return Ok(None);
            }
            // Header: 8 bytes, but EOF exactly at a record boundary is a
            // clean end.
            self.fill(8)?;
            let avail = self.buffered();
            if avail == 0 {
                return Ok(None);
            }
            if avail < 8 {
                if self.lenient {
                    self.skip(SkipReason::TruncatedHeader);
                    self.discard(avail);
                    return Ok(None);
                }
                self.failed = true;
                return Err(WartsError::Truncated { context: "record header" }.into());
            }
            let header = &self.buf[self.buf_pos..self.buf_pos + 8];
            let magic = u16::from_be_bytes([header[0], header[1]]);
            if magic != WARTS_MAGIC {
                if self.lenient {
                    self.skip(SkipReason::BadMagic);
                    self.discard(1);
                    self.resync()?;
                    continue;
                }
                self.failed = true;
                return Err(WartsError::BadMagic { offset: self.offset, found: magic }.into());
            }
            let record_type = u16::from_be_bytes([header[2], header[3]]);
            let len = u32::from_be_bytes([header[4], header[5], header[6], header[7]]) as usize;
            if len > MAX_RECORD_LEN {
                if self.lenient {
                    self.skip(SkipReason::InsaneLength);
                    self.discard(1);
                    self.resync()?;
                    continue;
                }
                self.failed = true;
                return Err(WartsError::Truncated { context: "record length sanity" }.into());
            }
            self.fill(8 + len)?;
            if self.buffered() < 8 + len {
                // The stream ends short of the declared body. In lenient
                // mode the "header" may be a corrupted length swallowing
                // real records, so step past it and rescan the tail.
                if self.lenient {
                    self.skip(SkipReason::TruncatedBody);
                    self.discard(1);
                    self.resync()?;
                    continue;
                }
                self.failed = true;
                return Err(WartsError::Truncated { context: "record body" }.into());
            }
            // Decode borrows the body straight out of the stream buffer
            // (no per-record copy); the bytes are consumed afterwards,
            // which both outcomes permit: success owns its fields,
            // failure leaves the reader positioned on the next header.
            let start = self.offset as u64;
            let result = decode_body(
                record_type,
                &self.buf[self.buf_pos + 8..self.buf_pos + 8 + len],
                &mut self.addrs,
                !self.elide_unsupported,
            );
            self.consume(8 + len);

            match result {
                Ok(record) => {
                    if let Some(m) = &self.metrics {
                        m.observe(8 + len, &record);
                    }
                    self.last_span = Some(RecordSpan {
                        offset: start,
                        body_len: len as u32,
                        record_type,
                    });
                    return Ok(Some(record));
                }
                Err(e) => {
                    if self.lenient {
                        // The body was fully consumed, so the reader is
                        // already positioned on the next header.
                        self.skip(SkipReason::of(&e));
                        continue;
                    }
                    self.failed = true;
                    return Err(e.into());
                }
            }
        }
    }
}

/// Decodes one record body, borrowed from the stream buffer. With
/// `keep_unsupported` an unsupported record's bytes are copied so they
/// can be preserved for inspection; without it the body stays empty and
/// nothing is copied at all.
fn decode_body(
    record_type: u16,
    body: &[u8],
    addrs: &mut AddrTableReader,
    keep_unsupported: bool,
) -> Result<Record, WartsError> {
    let mut cur = Cursor::new(body);
    let record = match record_type {
        x if x == RecordType::List as u16 => Record::List(ListRecord::read(&mut cur)?),
        x if x == RecordType::CycleStart as u16 || x == RecordType::CycleDef as u16 => {
            Record::CycleStart(CycleRecord::read(&mut cur)?)
        }
        x if x == RecordType::CycleStop as u16 => {
            Record::CycleStop(CycleStopRecord::read(&mut cur)?)
        }
        x if x == RecordType::Trace as u16 => {
            Record::Trace(TraceRecord::read(&mut cur, addrs)?)
        }
        x if x == RecordType::Ping as u16 => {
            Record::Ping(PingRecord::read(&mut cur, addrs)?)
        }
        other => {
            let body = if keep_unsupported { body.to_vec() } else { Vec::new() };
            return Ok(Record::Unsupported { record_type: other, body });
        }
    };
    cur.expect_consumed(record_type)?;
    Ok(record)
}

/// Decodes one record body against a caller-supplied address table —
/// the entry point for index-driven shard decoding, where the body is a
/// slice of a memory-mapped file and `addrs` is the file's full
/// dictionary preloaded via [`AddrTableReader::from_table`].
///
/// Semantics are identical to [`WartsStreamReader::next_record`]'s body
/// decode (length-mismatch included). Unsupported record bodies are
/// always elided here: range decoders count them, never re-emit them.
pub fn decode_record_body(
    record_type: u16,
    body: &[u8],
    addrs: &mut AddrTableReader,
) -> Result<Record, WartsError> {
    decode_body(record_type, body, addrs, false)
}

impl<R: Read> Iterator for WartsStreamReader<R> {
    type Item = Result<Record, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;
    use crate::file::WartsWriter;
    use crate::trace::HopRecord;
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

        // Lenient mode counts the skip and keeps going.
        let registry = Registry::new();
        let metrics = StreamMetrics::from_registry(&registry);
        let records: Vec<Record> = WartsStreamReader::new(bytes.as_slice())
            .with_metrics(metrics.clone())
            .lenient()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(records.len(), 5, "all valid records still stream");
        assert_eq!(metrics.malformed.get(), 1);
        assert_eq!(metrics.records.get(), 5);
        assert_eq!(metrics.traces.get(), 2);
        assert_eq!(registry.counter("warts.malformed_records").get(), 1);
    }

    #[test]
    fn metrics_tally_records_bytes_and_unknown_extensions() {
        let mut w = WartsWriter::new();
        let list = w.list(1, "metrics");
        let cycle = w.cycle_start(list, 1, 0);
        let mut t = TraceRecord::new(a(1), a(9));
        let mut hop = HopRecord::reply(1, a(2), 100);
        // One MPLS object and one vendor-specific object: only the
        // latter is "unknown".
        hop.icmp_exts.push(crate::icmpext::IcmpExt {
            class: crate::icmpext::MPLS_EXT_CLASS,
            kind: crate::icmpext::MPLS_EXT_TYPE,
            data: vec![0, 1, 2, 3],
        });
        hop.icmp_exts.push(crate::icmpext::IcmpExt { class: 9, kind: 9, data: vec![1] });
        t.hops = vec![hop];
        w.trace(&t).unwrap();
        w.cycle_stop(cycle, 1);
        let bytes = w.into_bytes();

        let registry = Registry::new();
        let metrics = StreamMetrics::from_registry(&registry);
        let records: Vec<Record> = WartsStreamReader::new(bytes.as_slice())
            .with_metrics(metrics.clone())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(metrics.records.get(), records.len() as u64);
        assert_eq!(metrics.bytes.get(), bytes.len() as u64);
        assert_eq!(metrics.traces.get(), 1);
        assert_eq!(metrics.unknown_icmp_ext.get(), 1);
        assert_eq!(metrics.unsupported.get(), 0);
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
        assert_eq!(records.len(), 5, "every real record survives the garbage prefix");
        assert_eq!(skips[&SkipReason::BadMagic], 1, "one skip per garbage run");
        assert_eq!(resynced, 7);
    }

    #[test]
    fn lenient_resyncs_over_a_smashed_magic() {
        let mut bytes = sample_bytes();
        bytes[0] ^= 0xFF; // first record's magic
        let (records, skips, _) = drain_lenient(&bytes);
        // The first record (the list) is lost; resync lands on the next.
        assert_eq!(records.len(), 4);
        assert!(skips[&SkipReason::BadMagic] >= 1);
    }

    #[test]
    fn lenient_survives_insane_length_and_recovers_the_tail() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&6u16.to_be_bytes());
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        bytes.extend_from_slice(&sample_bytes());
        let (records, skips, _) = drain_lenient(&bytes);
        assert_eq!(records.len(), 5, "records after the insane header still stream");
        assert_eq!(skips[&SkipReason::InsaneLength], 1);
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
        assert!(records.len() >= 4, "records after the bad length stream again");
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

        let registry = Registry::new();
        let metrics = StreamMetrics::from_registry(&registry);
        let kept: Vec<Record> = WartsStreamReader::new(bytes.as_slice())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            kept[0],
            Record::Unsupported { record_type: 0x00F0, body: vec![9; 5] },
            "default mode preserves the body"
        );
        let elided: Vec<Record> = WartsStreamReader::new(bytes.as_slice())
            .with_metrics(metrics.clone())
            .elide_unsupported_bodies()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(elided[0], Record::Unsupported { record_type: 0x00F0, body: Vec::new() });
        assert_eq!(elided.len(), kept.len());
        assert_eq!(metrics.unsupported.get(), 1, "still counted");
        assert_eq!(metrics.bytes.get(), bytes.len() as u64, "wire bytes still tallied");
    }

    #[test]
    fn skip_counts_reconcile_exactly_with_stream_metrics() {
        // A stream with three distinct corruption events: leading
        // garbage, a bit-flipped body, and a truncated tail.
        let mut bytes = vec![0xFFu8; 5];
        bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
        bytes.extend_from_slice(&(RecordType::Trace as u16).to_be_bytes());
        bytes.extend_from_slice(&4u32.to_be_bytes());
        bytes.extend_from_slice(&[0xFF; 4]); // undecodable trace body
        bytes.extend_from_slice(&sample_bytes());
        bytes.truncate(bytes.len() - 3);

        let registry = Registry::new();
        let metrics = StreamMetrics::from_registry(&registry);
        let mut r = WartsStreamReader::new(bytes.as_slice())
            .with_metrics(metrics.clone())
            .lenient();
        let mut decoded = 0u64;
        while r.next_record().unwrap().is_some() {
            decoded += 1;
        }

        // Reader-side and registry-side tallies agree per reason…
        let mut total = 0u64;
        for reason in SkipReason::ALL {
            let reader_side = r.skip_counts().get(&reason).copied().unwrap_or(0);
            assert_eq!(
                metrics.skips[reason as usize].get(),
                reader_side,
                "{} counter",
                reason.name()
            );
            assert_eq!(
                registry.counter(reason.counter_name()).get(),
                reader_side,
                "{} registry row",
                reason.name()
            );
            total += reader_side;
        }
        // …and the totals reconcile: malformed = Σ per-reason, records
        // decoded + skipped covers every corruption event.
        assert_eq!(metrics.malformed.get(), total);
        assert_eq!(r.skipped_total(), total);
        assert!(total >= 3, "garbage + bad body + truncated tail all counted");
        assert_eq!(metrics.records.get(), decoded);
        assert_eq!(registry.counter("warts.resync_bytes").get(), r.resync_bytes());
        assert_eq!(decoded, 4, "the valid records still stream");
    }
}
