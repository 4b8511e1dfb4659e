//! Record framing: the one place a warts record header is parsed.
//!
//! Every record starts with an 8-byte header, big-endian:
//!
//! ```text
//! u16 magic (0x1205) ‖ u16 type ‖ u32 body length
//! ```
//!
//! A [`Framer`] runs one framing step over a byte [`Source`]: a slice
//! ([`crate::WartsReader`]) or a refill buffer over any `Read`
//! ([`crate::WartsStreamReader`]). So both readers frame, refuse and
//! skip alike.

use crate::addr::{Addr, AddrTableReader};
use crate::buf::Cursor;
use crate::cycle::{CycleRecord, CycleStopRecord};
use crate::error::WartsError;
use crate::file::{Record, RecordType, WARTS_MAGIC};
use crate::list::ListRecord;
use crate::ping::PingRecord;
use crate::trace::{walk_trace, HopLayouts, TraceRecord};
use std::collections::BTreeMap;

/// Bytes in a record header.
const HEADER_LEN: usize = 8;

/// Largest record body a framer accepts (64 MiB — far above any real
/// scamper record; a larger length indicates corruption).
pub const MAX_RECORD_LEN: usize = 64 << 20;

/// A parsed record header: the record type and declared body length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordHeader {
    /// Record type code (e.g. `RecordType::Trace as u16`).
    pub record_type: u16,
    /// Declared body length, at most [`MAX_RECORD_LEN`].
    pub body_len: u32,
}

impl RecordHeader {
    /// Parses the header at the start of `window`, or says why there is
    /// none: a byte present disagrees with the magic (`BadMagic`), the
    /// window is a cut-short header (`TruncatedHeader`), or the length
    /// exceeds [`MAX_RECORD_LEN`] (`InsaneLength`).
    pub fn parse(window: &[u8]) -> Result<RecordHeader, SkipReason> {
        let magic = WARTS_MAGIC.to_be_bytes();
        let n = window.len().min(magic.len());
        if window[..n] != magic[..n] {
            return Err(SkipReason::BadMagic);
        }
        let Some(h) = window.get(..HEADER_LEN) else {
            return Err(SkipReason::TruncatedHeader);
        };
        let body_len = u32::from_be_bytes([h[4], h[5], h[6], h[7]]);
        if body_len as usize > MAX_RECORD_LEN {
            return Err(SkipReason::InsaneLength);
        }
        Ok(RecordHeader { record_type: u16::from_be_bytes([h[2], h[3]]), body_len })
    }

    /// Total bytes on the wire, header included.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.body_len as usize
    }
}

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

    /// The registry counter a run reports this reason under (a constant
    /// from [`lpr_obs::names`], the workspace metric vocabulary).
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
        HEADER_LEN as u64 + self.body_len as u64
    }
}

/// Where a [`Framer`] gets its bytes.
pub trait Source {
    /// What a failed read reports; decode errors convert into it.
    type Error: From<WartsError>;
    /// The unconsumed bytes, and whether the input ends after them.
    fn window(&self) -> (&[u8], bool);
    /// Makes the window at least `n` bytes long, or as long as it gets.
    fn fill(&mut self, n: usize) -> Result<(), Self::Error>;
    /// Drops the first `n` bytes of the window.
    fn consume(&mut self, n: usize);
}

/// A record-at-a-time warts reader over a byte [`Source`]: one policy,
/// accounting and address dictionary for [`crate::WartsReader`] and
/// [`crate::WartsStreamReader`]. Iteration ends after the first error.
pub struct Framer<S> {
    source: S,
    state: FrameState,
}

/// What one framing step did with its window.
enum Step<T> {
    /// The window's first `n` bytes held this record, or were skipped.
    Consumed(usize, Option<T>),
    /// Framing needs a window this long (never asked at end of input).
    Need(usize),
    /// A clean end of input, or a poisoned framer.
    End,
    /// The strict policy refused the window; the framer is poisoned.
    Fail(WartsError),
}

/// The framer's policy and accounting, apart from its source so that
/// the step can update them while it borrows the source's window.
#[derive(Default)]
struct FrameState {
    addrs: AddrTableReader,
    layouts: HopLayouts,
    /// Bytes consumed so far (records plus skipped garbage).
    offset: usize,
    failed: bool,
    /// Scanning for the next plausible header after a bad one.
    resyncing: bool,
    lenient: bool,
    skips: BTreeMap<SkipReason, u64>,
    resync_bytes: u64,
    last_span: Option<RecordSpan>,
}

impl FrameState {
    /// The framing step over `window`; `at_end` says no input follows.
    /// `decode` reads a framed body of the given record type.
    fn step<T>(&mut self, window: &[u8], at_end: bool, mut decode: impl Decode<T>) -> Step<T> {
        if self.failed {
            return Step::End;
        }
        if self.resyncing {
            return self.resync(window, at_end);
        }
        // A short window is judged by its length alone, whatever its
        // magic bytes say: more may come, or it is a cut-short header.
        let header = match RecordHeader::parse(window) {
            Ok(header) => header,
            Err(_) if window.len() < HEADER_LEN && !at_end => return Step::Need(HEADER_LEN),
            Err(_) if window.is_empty() => return Step::End,
            Err(_) if window.len() < HEADER_LEN => {
                return self.reject(SkipReason::TruncatedHeader, window)
            }
            Err(reason) => return self.reject(reason, window),
        };
        let wire = header.wire_len();
        if window.len() < wire {
            // In lenient mode the "header" may be a corrupted length
            // swallowing real records, so the tail is rescanned.
            return if at_end {
                self.reject(SkipReason::TruncatedBody, window)
            } else {
                Step::Need(wire)
            };
        }
        let body = &window[HEADER_LEN..wire];
        let learned = self.addrs.len();
        match decode(header.record_type, body, &mut self.addrs, &mut self.layouts) {
            Ok(record) => {
                self.last_span = Some(RecordSpan {
                    offset: self.offset as u64,
                    body_len: header.body_len,
                    record_type: header.record_type,
                });
                self.offset += wire;
                Step::Consumed(wire, Some(record))
            }
            // The declared length keeps a lenient framer aligned on the
            // next header.
            Err(e) if self.lenient => {
                self.skip(SkipReason::of(&e), learned);
                self.offset += wire;
                Step::Consumed(wire, None)
            }
            Err(e) => {
                self.failed = true;
                Step::Fail(e)
            }
        }
    }

    /// Header-level corruption. The strict policy refuses it; the
    /// lenient one counts one skip, steps a byte past the bad header and
    /// resynchronises.
    fn reject<T>(&mut self, reason: SkipReason, window: &[u8]) -> Step<T> {
        if self.lenient {
            self.skip(reason, self.addrs.len());
            self.resyncing = true;
            return self.discard(1);
        }
        self.failed = true;
        Step::Fail(match reason {
            SkipReason::BadMagic => WartsError::BadMagic {
                offset: self.offset,
                found: u16::from_be_bytes([window[0], window[1]]),
            },
            SkipReason::TruncatedHeader => WartsError::Truncated { context: "record header" },
            SkipReason::InsaneLength => WartsError::Truncated { context: "record length sanity" },
            _ => WartsError::Truncated { context: "record body" },
        })
    }

    /// Discards bytes up to the next plausible record header, or the
    /// whole window at the end of input. Otherwise the last 7 bytes
    /// stay: a header may straddle the window's edge.
    fn resync<T>(&mut self, window: &[u8], at_end: bool) -> Step<T> {
        // The first-byte test only spares the parse where it would fail.
        let first = WARTS_MAGIC.to_be_bytes()[0];
        let found = window
            .windows(HEADER_LEN)
            .position(|w| w[0] == first && RecordHeader::parse(w).is_ok());
        let garbage = match found {
            Some(i) => i,
            None if at_end => window.len(),
            None => (window.len() + 1).saturating_sub(HEADER_LEN),
        };
        self.resyncing = found.is_none() && !at_end;
        if self.resyncing && garbage == 0 {
            return Step::Need(HEADER_LEN);
        }
        self.discard(garbage)
    }

    fn discard<T>(&mut self, n: usize) -> Step<T> {
        self.offset += n;
        self.resync_bytes += n as u64;
        Step::Consumed(n, None)
    }

    /// Counts one skip. The first one limits address references to the
    /// `learned` ids the records decoded before it took: the skipped
    /// bytes may have embedded addresses, each of which implicitly took
    /// the writer's next id, so past `learned` the reader's ids and the
    /// writer's may differ.
    fn skip(&mut self, reason: SkipReason, learned: usize) {
        self.addrs.limit_references(learned);
        *self.skips.entry(reason).or_default() += 1;
    }
}

impl<S: Source> Framer<S> {
    pub(crate) fn from_source(source: S) -> Self {
        Framer { source, state: FrameState::default() }
    }

    /// Survives corrupt input instead of refusing it. A record whose
    /// *body* fails to decode is skipped (its declared length keeps the
    /// reader aligned); header-level corruption (bad magic, insane
    /// length, a body cut short) makes it *resynchronise* on the next
    /// plausible header; input ending mid-record ends cleanly. Each
    /// event counts one skip under its [`SkipReason`] in
    /// [`Framer::skip_counts`], and discarded bytes count in
    /// [`Framer::resync_bytes`].
    ///
    /// A skipped trace/ping may have embedded addresses, each of which
    /// implicitly took the next dictionary id, so past a skip the
    /// reader's table may fall behind the writer's ids. So the first
    /// skip sets a reference limit at the ids learned before it: a later
    /// reference at or past it fails as `UnknownAddrId` (a `BadAddress`
    /// skip) rather than resolve to another record's address. Embedded
    /// addresses still decode, and strict mode never skips. Damage
    /// therefore only loses records; it never gives a clean one wrong
    /// hop addresses.
    pub fn lenient(mut self) -> Self {
        self.state.lenient = true;
        self
    }

    /// Per-reason skip tallies so far (empty unless
    /// [`Framer::lenient`]).
    pub fn skip_counts(&self) -> &BTreeMap<SkipReason, u64> {
        &self.state.skips
    }

    /// Total bytes consumed from the source so far (records plus any
    /// resynchronisation garbage).
    pub fn offset(&self) -> u64 {
        self.state.offset as u64
    }

    /// The wire span of the most recent record [`Framer::next_record`]
    /// returned, or `None` before the first success. An index builder
    /// calls this after every `Ok(Some(_))`.
    pub fn last_record_span(&self) -> Option<RecordSpan> {
        self.state.last_span
    }

    /// The address dictionary accumulated so far, in table-id order
    /// (including entries added by records whose decode later failed —
    /// exactly the state a sequential lenient pass carries forward).
    pub fn addr_snapshot(&self) -> Vec<Addr> {
        self.state.addrs.snapshot()
    }

    /// Total records/runs skipped so far in lenient mode.
    pub fn skipped_total(&self) -> u64 {
        self.state.skips.values().sum()
    }

    /// Garbage bytes discarded while resynchronising.
    pub fn resync_bytes(&self) -> u64 {
        self.state.resync_bytes
    }

    /// Reads the next record, `Ok(None)` at a clean end of input. An
    /// unsupported record keeps a copy of its body. After any error the
    /// reader is poisoned and returns `Ok(None)` from then on.
    pub fn next_record(&mut self) -> Result<Option<Record>, S::Error> {
        self.next_with(|record_type, body, addrs, layouts| {
            let mut record = decode_body(record_type, body, addrs, layouts)?;
            if let Record::Unsupported { body: kept, .. } = &mut record {
                *kept = body.to_vec();
            }
            Ok(record)
        })
    }

    /// Frames and checks the next record as [`Framer::next_record`]
    /// does, with the same errors, skips and address table, but builds
    /// nothing: a trace body is walked into a sink that keeps nothing.
    /// Returns the record's span, as [`Framer::last_record_span`] then
    /// gives it.
    pub fn next_span(&mut self) -> Result<Option<RecordSpan>, S::Error> {
        let checked = self.next_with(|record_type, body, addrs, layouts| {
            if record_type != RecordType::Trace as u16 {
                return decode_body(record_type, body, addrs, layouts).map(drop);
            }
            let mut cur = Cursor::new(body);
            walk_trace(&mut cur, addrs, layouts, &mut ())?;
            cur.expect_consumed(record_type)
        })?;
        Ok(checked.and(self.state.last_span))
    }

    /// Runs framing steps until one yields a record `decode` read.
    fn next_with<T>(&mut self, mut decode: impl Decode<T>) -> Result<Option<T>, S::Error> {
        loop {
            let (window, at_end) = self.source.window();
            match self.state.step(window, at_end, &mut decode) {
                Step::Consumed(n, record) => {
                    self.source.consume(n);
                    if record.is_some() {
                        return Ok(record);
                    }
                }
                Step::Need(n) => {
                    if let Err(e) = self.source.fill(n) {
                        self.state.failed = true;
                        return Err(e);
                    }
                }
                Step::End => return Ok(None),
                Step::Fail(e) => return Err(e.into()),
            }
        }
    }

    /// Reads every remaining trace record, skipping the other records.
    pub fn traces(&mut self) -> Result<Vec<TraceRecord>, S::Error> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            if let Record::Trace(t) = rec {
                out.push(t);
            }
        }
        Ok(out)
    }
}

impl<S: Source> Iterator for Framer<S> {
    type Item = Result<Record, S::Error>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Reads one framed body of a record type against the framer's address
/// table and hop layouts.
trait Decode<T>:
    FnMut(u16, &[u8], &mut AddrTableReader, &mut HopLayouts) -> Result<T, WartsError>
{
}

impl<T, F> Decode<T> for F where
    F: FnMut(u16, &[u8], &mut AddrTableReader, &mut HopLayouts) -> Result<T, WartsError>
{
}

/// Decodes one record body against an address table: the one body
/// dispatcher, for a [`Framer`] and for index-driven shard decoding
/// (the file's full dictionary preloaded via
/// [`AddrTableReader::from_table`]). An unsupported record's body is
/// left empty; [`Framer::next_record`] copies it in.
pub fn decode_record_body(
    record_type: u16,
    body: &[u8],
    addrs: &mut AddrTableReader,
) -> Result<Record, WartsError> {
    decode_body(record_type, body, addrs, &mut HopLayouts::default())
}

/// [`decode_record_body`] through a walker's layout cache.
fn decode_body(
    record_type: u16,
    body: &[u8],
    addrs: &mut AddrTableReader,
    layouts: &mut HopLayouts,
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
            Record::Trace(TraceRecord::read_with(&mut cur, addrs, layouts)?)
        }
        x if x == RecordType::Ping as u16 => {
            Record::Ping(PingRecord::read(&mut cur, addrs)?)
        }
        other => return Ok(Record::Unsupported { record_type: other, body: Vec::new() }),
    };
    cur.expect_consumed(record_type)?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_parse_judges_whatever_prefix_is_present() {
        let header = [0x12, 0x05, 0x00, 0x06, 0x00, 0x00, 0x01, 0x00];
        let parsed = RecordHeader { record_type: 6, body_len: 256 };
        assert_eq!(RecordHeader::parse(&header), Ok(parsed));
        assert_eq!(parsed.wire_len(), 264);
        for n in 0..HEADER_LEN {
            assert_eq!(RecordHeader::parse(&header[..n]), Err(SkipReason::TruncatedHeader));
        }
        assert_eq!(RecordHeader::parse(&[0x13]), Err(SkipReason::BadMagic));
        assert_eq!(RecordHeader::parse(&[0x12, 0x06, 0, 6]), Err(SkipReason::BadMagic));
        let max = [0x12, 0x05, 0, 6, 0x04, 0, 0, 0];
        assert_eq!(RecordHeader::parse(&max).map(|h| h.body_len as usize), Ok(MAX_RECORD_LEN));
        let over = [0x12, 0x05, 0, 6, 0x04, 0, 0, 1];
        assert_eq!(RecordHeader::parse(&over), Err(SkipReason::InsaneLength));
    }
}
