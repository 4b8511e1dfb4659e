//! Decoder-never-panics: the warts readers survive arbitrary
//! corruption of real streams, and agree on it.
//!
//! `lpr-chaos` corrupts a realistic encoded stream (bit flips, cut
//! bodies, inflated lengths, smashed magics) across more than a
//! thousand seeded cases. Both readers run one record framer, so on
//! every stream the strict slice reader, the strict stream reader and
//! the strict stream reader fed one byte per read return the same
//! records and the same first error; lenient reads of the slice and of
//! the one-byte trickle report the same records, spans, skips, resync
//! bytes and address dictionary, and drain every stream to a clean end
//! with reconciling skip counts.

use lpr_chaos::corrupt_warts_bytes;
use lpr_core::label::Lse;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::io::Read;
use std::net::Ipv4Addr;
use warts::{
    Framer, HopRecord, IcmpExt, Record, RecordSpan, SkipReason, Source, StreamError, TraceRecord,
    WartsError, WartsReader, WartsStreamReader, MAX_RECORD_LEN, WARTS_MAGIC,
};

fn a(o: u8) -> warts::Addr {
    warts::Addr::V4(Ipv4Addr::new(10, 0, 0, o))
}

/// A realistic stream: list, cycle, MPLS-labelled traces sharing
/// dictionary addresses, cycle stop.
fn sample_stream() -> Vec<u8> {
    let mut w = warts::WartsWriter::new();
    let list = w.list(1, "chaos");
    let cycle = w.cycle_start(list, 1, 0);
    for i in 0..6u8 {
        let mut t = TraceRecord::new(a(1), a(200 + i % 8));
        let mut labelled = HopRecord::reply(2, a(20 + i), 900);
        labelled.icmp_exts = vec![IcmpExt::mpls(
            &[Lse::transit(1000 + i as u32, 254), Lse::transit(7, 253)]
                .into_iter()
                .collect(),
        )];
        t.hops = vec![
            HopRecord::reply(1, a(10 + i), 500),
            labelled,
            HopRecord::reply(3, a(200 + i % 8), 1500),
        ];
        w.trace(&t).unwrap();
    }
    w.cycle_stop(cycle, 6);
    w.into_bytes()
}

/// Feeds its bytes one per read: the worst-case chunking.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some((&first, rest)) = self.0.split_first() else { return Ok(0) };
        if buf.is_empty() {
            return Ok(0);
        }
        buf[0] = first;
        self.0 = rest;
        Ok(1)
    }
}

/// A strict reader's records, then its first error (iteration must end
/// there).
fn strict_outcome<E>(
    reader: impl Iterator<Item = Result<Record, E>>,
    decode: impl Fn(E) -> WartsError,
) -> (Vec<Record>, Option<WartsError>) {
    let mut records = Vec::new();
    for item in reader {
        match item {
            Ok(record) => records.push(record),
            Err(e) => return (records, Some(decode(e))),
        }
    }
    (records, None)
}

fn stream_decode(e: StreamError) -> WartsError {
    match e {
        StreamError::Decode(e) => e,
        StreamError::Io(e) => panic!("an in-memory source failed: {e}"),
    }
}

/// The slice reader, the stream reader over the slice and the stream
/// reader over a trickle return the same records and first error.
fn assert_strict_readers_agree(bytes: &[u8]) -> (Vec<Record>, Option<WartsError>) {
    let slice = strict_outcome(WartsReader::new(bytes), |e| e);
    let stream = strict_outcome(WartsStreamReader::new(bytes), stream_decode);
    let trickle = strict_outcome(WartsStreamReader::new(Trickle(bytes)), stream_decode);
    assert_eq!(stream, slice, "stream reader over the slice");
    assert_eq!(trickle, slice, "stream reader over a trickle");
    slice
}

/// Everything a lenient read reports.
#[derive(Debug, PartialEq)]
struct Lenient {
    records: Vec<(Record, RecordSpan)>,
    skips: BTreeMap<SkipReason, u64>,
    resync_bytes: u64,
    addrs: Vec<warts::Addr>,
}

/// Drains a lenient reader; panics bubble to proptest, errors fail the
/// property (an in-memory source cannot fail, so lenient mode must
/// always reach a clean end, having consumed every byte).
fn drain_lenient<S: Source>(mut reader: Framer<S>, len: usize) -> Lenient
where
    S::Error: Debug,
{
    let mut records = Vec::new();
    while let Some(record) = reader.next_record().expect("lenient over in-memory bytes") {
        records.push((record, reader.last_record_span().expect("a span per record")));
    }
    let per_reason: u64 =
        SkipReason::ALL.iter().map(|rs| reader.skip_counts().get(rs).copied().unwrap_or(0)).sum();
    assert_eq!(per_reason, reader.skipped_total(), "per-reason counts cover every skip");
    assert_eq!(reader.offset(), len as u64, "every byte framed or skipped");
    Lenient {
        records,
        skips: reader.skip_counts().clone(),
        resync_bytes: reader.resync_bytes(),
        addrs: reader.addr_snapshot(),
    }
}

/// Lenient reads of the slice and of a trickle report the same.
fn assert_lenient_readers_agree(bytes: &[u8]) -> Lenient {
    let slice = drain_lenient(WartsReader::new(bytes).lenient(), bytes.len());
    let trickle = drain_lenient(WartsStreamReader::new(Trickle(bytes)).lenient(), bytes.len());
    assert_eq!(trickle, slice, "lenient stream reader over a trickle");
    slice
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(550))]

    /// ≥550 corrupted streams: the strict readers agree and may error,
    /// the lenient ones agree and survive.
    #[test]
    fn corrupted_streams_never_panic(seed in any::<u64>(), rate in 0.01f64..1.0) {
        let (bytes, counts) = corrupt_warts_bytes(&sample_stream(), seed, rate);
        assert_strict_readers_agree(&bytes);

        // Lenient: always a clean end, and when corruption actually
        // landed somewhere, it is either absorbed by a skip or harmless
        // to decode — but never fatal.
        let salvaged = assert_lenient_readers_agree(&bytes);
        let total = 14; // list + cycle start/stop + 6 traces + addr use
        prop_assert!(salvaged.records.len() <= total);
        if counts.total() == 0 {
            let (strict, error) = assert_strict_readers_agree(&sample_stream());
            prop_assert_eq!((strict.len(), error), (9, None), "pristine stream decodes fully");
            let pristine = assert_lenient_readers_agree(&sample_stream());
            prop_assert!(pristine.skips.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// ≥500 corrupted *trace-record* streams plus raw byte soup mixed
    /// in: the readers agree on them too, and lenient decode of whatever
    /// survives feeds the core conversion without panicking either.
    #[test]
    fn salvaged_records_convert_without_panicking(
        seed in any::<u64>(),
        rate in 0.05f64..0.6,
        soup in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = sample_stream();
        let split = bytes.len() / 2;
        // Splice garbage mid-stream, then corrupt the whole thing.
        let mut spliced = bytes[..split].to_vec();
        spliced.extend_from_slice(&soup);
        spliced.extend_from_slice(&bytes[split..]);
        bytes = corrupt_warts_bytes(&spliced, seed, rate).0;

        assert_strict_readers_agree(&bytes);
        for (rec, _) in assert_lenient_readers_agree(&bytes).records {
            if let Record::Trace(t) = rec {
                // Salvaged records may still carry nonsense; conversion
                // may reject them but must not panic.
                let _ = warts::trace_to_core(&t);
            }
        }
    }
}

/// A stream cut 3 bytes into a record header: the records before it,
/// then `Truncated { "record header" }`, from every strict reader.
#[test]
fn a_cut_header_is_the_same_error_to_every_reader() {
    let mut bytes = sample_stream();
    bytes.extend_from_slice(&[0x12, 0x05, 0x00]);
    let (records, error) = assert_strict_readers_agree(&bytes);
    assert_eq!(records.len(), 9);
    assert_eq!(error, Some(WartsError::Truncated { context: "record header" }));
    let lenient = assert_lenient_readers_agree(&bytes);
    assert_eq!(lenient.records.len(), 9);
    assert_eq!(lenient.skips, BTreeMap::from([(SkipReason::TruncatedHeader, 1)]));
    assert_eq!(lenient.resync_bytes, 3);
}

/// A well-formed record of an unsupported type whose body is one byte
/// over the 64 MiB bound: every strict reader refuses it, every lenient
/// one skips it whole.
#[test]
fn a_record_over_64_mib_is_refused_by_every_reader() {
    let mut bytes = sample_stream();
    bytes.extend_from_slice(&WARTS_MAGIC.to_be_bytes());
    bytes.extend_from_slice(&0x0Au16.to_be_bytes()); // tracelb
    bytes.extend_from_slice(&(MAX_RECORD_LEN as u32 + 1).to_be_bytes());
    let huge = 8 + MAX_RECORD_LEN + 1;
    bytes.resize(bytes.len() + MAX_RECORD_LEN + 1, 0);
    let (records, error) = assert_strict_readers_agree(&bytes);
    assert_eq!(records.len(), 9);
    assert_eq!(error, Some(WartsError::Truncated { context: "record length sanity" }));
    // A one-byte trickle through 64 MiB takes too long; the stream
    // reader over the slice runs the same refill path in larger reads.
    let lenient = drain_lenient(WartsReader::new(&bytes).lenient(), bytes.len());
    let stream = drain_lenient(WartsStreamReader::new(bytes.as_slice()).lenient(), bytes.len());
    assert_eq!(stream, lenient);
    assert_eq!(lenient.records.len(), 9);
    assert_eq!(lenient.skips, BTreeMap::from([(SkipReason::InsaneLength, 1)]));
    assert_eq!(lenient.resync_bytes, huge as u64);
}
