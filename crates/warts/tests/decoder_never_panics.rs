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
//!
//! The hop walker reads each hop through a layout cached per flag
//! pattern. On every hop of those streams, and on hand-made edge cases,
//! it gives the same hop or the same error as the per-flag reader it
//! replaced (kept here as the reference), and leaves the same address
//! table.

use lpr_chaos::corrupt_warts_bytes;
use lpr_core::label::Lse;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::io::Read;
use std::net::Ipv4Addr;
use warts::addr::AddrTableWriter;
use warts::buf::Cursor;
use warts::flags::{read_params, ParamWriter};
use warts::{
    decode_record_body, AddrTableReader, Framer, HopRecord, IcmpExt, Record, RecordSpan,
    RecordType, SkipReason, Source, StreamError, TraceRecord, WartsError, WartsReader,
    WartsStreamReader, MAX_RECORD_LEN, WARTS_MAGIC,
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

/// The per-flag hop reader the walker replaced: each set flag's
/// parameter read in flag order through a cursor.
fn reference_hop(
    cur: &mut Cursor<'_>,
    addrs: &mut AddrTableReader,
) -> Result<HopRecord, WartsError> {
    let (flags, mut params) = read_params(cur, "hop params")?;
    let mut addr = None;
    let mut hop = HopRecord {
        addr: a(0),
        probe_ttl: 0,
        reply_ttl: None,
        probe_id: None,
        rtt_us: 0,
        icmp_type_code: None,
        probe_size: None,
        reply_size: None,
        reply_ipid: None,
        reply_tos: None,
        quoted_ttl: None,
        icmp_exts: Vec::new(),
    };
    for flag in flags.iter() {
        match flag {
            1 => return Err(WartsError::Unsupported { feature: "hop global address id" }),
            2 => hop.probe_ttl = params.u8("hop probe ttl")?,
            3 => hop.reply_ttl = Some(params.u8("hop reply ttl")?),
            4 => {
                params.u8("hop flags")?;
            }
            5 => hop.probe_id = Some(params.u8("hop probe id")?),
            6 => hop.rtt_us = params.u32("hop rtt")?,
            7 => hop.icmp_type_code = Some(params.u16("hop icmp tc")?),
            8 => hop.probe_size = Some(params.u16("hop probe size")?),
            9 => hop.reply_size = Some(params.u16("hop reply size")?),
            10 => hop.reply_ipid = Some(params.u16("hop reply ipid")?),
            11 => hop.reply_tos = Some(params.u8("hop reply tos")?),
            12 => {
                params.u16("hop nhmtu")?;
            }
            13 => {
                params.u16("hop quoted iplen")?;
            }
            14 => hop.quoted_ttl = Some(params.u8("hop quoted ttl")?),
            15 => {
                params.u8("hop tcp flags")?;
            }
            16 => {
                params.u8("hop quoted tos")?;
            }
            17 => hop.icmp_exts = reference_exts(&mut params)?,
            18 => addr = Some(addrs.read(&mut params)?),
            _ => return Err(WartsError::Unsupported { feature: "unknown hop flag" }),
        }
    }
    hop.addr = addr.ok_or(WartsError::Unsupported { feature: "hop without address" })?;
    Ok(hop)
}

/// The ICMP-extension hop parameter, every object checked.
fn reference_exts(cur: &mut Cursor<'_>) -> Result<Vec<IcmpExt>, WartsError> {
    let total = cur.u16("icmpext total length")? as usize;
    let mut block = Cursor::new(cur.bytes(total, "icmpext block")?);
    let mut exts = Vec::new();
    while !block.is_empty() {
        let len = block.u16("icmpext data length")? as usize;
        let class = block.u8("icmpext class")?;
        let kind = block.u8("icmpext type")?;
        exts.push(IcmpExt { class, kind, data: block.bytes(len, "icmpext data")?.to_vec() });
    }
    Ok(exts)
}

/// A trace record body: a parameter block declaring `hop_count` hops
/// between two embedded addresses, then `hops`.
fn trace_body(hop_count: u16, hops: &[u8]) -> Vec<u8> {
    let mut p = ParamWriter::new();
    bytes::BufMut::put_u16(p.param(19), hop_count);
    let mut table = AddrTableWriter::new();
    table.write(p.param(26), a(1));
    table.write(p.param(27), a(2));
    let mut header = bytes::BytesMut::new();
    p.finish(&mut header);
    [&header[..], hops].concat()
}

/// The reference decode of a [`trace_body`]: its hops, or the error.
fn reference_trace(body: &[u8], addrs: &mut AddrTableReader) -> Result<Vec<HopRecord>, WartsError> {
    let mut cur = Cursor::new(body);
    let (_, mut params) = read_params(&mut cur, "trace params").expect("a well-formed header");
    let hop_count = params.u16("trace hop count").expect("a hop count");
    addrs.read(&mut params).expect("a source");
    addrs.read(&mut params).expect("a destination");
    let hops = (0..hop_count).map(|_| reference_hop(&mut cur, addrs)).collect::<Result<_, _>>()?;
    if !cur.is_empty() {
        let record_type = RecordType::Trace as u16;
        let (declared, consumed) = (body.len(), cur.position());
        return Err(WartsError::LengthMismatch { record_type, declared, consumed });
    }
    Ok(hops)
}

/// `hop_count` hops read from `hops` by the walker (through the
/// `TraceRecord` sink) and by the reference: the same hops or the same
/// error, and the same address table after. Both start from `table`.
fn assert_walker_matches_reference(table: &[warts::Addr], hop_count: u16, hops: &[u8]) {
    let body = trace_body(hop_count, hops);
    let mut walker_addrs = AddrTableReader::from_table(table.to_vec());
    let walked = match decode_record_body(RecordType::Trace as u16, &body, &mut walker_addrs) {
        Ok(Record::Trace(t)) => Ok(t.hops),
        Ok(other) => panic!("a trace body decoded as {other:?}"),
        Err(e) => Err(e),
    };
    let mut reference_addrs = AddrTableReader::from_table(table.to_vec());
    let reference = reference_trace(&body, &mut reference_addrs);
    assert_eq!(walked, reference, "{hop_count} hops from {hops:02x?}");
    assert_eq!(walker_addrs.snapshot(), reference_addrs.snapshot(), "address tables");
}

/// The raw hop `flags ‖ u16 length ‖ params`, or just the flags when
/// none is set.
fn raw_hop(flags: &[u8], params: &[u8]) -> Vec<u8> {
    let mut hop = flags.to_vec();
    if flags.iter().any(|b| b & 0x7f != 0) {
        hop.extend_from_slice(&(params.len() as u16).to_be_bytes());
        hop.extend_from_slice(params);
    }
    hop
}

/// Parameters for every hop flag from 2 to 18: the 24 bytes of fixed
/// fields, one MPLS extension object and an address by reference.
fn full_params(addr_id: u32) -> Vec<u8> {
    let mut params = vec![3, 250, 0, 1, 0, 0, 0x05, 0xdc, 0x0b, 0x00, 0, 60, 0, 84, 0x12, 0x34];
    params.extend_from_slice(&[0, 0x05, 0xdc, 0, 28, 1, 0, 0]);
    params.extend_from_slice(&[0, 8, 0, 4, 1, 1, 0x04, 0x93, 0xe1, 0x01]);
    params.push(0);
    params.extend_from_slice(&addr_id.to_be_bytes());
    params
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Hops read from every offset of ≥200 corrupted streams, one hop
    /// and three at a time: the walker and the per-flag reference
    /// agree on every one (three hops run through the layout cache).
    #[test]
    fn walker_matches_the_per_flag_reference(seed in any::<u64>(), rate in 0.01f64..1.0) {
        let pristine = sample_stream();
        let (bytes, _) = corrupt_warts_bytes(&pristine, seed, rate);
        let table = drain_lenient(WartsReader::new(&pristine).lenient(), pristine.len()).addrs;
        for start in 0..bytes.len() {
            let hops = &bytes[start..bytes.len().min(start + 96)];
            assert_walker_matches_reference(&table, 1, hops);
            assert_walker_matches_reference(&table, 3, hops);
        }
    }
}

/// Flag fields longer than three bytes, empty ones, flag 1, flags above
/// 18, parameter blocks cut at every offset and flag fields that pack
/// alike but for their continuation bits: the walker and the reference
/// agree, on a cold cache and behind a hop that warmed it.
#[test]
fn walker_matches_the_per_flag_reference_on_edge_cases() {
    let table = [a(7), a(8)];
    let all_flags: &[u8] = &[0xfe, 0xff, 0x0f];
    let warm = raw_hop(all_flags, &full_params(1));
    let mut cases = vec![
        raw_hop(&[0x00], &[]),
        raw_hop(&[0x80, 0x00], &[]),
        raw_hop(&[0x80, 0x80, 0x80, 0x00], &[]),
        raw_hop(&[0xff, 0xff, 0x0f], &full_params(1)),
        raw_hop(&[0x01], &[]),
        raw_hop(&[0xfe, 0xff, 0x1f], &full_params(1)),
        raw_hop(&[0xfe, 0xff, 0x4f], &full_params(1)),
        raw_hop(&[0xfe, 0xff, 0x8f, 0x00], &full_params(1)),
        raw_hop(&[0xfe, 0xff, 0x8f, 0x80, 0x00], &full_params(0)),
        raw_hop(&[0xfe, 0xff, 0x8f, 0x01], &full_params(1)),
        raw_hop(&[0xfe, 0xff, 0x0f], &full_params(9)),
        raw_hop(&[0xe2, 0x80, 0x08], &[1, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 1]),
        raw_hop(&[0xe2, 0x80, 0x0c], &[1, 0, 0, 0, 7, 0, 0, 0, 6, 0, 2, 1, 1, 4, 1, 0, 0, 0, 0, 0]),
    ];
    let full = full_params(1);
    for cut in 0..=full.len() {
        cases.push(raw_hop(all_flags, &full[..cut]));
        cases.push(raw_hop(&[0xfe, 0xff, 0x07], &full[..cut]));
    }
    cases.extend((0..warm.len()).map(|cut| warm[..cut].to_vec()));
    for case in &cases {
        assert_walker_matches_reference(&table, 1, case);
        let mut behind_warm = warm.clone();
        behind_warm.extend_from_slice(case);
        assert_walker_matches_reference(&table, 2, &behind_warm);
        behind_warm.extend_from_slice(&warm);
        assert_walker_matches_reference(&table, 3, &behind_warm);
    }
    // Flag fields that differ only in length and continuation bits are
    // different layouts: flag 18 alone, then flag 4 alone or flag 11.
    let addr_only = raw_hop(&[0x80, 0x80, 0x08], &[0, 0, 0, 0, 1]);
    for other in [raw_hop(&[0x08], &[0]), raw_hop(&[0x80, 0x08], &[0, 0])] {
        assert_walker_matches_reference(&table, 2, &[addr_only.clone(), other].concat());
    }
    let mut addrs = AddrTableReader::from_table(table.to_vec());
    let body = trace_body(2, &[warm.clone(), warm].concat());
    let decoded = decode_record_body(RecordType::Trace as u16, &body, &mut addrs);
    let Ok(Record::Trace(t)) = decoded else { panic!("the full hop decodes: {decoded:?}") };
    assert_eq!(t.hops[1].icmp_exts.len(), 1);
    assert_eq!(t.hops[1].quoted_ttl, Some(1));
}
