//! Record-index robustness under corruption (ISSUE 7 satellite):
//! `lpr-chaos` smashes magics, flips bits, truncates and inflates
//! bodies across hundreds of seeded cases; the index build must never
//! panic, must resynchronize exactly like the sequential lenient
//! decoder (same per-reason skip tallies, same resync byte count), and
//! an indexed range decode against the preloaded dictionary must
//! reproduce the sequential record stream record for record. The
//! one-pass decode the ingest uses (`TraceBuf::decode`) must agree with
//! `decode_record_body` + `trace_to_core` on every indexed trace record
//! and on mutations of it, and never panic. Lenient decode only loses
//! records: with record magics smashed in a written cycle, every trace
//! the stream reader or `load_traces` yields is a written trace.

use lpr_chaos::corrupt_warts_bytes;
use lpr_core::label::{LabelStack, Lse};
use lpr_core::trace::Trace;
use proptest::prelude::*;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::OnceLock;
use warts::{
    decode_record_body, trace_to_core, AddrTableReader, Conversion, HopRecord, IcmpExt, Record,
    RecordType, SkipReason, StopReason, TraceBuf, TraceRecord, WartsError, WartsStreamReader,
    WartsWriter,
};

fn a(o: u8) -> warts::Addr {
    warts::Addr::V4(Ipv4Addr::new(10, 0, 0, o))
}

/// A realistic stream: list, cycle, MPLS-labelled traces sharing
/// dictionary addresses, cycle stop.
fn sample_stream() -> Vec<u8> {
    stream_of(&sample_traces())
}

/// Writes `traces` as one file: list, cycle, traces, cycle stop.
fn stream_of(traces: &[TraceRecord]) -> Vec<u8> {
    let mut w = WartsWriter::new();
    let list = w.list(1, "chaos");
    let cycle = w.cycle_start(list, 1, 0);
    for t in traces {
        w.trace(t).unwrap();
    }
    w.cycle_stop(cycle, traces.len() as u32);
    w.into_bytes()
}

fn sample_traces() -> Vec<TraceRecord> {
    let mut traces = Vec::new();
    for i in 0..8u8 {
        let mut t = TraceRecord::new(a(1), a(200 + i % 8));
        let mut labelled = HopRecord::reply(2, a(20 + i), 900);
        labelled.icmp_exts = vec![IcmpExt::mpls(
            &[Lse::transit(1000 + i as u32, 254), Lse::transit(7, 253)].into_iter().collect(),
        )];
        t.hops = vec![
            HopRecord::reply(1, a(10 + i), 500),
            labelled,
            HopRecord::reply(3, a(200 + i % 8), 1500),
        ];
        traces.push(t);
    }
    traces
}

fn mpls(labels: &[u32]) -> IcmpExt {
    IcmpExt::mpls(&labels.iter().map(|&l| Lse::transit(l, 250)).collect::<LabelStack>())
}

/// Records for the conversion branches generated corpora never reach,
/// each after a long labelled trace, so that a hop or label left over
/// from the previous record would show.
fn edge_records() -> Vec<TraceRecord> {
    let v6 = |s: &str| warts::Addr::V6(s.parse().unwrap());
    let mut long = TraceRecord::new(a(1), a(250));
    long.stop_reason = StopReason::Completed;
    long.hops = (1..=12)
        .map(|ttl| {
            let mut h = HopRecord::reply(ttl, a(100 + ttl), 100 * ttl as u32);
            if (3..=10).contains(&ttl) {
                h.icmp_exts = vec![mpls(&[300_000 + ttl as u32, 16, 17])];
            }
            h
        })
        .collect();

    let mut bad_mpls = TraceRecord::new(a(1), a(251));
    bad_mpls.hops = vec![HopRecord::reply(1, a(2), 10), HopRecord::reply(2, a(3), 20)];
    bad_mpls.hops[1].icmp_exts = vec![IcmpExt { class: 1, kind: 1, data: vec![0, 1, 2, 3, 4] }];

    let v6_trace = TraceRecord::new(v6("2001:db8::1"), a(252));

    let mut v6_hop = TraceRecord::new(a(1), a(253));
    v6_hop.hops = vec![
        HopRecord::reply(1, a(2), 10),
        HopRecord::reply(2, v6("2001:db8::2"), 20),
        HopRecord::reply(3, a(4), 30),
    ];
    v6_hop.hops[1].icmp_exts = vec![IcmpExt { class: 1, kind: 1, data: vec![9] }];

    // Duplicate replies: the first per TTL wins, and a malformed object
    // on a discarded duplicate does not fail the trace.
    let mut dup = TraceRecord::new(a(1), a(254));
    dup.hops = vec![
        HopRecord::reply(1, a(2), 10),
        HopRecord::reply(2, a(3), 20),
        HopRecord::reply(2, a(9), 25),
        HopRecord::reply(1, a(8), 30),
        HopRecord::reply(3, a(4), 40),
    ];
    dup.hops[1].icmp_exts = vec![mpls(&[500])];
    dup.hops[2].icmp_exts = vec![IcmpExt { class: 1, kind: 1, data: vec![1, 2] }];

    // first_hop > 1: probing starts at TTL 4; a reply below it stays,
    // and the gap up to the next reply becomes anonymous hops.
    let mut late = TraceRecord::new(a(1), a(255));
    late.first_hop = Some(4);
    late.hops = vec![HopRecord::reply(2, a(5), 10), HopRecord::reply(7, a(6), 20)];

    // A non-MPLS object ahead of the MPLS one, and a second MPLS object
    // that must be ignored.
    let mut mixed = TraceRecord::new(a(1), a(249));
    mixed.hops = vec![HopRecord::reply(1, a(7), 10)];
    mixed.hops[0].icmp_exts = vec![
        IcmpExt { class: 2, kind: 1, data: vec![0xAA, 0xBB, 0xCC] },
        mpls(&[777, 16]),
        mpls(&[888]),
    ];

    let mut out = Vec::new();
    for rec in [bad_mpls, v6_trace, v6_hop, dup, late, mixed] {
        out.push(long.clone());
        out.push(rec);
    }
    out
}

/// The sample traces followed by [`edge_records`], in one file.
fn equivalence_stream() -> Vec<u8> {
    stream_of(&[sample_traces(), edge_records()].concat())
}

/// What a trace record body yields, in either decoder's terms.
#[derive(Debug, PartialEq)]
enum Outcome {
    DecodeError(WartsError),
    ConvertFailed(WartsError),
    NotIpv4,
    Converted(Trace),
}

fn via_record(body: &[u8], addrs: &mut AddrTableReader) -> Outcome {
    match decode_record_body(RecordType::Trace as u16, body, addrs) {
        Err(e) => Outcome::DecodeError(e),
        Ok(Record::Trace(rec)) => match trace_to_core(&rec) {
            Err(e) => Outcome::ConvertFailed(e),
            Ok(None) => Outcome::NotIpv4,
            Ok(Some(trace)) => Outcome::Converted(trace),
        },
        Ok(other) => panic!("a trace body decoded as {other:?}"),
    }
}

fn one_pass(buf: &mut TraceBuf, body: &[u8], addrs: &mut AddrTableReader) -> Outcome {
    match buf.decode(body, addrs) {
        Err(e) => Outcome::DecodeError(e),
        Ok(Conversion::Failed(e)) => Outcome::ConvertFailed(e),
        Ok(Conversion::NotIpv4) => Outcome::NotIpv4,
        Ok(Conversion::Ipv4) => Outcome::Converted(buf.trace().clone()),
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A few seeded mutations of one body: a bit flip, a byte overwrite, a
/// truncation and a trailing extra byte.
fn mutations(body: &[u8], seed: u64) -> Vec<Vec<u8>> {
    let r = |salt: u64| splitmix64(seed ^ splitmix64(salt));
    let mut out = Vec::new();
    if !body.is_empty() {
        let mut flip = body.to_vec();
        flip[r(1) as usize % body.len()] ^= 1 << (r(2) % 8);
        out.push(flip);
        let mut set = body.to_vec();
        set[r(3) as usize % body.len()] = r(4) as u8;
        out.push(set);
        out.push(body[..r(5) as usize % body.len()].to_vec());
    }
    let mut longer = body.to_vec();
    longer.push(r(6) as u8);
    out.push(longer);
    out
}

/// Decodes every indexed trace record of `bytes`, and mutations of it,
/// both ways; the one-pass side reuses one buffer throughout.
fn check_one_pass_decode(bytes: &[u8], seed: u64) {
    let index = lpr_corpus::RecordIndex::build(bytes);
    let mut buf = TraceBuf::default();
    let mut reference = AddrTableReader::from_table(index.addr_table.clone());
    let mut addrs = AddrTableReader::from_table(index.addr_table.clone());
    for (i, span) in index.records.iter().enumerate() {
        if span.record_type != RecordType::Trace as u16 {
            continue;
        }
        let start = span.offset as usize + 8;
        let body = &bytes[start..start + span.body_len as usize];
        let mut bodies = vec![body.to_vec()];
        bodies.extend(mutations(body, seed ^ i as u64));
        for body in &bodies {
            let expect = via_record(body, &mut reference);
            prop_assert_eq!(one_pass(&mut buf, body, &mut addrs), expect, "record {}", i);
        }
    }
}

#[test]
fn one_pass_decode_matches_on_a_pristine_stream() {
    let bytes = equivalence_stream();
    let index = lpr_corpus::RecordIndex::build(&bytes);
    assert_eq!(index.traces, 8 + edge_records().len() as u64);
    // Every branch is reached: a conversion failure, an IPv6 trace and
    // converted traces.
    let mut addrs = AddrTableReader::from_table(index.addr_table.clone());
    let mut outcomes = Vec::new();
    for span in index.records.iter().filter(|s| s.record_type == RecordType::Trace as u16) {
        let start = span.offset as usize + 8;
        outcomes.push(via_record(&bytes[start..start + span.body_len as usize], &mut addrs));
    }
    assert!(outcomes.iter().any(|o| matches!(o, Outcome::ConvertFailed(_))));
    assert!(outcomes.contains(&Outcome::NotIpv4));
    let edges = &outcomes[8..];
    let Outcome::Converted(dup) = &edges[7] else { panic!("{:?}", edges[7]) };
    assert_eq!(dup.hops.iter().map(|h| h.addr.unwrap().octets()[3]).collect::<Vec<_>>(), [2, 3, 4]);
    let Outcome::Converted(late) = &edges[9] else { panic!("{:?}", edges[9]) };
    assert_eq!(late.hops.iter().map(|h| h.probe_ttl).collect::<Vec<_>>(), [2, 3, 4, 5, 6, 7]);
    let Outcome::Converted(mixed) = &edges[11] else { panic!("{:?}", edges[11]) };
    assert_eq!(mixed.hops[0].stack.label_values(), [777.into(), 16.into()]);
    check_one_pass_decode(&bytes, 0);
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The serialized index of fixed inputs, pinned: pristine corpora,
/// seeded corruptions, a header cut short and an insane length. Spans,
/// skip tallies, resync bytes and dictionary all land in `to_bytes`,
/// so a change to framing or its accounting moves a pin.
#[test]
fn index_bytes_are_pinned() {
    let mut cut = sample_stream();
    cut.extend_from_slice(&[0x12, 0x05, 0x00]);
    let mut insane = vec![0x12, 0x05, 0x00, 0x06, 0xFF, 0xFF, 0xFF, 0xFF];
    insane.extend_from_slice(&sample_stream());
    let mut cases = vec![
        ("pristine".to_string(), sample_stream(), 0x0083_f2ef_c6d9_175f),
        ("equivalence".to_string(), equivalence_stream(), 0x4f5a_6040_a197_a1a8),
        ("cut header".to_string(), cut, 0xd17e_853f_a73c_c299),
        ("insane length".to_string(), insane, 0xd4a1_6c55_f6b0_ca87),
    ];
    for (seed, rate, pin) in [
        (7, 0.25, 0xa1c2_bb49_1600_48ba),
        (42, 0.25, 0xa483_5477_c276_26a8),
        (99, 0.5, 0xaef3_5285_012f_9ee4),
        (1234, 0.1, 0xacae_9060_9a64_a539),
        (2024, 0.9, 0x2548_8832_9ee6_3de9),
    ] {
        let (bytes, _) = corrupt_warts_bytes(&sample_stream(), seed, rate);
        cases.push((format!("seed {seed} rate {rate}"), bytes, pin));
    }
    for (name, bytes, pin) in cases {
        let got = fnv1a(&lpr_corpus::RecordIndex::build(&bytes).to_bytes());
        assert_eq!(got, pin, "{name}: {got:#018x}");
    }
}

/// Sequential lenient decode: the records plus the reader's final skip
/// and resync accounting. Unsupported bodies are cleared, as
/// index-driven decode leaves them.
fn sequential_decode(bytes: &[u8]) -> (Vec<Record>, Vec<(SkipReason, u64)>, u64) {
    let mut r = WartsStreamReader::new(bytes).lenient();
    let mut records = Vec::new();
    while let Some(mut rec) = r.next_record().expect("lenient over bytes cannot error") {
        if let Record::Unsupported { body, .. } = &mut rec {
            body.clear();
        }
        records.push(rec);
    }
    let skips = r.skip_counts().iter().map(|(&k, &v)| (k, v)).collect();
    (records, skips, r.resync_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Corrupted corpora: index build never panics and its accounting
    /// IS the sequential lenient decoder's.
    #[test]
    fn index_build_matches_sequential_lenient_decode(
        seed in any::<u64>(),
        rate in 0.01f64..0.9,
    ) {
        let (bytes, _) = corrupt_warts_bytes(&sample_stream(), seed, rate);
        let index = lpr_corpus::RecordIndex::build(&bytes);
        let (records, skips, resync) = sequential_decode(&bytes);

        prop_assert_eq!(index.records.len(), records.len());
        prop_assert_eq!(
            index.skipped().into_iter().collect::<Vec<_>>(),
            skips,
            "per-reason skip tallies must match the sequential decoder"
        );
        prop_assert_eq!(index.resync_bytes, resync);
        let traces =
            records.iter().filter(|r| matches!(r, Record::Trace(_))).count() as u64;
        prop_assert_eq!(index.traces, traces);
    }

    /// Indexed range decode (full-dictionary preload) reproduces the
    /// sequential record stream exactly, from any range start.
    #[test]
    fn indexed_decode_reproduces_sequential_records(
        seed in any::<u64>(),
        rate in 0.01f64..0.6,
    ) {
        let (bytes, _) = corrupt_warts_bytes(&sample_stream(), seed, rate);
        let index = lpr_corpus::RecordIndex::build(&bytes);
        let (records, _, _) = sequential_decode(&bytes);

        // Decode each indexed record independently, as a range shard
        // would: fresh reader state per record, full dictionary
        // preloaded.
        for (span, expect) in index.records.iter().zip(&records) {
            let start = span.offset as usize + 8;
            let body = &bytes[start..start + span.body_len as usize];
            let mut addrs = AddrTableReader::from_table(index.addr_table.clone());
            let got = decode_record_body(span.record_type, body, &mut addrs)
                .expect("indexed records decoded once already");
            prop_assert_eq!(&got, expect);
        }
    }

    /// Corrupted corpora: the one-pass decode of every indexed trace
    /// record, and of mutations of each, equals record decode plus
    /// conversion, through one reused buffer.
    #[test]
    fn one_pass_decode_matches_record_decode_and_conversion(
        seed in any::<u64>(),
        rate in 0.01f64..0.6,
    ) {
        let (bytes, _) = corrupt_warts_bytes(&equivalence_stream(), seed, rate);
        check_one_pass_decode(&bytes, seed);
    }

    /// Serialization survives corruption end-to-end: whatever the scan
    /// produced roundtrips through the cache encoding.
    #[test]
    fn index_serialization_roundtrips_after_corruption(
        seed in any::<u64>(),
        rate in 0.05f64..0.9,
    ) {
        let (bytes, _) = corrupt_warts_bytes(&sample_stream(), seed, rate);
        let index = lpr_corpus::RecordIndex::build(&bytes);
        let restored = lpr_corpus::RecordIndex::from_bytes(&index.to_bytes()).unwrap();
        prop_assert_eq!(restored, index);
    }
}

/// The standard world's cycle 40 (snapshot 0) written as one file: its
/// bytes, each record's offset, and the written traces by (src, dst).
struct WrittenCycle {
    bytes: Vec<u8>,
    offsets: Vec<usize>,
    traces: HashMap<(Ipv4Addr, Ipv4Addr), Vec<Trace>>,
}

fn written_cycle() -> &'static WrittenCycle {
    static CYCLE: OnceLock<WrittenCycle> = OnceLock::new();
    CYCLE.get_or_init(|| {
        let world = ark_dataset::standard_world();
        let opts = ark_dataset::CampaignOptions::default();
        let written = ark_dataset::campaign::generate_snapshot(&world, 40, 0, &opts);
        let bytes = warts::encode_cycle(&written, "cycle", 1, 0, 1).unwrap();
        let mut offsets = Vec::new();
        let mut at = 0;
        while at < bytes.len() {
            offsets.push(at);
            at += 8 + u32::from_be_bytes(bytes[at + 4..at + 8].try_into().unwrap()) as usize;
        }
        let mut traces: HashMap<_, Vec<Trace>> = HashMap::new();
        for t in written {
            traces.entry((t.src, t.dst)).or_default().push(t);
        }
        WrittenCycle { bytes, offsets, traces }
    })
}

/// Smashes the magic of each record numbered in `smashed` (stream
/// order) and counts the traces the lenient stream reader and
/// `load_traces` yield that equal no written trace.
fn never_written(smashed: &[usize]) -> usize {
    static RUN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let cycle = written_cycle();
    let mut bytes = cycle.bytes.clone();
    for &record in smashed {
        let at = cycle.offsets[record];
        bytes[at..at + 2].copy_from_slice(&[0xde, 0xad]);
    }
    let mut yielded = Vec::new();
    let mut reader = WartsStreamReader::new(bytes.as_slice()).lenient();
    while let Some(record) = reader.next_record().unwrap() {
        if let Record::Trace(t) = record {
            yielded.extend(trace_to_core(&t).ok().flatten());
        }
    }
    let run = RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let path = std::env::temp_dir()
        .join(format!("lpr-loss-only-{}-{run}.warts", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let corpus = lpr_corpus::Corpus::open_with(&[&path], false, None).unwrap();
    yielded.extend(lpr_corpus::ingest::load_traces(&corpus).0);
    drop(corpus);
    std::fs::remove_file(&path).unwrap();
    let written = |t: &Trace| cycle.traces.get(&(t.src, t.dst)).is_some_and(|w| w.contains(t));
    yielded.iter().filter(|t| !written(t)).count()
}

/// Losing record 100 of the standard world's cycle 40 once decoded two
/// later clean records with other records' hop addresses, in each
/// decoder.
#[test]
fn a_lost_record_gives_no_later_record_wrong_addresses() {
    let cycle = written_cycle();
    assert_eq!(cycle.offsets.len(), 3657, "list, cycle start, 3,654 traces, cycle stop");
    assert_eq!(never_written(&[]), 0, "an undamaged file yields the written traces");
    assert_eq!(never_written(&[100]), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One to three record magics smashed: lenient decode, sequential
    /// or indexed, loses traces and yields no trace it was not given.
    #[test]
    fn lenient_decode_only_loses_traces(seed in any::<u64>(), count in 1usize..4) {
        let records = written_cycle().offsets.len() as u64;
        let smashed: Vec<usize> =
            (0..count as u64).map(|i| (splitmix64(seed ^ i) % records) as usize).collect();
        prop_assert_eq!(never_written(&smashed), 0, "smashed records {:?}", smashed);
    }
}
