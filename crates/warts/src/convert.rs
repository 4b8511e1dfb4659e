//! Conversions between warts records and the `lpr-core` trace model.
//!
//! warts stores only *replies*; unresponsive probes appear as gaps in
//! the probe-TTL sequence. The conversion to [`lpr_core::trace::Trace`]
//! materialises those gaps as anonymous hops so the downstream tunnel
//! extraction sees the same picture a scamper text dump shows. IPv6
//! hops are skipped (the LPR analysis, like the paper's dataset, is
//! IPv4; a trace with an IPv6 endpoint converts to `None`).
//!
//! One writer applies these rules for both ways in: [`trace_to_core`]
//! converts a decoded [`TraceRecord`], and [`TraceBuf::decode`] converts
//! while it walks a record body, into a trace it reuses.

use crate::addr::{Addr, AddrTableReader};
use crate::buf::Cursor;
use crate::error::WartsError;
use crate::file::RecordType;
use crate::icmpext::{ExtBlock, ExtObject, IcmpExt};
use crate::trace::{walk_trace, HopRecord, StopReason, TraceRecord, TraceSink};
use lpr_core::label::LabelStack;
use lpr_core::trace::{Hop, Trace};
use std::net::Ipv4Addr;

/// What a trace record that decoded converts to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Conversion {
    /// An IPv4 trace: the target [`Trace`] holds it.
    Ipv4,
    /// A trace with an IPv6 endpoint, outside the analysis.
    NotIpv4,
    /// A hop's RFC 4950 object is malformed: the error
    /// [`trace_to_core`] returns for the record.
    Failed(WartsError),
}

/// A core trace that [`TraceBuf::decode`] rewrites in place for each
/// record, hop vector and label storage included, and the label storage
/// of hops that a shorter record dropped, parked for the next one. Once
/// warm, decoding into it allocates nothing.
#[derive(Clone, Debug)]
pub struct TraceBuf {
    trace: Trace,
    spare: Vec<LabelStack>,
}

impl Default for TraceBuf {
    fn default() -> Self {
        let trace = Trace::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
        TraceBuf { trace, spare: Vec::new() }
    }
}

impl TraceBuf {
    /// The trace the last [`TraceBuf::decode`] wrote.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Decodes one trace record body straight into this buffer's trace.
    ///
    /// The outcome is exactly that of [`crate::decode_record_body`]
    /// followed by [`trace_to_core`]: the same decode error (`Err`), or,
    /// for a record that decodes, the same conversion, with
    /// [`TraceBuf::trace`] equal to the converted trace when it is
    /// [`Conversion::Ipv4`]. Otherwise the trace is unspecified.
    pub fn decode(
        &mut self,
        body: &[u8],
        addrs: &mut AddrTableReader,
    ) -> Result<Conversion, WartsError> {
        let mut cur = Cursor::new(body);
        let mut writer = CoreWriter::new(self);
        walk_trace(&mut cur, addrs, &mut writer)?;
        cur.expect_consumed(RecordType::Trace as u16)?;
        Ok(writer.finish())
    }
}

/// Writes a record's replies into a [`TraceBuf`] as core hops,
/// overwriting the hops an earlier record left.
struct CoreWriter<'b> {
    buf: &'b mut TraceBuf,
    /// Hops written so far; those past it are stale.
    len: usize,
    expected_ttl: u8,
    last_ttl: u8,
    outcome: Conversion,
}

impl<'b> CoreWriter<'b> {
    fn new(buf: &'b mut TraceBuf) -> Self {
        CoreWriter { buf, len: 0, expected_ttl: 1, last_ttl: 0, outcome: Conversion::Ipv4 }
    }

    /// Takes the endpoints and settings of `params` (its hops are not
    /// read).
    fn start(&mut self, params: &TraceRecord) {
        let (Some(src), Some(dst)) = (params.src.as_v4(), params.dst.as_v4()) else {
            self.outcome = Conversion::NotIpv4;
            return;
        };
        let trace = &mut self.buf.trace;
        trace.src = src;
        trace.dst = dst;
        trace.reached = params.stop_reason == StopReason::Completed;
        self.expected_ttl = params.first_hop.unwrap_or(1);
    }

    /// Converts one reply: the first reply per probe TTL wins, IPv6
    /// hops are skipped, TTL gaps become anonymous hops, and the first
    /// RFC 4950 object is the hop's label stack. A malformed one fails
    /// the conversion, and later replies are ignored.
    fn reply<'a>(&mut self, hop: &HopRecord, mut objects: impl Iterator<Item = ExtObject<'a>>) {
        if self.outcome != Conversion::Ipv4 || hop.probe_ttl <= self.last_ttl {
            return;
        }
        let Some(addr) = hop.addr.as_v4() else { return };
        let entries = match objects.find(ExtObject::is_mpls).map(|o| o.mpls_entries()) {
            Some(Err(e)) => {
                self.outcome = Conversion::Failed(e);
                return;
            }
            Some(Ok(entries)) => Some(entries),
            None => None,
        };
        while self.expected_ttl < hop.probe_ttl {
            self.next_hop(self.expected_ttl, None, 0, false);
            self.expected_ttl += 1;
        }
        self.last_ttl = hop.probe_ttl;
        self.expected_ttl = hop.probe_ttl.saturating_add(1);
        let next = self.next_hop(hop.probe_ttl, Some(addr), hop.rtt_us, entries.is_some());
        if let Some(entries) = entries {
            next.stack.extend(entries);
        }
    }

    /// Overwrites the next hop with an unlabelled one. A `labelled` hop
    /// without label storage takes parked storage.
    fn next_hop(
        &mut self,
        probe_ttl: u8,
        addr: Option<Ipv4Addr>,
        rtt_us: u32,
        labelled: bool,
    ) -> &mut Hop {
        let hops = &mut self.buf.trace.hops;
        if self.len == hops.len() {
            hops.push(Hop::anonymous(probe_ttl));
        }
        let hop = &mut hops[self.len];
        self.len += 1;
        if labelled && hop.stack.capacity() == 0 {
            if let Some(stack) = self.buf.spare.pop() {
                hop.stack = stack;
            }
        }
        hop.probe_ttl = probe_ttl;
        hop.addr = addr;
        hop.rtt_us = rtt_us;
        hop.stack.clear();
        hop
    }

    /// Drops the stale hops, parking their label storage, and reports
    /// the outcome.
    fn finish(self) -> Conversion {
        if self.outcome == Conversion::Ipv4 {
            let stale = self.buf.trace.hops.drain(self.len..);
            self.buf.spare.extend(stale.map(|h| h.stack).filter(|s| s.capacity() > 0));
        }
        self.outcome
    }
}

impl TraceSink for CoreWriter<'_> {
    fn params(&mut self, params: TraceRecord, _hop_count: u16) {
        self.start(&params);
    }

    fn hop(&mut self, hop: HopRecord, exts: ExtBlock<'_>) {
        self.reply(&hop, exts.objects());
    }
}

/// Converts a warts trace record into the core trace model.
///
/// Returns `Ok(None)` for IPv6 traces. Multiple replies for the same
/// probe TTL (per-attempt duplicates) keep the first one, matching how
/// the paper's single-path Paris traceroute data behaves. TTL gaps
/// become anonymous hops.
pub fn trace_to_core(rec: &TraceRecord) -> Result<Option<Trace>, WartsError> {
    let mut buf = TraceBuf::default();
    let mut writer = CoreWriter::new(&mut buf);
    writer.start(rec);
    for hop in &rec.hops {
        writer.reply(hop, hop.icmp_exts.iter().map(IcmpExt::object));
    }
    match writer.finish() {
        Conversion::Ipv4 => Ok(Some(buf.trace)),
        Conversion::NotIpv4 => Ok(None),
        Conversion::Failed(e) => Err(e),
    }
}

/// Converts a core trace into a warts record (the writer-side inverse
/// of [`trace_to_core`]). Anonymous hops are dropped — warts records
/// replies only. `list_id`/`cycle_id` are the file-local ids the trace
/// should reference.
pub fn trace_to_record(trace: &Trace, list_id: u32, cycle_id: u32) -> TraceRecord {
    let mut rec = TraceRecord::new(Addr::V4(trace.src), Addr::V4(trace.dst));
    rec.list_id = Some(list_id);
    rec.cycle_id = Some(cycle_id);
    rec.stop_reason = if trace.reached { StopReason::Completed } else { StopReason::GapLimit };
    for hop in &trace.hops {
        let addr = match hop.addr {
            Some(a) => a,
            None => continue,
        };
        let mut h = HopRecord::reply(hop.probe_ttl, Addr::V4(addr), hop.rtt_us);
        // Destination replies are echo replies, intermediate hops are
        // time-exceeded; both carry extensions only when labelled.
        let is_dst = addr == trace.dst;
        h.icmp_type_code = Some(if is_dst { 0x0000 } else { 0x0B00 });
        if !hop.stack.is_empty() {
            h.icmp_exts = vec![IcmpExt::mpls(&hop.stack)];
        }
        rec.hops.push(h);
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icmpext::mpls_stack_of;
    use lpr_core::label::Lse;
    use std::net::Ipv4Addr;

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    fn sample_core_trace() -> Trace {
        let mut t = Trace::new(ip(100), ip(200));
        t.push_hop(Hop::responsive(1, ip(1)));
        t.push_hop(Hop::labelled(2, ip(2), &[Lse::transit(300_000, 254)]));
        t.push_hop(Hop::anonymous(3));
        t.push_hop(Hop::responsive(4, ip(4)));
        t.push_hop(Hop::responsive(5, ip(200)));
        t.reached = true;
        t
    }

    #[test]
    fn core_to_record_to_core() {
        let t = sample_core_trace();
        let rec = trace_to_record(&t, 1, 1);
        assert_eq!(rec.hops.len(), 4); // anonymous hop dropped
        let back = trace_to_core(&rec).unwrap().unwrap();
        // The anonymous hop reappears as a TTL gap materialisation.
        assert_eq!(back.hops.len(), t.hops.len());
        assert_eq!(back, t);
    }

    #[test]
    fn leading_gap_materialises_anonymous_hops() {
        let mut rec = TraceRecord::new(Addr::V4(ip(100)), Addr::V4(ip(200)));
        rec.hops = vec![HopRecord::reply(3, Addr::V4(ip(3)), 500)];
        let t = trace_to_core(&rec).unwrap().unwrap();
        assert_eq!(t.hops.len(), 3);
        assert!(!t.hops[0].is_responsive());
        assert!(!t.hops[1].is_responsive());
        assert_eq!(t.hops[2].addr, Some(ip(3)));
    }

    #[test]
    fn duplicate_ttl_replies_keep_first() {
        let mut rec = TraceRecord::new(Addr::V4(ip(100)), Addr::V4(ip(200)));
        rec.hops = vec![
            HopRecord::reply(1, Addr::V4(ip(1)), 500),
            HopRecord::reply(1, Addr::V4(ip(7)), 700),
            HopRecord::reply(2, Addr::V4(ip(2)), 900),
        ];
        let t = trace_to_core(&rec).unwrap().unwrap();
        assert_eq!(t.hops.len(), 2);
        assert_eq!(t.hops[0].addr, Some(ip(1)));
    }

    #[test]
    fn ipv6_trace_is_skipped() {
        let rec = TraceRecord::new(
            Addr::V6("2001:db8::1".parse().unwrap()),
            Addr::V4(ip(200)),
        );
        assert_eq!(trace_to_core(&rec).unwrap(), None);
    }

    #[test]
    fn mpls_stack_survives_conversion() {
        let t = sample_core_trace();
        let rec = trace_to_record(&t, 1, 1);
        let labelled = rec.hops.iter().find(|h| !h.icmp_exts.is_empty()).unwrap();
        let stack = mpls_stack_of(&labelled.icmp_exts).unwrap().unwrap();
        assert_eq!(stack.top().unwrap().label.value(), 300_000);
    }

    #[test]
    fn stop_reason_maps_to_reached() {
        let mut t = sample_core_trace();
        t.reached = false;
        let rec = trace_to_record(&t, 1, 1);
        assert_eq!(rec.stop_reason, StopReason::GapLimit);
        let back = trace_to_core(&rec).unwrap().unwrap();
        assert!(!back.reached);
    }
}
