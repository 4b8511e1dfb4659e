//! The warts *traceroute* record (type 0x06).
//!
//! A trace record is: a flag-encoded parameter block describing the
//! measurement (addresses, start time, stop reason, hop count, …),
//! followed by `hop count` flag-encoded hop records. Addresses use the
//! file-wide dictionary ([`crate::addr`]); MPLS label stacks ride in
//! the ICMP-extension hop parameter ([`crate::icmpext`]).
//!
//! `walk_trace` is the one reader of the trace and hop parameter
//! tables. It reads each hop through a `HopLayout` cached per flag
//! pattern (`HopLayouts`), and hands the hop to one of three sinks as
//! a borrowed `HopView`: [`TraceRecord`] keeps every field,
//! [`crate::TraceBuf::decode`] converts each hop into a core trace as it
//! goes, and the framer's record check (`Framer::next_span`) keeps
//! nothing.
//!
//! Flag numbers follow scamper's `scamper_file_warts.c`. Deprecated
//! global-address-id parameters (trace flags 3/4, hop flag 1) are
//! recognised and rejected with [`WartsError::Unsupported`] rather than
//! misparsed.

use crate::addr::{Addr, AddrTableReader, AddrTableWriter};
use crate::buf::{put_timeval, Cursor};
use crate::error::WartsError;
use crate::flags::{read_params, Flags, ParamWriter};
use crate::icmpext::{write_exts, ExtBlock, IcmpExt};
use bytes::{BufMut, BytesMut};

// Trace parameter flags (1-based, scamper order).
const T_LIST_ID: u16 = 1;
const T_CYCLE_ID: u16 = 2;
const T_ADDR_SRC_GID: u16 = 3; // deprecated
const T_ADDR_DST_GID: u16 = 4; // deprecated
const T_START: u16 = 5;
const T_STOP_REASON: u16 = 6;
const T_STOP_DATA: u16 = 7;
const T_FLAGS: u16 = 8;
const T_ATTEMPTS: u16 = 9;
const T_HOPLIMIT: u16 = 10;
const T_TYPE: u16 = 11;
const T_PROBE_SIZE: u16 = 12;
const T_PORT_SRC: u16 = 13;
const T_PORT_DST: u16 = 14;
const T_FIRSTHOP: u16 = 15;
const T_TOS: u16 = 16;
const T_WAIT: u16 = 17;
const T_LOOPS: u16 = 18;
const T_HOPCOUNT: u16 = 19;
const T_GAPLIMIT: u16 = 20;
const T_GAPACTION: u16 = 21;
const T_LOOPACTION: u16 = 22;
const T_PROBEC: u16 = 23;
const T_WAITPROBE: u16 = 24;
const T_CONFIDENCE: u16 = 25;
const T_ADDR_SRC: u16 = 26;
const T_ADDR_DST: u16 = 27;
const T_USERID: u16 = 28;
const T_OFFSET: u16 = 29;

// Hop parameter flags (1-based, scamper order).
const H_ADDR_GID: u16 = 1; // deprecated
const H_PROBE_TTL: u16 = 2;
const H_REPLY_TTL: u16 = 3;
const H_FLAGS: u16 = 4;
const H_PROBE_ID: u16 = 5;
const H_RTT: u16 = 6;
const H_ICMP_TC: u16 = 7;
const H_PROBE_SIZE: u16 = 8;
const H_REPLY_SIZE: u16 = 9;
const H_REPLY_IPID: u16 = 10;
const H_REPLY_TOS: u16 = 11;
const H_NHMTU: u16 = 12;
const H_Q_IPLEN: u16 = 13;
const H_Q_IPTTL: u16 = 14;
const H_TCP_FLAGS: u16 = 15;
const H_Q_IPTOS: u16 = 16;
const H_ICMPEXT: u16 = 17;
const H_ADDR: u16 = 18;

/// Why a traceroute stopped (scamper `stop_reason` codes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
#[repr(u8)]
pub enum StopReason {
    /// No stop reason recorded.
    #[default]
    None = 0,
    /// The destination replied: trace completed.
    Completed = 1,
    /// An ICMP destination-unreachable was received.
    Unreach = 2,
    /// Some other ICMP message stopped the trace.
    Icmp = 3,
    /// A forwarding loop was detected.
    Loop = 4,
    /// Too many consecutive unresponsive hops.
    GapLimit = 5,
    /// A measurement error occurred.
    Error = 6,
    /// The hop limit was exhausted.
    HopLimit = 7,
}

impl StopReason {
    /// Decodes a scamper stop-reason code (unknown codes map to
    /// [`StopReason::Error`]; the trace is still usable).
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => StopReason::None,
            1 => StopReason::Completed,
            2 => StopReason::Unreach,
            3 => StopReason::Icmp,
            4 => StopReason::Loop,
            5 => StopReason::GapLimit,
            7 => StopReason::HopLimit,
            _ => StopReason::Error,
        }
    }
}

/// One hop (one reply) of a trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopRecord {
    /// Replying address.
    pub addr: Addr,
    /// TTL of the probe that elicited the reply.
    pub probe_ttl: u8,
    /// TTL of the reply packet when it arrived.
    pub reply_ttl: Option<u8>,
    /// Attempt number.
    pub probe_id: Option<u8>,
    /// Round-trip time in microseconds.
    pub rtt_us: u32,
    /// ICMP type (high byte) and code (low byte).
    pub icmp_type_code: Option<u16>,
    /// Probe size in bytes.
    pub probe_size: Option<u16>,
    /// Reply size in bytes.
    pub reply_size: Option<u16>,
    /// IP-ID of the reply.
    pub reply_ipid: Option<u16>,
    /// TOS byte of the reply.
    pub reply_tos: Option<u8>,
    /// Quoted TTL from the embedded packet.
    pub quoted_ttl: Option<u8>,
    /// ICMP extension objects (RFC 4884), including RFC 4950 MPLS.
    pub icmp_exts: Vec<IcmpExt>,
}

impl HopRecord {
    /// A plain reply hop with the fields every scamper hop carries.
    pub fn reply(probe_ttl: u8, addr: Addr, rtt_us: u32) -> Self {
        HopRecord {
            addr,
            probe_ttl,
            reply_ttl: None,
            probe_id: None,
            rtt_us,
            icmp_type_code: Some(0x0B00), // time-exceeded, code 0
            probe_size: None,
            reply_size: None,
            reply_ipid: None,
            reply_tos: None,
            quoted_ttl: None,
            icmp_exts: Vec::new(),
        }
    }

    /// Encodes one hop via `p`, a reusable (cleared) scratch writer.
    fn write(&self, out: &mut BytesMut, addrs: &mut AddrTableWriter, p: &mut ParamWriter) {
        p.param(H_PROBE_TTL).put_u8(self.probe_ttl);
        if let Some(v) = self.reply_ttl {
            p.param(H_REPLY_TTL).put_u8(v);
        }
        if let Some(v) = self.probe_id {
            p.param(H_PROBE_ID).put_u8(v);
        }
        p.param(H_RTT).put_u32(self.rtt_us);
        if let Some(v) = self.icmp_type_code {
            p.param(H_ICMP_TC).put_u16(v);
        }
        if let Some(v) = self.probe_size {
            p.param(H_PROBE_SIZE).put_u16(v);
        }
        if let Some(v) = self.reply_size {
            p.param(H_REPLY_SIZE).put_u16(v);
        }
        if let Some(v) = self.reply_ipid {
            p.param(H_REPLY_IPID).put_u16(v);
        }
        if let Some(v) = self.reply_tos {
            p.param(H_REPLY_TOS).put_u8(v);
        }
        if let Some(v) = self.quoted_ttl {
            p.param(H_Q_IPTTL).put_u8(v);
        }
        if !self.icmp_exts.is_empty() {
            write_exts(p.param(H_ICMPEXT), &self.icmp_exts);
        }
        addrs.write(p.param(H_ADDR), self.addr);
        p.finish_reset(out);
    }
}

/// A full traceroute record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// File-local id of the list this trace belongs to.
    pub list_id: Option<u32>,
    /// File-local id of the cycle this trace belongs to.
    pub cycle_id: Option<u32>,
    /// Vantage-point address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Start time `(seconds, microseconds)`.
    pub start: Option<(u32, u32)>,
    /// Why the trace stopped.
    pub stop_reason: StopReason,
    /// Extra stop information (e.g. the ICMP code).
    pub stop_data: Option<u8>,
    /// TTL of the first probe.
    pub first_hop: Option<u8>,
    /// Probing attempts per hop.
    pub attempts: Option<u8>,
    /// Maximum probe TTL.
    pub hop_limit: Option<u8>,
    /// The hops (replies), in probe-TTL order.
    pub hops: Vec<HopRecord>,
}

impl TraceRecord {
    /// A new trace between two endpoints with scamper-like defaults.
    pub fn new(src: Addr, dst: Addr) -> Self {
        TraceRecord {
            list_id: Some(1),
            cycle_id: Some(1),
            src,
            dst,
            start: None,
            stop_reason: StopReason::None,
            stop_data: None,
            first_hop: Some(1),
            attempts: Some(1),
            hop_limit: None,
            hops: Vec::new(),
        }
    }

    /// Encodes the record body into `out`, threading the file's address
    /// table.
    pub fn write(&self, out: &mut BytesMut, addrs: &mut AddrTableWriter) {
        let mut p = ParamWriter::new();
        if let Some(v) = self.list_id {
            p.param(T_LIST_ID).put_u32(v);
        }
        if let Some(v) = self.cycle_id {
            p.param(T_CYCLE_ID).put_u32(v);
        }
        if let Some((s, us)) = self.start {
            put_timeval(p.param(T_START), s, us);
        }
        p.param(T_STOP_REASON).put_u8(self.stop_reason as u8);
        if let Some(v) = self.stop_data {
            p.param(T_STOP_DATA).put_u8(v);
        }
        if let Some(v) = self.attempts {
            p.param(T_ATTEMPTS).put_u8(v);
        }
        if let Some(v) = self.hop_limit {
            p.param(T_HOPLIMIT).put_u8(v);
        }
        if let Some(v) = self.first_hop {
            p.param(T_FIRSTHOP).put_u8(v);
        }
        p.param(T_HOPCOUNT).put_u16(self.hops.len() as u16);
        addrs.write(p.param(T_ADDR_SRC), self.src);
        addrs.write(p.param(T_ADDR_DST), self.dst);
        p.finish_reset(out);
        for hop in &self.hops {
            hop.write(out, addrs, &mut p);
        }
    }

    /// Decodes a record body, threading the file's address table.
    pub fn read(cur: &mut Cursor<'_>, addrs: &mut AddrTableReader) -> Result<Self, WartsError> {
        Self::read_with(cur, addrs, &mut HopLayouts::default())
    }

    /// [`TraceRecord::read`] through a walker's layout cache.
    pub(crate) fn read_with(
        cur: &mut Cursor<'_>,
        addrs: &mut AddrTableReader,
        layouts: &mut HopLayouts,
    ) -> Result<Self, WartsError> {
        let unspecified = Addr::V4(std::net::Ipv4Addr::UNSPECIFIED);
        let mut rec = TraceRecord::new(unspecified, unspecified);
        walk_trace(cur, addrs, layouts, &mut rec)?;
        Ok(rec)
    }

    /// Decodes the trace parameter block: the record without its hops,
    /// and the declared hop count.
    fn read_header(
        cur: &mut Cursor<'_>,
        addrs: &mut AddrTableReader,
    ) -> Result<(Self, u16), WartsError> {
        let (flags, mut params) = read_params(cur, "trace params")?;
        let mut src = None;
        let mut dst = None;
        let mut hop_count = 0u16;
        let mut rec = TraceRecord {
            list_id: None,
            cycle_id: None,
            src: Addr::V4(std::net::Ipv4Addr::UNSPECIFIED),
            dst: Addr::V4(std::net::Ipv4Addr::UNSPECIFIED),
            start: None,
            stop_reason: StopReason::None,
            stop_data: None,
            first_hop: None,
            attempts: None,
            hop_limit: None,
            hops: Vec::new(),
        };
        for flag in flags.iter() {
            match flag {
                T_LIST_ID => rec.list_id = Some(params.u32("trace list id")?),
                T_CYCLE_ID => rec.cycle_id = Some(params.u32("trace cycle id")?),
                T_ADDR_SRC_GID | T_ADDR_DST_GID => {
                    return Err(WartsError::Unsupported { feature: "trace global address id" })
                }
                T_START => rec.start = Some(params.timeval("trace start")?),
                T_STOP_REASON => {
                    rec.stop_reason = StopReason::from_u8(params.u8("trace stop reason")?)
                }
                T_STOP_DATA => rec.stop_data = Some(params.u8("trace stop data")?),
                T_FLAGS => {
                    params.u8("trace flags")?;
                }
                T_ATTEMPTS => rec.attempts = Some(params.u8("trace attempts")?),
                T_HOPLIMIT => rec.hop_limit = Some(params.u8("trace hoplimit")?),
                T_TYPE => {
                    params.u8("trace type")?;
                }
                T_PROBE_SIZE => {
                    params.u16("trace probe size")?;
                }
                T_PORT_SRC | T_PORT_DST => {
                    params.u16("trace port")?;
                }
                T_FIRSTHOP => rec.first_hop = Some(params.u8("trace firsthop")?),
                T_TOS => {
                    params.u8("trace tos")?;
                }
                T_WAIT => {
                    params.u8("trace wait")?;
                }
                T_LOOPS => {
                    params.u8("trace loops")?;
                }
                T_HOPCOUNT => hop_count = params.u16("trace hop count")?,
                T_GAPLIMIT => {
                    params.u8("trace gaplimit")?;
                }
                T_GAPACTION => {
                    params.u8("trace gapaction")?;
                }
                T_LOOPACTION => {
                    params.u8("trace loopaction")?;
                }
                T_PROBEC => {
                    params.u16("trace probec")?;
                }
                T_WAITPROBE => {
                    params.u8("trace waitprobe")?;
                }
                T_CONFIDENCE => {
                    params.u8("trace confidence")?;
                }
                T_ADDR_SRC => src = Some(addrs.read(&mut params)?),
                T_ADDR_DST => dst = Some(addrs.read(&mut params)?),
                T_USERID => {
                    params.u32("trace userid")?;
                }
                T_OFFSET => {
                    params.u16("trace offset")?;
                }
                _ => return Err(WartsError::Unsupported { feature: "unknown trace flag" }),
            }
        }
        rec.src = src.ok_or(WartsError::Unsupported { feature: "trace without source" })?;
        rec.dst = dst.ok_or(WartsError::Unsupported { feature: "trace without destination" })?;
        Ok((rec, hop_count))
    }
}

/// The fixed-width hop parameters, flags 2 to 16 in flag order: each
/// one's flag, width and the context of the error when it overruns its
/// block.
const FIXED: [(u16, u8, &str); 15] = [
    (H_PROBE_TTL, 1, "hop probe ttl"),
    (H_REPLY_TTL, 1, "hop reply ttl"),
    (H_FLAGS, 1, "hop flags"),
    (H_PROBE_ID, 1, "hop probe id"),
    (H_RTT, 4, "hop rtt"),
    (H_ICMP_TC, 2, "hop icmp tc"),
    (H_PROBE_SIZE, 2, "hop probe size"),
    (H_REPLY_SIZE, 2, "hop reply size"),
    (H_REPLY_IPID, 2, "hop reply ipid"),
    (H_REPLY_TOS, 1, "hop reply tos"),
    (H_NHMTU, 2, "hop nhmtu"),
    (H_Q_IPLEN, 2, "hop quoted iplen"),
    (H_Q_IPTTL, 1, "hop quoted ttl"),
    (H_TCP_FLAGS, 1, "hop tcp flags"),
    (H_Q_IPTOS, 1, "hop quoted tos"),
];

/// The offset of a fixed-width parameter the flags leave unset.
const ABSENT: u8 = u8::MAX;

/// Where a hop's parameters sit in its parameter block, as its flag
/// bytes say. Every hop with the same flag bytes has the same layout.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HopLayout {
    /// Offset of each fixed-width parameter ([`FIXED`] order), or
    /// [`ABSENT`].
    offsets: [u8; FIXED.len()],
    /// Bytes the fixed-width parameters take together.
    fixed_len: u8,
    /// Some flag is set, so a parameter length follows the flags.
    any: bool,
    /// Flag 1, the deprecated global address id.
    deprecated: bool,
    /// Flag 17: an ICMP extension block follows the fixed part.
    exts: bool,
    /// Flag 18: an address follows.
    addr: bool,
    /// A flag above 18.
    unknown: bool,
}

impl HopLayout {
    fn of(flags: Flags<'_>) -> Self {
        let mut layout = HopLayout {
            offsets: [ABSENT; FIXED.len()],
            fixed_len: 0,
            any: false,
            deprecated: false,
            exts: false,
            addr: false,
            unknown: false,
        };
        for flag in flags.iter() {
            layout.any = true;
            match flag {
                H_ADDR_GID => layout.deprecated = true,
                H_PROBE_TTL..=H_Q_IPTOS => {
                    let i = (flag - H_PROBE_TTL) as usize;
                    debug_assert_eq!(FIXED[i].0, flag);
                    layout.offsets[i] = layout.fixed_len;
                    layout.fixed_len += FIXED[i].1;
                }
                H_ICMPEXT => layout.exts = true,
                H_ADDR => layout.addr = true,
                _ => layout.unknown = true,
            }
        }
        layout
    }

    /// The error for a parameter block of `len` bytes, too short for
    /// the fixed-width part: the first parameter that overruns it.
    fn overrun(&self, len: usize) -> WartsError {
        let context = FIXED
            .iter()
            .zip(self.offsets)
            .find(|&(&(_, width, _), offset)| offset != ABSENT && (offset + width) as usize > len)
            .map_or("hop params", |(&(_, _, context), _)| context);
        WartsError::Truncated { context }
    }
}

/// Flag fields of at most this many bytes (flags 1 to 21, which hold
/// every hop flag) have their layouts cached.
const CACHED_FLAG_BYTES: usize = 3;

/// A walker's cache of hop layouts, keyed on the raw flag bytes. The
/// trace files [`crate::WartsWriter`] writes use two hop flag patterns
/// (with and without an ICMP extension), so two slots miss only on each
/// pattern's first hop.
#[derive(Clone, Debug)]
pub(crate) struct HopLayouts {
    slots: [(u32, HopLayout); 2],
    /// The slot the next miss replaces.
    next: usize,
}

/// The key of an empty slot: no flag field of up to three bytes packs
/// to it, since its third byte would say another byte follows.
const NO_KEY: u32 = u32::MAX;

impl Default for HopLayouts {
    fn default() -> Self {
        let empty = (NO_KEY, HopLayout::of(Flags::default()));
        HopLayouts { slots: [empty; 2], next: 0 }
    }
}

impl HopLayouts {
    /// The layout of a hop with these flags. A flag field longer than
    /// [`CACHED_FLAG_BYTES`] is laid out afresh each time.
    fn layout(&mut self, flags: Flags<'_>) -> HopLayout {
        let bytes = flags.bytes();
        if bytes.len() > CACHED_FLAG_BYTES {
            return HopLayout::of(flags);
        }
        // The continuation bits make the packing injective.
        let key = bytes.iter().fold(0u32, |key, &b| key << 8 | b as u32);
        if let Some((_, layout)) = self.slots.iter().find(|(k, _)| *k == key) {
            return *layout;
        }
        let layout = HopLayout::of(flags);
        self.slots[self.next] = (key, layout);
        self.next = (self.next + 1) % self.slots.len();
        layout
    }

    /// Reads one hop. Its errors and address-table updates are those of
    /// reading each flag's parameter in flag order: the flags and the
    /// parameter block, then flag 1, then the first fixed-width
    /// parameter that overruns the block, then the extension block,
    /// then the address, then a flag above 18, then a missing address.
    /// Bytes after the last parameter are ignored.
    fn read<'a>(
        &mut self,
        cur: &mut Cursor<'a>,
        addrs: &mut AddrTableReader,
    ) -> Result<HopView<'a>, WartsError> {
        let flags = Flags::read(cur)?;
        let layout = self.layout(flags);
        let params = if layout.any {
            let len = cur.u16("hop params")? as usize;
            cur.bytes(len, "hop params")?
        } else {
            &[]
        };
        if layout.deprecated {
            return Err(WartsError::Unsupported { feature: "hop global address id" });
        }
        let rest = params.get(layout.fixed_len as usize..);
        let mut rest = Cursor::new(rest.ok_or_else(|| layout.overrun(params.len()))?);
        let exts = if layout.exts { ExtBlock::read(&mut rest)? } else { ExtBlock::default() };
        let addr = if layout.addr { Some(addrs.read(&mut rest)?) } else { None };
        if layout.unknown {
            return Err(WartsError::Unsupported { feature: "unknown hop flag" });
        }
        let addr = addr.ok_or(WartsError::Unsupported { feature: "hop without address" })?;
        Ok(HopView { params, layout, addr, exts })
    }
}

/// One hop as the walker read it, borrowed from the record body: its
/// parameter block and layout, its address and its extension block.
/// Each fixed-width field is read from its offset on demand.
pub(crate) struct HopView<'a> {
    params: &'a [u8],
    layout: HopLayout,
    /// Replying address.
    pub addr: Addr,
    /// ICMP extension objects, checked and left in the body.
    pub exts: ExtBlock<'a>,
}

impl HopView<'_> {
    /// The fixed-width parameter of `flag`, when set. The walker checked
    /// that the block holds every set one.
    fn field<const N: usize>(&self, flag: u16) -> Option<[u8; N]> {
        let offset = self.layout.offsets[(flag - H_PROBE_TTL) as usize];
        if offset == ABSENT {
            return None;
        }
        let offset = offset as usize;
        self.params.get(offset..offset + N)?.try_into().ok()
    }

    fn u8(&self, flag: u16) -> Option<u8> {
        self.field(flag).map(|[b]| b)
    }

    fn u16(&self, flag: u16) -> Option<u16> {
        self.field(flag).map(u16::from_be_bytes)
    }

    /// TTL of the probe that elicited the reply (0 when unset).
    pub fn probe_ttl(&self) -> u8 {
        self.u8(H_PROBE_TTL).unwrap_or(0)
    }

    /// Round-trip time in microseconds (0 when unset).
    pub fn rtt_us(&self) -> u32 {
        self.field(H_RTT).map_or(0, u32::from_be_bytes)
    }

    /// Every field, as an owned record.
    fn record(&self) -> HopRecord {
        HopRecord {
            addr: self.addr,
            probe_ttl: self.probe_ttl(),
            reply_ttl: self.u8(H_REPLY_TTL),
            probe_id: self.u8(H_PROBE_ID),
            rtt_us: self.rtt_us(),
            icmp_type_code: self.u16(H_ICMP_TC),
            probe_size: self.u16(H_PROBE_SIZE),
            reply_size: self.u16(H_REPLY_SIZE),
            reply_ipid: self.u16(H_REPLY_IPID),
            reply_tos: self.u8(H_REPLY_TOS),
            quoted_ttl: self.u8(H_Q_IPTTL),
            icmp_exts: self.exts.objects().map(IcmpExt::from).collect(),
        }
    }
}

/// Receives the parts of a trace record from [`walk_trace`], in wire
/// order.
pub(crate) trait TraceSink {
    /// The trace parameters (with no hops) and the declared hop count,
    /// before any hop.
    fn params(&mut self, params: TraceRecord, hop_count: u16);
    /// One hop.
    fn hop(&mut self, hop: &HopView<'_>);
}

/// Walks one trace record body into `sink`: the parameter block, then
/// every hop, each through `layouts`. Its decode errors are the
/// record's, whatever the sink.
pub(crate) fn walk_trace(
    cur: &mut Cursor<'_>,
    addrs: &mut AddrTableReader,
    layouts: &mut HopLayouts,
    sink: &mut impl TraceSink,
) -> Result<(), WartsError> {
    let (params, hop_count) = TraceRecord::read_header(cur, addrs)?;
    sink.params(params, hop_count);
    for _ in 0..hop_count {
        sink.hop(&layouts.read(cur, addrs)?);
    }
    Ok(())
}

/// Keeps nothing: walking a body into it checks the record and builds
/// nothing.
impl TraceSink for () {
    fn params(&mut self, _: TraceRecord, _: u16) {}

    fn hop(&mut self, _: &HopView<'_>) {}
}

impl TraceSink for TraceRecord {
    fn params(&mut self, params: TraceRecord, hop_count: u16) {
        *self = params;
        self.hops.reserve(hop_count as usize);
    }

    fn hop(&mut self, hop: &HopView<'_>) {
        self.hops.push(hop.record());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icmpext::IcmpExt;
    use lpr_core::label::{LabelStack, Lse};
    use std::net::Ipv4Addr;

    fn a(o: u8) -> Addr {
        Addr::V4(Ipv4Addr::new(10, 0, 0, o))
    }

    fn roundtrip(rec: &TraceRecord) -> TraceRecord {
        let mut out = BytesMut::new();
        let mut wt = AddrTableWriter::new();
        rec.write(&mut out, &mut wt);
        let mut rt = AddrTableReader::new();
        let mut cur = Cursor::new(&out);
        let back = TraceRecord::read(&mut cur, &mut rt).unwrap();
        assert!(cur.is_empty(), "record fully consumed");
        back
    }

    #[test]
    fn minimal_trace_roundtrip() {
        let rec = TraceRecord::new(a(1), a(2));
        let back = roundtrip(&rec);
        assert_eq!(back.src, rec.src);
        assert_eq!(back.dst, rec.dst);
        assert!(back.hops.is_empty());
    }

    #[test]
    fn full_trace_roundtrip() {
        let mut rec = TraceRecord::new(a(1), a(100));
        rec.start = Some((1_400_000_000, 250_000));
        rec.stop_reason = StopReason::Completed;
        rec.stop_data = Some(0);
        rec.hop_limit = Some(32);
        let mut h1 = HopRecord::reply(1, a(2), 1500);
        h1.reply_ttl = Some(254);
        h1.quoted_ttl = Some(1);
        let mut h2 = HopRecord::reply(2, a(3), 2500);
        h2.icmp_exts = vec![IcmpExt::mpls(&LabelStack::from_entries(&[
            Lse::transit(300_017, 254),
            Lse::transit(16, 254),
        ]))];
        let h3 = HopRecord::reply(4, a(100), 9000); // TTL 3 unresponsive
        rec.hops = vec![h1, h2, h3];

        let back = roundtrip(&rec);
        assert_eq!(back, rec);
    }

    #[test]
    fn address_dictionary_is_reused_across_hops() {
        let mut rec = TraceRecord::new(a(1), a(2));
        // Destination also appears as final hop: second occurrence must
        // be dictionary-coded.
        rec.hops = vec![HopRecord::reply(1, a(2), 100)];
        let mut out = BytesMut::new();
        let mut wt = AddrTableWriter::new();
        rec.write(&mut out, &mut wt);
        let embedded = out
            .windows(6)
            .filter(|w| w[0] == 4 && w[1] == 1 && w[2..6] == [10, 0, 0, 2])
            .count();
        assert_eq!(embedded, 1, "10.0.0.2 must be embedded exactly once");
        let back = roundtrip(&rec);
        assert_eq!(back.hops[0].addr, a(2));
    }

    #[test]
    fn stop_reason_codes() {
        assert_eq!(StopReason::from_u8(1), StopReason::Completed);
        assert_eq!(StopReason::from_u8(42), StopReason::Error);
        assert_eq!(StopReason::from_u8(0), StopReason::None);
    }

    #[test]
    fn truncated_hop_is_an_error() {
        let mut rec = TraceRecord::new(a(1), a(2));
        rec.hops = vec![HopRecord::reply(1, a(3), 100)];
        let mut out = BytesMut::new();
        let mut wt = AddrTableWriter::new();
        rec.write(&mut out, &mut wt);
        let cut = &out[..out.len() - 3];
        let mut rt = AddrTableReader::new();
        assert!(TraceRecord::read(&mut Cursor::new(cut), &mut rt).is_err());
    }
}
