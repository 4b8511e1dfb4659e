//! MPLS label-stack entries (LSEs) and label stacks.
//!
//! An LSE is the 32-bit word inserted between the link-layer frame and the
//! IP packet (Fig. 1 of the paper, RFC 3032):
//!
//! ```text
//!  0                   19  22 23 24       31
//! +----------------------+---+--+-----------+
//! |        Label         | TC|S |  LSE-TTL  |
//! +----------------------+---+--+-----------+
//! ```
//!
//! * 20-bit **label** used for the exact-match forwarding lookup,
//! * 3-bit **traffic class** (QoS / ECN, RFC 5462),
//! * 1-bit **bottom-of-stack** flag,
//! * 8-bit **LSE-TTL** with the same semantics as the IP TTL.

use std::fmt;

/// A 20-bit MPLS label value.
///
/// Labels 0–15 are reserved by IANA (e.g. 0 = IPv4 explicit null,
/// 1 = router alert, 3 = implicit null used to signal penultimate-hop
/// popping). Labels allocated by LDP/RSVP-TE start at 16; the exact range
/// is vendor-specific (see the paper §2.2 and the `netsim` vendor models).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(u32);

impl Label {
    /// Maximum label value (20 bits).
    pub const MAX: u32 = (1 << 20) - 1;
    /// IPv4 explicit null: pop and forward based on the IPv4 header.
    pub const IPV4_EXPLICIT_NULL: Label = Label(0);
    /// Router alert label.
    pub const ROUTER_ALERT: Label = Label(1);
    /// Implicit null: never appears on the wire; advertised by an egress
    /// LER to request penultimate-hop popping (PHP).
    pub const IMPLICIT_NULL: Label = Label(3);
    /// First label available for dynamic allocation on most platforms.
    pub const MIN_DYNAMIC: Label = Label(16);

    /// Creates a label, masking to 20 bits.
    #[inline]
    pub const fn new(value: u32) -> Self {
        Label(value & Self::MAX)
    }

    /// Raw 20-bit value.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Whether this is one of the IANA-reserved labels (0–15).
    #[inline]
    pub const fn is_reserved(self) -> bool {
        self.0 < 16
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Label {
    fn from(v: u32) -> Self {
        Label::new(v)
    }
}

/// A single MPLS label stack entry, as quoted in an RFC 4950 ICMP
/// extension or carried on the wire.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lse {
    /// The 20-bit label.
    pub label: Label,
    /// 3-bit traffic class (formerly EXP).
    pub tc: u8,
    /// Bottom-of-stack flag.
    pub bottom: bool,
    /// The 8-bit LSE TTL.
    pub ttl: u8,
}

impl Lse {
    /// Creates an LSE from its fields. `tc` is masked to 3 bits.
    #[inline]
    pub const fn new(label: Label, tc: u8, bottom: bool, ttl: u8) -> Self {
        Lse { label, tc: tc & 0x7, bottom, ttl }
    }

    /// Convenience constructor for the common transit case: best-effort
    /// traffic class, bottom of stack set.
    #[inline]
    pub const fn transit(label: u32, ttl: u8) -> Self {
        Lse { label: Label::new(label), tc: 0, bottom: true, ttl }
    }

    /// Packs the LSE into its 32-bit wire representation.
    #[inline]
    pub const fn to_u32(self) -> u32 {
        (self.label.value() << 12)
            | ((self.tc as u32) << 9)
            | ((self.bottom as u32) << 8)
            | self.ttl as u32
    }

    /// Unpacks an LSE from its 32-bit wire representation.
    #[inline]
    pub const fn from_u32(word: u32) -> Self {
        Lse {
            label: Label::new(word >> 12),
            tc: ((word >> 9) & 0x7) as u8,
            bottom: (word >> 8) & 1 == 1,
            ttl: (word & 0xff) as u8,
        }
    }
}

impl fmt::Debug for Lse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Lse({}, tc={}, s={}, ttl={})",
            self.label, self.tc, self.bottom as u8, self.ttl
        )
    }
}

/// An ordered MPLS label stack, outermost entry first.
///
/// Transit tunnels observed by the paper overwhelmingly carry a single
/// entry; stacks deeper than one appear with e.g. VPN service labels or
/// LDP-over-RSVP. The stack preserves every entry so such cases survive
/// analysis unharmed.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct LabelStack(Vec<Lse>);

impl LabelStack {
    /// An empty stack (an unlabelled hop).
    pub fn empty() -> Self {
        LabelStack(Vec::new())
    }

    /// Builds a stack from entries, outermost first.
    pub fn from_entries(entries: &[Lse]) -> Self {
        LabelStack(entries.to_vec())
    }

    /// Number of entries.
    pub fn depth(&self) -> usize {
        self.0.len()
    }

    /// True if the stack has no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The outermost (top, forwarding) entry.
    pub fn top(&self) -> Option<&Lse> {
        self.0.first()
    }

    /// All entries, outermost first.
    pub fn entries(&self) -> &[Lse] {
        &self.0
    }

    /// Removes every entry, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Entries the stack holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Pushes a new outermost entry.
    pub fn push(&mut self, lse: Lse) {
        self.0.insert(0, lse);
    }

    /// Pops the outermost entry.
    pub fn pop(&mut self) -> Option<Lse> {
        if self.0.is_empty() {
            None
        } else {
            Some(self.0.remove(0))
        }
    }

    /// Swaps the outermost label in place, keeping TC/S/TTL.
    pub fn swap_top(&mut self, label: Label) {
        if let Some(top) = self.0.first_mut() {
            top.label = label;
        }
    }

    /// The sequence of label *values* (ignoring TC/S/TTL), outermost
    /// first. This is the signature LPR compares: TTLs obviously differ
    /// hop to hop and say nothing about the FEC.
    pub fn label_values(&self) -> Vec<Label> {
        self.0.iter().map(|l| l.label).collect()
    }

    /// Whether two stacks have equal [`LabelStack::label_values`],
    /// compared without allocating.
    pub fn same_labels(&self, other: &LabelStack) -> bool {
        self.0.len() == other.0.len()
            && self.0.iter().zip(&other.0).all(|(a, b)| a.label == b.label)
    }
}

impl fmt::Debug for LabelStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, l) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "|")?;
            }
            write!(f, "{}", l.label)?;
        }
        write!(f, "]")
    }
}

impl FromIterator<Lse> for LabelStack {
    fn from_iter<T: IntoIterator<Item = Lse>>(iter: T) -> Self {
        LabelStack(iter.into_iter().collect())
    }
}

/// Appends entries below the current bottom, in iteration order.
impl Extend<Lse> for LabelStack {
    fn extend<T: IntoIterator<Item = Lse>>(&mut self, iter: T) {
        self.0.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_masks_to_20_bits() {
        assert_eq!(Label::new(u32::MAX).value(), Label::MAX);
        assert_eq!(Label::new(42).value(), 42);
    }

    #[test]
    fn reserved_labels() {
        assert!(Label::IPV4_EXPLICIT_NULL.is_reserved());
        assert!(Label::IMPLICIT_NULL.is_reserved());
        assert!(!Label::MIN_DYNAMIC.is_reserved());
        assert!(!Label::new(300_000).is_reserved());
    }

    #[test]
    fn lse_roundtrip() {
        let lse = Lse::new(Label::new(0xABCDE), 5, true, 200);
        assert_eq!(Lse::from_u32(lse.to_u32()), lse);
    }

    #[test]
    fn lse_wire_layout() {
        // label=1, tc=0, s=1, ttl=255 => 0x0000_1_1FF
        let lse = Lse::new(Label::new(1), 0, true, 255);
        assert_eq!(lse.to_u32(), (1 << 12) | (1 << 8) | 0xff);
    }

    #[test]
    fn tc_masked() {
        let lse = Lse::new(Label::new(1), 0xff, false, 0);
        assert_eq!(lse.tc, 7);
    }

    #[test]
    fn stack_push_pop_order() {
        let mut s = LabelStack::empty();
        s.push(Lse::transit(10, 255));
        s.push(Lse::transit(20, 255));
        assert_eq!(s.depth(), 2);
        assert_eq!(s.top().unwrap().label.value(), 20);
        assert_eq!(s.pop().unwrap().label.value(), 20);
        assert_eq!(s.pop().unwrap().label.value(), 10);
        assert!(s.pop().is_none());
    }

    #[test]
    fn stack_swap_top() {
        let mut s = LabelStack::from_entries(&[Lse::transit(10, 250), Lse::transit(99, 250)]);
        s.swap_top(Label::new(77));
        assert_eq!(s.label_values(), vec![Label::new(77), Label::new(99)]);
        // TTL preserved by swap.
        assert_eq!(s.top().unwrap().ttl, 250);
    }

    #[test]
    fn label_values_ignore_ttl() {
        let a = LabelStack::from_entries(&[Lse::transit(10, 250)]);
        let b = LabelStack::from_entries(&[Lse::transit(10, 12)]);
        assert_eq!(a.label_values(), b.label_values());
        assert_ne!(a, b);
    }
}
