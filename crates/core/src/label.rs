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
use std::hash::{Hash, Hasher};

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
///
/// Up to [`LabelStack::INLINE`] entries live in the stack itself, so
/// building, cloning or clearing such a stack never touches the heap;
/// a deeper one holds its entries in one boxed slice. Either way the
/// stack is as large as a `Vec<Lse>`, and equality, hashing and `Debug`
/// see only the entries, exactly as a `Vec<Lse>` would.
#[derive(Clone, Default)]
pub struct LabelStack(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` entries are the stack.
    Inline { len: u8, entries: [Lse; LabelStack::INLINE] },
    /// More than [`LabelStack::INLINE`] entries.
    Boxed(Box<[Lse]>),
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Inline { len: 0, entries: [Lse::from_u32(0); LabelStack::INLINE] }
    }
}

// Every `Hop` holds a stack: one larger than a `Vec` grows every hop of
// every trace (an overflow `Vec` instead of the boxed slice makes it 32).
const _: () = assert!(std::mem::size_of::<LabelStack>() == std::mem::size_of::<Vec<Lse>>());

impl LabelStack {
    /// Entries held without a heap allocation: netsim quotes at most a
    /// transport label over a VPN service label, and measured campaigns
    /// quote no deeper stack.
    pub const INLINE: usize = 2;

    /// An empty stack (an unlabelled hop).
    pub fn empty() -> Self {
        LabelStack::default()
    }

    /// Builds a stack from entries, outermost first.
    pub fn from_entries(entries: &[Lse]) -> Self {
        entries.iter().copied().collect()
    }

    /// Number of entries.
    pub fn depth(&self) -> usize {
        self.entries().len()
    }

    /// True if the stack has no entries.
    pub fn is_empty(&self) -> bool {
        self.depth() == 0
    }

    /// The outermost (top, forwarding) entry.
    pub fn top(&self) -> Option<&Lse> {
        self.entries().first()
    }

    /// All entries, outermost first.
    pub fn entries(&self) -> &[Lse] {
        match &self.0 {
            Repr::Inline { len, entries } => &entries[..*len as usize],
            Repr::Boxed(entries) => entries,
        }
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.0 = Repr::default();
    }

    /// Pushes a new outermost entry.
    pub fn push(&mut self, lse: Lse) {
        match &mut self.0 {
            Repr::Inline { len, entries } if (*len as usize) < Self::INLINE => {
                entries.copy_within(..*len as usize, 1);
                entries[0] = lse;
                *len += 1;
            }
            _ => {
                let mut all = Vec::with_capacity(self.depth() + 1);
                all.push(lse);
                all.extend_from_slice(self.entries());
                self.0 = Repr::Boxed(all.into_boxed_slice());
            }
        }
    }

    /// Pops the outermost entry.
    pub fn pop(&mut self) -> Option<Lse> {
        let top = *self.top()?;
        match &mut self.0 {
            Repr::Inline { len, entries } => {
                entries.copy_within(1..*len as usize, 0);
                *len -= 1;
            }
            Repr::Boxed(entries) => *self = LabelStack::from_entries(&entries[1..]),
        }
        Some(top)
    }

    /// Swaps the outermost label in place, keeping TC/S/TTL.
    pub fn swap_top(&mut self, label: Label) {
        let top = match &mut self.0 {
            Repr::Inline { len: 0, .. } => None,
            Repr::Inline { entries, .. } => entries.first_mut(),
            Repr::Boxed(entries) => entries.first_mut(),
        };
        if let Some(top) = top {
            top.label = label;
        }
    }

    /// The sequence of label *values* (ignoring TC/S/TTL), outermost
    /// first. This is the signature LPR compares: TTLs obviously differ
    /// hop to hop and say nothing about the FEC.
    pub fn label_values(&self) -> Vec<Label> {
        self.entries().iter().map(|l| l.label).collect()
    }

    /// Whether two stacks have equal [`LabelStack::label_values`],
    /// compared without allocating.
    pub fn same_labels(&self, other: &LabelStack) -> bool {
        let (a, b) = (self.entries(), other.entries());
        a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.label == b.label)
    }
}

impl PartialEq for LabelStack {
    fn eq(&self, other: &Self) -> bool {
        self.entries() == other.entries()
    }
}

impl Eq for LabelStack {}

impl Hash for LabelStack {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries().hash(state);
    }
}

impl fmt::Debug for LabelStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, l) in self.entries().iter().enumerate() {
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
        let mut stack = LabelStack::empty();
        stack.extend(iter);
        stack
    }
}

/// Appends entries below the current bottom, in iteration order.
impl Extend<Lse> for LabelStack {
    fn extend<T: IntoIterator<Item = Lse>>(&mut self, iter: T) {
        let mut iter = iter.into_iter();
        while let Repr::Inline { len, entries } = &mut self.0 {
            let Some(slot) = entries.get_mut(*len as usize) else { break };
            let Some(lse) = iter.next() else { return };
            *slot = lse;
            *len += 1;
        }
        let mut iter = iter.peekable();
        if iter.peek().is_some() {
            let mut all = self.entries().to_vec();
            all.extend(iter);
            self.0 = Repr::Boxed(all.into_boxed_slice());
        }
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

    /// `LabelStack`'s `Debug` when it held a `Vec<Lse>`.
    fn vec_debug(entries: &[Lse]) -> String {
        let labels: Vec<String> = entries.iter().map(|l| l.label.to_string()).collect();
        format!("[{}]", labels.join("|"))
    }

    fn hash_of(value: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    /// The stack holds what the `Vec` model holds, hashes like it and
    /// prints as a `Vec`-backed stack printed it.
    fn assert_models(stack: &LabelStack, model: &[Lse], what: &str) {
        assert_eq!(stack.entries(), model, "{what}: entries");
        assert_eq!(stack.depth(), model.len(), "{what}: depth");
        assert_eq!(hash_of(stack), hash_of(&model.to_vec()), "{what}: hash");
        assert_eq!(format!("{stack:?}"), vec_debug(model), "{what}: debug");
        assert_eq!(*stack, LabelStack::from_entries(model), "{what}: equality");
    }

    #[test]
    fn stack_ops_match_a_vec_across_the_inline_boundary() {
        let pool: Vec<Lse> =
            (0..6).map(|i| Lse::new(Label::new(100 + i), i as u8, i == 5, 9)).collect();
        for depth in 0..=3 {
            let start = &pool[..depth];
            let stack = LabelStack::from_entries(start);
            assert_models(&stack, start, &format!("from_entries {depth}"));
            let collected: LabelStack = start.iter().copied().collect();
            assert_models(&collected, start, &format!("collect {depth}"));

            let (mut s, mut v) = (stack.clone(), start.to_vec());
            s.push(pool[5]);
            v.insert(0, pool[5]);
            assert_models(&s, &v, &format!("push onto {depth}"));

            let (mut s, mut v) = (stack.clone(), start.to_vec());
            let popped = s.pop();
            assert_eq!(popped, (!v.is_empty()).then(|| v.remove(0)), "pop from {depth}");
            assert_models(&s, &v, &format!("pop from {depth}"));

            let (mut s, mut v) = (stack.clone(), start.to_vec());
            s.swap_top(Label::new(77));
            if let Some(top) = v.first_mut() {
                top.label = Label::new(77);
            }
            assert_models(&s, &v, &format!("swap_top of {depth}"));

            for more in 0..=3 {
                let (mut s, mut v) = (stack.clone(), start.to_vec());
                s.extend(pool[3..3 + more].iter().copied());
                v.extend_from_slice(&pool[3..3 + more]);
                assert_models(&s, &v, &format!("extend {depth} by {more}"));
            }

            let mut s = stack.clone();
            s.clear();
            assert_models(&s, &[], &format!("clear {depth}"));
            s.extend(start.iter().copied());
            assert_models(&s, start, &format!("refill {depth}"));
        }
    }

    #[test]
    fn label_values_ignore_ttl() {
        let a = LabelStack::from_entries(&[Lse::transit(10, 250)]);
        let b = LabelStack::from_entries(&[Lse::transit(10, 12)]);
        assert_eq!(a.label_values(), b.label_values());
        assert_ne!(a, b);
    }
}
