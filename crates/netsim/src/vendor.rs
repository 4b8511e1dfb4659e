//! Router vendor models.
//!
//! The paper notes (§2.2) that while the label-distribution protocols
//! are standardised, the label ranges and default behaviours are
//! vendor-specific, and that these defaults are exactly what LPR's
//! inferences lean on (e.g. the Juniper RSVP-TE re-optimisation of
//! Fig. 17, whose labels sweep the 300 000–800 000 range). The ranges
//! below follow the vendors' public documentation.

use lpr_core::label::Label;
use std::ops::Range;

/// A modelled router platform.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Vendor {
    /// Cisco IOS(-XR)-like: dynamic labels from 16 up; LDP advertises
    /// labels for all IGP prefixes by default.
    Cisco,
    /// Juniper Junos-like: dynamic labels from 299 776 up; LDP
    /// advertises loopbacks only by default; RSVP-TE re-optimisation
    /// timers commonly configured.
    Juniper,
}

impl Vendor {
    /// The dynamic label allocation range for this platform.
    pub fn label_range(&self) -> Range<u32> {
        match self {
            // Cisco: 16..100000 is the classic dynamic range floor; we
            // model the commonly observed window.
            Vendor::Cisco => 16..1_048_576,
            // Juniper dynamic labels start at 299776. The Fig. 17
            // campaign observes wrap-around near 800k, so the modelled
            // window matches that observable.
            Vendor::Juniper => 299_776..800_000,
        }
    }
}

/// A per-router label allocator: hands out labels sequentially from the
/// vendor's dynamic range, wrapping when exhausted (the behaviour the
/// Fig. 17 sawtooth exposes).
#[derive(Clone, Debug)]
pub struct LabelAllocator {
    range: Range<u32>,
    next: u32,
}

impl LabelAllocator {
    /// A fresh allocator for a platform.
    pub fn new(vendor: Vendor) -> Self {
        let range = vendor.label_range();
        LabelAllocator { next: range.start, range }
    }

    /// An allocator whose cursor starts `offset` labels into the range
    /// (modulo the range span).
    ///
    /// Real routers have divergent label-consumption histories — the
    /// LDP/RSVP labels two distinct LSRs hold for the same FEC
    /// essentially never coincide, which is precisely the assumption
    /// behind LPR's Parallel-Links inference ("it is unlikely that two
    /// distinct LSRs will propose the same label", §3.2). The control
    /// plane therefore staggers every router's allocator with a
    /// deterministic per-router offset.
    pub fn with_offset(vendor: Vendor, offset: u32) -> Self {
        let range = vendor.label_range();
        let span = range.end - range.start;
        LabelAllocator { next: range.start + offset % span, range }
    }

    /// Allocates the next label.
    pub fn alloc(&mut self) -> Label {
        let l = self.next;
        self.next += 1;
        if self.next >= self.range.end {
            self.next = self.range.start;
        }
        Label::new(l)
    }

    /// How many labels have been consumed since the start (modulo
    /// wrap); useful for tests.
    pub fn cursor(&self) -> u32 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_disjoint_enough_to_distinguish() {
        assert!(Vendor::Cisco.label_range().start < Vendor::Juniper.label_range().start);
        assert!(Vendor::Juniper.label_range().contains(&300_000));
    }

    #[test]
    fn allocator_is_sequential() {
        let mut a = LabelAllocator::new(Vendor::Cisco);
        assert_eq!(a.alloc().value(), 16);
        assert_eq!(a.alloc().value(), 17);
    }

    #[test]
    fn allocator_wraps() {
        let mut a = LabelAllocator::new(Vendor::Juniper);
        let range = Vendor::Juniper.label_range();
        let span = range.end - range.start;
        for _ in 0..span {
            a.alloc();
        }
        // After consuming the whole range we are back at the start.
        assert_eq!(a.alloc().value(), range.start);
    }

    #[test]
    fn labels_stay_in_range() {
        let mut a = LabelAllocator::new(Vendor::Juniper);
        for _ in 0..10_000 {
            let l = a.alloc().value();
            assert!(Vendor::Juniper.label_range().contains(&l));
        }
    }
}
