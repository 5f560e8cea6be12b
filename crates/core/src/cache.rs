//! Page arithmetic and the soundness rule of the check fast path: per-SID
//! compiled masked views and a page-granular decision cache, both
//! invalidated by publishing a fresh snapshot.
//!
//! The naive check path re-walks every memory-domain window, heap-allocates
//! a scratch vector and re-sorts the masked entry list on **every** DMA
//! beat — the opposite of the paper's single-cycle MT checker. Each
//! published [`crate::snapshot::CheckerSnapshot`] carries the two
//! structures that make the hot path cheap without changing semantics;
//! this module holds the page rules they share:
//!
//! * a **compiled masked view** per SID — the sorted
//!   `(EntryIndex, IopmpEntry)` slice reachable from the SID's SRC2MD
//!   registration, built lazily on first use and reused (the backing
//!   vector's capacity survives rebuilds, so steady-state checks allocate
//!   nothing);
//! * a **decision cache** — a direct-mapped table of page-granular
//!   verdicts keyed by `(SourceId, page, AccessKind)`.
//!
//! Both live in the snapshot they were built from: every configuration
//! mutator (entry writes, MDCFG repartitioning, SRC2MD changes, SID
//! block/unblock, cold mounts) publishes a fresh snapshot whose views and
//! slots start empty, and moves the publish generation by one. Stale
//! verdicts are therefore impossible by construction — invalidation is one
//! pointer swap, never a table scan.
//!
//! # Page-granularity soundness
//!
//! Entries are byte-granular and priority-ordered, so a verdict computed
//! for one access is only cacheable for its whole page when the page
//! resolves uniformly. [`page_verdict`] encodes the rule: walking the
//! compiled view in priority order, find the first entry that *overlaps*
//! the page at all —
//!
//! * **no entry overlaps** — no in-page access can match anything, so
//!   `DenyNoMatch` holds for the whole page;
//! * **the first overlapping entry fully contains the page** — every
//!   in-page access is contained in that entry, and no higher-priority
//!   entry can match (it would have to overlap the page), so that entry's
//!   verdict for the access kind holds for the whole page;
//! * **otherwise** — the page straddles an entry boundary; different
//!   in-page accesses may resolve differently, so nothing is cached.
//!
//! Accesses that span a page boundary (or the unrepresentable top page of
//! the address space) bypass the cache entirely. The differential property
//! suite in `tests/cache_differential.rs` checks the cached unit against a
//! cache-free reference across randomized mutation/check interleavings.

use crate::checker::Decision;
use crate::entry::IopmpEntry;
use crate::ids::EntryIndex;
use crate::request::AccessKind;

/// Log2 of the decision-cache page size.
pub const PAGE_SHIFT: u32 = 12;

/// Granularity of cached verdicts (4 KiB, the paper's IOMMU page size).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;

/// The page base of `addr`.
pub fn page_of(addr: u64) -> u64 {
    addr & !(PAGE_SIZE - 1)
}

/// Whether the access `[addr, addr+len)` is non-empty, does not wrap, and
/// lies entirely within one page — the precondition for both consulting
/// and filling the decision cache.
pub fn within_one_page(addr: u64, len: u64) -> bool {
    if len == 0 {
        return false;
    }
    match addr.checked_add(len - 1) {
        Some(last) => page_of(addr) == page_of(last),
        None => false,
    }
}

/// Computes the uniform verdict for the whole page starting at `page`, or
/// `None` when the page does not resolve uniformly (see the module docs
/// for why each arm is sound). `view` must be sorted by ascending entry
/// index.
pub fn page_verdict(
    view: &[(EntryIndex, IopmpEntry)],
    page: u64,
    kind: AccessKind,
) -> Option<Decision> {
    // The top page cannot be described as [page, page + PAGE_SIZE): entry
    // ranges may still contain sub-accesses there, so never cache it.
    page.checked_add(PAGE_SIZE)?;
    for (index, entry) in view {
        if entry.range().overlaps(page, PAGE_SIZE) {
            if !entry.range().contains(page, PAGE_SIZE) {
                return None;
            }
            return Some(if entry.permissions().allows(kind.required()) {
                Decision::Allow { matched: *index }
            } else {
                Decision::DenyPermission { matched: *index }
            });
        }
    }
    Some(Decision::DenyNoMatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{AddressRange, Permissions};

    fn entry(base: u64, len: u64, p: Permissions) -> IopmpEntry {
        IopmpEntry::new(AddressRange::new(base, len).unwrap(), p)
    }

    #[test]
    fn page_helpers_handle_edges() {
        assert_eq!(page_of(0x1234), 0x1000);
        assert!(within_one_page(0x1000, PAGE_SIZE));
        assert!(!within_one_page(0x1001, PAGE_SIZE));
        assert!(!within_one_page(0x1000, 0));
        assert!(!within_one_page(u64::MAX, 2));
        assert!(within_one_page(u64::MAX, 1));
    }

    #[test]
    fn verdict_no_overlap_caches_deny_no_match() {
        let view = [(EntryIndex(0), entry(0x10_000, 0x1000, Permissions::rw()))];
        assert_eq!(
            page_verdict(&view, 0x2000, AccessKind::Read),
            Some(Decision::DenyNoMatch)
        );
    }

    #[test]
    fn verdict_full_containment_caches_entry_decision() {
        let view = [
            (
                EntryIndex(3),
                entry(0x1000, 0x3000, Permissions::read_only()),
            ),
            (EntryIndex(9), entry(0x2000, 0x1000, Permissions::rw())),
        ];
        assert_eq!(
            page_verdict(&view, 0x2000, AccessKind::Read),
            Some(Decision::Allow {
                matched: EntryIndex(3)
            })
        );
        assert_eq!(
            page_verdict(&view, 0x2000, AccessKind::Write),
            Some(Decision::DenyPermission {
                matched: EntryIndex(3)
            })
        );
    }

    #[test]
    fn verdict_partial_overlap_is_uncacheable() {
        // Entry covers only half the page.
        let view = [(EntryIndex(0), entry(0x2000, 0x800, Permissions::rw()))];
        assert_eq!(page_verdict(&view, 0x2000, AccessKind::Read), None);
        // A lower-priority entry containing the page does not help: the
        // partial entry still wins for some in-page accesses.
        let view = [
            (EntryIndex(0), entry(0x2000, 0x800, Permissions::none())),
            (EntryIndex(1), entry(0x0, 0x10_000, Permissions::rw())),
        ];
        assert_eq!(page_verdict(&view, 0x2000, AccessKind::Read), None);
    }

    #[test]
    fn verdict_top_page_never_cached() {
        let top = page_of(u64::MAX);
        assert_eq!(page_verdict(&[], top, AccessKind::Read), None);
    }
}
