//! Page-granular dirty tracking for snapshot capture and restore.
//!
//! A [`DirtyPages`] bitmap records which 256-byte pages of a byte region
//! (a memory image, a framebuffer, a serialized snapshot) may have
//! changed since the bitmap was last cleared. "May have" is the
//! contract: markers are allowed to over-approximate (marking a page
//! whose bytes ended up unchanged costs only bandwidth), but must never
//! under-approximate — every byte that differs from the reference copy
//! has to live in a marked page, or an incremental capture/restore
//! would silently corrupt state.
//!
//! The bitmap has a *saturated* representation (`mark_all`) that means
//! "assume everything is dirty" without allocating backing words, so
//! freshly constructed devices and machines with no tracking at all can
//! participate in the same API at full-copy cost.

// Frame-path code: a panic here stops a replica mid-session.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// Size of one dirty-tracking page, in bytes.
///
/// 256 bytes keeps the bitmap for the whole 84 KiB console image at
/// ~42 words while still bounding the cost of a false-positive page to
/// a quarter of a cache line's worth of scanning work.
pub const PAGE_SIZE: usize = 256;

/// A dirty bitmap over a byte region, one bit per [`PAGE_SIZE`] page.
///
/// Cleared bits are a *guarantee* (the page is byte-identical to the
/// reference copy); set bits are a *hint* (the page may differ). The
/// saturated state set by [`DirtyPages::mark_all`] represents "every
/// page dirty" without touching the word vector, so it is free to
/// construct and union.
#[derive(Debug, Clone, Default)]
pub struct DirtyPages {
    /// One bit per page; empty while saturated or never marked.
    words: Vec<u64>,
    /// Length in bytes of the tracked region.
    len: usize,
    /// Saturated flag: when set, every page is considered dirty and
    /// `words` is ignored.
    all: bool,
}

impl DirtyPages {
    /// Creates an all-clean bitmap tracking `len` bytes.
    pub fn new(len: usize) -> DirtyPages {
        DirtyPages {
            words: vec![0u64; len.div_ceil(PAGE_SIZE).div_ceil(64)],
            len,
            all: false,
        }
    }

    /// Creates a saturated (every page dirty) bitmap tracking `len`
    /// bytes. Allocation-free.
    pub fn all_dirty(len: usize) -> DirtyPages {
        DirtyPages {
            words: Vec::new(),
            len,
            all: true,
        }
    }

    /// Clears every bit and re-targets the bitmap at a `len`-byte
    /// region, reusing the existing word allocation where possible.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        self.all = false;
        let n = len.div_ceil(PAGE_SIZE).div_ceil(64);
        self.words.clear();
        self.words.resize(n, 0);
    }

    /// Length in bytes of the tracked region.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tracked region is zero bytes long.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks the page containing byte offset `off` dirty. Offsets past
    /// the tracked length are ignored.
    #[inline]
    pub fn mark(&mut self, off: usize) {
        if self.all || off >= self.len {
            return;
        }
        let page = off / PAGE_SIZE;
        if let Some(w) = self.words.get_mut(page / 64) {
            *w |= 1u64 << (page % 64);
        }
    }

    /// Marks every page overlapping `[off, off + n)` dirty. The range is
    /// clamped to the tracked length.
    pub fn mark_range(&mut self, off: usize, n: usize) {
        if self.all || n == 0 || off >= self.len {
            return;
        }
        let end = off.saturating_add(n).min(self.len);
        let first = off / PAGE_SIZE;
        let last = (end - 1) / PAGE_SIZE;
        let (fw, lw) = (first / 64, last / 64);
        // Whole-word masks instead of a per-page loop: wide ranges (a
        // saturating restore, a framebuffer clear) set 64 pages per store.
        let lo_mask = u64::MAX << (first % 64);
        let hi_mask = u64::MAX >> (63 - last % 64);
        if fw == lw {
            if let Some(w) = self.words.get_mut(fw) {
                *w |= lo_mask & hi_mask;
            }
            return;
        }
        if let Some(w) = self.words.get_mut(fw) {
            *w |= lo_mask;
        }
        for w in self.words.iter_mut().take(lw).skip(fw + 1) {
            *w = u64::MAX;
        }
        if let Some(w) = self.words.get_mut(lw) {
            *w |= hi_mask;
        }
    }

    /// Saturates the bitmap: every page is considered dirty.
    pub fn mark_all(&mut self) {
        self.all = true;
        self.words.clear();
    }

    /// `true` if the bitmap is saturated (every page dirty).
    pub fn is_all(&self) -> bool {
        self.all
    }

    /// Unions `other`'s dirty set into `self`. If the two bitmaps track
    /// regions of different lengths (the region was resized between
    /// captures) the result saturates — the only sound answer.
    pub fn union(&mut self, other: &DirtyPages) {
        if self.all {
            return;
        }
        if other.all || other.len != self.len || other.words.len() != self.words.len() {
            self.mark_all();
            return;
        }
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Number of pages currently marked dirty.
    pub fn count_pages(&self) -> usize {
        if self.all {
            self.len.div_ceil(PAGE_SIZE)
        } else {
            self.words.iter().map(|w| w.count_ones() as usize).sum()
        }
    }

    /// ORs raw dirty-bitmap words into `self`, with bit 0 of `src`
    /// landing on page `first_page`. This is the word-level fast path for
    /// folding a component's page bitmap into an image bitmap when the
    /// component's region starts on a page boundary — no per-page loop.
    /// Bits that would land past the tracked length are dropped.
    pub fn or_word_bits(&mut self, src: &[u64], first_page: usize) {
        if self.all {
            return;
        }
        let npages = self.len.div_ceil(PAGE_SIZE);
        let (wo, bo) = (first_page / 64, first_page % 64);
        for (i, &s) in src.iter().enumerate() {
            if s == 0 {
                continue;
            }
            if let Some(w) = self.words.get_mut(wo + i) {
                *w |= s << bo;
            }
            if bo != 0 {
                if let Some(w) = self.words.get_mut(wo + i + 1) {
                    *w |= s >> (64 - bo);
                }
            }
        }
        // Clear any bits shifted past the final page.
        if !npages.is_multiple_of(64) {
            if let Some(w) = self.words.get_mut(npages / 64) {
                *w &= (1u64 << (npages % 64)) - 1;
            }
        }
    }

    /// Unions `other`'s dirty pages into `self` with `other`'s byte 0
    /// landing at byte offset `off` of `self`'s region. `off` must be a
    /// multiple of [`PAGE_SIZE`] so pages map one-to-one. A saturated
    /// `other` marks its whole `[off, off + other.len())` window.
    pub fn union_at(&mut self, other: &DirtyPages, off: usize) {
        debug_assert!(off.is_multiple_of(PAGE_SIZE), "offset must be page-aligned");
        if self.all {
            return;
        }
        if other.all {
            self.mark_range(off, other.len);
            return;
        }
        self.or_word_bits(&other.words, off / PAGE_SIZE);
    }

    /// Iterates maximal runs of dirty pages as half-open byte ranges
    /// `(start, end)`, clamped to the tracked length. A saturated bitmap
    /// yields the single range `(0, len)`.
    pub fn byte_ranges(&self) -> DirtyRanges<'_> {
        DirtyRanges {
            dirty: self,
            page: 0,
            done: self.len == 0,
        }
    }
}

impl PartialEq for DirtyPages {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let pages = self.len.div_ceil(PAGE_SIZE);
        (0..pages).all(|p| self.page_is_dirty(p) == other.page_is_dirty(p))
    }
}

impl Eq for DirtyPages {}

impl DirtyPages {
    /// `true` if page `p` is marked dirty.
    fn page_is_dirty(&self, p: usize) -> bool {
        self.all
            || self
                .words
                .get(p / 64)
                .is_some_and(|w| w & (1u64 << (p % 64)) != 0)
    }
}

/// Iterator over coalesced dirty byte ranges; see
/// [`DirtyPages::byte_ranges`].
#[derive(Debug)]
pub struct DirtyRanges<'a> {
    dirty: &'a DirtyPages,
    page: usize,
    done: bool,
}

impl Iterator for DirtyRanges<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        if self.done {
            return None;
        }
        if self.dirty.all {
            self.done = true;
            return Some((0, self.dirty.len));
        }
        let pages = self.dirty.len.div_ceil(PAGE_SIZE);
        let words = &self.dirty.words;
        // Hop to the next set bit a word at a time — this iterator sits
        // on the checkpoint hot path, where a per-page scan of a mostly
        // clean bitmap costs more than the captures it guides.
        let mut p = self.page;
        loop {
            if p >= pages {
                self.done = true;
                return None;
            }
            let w = words[p / 64] >> (p % 64);
            if w != 0 {
                p += w.trailing_zeros() as usize;
                break;
            }
            p = (p / 64 + 1) * 64;
        }
        if p >= pages {
            self.done = true;
            return None;
        }
        let start = p;
        // Walk off the end of the run of set bits, crossing whole words
        // of ones without touching individual pages.
        while p < pages {
            let rem = p % 64;
            let ones = (!(words[p / 64] >> rem)).trailing_zeros() as usize;
            p += ones.min(64 - rem);
            if ones < 64 - rem {
                break;
            }
        }
        self.page = p;
        Some((start * PAGE_SIZE, (p * PAGE_SIZE).min(self.dirty.len)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bitmap_is_clean() {
        let d = DirtyPages::new(1000);
        assert_eq!(d.count_pages(), 0);
        assert_eq!(d.byte_ranges().count(), 0);
        assert!(!d.is_all());
    }

    #[test]
    fn mark_sets_the_covering_page() {
        let mut d = DirtyPages::new(1000);
        d.mark(0);
        d.mark(600);
        assert_eq!(d.count_pages(), 2);
        let ranges: Vec<_> = d.byte_ranges().collect();
        assert_eq!(ranges, vec![(0, 256), (512, 768)]);
    }

    #[test]
    fn adjacent_pages_coalesce_and_tail_clamps() {
        let mut d = DirtyPages::new(1000);
        d.mark_range(200, 700); // pages 0..=3 (ends at 899)
        let ranges: Vec<_> = d.byte_ranges().collect();
        assert_eq!(ranges, vec![(0, 1000)]);
        assert_eq!(d.count_pages(), 4);
    }

    #[test]
    fn disjoint_ranges_stay_disjoint() {
        let mut d = DirtyPages::new(4096);
        d.mark_range(0, 1);
        d.mark_range(1024, 512);
        let ranges: Vec<_> = d.byte_ranges().collect();
        assert_eq!(ranges, vec![(0, 256), (1024, 1536)]);
    }

    #[test]
    fn saturated_bitmap_yields_one_full_range() {
        let mut d = DirtyPages::new(1000);
        d.mark_all();
        assert!(d.is_all());
        assert_eq!(d.count_pages(), 4);
        assert_eq!(d.byte_ranges().collect::<Vec<_>>(), vec![(0, 1000)]);
        assert_eq!(DirtyPages::all_dirty(1000), d);
    }

    #[test]
    fn out_of_range_marks_are_ignored() {
        let mut d = DirtyPages::new(100);
        d.mark(100);
        d.mark(usize::MAX);
        d.mark_range(100, 50);
        d.mark_range(0, 0);
        assert_eq!(d.count_pages(), 0);
        d.mark_range(50, usize::MAX - 10);
        assert_eq!(d.byte_ranges().collect::<Vec<_>>(), vec![(0, 100)]);
    }

    #[test]
    fn union_merges_and_length_mismatch_saturates() {
        let mut a = DirtyPages::new(1024);
        a.mark(0);
        let mut b = DirtyPages::new(1024);
        b.mark(512);
        a.union(&b);
        assert_eq!(
            a.byte_ranges().collect::<Vec<_>>(),
            vec![(0, 256), (512, 768)]
        );

        let c = DirtyPages::new(2048);
        a.union(&c);
        assert!(a.is_all(), "length mismatch must saturate");
    }

    #[test]
    fn union_with_saturated_saturates() {
        let mut a = DirtyPages::new(1024);
        a.mark(7);
        a.union(&DirtyPages::all_dirty(1024));
        assert!(a.is_all());
    }

    #[test]
    fn reset_clears_and_retargets() {
        let mut d = DirtyPages::all_dirty(1000);
        d.reset(2000);
        assert!(!d.is_all());
        assert_eq!(d.len(), 2000);
        assert_eq!(d.count_pages(), 0);
        d.mark(1999);
        assert_eq!(d.byte_ranges().collect::<Vec<_>>(), vec![(1792, 2000)]);
    }

    #[test]
    fn or_word_bits_lands_on_the_offset_page() {
        let mut d = DirtyPages::new(100 * 256);
        // Bits 0 and 65 of the source, landing at page 3: pages 3 and 68.
        d.or_word_bits(&[1, 2], 3);
        assert_eq!(
            d.byte_ranges().collect::<Vec<_>>(),
            vec![(3 * 256, 4 * 256), (68 * 256, 69 * 256)]
        );
        // Unaligned page offset crosses word boundaries correctly.
        let mut d = DirtyPages::new(200 * 256);
        d.or_word_bits(&[1u64 << 63], 70); // page 63 + 70 = 133
        assert_eq!(
            d.byte_ranges().collect::<Vec<_>>(),
            vec![(133 * 256, 134 * 256)]
        );
        // Bits past the tracked length are dropped.
        let mut d = DirtyPages::new(10 * 256);
        d.or_word_bits(&[u64::MAX], 5);
        assert_eq!(
            d.byte_ranges().collect::<Vec<_>>(),
            vec![(5 * 256, 10 * 256)]
        );
        assert_eq!(d.count_pages(), 5);
    }

    #[test]
    fn union_at_translates_pages() {
        let mut inner = DirtyPages::new(1024);
        inner.mark(0);
        inner.mark(700);
        let mut outer = DirtyPages::new(8192);
        outer.union_at(&inner, 1024);
        assert_eq!(
            outer.byte_ranges().collect::<Vec<_>>(),
            vec![(1024, 1280), (1536, 1792)]
        );
        // Saturated inner marks exactly its window.
        let mut outer = DirtyPages::new(8192);
        outer.union_at(&DirtyPages::all_dirty(1024), 2048);
        assert_eq!(outer.byte_ranges().collect::<Vec<_>>(), vec![(2048, 3072)]);
    }

    #[test]
    fn zero_length_region_is_inert() {
        let mut d = DirtyPages::new(0);
        assert!(d.is_empty());
        d.mark(0);
        d.mark_all();
        assert_eq!(d.byte_ranges().count(), 0);
        assert_eq!(DirtyPages::new(0).byte_ranges().count(), 0);
        assert_eq!(d.count_pages(), 0);
    }
}
