//! The virtual video device: an indexed-colour framebuffer.
//!
//! Legacy arcade boards render into small palettized framebuffers; the VM
//! "translates [game outputs] into target platform dependent outputs" (§2).
//! [`FrameBuffer`] is the source-platform output; translation targets here
//! are raw RGB ([`FrameBuffer::to_rgb`]) and terminal art
//! ([`FrameBuffer::to_ascii`]) for the examples.

use crate::dirty::{DirtyPages, PAGE_SIZE};
use std::fmt;

/// Default framebuffer width in pixels.
pub const WIDTH: usize = 160;
/// Default framebuffer height in pixels.
pub const HEIGHT: usize = 120;

/// The 16-colour master palette (RGB), loosely the classic EGA ramp.
pub const PALETTE: [(u8, u8, u8); 16] = [
    (0x00, 0x00, 0x00), // 0 black
    (0x00, 0x00, 0xAA), // 1 blue
    (0x00, 0xAA, 0x00), // 2 green
    (0x00, 0xAA, 0xAA), // 3 cyan
    (0xAA, 0x00, 0x00), // 4 red
    (0xAA, 0x00, 0xAA), // 5 magenta
    (0xAA, 0x55, 0x00), // 6 brown
    (0xAA, 0xAA, 0xAA), // 7 light grey
    (0x55, 0x55, 0x55), // 8 dark grey
    (0x55, 0x55, 0xFF), // 9 bright blue
    (0x55, 0xFF, 0x55), // 10 bright green
    (0x55, 0xFF, 0xFF), // 11 bright cyan
    (0xFF, 0x55, 0x55), // 12 bright red
    (0xFF, 0x55, 0xFF), // 13 bright magenta
    (0xFF, 0xFF, 0x55), // 14 yellow
    (0xFF, 0xFF, 0xFF), // 15 white
];

/// A 4-bit indexed colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Color(pub u8);

impl Color {
    /// Palette index 0.
    pub const BLACK: Color = Color(0);
    /// Palette index 15.
    pub const WHITE: Color = Color(15);

    fn index(self) -> u8 {
        self.0 & 0x0F
    }
}

/// A palettized framebuffer with simple 2-D drawing primitives.
///
/// # Examples
///
/// ```
/// use coplay_vm::{Color, FrameBuffer};
///
/// let mut fb = FrameBuffer::new(32, 16);
/// fb.fill_rect(4, 4, 8, 4, Color(12));
/// assert_eq!(fb.pixel(5, 5), Color(12));
/// assert_eq!(fb.pixel(0, 0), Color::BLACK);
/// ```
#[derive(Debug, Clone)]
pub struct FrameBuffer {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
    /// Pages of `pixels` that may differ from the last snapshot capture.
    /// Maintained by [`FrameBuffer::reconcile_dirty`], not by the drawing
    /// primitives: games clear and redraw the whole screen every frame,
    /// so draw-time marking would report every transiently-flipped page
    /// (a static sprite erased by `cls` and redrawn identically) as
    /// dirty. Comparing the finished frame against `shadow` instead
    /// yields the true net change.
    dirty: DirtyPages,
    /// Copy of `pixels` as of the last reconcile — the reference the next
    /// [`FrameBuffer::reconcile_dirty`] diffs against. Empty while dirty
    /// tracking is off: native games never serialize their framebuffer,
    /// so they skip the reconcile pass and `dirty` stays saturated
    /// (everything may differ — the only safe claim when writes go
    /// unobserved). The `Console` enables tracking because its snapshots
    /// embed the surface.
    shadow: Vec<u8>,
}

/// Equality compares only the visible surface (dimensions and pixels).
/// The dirty accumulator is capture bookkeeping: two buffers with
/// identical contents but different snapshot histories are still equal.
impl PartialEq for FrameBuffer {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width && self.height == other.height && self.pixels == other.pixels
    }
}

impl Eq for FrameBuffer {}

impl FrameBuffer {
    /// Creates a cleared (black) buffer of the given size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> FrameBuffer {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        FrameBuffer {
            width,
            height,
            pixels: vec![0; width * height],
            // No snapshot has seen this buffer yet.
            dirty: DirtyPages::all_dirty(width * height),
            shadow: Vec::new(),
        }
    }

    /// `true` while the dirty accumulator is maintained (a shadow copy
    /// exists to diff against).
    fn tracking(&self) -> bool {
        !self.shadow.is_empty()
    }

    /// Creates the standard 160×120 arcade buffer.
    pub fn standard() -> FrameBuffer {
        FrameBuffer::new(WIDTH, HEIGHT)
    }

    /// Buffer width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Buffer height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The raw palette indices, row-major.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// Overwrites the whole buffer from raw palette indices, masking each
    /// to 4 bits (the same normalization [`FrameBuffer::set_pixel`]
    /// applies). This is the snapshot-restore fast path: one linear pass
    /// instead of per-pixel coordinate arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `width * height` bytes.
    pub fn load_pixels(&mut self, data: &[u8]) {
        assert_eq!(data.len(), self.pixels.len(), "pixel payload size");
        self.pixels.copy_from_slice(data);
        for p in &mut self.pixels {
            *p &= 0x0F;
        }
        // Pages the load actually changed get marked by the diff against
        // the shadow, so a restore that lands on identical video costs no
        // future capture bandwidth.
        self.reconcile_dirty();
    }

    /// The colour at `(x, y)`; out-of-bounds reads are black.
    pub fn pixel(&self, x: i32, y: i32) -> Color {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return Color::BLACK;
        }
        Color(self.pixels[y as usize * self.width + x as usize])
    }

    /// Sets one pixel; out-of-bounds writes are clipped away.
    pub fn set_pixel(&mut self, x: i32, y: i32, color: Color) {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return;
        }
        let i = y as usize * self.width + x as usize;
        self.pixels[i] = color.index();
    }

    /// Fills the whole buffer with `color`.
    pub fn clear(&mut self, color: Color) {
        self.pixels.fill(color.index());
    }

    /// Fills the axis-aligned rectangle, clipping at the edges.
    pub fn fill_rect(&mut self, x: i32, y: i32, w: i32, h: i32, color: Color) {
        let x0 = x.max(0) as usize;
        let y0 = y.max(0) as usize;
        let x1 = (x + w).min(self.width as i32).max(0) as usize;
        let y1 = (y + h).min(self.height as i32).max(0) as usize;
        if x0 >= x1 {
            return;
        }
        let c = color.index();
        for yy in y0..y1 {
            let row = yy * self.width;
            self.pixels[row + x0..row + x1].fill(c);
        }
    }

    /// Draws a decimal number with a tiny 3×5 digit font (for scores).
    pub fn draw_number(&mut self, x: i32, y: i32, value: u32, color: Color) {
        const DIGITS: [u16; 10] = [
            0b111_101_101_101_111, // 0
            0b010_110_010_010_111, // 1
            0b111_001_111_100_111, // 2
            0b111_001_111_001_111, // 3
            0b101_101_111_001_001, // 4
            0b111_100_111_001_111, // 5
            0b111_100_111_101_111, // 6
            0b111_001_010_010_010, // 7
            0b111_101_111_101_111, // 8
            0b111_101_111_001_111, // 9
        ];
        // u32 has at most 10 decimal digits; a stack buffer keeps this
        // allocation-free (scores are redrawn every frame).
        let mut digits = [0u32; 10];
        let mut count = 0;
        let mut rest = value;
        loop {
            digits[count] = rest % 10;
            count += 1;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        for i in 0..count {
            let glyph = DIGITS[digits[count - 1 - i] as usize];
            for row in 0..5 {
                for col in 0..3 {
                    let bit = 14 - (row * 3 + col);
                    if glyph >> bit & 1 == 1 {
                        self.set_pixel(x + (i as i32) * 4 + col, y + row, color);
                    }
                }
            }
        }
    }

    /// Translates to packed RGB bytes (3 per pixel) via [`PALETTE`].
    pub fn to_rgb(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pixels.len() * 3);
        for &p in &self.pixels {
            let (r, g, b) = PALETTE[(p & 0x0F) as usize];
            out.extend_from_slice(&[r, g, b]);
        }
        out
    }

    /// Renders the buffer as ASCII art, down-sampling by `step` in both
    /// axes — the "target platform" of terminal examples.
    pub fn to_ascii(&self, step: usize) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@&XNWM?";
        let step = step.max(1);
        let mut s = String::with_capacity((self.width / step + 1) * (self.height / step));
        for y in (0..self.height).step_by(step) {
            for x in (0..self.width).step_by(step) {
                let p = self.pixels[y * self.width + x] & 0x0F;
                s.push(RAMP[p as usize] as char);
            }
            s.push('\n');
        }
        s
    }

    /// FNV-1a hash of the pixel contents (used in state hashing and tests).
    pub fn content_hash(&self) -> u64 {
        crate::hash::fnv1a(&self.pixels)
    }

    /// Turns on dirty-page maintenance: allocates the shadow copy that
    /// [`FrameBuffer::reconcile_dirty`] diffs against. Until this is
    /// called the accumulator stays saturated, which is the only sound
    /// answer when writes go unobserved.
    pub(crate) fn enable_dirty_tracking(&mut self) {
        if self.shadow.is_empty() {
            self.shadow = self.pixels.clone();
        }
    }

    /// Diffs the surface against the shadow copy, marking pages whose
    /// content actually changed and syncing the shadow. The `Console`
    /// calls this once at the end of every presented frame, so a full
    /// clear-and-redraw cycle that reproduces the previous frame's pixels
    /// (static sprites, backgrounds, a `cls` that erases and a sprite
    /// pass that repaints) contributes zero dirty pages.
    ///
    /// Two-level diff, like the CPU's memory restore: 4 KiB super-chunks
    /// compared with one wide memcmp each, and only a differing
    /// super-chunk is re-scanned at page granularity — the all-equal fast
    /// path dominates real frames. No-op while tracking is off.
    pub(crate) fn reconcile_dirty(&mut self) {
        if self.shadow.is_empty() {
            return;
        }
        const SUPER: usize = 4096; // multiple of PAGE_SIZE
        let n = self.pixels.len();
        let mut off = 0;
        while off < n {
            let sup_end = (off + SUPER).min(n);
            if self.pixels[off..sup_end] == self.shadow[off..sup_end] {
                off = sup_end;
                continue;
            }
            while off < sup_end {
                let end = (off + PAGE_SIZE).min(sup_end);
                if self.pixels[off..end] != self.shadow[off..end] {
                    self.shadow[off..end].copy_from_slice(&self.pixels[off..end]);
                    self.dirty.mark_range(off, end - off);
                }
                off = end;
            }
        }
    }

    /// The accumulated dirty bitmap over `pixels` (as of the last
    /// reconcile).
    pub(crate) fn dirty_pages(&self) -> &DirtyPages {
        &self.dirty
    }

    /// Clears the dirty accumulator (called once the pages have been
    /// folded into a snapshot capture). A no-op while tracking is off:
    /// untracked writes would never re-mark, so the bitmap must stay
    /// saturated.
    pub(crate) fn clear_dirty(&mut self) {
        if self.tracking() {
            self.dirty.reset(self.pixels.len());
        }
    }

    /// Saturates the dirty accumulator (the whole surface considered
    /// changed since the last capture) and syncs the shadow, so the next
    /// reconcile diffs against the surface as it stands now — a stale
    /// shadow could otherwise hide a later change that happens to land
    /// back on the stale bytes.
    pub(crate) fn mark_all_dirty(&mut self) {
        self.dirty.mark_all();
        if self.tracking() {
            self.shadow.copy_from_slice(&self.pixels);
        }
    }

    /// Restores pixels `[start, end)` from `src` (a full pixel-payload
    /// slice, same format as [`FrameBuffer::load_pixels`]), masking each
    /// byte to 4 bits. The whole window is re-marked dirty regardless of
    /// whether bytes changed: the caller's reference snapshot may hold
    /// different bytes there even where the live buffer and the restore
    /// target agree.
    pub(crate) fn restore_pixel_range(&mut self, src: &[u8], start: usize, end: usize) {
        let end = end.min(self.pixels.len()).min(src.len());
        if start >= end {
            return;
        }
        // memcpy then a straight-line mask pass — both vectorize, unlike a
        // fused per-byte masked copy (this window can be the whole surface).
        self.pixels[start..end].copy_from_slice(&src[start..end]);
        for p in &mut self.pixels[start..end] {
            *p &= 0x0F;
        }
        if self.tracking() {
            self.shadow[start..end].copy_from_slice(&self.pixels[start..end]);
        }
        self.dirty.mark_range(start, end - start);
    }
}

impl fmt::Display for FrameBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FrameBuffer({}x{})", self.width, self.height)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_buffer_is_black() {
        let fb = FrameBuffer::new(8, 8);
        assert!(fb.pixels().iter().all(|&p| p == 0));
        assert_eq!(fb.width(), 8);
        assert_eq!(fb.height(), 8);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_rejected() {
        let _ = FrameBuffer::new(0, 8);
    }

    #[test]
    fn set_and_get_pixel() {
        let mut fb = FrameBuffer::new(4, 4);
        fb.set_pixel(2, 3, Color(9));
        assert_eq!(fb.pixel(2, 3), Color(9));
    }

    #[test]
    fn out_of_bounds_access_is_safe() {
        let mut fb = FrameBuffer::new(4, 4);
        fb.set_pixel(-1, 0, Color(5));
        fb.set_pixel(4, 0, Color(5));
        fb.set_pixel(0, 99, Color(5));
        assert_eq!(fb.pixel(-1, 0), Color::BLACK);
        assert_eq!(fb.pixel(99, 99), Color::BLACK);
        assert!(fb.pixels().iter().all(|&p| p == 0));
    }

    #[test]
    fn fill_rect_clips() {
        let mut fb = FrameBuffer::new(4, 4);
        fb.fill_rect(-2, -2, 4, 4, Color(3));
        assert_eq!(fb.pixel(0, 0), Color(3));
        assert_eq!(fb.pixel(1, 1), Color(3));
        assert_eq!(fb.pixel(2, 2), Color::BLACK);
    }

    #[test]
    fn clear_fills_everything() {
        let mut fb = FrameBuffer::new(4, 4);
        fb.clear(Color(7));
        assert!(fb.pixels().iter().all(|&p| p == 7));
    }

    #[test]
    fn color_index_wraps_to_palette() {
        let mut fb = FrameBuffer::new(2, 2);
        fb.set_pixel(0, 0, Color(0xFF));
        assert_eq!(fb.pixel(0, 0), Color(0x0F));
    }

    #[test]
    fn draw_number_renders_digits() {
        let mut fb = FrameBuffer::new(16, 8);
        fb.draw_number(0, 0, 10, Color::WHITE);
        // "1" then "0": some pixels must be set in both 4-wide cells.
        let left: u32 = (0..4)
            .flat_map(|x| (0..5).map(move |y| (x, y)))
            .filter(|&(x, y)| fb.pixel(x, y) == Color::WHITE)
            .count() as u32;
        let right: u32 = (4..8)
            .flat_map(|x| (0..5).map(move |y| (x, y)))
            .filter(|&(x, y)| fb.pixel(x, y) == Color::WHITE)
            .count() as u32;
        assert!(left > 0 && right > 0);
    }

    #[test]
    fn rgb_translation_uses_palette() {
        let mut fb = FrameBuffer::new(1, 1);
        fb.set_pixel(0, 0, Color(4));
        assert_eq!(fb.to_rgb(), vec![0xAA, 0x00, 0x00]);
    }

    #[test]
    fn ascii_rendering_has_expected_shape() {
        let fb = FrameBuffer::new(8, 4);
        let art = fb.to_ascii(2);
        assert_eq!(art.lines().count(), 2);
        assert!(art.lines().all(|l| l.len() == 4));
    }

    #[test]
    fn content_hash_tracks_changes() {
        let mut fb = FrameBuffer::new(8, 8);
        let h0 = fb.content_hash();
        fb.set_pixel(3, 3, Color(2));
        assert_ne!(fb.content_hash(), h0);
    }

    #[test]
    fn dirty_tracking_is_value_aware() {
        let mut fb = FrameBuffer::new(32, 32);
        assert!(fb.dirty_pages().is_all(), "fresh buffer starts saturated");
        fb.enable_dirty_tracking();
        fb.clear_dirty();
        assert_eq!(fb.dirty_pages().count_pages(), 0);

        // A no-op write (black onto black) must not mark.
        fb.set_pixel(1, 1, Color::BLACK);
        fb.clear(Color::BLACK);
        fb.fill_rect(0, 0, 8, 8, Color::BLACK);
        fb.reconcile_dirty();
        assert_eq!(fb.dirty_pages().count_pages(), 0);

        // A real write marks exactly the covering page.
        fb.set_pixel(1, 1, Color(5));
        fb.reconcile_dirty();
        assert_eq!(
            fb.dirty_pages().byte_ranges().collect::<Vec<_>>(),
            vec![(0, 256)]
        );

        // Redrawing the same value after a capture stays clean.
        fb.clear_dirty();
        fb.set_pixel(1, 1, Color(5));
        fb.reconcile_dirty();
        assert_eq!(fb.dirty_pages().count_pages(), 0);
    }

    #[test]
    fn transient_clear_and_redraw_nets_to_zero_dirt() {
        // The Button Race shape: a static sprite erased by the per-frame
        // `cls` and repainted identically. Draw-time marking would report
        // every page the sprite touches; the frame-end reconcile sees the
        // finished frame equals the previous one and marks nothing.
        let mut fb = FrameBuffer::new(32, 32);
        fb.enable_dirty_tracking();
        fb.fill_rect(8, 0, 1, 32, Color::WHITE); // vertical line, many pages
        fb.reconcile_dirty();
        fb.clear_dirty();

        fb.clear(Color::BLACK);
        fb.fill_rect(8, 0, 1, 32, Color::WHITE); // same line redrawn
        fb.reconcile_dirty();
        assert_eq!(fb.dirty_pages().count_pages(), 0);

        // Moving the line dirties exactly the union of old and new pixels.
        fb.clear(Color::BLACK);
        fb.fill_rect(9, 0, 1, 32, Color::WHITE);
        fb.reconcile_dirty();
        assert!(fb.dirty_pages().count_pages() > 0);
    }

    #[test]
    fn equality_ignores_dirty_history() {
        let mut a = FrameBuffer::new(8, 8);
        let mut b = FrameBuffer::new(8, 8);
        a.clear_dirty();
        b.set_pixel(0, 0, Color(3));
        b.set_pixel(0, 0, Color::BLACK); // same pixels, different history
        assert_eq!(a, b);
        a.set_pixel(1, 0, Color(1));
        assert_ne!(a, b);
    }

    #[test]
    fn restore_pixel_range_masks_and_remarks() {
        let mut fb = FrameBuffer::new(32, 32);
        fb.enable_dirty_tracking();
        fb.clear_dirty();
        let mut img = vec![0u8; 32 * 32];
        img[300] = 0xF7; // high nibble must be masked off
        fb.restore_pixel_range(&img, 256, 512);
        assert_eq!(fb.pixels()[300], 0x07);
        assert_eq!(
            fb.dirty_pages().byte_ranges().collect::<Vec<_>>(),
            vec![(256, 512)]
        );
    }
}
