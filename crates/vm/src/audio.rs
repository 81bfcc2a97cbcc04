//! The virtual audio device: a deterministic square-wave beeper.
//!
//! One channel, 44.1 kHz, integer phase accumulation — every replica
//! produces bit-identical sample buffers, so audio participates in the
//! determinism contract like everything else.

// Frame-path code: a panic here stops a replica mid-session.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// Samples generated per second.
pub const SAMPLE_RATE: u32 = 44_100;

/// A single square-wave voice that renders one frame of audio at a time.
///
/// # Examples
///
/// ```
/// use coplay_vm::AudioChannel;
///
/// let mut ch = AudioChannel::new();
/// ch.tone(440, 2, 8_000);
/// let frame = ch.render_frame(60).to_vec();
/// assert!(frame.iter().any(|&s| s != 0));
/// ```
#[derive(Debug, Clone)]
pub struct AudioChannel {
    freq_hz: u32,
    frames_left: u32,
    volume: i16,
    phase: u32, // fixed-point phase accumulator (1/65536 cycles)
    buffer: Vec<i16>,
    /// Set whenever the serialized state ([`AudioChannel::save`]) may
    /// have changed since the last snapshot capture; consumed by
    /// [`AudioChannel::take_dirty`]. At 14 bytes the channel is tracked
    /// as a single all-or-nothing page.
    dirty: bool,
}

/// Equality compares only the audible state (tone parameters, phase, and
/// the rendered buffer). The dirty flag is capture bookkeeping: two
/// channels in identical states but with different snapshot histories
/// are still equal.
impl PartialEq for AudioChannel {
    fn eq(&self, other: &Self) -> bool {
        self.freq_hz == other.freq_hz
            && self.frames_left == other.frames_left
            && self.volume == other.volume
            && self.phase == other.phase
            && self.buffer == other.buffer
    }
}

impl Eq for AudioChannel {}

impl AudioChannel {
    /// Creates a silent channel.
    pub fn new() -> AudioChannel {
        AudioChannel {
            freq_hz: 0,
            frames_left: 0,
            volume: 0,
            phase: 0,
            buffer: Vec::new(),
            // No snapshot has seen this channel yet.
            dirty: true,
        }
    }

    /// Starts a tone of `freq_hz` for `frames` video frames at `volume`.
    /// A new tone replaces any tone still sounding.
    pub fn tone(&mut self, freq_hz: u32, frames: u32, volume: i16) {
        self.freq_hz = freq_hz;
        self.frames_left = frames;
        self.volume = volume;
        self.dirty = true;
    }

    /// Stops any sounding tone immediately.
    pub fn silence(&mut self) {
        self.frames_left = 0;
        self.dirty = true;
    }

    /// `true` while a tone is sounding.
    pub fn is_active(&self) -> bool {
        self.frames_left > 0 && self.freq_hz > 0 && self.volume != 0
    }

    /// Renders the samples for one video frame at `cfps` frames/second and
    /// returns them. The buffer is valid until the next call.
    pub fn render_frame(&mut self, cfps: u32) -> &[i16] {
        let n = (SAMPLE_RATE / cfps.max(1)) as usize;
        self.buffer.clear();
        self.buffer.reserve(n);
        if self.is_active() {
            // Phase step in 1/65536 cycles per sample.
            let step = ((self.freq_hz as u64) << 16) / SAMPLE_RATE as u64;
            for _ in 0..n {
                self.phase = self.phase.wrapping_add(step as u32);
                let high = self.phase & 0x8000 != 0;
                self.buffer
                    .push(if high { self.volume } else { -self.volume });
            }
            self.frames_left -= 1;
            self.dirty = true;
        } else {
            self.buffer.resize(n, 0);
        }
        &self.buffer
    }

    /// Advances channel state by one video frame **without rendering**:
    /// the phase accumulator and tone countdown end up byte-identical to a
    /// [`AudioChannel::render_frame`] call, but no samples are produced
    /// and the last rendered buffer is left untouched (stale).
    ///
    /// This is the headless-resimulation path — O(1) instead of one
    /// wrapping add per sample, valid because `n` identical wrapping adds
    /// of the truncated step equal one wrapping add of `step * n`.
    pub fn advance_frame(&mut self, cfps: u32) {
        if self.is_active() {
            let n = SAMPLE_RATE / cfps.max(1);
            let step = (((self.freq_hz as u64) << 16) / SAMPLE_RATE as u64) as u32;
            self.phase = self.phase.wrapping_add(step.wrapping_mul(n));
            self.frames_left -= 1;
            self.dirty = true;
        }
    }

    /// Takes (returns and clears) the dirty flag.
    pub(crate) fn take_dirty(&mut self) -> bool {
        std::mem::replace(&mut self.dirty, false)
    }

    /// Re-marks the channel dirty (restore paths call this so the next
    /// incremental capture rewrites the audio region).
    pub(crate) fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// The most recently rendered frame of samples.
    pub fn last_frame(&self) -> &[i16] {
        &self.buffer
    }

    /// Serializes channel state (not the sample buffer) for save states.
    pub fn save(&self) -> [u8; 14] {
        let mut out = [0u8; 14];
        out[0..4].copy_from_slice(&self.freq_hz.to_le_bytes());
        out[4..8].copy_from_slice(&self.frames_left.to_le_bytes());
        out[8..10].copy_from_slice(&self.volume.to_le_bytes());
        out[10..14].copy_from_slice(&self.phase.to_le_bytes());
        out
    }

    /// Restores state written by [`AudioChannel::save`].
    pub fn load(&mut self, bytes: &[u8; 14]) {
        let [f0, f1, f2, f3, l0, l1, l2, l3, v0, v1, p0, p1, p2, p3] = *bytes;
        self.freq_hz = u32::from_le_bytes([f0, f1, f2, f3]);
        self.frames_left = u32::from_le_bytes([l0, l1, l2, l3]);
        self.volume = i16::from_le_bytes([v0, v1]);
        self.phase = u32::from_le_bytes([p0, p1, p2, p3]);
        self.dirty = true;
    }
}

impl Default for AudioChannel {
    fn default() -> Self {
        AudioChannel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_channel_renders_zeros() {
        let mut ch = AudioChannel::new();
        let f = ch.render_frame(60);
        assert_eq!(f.len(), 735);
        assert!(f.iter().all(|&s| s == 0));
    }

    #[test]
    fn tone_renders_square_wave_and_expires() {
        let mut ch = AudioChannel::new();
        ch.tone(1_000, 2, 100);
        assert!(ch.is_active());
        let f = ch.render_frame(60).to_vec();
        assert!(f.contains(&100) && f.contains(&-100));
        let _ = ch.render_frame(60);
        assert!(!ch.is_active());
        assert!(ch.render_frame(60).iter().all(|&s| s == 0));
    }

    #[test]
    fn silence_cuts_tone_short() {
        let mut ch = AudioChannel::new();
        ch.tone(440, 100, 50);
        ch.silence();
        assert!(!ch.is_active());
    }

    #[test]
    fn rendering_is_deterministic() {
        let run = || {
            let mut ch = AudioChannel::new();
            ch.tone(440, 3, 1000);
            let mut all = Vec::new();
            for _ in 0..3 {
                all.extend_from_slice(ch.render_frame(60));
            }
            all
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn save_load_roundtrip_preserves_phase() {
        let mut a = AudioChannel::new();
        a.tone(440, 10, 500);
        let _ = a.render_frame(60);
        let saved = a.save();

        let mut b = AudioChannel::new();
        b.load(&saved);
        assert_eq!(a.render_frame(60), b.render_frame(60));
    }

    #[test]
    fn advance_frame_matches_render_frame_state_exactly() {
        // Walk both paths through active frames, tone expiry, and idle
        // frames: serialized channel state must stay byte-identical.
        let mut rendered = AudioChannel::new();
        let mut advanced = AudioChannel::new();
        rendered.tone(443, 3, 750); // odd frequency: truncated phase step
        advanced.tone(443, 3, 750);
        for _ in 0..6 {
            let _ = rendered.render_frame(60);
            advanced.advance_frame(60);
            assert_eq!(rendered.save(), advanced.save());
        }
        // And a subsequent presented frame renders identical samples.
        rendered.tone(440, 2, 500);
        advanced.tone(440, 2, 500);
        let _ = rendered.render_frame(60);
        advanced.advance_frame(60);
        assert_eq!(
            rendered.render_frame(60).to_vec(),
            advanced.render_frame(60)
        );
    }

    #[test]
    fn dirty_flag_tracks_state_changes() {
        let mut ch = AudioChannel::new();
        assert!(ch.take_dirty(), "fresh channel starts dirty");
        assert!(!ch.take_dirty());
        let _ = ch.render_frame(60); // inactive: serialized state unchanged
        assert!(!ch.take_dirty());
        ch.tone(440, 2, 100);
        assert!(ch.take_dirty());
        let _ = ch.render_frame(60); // active: phase and countdown advance
        assert!(ch.take_dirty());
        ch.advance_frame(60); // expires the tone
        assert!(ch.take_dirty());
        ch.advance_frame(60); // inactive advance is a state no-op
        assert!(!ch.take_dirty());
        ch.load(&[0u8; 14]);
        assert!(ch.take_dirty(), "restore re-marks");
    }

    #[test]
    fn frequency_roughly_honoured() {
        let mut ch = AudioChannel::new();
        ch.tone(1_000, 1, 100);
        let f = ch.render_frame(60);
        // Count zero crossings: a 1kHz square over 1/60s has ~33 edges.
        let crossings = f.windows(2).filter(|w| w[0] != w[1]).count();
        assert!((25..45).contains(&crossings), "crossings={crossings}");
    }
}
