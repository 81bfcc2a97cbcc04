//! Algorithm 2 of the paper: `SyncInput`, the logical-consistency engine.
//!
//! The engine is *sans-io*: it never touches a socket or a clock. The
//! driver feeds it timestamps, local inputs, and received messages; it hands
//! back messages to transmit and, once the exit condition holds, the merged
//! input for the next frame. The same code therefore runs under the
//! deterministic simulator and the real-time UDP runner.
//!
//! Correspondence to the paper's pseudocode:
//!
//! * lines 1–5 (buffer the local partial input with `BufFrame` lag) →
//!   [`InputSync::begin_frame`],
//! * lines 7–11 (send `sd` if new info exists) → [`InputSync::outgoing`],
//! * lines 12–20 (receive `rc`, update `IBuf`, `LastRcvFrame`,
//!   `LastAckFrame`) → [`InputSync::on_message`],
//! * line 21's exit condition → [`InputSync::ready`],
//! * lines 22–23 (deliver `IBuf[IBufPointer++]`) → [`InputSync::take`].
//!
//! Extensions beyond the two-site ICDCS algorithm (flagged in DESIGN.md):
//! full-mesh N-site sessions and input-less observer sites, both from the
//! journal version's feature list.

use std::collections::BTreeMap;

use coplay_clock::SimTime;
use coplay_telemetry::{EventKind, SpanStage};
use coplay_vm::InputWord;

use crate::config::SyncConfig;
use crate::input_buffer::InputBuffer;
use crate::wire::InputMsg;

/// Site number used by observers (they own no input bits and nobody waits
/// for them).
pub const OBSERVER_SITE: u8 = 0xFE;

/// Frames of input history every site retains past full acknowledgement,
/// so latecomers can be served without unbounded memory (extension; the
/// ICDCS algorithm assumes an unlimited buffer).
pub const RETAIN_FRAMES: u64 = 128;

/// What the slave knows about the master's progress, for Algorithm 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterObservation {
    /// The master's `LastRcvFrame[0]` as seen by this site (this counts the
    /// local lag: the master buffered its input for this lagged frame).
    pub master_lagged_frame: u64,
    /// When the message that last advanced it arrived (`MasterRcvTime`).
    pub rcv_time: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct PeerState {
    /// `LastRcvFrame[p]`: partial inputs from `p` received contiguously up
    /// to this frame. Only meaningful for player peers.
    last_rcv: u64,
    /// `LastAckFrame[p]`: the last of *our* partials `p` has acknowledged.
    last_ack: u64,
    /// Highest local frame ever transmitted to `p` (telemetry only: frames
    /// at or below this in a later message are retransmissions).
    last_sent: u64,
    /// We owe `p` a fresh ack (we received something since our last send).
    need_ack: bool,
    /// `p` has delivered at least one input frame.
    heard: bool,
}

/// What [`InputSync::on_message`] learned from one incoming message
/// (telemetry/statistics; callers that only care about protocol state can
/// ignore it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecvOutcome {
    /// Payload frames the message carried.
    pub carried: u32,
    /// How many of those frames were new to this site.
    pub fresh: u32,
    /// `true` if the message carried payload but not a single new frame —
    /// a pure duplicate (retransmission overlap or network duplication).
    pub duplicate: bool,
}

/// The logical-consistency engine (Algorithm 2), generalized to N sites
/// plus observers.
///
/// # Examples
///
/// Two engines wired back-to-back converge on every frame's input:
///
/// ```
/// use coplay_clock::SimTime;
/// use coplay_sync::{InputSync, SyncConfig};
/// use coplay_vm::InputWord;
///
/// let mut a = InputSync::new(SyncConfig::two_player(0));
/// let mut b = InputSync::new(SyncConfig::two_player(1));
///
/// for frame in 0..10 {
///     let now = SimTime::from_millis(frame * 25); // one frame per call
///     a.begin_frame(frame, InputWord(0x01), now);
///     b.begin_frame(frame, InputWord(0x0200), now);
///     for (_, m) in a.outgoing(now) { b.on_message(&m, now); }
///     for (_, m) in b.outgoing(now) { a.on_message(&m, now); }
///     assert!(a.ready() && b.ready());
///     assert_eq!(a.take(), b.take());
/// }
/// ```
#[derive(Debug)]
pub struct InputSync {
    cfg: SyncConfig,
    buf: InputBuffer,
    /// The paper's `IBufPointer`.
    pointer: u64,
    /// `LastRcvFrame[MySiteNo]`: highest local frame buffered.
    my_last_buffered: u64,
    peers: BTreeMap<u8, PeerState>,
    next_send: SimTime,
    master_rcv_time: Option<SimTime>,
}

impl InputSync {
    /// Creates the engine for one site of a session starting at frame 0.
    pub fn new(cfg: SyncConfig) -> InputSync {
        InputSync::new_at(cfg, 0)
    }

    /// Creates the engine positioned at `start_frame` (latecomer join: the
    /// machine state was obtained from a snapshot taken at that frame).
    pub fn new_at(cfg: SyncConfig, start_frame: u64) -> InputSync {
        let init = if start_frame == 0 {
            cfg.buf_frames.saturating_sub(1)
        } else {
            start_frame - 1
        };
        let peers = cfg
            .peers()
            .map(|p| {
                (
                    p,
                    PeerState {
                        last_rcv: init,
                        last_ack: init,
                        last_sent: init,
                        need_ack: false,
                        heard: false,
                    },
                )
            })
            .collect();
        let mut buf = InputBuffer::new(cfg.num_sites);
        buf.prune_below(start_frame);
        InputSync {
            buf,
            pointer: start_frame,
            my_last_buffered: init,
            peers,
            next_send: SimTime::ZERO,
            master_rcv_time: None,
            cfg,
        }
    }

    /// Registers an additional destination (an observer, or a late-joining
    /// player already counted in `num_sites`) whose retransmission state
    /// starts at `joined_frame`.
    pub fn add_peer(&mut self, site: u8, joined_frame: u64) {
        let init = joined_frame.max(1) - 1;
        self.peers.entry(site).or_insert(PeerState {
            last_rcv: init,
            last_ack: init,
            last_sent: init,
            need_ack: false,
            heard: false,
        });
    }

    /// Removes a destination (an observer that left).
    pub fn remove_peer(&mut self, site: u8) {
        self.peers.remove(&site);
    }

    /// `true` if this site contributes input bits.
    pub fn is_player(&self) -> bool {
        self.cfg.my_site < self.cfg.num_sites
    }

    /// The paper's `IBufPointer`: the next frame to be delivered.
    pub fn pointer(&self) -> u64 {
        self.pointer
    }

    /// `LastRcvFrame[site]` for a player peer (test/metrics hook).
    pub fn last_rcv(&self, site: u8) -> Option<u64> {
        self.peers.get(&site).map(|p| p.last_rcv)
    }

    /// `true` once `site` has delivered at least one input frame.
    pub fn heard_from(&self, site: u8) -> bool {
        self.peers.get(&site).is_some_and(|p| p.heard)
    }

    /// `LastAckFrame[site]` (test/metrics hook).
    pub fn last_ack(&self, site: u8) -> Option<u64> {
        self.peers.get(&site).map(|p| p.last_ack)
    }

    /// Lines 1–5: buffer the local partial input for `frame + BufFrame`.
    ///
    /// Call exactly once per frame, before polling. `now` only stamps the
    /// trace span.
    pub fn begin_frame(&mut self, frame: u64, local: InputWord, now: SimTime) {
        debug_assert_eq!(frame, self.pointer, "one begin_frame per frame");
        if self.is_player() {
            let lag_f = frame + self.cfg.buf_frames;
            if self.my_last_buffered < lag_f {
                let partial = self.cfg.port_map.partial_input(self.cfg.my_site, local);
                self.buf.set_partial(lag_f, self.cfg.my_site, partial);
                self.my_last_buffered = lag_f;
                self.cfg
                    .telemetry
                    .span(now, SpanStage::Sampled, lag_f, self.cfg.my_site);
            }
        }
    }

    /// Line 21's exit condition: every player peer's partial input for the
    /// current frame has arrived.
    pub fn ready(&self) -> bool {
        self.peers
            .iter()
            .filter(|(&site, _)| site < self.cfg.num_sites)
            .all(|(_, p)| p.last_rcv >= self.pointer)
    }

    /// Lines 22–23: deliver `IBuf[IBufPointer]` and advance the pointer.
    ///
    /// # Panics
    ///
    /// Panics if called while [`InputSync::ready`] is false — delivering an
    /// incomplete frame would violate logical consistency.
    pub fn take(&mut self) -> InputWord {
        assert!(self.ready(), "SyncInput exit condition not met");
        let word = self.buf.merged(self.pointer, &self.cfg.port_map);
        self.advance();
        word
    }

    /// Advances the pointer past the current frame *without* requiring the
    /// exit condition — the second half of `take`, used by the session,
    /// which merges inputs (predicted ones too, when speculating) itself. Prunes the
    /// buffer exactly as `take` does (the prune floor already accounts for
    /// unacked and unreceived frames, so speculation never drops state a
    /// later rollback needs).
    pub fn advance(&mut self) {
        self.pointer += 1;
        // Frames both delivered and universally acked can be dropped —
        // except for a bounded retention window kept for latecomer joins.
        let min_needed = self
            .peers
            .values()
            .map(|p| p.last_ack + 1)
            .min()
            .unwrap_or(self.pointer)
            .min(self.pointer);
        let retain_floor = self.pointer.saturating_sub(RETAIN_FRAMES);
        self.buf.prune_below(min_needed.min(retain_floor));
    }

    /// The confirmed-input frontier: the highest frame for which *every*
    /// player peer's partial input has arrived. Frames at or below it are
    /// authoritative; frames above it need prediction to execute.
    pub fn authoritative_frontier(&self) -> u64 {
        self.peers
            .iter()
            .filter(|(&site, _)| site < self.cfg.num_sites)
            .map(|(_, p)| p.last_rcv)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// `true` if `site`'s partial input for `frame` has arrived (or was
    /// buffered locally).
    pub fn has_authoritative(&self, frame: u64, site: u8) -> bool {
        self.buf.has(frame, site)
    }

    /// `site`'s buffered partial input for `frame` (empty when absent —
    /// check [`InputSync::has_authoritative`] to distinguish).
    pub fn authoritative_partial(&self, frame: u64, site: u8) -> InputWord {
        self.buf.partial(frame, site)
    }

    /// Merges the buffered partials for `frame` under the port map,
    /// treating absent sites as no input (a speculative session substitutes
    /// predictions for those).
    pub fn merged_input(&self, frame: u64) -> InputWord {
        self.buf.merged(frame, &self.cfg.port_map)
    }

    /// Lines 7–11: the messages to transmit now, if the send pacing allows
    /// and new information exists. Returns `(destination, message)` pairs.
    pub fn outgoing(&mut self, now: SimTime) -> Vec<(u8, InputMsg)> {
        if now < self.next_send {
            // detlint: allow(hot_alloc) -- empty Vec::new() does not touch the heap
            return Vec::new();
        }
        // detlint: allow(hot_alloc) -- non-empty only on paced sends, a few times per second
        let mut out = Vec::new();
        let my_site = self.cfg.my_site;
        let my_last = self.my_last_buffered;
        let max_frames = self.cfg.max_payload_frames;
        // Collect (site, ack, first..=last) first; building payloads needs &self.buf.
        let plans: Vec<(u8, u64, u64, u64)> = self
            .peers
            .iter()
            .filter_map(|(&site, p)| {
                let first = p.last_ack + 1;
                let has_inputs = self.is_player() && my_last >= first;
                if !has_inputs && !p.need_ack {
                    return None;
                }
                let ack = if site < self.cfg.num_sites {
                    p.last_rcv
                } else {
                    // Observers send nothing; ack what we've delivered.
                    self.pointer.max(1) - 1
                };
                let last = if has_inputs {
                    my_last.min(first + max_frames as u64 - 1)
                } else {
                    first - 1 // empty payload (pure ack)
                };
                Some((site, ack, first, last))
            })
            .collect();
        for (site, ack, first, last) in plans {
            let inputs = if last >= first {
                self.buf.partial_range(my_site, first..=last)
            } else {
                // detlint: allow(hot_alloc) -- empty Vec::new() does not touch the heap
                Vec::new()
            };
            let count = inputs.len() as u32;
            out.push((
                site,
                InputMsg {
                    from: my_site,
                    ack,
                    first,
                    inputs,
                },
            ));
            let mut retransmitted = 0u32;
            if let Some(p) = self.peers.get_mut(&site) {
                p.need_ack = false;
                if last >= first {
                    if p.last_sent >= first {
                        retransmitted = (p.last_sent.min(last) - first + 1) as u32;
                    }
                    // Span chain: frames past the previous send high-water
                    // mark leave this site for the first time. Retransmits
                    // get no span — the chain tracks first transmission.
                    if self.cfg.telemetry.is_tracing() {
                        for f in p.last_sent.max(first - 1) + 1..=last {
                            self.cfg.telemetry.span(now, SpanStage::Encoded, f, site);
                            self.cfg.telemetry.span(now, SpanStage::Sent, f, site);
                        }
                    }
                    p.last_sent = p.last_sent.max(last);
                }
            }
            self.cfg.telemetry.record(
                now,
                EventKind::InputSent {
                    to: site,
                    first,
                    count,
                    retransmitted,
                },
            );
        }
        if !out.is_empty() {
            self.next_send = now + self.cfg.send_interval;
        }
        out
    }

    /// Lines 12–20: integrate a received message.
    ///
    /// The returned [`RecvOutcome`] summarizes what the message contributed
    /// (for telemetry/statistics); it is all-zero for messages from unknown
    /// senders or from this site itself.
    pub fn on_message(&mut self, msg: &InputMsg, now: SimTime) -> RecvOutcome {
        let from = msg.from;
        if from == self.cfg.my_site {
            return RecvOutcome::default();
        }
        let Some(peer) = self.peers.get_mut(&from) else {
            return RecvOutcome::default(); // unknown sender: drop, as with any open UDP port
        };
        let carried = msg.inputs.len() as u32;
        // Owe an ack only for messages that carried inputs: duplicates still
        // refresh the ack (the previous one may have been lost), while pure
        // acks never trigger responses (no ack ping-pong).
        if !msg.inputs.is_empty() {
            peer.need_ack = true;
        }

        // Line 13: fill IBuf with the received remote partials (duplicates
        // are ignored inside the buffer).
        let mut fresh = 0u32;
        if from < self.cfg.num_sites {
            for (i, &w) in msg.inputs.iter().enumerate() {
                self.buf.set_partial(msg.first + i as u64, from, w);
            }
            // Lines 14–16: advance LastRcvFrame[from]. Contiguity holds
            // because msg.first = (our ack they saw) + 1 <= last_rcv + 1.
            if !msg.inputs.is_empty() && msg.last() > peer.last_rcv {
                fresh = (msg.last() - peer.last_rcv).min(carried as u64) as u32;
                // Span chain: only the frames this message is the first to
                // deliver count as received (contiguity guarantees the
                // range starts within the message).
                if self.cfg.telemetry.is_tracing() {
                    for f in peer.last_rcv + 1..=msg.last() {
                        self.cfg.telemetry.span(now, SpanStage::Received, f, from);
                    }
                }
                peer.last_rcv = msg.last();
                peer.heard = true;
                if from == 0 && self.cfg.my_site != 0 {
                    self.master_rcv_time = Some(now);
                }
            }
        }

        // Lines 17–19: advance LastAckFrame[from].
        if msg.ack > peer.last_ack {
            peer.last_ack = msg.ack;
        }

        let duplicate = carried > 0 && fresh == 0;
        self.cfg.telemetry.record(
            now,
            EventKind::InputReceived {
                from,
                first: msg.first,
                count: carried,
                fresh,
                duplicate,
            },
        );
        RecvOutcome {
            carried,
            fresh,
            duplicate,
        }
    }

    /// What Algorithm 4 needs from the protocol state: the master's latest
    /// known lagged frame and when we learned it. `None` on the master or
    /// before any master message arrived.
    pub fn master_observation(&self) -> Option<MasterObservation> {
        if self.cfg.my_site == 0 {
            return None;
        }
        let rcv_time = self.master_rcv_time?;
        Some(MasterObservation {
            master_lagged_frame: self.peers.get(&0)?.last_rcv,
            rcv_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplay_clock::SimDuration;
    use coplay_vm::{Button, Player};

    fn now() -> SimTime {
        SimTime::ZERO
    }

    fn pair() -> (InputSync, InputSync) {
        (
            InputSync::new(SyncConfig::two_player(0)),
            InputSync::new(SyncConfig::two_player(1)),
        )
    }

    /// Drives both engines one frame with instant, lossless delivery.
    fn lockstep_frame(
        a: &mut InputSync,
        b: &mut InputSync,
        f: u64,
        ia: InputWord,
        ib: InputWord,
    ) -> (InputWord, InputWord) {
        let t = SimTime::from_millis(f * 25); // > send_interval so pacing never blocks
        a.begin_frame(f, ia, t);
        b.begin_frame(f, ib, t);
        for (_, m) in a.outgoing(t) {
            b.on_message(&m, t);
        }
        for (_, m) in b.outgoing(t) {
            a.on_message(&m, t);
        }
        assert!(a.ready() && b.ready(), "frame {f} not ready");
        (a.take(), b.take())
    }

    #[test]
    fn first_buf_frames_deliver_empty_inputs() {
        let (mut a, mut b) = pair();
        for f in 0..6 {
            let (wa, wb) = lockstep_frame(&mut a, &mut b, f, InputWord(0xFF), InputWord(0xFF00));
            assert_eq!(wa, InputWord::NONE, "frame {f} must be empty (local lag)");
            assert_eq!(wb, InputWord::NONE);
        }
    }

    #[test]
    fn inputs_appear_after_local_lag() {
        let (mut a, mut b) = pair();
        let mut ia = InputWord::NONE;
        ia.press(Player::ONE, Button::A);
        // Frame 0's inputs must surface exactly at frame 6.
        for f in 0..6 {
            let (wa, _) = lockstep_frame(&mut a, &mut b, f, ia, InputWord::NONE);
            assert_eq!(wa, InputWord::NONE);
        }
        let (wa, wb) = lockstep_frame(&mut a, &mut b, 6, ia, InputWord::NONE);
        assert!(wa.is_pressed(Player::ONE, Button::A));
        assert_eq!(wa, wb, "both sites deliver the identical merged word");
    }

    #[test]
    fn sites_see_identical_input_sequences() {
        let (mut a, mut b) = pair();
        let mut seq_a = Vec::new();
        let mut seq_b = Vec::new();
        for f in 0..100 {
            let ia = InputWord((f as u32).wrapping_mul(0x9E37_79B9) & 0xFF);
            let ib = InputWord(((f as u32).wrapping_mul(0x85EB_CA6B) & 0xFF) << 8);
            let (wa, wb) = lockstep_frame(&mut a, &mut b, f, ia, ib);
            seq_a.push(wa);
            seq_b.push(wb);
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn foreign_bits_in_local_input_are_stripped() {
        let (mut a, mut b) = pair();
        // Site 0 claims P2 buttons: they must not survive the merge.
        let mut dirty = InputWord::NONE;
        dirty.press(Player::TWO, Button::A);
        for f in 0..10 {
            let (wa, _) = lockstep_frame(&mut a, &mut b, f, dirty, InputWord::NONE);
            assert_eq!(wa, InputWord::NONE, "frame {f}");
        }
    }

    /// Advances both engines through the trivially-ready lag window
    /// *without any message exchange*, so tests control delivery precisely.
    fn warmup_isolated(a: &mut InputSync, b: &mut InputSync) {
        for f in 0..6 {
            let t = SimTime::from_millis(f * 25);
            a.begin_frame(f, InputWord::NONE, t);
            b.begin_frame(f, InputWord::NONE, t);
            let _ = a.take();
            let _ = b.take();
        }
    }

    #[test]
    fn not_ready_until_remote_arrives() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        let t = SimTime::from_secs(10);
        a.begin_frame(6, InputWord(1), t);
        assert!(!a.ready(), "remote partial for frame 6 not yet received");
        b.begin_frame(6, InputWord(0x0100), t);
        for (_, m) in b.outgoing(t) {
            a.on_message(&m, t);
        }
        assert!(a.ready());
    }

    #[test]
    #[should_panic(expected = "exit condition")]
    fn take_before_ready_panics() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        a.begin_frame(6, InputWord(1), now());
        let _ = a.take();
    }

    #[test]
    fn lost_messages_are_retransmitted() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        // Frame 6: b's message to a is "lost" (never delivered).
        let t1 = SimTime::from_secs(1);
        a.begin_frame(6, InputWord(1), t1);
        b.begin_frame(6, InputWord(0x0100), t1);
        let _lost = b.outgoing(t1);
        for (_, m) in a.outgoing(t1) {
            b.on_message(&m, t1);
        }
        assert!(!a.ready());
        assert!(b.ready());

        // After the send interval, b retransmits everything unacked.
        let t2 = t1 + SimDuration::from_millis(25);
        let again = b.outgoing(t2);
        assert!(!again.is_empty(), "unacked inputs must be retransmitted");
        for (_, m) in again {
            a.on_message(&m, t2);
        }
        assert!(a.ready());
        assert_eq!(a.last_rcv(1), Some(12), "b's buffered range arrived");
        // Frame 6's merged word is empty: the inputs pressed *at* frame 6
        // surface at frame 12 (local lag).
        assert_eq!(a.take(), InputWord::NONE);
    }

    #[test]
    fn duplicate_messages_are_harmless() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        let t = SimTime::from_secs(2);
        a.begin_frame(6, InputWord(1), t);
        b.begin_frame(6, InputWord(0x0100), t);
        let msgs = b.outgoing(t);
        for (_, m) in &msgs {
            a.on_message(m, t);
            a.on_message(m, t); // duplicate
            a.on_message(m, t); // triplicate
        }
        assert!(a.ready());
        assert_eq!(a.last_rcv(1), Some(12));
        // b's frame-6 press lives at lagged frame 12: frames 6..=11 merge
        // empty, then 12 carries exactly one copy of each side's press.
        for f in 6..12 {
            assert_eq!(a.take(), InputWord::NONE, "frame {f}");
        }
        assert_eq!(a.take(), InputWord(0x0101));
    }

    #[test]
    fn reordered_messages_preserve_contiguity() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        // a transmits once so b can execute ahead; b's replies are stashed
        // and delivered to a in reverse order later.
        let t0 = SimTime::from_secs(1);
        a.begin_frame(6, InputWord(1), t0);
        for (_, m) in a.outgoing(t0) {
            b.on_message(&m, t0); // b now holds a's partials 6..=12
        }
        let mut stash = Vec::new();
        for f in 6..9u64 {
            let t = t0 + SimDuration::from_millis((f - 5) * 25);
            b.begin_frame(f, InputWord(((f as u32) & 0xFF) << 8), t);
            stash.extend(b.outgoing(t).into_iter().map(|(_, m)| m));
            let _ = b.take();
        }
        // Deliver b's messages to a newest-first.
        let t = SimTime::from_secs(60);
        for m in stash.iter().rev() {
            a.on_message(m, t);
        }
        // b buffered lag frames up to 8 + 6 = 14; all arrived contiguously.
        assert_eq!(a.last_rcv(1), Some(14));
        for f in 6..=14u64 {
            assert!(a.buf.has(f, 1), "frame {f} present despite reordering");
        }
        assert!(a.ready());
    }

    #[test]
    fn send_pacing_limits_message_rate() {
        let (mut a, _) = pair();
        let t0 = SimTime::from_secs(5);
        a.begin_frame(0, InputWord(1), t0);
        assert!(!a.outgoing(t0).is_empty());
        let _ = a.take(); // frame 0 is trivially ready
                          // Within the 20ms window: silence, even with new frames buffered.
        let t1 = t0 + SimDuration::from_millis(10);
        a.begin_frame(1, InputWord(1), t1);
        assert!(a.outgoing(t1).is_empty(), "paced out");
        let t2 = t0 + SimDuration::from_millis(20);
        assert!(!a.outgoing(t2).is_empty());
    }

    #[test]
    fn quiescence_reaches_silence_without_ack_ping_pong() {
        let (mut a, mut b) = pair();
        for f in 0..6 {
            lockstep_frame(&mut a, &mut b, f, InputWord::NONE, InputWord::NONE);
        }
        // Let any pending ack flushes drain, delivering everything.
        let mut t = SimTime::from_secs(30);
        let mut total = 0;
        for _ in 0..10 {
            let msgs_a = a.outgoing(t);
            let msgs_b = b.outgoing(t);
            total += msgs_a.len() + msgs_b.len();
            for (_, m) in msgs_a {
                b.on_message(&m, t);
            }
            for (_, m) in msgs_b {
                a.on_message(&m, t);
            }
            t += SimDuration::from_millis(25);
        }
        assert!(total <= 4, "ack traffic must die out, saw {total} messages");
        assert!(a.outgoing(t).is_empty());
        assert!(b.outgoing(t + SimDuration::from_millis(25)).is_empty());
    }

    #[test]
    fn master_observation_tracks_latest_master_frame() {
        let (mut a, mut b) = pair();
        assert_eq!(a.master_observation(), None, "master observes nobody");
        assert_eq!(b.master_observation(), None, "nothing heard yet");
        let t = SimTime::from_millis(123);
        a.begin_frame(0, InputWord(1), t);
        for (_, m) in a.outgoing(t) {
            b.on_message(&m, t);
        }
        let obs = b.master_observation().expect("heard the master");
        assert_eq!(obs.master_lagged_frame, 6); // frame 0 + BufFrame
        assert_eq!(obs.rcv_time, t);
    }

    #[test]
    fn three_site_session_requires_all_inputs() {
        let mut sites: Vec<InputSync> = (0..3)
            .map(|s| InputSync::new(SyncConfig::n_player(s, 3)))
            .collect();
        for f in 0..20u64 {
            let t = SimTime::from_millis(f * 25);
            for (s, sync) in sites.iter_mut().enumerate() {
                sync.begin_frame(f, InputWord((s as u32 + 1) << (8 * s)), t);
            }
            // Exchange full mesh.
            let mut msgs: Vec<(u8, u8, InputMsg)> = Vec::new();
            for sync in sites.iter_mut() {
                for (dst, m) in sync.outgoing(t) {
                    msgs.push((m.from, dst, m));
                }
            }
            for (_, dst, m) in &msgs {
                sites[*dst as usize].on_message(m, t);
            }
            let words: Vec<InputWord> = sites.iter_mut().map(|s| s.take()).collect();
            assert_eq!(words[0], words[1]);
            assert_eq!(words[1], words[2]);
            if f >= 6 {
                assert_eq!(words[0], InputWord(0x0003_0201));
            }
        }
    }

    #[test]
    fn observer_follows_without_contributing() {
        let mut a = InputSync::new(SyncConfig::two_player(0));
        let mut b = InputSync::new(SyncConfig::two_player(1));
        let mut cfg_o = SyncConfig::two_player(0);
        cfg_o.my_site = OBSERVER_SITE;
        let mut o = InputSync::new(cfg_o);
        assert!(!o.is_player());
        // Players must learn the observer exists to retransmit to it.
        a.add_peer(OBSERVER_SITE, 0);
        b.add_peer(OBSERVER_SITE, 0);

        for f in 0..20u64 {
            let t = SimTime::from_millis(f * 25);
            a.begin_frame(f, InputWord(0x11), t);
            b.begin_frame(f, InputWord(0x2200), t);
            o.begin_frame(f, InputWord(0xFFFF_FFFF), t); // ignored
            let deliver = |msgs: Vec<(u8, InputMsg)>,
                           t: SimTime,
                           a: &mut InputSync,
                           b: &mut InputSync,
                           o: &mut InputSync| {
                for (dst, m) in msgs {
                    match dst {
                        0 => a.on_message(&m, t),
                        1 => b.on_message(&m, t),
                        OBSERVER_SITE => o.on_message(&m, t),
                        _ => unreachable!(),
                    };
                }
            };
            let ma = a.outgoing(t);
            let mb = b.outgoing(t);
            let mo = o.outgoing(t);
            deliver(ma, t, &mut a, &mut b, &mut o);
            deliver(mb, t, &mut a, &mut b, &mut o);
            deliver(mo, t, &mut a, &mut b, &mut o);
            let wa = a.take();
            let wb = b.take();
            assert!(o.ready(), "observer has both players' inputs");
            let wo = o.take();
            assert_eq!(wa, wb);
            assert_eq!(wb, wo, "observer replays the identical sequence");
            if f >= 6 {
                assert_eq!(wo, InputWord(0x2211));
            }
        }
    }

    #[test]
    fn buffer_is_pruned_to_the_retention_window() {
        let (mut a, mut b) = pair();
        for f in 0..600 {
            lockstep_frame(&mut a, &mut b, f, InputWord(1), InputWord(0x0100));
        }
        // Without pruning the buffer would hold 606 frames; with it, the
        // retention window (for latecomers) plus the in-flight tail.
        assert!(
            a.buf.len() as u64 <= RETAIN_FRAMES + 16,
            "buffer should stay bounded, holds {}",
            a.buf.len()
        );
        assert!(a.buf.len() as u64 >= RETAIN_FRAMES, "retention kept");
    }

    #[test]
    fn frontier_and_advance_support_speculation() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        // Nothing has arrived from b: the frontier sits at the init value.
        assert_eq!(a.authoritative_frontier(), 5);
        let t = SimTime::from_secs(1);
        a.begin_frame(6, InputWord(1), t);
        assert!(!a.ready());
        // A speculative driver advances anyway.
        a.advance();
        assert_eq!(a.pointer(), 7);
        // b's inputs arrive late and land behind the pointer.
        b.begin_frame(6, InputWord(0x0100), t);
        for (_, m) in b.outgoing(t) {
            a.on_message(&m, t);
        }
        assert_eq!(a.authoritative_frontier(), 12, "b buffered 6..=12");
        assert!(a.has_authoritative(6, 1));
        assert!(!a.has_authoritative(13, 1));
        assert_eq!(a.authoritative_partial(12, 1), InputWord(0x0100));
        // Frame 12 now has both sites' partials: the authoritative merge.
        assert_eq!(a.merged_input(12), InputWord(0x0101));
    }

    #[test]
    fn frontier_is_min_over_player_peers() {
        let mut sites: Vec<InputSync> = (0..3)
            .map(|s| InputSync::new(SyncConfig::n_player(s, 3)))
            .collect();
        let t = SimTime::ZERO;
        for (s, sync) in sites.iter_mut().enumerate() {
            sync.begin_frame(0, InputWord(1 << (8 * s)), t);
        }
        // Deliver only site 1's message to site 0; site 2 stays silent.
        let msgs = sites[1].outgoing(t);
        for (dst, m) in msgs {
            if dst == 0 {
                sites[0].on_message(&m, t);
            }
        }
        assert_eq!(sites[0].last_rcv(1), Some(6));
        assert_eq!(sites[0].last_rcv(2), Some(5));
        assert_eq!(sites[0].authoritative_frontier(), 5);
    }

    #[test]
    fn recv_outcome_reports_fresh_and_duplicate_frames() {
        let (mut a, mut b) = pair();
        warmup_isolated(&mut a, &mut b);
        let t = SimTime::from_secs(2);
        a.begin_frame(6, InputWord(1), t);
        b.begin_frame(6, InputWord(0x0100), t);
        for (_, m) in b.outgoing(t) {
            // b buffered lag frames 6..=12: seven frames, all new to a.
            let first = a.on_message(&m, t);
            assert_eq!(first.carried, 7);
            assert_eq!(first.fresh, 7);
            assert!(!first.duplicate);
            // The identical message again contributes nothing.
            let dup = a.on_message(&m, t);
            assert_eq!(dup.carried, 7);
            assert_eq!(dup.fresh, 0);
            assert!(dup.duplicate);
        }
        // A pure ack is neither fresh nor a duplicate.
        let outcome = a.on_message(
            &InputMsg {
                from: 1,
                ack: 6,
                first: 13,
                inputs: Vec::new(),
            },
            t,
        );
        assert_eq!(outcome, RecvOutcome::default());
    }

    #[test]
    fn telemetry_counts_retransmitted_frames_on_resend() {
        let mut cfg = SyncConfig::two_player(0);
        cfg.telemetry = coplay_telemetry::Telemetry::recording();
        let tel = cfg.telemetry.clone();
        let mut a = InputSync::new(cfg);
        let t1 = SimTime::from_secs(1);
        a.begin_frame(0, InputWord(1), t1);
        let _lost = a.outgoing(t1); // frame 6 (= 0 + lag) sent, never acked
        let t2 = t1 + SimDuration::from_millis(25);
        assert!(!a.outgoing(t2).is_empty(), "unacked frame retransmitted");
        let sent: Vec<(u32, u32)> = tel
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::InputSent {
                    count,
                    retransmitted,
                    ..
                } => Some((count, retransmitted)),
                _ => None,
            })
            .collect();
        assert_eq!(sent, vec![(1, 0), (1, 1)]);
        assert_eq!(tel.counter("input_messages_sent_total"), 2);
        assert_eq!(tel.counter("retransmitted_frames_sent_total"), 1);
    }

    #[test]
    fn payload_cap_is_respected_and_cumulative() {
        // a's outbound messages are all lost; b's arrive. a accumulates
        // unacked local inputs and must cap each (re)transmission at the
        // configured limit, always starting from the oldest unacked frame.
        let mut cfg = SyncConfig::two_player(0);
        cfg.max_payload_frames = 4;
        let mut a = InputSync::new(cfg);
        let mut b = InputSync::new(SyncConfig::two_player(1));
        for f in 0..=6u64 {
            let t = SimTime::from_millis(f * 25);
            a.begin_frame(f, InputWord(1), t);
            b.begin_frame(f, InputWord(0x0100), t);
            for (_, m) in a.outgoing(t) {
                assert!(m.inputs.len() <= 4, "cap violated: {}", m.inputs.len());
                assert_eq!(m.first, 6, "oldest unacked first (init ack = 5)");
                // lost: never delivered to b
            }
            for (_, m) in b.outgoing(t) {
                a.on_message(&m, t);
            }
            assert!(a.ready());
            let _ = a.take();
            if b.ready() {
                let _ = b.take();
            }
        }
        // b is now blocked at frame 6; a keeps retransmitting capped,
        // cumulative batches from frame 6.
        let t = SimTime::from_secs(9);
        let msgs = a.outgoing(t);
        assert!(!msgs.is_empty());
        for (_, m) in msgs {
            assert_eq!(m.first, 6);
            assert_eq!(m.inputs.len(), 4, "window 6..=9 under the cap");
        }
    }
}
