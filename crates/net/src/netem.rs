//! A Netem-style network impairment model.
//!
//! The paper's evaluation (§4) places a Linux box running the `netem`
//! queueing discipline between the two gaming PCs and sweeps the round-trip
//! time from 0 to 400 ms. This module reproduces netem's per-packet
//! behaviour — fixed delay, jitter drawn from a distribution, correlated
//! loss, duplication and reordering — driven by a seeded RNG so whole
//! experiments are reproducible.
//!
//! A [`NetemChannel`] models **one direction** of a link: feed it a packet's
//! send time and it answers with zero, one, or two delivery times.

// Network-facing code returns typed errors and never panics on what a
// socket or a peer hands it.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::rng::DetRng;
use coplay_clock::{SimDuration, SimTime};

/// Distribution from which per-packet jitter is drawn.
///
/// Real netem defaults to uniform and offers table-driven normal/pareto
/// distributions; these are the analytic equivalents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JitterDistribution {
    /// Uniform on `[-jitter, +jitter]` (netem's default).
    #[default]
    Uniform,
    /// Normal with `σ = jitter`, truncated at ±3σ like netem's table.
    Normal,
    /// Heavy-tailed: exponential with mean `jitter`, one-sided (late only),
    /// truncated at 6× the mean. Approximates netem's pareto table.
    HeavyTail,
}

/// Configuration of one direction of an impaired link.
///
/// Use the builder-style setters; the zero-impairment default is a perfect
/// wire.
///
/// # Examples
///
/// ```
/// use coplay_clock::SimDuration;
/// use coplay_net::NetemConfig;
///
/// // 70ms one-way delay +/- 3ms uniform jitter, 1% correlated loss.
/// let cfg = NetemConfig::new()
///     .delay(SimDuration::from_millis(70))
///     .jitter(SimDuration::from_millis(3))
///     .loss(0.01)
///     .loss_correlation(0.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NetemConfig {
    delay: SimDuration,
    jitter: SimDuration,
    jitter_dist: JitterDistribution,
    loss: f64,
    loss_correlation: f64,
    duplicate: f64,
    reorder: f64,
    tx_slice: SimDuration,
}

impl Default for NetemConfig {
    fn default() -> Self {
        NetemConfig {
            delay: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            jitter_dist: JitterDistribution::Uniform,
            loss: 0.0,
            loss_correlation: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            tx_slice: SimDuration::ZERO,
        }
    }
}

impl NetemConfig {
    /// A perfect wire: zero delay, no impairments.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience: a symmetric link whose **round-trip** time is `rtt`
    /// (each direction gets `rtt / 2`), as in the paper's sweeps.
    pub fn with_rtt(rtt: SimDuration) -> Self {
        Self::new().delay(rtt / 2)
    }

    /// Sets the base one-way delay.
    pub fn delay(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }

    /// Sets the jitter magnitude (interpretation depends on the
    /// [`JitterDistribution`]).
    pub fn jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Selects the jitter distribution.
    pub fn jitter_distribution(mut self, dist: JitterDistribution) -> Self {
        self.jitter_dist = dist;
        self
    }

    /// Sets the packet loss probability in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not within `[0, 1]`.
    pub fn loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0,1]");
        self.loss = loss;
        self
    }

    /// Sets the loss burst correlation in `[0, 1]` (0 = independent drops).
    ///
    /// # Panics
    ///
    /// Panics if `corr` is not within `[0, 1]`.
    pub fn loss_correlation(mut self, corr: f64) -> Self {
        assert!((0.0..=1.0).contains(&corr), "correlation must be in [0,1]");
        self.loss_correlation = corr;
        self
    }

    /// Sets the packet duplication probability in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `dup` is not within `[0, 1]`.
    pub fn duplicate(mut self, dup: f64) -> Self {
        assert!((0.0..=1.0).contains(&dup), "duplicate must be in [0,1]");
        self.duplicate = dup;
        self
    }

    /// Sets the reordering probability in `[0, 1]`: a reordered packet skips
    /// the jitter path and arrives after the base delay only, letting
    /// it overtake in-flight traffic (netem's `reorder` semantics).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn reorder(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "reorder must be in [0,1]");
        self.reorder = p;
        self
    }

    /// Adds a one-sided uniform delay in `[0, slice)` to every packet,
    /// modelling the sender-side thread time slice the paper's §4.2
    /// threshold decomposition charges 5 ms (half a 10 ms slice) to.
    pub fn tx_slice(mut self, slice: SimDuration) -> Self {
        self.tx_slice = slice;
        self
    }
}

/// What happened to one packet offered to a [`NetemChannel`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PacketFate {
    /// Times at which copies of the packet arrive (empty = dropped;
    /// two entries = duplicated).
    pub deliveries: Vec<SimTime>,
    /// The packet was dropped by the loss process.
    pub lost: bool,
    /// Always `false`: the model has no rate-limiter queue to overflow.
    /// Kept only because the frozen `e2e-bench` shim still reads it.
    pub overflowed: bool,
    /// The packet took the reorder fast path.
    pub reordered: bool,
}

/// Per-channel running counters, for experiment reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Packets offered to the channel.
    pub offered: u64,
    /// Packet copies scheduled for delivery (>= delivered packets).
    pub delivered: u64,
    /// Packets dropped by the loss process.
    pub lost: u64,
    /// Extra copies created by duplication.
    pub duplicated: u64,
    /// Packets that took the reorder fast path.
    pub reordered: u64,
}

/// One direction of an impaired link: applies [`NetemConfig`] to each packet.
///
/// # Examples
///
/// ```
/// use coplay_clock::{SimDuration, SimTime};
/// use coplay_net::{NetemChannel, NetemConfig};
///
/// let cfg = NetemConfig::new().delay(SimDuration::from_millis(50));
/// let mut ch = NetemChannel::new(cfg, 7);
/// let fate = ch.process(SimTime::ZERO, 64);
/// assert_eq!(fate.deliveries, vec![SimTime::from_millis(50)]);
/// ```
#[derive(Debug)]
pub struct NetemChannel {
    config: NetemConfig,
    rng: DetRng,
    last_lost: bool,
    stats: ChannelStats,
}

impl NetemChannel {
    /// Creates a channel applying `config`, with RNG seeded by `seed`.
    pub fn new(config: NetemConfig, seed: u64) -> Self {
        NetemChannel {
            config,
            rng: DetRng::seed_from_u64(seed),
            last_lost: false,
            stats: ChannelStats::default(),
        }
    }

    /// The channel's configuration.
    pub fn config(&self) -> &NetemConfig {
        &self.config
    }

    /// Replaces the impairment configuration mid-run (links can be degraded
    /// during an experiment).
    pub fn set_config(&mut self, config: NetemConfig) {
        self.config = config;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Decides the fate of one packet entering at `now`. The fate does not
    /// depend on the packet's size; `_size` stays because callers (the
    /// `e2e-bench` shim among them) pass it.
    pub fn process(&mut self, now: SimTime, _size: usize) -> PacketFate {
        self.stats.offered += 1;
        let mut fate = PacketFate::default();

        // 1. Loss, as a two-state Markov chain whose stationary probability
        // equals `loss` and whose burstiness grows with `loss_correlation`.
        if self.config.loss > 0.0 {
            let p = if self.last_lost {
                self.config.loss + (1.0 - self.config.loss) * self.config.loss_correlation
            } else {
                self.config.loss * (1.0 - self.config.loss_correlation)
            };
            if self.rng.next_f64() < p {
                self.last_lost = true;
                self.stats.lost += 1;
                fate.lost = true;
                return fate;
            }
            self.last_lost = false;
        }

        // 2. Reorder fast path: base delay only, may overtake jittered traffic.
        let reordered = self.config.reorder > 0.0 && self.rng.next_f64() < self.config.reorder;
        let delivery = if reordered {
            self.stats.reordered += 1;
            fate.reordered = true;
            now + self.config.delay
        } else {
            now + self.sample_total_delay()
        };
        fate.deliveries.push(delivery);
        self.stats.delivered += 1;

        // 3. Duplication: netem emits the copy back-to-back with the original.
        if self.config.duplicate > 0.0 && self.rng.next_f64() < self.config.duplicate {
            fate.deliveries
                .push(delivery + SimDuration::from_micros(100));
            self.stats.duplicated += 1;
            self.stats.delivered += 1;
        }

        fate
    }

    /// Samples `delay + tx_slice + jitter`, clamped so the total is never
    /// negative.
    fn sample_total_delay(&mut self) -> SimDuration {
        let slice = self.config.tx_slice.as_micros();
        let slice_extra = if slice == 0 {
            0
        } else {
            self.rng.range_u64(slice)
        };
        let base = (self.config.delay.as_micros() + slice_extra) as f64;
        let j = self.config.jitter.as_micros();
        if j == 0 {
            return self.config.delay + SimDuration::from_micros(slice_extra);
        }
        let jf = j as f64;
        let offset: f64 = match self.config.jitter_dist {
            JitterDistribution::Uniform => self.rng.range_f64(-jf, jf),
            JitterDistribution::Normal => {
                // Box-Muller, truncated at +/-3 sigma like netem's table.
                let u1: f64 = self.rng.next_f64().max(f64::MIN_POSITIVE);
                let u2: f64 = self.rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (z * jf).clamp(-3.0 * jf, 3.0 * jf)
            }
            JitterDistribution::HeavyTail => {
                let u: f64 = self.rng.next_f64().max(f64::MIN_POSITIVE);
                (-u.ln() * jf).min(6.0 * jf)
            }
        };
        SimDuration::from_micros((base + offset).max(0.0).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn perfect_wire_delivers_immediately() {
        let mut ch = NetemChannel::new(NetemConfig::new(), 1);
        let fate = ch.process(SimTime::from_millis(10), 100);
        assert_eq!(fate.deliveries, vec![SimTime::from_millis(10)]);
        assert!(!fate.lost);
    }

    #[test]
    fn with_rtt_splits_delay() {
        let cfg = NetemConfig::with_rtt(ms(140));
        assert_eq!(cfg.delay, ms(70));
    }

    #[test]
    fn fixed_delay_applied() {
        let mut ch = NetemChannel::new(NetemConfig::new().delay(ms(30)), 1);
        let fate = ch.process(SimTime::ZERO, 100);
        assert_eq!(fate.deliveries, vec![SimTime::from_millis(30)]);
    }

    #[test]
    fn loss_rate_is_approximately_honoured() {
        let mut ch = NetemChannel::new(NetemConfig::new().loss(0.2), 42);
        let n = 20_000;
        let mut lost = 0;
        for i in 0..n {
            if ch.process(SimTime::from_micros(i), 100).lost {
                lost += 1;
            }
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed loss {rate}");
    }

    #[test]
    fn correlated_loss_keeps_stationary_rate_but_bursts() {
        let mut ch = NetemChannel::new(NetemConfig::new().loss(0.1).loss_correlation(0.8), 42);
        let n = 50_000;
        let mut lost = 0;
        let mut bursts = 0;
        let mut prev = false;
        for i in 0..n {
            let l = ch.process(SimTime::from_micros(i), 100).lost;
            if l {
                lost += 1;
                if prev {
                    bursts += 1;
                }
            }
            prev = l;
        }
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "stationary rate {rate}");
        // With correlation 0.8 most losses are inside bursts.
        assert!(
            bursts as f64 / lost as f64 > 0.5,
            "burstiness {} of {}",
            bursts,
            lost
        );
    }

    #[test]
    fn duplication_produces_two_copies() {
        let mut ch = NetemChannel::new(NetemConfig::new().duplicate(1.0), 1);
        let fate = ch.process(SimTime::ZERO, 100);
        assert_eq!(fate.deliveries.len(), 2);
        assert!(fate.deliveries[1] > fate.deliveries[0]);
    }

    #[test]
    fn uniform_jitter_stays_in_bounds() {
        let cfg = NetemConfig::new().delay(ms(50)).jitter(ms(10));
        let mut ch = NetemChannel::new(cfg, 9);
        for i in 0..5_000u64 {
            let fate = ch.process(SimTime::from_millis(i * 100), 100);
            let d = fate.deliveries[0] - SimTime::from_millis(i * 100);
            assert!(d >= ms(40) && d <= ms(60), "delay {d}");
        }
    }

    #[test]
    fn normal_jitter_truncated_at_three_sigma() {
        let cfg = NetemConfig::new()
            .delay(ms(50))
            .jitter(ms(5))
            .jitter_distribution(JitterDistribution::Normal);
        let mut ch = NetemChannel::new(cfg, 9);
        for i in 0..5_000u64 {
            let fate = ch.process(SimTime::from_millis(i * 100), 100);
            let d = fate.deliveries[0] - SimTime::from_millis(i * 100);
            assert!(d >= ms(35) && d <= ms(65), "delay {d}");
        }
    }

    #[test]
    fn heavy_tail_jitter_is_one_sided_late() {
        let cfg = NetemConfig::new()
            .delay(ms(50))
            .jitter(ms(5))
            .jitter_distribution(JitterDistribution::HeavyTail);
        let mut ch = NetemChannel::new(cfg, 9);
        for i in 0..2_000u64 {
            let fate = ch.process(SimTime::from_millis(i * 100), 100);
            let d = fate.deliveries[0] - SimTime::from_millis(i * 100);
            assert!(d >= ms(50) && d <= ms(80), "delay {d}");
        }
    }

    #[test]
    fn jitter_can_reorder() {
        let cfg = NetemConfig::new().delay(ms(50)).jitter(ms(20));
        let mut ch = NetemChannel::new(cfg, 3);
        let mut prev = SimTime::ZERO;
        let mut inversions = 0;
        for i in 0..1_000u64 {
            let t = SimTime::from_micros(i * 500);
            let d = ch.process(t, 100).deliveries[0];
            if d < prev {
                inversions += 1;
            }
            prev = d;
        }
        assert!(inversions > 0, "expected natural reordering under jitter");
    }

    #[test]
    fn reorder_fast_path_overtakes() {
        let cfg = NetemConfig::new()
            .delay(ms(10))
            .jitter(ms(40))
            .jitter_distribution(JitterDistribution::HeavyTail)
            .reorder(0.3);
        let mut ch = NetemChannel::new(cfg, 11);
        let mut reordered = 0;
        for i in 0..2_000u64 {
            let fate = ch.process(SimTime::from_millis(i), 100);
            if fate.reordered {
                reordered += 1;
                let d = fate.deliveries[0] - SimTime::from_millis(i);
                assert_eq!(d, ms(10), "fast path must use base delay only");
            }
        }
        let rate = reordered as f64 / 2_000.0;
        assert!((rate - 0.3).abs() < 0.05, "reorder rate {rate}");
    }

    #[test]
    fn stats_accumulate() {
        let mut ch = NetemChannel::new(NetemConfig::new().loss(0.5), 5);
        for i in 0..1_000 {
            ch.process(SimTime::from_micros(i), 64);
        }
        let s = ch.stats();
        assert_eq!(s.offered, 1_000);
        assert_eq!(s.offered, s.delivered + s.lost);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let cfg = NetemConfig::new()
            .delay(ms(20))
            .jitter(ms(10))
            .loss(0.1)
            .duplicate(0.05);
        let run = |seed| {
            let mut ch = NetemChannel::new(cfg.clone(), seed);
            (0..500u64)
                .map(|i| ch.process(SimTime::from_millis(i), 100))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    #[should_panic(expected = "loss must be in [0,1]")]
    fn invalid_loss_rejected() {
        let _ = NetemConfig::new().loss(1.5);
    }
}
