//! Legacy-style arcade games for coplay.
//!
//! The paper's approach is *game transparent*: any deterministic game VM can
//! be shared over the network unmodified. This crate supplies the games the
//! reproduction plays:
//!
//! * [`Pong`] — the canonical two-player TV game.
//! * [`Breakout`] — cooperative brick-breaking with two paddles.
//! * [`Brawler`] — a versus fighting game, the Street Fighter II stand-in
//!   used by the paper's evaluation testbed.
//! * [`Shooter`] — a cooperative fixed shooter (both players on one side).
//! * [`rom_pong`] / [`rom_race`] — games written in coplay console
//!   *assembly*, running on the emulated CPU of `coplay-vm` to exercise the
//!   full emulator path.
//!
//! All games implement [`coplay_vm::Machine`] and honour its determinism
//! contract: integer-only physics, seeded randomness captured in save
//! states, bit-identical replicas under identical input sequences.
//!
//! # Examples
//!
//! ```
//! use coplay_games::{GameId, catalog};
//! use coplay_vm::{InputWord, Machine};
//!
//! for id in catalog() {
//!     let mut game = id.create();
//!     game.step_frame(InputWord::NONE);
//!     assert_eq!(game.frame(), 1, "{id:?}");
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]
#![deny(clippy::float_arithmetic)]
#![deny(clippy::print_stdout)]

mod brawler;
mod breakout;
mod pong;
mod rom_games;
mod shooter;

pub use brawler::Brawler;
pub use breakout::Breakout;
pub use pong::Pong;
pub use rom_games::{rom_pong, rom_pong_console, rom_race, rom_race_console};
pub use shooter::Shooter;

use coplay_vm::Machine;

/// Identifies one of the bundled games.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GameId {
    /// Native Pong.
    Pong,
    /// Native cooperative Breakout.
    Breakout,
    /// Native fighting game.
    Brawler,
    /// Native cooperative shooter.
    Shooter,
    /// Assembly Pong on the emulated console.
    RomPong,
    /// Assembly button-race on the emulated console.
    RomRace,
}

impl GameId {
    /// Instantiates a fresh machine for this game.
    pub fn create(self) -> Box<dyn Machine> {
        match self {
            GameId::Pong => Box::new(Pong::new()),
            GameId::Breakout => Box::new(Breakout::new()),
            GameId::Brawler => Box::new(Brawler::new()),
            GameId::Shooter => Box::new(Shooter::new()),
            GameId::RomPong => Box::new(rom_pong_console()),
            GameId::RomRace => Box::new(rom_race_console()),
        }
    }

    /// The game's display name.
    pub fn name(self) -> &'static str {
        match self {
            GameId::Pong => "Pong",
            GameId::Breakout => "Breakout",
            GameId::Brawler => "Brawler",
            GameId::Shooter => "Shooter",
            GameId::RomPong => "ROM Pong",
            GameId::RomRace => "Button Race",
        }
    }

    /// Parses a name as produced by [`GameId::name`] (case-insensitive,
    /// spaces optional).
    pub fn from_name(name: &str) -> Option<GameId> {
        let n: String = name.to_ascii_lowercase().replace([' ', '-', '_'], "");
        Some(match n.as_str() {
            "pong" => GameId::Pong,
            "breakout" => GameId::Breakout,
            "brawler" => GameId::Brawler,
            "shooter" => GameId::Shooter,
            "rompong" => GameId::RomPong,
            "buttonrace" | "romrace" => GameId::RomRace,
            _ => return None,
        })
    }
}

impl std::fmt::Display for GameId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Every bundled game.
pub fn catalog() -> Vec<GameId> {
    vec![
        GameId::Pong,
        GameId::Breakout,
        GameId::Brawler,
        GameId::Shooter,
        GameId::RomPong,
        GameId::RomRace,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use coplay_vm::InputWord;

    #[test]
    fn catalog_creates_every_game() {
        for id in catalog() {
            let mut m = id.create();
            for _ in 0..10 {
                m.step_frame(InputWord::NONE);
            }
            assert_eq!(m.frame(), 10, "{id}");
        }
    }

    #[test]
    fn every_game_is_deterministic_from_catalog() {
        for id in catalog() {
            let script: Vec<InputWord> = (0..120u32)
                .map(|i| InputWord((i.wrapping_mul(0x9E37_79B9) >> 13) & 0x3F3F))
                .collect();
            let mut a = id.create();
            let mut b = id.create();
            for &w in &script {
                a.step_frame(w);
                b.step_frame(w);
            }
            assert_eq!(a.state_hash(), b.state_hash(), "{id}");
        }
    }

    #[test]
    fn every_game_save_load_roundtrips() {
        for id in catalog() {
            let mut a = id.create();
            for i in 0..60u32 {
                a.step_frame(InputWord(i & 0x0F));
            }
            let snap = a.save_state();
            let mut b = id.create();
            b.load_state(&snap).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(a.state_hash(), b.state_hash(), "{id}");
        }
    }

    #[test]
    fn every_game_save_state_into_matches_save_state() {
        for id in catalog() {
            let mut m = id.create();
            let mut buf = Vec::new();
            for i in 0..90u32 {
                m.step_frame(InputWord((i.wrapping_mul(0x9E37_79B9) >> 11) & 0x3F3F));
                // The buffer is reused across frames; every capture must
                // still be byte-identical to a fresh `save_state`.
                m.save_state_into(&mut buf);
                assert_eq!(buf, m.save_state(), "{id} frame {i}");
            }
        }
    }

    #[test]
    fn name_roundtrip() {
        for id in catalog() {
            assert_eq!(GameId::from_name(id.name()), Some(id), "{id}");
        }
        assert_eq!(GameId::from_name("nope"), None);
    }
}
