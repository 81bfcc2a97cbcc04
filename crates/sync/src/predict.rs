//! Remote-input prediction policies.
//!
//! When a frame must execute before a remote site's partial input has
//! arrived, the session asks an [`InputPredictor`] to guess it. The
//! default, [`RepeatLast`], repeats the site's most recent authoritative
//! partial — human button presses persist for many frames, so the guess is
//! usually right and most speculated frames never need a rollback.

use coplay_vm::InputWord;

/// A policy for guessing a remote site's partial input.
///
/// `predict` receives the site, the frame being speculated, and the most
/// recent *authoritative* partial received from that site (`None` before
/// anything arrived). The returned word is masked to the site's input bits
/// by the caller, so a sloppy predictor cannot inject foreign buttons.
pub trait InputPredictor {
    /// Guesses `site`'s partial input for `frame`.
    fn predict(&mut self, site: u8, frame: u64, last_authoritative: Option<InputWord>)
        -> InputWord;
}

/// Repeats the site's last authoritative partial input (the classic
/// rollback-netcode default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepeatLast;

impl InputPredictor for RepeatLast {
    fn predict(&mut self, _site: u8, _frame: u64, last: Option<InputWord>) -> InputWord {
        last.unwrap_or(InputWord::NONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_last_echoes_the_latest_partial() {
        let mut p = RepeatLast;
        assert_eq!(p.predict(1, 10, None), InputWord::NONE);
        assert_eq!(p.predict(1, 11, Some(InputWord(0x0300))), InputWord(0x0300));
    }
}
