//! Pre-decoded clause-head streams: the [`ClauseArena`].
//!
//! Compiling a predicate serializes every clause into a length-prefixed
//! [`ClauseRecord`](clare_pif::ClauseRecord) laid out on disk tracks.
//! At retrieval time the FS2 sweep needs only each record's PIF *head
//! stream*, yet re-parsing the record bytes — head stream plus the full
//! clause term — for every clause of every retrieval is pure host
//! overhead the real hardware never pays (the Double Buffer hands the
//! engine already-framed words). So the builder decodes each head stream
//! exactly once, at compile/load time, into one contiguous arena of
//! [`PifWord`]s with per-clause spans and per-track ranges.
//! `ClauseRecord::from_bytes` remains the persistence path, and a
//! property test asserts the arena agrees with re-decoded records word
//! for word.
//!
//! Beside the streams sits one columnar `u32` per clause, the raw bus word
//! of the head's first argument ([`ClauseArena::track_first_words`]), so
//! the FS2 track kernel can decide which clauses of a track can possibly
//! survive their first MATCH without touching the 16-byte words at all.
//!
//! Clause indices are program order, which by construction equals
//! `(track, slot)` address order, so `slot = index − track start`.

use clare_pif::{first_word_key, PifWord};
use std::ops::Range;

/// One predicate's pre-decoded clause-head streams, contiguous in memory
/// and indexed by clause position and by track.
///
/// # Examples
///
/// ```
/// use clare_kb::{KbBuilder, KbConfig};
/// use clare_pif::encode_clause_head;
///
/// let mut b = KbBuilder::new();
/// b.consult("m", "p(a, 1). p(b, 2).")?;
/// let kb = b.finish(KbConfig::default());
/// let pred = kb.lookup("p", 2).unwrap();
///
/// let arena = pred.arena();
/// assert_eq!(arena.len(), 2);
/// // Each pre-decoded stream is exactly the clause's encoded head.
/// let head = encode_clause_head(pred.clauses()[1].head())?;
/// assert_eq!(arena.stream(1), head.words());
/// // Two tiny facts share track 0.
/// assert_eq!(arena.track_clauses(0), 0..2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClauseArena {
    /// Every clause's head-stream words, in clause order, back to back.
    words: Vec<PifWord>,
    /// Per-clause `(offset, len)` spans into `words`.
    spans: Vec<(u32, u32)>,
    /// Per-clause first-word key (see [`Self::track_first_words`]).
    first_words: Vec<u32>,
    /// First clause index of each track; tracks are filled in order, so
    /// track `t` holds clauses `track_starts[t] .. track_starts[t + 1]`.
    track_starts: Vec<u32>,
}

impl ClauseArena {
    /// Number of clauses in the arena.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if the arena holds no clauses.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total PIF words across all streams.
    pub fn total_words(&self) -> usize {
        self.words.len()
    }

    /// The pre-decoded head stream of clause `clause` (program order).
    ///
    /// # Panics
    ///
    /// Panics if `clause` is out of range.
    pub fn stream(&self, clause: usize) -> &[PifWord] {
        let (offset, len) = self.spans[clause];
        &self.words[offset as usize..(offset + len) as usize]
    }

    /// Number of tracks the clause file occupies.
    pub fn track_count(&self) -> usize {
        self.track_starts.len()
    }

    /// The clause-index range stored on `track`; empty for tracks past
    /// the end. Slot `s` of the track is clause `range.start + s`.
    pub fn track_clauses(&self, track: usize) -> Range<usize> {
        let end_of = |t: usize| {
            self.track_starts
                .get(t)
                .map_or(self.spans.len(), |&s| s as usize)
        };
        end_of(track)..end_of(track + 1)
    }

    /// The first-word keys ([`clare_pif::first_word_key`]) of the clauses
    /// on `track`, in slot order; empty for tracks past the end.
    pub fn track_first_words(&self, track: usize) -> &[u32] {
        &self.first_words[self.track_clauses(track)]
    }

    /// Appends one clause's head stream. Tracks must arrive in
    /// non-decreasing order (the builder lays clauses out first-fit).
    pub(crate) fn push_clause(&mut self, track: usize, words: &[PifWord]) {
        debug_assert!(
            track + 1 >= self.track_starts.len(),
            "tracks are filled in order"
        );
        while self.track_starts.len() <= track {
            self.track_starts.push(self.spans.len() as u32);
        }
        let offset = self.words.len() as u32;
        self.words.extend_from_slice(words);
        self.spans.push((offset, words.len() as u32));
        self.first_words.push(first_word_key(words));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clare_pif::{PifWord, TypeTag};

    fn word(content: u32) -> PifWord {
        PifWord::new(TypeTag::AtomPtr, content)
    }

    #[test]
    fn empty_arena() {
        let arena = ClauseArena::default();
        assert_eq!(arena.len(), 0);
        assert!(arena.is_empty());
        assert_eq!(arena.track_count(), 0);
        assert_eq!(arena.track_clauses(0), 0..0);
        assert_eq!(arena.total_words(), 0);
    }

    #[test]
    fn streams_and_track_ranges() {
        let mut arena = ClauseArena::default();
        arena.push_clause(0, &[word(1), word(2)]);
        arena.push_clause(0, &[]);
        arena.push_clause(1, &[word(3)]);
        arena.push_clause(3, &[word(4), word(5), word(6)]);

        assert_eq!(arena.len(), 4);
        assert_eq!(arena.total_words(), 6);
        assert_eq!(arena.stream(0), &[word(1), word(2)]);
        assert_eq!(arena.stream(1), &[] as &[PifWord]);
        assert_eq!(arena.stream(2), &[word(3)]);
        assert_eq!(arena.stream(3), &[word(4), word(5), word(6)]);

        assert_eq!(arena.track_count(), 4);
        assert_eq!(arena.track_clauses(0), 0..2);
        assert_eq!(arena.track_clauses(1), 2..3);
        assert_eq!(arena.track_clauses(2), 3..3, "skipped track is empty");
        assert_eq!(arena.track_clauses(3), 3..4);
        assert_eq!(arena.track_clauses(4), 4..4, "past the end is empty");
    }

    #[test]
    fn first_word_column_follows_track_ranges() {
        let anon = PifWord::new(TypeTag::Anon, 0);
        let mut arena = ClauseArena::default();
        arena.push_clause(0, &[word(1), word(2)]);
        arena.push_clause(0, &[]);
        arena.push_clause(1, &[anon, word(3)]);
        arena.push_clause(3, &[word(4)]);

        assert_eq!(arena.track_first_words(0), &[word(1).to_u32(), 0]);
        assert_eq!(arena.track_first_words(1), &[0]);
        assert_eq!(arena.track_first_words(2), &[] as &[u32], "skipped track");
        assert_eq!(arena.track_first_words(3), &[word(4).to_u32()]);
        assert_eq!(arena.track_first_words(4), &[] as &[u32], "past the end");
    }

    #[test]
    #[should_panic]
    fn out_of_range_stream_panics() {
        let arena = ClauseArena::default();
        let _ = arena.stream(0);
    }
}
