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
//! Beside the streams sit first-word posting lists: the clauses grouped
//! by their [`first_word_key`] ([`ClauseArena::key_clauses`]), plus the
//! clauses whose key is `0` ([`ClauseArena::zero_key_clauses`]). A query
//! whose first word is a simple value can only survive its first MATCH
//! on a clause from one of those two lists, so a keyed FS2 sweep reads
//! two short sorted lists instead of every clause of every swept track
//! (first-argument indexing, used only to find the clauses the hardware
//! would select; the modelled MATCH charge for the rest is unchanged).
//!
//! Clause indices are program order, which by construction equals
//! `(track, slot)` address order, so `slot = index − track start`, and
//! every list above ascends in address order too.

use clare_pif::{first_word_key, PifWord};
use std::ops::Range;

/// One predicate's pre-decoded clause-head streams, contiguous in memory
/// and indexed by clause position, by track and by first word.
///
/// # Examples
///
/// ```
/// use clare_kb::{KbBuilder, KbConfig};
/// use clare_pif::{encode_clause_head, first_word_key};
///
/// let mut b = KbBuilder::new();
/// b.consult("m", "p(a, 1). p(X, 2). p(a, 3).")?;
/// let kb = b.finish(KbConfig::default());
/// let pred = kb.lookup("p", 2).unwrap();
///
/// let arena = pred.arena();
/// assert_eq!(arena.len(), 3);
/// // Each pre-decoded stream is exactly the clause's encoded head.
/// let head = encode_clause_head(pred.clauses()[1].head())?;
/// assert_eq!(arena.stream(1), head.words());
/// // Three tiny facts share track 0.
/// assert_eq!(arena.track_clauses(0), 0..3);
/// // `a` heads clauses 0 and 2; the variable first argument has key 0.
/// let a = first_word_key(arena.stream(0));
/// assert_eq!(arena.key_clauses(a), &[0, 2]);
/// assert_eq!(arena.zero_key_clauses(), &[1]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClauseArena {
    /// Every clause's head-stream words, in clause order, back to back.
    words: Vec<PifWord>,
    /// Per-clause `(offset, len)` spans into `words`.
    spans: Vec<(u32, u32)>,
    /// First clause index of each track; tracks are filled in order, so
    /// track `t` holds clauses `track_starts[t] .. track_starts[t + 1]`.
    track_starts: Vec<u32>,
    /// The distinct non-zero first-word keys, ascending.
    keys: Vec<u32>,
    /// `by_key[key_starts[k]..key_starts[k + 1]]` holds the clauses whose
    /// key is `keys[k]`; one entry longer than `keys`.
    key_starts: Vec<u32>,
    /// The clauses with a non-zero key, grouped in `keys` order and
    /// ascending within each group (while clauses are being pushed:
    /// their `[key, clause]` pairs).
    by_key: Vec<u32>,
    /// The clauses whose key is `0`, ascending.
    zero_key: Vec<u32>,
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

    /// The clauses whose [`first_word_key`] is `key`, ascending; empty
    /// when no clause has that key (and for `key == 0`, whose clauses are
    /// [`Self::zero_key_clauses`]).
    pub fn key_clauses(&self, key: u32) -> &[u32] {
        match self.keys.binary_search(&key) {
            Ok(k) => &self.by_key[self.key_starts[k] as usize..self.key_starts[k + 1] as usize],
            Err(_) => &[],
        }
    }

    /// The clauses whose [`first_word_key`] is `0` — an empty head or a
    /// variable first argument, which no first word can reject — ascending.
    pub fn zero_key_clauses(&self) -> &[u32] {
        &self.zero_key
    }

    /// An empty arena with room for `clauses` clauses' spans and staged
    /// first-word pairs (see [`Self::index_first_words`] for why sizing
    /// them up front matters).
    pub(crate) fn with_capacity(clauses: usize) -> Self {
        ClauseArena {
            spans: Vec::with_capacity(clauses),
            by_key: Vec::with_capacity(2 * clauses),
            ..ClauseArena::default()
        }
    }

    /// Appends one clause's head stream. Tracks must arrive in
    /// non-decreasing order (the builder lays clauses out first-fit).
    /// [`Self::index_first_words`] runs once after the last clause.
    pub(crate) fn push_clause(&mut self, track: usize, words: &[PifWord]) {
        debug_assert!(
            track + 1 >= self.track_starts.len(),
            "tracks are filled in order"
        );
        while self.track_starts.len() <= track {
            self.track_starts.push(self.spans.len() as u32);
        }
        let clause = self.spans.len() as u32;
        let offset = self.words.len() as u32;
        self.words.extend_from_slice(words);
        self.spans.push((offset, words.len() as u32));
        match first_word_key(words) {
            0 => self.zero_key.push(clause),
            // Staged as a `[key, clause]` pair until `index_first_words`.
            key => self.by_key.extend([key, clause]),
        }
    }

    /// Turns the staged `[key, clause]` pairs into the posting lists:
    /// sorting them groups the clauses by key and keeps each group in
    /// clause order, and they are then compacted to clause indices in the
    /// same buffer.
    ///
    /// Every buffer is sized once — from the clause count
    /// ([`Self::with_capacity`]) or the distinct-key count — and `by_key`
    /// shrinks in place. Builds that instead freed a transient of pairs,
    /// or grew these lists by doubling after the last push, read 30–35 MB
    /// more (or, run to run, less) peak RSS on the benchmark's
    /// `inproc_select_100k`: glibc heap layout, not the lists' own size.
    pub(crate) fn index_first_words(&mut self) {
        // One `u64` compare per step sorts ~twice as fast as comparing the
        // pair arrays element by element.
        self.by_key
            .as_chunks_mut::<2>()
            .0
            .sort_unstable_by_key(|&[key, clause]| u64::from(key) << 32 | u64::from(clause));
        let keyed = self.by_key.len() / 2;
        let distinct = self
            .by_key
            .as_chunks::<2>()
            .0
            .chunk_by(|a, b| a[0] == b[0])
            .count();
        self.keys = Vec::with_capacity(distinct);
        self.key_starts = Vec::with_capacity(distinct + 1);
        for at in 0..keyed {
            // Slot `at` is behind both halves of pair `at`: reading them
            // first, compaction never overwrites a pair it still needs.
            let (key, clause) = (self.by_key[2 * at], self.by_key[2 * at + 1]);
            if self.keys.last() != Some(&key) {
                self.keys.push(key);
                self.key_starts.push(at as u32);
            }
            self.by_key[at] = clause;
        }
        self.key_starts.push(keyed as u32);
        self.by_key.truncate(keyed);
        self.by_key.shrink_to_fit();
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
        let mut arena = ClauseArena::default();
        arena.index_first_words();
        assert_eq!(arena.len(), 0);
        assert!(arena.is_empty());
        assert_eq!(arena.track_count(), 0);
        assert_eq!(arena.track_clauses(0), 0..0);
        assert_eq!(arena.total_words(), 0);
        assert_eq!(arena.key_clauses(word(1).to_u32()), &[] as &[u32]);
        assert_eq!(arena.zero_key_clauses(), &[] as &[u32]);
    }

    #[test]
    fn streams_and_track_ranges() {
        let mut arena = ClauseArena::default();
        arena.push_clause(0, &[word(1), word(2)]);
        arena.push_clause(0, &[]);
        arena.push_clause(1, &[word(3)]);
        arena.push_clause(3, &[word(4), word(5), word(6)]);
        arena.index_first_words();

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
    fn posting_lists_partition_clauses_by_first_word() {
        let anon = PifWord::new(TypeTag::Anon, 0);
        let mut arena = ClauseArena::default();
        arena.push_clause(0, &[word(7), word(2)]);
        arena.push_clause(0, &[]);
        arena.push_clause(1, &[anon, word(3)]);
        arena.push_clause(1, &[word(4)]);
        arena.push_clause(3, &[word(7)]);
        arena.index_first_words();

        // Keys group across tracks and stay ascending within a key.
        assert_eq!(arena.key_clauses(word(7).to_u32()), &[0, 4]);
        assert_eq!(arena.key_clauses(word(4).to_u32()), &[3]);
        assert_eq!(arena.key_clauses(word(9).to_u32()), &[] as &[u32], "absent");
        assert_eq!(arena.key_clauses(0), &[] as &[u32], "0 is not a key");
        assert_eq!(arena.zero_key_clauses(), &[1, 2]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_stream_panics() {
        let arena = ClauseArena::default();
        let _ = arena.stream(0);
    }
}
