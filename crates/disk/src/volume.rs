//! Track-organized record files and streaming reads.
//!
//! Records are opaque byte strings to this crate (the PIF layer defines
//! their contents). A record never spans a track boundary: the paper sizes
//! FS2's Result Memory to hold "all clause satisfiers of one disk track —
//! the worst case of a single FS2 search call", which presumes track-aligned
//! records.
//!
//! Every track carries a CRC32C over its record stream, maintained
//! incrementally by [`FileBuilder`]. Readers that must not trust the
//! medium go through [`StoredFile::read_track`], which verifies the
//! checksum (memoized, so the clean path pays it once per track per
//! file), applies any installed [fault injector](clare_fault) first, and
//! reports whether the delivered bytes are intact.

use crate::profile::DiskProfile;
use crate::time::{ByteRate, SimNanos};
use clare_fault::{crc32c_append, FaultAction, FaultSite};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Error from [`FileBuilder::append_record`]: the record exceeds one track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordTooLargeError {
    /// Size of the offending record.
    pub record_bytes: usize,
    /// The track capacity it must fit in.
    pub track_bytes: usize,
}

impl fmt::Display for RecordTooLargeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "record of {} bytes does not fit a {}-byte track",
            self.record_bytes, self.track_bytes
        )
    }
}

impl std::error::Error for RecordTooLargeError {}

/// Error from [`FileBuilder::try_new`]: a zero track capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidTrackSizeError;

impl fmt::Display for InvalidTrackSizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "track size must be positive")
    }
}

impl std::error::Error for InvalidTrackSizeError {}

/// One disk track's worth of records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Track {
    records: Vec<Vec<u8>>,
    used_bytes: usize,
    crc: u32,
}

impl Track {
    /// Records stored on this track, in layout order.
    pub fn records(&self) -> &[Vec<u8>] {
        &self.records
    }

    /// Bytes occupied by records (excluding end-of-track padding).
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of records on the track.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// The CRC32C stored when the track was laid out (over each record's
    /// big-endian `u32` length followed by its bytes, so record boundary
    /// shifts are detected too).
    pub fn stored_crc(&self) -> u32 {
        self.crc
    }

    /// Recomputes the record-stream CRC32C from the bytes actually
    /// present. Equal to [`Self::stored_crc`] iff the track is intact.
    pub fn compute_crc(&self) -> u32 {
        let mut crc = 0u32;
        for record in &self.records {
            crc = crc32c_append(crc, &(record.len() as u32).to_be_bytes());
            crc = crc32c_append(crc, record);
        }
        crc
    }

    fn push_record(&mut self, record: &[u8]) {
        self.crc = crc32c_append(self.crc, &(record.len() as u32).to_be_bytes());
        self.crc = crc32c_append(self.crc, record);
        self.records.push(record.to_vec());
        self.used_bytes += record.len();
    }
}

/// Builds a [`StoredFile`] by appending records first-fit onto tracks.
#[derive(Debug)]
pub struct FileBuilder {
    track_bytes: usize,
    tracks: Vec<Track>,
}

impl FileBuilder {
    /// Creates a builder for tracks of `track_bytes` capacity.
    ///
    /// # Panics
    ///
    /// Panics if `track_bytes` is zero; use [`Self::try_new`] to handle
    /// untrusted geometry.
    pub fn new(track_bytes: usize) -> Self {
        match Self::try_new(track_bytes) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`Self::new`].
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTrackSizeError`] when `track_bytes` is zero.
    pub fn try_new(track_bytes: usize) -> Result<Self, InvalidTrackSizeError> {
        if track_bytes == 0 {
            return Err(InvalidTrackSizeError);
        }
        Ok(FileBuilder {
            track_bytes,
            tracks: vec![Track::default()],
        })
    }

    /// Appends a record, starting a new track when the current one is full.
    ///
    /// # Errors
    ///
    /// Returns [`RecordTooLargeError`] if the record alone exceeds a track.
    pub fn append_record(&mut self, record: &[u8]) -> Result<(), RecordTooLargeError> {
        if record.len() > self.track_bytes {
            return Err(RecordTooLargeError {
                record_bytes: record.len(),
                track_bytes: self.track_bytes,
            });
        }
        let needs_new_track = match self.tracks.last() {
            Some(open) => open.used_bytes + record.len() > self.track_bytes,
            None => true,
        };
        if needs_new_track {
            self.tracks.push(Track::default());
        }
        let last = self.tracks.len() - 1;
        self.tracks[last].push_record(record);
        Ok(())
    }

    /// Finishes the file. An empty trailing track is dropped.
    pub fn finish(mut self, name: impl Into<String>) -> StoredFile {
        if self
            .tracks
            .last()
            .is_some_and(|t| t.records.is_empty() && self.tracks.len() > 1)
        {
            self.tracks.pop();
        }
        let verified = Arc::new(VerifyCache::new(self.tracks.len()));
        StoredFile {
            name: name.into(),
            track_bytes: self.track_bytes,
            tracks: self.tracks,
            verified,
        }
    }
}

/// Memoizes per-track checksum verification: an atomic bitset marking
/// tracks whose stored and recomputed CRCs were seen to agree, so the
/// clean read path pays the CRC once per track per file lifetime.
#[derive(Debug, Default)]
struct VerifyCache {
    bits: Vec<AtomicU64>,
}

impl VerifyCache {
    fn new(tracks: usize) -> Self {
        VerifyCache {
            bits: (0..tracks.div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    fn get(&self, i: usize) -> bool {
        match self.bits.get(i / 64) {
            Some(word) => word.load(Ordering::Relaxed) >> (i % 64) & 1 == 1,
            None => false,
        }
    }

    fn set(&self, i: usize) {
        if let Some(word) = self.bits.get(i / 64) {
            word.fetch_or(1 << (i % 64), Ordering::Relaxed);
        }
    }
}

/// A record file laid out on disk tracks.
///
/// # Examples
///
/// ```
/// use clare_disk::{DiskProfile, FileBuilder};
///
/// let profile = DiskProfile::micropolis_1325();
/// let mut b = FileBuilder::new(profile.track_bytes());
/// for i in 0..100u32 {
///     b.append_record(&i.to_be_bytes())?;
/// }
/// let file = b.finish("numbers");
/// let mut stream = file.stream(&profile);
/// let mut seen = 0;
/// while let Some(track) = stream.next_track() {
///     seen += track.record_count();
/// }
/// assert_eq!(seen, 100);
/// assert!(stream.stats().elapsed.as_ns() > 0);
/// # Ok::<(), clare_disk::RecordTooLargeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StoredFile {
    name: String,
    track_bytes: usize,
    tracks: Vec<Track>,
    /// Shared across clones: verification is a property of the stored
    /// bytes, which clones share.
    verified: Arc<VerifyCache>,
}

impl PartialEq for StoredFile {
    /// The verification memo is a cache, not content — two files compare
    /// equal iff their layout and bytes do.
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.track_bytes == other.track_bytes
            && self.tracks == other.tracks
    }
}

impl StoredFile {
    /// File name (diagnostic only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Track capacity this file was laid out for.
    pub fn track_bytes(&self) -> usize {
        self.track_bytes
    }

    /// The tracks in order.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Number of tracks occupied.
    pub fn track_count(&self) -> usize {
        self.tracks.len()
    }

    /// Total records across all tracks.
    pub fn record_count(&self) -> usize {
        self.tracks.iter().map(Track::record_count).sum()
    }

    /// Total record payload bytes (excluding padding).
    pub fn payload_bytes(&self) -> usize {
        self.tracks.iter().map(Track::used_bytes).sum()
    }

    /// Bytes the file occupies on disk (whole tracks, including padding) —
    /// what a full scan must transfer.
    pub fn occupied_bytes(&self) -> usize {
        self.tracks.len() * self.track_bytes
    }

    /// Starts a timed streaming read of the whole file.
    pub fn stream<'a>(&'a self, profile: &'a DiskProfile) -> TrackStream<'a> {
        TrackStream {
            file: self,
            profile,
            next: 0,
            stats: TransferStats::default(),
        }
    }

    /// Time for one exhaustive sequential scan on `profile`.
    pub fn scan_time(&self, profile: &DiskProfile) -> SimNanos {
        profile.sequential_read_time(self.tracks.len() as u64)
    }

    /// Reads track `t` as a reader must see it — through the installed
    /// [fault injector](clare_fault), which may flip bits or cut the read
    /// short — and returns the CRC32C verdict on what arrived: `true` when
    /// the delivered bytes are intact, `false` when the track must be
    /// quarantined (its records cannot be trusted by hardware filters and
    /// the caller should degrade to a path that re-checks every
    /// candidate). `None` past the last track.
    ///
    /// The clean path memoizes the checksum, so repeated reads cost one
    /// atomic load. A faulted read corrupts a copy of the track and
    /// verifies the copy.
    pub fn read_track(&self, t: usize) -> Option<bool> {
        let track = self.tracks.get(t)?;
        if clare_fault::active() {
            let ctx = (t as u64) ^ (fnv1a(self.name.as_bytes()) << 24);
            match clare_fault::decide(FaultSite::DiskTrackRead, ctx) {
                FaultAction::FlipBit { bit } if track.record_count() > 0 => {
                    let mut dirty = track.clone();
                    let n_records = dirty.records.len() as u64;
                    let r = (bit % n_records) as usize;
                    let record = &mut dirty.records[r];
                    if !record.is_empty() {
                        let i = ((bit / n_records) % (record.len() as u64 * 8)) as usize;
                        record[i / 8] ^= 1 << (i % 8);
                    }
                    return Some(dirty.compute_crc() == dirty.stored_crc());
                }
                FaultAction::Truncate { keep } if track.record_count() > 0 => {
                    // A short read: only a prefix of the records arrives.
                    let mut dirty = track.clone();
                    let keep = (keep % dirty.records.len() as u64) as usize;
                    dirty.records.truncate(keep);
                    dirty.used_bytes = dirty.records.iter().map(Vec::len).sum();
                    return Some(dirty.compute_crc() == dirty.stored_crc());
                }
                _ => {}
            }
        }
        Some(self.verify_track(t, track))
    }

    /// Verifies a track's checksum, memoizing successes.
    fn verify_track(&self, t: usize, track: &Track) -> bool {
        if self.verified.get(t) {
            return true;
        }
        let ok = track.compute_crc() == track.stored_crc();
        if ok {
            self.verified.set(t);
        }
        ok
    }
}

/// FNV-1a over the file name, to spread fault contexts across files.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Accumulated statistics for a streaming read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Simulated time spent so far (seek + latency + transfers).
    pub elapsed: SimNanos,
    /// Bytes transferred (whole tracks).
    pub bytes: u64,
    /// Tracks delivered.
    pub tracks: u64,
    /// Records delivered.
    pub records: u64,
}

impl TransferStats {
    /// The effective delivery rate so far, if any time has elapsed.
    pub fn rate(&self) -> Option<ByteRate> {
        ByteRate::observed(self.bytes, self.elapsed)
    }
}

/// A streaming, timed read over a [`StoredFile`]'s tracks.
///
/// Each [`next_track`](Self::next_track) call accounts the simulated time
/// to deliver that track: the first call pays the average seek and
/// rotational latency, later calls pay a cylinder-to-cylinder seek when the
/// track index crosses a cylinder boundary, and every call pays the track
/// transfer time.
#[derive(Debug)]
pub struct TrackStream<'a> {
    file: &'a StoredFile,
    profile: &'a DiskProfile,
    next: usize,
    stats: TransferStats,
}

impl<'a> TrackStream<'a> {
    /// Delivers the next track, or `None` at end of file.
    pub fn next_track(&mut self) -> Option<&'a Track> {
        let track = self.file.tracks.get(self.next)?;
        if self.next == 0 {
            self.stats.elapsed += self.profile.avg_seek() + self.profile.avg_rotational_latency();
        } else if self
            .next
            .is_multiple_of(self.profile.tracks_per_cylinder() as usize)
        {
            self.stats.elapsed += self.profile.track_to_track_seek();
        }
        self.stats.elapsed += self.profile.track_transfer_time();
        self.stats.bytes += self.file.track_bytes as u64;
        self.stats.tracks += 1;
        self.stats.records += track.record_count() as u64;
        self.next += 1;
        Some(track)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> TransferStats {
        self.stats
    }

    /// Index of the track the next call will deliver.
    pub fn position(&self) -> usize {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> DiskProfile {
        DiskProfile::fujitsu_m2351a()
    }

    #[test]
    fn records_fill_tracks_without_spanning() {
        let mut b = FileBuilder::new(100);
        b.append_record(&[0u8; 60]).unwrap();
        b.append_record(&[1u8; 60]).unwrap(); // doesn't fit track 0
        let f = b.finish("t");
        assert_eq!(f.track_count(), 2);
        assert_eq!(f.tracks()[0].record_count(), 1);
        assert_eq!(f.tracks()[0].used_bytes(), 60);
        assert_eq!(f.tracks()[1].used_bytes(), 60);
        assert_eq!(f.payload_bytes(), 120);
        assert_eq!(f.occupied_bytes(), 200);
    }

    #[test]
    fn exact_fit_does_not_open_new_track() {
        let mut b = FileBuilder::new(100);
        b.append_record(&[0u8; 50]).unwrap();
        b.append_record(&[1u8; 50]).unwrap();
        let f = b.finish("t");
        assert_eq!(f.track_count(), 1);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut b = FileBuilder::new(100);
        let err = b.append_record(&[0u8; 101]).unwrap_err();
        assert_eq!(err.record_bytes, 101);
        assert_eq!(err.track_bytes, 100);
    }

    #[test]
    fn empty_file_has_one_empty_track() {
        let f = FileBuilder::new(100).finish("empty");
        assert_eq!(f.track_count(), 1);
        assert_eq!(f.record_count(), 0);
    }

    #[test]
    fn stream_visits_every_record_in_order() {
        let p = profile();
        let mut b = FileBuilder::new(64);
        for i in 0..10u8 {
            b.append_record(&[i; 20]).unwrap();
        }
        let f = b.finish("t");
        let mut s = f.stream(&p);
        let mut seen = Vec::new();
        while let Some(track) = s.next_track() {
            for r in track.records() {
                seen.push(r[0]);
            }
        }
        assert_eq!(seen, (0..10).collect::<Vec<u8>>());
        assert_eq!(s.stats().records, 10);
        assert_eq!(s.stats().tracks as usize, f.track_count());
    }

    #[test]
    fn stream_timing_matches_scan_time() {
        let p = profile();
        let mut b = FileBuilder::new(p.track_bytes());
        // Enough records for several cylinders.
        let n_tracks_wanted = p.tracks_per_cylinder() as usize * 2 + 3;
        for _ in 0..n_tracks_wanted {
            b.append_record(&vec![7u8; p.track_bytes()]).unwrap();
        }
        let f = b.finish("big");
        assert_eq!(f.track_count(), n_tracks_wanted);
        let mut s = f.stream(&p);
        while s.next_track().is_some() {}
        assert_eq!(s.stats().elapsed, f.scan_time(&p));
    }

    #[test]
    fn first_track_pays_seek_and_latency() {
        let p = profile();
        let mut b = FileBuilder::new(p.track_bytes());
        b.append_record(&[1u8; 10]).unwrap();
        let f = b.finish("t");
        let mut s = f.stream(&p);
        s.next_track().unwrap();
        assert_eq!(
            s.stats().elapsed,
            p.avg_seek() + p.avg_rotational_latency() + p.track_transfer_time()
        );
    }

    #[test]
    fn tracks_carry_matching_crcs_from_the_builder() {
        let mut b = FileBuilder::new(100);
        for i in 0..9u8 {
            b.append_record(&[i; 33]).unwrap();
        }
        let f = b.finish("t");
        for (i, track) in f.tracks().iter().enumerate() {
            assert_eq!(track.compute_crc(), track.stored_crc(), "track {i}");
            assert_eq!(f.read_track(i), Some(true), "track {i}");
        }
        assert!(f.read_track(f.track_count()).is_none());
    }

    #[test]
    fn any_single_bit_flip_is_caught_by_the_track_crc() {
        // Exhaustive over a small track: flip every bit of every record
        // (and every bit of a record length via boundary shifts below).
        let mut b = FileBuilder::new(64);
        b.append_record(&[0xA5; 11]).unwrap();
        b.append_record(&[0x3C; 7]).unwrap();
        b.append_record(&[0x00; 13]).unwrap();
        let f = b.finish("flips");
        let clean = &f.tracks()[0];
        for r in 0..clean.record_count() {
            for bit in 0..clean.records()[r].len() * 8 {
                let mut dirty = clean.clone();
                dirty.records[r][bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    dirty.compute_crc(),
                    dirty.stored_crc(),
                    "flip of record {r} bit {bit} went undetected"
                );
            }
        }
        // Boundary shifts: moving a byte across a record boundary keeps
        // the concatenated payload identical but must still be caught.
        let mut shifted = clean.clone();
        let moved = shifted.records[0].pop().unwrap();
        shifted.records[1].insert(0, moved);
        assert_ne!(shifted.compute_crc(), shifted.stored_crc());
        // Dropped trailing record (a short read) is caught too.
        let mut short = clean.clone();
        short.records.pop();
        assert_ne!(short.compute_crc(), short.stored_crc());
    }

    #[test]
    fn builder_never_panics_on_degenerate_inputs() {
        assert!(FileBuilder::try_new(0).is_err());
        let mut b = FileBuilder::try_new(1).unwrap();
        b.append_record(&[]).unwrap(); // zero-length records are legal
        b.append_record(&[9]).unwrap();
        assert!(b.append_record(&[0; 2]).is_err());
        let f = b.finish("tiny");
        assert_eq!(f.record_count(), 2);
        assert_eq!(f.read_track(0), Some(true));
    }

    #[test]
    fn injected_disk_faults_are_flagged_not_trusted() {
        use clare_fault::{DeterministicInjector, FaultPlan, FaultSite};
        let mut b = FileBuilder::new(64);
        for i in 0..12u8 {
            b.append_record(&[i; 15]).unwrap();
        }
        let f = b.finish("faulted");
        let plan = FaultPlan::none().with(FaultSite::DiskTrackRead, 1000);
        let _guard =
            clare_fault::install(std::sync::Arc::new(DeterministicInjector::new(11, plan)));
        // A 100% plan corrupts every read, and the corruption never
        // silently matches the stored CRC.
        for t in 0..f.track_count() {
            assert_eq!(f.read_track(t), Some(false), "track {t}");
        }
    }

    #[test]
    fn delivery_rate_approaches_sustained_for_long_files() {
        let p = profile();
        let mut b = FileBuilder::new(p.track_bytes());
        for _ in 0..500 {
            b.append_record(&vec![0u8; p.track_bytes()]).unwrap();
        }
        let f = b.finish("long");
        let mut s = f.stream(&p);
        while s.next_track().is_some() {}
        let rate = s.stats().rate().unwrap();
        let sustained = p.sustained_rate().as_bytes_per_sec();
        assert!(
            rate.as_bytes_per_sec() > sustained * 0.85,
            "long scans amortise seeks: {rate} vs {}",
            p.sustained_rate()
        );
        assert!(rate.as_bytes_per_sec() <= sustained);
    }
}
