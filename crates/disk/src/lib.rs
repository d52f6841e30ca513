//! Disk model for the CLARE reproduction.
//!
//! The paper's headline claim is a *rate comparison*: the FS2 filter
//! processes data at ≈ 4.25 MB/s worst case, faster than either disk the
//! target SUN3/160 could mount — a SCSI Micropolis 1325 or an SMD Fujitsu
//! M2351A "tuned to operate at its peak rate (circa 2 Mbytes/second)". To
//! reproduce that comparison we need a disk that delivers bytes on a
//! simulated clock:
//!
//! * [`SimNanos`] — simulated time, in nanoseconds (the unit of every
//!   figure in the paper).
//! * [`DiskProfile`] — geometry plus timing (seek, rotation, sustained
//!   transfer rate), with presets for the paper's two drives.
//! * [`StoredFile`] / [`FileBuilder`] — record-oriented files laid out
//!   track by track. Records never span tracks, which is what lets the
//!   paper size the FS2 Result Memory for "all clause satisfiers of one
//!   disk track — the worst case of a single FS2 search call".
//! * [`TrackStream`] — a streaming read of a file that accounts seek,
//!   rotational latency, and per-track transfer time on the simulated
//!   clock.
//!
//! # Examples
//!
//! ```
//! use clare_disk::{DiskProfile, FileBuilder};
//!
//! let profile = DiskProfile::fujitsu_m2351a();
//! let mut builder = FileBuilder::new(profile.track_bytes());
//! builder.append_record(&[0u8; 100])?;
//! builder.append_record(&[1u8; 200])?;
//! let file = builder.finish("facts.pdb");
//! assert_eq!(file.record_count(), 2);
//! assert_eq!(file.track_count(), 1);
//! # Ok::<(), clare_disk::RecordTooLargeError>(())
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod profile;
pub mod time;
pub mod volume;

pub use profile::DiskProfile;
pub use time::{ByteRate, SimNanos, TimeError};
pub use volume::{
    FileBuilder, InvalidTrackSizeError, RecordTooLargeError, StoredFile, Track, TrackStream,
    TransferStats,
};
