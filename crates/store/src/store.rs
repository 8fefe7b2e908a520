//! The on-disk store: versioned, checksummed entries under one directory.
//!
//! ## Entry format
//!
//! Every entry is one file named `<32-hex key>.fsr`:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "WSTLSTOR"
//! 8       4     format version (u32 LE)            — layout of this header
//! 12      1     entry kind code (always 2)
//! 13      8     payload length (u64 LE)
//! 21      16    payload checksum (u128 LE)         — canonical hash
//! 37      n     payload
//! ```
//!
//! ## Degradation contract
//!
//! A read that fails **for any reason** — missing file, truncation, bad
//! magic, a format-version bump, a kind mismatch, a checksum mismatch —
//! is a *miss*, never an error: the caller recomputes and overwrites.
//! Reasons are counted separately (session counters + `cache.miss.*` obs
//! counters) so a corrupted cache is visible without being fatal. Writes
//! go through [`atomic_write`] (temp file + rename in the same
//! directory), so a crashed or interrupted process can leave at worst a
//! stale temp file, never a truncated entry.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use warpstl_sync::AtomicU64;

use warpstl_obs::{Obs, ObsExt};

use crate::hash::{CanonicalHasher, Key};
use crate::names;

/// The entry-file magic.
pub const MAGIC: [u8; 8] = *b"WSTLSTOR";

/// The on-disk entry layout version. Bump on any header or payload layout
/// change: old entries then degrade to misses (counted as
/// `version_mismatch`) that `cache gc` reclaims, never a misread replay.
/// v2: fsim stamps no longer carry the report's detection log.
pub const FORMAT_VERSION: u32 = 2;

const HEADER_LEN: usize = 8 + 4 + 1 + 8 + 16;

/// The advisory maintenance lock file (see `maintenance_lock`).
const LOCK_FILE: &str = ".warpstl-store.lock";

/// A lock file untouched for this long is presumed abandoned by a crashed
/// holder and broken.
const LOCK_STALE_AFTER: Duration = Duration::from_secs(30);

/// How long an acquirer waits for a live holder before breaking the lock
/// anyway (maintenance must make progress even if a holder hangs).
const LOCK_WAIT_MAX: Duration = Duration::from_secs(10);

/// Temp files younger than this survive [`Store::gc`]: they may belong to
/// an in-flight [`atomic_write`] of a concurrent process, and deleting one
/// mid-write turns that writer's rename into a counted `write_errors`
/// failure. Anything older is an orphan from a crashed writer.
pub const TEMP_MAX_AGE: Duration = Duration::from_secs(3600);

/// The header's entry kind byte. It is part of the on-disk format and is
/// checked on read. Code 1 (`.ana`) is retired and must not be reused:
/// older builds wrote analysis reports under it, and the store treats
/// those files as foreign.
const KIND_CODE: u8 = 2;

/// The entry-file extension.
const EXTENSION: &str = "fsr";

/// Why a read missed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MissReason {
    /// No entry file (the ordinary cold miss).
    Absent,
    /// Truncated file, bad magic, wrong kind, or checksum mismatch.
    Corrupt,
    /// The header's format version differs from [`FORMAT_VERSION`].
    VersionMismatch,
}

#[derive(Debug, Default)]
struct Session {
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    version_mismatch: AtomicU64,
    write_errors: AtomicU64,
}

/// A snapshot of one process's cache traffic (monotonic within the
/// session; independent of the on-disk state).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that fell back to recomputation (all reasons).
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Misses caused by corrupt entries (subset of `misses`).
    pub corrupt: u64,
    /// Misses caused by a format-version mismatch (subset of `misses`).
    pub version_mismatch: u64,
    /// Writes that failed at the filesystem (the entry is simply absent).
    pub write_errors: u64,
}

/// The health of one scanned entry file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryStatus {
    /// Header and checksum verify.
    Valid,
    /// Unreadable, truncated, or checksum-mismatched.
    Corrupt,
    /// Readable but written by a different [`FORMAT_VERSION`].
    VersionMismatch,
}

/// One row of a [`Store::scan`].
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// The entry file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Verification result.
    pub status: EntryStatus,
}

/// The result of scanning a cache directory.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// Every recognized entry file.
    pub entries: Vec<EntryInfo>,
}

impl ScanReport {
    /// Entries with [`EntryStatus::Valid`].
    #[must_use]
    pub fn valid_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.status == EntryStatus::Valid)
            .count()
    }

    /// Entries that would degrade to a miss.
    #[must_use]
    pub fn invalid_count(&self) -> usize {
        self.entries.len() - self.valid_count()
    }

    /// Total bytes across all recognized entries.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Total bytes across the valid entries.
    #[must_use]
    pub fn valid_bytes(&self) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.status == EntryStatus::Valid)
            .map(|e| e.bytes)
            .sum()
    }
}

/// The persistent content-addressed artifact cache.
///
/// One `Store` owns one directory. It is `Sync`: the pipeline's
/// instance-parallel workers share it by reference. Concurrent writers of
/// the same key are safe — both compute identical content (keys are
/// content hashes) and the atomic rename makes one of the identical files
/// win.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    session: Session,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Store> {
        let root = dir.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(Store {
            root,
            session: Session::default(),
        })
    }

    /// The cache directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry file path for `key`.
    #[must_use]
    pub fn entry_path(&self, key: Key) -> PathBuf {
        self.root.join(format!("{}.{EXTENSION}", key.to_hex()))
    }

    /// This process's cache-traffic counters so far.
    #[must_use]
    pub fn session(&self) -> SessionStats {
        SessionStats {
            hits: self.session.hits.load(Ordering::Relaxed),
            misses: self.session.misses.load(Ordering::Relaxed),
            writes: self.session.writes.load(Ordering::Relaxed),
            corrupt: self.session.corrupt.load(Ordering::Relaxed),
            version_mismatch: self.session.version_mismatch.load(Ordering::Relaxed),
            write_errors: self.session.write_errors.load(Ordering::Relaxed),
        }
    }

    fn checksum(payload: &[u8]) -> u128 {
        let mut h = CanonicalHasher::new();
        h.str("warpstl.entry/v1");
        h.len(payload.len());
        h.bytes(payload);
        h.finish().0
    }

    /// Serializes a full entry (header + payload).
    #[must_use]
    pub fn encode_entry(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.push(KIND_CODE);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&Store::checksum(payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Reads the little-endian field at `header[at..at + N]`, treating a
    /// short or out-of-range slice as corruption rather than panicking:
    /// entry bytes come straight off disk and are untrusted.
    fn header_field<const N: usize>(header: &[u8], at: usize) -> Result<[u8; N], MissReason> {
        header
            .get(at..at + N)
            .and_then(|s| s.try_into().ok())
            .ok_or(MissReason::Corrupt)
    }

    fn decode_entry(bytes: &[u8]) -> Result<Vec<u8>, MissReason> {
        let header = bytes.get(..HEADER_LEN).ok_or(MissReason::Corrupt)?;
        if header[..8] != MAGIC {
            return Err(MissReason::Corrupt);
        }
        let version = u32::from_le_bytes(Store::header_field(header, 8)?);
        if version != FORMAT_VERSION {
            return Err(MissReason::VersionMismatch);
        }
        if header[12] != KIND_CODE {
            return Err(MissReason::Corrupt);
        }
        let len = u64::from_le_bytes(Store::header_field(header, 13)?);
        let payload = &bytes[HEADER_LEN..];
        if payload.len() as u64 != len {
            return Err(MissReason::Corrupt);
        }
        let checksum = u128::from_le_bytes(Store::header_field(header, 21)?);
        if Store::checksum(payload) != checksum {
            return Err(MissReason::Corrupt);
        }
        Ok(payload.to_vec())
    }

    fn note_miss(&self, reason: MissReason, obs: Obs<'_>) {
        self.session.misses.fetch_add(1, Ordering::Relaxed);
        obs.add(names::CACHE_MISS, 1);
        match reason {
            MissReason::Absent => {}
            MissReason::Corrupt => {
                self.session.corrupt.fetch_add(1, Ordering::Relaxed);
                obs.add(names::CACHE_MISS_CORRUPT, 1);
            }
            MissReason::VersionMismatch => {
                self.session
                    .version_mismatch
                    .fetch_add(1, Ordering::Relaxed);
                obs.add(names::CACHE_MISS_VERSION, 1);
            }
        }
    }

    pub(crate) fn note_hit(&self, obs: Obs<'_>) {
        self.session.hits.fetch_add(1, Ordering::Relaxed);
        obs.add(names::CACHE_HIT, 1);
    }

    /// Counts a miss caused by a payload that verified its checksum but
    /// failed typed decoding (possible only across a payload-schema skew).
    pub(crate) fn note_payload_corrupt(&self, obs: Obs<'_>) {
        self.note_miss(MissReason::Corrupt, obs);
    }

    /// Reads and verifies the payload of `key`. **Does not** count
    /// a hit — the typed wrappers count it after the payload also decodes,
    /// so accounting stays exact; every failure path is counted here as a
    /// miss with its reason.
    pub(crate) fn get_verified(&self, key: Key, obs: Obs<'_>) -> Option<Vec<u8>> {
        let mut span = obs.span("store", "store.read");
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                // Absent covers the concurrent case too: an entry that a
                // parallel `gc`/`clear` unlinked between our existence
                // assumption and this read is a plain miss, never an error.
                self.note_miss(MissReason::Absent, obs);
                return None;
            }
        };
        if obs.enabled() {
            span.arg("bytes", bytes.len());
        }
        match Store::decode_entry(&bytes) {
            Ok(payload) => Some(payload),
            Err(reason) => {
                self.note_miss(reason, obs);
                None
            }
        }
    }

    /// Reads, verifies, and returns the payload of `key`, counting
    /// a hit on success and a miss (with its reason) on every failure
    /// path. This is the raw public read surface — the typed wrapper
    /// [`Store::get_stamps`] additionally decodes the payload before
    /// counting the hit.
    #[must_use]
    pub fn get(&self, key: Key, obs: Obs<'_>) -> Option<Vec<u8>> {
        let payload = self.get_verified(key, obs)?;
        self.note_hit(obs);
        Some(payload)
    }

    /// Writes `key -> payload` atomically. A filesystem failure is
    /// counted (`write_errors`, `cache.write.error`) and otherwise
    /// ignored: a cache that cannot persist simply stays cold.
    pub fn put(&self, key: Key, payload: &[u8], obs: Obs<'_>) {
        let mut span = obs.span("store", "store.write");
        if obs.enabled() {
            span.arg("bytes", payload.len());
        }
        let entry = Store::encode_entry(payload);
        match atomic_write(self.entry_path(key), &entry) {
            Ok(()) => {
                self.session.writes.fetch_add(1, Ordering::Relaxed);
                obs.add(names::CACHE_WRITE, 1);
            }
            Err(_) => {
                self.session.write_errors.fetch_add(1, Ordering::Relaxed);
                obs.add(names::CACHE_WRITE_ERROR, 1);
            }
        }
    }

    /// Scans the cache directory, verifying every entry file (`.fsr`).
    /// Other files are ignored (the store never touches foreign files in a
    /// user-supplied directory).
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be listed.
    pub fn scan(&self) -> io::Result<ScanReport> {
        let mut report = ScanReport::default();
        for dent in fs::read_dir(&self.root)? {
            let dent = dent?;
            let path = dent.path();
            if !path.is_file() {
                continue;
            }
            if path.extension().and_then(|e| e.to_str()) != Some(EXTENSION) {
                continue;
            }
            let (bytes, status) = match fs::read(&path) {
                Ok(b) => {
                    let status = match Store::decode_entry(&b) {
                        Ok(_) => EntryStatus::Valid,
                        Err(MissReason::VersionMismatch) => EntryStatus::VersionMismatch,
                        Err(_) => EntryStatus::Corrupt,
                    };
                    (b.len() as u64, status)
                }
                // A file that vanished between `read_dir` and `read` was
                // unlinked by a concurrent `gc`/`clear` — a benign race,
                // not corruption. Anything else (permissions, I/O) is.
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(_) => (0, EntryStatus::Corrupt),
            };
            report.entries.push(EntryInfo {
                path,
                bytes,
                status,
            });
        }
        report.entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(report)
    }

    /// Removes corrupt and version-mismatched entries plus orphaned temp
    /// files older than [`TEMP_MAX_AGE`], returning
    /// `(removed count, freed bytes)`. Equivalent to
    /// [`Store::gc_with`]`(TEMP_MAX_AGE)`.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be listed;
    /// individual unremovable files are skipped.
    pub fn gc(&self) -> io::Result<(usize, u64)> {
        self.gc_with(TEMP_MAX_AGE)
    }

    /// [`Store::gc`] with an explicit temp-file age threshold (tests use
    /// [`Duration::ZERO`] to sweep temps immediately).
    ///
    /// Concurrency: runs under the cross-process advisory maintenance lock, so
    /// two `gc`/`clear` invocations never race each other. Races against
    /// *writers* are handled per file: each invalid entry is re-read
    /// immediately before unlinking in case a concurrent [`Store::put`]
    /// just renamed a fresh valid entry over the stale bytes the scan saw,
    /// and temp files younger than `temp_max_age` are left alone because
    /// they may belong to an in-flight [`atomic_write`].
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be listed or
    /// the lock file cannot be created.
    pub fn gc_with(&self, temp_max_age: Duration) -> io::Result<(usize, u64)> {
        let _lock = maintenance_lock(&self.root)?;
        let scan = self.scan()?;
        let mut removed = 0;
        let mut freed = 0;
        for entry in &scan.entries {
            if entry.status == EntryStatus::Valid {
                continue;
            }
            // Revalidate at the last moment: the scan's verdict may be
            // stale if a writer renamed a valid entry here since.
            let still_invalid = match fs::read(&entry.path) {
                Ok(b) => Store::decode_entry(&b).is_err(),
                Err(e) if e.kind() == io::ErrorKind::NotFound => false,
                Err(_) => true,
            };
            if still_invalid && fs::remove_file(&entry.path).is_ok() {
                removed += 1;
                freed += entry.bytes;
            }
        }
        for (path, bytes) in stale_temp_files(&self.root, temp_max_age)? {
            if fs::remove_file(&path).is_ok() {
                removed += 1;
                freed += bytes;
            }
        }
        Ok((removed, freed))
    }

    /// Removes **every** recognized entry (foreign files survive),
    /// returning the removed count. Takes the cross-process
    /// advisory maintenance lock, like [`Store::gc`].
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be listed or
    /// the lock file cannot be created.
    pub fn clear(&self) -> io::Result<usize> {
        let _lock = maintenance_lock(&self.root)?;
        let scan = self.scan()?;
        let mut removed = 0;
        for entry in &scan.entries {
            if fs::remove_file(&entry.path).is_ok() {
                removed += 1;
            }
        }
        Ok(removed)
    }
}

/// Holds the advisory maintenance lock; dropping it removes the lock file.
struct LockGuard {
    path: PathBuf,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Acquires the cross-process advisory lock serializing store maintenance
/// (`gc`/`clear`) within one cache directory. The lock is a file created
/// with `create_new` — the one portable atomic primitive — holding the
/// owner's pid for post-mortem debugging. Liveness beats strictness: a
/// lock file older than [`LOCK_STALE_AFTER`] is presumed abandoned by a
/// crashed holder and broken, and an acquirer that has waited
/// [`LOCK_WAIT_MAX`] breaks the lock regardless (a wedged gc must not
/// wedge every other process forever). Readers and writers never take
/// this lock — their safety comes from atomic rename, not exclusion.
fn maintenance_lock(root: &Path) -> io::Result<LockGuard> {
    use std::io::Write as _;
    let path = root.join(LOCK_FILE);
    let start = Instant::now();
    loop {
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                let _ = write!(file, "{}", std::process::id());
                return Ok(LockGuard { path });
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                let stale = fs::metadata(&path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > LOCK_STALE_AFTER);
                if stale || start.elapsed() > LOCK_WAIT_MAX {
                    let _ = fs::remove_file(&path);
                    continue;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Lists temp files (the `.{name}.tmp.{pid}.{seq}` spellings of
/// [`atomic_write`]) in `root` older than `max_age`, with their sizes.
fn stale_temp_files(root: &Path, max_age: Duration) -> io::Result<Vec<(PathBuf, u64)>> {
    let mut stale = Vec::new();
    for dent in fs::read_dir(root)? {
        let dent = dent?;
        let path = dent.path();
        let is_temp = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with('.') && n.contains(".tmp."));
        if !is_temp || !path.is_file() {
            continue;
        }
        let Ok(meta) = fs::metadata(&path) else {
            continue; // vanished mid-scan: its writer finished the rename
        };
        let old_enough = meta
            .modified()
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age >= max_age);
        if old_enough {
            stale.push((path, meta.len()));
        }
    }
    stale.sort();
    Ok(stale)
}

/// Writes `bytes` to `path` atomically: the content lands in a temp file
/// in the same directory and is renamed over the target, so readers (and
/// interrupted writers) never observe a partially-written file. The shared
/// helper behind every JSON/report artifact the toolkit writes.
///
/// # Errors
///
/// Returns the underlying error from the write or the rename (the temp
/// file is cleaned up on a failed rename).
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        file_name.to_string_lossy(),
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use warpstl_obs::Recorder;

    fn temp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("warpstl-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    #[test]
    fn round_trip_and_session_counters() {
        let store = temp_store("roundtrip");
        let key = Key(42);
        assert_eq!(store.get(key, None), None);
        store.put(key, b"hello", None);
        assert_eq!(store.get(key, None).as_deref(), Some(b"hello".as_slice()));
        // Another key is another entry.
        assert_eq!(store.get(Key(43), None), None);
        let s = store.session();
        assert_eq!((s.hits, s.misses, s.writes), (1, 2, 1));
        assert_eq!(s.corrupt, 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn truncated_entry_degrades_to_miss() {
        let store = temp_store("truncate");
        let key = Key(7);
        store.put(key, b"payload-bytes", None);
        let path = store.entry_path(key);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();

        let rec = Recorder::new();
        assert_eq!(store.get(key, Some(&rec)), None);
        let s = store.session();
        assert_eq!(s.corrupt, 1);
        assert_eq!(rec.metrics().counter(names::CACHE_MISS), 1);
        assert_eq!(rec.metrics().counter(names::CACHE_MISS_CORRUPT), 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn corrupt_kind_byte_degrades_to_miss() {
        let store = temp_store("kindbyte");
        let key = Key(8);
        store.put(key, b"payload", None);
        let path = store.entry_path(key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[12] = 0xee; // not the entry kind code
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get(key, None), None);
        assert_eq!(store.session().corrupt, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn file_shorter_than_the_header_degrades_to_miss() {
        let store = temp_store("shorthdr");
        let key = Key(10);
        store.put(key, b"payload", None);
        let path = store.entry_path(key);
        // Keep only the magic: every header field read is out of range.
        fs::write(&path, &MAGIC[..]).unwrap();
        assert_eq!(store.get(key, None), None);
        assert_eq!(store.session().corrupt, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn flipped_checksum_byte_degrades_to_miss() {
        let store = temp_store("checksum");
        let key = Key(9);
        store.put(key, b"payload", None);
        let path = store.entry_path(key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[22] ^= 0xff; // inside the stored checksum field
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get(key, None), None);
        assert_eq!(store.session().corrupt, 1);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn version_bump_degrades_to_miss_and_gc_reclaims() {
        let store = temp_store("version");
        let key = Key(11);
        store.put(key, b"payload", None);
        let path = store.entry_path(key);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        let rec = Recorder::new();
        assert_eq!(store.get(key, Some(&rec)), None);
        let s = store.session();
        assert_eq!(s.version_mismatch, 1);
        assert_eq!(s.corrupt, 0);
        assert_eq!(rec.metrics().counter(names::CACHE_MISS_VERSION), 1);

        let scan = store.scan().unwrap();
        assert_eq!(scan.entries.len(), 1);
        assert_eq!(scan.entries[0].status, EntryStatus::VersionMismatch);
        let (removed, freed) = store.gc().unwrap();
        assert_eq!(removed, 1);
        assert!(freed > 0);
        assert_eq!(store.scan().unwrap().entries.len(), 0);
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn scan_ignores_foreign_files_and_clear_spares_them() {
        let store = temp_store("foreign");
        store.put(Key(1), b"a", None);
        store.put(Key(2), b"b", None);
        let foreign = store.root().join("README.txt");
        fs::write(&foreign, "not an entry").unwrap();
        // An analysis entry left by an older build: a whole entry of the
        // retired kind code 1, under its old extension.
        let mut retired = Store::encode_entry(b"report");
        retired[12] = 1;
        let ana = store.root().join(format!("{}.ana", Key(3).to_hex()));
        fs::write(&ana, &retired).unwrap();

        let scan = store.scan().unwrap();
        assert_eq!(scan.entries.len(), 2);
        assert_eq!(scan.valid_count(), 2);
        assert!(scan.total_bytes() > 0);
        assert_eq!(scan.valid_bytes(), scan.total_bytes());

        assert_eq!(store.clear().unwrap(), 2);
        assert!(foreign.exists(), "clear must not delete foreign files");
        assert!(ana.exists(), "clear must not delete retired .ana entries");
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_sweeps_old_temps_but_spares_fresh_ones_by_default() {
        let store = temp_store("gc-temps");
        store.put(Key(1), b"keep", None);
        let temp = store.root().join(".orphan.fsr.tmp.12345.0");
        fs::write(&temp, b"half-written").unwrap();

        // Default threshold: the just-created temp is presumed in-flight.
        let (removed, _) = store.gc().unwrap();
        assert_eq!(removed, 0);
        assert!(temp.exists());

        // Zero threshold: the temp is an orphan and is reclaimed.
        let (removed, freed) = store.gc_with(Duration::ZERO).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(freed, b"half-written".len() as u64);
        assert!(!temp.exists());

        // The valid entry survived both passes, and the lock was released.
        assert_eq!(store.scan().unwrap().valid_count(), 1);
        assert!(!store.root().join(LOCK_FILE).exists());
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn gc_blocks_on_a_held_maintenance_lock() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let store = Arc::new(temp_store("gc-lock"));
        let lock_path = store.root().join(LOCK_FILE);
        fs::write(&lock_path, "held-by-test").unwrap();

        let done = Arc::new(AtomicBool::new(false));
        let handle = {
            let (store, done) = (Arc::clone(&store), Arc::clone(&done));
            std::thread::spawn(move || {
                let result = store.gc();
                done.store(true, Ordering::SeqCst);
                result
            })
        };

        // A freshly-created lock is honored: gc must still be waiting.
        std::thread::sleep(Duration::from_millis(100));
        assert!(!done.load(Ordering::SeqCst), "gc ignored a live lock");

        fs::remove_file(&lock_path).unwrap();
        handle.join().unwrap().unwrap();
        assert!(done.load(Ordering::SeqCst));
        let _ = fs::remove_dir_all(store.root());
    }

    #[test]
    fn atomic_write_replaces_content_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("warpstl-aw-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let target = dir.join("out.json");
        atomic_write(&target, b"first").unwrap();
        atomic_write(&target, b"second").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|d| d.ok())
            .filter(|d| d.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
