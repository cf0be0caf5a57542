//! The persistent image store: sealed [`MemoryImage`]s spilled to disk,
//! keyed by the same `(bench, label, plan_digest)` content addresses as
//! the in-memory cache, so a daemon restart recovers its hit rate
//! instead of rebuilding the world.
//!
//! **File format** (version 1): an envelope around the
//! [`rtdc::imagefile`] payload —
//!
//! ```text
//! 8  bytes  magic  "RTDCIMG1"
//! 4  bytes  version (LE u32, currently 1)
//! 4+ bytes  bench  (LE u32 length + UTF-8)
//! 4+ bytes  label  (LE u32 length + UTF-8)
//! 4  bytes  plan_digest (LE u32)
//! 4+ bytes  payload (LE u32 length + encode_image bytes)
//! 4  bytes  CRC32 of every byte above
//! ```
//!
//! The embedded key makes every file self-describing (a mis-named file
//! cannot serve the wrong image), and the whole-file CRC sits *on top
//! of* the per-segment seals inside the payload: the CRC catches torn
//! or bit-rotted files cheaply at scan time, and
//! [`MemoryImage::verify_integrity`] re-proves the segments on every
//! load: [`DiskStore::load`] hands out a [`Verified`] image, which the
//! cache serves without checking it a second time.
//!
//! **Atomic writes**: spills go to a `tmp-`-prefixed sibling, are
//! fsynced, then renamed over the final name, then the directory is
//! fsynced — so a crash at any instant leaves either the old file, the
//! new file, or a `tmp-` orphan, never a half-written final file. The
//! startup scan deletes orphans and quarantines (never deletes, never
//! crashes on) any file failing envelope validation, moving it into a
//! `quarantine/` subdirectory for post-mortem.
//!
//! [`MemoryImage::verify_integrity`]: rtdc::image::MemoryImage::verify_integrity

#![deny(clippy::cast_possible_truncation)]

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use rtdc::image::{MemoryImage, Verified};
use rtdc::imagefile::{decode_image, encode_image, ImageFileError};
use rtdc::integrity::crc32;

use crate::cache::CacheKey;

/// The 8-byte magic every store file starts with.
pub const STORE_MAGIC: [u8; 8] = *b"RTDCIMG1";

/// The current store-file format version. A file with any other version
/// is quarantined at scan time (stale-version files are not migrated in
/// place; the daemon rebuilds those images on demand).
pub const STORE_VERSION: u32 = 1;

/// Name of the quarantine subdirectory.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Why a store file was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An I/O error reading or writing the store.
    Io {
        /// The failing operation and OS detail.
        detail: String,
    },
    /// The file does not start with [`STORE_MAGIC`].
    BadMagic,
    /// The file's version is not [`STORE_VERSION`].
    BadVersion {
        /// The version found.
        found: u32,
    },
    /// The file ended before the envelope could be read in full.
    Truncated,
    /// The whole-file CRC32 did not match.
    ChecksumMismatch {
        /// CRC recorded in the trailer.
        expected: u32,
        /// CRC of the bytes actually present.
        actual: u32,
    },
    /// The envelope was sound but the payload failed to decode.
    BadImage {
        /// The decoder's diagnostic.
        detail: String,
    },
    /// The payload decoded but failed [`MemoryImage::verify_integrity`]
    /// against its own seals.
    ///
    /// [`MemoryImage::verify_integrity`]: rtdc::image::MemoryImage::verify_integrity
    Poisoned {
        /// The integrity error.
        detail: String,
    },
    /// The file's embedded key is not the key it was looked up under
    /// (a file-name collision; the file is left alone).
    KeyMismatch {
        /// The key embedded in the file.
        found: CacheKey,
    },
    /// A key field or the payload is too long for its 32-bit length
    /// prefix (the file is not written).
    TooLong {
        /// Which part: `bench`, `label` or `payload`.
        field: &'static str,
        /// Its length in bytes.
        len: usize,
    },
}

impl StoreError {
    /// A stable short kind for logs and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            StoreError::Io { .. } => "io",
            StoreError::BadMagic => "bad-magic",
            StoreError::BadVersion { .. } => "bad-version",
            StoreError::Truncated => "truncated",
            StoreError::ChecksumMismatch { .. } => "checksum-mismatch",
            StoreError::BadImage { .. } => "bad-image",
            StoreError::Poisoned { .. } => "poisoned",
            StoreError::KeyMismatch { .. } => "key-mismatch",
            StoreError::TooLong { .. } => "too-long",
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { detail } => write!(f, "io: {detail}"),
            StoreError::BadMagic => write!(f, "bad magic"),
            StoreError::BadVersion { found } => {
                write!(f, "version {found} (expected {STORE_VERSION})")
            }
            StoreError::Truncated => write!(f, "truncated envelope"),
            StoreError::ChecksumMismatch { expected, actual } => {
                write!(f, "file crc {actual:08x} != recorded {expected:08x}")
            }
            StoreError::BadImage { detail } => write!(f, "bad payload: {detail}"),
            StoreError::Poisoned { detail } => write!(f, "integrity failure: {detail}"),
            StoreError::KeyMismatch { found } => write!(f, "file belongs to key {found}"),
            StoreError::TooLong { field, len } => {
                write!(f, "{field} of {len} bytes overflows its u32 length prefix")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A snapshot of the store counters (the `stats` op's `store` object
/// and the `serve.store.*` gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Valid entries resident on disk right now.
    pub entries: u64,
    /// Files examined by the startup scan.
    pub scanned: u64,
    /// Files moved to `quarantine/` (at scan or on a failed load).
    pub quarantined: u64,
    /// Orphaned `tmp-` files deleted by the startup scan.
    pub tmp_cleaned: u64,
    /// Images served from disk (decoded + integrity-verified).
    pub loads: u64,
    /// Loads that found a file but rejected it.
    pub load_failures: u64,
    /// Images spilled to disk.
    pub spills: u64,
    /// Spills that failed (I/O errors; the build is still served).
    pub spill_failures: u64,
}

impl StoreStats {
    /// Every counter as `(name, value)`, in the `stats` op's order: the
    /// one field list behind both the `stats` op's `store` object and the
    /// `serve.store.<name>` gauges.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("entries", self.entries),
            ("scanned", self.scanned),
            ("quarantined", self.quarantined),
            ("tmp_cleaned", self.tmp_cleaned),
            ("loads", self.loads),
            ("load_failures", self.load_failures),
            ("spills", self.spills),
            ("spill_failures", self.spill_failures),
        ]
    }
}

/// The on-disk image store. All operations are concurrency-safe: spills
/// are atomic renames, loads read whole files, and the counters are
/// atomics.
pub struct DiskStore {
    dir: PathBuf,
    entries: AtomicU64,
    scanned: AtomicU64,
    quarantined: AtomicU64,
    tmp_cleaned: AtomicU64,
    loads: AtomicU64,
    load_failures: AtomicU64,
    spills: AtomicU64,
    spill_failures: AtomicU64,
    /// Distinguishes concurrent spillers' temp files.
    spill_seq: AtomicU64,
}

/// `len` as the little-endian u32 length prefix of `field`.
fn len_prefix(field: &'static str, len: usize) -> Result<[u8; 4], StoreError> {
    u32::try_from(len)
        .map(u32::to_le_bytes)
        .map_err(|_| StoreError::TooLong { field, len })
}

/// Serializes `key` + `image` into the store file format (envelope +
/// payload + CRC trailer).
///
/// # Errors
///
/// [`StoreError::TooLong`] when a key field or the encoded image does
/// not fit its 32-bit length prefix.
pub fn encode_store_file(key: &CacheKey, image: &MemoryImage) -> Result<Vec<u8>, StoreError> {
    let payload = encode_image(image);
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(&STORE_MAGIC);
    out.extend_from_slice(&STORE_VERSION.to_le_bytes());
    for (field, s) in [("bench", &key.bench), ("label", &key.label)] {
        out.extend_from_slice(&len_prefix(field, s.len())?);
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&key.plan_digest.to_le_bytes());
    out.extend_from_slice(&len_prefix("payload", payload.len())?);
    out.extend_from_slice(&payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Validates a store file's envelope — magic, version, field lengths,
/// whole-file CRC — and returns the embedded key and the payload bytes.
/// Does **not** decode the payload; see [`decode_store_file`].
///
/// # Errors
///
/// A typed [`StoreError`] for any deviation; never panics on any input.
pub fn check_envelope(bytes: &[u8]) -> Result<(CacheKey, &[u8]), StoreError> {
    let mut at = 0usize;
    let take = |at: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        // The trailer is excluded from readable range only implicitly;
        // envelope reads are bounds-checked against the full input.
        if bytes.len() - *at < n {
            return Err(StoreError::Truncated);
        }
        let s = &bytes[*at..*at + n];
        *at += n;
        Ok(s)
    };
    let u32_at = |at: &mut usize| -> Result<u32, StoreError> {
        let s = take(at, 4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    };
    if take(&mut at, 8)? != STORE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32_at(&mut at)?;
    if version != STORE_VERSION {
        return Err(StoreError::BadVersion { found: version });
    }
    // CRC next: it covers everything up to the 4-byte trailer, and
    // checking it before parsing lengths means a flipped length byte is
    // caught here, not by an allocation guard downstream.
    if bytes.len() < at + 4 {
        return Err(StoreError::Truncated);
    }
    let body = &bytes[..bytes.len() - 4];
    let trailer = &bytes[bytes.len() - 4..];
    let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let actual = crc32(body);
    if actual != expected {
        return Err(StoreError::ChecksumMismatch { expected, actual });
    }
    let str_at = |at: &mut usize| -> Result<String, StoreError> {
        let n = u32_at(at)? as usize;
        let s = take(at, n)?;
        String::from_utf8(s.to_vec()).map_err(|_| StoreError::BadImage {
            detail: "key field is not utf-8".into(),
        })
    };
    let bench = str_at(&mut at)?;
    let label = str_at(&mut at)?;
    let plan_digest = u32_at(&mut at)?;
    let payload_len = u32_at(&mut at)? as usize;
    let payload = take(&mut at, payload_len)?;
    if at != body.len() {
        return Err(StoreError::BadImage {
            detail: format!("{} trailing envelope bytes", body.len() - at),
        });
    }
    Ok((
        CacheKey {
            bench,
            label,
            plan_digest,
        },
        payload,
    ))
}

/// Fully decodes a store file: envelope + payload + integrity seals.
/// The image comes back as a [`Verified`] token, so nothing downstream
/// needs to check it again.
///
/// # Errors
///
/// A typed [`StoreError`] for any deviation; never panics on any input.
pub fn decode_store_file(bytes: &[u8]) -> Result<(CacheKey, Verified<MemoryImage>), StoreError> {
    let (key, payload) = check_envelope(bytes)?;
    let image = decode_image(payload).map_err(|e: ImageFileError| StoreError::BadImage {
        detail: e.to_string(),
    })?;
    let image = Verified::new(image).map_err(|e| StoreError::Poisoned {
        detail: e.to_string(),
    })?;
    Ok((key, image))
}

/// Maps arbitrary key text into a filesystem-safe token.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The store file name for `key`: human-greppable sanitized parts plus
/// a CRC of the exact key, so two keys that sanitize identically still
/// get distinct files (and the embedded-key check catches the
/// astronomically unlikely full collision).
pub fn file_name(key: &CacheKey) -> String {
    let exact = format!(
        "{}\u{0}{}\u{0}{:08x}",
        key.bench, key.label, key.plan_digest
    );
    format!(
        "{}__{}__{:08x}-{:08x}.img",
        sanitize(&key.bench),
        sanitize(&key.label),
        key.plan_digest,
        crc32(exact.as_bytes()),
    )
}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> StoreError {
    StoreError::Io {
        detail: format!("{op} {}: {e}", path.display()),
    }
}

impl DiskStore {
    /// Opens (creating if absent) the store at `dir` and runs the
    /// startup scan: orphaned `tmp-` files are deleted, every `.img`
    /// file is envelope-validated, and invalid files are moved into
    /// `quarantine/`. The scan never fails on a bad *file* — only on
    /// I/O errors touching the directory itself.
    ///
    /// # Errors
    ///
    /// I/O errors creating or reading the directory.
    pub fn open(dir: &Path) -> std::io::Result<DiskStore> {
        fs::create_dir_all(dir)?;
        fs::create_dir_all(dir.join(QUARANTINE_DIR))?;
        let store = DiskStore {
            dir: dir.to_path_buf(),
            entries: AtomicU64::new(0),
            scanned: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            tmp_cleaned: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            load_failures: AtomicU64::new(0),
            spills: AtomicU64::new(0),
            spill_failures: AtomicU64::new(0),
            spill_seq: AtomicU64::new(0),
        };
        for entry in fs::read_dir(dir)? {
            let Ok(entry) = entry else { continue };
            let path = entry.path();
            if !path.is_file() {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("tmp-") {
                // A crash mid-spill left this orphan; the final file
                // either exists (rename happened) or the image was
                // never durably stored. Either way the orphan is dead.
                if fs::remove_file(&path).is_ok() {
                    store.tmp_cleaned.fetch_add(1, Ordering::Relaxed);
                }
                continue;
            }
            if !name.ends_with(".img") {
                continue;
            }
            store.scanned.fetch_add(1, Ordering::Relaxed);
            let verdict = match fs::read(&path) {
                Err(e) => Err(io_err("read", &path, &e)),
                Ok(bytes) => check_envelope(&bytes).map(|_| ()),
            };
            match verdict {
                Ok(()) => {
                    store.entries.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => store.quarantine(&path, &e),
            }
        }
        Ok(store)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Moves `path` into `quarantine/`, counting it. Never panics; a
    /// rename failure falls back to deletion so a corrupt file cannot
    /// be re-served either way.
    fn quarantine(&self, path: &Path, why: &StoreError) {
        let name = path
            .file_name()
            .map_or_else(|| "unnamed".into(), |n| n.to_string_lossy().into_owned());
        let dest = self.dir.join(QUARANTINE_DIR).join(format!(
            "{name}.{}",
            self.quarantined.load(Ordering::Relaxed)
        ));
        if fs::rename(path, &dest).is_err() {
            let _ = fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        rtdc_obs::log::event(rtdc_obs::log::Level::Warn, "store_quarantine")
            .str("file", &name)
            .str("kind", why.kind())
            .str("detail", &why.to_string())
            .emit();
    }

    /// Loads `key` from disk. `Ok(None)` means no file exists for the
    /// key. The returned image has passed envelope validation, payload
    /// decode, *and* [`MemoryImage::verify_integrity`] — it is a
    /// [`Verified`] token — and a file failing any of those is
    /// quarantined and reported as the error, so a poisoned spill can
    /// be served at most zero times.
    ///
    /// [`MemoryImage::verify_integrity`]: rtdc::image::MemoryImage::verify_integrity
    ///
    /// # Errors
    ///
    /// A typed [`StoreError`]; callers treat any error as a miss and
    /// rebuild.
    pub fn load(&self, key: &CacheKey) -> Result<Option<Verified<MemoryImage>>, StoreError> {
        let path = self.dir.join(file_name(key));
        let bytes = match fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                self.load_failures.fetch_add(1, Ordering::Relaxed);
                return Err(io_err("read", &path, &e));
            }
            Ok(b) => b,
        };
        match decode_store_file(&bytes) {
            Ok((found, image)) => {
                if &found != key {
                    // Not this key's file (a sanitized-name collision):
                    // leave it for its rightful owner.
                    self.load_failures.fetch_add(1, Ordering::Relaxed);
                    return Err(StoreError::KeyMismatch { found });
                }
                self.loads.fetch_add(1, Ordering::Relaxed);
                Ok(Some(image))
            }
            Err(e) => {
                self.load_failures.fetch_add(1, Ordering::Relaxed);
                self.entries.fetch_sub(1, Ordering::Relaxed);
                self.quarantine(&path, &e);
                Err(e)
            }
        }
    }

    /// Spills `image` under `key` atomically: temp file + fsync +
    /// rename + directory fsync. A file already present for the key is
    /// left untouched (same key means same content; a stale bad file is
    /// caught — and quarantined — by the next load, after which the
    /// rebuild respills).
    ///
    /// # Errors
    ///
    /// I/O errors; the spill is counted as failed and the caller's
    /// build is served regardless.
    pub fn spill(&self, key: &CacheKey, image: &MemoryImage) -> Result<(), StoreError> {
        let final_path = self.dir.join(file_name(key));
        if final_path.exists() {
            return Ok(());
        }
        let result = self.spill_inner(&final_path, key, image);
        match &result {
            Ok(()) => {
                self.spills.fetch_add(1, Ordering::Relaxed);
                self.entries.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                self.spill_failures.fetch_add(1, Ordering::Relaxed);
                rtdc_obs::log::event(rtdc_obs::log::Level::Warn, "store_spill_failed")
                    .str("key", &key.to_string())
                    .str("detail", &e.to_string())
                    .emit();
            }
        }
        result
    }

    fn spill_inner(
        &self,
        final_path: &Path,
        key: &CacheKey,
        image: &MemoryImage,
    ) -> Result<(), StoreError> {
        let seq = self.spill_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            "tmp-{}-{}-{seq}",
            std::process::id(),
            file_name(key)
        ));
        let bytes = encode_store_file(key, image)?;
        let write = (|| -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            // fsync before rename: the rename must never become visible
            // with the data still in the page cache only.
            f.sync_all()?;
            Ok(())
        })();
        if let Err(e) = write {
            let _ = fs::remove_file(&tmp);
            return Err(io_err("write", &tmp, &e));
        }
        if let Err(e) = fs::rename(&tmp, final_path) {
            let _ = fs::remove_file(&tmp);
            return Err(io_err("rename", final_path, &e));
        }
        // fsync the directory so the rename itself is durable.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            entries: self.entries.load(Ordering::Relaxed),
            scanned: self.scanned.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            tmp_cleaned: self.tmp_cleaned.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
            load_failures: self.load_failures.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            spill_failures: self.spill_failures.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtdc::image::{Segment, SizeReport};

    fn key(bench: &str, label: &str) -> CacheKey {
        CacheKey {
            bench: bench.to_string(),
            label: label.to_string(),
            plan_digest: 0xFEED,
        }
    }

    fn image(len: u32) -> MemoryImage {
        let mut img = MemoryImage {
            name: "t".into(),
            scheme: None,
            second_regfile: false,
            entry: 0x1000,
            initial_sp: 0x8000_0000,
            segments: vec![Segment {
                name: ".native".into(),
                base: 0x1000,
                bytes: vec![0x5A; len as usize],
            }],
            c0_init: Vec::new(),
            handler_range: None,
            compressed_range: None,
            proc_regions: Vec::new(),
            proc_names: Vec::new(),
            sizes: SizeReport {
                original_text_bytes: len,
                native_text_bytes: len,
                compressed_payload_bytes: 0,
                handler_bytes: 0,
            },
            integrity: Vec::new(),
            line_crcs: Vec::new(),
        };
        img.seal();
        img
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rtdc-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn spill_load_round_trip() {
        let dir = tmpdir("rt");
        let store = DiskStore::open(&dir).unwrap();
        let k = key("sort", "d");
        let img = image(128);
        store.spill(&k, &img).unwrap();
        let back = store.load(&k).unwrap().expect("present");
        assert_eq!(*back, img);
        let s = store.stats();
        assert_eq!((s.spills, s.loads, s.entries), (1, 1, 1));
        // A key never spilled is a clean miss.
        assert_eq!(store.load(&key("sort", "cp")).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_entries_and_cleans_tmp_orphans() {
        let dir = tmpdir("reopen");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.spill(&key("a", "d"), &image(64)).unwrap();
            store.spill(&key("b", "cp"), &image(64)).unwrap();
        }
        // A crash mid-spill leaves a tmp orphan.
        fs::write(dir.join("tmp-999-junk"), b"half a file").unwrap();
        let store = DiskStore::open(&dir).unwrap();
        let s = store.stats();
        assert_eq!((s.entries, s.scanned, s.tmp_cleaned), (2, 2, 1));
        assert_eq!(s.quarantined, 0);
        assert!(store.load(&key("a", "d")).unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_quarantined_not_served() {
        let dir = tmpdir("corrupt");
        let k = key("sort", "d");
        {
            let store = DiskStore::open(&dir).unwrap();
            store.spill(&k, &image(256)).unwrap();
        }
        // Flip a byte in the payload region.
        let path = dir.join(file_name(&k));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let store = DiskStore::open(&dir).unwrap();
        let s = store.stats();
        assert_eq!((s.entries, s.quarantined), (0, 1));
        assert!(!path.exists(), "corrupt file must leave the store");
        assert!(dir.join(QUARANTINE_DIR).read_dir().unwrap().count() == 1);
        // The key is now a clean miss.
        assert_eq!(store.load(&k).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn length_prefixes_refuse_what_u32_cannot_hold() {
        assert_eq!(len_prefix("label", 5), Ok(5u32.to_le_bytes()));
        let max = u32::MAX as usize;
        assert_eq!(len_prefix("payload", max), Ok(u32::MAX.to_le_bytes()));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(
            len_prefix("bench", max + 1),
            Err(StoreError::TooLong {
                field: "bench",
                len: max + 1
            })
        );
    }

    #[test]
    fn truncation_and_stale_version_are_typed() {
        let k = key("sort", "d");
        let bytes = encode_store_file(&k, &image(64)).expect("encodes");
        for cut in 0..bytes.len() {
            let err = check_envelope(&bytes[..cut]).expect_err("truncated");
            assert!(
                matches!(
                    err,
                    StoreError::Truncated
                        | StoreError::ChecksumMismatch { .. }
                        | StoreError::BadMagic
                ),
                "cut {cut}: {err:?}"
            );
        }
        let mut stale = bytes.clone();
        stale[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            check_envelope(&stale).unwrap_err(),
            StoreError::BadVersion { found: 99 }
        );
        let mut garbage = bytes;
        garbage[0] = b'X';
        assert_eq!(check_envelope(&garbage).unwrap_err(), StoreError::BadMagic);
    }

    #[test]
    fn lazy_verify_quarantines_a_file_that_rots_after_scan() {
        let dir = tmpdir("rot");
        let k = key("sort", "d");
        let store = DiskStore::open(&dir).unwrap();
        store.spill(&k, &image(512)).unwrap();
        // Rot after the scan: flip a byte and fix the file CRC so only
        // the *segment seals* (the payload's own integrity layer) can
        // catch it — exactly the verify-on-first-hit contract.
        let path = dir.join(file_name(&k));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        let err = store.load(&k).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::Poisoned { .. } | StoreError::BadImage { .. }
            ),
            "{err:?}"
        );
        assert!(!path.exists(), "rotten file must be quarantined");
        assert_eq!(store.stats().load_failures, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_are_sanitized_and_collision_safe() {
        let a = key("../evil", "d");
        let b = key("a/b", "d");
        let c = key("a_b", "d");
        let na = file_name(&a);
        assert!(!na.contains('/') && !na.contains(".."), "{na}");
        // `a/b` and `a_b` sanitize identically; the key CRC keeps the
        // files apart.
        let (nb, nc) = (file_name(&b), file_name(&c));
        assert_eq!(nb.split('-').next(), nc.split('-').next());
        assert_ne!(nb, nc);
    }
}
