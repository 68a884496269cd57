//! Durability substrate for the AccQOC pulse library.
//!
//! The live [`PulseLibrary`] amortizes GRAPE compilation across circuits
//! but dies with the process; this crate provides the storage primitives
//! that make the library survive restarts:
//!
//! - [`WalWriter`] / [`replay_wal`] — an append-only write-ahead log of
//!   opaque byte records, each framed with a length prefix and a CRC32
//!   checksum and fsync'd on append. Replay tolerates a truncated tail
//!   (the signature of a crash mid-append) but rejects checksum
//!   corruption of a complete frame with a typed [`StoreError::Corrupt`].
//! - [`write_atomic`] — write-to-temp + atomic rename, shared by the
//!   `save_cache` path and the snapshot path (which write the same
//!   artifact) so a crash mid-write can never leave a torn artifact
//!   behind.
//! - [`crc32`] — the IEEE CRC32 used for frame checksums.
//!
//! The crate is std-only and knows nothing about pulses: records are
//! opaque `Vec<u8>` payloads. The `accqoc::persist` module layers the
//! compact-JSON mutation encoding and the recovery semantics on top.
//!
//! [`PulseLibrary`]: https://example.invalid/accqoc-repro

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every WAL file (`AQWL` + format version 1).
pub const WAL_MAGIC: [u8; 8] = *b"AQWL\x00\x00\x00\x01";

/// Frame header size: 4-byte little-endian payload length + 4-byte CRC32.
const FRAME_HEADER: usize = 8;

/// Upper bound on a single record payload (64 MiB). A length prefix
/// beyond this is treated as corruption rather than an allocation
/// request: no legitimate library mutation comes close.
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Errors from the durability substrate.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A complete WAL frame or artifact failed validation. Unlike a
    /// truncated tail (which replay tolerates), this means bytes were
    /// altered after they were durably written, so recovery stops at the
    /// last good record and reports where.
    Corrupt {
        /// File the corruption was found in.
        path: PathBuf,
        /// Byte offset of the bad frame within the file.
        offset: u64,
        /// Number of records that replayed cleanly before the bad frame.
        records_ok: usize,
        /// What failed validation.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt {
                path,
                offset,
                records_ok,
                message,
            } => write!(
                f,
                "corrupt store file {} at byte {offset} ({records_ok} records ok): {message}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 (the `cksum`/zlib polynomial, reflected).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Outcome of replaying a WAL file.
#[derive(Debug, Default)]
pub struct WalReplay {
    /// Every record payload that replayed cleanly, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes of the file covered by clean frames (including the magic).
    /// [`WalWriter::open`] truncates the file back to this length, so a
    /// torn tail from a crash mid-append is discarded exactly once.
    pub good_bytes: u64,
    /// Bytes of torn tail past the last clean frame (0 on a clean file).
    pub truncated_bytes: u64,
}

/// Replays a WAL file, returning every cleanly framed record.
///
/// A missing file is an empty replay (cold start), and a torn tail —
/// fewer bytes than the last frame's header promised — is tolerated:
/// appends are atomic at the frame level, so a crash mid-write can only
/// tear the final frame. A *complete* frame whose checksum does not
/// match is different: the bytes were durable and then changed, so this
/// returns [`StoreError::Corrupt`] identifying the offset and how many
/// records were recovered before it.
pub fn replay_wal(path: &Path) -> Result<WalReplay> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(WalReplay::default()),
        Err(e) => return Err(e.into()),
    };
    if bytes.is_empty() {
        return Ok(WalReplay::default());
    }
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StoreError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            records_ok: 0,
            message: "bad WAL magic".to_string(),
        });
    }

    let mut replay = WalReplay {
        good_bytes: WAL_MAGIC.len() as u64,
        ..WalReplay::default()
    };
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < FRAME_HEADER {
            // Torn header from a crash mid-append.
            replay.truncated_bytes = remaining as u64;
            return Ok(replay);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: pos as u64,
                records_ok: replay.records.len(),
                message: format!("frame length {len} exceeds cap {MAX_RECORD_LEN}"),
            });
        }
        let len = len as usize;
        if remaining < FRAME_HEADER + len {
            // Torn payload from a crash mid-append.
            replay.truncated_bytes = remaining as u64;
            return Ok(replay);
        }
        let payload = &bytes[pos + FRAME_HEADER..pos + FRAME_HEADER + len];
        if crc32(payload) != crc {
            return Err(StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: pos as u64,
                records_ok: replay.records.len(),
                message: "frame checksum mismatch".to_string(),
            });
        }
        replay.records.push(payload.to_vec());
        pos += FRAME_HEADER + len;
        replay.good_bytes = pos as u64;
    }
    Ok(replay)
}

/// Append handle on a WAL file. Every [`append`](WalWriter::append) is
/// fsync'd before returning, so an acknowledged record survives a crash.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    records: usize,
}

impl WalWriter {
    /// Opens (or creates) the WAL at `path` for appending.
    ///
    /// The existing contents are validated first: a torn tail is
    /// truncated away (crash tolerance), while checksum corruption is
    /// reported as [`StoreError::Corrupt`]. Returns the writer together
    /// with the replay of the surviving records so the caller opens and
    /// recovers in one validated pass.
    pub fn open(path: &Path) -> Result<(WalWriter, WalReplay)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let replay = replay_wal(path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if replay.good_bytes == 0 {
            // Fresh (or empty) file: stamp the magic.
            file.set_len(0)?;
            file.write_all(&WAL_MAGIC)?;
            file.sync_data()?;
        } else if replay.truncated_bytes > 0 {
            // Discard the torn tail so future frames start clean.
            file.set_len(replay.good_bytes)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::End(0))?;
        let writer = WalWriter {
            file,
            path: path.to_path_buf(),
            records: replay.records.len(),
        };
        Ok((writer, replay))
    }

    /// Appends one record and fsyncs. The payload is opaque bytes.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() as u64 > MAX_RECORD_LEN as u64 {
            return Err(StoreError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "record of {} bytes exceeds cap {MAX_RECORD_LEN}",
                    payload.len()
                ),
            )));
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.records += 1;
        Ok(())
    }

    /// Truncates the log back to just the magic (after a snapshot has
    /// made the logged suffix redundant) and fsyncs.
    pub fn reset(&mut self) -> Result<()> {
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        self.file.sync_data()?;
        self.records = 0;
        Ok(())
    }

    /// Number of records currently in the log.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Writes `bytes` to `path` atomically: the content lands in a `.tmp`
/// sibling first, is fsync'd, and is then renamed over the target, so
/// readers observe either the old artifact or the new one — never a
/// torn prefix. Used by both the legacy `save_cache` path and the
/// snapshot path.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::create_dir_all(&parent)?;
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            StoreError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "write_atomic target has no file name",
            ))
        })?
        .to_os_string();
    let mut tmp_name = file_name;
    tmp_name.push(".tmp");
    let tmp = parent.join(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable where the platform allows it.
    if let Ok(dir) = File::open(&parent) {
        dir.sync_all().ok();
    }
    Ok(())
}

/// Reads `path`, mapping a missing file to `Ok(None)` (cold start).
pub fn read_optional(path: &Path) -> Result<Option<Vec<u8>>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Reads `path` to a string, mapping a missing file to `Ok(None)`.
pub fn read_optional_string(path: &Path) -> Result<Option<String>> {
    match read_optional(path)? {
        None => Ok(None),
        Some(bytes) => String::from_utf8(bytes)
            .map(Some)
            .map_err(|e| StoreError::Corrupt {
                path: path.to_path_buf(),
                offset: e.utf8_error().valid_up_to() as u64,
                records_ok: 0,
                message: "artifact is not valid UTF-8".to_string(),
            }),
    }
}

/// Copies a file's bytes, used by tests to simulate crashes. Lives here
/// (rather than in test code) so the bench and integration tests share
/// one definition.
pub fn read_file(path: &Path) -> Result<Vec<u8>> {
    Ok(std::fs::read(path)?)
}

/// Canonical on-disk location of one shard's store inside a sharded
/// deployment's base directory: `<base>/shard-<index>`. Every layer that
/// names shard stores — the router CLI, the rebalance executor, the
/// chaos tests, the bench harness — goes through this one function so a
/// deployment's layout is never spelled twice.
pub fn shard_dir(base: &Path, shard: usize) -> PathBuf {
    base.join(format!("shard-{shard}"))
}

/// Moves a whole store directory (the WAL, the snapshot, and any other
/// file in it) from `src` to `dst` wholesale. Prefers an atomic `rename`; when the
/// paths straddle filesystems it falls back to copy-then-remove, copying
/// file by file and only deleting `src` after every byte landed. `dst`
/// must not already exist (a half-merged store is worse than a typed
/// error).
pub fn move_store_dir(src: &Path, dst: &Path) -> Result<()> {
    if dst.exists() {
        return Err(StoreError::Io(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("move target {} already exists", dst.display()),
        )));
    }
    if let Some(parent) = dst.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    match std::fs::rename(src, dst) {
        Ok(()) => Ok(()),
        Err(_) => {
            copy_dir_recursive(src, dst)?;
            std::fs::remove_dir_all(src)?;
            Ok(())
        }
    }
}

fn copy_dir_recursive(src: &Path, dst: &Path) -> Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let target = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir_recursive(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("accqoc_store_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("wal.log");
        let payloads: Vec<Vec<u8>> = vec![b"alpha".to_vec(), vec![], vec![0xFF; 1024]];
        {
            let (mut wal, replay) = WalWriter::open(&path).unwrap();
            assert!(replay.records.is_empty());
            for p in &payloads {
                wal.append(p).unwrap();
            }
            assert_eq!(wal.records(), 3);
        }
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, payloads);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_file_is_cold_start() {
        let dir = tmp_dir("missing");
        let replay = replay_wal(&dir.join("nope.log")).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.good_bytes, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        {
            let (mut wal, _) = WalWriter::open(&path).unwrap();
            wal.append(b"first").unwrap();
            wal.append(b"second").unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the last frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (mut wal, replay) = WalWriter::open(&path).unwrap();
        assert_eq!(replay.records, vec![b"first".to_vec()]);
        assert!(replay.truncated_bytes > 0);
        // The torn tail is gone: appending now yields a clean two-record log.
        wal.append(b"third").unwrap();
        drop(wal);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, vec![b"first".to_vec(), b"third".to_vec()]);
        assert_eq!(replay.truncated_bytes, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn checksum_corruption_is_typed_error() {
        let dir = tmp_dir("corrupt");
        let path = dir.join("wal.log");
        {
            let (mut wal, _) = WalWriter::open(&path).unwrap();
            wal.append(b"good record").unwrap();
            wal.append(b"soon corrupted").unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload bit inside the *second* frame (past magic +
        // frame1 header + frame1 payload + frame2 header).
        let second_payload = WAL_MAGIC.len() + FRAME_HEADER + b"good record".len() + FRAME_HEADER;
        bytes[second_payload] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let err = replay_wal(&path).unwrap_err();
        match err {
            StoreError::Corrupt {
                records_ok, offset, ..
            } => {
                assert_eq!(records_ok, 1, "stops at last good record");
                assert_eq!(
                    offset,
                    (WAL_MAGIC.len() + FRAME_HEADER + b"good record".len()) as u64
                );
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn absurd_length_prefix_is_corruption_not_allocation() {
        let dir = tmp_dir("hugelen");
        let path = dir.join("wal.log");
        let mut bytes = WAL_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        // Enough trailing bytes that it's not a short header.
        bytes.extend_from_slice(&[0u8; 32]);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(replay_wal(&path), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reset_empties_the_log() {
        let dir = tmp_dir("reset");
        let path = dir.join("wal.log");
        let (mut wal, _) = WalWriter::open(&path).unwrap();
        wal.append(b"a").unwrap();
        wal.append(b"b").unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.records(), 0);
        wal.append(b"c").unwrap();
        drop(wal);
        let replay = replay_wal(&path).unwrap();
        assert_eq!(replay.records, vec![b"c".to_vec()]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn write_atomic_replaces_and_never_tears() {
        let dir = tmp_dir("atomic");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"version one").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"version one");
        write_atomic(&path, b"version two, longer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"version two, longer");
        // No temp residue.
        assert!(!dir.join("artifact.json.tmp").exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn shard_dir_layout_is_stable() {
        let base = Path::new("/data/ring");
        assert_eq!(shard_dir(base, 0), base.join("shard-0"));
        assert_eq!(shard_dir(base, 12), base.join("shard-12"));
    }

    #[test]
    fn move_store_dir_relocates_wholesale_and_refuses_clobber() {
        let dir = tmp_dir("move");
        let src = dir.join("shard-0");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(src.join("library.wal"), b"wal bytes").unwrap();
        std::fs::write(src.join("snapshot.json"), b"snapshot bytes").unwrap();
        let dst = dir.join("shard-0.retired");
        move_store_dir(&src, &dst).unwrap();
        assert!(!src.exists(), "source is gone after the move");
        assert_eq!(
            std::fs::read(dst.join("library.wal")).unwrap(),
            b"wal bytes"
        );
        assert_eq!(
            std::fs::read(dst.join("snapshot.json")).unwrap(),
            b"snapshot bytes"
        );
        // A second move into the same target is a typed refusal, not a merge.
        std::fs::create_dir_all(&src).unwrap();
        assert!(move_store_dir(&src, &dst).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn read_optional_maps_missing_to_none() {
        let dir = tmp_dir("optional");
        assert!(read_optional(&dir.join("gone")).unwrap().is_none());
        std::fs::write(dir.join("here"), b"x").unwrap();
        assert_eq!(read_optional(&dir.join("here")).unwrap().unwrap(), b"x");
        std::fs::remove_dir_all(dir).ok();
    }
}
