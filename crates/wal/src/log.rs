//! The on-disk log: framing, append, torn-tail scanning, snapshot
//! installation, and the crash windows each step is designed to survive.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/wal.log       header (magic ‖ base_lsn) + frames
//! <dir>/snapshot.fgs  magic + one checksummed SnapshotState
//! <dir>/*.tmp         in-flight atomic writes (ignored by recovery)
//! ```
//!
//! Each frame is `len(u32 LE) ‖ class(u8) ‖ pcrc(u32 LE) ‖ hcrc(u32 LE)
//! ‖ payload` — see [`frame`] for why the class byte lives in the
//! header under its own checksum. Record `i` of a log with header
//! `base_lsn = b` has LSN `b + i`. A snapshot stores the LSN up to
//! which it is current; records below it are skipped on replay, which
//! closes the crash window between "snapshot renamed into place" and
//! "log rotated". Every rename is followed by an fsync of the
//! directory, so the two renames become durable in order; recovery
//! cross-checks them (a snapshot older than the log's `base_lsn` means
//! records were rotated away without a durable snapshot covering them —
//! fail closed).
//!
//! ## Failure semantics
//!
//! * **Append**: the frame is written with one `write_all`. If the write
//!   itself errors, the on-disk suffix is unknown, so the store is
//!   *poisoned* (all later appends fail) — the next open repairs the tail.
//! * **Flush/sync failure** (`wal::flush` fault site): the record may or
//!   may not have reached disk, so acknowledging it would be a lie and
//!   forgetting it silently would lose a committed change. The append is
//!   rolled back by truncating to the pre-append length and the caller
//!   gets the error — the statement fails as a whole. If even the
//!   truncate fails, the store is poisoned.
//! * **Torn write** (`wal::append_torn` fault site): half the frame is
//!   written and the store poisons itself, simulating a power cut
//!   mid-record. Recovery classifies the partial frame as a torn tail
//!   and truncates it.
//! * **Scan**: a frame whose header does not fit before EOF, or whose
//!   (header-validated) payload runs past EOF, is a torn tail —
//!   truncated. A full header whose own checksum fails is *corruption*
//!   ([`Error::Corrupt`]): a torn write lands a strict prefix of a
//!   valid frame, so it can shorten a header but never produce thirteen
//!   self-inconsistent bytes. With a valid header, a payload-checksum
//!   failure fails closed unless it is the final frame **and** the
//!   header's class byte marks a data record, in which case it is one
//!   torn write older and also truncated. Policy records never get tail
//!   leniency, and the decision never reads an unprotected byte.
//! * **Snapshot install** (`wal::rotate` fault site): the snapshot
//!   rename is made durable (file + directory fsync) before the log
//!   rotation rename is issued. Once the rotation rename happens, the
//!   old log's inode is unlinked — any failure before the store is
//!   reattached to the new file poisons it, because appending to the
//!   orphaned inode would acknowledge unrecoverable writes.

use crate::crc::crc32;
use crate::record::{
    encode_dml, frame, FrameHeader, WalRecord, CLASS_DATA, CLASS_POLICY, FRAME_HEADER_LEN,
};
use crate::snapshot::SnapshotState;
use fgac_types::wire::{Reader, WireDecode, WireEncode};
use fgac_types::{Error, Result};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

const WAL_MAGIC: &[u8; 8] = b"FGACWAL2";
const SNAP_MAGIC: &[u8; 8] = b"FGACSNP2";
const WAL_HEADER_LEN: usize = 16;

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Execution(format!("wal {what}: {e}"))
}

/// What recovery found and repaired while opening a directory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded, and its LSN.
    pub snapshot_lsn: Option<u64>,
    /// Log records scanned (before LSN filtering).
    pub records_scanned: usize,
    /// Bytes of torn tail truncated from the log (0 = clean shutdown).
    pub truncated_tail_bytes: u64,
}

/// Result of scanning a directory: the snapshot (if any), the decoded
/// log records with their LSNs, and a store positioned for appending.
#[derive(Debug)]
pub struct Recovered {
    pub snapshot: Option<SnapshotState>,
    pub records: Vec<(u64, WalRecord)>,
    pub store: WalStore,
    pub report: RecoveryReport,
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct WalStore {
    dir: PathBuf,
    file: File,
    /// Current log length in bytes (header included).
    len: u64,
    base_lsn: u64,
    next_lsn: u64,
    /// Once poisoned, every append fails with this reason. Set when the
    /// on-disk suffix is in an unknown state; cleared only by reopening
    /// (which repairs the tail).
    poisoned: Option<String>,
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join("wal.log")
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.fgs")
}

fn write_new_log(path: &Path, base_lsn: u64) -> Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(true)
        .open(path)
        .map_err(|e| io_err("create", e))?;
    let mut header = Vec::with_capacity(WAL_HEADER_LEN);
    header.extend_from_slice(WAL_MAGIC);
    header.extend_from_slice(&base_lsn.to_le_bytes());
    file.write_all(&header).map_err(|e| io_err("header write", e))?;
    file.sync_data().map_err(|e| io_err("header sync", e))?;
    Ok(file)
}

/// LSN of the `index`-th record of a log that starts at `base_lsn`. The
/// header carrying `base_lsn` has no checksum, so one that leaves no
/// room for the records is corruption.
fn lsn_at(base_lsn: u64, index: usize) -> Result<u64> {
    u64::try_from(index)
        .ok()
        .and_then(|i| base_lsn.checked_add(i))
        .ok_or_else(|| {
            Error::Corrupt(format!(
                "wal record {index} past base lsn {base_lsn}: lsn overflows"
            ))
        })
}

fn open_append(path: &Path) -> Result<File> {
    OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err("open", e))
}

/// Fsyncs the directory itself. A rename is only durable once the
/// directory entry pointing at the new inode has reached disk; without
/// this, power loss can reorder "snapshot renamed" and "log rotated"
/// or lose either one.
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("dir sync", e))
}

impl WalStore {
    /// Creates a fresh, empty log in `dir` (created if missing). Fails if
    /// a log already exists there — opening existing state must go
    /// through [`WalStore::recover`] so the tail gets repaired.
    pub fn create(dir: &Path) -> Result<WalStore> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", e))?;
        let path = wal_path(dir);
        if path.exists() {
            return Err(Error::Execution(format!(
                "wal already exists at {}; use recovery to open it",
                path.display()
            )));
        }
        write_new_log(&path, 0)?;
        sync_dir(dir)?;
        Ok(WalStore {
            dir: dir.to_path_buf(),
            file: open_append(&path)?,
            len: WAL_HEADER_LEN as u64,
            base_lsn: 0,
            next_lsn: 0,
            poisoned: None,
        })
    }

    /// Scans `dir`, repairing a torn tail, and returns the snapshot, the
    /// decoded records, and a store positioned at the end of the log.
    ///
    /// Fail-closed rules are enforced here — see the module docs.
    pub fn recover(dir: &Path) -> Result<Recovered> {
        let mut report = RecoveryReport::default();
        let snapshot = load_snapshot(dir)?;
        report.snapshot_lsn = snapshot.as_ref().map(|s| s.lsn);

        let path = wal_path(dir);
        let bytes = std::fs::read(&path).map_err(|e| io_err("read", e))?;
        // `rest` is the unscanned suffix of `bytes`; a frame starts at its head.
        let (base_lsn, mut rest) = match bytes.split_first_chunk::<8>() {
            Some((magic, rest)) if magic == WAL_MAGIC => rest.split_first_chunk::<8>(),
            _ => None,
        }
        .ok_or_else(|| Error::Corrupt(format!("wal header invalid in {}", path.display())))?;
        let base_lsn = u64::from_le_bytes(*base_lsn);

        // LSN continuity: a rotated log (base_lsn > 0) promises that a
        // snapshot covers every record below base_lsn. If the snapshot
        // is missing or older — e.g. its rename was lost while the
        // rotation survived — acknowledged records in [snap, base) are
        // gone, so serving would silently drop committed changes.
        let snap_lsn = snapshot.as_ref().map_or(0, |s| s.lsn);
        if snap_lsn < base_lsn {
            return Err(Error::Corrupt(format!(
                "wal base_lsn {base_lsn} exceeds snapshot lsn {snap_lsn}: records in \
                 [{snap_lsn}, {base_lsn}) were rotated away without a durable snapshot"
            )));
        }

        let mut records = Vec::new();
        let mut truncate_at: Option<usize> = None;
        while !rest.is_empty() {
            // Crash-during-recovery fault site: fires before anything in
            // this frame is trusted, so an aborted recovery changes no
            // state and a rerun sees the same bytes.
            #[cfg(feature = "fault-injection")]
            fgac_types::faults::hit("wal::recover")?;
            let pos = bytes.len().saturating_sub(rest.len());
            let Some((header, after)) = rest.split_first_chunk::<FRAME_HEADER_LEN>() else {
                // Not even a full frame header: torn tail.
                truncate_at = Some(pos);
                break;
            };
            let lsn = lsn_at(base_lsn, records.len())?;
            // A torn write lands a strict prefix of a valid frame, so
            // thirteen present-but-inconsistent header bytes can only be
            // corruption — and with an untrusted header neither `len`
            // nor `class` means anything. Fail closed before using them.
            let FrameHeader {
                len,
                class,
                payload_crc,
            } = FrameHeader::parse(header).ok_or_else(|| {
                Error::Corrupt(format!("wal record {lsn}: frame header checksum mismatch"))
            })?;
            if class != CLASS_POLICY && class != CLASS_DATA {
                return Err(Error::Corrupt(format!(
                    "wal record {lsn}: unknown frame class {class:#x}"
                )));
            }
            let Some((payload, next)) = after.split_at_checked(len) else {
                // Valid header, payload runs past EOF: torn tail.
                truncate_at = Some(pos);
                break;
            };
            if crc32(payload) != payload_crc {
                let is_final = next.is_empty();
                if is_final && class == CLASS_DATA {
                    // A torn write that happened to complete its header:
                    // data record at the tail, truncate. The class comes
                    // from the header (validated above), never from the
                    // damaged payload.
                    truncate_at = Some(pos);
                    break;
                }
                return Err(Error::Corrupt(format!(
                    "wal record {lsn}: checksum mismatch on a {} record",
                    if class == CLASS_POLICY {
                        "policy"
                    } else {
                        "non-final data"
                    }
                )));
            }
            let mut r = Reader::new(payload);
            let record = WalRecord::decode(&mut r)
                .and_then(|rec| r.expect_end().map(|()| rec))
                .map_err(|e| Error::Corrupt(format!("wal record {lsn}: {e}")))?;
            if record.class() != class {
                return Err(Error::Corrupt(format!(
                    "wal record {lsn}: frame class {class:#x} does not match the decoded record"
                )));
            }
            records.push((lsn, record));
            rest = next;
        }

        if let Some(at) = truncate_at {
            // `at` is a frame start, so it lies inside `bytes`.
            report.truncated_tail_bytes = bytes.len().saturating_sub(at) as u64;
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| io_err("open for truncate", e))?;
            file.set_len(at as u64).map_err(|e| io_err("truncate", e))?;
            file.sync_data().map_err(|e| io_err("truncate sync", e))?;
        }
        report.records_scanned = records.len();

        let len = truncate_at.map_or(bytes.len(), |at| at) as u64;
        let next_lsn = lsn_at(base_lsn, records.len())?;
        Ok(Recovered {
            snapshot,
            records,
            store: WalStore {
                dir: dir.to_path_buf(),
                file: open_append(&path)?,
                len,
                base_lsn,
                next_lsn,
                poisoned: None,
            },
            report,
        })
    }

    /// LSN the next append will get.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Records in the current log file (since the last snapshot).
    pub fn records_in_log(&self) -> u64 {
        // `next_lsn` starts at `base_lsn` and only grows; a rotation
        // moves both to the snapshot LSN.
        self.next_lsn.saturating_sub(self.base_lsn)
    }

    /// Log length in bytes, header included.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    fn poison(&mut self, why: &str) {
        self.poisoned = Some(why.to_string());
    }

    fn check_poisoned(&self) -> Result<()> {
        match &self.poisoned {
            Some(why) => Err(Error::Execution(format!(
                "wal is poisoned ({why}); reopen the directory to recover"
            ))),
            None => Ok(()),
        }
    }

    /// Appends one record; with `sync`, also fsyncs before acknowledging.
    /// Returns the record's LSN.
    pub fn append(&mut self, record: &WalRecord, sync: bool) -> Result<u64> {
        self.append_payload(&record.to_bytes(), record.class(), sync)
    }

    /// Appends the `Dml` record of these deltas — byte for byte what
    /// [`WalStore::append`] writes for `WalRecord::Dml` — encoding them
    /// where they are.
    pub fn append_dml<'a>(
        &mut self,
        deltas: impl Iterator<Item = fgac_storage::DeltaRef<'a>>,
        sync: bool,
    ) -> Result<u64> {
        let mut payload = Vec::new();
        encode_dml(deltas, &mut payload);
        self.append_payload(&payload, CLASS_DATA, sync)
    }

    fn append_payload(&mut self, payload: &[u8], class: u8, sync: bool) -> Result<u64> {
        self.check_poisoned()?;
        #[cfg(feature = "fault-injection")]
        fgac_types::faults::hit("wal::append")?;
        let framed = frame(payload, class)?;
        // Only a corrupt header's base LSN or a log of 2^64 bytes gets
        // here; refuse before writing anything.
        let lsn = self.next_lsn;
        let (Some(next_lsn), Some(len)) = (
            lsn.checked_add(1),
            self.len.checked_add(framed.len() as u64),
        ) else {
            return Err(Error::Corrupt(format!("wal record {lsn}: lsn or length overflows")));
        };

        #[cfg(feature = "fault-injection")]
        if let Err(e) = fgac_types::faults::hit("wal::append_torn") {
            // Power cut mid-record: half the frame lands, the writer dies.
            let half = framed.len() / 2;
            let _ = self.file.write_all(framed.get(..half).unwrap_or_default());
            let _ = self.file.sync_data();
            self.poison("torn append");
            return Err(e);
        }

        let pre_len = self.len;
        if let Err(e) = self.file.write_all(&framed) {
            // How much of the frame landed is unknown.
            self.poison("partial append");
            return Err(io_err("append", e));
        }
        self.len = len;

        #[allow(
            clippy::redundant_closure_call,
            reason = "the immediate closure gives the cfg'd fault line a `?` scope; \
                      without fault-injection it collapses to the `if`"
        )]
        let flushed: Result<()> = (|| {
            #[cfg(feature = "fault-injection")]
            fgac_types::faults::hit("wal::flush")?;
            if sync {
                self.file.sync_data().map_err(|e| io_err("sync", e))
            } else {
                Ok(())
            }
        })();
        if let Err(e) = flushed {
            // The record's durability is unknown; un-acknowledged-but-
            // durable would replay a change the caller saw fail, so roll
            // the append back entirely.
            match self.file.set_len(pre_len) {
                Ok(()) => self.len = pre_len,
                Err(_) => self.poison("flush-rollback truncate failed"),
            }
            return Err(e);
        }

        self.next_lsn = next_lsn;
        Ok(lsn)
    }

    /// Fsyncs the log (clean-shutdown path).
    pub fn sync(&mut self) -> Result<()> {
        self.check_poisoned()?;
        self.file.sync_data().map_err(|e| io_err("sync", e))
    }

    /// Atomically installs a snapshot and rotates the log.
    ///
    /// `state.lsn` must equal [`WalStore::next_lsn`]. Both files go
    /// through write-temp + fsync + rename + directory fsync, in that
    /// order, so the snapshot rename is durable *before* the rotation
    /// rename is issued: after power loss the disk holds either the old
    /// pair, the new snapshot with the old log (replay skips records
    /// below the snapshot LSN), or the new pair — never a rotated log
    /// whose folded-away records have no durable snapshot (recovery
    /// cross-checks this and fails closed).
    ///
    /// Failures before the rotation rename leave the store on the old,
    /// intact log — the error is returned and the log still holds every
    /// record. Failures after it (`wal::rotate` fault site) poison the
    /// store: the old inode is unlinked, so acknowledging appends into
    /// it would lose them silently.
    pub fn install_snapshot(&mut self, state: &SnapshotState) -> Result<()> {
        self.check_poisoned()?;
        #[cfg(feature = "fault-injection")]
        fgac_types::faults::hit("wal::snapshot")?;
        if state.lsn != self.next_lsn {
            return Err(Error::Internal(format!(
                "snapshot lsn {} != next lsn {}",
                state.lsn, self.next_lsn
            )));
        }
        let payload = state.to_bytes();
        let doc = [SNAP_MAGIC.as_slice(), &frame(&payload, CLASS_POLICY)?].concat();

        let tmp = self.dir.join("snapshot.tmp");
        let final_path = snapshot_path(&self.dir);
        write_atomic(&tmp, &final_path, &doc)?;
        sync_dir(&self.dir)?;

        // Rotate: a fresh log whose base LSN is the snapshot LSN.
        let wal_tmp = self.dir.join("wal.tmp");
        let final_wal = wal_path(&self.dir);
        {
            let file = write_new_log(&wal_tmp, state.lsn)?;
            drop(file);
        }
        std::fs::rename(&wal_tmp, &final_wal).map_err(|e| io_err("log rotate", e))?;
        // From here on self.file still points at the OLD log, whose
        // inode the rename just unlinked. Until the store is reattached
        // to the new file, any exit path must poison — otherwise later
        // appends land in the orphaned inode, get acknowledged, and
        // vanish (recovery only sees the new, empty log).
        let reattached = (|| -> Result<File> {
            #[cfg(feature = "fault-injection")]
            fgac_types::faults::hit("wal::rotate")?;
            sync_dir(&self.dir)?;
            open_append(&final_wal)
        })();
        match reattached {
            Ok(file) => {
                self.file = file;
                self.len = WAL_HEADER_LEN as u64;
                self.base_lsn = state.lsn;
                Ok(())
            }
            Err(e) => {
                self.poison("log rotation reattach failed");
                Err(e)
            }
        }
    }
}

fn write_atomic(tmp: &Path, final_path: &Path, bytes: &[u8]) -> Result<()> {
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(tmp)
            .map_err(|e| io_err("snapshot create", e))?;
        f.write_all(bytes).map_err(|e| io_err("snapshot write", e))?;
        f.sync_data().map_err(|e| io_err("snapshot sync", e))?;
    }
    std::fs::rename(tmp, final_path).map_err(|e| io_err("snapshot rename", e))
}

/// Loads and verifies the snapshot, if one exists. Any damage — bad
/// magic, bad checksum, truncation, undecodable payload — is
/// [`Error::Corrupt`]: the snapshot carries grant state and gets no
/// torn-tail leniency (it was renamed into place atomically, so a valid
/// installation is never partial).
fn load_snapshot(dir: &Path) -> Result<Option<SnapshotState>> {
    let path = snapshot_path(dir);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("snapshot read", e)),
    };
    let corrupt = |what: &str| Error::Corrupt(format!("snapshot {}: {what}", path.display()));
    let (header, payload) = match bytes.split_first_chunk::<8>() {
        Some((magic, rest)) if magic == SNAP_MAGIC => rest.split_first_chunk::<FRAME_HEADER_LEN>(),
        _ => None,
    }
    .ok_or_else(|| corrupt("bad magic or truncated header"))?;
    let header =
        FrameHeader::parse(header).ok_or_else(|| corrupt("frame header checksum mismatch"))?;
    if header.class != CLASS_POLICY {
        return Err(corrupt("frame class is not policy"));
    }
    if payload.len() != header.len {
        return Err(corrupt("length mismatch"));
    }
    if crc32(payload) != header.payload_crc {
        return Err(corrupt("checksum mismatch"));
    }
    let mut r = Reader::new(payload);
    let state = SnapshotState::decode(&mut r).and_then(|s| r.expect_end().map(|()| s))?;
    Ok(Some(state))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(
        clippy::disallowed_types,
        reason = "a temp-dir id source: the name needs fetch_add's return value, which a Counter does not give"
    )]
    fn tmp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "fgac-wal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn rec(i: u64) -> WalRecord {
        WalRecord::AddRole {
            user: format!("u{i}"),
            role: "student".into(),
        }
    }

    fn snap(lsn: u64) -> SnapshotState {
        SnapshotState {
            lsn,
            data_version: 0,
            policy_epoch: lsn,
            tables: vec![],
            foreign_keys: vec![],
            views_sql: vec![],
            inclusion_deps_sql: vec![],
            grants: Default::default(),
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut store = WalStore::create(&dir).unwrap();
        for i in 0..5 {
            assert_eq!(store.append(&rec(i), false).unwrap(), i);
        }
        store.sync().unwrap();
        drop(store);
        let recovered = WalStore::recover(&dir).unwrap();
        assert_eq!(recovered.records.len(), 5);
        assert_eq!(recovered.report.truncated_tail_bytes, 0);
        for (i, (lsn, r)) in recovered.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(r, &rec(i as u64));
        }
        assert_eq!(recovered.store.next_lsn(), 5);
    }

    #[test]
    fn create_refuses_existing_log() {
        let dir = tmp_dir("exists");
        WalStore::create(&dir).unwrap();
        assert!(WalStore::create(&dir).is_err());
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmp_dir("torn");
        let mut store = WalStore::create(&dir).unwrap();
        store.append(&rec(0), true).unwrap();
        drop(store);
        // Simulate a torn final record: a partial frame header (fewer
        // than FRAME_HEADER_LEN bytes landed).
        let path = wal_path(&dir);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[200, 0, 0, 0, 1, 2, 3, 4, 9, 9]).unwrap();
        drop(f);
        let before = std::fs::metadata(&path).unwrap().len();
        let recovered = WalStore::recover(&dir).unwrap();
        assert_eq!(recovered.records.len(), 1);
        assert_eq!(recovered.report.truncated_tail_bytes, 10);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before - 10);
        // A second recovery is a no-op: same records, nothing truncated.
        let again = WalStore::recover(&dir).unwrap();
        assert_eq!(again.records.len(), 1);
        assert_eq!(again.report.truncated_tail_bytes, 0);
    }

    #[test]
    fn torn_payload_with_complete_header_is_truncated() {
        // The other torn-write shape: the full header landed but the
        // payload was cut short. The header is self-consistent, so the
        // scan classifies this as a tear, not corruption.
        let dir = tmp_dir("torn-payload");
        let mut store = WalStore::create(&dir).unwrap();
        store.append(&rec(0), true).unwrap();
        drop(store);
        let path = wal_path(&dir);
        let framed = frame(&rec(1).to_bytes(), CLASS_POLICY).unwrap();
        let cut = FRAME_HEADER_LEN + 2; // header + 2 payload bytes
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&framed[..cut]).unwrap();
        drop(f);
        let recovered = WalStore::recover(&dir).unwrap();
        assert_eq!(recovered.records.len(), 1);
        assert_eq!(recovered.report.truncated_tail_bytes, cut as u64);
    }

    #[test]
    fn corrupt_policy_record_fails_closed() {
        let dir = tmp_dir("corrupt-policy");
        let mut store = WalStore::create(&dir).unwrap();
        store.append(&rec(0), true).unwrap();
        drop(store);
        // Flip one payload bit of the (policy) record.
        let path = wal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = WalStore::recover(&dir).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn corrupt_final_data_record_is_torn_tail() {
        let dir = tmp_dir("corrupt-data");
        let mut store = WalStore::create(&dir).unwrap();
        store.append(&rec(0), false).unwrap();
        store
            .append(&WalRecord::Dml { deltas: vec![] }, true)
            .unwrap();
        drop(store);
        let path = wal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // damage the final (data) record's payload
        std::fs::write(&path, &bytes).unwrap();
        let recovered = WalStore::recover(&dir).unwrap();
        assert_eq!(recovered.records.len(), 1, "data tail dropped");
        assert!(recovered.report.truncated_tail_bytes > 0);
    }

    #[test]
    fn corrupt_non_final_data_record_fails_closed() {
        let dir = tmp_dir("corrupt-mid");
        let mut store = WalStore::create(&dir).unwrap();
        store
            .append(&WalRecord::Dml { deltas: vec![] }, false)
            .unwrap();
        store.append(&rec(1), true).unwrap();
        drop(store);
        let path = wal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        // Damage the first record's last payload byte (it sits right
        // before the second frame's header).
        let dml_payload_len = WalRecord::Dml { deltas: vec![] }.to_bytes().len();
        let idx = WAL_HEADER_LEN + FRAME_HEADER_LEN + dml_payload_len - 1;
        bytes[idx] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = WalStore::recover(&dir).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn snapshot_roundtrip_and_rotation() {
        let dir = tmp_dir("snap");
        let mut store = WalStore::create(&dir).unwrap();
        for i in 0..3 {
            store.append(&rec(i), false).unwrap();
        }
        let state = SnapshotState {
            lsn: 3,
            data_version: 0,
            policy_epoch: 3,
            tables: vec![],
            foreign_keys: vec![],
            views_sql: vec![],
            inclusion_deps_sql: vec![],
            grants: Default::default(),
        };
        store.install_snapshot(&state).unwrap();
        assert_eq!(store.records_in_log(), 0);
        store.append(&rec(3), true).unwrap();
        drop(store);
        let recovered = WalStore::recover(&dir).unwrap();
        let snap = recovered.snapshot.unwrap();
        assert_eq!(snap.lsn, 3);
        assert_eq!(recovered.records, vec![(3, rec(3))]);
    }

    #[test]
    fn corrupt_snapshot_fails_closed() {
        let dir = tmp_dir("snap-corrupt");
        let mut store = WalStore::create(&dir).unwrap();
        let state = SnapshotState {
            lsn: 0,
            data_version: 0,
            policy_epoch: 0,
            tables: vec![],
            foreign_keys: vec![],
            views_sql: vec![],
            inclusion_deps_sql: vec![],
            grants: Default::default(),
        };
        store.install_snapshot(&state).unwrap();
        drop(store);
        let path = snapshot_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();
        let err = WalStore::recover(&dir).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn snapshot_newer_than_log_skips_already_folded_records() {
        // Simulates a crash between snapshot rename and log rotation:
        // the snapshot says lsn=2 but the old log still holds lsns 0..2.
        let dir = tmp_dir("snap-race");
        let mut store = WalStore::create(&dir).unwrap();
        store.append(&rec(0), false).unwrap();
        store.append(&rec(1), true).unwrap();
        let state = SnapshotState {
            lsn: 2,
            data_version: 0,
            policy_epoch: 2,
            tables: vec![],
            foreign_keys: vec![],
            views_sql: vec![],
            inclusion_deps_sql: vec![],
            grants: Default::default(),
        };
        // Install the snapshot by hand WITHOUT rotating the log.
        let payload = state.to_bytes();
        let mut doc = Vec::new();
        doc.extend_from_slice(SNAP_MAGIC);
        doc.extend_from_slice(&frame(&payload, CLASS_POLICY).unwrap());
        std::fs::write(snapshot_path(&dir), &doc).unwrap();
        drop(store);
        let recovered = WalStore::recover(&dir).unwrap();
        assert_eq!(recovered.snapshot.unwrap().lsn, 2);
        // Both records are still scanned; the *caller* filters lsn < 2.
        assert_eq!(recovered.records.len(), 2);
    }

    #[test]
    fn flipped_class_byte_fails_closed() {
        // Corruption must not be able to reclassify a final policy
        // record as data to win tail leniency: the class byte is
        // covered by the header checksum, so flipping it is detected
        // before the (also damaged) payload is ever consulted.
        let dir = tmp_dir("class-flip");
        let mut store = WalStore::create(&dir).unwrap();
        store.append(&rec(0), true).unwrap();
        drop(store);
        let path = wal_path(&dir);
        let mut bytes = std::fs::read(&path).unwrap();
        let class_idx = WAL_HEADER_LEN + 4;
        assert_eq!(bytes[class_idx], CLASS_POLICY);
        bytes[class_idx] = CLASS_DATA;
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // and damage the payload, as a tear would
        std::fs::write(&path, &bytes).unwrap();
        let err = WalStore::recover(&dir).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn rotated_log_without_snapshot_fails_closed() {
        // A lost snapshot rename after a durable log rotation: the log
        // says base_lsn=1 but no snapshot covers [0, 1). Loading the
        // stale state and silently skipping the gap would drop
        // acknowledged commits — recovery must refuse.
        let dir = tmp_dir("lost-snap");
        let mut store = WalStore::create(&dir).unwrap();
        store.append(&rec(0), true).unwrap();
        store.install_snapshot(&snap(1)).unwrap();
        drop(store);
        std::fs::remove_file(snapshot_path(&dir)).unwrap();
        let err = WalStore::recover(&dir).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn snapshot_older_than_base_lsn_fails_closed() {
        // Same gap, with a snapshot present but too old (lsn 1 < base 2).
        let dir = tmp_dir("stale-snap");
        let mut store = WalStore::create(&dir).unwrap();
        store.append(&rec(0), false).unwrap();
        store.append(&rec(1), true).unwrap();
        store.install_snapshot(&snap(2)).unwrap();
        drop(store);
        let mut doc = Vec::new();
        doc.extend_from_slice(SNAP_MAGIC);
        doc.extend_from_slice(&frame(&snap(1).to_bytes(), CLASS_POLICY).unwrap());
        std::fs::write(snapshot_path(&dir), &doc).unwrap();
        let err = WalStore::recover(&dir).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn lsn_overflow_in_a_corrupt_log_fails_closed() {
        // The header's base LSN carries no checksum. One at u64::MAX,
        // with a snapshot claiming to cover it, leaves no LSN for the
        // second frame: recovery must refuse, not wrap to 0 and replay
        // with LSNs running backwards.
        let dir = tmp_dir("lsn-overflow");
        let mut store = WalStore::create(&dir).unwrap();
        store.append(&rec(0), false).unwrap();
        store.append(&rec(1), true).unwrap();
        drop(store);
        let mut log = std::fs::read(wal_path(&dir)).unwrap();
        log[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(wal_path(&dir), &log).unwrap();
        let mut doc = SNAP_MAGIC.to_vec();
        doc.extend_from_slice(&frame(&snap(u64::MAX).to_bytes(), CLASS_POLICY).unwrap());
        std::fs::write(snapshot_path(&dir), &doc).unwrap();
        let err = WalStore::recover(&dir).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("lsn overflows")),
            "got {err:?}"
        );

        // With no frames the log recovers at LSN u64::MAX, and the
        // append that would need the next LSN is refused unwritten.
        std::fs::write(wal_path(&dir), &log[..WAL_HEADER_LEN]).unwrap();
        let mut store = WalStore::recover(&dir).unwrap().store;
        assert_eq!(store.next_lsn(), u64::MAX);
        let err = store.append(&rec(2), true).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err:?}");
        assert_eq!(store.len_bytes(), WAL_HEADER_LEN as u64);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn failed_rotation_reattach_poisons_the_store() {
        use fgac_types::faults::{self, Fault};
        let dir = tmp_dir("rotate-poison");
        let mut store = WalStore::create(&dir).unwrap();
        store.append(&rec(0), true).unwrap();
        faults::arm("wal::rotate", Fault::ErrorOnNth(1));
        assert!(store.install_snapshot(&snap(1)).is_err());
        faults::disarm_all();
        // The old log's inode is unlinked; appending there would be
        // acknowledged into nowhere, so the store must refuse.
        assert!(store.is_poisoned());
        assert!(store.append(&rec(1), false).is_err());
        drop(store);
        // On disk both renames completed: new snapshot + empty rotated
        // log. A reopen recovers cleanly at the snapshot LSN.
        let recovered = WalStore::recover(&dir).unwrap();
        assert_eq!(recovered.snapshot.unwrap().lsn, 1);
        assert_eq!(recovered.records.len(), 0);
        assert_eq!(recovered.store.next_lsn(), 1);
    }
}
