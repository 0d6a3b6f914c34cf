//! The filesystem surface the store runs on, real and simulated.
//!
//! [`Dir`] is deliberately narrow — whole-file reads, appends, replaces,
//! truncation, atomic rename, remove, sync — because every operation in
//! that set has a well-defined crash semantics the kill-point harness
//! can enumerate:
//!
//! * `append`/`replace` may land *partially* (a torn write cuts the
//!   byte stream anywhere);
//! * `rename`, `remove`, and `truncate` are atomic — they happened or
//!   they did not;
//! * `sync` is the durability barrier an acknowledgment waits on.
//!
//! [`OsDir`] maps the surface onto `std::fs` with eager fsyncs.
//! [`SimDir`] keeps files in memory, with short-write and bit-flip
//! injection hooks, and journals every mutating op as a [`DirOp`];
//! [`SimDir::replay_prefix`] rebuilds the directory as it would look had
//! the process died after any op — including a byte-level cut of the op
//! in flight — which is exactly the crash model the kill-point property
//! tests iterate over.

use std::any::Any;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;

/// A directory of named flat files: the only filesystem surface the
/// durability tier touches.
///
/// Implementations must be `'static` (the store owns a `Box<dyn Dir>`),
/// and expose [`Dir::as_any_mut`] so tests can reach simulator-only
/// fault-injection hooks through the trait object.
pub trait Dir: fmt::Debug {
    /// Reads the entire contents of `name`: borrowed when the directory
    /// already holds them in memory ([`SimDir`]), owned when they come
    /// off a disk ([`OsDir`]).
    ///
    /// # Errors
    /// `NotFound` if the file does not exist, or the underlying I/O error.
    fn read(&self, name: &str) -> io::Result<Cow<'_, [u8]>>;

    /// Current size of `name` in bytes.
    ///
    /// # Errors
    /// `NotFound` if the file does not exist, or the underlying I/O error.
    fn size(&self, name: &str) -> io::Result<u64>;

    /// Reads up to `buf.len()` bytes of `name` starting at byte
    /// `offset`, returning how many were read (`0` at or past the end
    /// of the file). The streaming-recovery surface: a scan replays a
    /// large log through one reused window instead of materializing the
    /// whole file.
    ///
    /// # Errors
    /// `NotFound` if the file does not exist, or the underlying I/O error.
    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Whether `name` currently exists.
    fn exists(&self, name: &str) -> bool;

    /// Appends `bytes` to `name`, creating it if absent. Not atomic: a
    /// crash mid-call may leave any prefix of `bytes` behind.
    ///
    /// # Errors
    /// The underlying I/O error, if any.
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Replaces the contents of `name` with `bytes`, creating it if
    /// absent. Not atomic: a crash mid-call may leave any prefix of
    /// `bytes`. Atomic installs must go through a temp file plus
    /// [`Dir::rename`].
    ///
    /// # Errors
    /// The underlying I/O error, if any.
    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Truncates `name` to its first `len` bytes. Atomic.
    ///
    /// # Errors
    /// `NotFound` if the file does not exist, or the underlying I/O error.
    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()>;

    /// Atomically renames `from` onto `to`, clobbering any existing `to`.
    ///
    /// # Errors
    /// `NotFound` if `from` does not exist, or the underlying I/O error.
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()>;

    /// Removes `name` if it exists; removing an absent file is a no-op.
    ///
    /// # Errors
    /// The underlying I/O error, if any.
    fn remove(&mut self, name: &str) -> io::Result<()>;

    /// Durability barrier: all preceding operations are on stable
    /// storage once this returns.
    ///
    /// # Errors
    /// The underlying I/O error, if any.
    fn sync(&mut self) -> io::Result<()>;

    /// Downcasting hook so callers holding `&mut dyn Dir` can reach
    /// concrete-type fault-injection surfaces (see [`SimDir`]).
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// Arms a torn write: the *next* `append` or `replace` persists only
    /// its first `keep` bytes while still reporting success — the lying
    /// disk of a power-cut mid-write. Default is a no-op; only
    /// [`SimDir`] simulates torn writes.
    fn tear_next_write(&mut self, keep: usize) {
        let _ = keep;
    }
}

/// [`Dir`] over a real directory via `std::fs`, syncing eagerly.
///
/// Every mutating call opens, writes, and fsyncs the target file before
/// returning, so [`Dir::sync`] only needs to flush the directory entry
/// itself (rename/remove visibility).
#[derive(Debug)]
pub struct OsDir {
    root: PathBuf,
}

impl OsDir {
    /// Opens `root` as a store directory, creating it if absent.
    ///
    /// # Errors
    /// The underlying I/O error, if any.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(OsDir { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn sync_dir(&self) -> io::Result<()> {
        // Directory fsync is what makes renames and removals durable on
        // POSIX systems; tolerate platforms where opening a directory
        // for sync is unsupported.
        match fs::File::open(&self.root) {
            Ok(d) => d.sync_all().or(Ok(())),
            Err(_) => Ok(()),
        }
    }
}

impl Dir for OsDir {
    fn read(&self, name: &str) -> io::Result<Cow<'_, [u8]>> {
        fs::read(self.path(name)).map(Cow::Owned)
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        fs::metadata(self.path(name)).map(|m| m.len())
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let mut f = fs::File::open(self.path(name))?;
        f.seek(SeekFrom::Start(offset))?;
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = f.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
        }
        Ok(filled)
    }

    fn exists(&self, name: &str) -> bool {
        self.path(name).exists()
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut f = fs::File::create(self.path(name))?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(self.path(name))?;
        f.set_len(len)?;
        f.sync_all()
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        fs::rename(self.path(from), self.path(to))?;
        self.sync_dir()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        match fs::remove_file(self.path(name)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_dir()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One journaled mutation of a [`SimDir`] — the alphabet the kill-point
/// harness enumerates crash points over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirOp {
    /// Bytes appended to a file.
    Append {
        /// Target file name.
        name: String,
        /// The appended bytes.
        bytes: Vec<u8>,
    },
    /// A file's contents replaced wholesale.
    Replace {
        /// Target file name.
        name: String,
        /// The new contents.
        bytes: Vec<u8>,
    },
    /// A file truncated to a prefix.
    Truncate {
        /// Target file name.
        name: String,
        /// Surviving byte length.
        len: u64,
    },
    /// An atomic rename.
    Rename {
        /// Source name.
        from: String,
        /// Destination name (clobbered).
        to: String,
    },
    /// A file removed.
    Remove {
        /// Target file name.
        name: String,
    },
    /// A durability barrier.
    Sync,
}

impl DirOp {
    /// Whether a crash *during* this op can leave a partial result. Only
    /// byte writes tear; rename/remove/truncate/sync are atomic.
    #[must_use]
    pub fn can_tear(&self) -> bool {
        matches!(self, DirOp::Append { .. } | DirOp::Replace { .. })
    }

    /// Byte length written by this op (`0` for atomic ops) — the range
    /// of meaningful torn-write cuts.
    #[must_use]
    pub fn write_len(&self) -> usize {
        match self {
            DirOp::Append { bytes, .. } | DirOp::Replace { bytes, .. } => bytes.len(),
            _ => 0,
        }
    }
}

/// In-memory [`Dir`] with an op journal and crash replay.
///
/// Every mutating call is recorded in order; [`SimDir::replay_prefix`]
/// reconstructs the directory state after any journal prefix, optionally
/// cutting the next op's byte stream at an arbitrary point — the full
/// crash model (clean kill between ops, torn write during one) in a
/// deterministic, enumerable form.
#[derive(Debug, Clone, Default)]
pub struct SimDir {
    files: BTreeMap<String, Vec<u8>>,
    journal: Vec<DirOp>,
    /// Armed short-write budget for the next append/replace.
    tear_next: Option<usize>,
}

impl SimDir {
    /// An empty simulated directory.
    #[must_use]
    pub fn new() -> Self {
        SimDir::default()
    }

    /// The journal of every mutating op applied so far, in order.
    #[must_use]
    pub fn journal(&self) -> &[DirOp] {
        &self.journal
    }

    /// Rebuilds the directory as it would look had the process died
    /// after `prefix` journal ops completed. When `torn` is
    /// `Some(keep)` and op `prefix` is a byte write, that op addition-
    /// ally lands with only its first `keep` bytes — the crash happened
    /// *during* it. Atomic ops in flight simply never happened.
    ///
    /// The replayed directory has an empty journal of its own: it is the
    /// post-crash disk, ready for recovery.
    #[must_use]
    pub fn replay_prefix(&self, prefix: usize, torn: Option<usize>) -> SimDir {
        let mut crashed = SimDir::new();
        for op in &self.journal[..prefix.min(self.journal.len())] {
            crashed.apply(op, None);
        }
        if let (Some(keep), Some(op)) = (torn, self.journal.get(prefix)) {
            if op.can_tear() {
                crashed.apply(op, Some(keep));
            }
        }
        crashed.journal.clear();
        crashed
    }

    /// Flips bit `bit` of byte `offset` in `name` — silent on-media
    /// corruption, invisible until a CRC check reads it. Out-of-range
    /// offsets are ignored (the flip "landed" in unallocated space).
    pub fn flip_bit(&mut self, name: &str, offset: usize, bit: u32) {
        if let Some(b) = self.files.get_mut(name).and_then(|f| f.get_mut(offset)) {
            *b ^= 1u8 << (bit % 8);
        }
    }

    /// Current length of `name` in bytes, or `None` if absent.
    #[must_use]
    pub fn len_of(&self, name: &str) -> Option<usize> {
        self.files.get(name).map(Vec::len)
    }

    /// Applies `op` to the file map, journaling it, with an optional
    /// short-write cut for byte writes: a torn write keeps only the
    /// first `keep` bytes (`keep >= bytes.len()` writes all).
    fn apply(&mut self, op: &DirOp, torn: Option<usize>) {
        match op {
            DirOp::Append { name, bytes } => {
                let keep = torn.unwrap_or(bytes.len()).min(bytes.len());
                let f = self.files.entry(name.clone()).or_default();
                f.extend_from_slice(&bytes[..keep]);
            }
            DirOp::Replace { name, bytes } => {
                let keep = torn.unwrap_or(bytes.len()).min(bytes.len());
                let f = self.files.entry(name.clone()).or_default();
                f.clear();
                f.extend_from_slice(&bytes[..keep]);
            }
            DirOp::Truncate { name, len } => {
                if let Some(f) = self.files.get_mut(name) {
                    f.truncate(usize::try_from(*len).unwrap_or(usize::MAX));
                }
            }
            DirOp::Rename { from, to } => {
                if let Some(f) = self.files.remove(from) {
                    self.files.insert(to.clone(), f);
                }
            }
            DirOp::Remove { name } => {
                self.files.remove(name);
            }
            DirOp::Sync => {}
        }
        self.journal.push(op.clone());
    }
}

impl Dir for SimDir {
    fn read(&self, name: &str) -> io::Result<Cow<'_, [u8]>> {
        self.files
            .get(name)
            .map(|bytes| Cow::Borrowed(bytes.as_slice()))
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}")))
    }

    fn size(&self, name: &str) -> io::Result<u64> {
        self.files
            .get(name)
            .map(|f| f.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}")))
    }

    fn read_at(&self, name: &str, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let bytes = self.files.get(name).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no such file: {name}"))
        })?;
        let start = usize::try_from(offset)
            .unwrap_or(usize::MAX)
            .min(bytes.len());
        let n = (bytes.len() - start).min(buf.len());
        buf[..n].copy_from_slice(&bytes[start..start + n]);
        Ok(n)
    }

    fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let torn = self.tear_next.take();
        self.apply(
            &DirOp::Append {
                name: name.to_string(),
                bytes: bytes.to_vec(),
            },
            torn,
        );
        Ok(())
    }

    fn replace(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let torn = self.tear_next.take();
        self.apply(
            &DirOp::Replace {
                name: name.to_string(),
                bytes: bytes.to_vec(),
            },
            torn,
        );
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> io::Result<()> {
        if !self.exists(name) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {name}"),
            ));
        }
        self.apply(
            &DirOp::Truncate {
                name: name.to_string(),
                len,
            },
            None,
        );
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        if !self.exists(from) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such file: {from}"),
            ));
        }
        self.apply(
            &DirOp::Rename {
                from: from.to_string(),
                to: to.to_string(),
            },
            None,
        );
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        if self.exists(name) {
            self.apply(
                &DirOp::Remove {
                    name: name.to_string(),
                },
                None,
            );
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.apply(&DirOp::Sync, None);
        Ok(())
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn tear_next_write(&mut self, keep: usize) {
        self.tear_next = Some(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simdir_basic_file_operations() {
        let mut d = SimDir::new();
        assert!(!d.exists("a"));
        assert!(d.read("a").is_err());
        d.append("a", b"hel").unwrap();
        d.append("a", b"lo").unwrap();
        assert_eq!(*d.read("a").unwrap(), *b"hello");
        d.replace("a", b"bye").unwrap();
        assert_eq!(*d.read("a").unwrap(), *b"bye");
        d.truncate("a", 1).unwrap();
        assert_eq!(*d.read("a").unwrap(), *b"b");
        d.rename("a", "b").unwrap();
        assert!(!d.exists("a"));
        assert_eq!(*d.read("b").unwrap(), *b"b");
        d.remove("b").unwrap();
        assert!(!d.exists("b"));
        d.remove("b").unwrap(); // absent remove is a no-op
    }

    #[test]
    fn replay_prefix_reconstructs_each_crash_point() {
        let mut d = SimDir::new();
        d.append("f", b"1234").unwrap();
        d.sync().unwrap();
        d.replace("f", b"56").unwrap();
        assert_eq!(d.journal().len(), 3);

        assert!(!d.replay_prefix(0, None).exists("f"));
        assert_eq!(*d.replay_prefix(1, None).read("f").unwrap(), *b"1234");
        assert_eq!(*d.replay_prefix(3, None).read("f").unwrap(), *b"56");
        // Torn mid-append: only the first 2 bytes landed.
        assert_eq!(*d.replay_prefix(0, Some(2)).read("f").unwrap(), *b"12");
        // Torn mid-replace: the old bytes are gone, the new ones partial.
        assert_eq!(*d.replay_prefix(2, Some(1)).read("f").unwrap(), *b"5");
        // A replayed dir journals from scratch.
        assert!(d.replay_prefix(3, None).journal().is_empty());
    }

    #[test]
    fn armed_tear_cuts_exactly_one_write() {
        let mut d = SimDir::new();
        d.tear_next_write(1);
        d.append("f", b"abc").unwrap();
        d.append("f", b"def").unwrap();
        assert_eq!(*d.read("f").unwrap(), *b"adef");
    }

    #[test]
    fn flip_bit_corrupts_in_place() {
        let mut d = SimDir::new();
        d.append("f", &[0u8]).unwrap();
        d.flip_bit("f", 0, 3);
        assert_eq!(*d.read("f").unwrap(), *vec![8u8]);
        d.flip_bit("f", 99, 0); // out of range: ignored
        assert_eq!(*d.read("f").unwrap(), *vec![8u8]);
    }

    #[test]
    fn read_at_windows_the_file_without_journaling() {
        let mut d = SimDir::new();
        d.append("f", b"0123456789").unwrap();
        let ops_before = d.journal().len();
        assert_eq!(d.size("f").unwrap(), 10);
        let mut buf = [0u8; 4];
        assert_eq!(d.read_at("f", 0, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"0123");
        assert_eq!(d.read_at("f", 8, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"89");
        assert_eq!(d.read_at("f", 10, &mut buf).unwrap(), 0, "at EOF");
        assert_eq!(d.read_at("f", 99, &mut buf).unwrap(), 0, "past EOF");
        assert!(d.size("missing").is_err());
        assert!(d.read_at("missing", 0, &mut buf).is_err());
        assert_eq!(d.journal().len(), ops_before, "reads are not mutations");
    }

    #[test]
    fn osdir_roundtrip_in_tempdir() {
        let root =
            std::env::temp_dir().join(format!("qram-store-osdir-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let mut d = OsDir::open(&root).unwrap();
        d.append("wal", b"abc").unwrap();
        d.append("wal", b"def").unwrap();
        assert_eq!(*d.read("wal").unwrap(), *b"abcdef");
        assert_eq!(d.size("wal").unwrap(), 6);
        let mut buf = [0u8; 4];
        assert_eq!(d.read_at("wal", 2, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"cdef");
        assert_eq!(d.read_at("wal", 6, &mut buf).unwrap(), 0);
        d.truncate("wal", 4).unwrap();
        assert_eq!(*d.read("wal").unwrap(), *b"abcd");
        d.replace("tmp", b"img").unwrap();
        d.rename("tmp", "img").unwrap();
        assert!(d.exists("img") && !d.exists("tmp"));
        d.remove("missing").unwrap();
        d.sync().unwrap();
        fs::remove_dir_all(&root).unwrap();
    }
}
