//! The suite's one durable line log; the campaign manifest and the
//! `mempool-serve` job journal are record grammars over it. [`Log::append`]
//! writes a line with one `write_all` and syncs it, cutting a failed write
//! back off. [`replay`] reads a log back under one damage rule: a line that
//! is not UTF-8, or that the grammar rejects, is skipped, counted and warned
//! about. [`Log::rewrite`] and, for whole files such as checkpoints,
//! [`replace`] swap a file atomically. Every line written has an [`Extent`].
//!
//! A module of the core crate, like [`json`](crate::json): every crate that
//! keeps a log depends on `mempool`.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Where one line sits in a log file: its bytes, newline included.
pub type Extent = std::ops::Range<u64>;

/// Replays the log at `path` a line at a time: `grammar` gets each line,
/// its line break stripped, with its 0-based number. A line that is not
/// UTF-8, or that `grammar` rejects (its `Err` says why), is skipped.
/// Returns one warning per skipped line; a missing file has no lines.
///
/// # Errors
///
/// Only I/O errors reading an existing file.
pub fn replay(
    path: &Path,
    mut grammar: impl FnMut(usize, &str) -> Result<(), String>,
) -> io::Result<Vec<String>> {
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut warnings = Vec::new();
    for (n, line) in BufReader::new(file).split(b'\n').enumerate() {
        let line = line?;
        let line = line.strip_suffix(b"\r").unwrap_or(&line);
        let why = match std::str::from_utf8(line) {
            Ok(line) => match grammar(n, line) {
                Ok(()) => continue,
                Err(why) => why,
            },
            Err(_) => "not UTF-8".to_owned(),
        };
        let at = path.display();
        warnings.push(format!("{at}: skipping line {}: {why}", n + 1));
    }
    Ok(warnings)
}

/// Atomically replaces the file at `path` with what `write` writes: it
/// goes to [`tmp_path`] and is renamed over `path`, so a kill leaves the old
/// file or the new one, never a torn one.
///
/// # Errors
///
/// `write`'s errors and any I/O error.
pub fn replace(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = tmp_path(path);
    let mut out = BufWriter::new(File::create(&tmp)?);
    write(&mut out)?;
    out.into_inner().map_err(io::IntoInnerError::into_error)?;
    std::fs::rename(&tmp, path)
}

/// Where a replace of `path` stages the new contents: `<path>.tmp`. Only a
/// kill between the write and the rename leaves it behind.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    tmp.into()
}

/// A log file open for appending.
#[derive(Debug)]
pub struct Log {
    file: File,
    /// Bytes in the file: the rewrite's, plus every append's.
    end: u64,
}

impl Log {
    /// Atomically replaces the log at `path` with the lines `write` hands
    /// to its argument — each one line, its newline included, answered with
    /// where it lands — and opens the result for appending.
    ///
    /// # Errors
    ///
    /// `write`'s errors and I/O errors writing, renaming or opening the file.
    pub fn rewrite(
        path: &Path,
        write: impl FnOnce(&mut dyn FnMut(&str) -> io::Result<Extent>) -> io::Result<()>,
    ) -> io::Result<Log> {
        let mut end = 0;
        replace(path, |out| {
            write(&mut |line: &str| {
                out.write_all(line.as_bytes())?;
                end += line.len() as u64;
                Ok(end - line.len() as u64..end)
            })
        })?;
        let file = OpenOptions::new().read(true).append(true).open(path)?;
        Ok(Log { file, end })
    }

    /// Appends `line` — one line, its newline included — with one
    /// `write_all`, then syncs the file; returns where the line landed.
    ///
    /// # Errors
    ///
    /// The write or sync failure. A failed write is cut back off the file,
    /// so the next append starts on a line boundary.
    pub fn append(&mut self, line: &str) -> io::Result<Extent> {
        debug_assert!(line.find('\n') == Some(line.len() - 1));
        let at = self.end;
        if let Err(e) = self.file.write_all(line.as_bytes()) {
            // A short write would leave half a line for the next append to
            // run into: cut it off, or at least learn where the file ends.
            if self.file.set_len(at).is_err() {
                self.end = self.file.metadata().map_or(at, |m| m.len());
            }
            return Err(e);
        }
        self.end += line.len() as u64;
        self.file.sync_all()?;
        Ok(at..self.end)
    }

    /// Reads `extent` back. Appends still land at the end of the file.
    ///
    /// # Errors
    ///
    /// The read's error: [`io::ErrorKind::UnexpectedEof`] for a file cut
    /// short under the log.
    pub fn read(&self, extent: Extent) -> io::Result<Vec<u8>> {
        let mut buf = vec![0; (extent.end - extent.start) as usize];
        let mut file = &self.file;
        file.seek(SeekFrom::Start(extent.start))?;
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Bytes in the file, which is where the next append lands.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Test hook: swaps the append handle, e.g. for one that cannot write —
    /// which is how a full disk looks from here.
    #[doc(hidden)]
    pub fn swap_file(&mut self, file: File) -> File {
        std::mem::replace(&mut self.file, file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mempool-log-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join("a.log")
    }

    /// Every line the grammar accepts, with its number, and the warnings.
    fn accepted(
        path: &Path,
        grammar: impl Fn(&str) -> bool,
    ) -> (Vec<(usize, String)>, Vec<String>) {
        let mut lines = Vec::new();
        let warnings = replay(path, |n, line| {
            if !grammar(line) {
                return Err(format!("rejected `{line}`"));
            }
            lines.push((n, line.to_owned()));
            Ok(())
        })
        .expect("replay");
        (lines, warnings)
    }

    #[test]
    fn appended_and_rewritten_lines_replay_and_read_back_at_their_extents() {
        let path = scratch("roundtrip");
        let mut log = Log::rewrite(&path, |line| {
            assert_eq!(line("head\n")?, 0..5);
            assert_eq!(line("größe\n")?, 5..13);
            Ok(())
        })
        .expect("rewrite");
        assert!(!tmp_path(&path).exists());
        assert_eq!(log.append("tail\n").unwrap(), 13..18);
        assert_eq!(log.end(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(log.read(5..13).unwrap(), "größe\n".as_bytes());
        let past = log.read(15..23).unwrap_err();
        assert_eq!(past.kind(), io::ErrorKind::UnexpectedEof);
        // Reading moved no append.
        assert_eq!(log.append("more\n").unwrap(), 18..23);

        let (lines, warnings) = accepted(&path, |_| true);
        assert!(warnings.is_empty(), "{warnings:?}");
        let lines: Vec<_> = lines.iter().map(|(n, l)| (*n, l.as_str())).collect();
        assert_eq!(lines, [(0, "head"), (1, "größe"), (2, "tail"), (3, "more")]);
        let (none, warnings) = accepted(&path.with_extension("missing"), |_| true);
        assert!(none.is_empty() && warnings.is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// One rule for all damage: a line that is not UTF-8 and a line the
    /// grammar rejects are each skipped, counted and warned about, and the
    /// lines after them — a final one without its newline included — are
    /// read as usual.
    #[test]
    fn damaged_lines_are_skipped_counted_and_warned_about() {
        let path = scratch("damage");
        std::fs::write(&path, b"ok 1\r\nok \xff 2\nbad 3\n\nok 5\nok 6 cut").unwrap();
        let (lines, warnings) = accepted(&path, |line| line.starts_with("ok"));
        let numbers: Vec<_> = lines.iter().map(|(n, _)| *n).collect();
        assert_eq!(numbers, [0, 4, 5]);
        assert_eq!(lines[0].1, "ok 1");
        assert_eq!(lines[2].1, "ok 6 cut");
        assert_eq!(warnings.len(), 3, "{warnings:?}");
        assert!(
            warnings[0].ends_with("skipping line 2: not UTF-8"),
            "{warnings:?}"
        );
        assert!(warnings[1].ends_with("skipping line 3: rejected `bad 3`"));
        assert!(warnings[2].ends_with("skipping line 4: rejected ``"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_failed_append_leaves_the_file_on_a_line_boundary() {
        let path = scratch("failed");
        let mut log = Log::rewrite(&path, |line| line("head\n").map(drop)).expect("rewrite");
        log.append("one\n").unwrap();
        // A handle that cannot write stands in for a full disk.
        let healthy = log.swap_file(File::open(&path).unwrap());
        log.append("lost\n")
            .expect_err("a read-only handle cannot append");
        assert_eq!(log.end(), 9);
        log.swap_file(healthy);
        assert_eq!(log.append("two\n").unwrap(), 9..13);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "head\none\ntwo\n");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// A replace killed between write and rename leaves its staging file;
    /// the next replace overwrites it and leaves none.
    #[test]
    fn replace_is_all_or_nothing_and_reclaims_a_stale_staging_file() {
        let path = scratch("replace");
        replace(&path, |out| out.write_all(b"first")).unwrap();
        std::fs::write(tmp_path(&path), b"half of a killed write").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        replace(&path, |out| out.write_all(b"second")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
