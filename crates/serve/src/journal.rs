//! The daemon's job journal: an append-only line file that makes accepted
//! work survive restarts, crashes, and drains — a record grammar over
//! [`mempool::log`].
//!
//! Format (`jobs.journal` in the daemon's state directory):
//!
//! ```text
//! mempool-serve-journal v1
//! job <id> {"tenant":...,"priority":...,"deadline_secs":...,<spec fields>}
//! state <id> <queued|running|parked>
//! done <id> <completed|failed|cancelled> {payload}
//! ```
//!
//! Each line is appended with one write and synced, so a crash leaves at
//! worst one truncated final line. Replay follows the log's damage rule: a
//! corrupt or truncated line, a first line that is not the header included,
//! is *skipped with a warning and counted* (the count is in the daemon's
//! health report), never a startup abort. On restart the daemon rewrites
//! the journal atomically from the replayed state, so corruption heals: it
//! costs at worst the lines that were unreadable, not the file.
//!
//! The journal is also where a finished job's result *lives*: the daemon
//! keeps no payload in memory. [`Journal`] remembers where each `done` line
//! it wrote sits in the file, and [`Journal::result`] reads the payload back
//! from there — checked, because the file can be damaged or replaced under a
//! running daemon, and answered with a typed error rather than with bytes
//! that are not that job's result.

use crate::protocol::{read_submission, write_submission, JobSpec, JobStatus};
use mempool::json::{self, Fields, Layout};
use mempool::log::{self, Extent, Log};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// First line of every journal file.
pub const JOURNAL_HEADER: &str = "mempool-serve-journal v1";

/// One job reconstructed by replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayedJob {
    /// Job id.
    pub id: u64,
    /// Tenant the job is charged to.
    pub tenant: String,
    /// Priority class.
    pub priority: u8,
    /// Per-attempt wall-clock deadline in seconds, if set.
    pub deadline_secs: Option<u64>,
    /// The job payload.
    pub spec: JobSpec,
    /// Last journaled lifecycle state.
    pub status: JobStatus,
    /// Terminal payload (`done` line), when the job finished.
    pub payload: Option<String>,
}

/// The result of replaying a journal.
#[derive(Debug, Default)]
pub struct JournalReplay {
    /// Every reconstructed job, in id order.
    pub jobs: Vec<ReplayedJob>,
    /// Corrupt, truncated, or orphaned lines that were skipped (surfaced
    /// in the health report).
    pub skipped: usize,
    /// Human-readable warnings, one per skipped line.
    pub warnings: Vec<String>,
    /// The next job id a restarted daemon should assign.
    pub next_id: u64,
}

/// Replays the journal at `path`. A missing file is an empty journal; a
/// damaged one yields every parsable line (see the module docs). The file is
/// read line by line, so the only whole-journal-sized thing replay builds is
/// its result.
///
/// # Errors
///
/// Only I/O errors reading an *existing* file — malformed content
/// (non-UTF-8 bytes included) is recovered from, not raised.
pub fn replay(path: &Path) -> io::Result<JournalReplay> {
    let mut jobs: BTreeMap<u64, ReplayedJob> = BTreeMap::new();
    let warnings = log::replay(path, |n, line| match line {
        JOURNAL_HEADER if n == 0 => Ok(()),
        _ if n == 0 => Err(format!("unrecognized journal header `{line}`")),
        _ if line.trim().is_empty() => Ok(()),
        _ => parse_line(line, &mut jobs),
    })?;
    Ok(JournalReplay {
        next_id: jobs.keys().next_back().map_or(0, |id| id + 1),
        jobs: jobs.into_values().collect(),
        skipped: warnings.len(),
        warnings,
    })
}

fn parse_line(line: &str, jobs: &mut BTreeMap<u64, ReplayedJob>) -> Result<(), String> {
    let (tag, rest) = line
        .split_once(' ')
        .ok_or_else(|| format!("no tag in `{line}`"))?;
    let (id_str, rest) = rest
        .split_once(' ')
        .ok_or_else(|| format!("no id in `{line}`"))?;
    let id: u64 = id_str
        .parse()
        .map_err(|_| format!("bad id `{id_str}` in `{line}`"))?;
    match tag {
        "job" => {
            let fields =
                Fields::parse(rest).map_err(|e| format!("malformed job JSON for id {id}: {e}"))?;
            let (tenant, priority, deadline_secs, spec) =
                read_submission(&fields).map_err(|e| format!("job {id}: {e}"))?;
            jobs.insert(
                id,
                ReplayedJob {
                    id,
                    tenant,
                    priority,
                    deadline_secs,
                    spec,
                    status: JobStatus::Queued,
                    payload: None,
                },
            );
            Ok(())
        }
        "state" => {
            let status = JobStatus::parse(rest.trim())
                .filter(|s| !s.is_terminal())
                .ok_or_else(|| format!("bad state `{rest}` for job {id}"))?;
            let job = jobs
                .get_mut(&id)
                .ok_or_else(|| format!("state line for unknown job {id}"))?;
            job.status = status;
            Ok(())
        }
        "done" => {
            let (outcome, payload) = rest
                .split_once(' ')
                .ok_or_else(|| format!("no payload in done line for job {id}"))?;
            let status = JobStatus::parse(outcome)
                .filter(|s| s.is_terminal())
                .ok_or_else(|| format!("bad outcome `{outcome}` for job {id}"))?;
            Fields::parse(payload)
                .map_err(|e| format!("malformed done payload for job {id}: {e}"))?;
            let job = jobs
                .get_mut(&id)
                .ok_or_else(|| format!("done line for unknown job {id}"))?;
            job.status = status;
            job.payload = Some(payload.to_owned());
            Ok(())
        }
        other => Err(format!("unknown tag `{other}` in `{line}`")),
    }
}

/// Renders a `job` line into `out`, replacing what was there (shared, like
/// the two renderers below, by the live journal and the restart rewrite).
fn job_line<'a>(out: &'a mut String, job: &ReplayedJob) -> &'a str {
    let fields = json::object(Layout::Compact, |o| {
        write_submission(o, &job.tenant, job.priority, job.deadline_secs, &job.spec)
    });
    out.clear();
    let _ = writeln!(out, "job {} {fields}", job.id);
    out
}

fn state_line(out: &mut String, id: u64, status: JobStatus) -> &str {
    out.clear();
    let _ = writeln!(out, "state {id} {status}");
    out
}

fn done_line<'a>(out: &'a mut String, id: u64, status: JobStatus, payload: &str) -> &'a str {
    out.clear();
    let _ = writeln!(out, "done {id} {status} {payload}");
    out
}

/// The append side of the journal, and the store every finished job's
/// result is read back from: the daemon keeps no copy of a payload, only —
/// in here — where its `done` line starts and how long it is.
#[derive(Debug)]
pub struct Journal {
    log: Log,
    appends: u64,
    results: BTreeMap<u64, Extent>,
    /// Results whose `done` line could not be written (a full disk): the
    /// only payloads held in memory, so a failing journal costs what every
    /// result used to cost instead of losing one.
    unwritten: BTreeMap<u64, String>,
    /// The line being appended, rendered whole so that it reaches the file
    /// in one write.
    line: String,
}

impl Journal {
    /// Atomically rewrites the journal from `jobs` (dropping any
    /// corruption replay skipped) and opens it for appending. Pass the
    /// replayed jobs on restart, or an empty slice for a fresh daemon.
    /// Every terminal job's payload is indexed where the rewrite put it, so
    /// the caller can drop its copy.
    ///
    /// # Errors
    ///
    /// I/O errors writing or renaming the file.
    pub fn rewrite(path: &Path, jobs: &[ReplayedJob]) -> io::Result<Journal> {
        let mut results = BTreeMap::new();
        let mut text = String::new();
        let log = Log::rewrite(path, |line| {
            line(&format!("{JOURNAL_HEADER}\n"))?;
            for job in jobs {
                line(job_line(&mut text, job))?;
                // `running` is deliberately not persisted: the worker does
                // not survive a restart, so a running job replays as queued
                // and is re-dispatched from its last checkpoint.
                if job.status == JobStatus::Parked {
                    line(state_line(&mut text, job.id, job.status))?;
                }
                if let (true, Some(payload)) = (job.status.is_terminal(), &job.payload) {
                    let extent = line(done_line(&mut text, job.id, job.status, payload))?;
                    results.insert(job.id, extent);
                }
            }
            Ok(())
        })?;
        Ok(Journal {
            log,
            appends: 0,
            results,
            unwritten: BTreeMap::new(),
            line: text,
        })
    }

    /// Test hook: swaps the append handle, e.g. for one that cannot write —
    /// which is how a full disk looks from here.
    #[cfg(test)]
    pub(crate) fn swap_file(&mut self, file: std::fs::File) -> std::fs::File {
        self.log.swap_file(file)
    }

    /// Lines appended (and fsynced) by this daemon process since the
    /// startup rewrite — the authoritative count the self-metrics export
    /// reports as `journal_appends`.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Appends the line rendered into `self.line`; a failed append is not
    /// counted.
    fn append(&mut self) -> io::Result<Extent> {
        let extent = self.log.append(&self.line)?;
        self.appends += 1;
        Ok(extent)
    }

    /// Appends the admission record of a new job.
    ///
    /// # Errors
    ///
    /// The underlying write or sync failure.
    pub fn record_job(&mut self, job: &ReplayedJob) -> io::Result<()> {
        job_line(&mut self.line, job);
        self.append().map(drop)
    }

    /// Appends a non-terminal state transition.
    ///
    /// # Errors
    ///
    /// The underlying write or sync failure.
    pub fn record_state(&mut self, id: u64, status: JobStatus) -> io::Result<()> {
        debug_assert!(!status.is_terminal());
        state_line(&mut self.line, id, status);
        self.append().map(drop)
    }

    /// Appends a terminal record with its payload (one flat JSON object)
    /// and remembers where, for [`Journal::result`].
    ///
    /// # Errors
    ///
    /// The underlying write or sync failure; the payload is then kept in
    /// memory, and [`Journal::result`] still answers with it.
    pub fn record_done(&mut self, id: u64, status: JobStatus, payload: &str) -> io::Result<()> {
        debug_assert!(status.is_terminal());
        done_line(&mut self.line, id, status, payload);
        match self.append() {
            Ok(extent) => {
                self.results.insert(id, extent);
                self.unwritten.remove(&id);
                Ok(())
            }
            Err(e) => {
                self.results.remove(&id);
                self.unwritten.insert(id, payload.to_owned());
                Err(e)
            }
        }
    }

    /// Reads back the payload of `id`'s `done` line: the bytes
    /// [`Journal::record_done`] was handed, or [`Journal::rewrite`] found in
    /// [`ReplayedJob::payload`].
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] if no result was recorded for `id`;
    /// the read's own error ([`io::ErrorKind::UnexpectedEof`] for a file
    /// truncated under the daemon); [`io::ErrorKind::InvalidData`] if what
    /// sits at the remembered place is no longer one whole UTF-8
    /// `done <id> <outcome> <payload>` line.
    pub fn result(&self, id: u64) -> io::Result<String> {
        if let Some(payload) = self.unwritten.get(&id) {
            return Ok(payload.clone());
        }
        let extent = self.results.get(&id).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no result was journaled for job {id}"),
            )
        })?;
        let invalid = |why| {
            let why = format!("the journal's record of job {id}'s result {why}");
            io::Error::new(io::ErrorKind::InvalidData, why)
        };
        let line = self.log.read(extent.clone())?;
        let mut line = String::from_utf8(line).map_err(|_| invalid("is not UTF-8"))?;
        if line.pop() != Some('\n') || line.contains('\n') {
            return Err(invalid("is not one line"));
        }
        // The prefix is what ties the bytes to this job rather than to
        // whatever else a foreign writer may have put at this offset.
        let payload_at = line
            .strip_prefix(&format!("done {id} "))
            .and_then(|rest| rest.split_once(' '))
            .filter(|(outcome, _)| JobStatus::parse(outcome).is_some_and(JobStatus::is_terminal))
            .map(|(_, payload)| line.len() - payload.len())
            .ok_or_else(|| invalid("does not start with `done <id> <outcome> `"))?;
        line.drain(..payload_at);
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RunSpec;
    use std::fs::File;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mempool-serve-journal-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join("jobs.journal")
    }

    fn job(id: u64, tenant: &str) -> ReplayedJob {
        ReplayedJob {
            id,
            tenant: tenant.to_owned(),
            priority: 2,
            deadline_secs: Some(30),
            spec: JobSpec::Run(RunSpec {
                config_spec: "topology=top1,small=true,scramble=false".to_owned(),
                program: "ecall\n".to_owned(),
                max_cycles: 1_000,
                checkpoint_every: 128,
                metrics: false,
            }),
            status: JobStatus::Queued,
            payload: None,
        }
    }

    #[test]
    fn journal_round_trips_job_lifecycles() {
        let path = scratch("roundtrip");
        let mut journal = Journal::rewrite(&path, &[]).expect("create");
        journal.record_job(&job(0, "a")).unwrap();
        journal.record_state(0, JobStatus::Running).unwrap();
        journal.record_job(&job(1, "b")).unwrap();
        journal
            .record_done(0, JobStatus::Completed, "{\"state_digest\":\"0xabc\"}")
            .unwrap();
        journal.record_state(1, JobStatus::Parked).unwrap();
        assert_eq!(journal.appends(), 5);

        let replay = replay(&path).expect("replay");
        assert_eq!(replay.skipped, 0, "{:?}", replay.warnings);
        assert_eq!(replay.next_id, 2);
        assert_eq!(replay.jobs.len(), 2);
        assert_eq!(replay.jobs[0].status, JobStatus::Completed);
        assert_eq!(
            replay.jobs[0].payload.as_deref(),
            Some("{\"state_digest\":\"0xabc\"}")
        );
        assert_eq!(replay.jobs[1].status, JobStatus::Parked);
        assert_eq!(replay.jobs[1].tenant, "b");
        assert_eq!(replay.jobs[1].spec, job(1, "b").spec);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn corrupt_and_truncated_lines_are_skipped_and_counted() {
        let path = scratch("corrupt");
        {
            let mut journal = Journal::rewrite(&path, &[]).expect("create");
            journal.record_job(&job(0, "a")).unwrap();
            journal.record_job(&job(1, "b")).unwrap();
            journal.record_state(1, JobStatus::Running).unwrap();
        }
        // Simulate bit rot and a kill mid-append: garbage, an orphaned
        // state line, and a truncated final line.
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("garbage line\n");
        content.push_str("state 99 running\n");
        content.push_str("job 2 {\"tenant\":\"c\",\"prio"); // truncated, no newline
        std::fs::write(&path, &content).unwrap();

        let replay = replay(&path).expect("replay survives");
        assert_eq!(replay.skipped, 3, "{:?}", replay.warnings);
        assert_eq!(replay.jobs.len(), 2, "intact jobs recovered");
        assert_eq!(replay.jobs[1].status, JobStatus::Running);
        assert_eq!(replay.next_id, 2);
        assert_eq!(replay.warnings.len(), 3);

        // The restart rewrite drops the damage and replays clean.
        let _ = Journal::rewrite(&path, &replay.jobs).expect("rewrite");
        let second = super::replay(&path).expect("second replay");
        assert_eq!(second.skipped, 0, "{:?}", second.warnings);
        assert_eq!(second.jobs.len(), 2);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// A `job` line is one flat object: a value nested in it, or anything
    /// after it, makes the line damage to skip, not a job to half-read.
    #[test]
    fn lines_with_trailing_garbage_or_nested_values_are_skipped_and_counted() {
        let path = scratch("strict");
        {
            let mut journal = Journal::rewrite(&path, &[]).expect("create");
            journal.record_job(&job(0, "a")).unwrap();
        }
        let content = std::fs::read_to_string(&path).unwrap();
        let line = content
            .lines()
            .find(|l| l.starts_with("job 0 "))
            .expect("job line");
        let last = "\"metrics\":false}";
        assert!(line.ends_with(last), "{line}");
        let nested = line
            .replacen("job 0", "job 1", 1)
            .replace(last, "\"metrics\":false,\"note\":{\"b\":1}}");
        let trailing = line
            .replacen("job 0", "job 2", 1)
            .replace(last, "\"metrics\":false xyz}");
        std::fs::write(&path, format!("{content}{nested}\n{trailing}\n")).unwrap();

        let replay = replay(&path).expect("replay survives");
        assert_eq!(replay.skipped, 2, "{:?}", replay.warnings);
        assert_eq!(replay.jobs.len(), 1);
        assert_eq!(replay.next_id, 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn missing_file_and_bad_header_are_tolerated() {
        let path = scratch("missing");
        let replay0 = replay(&path).expect("missing file is empty");
        assert_eq!(replay0.jobs.len(), 0);
        assert_eq!(replay0.next_id, 0);

        std::fs::write(&path, "some other format\njob 0 {}\n").unwrap();
        let replay1 = replay(&path).expect("bad header tolerated");
        // The header and the spec-less job line are both skipped.
        assert_eq!(replay1.skipped, 2, "{:?}", replay1.warnings);
        assert!(replay1.jobs.is_empty());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn rewrite_preserves_running_as_queued_and_parked_as_parked() {
        let path = scratch("rewrite");
        let mut running = job(3, "a");
        running.status = JobStatus::Running;
        let mut parked = job(4, "b");
        parked.status = JobStatus::Parked;
        let _ = Journal::rewrite(&path, &[running, parked]).expect("rewrite");
        let replay = replay(&path).expect("replay");
        // `running` has no state line in the rewrite (the worker is gone
        // after a restart), so it replays as queued; parked is explicit.
        assert_eq!(replay.jobs[0].status, JobStatus::Queued);
        assert_eq!(replay.jobs[1].status, JobStatus::Parked);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// A payload shaped like a metered job's: ≈ 100 KB, quotes and
    /// backslashes included.
    fn big_payload() -> String {
        let mut doc = String::from("{\"outcome\":\"completed\",\"metrics\":\"");
        while doc.len() < 100_000 {
            doc.push_str("{\\\"tile\\\":3,\\\"stall\\\":[1,2,3],\\\"µs\\\":0.5}");
        }
        doc.push_str("\"}");
        doc
    }

    /// Three finished jobs among unfinished ones, with every payload shape
    /// the daemon produces; returns what each was finished with.
    fn record_mixed_lifecycles(journal: &mut Journal) -> Vec<(u64, JobStatus, String)> {
        let done = vec![
            (0, JobStatus::Completed, big_payload()),
            (2, JobStatus::Cancelled, "{}".to_owned()),
            (3, JobStatus::Failed, "{\"error\":\"exit \\\"1\\\"\",\"attempts\":2}".to_owned()),
        ];
        for (id, tenant) in [(0, "a"), (1, "größe-€"), (2, "c"), (3, "d")] {
            journal.record_job(&job(id, tenant)).unwrap();
        }
        journal.record_state(0, JobStatus::Running).unwrap();
        journal.record_done(0, done[0].1, &done[0].2).unwrap();
        journal.record_state(1, JobStatus::Running).unwrap();
        journal.record_done(2, done[1].1, &done[1].2).unwrap();
        journal.record_state(1, JobStatus::Parked).unwrap();
        journal.record_done(3, done[2].1, &done[2].2).unwrap();
        journal.record_job(&job(4, "e")).unwrap();
        done
    }

    #[test]
    fn results_read_back_as_recorded_live_and_after_a_rewrite() {
        let path = scratch("readback");
        let mut journal = Journal::rewrite(&path, &[]).expect("create");
        let done = record_mixed_lifecycles(&mut journal);
        for (id, _, payload) in &done {
            assert_eq!(&journal.result(*id).expect("live read-back"), payload, "job {id}");
        }
        for id in [1, 4, 99] {
            let err = journal.result(id).expect_err("no result yet");
            assert_eq!(err.kind(), io::ErrorKind::NotFound, "job {id}: {err}");
        }
        assert_eq!(journal.log.end(), std::fs::metadata(&path).unwrap().len());

        // A restart: the rewrite indexes the payloads where it puts them —
        // not where they were — and appends continue from its end.
        let replayed = replay(&path).expect("replay");
        assert_eq!(replayed.skipped, 0, "{:?}", replayed.warnings);
        let mut journal = Journal::rewrite(&path, &replayed.jobs).expect("rewrite");
        assert_eq!(journal.log.end(), std::fs::metadata(&path).unwrap().len());
        journal.record_done(4, JobStatus::Completed, "{\"late\":true}").unwrap();
        for (id, _, payload) in &done {
            assert_eq!(&journal.result(*id).expect("read-back after rewrite"), payload);
        }
        assert_eq!(journal.result(4).unwrap(), "{\"late\":true}");
        assert_eq!(journal.result(1).unwrap_err().kind(), io::ErrorKind::NotFound);
        // The file is what replay says it is: same jobs, same payloads.
        let again = replay(&path).expect("second replay");
        assert_eq!(again.skipped, 0, "{:?}", again.warnings);
        assert_eq!(again.jobs[..4], replayed.jobs[..4]);
        assert_eq!(again.jobs[4].payload.as_deref(), Some("{\"late\":true}"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn rewrite_of_a_damaged_journal_indexes_the_healed_file() {
        let path = scratch("healed");
        let done = {
            let mut journal = Journal::rewrite(&path, &[]).expect("create");
            record_mixed_lifecycles(&mut journal)
        };
        // Damage in front of, between and behind the results: every offset
        // of the old file is wrong for the new one.
        let content = std::fs::read(&path).unwrap();
        let mut damaged = Vec::new();
        for (n, line) in content.split_inclusive(|&b| b == b'\n').enumerate() {
            damaged.extend_from_slice(line);
            match n {
                0 => damaged.extend_from_slice(b"garbage in front\n"),
                5 => damaged.extend_from_slice(b"done 1 completed \xff\xfe not UTF-8\n"),
                7 => damaged.extend_from_slice(b"state 99 running\n"),
                _ => {}
            }
        }
        damaged.extend_from_slice(b"done 4 completed {\"trunc");
        std::fs::write(&path, &damaged).unwrap();

        let replayed = replay(&path).expect("replay survives");
        assert_eq!(replayed.skipped, 4, "{:?}", replayed.warnings);
        assert_eq!(replayed.jobs.len(), 5);
        let journal = Journal::rewrite(&path, &replayed.jobs).expect("rewrite");
        assert!(std::fs::metadata(&path).unwrap().len() < damaged.len() as u64);
        for (id, _, payload) in &done {
            assert_eq!(&journal.result(*id).expect("healed read-back"), payload);
        }
        for id in [1, 4] {
            assert_eq!(journal.result(id).unwrap_err().kind(), io::ErrorKind::NotFound);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// The file is outside the daemon's trust boundary once written: an
    /// operator's `truncate`, a restored backup, bit rot. Whatever sits at a
    /// remembered extent, read-back answers with this job's own bytes or a
    /// typed error.
    #[test]
    fn damage_under_a_live_journal_is_a_typed_error_never_foreign_bytes() {
        use mempool_rng::{Rng, SeedableRng, StdRng};
        let path = scratch("damage");
        let mut journal = Journal::rewrite(&path, &[]).expect("create");
        let done = record_mixed_lifecycles(&mut journal);
        let pristine = std::fs::read(&path).unwrap();
        // The same lifecycles under ids shifted by one, so that every `done`
        // extent of the pristine file holds a neighbour's record.
        let foreign = String::from_utf8(pristine.clone())
            .unwrap()
            .lines()
            .map(|line| match line.split_once(' ') {
                Some((tag, rest)) if tag != "mempool-serve-journal" => {
                    let (id, rest) = rest.split_once(' ').unwrap();
                    format!("{tag} {} {rest}\n", (id.parse::<u64>().unwrap() + 1) % 5)
                }
                _ => format!("{line}\n"),
            })
            .collect::<String>()
            .into_bytes();
        assert_eq!(foreign.len(), pristine.len());

        let mut rng = StdRng::seed_from_u64(0x6a6f_7572_6e61);
        let (mut intact, mut typed, mut altered) = (0, 0, 0);
        for case in 0..600 {
            let mut bytes = pristine.clone();
            let at = rng.gen_range(0..bytes.len());
            match case % 5 {
                0 => bytes.truncate(at),
                4 => bytes[at..].copy_from_slice(&foreign[at..]),
                // Overwrites: newlines, non-UTF-8 bytes, printable ASCII.
                kind => {
                    let len = rng.gen_range(1..64usize).min(bytes.len() - at);
                    for b in &mut bytes[at..at + len] {
                        *b = match kind {
                            1 => b'\n',
                            2 => rng.gen_range(0x80..0x100u32) as u8,
                            _ => rng.gen_range(0x21..0x7fu32) as u8,
                        };
                    }
                }
            }
            std::fs::write(&path, &bytes).unwrap();
            for (id, _, payload) in &done {
                let extent = &journal.results[id];
                let line = extent.start as usize..extent.end as usize;
                let touched = bytes.get(line.clone()) != Some(&pristine[line.clone()]);
                match journal.result(*id) {
                    Ok(read) if !touched => {
                        assert_eq!(&read, payload, "case {case}, job {id}");
                        intact += 1;
                    }
                    // Printable garbage inside the payload cannot be told
                    // from a payload; it is still what the file holds at
                    // this job's place, under this job's name.
                    Ok(read) => {
                        assert_eq!(case % 5, 3, "case {case}, job {id}: damage went unseen");
                        let at = line.end - 1 - payload.len();
                        assert_eq!(read.as_bytes(), &bytes[at..line.end - 1], "case {case}");
                        altered += 1;
                    }
                    Err(e) => {
                        assert!(touched, "case {case}, job {id}: {e}");
                        let kind = e.kind();
                        assert!(
                            matches!(kind, io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof),
                            "case {case}, job {id}: {e}"
                        );
                        typed += 1;
                    }
                }
            }
        }
        assert!(intact > 300 && typed > 300 && altered > 0, "{intact} {typed} {altered}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_failed_append_keeps_the_result_and_the_file_whole() {
        let path = scratch("degraded");
        let mut journal = Journal::rewrite(&path, &[]).expect("create");
        journal.record_job(&job(0, "a")).unwrap();
        journal.record_job(&job(1, "b")).unwrap();
        let before = std::fs::read(&path).unwrap();
        // A handle that cannot write stands in for a full disk.
        let healthy = journal.swap_file(File::open(&path).unwrap());
        journal
            .record_done(0, JobStatus::Completed, "{\"kept\":\"in memory\"}")
            .expect_err("the append fails");
        assert_eq!(journal.result(0).unwrap(), "{\"kept\":\"in memory\"}");
        assert_eq!(journal.appends(), 2, "a failed append is not counted");
        assert_eq!(std::fs::read(&path).unwrap(), before);

        // The disk recovers: later results go to the file again, at the
        // right place, and a rerecorded one leaves memory.
        journal.swap_file(healthy);
        journal.record_done(1, JobStatus::Failed, "{\"error\":\"x\"}").unwrap();
        assert_eq!(journal.result(1).unwrap(), "{\"error\":\"x\"}");
        assert_eq!(journal.result(0).unwrap(), "{\"kept\":\"in memory\"}");
        journal.record_done(0, JobStatus::Completed, "{\"kept\":\"on disk\"}").unwrap();
        assert!(journal.unwritten.is_empty());
        assert_eq!(journal.result(0).unwrap(), "{\"kept\":\"on disk\"}");
        assert_eq!(journal.log.end(), std::fs::metadata(&path).unwrap().len());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
