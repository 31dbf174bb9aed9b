//! Resumable-campaign contract tests: a campaign killed between (or in the
//! middle of) trials and restarted from its manifest produces the identical
//! aggregate report an uninterrupted run would have, mid-trial checkpoints
//! resume bit-identically, damage to either file is resumed through or is
//! a typed error, and traffic-driven clusters digest/roundtrip
//! deterministically.

mod reference;

use mempool::{ClusterConfig, Topology};
use mempool_rng::{Rng, SeedableRng, StdRng};
use mempool_traffic::{
    run_trial_supervised, trial_cluster, CampaignConfig, CampaignError, Executor, ExecutorConfig,
    Progress, RetryPolicy, TrialCheckpoint, TrialPhase, TrialSupervision, Windows,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

fn campaign() -> CampaignConfig {
    CampaignConfig {
        spec: "bank_fail=2,link_drop=0.001,core_lockup=0.0005"
            .parse()
            .expect("valid spec"),
        windows: Windows {
            warmup: 100,
            measure: 400,
            drain: 50_000,
        },
        trials: 3,
        base_seed: 11,
        ..CampaignConfig::default()
    }
}

fn config() -> ClusterConfig {
    ClusterConfig::small(Topology::Top1)
}

/// An in-process executor checkpointing every `every` cycles, retrying
/// without backoff.
fn executor(campaign: CampaignConfig, every: u64) -> Executor {
    let exec = ExecutorConfig {
        retry: RetryPolicy {
            backoff_base_ms: 0,
            ..RetryPolicy::default()
        },
        checkpoint_every: every,
        ..ExecutorConfig::default()
    };
    Executor::new(config(), campaign, exec)
}

fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mempool-{name}-{}", std::process::id()));
    std::fs::remove_file(&path).ok();
    let mut ckpt = path.as_os_str().to_owned();
    ckpt.push(".ckpt");
    std::fs::remove_file(PathBuf::from(ckpt)).ok();
    path
}

/// One trial through the one trial body, with nothing to stop it.
fn supervised(
    campaign: &CampaignConfig,
    seed: u64,
    ckpt: &Path,
    every: u64,
) -> mempool_traffic::Trial {
    run_trial_supervised(
        config(),
        campaign,
        seed,
        ckpt,
        every,
        TrialSupervision::default(),
    )
    .expect("trial runs")
    .expect("nothing supervises it")
}

#[test]
fn checkpointed_trial_matches_plain_trial() {
    let campaign = campaign();
    let seed = campaign.base_seed;
    let plain = reference::trial(config(), &campaign, seed);
    let ckpt = scratch("trial-ckpt");
    let chunked = supervised(&campaign, seed, &ckpt, 64);
    assert_eq!(
        chunked, plain,
        "chunked execution must not perturb the trial"
    );
    assert!(!ckpt.exists(), "checkpoint is deleted on completion");
}

#[test]
fn interrupted_trial_resumes_bit_identically() {
    let campaign = campaign();
    let seed = campaign.base_seed + 1;
    let plain = reference::trial(config(), &campaign, seed);

    // Simulate a kill partway through the generation window: leave a
    // mid-warmup checkpoint on disk exactly as the periodic writer would.
    let mut cluster = trial_cluster(config(), &campaign, seed).expect("valid config");
    cluster.step_cycles(137);
    let ckpt = scratch("trial-resume");
    TrialCheckpoint {
        seed,
        phase: TrialPhase::Generate,
        snapshot: cluster.snapshot(),
    }
    .write_file(&ckpt)
    .expect("checkpoint writes");

    let resumed = supervised(&campaign, seed, &ckpt, 128);
    assert_eq!(
        resumed, plain,
        "resumed trial must reproduce the uninterrupted one"
    );
    assert!(!ckpt.exists());
}

#[test]
fn killed_campaign_resumes_from_manifest_with_identical_results() {
    let campaign = campaign();
    let uninterrupted = reference::campaign(config(), &campaign);
    let executor = executor(campaign, 256);

    let manifest = scratch("campaign-manifest");
    // First invocation gets through one trial, then "dies": the observer
    // raises the interrupt flag as that trial is recorded.
    let stop = AtomicBool::new(false);
    let mut first_recorded = |progress: Progress<'_>| {
        if let Progress::Recorded(_) = progress {
            stop.store(true, Ordering::SeqCst);
        }
    };
    let first = executor
        .run(&manifest, Some(&stop), Some(&mut first_recorded))
        .expect("campaign starts");
    assert!(first.interrupted);
    assert_eq!(first.resumed_trials, 0);
    assert_eq!(first.new_trials, 1);

    // Simulate the kill also truncating the manifest mid-line: the partial
    // final line must be dropped and its trial re-run.
    let text = std::fs::read_to_string(&manifest).expect("manifest exists");
    std::fs::write(&manifest, format!("{text}trial 12 comp")).expect("manifest writable");

    let second = executor
        .run(&manifest, None, None)
        .expect("campaign resumes");
    assert_eq!(second.resumed_trials, 1);
    assert_eq!(second.new_trials, 2);
    assert_eq!(
        second.report, uninterrupted,
        "resumed campaign must aggregate to the uninterrupted report"
    );

    // A third invocation finds everything done.
    let third = executor
        .run(&manifest, None, None)
        .expect("campaign reloads");
    assert_eq!(third.resumed_trials, 3);
    assert_eq!(third.new_trials, 0);
    assert_eq!(third.report, uninterrupted);
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn manifest_from_different_campaign_is_rejected() {
    let manifest = scratch("campaign-mismatch");
    let one_trial = CampaignConfig {
        trials: 1,
        ..campaign()
    };
    executor(one_trial, 0)
        .run(&manifest, None, None)
        .expect("first campaign");
    let written = std::fs::read(&manifest).expect("manifest exists");
    let mut other = one_trial;
    other.base_seed += 1;
    let err = executor(other, 0)
        .run(&manifest, None, None)
        .expect_err("different campaign must not consume the manifest");
    assert!(matches!(err, CampaignError::ManifestMismatch), "{err:?}");
    assert_eq!(
        std::fs::read(&manifest).unwrap(),
        written,
        "and must not rewrite it"
    );
    std::fs::remove_file(&manifest).ok();
}

/// Bit rot in the middle of the manifest costs the trial whose line it hit
/// and every later one: they re-run, and the report is the uninterrupted
/// run's byte for byte (this used to be a `ManifestCorrupt` abort).
#[test]
fn a_damaged_middle_trial_line_reruns_to_the_uninterrupted_report() {
    let manifest = scratch("middle-damage");
    let executor = executor(campaign(), 256);
    let clean = executor.run(&manifest, None, None).expect("campaign runs");
    let mut bytes = std::fs::read(&manifest).expect("manifest exists");
    let middle = bytes
        .split(|&b| b == b'\n')
        .take(3)
        .map(|line| line.len() + 1)
        .sum::<usize>();
    assert!(bytes[middle..].starts_with(b"trial 12 "));
    bytes[middle + 12] = 0xff;
    std::fs::write(&manifest, &bytes).expect("manifest writable");

    let resumed = executor
        .run(&manifest, None, None)
        .expect("damage is resumed through");
    assert_eq!((resumed.resumed_trials, resumed.new_trials), (1, 2));
    assert_eq!(resumed.report.to_json(), clean.report.to_json());
    let healed = executor
        .run(&manifest, None, None)
        .expect("healed manifest reloads");
    assert_eq!((healed.resumed_trials, healed.new_trials), (3, 0));
    std::fs::remove_file(&manifest).ok();
}

/// Where each line of `text` sits, newline included.
fn line_ranges(text: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut at = 0;
    text.split_inclusive(|&b| b == b'\n')
        .map(|line| {
            at += line.len();
            at - line.len()..at
        })
        .collect()
}

/// A seeded damage corpus over a finished manifest: truncations; newline,
/// non-UTF-8 and printable overwrites; splices of another campaign's
/// manifest. Resuming gives the uninterrupted report byte for byte, or —
/// only when the header or digest line was touched — a typed error, and
/// never panics. Without a per-line checksum, a trial line that still
/// parses after damage is read as written: only printable overwrites and
/// splices can make one, and only the lines they touched may then differ.
#[test]
fn manifest_damage_resumes_to_the_uninterrupted_report_or_a_typed_error() {
    // Short trials with a short drain budget: the corpus re-runs every
    // trial it costs.
    let short = CampaignConfig {
        spec: "bank_fail=1".parse().expect("valid spec"),
        windows: Windows {
            warmup: 20,
            measure: 60,
            drain: 1_000,
        },
        trials: 4,
        ..campaign()
    };
    let foreign_path = scratch("corpus-foreign");
    let other = CampaignConfig {
        base_seed: 1_000,
        ..short
    };
    executor(other, 0)
        .run(&foreign_path, None, None)
        .expect("foreign campaign runs");
    let foreign = std::fs::read(&foreign_path).expect("foreign manifest exists");
    let executor = executor(short, 0);
    let pristine_path = scratch("corpus-pristine");
    let clean = executor
        .run(&pristine_path, None, None)
        .expect("campaign runs");
    let pristine = std::fs::read(&pristine_path).expect("manifest exists");
    let lines = line_ranges(&pristine);
    assert_eq!(lines.len(), 2 + 4);

    let path = scratch("corpus-case");
    let mut rng = StdRng::seed_from_u64(0x6d61_6e69_6665);
    let (mut identical, mut typed, mut altered) = (0, 0, 0);
    for case in 0..200 {
        let mut bytes = pristine.clone();
        let at = rng.gen_range(0..bytes.len());
        match case % 5 {
            0 => bytes.truncate(at),
            4 => {
                bytes.truncate(at);
                bytes.extend_from_slice(foreign.get(at..).unwrap_or_default());
            }
            // Overwrites: newlines, non-UTF-8 bytes, printable ASCII.
            kind => {
                let len = rng.gen_range(1..32usize).min(bytes.len() - at);
                for b in &mut bytes[at..at + len] {
                    *b = match kind {
                        1 => b'\n',
                        2 => rng.gen_range(0x80..0x100u32) as u8,
                        _ => rng.gen_range(0x21..0x7fu32) as u8,
                    };
                }
            }
        }
        let touched = |line: &std::ops::Range<usize>| {
            bytes.get(line.clone()) != Some(&pristine[line.clone()])
        };
        let head_touched = lines[..2].iter().any(touched);
        std::fs::write(&path, &bytes).unwrap();
        match executor.run(&path, None, None) {
            Ok(out) if out.report.to_json() == clean.report.to_json() => identical += 1,
            Ok(out) => {
                assert!(matches!(case % 5, 3 | 4), "case {case}: damage went unseen");
                for (i, (got, want)) in out
                    .report
                    .trials
                    .iter()
                    .zip(&clean.report.trials)
                    .enumerate()
                {
                    assert!(
                        got == want || touched(&lines[2 + i]),
                        "case {case}: trial {i} moved"
                    );
                }
                altered += 1;
            }
            Err(CampaignError::ManifestMismatch | CampaignError::ManifestCorrupt(_))
                if head_touched =>
            {
                // Not this campaign's manifest any more: left as it is.
                assert_eq!(std::fs::read(&path).unwrap(), bytes, "case {case}");
                typed += 1;
            }
            Err(e) => panic!("case {case}: {e}"),
        }
    }
    assert!(
        identical > 100 && typed > 10,
        "{identical} identical, {typed} typed, {altered} altered"
    );
    for path in [pristine_path, foreign_path, path] {
        std::fs::remove_file(path).ok();
    }
}

/// A seeded damage corpus over trial checkpoints of both phases:
/// truncation at every envelope offset 0..=21 and at sampled snapshot
/// offsets, and bit flips — every bit of the envelope, sampled ones of the
/// snapshot. Each is `CheckpointCorrupt` or `CheckpointMismatch`: never a
/// panic, and never a trial resumed from damaged state.
#[test]
fn trial_checkpoint_damage_is_a_typed_error_never_a_wrong_resume() {
    let campaign = campaign();
    let seed = campaign.base_seed;
    let ckpt = scratch("ckpt-corpus");
    // One checkpoint mid-measurement and one mid-drain, as the periodic
    // writer leaves them; both resume undamaged.
    let mut cluster = trial_cluster(config(), &campaign, seed).expect("valid config");
    let mut checkpoints = Vec::new();
    let mut save = |cluster: &mempool::Cluster<_>, phase| {
        let snapshot = cluster.snapshot();
        TrialCheckpoint {
            seed,
            phase,
            snapshot,
        }
        .write_file(&ckpt)
        .unwrap();
        checkpoints.push(std::fs::read(&ckpt).unwrap());
    };
    cluster.step_cycles(300);
    save(&cluster, TrialPhase::Generate);
    cluster.step_cycles(200);
    for gen in cluster.cores_mut() {
        gen.stop();
    }
    let _ = cluster.run(100);
    save(&cluster, TrialPhase::Drain { drain_start: 500 });
    let plain = reference::trial(config(), &campaign, seed);
    for pristine in &checkpoints {
        std::fs::write(&ckpt, pristine).unwrap();
        assert_eq!(supervised(&campaign, seed, &ckpt, 0), plain);
    }

    let mut rng = StdRng::seed_from_u64(0x636b_7074);
    let mut cases = 0;
    for pristine in &checkpoints {
        let mut damaged: Vec<Vec<u8>> = (0..=21).map(|len| pristine[..len].to_vec()).collect();
        damaged.extend((0..20).map(|_| pristine[..rng.gen_range(22..pristine.len())].to_vec()));
        let flips = (0..21 * 8).chain((0..80).map(|_| rng.gen_range(21 * 8..pristine.len() * 8)));
        damaged.extend(flips.map(|bit| {
            let mut bytes = pristine.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            bytes
        }));
        for bytes in damaged {
            std::fs::write(&ckpt, &bytes).unwrap();
            let sup = TrialSupervision::default();
            match run_trial_supervised(config(), &campaign, seed, &ckpt, 0, sup) {
                Err(CampaignError::CheckpointCorrupt(_) | CampaignError::CheckpointMismatch) => {}
                other => panic!("{} damaged bytes resumed: {other:?}", bytes.len()),
            }
            cases += 1;
        }
    }
    assert_eq!(cases, 2 * (22 + 20 + 168 + 80));
    std::fs::remove_file(&ckpt).ok();
}

/// Snapshot/restore roundtrips bit-identically for traffic-driven clusters
/// under random fault plans — the generator's RNG, source queue, and tag
/// table all survive the checkpoint.
#[test]
fn traffic_cluster_roundtrip_under_random_fault_plans() {
    let campaign = campaign();
    for seed in [3u64, 17, 91] {
        let mid = 150 + seed * 7;
        let total = 1_200;

        let mut uninterrupted = trial_cluster(config(), &campaign, seed).expect("valid config");
        uninterrupted.step_cycles(total);

        let mut original = trial_cluster(config(), &campaign, seed).expect("valid config");
        original.step_cycles(mid);
        let snap = original.snapshot();

        // Fresh cluster, different seed everywhere: restore must overwrite
        // every generator's RNG state, queue, and tags.
        let mut restored = trial_cluster(config(), &campaign, seed + 1000).expect("valid config");
        restored.restore(&snap).expect("snapshot restores");
        restored.step_cycles(total - mid);

        assert_eq!(restored.state_digest(), uninterrupted.state_digest());
        assert_eq!(restored.stats(), uninterrupted.stats());
    }
}

/// Two identical traffic runs agree on every probed digest.
#[test]
fn traffic_digest_is_stable_across_identical_runs() {
    let campaign = campaign();
    let run = || {
        let mut cluster = trial_cluster(config(), &campaign, 5).expect("valid config");
        let mut digests = Vec::new();
        for _ in 0..6 {
            cluster.step_cycles(200);
            digests.push(cluster.state_digest());
        }
        digests
    };
    assert_eq!(run(), run());
}
