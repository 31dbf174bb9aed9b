//! Supervised-executor contract tests: clean runs match the straight-line
//! reference campaign bit-for-bit, transient failures are retried with the
//! result unchanged, deterministic failures quarantine with partial
//! results, cycle budgets become typed timeouts, corrupt checkpoints are
//! typed errors (and the executor self-heals them), and an interrupted
//! campaign resumed to completion serializes byte-identically to an
//! uninterrupted one.

mod reference;

use mempool::{ClusterConfig, Topology};
use mempool_traffic::{
    run_trial_supervised, trial_cluster, CampaignConfig, CampaignError, Executor, ExecutorConfig,
    FailureKind, RetryPolicy, TrialCheckpoint, TrialOutcome, TrialPhase, TrialSupervision, Windows,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

fn campaign() -> CampaignConfig {
    CampaignConfig {
        spec: "bank_fail=1,link_drop=0.001".parse().expect("valid spec"),
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

/// Executor policy for tests: no backoff sleeps, small checkpoints.
fn exec() -> ExecutorConfig {
    ExecutorConfig {
        retry: RetryPolicy {
            backoff_base_ms: 0,
            ..RetryPolicy::default()
        },
        checkpoint_every: 64,
        ..ExecutorConfig::default()
    }
}

fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mempool-exec-{name}-{}", std::process::id()));
    for suffix in ["", ".ckpt", ".tmp", ".ckpt.tmp"] {
        let mut p = path.as_os_str().to_owned();
        p.push(suffix);
        std::fs::remove_file(PathBuf::from(p)).ok();
    }
    path
}

#[test]
fn clean_executor_run_matches_plain_campaign() {
    let manifest = scratch("clean");
    let plain = reference::campaign(config(), &campaign());
    let report = Executor::new(config(), campaign(), exec())
        .run(&manifest, None, None)
        .expect("campaign runs");
    assert_eq!(report.report, plain, "supervision must not perturb trials");
    assert_eq!(report.retries, 0);
    assert_eq!(report.new_trials, 3);
    assert_eq!(report.resumed_trials, 0);
    assert!(report.quarantined.is_empty());
    assert!(!report.interrupted);
    std::fs::remove_file(&manifest).ok();
}

/// Fails the first attempt of the first trial only (a transient fault).
fn fail_first_attempt_of_first_trial(seed: u64, attempt: u32) -> bool {
    seed == 11 && attempt == 1
}

#[test]
fn transient_failure_is_retried_without_perturbing_results() {
    let manifest = scratch("transient");
    let plain = reference::campaign(config(), &campaign());
    let mut policy = exec();
    policy.inject_failure = Some(fail_first_attempt_of_first_trial);
    let report = Executor::new(config(), campaign(), policy)
        .run(&manifest, None, None)
        .expect("campaign runs");
    assert_eq!(report.retries, 1, "exactly one attempt was retried");
    assert!(report.quarantined.is_empty(), "a transient never quarantines");
    assert_eq!(
        report.report, plain,
        "the retried trial must be bit-identical to an undisturbed one"
    );
    std::fs::remove_file(&manifest).ok();
}

/// Fails every attempt of the second trial (a deterministic fault).
fn fail_second_trial_always(seed: u64, _attempt: u32) -> bool {
    seed == 12
}

#[test]
fn deterministic_failure_quarantines_with_partial_results() {
    let manifest = scratch("quarantine");
    let mut policy = exec();
    policy.inject_failure = Some(fail_second_trial_always);
    let report = Executor::new(config(), campaign(), policy)
        .run(&manifest, None, None)
        .expect("campaign completes despite the bad trial");

    // The campaign finished: all three trials are recorded, one of them
    // as a quarantine placeholder carrying its failure history.
    assert_eq!(report.report.trials.len(), 3);
    assert_eq!(report.quarantined.len(), 1);
    let q = &report.quarantined[0];
    assert_eq!(q.seed, 12);
    // Two identical failures prove determinism; no third attempt is made.
    assert_eq!(q.failures.len(), 2, "identical repeat short-circuits retries");
    assert!(q.failures.iter().all(|f| f.kind == FailureKind::Panic));
    assert!(matches!(
        report.report.trials[1].outcome,
        TrialOutcome::Quarantined { attempts: 2 }
    ));
    // The healthy trials are untouched.
    let plain = reference::campaign(config(), &campaign());
    assert_eq!(report.report.trials[0], plain.trials[0]);
    assert_eq!(report.report.trials[2], plain.trials[2]);

    // Resuming the finished campaign re-runs nothing and keeps the
    // quarantine line.
    let resumed = Executor::new(config(), campaign(), exec())
        .run(&manifest, None, None)
        .expect("resume is a no-op");
    assert_eq!(resumed.resumed_trials, 3);
    assert_eq!(resumed.new_trials, 0);
    assert_eq!(resumed.report, report.report);
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn cycle_budget_overrun_is_a_typed_timeout_and_quarantines() {
    let manifest = scratch("budget");
    let mut policy = exec();
    policy.cycle_budget = Some(50); // far below warmup + measure
    let report = Executor::new(config(), campaign(), policy)
        .run(&manifest, None, None)
        .expect("campaign completes by quarantining every trial");
    assert_eq!(report.quarantined.len(), 3, "no trial fits in 50 cycles");
    for q in &report.quarantined {
        assert_eq!(q.failures.len(), 2, "deterministic overrun repeats once");
        for f in &q.failures {
            assert_eq!(f.kind, FailureKind::Timeout, "{f:?}");
            assert!(f.detail.contains("cycle"), "{f:?}");
        }
    }
    assert_eq!(report.report.quarantined(), 3);
    std::fs::remove_file(&manifest).ok();
}

/// Satellite regression: a corrupt or mismatched `<manifest>.ckpt` is a
/// typed [`CampaignError`], never a panic or a silent misresume.
#[test]
fn corrupt_checkpoint_is_a_typed_error() {
    let campaign = campaign();
    let seed = campaign.base_seed;
    let sup = || TrialSupervision::default();

    // Garbage bytes: bad magic.
    let ckpt = scratch("ckpt-garbage");
    std::fs::write(&ckpt, b"not a checkpoint at all").expect("writable");
    let err = run_trial_supervised(config(), &campaign, seed, &ckpt, 64, sup())
        .expect_err("garbage must not resume");
    assert!(matches!(err, CampaignError::CheckpointCorrupt(_)), "{err:?}");

    // Truncation below the fixed header.
    std::fs::write(&ckpt, [0u8; 7]).expect("writable");
    let err = run_trial_supervised(config(), &campaign, seed, &ckpt, 64, sup())
        .expect_err("truncated must not resume");
    assert!(matches!(err, CampaignError::CheckpointCorrupt(_)), "{err:?}");

    // A structurally valid checkpoint for a *different* trial.
    let cluster = trial_cluster(config(), &campaign, seed + 1).expect("valid config");
    TrialCheckpoint {
        seed: seed + 1,
        phase: TrialPhase::Generate,
        snapshot: cluster.snapshot(),
    }
    .write_file(&ckpt)
    .expect("writable");
    let err = run_trial_supervised(config(), &campaign, seed, &ckpt, 64, sup())
        .expect_err("foreign checkpoint must not resume");
    assert!(matches!(err, CampaignError::CheckpointMismatch), "{err:?}");

    // A bit-flip inside a real checkpoint: the embedded snapshot digest
    // catches it.
    let cluster = trial_cluster(config(), &campaign, seed).expect("valid config");
    TrialCheckpoint {
        seed,
        phase: TrialPhase::Generate,
        snapshot: cluster.snapshot(),
    }
    .write_file(&ckpt)
    .expect("writable");
    let mut bytes = std::fs::read(&ckpt).expect("readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ckpt, &bytes).expect("writable");
    let err = run_trial_supervised(config(), &campaign, seed, &ckpt, 64, sup())
        .expect_err("bit-flipped must not resume");
    assert!(matches!(err, CampaignError::CheckpointCorrupt(_)), "{err:?}");

    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn executor_self_heals_a_corrupt_checkpoint() {
    let manifest = scratch("heal");
    let mut ckpt = manifest.as_os_str().to_owned();
    ckpt.push(".ckpt");
    let ckpt = PathBuf::from(ckpt);
    std::fs::write(&ckpt, b"garbage left by a crashed attempt").expect("writable");

    let plain = reference::campaign(config(), &campaign());
    let report = Executor::new(config(), campaign(), exec())
        .run(&manifest, None, None)
        .expect("campaign survives the bad checkpoint");
    assert_eq!(report.retries, 1, "the poisoned attempt is retried once");
    assert!(report.quarantined.is_empty());
    assert_eq!(report.report, plain, "results are unperturbed after healing");
    assert!(!ckpt.exists(), "the bad checkpoint was removed");
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn interrupted_campaign_resumes_to_identical_json() {
    let baseline_manifest = scratch("json-baseline");
    let baseline = Executor::new(config(), campaign(), exec())
        .run(&baseline_manifest, None, None)
        .expect("baseline runs");

    // An interrupt flag that is already raised stops before any trial.
    let manifest = scratch("json-resume");
    let flag = AtomicBool::new(true);
    let stopped = Executor::new(config(), campaign(), exec())
        .run(&manifest, Some(&flag), None)
        .expect("interrupt is clean");
    assert!(stopped.interrupted);
    assert_eq!(stopped.new_trials, 0);

    // Resuming runs the whole campaign; the serialized report is
    // byte-identical to the uninterrupted baseline.
    flag.store(false, Ordering::SeqCst);
    let resumed = Executor::new(config(), campaign(), exec())
        .run(&manifest, Some(&flag), None)
        .expect("resume completes");
    assert!(!resumed.interrupted);
    assert_eq!(
        resumed.report.to_json(),
        baseline.report.to_json(),
        "resume must serialize bit-identically"
    );
    std::fs::remove_file(&baseline_manifest).ok();
    std::fs::remove_file(&manifest).ok();
}
