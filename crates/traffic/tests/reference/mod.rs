//! The straight-line reference the campaign tests hold the executor to:
//! [`trial_cluster`] warmed up and measured, its generators stopped, then
//! drained in one `run` — no chunks, checkpoints, supervision or manifest.

use mempool::{ClusterConfig, SimError};
use mempool_traffic::{trial_cluster, CampaignConfig, CampaignReport, Trial, TrialOutcome};

/// One trial, run straight through.
pub fn trial(config: ClusterConfig, campaign: &CampaignConfig, seed: u64) -> Trial {
    let mut cluster = trial_cluster(config, campaign, seed).expect("valid config");
    cluster.step_cycles(campaign.windows.warmup + campaign.windows.measure);
    for gen in cluster.cores_mut() {
        gen.stop();
    }
    let drain_start = cluster.now();
    let outcome = match cluster.run(campaign.windows.drain) {
        Ok(_) => TrialOutcome::Completed {
            drain_cycles: cluster.now() - drain_start,
        },
        Err(SimError::Deadlock(d)) => TrialOutcome::Deadlock { cycle: d.cycle },
        Err(SimError::Timeout(_)) => TrialOutcome::Timeout,
        Err(SimError::Cancelled(c)) => unreachable!("no cancellation token is installed: {c}"),
    };
    Trial {
        seed,
        outcome,
        faults: cluster.stats().faults,
        quarantined_banks: cluster.quarantined_banks(),
        delivered: cluster.stats().responses_delivered,
        digest: cluster.state_digest(),
    }
}

/// Every trial of `campaign`, in seed order.
pub fn campaign(config: ClusterConfig, campaign: &CampaignConfig) -> CampaignReport {
    let seeds = campaign.base_seed..campaign.base_seed + u64::from(campaign.trials);
    CampaignReport {
        spec: campaign.spec,
        trials: seeds.map(|seed| trial(config, campaign, seed)).collect(),
    }
}
