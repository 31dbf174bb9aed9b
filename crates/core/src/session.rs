//! The [`SimSession`] front door: one builder that owns every run-scoped
//! concern — topology, fault plan, checkpointing, and
//! observability — so callers configure a simulation in one place instead
//! of mutating a freshly built [`Cluster`] through a zoo of setters.
//!
//! ```
//! use mempool::{ClusterConfig, ObsConfig, SimSession, Topology};
//! use mempool_riscv::assemble;
//!
//! let program = assemble("csrr a0, mhartid\necall\n")?;
//! let mut session = SimSession::builder(ClusterConfig::small(Topology::TopH))
//!     .observability(ObsConfig::histograms())
//!     .build_snitch()?;
//! session.load_program(&program)?;
//! session.run(10_000)?;
//! let metrics = session.metrics_registry();
//! assert!(metrics.counter("cluster", "cycles")? > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::faults::FaultPlan;
use crate::obs::ObsConfig;
use crate::snapshot::{ClusterSnapshot, Walk};
use crate::{Cluster, ClusterConfig, Core, CoreLocation, Error, SimError};
use std::path::{Path, PathBuf};

/// Builder for a [`SimSession`]: collects every run-scoped option, then
/// constructs the cluster in one validated step.
#[derive(Debug)]
pub struct SimSessionBuilder {
    config: ClusterConfig,
    fault_plan: Option<FaultPlan>,
    observability: Option<ObsConfig>,
    profile: Option<crate::ProfileConfig>,
    checkpoint: Option<(u64, PathBuf)>,
    sanitize: Option<crate::SanitizerConfig>,
    host_profile: bool,
    max_wall: Option<std::time::Duration>,
}

impl SimSessionBuilder {
    /// Installs a fault-injection plan, active from cycle 0.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Attaches the observability recorder (per-tile latency histograms,
    /// and a sampled timeline when `config` enables it).
    #[must_use]
    pub fn observability(mut self, config: ObsConfig) -> Self {
        self.observability = Some(config);
        self
    }

    /// Attaches the program-level profiler: per-(region, PC) cycle
    /// attribution in every core, and the windowed activity sampler when
    /// `config` enables power windows.
    #[must_use]
    pub fn profile(mut self, config: crate::ProfileConfig) -> Self {
        self.profile = Some(config);
        self
    }

    /// Writes a checkpoint to `path` every `every` cycles during
    /// [`SimSession::run`] (atomically; the previous image is replaced).
    /// Requires a checkpointable core model — sessions over cores without
    /// [`Walk`] ignore this setting.
    #[must_use]
    pub fn checkpoint_every(mut self, every: u64, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some((every.max(1), path.into()));
        self
    }

    /// Attaches the cycle-level invariant sanitizer (request/response
    /// conservation, FIFO ordering, the zero-load latency contract,
    /// buffer bounds, liveness, quarantine consistency). Pure checking:
    /// the sanitizer never enters the state digest.
    #[must_use]
    pub fn sanitize(mut self, config: crate::SanitizerConfig) -> Self {
        self.sanitize = Some(config);
        self
    }

    /// Attaches the host phase timer when `enabled`: the wall-clock time
    /// of each phase of every simulated cycle, read back through
    /// [`SimSession::host_profile`]. It observes the host only: it never
    /// enters a snapshot or the state digest.
    #[must_use]
    pub fn host_profile(mut self, enabled: bool) -> Self {
        self.host_profile = enabled;
        self
    }

    /// Arms a wall-clock watchdog for [`SimSession::run`]: the run fails
    /// with [`SimError::Cancelled`](crate::SimError::Cancelled) once
    /// `limit` of real time has elapsed.
    #[must_use]
    pub fn max_wall(mut self, limit: std::time::Duration) -> Self {
        self.max_wall = Some(limit);
        self
    }

    /// Builds the session with a Snitch core in every lane.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when the configuration is inconsistent.
    pub fn build_snitch(self) -> Result<SimSession<mempool_snitch::SnitchCore>, Error> {
        let template = self.config.core;
        self.build_with(|loc| {
            mempool_snitch::SnitchCore::new(mempool_snitch::SnitchConfig {
                hartid: loc.core as u32,
                ..template
            })
        })
    }

    /// Builds the session, constructing each core through `factory`.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when the configuration is inconsistent.
    pub fn build_with<C: Core>(
        self,
        factory: impl FnMut(CoreLocation) -> C,
    ) -> Result<SimSession<C>, Error> {
        let mut cluster = Cluster::new(self.config, factory)?;
        cluster.install_fault_plan(self.fault_plan);
        if let Some(obs) = self.observability {
            cluster.enable_observability(obs);
        }
        if let Some(profile) = self.profile {
            cluster.enable_profiling(profile);
        }
        if let Some(san) = self.sanitize {
            cluster.enable_sanitizer(san);
        }
        if self.host_profile {
            cluster.enable_host_profile();
        }
        Ok(SimSession {
            cluster,
            checkpoint: self.checkpoint,
            max_wall: self.max_wall,
        })
    }
}

/// A configured simulation: a [`Cluster`] plus the session-scoped policy
/// (periodic checkpointing) the builder collected. Dereference-style access
/// to the cluster is explicit — [`cluster`](SimSession::cluster) /
/// [`cluster_mut`](SimSession::cluster_mut) — so it stays obvious which
/// calls touch architectural state.
pub struct SimSession<C> {
    cluster: Cluster<C>,
    checkpoint: Option<(u64, PathBuf)>,
    max_wall: Option<std::time::Duration>,
}

impl SimSession<mempool_snitch::SnitchCore> {
    /// Starts a builder over `config`.
    pub fn builder(config: ClusterConfig) -> SimSessionBuilder {
        SimSessionBuilder {
            config,
            fault_plan: None,
            observability: None,
            profile: None,
            checkpoint: None,
            sanitize: None,
            host_profile: false,
            max_wall: None,
        }
    }
}

impl<C: Core> SimSession<C> {
    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster<C> {
        &self.cluster
    }

    /// Mutable access to the underlying cluster.
    pub fn cluster_mut(&mut self) -> &mut Cluster<C> {
        &mut self.cluster
    }

    /// Unwraps the session into its cluster.
    pub fn into_cluster(self) -> Cluster<C> {
        self.cluster
    }

    /// Loads (pre-decodes) a program into the shared instruction memory.
    ///
    /// # Errors
    ///
    /// [`Error::Decode`] on the first malformed instruction word.
    pub fn load_program(&mut self, program: &mempool_riscv::Program) -> Result<(), Error> {
        self.cluster.load_program(program)?;
        Ok(())
    }

    /// The metrics registry snapshot (see
    /// [`Cluster::metrics_registry`]). A pure read of the digest-covered
    /// recorder, so a mid-run snapshot at a checkpoint or park never
    /// perturbs the run: digests and the final document stay bit-identical
    /// whether or not anyone sampled along the way.
    pub fn metrics_registry(&self) -> crate::MetricsRegistry {
        self.cluster.metrics_registry()
    }

    /// Whether the observability recorder is attached (see
    /// [`Cluster::observability_enabled`]).
    pub fn observability_enabled(&self) -> bool {
        self.cluster.observability_enabled()
    }

    /// The sampled timeline, when observability tracing is enabled.
    pub fn timeline(&self) -> Option<crate::obs::TimelineTrace> {
        self.cluster.timeline()
    }

    /// The host time per phase of the cycles run so far, when the host
    /// phase timer is on (see [`Cluster::host_profile`]).
    pub fn host_profile(&self) -> Option<&crate::HostProfile> {
        self.cluster.host_profile()
    }

    /// The folded-stack profile export, when profiling is enabled (see
    /// [`Cluster::profile_folded`]).
    pub fn profile_folded(&self) -> Option<String> {
        self.cluster.profile_folded()
    }

    /// The power-sampling window series, when profiling is enabled (see
    /// [`Cluster::power_windows`]).
    pub fn power_windows(&self) -> Option<Vec<crate::PowerWindow>> {
        self.cluster.power_windows()
    }
}

impl<C: Core + Walk> SimSession<C> {
    /// Runs to completion within `max_cycles`, writing periodic
    /// checkpoints when the builder configured them.
    ///
    /// Returns the number of cycles executed by this call.
    ///
    /// # Errors
    ///
    /// [`Error::Sim`] on timeout or deadlock, [`Error::Io`] when a
    /// checkpoint fails to write.
    pub fn run(&mut self, max_cycles: u64) -> Result<u64, Error> {
        if let Some(limit) = self.max_wall {
            // The deadline is armed at run start, not at build time, so a
            // session configured long before it runs gets the full budget.
            self.cluster
                .set_cancel_token(Some(crate::CancelToken::new().with_wall_limit(limit)));
        }
        let Some((every, path)) = self.checkpoint.clone() else {
            return Ok(self.cluster.run(max_cycles)?);
        };
        let start = self.cluster.now();
        let mut remaining = max_cycles;
        loop {
            let chunk = every.min(remaining);
            match self.cluster.run(chunk) {
                Ok(_) => {
                    self.cluster.snapshot().write_file(&path)?;
                    return Ok(self.cluster.now() - start);
                }
                Err(SimError::Timeout(_)) if remaining > chunk => {
                    remaining -= chunk;
                    self.cluster.snapshot().write_file(&path)?;
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Like [`SimSession::run`], but in chunks of `every` cycles with
    /// `on_boundary` called at each chunk boundary and once more on halt —
    /// the hook for streaming mid-run telemetry (partial metrics,
    /// progress) without touching simulation state. Configured periodic
    /// checkpoints are refreshed at the same boundaries, so the chunk
    /// cadence is `every` rather than the builder's checkpoint interval.
    ///
    /// Returns the number of cycles executed by this call.
    ///
    /// # Errors
    ///
    /// [`Error::Sim`] on timeout or deadlock, [`Error::Io`] when a
    /// checkpoint fails to write.
    pub fn run_streaming(
        &mut self,
        max_cycles: u64,
        every: u64,
        on_boundary: &mut dyn FnMut(&Cluster<C>),
    ) -> Result<u64, Error> {
        if let Some(limit) = self.max_wall {
            self.cluster
                .set_cancel_token(Some(crate::CancelToken::new().with_wall_limit(limit)));
        }
        let every = every.max(1);
        let ckpt = self.checkpoint.clone().map(|(_, path)| path);
        let start = self.cluster.now();
        let mut remaining = max_cycles;
        loop {
            let chunk = every.min(remaining);
            match self.cluster.run(chunk) {
                Ok(_) => {
                    if let Some(path) = &ckpt {
                        self.cluster.snapshot().write_file(path)?;
                    }
                    on_boundary(&self.cluster);
                    return Ok(self.cluster.now() - start);
                }
                Err(SimError::Timeout(_)) if remaining > chunk => {
                    remaining -= chunk;
                    if let Some(path) = &ckpt {
                        self.cluster.snapshot().write_file(path)?;
                    }
                    on_boundary(&self.cluster);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Captures a checkpoint of the current state.
    pub fn snapshot(&self) -> ClusterSnapshot {
        self.cluster.snapshot()
    }

    /// The canonical digest over all architectural (and digest-covered
    /// micro-architectural) state — the oracle park/resume equality is
    /// verified against.
    pub fn state_digest(&self) -> u64 {
        self.cluster.state_digest()
    }

    /// The current simulation cycle.
    pub fn now(&self) -> u64 {
        self.cluster.now()
    }

    /// Parks the session: atomically writes a full snapshot to `path`
    /// (temp-file + rename, same contract as periodic checkpoints), so a
    /// different process — or a restarted daemon — can [`unpark`]
    /// (SimSession::unpark) it and continue bit-identically. The running
    /// session is not consumed; parking is a safe point, not a shutdown.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the snapshot fails to write.
    pub fn park(&self, path: &Path) -> Result<(), Error> {
        self.cluster.snapshot().write_file(path)?;
        Ok(())
    }

    /// Resumes a previously parked session from the snapshot at `path`.
    /// The session must have been built over the identical configuration
    /// and program; the snapshot's self-validation enforces it.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the file cannot be read, [`Error::Snapshot`]
    /// when it fails validation or belongs to a different configuration.
    pub fn unpark(&mut self, path: &Path) -> Result<(), Error> {
        let snap = ClusterSnapshot::read_file(path).map_err(Error::Io)?;
        self.restore(&snap)
    }

    /// Restores a previously captured checkpoint.
    ///
    /// # Errors
    ///
    /// [`Error::Snapshot`] when the snapshot belongs to a different
    /// configuration or program, or is structurally invalid.
    pub fn restore(&mut self, snap: &ClusterSnapshot) -> Result<(), Error> {
        self.cluster.restore(snap)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsConfig, Topology};

    fn program() -> mempool_riscv::Program {
        mempool_riscv::assemble(
            "li a0, 0x8000\n\
             li a1, 1\n\
             amoadd.w a2, a1, (a0)\n\
             fence\n\
             ecall\n",
        )
        .expect("valid program")
    }

    #[test]
    fn builder_matches_manual_cluster_setup() {
        let config = ClusterConfig::small(Topology::TopH);
        let mut session = SimSession::builder(config)
            .observability(ObsConfig::histograms())
            .build_snitch()
            .expect("valid config");
        session.load_program(&program()).expect("loads");
        session.run(100_000).expect("finishes");

        let mut manual = Cluster::snitch(config).expect("valid config");
        manual.enable_observability(ObsConfig::histograms());
        manual.load_program(&program()).expect("loads");
        manual.run(100_000).expect("finishes");

        assert_eq!(session.cluster().state_digest(), manual.state_digest());
        assert_eq!(
            session.metrics_registry().to_json(),
            manual.metrics_registry().to_json()
        );
    }

    #[test]
    fn partial_metrics_gated_on_observability_and_pure() {
        let config = ClusterConfig::small(Topology::Top4);
        let mut plain = SimSession::builder(config).build_snitch().expect("valid");
        plain.load_program(&program()).expect("loads");
        assert!(!plain.observability_enabled());

        let mut observed = SimSession::builder(config)
            .observability(ObsConfig::histograms())
            .build_snitch()
            .expect("valid");
        observed.load_program(&program()).expect("loads");
        assert!(observed.observability_enabled());
        observed.run(100_000).expect("finishes");
        let digest_before = observed.state_digest();
        let partial = observed.metrics_registry().to_json();
        // A partial snapshot is a pure read: state and the exported
        // document are untouched by taking it.
        assert_eq!(observed.state_digest(), digest_before);
        assert_eq!(partial, observed.metrics_registry().to_json());
    }

    #[test]
    fn checkpointed_run_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "mempool-session-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ckpt.mpsn");

        let config = ClusterConfig::small(Topology::Top4);
        let mut session = SimSession::builder(config)
            .observability(ObsConfig::with_trace(4))
            .checkpoint_every(50, &path)
            .build_snitch()
            .expect("valid config");
        session.load_program(&program()).expect("loads");
        session.run(100_000).expect("finishes");
        let final_digest = session.cluster().state_digest();

        // The final checkpoint written by run() restores to the end state.
        let snap = ClusterSnapshot::read_file(&path).expect("checkpoint written");
        let mut resumed = SimSession::builder(config)
            .build_snitch()
            .expect("valid config");
        resumed.load_program(&program()).expect("loads");
        resumed.restore(&snap).expect("restores");
        assert_eq!(resumed.cluster().state_digest(), final_digest);
        assert_eq!(
            resumed.metrics_registry().to_json(),
            session.metrics_registry().to_json(),
            "metrics survive checkpoint/restore byte-identically"
        );

        std::fs::remove_dir_all(&dir).ok();
    }
}
