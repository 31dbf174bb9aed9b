//! Isolated layer probes: one public function of one layer, called in a
//! tight loop on inputs made from the seed, away from the rest of the
//! system. They run in the traced run only.
//!
//! A probe is a *lower-bound estimate* of what the layer costs inside a
//! simulated cycle (warm caches, no neighbours); multiplied by the layer's
//! deterministic operation count it gives the share of a workload's wall
//! time the layer can explain, and what is left is `core.unattributed_pct`.

use crate::serve::{job_program, JOB_CONFIG_SPEC};
use crate::stats;
use crate::workload::traffic_cluster;
use mempool::{Cluster, ClusterConfig, ClusterSnapshot, Core, ObsConfig, SimSession, Topology};
use mempool_kernels::{build_program, Dct, Geometry, Kernel};
use mempool_mem::{BankOp, ICache, SpmBank};
use mempool_noc::{ElasticBuffer, Fabric, Offer, Ring};
use mempool_rng::{Rng, SeedableRng, StdRng};
use mempool_serve::journal::{self, Journal, ReplayedJob};
use mempool_serve::{JobSpec, JobStatus, Request, RunSpec, Scheduler, SchedulerConfig};
use mempool_snitch::{DataResponse, Fetch, SnitchConfig, SnitchCore};
use mempool_traffic::{json_escape, parse_config_spec, parse_flat_json};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Probe results by metric name.
pub type Probes = Vec<(&'static str, f64)>;

/// Looks a probe value up (0 when the probe did not run).
pub fn get(probes: &Probes, name: &str) -> f64 {
    probes
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// Median nanoseconds per call of `f`: the batch size is calibrated to
/// about 10 ms, then five batches are timed. Confirming that time grows
/// with the iteration count is what the calibration loop does — a body the
/// compiler deleted never reaches 10 ms and the doubling stops at its cap.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed().as_millis() >= 10 || batch >= 1 << 28 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    stats::median(&samples)
}

/// Median milliseconds of `reps` calls of `f`.
fn ms_per_call<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// Runs every probe. `work_dir` holds the journal and checkpoint files the
/// `serve` and `core.snapshot` probes write.
///
/// # Errors
///
/// A layer refused inputs the benchmark considers valid.
pub fn run_all(seed: u64, work_dir: &Path) -> Result<Probes, String> {
    let mut p = Probes::new();
    riscv(&mut p)?;
    snitch(&mut p)?;
    mem(&mut p, seed)?;
    noc(&mut p, seed)?;
    engine(&mut p, seed)?;
    snapshot_and_obs(&mut p, seed, work_dir)?;
    traffic(&mut p, seed);
    serve(&mut p, seed, work_dir)?;
    Ok(p)
}

fn paper_dct() -> Result<(ClusterConfig, Dct), String> {
    let config = ClusterConfig::paper(Topology::TopH);
    let dct = Dct::new(Geometry::from_config(&config, 4096)).map_err(|e| e.to_string())?;
    Ok((config, dct))
}

fn riscv(p: &mut Probes) -> Result<(), String> {
    let (_, dct) = paper_dct()?;
    let source = dct.source();
    let program = mempool_riscv::assemble(&source).map_err(|e| e.to_string())?;
    p.push((
        "riscv.assemble_ms",
        ms_per_call(9, || mempool_riscv::assemble(&source)),
    ));
    let words = program.words();
    let per_image = ns_per_call(|| {
        for &w in words {
            let _ = black_box(mempool_riscv::decode(black_box(w)));
        }
    });
    p.push(("riscv.decode_ns_per_instr", per_image / words.len() as f64));
    Ok(())
}

/// `SnitchCore::step` against a memory that answers in the next cycle: a
/// load / load / mul / add / store loop, the instruction mix of the kernels'
/// inner loops.
fn snitch(p: &mut Probes) -> Result<(), String> {
    let program = mempool_riscv::assemble(
        "li a0, 0x100\n\
         li a5, 1\n\
         loop:\n\
         lw a1, 0(a0)\n\
         lw a2, 4(a0)\n\
         mul a3, a1, a2\n\
         add a4, a4, a3\n\
         sw a4, 8(a0)\n\
         addi a5, a5, 2\n\
         bnez a5, loop\n\
         ecall\n",
    )
    .map_err(|e| e.to_string())?;
    let image: Vec<_> = program
        .words()
        .iter()
        .map(|&w| mempool_riscv::decode(w).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut core = SnitchCore::new(SnitchConfig::default());
    let mut pending: Option<DataResponse> = None;
    let ns = ns_per_call(|| {
        if let Some(response) = pending.take() {
            core.deliver(response);
        }
        let fetch = if core.needs_fetch() {
            image
                .get((core.pc().wrapping_sub(program.base()) / 4) as usize)
                .map_or(Fetch::Fault, |&i| Fetch::Ready(i))
        } else {
            Fetch::Stall
        };
        if let Some(request) = core.step(fetch, true) {
            pending = Some(DataResponse {
                tag: request.tag,
                data: 3,
            });
        }
    });
    if core.halted() {
        return Err("snitch probe: the loop program halted".to_owned());
    }
    p.push(("snitch.step_ns", ns));
    Ok(())
}

fn mem(p: &mut Probes, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x006d_656d);
    let config = ClusterConfig::paper(Topology::TopH);

    let mut bank = SpmBank::new(config.rows_per_bank);
    let rows: Vec<u32> = (0..1024)
        .map(|_| rng.gen_range(0..config.rows_per_bank))
        .collect();
    let mut i = 0usize;
    p.push((
        "mem.bank_access_ns",
        ns_per_call(|| {
            let row = rows[i & 1023];
            let op = if i & 3 == 3 {
                BankOp::Store {
                    data: i as u32,
                    strobe: 0xf,
                }
            } else {
                BankOp::Load
            };
            let _ = black_box(bank.access(row, op));
            i += 1;
        }),
    ));

    let map = config.address_map().map_err(|e| e.to_string())?;
    let scrambler = config
        .scrambler()
        .map_err(|e| e.to_string())?
        .ok_or("the paper configuration scrambles")?;
    let addrs: Vec<u32> = (0..1024)
        .map(|_| rng.gen_range(0..map.size_bytes() as u32 / 4) * 4)
        .collect();
    let mut i = 0usize;
    p.push((
        "mem.addr_decode_ns",
        ns_per_call(|| {
            let addr = scrambler.scramble(black_box(addrs[i & 1023]));
            black_box(map.decode(addr));
            i += 1;
        }),
    ));

    let ic = config.icache;
    let mut icache =
        ICache::new(ic.size_bytes, ic.ways, ic.line_bytes).map_err(|e| e.to_string())?;
    // A 96-instruction loop body that fits the cache: hits, as in a
    // kernel's steady state.
    for line in 0..(96 * 4 / ic.line_bytes) {
        icache.fill(line * ic.line_bytes);
    }
    let mut pc = 0u32;
    p.push((
        "mem.icache_probe_ns",
        ns_per_call(|| {
            black_box(icache.probe(black_box(pc)));
            pc = (pc + 4) % (96 * 4);
        }),
    ));
    Ok(())
}

/// Half-full offer sets for a fabric: `n_in / 2` distinct inputs, uniform
/// destinations.
fn offer_sets(rng: &mut StdRng, fabric: &Fabric, sets: usize) -> Vec<Vec<Offer>> {
    (0..sets)
        .map(|_| {
            let mut inputs: Vec<usize> = (0..fabric.n_in()).collect();
            for i in (1..inputs.len()).rev() {
                inputs.swap(i, rng.gen_range(0..i + 1));
            }
            inputs
                .into_iter()
                .take(fabric.n_in() / 2)
                .map(|input| Offer {
                    input,
                    dest: rng.gen_range(0..fabric.n_out()),
                })
                .collect()
        })
        .collect()
}

fn noc(p: &mut Probes, seed: u64) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x006e_6f63);
    let fabrics = [
        ("noc.crossbar16_resolve_ns", Fabric::crossbar(16, 16)),
        ("noc.butterfly16_resolve_ns", Fabric::butterfly(16, 4)),
        ("noc.butterfly64_resolve_ns", Fabric::butterfly(64, 4)),
    ];
    let (mut total_ns, mut total_offers) = (0.0, 0.0);
    let (mut offered, mut granted) = (0u64, 0u64);
    for (name, fabric) in fabrics {
        let mut fabric = fabric.map_err(|e| e.to_string())?;
        let sets = offer_sets(&mut rng, &fabric, 64);
        for set in &sets {
            offered += set.len() as u64;
            granted += fabric
                .resolve(set, &mut |_| true)
                .iter()
                .filter(|&&g| g)
                .count() as u64;
        }
        let mut i = 0usize;
        let ns = ns_per_call(|| {
            black_box(fabric.resolve(&sets[i & 63], &mut |_| true));
            i += 1;
        });
        total_ns += ns;
        total_offers += (fabric.n_in() / 2) as f64;
        p.push((name, ns));
    }
    p.push(("noc.resolve_ns_per_offer", total_ns / total_offers));
    p.push(("noc.grant_ratio", granted as f64 / offered as f64));

    let mut stage: ElasticBuffer<u64> = ElasticBuffer::new(2);
    let mut i = 0u64;
    p.push((
        "noc.elastic_roundtrip_ns",
        ns_per_call(|| {
            stage.push(i);
            stage.commit();
            black_box(stage.pop());
            i += 1;
        }),
    ));

    let mut ring: Ring<u32> = Ring::new(64);
    let mut i = 0usize;
    p.push((
        "noc.ring_advance_ns",
        ns_per_call(|| {
            // Keeps about a quarter of the 64 links occupied.
            if i & 3 == 0 {
                let _ = ring.try_inject(i & 63, (i + 16) & 63, i as u32);
            }
            ring.advance();
            black_box(ring.eject((i + 1) & 63));
            i += 1;
        }),
    ));
    Ok(())
}

/// The cycle engine with nothing to do (256 generators at load 0): the
/// floor of walking 64 idle tiles, serially and through the 2-worker pool.
/// Their difference is what the fork-join barriers cost per cycle.
fn engine(p: &mut Probes, seed: u64) -> Result<(), String> {
    let config = ClusterConfig::paper(Topology::TopH);
    let idle_ns = |workers: usize| -> Result<f64, String> {
        let mut cluster = traffic_cluster(config, 0.0, seed)?;
        cluster.set_workers(workers);
        cluster.step_cycles(black_box(200));
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                cluster.step_cycles(black_box(1_000));
                t.elapsed().as_nanos() as f64 / 1_000.0
            })
            .collect();
        Ok(stats::median(&samples))
    };
    let serial = idle_ns(0)?;
    let par2 = idle_ns(2)?;
    p.push(("core.cycle_ns_idle", serial));
    p.push(("core.cycle_ns_idle_par2", par2));
    p.push(("core.forkjoin_ns_per_cycle", par2 - serial));

    let (config, dct) = paper_dct()?;
    let program = build_program(&dct, &config).map_err(|e| e.to_string())?;
    p.push((
        "core.build_ms",
        ms_per_call(5, || {
            let mut cluster = Cluster::snitch(config).expect("the paper configuration is valid");
            cluster
                .load_program(&program)
                .expect("the kernel image decodes");
            cluster
        }),
    ));
    let mut cluster = Cluster::snitch(config).map_err(|e| e.to_string())?;
    cluster.load_program(&program).map_err(|e| e.to_string())?;
    p.push((
        "core.reset_ms",
        ms_per_call(5, || {
            cluster.step_cycles(black_box(50));
            let t = Instant::now();
            cluster.reset();
            t.elapsed()
        }),
    ));
    Ok(())
}

/// A session exactly as a `mempool-serve` worker holds it at its first
/// checkpoint boundary: the job's 64-core configuration, the recorder on,
/// 256 cycles in. Parking it is what every served job pays per chunk.
fn snapshot_and_obs(p: &mut Probes, seed: u64, work_dir: &Path) -> Result<(), String> {
    let config = parse_config_spec(JOB_CONFIG_SPEC)?;
    let program = mempool_riscv::assemble(&job_program(seed)).map_err(|e| e.to_string())?;
    let mut session = SimSession::builder(config)
        .observability(ObsConfig::histograms())
        .build_snitch()
        .map_err(|e| e.to_string())?;
    session.load_program(&program).map_err(|e| e.to_string())?;
    if session.cluster_mut().run(black_box(256)).is_ok() {
        return Err("snapshot probe: the job program ended before its first checkpoint".to_owned());
    }

    let snap = session.snapshot();
    let bytes = snap.as_bytes().to_vec();
    let mib = bytes.len() as f64 / (1024.0 * 1024.0);
    p.push(("core.snapshot.bytes", bytes.len() as f64));
    let encode_ms = ms_per_call(15, || session.snapshot());
    p.push(("core.snapshot.encode_mib_s", mib / (encode_ms / 1e3)));
    let decode_ms = ms_per_call(15, || ClusterSnapshot::from_bytes(&bytes));
    p.push(("core.snapshot.decode_mib_s", mib / (decode_ms / 1e3)));
    p.push((
        "core.snapshot.restore_ms",
        ms_per_call(15, || session.restore(&snap)),
    ));
    p.push((
        "core.snapshot.digest_ms",
        ms_per_call(15, || session.state_digest()),
    ));
    let ckpt = work_dir.join("probe.ckpt");
    p.push((
        "core.snapshot.park_ms",
        ms_per_call(15, || session.park(&ckpt)),
    ));
    let mut unpark_err = None;
    p.push((
        "core.snapshot.unpark_ms",
        ms_per_call(15, || {
            if let Err(e) = session.unpark(&ckpt) {
                unpark_err = Some(e.to_string());
            }
        }),
    ));
    if let Some(e) = unpark_err {
        return Err(format!("snapshot probe: unpark failed: {e}"));
    }

    session
        .cluster_mut()
        .run(black_box(1_000_000))
        .map_err(|e| format!("obs probe: the job program did not finish: {e}"))?;
    let doc = session.metrics_registry().to_json();
    p.push(("core.obs.doc_bytes", doc.len() as f64));
    p.push((
        "core.obs.render_ms",
        ms_per_call(9, || session.metrics_registry().to_json()),
    ));

    // The wire helpers `serve` imports from the traffic crate, on the
    // document a job carries home: escaped into the worker's `result`
    // line, then parsed by the daemon.
    let escape_ms = ms_per_call(9, || json_escape(&doc));
    p.push((
        "traffic.json_escape_mib_s",
        doc.len() as f64 / (1024.0 * 1024.0) / (escape_ms / 1e3),
    ));
    let line = format!(
        "{{\"outcome\":\"completed\",\"cycles\":{},\"state_digest\":\"{:#018x}\",\"metrics\":\"{}\"}}",
        session.now(),
        session.state_digest(),
        json_escape(&doc)
    );
    if parse_flat_json(&line).is_none() {
        return Err("traffic probe: the result line does not parse".to_owned());
    }
    p.push((
        "traffic.flat_json_parse_ns",
        ms_per_call(9, || parse_flat_json(&line)) * 1e6,
    ));
    Ok(())
}

fn traffic(p: &mut Probes, seed: u64) {
    let config = ClusterConfig::paper(Topology::TopH);
    let mut cluster = traffic_cluster(config, 0.5, seed).expect("the paper configuration is valid");
    // One generator, driven by hand with a memory that answers next cycle.
    let gen = &mut cluster.cores_mut()[0];
    let mut pending: Option<DataResponse> = None;
    p.push((
        "traffic.gen_step_ns",
        ns_per_call(|| {
            if let Some(response) = pending.take() {
                gen.deliver(response);
            }
            if let Some(request) = gen.step(&mut |_| Fetch::Stall, true) {
                pending = Some(DataResponse {
                    tag: request.tag,
                    data: 0,
                });
            }
        }),
    ));
}

fn serve(p: &mut Probes, seed: u64, work_dir: &Path) -> Result<(), String> {
    let spec = JobSpec::Run(RunSpec {
        config_spec: JOB_CONFIG_SPEC.to_owned(),
        program: job_program(seed),
        max_cycles: 100_000,
        checkpoint_every: 256,
        metrics: true,
    });
    let request = Request::Submit {
        tenant: "t0".to_owned(),
        priority: 0,
        deadline_secs: None,
        spec: spec.clone(),
    };
    let line = request.to_json();
    if Request::from_json(&line).as_ref() != Ok(&request) {
        return Err("serve probe: the submit line does not round-trip".to_owned());
    }
    p.push((
        "serve.protocol.parse_us",
        ns_per_call(|| {
            let _ = black_box(Request::from_json(black_box(&line)));
        }) / 1e3,
    ));
    p.push((
        "serve.protocol.render_us",
        ns_per_call(|| {
            black_box(request.to_json());
        }) / 1e3,
    ));

    let mut scheduler = Scheduler::new(SchedulerConfig::default());
    let mut id = 0u64;
    p.push((
        "serve.sched.op_ns",
        ns_per_call(|| {
            let _ = black_box(scheduler.admit(id, if id & 1 == 0 { "t0" } else { "t1" }, 0));
            black_box(scheduler.next());
            scheduler.release(id);
            id += 1;
        }),
    ));

    let path = work_dir.join("probe.journal");
    let mut journal = Journal::rewrite(&path, &[]).map_err(|e| e.to_string())?;
    let mut appends = Vec::with_capacity(60);
    for id in 0..60 {
        let t = Instant::now();
        journal
            .record_state(id, JobStatus::Running)
            .map_err(|e| format!("journal append: {e}"))?;
        appends.push(t.elapsed().as_secs_f64() * 1e3);
    }
    p.push(("serve.journal.append_ms.p50", stats::median(&appends)));
    p.push((
        "serve.journal.append_ms.p90",
        stats::percentile(&appends, 90.0),
    ));

    let jobs: Vec<ReplayedJob> = (0..250)
        .map(|id| ReplayedJob {
            id,
            tenant: format!("t{}", id & 1),
            priority: 0,
            deadline_secs: None,
            spec: spec.clone(),
            status: JobStatus::Completed,
            payload: Some("{\"outcome\":\"completed\",\"cycles\":1}".to_owned()),
        })
        .collect();
    drop(Journal::rewrite(&path, &jobs).map_err(|e| e.to_string())?);
    let lines = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())?
        .lines()
        .count();
    let replayed = journal::replay(&path).map_err(|e| e.to_string())?;
    if replayed.jobs.len() != jobs.len() || replayed.skipped != 0 {
        return Err("serve probe: the journal does not replay cleanly".to_owned());
    }
    let replay_ms = ms_per_call(5, || journal::replay(&path));
    p.push((
        "serve.journal.replay_ms_per_kline",
        replay_ms / (lines as f64 / 1e3),
    ));
    Ok(())
}
