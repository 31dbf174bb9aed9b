//! Test-only reference implementations: the byte-at-a-time FNV-1a, the
//! word-at-a-time sink and the three-buffer checkpoint assembly that the
//! zero-run hash, `put_words` and the one-buffer `Cluster::snapshot`
//! replaced, kept verbatim so the new code is pinned to the old bytes
//! rather than to its own self-consistency.

use super::*;
use crate::{Core, FaultPlan, ObsConfig, ProfileConfig, ResilienceConfig, SimSession, Topology};
use mempool_riscv::assemble;
use mempool_rng::{Rng, SeedableRng, StdRng};
use mempool_snitch::{DataRequest, DataResponse, Fetch};

/// The former `Fnv::put`.
fn fnv_bytewise(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The former `Vec<u8>` sink: `put` alone, so every L1 word arrives as its
/// own `put`.
struct WordAtATime(Vec<u8>);

impl StateSink for WordAtATime {
    fn put(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }
}

/// The former `Cluster::snapshot`: both sections in buffers of their own,
/// hashed a byte at a time, then copied behind a freshly built header.
fn three_buffer_snapshot<C: Walk>(cluster: &Cluster<C>) -> Vec<u8> {
    let mut a = WordAtATime(Vec::new());
    saved(section_a(&mut a, Place { held: cluster }));
    let mut b = WordAtATime(Vec::new());
    saved(section_b(&mut b, Place { held: cluster }));
    let (a, b) = (a.0, b.0);
    let mut bytes = WordAtATime(Vec::with_capacity(HEADER_LEN + a.len() + b.len()));
    bytes.put(&MAGIC.to_le_bytes());
    bytes.put(&SNAPSHOT_VERSION.to_le_bytes());
    let fields = [
        config_digest(&cluster.config),
        cluster.image.digest(),
        fnv_bytewise(FNV_OFFSET, &b),
        cluster.now,
        fnv_bytewise(FNV_OFFSET, &a),
        a.len() as u64,
    ];
    fields.iter().for_each(|f| bytes.put(&f.to_le_bytes()));
    bytes.0.extend_from_slice(&a);
    bytes.0.extend_from_slice(&b);
    bytes.0
}

/// The image, the digest in its header and the streamed digest all equal
/// the oracle's; the image validates and restores to itself.
fn assert_matches_the_oracle<C: Core + Walk>(cluster: &mut Cluster<C>, what: &str) {
    let oracle = three_buffer_snapshot(cluster);
    let snap = cluster.snapshot();
    assert!(snap.as_bytes() == oracle, "{what}: snapshot bytes moved");
    assert_eq!(
        cluster.state_digest(),
        fnv_bytewise(FNV_OFFSET, snap.section_b()),
        "{what}: streamed digest"
    );
    let reread = ClusterSnapshot::from_vec(oracle).expect("the oracle's image validates");
    cluster.restore(&reread).expect("restores");
    assert!(cluster.snapshot() == snap, "{what}: restore changed the state");
}

/// Every core stores its id over a slice of interleaved L1 and loads it
/// back: banks fill with nonzero words while requests are in flight.
fn store_load_program() -> mempool_riscv::Program {
    assemble(
        "csrr t0, mhartid
         li   t2, 0x10000
         slli t3, t0, 7
         add  t3, t3, t2
         li   t4, 32
         loop: sw t3, 0(t3)
         lw   t5, 0(t3)
         addi t3, t3, 4
         addi t4, t4, -1
         bnez t4, loop
         ecall",
    )
    .expect("assembles")
}

/// A store generator with a source queue: dense, changing L1 contents and
/// a per-core backlog without an ISS.
struct Stores {
    rng: StdRng,
    backlog: Vec<u32>,
    free_tags: u8,
}

impl Core for Stores {
    fn deliver(&mut self, response: DataResponse) {
        self.free_tags |= 1 << response.tag;
    }

    fn step(&mut self, _: &mut impl FnMut(u32) -> Fetch, ready: bool) -> Option<DataRequest> {
        self.backlog.push(self.rng.gen_range(0u32..1 << 14) * 4);
        if !ready || self.free_tags == 0 {
            return None;
        }
        let tag = self.free_tags.trailing_zeros() as u8;
        self.free_tags &= self.free_tags - 1;
        let addr = self.backlog.remove(0);
        let kind = DataRequestKind::Store { op: StoreOp::Sw, data: !addr };
        Some(DataRequest { tag, addr, kind })
    }

    fn done(&self) -> bool {
        false
    }
}

impl Walk for Stores {
    fn walk<Io: StateIo>(io: &mut Io, mut this: Place<'_, Io, Self>) -> Walked {
        let set = |rng: &mut StdRng, state| {
            *rng = StdRng::seed_from_u64(state);
            Ok(())
        };
        io.via(at!(this.rng), StdRng::state, set, u64::walk)?;
        io.walk(at!(this.backlog))?;
        io.walk(at!(this.free_tags))
    }
}

fn resilient(topology: Topology) -> ClusterConfig {
    let mut config = ClusterConfig::small(topology);
    config.resilience = ResilienceConfig { request_timeout: 256, ..ResilienceConfig::standard() };
    config
}

#[test]
fn snapshot_of_a_snitch_cluster_mid_run_is_the_three_buffer_image() {
    for topology in [Topology::Top1, Topology::TopH] {
        let mut cluster = Cluster::snitch(ClusterConfig::small(topology)).expect("valid");
        cluster.load_program(&store_load_program()).expect("decodes");
        assert_matches_the_oracle(&mut cluster, "snitch at reset");
        cluster.step_cycles(150);
        assert!(cluster.in_flight > 0 && !cluster.cores.iter().all(Core::done));
        assert_matches_the_oracle(&mut cluster, "snitch mid-run");
    }
}

#[test]
fn snapshot_of_a_faulted_traffic_cluster_is_the_three_buffer_image() {
    let mut cluster = Cluster::new(resilient(Topology::TopH), |loc| Stores {
        rng: StdRng::seed_from_u64(0x5eed ^ loc.core as u64),
        backlog: Vec::new(),
        free_tags: 0xff,
    })
    .expect("valid");
    let spec = "bank_fail=2,bank_stall=0.01,link_stall=0.01,link_drop=0.002,core_lockup=0.001";
    cluster.install_fault_plan(Some(FaultPlan::new(11, spec.parse().expect("valid spec"))));
    cluster.step_cycles(1_500);
    assert!(cluster.quarantined_banks() > 0 && cluster.stats().faults.request_retries > 0);
    assert!(!cluster.fault_log.is_empty() && cluster.cores[0].backlog.len() > 100);
    assert_matches_the_oracle(&mut cluster, "faulted traffic");
}

#[test]
fn snapshot_of_an_observed_and_profiled_session_is_the_three_buffer_image() {
    let mut session = SimSession::builder(ClusterConfig::small(Topology::TopH))
        .observability(ObsConfig { trace_sample_every: 4, trace_capacity: 512 })
        .profile(ProfileConfig { max_pcs: 64, power_window: 64 })
        .build_snitch()
        .expect("builds");
    session.load_program(&store_load_program()).expect("decodes");
    session.cluster_mut().step_cycles(200);
    let cluster = session.cluster_mut();
    let obs = cluster.obs.as_ref().expect("recorder attached");
    let profiler = cluster.profiler.as_ref().expect("profiler attached");
    assert!(!obs.spans.is_empty() && !profiler.windows.is_empty());
    assert_matches_the_oracle(cluster, "obs + profile");
}

/// Seeded buffers of each density the fast path tells apart.
fn buffers(len: usize) -> [Vec<u8>; 3] {
    let mut rng = StdRng::seed_from_u64(len as u64);
    let zero = vec![0; len];
    let mut byte = |odds| if rng.gen_range(0..odds) == 0 { rng.gen::<u32>() as u8 } else { 0 };
    let sparse = (0..len).map(|_| byte(9)).collect();
    let dense = (0..len).map(|_| byte(1)).collect();
    [zero, sparse, dense]
}

#[test]
fn zero_run_fnv_is_the_byte_loop_however_the_stream_is_split() {
    for len in 0..=67 {
        for bytes in buffers(len) {
            let expected = fnv_bytewise(FNV_OFFSET, &bytes);
            assert_eq!(fnv64(&bytes), expected, "{bytes:?} whole");
            for cut in 0..=len {
                let mut h = Fnv::new();
                h.put(&bytes[..cut]);
                h.put(&bytes[cut..]);
                assert_eq!(h.finish(), expected, "{bytes:?} cut at {cut}");
            }
        }
    }
}

#[test]
fn put_words_is_the_put_u32_loop_on_both_sinks() {
    let mut rng = StdRng::seed_from_u64(7);
    for len in [0, 1, 2, 3, 8, 255, 256] {
        for density in [0u32, 1, 8] {
            let words: Vec<u32> = (0..len)
                .map(|_| if rng.gen_range(0u32..8) < density { rng.gen() } else { 0 })
                .collect();
            // Neither sink starts empty: the run lands behind other fields.
            let (mut bulk, mut each) = (vec![0xab], WordAtATime(vec![0xab]));
            let (mut bulk_h, mut each_h) = (Fnv::new(), FNV_OFFSET);
            bulk.put_words(&words);
            bulk_h.put_words(&words);
            for &w in &words {
                each.put(&w.to_le_bytes());
                each_h = fnv_bytewise(each_h, &w.to_le_bytes());
            }
            assert_eq!(bulk, each.0, "{len} words, density {density}/8");
            assert_eq!(bulk_h.finish(), each_h, "{len} words, density {density}/8");

            let mut back = vec![u32::MAX; len];
            let mut r = ByteReader::new(&bulk[1..]);
            r.take_words(&mut back).expect("as many as were put");
            assert!(back == words && r.is_empty());
        }
    }
}

#[test]
fn take_words_reports_a_short_buffer_and_consumes_nothing() {
    let bytes = [1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0];
    let mut r = ByteReader::new(&bytes);
    assert_eq!(r.take_words(&mut [0; 3]), Err(SnapshotError::Truncated));
    assert_eq!(r.remaining(), bytes.len());
    let mut two = [0; 2];
    r.take_words(&mut two).expect("two whole words");
    assert_eq!((two, r.remaining()), ([1, 2], 3));
}

#[test]
fn from_vec_makes_the_checks_of_from_bytes_in_their_order() {
    let mut cluster = Cluster::snitch(ClusterConfig::small(Topology::Top1)).expect("valid");
    cluster.load_program(&store_load_program()).expect("decodes");
    cluster.step_cycles(50);
    let good = cluster.snapshot().as_bytes().to_vec();
    let with = |at: usize, patch: &[u8]| {
        let mut bytes = good.clone();
        bytes[at..at + patch.len()].copy_from_slice(patch);
        bytes
    };
    let cases = [
        (good[..HEADER_LEN - 1].to_vec(), SnapshotError::Truncated),
        // Garbage is rejected by its first four bytes, whatever follows.
        (with(0, &[0; 8]), SnapshotError::BadMagic),
        (with(4, &9u32.to_le_bytes()), SnapshotError::UnsupportedVersion(9)),
        // An input-section length past the end — or past `usize`.
        (with(48, &(good.len() as u64).to_le_bytes()), SnapshotError::Truncated),
        (with(48, &u64::MAX.to_le_bytes()), SnapshotError::Truncated),
        (with(HEADER_LEN, &[0xff]), SnapshotError::DigestMismatch),
        (with(good.len() - 1, &[0xff]), SnapshotError::DigestMismatch),
    ];
    for (bytes, error) in cases {
        assert_eq!(ClusterSnapshot::from_bytes(&bytes), Err(error));
        assert_eq!(ClusterSnapshot::from_vec(bytes), Err(error));
    }
    let snap = ClusterSnapshot::from_vec(good.clone()).expect("validates");
    assert!(snap == ClusterSnapshot::from_bytes(&good).expect("validates"));
    assert!(snap.as_bytes() == good);
}

/// A save walk that also notes where each count lands, and what it counts:
/// a fixed-shape count's name, or a sequence's element type.
struct Marking {
    bytes: Vec<u8>,
    counts: Vec<(usize, String)>,
}

impl StateIo for Marking {
    type Ref<'a, T: ?Sized + 'a> = &'a T;

    fn try_at<'a, T: ?Sized, U: ?Sized>(
        x: &'a mut &T,
        get: impl FnOnce(&T) -> Option<&U>,
        _: impl FnOnce(&mut T) -> Option<&mut U>,
    ) -> Option<&'a U> {
        get(x)
    }

    fn view<'a, T: ?Sized>(x: &'a &T) -> &'a T {
        x
    }

    fn loading<'a, T: ?Sized>(_: &'a mut &T) -> Option<&'a mut T> {
        None
    }

    fn local<T: ?Sized>(v: &mut T) -> &T {
        v
    }

    fn bytes<const N: usize>(&mut self, x: Place<'_, Self, [u8; N]>) -> Walked {
        self.bytes.walk(Place { held: x.held })
    }

    fn words(&mut self, x: Place<'_, Self, [u32]>) -> Walked {
        self.bytes.words(Place { held: x.held })
    }

    fn remaining(&self) -> usize {
        usize::MAX
    }

    fn count(&mut self, mut len: usize, what: &'static str) -> Walked {
        self.counts.push((self.bytes.len(), what.to_owned()));
        self.walk(Place::local(&mut len))
    }

    fn seq<T>(
        &mut self,
        xs: Place<'_, Self, Vec<T>>,
        _: impl FnMut() -> T,
        mut walk: impl FnMut(&mut Self, Place<'_, Self, T>) -> Walked,
    ) -> Walked {
        self.counts.push((self.bytes.len(), std::any::type_name::<T>().to_owned()));
        self.walk(Place::local(&mut xs.len()))?;
        xs.held.iter().try_for_each(|x| walk(self, Place { held: x }))
    }
}

/// Every count of `cluster`'s image as `(absolute offset, what)`, the
/// first of each kind: what it counts, behind what the count before it
/// counts (so that two runs of `u32`s in a tile are two kinds).
fn counts_of<C: Walk>(cluster: &Cluster<C>, image: &[u8]) -> Vec<(usize, String)> {
    let mut a = Marking { bytes: Vec::new(), counts: Vec::new() };
    saved(section_a(&mut a, Place { held: cluster }));
    let mut b = Marking { bytes: Vec::new(), counts: Vec::new() };
    saved(section_b(&mut b, Place { held: cluster }));
    let marked = [&image[..HEADER_LEN], &a.bytes, &b.bytes].concat();
    assert!(marked == image, "marking moved the bytes");
    let a_counts = a.counts.into_iter().map(|(at, what)| (HEADER_LEN + at, what));
    let b_counts = b.counts.into_iter().map(|(at, what)| (HEADER_LEN + a.bytes.len() + at, what));
    let mut behind = String::new();
    let mut seen = std::collections::HashSet::new();
    let kinds = a_counts.chain(b_counts).map(|(at, what)| {
        let kind = format!("{what} behind {behind}");
        behind = what;
        (at, kind)
    });
    kinds.filter(|(_, kind)| seen.insert(kind.clone())).collect()
}

/// `image` with the `u64`s at `at` overwritten and both section digests
/// recomputed, as anyone can.
fn forged(image: &[u8], patches: &[(usize, u64)]) -> ClusterSnapshot {
    let mut bytes = image.to_vec();
    for &(at, value) in patches {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }
    let len_a = u64::from_le_bytes(bytes[48..56].try_into().expect("8 bytes")) as usize;
    let digest_a = fnv64(&bytes[HEADER_LEN..HEADER_LEN + len_a]);
    let digest_b = fnv64(&bytes[HEADER_LEN + len_a..]);
    bytes[24..32].copy_from_slice(&digest_b.to_le_bytes());
    bytes[40..48].copy_from_slice(&digest_a.to_le_bytes());
    ClusterSnapshot::from_vec(bytes).expect("a re-hashed image validates")
}

/// Every kind of count in `cluster`'s image, forged small, huge and to
/// `u64::MAX` (with the bound it is held to, where the image carries one),
/// fails the restore with a typed error: no panic, and no reservation the
/// image could not fill.
fn assert_forged_counts_are_refused<C: Walk>(cluster: &mut Cluster<C>, what: &str) -> String {
    let image = cluster.snapshot().as_bytes().to_vec();
    let counts = counts_of(cluster, &image);
    let bound_of = |kind: &str| match kind {
        // The fault log's capacity, ahead of its dropped count.
        k if k.starts_with("mempool::faults::FaultEvent ") => Some(16),
        // The PC bound of a core's profile.
        k if k.contains("PcCounters) ") => Some(8),
        _ => None,
    };
    for (at, kind) in &counts {
        let n = u64::from_le_bytes(image[*at..*at + 8].try_into().expect("8 bytes"));
        let mut cases = vec![vec![(*at, n + 1)], vec![(*at, 1 << 60)], vec![(*at, u64::MAX)]];
        if let Some(back) = bound_of(kind) {
            cases.push(vec![(*at - back, u64::MAX), (*at, 1 << 60)]);
        }
        for patches in cases {
            let result = cluster.restore(&forged(&image, &patches));
            assert!(result.is_err(), "{what}: {kind} forged as {patches:?} restored");
        }
    }
    let kinds: Vec<&str> = counts.iter().map(|(_, kind)| kind.as_str()).collect();
    assert!(kinds.len() >= 20, "{what}: only {kinds:?}");
    cluster.restore(&ClusterSnapshot::from_vec(image.clone()).expect("valid")).expect("restores");
    assert!(cluster.snapshot().as_bytes() == image, "{what}: a refused image left its mark");
    kinds.join("\n")
}

#[test]
fn forged_counts_are_refused_without_a_panic() {
    let mut config = ClusterConfig::small(Topology::Top1);
    config.icache.refill_network = crate::RefillNetwork::Ring { l2_latency: 10 };
    let mut session = SimSession::builder(config)
        .observability(ObsConfig { trace_sample_every: 4, trace_capacity: 512 })
        .profile(ProfileConfig { max_pcs: 64, power_window: 64 })
        .build_snitch()
        .expect("builds");
    session.load_program(&store_load_program()).expect("decodes");
    session.cluster_mut().step_cycles(150);
    let kinds = assert_forged_counts_are_refused(session.cluster_mut(), "snitch");
    for part in ["RefillPacket", "(u64, usize, u32)", "PcCounters", "TraceSpan", "PowerWindow"] {
        assert!(kinds.contains(part), "no {part} count among {kinds}");
    }

    let mut traffic = Cluster::new(resilient(Topology::TopH), |loc| Stores {
        rng: StdRng::seed_from_u64(0x5eed ^ loc.core as u64),
        backlog: Vec::new(),
        free_tags: 0xff,
    })
    .expect("valid");
    let spec = "bank_fail=2,bank_stall=0.01,link_stall=0.01,link_drop=0.002,core_lockup=0.001";
    traffic.install_fault_plan(Some(FaultPlan::new(11, spec.parse().expect("valid spec"))));
    traffic.step_cycles(1_500);
    assert!(!traffic.fault_log.is_empty() && !traffic.pending.is_empty());
    assert_forged_counts_are_refused(&mut traffic, "faulted traffic");
}
