//! Pinned bytes of a saturated cluster's checkpoint.
//!
//! The 64-core TopH cluster at load 0.9, stepped 5 000 cycles, holds
//! ≈ 122 000 waiting requests: four fifths of its 1.8 MB checkpoint are
//! source-queue entries. The constants were recorded on the commit before
//! the queue packed an entry into 8 bytes (206a9f1), when it still held the
//! `(u64, u32)` pairs the checkpoint stores, and must never move under a
//! host-side change of representation.

use mempool::snapshot::fnv64;
use mempool::{ClusterConfig, ClusterSnapshot, Topology};
use mempool_traffic::{traffic_cluster, Pattern, TrafficGen};

const STATE_DIGEST: u64 = 0xcadd890ac98a762d;
const SNAPSHOT_FNV: u64 = 0x083c66f8a32c5701;
const SNAPSHOT_LEN: usize = 1_822_169;
const WAITING: usize = 121_948;

fn saturated_cluster() -> mempool::Cluster<TrafficGen> {
    let config = ClusterConfig::small(Topology::TopH);
    traffic_cluster(config, Pattern::Uniform, 0.9, 24).expect("valid config")
}

#[test]
fn saturated_checkpoint_is_the_one_recorded_before_the_queue_was_packed() {
    let mut cluster = saturated_cluster();
    cluster.step_cycles(5_000);
    let waiting: usize = cluster.cores().iter().map(TrafficGen::queue_len).sum();
    let snap = cluster.snapshot();
    let read = (waiting, snap.as_bytes().len(), cluster.state_digest(), fnv64(snap.as_bytes()));
    assert!(
        read == (WAITING, SNAPSHOT_LEN, STATE_DIGEST, SNAPSHOT_FNV),
        "the saturated checkpoint moved; the run produced {read:#x?}"
    );

    // A resumed run rebuilds every packed entry from the checkpoint's bytes
    // and goes on as the uninterrupted one does.
    let mut resumed = saturated_cluster();
    let snap = ClusterSnapshot::from_vec(snap.as_bytes().to_vec()).expect("validates");
    resumed.restore(&snap).expect("restores");
    assert!(resumed.snapshot() == snap, "restore then snapshot changed the bytes");
    cluster.step_cycles(500);
    resumed.step_cycles(500);
    assert_eq!(resumed.state_digest(), cluster.state_digest());
}
