//! # mempool-noc
//!
//! Cycle-accurate building blocks for the MemPool processor-to-L1-memory
//! interconnect (DATE 2021): elastic (skid) buffers, round-robin arbiters,
//! and combinational switching fabrics — fully-connected crossbars and
//! radix-r butterfly networks with configurable pipeline-register placement.
//!
//! The model follows the paper's §III-A: single-stage m×n crossbar switches
//! with round-robin arbitration per output, optional elastic buffers to
//! break combinational paths, oblivious routing (a single path per
//! master/slave pair), no transaction ordering, no virtual channels.
//!
//! # Cycle discipline
//!
//! Packets rest in [`ElasticBuffer`] register stages. Each cycle, the owner
//! of a network presents the buffer heads (plus any freshly generated
//! packets) to a [`Fabric`]; [`Fabric::route`] applies round-robin
//! arbitration at every switch output and terminal readiness, and hands
//! the caller each packet that moves this cycle ([`Fabric::resolve`] is
//! the same arbitration over a list of [`Offer`]s, answering with one
//! flag per offer). Buffers make staged
//! arrivals visible only at the end-of-cycle [`ElasticBuffer::commit`], so a
//! packet crosses exactly one register boundary per cycle — which is what
//! makes the zero-load latencies of the paper (1/3/5 cycles) drop out of the
//! structure instead of being hard-coded.
//!
//! # Examples
//!
//! Two stages of a pipelined 64×64 radix-4 butterfly (the paper's Top1
//! global interconnect):
//!
//! ```
//! use mempool_noc::{ElasticBuffer, Fabric, Offer};
//!
//! let mut stage_a = Fabric::butterfly_segment(64, 4, 0, 2)?;
//! let stage_b = Fabric::butterfly_segment(64, 4, 2, 3)?;
//! let mut mid: Vec<ElasticBuffer<u32>> = (0..64).map(|_| ElasticBuffer::new(2)).collect();
//!
//! // Cycle t: a packet at input 5 destined for output 42 wins stage A and
//! // lands in the mid-stage register row.
//! let offers = [Offer { input: 5, dest: 42 }];
//! let granted = stage_a.resolve(&offers, &mut |port| mid[port].can_push());
//! assert!(granted[0]);
//! let landing = stage_a.output_port(5, 42);
//! mid[landing].push(42);
//! mid.iter_mut().for_each(ElasticBuffer::commit);
//!
//! // Cycle t+1: the register head continues through stage B to output 42.
//! assert_eq!(stage_b.output_port(landing, 42), 42);
//! # Ok::<(), mempool_noc::BuildFabricError>(())
//! ```

#![warn(missing_docs)]

mod arbiter;
mod elastic;
mod fabric;
#[cfg(test)]
mod oracle;
mod ring;

pub use arbiter::RoundRobin;
pub use elastic::ElasticBuffer;
pub use fabric::{BuildFabricError, Fabric, Hop, Offer, Requests};
pub use ring::Ring;
