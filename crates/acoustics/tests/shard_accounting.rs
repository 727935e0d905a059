//! Exactly-once transfer accounting for sharded construction (ISSUE 8 S3).
//!
//! The process-wide artifact cache hands every device the *same*
//! `Arc<Prepared>`, and each device re-uploads the replicated coefficient
//! tables. The accounting invariant under audit: per-device
//! `vgpu.xfer.to_gpu.*` totals must neither double-count those replicated
//! uploads nor drop bytes — replicas land under `vgpu.halo.replicate.*`
//! and the `vgpu.xfer.*` totals stay identical to the single-device run.
//!
//! Own test binary: the telemetry counters are process-global, so these
//! deltas must not race with unrelated transfers (tests here serialise on
//! a local mutex and nothing else in this binary moves bytes).

use room_acoustics::{
    BoundaryKernel, GridDims, HandwrittenSim, Precision, RoomShape, ShardedSim, SimConfig, SimSetup,
};
use std::sync::Mutex;
use vgpu::telemetry;
use vgpu::{Device, HaloTotals};

static COUNTERS: Mutex<()> = Mutex::new(());

fn to_gpu() -> (u64, u64) {
    let reg = telemetry::registry();
    (reg.counter("vgpu.xfer.to_gpu.bytes").get(), reg.counter("vgpu.xfer.to_gpu.transfers").get())
}

fn devices(n: usize) -> Vec<Device> {
    (0..n).map(|_| Device::gtx780()).collect()
}

/// Build-time upload accounting, FI-MM: 3 devices vs 1. Grid slabs move
/// through accounted region writes that sum to the whole-grid upload;
/// boundary lists are disjoint slices; β is replicated.
#[test]
fn fimm_replicated_uploads_account_exactly_once() {
    let _g = COUNTERS.lock().unwrap();
    let s = SimSetup::new(&SimConfig::fimm(GridDims::cube(12), RoomShape::Box));
    let kind = BoundaryKernel::FiMm { beta_constant: false };

    let (b0, t0) = to_gpu();
    let h0 = HaloTotals::snapshot();
    let _one = ShardedSim::new(s.clone(), Precision::Double, kind, devices(1));
    let (b1, t1) = to_gpu();
    let h1 = HaloTotals::snapshot();
    let single_bytes = b1 - b0;
    // A single-device build replicates nothing and exchanges nothing.
    assert_eq!(h1.delta_since(&h0).replicate_bytes, 0);
    assert_eq!(h1.delta_since(&h0).bytes, 0);

    let _three = ShardedSim::new(s.clone(), Precision::Double, kind, devices(3));
    let (b2, t2) = to_gpu();
    let h2 = HaloTotals::snapshot();
    // Exactly-once: the sharded build's accounted host→device bytes equal
    // the single-device build's, even though the same Arc'd artifacts and
    // tables serve three devices...
    assert_eq!(b2 - b1, single_bytes, "sharded to_gpu bytes must match single-device");
    // ...with more (smaller) transfers, never fewer.
    assert!(t2 - t1 > t1 - t0, "per-slab region writes split transfers");
    // The β table re-uploads land under vgpu.halo.replicate.*: one per
    // extra device, byte-exact.
    let rep = h2.delta_since(&h1);
    let beta_bytes = (s.betas.len() * 8) as u64;
    assert_eq!(rep.replicate_transfers, 2, "one replica per extra device");
    assert_eq!(rep.replicate_bytes, 2 * beta_bytes);
    assert_eq!(rep.bytes, 0, "construction does no halo exchange");
}

/// Same audit for FD-MM, which replicates four coefficient tables plus β,
/// and a steady-state step check: stepping moves *only* halo bytes — no
/// host transfers, no replicas.
#[test]
fn fdmm_replication_and_steps_keep_xfer_totals_clean() {
    let _g = COUNTERS.lock().unwrap();
    let s = SimSetup::new(&SimConfig::fdmm(GridDims::cube(12), RoomShape::Dome));

    let (b0, _) = to_gpu();
    let h0 = HaloTotals::snapshot();
    let _one = ShardedSim::new(s.clone(), Precision::Single, BoundaryKernel::FdMm, devices(1));
    let (b1, _) = to_gpu();
    let single_bytes = b1 - b0;

    let mut two = ShardedSim::new(s.clone(), Precision::Single, BoundaryKernel::FdMm, devices(2));
    let (b2, _) = to_gpu();
    let h2 = HaloTotals::snapshot();
    assert_eq!(b2 - b1, single_bytes, "sharded to_gpu bytes must match single-device");
    let rep = h2.delta_since(&h0);
    let fa = s.fd.as_ref().expect("FD coefficients");
    let table_elems = {
        let fd = room_acoustics::reference::FdArrays::<f64>::from_coeffs(fa);
        fd.bi.len() + fd.d.len() + fd.di.len() + fd.f.len()
    };
    let expect = (table_elems * 4 + s.betas.len() * 4) as u64; // f32 tables
    assert_eq!(rep.replicate_bytes, expect, "β + 4 FD tables replicated once");
    assert_eq!(rep.replicate_transfers, 5);

    // Steps are device-resident: only the seam planes move, all of it
    // accounted under vgpu.halo.*.
    two.impulse(6, 6, 6, 1.0);
    let (b3, t3) = to_gpu();
    let h3 = HaloTotals::snapshot();
    two.run(4);
    let (b4, t4) = to_gpu();
    let halo = HaloTotals::snapshot().delta_since(&h3);
    assert_eq!((b4, t4), (b3, t3), "steps must not touch vgpu.xfer.*");
    assert_eq!(halo.bytes, 4 * two.halo_bytes_per_step());
    assert_eq!(halo.copies, 4 * 2, "two plane copies per seam per step");
    assert_eq!(halo.replicate_bytes, 0);
}

/// `sample` reads back one element, not the whole field: each call adds
/// exactly one element's bytes to `vgpu.xfer.to_host.bytes`, on one device
/// and sharded (points owned by the first, a middle and the last slab),
/// and returns the same value as a full readback.
#[test]
fn sample_reads_back_exactly_one_element() {
    let _g = COUNTERS.lock().unwrap();
    let s = SimSetup::new(&SimConfig::fimm(GridDims::cube(12), RoomShape::Box));
    let kind = BoundaryKernel::FiMm { beta_constant: false };
    let to_host = || telemetry::registry().counter("vgpu.xfer.to_host.bytes").get();
    for (precision, elem_bytes) in [(Precision::Single, 4), (Precision::Double, 8)] {
        let mut one = HandwrittenSim::new(s.clone(), precision, kind, Device::gtx780());
        let mut three = ShardedSim::new(s.clone(), precision, kind, devices(3));
        one.impulse(6, 6, 6, 1.0);
        three.impulse(6, 6, 6, 1.0);
        one.run(3);
        three.run(3);
        let field = one.read_curr();
        for (x, y, z) in [(5, 6, 1), (6, 6, 6), (6, 5, 10)] {
            let b0 = to_host();
            let a = one.sample(x, y, z);
            let b1 = to_host();
            let b = three.sample(x, y, z);
            let b2 = to_host();
            assert_eq!(b1 - b0, elem_bytes, "HandwrittenSim::sample({x},{y},{z})");
            assert_eq!(b2 - b1, elem_bytes, "ShardedSim::sample({x},{y},{z})");
            let want = field[s.dims().idx(x, y, z)];
            assert_eq!(a.to_bits(), want.to_bits(), "single-device sample value");
            assert_eq!(b.to_bits(), want.to_bits(), "sharded sample value");
        }
    }
}
