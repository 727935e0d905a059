//! Output checks and failure accounting, and the debug-settings guard.

use perfbench::check::{mismatches, reference_run, tolerance, Tally};
use perfbench::rooms::room_input;
use perfbench::Workload;
use room_acoustics::{Precision, SimSetup};

#[test]
fn perturbed_impulse_response_raises_error_rate() {
    let input = room_input(Workload::LiftDomeFdmm, 3, 12);
    let setup = SimSetup::new(&input.config);
    let (ir, _, _) =
        reference_run(&setup, Precision::Single, input.source, input.mic, input.amp, 24);
    let tol = tolerance(Precision::Single);

    let mut clean = Tally::default();
    clean.attempt(ir.len() as u64);
    let bad = mismatches(&ir, &ir, tol);
    clean.fail(bad.len() as u64, "unexpected");
    assert_eq!(clean.error_rate(), 0.0);

    let mut perturbed = ir.clone();
    perturbed[5] += 1e-3;
    let mut t = Tally::default();
    t.attempt(ir.len() as u64);
    let bad = mismatches(&perturbed, &ir, tol);
    assert_eq!(bad, vec![5]);
    t.fail(bad.len() as u64, "impulse response leaves tolerance");
    assert!(t.error_rate() > 0.0);
    assert_eq!(t.failed, 1);
}

#[test]
fn tolerance_is_relative_and_catches_nan_and_length() {
    assert!(mismatches(&[1.0 + 1e-6], &[1.0], 1e-5).is_empty());
    assert_eq!(mismatches(&[1.0 + 1e-4], &[1.0], 1e-5), vec![0]);
    assert_eq!(mismatches(&[f64::NAN], &[0.0], 1e-5), vec![0]);
    assert_eq!(mismatches(&[0.0, 0.0, 0.0], &[0.0], 1e-5), vec![1, 2]);
}

#[test]
fn tally_never_fails_more_than_it_attempted() {
    let mut t = Tally::default();
    t.attempt(3);
    t.fail(10, "everything");
    assert_eq!(t.failed, 3);
    assert_eq!(t.error_rate(), 1.0);
    assert_eq!(Tally::default().error_rate(), 1.0);
}

#[test]
fn debug_settings_are_refused() {
    let env = |pairs: &'static [(&'static str, &'static str)]| {
        move |k: &str| pairs.iter().find(|(n, _)| *n == k).map(|(_, v)| v.to_string())
    };
    assert!(perfbench::sys::debug_settings(env(&[])).is_empty());
    assert!(perfbench::sys::debug_settings(env(&[
        ("VGPU_TRACE", "off"),
        ("VGPU_PROFILE", "off"),
        ("VGPU_SANITIZE", "off"),
        ("VGPU_ENGINE", "compiled"),
        ("VGPU_THREADS", "1"),
    ]))
    .is_empty());
    let found = perfbench::sys::debug_settings(env(&[
        ("VGPU_TRACE", "json"),
        ("VGPU_PROFILE", "op"),
        ("VGPU_SANITIZE", "shadow"),
        ("VGPU_ENGINE", "diff"),
    ]));
    assert_eq!(found.len(), 4, "{found:?}");
}

#[test]
fn seeds_give_reproducible_inputs() {
    let a = room_input(Workload::Shard2BoxFimm, 9, 48);
    assert_eq!(a, room_input(Workload::Shard2BoxFimm, 9, 48));
    assert_ne!(a, room_input(Workload::Shard2BoxFimm, 10, 48));
    let mut g1 = batch::ScenarioGen::new(4);
    let mut g2 = batch::ScenarioGen::new(4);
    let c1 = perfbench::batchload::first_of_each_class(&mut g1);
    let c2 = perfbench::batchload::first_of_each_class(&mut g2);
    assert_eq!(
        c1.iter().map(|s| s.label()).collect::<Vec<_>>(),
        c2.iter().map(|s| s.label()).collect::<Vec<_>>()
    );
    let mut classes: Vec<usize> = c1.iter().map(perfbench::batchload::class).collect();
    classes.sort();
    assert_eq!(classes, (0..perfbench::batchload::CLASSES).collect::<Vec<_>>());
}
