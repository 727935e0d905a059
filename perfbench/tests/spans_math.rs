//! Span self-time arithmetic and the layer table.

use perfbench::spans::{layer_table, self_times, Span, Tracer};

fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
    Span { name, start_us, end_us, parent, group: 0 }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span("root", 0.0, 100.0, None),
        span("a", 10.0, 40.0, Some(0)),
        span("b", 30.0, 60.0, Some(0)), // overlaps a: 10..60 covered once
        span("c", 90.0, 120.0, Some(0)), // sticks out of root: only 90..100 counts
        span("a.inner", 15.0, 20.0, Some(1)),
    ];
    let st = self_times(&spans);
    assert_eq!(st, vec![100.0 - 50.0 - 10.0, 25.0, 30.0, 30.0, 5.0]);
}

#[test]
fn table_rows_sum_to_wall_and_match_self_times_on_one_thread() {
    let spans = vec![
        span("root", 0.0, 100.0, None),
        span("step", 0.0, 60.0, Some(0)),
        span("kernel", 0.0, 50.0, Some(1)),
        span("sample", 60.0, 95.0, Some(0)),
    ];
    let t = layer_table(&spans);
    assert_eq!(t.wall_us, 100.0);
    assert_eq!(t.rows["step"], 10.0);
    assert_eq!(t.rows["kernel"], 50.0);
    assert_eq!(t.rows["sample"], 35.0);
    assert_eq!(t.remainder_us, 5.0);
    assert_eq!(t.total_us(), t.wall_us);
    let st = self_times(&spans);
    assert_eq!(st[0], t.remainder_us);
    assert_eq!(st[1], t.rows["step"]);
}

#[test]
fn overlapping_jobs_share_time_and_still_sum_to_wall() {
    // Two jobs in flight: each instant is split among the innermost spans
    // open at it, so the rows sum to wall time, not to twice it.
    let spans = vec![
        span("loop", 0.0, 100.0, None),
        span("job", 0.0, 80.0, Some(0)),
        span("job", 20.0, 100.0, Some(0)),
        span("steps", 40.0, 80.0, Some(1)),
    ];
    let t = layer_table(&spans);
    assert_eq!(t.remainder_us, 0.0);
    assert!((t.total_us() - 100.0).abs() < 1e-9);
    // 0..20 job, 20..40 job+job, 40..80 steps+job, 80..100 job.
    assert!((t.rows["job"] - (20.0 + 20.0 + 20.0 + 20.0)).abs() < 1e-9);
    assert!((t.rows["steps"] - 20.0).abs() < 1e-9);
}

#[test]
fn separate_roots_and_gaps() {
    // Time between roots is not wall time of the traced region.
    let spans = vec![
        span("setup", 0.0, 10.0, None),
        span("a", 2.0, 8.0, Some(0)),
        span("loop", 50.0, 70.0, None),
        span("b", 50.0, 70.0, Some(2)),
    ];
    let t = layer_table(&spans);
    assert_eq!(t.wall_us, 30.0);
    assert_eq!(t.remainder_us, 4.0);
    assert_eq!(t.total_us(), 30.0);
}

#[test]
fn tracer_clips_inner_spans_into_their_parent() {
    let mut tr = Tracer::new(true);
    let root = tr.open("root", None, 7);
    let step = tr.open("step", root, 7);
    std::thread::sleep(std::time::Duration::from_millis(2));
    tr.close(step);
    // A measured duration longer than the span it was measured in.
    tr.record_inner(step, 7, &[("kernel", 1e9)]);
    tr.close(root);
    let s = tr.spans();
    assert_eq!(s.len(), 3);
    assert_eq!(s[2].end_us, s[1].end_us);
    assert!(s.iter().all(|x| x.group == 7));
    let t = layer_table(s);
    assert!((t.total_us() - t.wall_us).abs() < 1e-6);
    assert_eq!(Tracer::new(false).open("x", None, 0), None);
}
