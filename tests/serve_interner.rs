//! The interner leak check for the serve engine, in a test binary of its
//! own: it compares the process-global interner's size before and after
//! repeated deltas, so no other test may intern strings concurrently.

#[path = "support/serve.rs"]
mod support;

use seldon_serve::Delta;
use seldon_telemetry::{MetricValue, MetricsRegistry};
use support::{engine_with, fixture, temp_dir, STRUCTURAL_EDIT};

#[test]
fn repeated_identical_deltas_do_not_grow_the_interner() {
    let dir = temp_dir("intern");
    let (mut files, seed) = fixture(4, 31);
    let mut engine = engine_with(&files, &seed, 1, Some(&dir));

    // One full edit cycle interns whatever the edited content mentions…
    let original = files[1].1.clone();
    files[1].1.push_str(STRUCTURAL_EDIT);
    let edited = files[1].1.clone();
    for content in [&edited, &original, &edited] {
        let delta = Delta {
            change: vec![(files[1].0.clone(), content.clone())],
            ..Default::default()
        };
        engine.apply_delta(&delta).expect("edit cycle");
    }
    let symbols_after_cycle = seldon_intern::len();

    // …after which repeating the identical cycle must not intern anything.
    for _ in 0..3 {
        for content in [&original, &edited] {
            let delta = Delta {
                change: vec![(files[1].0.clone(), content.clone())],
                ..Default::default()
            };
            engine.apply_delta(&delta).expect("repeat cycle");
        }
    }
    assert_eq!(
        seldon_intern::len(),
        symbols_after_cycle,
        "repeated identical deltas grew the interner"
    );

    // The non-volatile gauge reports the same figure.
    let mut reg = MetricsRegistry::default();
    engine.fill_metrics(&mut reg);
    let gauge = reg.get("intern_symbols").expect("gauge present");
    assert!(!gauge.volatile(), "intern_symbols must be non-volatile");
    match gauge.value {
        MetricValue::Gauge(v) => assert_eq!(v as usize, seldon_intern::len()),
        ref other => panic!("intern_symbols is {other:?}, not a gauge"),
    }
}
