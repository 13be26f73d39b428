//! The benchmark's own self-tests: every workload passes its output
//! checks at a tiny size, and the checks catch a corrupted answer, a
//! dropped acknowledged write and an epoch that goes backward.

use std::path::PathBuf;
use std::sync::Arc;

use plus_store::{AccountService, NodeKind, Store};
use servebench::inputs::{hot_stream, Rng, Shape};
use servebench::workloads::{
    check_epochs, check_frames, check_recovery, node_count, run, RunConfig, Size, Workload,
};
use servebench::{END_TO_END, GATED, PER_LAYER};
use surrogate_core::credential::Consumer;
use surrogate_core::feature::Features;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_run(workload: Workload, trace: bool) {
    let config = RunConfig {
        workload,
        seed: 5,
        seconds: 1.0,
        trace,
        size: Size::tiny(),
        work_dir: scratch(&format!("run-{}-{trace}", workload.name())).join("work"),
    };
    let outcome = run(&config);
    assert!(
        outcome.correct(),
        "{} (trace {trace}) failed its checks:\n{}",
        workload.name(),
        outcome.table()
    );
    assert_eq!(outcome.value("error_frac"), Some(0.0));
    for name in END_TO_END {
        let value = outcome.value(name).unwrap_or(f64::NAN);
        assert!(value > 0.0, "{name} = {value} on {}", workload.name());
    }
    let per_layer: &[&str] = if !trace {
        &[]
    } else if GATED.contains(&workload) {
        &PER_LAYER
    } else {
        &[
            "server.write_service_p50_us",
            "wal.append_us",
            "replica.apply_per_s",
        ]
    };
    let replicated: &[&str] = match (workload, trace) {
        (Workload::Churn, false) => &["fresh_p50_us"],
        (Workload::Churn, true) => &["fresh_p50_us", "replica.apply_per_s"],
        _ => &[],
    };
    for name in per_layer.iter().chain(replicated) {
        let value = outcome.value(name).unwrap_or(f64::NAN);
        assert!(value.is_finite(), "{name} missing on {}", workload.name());
    }
}

#[test]
fn every_workload_passes_its_checks_at_tiny_size() {
    for workload in Workload::ALL {
        tiny_run(workload, false);
        tiny_run(workload, true);
    }
}

#[test]
fn a_corrupted_answer_fails_the_frame_check() {
    let shape = Shape {
        stages: 3,
        width: 3,
    };
    let store = Arc::new(servebench::inputs::base_store(shape, 9));
    let service = AccountService::new(store.clone());
    let reference = AccountService::new(Arc::new(servebench::inputs::base_store(shape, 9)));
    let consumer = Consumer::public(&service.snapshot().lattice);
    let stream = hot_stream(&mut Rng::new(9, 0), node_count(shape), 16, 64);
    let served: Vec<(u32, Vec<u8>)> = (0..16u32)
        .map(|i| {
            let frame = service
                .query_sealed(&consumer, &stream.requests[i as usize])
                .expect("answers");
            (i, frame[8..].to_vec())
        })
        .collect();
    let (checked, errors) = check_frames(&reference, &consumer, &stream, &served);
    assert_eq!(checked, 16);
    assert!(errors.is_empty(), "{errors:?}");

    let mut corrupted = served.clone();
    let last = corrupted[3].1.len() - 1;
    corrupted[3].1[last] ^= 0x40;
    let (_, errors) = check_frames(&reference, &consumer, &stream, &corrupted);
    assert_eq!(errors.len(), 1, "{errors:?}");
}

#[test]
fn a_dropped_acknowledged_write_fails_the_recovery_check() {
    let dir = scratch("dropped-write");
    let store = Store::create_durable(&dir, &["Public"], &[]).expect("creates");
    let public = store.predicate("Public").expect("declared");
    for i in 0..5 {
        store.append_node(format!("n{i}"), NodeKind::Data, Features::new(), public);
    }
    let acked = store.clock();
    let state = store.to_bytes();
    drop(store);
    check_recovery(&dir, acked, &state).expect("an intact log recovers every acknowledged write");

    // Tear the last frame off the newest segment: the write it held was
    // acknowledged but is no longer on disk.
    let segment = std::fs::read_dir(&dir)
        .expect("lists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "wal"))
        .max()
        .expect("a segment");
    let len = std::fs::metadata(&segment).expect("stat").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .expect("opens");
    file.set_len(len - 3).expect("truncates");
    drop(file);
    let error = check_recovery(&dir, acked, &state).expect_err("the dropped write is noticed");
    assert!(error.contains("acknowledged"), "{error}");
}

#[test]
fn epochs_must_not_go_backward_or_miss_an_acknowledged_write() {
    assert!(check_epochs(&[(1, 0), (2, 2), (2, 2), (5, 3)]).is_empty());
    assert_eq!(check_epochs(&[(3, 0), (2, 0)]).len(), 1);
    assert_eq!(check_epochs(&[(3, 4)]).len(), 1);
}

#[test]
fn benchmark_json_names_what_the_command_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let named = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    for workload in GATED {
        assert!(
            named(workload.name()),
            "{} not in BENCHMARK.json",
            workload.name()
        );
    }
    for name in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(named(name), "{name} not in BENCHMARK.json");
    }
    let entries = json.matches("\"name\":").count();
    assert_eq!(entries, GATED.len() + END_TO_END.len() + PER_LAYER.len());
}
