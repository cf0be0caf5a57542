//! Concurrency determinism battery: N clients racing the same request
//! set through the socket, in seeded-random interleavings, must each
//! receive responses **byte-identical** to the serial dispatch path —
//! for every registry scheme, with and without the second register file.
//!
//! This is the socket-layer extension of the `jobs_determinism` pattern
//! in `rtdc-cli`: parallelism may reorder *work* (which request builds,
//! which hits the cache, which worker simulates) but never *bytes*.
//! The protocol guarantees responses are pure functions of the request
//! (no wall-clock, no hit/miss flags), so equality is exact, not fuzzy.

use std::collections::BTreeMap;
use std::path::PathBuf;

use rtdc::prelude::Scheme;
use rtdc_rng::Rng64;
use rtdc_serve::client::{request_line, Client};
use rtdc_serve::server::{handle_line, ServeConfig, ServeState, Server};

/// Every image family: native plus each registry scheme x {plain, +rf}.
/// Derived from the registry so a newly added codec is covered without
/// editing this test.
fn all_labels() -> Vec<String> {
    let mut labels = vec!["native".to_string()];
    for s in Scheme::all() {
        labels.push(s.name().to_string());
        labels.push(format!("{}+rf", s.name()));
    }
    labels
}

/// The shared request set: run + trace requests over the two fastest
/// known-answer programs, across every label.
fn request_set() -> Vec<String> {
    let mut reqs = Vec::new();
    for bench in ["sort", "crc32"] {
        for label in all_labels() {
            reqs.push(request_line("run", bench, &label, None));
        }
    }
    // A few trace requests ride along: counting sinks must be just as
    // deterministic as plain stats.
    for label in ["native", "d", "cp+rf"] {
        reqs.push(request_line("trace", "sort", label, None));
    }
    reqs
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rtdc-serve-det-{tag}-{}.sock", std::process::id()))
}

#[test]
fn racing_clients_get_bytes_identical_to_serial() {
    let requests = request_set();

    // Serial reference: a fresh state, each request dispatched once, in
    // order, single-threaded. This is exactly what the batch CLI does.
    let serial_state = ServeState::new(&ServeConfig {
        threads: 1,
        cache_bytes: 0, // no cache at all on the reference path
        max_insns: 2_000_000_000,
        ..ServeConfig::default()
    });
    let expected: BTreeMap<&str, String> = requests
        .iter()
        .map(|r| (r.as_str(), handle_line(&serial_state, r, None)))
        .collect();
    for (req, resp) in &expected {
        assert!(
            resp.starts_with(r#"{"ok":true"#),
            "serial reference failed for `{req}`: {resp}"
        );
    }

    // Concurrent: one server, N clients, each replaying the full set
    // twice in its own seeded-random order. Interleavings differ every
    // run; the bytes must not.
    let path = socket_path("race");
    let server = Server::start(
        &path,
        ServeConfig {
            threads: 4,
            cache_bytes: 64 << 20,
            max_insns: 2_000_000_000,
            ..ServeConfig::default()
        },
    )
    .expect("start server");

    const CLIENTS: usize = 6;
    std::thread::scope(|scope| {
        for id in 0..CLIENTS {
            let requests = &requests;
            let expected = &expected;
            let path = &path;
            scope.spawn(move || {
                let mut rng = Rng64::seed_from_u64(0xDE7E_0000 + id as u64);
                let mut order: Vec<&String> = requests.iter().collect();
                let mut c = Client::connect(path).expect("connect");
                for pass in 0..2 {
                    rng.shuffle(&mut order);
                    for req in &order {
                        let resp = c.request_raw(req).expect("request");
                        assert_eq!(
                            &resp,
                            &expected[req.as_str()],
                            "client {id} pass {pass}: `{req}` diverged from serial"
                        );
                    }
                }
            });
        }
    });

    // Every lookup either hit or missed; the cache held one entry per
    // distinct image and the interleaving decided nothing visible.
    let stats = server.state().cache.stats();
    assert_eq!(stats.lookups, stats.hits + stats.misses + stats.poisoned);
    assert_eq!(stats.poisoned, 0);
    assert!(
        stats.hits > stats.misses,
        "with {CLIENTS} clients x 2 passes most lookups must hit ({stats:?})"
    );
    drop(server);
}

#[test]
fn server_stats_match_direct_runner_for_every_scheme() {
    use rtdc::prelude::*;

    // Anchor the serial reference itself: the daemon's `run` stats equal
    // `run_image` on a locally built image, per scheme x rf.
    let state = ServeState::new(&ServeConfig {
        threads: 1,
        cache_bytes: 16 << 20,
        max_insns: 2_000_000_000,
        ..ServeConfig::default()
    });
    let program = rtdc_workloads::programs::all_programs()
        .into_iter()
        .find(|p| p.name == "sort")
        .expect("sort exists");
    let n = program.procedures.len();
    let cfg = rtdc_sim::SimConfig::hpca2000_baseline();
    for scheme in Scheme::all() {
        for rf in [false, true] {
            let label = scheme.name_rf(rf);
            let resp = handle_line(&state, &request_line("run", "sort", &label, None), None);
            let v = rtdc_serve::json::parse(&resp).expect("response is JSON");
            let got = rtdc_serve::protocol::parse_stats(v.get("stats").expect("stats"))
                .expect("stats parse");
            let plan = CompressionPlan::uniform(
                scheme,
                rf,
                PlanSource::Heuristic,
                &Selection::all_compressed(n),
            );
            let image = build_planned(&program, &plan).expect("build");
            let want = run_image(&image, cfg, 2_000_000_000).expect("run");
            assert_eq!(got, want.stats, "stats diverged for sort/{label}");
        }
    }
}
