//! Cache-poisoning negative battery: corrupt a cached image *in place*
//! (reusing the `rtdc::fault` machinery from the fault-injection PR) and
//! prove the next hit is rejected — [`ImageError::ChecksumMismatch`],
//! not silently served — then transparently rebuilt.
//!
//! The cache's verify-on-hit property is the load-bearing claim of the
//! whole content-addressed design: a hit is only as trustworthy as the
//! integrity seal it re-checks, and the `Verified` token a lookup hands
//! out must keep the bytes that check measured. These tests poison through every layer
//! (direct cache handle, dispatcher, live socket) and assert the
//! response bytes after poisoning equal the clean bytes — proof the
//! corruption never leaked into a reply.

use rtdc::error::ImageError;
use rtdc::fault::FaultPlan;
use rtdc::runner::run_image_with_sink;
use rtdc_serve::cache::{CacheKey, Outcome};
use rtdc_serve::client::{request_line, Client};
use rtdc_serve::protocol::parse_stats;
use rtdc_serve::server::{handle_line, ServeConfig, ServeState, Server};
use rtdc_sim::NoTrace;

/// The segment to corrupt: the largest one, so offsets 0..=4 are always
/// in range whatever the codec's layout looks like.
fn largest_segment(image: &rtdc::image::MemoryImage) -> String {
    image
        .segments
        .iter()
        .max_by_key(|s| s.bytes.len())
        .expect("image has segments")
        .name
        .clone()
}

fn state() -> ServeState {
    ServeState::new(&ServeConfig {
        threads: 2,
        cache_bytes: 64 << 20,
        max_insns: 2_000_000_000,
        ..ServeConfig::default()
    })
}

/// The cache key `obtain_image` computes for a uniform-scheme build is
/// reproducible from the response (`label` + `plan_digest`).
fn key_from_response(resp: &str, bench: &str) -> CacheKey {
    let v = rtdc_serve::json::parse(resp).expect("response is JSON");
    CacheKey {
        bench: bench.to_string(),
        label: v
            .get("label")
            .and_then(rtdc_serve::json::Json::as_str)
            .expect("label")
            .to_string(),
        plan_digest: v
            .get("plan_digest")
            .and_then(rtdc_serve::json::Json::as_u64)
            .expect("plan_digest") as u32,
    }
}

#[test]
fn bit_flip_is_rejected_with_checksum_mismatch_and_rebuilt() {
    let st = state();
    let req = request_line("run", "sort", "d", None);
    let clean = handle_line(&st, &req, None);
    assert!(clean.starts_with(r#"{"ok":true"#), "{clean}");
    let key = key_from_response(&clean, "sort");

    // Flip one bit of the cached dictionary segment, in place, exactly
    // as `rtdc-run --inject flip:...` would corrupt a built image.
    let poisoned = st.cache.mutate_entry(&key, |image| {
        let plan = FaultPlan::parse("flip:.dictionary:0:3", image).expect("fault plan");
        plan.apply(image).expect("apply fault");
        // The cached entry must now *provably* fail verification with
        // the typed checksum error — anything else (or success) means
        // the seal does not cover what we corrupted.
        match image.verify_integrity() {
            Err(ImageError::ChecksumMismatch { .. }) => {}
            other => panic!("poisoned image verified as {other:?}"),
        }
    });
    assert!(poisoned, "entry for {key} must be resident");

    // The next request hits the poisoned entry, rejects it, rebuilds,
    // and answers with bytes identical to the clean response: the
    // corruption is observable ONLY in the counters.
    let after = handle_line(&st, &req, None);
    assert_eq!(after, clean, "poisoned cache leaked into a response");
    let s = st.cache.stats();
    assert_eq!(s.poisoned, 1, "rejection must be counted: {s:?}");
    assert_eq!(s.lookups, s.hits + s.misses + s.poisoned);

    // And the rebuilt entry is clean: the following lookup is a plain
    // verified hit.
    let again = handle_line(&st, &req, None);
    assert_eq!(again, clean);
    let s = st.cache.stats();
    assert_eq!((s.poisoned, s.hits), (1, 1), "{s:?}");
}

#[test]
fn a_held_token_survives_poisoning_and_the_next_lookup_rejects() {
    let st = state();
    let req = request_line("run", "sort", "d", None);
    let clean = handle_line(&st, &req, None);
    assert!(clean.starts_with(r#"{"ok":true"#), "{clean}");
    let key = key_from_response(&clean, "sort");

    // A warm lookup hands out a verified token that shares the entry.
    let (token, outcome) = st
        .cache
        .get_or_build(&key, || panic!("entry must be resident"))
        .expect("hit");
    assert_eq!(outcome, Outcome::Hit);
    assert!(st.cache.mutate_entry(&key, |image| {
        let plan = FaultPlan::parse("flip:.dictionary:0:3", image).expect("fault plan");
        plan.apply(image).expect("apply fault");
    }));

    // Copy-on-write: the token still holds the bytes it was verified
    // against, so running it reproduces the clean response.
    let (report, NoTrace) =
        run_image_with_sink(&token, st.sim, st.max_insns, NoTrace).expect("token runs");
    let v = rtdc_serve::json::parse(&clean).expect("response is JSON");
    let field = |k: &str| v.get(k).and_then(rtdc_serve::json::Json::as_u64);
    assert_eq!(field("exit_code"), Some(u64::from(report.exit_code)));
    assert_eq!(field("output_len"), Some(report.output.len() as u64));
    assert_eq!(
        field("output_crc32"),
        Some(u64::from(rtdc::integrity::crc32(&report.output)))
    );
    assert_eq!(
        v.get("stats").and_then(parse_stats),
        Some(report.stats),
        "the held token ran poisoned bytes"
    );

    // The resident entry is poisoned, and the next lookup rejects it.
    let before = st.cache.stats().poisoned;
    assert_eq!(handle_line(&st, &req, None), clean);
    assert_eq!(st.cache.stats().poisoned, before + 1);
}

#[test]
fn truncation_faults_are_rejected_too() {
    let st = state();
    let req = request_line("run", "crc32", "cp+rf", None);
    let clean = handle_line(&st, &req, None);
    assert!(clean.starts_with(r#"{"ok":true"#), "{clean}");
    let key = key_from_response(&clean, "crc32");

    // `trunc` zeroes the tail of a segment from an offset — a larger
    // corruption than a bit flip, same required outcome.
    assert!(st.cache.mutate_entry(&key, |image| {
        let seg = largest_segment(image);
        let plan = FaultPlan::parse(&format!("trunc:{seg}:4"), image).expect("fault plan");
        plan.apply(image).expect("apply fault");
        // Truncation shortens the segment, so the *length* check fires
        // before the CRC ever runs — still a typed rejection, never a
        // silent serve.
        assert!(
            matches!(
                image.verify_integrity(),
                Err(ImageError::LengthMismatch { .. })
            ),
            "truncated image must fail its recorded segment length"
        );
    }));
    let after = handle_line(&st, &req, None);
    assert_eq!(after, clean, "truncated cache entry leaked into a response");
    assert_eq!(st.cache.stats().poisoned, 1);
}

#[test]
fn poisoning_under_concurrent_clients_never_leaks() {
    // Socket-level: clients hammer one key while the test repeatedly
    // poisons the cached entry under them. Every response must equal the
    // clean bytes; every poisoning must be either rejected or already
    // replaced — never served.
    let path = std::env::temp_dir().join(format!("rtdc-serve-poison-{}.sock", std::process::id()));
    let server = Server::start(
        &path,
        ServeConfig {
            threads: 3,
            cache_bytes: 64 << 20,
            max_insns: 2_000_000_000,
            ..ServeConfig::default()
        },
    )
    .expect("start server");
    let req = request_line("run", "sort", "d2", None);

    let clean = {
        let mut c = Client::connect(&path).expect("connect");
        c.request_raw(&req).expect("request")
    };
    assert!(clean.starts_with(r#"{"ok":true"#), "{clean}");
    let key = key_from_response(&clean, "sort");

    let stop = std::sync::atomic::AtomicBool::new(false);
    let done = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let state = server.state();
        let (stop, done) = (&stop, &done);
        let key = &key;
        // The poisoner: keeps flipping a bit in the cached entry (an odd
        // number of flips corrupts; an even number restores — either
        // way, a reply must carry clean bytes).
        scope.spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                state.cache.mutate_entry(key, |image| {
                    let seg = largest_segment(image);
                    let plan =
                        FaultPlan::parse(&format!("flip:{seg}:1:5"), image).expect("fault plan");
                    plan.apply(image).expect("apply fault");
                });
                std::thread::yield_now();
            }
        });
        for _ in 0..3 {
            let (path, req, clean) = (&path, &req, &clean);
            scope.spawn(move || {
                let mut c = Client::connect(path).expect("connect");
                for _ in 0..30 {
                    let resp = c.request_raw(req).expect("request");
                    assert_eq!(&resp, clean, "a poisoned image was served");
                }
                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        }
        // Release the poisoner once every client has finished.
        while done.load(std::sync::atomic::Ordering::Relaxed) < 3 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // The race itself may or may not have landed an odd flip in front of
    // a lookup; finish with a deterministic poison so the counter path
    // is asserted unconditionally.
    assert!(server.state().cache.mutate_entry(&key, |image| {
        let seg = largest_segment(image);
        let plan = FaultPlan::parse(&format!("flip:{seg}:0:0"), image).expect("fault plan");
        plan.apply(image).expect("apply fault");
    }));
    let mut c = Client::connect(&path).expect("connect");
    let resp = c.request_raw(&req).expect("request");
    assert_eq!(resp, clean, "a poisoned image was served");
    let s = server.state().cache.stats();
    assert!(s.poisoned > 0, "poisoned rejection must be counted: {s:?}");
    assert_eq!(s.lookups, s.hits + s.misses + s.poisoned);
    drop(server);
}
