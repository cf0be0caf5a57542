//! Fuzz harness for the workspace's one JSON codec: `json::parse` and
//! the trace reader built on it, `trace::parse_line`, must be total —
//! return `Ok` or a typed `Err`, never panic — on any input line.
//!
//! The corpus is the two line formats the codec reads in practice:
//! every trace event kind as `to_jsonl` writes it, meta and region_def
//! preamble lines with hostile names, and serve-protocol request lines.
//! Each iteration checks that the unmutated line round-trips and that
//! every prefix of it is handled, then mutates it with byte flips,
//! truncation, splices from another line and nesting bombs.
//!
//! CI runs a fixed smoke iteration count; set `RTDC_FUZZ_ITERS` to fuzz
//! longer (e.g. `RTDC_FUZZ_ITERS=20000 cargo test -p rtdc-sim --test
//! json_fuzz --release`). A failure reports the iteration and the line.

use rtdc_rng::Rng64;
use rtdc_sim::json::{self, Json};
use rtdc_sim::trace::{
    parse_line, JsonlTracer, MissKind, RegionDef, StallCause, TraceEvent, TraceLine,
};

fn iters(default: u64) -> u64 {
    std::env::var("RTDC_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Serve-protocol request lines, as clients send them (the second with
/// every escape form, so truncations land inside `\uXXXX`).
const REQUESTS: [&str; 7] = [
    r#"{"op":"build","bench":"sort","scheme":"d"}"#,
    r#"{"op":"build","bench":"s\u006fr\u0074","scheme":"\"\\\/\b\f\n\r\t\u00e9"}"#,
    r#"{"op":"run","bench":"crc32","scheme":"cp+rf","max_insns":100000,"deadline_ms":250}"#,
    r#"{"op":"trace","bench":"sort","filter":"exc,swic"}"#,
    r#"{"op":"plan","bench":"tiny-loop","scheme":"d2"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"run","bench":"sort","plan":"rtdc-plan v1 scheme=d source=manual iter=0 procs=1\n0 d 0\n"}"#,
];

const STALL_CAUSES: [StallCause; 8] = [
    StallCause::IMiss,
    StallCause::DMiss,
    StallCause::Branch,
    StallCause::RegJump,
    StallCause::LoadUse,
    StallCause::Hilo,
    StallCause::Swic,
    StallCause::Exception,
];

/// A cycle-like u64 the codec represents exactly (below 2^53, as every
/// cycle count a run can reach is).
fn cycle(rng: &mut Rng64) -> u64 {
    rng.gen_u64() >> 11
}

/// A random event of kind `k` (0..13 covers every variant).
fn event(rng: &mut Rng64, k: u32) -> TraceEvent {
    let (a, b, c) = (rng.gen_u32(), rng.gen_bool(), rng.gen_bool());
    match k {
        0 => TraceEvent::Fetch { pc: a },
        1 => TraceEvent::FetchMiss {
            pc: a,
            cycle: cycle(rng),
            kind: if b {
                MissKind::Native
            } else {
                MissKind::Compressed
            },
        },
        2 => TraceEvent::IFill {
            base: a,
            cycle: cycle(rng),
            evicted: b,
        },
        3 => TraceEvent::DAccess {
            addr: a,
            store: b,
            hit: c,
        },
        4 => TraceEvent::DFill {
            base: a,
            cycle: cycle(rng),
            evicted: b,
            dirty: c,
        },
        5 => TraceEvent::ExcEntry {
            pc: a,
            cycle: cycle(rng),
        },
        6 => TraceEvent::ExcExit {
            epc: a,
            cycle: cycle(rng),
            insns: cycle(rng),
            cycles: cycle(rng),
        },
        7 => TraceEvent::Swic {
            addr: a,
            pc: rng.gen_u32(),
            evicted: b,
        },
        8 => TraceEvent::Branch {
            pc: a,
            taken: b,
            mispredict: c,
        },
        9 => TraceEvent::RegJump {
            pc: a,
            target: rng.gen_u32(),
            ras_miss: b,
        },
        10 => TraceEvent::Stall {
            cause: *rng.choose(&STALL_CAUSES),
            cycles: cycle(rng),
            handler: b,
        },
        11 => TraceEvent::Commit { pc: a, handler: b },
        _ => TraceEvent::RegionEntry {
            region: a,
            pc: rng.gen_u32(),
            cycle: cycle(rng),
        },
    }
}

/// A name drawn from characters that break naive JSON writers.
fn hostile_name(rng: &mut Rng64) -> String {
    const CHARS: [char; 12] = [
        'a', 'Z', '"', '\\', ',', '}', ':', '\u{1}', '\n', 'é', '→', ' ',
    ];
    (0..rng.gen_range(0..12usize))
        .map(|_| *rng.choose(&CHARS))
        .collect()
}

/// One valid corpus line and, for trace lines, what it must parse to.
fn corpus_line(rng: &mut Rng64) -> (String, Option<TraceLine>) {
    match rng.gen_range(0..16u32) {
        k @ 0..=12 => {
            let ev = event(rng, k);
            (ev.to_jsonl(), Some(TraceLine::Event(ev)))
        }
        13 => {
            let (bench, scheme) = (hostile_name(rng), hostile_name(rng));
            let mut t = JsonlTracer::new(Vec::new());
            t.write_meta(&bench, &scheme);
            (preamble(t), Some(TraceLine::Meta { bench, scheme }))
        }
        14 => {
            let def = RegionDef {
                id: rng.gen_u32(),
                name: hostile_name(rng),
                start: rng.gen_u32(),
                end: rng.gen_u32(),
            };
            let mut t = JsonlTracer::new(Vec::new());
            t.write_region_def(&def);
            (preamble(t), Some(TraceLine::RegionDef(def)))
        }
        _ => ((*rng.choose(&REQUESTS)).to_string(), None),
    }
}

/// The single line a tracer wrote, without its newline.
fn preamble(t: JsonlTracer<Vec<u8>>) -> String {
    let text = String::from_utf8(t.finish().expect("in-memory write")).expect("utf-8");
    let line = text.strip_suffix('\n').expect("one terminated line");
    assert!(
        !line.contains('\n'),
        "a preamble line spans lines: {line:?}"
    );
    line.to_string()
}

/// `v` rendered back to compact JSON text.
fn render(v: &Json) -> String {
    match v {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => n.to_string(),
        Json::Str(s) => json::escape(s),
        Json::Arr(items) => {
            let items: Vec<String> = items.iter().map(render).collect();
            format!("[{}]", items.join(","))
        }
        Json::Obj(m) => {
            let mut w = json::ObjWriter::new();
            for (k, v) in m {
                w.raw(k, &render(v));
            }
            w.finish()
        }
    }
}

/// `line` with one to three random edits.
fn mutate(rng: &mut Rng64, line: &str) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0..5u32) {
            // Flip one byte to anything (quotes, escapes, control bytes,
            // invalid UTF-8 — decoded lossily below).
            0 if at < bytes.len() => bytes[at] = rng.gen_u32() as u8,
            // Truncate.
            1 => bytes.truncate(at),
            // Splice in a piece of another valid line.
            2 => {
                let (other, _) = corpus_line(rng);
                let from = rng.gen_range(0..other.len());
                let to = rng.gen_range(from..other.len() + 1);
                bytes.splice(at..at, other.as_bytes()[from..to].iter().copied());
            }
            // Nesting bomb: arrays or objects far past the depth bound.
            3 => {
                let open: &[u8] = if rng.gen_bool() { b"[" } else { b"{\"k\":" };
                let bomb = open.repeat(rng.gen_range(1..200usize));
                bytes.splice(at..at, bomb);
            }
            // Duplicate the tail (unbalances braces and quotes).
            _ => {
                let tail = bytes[at..].to_vec();
                bytes.extend(tail);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs both readers on `line`; a panic fails with the iteration and
/// line. Both must also be deterministic.
fn must_not_panic(i: u64, line: &str) {
    let once = std::panic::catch_unwind(|| (json::parse(line), parse_line(line)))
        .unwrap_or_else(|_| panic!("iter {i}: a reader panicked on {line:?}"));
    assert_eq!(
        once,
        (json::parse(line), parse_line(line)),
        "iter {i}: non-deterministic on {line:?}"
    );
}

#[test]
fn valid_lines_round_trip_and_mutants_never_panic() {
    let mut rng = Rng64::seed_from_u64(0x150_F022);
    let mut rejected = 0;
    let n = iters(300);
    for i in 0..n {
        let (line, expect) = corpus_line(&mut rng);
        let value = json::parse(&line).unwrap_or_else(|e| panic!("iter {i}: {e} in {line:?}"));
        assert_eq!(
            json::parse(&render(&value)),
            Ok(value),
            "iter {i}: {line:?}"
        );
        if let Some(expect) = expect {
            assert_eq!(parse_line(&line), Ok(expect), "iter {i}: {line:?}");
        }
        // Truncation is the commonest corruption; try every cut.
        for cut in (0..line.len()).filter(|&c| line.is_char_boundary(c)) {
            must_not_panic(i, &line[..cut]);
        }

        let bad = mutate(&mut rng, &line);
        must_not_panic(i, &bad);
        rejected += usize::from(json::parse(&bad).is_err());
    }
    // Most edits break the syntax; if nearly none did, the mutator has
    // stopped exercising the rejection paths.
    assert!(
        rejected as u64 * 2 > n,
        "only {rejected} of {n} mutants rejected"
    );
}

#[test]
fn pure_garbage_never_panics() {
    let mut rng = Rng64::seed_from_u64(0x150_F023);
    for i in 0..iters(300) {
        let len = rng.gen_range(0..64usize);
        let bytes: Vec<u8> = (0..len)
            .map(|_| *rng.choose(b"{}[]\":,\\ntfu0123456789-.eE \x01\xff"))
            .collect();
        must_not_panic(i, &String::from_utf8_lossy(&bytes));
    }
}
