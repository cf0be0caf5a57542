//! Trace conformance: for **every** registered scheme (and native), the
//! JSONL event stream written while a program runs must fold back into
//! the machine's own `Stats` *exactly* — every counter — after a full
//! write → parse → fold round trip through the on-disk format. This is
//! the load-bearing correctness proof for the tracing subsystem: any
//! event the machine forgets to emit, any field the format drops, or any
//! double-count in the folding arithmetic breaks the equality.

use rtdc::prelude::*;
use rtdc_bench::analyze::{self, fold_stats};
use rtdc_isa::asm::assemble;
use rtdc_isa::program::{AddrTable, ObjInsn, ObjectProgram, ProcId, Procedure};
use rtdc_sim::map;
use rtdc_sim::trace::RegionDef;
use rtdc_sim::{JsonlTracer, Stats, TraceEvent, VecSink};

const DATA_LAYOUT: &str = "\n.data\ntable: .space 4\nbuf: .space 64\n";

fn proc_body(src: &str) -> Vec<ObjInsn> {
    let src = format!("{src}{DATA_LAYOUT}");
    let out = assemble(&src, 0, map::DATA_BASE).expect("test proc body");
    out.text.into_iter().map(ObjInsn::Insn).collect()
}

/// A three-procedure program exercising calls, loops, loads/stores,
/// branches, hilo, and an indirect call — enough dynamic variety that
/// every event kind the schemes can produce shows up in the stream.
fn test_program() -> ObjectProgram {
    let mut main = Vec::new();
    main.extend(proc_body("li $s0,10\nli $s1,0\n"));
    let loop_head = main.len();
    main.extend(proc_body("move $a0,$s1\n"));
    main.push(ObjInsn::Call(ProcId(1)));
    main.extend(proc_body("move $s1,$v0\nmove $a0,$s1\n"));
    main.push(ObjInsn::Call(ProcId(2)));
    main.extend(proc_body("move $s1,$v0\n"));
    main.extend(proc_body(
        "la $t0,table\nlw $t1,0($t0)\nmove $a0,$s1\njalr $t1\nmove $s1,$v0\n",
    ));
    let back = {
        let cur = main.len() + 1;
        let off = loop_head as i64 - (cur as i64 + 1);
        let src = format!("add $s0,$s0,-1\nbne $s0,$0,{off}\n");
        proc_body(&src)
    };
    main.extend(back);
    main.extend(proc_body(
        "move $a0,$s1\nli $v0,1\nsyscall\n\
         andi $a0,$s1,0x7f\nli $v0,10\nsyscall\n",
    ));

    let mix = proc_body(
        "sll $t0,$a0,3\nxor $t0,$t0,$a0\nmult $t0,$a0\nmflo $t1\n\
         srl $t1,$t1,5\nadd $v0,$t0,$t1\nadd $v0,$v0,1\njr $ra\n",
    );
    let accum = proc_body(
        "la $t0,buf\nli $t1,16\nmove $v0,$a0\n\
         aloop: lw $t2,0($t0)\nadd $v0,$v0,$t2\nsw $v0,0($t0)\n\
         add $t0,$t0,4\nadd $t1,$t1,-1\nbne $t1,$0,aloop\njr $ra\n",
    );

    let mut data = vec![0u8; 4];
    for i in 1..=16u32 {
        data.extend_from_slice(&i.to_le_bytes());
    }
    ObjectProgram {
        name: "conformance".into(),
        procedures: vec![
            Procedure::new("main", main),
            Procedure::new("mix", mix),
            Procedure::new("accum", accum),
        ],
        data,
        entry: ProcId(0),
        addr_tables: vec![AddrTable {
            data_offset: 0,
            procs: vec![ProcId(1)],
        }],
    }
}

/// Every image the conformance suite covers: native plus every
/// registered scheme with both handler variants.
fn all_images() -> Vec<(String, MemoryImage)> {
    let p = test_program();
    let mut images = vec![(
        "native".to_string(),
        build_native(&p).expect("native build"),
    )];
    for scheme in Scheme::all() {
        for rf in [false, true] {
            let label = scheme.name_rf(rf);
            let img = build_compressed(&p, scheme, rf, &Selection::all_compressed(3))
                .unwrap_or_else(|e| panic!("{label}: build failed: {e}"));
            images.push((label, img));
        }
    }
    images
}

#[test]
fn jsonl_roundtrip_folds_to_exact_stats_for_every_scheme() {
    let cfg = SimConfig::hpca2000_baseline();
    for (label, img) in all_images() {
        let untraced = run_image(&img, cfg, 10_000_000).expect(&label);

        let mut tracer = JsonlTracer::new(Vec::new());
        tracer.write_meta("conformance", &label);
        for &(start, end, id) in &img.proc_regions {
            tracer.write_region_def(&RegionDef {
                id: id as u32,
                name: img.proc_names[id].clone(),
                start,
                end,
            });
        }
        let (traced, tracer) = run_image_with_sink(
            &img.verify_integrity().expect(&label),
            cfg,
            10_000_000,
            tracer,
        )
        .expect(&label);
        let bytes = tracer.finish().expect("tracer I/O");

        // Tracing must not perturb the run.
        assert_eq!(
            traced.stats, untraced.stats,
            "{label}: tracing changed stats"
        );
        assert_eq!(traced.output, untraced.output, "{label}");
        assert_eq!(traced.exit_code, untraced.exit_code, "{label}");

        // The on-disk stream folds back into the exact counters.
        let trace = analyze::parse_trace(bytes.as_slice())
            .unwrap_or_else(|e| panic!("{label}: trace parse failed: {e}"));
        assert_eq!(trace.scheme, label);
        let folded = fold_stats(&trace.events);
        assert_eq!(
            folded, traced.stats,
            "{label}: folded stream != machine stats"
        );

        // Stall attribution stays complete.
        let s = &traced.stats;
        assert_eq!(
            s.stalls.sum() + s.insns,
            s.cycles,
            "{label}: stalls + insns != cycles"
        );
    }
}

#[test]
fn compressed_traces_attribute_handler_cost_to_procedures() {
    let cfg = SimConfig::hpca2000_baseline();
    let p = test_program();
    let img = build_compressed(&p, Scheme::Dictionary, false, &Selection::all_compressed(3))
        .expect("build");
    let mut tracer = JsonlTracer::new(Vec::new());
    tracer.write_meta("conformance", "d");
    for &(start, end, id) in &img.proc_regions {
        tracer.write_region_def(&RegionDef {
            id: id as u32,
            name: img.proc_names[id].clone(),
            start,
            end,
        });
    }
    let (report, tracer) = run_image_with_sink(
        &img.verify_integrity().expect("verify"),
        cfg,
        10_000_000,
        tracer,
    )
    .expect("run");
    let bytes = tracer.finish().expect("tracer I/O");
    let trace = analyze::parse_trace(bytes.as_slice()).expect("parse");
    let analysis = analyze::analyze(&trace, 32);

    // Every exception is attributed, and the per-procedure deltas add up
    // to the machine's own handler totals.
    let total_exc: u64 = analysis.handler_shares.iter().map(|h| h.exceptions).sum();
    let total_insns: u64 = analysis
        .handler_shares
        .iter()
        .map(|h| h.handler_insns)
        .sum();
    let total_cycles: u64 = analysis
        .handler_shares
        .iter()
        .map(|h| h.handler_cycles)
        .sum();
    assert_eq!(total_exc, report.stats.exceptions);
    assert_eq!(total_insns, report.stats.handler_insns);
    assert_eq!(total_cycles, report.stats.handler_cycles);
    assert!(
        analysis
            .handler_shares
            .iter()
            .all(|h| h.name != "<unmapped>"),
        "every miss address must fall inside a defined procedure region"
    );
    // The report renders without panicking and names the scheme.
    let text = analyze::report(&analysis);
    assert!(text.contains("scheme=d"));
    assert!(text.contains("handler cost by procedure"));
}

/// Every image — native and each scheme ±rf — must emit the native
/// profile's call sequence as `RegionEntry` events, each at its region's
/// first instruction and stamped with the cycles the events before it
/// fold to.
#[test]
fn region_entries_match_the_profiler_call_sequence() {
    let cfg = SimConfig::hpca2000_baseline();
    let (_, profile) = profile_native(&test_program(), cfg, 10_000_000).expect("profile");
    assert!(!profile.entry_trace_truncated);
    for (label, img) in all_images() {
        let (report, sink) = run_image_with_sink(
            &img.verify_integrity().expect(&label),
            cfg,
            10_000_000,
            VecSink::default(),
        )
        .expect(&label);
        let mut folded = Stats::default();
        let mut entries = Vec::new();
        for ev in &sink.events {
            if let TraceEvent::RegionEntry { region, pc, cycle } = *ev {
                assert_eq!(
                    cycle, folded.cycles,
                    "{label}: entry stamp != folded cycles"
                );
                assert!(
                    img.proc_regions
                        .iter()
                        .any(|&(start, _, id)| start == pc && id as u32 == region),
                    "{label}: entry at {pc:#x} is not region {region}'s first instruction"
                );
                entries.push(region);
            }
            folded.apply(ev);
        }
        assert_eq!(folded, report.stats, "{label}");
        assert_eq!(entries, profile.entry_trace, "{label}: call sequence");
    }
}
