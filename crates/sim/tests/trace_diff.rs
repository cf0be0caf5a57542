//! Trace-on/trace-off differential: attaching a sink must not perturb
//! the machine — identical `Stats`, output, and exit behavior — and the
//! collected events must fold back into the same counters (the scheme-
//! level conformance suite in `rtdc-bench` extends this to compressed
//! images; here the folding arithmetic is checked at the machine level).

use rtdc_isa::asm::assemble;
use rtdc_isa::Reg;
use rtdc_sim::trace::StallCause;
use rtdc_sim::{Machine, SimConfig, Stats, TraceEvent, VecSink};

const TEXT: u32 = 0x1000;
const DATA: u32 = 0x1000_0000;

/// A program exercising every stall source except the decompression
/// path: D-misses with writebacks, load-use, hilo, branches (with
/// warmup mispredicts), register jumps, and native I-misses.
const SRC: &str = "\
    la $t1,buf\nli $t0,50\n\
    loop: lw $t2,0($t1)\nadd $t3,$t2,$t2\nmult $t2,$t3\nmflo $t4\n\
    sw $t4,4($t1)\naddiu $t1,$t1,4096\njal f\n\
    la $t5,f\njalr $t5\n\
    add $t0,$t0,-1\nbgtz $t0,loop\n\
    li $v0,10\nli $a0,0\nsyscall\n\
    f: jr $ra\n\
    .data\nbuf: .space 4\n";

fn load(m: &mut Machine<impl rtdc_sim::TraceSink>, src: &str) {
    let out = assemble(src, TEXT, DATA).expect("test asm");
    for (i, w) in out.encoded_text().iter().enumerate() {
        m.mem_mut().write_u32(TEXT + 4 * i as u32, *w);
    }
    for (i, b) in out.data.iter().enumerate() {
        m.mem_mut().write_u8(DATA + i as u32, *b);
    }
    m.set_pc(TEXT);
    m.set_reg(Reg::SP, 0x1fff_ff00);
}

/// Folds the event stream back into a `Stats` with the shared
/// per-event step, [`Stats::apply`].
fn fold(events: &[TraceEvent]) -> Stats {
    let mut s = Stats::default();
    for ev in events {
        s.apply(ev);
    }
    s
}

#[test]
fn sink_does_not_perturb_the_machine() {
    let mut plain = Machine::new(SimConfig::hpca2000_baseline());
    load(&mut plain, SRC);
    plain.run(100_000).unwrap();

    let mut traced = Machine::with_sink(SimConfig::hpca2000_baseline(), VecSink::default());
    load(&mut traced, SRC);
    traced.run(100_000).unwrap();

    assert_eq!(plain.stats(), traced.stats(), "tracing changed the stats");
    assert_eq!(plain.output(), traced.output());
    assert_eq!(plain.pc(), traced.pc());
}

#[test]
fn folded_events_reconstruct_stats_exactly() {
    let mut m = Machine::with_sink(SimConfig::hpca2000_baseline(), VecSink::default());
    load(&mut m, SRC);
    m.run(100_000).unwrap();

    let want = *m.stats();
    let folded = fold(&m.into_sink().events);
    assert_eq!(folded, want);
    assert_eq!(
        want.insns + want.stalls.sum(),
        want.cycles,
        "stall attribution must stay complete"
    );
}

#[test]
fn every_stall_cause_appears_in_the_event_stream() {
    let mut m = Machine::with_sink(SimConfig::hpca2000_baseline(), VecSink::default());
    load(&mut m, SRC);
    m.run(100_000).unwrap();
    let events = m.into_sink().events;
    for cause in [
        StallCause::IMiss,
        StallCause::DMiss,
        StallCause::Branch,
        StallCause::RegJump,
        StallCause::LoadUse,
        StallCause::Hilo,
    ] {
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Stall { cause: c, .. } if *c == cause)),
            "no {cause:?} stall event"
        );
    }
}
