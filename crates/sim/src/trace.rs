//! Structured event tracing.
//!
//! The machine emits a [`TraceEvent`] at every point where it bumps a
//! statistics counter, so a trace is a *superset* of [`crate::Stats`]:
//! folding the event stream reconstructs every counter exactly (the
//! conformance tests in `rtdc-bench` prove this for every registered
//! compression scheme). Sinks receive events through the [`TraceSink`]
//! trait; the machine is generic over the sink and the default
//! [`NoTrace`] sink sets [`TraceSink::ENABLED`] to `false`, which
//! compiles every emission — including event construction — out of the
//! hot path entirely. Tracing therefore costs nothing unless a real sink
//! is attached.
//!
//! The on-disk format is JSON Lines, one object per line, owned end to
//! end by this module: [`JsonlTracer`] writes it and [`parse_line`]
//! reads it back through the shared [`crate::json`] codec.
//! `rtdc_bench::analyze` builds histograms and attribution reports on
//! top.
//!
//! # Event taxonomy
//!
//! | kind      | event                         | counters it carries          |
//! |-----------|-------------------------------|------------------------------|
//! | `fetch`   | [`TraceEvent::Fetch`]         | `ifetches`                   |
//! | `imiss`   | [`TraceEvent::FetchMiss`]     | `imisses` (+native/compressed) |
//! | `ifill`   | [`TraceEvent::IFill`]         | I-line fills and evictions   |
//! | `daccess` | [`TraceEvent::DAccess`]       | `daccesses`, `dmisses`       |
//! | `dfill`   | [`TraceEvent::DFill`]         | D-line fills, `writebacks`   |
//! | `exc`     | [`TraceEvent::ExcEntry`]/[`TraceEvent::ExcExit`] | `exceptions`, per-exception handler cost |
//! | `swic`    | [`TraceEvent::Swic`]          | `swics`, software line fills |
//! | `branch`  | [`TraceEvent::Branch`]        | `branches`, `mispredicts`    |
//! | `regjump` | [`TraceEvent::RegJump`]       | `reg_jumps`, `reg_jump_misses` |
//! | `stall`   | [`TraceEvent::Stall`]         | `stalls.*`, `handler_cycles` |
//! | `commit`  | [`TraceEvent::Commit`]        | `insns`, program/handler split |
//! | `region`  | [`TraceEvent::RegionEntry`]   | region entry trace           |

#![deny(clippy::cast_possible_truncation)]

use std::io::Write;

use crate::json::{self, Json};

/// Which stall bucket a [`TraceEvent::Stall`] charges; mirrors the fields
/// of [`crate::StallBreakdown`] one for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Hardware I-cache line fill (native-region miss).
    IMiss,
    /// D-cache line fill or dirty writeback.
    DMiss,
    /// Conditional-branch mispredict bubbles.
    Branch,
    /// Register-jump redirect bubbles.
    RegJump,
    /// Load-use interlock bubble.
    LoadUse,
    /// `mfhi`/`mflo` waiting on multiply/divide.
    Hilo,
    /// `swic` pipeline drain.
    Swic,
    /// Exception entry or `iret` return flush.
    Exception,
}

impl StallCause {
    /// Every cause, in [`crate::StallBreakdown`] field order: the order
    /// every report and JSON object lists them in.
    pub const ALL: [StallCause; 8] = [
        StallCause::IMiss,
        StallCause::DMiss,
        StallCause::Branch,
        StallCause::RegJump,
        StallCause::LoadUse,
        StallCause::Hilo,
        StallCause::Swic,
        StallCause::Exception,
    ];

    /// The JSONL name of this cause, which reports and the `stall_*`
    /// JSON keys also use.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::IMiss => "imiss",
            StallCause::DMiss => "dmiss",
            StallCause::Branch => "branch",
            StallCause::RegJump => "regjump",
            StallCause::LoadUse => "loaduse",
            StallCause::Hilo => "hilo",
            StallCause::Swic => "swic",
            StallCause::Exception => "exception",
        }
    }

    fn by_name(name: &str) -> Option<StallCause> {
        StallCause::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Which region an I-miss fell in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissKind {
    /// Native code: the hardware controller fills the line.
    Native,
    /// Compressed code: the miss raises the decompression exception.
    Compressed,
}

/// One machine event. Cycle stamps are the value of `Stats::cycles` at
/// the instant the event fired (before any stall the event causes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction fetch went through the I-cache (handler-RAM fetches
    /// are not I-cache traffic and do not appear).
    Fetch {
        /// Fetch address.
        pc: u32,
    },
    /// An I-cache fetch missed.
    FetchMiss {
        /// Miss address.
        pc: u32,
        /// Cycle stamp.
        cycle: u64,
        /// Native (hardware fill) or compressed (exception).
        kind: MissKind,
    },
    /// A hardware I-cache line fill completed.
    IFill {
        /// Line base address.
        base: u32,
        /// Cycle stamp (before the fill stall).
        cycle: u64,
        /// A valid line was displaced.
        evicted: bool,
    },
    /// A D-cache access (load or store).
    DAccess {
        /// Effective address.
        addr: u32,
        /// Store (`true`) or load (`false`).
        store: bool,
        /// Hit in the D-cache.
        hit: bool,
    },
    /// A D-cache line fill completed (every D-miss causes exactly one).
    DFill {
        /// Line base address.
        base: u32,
        /// Cycle stamp (before the fill stall).
        cycle: u64,
        /// A valid line was displaced.
        evicted: bool,
        /// The displaced line was dirty (a writeback was paid).
        dirty: bool,
    },
    /// A decompression exception was taken (compressed-region I-miss).
    ExcEntry {
        /// The missing fetch address (also BADVA/EPC).
        pc: u32,
        /// Cycle stamp at entry, before the entry flush penalty.
        cycle: u64,
    },
    /// The decompression handler returned via `iret`.
    ExcExit {
        /// The address execution resumes at.
        epc: u32,
        /// Cycle stamp after the return flush penalty.
        cycle: u64,
        /// Handler instructions this exception executed (incl. `iret`).
        insns: u64,
        /// Handler cycles this exception cost (entry flush to return
        /// flush, inclusive).
        cycles: u64,
    },
    /// A `swic` instruction wrote a word into the I-cache.
    Swic {
        /// Target word address.
        addr: u32,
        /// The `swic` instruction's own address.
        pc: u32,
        /// The write allocated a line and displaced a valid one.
        evicted: bool,
    },
    /// A conditional branch resolved.
    Branch {
        /// Branch address.
        pc: u32,
        /// Taken.
        taken: bool,
        /// The bimode predictor got it wrong.
        mispredict: bool,
    },
    /// A register jump (`jr`/`jalr`) resolved.
    RegJump {
        /// Jump address.
        pc: u32,
        /// Jump target.
        target: u32,
        /// The return-address stack failed to predict the target
        /// (always `false` for `jalr`, which pays an unconditional
        /// redirect counted as a stall, not a RAS miss).
        ras_miss: bool,
    },
    /// Stall cycles were charged to one cause.
    Stall {
        /// The cause bucket.
        cause: StallCause,
        /// How many cycles.
        cycles: u64,
        /// The stall accrued inside the exception handler (these cycles
        /// are also part of `handler_cycles`).
        handler: bool,
    },
    /// An instruction committed.
    Commit {
        /// Instruction address.
        pc: u32,
        /// Committed inside the exception handler.
        handler: bool,
    },
    /// Execution entered a profiled region at its first instruction.
    /// Not emitted by the machine: a [`crate::RegionProfiler`] sink
    /// derives it and forwards it right after the entering `Commit`.
    RegionEntry {
        /// Region id.
        region: u32,
        /// The region's first instruction address.
        pc: u32,
        /// Cycle stamp.
        cycle: u64,
    },
}

/// Event kinds, for filtering. `Exc` covers both entry and exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// [`TraceEvent::Fetch`].
    Fetch,
    /// [`TraceEvent::FetchMiss`].
    IMiss,
    /// [`TraceEvent::IFill`].
    IFill,
    /// [`TraceEvent::DAccess`].
    DAccess,
    /// [`TraceEvent::DFill`].
    DFill,
    /// [`TraceEvent::ExcEntry`] and [`TraceEvent::ExcExit`].
    Exc,
    /// [`TraceEvent::Swic`].
    Swic,
    /// [`TraceEvent::Branch`].
    Branch,
    /// [`TraceEvent::RegJump`].
    RegJump,
    /// [`TraceEvent::Stall`].
    Stall,
    /// [`TraceEvent::Commit`].
    Commit,
    /// [`TraceEvent::RegionEntry`].
    Region,
}

/// All kinds, in filter-name order.
pub const EVENT_KINDS: [(EventKind, &str); 12] = [
    (EventKind::Fetch, "fetch"),
    (EventKind::IMiss, "imiss"),
    (EventKind::IFill, "ifill"),
    (EventKind::DAccess, "daccess"),
    (EventKind::DFill, "dfill"),
    (EventKind::Exc, "exc"),
    (EventKind::Swic, "swic"),
    (EventKind::Branch, "branch"),
    (EventKind::RegJump, "regjump"),
    (EventKind::Stall, "stall"),
    (EventKind::Commit, "commit"),
    (EventKind::Region, "region"),
];

impl TraceEvent {
    /// The kind of this event (its filter bucket).
    pub fn kind(&self) -> EventKind {
        match self {
            TraceEvent::Fetch { .. } => EventKind::Fetch,
            TraceEvent::FetchMiss { .. } => EventKind::IMiss,
            TraceEvent::IFill { .. } => EventKind::IFill,
            TraceEvent::DAccess { .. } => EventKind::DAccess,
            TraceEvent::DFill { .. } => EventKind::DFill,
            TraceEvent::ExcEntry { .. } | TraceEvent::ExcExit { .. } => EventKind::Exc,
            TraceEvent::Swic { .. } => EventKind::Swic,
            TraceEvent::Branch { .. } => EventKind::Branch,
            TraceEvent::RegJump { .. } => EventKind::RegJump,
            TraceEvent::Stall { .. } => EventKind::Stall,
            TraceEvent::Commit { .. } => EventKind::Commit,
            TraceEvent::RegionEntry { .. } => EventKind::Region,
        }
    }

    /// Serializes this event as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        match *self {
            TraceEvent::Fetch { pc } => format!("{{\"ev\":\"fetch\",\"pc\":{pc}}}"),
            TraceEvent::FetchMiss { pc, cycle, kind } => format!(
                "{{\"ev\":\"imiss\",\"pc\":{pc},\"cycle\":{cycle},\"kind\":\"{}\"}}",
                match kind {
                    MissKind::Native => "native",
                    MissKind::Compressed => "compressed",
                }
            ),
            TraceEvent::IFill {
                base,
                cycle,
                evicted,
            } => format!(
                "{{\"ev\":\"ifill\",\"base\":{base},\"cycle\":{cycle},\"evicted\":{evicted}}}"
            ),
            TraceEvent::DAccess { addr, store, hit } => {
                format!("{{\"ev\":\"daccess\",\"addr\":{addr},\"store\":{store},\"hit\":{hit}}}")
            }
            TraceEvent::DFill {
                base,
                cycle,
                evicted,
                dirty,
            } => format!(
                "{{\"ev\":\"dfill\",\"base\":{base},\"cycle\":{cycle},\"evicted\":{evicted},\"dirty\":{dirty}}}"
            ),
            TraceEvent::ExcEntry { pc, cycle } => {
                format!("{{\"ev\":\"exc_entry\",\"pc\":{pc},\"cycle\":{cycle}}}")
            }
            TraceEvent::ExcExit {
                epc,
                cycle,
                insns,
                cycles,
            } => format!(
                "{{\"ev\":\"exc_exit\",\"epc\":{epc},\"cycle\":{cycle},\"insns\":{insns},\"cycles\":{cycles}}}"
            ),
            TraceEvent::Swic { addr, pc, evicted } => {
                format!("{{\"ev\":\"swic\",\"addr\":{addr},\"pc\":{pc},\"evicted\":{evicted}}}")
            }
            TraceEvent::Branch {
                pc,
                taken,
                mispredict,
            } => format!(
                "{{\"ev\":\"branch\",\"pc\":{pc},\"taken\":{taken},\"mispredict\":{mispredict}}}"
            ),
            TraceEvent::RegJump {
                pc,
                target,
                ras_miss,
            } => format!(
                "{{\"ev\":\"regjump\",\"pc\":{pc},\"target\":{target},\"ras_miss\":{ras_miss}}}"
            ),
            TraceEvent::Stall {
                cause,
                cycles,
                handler,
            } => format!(
                "{{\"ev\":\"stall\",\"cause\":\"{}\",\"cycles\":{cycles},\"handler\":{handler}}}",
                cause.name()
            ),
            TraceEvent::Commit { pc, handler } => {
                format!("{{\"ev\":\"commit\",\"pc\":{pc},\"handler\":{handler}}}")
            }
            TraceEvent::RegionEntry { region, pc, cycle } => {
                format!("{{\"ev\":\"region\",\"region\":{region},\"pc\":{pc},\"cycle\":{cycle}}}")
            }
        }
    }
}

/// A region definition line in a trace preamble: maps a region id (as
/// carried by [`TraceEvent::RegionEntry`] and joined against exception
/// addresses) to a named address range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionDef {
    /// Region id.
    pub id: u32,
    /// Region (procedure) name.
    pub name: String,
    /// First byte of the region.
    pub start: u32,
    /// One past the last byte.
    pub end: u32,
}

/// One parsed line of a JSONL trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceLine {
    /// A machine event.
    Event(TraceEvent),
    /// A region definition (preamble).
    RegionDef(RegionDef),
    /// Trace metadata (preamble): benchmark and scheme names.
    Meta {
        /// Benchmark name.
        bench: String,
        /// Scheme name (`native`, `d`, `cp+rf`, ...).
        scheme: String,
    },
}

/// Typed access to the fields of one parsed trace line.
struct Fields(Json);

impl Fields {
    fn get<'a, T>(&'a self, key: &str, conv: impl Fn(&'a Json) -> Option<T>) -> Result<T, String> {
        let v = self
            .0
            .get(key)
            .ok_or_else(|| format!("missing field `{key}`"))?;
        conv(v).ok_or_else(|| format!("bad field `{key}`"))
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        self.get(key, |v| v.as_u64()?.try_into().ok())
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key, Json::as_u64)
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        self.get(key, Json::as_bool)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.get(key, Json::as_str)
    }
}

/// Parses one JSONL trace line (event, region definition, or metadata).
///
/// # Errors
///
/// A description of the malformed line.
pub fn parse_line(line: &str) -> Result<TraceLine, String> {
    let f = Fields(json::parse(line).map_err(|e| e.to_string())?);
    let event = match f.str("ev")? {
        "meta" => {
            return Ok(TraceLine::Meta {
                bench: f.str("bench")?.to_string(),
                scheme: f.str("scheme")?.to_string(),
            })
        }
        "region_def" => {
            return Ok(TraceLine::RegionDef(RegionDef {
                id: f.u32("id")?,
                name: f.str("name")?.to_string(),
                start: f.u32("start")?,
                end: f.u32("end")?,
            }))
        }
        "fetch" => TraceEvent::Fetch { pc: f.u32("pc")? },
        "imiss" => TraceEvent::FetchMiss {
            pc: f.u32("pc")?,
            cycle: f.u64("cycle")?,
            kind: match f.str("kind")? {
                "native" => MissKind::Native,
                "compressed" => MissKind::Compressed,
                other => return Err(format!("bad miss kind `{other}`")),
            },
        },
        "ifill" => TraceEvent::IFill {
            base: f.u32("base")?,
            cycle: f.u64("cycle")?,
            evicted: f.bool("evicted")?,
        },
        "daccess" => TraceEvent::DAccess {
            addr: f.u32("addr")?,
            store: f.bool("store")?,
            hit: f.bool("hit")?,
        },
        "dfill" => TraceEvent::DFill {
            base: f.u32("base")?,
            cycle: f.u64("cycle")?,
            evicted: f.bool("evicted")?,
            dirty: f.bool("dirty")?,
        },
        "exc_entry" => TraceEvent::ExcEntry {
            pc: f.u32("pc")?,
            cycle: f.u64("cycle")?,
        },
        "exc_exit" => TraceEvent::ExcExit {
            epc: f.u32("epc")?,
            cycle: f.u64("cycle")?,
            insns: f.u64("insns")?,
            cycles: f.u64("cycles")?,
        },
        "swic" => TraceEvent::Swic {
            addr: f.u32("addr")?,
            pc: f.u32("pc")?,
            evicted: f.bool("evicted")?,
        },
        "branch" => TraceEvent::Branch {
            pc: f.u32("pc")?,
            taken: f.bool("taken")?,
            mispredict: f.bool("mispredict")?,
        },
        "regjump" => TraceEvent::RegJump {
            pc: f.u32("pc")?,
            target: f.u32("target")?,
            ras_miss: f.bool("ras_miss")?,
        },
        "stall" => TraceEvent::Stall {
            cause: StallCause::by_name(f.str("cause")?)
                .ok_or_else(|| format!("bad stall cause in `{line}`"))?,
            cycles: f.u64("cycles")?,
            handler: f.bool("handler")?,
        },
        "commit" => TraceEvent::Commit {
            pc: f.u32("pc")?,
            handler: f.bool("handler")?,
        },
        "region" => TraceEvent::RegionEntry {
            region: f.u32("region")?,
            pc: f.u32("pc")?,
            cycle: f.u64("cycle")?,
        },
        other => return Err(format!("unknown event `{other}`")),
    };
    Ok(TraceLine::Event(event))
}

/// A receiver for machine events.
///
/// Implementations with [`TraceSink::ENABLED`]` == false` (only
/// [`NoTrace`]) make the machine skip event construction entirely — the
/// guard is a compile-time constant, so the no-trace fast path is
/// byte-for-byte the untraced machine.
pub trait TraceSink {
    /// Whether the machine should emit events at all. Leave at the
    /// default `true` for any sink that actually observes events.
    const ENABLED: bool = true;

    /// Receives one event.
    fn event(&mut self, ev: &TraceEvent);
}

/// The default sink: no tracing, zero overhead.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl TraceSink for NoTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _: &TraceEvent) {}
}

/// Collects every event in memory (tests, in-process analysis).
#[derive(Debug, Default)]
pub struct VecSink {
    /// The events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// Selects which event kinds a [`JsonlTracer`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter(u16);

impl TraceFilter {
    /// Every event kind.
    pub fn all() -> TraceFilter {
        TraceFilter(!0)
    }

    /// No event kinds (build up with [`TraceFilter::with`]).
    pub fn none() -> TraceFilter {
        TraceFilter(0)
    }

    /// Adds one kind.
    pub fn with(self, kind: EventKind) -> TraceFilter {
        TraceFilter(self.0 | 1 << kind as u16)
    }

    /// Does the filter pass `kind`?
    pub fn allows(self, kind: EventKind) -> bool {
        self.0 & (1 << kind as u16) != 0
    }

    /// Parses a comma-separated kind list (`"exc,swic,stall"`). The names
    /// are those of [`EVENT_KINDS`]; `"all"` selects everything.
    ///
    /// # Errors
    ///
    /// Names the unknown kind and lists the valid ones.
    pub fn parse(spec: &str) -> Result<TraceFilter, String> {
        if spec == "all" {
            return Ok(TraceFilter::all());
        }
        let mut f = TraceFilter::none();
        for name in spec.split(',').filter(|s| !s.is_empty()) {
            match EVENT_KINDS.iter().find(|(_, n)| *n == name) {
                Some((kind, _)) => f = f.with(*kind),
                None => {
                    let valid: Vec<&str> = EVENT_KINDS.iter().map(|(_, n)| *n).collect();
                    return Err(format!(
                        "unknown event kind `{name}` (valid: all,{})",
                        valid.join(",")
                    ));
                }
            }
        }
        Ok(f)
    }
}

/// Writes filtered events as JSON Lines to any [`Write`] target.
///
/// Hand the tracer a buffered writer: traces run to one line per event
/// and the tracer writes each line individually.
#[derive(Debug)]
pub struct JsonlTracer<W: Write> {
    out: W,
    filter: TraceFilter,
    /// First I/O error, if any (the machine's event path cannot return
    /// errors; check [`JsonlTracer::finish`]).
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlTracer<W> {
    /// A tracer recording every event kind.
    pub fn new(out: W) -> JsonlTracer<W> {
        JsonlTracer::with_filter(out, TraceFilter::all())
    }

    /// A tracer recording only the kinds `filter` allows.
    pub fn with_filter(out: W, filter: TraceFilter) -> JsonlTracer<W> {
        JsonlTracer {
            out,
            filter,
            error: None,
        }
    }

    fn write_line(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }

    /// Writes a metadata preamble line.
    pub fn write_meta(&mut self, bench: &str, scheme: &str) {
        self.write_line(&format!(
            "{{\"ev\":\"meta\",\"bench\":{},\"scheme\":{}}}",
            json::escape(bench),
            json::escape(scheme)
        ));
    }

    /// Writes one region-definition preamble line.
    pub fn write_region_def(&mut self, def: &RegionDef) {
        self.write_line(&format!(
            "{{\"ev\":\"region_def\",\"id\":{},\"name\":{},\"start\":{},\"end\":{}}}",
            def.id,
            json::escape(&def.name),
            def.start,
            def.end
        ));
    }

    /// Flushes and returns the writer, or the first I/O error hit while
    /// tracing.
    ///
    /// # Errors
    ///
    /// The first write or flush error.
    pub fn finish(mut self) -> std::io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> TraceSink for JsonlTracer<W> {
    fn event(&mut self, ev: &TraceEvent) {
        if self.filter.allows(ev.kind()) {
            let line = ev.to_jsonl();
            self.write_line(&line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Fetch { pc: 0x1000 },
            TraceEvent::FetchMiss {
                pc: 0x1000,
                cycle: 17,
                kind: MissKind::Native,
            },
            TraceEvent::FetchMiss {
                pc: 0x2000,
                cycle: 99,
                kind: MissKind::Compressed,
            },
            TraceEvent::IFill {
                base: 0x1000,
                cycle: 17,
                evicted: true,
            },
            TraceEvent::DAccess {
                addr: 0x1000_0004,
                store: true,
                hit: false,
            },
            TraceEvent::DFill {
                base: 0x1000_0000,
                cycle: 40,
                evicted: true,
                dirty: true,
            },
            TraceEvent::ExcEntry {
                pc: 0x2000,
                cycle: 99,
            },
            TraceEvent::ExcExit {
                epc: 0x2000,
                cycle: 400,
                insns: 120,
                cycles: 301,
            },
            TraceEvent::Swic {
                addr: 0x2000,
                pc: 0x0ff0_0018,
                evicted: false,
            },
            TraceEvent::Branch {
                pc: 0x1010,
                taken: true,
                mispredict: false,
            },
            TraceEvent::RegJump {
                pc: 0x1020,
                target: 0x1400,
                ras_miss: true,
            },
            TraceEvent::Stall {
                cause: StallCause::Hilo,
                cycles: 11,
                handler: false,
            },
            TraceEvent::Commit {
                pc: 0x1000,
                handler: false,
            },
            TraceEvent::RegionEntry {
                region: 3,
                pc: 0x1400,
                cycle: 55,
            },
        ]
    }

    #[test]
    fn every_event_roundtrips_through_jsonl() {
        for ev in samples() {
            let line = ev.to_jsonl();
            assert_eq!(parse_line(&line), Ok(TraceLine::Event(ev)), "line: {line}");
        }
    }

    #[test]
    fn preamble_lines_roundtrip() {
        // Plain names keep the exact bytes the format has always had; a
        // name with JSON metacharacters and a control byte still reads
        // back whole.
        let hostile = "a\"b\\c,d}\u{1}";
        for (bench, name) in [("go", "p7"), (hostile, hostile)] {
            let mut t = JsonlTracer::new(Vec::new());
            t.write_meta(bench, "d+rf");
            let def = RegionDef {
                id: 7,
                name: name.into(),
                start: 0x1200,
                end: 0x1300,
            };
            t.write_region_def(&def);
            let text = String::from_utf8(t.finish().unwrap()).unwrap();
            if bench == "go" {
                assert_eq!(
                    text,
                    "{\"ev\":\"meta\",\"bench\":\"go\",\"scheme\":\"d+rf\"}\n\
                     {\"ev\":\"region_def\",\"id\":7,\"name\":\"p7\",\"start\":4608,\"end\":4864}\n"
                );
            }
            let mut lines = text.lines();
            assert_eq!(
                parse_line(lines.next().unwrap()),
                Ok(TraceLine::Meta {
                    bench: bench.into(),
                    scheme: "d+rf".into()
                })
            );
            assert_eq!(
                parse_line(lines.next().unwrap()),
                Ok(TraceLine::RegionDef(def))
            );
            assert_eq!(lines.next(), None);
        }
    }

    #[test]
    fn filter_parse_and_selectivity() {
        let f = TraceFilter::parse("exc,swic").unwrap();
        assert!(f.allows(EventKind::Exc));
        assert!(f.allows(EventKind::Swic));
        assert!(!f.allows(EventKind::Fetch));
        assert!(!f.allows(EventKind::Commit));
        assert!(TraceFilter::parse("all").unwrap().allows(EventKind::Fetch));
        assert!(TraceFilter::parse("bogus").is_err());

        let mut t = JsonlTracer::with_filter(Vec::new(), f);
        for ev in samples() {
            t.event(&ev);
        }
        let text = String::from_utf8(t.finish().unwrap()).unwrap();
        // exc_entry + exc_exit + swic only.
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("exc_entry"));
        assert!(text.contains("exc_exit"));
        assert!(text.contains("\"ev\":\"swic\""));
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let mut v = VecSink::default();
        for ev in samples() {
            v.event(&ev);
        }
        assert_eq!(v.events, samples());
    }

    #[test]
    fn bad_lines_are_rejected_with_context() {
        assert!(parse_line("{}").is_err());
        assert!(parse_line("{\"ev\":\"nope\"}").is_err());
        assert!(parse_line("{\"ev\":\"fetch\"}").is_err()); // missing pc
        assert!(
            parse_line("{\"ev\":\"stall\",\"cause\":\"x\",\"cycles\":1,\"handler\":false}")
                .is_err()
        );
        // Out-of-range numbers are refused, never truncated: a u32
        // field above u32::MAX, and a u64 field above 2^53 (the codec
        // keeps numbers as f64, which cannot tell 2^53 + 1 from 2^53).
        assert!(parse_line("{\"ev\":\"fetch\",\"pc\":4294967296}").is_err());
        assert!(parse_line("{\"ev\":\"exc_entry\",\"pc\":4,\"cycle\":9007199254740993}").is_err());
        assert!(parse_line("{\"ev\":\"fetch\",\"pc\":1.5}").is_err());
        assert!(parse_line("{\"ev\":\"fetch\",\"pc\":4} x").is_err());
    }
}
