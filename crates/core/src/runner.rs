//! Loading images into the simulator and running experiments.

use std::borrow::Borrow;

use rtdc_isa::program::ObjectProgram;
use rtdc_isa::C0Reg;
use rtdc_sim::{
    EngineCounters, Machine, Mode, NoTrace, RegionProfiler, SimConfig, Stats, Step, TraceSink,
};

use crate::builder::build_native;
use crate::error::{BuildError, ImageError, RunError};
use crate::image::{MemoryImage, Verified};
use crate::integrity::{crc32, LINE_BYTES};
use crate::select::ProcedureProfile;

/// Result of running an image to completion.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Program exit code.
    pub exit_code: u32,
    /// Final statistics.
    pub stats: Stats,
    /// Program output bytes.
    pub output: Vec<u8>,
    /// Host wall-clock time spent inside the simulator's run loop (load
    /// and image construction excluded). Host-side only: never feeds back
    /// into `stats`, which stay exactly comparable across hosts.
    pub wall: std::time::Duration,
    /// How the simulator's translated loop split the run between
    /// program blocks, handler traces and single steps. Host-side like
    /// `wall`, and all zero for a single-stepped run.
    pub engine: EngineCounters,
}

impl RunReport {
    /// Simulator throughput in millions of simulated instructions per
    /// host wall-clock second (0.0 for a degenerate zero-length run).
    pub fn sim_mips(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.stats.insns as f64 / secs / 1e6
    }
}

/// Loads a verified image into a fresh machine (segments, C0 registers,
/// handler and compressed regions, entry PC and stack pointer) with
/// `sink` attached. This is the one path from an image into simulated
/// memory; the [`Verified`] token proves the integrity check already
/// ran, so loading cannot fail.
///
/// The configuration's `second_regfile` flag is forced to match the image
/// so a non-RF handler never runs with banked registers or vice versa.
pub fn load_verified<I: Borrow<MemoryImage>, S: TraceSink>(
    image: &Verified<I>,
    config: SimConfig,
    sink: S,
) -> Machine<S> {
    let cfg = config.with_second_regfile(image.second_regfile);
    let mut m = Machine::with_sink(cfg, sink);
    for seg in &image.segments {
        m.mem_mut().write_bytes(seg.base, &seg.bytes);
    }
    for &(c0, value) in &image.c0_init {
        m.set_c0(c0, value);
    }
    if let Some((start, end)) = image.handler_range {
        m.set_handler_range(start, end);
    }
    if let Some((start, end)) = image.compressed_range {
        m.set_compressed_range(start, end);
    }
    m.set_pc(image.entry);
    m.set_reg(rtdc_isa::Reg::SP, image.initial_sp);
    m
}

/// Verifies `image` against its build-time integrity digests, then
/// loads it untraced ([`load_verified`]).
///
/// # Errors
///
/// [`ImageError`] if any segment fails its length or CRC32 check — a
/// corrupt image is rejected before a single byte reaches simulated
/// memory.
pub fn load_image(image: &MemoryImage, config: SimConfig) -> Result<Machine, ImageError> {
    Ok(load_verified(&image.verify_integrity()?, config, NoTrace))
}

/// Verifies `image`, then runs it to completion under `config`
/// untraced ([`run_image_with_sink`] with [`NoTrace`]).
///
/// # Errors
///
/// Returns [`RunError::CorruptImage`] if the image fails its integrity
/// check, or [`RunError::Sim`] on any simulator fault (including
/// exceeding `max_insns`).
pub fn run_image(
    image: &MemoryImage,
    config: SimConfig,
    max_insns: u64,
) -> Result<RunReport, RunError> {
    run_image_with_sink(&image.verify_integrity()?, config, max_insns, NoTrace)
        .map(|(report, NoTrace)| report)
}

/// Runs a verified image to completion with a trace sink attached,
/// returning the report and the sink (e.g. a [`rtdc_sim::JsonlTracer`]
/// to `finish()`, or a [`rtdc_sim::VecSink`] full of events). An enabled
/// sink is wrapped in a [`rtdc_sim::RegionProfiler`] over the image's
/// procedure regions, so it also sees a
/// [`rtdc_sim::TraceEvent::RegionEntry`] after every procedure-entering
/// commit. A disabled sink ([`NoTrace`]) would see nothing, so it runs
/// bare and the machine keeps its block engine — the plain run
/// [`run_image`] performs.
///
/// # Errors
///
/// Returns [`RunError::Sim`] on any simulator fault (including
/// exceeding `max_insns`).
pub fn run_image_with_sink<I: Borrow<MemoryImage>, S: TraceSink>(
    image: &Verified<I>,
    config: SimConfig,
    max_insns: u64,
    sink: S,
) -> Result<(RunReport, S), RunError> {
    if !S::ENABLED {
        return run_loaded(load_verified(image, config, sink), max_insns);
    }
    let profiler = RegionProfiler::wrapping(image.proc_regions.clone(), image.proc_count(), sink);
    let (report, profiler) = run_loaded(load_verified(image, config, profiler), max_insns)?;
    Ok((report, profiler.into_inner()))
}

/// Runs a loaded machine to completion, timing only the run loop.
fn run_loaded<S: TraceSink>(mut m: Machine<S>, max_insns: u64) -> Result<(RunReport, S), RunError> {
    let started = std::time::Instant::now();
    let outcome = m.run(max_insns)?;
    let wall = started.elapsed();
    let report = RunReport {
        exit_code: outcome.exit_code,
        stats: *m.stats(),
        output: m.output().to_vec(),
        wall,
        engine: m.engine(),
    };
    Ok((report, m.into_sink()))
}

/// Runs `image` to completion re-verifying every handler fill — the
/// `--verify-lines` mode.
///
/// After each decompression exception returns (`iret`), the 32-byte
/// lines of the decode unit around the faulting address are read back
/// from the I-cache, CRC32'd, and compared against the build-time
/// reference measurements in [`MemoryImage::line_crcs`]. Lines evicted
/// before the check (possible only in pathologically small caches) are
/// skipped rather than misreported. Native images and native-region
/// misses are unaffected — only compressed fills carry references.
///
/// The simulated machine and its [`Stats`] are exactly those of
/// [`run_image`]; verification reads the cache purely from the host
/// side, so only host wall-clock time (and therefore
/// [`RunReport::sim_mips`]) differs.
///
/// # Errors
///
/// [`RunError::CorruptImage`] at load, [`RunError::CorruptFill`] at the
/// first miss whose fill does not match its reference CRC, or
/// [`RunError::Sim`] as [`run_image`].
pub fn run_image_verified(
    image: &MemoryImage,
    config: SimConfig,
    max_insns: u64,
) -> Result<RunReport, RunError> {
    let mut m = load_verified(&image.verify_integrity()?, config, NoTrace);
    let region = image
        .compressed_range
        .filter(|_| !image.line_crcs.is_empty());
    let unit_bytes = image
        .scheme
        .map(|s| 4 * s.codec().unit_words() as u32)
        .unwrap_or(LINE_BYTES as u32);

    let started = std::time::Instant::now();
    let mut in_handler = false;
    let mut badva = 0u32;
    let exit_code = loop {
        match m.step().map_err(RunError::Sim)? {
            Step::Exited(code) => break code,
            Step::Continue => {}
        }
        match (in_handler, m.mode()) {
            (false, Mode::Exception) => {
                in_handler = true;
                badva = m.c0(C0Reg::BADVA);
            }
            (true, Mode::Normal) => {
                in_handler = false;
                if let Some((base, end)) = region {
                    if (base..end).contains(&badva) {
                        verify_filled_unit(&m, image, base, badva, unit_bytes)?;
                    }
                }
            }
            _ => {}
        }
        if m.stats().insns >= max_insns {
            return Err(RunError::Sim(rtdc_sim::SimError::InsnLimitExceeded {
                limit: max_insns,
            }));
        }
    };
    let wall = started.elapsed();
    Ok(RunReport {
        exit_code,
        stats: *m.stats(),
        output: m.output().to_vec(),
        wall,
        engine: m.engine(),
    })
}

/// Checks every fully-resident 32-byte line of the decode unit
/// containing `badva` against its build-time reference CRC.
fn verify_filled_unit<S: TraceSink>(
    m: &Machine<S>,
    image: &MemoryImage,
    region_base: u32,
    badva: u32,
    unit_bytes: u32,
) -> Result<(), RunError> {
    let unit_base = region_base + (badva - region_base) / unit_bytes * unit_bytes;
    for line_addr in (unit_base..unit_base + unit_bytes).step_by(LINE_BYTES) {
        let line_index = ((line_addr - region_base) as usize) / LINE_BYTES;
        let Some(&expected) = image.line_crcs.get(line_index) else {
            continue;
        };
        let mut bytes = [0u8; LINE_BYTES];
        let mut resident = true;
        for (k, word_addr) in (line_addr..line_addr + LINE_BYTES as u32)
            .step_by(4)
            .enumerate()
        {
            match m.icache().read_word(word_addr) {
                Some(w) => bytes[4 * k..4 * k + 4].copy_from_slice(&w.to_le_bytes()),
                None => {
                    resident = false;
                    break;
                }
            }
        }
        if !resident {
            continue;
        }
        let actual = crc32(&bytes);
        if actual != expected {
            return Err(RunError::CorruptFill {
                line_addr,
                expected,
                actual,
            });
        }
    }
    Ok(())
}

/// Profiles a program natively (§3.3/§4.2: profiles come from the original
/// uncompressed binary): runs the native image under `config` with a
/// [`RegionProfiler`] sink collecting per-procedure dynamic-instruction
/// and I-miss counts.
///
/// # Errors
///
/// Build errors from the native image or simulator faults while profiling.
pub fn profile_native(
    program: &ObjectProgram,
    config: SimConfig,
    max_insns: u64,
) -> Result<(RunReport, ProcedureProfile), ProfileError> {
    let image = build_native(program).map_err(ProfileError::Build)?;
    let image = Verified::new(image).map_err(|e| ProfileError::Run(RunError::CorruptImage(e)))?;
    let profiler = RegionProfiler::new(image.proc_regions.clone(), image.proc_count());
    let m = load_verified(&image, config, profiler);
    let (report, profiler) = run_loaded(m, max_insns).map_err(ProfileError::Run)?;
    let profile = ProcedureProfile {
        names: image.proc_names.clone(),
        exec: profiler.exec_counts().to_vec(),
        miss: profiler.miss_counts().to_vec(),
        entry_trace: profiler.entry_trace().to_vec(),
        entry_trace_truncated: profiler.truncated(),
    };
    Ok((report, profile))
}

/// Errors from [`profile_native`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProfileError {
    /// Building the native image failed.
    Build(BuildError),
    /// Running the native image failed.
    Run(RunError),
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Build(e) => write!(f, "profiling build failed: {e}"),
            ProfileError::Run(e) => write!(f, "profiling run failed: {e}"),
        }
    }
}

impl std::error::Error for ProfileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProfileError::Build(e) => Some(e),
            ProfileError::Run(e) => Some(e),
        }
    }
}
