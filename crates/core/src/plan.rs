//! Compression plans: the IR every compressed build is driven by.
//!
//! A [`CompressionPlan`] records, per procedure, whether it stays native
//! or is compressed (and under which registry scheme), plus a global
//! **layout rank** — the within-region placement order, so a plan can
//! cluster procedures whose lines miss together (Ozturk et al.'s
//! access-pattern-driven placement). Provenance metadata (where the plan
//! came from and how many optimizer iterations produced it) rides along
//! so a checked-in plan explains itself.
//!
//! Plans have a canonical line-oriented text form, roundtripped exactly
//! like [`FaultPlan`](crate::fault::FaultPlan) specs:
//!
//! ```text
//! rtdc-plan v1 scheme=d+rf source=trace iter=3 procs=4
//! 0 d 1
//! 1 native 0
//! 2 d 2
//! 3 d 3
//! ```
//!
//! The header carries the image-wide scheme (with the optional `+rf`
//! handler-variant suffix, as accepted by [`Scheme::parse`]); each
//! procedure line is `<id> <native|scheme-name> <rank>`. Ranks must form
//! a permutation of `0..procs`: procedure ids sorted by rank are exactly
//! the within-region layout order [`build_planned`] uses. Parsing is
//! panic-free and every malformed input maps to a typed [`PlanError`].
//!
//! Per-procedure scheme names exist in the IR for forward compatibility
//! with per-region codecs (Hirvola's thesis argues for choosing the
//! scheme per region), but today's images carry exactly one resident
//! handler, so [`CompressionPlan::validate`] rejects a plan whose
//! compressed procedures name more than the header scheme
//! ([`PlanError::MixedSchemes`]).
//!
//! [`build_planned`]: crate::builder::build_planned

#![deny(clippy::cast_possible_truncation)]

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use rtdc_isa::program::ObjectProgram;

use crate::builder::{build_native, build_planned};
use crate::error::BuildError;
use crate::image::{MemoryImage, Scheme};
use crate::select::Selection;

/// Where a plan came from — provenance, not semantics: two plans with
/// identical decisions build identical images regardless of source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// Derived from a static profile heuristic (the paper's §3.3
    /// threshold selection), or the plan of a uniform [`ImageSpec`].
    Heuristic,
    /// Derived from trace analytics by the closed-loop optimizer
    /// (`rtdc-bench`'s `planopt`).
    Trace,
    /// Hand-written or hand-edited.
    Manual,
}

impl PlanSource {
    /// The serialized name (`heuristic` / `trace` / `manual`).
    pub fn name(self) -> &'static str {
        match self {
            PlanSource::Heuristic => "heuristic",
            PlanSource::Trace => "trace",
            PlanSource::Manual => "manual",
        }
    }

    /// Parses a serialized source name.
    pub fn parse(name: &str) -> Option<PlanSource> {
        Some(match name {
            "heuristic" => PlanSource::Heuristic,
            "trace" => PlanSource::Trace,
            "manual" => PlanSource::Manual,
            _ => return None,
        })
    }
}

impl fmt::Display for PlanSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One procedure's decision in a [`CompressionPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcDecision {
    /// `None` keeps the procedure native; `Some(scheme)` compresses it.
    /// Today the scheme must match the plan's header scheme (see
    /// [`PlanError::MixedSchemes`]).
    pub scheme: Option<Scheme>,
    /// Global layout rank: procedures are laid out within their region
    /// (compressed first, then native) in ascending rank. Ranks form a
    /// permutation of `0..procs`.
    pub rank: u32,
}

/// A complete per-procedure compression plan for one program image.
///
/// This is the single input [`build_planned`] consumes.
///
/// [`build_planned`]: crate::builder::build_planned
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressionPlan {
    /// The image-wide scheme (selects codec + resident handler).
    pub scheme: Scheme,
    /// Use the §4.1 second-register-file handler variant.
    pub second_rf: bool,
    /// Provenance: where the decisions came from.
    pub source: PlanSource,
    /// How many optimizer iterations produced this plan (0 for
    /// heuristic or manual plans).
    pub iteration: u32,
    /// Per-procedure decisions, indexed by procedure id.
    pub procs: Vec<ProcDecision>,
}

/// Errors constructing or parsing a [`CompressionPlan`]. Every variant
/// is a typed rejection — plan handling never panics on bad input.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// The header line is malformed.
    BadHeader {
        /// What was wrong with it.
        reason: String,
    },
    /// A procedure line is malformed.
    BadLine {
        /// The offending line.
        line: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A scheme name is not in the registry.
    UnknownScheme {
        /// The unknown name.
        name: String,
    },
    /// A provenance source name is not `heuristic`/`trace`/`manual`.
    UnknownSource {
        /// The unknown name.
        name: String,
    },
    /// A procedure id is outside `0..procs`.
    ProcOutOfRange {
        /// The offending id.
        id: usize,
        /// The plan's procedure count.
        procs: usize,
    },
    /// A procedure id appears twice.
    DuplicateProc {
        /// The repeated id.
        id: usize,
    },
    /// More procedures than 32-bit layout ranks can order.
    TooManyProcs {
        /// The procedure count asked for.
        procs: usize,
    },
    /// A layout rank is outside `0..procs`.
    RankOutOfRange {
        /// The offending rank.
        rank: u32,
        /// The plan's procedure count.
        procs: usize,
    },
    /// A layout rank appears twice (ranks must be a permutation).
    DuplicateRank {
        /// The repeated rank.
        rank: u32,
    },
    /// A compressed procedure names a scheme other than the plan's
    /// header scheme. Reserved for future per-region codec support;
    /// today's images carry exactly one resident handler.
    MixedSchemes {
        /// The offending procedure id.
        id: usize,
    },
    /// The number of procedure lines (or plan entries) disagrees with
    /// the declared count.
    WrongProcCount {
        /// The declared count.
        declared: usize,
        /// How many were actually present.
        actual: usize,
    },
    /// The plan was built for a different procedure count than the
    /// program being built.
    ProcCountMismatch {
        /// Procedures in the plan.
        plan: usize,
        /// Procedures in the program.
        program: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::BadHeader { reason } => write!(f, "bad plan header: {reason}"),
            PlanError::BadLine { line, reason } => {
                write!(f, "bad plan line `{line}`: {reason}")
            }
            PlanError::UnknownScheme { name } => write!(f, "unknown scheme `{name}`"),
            PlanError::UnknownSource { name } => write!(f, "unknown plan source `{name}`"),
            PlanError::ProcOutOfRange { id, procs } => {
                write!(f, "procedure id {id} out of range (plan has {procs})")
            }
            PlanError::DuplicateProc { id } => write!(f, "procedure id {id} appears twice"),
            PlanError::TooManyProcs { procs } => {
                write!(f, "{procs} procedures do not fit 32-bit layout ranks")
            }
            PlanError::RankOutOfRange { rank, procs } => {
                write!(
                    f,
                    "layout rank {rank} out of range (plan has {procs} procedures)"
                )
            }
            PlanError::DuplicateRank { rank } => write!(
                f,
                "layout rank {rank} appears twice (ranks must be a permutation)"
            ),
            PlanError::MixedSchemes { id } => write!(
                f,
                "procedure {id} names a different scheme than the plan header \
                 (one resident handler per image)"
            ),
            PlanError::WrongProcCount { declared, actual } => write!(
                f,
                "plan declares {declared} procedures but carries {actual}"
            ),
            PlanError::ProcCountMismatch { plan, program } => write!(
                f,
                "plan built for {plan} procedures but program has {program}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Parsing refuses to allocate for absurd declared counts, so a
/// garbage header cannot OOM the process.
const MAX_PROCS: usize = 1 << 20;

impl CompressionPlan {
    /// The plan of a selective build in link order: `selection` decides
    /// native vs. compressed and every procedure keeps its original link
    /// order (rank = id), as the paper's implementation does (§5.3).
    pub fn uniform(
        scheme: Scheme,
        second_rf: bool,
        source: PlanSource,
        selection: &Selection,
    ) -> CompressionPlan {
        let order: Vec<usize> = (0..selection.proc_count()).collect();
        CompressionPlan::from_order(scheme, second_rf, source, 0, selection, &order)
            .expect("identity order is always a valid permutation")
    }

    /// Builds a plan from a [`Selection`] plus an explicit layout order,
    /// e.g. [`placement_hot_first`](crate::select::placement_hot_first):
    /// `order[i]` is the procedure placed at rank `i`.
    ///
    /// # Errors
    ///
    /// [`PlanError::TooManyProcs`] if the selection has more procedures
    /// than 32-bit ranks can order, [`PlanError::WrongProcCount`] if
    /// `order`'s length differs from the selection's procedure count,
    /// [`PlanError::ProcOutOfRange`] / [`PlanError::DuplicateProc`] if
    /// it is not a permutation.
    pub fn from_order(
        scheme: Scheme,
        second_rf: bool,
        source: PlanSource,
        iteration: u32,
        selection: &Selection,
        order: &[usize],
    ) -> Result<CompressionPlan, PlanError> {
        let n = selection.proc_count();
        let ranks = u32::try_from(n).map_err(|_| PlanError::TooManyProcs { procs: n })?;
        if order.len() != n {
            return Err(PlanError::WrongProcCount {
                declared: n,
                actual: order.len(),
            });
        }
        let mut procs: Vec<ProcDecision> = (0..n)
            .map(|id| ProcDecision {
                scheme: (!selection.is_native(id)).then_some(scheme),
                rank: 0,
            })
            .collect();
        let mut seen = vec![false; n];
        // `order` has exactly `n` entries, so the ranks cover it.
        for (rank, &id) in (0..ranks).zip(order) {
            if id >= n {
                return Err(PlanError::ProcOutOfRange { id, procs: n });
            }
            if seen[id] {
                return Err(PlanError::DuplicateProc { id });
            }
            seen[id] = true;
            procs[id].rank = rank;
        }
        Ok(CompressionPlan {
            scheme,
            second_rf,
            source,
            iteration,
            procs,
        })
    }

    /// Number of procedures the plan covers.
    pub fn proc_count(&self) -> usize {
        self.procs.len()
    }

    /// Number of procedures kept native.
    pub fn native_count(&self) -> usize {
        self.procs.iter().filter(|d| d.scheme.is_none()).count()
    }

    /// The native/compressed split as a [`Selection`].
    pub fn selection(&self) -> Selection {
        let native: BTreeSet<usize> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, d)| d.scheme.is_none())
            .map(|(id, _)| id)
            .collect();
        Selection::from_native_set(native, self.procs.len())
    }

    /// Procedure ids in layout order (ascending rank). With a validated
    /// plan this is a permutation of `0..procs`.
    pub fn order(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.procs.len()).collect();
        ids.sort_by_key(|&id| (self.procs[id].rank, id));
        ids
    }

    /// Content digest of the plan: a CRC32 over the scheme, handler
    /// variant, and every per-procedure decision — exactly the fields
    /// that determine the bytes of the built image. Provenance
    /// (`source`, `iteration`) is deliberately excluded: two plans with
    /// identical decisions build identical images and therefore share a
    /// digest. This is the plan component of the content-addressed cache
    /// key used by `rtdc-serve` (`(benchmark, scheme label, plan
    /// digest)`).
    pub fn digest(&self) -> u32 {
        use std::fmt::Write as _;
        let mut canon = format!("scheme={}\n", self.scheme.name_rf(self.second_rf));
        for (id, d) in self.procs.iter().enumerate() {
            match d.scheme {
                None => {
                    let _ = writeln!(canon, "{id} native {}", d.rank);
                }
                Some(s) => {
                    let _ = writeln!(canon, "{id} {} {}", s.name(), d.rank);
                }
            }
        }
        crate::integrity::crc32(canon.as_bytes())
    }

    /// Checks internal consistency: ranks form a permutation of
    /// `0..procs` and every compressed procedure uses the header scheme.
    ///
    /// # Errors
    ///
    /// [`PlanError::RankOutOfRange`], [`PlanError::DuplicateRank`], or
    /// [`PlanError::MixedSchemes`].
    pub fn validate(&self) -> Result<(), PlanError> {
        let n = self.procs.len();
        let mut rank_seen = vec![false; n];
        for (id, d) in self.procs.iter().enumerate() {
            if let Some(s) = d.scheme {
                if s != self.scheme {
                    return Err(PlanError::MixedSchemes { id });
                }
            }
            let r = d.rank as usize;
            if r >= n {
                return Err(PlanError::RankOutOfRange {
                    rank: d.rank,
                    procs: n,
                });
            }
            if rank_seen[r] {
                return Err(PlanError::DuplicateRank { rank: d.rank });
            }
            rank_seen[r] = true;
        }
        Ok(())
    }
}

/// An image family: native, a scheme ±rf over every procedure (Table 3's
/// columns), or a plan (hybrids, §4.2, §5.3). The one place a family
/// name is parsed, labelled (`native`, `cp+rf`, `d+plan`) and built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageSpec {
    /// Every procedure native: no handler, no compressed region.
    Native,
    /// Every procedure compressed under `scheme`, in link order.
    Uniform {
        /// The registry scheme.
        scheme: Scheme,
        /// Use the §4.1 second-register-file handler variant.
        rf: bool,
    },
    /// An explicit plan.
    Plan(CompressionPlan),
}

impl ImageSpec {
    /// Parses a family name: `native`, or a registry scheme name with an
    /// optional `+rf` suffix (as [`Scheme::parse`] reads it).
    pub fn parse(arg: &str) -> Option<ImageSpec> {
        if arg == "native" {
            return Some(ImageSpec::Native);
        }
        Scheme::parse(arg).map(|(scheme, rf)| ImageSpec::Uniform { scheme, rf })
    }

    /// `native`, then every registry scheme plain and `+rf`, in registry
    /// order: the nine uniform families.
    pub fn uniform_families() -> impl Iterator<Item = ImageSpec> {
        std::iter::once(ImageSpec::Native).chain(
            Scheme::all()
                .flat_map(|scheme| [false, true].map(|rf| ImageSpec::Uniform { scheme, rf })),
        )
    }

    /// The label in reports, cache keys and traces; [`ImageSpec::parse`]
    /// reads it back for every family but a plan.
    pub fn label(&self) -> String {
        match self {
            ImageSpec::Native => "native".to_string(),
            ImageSpec::Uniform { scheme, rf } => scheme.name_rf(*rf),
            ImageSpec::Plan(plan) => ImageSpec::plan_label(plan.scheme, plan.second_rf),
        }
    }

    /// The label of any plan under `scheme` ±rf (`d+rf+plan`).
    pub fn plan_label(scheme: Scheme, rf: bool) -> String {
        format!("{}+plan", scheme.name_rf(rf))
    }

    /// The plan this family builds for a program of `n_procs`
    /// procedures; `None` for native.
    pub fn plan(&self, n_procs: usize) -> Option<Cow<'_, CompressionPlan>> {
        match self {
            ImageSpec::Native => None,
            ImageSpec::Uniform { scheme, rf } => Some(Cow::Owned(CompressionPlan::uniform(
                *scheme,
                *rf,
                PlanSource::Heuristic,
                &Selection::all_compressed(n_procs),
            ))),
            ImageSpec::Plan(plan) => Some(Cow::Borrowed(plan)),
        }
    }

    /// Builds this family's image of `program`.
    ///
    /// # Errors
    ///
    /// As [`build_native`] or [`build_planned`].
    pub fn build(&self, program: &ObjectProgram) -> Result<MemoryImage, BuildError> {
        match self.plan(program.procedures.len()) {
            None => build_native(program),
            Some(plan) => build_planned(program, &plan),
        }
    }
}

impl fmt::Display for CompressionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "rtdc-plan v1 scheme={} source={} iter={} procs={}",
            self.scheme.name_rf(self.second_rf),
            self.source,
            self.iteration,
            self.procs.len()
        )?;
        for (id, d) in self.procs.iter().enumerate() {
            match d.scheme {
                None => writeln!(f, "{id} native {}", d.rank)?,
                Some(s) => writeln!(f, "{id} {} {}", s.name(), d.rank)?,
            }
        }
        Ok(())
    }
}

impl FromStr for CompressionPlan {
    type Err = PlanError;

    fn from_str(s: &str) -> Result<CompressionPlan, PlanError> {
        let mut lines = s
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header = lines.next().ok_or_else(|| PlanError::BadHeader {
            reason: "empty input".into(),
        })?;
        let mut toks = header.split_whitespace();
        if toks.next() != Some("rtdc-plan") || toks.next() != Some("v1") {
            return Err(PlanError::BadHeader {
                reason: "expected `rtdc-plan v1`".into(),
            });
        }
        let (mut scheme, mut source, mut iteration, mut declared) = (None, None, None, None);
        for tok in toks {
            let (key, value) = tok.split_once('=').ok_or_else(|| PlanError::BadHeader {
                reason: format!("expected key=value, got `{tok}`"),
            })?;
            match key {
                "scheme" => {
                    scheme = Some(
                        Scheme::parse(value)
                            .ok_or_else(|| PlanError::UnknownScheme { name: value.into() })?,
                    );
                }
                "source" => {
                    source = Some(
                        PlanSource::parse(value)
                            .ok_or_else(|| PlanError::UnknownSource { name: value.into() })?,
                    );
                }
                "iter" => {
                    iteration = Some(value.parse::<u32>().map_err(|_| PlanError::BadHeader {
                        reason: format!("bad iter `{value}`"),
                    })?);
                }
                "procs" => {
                    let n = value.parse::<usize>().map_err(|_| PlanError::BadHeader {
                        reason: format!("bad procs `{value}`"),
                    })?;
                    if n > MAX_PROCS {
                        return Err(PlanError::BadHeader {
                            reason: format!("procs {n} exceeds the {MAX_PROCS} limit"),
                        });
                    }
                    declared = Some(n);
                }
                other => {
                    return Err(PlanError::BadHeader {
                        reason: format!("unknown header key `{other}`"),
                    });
                }
            }
        }
        let (scheme, second_rf) = scheme.ok_or_else(|| PlanError::BadHeader {
            reason: "missing scheme=".into(),
        })?;
        let source = source.ok_or_else(|| PlanError::BadHeader {
            reason: "missing source=".into(),
        })?;
        let iteration = iteration.ok_or_else(|| PlanError::BadHeader {
            reason: "missing iter=".into(),
        })?;
        let n = declared.ok_or_else(|| PlanError::BadHeader {
            reason: "missing procs=".into(),
        })?;

        let mut decisions: Vec<Option<ProcDecision>> = vec![None; n];
        let mut rank_seen = vec![false; n];
        let mut count = 0usize;
        for line in lines {
            let mut fields = line.split_whitespace();
            let (Some(id_s), Some(dec_s), Some(rank_s), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(PlanError::BadLine {
                    line: line.into(),
                    reason: "expected `<id> <native|scheme> <rank>`".into(),
                });
            };
            let id: usize = id_s.parse().map_err(|_| PlanError::BadLine {
                line: line.into(),
                reason: format!("bad procedure id `{id_s}`"),
            })?;
            if id >= n {
                return Err(PlanError::ProcOutOfRange { id, procs: n });
            }
            if decisions[id].is_some() {
                return Err(PlanError::DuplicateProc { id });
            }
            let dec = if dec_s == "native" {
                None
            } else {
                Some(
                    Scheme::by_name(dec_s)
                        .ok_or_else(|| PlanError::UnknownScheme { name: dec_s.into() })?,
                )
            };
            let rank: u32 = rank_s.parse().map_err(|_| PlanError::BadLine {
                line: line.into(),
                reason: format!("bad rank `{rank_s}`"),
            })?;
            if rank as usize >= n {
                return Err(PlanError::RankOutOfRange { rank, procs: n });
            }
            if rank_seen[rank as usize] {
                return Err(PlanError::DuplicateRank { rank });
            }
            rank_seen[rank as usize] = true;
            decisions[id] = Some(ProcDecision { scheme: dec, rank });
            count += 1;
        }
        if count != n {
            return Err(PlanError::WrongProcCount {
                declared: n,
                actual: count,
            });
        }
        let plan = CompressionPlan {
            scheme,
            second_rf,
            source,
            iteration,
            procs: decisions
                .into_iter()
                .map(|d| d.expect("count == n"))
                .collect(),
        };
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CompressionPlan {
        let native: BTreeSet<usize> = [1].into_iter().collect();
        let sel = Selection::from_native_set(native, 4);
        CompressionPlan::from_order(
            Scheme::Dictionary,
            true,
            PlanSource::Trace,
            3,
            &sel,
            &[1, 0, 2, 3],
        )
        .unwrap()
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn more_procedures_than_32_bit_ranks_are_rejected() {
        let sel = Selection::all_compressed(1 << 32);
        let plan = CompressionPlan::from_order(
            Scheme::Dictionary,
            false,
            PlanSource::Heuristic,
            0,
            &sel,
            &[],
        );
        assert_eq!(plan, Err(PlanError::TooManyProcs { procs: 1 << 32 }));
    }

    #[test]
    fn display_is_canonical() {
        let text = sample().to_string();
        assert_eq!(
            text,
            "rtdc-plan v1 scheme=d+rf source=trace iter=3 procs=4\n\
             0 d 1\n1 native 0\n2 d 2\n3 d 3\n"
        );
    }

    #[test]
    fn parse_round_trips_display() {
        let plan = sample();
        let reparsed: CompressionPlan = plan.to_string().parse().unwrap();
        assert_eq!(reparsed, plan);
        // And the canonical form is a fixed point of parse∘display.
        assert_eq!(reparsed.to_string(), plan.to_string());
    }

    #[test]
    fn selection_and_order_recover_the_inputs() {
        let plan = sample();
        assert_eq!(plan.order(), vec![1, 0, 2, 3]);
        let sel = plan.selection();
        assert!(sel.is_native(1));
        assert_eq!(sel.native_count(), 1);
        assert_eq!(plan.native_count(), 1);
        assert_eq!(plan.proc_count(), 4);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text =
            "# hand-edited\n\nrtdc-plan v1 scheme=cp source=manual iter=0 procs=1\n\n0 cp 0\n";
        let plan: CompressionPlan = text.parse().unwrap();
        assert_eq!(plan.scheme, Scheme::CodePack);
        assert_eq!(plan.source, PlanSource::Manual);
        assert!(!plan.second_rf);
    }

    #[test]
    fn mixed_schemes_are_rejected() {
        let text = "rtdc-plan v1 scheme=d source=manual iter=0 procs=2\n0 d 0\n1 cp 1\n";
        assert_eq!(
            text.parse::<CompressionPlan>(),
            Err(PlanError::MixedSchemes { id: 1 })
        );
    }

    #[test]
    fn digest_ignores_provenance_but_not_decisions() {
        let plan = sample();
        let mut relabeled = plan.clone();
        relabeled.source = PlanSource::Manual;
        relabeled.iteration = 0;
        assert_eq!(
            plan.digest(),
            relabeled.digest(),
            "provenance must not change the content digest"
        );

        let mut reordered = plan.clone();
        reordered.procs.swap(0, 2); // swap two compressed decisions' ranks
        let (a, b) = (reordered.procs[0].rank, reordered.procs[2].rank);
        assert_ne!(a, b);
        assert_ne!(
            plan.digest(),
            reordered.digest(),
            "layout changes the digest"
        );

        let mut flipped = plan.clone();
        flipped.second_rf = false;
        assert_ne!(
            plan.digest(),
            flipped.digest(),
            "handler variant changes the digest"
        );

        let mut renatived = plan.clone();
        renatived.procs[0].scheme = None;
        assert_ne!(
            plan.digest(),
            renatived.digest(),
            "selection changes the digest"
        );
    }

    #[test]
    fn image_spec_names_round_trip_in_registry_order() {
        let labels: Vec<String> = ImageSpec::uniform_families().map(|s| s.label()).collect();
        // The order perfbench's suite and the golden image file list.
        assert_eq!(
            labels,
            ["native", "d", "d+rf", "cp", "cp+rf", "d2", "d2+rf", "lz", "lz+rf"]
        );
        for label in &labels {
            assert_eq!(
                ImageSpec::parse(label).map(|s| s.label()),
                Some(label.clone())
            );
        }
        for bad in ["", "zz", "native+rf", "D", "d+rf+rf", "d+plan"] {
            assert_eq!(ImageSpec::parse(bad), None, "{bad:?}");
        }
        assert_eq!(ImageSpec::Plan(sample()).label(), "d+rf+plan");
    }

    #[test]
    fn image_spec_plans() {
        assert!(ImageSpec::Native.plan(3).is_none());
        let uniform = ImageSpec::parse("cp+rf").unwrap();
        let all = Selection::all_compressed(3);
        assert_eq!(
            uniform.plan(3).as_deref(),
            Some(&CompressionPlan::uniform(
                Scheme::CodePack,
                true,
                PlanSource::Heuristic,
                &all
            ))
        );
        let planned = ImageSpec::Plan(sample());
        assert_eq!(planned.plan(4).as_deref(), Some(&sample()));
    }
}
