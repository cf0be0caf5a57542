//! Guard: exactly one code path lays out compressed-image segments, and
//! exactly one type turns an image family's name into a label and an
//! image.
//!
//! Every compressed build goes through `build_planned`; this test (in
//! the spirit of `no_scheme_match.rs`) keeps it that way. If a second
//! layout loop reappears — another `codec.compress(...)` call site,
//! another cursor seeded at the compressed base, another placement
//! construction — the marker counts change and this fails. And if a
//! module outside `plan.rs` (home of `ImageSpec`) formats a `+plan`
//! label or compares a label to `native` itself, or a second build
//! entrypoint beside `build_planned` comes back, the workspace walk
//! fails.

use std::fs;
use std::path::{Path, PathBuf};

/// Counts non-overlapping occurrences of `needle` in `text`.
fn count(text: &str, needle: &str) -> usize {
    text.match_indices(needle).count()
}

#[test]
fn segment_layout_lives_only_in_build_planned() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut sources = Vec::new();
    for entry in fs::read_dir(&src_dir).expect("readable src dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            sources.push((
                path.file_name().unwrap().to_string_lossy().into_owned(),
                fs::read_to_string(&path).expect("readable source"),
            ));
        }
    }
    assert!(
        sources.len() > 8,
        "src walk looks broken: only {} files",
        sources.len()
    );

    // Each marker is one thing only the layout path does. They must each
    // appear exactly once across the whole crate — in builder.rs.
    let markers = [
        "codec.compress(&comp_words)",  // region compression call site
        "map::COMPRESSED_BASE",         // segment cursor seed
        "Placement::new(",              // two-region placement
        "scheme.handler().resolve_c0(", // C0 ABI resolution
    ];
    for marker in markers {
        let mut hits: Vec<&str> = Vec::new();
        for (name, text) in &sources {
            for _ in 0..count(text, marker) {
                hits.push(name);
            }
        }
        assert_eq!(
            hits,
            vec!["builder.rs"],
            "layout marker `{marker}` must appear exactly once, in builder.rs; found {hits:?}"
        );
    }
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable workspace dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // perfbench is a standalone benchmark that keeps its own copy
            // of the label → image step.
            if !matches!(name, "target" | ".git" | "perfbench") {
                rust_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn image_families_are_named_and_built_only_by_image_spec() {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    rust_sources(&workspace, &mut files);
    assert!(
        files.len() > 30,
        "workspace walk looks broken: only {} .rs files",
        files.len()
    );
    // Each needle is split so this file does not match itself; `true`
    // marks the label needles, which plan.rs may contain.
    let needles = [
        (format!("fn build_{}", "compressed"), false),
        (format!("Selection{}", "Mismatch"), false),
        (format!("}}+{}\"", "plan"), true),
        (format!("\"+{}\"", "plan"), true),
        (format!("== \"{}\"", "native"), true),
        (format!("!= \"{}\"", "native"), true),
    ];
    let mut offenders = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(&workspace).unwrap_or(file);
        let in_plan_rs = rel == Path::new("crates/core/src/plan.rs");
        let text = fs::read_to_string(file).expect("readable source file");
        for (lineno, line) in text.lines().enumerate() {
            for (needle, label) in &needles {
                if line.contains(needle.as_str()) && !(*label && in_plan_rs) {
                    offenders.push(format!("{}:{}: {}", rel.display(), lineno + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "image families are named and built through rtdc::plan::ImageSpec; found:\n{}",
        offenders.join("\n")
    );
}
