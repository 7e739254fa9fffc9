//! `isasgd-lint` — the workspace invariant checker.
//!
//! Turns the repo's two load-bearing *dynamic* guarantees into
//! compile-gate properties, checked by `cargo run -p isasgd-lint --
//! --check` in CI:
//!
//! * **Panic-freedom on untrusted-input paths** and **determinism** —
//!   token-level rules over the workspace source (see [`rules`] for
//!   the catalog and the exact file/function scoping).
//! * **A frozen wire protocol** — [`schema`] re-derives the protocol
//!   surface from `crates/cluster/src/wire.rs` and byte-compares it
//!   against the committed `WIRE_SCHEMA.json`, so no tag, frame, or
//!   field-shape change lands without an explicit, reviewable diff.
//!
//! # What a token-level linter can and cannot check
//!
//! The analysis is a hand-rolled lexer ([`lexer`]) plus brace-matched
//! item scanning ([`scan`]) — deliberately **not** `syn` or rustc
//! internals: the build environment is offline (`vendor/README.md`),
//! and a dependency-free pass keeps the gate fast and auditable. The
//! price is honesty about limits, which future rules must respect:
//!
//! * **No type information.** `decode-cast` flags `as u8/…/u32/isize`
//!   spellings; it cannot see that a *source* is `u128`, so a
//!   `u128 as u64` truncation passes. Casts into `usize`/`u64` from
//!   wire-sourced integers (always `u8`/`u32`) widen on the 64-bit
//!   targets this workspace supports, so those directions are exempt
//!   rather than drowning the report.
//! * **No data flow.** `hash-container` cannot tell a constructed-but-
//!   never-iterated `HashMap` from an iterated one, so the *type* is
//!   the contraband inside the deterministic core; `decode-index`
//!   cannot prove an index in-bounds, which is exactly why provably
//!   safe sites carry a `// lint: allow(...) — reason` the tool counts
//!   and reports instead of being silently exempt.
//! * **No macro expansion.** Code generated by macros is invisible;
//!   the workspace's decode paths are macro-free and should stay so.
//! * **Scoping is syntactic.** Test code is recognized as items under
//!   `#[cfg(test)]` / `#[test]`; decode-side functions by name pattern
//!   (`get_*`, `decode`, `recv`, the `Reader` and JSON `Parser` impls,
//!   the saved-model loader, the LibSVM loader — see
//!   [`rules::DECODE_FILES`] and `rules::decode_scope`).
//!
//! The escape hatch is part of the contract: every `lint: allow` must
//! name its rule, carry a reason, and actually silence something —
//! violations of the hatch's own hygiene are findings too.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod schema;

use report::{AllowReport, Finding, Report};
use scan::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// Workspace-relative location of the codec the schema gate freezes.
pub const WIRE_RS: &str = "crates/cluster/src/wire.rs";

/// Workspace-relative location of the committed schema.
pub const WIRE_SCHEMA_JSON: &str = "WIRE_SCHEMA.json";

/// Every `.rs` file the rules walk: `crates/*/src/**` and `src/**`,
/// sorted for deterministic report order. `vendor/` is the documented
/// allowlist (offline stand-ins, not this project's code) and test
/// trees are covered through their crates' `#[cfg(test)]` items.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut out);
        }
    }
    collect_rs(&root.join("src"), &mut out);
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Crate-root files (`src/lib.rs` / `src/main.rs` of every workspace
/// crate) — the `missing-forbid-unsafe` audit surface.
pub fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            for name in ["lib.rs", "main.rs"] {
                let p = d.join("src").join(name);
                if p.is_file() {
                    out.push(p);
                }
            }
        }
    }
    let top = root.join("src/lib.rs");
    if top.is_file() {
        out.push(top);
    }
    out
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every rule family over the workspace at `root`, including the
/// schema consistency checks and the `WIRE_SCHEMA.json` drift gate.
pub fn run_workspace(root: &Path) -> Report {
    let mut rpt = Report::default();
    let roots: Vec<PathBuf> = crate_roots(root);
    for path in workspace_sources(root) {
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        let rel_path = rel(root, &path);
        let file = SourceFile::parse(&rel_path, &src);
        rules::check_file(&file, &mut rpt.findings);
        rules::allow_hygiene(&file, &mut rpt.findings);
        if roots.iter().any(|r| r == &path) {
            rules::check_crate_root(&file, &mut rpt.findings);
        }
        for a in &file.allows {
            if a.used.get() {
                rpt.allows.push(AllowReport {
                    rule: a.rule.clone(),
                    file: rel_path.clone(),
                    line: a.line,
                    reason: a.reason.clone(),
                });
            }
        }
        rpt.files_scanned += 1;
    }
    schema_gate(root, &mut rpt.findings);
    rpt.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    rpt
}

/// Extracts the wire schema from the workspace's `wire.rs`, appending
/// consistency findings. `None` when the file is missing entirely.
pub fn extract_schema(root: &Path, out: &mut Vec<Finding>) -> Option<schema::WireSchema> {
    let path = root.join(WIRE_RS);
    let Ok(src) = fs::read_to_string(&path) else {
        out.push(Finding {
            rule: "wire-schema",
            file: WIRE_RS.into(),
            line: 1,
            col: 1,
            message: format!("{WIRE_RS} not readable — cannot extract the protocol schema"),
        });
        return None;
    };
    schema::extract(WIRE_RS, &src, out)
}

/// The freeze gate: regenerate the canonical schema and byte-compare
/// against the committed `WIRE_SCHEMA.json`.
fn schema_gate(root: &Path, out: &mut Vec<Finding>) {
    let Some(schema) = extract_schema(root, out) else {
        return;
    };
    let rendered = schema.render();
    let committed = fs::read_to_string(root.join(WIRE_SCHEMA_JSON)).unwrap_or_default();
    if committed != rendered {
        let hint = if committed.is_empty() {
            "the file is missing"
        } else {
            "the wire protocol changed without updating the committed schema"
        };
        out.push(Finding {
            rule: "schema-drift",
            file: WIRE_SCHEMA_JSON.into(),
            line: 1,
            col: 1,
            message: format!(
                "{hint} — review the protocol diff, then refresh it with \
                 `cargo run -p isasgd-lint -- --write-schema`"
            ),
        });
    }
}

/// Locates the workspace root: ascends from `start` until a directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
