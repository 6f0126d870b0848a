//! The shipped example modules under `examples/modules/` stay clean under
//! the whole-program analyzer — except `warnings.lgr`, the intentionally
//! warning module, whose diagnostics are pinned byte-for-byte against
//! `warnings.golden.jsonl`. The CI `check` job re-asserts the same facts
//! through the `logres check` binary.

use std::path::PathBuf;

use logres::lang::analyze::render_all_json;
use logres::lang::{analyze_program, parse_program};

fn modules() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/modules");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/modules exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "lgr"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no example modules found in {dir:?}");
    paths
}

fn analyze_file(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path).expect("example module reads");
    let program =
        parse_program(&text).unwrap_or_else(|e| panic!("{} fails to parse: {e:?}", path.display()));
    render_all_json(&analyze_program(&program))
}

#[test]
fn clean_example_modules_have_no_diagnostics() {
    for path in modules() {
        if path.file_name().is_some_and(|n| n == "warnings.lgr") {
            continue;
        }
        let rendered = analyze_file(&path);
        assert!(
            rendered.is_empty(),
            "{} is not analyzer-clean:\n{rendered}",
            path.display()
        );
    }
}

#[test]
fn warning_example_matches_its_golden_diagnostics() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/modules");
    let rendered = analyze_file(&dir.join("warnings.lgr"));
    let golden = std::fs::read_to_string(dir.join("warnings.golden.jsonl"))
        .expect("golden diagnostics file reads");
    assert_eq!(
        rendered, golden,
        "warnings.lgr diagnostics drifted from warnings.golden.jsonl; \
         regenerate with `logres check examples/modules/warnings.lgr --json`"
    );
    // The intentional example exercises five distinct codes.
    let codes: Vec<&str> = ["L001", "L002", "L004", "L005", "L006"]
        .into_iter()
        .filter(|c| golden.contains(&format!("\"code\":\"{c}\"")))
        .collect();
    assert_eq!(codes.len(), 5, "golden: {golden}");
}

/// Reproduce what `logres check <file> --explain --json` prints: the
/// diagnostics JSONL followed by the compiled ALGRES operator trees (or the
/// not-compiled notice for programs outside the fragment).
fn explain_file(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path).expect("example module reads");
    let program =
        parse_program(&text).unwrap_or_else(|e| panic!("{} fails to parse: {e:?}", path.display()));
    let mut out = render_all_json(&analyze_program(&program));
    match logres::engine::compile_program(
        &program.schema,
        &program.rules,
        logres::Semantics::default(),
    ) {
        Ok(compiled) => out.push_str(&logres::engine::render_program_json(
            &compiled,
            &program.rules,
        )),
        Err(u) => out.push_str(&logres::engine::render_unsupported(&u)),
    }
    out
}

#[test]
fn explain_output_of_examples_matches_goldens() {
    for path in modules() {
        let golden_path = path.with_extension("explain.golden.jsonl");
        if std::env::var_os("LOGRES_UPDATE_GOLDENS").is_some() {
            std::fs::write(&golden_path, explain_file(&path)).expect("golden file writes");
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{} missing ({e}); regenerate with \
                 `LOGRES_UPDATE_GOLDENS=1 cargo test --test check_examples`",
                golden_path.display()
            )
        });
        assert_eq!(
            explain_file(&path),
            golden,
            "{} explain output drifted from {}; \
             regenerate with `LOGRES_UPDATE_GOLDENS=1 cargo test --test check_examples`",
            path.display(),
            golden_path.display()
        );
    }
}

/// Reproduce what `logres check <file> --plan` appends to the diagnostics:
/// the goal-directed (magic-set) plan of the module's goal.
fn plan_file(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path).expect("example module reads");
    let program =
        parse_program(&text).unwrap_or_else(|e| panic!("{} fails to parse: {e:?}", path.display()));
    let goal = program
        .goal
        .as_ref()
        .unwrap_or_else(|| panic!("{} has no goal to plan", path.display()));
    logres::lang::analyze::plan_goal(&program.schema, &program.rules, goal).render(&program.rules)
}

#[test]
fn plan_output_of_examples_matches_goldens() {
    for path in modules() {
        let golden_path = path.with_extension("plan.golden.txt");
        if std::env::var_os("LOGRES_UPDATE_GOLDENS").is_some() {
            std::fs::write(&golden_path, plan_file(&path)).expect("golden file writes");
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{} missing ({e}); regenerate with \
                 `LOGRES_UPDATE_GOLDENS=1 cargo test --test check_examples`",
                golden_path.display()
            )
        });
        assert_eq!(
            plan_file(&path),
            golden,
            "{} plan output drifted from {}; \
             regenerate with `LOGRES_UPDATE_GOLDENS=1 cargo test --test check_examples`",
            path.display(),
            golden_path.display()
        );
    }
}

/// Reproduce what `logres check <file> --flow --json` prints: the base
/// diagnostics plus the abstract-interpretation flow pass (L008–L011),
/// sorted into one position-stable stream.
fn flow_check_file(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path).expect("example module reads");
    let program =
        parse_program(&text).unwrap_or_else(|e| panic!("{} fails to parse: {e:?}", path.display()));
    let mut diags = analyze_program(&program);
    diags.extend(logres::lang::analyze::flow_program(&program));
    logres::lang::analyze::sort_diagnostics(&mut diags);
    render_all_json(&diags)
}

#[test]
fn flow_output_of_examples_matches_goldens() {
    for path in modules() {
        let golden_path = path.with_extension("flow.golden.jsonl");
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{} missing ({e}); regenerate with `logres check {} --flow --json`",
                golden_path.display(),
                path.display()
            )
        });
        assert_eq!(
            flow_check_file(&path),
            golden,
            "{} flow output drifted from {}; \
             regenerate with `logres check {} --flow --json`",
            path.display(),
            golden_path.display(),
            path.display()
        );
    }
}

#[test]
fn flow_warning_example_fires_every_flow_lint() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/modules");
    // The intentional module is clean under the default analyzer...
    assert!(
        analyze_file(&dir.join("flow_warnings.lgr")).is_empty(),
        "flow_warnings.lgr must be clean without --flow"
    );
    // ...and exercises all four flow codes under it.
    let rendered = flow_check_file(&dir.join("flow_warnings.lgr"));
    for code in ["L008", "L009", "L010", "L011"] {
        assert!(
            rendered.contains(&format!("\"code\":\"{code}\"")),
            "{code} missing from: {rendered}"
        );
    }
}

#[test]
fn analysis_of_examples_is_byte_identical_across_runs() {
    for path in modules() {
        assert_eq!(
            analyze_file(&path),
            analyze_file(&path),
            "{} renders nondeterministically",
            path.display()
        );
    }
}
