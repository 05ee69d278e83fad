//! Golden tests: one bad spec per diagnostic code.
//!
//! Each `tests/fixtures/<name>.xml` is analyzed and its human-readable
//! report compared byte-for-byte against `<name>.golden`. Regenerate the
//! goldens after an intentional output change with
//!
//! ```sh
//! BLESS_FIXTURES=1 cargo test -p analyze --test fixtures
//! ```

use std::fs;
use std::path::PathBuf;

/// (fixture stem, code that must appear)
const FIXTURES: &[(&str, &str)] = &[
    ("xa001_nested_option_writers", "XA001"),
    ("xa002_backward_seq_read", "XA002"),
    ("xa003_task_sibling_race", "XA003"),
    ("xa010_dead_stream", "XA010"),
    ("xa011_double_writer", "XA011"),
    ("xa012_queue_wiring", "XA012"),
    ("xa013_untargeted_option", "XA013"),
    ("xa014_writerless_stream", "XA014"),
    ("xa020_orphaned_reader", "XA020"),
    ("xa090_semantic_errors", "XA090"),
    ("xa091_zero_width_slice", "XA091"),
    ("xa099_duplicate_option", "XA099"),
];

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn analyze_fixture(stem: &str) -> analyze::Diagnostics {
    let source = fs::read_to_string(fixture_dir().join(format!("{stem}.xml")))
        .unwrap_or_else(|e| panic!("{stem}: read fixture: {e}"));
    analyze::check_source(&source, &analyze::AnalyzeOptions::default())
        .unwrap_or_else(|e| panic!("{stem}: unreadable: {e}"))
}

#[test]
fn every_fixture_matches_its_golden_report() {
    let bless = std::env::var_os("BLESS_FIXTURES").is_some();
    let mut failures = Vec::new();
    for &(stem, code) in FIXTURES {
        let diags = analyze_fixture(stem);
        assert!(
            diags.iter().any(|d| d.code == code),
            "{stem}: expected {code}, got:\n{}",
            diags.render_human()
        );
        let got = diags.render_human();
        let golden_path = fixture_dir().join(format!("{stem}.golden"));
        if bless {
            fs::write(&golden_path, &got).unwrap();
            continue;
        }
        let want = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!("{stem}: missing golden ({e}); bless with BLESS_FIXTURES=1")
        });
        if got != want {
            failures.push(format!("{stem}:\n--- golden\n{want}--- got\n{got}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn nested_slices_analyze_clean() {
    // composed assignments: the four copies of one writer partition its
    // output, whatever the nesting
    let diags = analyze_fixture("nested_slices_clean");
    assert!(diags.is_empty(), "{}", diags.render_human());
}

#[test]
fn fixture_diagnostics_carry_spans_and_json() {
    let diags = analyze_fixture("xa002_backward_seq_read");
    let d = diags.iter().find(|d| d.code == "XA002").unwrap();
    assert_ne!(d.span, xspcl::xml::Span::UNKNOWN, "cycle has a source span");
    let json = diags.render_json();
    assert!(json.contains("\"code\":\"XA002\""), "{json}");
}
