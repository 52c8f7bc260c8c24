//! Black-box tests of the `mass` binary: spawn the real executable and
//! check exit codes and output, the way a user would drive the demo.

use std::path::PathBuf;
use std::process::{Command, Output};

fn mass(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mass"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("mass_cli_blackbox");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name).to_string_lossy().into_owned()
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [vec!["help"], vec![]] {
        let o = mass(&args);
        assert!(o.status.success());
        let out = stdout(&o);
        assert!(out.contains("USAGE"));
        assert!(out.contains("user-study"));
    }
}

#[test]
fn unknown_command_fails_with_hint() {
    let o = mass(&["frobnicate"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown command"));
}

#[test]
fn generate_rank_recommend_roundtrip() {
    let corpus = tmp("bb_corpus.xml");
    let o = mass(&[
        "generate",
        "--bloggers",
        "80",
        "--seed",
        "3",
        "--out",
        &corpus,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("80 bloggers"));

    let o = mass(&["stats", "--in", &corpus]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("10 domains"));

    let o = mass(&["rank", "--in", &corpus, "--k", "5", "--domain", "sports"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("top-5 in Sports"));
    assert!(out.lines().count() >= 7, "expected a 5-row table:\n{out}");

    let o = mass(&[
        "recommend",
        "--in",
        &corpus,
        "--ad-domain",
        "Travel",
        "--k",
        "2",
    ]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("blogger_"));
}

#[test]
fn network_dot_export() {
    let corpus = tmp("bb_net.xml");
    assert!(mass(&["generate", "--bloggers", "30", "--out", &corpus])
        .status
        .success());
    let dot = tmp("bb_net.dot");
    let o = mass(&[
        "network", "--in", &corpus, "--focus", "0", "--radius", "1", "--format", "dot", "--out",
        &dot,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    let rendered = std::fs::read_to_string(&dot).unwrap();
    assert!(rendered.starts_with("digraph"));
}

#[test]
fn network_to_stdout_when_no_out() {
    let corpus = tmp("bb_net2.xml");
    assert!(mass(&["generate", "--bloggers", "20", "--out", &corpus])
        .status
        .success());
    let o = mass(&["network", "--in", &corpus, "--focus", "0", "--radius", "0"]);
    assert!(o.status.success());
    assert!(stdout(&o).contains("<network"));
}

#[test]
fn errors_exit_nonzero_with_message() {
    let o = mass(&["rank", "--in", "/definitely/not/here.xml"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("not/here.xml"));

    let corpus = tmp("bb_err.xml");
    assert!(mass(&["generate", "--bloggers", "10", "--out", &corpus])
        .status
        .success());
    let o = mass(&["rank", "--in", &corpus, "--domain", "Gastronomy"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown domain"));
}

#[test]
fn out_of_range_alpha_exits_nonzero_with_the_typed_message() {
    let corpus = tmp("bb_alpha.xml");
    assert!(mass(&["generate", "--bloggers", "10", "--out", &corpus])
        .status
        .success());
    for (raw, shown) in [("2", "2"), ("NaN", "NaN")] {
        let o = mass(&["rank", "--in", &corpus, "--alpha", raw]);
        assert!(!o.status.success(), "--alpha {raw} was accepted");
        let err = stderr(&o);
        assert!(
            err.contains(&format!("alpha must be in [0, 1], got {shown}")),
            "--alpha {raw}: {err}"
        );
    }
}

#[test]
fn corrupted_xml_is_rejected_cleanly() {
    let path = tmp("bb_corrupt.xml");
    std::fs::write(&path, "<blogosphere><bloggers><blogger id=\"0\"").unwrap();
    let o = mass(&["stats", "--in", &path]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("error"));
}

#[test]
fn crawl_subcommand_writes_loadable_xml() {
    let out_path = tmp("bb_crawl.xml");
    let o = mass(&[
        "crawl",
        "--bloggers",
        "40",
        "--seed-space",
        "0",
        "--radius",
        "1",
        "--threads",
        "2",
        "--out",
        &out_path,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stdout(&o).contains("crawled"));
    assert!(PathBuf::from(&out_path).exists());
    let o = mass(&["stats", "--in", &out_path]);
    assert!(o.status.success());
}

#[test]
fn edit_storm_exact_matches_full_recompute_artifact() {
    let corpus = tmp("bb_storm.xml");
    assert!(mass(&[
        "generate",
        "--bloggers",
        "60",
        "--seed",
        "8",
        "--out",
        &corpus
    ])
    .status
    .success());

    // The same storm ranked through the incremental engine (Exact mode)
    // and as a from-scratch batch recompute: the full-precision artifacts
    // must be byte-identical — the CLI face of the exactness contract.
    let exact_json = tmp("bb_storm_exact.json");
    let o = mass(&[
        "rank",
        "--in",
        &corpus,
        "--k",
        "10",
        "--edit-storm",
        "25",
        "--edit-seed",
        "9",
        "--refresh-mode",
        "exact",
        "--json-out",
        &exact_json,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stderr(&o).contains("exact refresh"), "{}", stderr(&o));

    let full_json = tmp("bb_storm_full.json");
    let o = mass(&[
        "rank",
        "--in",
        &corpus,
        "--k",
        "10",
        "--edit-storm",
        "25",
        "--edit-seed",
        "9",
        "--refresh-mode",
        "full",
        "--json-out",
        &full_json,
    ]);
    assert!(o.status.success(), "{}", stderr(&o));

    let exact = std::fs::read_to_string(&exact_json).unwrap();
    let full = std::fs::read_to_string(&full_json).unwrap();
    assert_eq!(
        exact, full,
        "exact refresh artifact diverged from full recompute"
    );
    assert!(exact.contains("score_bits"));
}

#[test]
fn warm_refresh_mode_runs_and_reports() {
    let corpus = tmp("bb_storm_warm.xml");
    assert!(mass(&["generate", "--bloggers", "40", "--out", &corpus])
        .status
        .success());
    let o = mass(&[
        "rank",
        "--in",
        &corpus,
        "--edit-storm",
        "10",
        "--refresh-mode",
        "warm",
    ]);
    assert!(o.status.success(), "{}", stderr(&o));
    assert!(stderr(&o).contains("warm refresh"), "{}", stderr(&o));
}

#[test]
fn refresh_mode_without_storm_is_rejected() {
    let corpus = tmp("bb_storm_err.xml");
    assert!(mass(&["generate", "--bloggers", "10", "--out", &corpus])
        .status
        .success());
    let o = mass(&["rank", "--in", &corpus, "--refresh-mode", "exact"]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("--edit-storm"));

    let o = mass(&[
        "rank",
        "--in",
        &corpus,
        "--edit-storm",
        "5",
        "--refresh-mode",
        "sideways",
    ]);
    assert!(!o.status.success());
    assert!(stderr(&o).contains("unknown --refresh-mode"));
}

#[test]
fn discover_runs_on_generated_corpus() {
    let corpus = tmp("bb_disc.xml");
    assert!(mass(&[
        "generate",
        "--bloggers",
        "150",
        "--seed",
        "6",
        "--out",
        &corpus
    ])
    .status
    .success());
    let o = mass(&["discover", "--in", &corpus, "--topics", "6", "--k", "2"]);
    assert!(o.status.success(), "{}", stderr(&o));
    let out = stdout(&o);
    assert!(out.contains("discovered"));
    assert!(out.contains("top-2 per discovered domain"));
}
