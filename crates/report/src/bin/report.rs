//! The `report` command-line tool: render, save and compare RAGE explanation
//! reports over the demonstration scenarios.
//!
//! ```text
//! report --scenario <name> --format <md|json|html> [--out PATH] [--shards N]
//!        [--anytime MS]
//! report --list-scenarios
//! report diff A.json B.json [--format <md|json>]
//! report smoke
//! ```
//!
//! `report` (no subcommand) runs the full explanation pipeline over one
//! scenario and renders the result; with `--out` the rendering is written to
//! a file, otherwise it goes to stdout, and with `--shards N` retrieval runs
//! through an N-way [`rage_retrieval::Searcher`] (the report is equal
//! either way — sharding never changes results). `--anytime MS` bounds the
//! explanation searches by a wall-clock deadline of `MS` milliseconds:
//! whatever the searches completed is rendered, and sections the deadline cut
//! short carry explicit non-exact completeness markers (the JSON format's
//! `completeness` member, the markdown footer's anytime note). Scenario names
//! come from the
//! shared [`rage_datasets::ScenarioRegistry`]; `--list-scenarios` prints them
//! with their one-line summaries. `report diff` decodes two saved JSON
//! reports and prints their [`rage_report::ReportDiff`]. `report smoke` is
//! the CI entry point: it iterates the whole registry, renders every scenario
//! in all three formats, asserts the structured round-trip invariants
//! (`parse(render(to_json(r))) == to_json(r)` and `from_json(to_json(r)) == r`)
//! and, with `--out-dir DIR`, writes the renderings it computed as
//! `DIR/<scenario>.<md|json|html>` artifacts.

use std::io::{self, Write};
use std::process::ExitCode;

use rage_json::JsonValue;
use rage_report::scenarios::{self, scenario_names};
use rage_report::{diff, from_json, render_html, render_markdown, to_json, ReportFormat, Service};

fn usage() -> String {
    format!(
        "usage:\n  report --scenario <{}> --format <md|json|html> [--out PATH] [--shards N] \
         [--anytime MS]\n  \
         report --list-scenarios\n  \
         report diff <A.json> <B.json> [--format <md|json>]\n  \
         report smoke [--out-dir DIR]\n\
         \ndiff exits 0 when the reports are identical, 1 when they differ, \
         2 on errors.\n",
        scenario_names().join("|")
    )
}

/// Write to stdout through one lock. A reader that has already exited
/// (`report --list-scenarios | head -1`) is no failure: the write is dropped
/// quietly, and the exit status stays what the command itself decided.
fn print_out(args: std::fmt::Arguments<'_>) -> Result<(), String> {
    let mut stdout = io::stdout().lock();
    match stdout.write_fmt(args).and_then(|()| stdout.flush()) {
        Err(err) if err.kind() != io::ErrorKind::BrokenPipe => {
            Err(format!("cannot write to stdout: {err}"))
        }
        _ => Ok(()),
    }
}

/// `--list-scenarios`: names and one-line summaries straight from the registry.
fn list_scenarios() -> Result<(), String> {
    let registry = scenarios::registry();
    let width = registry.names().iter().map(|n| n.len()).max().unwrap_or(0);
    let listing: String = registry
        .iter()
        .map(|entry| format!("{:width$}  {}\n", entry.name(), entry.summary()))
        .collect();
    print_out(format_args!("{listing}"))
}

/// The value following `args[i]` (a `--flag value` pair).
fn take_value(args: &[String], i: usize, flag: &str) -> Result<String, String> {
    args.get(i + 1)
        .filter(|v| !v.starts_with("--"))
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn write_output(rendering: &str, out: Option<&str>) -> Result<(), String> {
    match out {
        Some(path) => {
            let mut content = rendering.to_string();
            if !content.ends_with('\n') {
                content.push('\n');
            }
            std::fs::write(path, content).map_err(|err| format!("cannot write {path}: {err}"))?;
            eprintln!("wrote {path}");
            Ok(())
        }
        None => print_out(format_args!("{rendering}\n")),
    }
}

fn render_scenario(args: &[String]) -> Result<(), String> {
    let mut scenario_name: Option<String> = None;
    let mut format = "md".to_string();
    let mut out: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut anytime_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => {
                scenario_name = Some(take_value(args, i, "--scenario")?);
                i += 2;
            }
            "--format" => {
                format = take_value(args, i, "--format")?;
                i += 2;
            }
            "--out" => {
                out = Some(take_value(args, i, "--out")?);
                i += 2;
            }
            "--shards" => {
                let value = take_value(args, i, "--shards")?;
                let parsed: usize = value
                    .parse()
                    .map_err(|_| format!("--shards needs a positive integer, got {value:?}"))?;
                if parsed == 0 {
                    return Err("--shards needs a positive integer, got 0".to_string());
                }
                shards = Some(parsed);
                i += 2;
            }
            "--anytime" => {
                let value = take_value(args, i, "--anytime")?;
                let parsed: u64 = value.parse().map_err(|_| {
                    format!("--anytime needs a deadline in milliseconds, got {value:?}")
                })?;
                anytime_ms = Some(parsed);
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    let scenario_name =
        scenario_name.ok_or_else(|| format!("--scenario is required\n{}", usage()))?;

    // The CLI renders through the same Service layer the HTTP server serves
    // from, so `report --format json` and `GET /report?format=json` are
    // byte-identical by construction.
    let format = ReportFormat::parse(&format).map_err(|err| err.to_string())?;
    let rendering = Service::new()
        .render_report_with_deadline(&scenario_name, format, shards, anytime_ms)
        .map_err(|err| err.to_string())?;
    write_output(&rendering, out.as_deref())
}

fn read_report(path: &str) -> Result<rage_core::RageReport, String> {
    let raw = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let value = JsonValue::parse(&raw).map_err(|err| format!("{path}: invalid JSON: {err}"))?;
    from_json(&value).map_err(|err| format!("{path}: not a report document: {err}"))
}

fn run_diff(args: &[String]) -> Result<bool, String> {
    let mut paths: Vec<&String> = Vec::new();
    let mut format = "md".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                format = take_value(args, i, "--format")?;
                i += 2;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => {
                paths.push(&args[i]);
                i += 1;
            }
        }
    }
    let [path_a, path_b] = paths.as_slice() else {
        return Err(format!("diff needs exactly two files\n{}", usage()));
    };

    let report_diff = diff(&read_report(path_a)?, &read_report(path_b)?);
    match format.as_str() {
        "md" | "markdown" => print_out(format_args!("{}\n", report_diff.render_markdown()))?,
        "json" => print_out(format_args!("{}\n", report_diff.to_json().render()))?,
        other => return Err(format!("unknown format {other:?} (md|json)")),
    }
    Ok(report_diff.is_empty())
}

/// CI smoke: render every scenario in every format and assert the structured
/// round-trip invariants with the vendored parser. With `--out-dir DIR` the
/// renderings it already computed are also written as `DIR/<scenario>.<ext>`
/// artifacts, so CI does not have to re-run the explanation pipeline once per
/// format.
fn run_smoke(args: &[String]) -> Result<(), String> {
    let mut out_dir: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out-dir" => {
                out_dir = Some(take_value(args, i, "--out-dir")?);
                i += 2;
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).map_err(|err| format!("cannot create {dir}: {err}"))?;
    }

    let service = Service::new();
    for name in scenario_names() {
        let report = service
            .report(name, None)
            .map_err(|err| format!("{name}: explanation failed: {err}"))?;

        let md = render_markdown(&report);
        if !md.contains("# RAGE explanation") {
            return Err(format!("{name}: markdown rendering lost its header"));
        }
        let html = render_html(&report);
        if !html.contains("panel-insights") {
            return Err(format!("{name}: html rendering lost its panels"));
        }

        let value = to_json(&report);
        let reparsed = JsonValue::parse(&value.render())
            .map_err(|err| format!("{name}: rendered JSON does not parse: {err}"))?;
        if reparsed != value {
            return Err(format!("{name}: parse(render(json)) != json"));
        }
        let decoded =
            from_json(&value).map_err(|err| format!("{name}: from_json failed: {err}"))?;
        if decoded != *report {
            return Err(format!("{name}: from_json(to_json(report)) != report"));
        }
        if let Some(dir) = &out_dir {
            for (ext, rendering) in [("md", &md), ("html", &html), ("json", &value.render())] {
                let path = format!("{dir}/{name}.{ext}");
                write_output(rendering, Some(&path))?;
            }
        }
        print_out(format_args!(
            "smoke ok: {name} (md {} bytes, html {} bytes, json {} bytes, answer {:?})\n",
            md.len(),
            html.len(),
            value.render().len(),
            report.full_context_answer
        ))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    // First thing, before any instruction the x86-64-v3 build may use; see
    // `rage_report::cpu` for why this exits instead of returning.
    if let Err(message) = rage_report::cpu::check() {
        eprintln!("report: {message}");
        std::process::exit(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        None | Some("--help" | "-h" | "help") => print_out(format_args!("{}", usage())),
        Some("--list-scenarios") => list_scenarios(),
        // GNU-diff-style exit codes so CI gates can trip on drift: 0 when the
        // reports are identical, 1 when they differ, 2 when the comparison
        // itself failed.
        Some("diff") => match run_diff(&args[1..]) {
            Ok(true) => return ExitCode::SUCCESS,
            Ok(false) => return ExitCode::from(1),
            Err(message) => {
                eprintln!("report: {message}");
                return ExitCode::from(2);
            }
        },
        Some("smoke") => run_smoke(&args[1..]),
        Some(_) => render_scenario(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("report: {message}");
            ExitCode::FAILURE
        }
    }
}
