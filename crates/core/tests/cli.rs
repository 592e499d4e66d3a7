//! End-to-end tests of the `swdual` CLI binary: generate → convert →
//! info → search, driving the compiled executable like a user would.

use std::process::Command;

fn swdual() -> Command {
    Command::new(env!("CARGO_BIN_EXE_swdual"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("swdual_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn full_cli_workflow() {
    let fasta = tmp("cli_db.fasta");
    let sqb = tmp("cli_db.sqb");

    // generate
    let out = swdual()
        .args(["generate", "--sequences", "120", "--mean-len", "150"])
        .args(["--output", fasta.to_str().unwrap(), "--seed", "9"])
        .output()
        .expect("run swdual generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("generated 120 sequences"));

    // convert
    let out = swdual()
        .args(["convert", "--input", fasta.to_str().unwrap()])
        .args(["--output", sqb.to_str().unwrap()])
        .output()
        .expect("run swdual convert");
    assert!(out.status.success());

    // info agrees between the two formats
    let info_fasta = swdual()
        .args(["info", "--db", fasta.to_str().unwrap()])
        .output()
        .unwrap();
    let info_sqb = swdual()
        .args(["info", "--db", sqb.to_str().unwrap()])
        .output()
        .unwrap();
    let fa = String::from_utf8_lossy(&info_fasta.stdout).replace(fasta.to_str().unwrap(), "");
    let sq = String::from_utf8_lossy(&info_sqb.stdout).replace(sqb.to_str().unwrap(), "");
    assert_eq!(
        fa.lines().skip(1).collect::<Vec<_>>(),
        sq.lines().skip(1).collect::<Vec<_>>()
    );
    assert!(fa.contains("sequences: 120"));

    // search the database against three of its own sequences
    let queries = tmp("cli_q.fasta");
    let db_text = std::fs::read_to_string(&fasta).unwrap();
    let records: Vec<&str> = db_text.split('>').filter(|r| !r.is_empty()).collect();
    let mut q_text = String::new();
    for r in records.iter().take(3) {
        q_text.push('>');
        q_text.push_str(r);
    }
    std::fs::write(&queries, q_text).unwrap();

    let out = swdual()
        .args(["search", "--db", sqb.to_str().unwrap()])
        .args(["--queries", queries.to_str().unwrap()])
        .args(["--cpus", "1", "--gpus", "1", "--top", "2", "--evalues"])
        .output()
        .expect("run swdual search");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Each query is a database member: its top hit is itself.
    for qid in ["synth_0", "synth_1", "synth_2"] {
        let block = stdout
            .split("Query ")
            .find(|b| b.starts_with(&format!("{qid}:")))
            .unwrap_or_else(|| panic!("no block for {qid} in:\n{stdout}"));
        let first_hit = block.lines().nth(1).expect("at least one hit");
        assert!(
            first_hit.contains(qid),
            "{qid} not its own top hit: {first_hit}"
        );
        assert!(first_hit.contains('E'), "E-value missing: {first_hit}");
    }

    for f in [&fasta, &sqb, &queries] {
        std::fs::remove_file(f).ok();
    }
}

/// A single query scales with `--cpus`: the plan cuts its one task along
/// the database, both workers report cells, and the hits are those of
/// one worker scoring everything.
#[test]
fn one_query_is_cut_over_both_cpus_and_keeps_its_hits() {
    let fasta = tmp("cut_db.fasta");
    let sqb = tmp("cut_db.sqb");
    let query = tmp("cut_q.fasta");
    let run = |args: &[&str]| {
        let out = swdual().args(args).output().expect("run swdual");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{args:?}: {stderr}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    // More than one 128-subject block, so there is somewhere to cut.
    run(&["generate", "--sequences", "400", "--mean-len", "90"]
        .iter()
        .chain(&["--output", fasta.to_str().unwrap(), "--seed", "4"])
        .copied()
        .collect::<Vec<_>>());
    run(&[
        "convert",
        "--input",
        fasta.to_str().unwrap(),
        "--output",
        sqb.to_str().unwrap(),
    ]);
    let db_text = std::fs::read_to_string(&fasta).unwrap();
    let seventh = db_text.split('>').nth(7).expect("400 records");
    std::fs::write(&query, format!(">{seventh}")).unwrap();

    let search = |cpus: &str| {
        let metrics = tmp(&format!("cut_metrics_{cpus}.txt"));
        let stdout = run(&[
            "search",
            "--db",
            sqb.to_str().unwrap(),
            "--queries",
            query.to_str().unwrap(),
            "--cpus",
            cpus,
            "--gpus",
            "0",
            "--top",
            "8",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ]);
        let text = std::fs::read_to_string(&metrics).unwrap();
        std::fs::remove_file(&metrics).ok();
        let cells: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("swdual_worker_cells_total{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        let hits = stdout.split("\nworker ").next().unwrap().to_string();
        (hits, cells)
    };
    let (one_hits, one_cells) = search("1");
    let (two_hits, two_cells) = search("2");
    assert!(one_hits.contains("Query synth_6:"), "{one_hits}");
    assert_eq!(
        one_hits.lines().count(),
        9,
        "a header and eight hits: {one_hits}"
    );
    assert_eq!(two_hits, one_hits);
    assert_eq!(one_cells.len(), 1);
    assert_eq!(two_cells.len(), 2);
    assert!(two_cells.iter().all(|&cells| cells > 0), "{two_cells:?}");
    assert_eq!(two_cells.iter().sum::<u64>(), one_cells[0]);

    for f in [&fasta, &sqb, &query] {
        std::fs::remove_file(f).ok();
    }
}

/// A declared rate model scaled towards zero prices every task at an
/// infinite time: the search must say so and exit, not panic.
#[test]
fn a_prior_scale_that_prices_tasks_at_infinity_is_an_error() {
    let fasta = tmp("prior_db.fasta");
    let query = tmp("prior_q.fasta");
    let out = swdual()
        .args(["generate", "--sequences", "20", "--mean-len", "60"])
        .args(["--output", fasta.to_str().unwrap(), "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let db_text = std::fs::read_to_string(&fasta).unwrap();
    let first = db_text.split('>').nth(1).expect("20 records");
    std::fs::write(&query, format!(">{first}")).unwrap();
    let out = swdual()
        .args(["search", "--db", fasta.to_str().unwrap()])
        .args(["--queries", query.to_str().unwrap()])
        .args(["--cpus", "2", "--gpus", "0", "--prior-scale", "0:1e-308"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("non-finite time"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for f in [&fasta, &query] {
        std::fs::remove_file(f).ok();
    }
}

/// Gap penalties anywhere in `i32`'s non-negative range score as Gotoh
/// does, and a negative one is an error, not a panic. `W30 A5 W30`
/// against `W60` scores 590 (30 W's, no gap) once a gap costs more than
/// 11 W's would add.
#[test]
fn gap_penalties_score_as_gotoh_over_their_whole_range() {
    let query = tmp("gap_q.fasta");
    let db = tmp("gap_db.fasta");
    let w = |n| "W".repeat(n);
    std::fs::write(&query, format!(">q\n{}AAAAA{}\n", w(30), w(30))).unwrap();
    std::fs::write(&db, format!(">s\n{}\n", w(60))).unwrap();
    let search = |gaps: &[&str]| {
        swdual()
            .args(["search", "--db", db.to_str().unwrap()])
            .args([
                "--queries",
                query.to_str().unwrap(),
                "--cpus",
                "1",
                "--gpus",
                "0",
            ])
            .args(gaps)
            .output()
            .unwrap()
    };
    for gaps in [
        &["--gap-open", "100"][..],
        &["--gap-open", "65546"],
        &["--gap-open", "1000000"],
        &["--gap-open", "2147483647", "--gap-extend", "2147483647"],
    ] {
        let out = search(gaps);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{gaps:?}");
        assert!(stdout.contains("score    590"), "{gaps:?}: {stdout}");
    }
    for flag in ["--gap-open", "--gap-extend"] {
        let out = search(&[flag, "-3"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains("must be >= 0"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    for f in [&query, &db] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = swdual().arg("search").output().unwrap(); // missing --db
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--db"));

    // `explain` absorbed `analyze` and `profile`: both names are now
    // as unknown as any other.
    for name in ["frobnicate", "analyze", "profile"] {
        let out = swdual().args([name, "x.jsonl"]).output().unwrap();
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown command {name:?}")), "{err}");
    }

    let out = swdual().output().unwrap(); // no command -> usage
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// Every subcommand rejects a flag outside its vocabulary by name —
/// `--cpu 8` for `--cpus 8` must not run on the default pool — and a
/// valued flag that ends the line without its value.
#[test]
fn unknown_flags_and_missing_values_are_rejected_by_every_subcommand() {
    let rejected = |args: &[&str], named: &str| {
        let out = swdual().args(args).output().unwrap();
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(err.contains(named), "{args:?} must name {named}: {err}");
        assert!(err.contains(&format!("usage: swdual {}", args[0])), "{err}");
    };
    for subcommand in [
        "search", "explain", "top", "tail", "diff", "convert", "generate", "info",
    ] {
        rejected(
            &[subcommand, "x.jsonl", "--bogus-flag", "1"],
            "--bogus-flag",
        );
    }
    rejected(
        &["search", "--db", "a", "--queries", "b", "--cpu", "8"],
        "--cpu",
    );
    rejected(&["generate", "--sequences", "5", "--output"], "--output");
    rejected(&["explain", "x.jsonl", "-o"], "-o");
    rejected(
        &["diff", "a.jsonl", "b.jsonl", "--threshold"],
        "--threshold",
    );
    rejected(&["top", "x.jsonl", "--refresh-ms"], "--refresh-ms");
}

#[test]
fn help_succeeds() {
    let out = swdual().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("swdual"));
}

/// `--top 0` would keep no hits; it is refused as a negative gap
/// penalty is, not raised to one.
#[test]
fn a_top_of_zero_is_refused() {
    let query = tmp("top0_q.fasta");
    let db = tmp("top0_db.fasta");
    std::fs::write(&query, ">q\nMKVLATGG\n").unwrap();
    std::fs::write(&db, ">s\nMKVLATGG\n>t\nWWWW\n").unwrap();
    let search = |top: &str| {
        swdual()
            .args(["search", "--db", db.to_str().unwrap()])
            .args(["--queries", query.to_str().unwrap()])
            .args(["--cpus", "1", "--gpus", "0", "--top", top])
            .output()
            .unwrap()
    };
    let out = search("0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("error: --top must be >= 1, got 0"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
    assert!(search("1").status.success());
    for f in [&query, &db] {
        std::fs::remove_file(f).ok();
    }
}

/// `generate --mean-len VALUE` for a value no length distribution has:
/// an error naming the flag, exit 1, no panic and no file.
fn assert_generate_refuses_mean_len(value: &str) {
    let output = tmp(&format!("mean_len_{}.fasta", value.replace('-', "minus")));
    std::fs::remove_file(&output).ok();
    let out = swdual()
        .args(["generate", "--sequences", "5", "--mean-len", value])
        .args(["--output", output.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{value}: {stderr}");
    assert!(
        stderr.contains("--mean-len must be a positive finite number"),
        "{value}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{value}: {stderr}");
    assert!(!output.exists(), "{value}");
}

#[test]
fn generate_refuses_a_mean_len_of_zero() {
    assert_generate_refuses_mean_len("0");
}

#[test]
fn generate_refuses_a_negative_mean_len() {
    assert_generate_refuses_mean_len("-5");
}

#[test]
fn generate_refuses_a_mean_len_that_is_not_a_number() {
    assert_generate_refuses_mean_len("NaN");
}

#[test]
fn generate_refuses_an_infinite_mean_len() {
    assert_generate_refuses_mean_len("inf");
}

/// `info` describes the SQB version-3 layout, for an `.sqb` file and for
/// the image a FASTA file is encoded to alike.
#[test]
fn info_reports_the_v3_layout() {
    let fasta = tmp("info_v3.fasta");
    let sqb = tmp("info_v3.sqb");
    let run = |args: &[&str]| swdual().args(args).output().unwrap();
    let (fasta_arg, sqb_arg) = (fasta.to_str().unwrap(), sqb.to_str().unwrap());
    assert!(run(&[
        "generate",
        "--sequences",
        "300",
        "--mean-len",
        "120",
        "--output",
        fasta_arg
    ])
    .status
    .success());
    assert!(run(&["convert", "--input", fasta_arg, "--output", sqb_arg])
        .status
        .success());
    let bytes = std::fs::metadata(&sqb).unwrap().len();
    let layout = |path: &str| {
        let out = run(&["info", "--db", path]);
        assert!(out.status.success());
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout
            .lines()
            .find(|line| line.starts_with("layout:"))
            .unwrap_or_else(|| panic!("no layout line: {stdout}"))
            .to_string()
    };
    let line = layout(sqb_arg);
    assert!(
        line.contains("SQB v3, 3 blocks of up to 128 records on 32 lanes, padding "),
        "{line}"
    );
    assert!(
        line.ends_with(&format!("% of residues, {bytes} bytes")),
        "{line}"
    );
    assert_eq!(layout(fasta_arg), line);
    for f in [&fasta, &sqb] {
        std::fs::remove_file(f).ok();
    }
}

/// A version-2 file (one record, "MK") is refused with the re-convert
/// message, exit 1.
#[test]
fn info_on_a_version_2_file_asks_for_a_reconvert() {
    let path = tmp("info_v2.sqb");
    let mut v2 = b"SQB1".to_vec();
    v2.extend(2u16.to_le_bytes());
    v2.extend([2, 0]); // protein, no flags
    for field in [1u64, 2, 1, 64, 66, 67, 91] {
        v2.extend(field.to_le_bytes());
    }
    v2.extend([10, 11, b'a']);
    v2.extend([0; 16]);
    v2.extend(2u32.to_le_bytes());
    v2.extend([1, 0, 0, 0]);
    std::fs::write(&path, &v2).unwrap();
    let out = swdual()
        .args(["info", "--db", path.to_str().unwrap()])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("unsupported SQB format version 2"),
        "{stderr}"
    );
    assert!(stderr.contains("re-run `swdual convert`"), "{stderr}");
    std::fs::remove_file(&path).ok();
}
