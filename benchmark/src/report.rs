//! The supervisor side of `run`: one child process per workload and repeat,
//! and the result file `compare` reads.

use crate::json::{self, Value};
use crate::workload::Outcome;
use crate::{env, spec, RunArgs};
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Every run of one workload in a result set.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadRuns {
    pub name: String,
    pub ops: u64,
    pub failed_ops: u64,
    pub state_digest: Option<String>,
    /// Metric name → one value per repeat, in run order.
    pub end_to_end: Vec<(String, Vec<f64>)>,
    pub per_layer: Vec<(String, Vec<f64>)>,
}

fn collect(declared: &[spec::MetricSpec], runs: &[&Outcome]) -> Vec<(String, Vec<f64>)> {
    if runs.is_empty() {
        return Vec::new();
    }
    declared
        .iter()
        .map(|m| {
            let values = runs.iter().map(|o| o.get(m.name).unwrap_or(0.0)).collect();
            (m.name.to_owned(), values)
        })
        .collect()
}

impl WorkloadRuns {
    pub fn from_outcomes(name: &str, untraced: &[&Outcome], traced: &[&Outcome]) -> WorkloadRuns {
        let all = untraced.iter().chain(traced);
        WorkloadRuns {
            name: name.to_owned(),
            ops: all.clone().map(|o| o.ops).sum(),
            failed_ops: all.clone().map(|o| o.failed).sum(),
            state_digest: all
                .flat_map(|o| &o.info)
                .find(|(k, _)| *k == "state_digest")
                .map(|(_, v)| v.clone()),
            end_to_end: collect(&spec::END_TO_END, untraced),
            per_layer: collect(spec::PER_LAYER, traced),
        }
    }
}

/// One invocation's worth of results.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// False for `--quick` sizes: such numbers must never be compared.
    pub comparable: bool,
    pub seed: u64,
    pub seconds: f64,
    pub repeat: u32,
    pub traced: bool,
    pub workloads: Vec<WorkloadRuns>,
}

impl ResultSet {
    /// Reads a parsed result file back.
    ///
    /// # Errors
    ///
    /// The document is not a `mempool-benchmark-result-v1`.
    pub fn from_json(doc: &Value) -> Result<ResultSet, String> {
        if doc.get("schema").and_then(Value::as_str) != Some("mempool-benchmark-result-v1") {
            return Err("not a mempool-benchmark-result-v1 file".to_owned());
        }
        let env = doc.get("env").ok_or("no `env`")?;
        let number = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("no `{key}`"))
        };
        let flag = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("no `{key}`"))
        };
        let metrics = |w: &Value, key: &str| -> Result<Vec<(String, Vec<f64>)>, String> {
            w.get(key)
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("no `{key}`"))?
                .iter()
                .map(|(name, m)| {
                    let values = m
                        .get("values")
                        .and_then(Value::as_arr)
                        .ok_or_else(|| format!("`{name}` has no values"))?
                        .iter()
                        .map(|v| {
                            v.as_f64()
                                .ok_or_else(|| format!("`{name}` has a non-numeric value"))
                        })
                        .collect::<Result<_, _>>()?;
                    Ok((name.clone(), values))
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or("no `workloads`")?
            .iter()
            .map(|(name, w)| {
                Ok(WorkloadRuns {
                    name: name.clone(),
                    ops: number(w, "ops")? as u64,
                    failed_ops: number(w, "failed_ops")? as u64,
                    state_digest: w
                        .get("state_digest")
                        .and_then(Value::as_str)
                        .map(str::to_owned),
                    end_to_end: metrics(w, "end_to_end")?,
                    per_layer: metrics(w, "per_layer")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultSet {
            comparable: flag(doc, "comparable")?,
            seed: number(env, "seed")? as u64,
            seconds: number(env, "seconds")?,
            repeat: number(env, "repeat")? as u32,
            traced: flag(env, "traced")?,
            workloads,
        })
    }
}

fn render_metrics(out: &mut String, key: &str, metrics: &[(String, Vec<f64>)]) {
    let _ = write!(out, "      {}: {{", json::quote(key));
    for (i, (name, values)) in metrics.iter().enumerate() {
        let unit = spec::metric(name).map_or("", |m| m.unit);
        let values: Vec<String> = values.iter().map(|v| json::num(*v)).collect();
        let _ = write!(
            out,
            "{}\n        {}: {{\"unit\": {}, \"values\": [{}]}}",
            if i > 0 { "," } else { "" },
            json::quote(name),
            json::quote(unit),
            values.join(", ")
        );
    }
    out.push_str(if metrics.is_empty() { "}" } else { "\n      }" });
}

/// Renders a result file: where and how the numbers were taken, then every
/// value of every metric (medians and quartiles are computed by the
/// reader, from the values).
pub fn render_result_file(set: &ResultSet) -> String {
    let mut out = String::from("{\n  \"schema\": \"mempool-benchmark-result-v1\",\n");
    let _ = writeln!(out, "  \"comparable\": {},", set.comparable);
    let _ = writeln!(
        out,
        "  \"env\": {{\"nproc\": {}, \"rustc\": {}, \"git_commit\": {}, \"seed\": {}, \"seconds\": {}, \"repeat\": {}, \"traced\": {}}},",
        env::nproc(),
        json::quote(&env::rustc_version()),
        json::quote(&env::git_commit()),
        set.seed,
        json::num(set.seconds),
        set.repeat,
        set.traced
    );
    out.push_str("  \"workloads\": {");
    for (i, w) in set.workloads.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {}: {{\n      \"ops\": {}, \"failed_ops\": {}, \"state_digest\": {},\n",
            if i > 0 { "," } else { "" },
            json::quote(&w.name),
            w.ops,
            w.failed_ops,
            w.state_digest
                .as_deref()
                .map_or_else(|| "null".to_owned(), json::quote)
        );
        render_metrics(&mut out, "end_to_end", &w.end_to_end);
        out.push_str(",\n");
        render_metrics(&mut out, "per_layer", &w.per_layer);
        out.push_str("\n    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// What a child run printed: its outcome, read back from its last line.
fn parse_child(stdout: &str, traced: bool) -> Result<Outcome, String> {
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let doc =
        json::parse(last).map_err(|e| format!("the child's last line is not a result: {e}"))?;
    let whole = |key: &str| {
        doc.get(key)
            .and_then(Value::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("the child's result lacks `{key}`"))
    };
    let mut out = Outcome {
        ops: whole("attempted")?,
        failed: whole("failed")?,
        ..Outcome::default()
    };
    let declared: &[spec::MetricSpec] = if traced {
        spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let metrics = doc
        .get("metrics")
        .ok_or("the child's result lacks `metrics`")?;
    for m in declared {
        let value = metrics
            .get(m.name)
            .and_then(|v| v.get("value"))
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("the child's result lacks `{}`", m.name))?;
        out.set(m.name, value);
    }
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        if let (Some(_), Some("state_digest"), Some(digest)) =
            (words.next(), words.next(), words.next())
        {
            out.info.push(("state_digest", digest.to_owned()));
        }
    }
    Ok(out)
}

/// Runs one workload once in a child process of this same executable,
/// passing its report through.
fn run_child(run: &RunArgs, workload: &str, traced: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if run.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The child's last line is for machines; everything before it is the
    // per-metric report.
    let report: Vec<&str> = stdout.lines().collect();
    for line in &report[..report.len().saturating_sub(1)] {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    parse_child(&stdout, traced)
}

/// `run` as a supervisor: each workload in its own child, `--repeat`
/// times, traced children too when `--trace` is given; then the result
/// file.
///
/// # Errors
///
/// A child could not be run or printed no result.
pub fn supervise(run: &RunArgs) -> Result<ExitCode, String> {
    let names: Vec<&str> = if run.workload == "all" {
        spec::WORKLOADS.iter().map(|(w, _)| *w).collect()
    } else {
        vec![run.workload.as_str()]
    };
    let repeat = run.repeat.unwrap_or(1);
    let mut untraced: Vec<Vec<Outcome>> = names.iter().map(|_| Vec::new()).collect();
    let mut traced: Vec<Vec<Outcome>> = names.iter().map(|_| Vec::new()).collect();
    // Repeats are the outer loop, so slow drift of the host lands on every
    // workload alike instead of on whichever ran last.
    for r in 0..repeat {
        for (i, name) in names.iter().enumerate() {
            println!(
                "# run {}/{repeat} of {name} (seed {}, {} s)",
                r + 1,
                run.seed,
                run.seconds
            );
            untraced[i].push(run_child(run, name, false)?);
            if run.trace {
                println!("# traced run {}/{repeat} of {name}", r + 1);
                traced[i].push(run_child(run, name, true)?);
            }
        }
    }
    let mut workloads: Vec<WorkloadRuns> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            WorkloadRuns::from_outcomes(
                name,
                &untraced[i].iter().collect::<Vec<_>>(),
                &traced[i].iter().collect::<Vec<_>>(),
            )
        })
        .collect();

    // The 2-worker engine must leave the machine in the serial engine's
    // state: same seed, same digest.
    let digest_of = |ws: &[WorkloadRuns], name: &str| {
        ws.iter()
            .find(|w| w.name == name)
            .and_then(|w| w.state_digest.clone())
    };
    if let (Some(serial), Some(par2)) = (
        digest_of(&workloads, "matmul_serial"),
        digest_of(&workloads, "matmul_par2"),
    ) {
        if serial != par2 {
            println!(
                "# FAILED matmul_par2: state digest {par2} differs from matmul_serial's {serial}"
            );
            if let Some(w) = workloads.iter_mut().find(|w| w.name == "matmul_par2") {
                w.failed_ops += 1;
            }
        }
    }

    let set = ResultSet {
        comparable: !run.quick,
        seed: run.seed,
        seconds: run.seconds,
        repeat,
        traced: run.trace,
        workloads,
    };
    print_summary(&set);
    if let Some(path) = &run.out {
        std::fs::write(path, render_result_file(&set))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("# results written to {path}");
    }
    let failed: u64 = set.workloads.iter().map(|w| w.failed_ops).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn print_summary(set: &ResultSet) {
    println!(
        "# summary: seed {}, {} s, {} run(s) each — median [q1 .. q3]",
        set.seed, set.seconds, set.repeat
    );
    for w in &set.workloads {
        println!("{} ops {} count", w.name, w.ops);
        println!("{} failed_ops {} count", w.name, w.failed_ops);
        for (name, values) in w.end_to_end.iter().chain(&w.per_layer) {
            let unit = spec::metric(name).map_or("", |m| m.unit);
            let median = crate::stats::median(values);
            match crate::stats::quartiles(values) {
                Some((q1, q3)) => println!(
                    "{} {name} {} {unit} [{} .. {}]",
                    w.name,
                    json::num(median),
                    json::num(q1),
                    json::num(q3)
                ),
                None => println!("{} {name} {} {unit}", w.name, json::num(median)),
            }
        }
    }
}
