//! Host-time and host-memory benchmark of the SeBS-RS simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-replay|fleet-observed|cluster-sweep|perf-cost> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It measures what the simulator costs its user on the host — never
//! simulated time — on four workloads generated from `--seed`, all at a
//! fixed `jobs = 1`:
//!
//! * `--trace 0` reports the end-to-end metrics `invocations_per_s`
//!   (simulated invocations over host seconds, on a set of inputs drawn
//!   from the seed and replayed in turn for `--seconds`; each input's
//!   median replay time counts, at the reference host speed of
//!   [`calib`]), `peak_rss_mb` (`VmHWM` of a fresh process) and
//!   `setup_s` (median of several builds of the inputs, at the same
//!   reference speed);
//! * `--trace 1` replays the workload through the benchmark's own copy
//!   of the experiment loop, timing every call into a layer's public
//!   functions, and reports the per-layer metrics with an Amdahl table.
//!
//! Every run checks its outputs outside the timed region: each replay
//! covers the generated arrivals, repeated replays of an input are
//! byte-identical, `jobs = 1` and `jobs = 2` exports are byte-identical,
//! observers leave the simulated series unchanged, and the traced loop's
//! exports equal the library's. A failed check marks the run incorrect
//! and counts all of its operations as failed.
//!
//! The parent process does no measuring itself: each part of a run is a
//! child process (this binary with `--child <part>`), so the peak-memory
//! figure of the measured part is its own. The last line of standard
//! output is the JSON result.

mod calib;
mod clock;
mod host;
mod recorder;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::Duration;

use clock::Instant;

use workload::{outcome, replay, set_up, Inputs, Workload};

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 3] = [
    ("invocations_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Set-up builds every input once, then again until [`SETUP_BUDGET`] is
/// spent or [`MAX_SETUPS`] builds are timed.
const MAX_SETUPS: usize = 48;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// Wall-clock budget of a whole run; a child still running then is
/// killed and the run fails.
const RUN_BUDGET: Duration = Duration::from_secs(170);

/// Prefix of the lines a child reports data on.
const DATA: &str = "= ";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Seed of the workload's inputs.
    pub seed: u64,
    /// How long the measured part repeats the workload.
    pub seconds: f64,
    /// Traced (per-layer) rather than end-to-end run.
    pub trace: bool,
    /// The part a child process runs, `None` in the parent.
    pub child: Option<String>,
    /// Observers switched on in an `ablate` child (`m`, `s`, `p`).
    pub observers: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        if !matches!(
            name,
            "workload" | "seed" | "seconds" | "trace" | "child" | "observers"
        ) {
            return Err(format!("unknown flag --{name}"));
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let need = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload_name = need("workload")?;
    let workload = Workload::parse(workload_name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {workload_name:?}; valid: {}",
            names.join(", ")
        )
    })?;
    let seed = need("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    let trace = match need("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child: flags.get("child").map(|s| s.to_string()),
        observers: flags.get("observers").unwrap_or(&"").to_string(),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.child.as_deref() {
        None => parent(&args),
        Some("measure") => {
            measure(&args);
            Ok(())
        }
        Some("check") => {
            check(&args);
            Ok(())
        }
        Some("traced") => {
            traced::run(&args);
            Ok(())
        }
        Some("ablate") => {
            traced::ablate(&args);
            Ok(())
        }
        Some(other) => Err(format!("unknown child part {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints one data line for the parent.
pub fn emit(key: &str, value: impl std::fmt::Display) {
    println!("{DATA}{key} {value}");
}

/// The median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Builds every input of the run and returns the median set-up time at
/// the reference host speed, with the inputs. When that takes less than
/// [`SETUP_BUDGET`], the inputs are built again (and dropped) until it is
/// spent or [`MAX_SETUPS`] builds are timed, so fast set-ups get a
/// steady median.
pub fn timed_set_up(w: Workload, seeds: &[u64], probe: &calib::Probe) -> (f64, Vec<Inputs>) {
    let mut times = Vec::new();
    let mut inputs = Vec::with_capacity(seeds.len());
    let mut spent = 0.0;
    while times.len() < seeds.len()
        || (spent < SETUP_BUDGET.as_secs_f64() && times.len() < MAX_SETUPS)
    {
        let seed = seeds[times.len() % seeds.len()];
        let speed = probe.speed();
        let t = clock::now();
        let built = std::hint::black_box(set_up(w, seed));
        let elapsed = t.elapsed().as_secs_f64();
        spent += elapsed;
        times.push(elapsed * speed);
        if inputs.len() < seeds.len() {
            inputs.push(built);
        }
    }
    (median(&times), inputs)
}

/// Child part `measure`: set-up of every input, then the measured call
/// at `jobs = 1`, cycling through the inputs until `--seconds` have
/// passed. Reports the throughput over the whole input set (each input's
/// median replay time at the reference host speed, summed; see
/// [`calib`]), the peak RSS of this process, and checks every replay
/// outside the timed region.
fn measure(args: &Args) {
    let w = args.workload;
    let seeds = workload::input_seeds(w, args.seed);
    let probe = calib::Probe::new();
    let (setup_s, inputs) = timed_set_up(w, &seeds, &probe);
    let k = seeds.len();
    // One untimed replay first, so the process has grown its heap: the
    // timed replays measure steady-state throughput, and the cost of the
    // memory shows in `peak_rss_mb`.
    drop(std::hint::black_box(replay(
        w,
        &inputs[0],
        &w.config(seeds[0], 1),
    )));
    // Per input: raw replay seconds, and seconds at the reference speed.
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut speeds = Vec::new();
    let mut ops = vec![0_u64; k];
    let mut stores: Vec<Option<String>> = vec![None; k];
    let (mut attempted, mut failed) = (0_u64, 0_u64);
    let (mut complete, mut repeatable) = (true, true);
    let mut first = None;
    let start = clock::now();
    let mut reps = 0;
    while reps < k || start.elapsed().as_secs_f64() < args.seconds {
        let i = reps % k;
        let config = w.config(seeds[i], 1);
        let speed = probe.speed();
        let t = clock::now();
        let result = std::hint::black_box(replay(w, &inputs[i], &config));
        let elapsed = t.elapsed().as_secs_f64();
        raw[i].push(elapsed);
        scaled[i].push(elapsed * speed);
        speeds.push(speed);
        let out = outcome(&inputs[i], &result);
        drop(result);
        ops[i] = out.invocations;
        attempted += out.invocations;
        failed += out.failed;
        complete &= out.replay_complete;
        let store = out
            .digests
            .iter()
            .find(|(n, _)| *n == "store")
            .map(|(_, d)| d.clone());
        match &stores[i] {
            Some(prev) => repeatable &= Some(prev) == store.as_ref(),
            None => stores[i] = store,
        }
        if first.is_none() {
            first = Some(out);
        }
        reps += 1;
    }
    let peak = host::peak_rss_mb().unwrap_or(f64::NAN);
    let total_ops = ops.iter().sum::<u64>() as f64;
    let over_set = |secs: &[Vec<f64>]| total_ops / secs.iter().map(|t| median(t)).sum::<f64>();
    for (i, t) in raw.iter().enumerate() {
        let shown: Vec<String> = t.iter().map(|s| format!("{s:.4}")).collect();
        println!(
            "input {i} (seed {}): {} operations, replay s: {}",
            seeds[i],
            ops[i],
            shown.join(" ")
        );
    }
    println!(
        "host speed {:.4} of reference (median of {reps} probes); at host speed {:.1} invocations/s",
        median(&speeds),
        over_set(&raw)
    );
    emit("setup_s", setup_s);
    emit("invocations_per_s", over_set(&scaled));
    emit("peak_rss_mb", peak);
    emit("attempted", attempted);
    emit("failed", failed);
    emit("repeatable", u8::from(repeatable));
    let mut out = first.expect("at least one replay");
    out.replay_complete = complete;
    report_outcome("", &out);
}

/// Child part `check`: the first input's replay at `jobs = 2` (and, on
/// `fleet-observed`, with observers off) for the byte-identity checks.
fn check(args: &Args) {
    let inputs = set_up(args.workload, args.seed);
    let parallel = replay(args.workload, &inputs, &args.workload.config(args.seed, 2));
    report_outcome("jobs2.", &outcome(&inputs, &parallel));
    if args.workload == Workload::FleetObserved {
        let off = Workload::FleetReplay.config(args.seed, 2);
        let plain = replay(args.workload, &inputs, &off);
        report_outcome("off.", &outcome(&inputs, &plain));
    }
}

/// Reports an [`workload::Outcome`] as data lines under `prefix`.
pub fn report_outcome(prefix: &str, out: &workload::Outcome) {
    emit(&format!("{prefix}invocations"), out.invocations);
    emit(&format!("{prefix}failed_ops"), out.failed);
    emit(
        &format!("{prefix}replay_complete"),
        u8::from(out.replay_complete),
    );
    for (name, d) in &out.digests {
        emit(&format!("{prefix}digest.{name}"), d);
    }
    for (name, v) in &out.stats {
        emit(&format!("{prefix}sim.{name}"), v);
    }
}

/// Data reported by one child, by key.
pub type Data = BTreeMap<String, String>;

/// Runs this binary as a child part, forwarding its non-data output and
/// collecting its data lines. Kills the child if the run's deadline
/// passes; always waits for it to end.
pub fn run_child(
    args: &Args,
    part: &str,
    extra: &[&str],
    deadline: Instant,
) -> Result<Data, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let seconds = args.seconds.to_string();
    let seed = args.seed.to_string();
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name(), "--seed", &seed])
        .args([
            "--seconds",
            &seconds,
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .args(["--child", part])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd.spawn().map_err(|e| format!("starting {part}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let mut stdout = stdout;
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let status = wait_until(&mut child, deadline);
    let text = reader
        .join()
        .map_err(|_| "reading child output".to_string())?;
    let status = status.map_err(|e| format!("{part}: {e}"))?;
    let mut data = Data::new();
    for line in text.lines() {
        match line.strip_prefix(DATA) {
            Some(kv) => {
                let (k, v) = kv.split_once(' ').unwrap_or((kv, ""));
                data.insert(k.to_string(), v.to_string());
            }
            None => println!("{line}"),
        }
    }
    if !status.success() {
        return Err(format!("{part} exited with {status}"));
    }
    Ok(data)
}

fn wait_until(child: &mut Child, deadline: Instant) -> Result<std::process::ExitStatus, String> {
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(status);
        }
        if clock::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err("ran past the run's time budget and was stopped".to_string());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reads a numeric data value.
pub fn num(data: &Data, key: &str) -> Result<f64, String> {
    data.get(key)
        .ok_or_else(|| format!("child reported no {key}"))?
        .parse()
        .map_err(|e| format!("{key}: {e}"))
}

/// The checks a run passed or failed, in order, for the printed summary.
#[derive(Default)]
pub struct Checks(Vec<(String, bool)>);

impl Checks {
    /// Records one check.
    pub fn add(&mut self, name: impl Into<String>, ok: bool) {
        self.0.push((name.into(), ok));
    }

    /// Records that `a[ka]` exists and equals `b[kb]`.
    pub fn same(&mut self, name: &str, a: &Data, ka: &str, b: &Data, kb: &str) {
        let ok = matches!((a.get(ka), b.get(kb)), (Some(x), Some(y)) if x == y);
        self.add(name, ok);
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }

    /// Prints one line per check.
    pub fn print(&self) {
        for (name, ok) in &self.0 {
            println!("check {:<44} {}", name, if *ok { "ok" } else { "FAILED" });
        }
    }
}

/// Prints the simulated statistics and export digests of one child.
fn print_sim(data: &Data) {
    let sim: Vec<String> = data
        .iter()
        .filter_map(|(k, v)| k.strip_prefix("sim.").map(|s| format!("{s}={v}")))
        .collect();
    println!("sim-stats {}", sim.join(" "));
    let digests: Vec<String> = data
        .iter()
        .filter_map(|(k, v)| k.strip_prefix("digest.").map(|s| format!("{s}={v}")))
        .collect();
    println!("digests {}", digests.join(" "));
}

fn parent(args: &Args) -> Result<(), String> {
    let deadline = clock::now() + RUN_BUDGET;
    println!("workload {} seed {}", args.workload.name(), args.seed);
    println!("host {}", host::fingerprint());
    let (correct, attempted, failed, metrics) = if args.trace {
        traced::parent(args, deadline)?
    } else {
        end_to_end(args, deadline)?
    };
    let failed = if correct { failed } else { attempted };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                host::quote(name),
                json_number(*value),
                host::quote(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    Ok(())
}

/// A JSON number: the value with all its digits, or 0 when a layer was
/// not crossed and nothing could be measured.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One metric of the final result: name, unit, value.
pub type Metric = (String, String, f64);

/// The `--trace 0` run: a measuring child, then a checking child.
fn end_to_end(args: &Args, deadline: Instant) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let m = run_child(args, "measure", &[], deadline)?;
    let c = run_child(args, "check", &[], deadline)?;
    print_sim(&m);
    let mut checks = Checks::default();
    let flag = |key: &str| m.get(key).map(String::as_str) == Some("1");
    checks.add(
        "every replay covers the generated arrivals",
        flag("replay_complete"),
    );
    checks.add(
        "repeated replays of an input are identical",
        flag("repeatable"),
    );
    for key in ["store", "series", "report", "metrics", "traces"] {
        let k = format!("digest.{key}");
        if m.contains_key(&k) {
            checks.same(
                &format!("jobs=1 and jobs=2 {key} identical"),
                &m,
                &k,
                &c,
                &format!("jobs2.{k}"),
            );
        }
    }
    if args.workload == Workload::FleetObserved {
        checks.same(
            "observers leave the series unchanged",
            &m,
            "digest.series",
            &c,
            "off.digest.series",
        );
    }
    checks.print();
    let attempted = num(&m, "attempted")? as u64;
    let failed = num(&m, "failed")? as u64;
    let metrics = END_TO_END
        .iter()
        .map(|(name, unit)| Ok((name.to_string(), unit.to_string(), num(&m, name)?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok((checks.all_passed(), attempted, failed, metrics))
}
