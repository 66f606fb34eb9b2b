//! `e2ebench` — one repetition of a benchmark workload, as JSON on stdout.
//!
//! ```text
//! e2ebench run   <workload> --seed N   untraced: the public entry points
//! e2ebench trace <workload> --seed N   traced: per-layer timers from outside
//! ```
//!
//! `run` builds the scenario [`Workload::setups`] times (timing each
//! `Scenario::build`), then runs the workload's cells through
//! `experiments::harness` with a recording sink, exactly as the table
//! binaries do, timing each harness call. It also times the [`calib`]
//! kernel before the set-ups and after each harness call, so that `run.py`
//! can rescale every wall time by the core's speed around it. `trace`
//! rebuilds the
//! same cells around the timing wrappers of [`timers`] and reports the
//! per-layer numbers. Both print the cells' deterministic outputs so the
//! wrapper script `run.py` can check them against each other.

mod calib;
mod timers;
mod traced;
mod workload;

use lbchat::obs::{Json, ObsSink};
use std::time::Instant;
use workload::Workload;

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench (run|trace) <workload> --seed N\n  workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(mode), Some(name)) = (args.first(), args.get(1)) else {
        usage()
    };
    let Some(w) = Workload::parse(name) else {
        usage()
    };
    let seed = match &args[2..] {
        [] => 42,
        [flag, value] if flag == "--seed" => value.parse::<u64>().unwrap_or_else(|_| usage()),
        _ => usage(),
    };
    lbchat::exec::set_jobs(w.jobs());
    let report = match mode.as_str() {
        "run" => run(w, seed),
        "trace" => traced::run(w, seed),
        _ => usage(),
    };
    let mut line = String::new();
    report.write(&mut line);
    println!("{line}");
}

/// The untraced repetition: [`Workload::setups`] timed scenario builds,
/// then every cell through the harness with a recording sink, with a
/// calibration sample on both sides of every timed interval.
fn run(w: Workload, seed: u64) -> Json {
    let mut calib_s = vec![Json::Num(calib::sample())];
    let mut setup_s = Vec::new();
    let mut scenario = None;
    for _ in 0..w.setups() {
        drop(scenario.take());
        let t = Instant::now();
        scenario = Some(experiments::Scenario::build(w.scale(seed)));
        setup_s.push(Json::Num(t.elapsed().as_secs_f64()));
    }
    let s = scenario.expect("at least one setup");
    calib_s.push(Json::Num(calib::sample()));
    let obs = ObsSink::recording();
    let mut stage_s = Vec::new();
    let error = w
        .run_cells(&s, &obs, &mut stage_s, || {
            calib_s.push(Json::Num(calib::sample()))
        })
        .err();
    let cells = w.outputs_from_events(&obs);
    Json::Obj(vec![
        ("workload".into(), w.name().into()),
        ("seed".into(), seed.into()),
        ("jobs".into(), w.jobs().into()),
        ("calib_s".into(), Json::Arr(calib_s)),
        ("setup_s".into(), Json::Arr(setup_s)),
        (
            "stage_s".into(),
            Json::Arr(stage_s.into_iter().map(Json::Num).collect()),
        ),
        ("error".into(), error.map_or(Json::Null, Json::Str)),
        ("outputs".into(), workload::outputs_json(&cells, &obs)),
        ("obs_events".into(), obs.event_count().into()),
    ])
}
