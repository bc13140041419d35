//! The campaign-path workloads: `sim-phoenix`, `sim-sharing` and
//! `ingest-serial`. All three run `ddrace_harness::run_campaign` on one
//! harness worker in native, continuous and demand-hitm modes, so every
//! mode's host time is the plain sum of its jobs' walls.

use crate::layers::{self, Subject};
use crate::report::{median, repeat_for, timed_setup, Outcome};
use crate::spans::Tracer;
use crate::RunOpts;
use ddrace_core::{geomean, AnalysisMode, RunResult, SimConfig, Simulation};
use ddrace_detector::RaceReport;
use ddrace_harness::{fnv1a, run_campaign, Campaign, CampaignReport, EventSink, Job, TraceSource};
use ddrace_trace::TraceWriter;
use ddrace_workloads::{archetypes, parsec, phoenix, racy, Scale, WorkloadSpec};
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Simulated cores of every job: the paper's 8-core machine.
pub const CORES: usize = 8;
/// Phoenix and PARSEC run at 1/16 of `Scale::SMALL`, so that one pass
/// of a sim workload takes 0.6–2 s on a 2-core host and a 30 s run
/// holds 15–40 passes to take each job's fastest wall from: with fewer
/// samples per job, the fastest wall follows the host's speed.
const REDUCED: Scale = Scale { num: 1, den: 16 };
/// The ingest corpus runs at 1/8 of `Scale::SMALL`: replaying it in
/// three modes takes about 1 s per pass, and set-up records it three
/// times per run.
const CORPUS: Scale = Scale { num: 1, den: 8 };
/// Set-up warm-up size: every program of the workload once per mode.
const WARM_UP: Scale = Scale { num: 1, den: 100 };

/// The three analysis modes every workload runs, in metric order.
pub fn modes() -> [AnalysisMode; 3] {
    [
        AnalysisMode::Native,
        AnalysisMode::Continuous,
        AnalysisMode::demand_hitm(),
    ]
}

/// Metric-order index of a mode label.
pub fn mode_index(label: &str) -> usize {
    match label {
        "native" => 0,
        "continuous" => 1,
        _ => 2,
    }
}

/// Programs that carry a planted race; every other program is race-free.
fn planted(name: &str) -> bool {
    racy::kernels().iter().any(|k| k.name == name) || name == archetypes::dcl_relaxed().name
}

/// One campaign's worth of programs at one scale.
struct Group {
    name: &'static str,
    specs: Vec<WorkloadSpec>,
    scale: Scale,
}

fn groups(workload: &str, quick: bool) -> Vec<Group> {
    let fit = |scale| if quick { Scale::TEST } else { scale };
    match workload {
        "sim-phoenix" => vec![Group {
            name: "phoenix",
            specs: phoenix::suite(),
            scale: fit(REDUCED),
        }],
        _ => vec![
            Group {
                name: "parsec",
                specs: parsec::suite(),
                scale: fit(REDUCED),
            },
            // The planted races and sync archetypes are cheap, and their
            // race counts are the accuracy reference, so they keep the
            // full `Scale::SMALL` size.
            Group {
                name: "kernels",
                specs: racy::kernels()
                    .into_iter()
                    .chain(archetypes::suite())
                    .collect(),
                scale: fit(Scale::SMALL),
            },
        ],
    }
}

fn campaign(name: &str, specs: &[WorkloadSpec], scale: Scale, seed: u64) -> Campaign {
    Campaign::builder(name)
        .workloads(specs.iter().cloned())
        .modes(modes())
        .seeds([seed])
        .scale(scale)
        .cores(CORES)
        .build()
}

/// Host and simulated figures of one timed pass.
pub struct PassStats {
    pub wall_s: f64,
    pub units: u64,
    pub mode_wall_s: [f64; 3],
    /// Per job, in job order: metric-order mode, units, wall seconds.
    pub job_walls: Vec<(usize, u64, f64)>,
    pub jobs: u64,
    pub failed: u64,
    pub digest: u64,
}

impl PassStats {
    /// Campaign wall minus the summed job walls: the harness's own time.
    pub fn harness_overhead_s(&self) -> f64 {
        self.wall_s - self.mode_wall_s.iter().sum::<f64>()
    }
}

/// Runs every campaign once on one worker.
fn run_pass(campaigns: &[Campaign]) -> (Vec<CampaignReport>, f64) {
    let start = Instant::now();
    let reports = campaigns
        .iter()
        .map(|c| run_campaign(c, 1, &EventSink::null()))
        .collect();
    (reports, start.elapsed().as_secs_f64())
}

/// Runs passes over `campaigns` while the budget lasts (one pass for a
/// zero budget). Returns the first pass's reports, for the checks, and
/// every pass's figures.
fn timed_passes(campaigns: &[Campaign], budget: Duration) -> (Vec<CampaignReport>, Vec<PassStats>) {
    let mut first = None;
    let stats = repeat_for(budget, || {
        let (reports, wall) = run_pass(campaigns);
        let stats = pass_stats(&reports, wall);
        first.get_or_insert(reports);
        stats
    });
    (first.expect("at least one pass"), stats)
}

/// Units of work of one job: scheduler ops for simulated jobs, trace
/// records for replayed ones.
fn units(job: &Job, result: &RunResult) -> u64 {
    match &job.trace {
        Some(source) => source.records,
        None => result.schedule.ops_executed,
    }
}

/// Race identity: shadow unit, kind, and the racing threads.
pub type RaceKey = (u64, u8, u32, u32);

pub fn keys_of(reports: &[RaceReport]) -> BTreeSet<RaceKey> {
    reports
        .iter()
        .map(|r| (r.shadow_key, r.kind as u8, r.prior.tid.0, r.current.tid.0))
        .collect()
}

pub fn race_keys(result: &RunResult) -> BTreeSet<RaceKey> {
    keys_of(&result.races.reports)
}

fn shadow_keys(result: &RunResult) -> BTreeSet<u64> {
    result.races.reports.iter().map(|r| r.shadow_key).collect()
}

/// FNV-1a over the deterministic fields of every job, in job order.
fn digest(reports: &[CampaignReport]) -> u64 {
    let mut text = String::new();
    for report in reports {
        for record in &report.records {
            let job = &report.spec.jobs[record.id];
            text.push_str(&job.label());
            match &record.outcome {
                Ok(r) => text.push_str(&format!(
                    " m{} a{} n{} p{} t{} r{:?}\n",
                    r.makespan,
                    r.accesses_total,
                    r.accesses_analyzed,
                    r.pmis,
                    r.timeline.len(),
                    race_keys(r)
                )),
                Err(e) => text.push_str(&format!(" failed {}\n", e.kind())),
            }
        }
    }
    fnv1a(text.as_bytes())
}

fn pass_stats(reports: &[CampaignReport], wall_s: f64) -> PassStats {
    let mut stats = PassStats {
        wall_s,
        units: 0,
        mode_wall_s: [0.0; 3],
        job_walls: Vec::new(),
        jobs: 0,
        failed: 0,
        digest: digest(reports),
    };
    for report in reports {
        for record in &report.records {
            let job = &report.spec.jobs[record.id];
            let m = mode_index(job.mode.label());
            stats.jobs += 1;
            stats.mode_wall_s[m] += record.wall.as_secs_f64();
            let n = match &record.outcome {
                Ok(result) => units(job, result),
                Err(_) => {
                    stats.failed += 1;
                    0
                }
            };
            stats.units += n;
            stats.job_walls.push((m, n, record.wall.as_secs_f64()));
        }
    }
    stats
}

/// The results of one program in the three modes, by metric order.
fn by_program(reports: &[CampaignReport]) -> Vec<(String, [Option<RunResult>; 3])> {
    let mut rows: Vec<(String, [Option<RunResult>; 3])> = Vec::new();
    for report in reports {
        for record in &report.records {
            let job = &report.spec.jobs[record.id];
            let name = job.workload.name.clone();
            let idx = match rows.iter().position(|(n, _)| *n == name) {
                Some(i) => i,
                None => {
                    rows.push((name, [None, None, None]));
                    rows.len() - 1
                }
            };
            rows[idx].1[mode_index(job.mode.label())] = record.outcome.as_ref().ok().cloned();
        }
    }
    rows
}

/// Pass-count, failure, and digest-stability checks shared by every
/// campaign workload.
fn check_passes(outcome: &mut Outcome, passes: &[PassStats]) {
    for pass in passes {
        outcome.work(pass.jobs, pass.failed);
    }
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    outcome.check("jobs_failed == 0", failed == 0, || {
        format!("{failed} job(s) failed")
    });
    let first = passes[0].digest;
    outcome.check(
        "simulated-statistics digest identical across passes",
        passes.iter().all(|p| p.digest == first),
        || {
            let all: Vec<String> = passes
                .iter()
                .map(|p| format!("{:016x}", p.digest))
                .collect();
            format!("digests {all:?}")
        },
    );
    outcome.note(format!(
        "digest {first:016x} over {} pass(es)",
        passes.len()
    ));
}

/// Demand mode may only report racy variables continuous mode reports.
fn check_demand_subset(outcome: &mut Outcome, name: &str, demand: &RunResult, cont: &RunResult) {
    let stray: Vec<u64> = shadow_keys(demand)
        .difference(&shadow_keys(cont))
        .copied()
        .collect();
    outcome.check(
        format!("{name}: demand racy variables within continuous"),
        stray.is_empty(),
        || format!("demand-only shadow keys {stray:?}"),
    );
}

/// Detection checks on one pass, plus the simulated headline figures.
fn check_detection(outcome: &mut Outcome, reports: &[CampaignReport]) {
    let mut speedups = Vec::new();
    let mut missed = 0usize;
    for (name, [native, cont, demand]) in by_program(reports) {
        let (Some(native), Some(cont), Some(demand)) = (native, cont, demand) else {
            continue; // counted by the jobs_failed check
        };
        if planted(&name) {
            outcome.check(
                format!("{name}: planted race reported under continuous"),
                cont.races.distinct > 0,
                || "continuous mode reported no race".into(),
            );
        } else {
            outcome.check(
                format!("{name}: race-free in every mode"),
                native.races.distinct + cont.races.distinct + demand.races.distinct == 0,
                || {
                    format!(
                        "races native {} continuous {} demand {}",
                        native.races.distinct, cont.races.distinct, demand.races.distinct
                    )
                },
            );
        }
        check_demand_subset(outcome, &name, &demand, &cont);
        missed += race_keys(&cont).difference(&race_keys(&demand)).count();
        if demand.makespan > 0 {
            speedups.push(cont.makespan as f64 / demand.makespan as f64);
        }
    }
    if !speedups.is_empty() {
        outcome.note(format!(
            "sim_demand_speedup {:.4} x (simulated cycles: geomean of continuous/demand makespan over {} programs)",
            geomean(&speedups),
            speedups.len()
        ));
    }
    outcome.note(format!(
        "demand_races_missed {missed} (distinct races continuous reports and demand does not)"
    ));
}

/// The end-to-end metrics of a campaign workload. Each job's wall is its
/// fastest over the passes: interference from other tenants of a shared
/// host only ever slows a job down, and on a 2-vCPU VM it comes and goes
/// for seconds to minutes at a time, so the fastest repetition is the least
/// disturbed one (across ten seeds of `sim-phoenix` the per-job median
/// spread 22–27% IQR/median, the per-job minimum 12–17%). A mode's
/// throughput is its jobs' units over the sum of those walls.
fn end_to_end(outcome: &mut Outcome, passes: &[PassStats], setup_s: f64) {
    let job_best = |j: usize| {
        passes
            .iter()
            .map(|p| p.job_walls[j].2)
            .fold(f64::INFINITY, f64::min)
    };
    let mut units = [0u64; 3];
    let mut walls = [0.0f64; 3];
    for (j, &(m, n, _)) in passes[0].job_walls.iter().enumerate() {
        units[m] += n;
        walls[m] += job_best(j);
    }
    let rates: [f64; 3] = std::array::from_fn(|m| units[m] as f64 / walls[m]);
    let pass_wall = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let harness = median(
        &passes
            .iter()
            .map(PassStats::harness_overhead_s)
            .collect::<Vec<_>>(),
    );
    let total = units.iter().sum::<u64>() as f64 / (walls.iter().sum::<f64>() + harness);
    outcome.metric("setup_s", setup_s, "s");
    outcome.metric("events_per_s", total, "1/s");
    outcome.metric("native_events_per_s", rates[0], "1/s");
    outcome.metric("continuous_events_per_s", rates[1], "1/s");
    outcome.metric("demand_events_per_s", rates[2], "1/s");
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.4e}", p.units as f64 / p.wall_s))
        .collect();
    outcome.note(format!("events_per_s by pass: {}", per_pass.join(" ")));
    outcome.note(format!(
        "{} pass(es), median pass wall {pass_wall:.3} s; host time per unit vs native mode: continuous {:.3}x, demand {:.3}x",
        passes.len(),
        rates[0] / rates[1],
        rates[0] / rates[2]
    ));
}

/// The layer subject of one job's program, in all three modes.
fn subject(name: &str, job: &Job, expected: [Option<RunResult>; 3]) -> Subject {
    let (spec, scale, seed) = (job.workload.clone(), job.scale, job.seed);
    Subject {
        name: name.to_string(),
        make: Box::new(move || spec.program(scale, seed)),
        configs: modes().map(|mode| SimConfig {
            mode,
            ..job.sim_config()
        }),
        expected,
    }
}

/// Layer subjects for the programs a campaign ran, with the simulator's
/// own results for the same inputs as the reference.
fn subjects(campaigns: &[Campaign], reports: &[CampaignReport]) -> Vec<Subject> {
    let results = by_program(reports);
    let mut out: Vec<Subject> = Vec::new();
    for job in campaigns.iter().flat_map(|c| &c.jobs) {
        if out.iter().any(|s| s.name == job.workload.name) {
            continue;
        }
        let expected = results
            .iter()
            .find(|(n, _)| *n == job.workload.name)
            .map(|(_, r)| r.clone())
            .unwrap_or_default();
        out.push(subject(&job.workload.name, job, expected));
    }
    out
}

/// `sim-phoenix` and `sim-sharing`.
pub fn run(workload: &str, opts: &RunOpts) -> Outcome {
    let mut outcome = Outcome::default();
    let groups = groups(workload, opts.quick);
    let build = |scale_of: &dyn Fn(&Group) -> Scale| -> Vec<Campaign> {
        groups
            .iter()
            .map(|g| campaign(g.name, &g.specs, scale_of(g), opts.seed))
            .collect()
    };
    let (campaigns, setup_s) = timed_setup(|| {
        let warm = build(&|_| if opts.quick { Scale::TEST } else { WARM_UP });
        run_pass(&warm);
        build(&|g| g.scale)
    });

    let budget = if opts.trace {
        Duration::ZERO
    } else {
        opts.budget
    };
    let (reports, passes) = timed_passes(&campaigns, budget);
    check_passes(&mut outcome, &passes);
    check_detection(&mut outcome, &reports);
    if !opts.trace {
        end_to_end(&mut outcome, &passes, setup_s);
        return outcome;
    }
    let mut tracer = Tracer::new();
    let subjects = subjects(&campaigns, &reports);
    let drive = layers::drive(&subjects, &mut tracer, &mut outcome);
    // On the campaign path every job schedules, runs the cache model,
    // and — by mode — the indicator, controller and detector.
    let attributed: [f64; 3] = std::array::from_fn(|m| drive.sim_ns[m] / 1e9);
    layers::finish(
        &mut outcome,
        tracer,
        &drive,
        &crate::native::hook_layer(opts),
        &layers::campaign_untraced(&passes[0], attributed),
        "SimState dispatch and cost model",
    );
    outcome
}

/// Records the ingest corpus: one DDRT trace per program, via the
/// simulator's recording path in continuous mode. Returns the loaded
/// sources with each recording run's own result (the campaign's
/// continuous-mode result for that program and seed).
fn record_corpus(
    specs: &[(WorkloadSpec, Scale)],
    seed: u64,
    dir: &Path,
) -> Result<Vec<(TraceSource, RunResult, Job)>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut corpus = Vec::new();
    for (spec, scale) in specs {
        let c = Campaign::builder("corpus")
            .workloads([spec.clone()])
            .modes([AnalysisMode::Continuous])
            .seeds([seed])
            .scale(*scale)
            .cores(CORES)
            .build();
        let job = c.jobs[0].clone();
        let path = dir.join(format!("{}.ddrt", spec.name));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut writer = TraceWriter::new(std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let result = Simulation::new(job.sim_config())
            .run_recorded(spec.program(*scale, seed), &mut writer)
            .map_err(|e| format!("recording {}: {e}", spec.name))?;
        writer
            .finish()
            .and_then(|mut w| std::io::Write::flush(&mut w))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let source = TraceSource::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        corpus.push((source, result, job));
    }
    Ok(corpus)
}

fn ingest_campaign(
    sources: &[TraceSource],
    modes: &[AnalysisMode],
    replay_workers: usize,
) -> Campaign {
    Campaign::builder("ingest")
        .trace_corpus(sources.iter().cloned())
        .modes(modes.iter().copied())
        .seeds([0])
        .cores(CORES)
        .replay_workers(replay_workers)
        .build()
}

/// `ingest-serial`.
pub fn run_ingest(opts: &RunOpts) -> Outcome {
    let mut outcome = Outcome::default();
    let fit = |scale| if opts.quick { Scale::TEST } else { scale };
    // Two Phoenix and two PARSEC programs, plus one planted-race kernel
    // so the record/replay equivalence check compares real reports.
    let specs = [
        (phoenix::linear_regression(), fit(CORPUS)),
        (phoenix::string_match(), fit(CORPUS)),
        (parsec::canneal(), fit(CORPUS)),
        (parsec::fluidanimate(), fit(CORPUS)),
        (racy::sparse_race(), fit(Scale::SMALL)),
    ];
    let dir = opts.out.join(format!("corpus-s{}", opts.seed));
    let (corpus, setup_s) = timed_setup(|| record_corpus(&specs, opts.seed, &dir));
    let corpus = match corpus {
        Ok(c) => c,
        Err(e) => {
            outcome.work(1, 1);
            outcome.check("corpus recorded", false, || e);
            return outcome;
        }
    };
    let sources: Vec<TraceSource> = corpus.iter().map(|(s, _, _)| s.clone()).collect();
    let serial = ingest_campaign(&sources, &modes(), 0);
    let events: u64 = sources.iter().map(|s| s.records).sum();
    outcome.note(format!(
        "corpus: {} traces, {events} records",
        sources.len()
    ));

    let budget = if opts.trace {
        Duration::ZERO
    } else {
        opts.budget
    };
    let (reports, stats) = timed_passes(std::slice::from_ref(&serial), budget);
    check_passes(&mut outcome, &stats);
    check_ingest(&mut outcome, &corpus, &reports);

    if !opts.trace {
        end_to_end(&mut outcome, &stats, setup_s);
        return outcome;
    }
    let mut tracer = Tracer::new();
    let subjects: Vec<Subject> = corpus
        .iter()
        .zip(by_program(&reports))
        .map(|((source, reference, job), (_, replayed))| {
            let mut expected = replayed;
            expected[1] = Some(reference.clone());
            subject(&source.name, job, expected)
        })
        .collect();
    let drive = layers::drive(&subjects, &mut tracer, &mut outcome);
    // Each ingest job decodes its trace and pushes every event through
    // the replay pipeline of its mode.
    let attributed: [f64; 3] =
        std::array::from_fn(|m| (drive.decode_ns / 3.0 + drive.replay_mode_ns[m]) / 1e9);
    layers::finish(
        &mut outcome,
        tracer,
        &drive,
        &crate::native::hook_layer(opts),
        &layers::campaign_untraced(&stats[0], attributed),
        "trace file reads and TraceReplay dispatch",
    );
    outcome
}

/// Record/replay equivalence, demand subset, and parallel-vs-serial
/// replay equivalence over the corpus.
fn check_ingest(
    outcome: &mut Outcome,
    corpus: &[(TraceSource, RunResult, Job)],
    reports: &[CampaignReport],
) {
    let rows = by_program(reports);
    for ((_, reference, _), (name, [_, cont, demand])) in corpus.iter().zip(&rows) {
        let (Some(cont), Some(demand)) = (cont, demand) else {
            continue; // counted by the jobs_failed check
        };
        outcome.check(
            format!("{name}: replayed reports equal the recording run's"),
            race_keys(cont) == race_keys(reference),
            || {
                format!(
                    "replay {} distinct vs campaign {}",
                    cont.races.distinct, reference.races.distinct
                )
            },
        );
        check_demand_subset(outcome, name, demand, cont);
    }
    let sources: Vec<TraceSource> = corpus.iter().map(|(s, _, _)| s.clone()).collect();
    let parallel = run_campaign(
        &ingest_campaign(&sources, &[AnalysisMode::Continuous], 1),
        1,
        &EventSink::null(),
    );
    outcome.work(parallel.records.len() as u64, parallel.failed() as u64);
    for (record, (name, [_, cont, _])) in parallel.records.iter().zip(&rows) {
        let (Ok(par), Some(cont)) = (&record.outcome, cont) else {
            continue;
        };
        outcome.check(
            format!("{name}: parallel replay reports equal serial"),
            race_keys(par) == race_keys(cont),
            || {
                format!(
                    "parallel {} vs serial {}",
                    par.races.distinct, cont.races.distinct
                )
            },
        );
    }
    if corpus.iter().all(|(_, r, _)| r.races.distinct == 0) {
        outcome.check("corpus holds a planted race", false, || {
            "no trace reports a race; the equivalence checks compare empty sets".into()
        });
    }
}
