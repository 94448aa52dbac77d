//! `serve`: the multi-tenant job service, closed loop with 2 workers.
//!
//! Each batch is one mix of `hpcnet_serve::workload::mixed_workload` —
//! thousands of ~60 µs jobs over 13 programs, every 10th on the Rotor
//! interpreter, a fuel-limited hog among them — run through a fresh
//! `run_service` with isolation verification on. Workers take the next job
//! only when their last one finishes.
//!
//! Six of a mix's programs are generated, and they decide its speed: one
//! mix serves 3.4k jobs/s, another 10k. So every run serves the same corpus
//! of [`MIXES`] mixes, each equally often (whole cycles over the corpus);
//! the seed sets the order of the mixes and rotates each mix's job order.

use crate::{median, mix, percentile, ratio, secs, timed, Opts, Report, SETUP_REPS};
use hpcnet_core::Tier;
use hpcnet_serve::report::{document, jobs_fingerprint};
use hpcnet_serve::workload::mixed_workload;
use hpcnet_serve::{run_service, JobSpec, ServeConfig, ServiceReport};
use std::time::Instant;

const BATCH_JOBS: usize = 4000;
const TINY_BATCH_JOBS: usize = 60;
/// Jobs per mix in the traced run, which serves each mix three times.
const TRACED_BATCH_JOBS: usize = 2000;
/// Mixes in the corpus; mix `k` uses generator seeds `6k+1 ..= 6k+6`,
/// inside the range the conform sweep proves divergence-free.
const MIXES: u64 = 8;
/// Jobs of the cold-start set-up pass: every program of a batch on every
/// profile it is pinned to, cold cache and cold pools.
const COLD_JOBS: usize = 130;
const HOG_FUEL: u64 = 4096;
const WORKERS: usize = 2;

fn config(workers: usize, trace: bool) -> ServeConfig {
    ServeConfig {
        workers,
        default_fuel: None,
        verify: true,
        trace,
    }
}

/// Batch `b` of the run: a mix of the corpus, in seeded order, its jobs
/// rotated by a seeded offset.
fn batch(opts: &Opts, b: u64, jobs: usize) -> Vec<JobSpec> {
    let jobs = if opts.tiny { TINY_BATCH_JOBS } else { jobs };
    let mut order: Vec<u64> = (0..MIXES).collect();
    order.sort_by_key(|&k| mix(opts.seed ^ (k << 32)));
    let k = order[(b % MIXES) as usize];
    let mut specs = mixed_workload(jobs, 1 + 6 * k, HOG_FUEL);
    specs.rotate_left((mix(opts.seed.wrapping_add(b)) % jobs as u64) as usize);
    specs
}

/// Per-job gates: no `internal` or `panic` status, no isolation leak.
fn check_jobs(r: &mut Report, rep: &ServiceReport) {
    for rec in &rep.records {
        let o = &rec.outcome;
        r.check(if o.status == "internal" || o.status == "panic" {
            Err(format!("job {} ({}): {}", o.id, o.program, o.result))
        } else if rec.leaks != 0 {
            Err(format!(
                "job {} ({}): {} locations leaked past reset",
                o.id, o.program, rec.leaks
            ))
        } else {
            Ok(())
        });
    }
}

/// The same jobs at 1 worker must give the same per-job outcomes (and the
/// same `jobs` fingerprint); resets must restore the same objects.
fn check_against_reference(r: &mut Report, rep: &ServiceReport, reference: &ServiceReport) {
    for (a, b) in rep.records.iter().zip(&reference.records) {
        r.check(if a.outcome != b.outcome {
            Err(format!(
                "job {}: 2-worker outcome {:?} differs from 1-worker {:?}",
                a.outcome.id, a.outcome, b.outcome
            ))
        } else if a.reset != b.reset {
            Err(format!(
                "job {}: reset {:?} differs from 1-worker {:?}",
                a.outcome.id, a.reset, b.reset
            ))
        } else {
            Ok(())
        });
    }
    let (fa, fb) = (
        jobs_fingerprint(&document(rep)),
        jobs_fingerprint(&document(reference)),
    );
    r.check(if fa.is_some() && fa == fb {
        Ok(())
    } else {
        Err("jobs fingerprint differs from the 1-worker reference".into())
    });
}

pub(crate) fn untraced(opts: &Opts) -> Report {
    let mut r = Report::default();
    let first = batch(opts, 0, BATCH_JOBS);
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let mut s = 0.0;
            let rep = timed(&mut s, || {
                run_service(
                    &first[..COLD_JOBS.min(first.len())],
                    &config(WORKERS, false),
                )
            });
            check_jobs(&mut r, &rep);
            s
        })
        .collect();

    // Whole cycles over the corpus; each metric is the median over cycles,
    // so a burst of load from elsewhere on the machine spoils one cycle,
    // not the run.
    let budget = opts.budget.as_secs_f64();
    let (mut busy, mut jobs) = (0.0, 0usize);
    let (mut rates, mut p50, mut p95) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cycle_secs, mut cycle_jobs, mut latencies) = (0.0, 0usize, Vec::new());
    let mut kept = None;
    for b in 0.. {
        let specs = if b == 0 {
            first.clone()
        } else {
            batch(opts, b, BATCH_JOBS)
        };
        let rep = timed(&mut cycle_secs, || {
            run_service(&specs, &config(WORKERS, false))
        });
        check_jobs(&mut r, &rep);
        cycle_jobs += rep.records.len();
        latencies.extend(rep.records.iter().map(|x| x.latency_ns as f64 / 1e6));
        if b == 0 {
            kept = Some(rep);
        }
        if (b + 1) % MIXES == 0 {
            rates.push(cycle_jobs as f64 / cycle_secs);
            p50.push(percentile(&latencies, 50.0));
            p95.push(percentile(&latencies, 95.0));
            busy += cycle_secs;
            jobs += cycle_jobs;
            (cycle_secs, cycle_jobs) = (0.0, 0);
            latencies.clear();
            if busy >= budget {
                break;
            }
        }
    }
    if let Some(rep) = kept {
        check_against_reference(&mut r, &rep, &run_service(&first, &config(1, false)));
    }
    println!(
        "serve: {jobs} jobs at {WORKERS} workers in {} cycles of {MIXES} mixes",
        rates.len()
    );
    r.push("throughput_per_s", median(&rates), "1/s");
    r.push("latency_p50_ms", median(&p50), "ms");
    r.push("latency_p95_ms", median(&p95), "ms");
    r.push("setup_s", median(&setups), "s");
    r
}

/// Summed span time per job phase, in seconds.
#[derive(Default)]
struct Phases {
    cache_lookup: f64,
    acquire_vm: f64,
    execute: f64,
    reset: f64,
    verify: f64,
    /// Job time outside every child span (harvest, bookkeeping).
    job_self: f64,
    exec_by_tier: [f64; 3],
    jobs: u64,
}

impl Phases {
    fn add(&mut self, rep: &ServiceReport, specs: &[JobSpec]) {
        for (rec, spec) in rep.records.iter().zip(specs) {
            let Some(root) = &rec.spans else { continue };
            self.jobs += 1;
            let mut children = 0.0;
            for s in &root.children {
                let d = s.dur_ns as f64 / 1e9;
                children += d;
                match s.name.as_str() {
                    "cache-lookup" => self.cache_lookup += d,
                    "acquire-vm" => self.acquire_vm += d,
                    "execute" => {
                        self.execute += d;
                        self.exec_by_tier[tier_index(spec)] += d;
                    }
                    "reset" => self.reset += d,
                    "verify" => self.verify += d,
                    _ => {}
                }
            }
            self.job_self += (root.dur_ns as f64 / 1e9 - children).max(0.0);
        }
    }

    fn total(&self) -> f64 {
        self.cache_lookup
            + self.acquire_vm
            + self.execute
            + self.reset
            + self.verify
            + self.job_self
    }

    fn per_job_us(&self, secs: f64) -> f64 {
        ratio(secs * 1e6, self.jobs as f64)
    }
}

fn tier_index(spec: &JobSpec) -> usize {
    match spec.profile.tier {
        Tier::Interpreter => 0,
        Tier::Rir => 1,
        Tier::Compiled => 2,
    }
}

pub(crate) fn traced(opts: &Opts) -> Report {
    let start = Instant::now();
    let mut r = Report::default();
    let (mut two, mut one) = (Phases::default(), Phases::default());
    let (mut untraced, mut traced_two, mut traced_one) = (0.0, 0.0, 0.0);
    let (mut hits, mut misses, mut front_hits, mut front_misses) = (0u64, 0u64, 0u64, 0u64);
    let (mut restored, mut resets, mut calls, mut throws) = (0u64, 0u64, 0u64, 0u64);
    // Job latencies (ms) at 2 workers untraced and at 1 worker: the tail
    // where the interpreter's jobs slow down when both workers run.
    let (mut lat_two, mut lat_one) = (Vec::new(), Vec::new());
    // One cycle over the corpus, whatever the budget: the job set is then
    // fixed, so the exact counts repeat for any seed.
    for b in 0..MIXES {
        let specs = batch(opts, b, TRACED_BATCH_JOBS);
        // Alternate which run goes first so neither inherits warmer caches.
        let untraced_first = b % 2 == 0;
        let plain_run = |acc: &mut f64| timed(acc, || run_service(&specs, &config(WORKERS, false)));
        let mut plain = untraced_first.then(|| plain_run(&mut untraced));
        let rep = timed(&mut traced_two, || {
            run_service(&specs, &config(WORKERS, true))
        });
        let plain = plain.take().unwrap_or_else(|| plain_run(&mut untraced));
        let reference = timed(&mut traced_one, || run_service(&specs, &config(1, true)));
        check_jobs(&mut r, &rep);
        check_against_reference(&mut r, &rep, &reference);
        // Cache misses are one per distinct program, whatever the schedule.
        r.check(
            if (plain.cache_misses, rep.cache_misses)
                == (reference.cache_misses, reference.cache_misses)
            {
                Ok(())
            } else {
                Err(format!(
                    "cache misses {} / {} / {} differ across runs",
                    plain.cache_misses, rep.cache_misses, reference.cache_misses
                ))
            },
        );
        two.add(&rep, &specs);
        one.add(&reference, &specs);
        lat_two.extend(plain.records.iter().map(|x| x.latency_ns as f64 / 1e6));
        lat_one.extend(reference.records.iter().map(|x| x.latency_ns as f64 / 1e6));
        hits += rep.cache_hits;
        misses += rep.cache_misses;
        front_hits += rep.front_hits;
        front_misses += rep.front_misses;
        for rec in &rep.records {
            restored += rec.reset.objects_restored;
            resets += rec.did_reset as u64;
            calls += rec.outcome.calls;
            throws += rec.outcome.throws;
        }
    }
    let us = |p: &Phases, s: f64| p.per_job_us(s);
    r.push("serve.cache_lookup_us", us(&two, two.cache_lookup), "us");
    r.push("serve.acquire_vm_us", us(&two, two.acquire_vm), "us");
    r.push("serve.execute_us", us(&two, two.execute), "us");
    r.push("serve.reset_us", us(&two, two.reset), "us");
    r.push("serve.verify_us", us(&two, two.verify), "us");
    r.push("serve.job_self_us", us(&two, two.job_self), "us");
    r.push(
        "serve.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    r.push("serve.cache_misses", misses as f64, "count");
    r.push("serve.p99_ms.2_workers", percentile(&lat_two, 99.0), "ms");
    r.push("serve.p99_ms.1_worker", percentile(&lat_one, 99.0), "ms");
    r.push(
        "serve.contention_ratio",
        ratio(us(&two, two.execute), us(&one, one.execute)),
        "ratio",
    );
    r.push("serve.jobs", two.jobs as f64, "count");
    r.push("vm.exec_ms.interp", two.exec_by_tier[0] * 1e3, "ms");
    r.push("vm.exec_ms.exec", two.exec_by_tier[1] * 1e3, "ms");
    r.push("vm.exec_ms.threaded", two.exec_by_tier[2] * 1e3, "ms");
    r.push(
        "vm.opt_share_hit_ratio",
        ratio(front_hits as f64, (front_hits + front_misses) as f64),
        "ratio",
    );
    r.push(
        "vm.objects_restored_per_reset",
        ratio(restored as f64, resets as f64),
        "count",
    );
    r.push("vm.calls", calls as f64, "count");
    r.push("vm.throws", throws as f64, "count");
    let wall = secs(start);
    // Job spans run on `WORKERS` (or 1) lanes at once: they account for
    // the traced service time when they sum to lanes x wall.
    let lanes = WORKERS as f64 * traced_two + traced_one;
    r.push("traced_wall_ms", wall * 1e3, "ms");
    r.push(
        "self_time_share",
        ratio(two.total() + one.total(), lanes),
        "ratio",
    );
    r.push("trace_overhead_ratio", ratio(traced_two, untraced), "ratio");
    println!(
        "serve (traced): {} jobs in {MIXES} batches; job spans cover {:.1}% of {:.2} lane-seconds",
        two.jobs,
        100.0 * ratio(two.total() + one.total(), lanes),
        lanes
    );
    r
}
