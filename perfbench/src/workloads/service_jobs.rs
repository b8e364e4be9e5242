//! `service_jobs`: an in-process `service::Server` over the real
//! `runner::EcgridJobHandler` (one worker), driven closed-loop by
//! `service::Client` over loopback TCP.  Jobs are small (ECGRID, 50 hosts,
//! 120 s) so per-job service cost — wire codec, admission, hub fan-out,
//! manifest and journal fsync — dominates instead of being diluted by
//! simulation.  Two legs use the hub differently: `latency` submits and
//! streams jobs one after another on one connection (unfiltered
//! subscription); `throughput` has two connections submit and poll for
//! `done` without subscribing.  Loopback, not a real link.

use crate::core::{Fleet, LayerCtx, Metric, Rep, RepRun, Variant, Verified, Workload};
use crate::span::Tracer;
use crate::stats::{median, percentile, supported_tail};
use manet::sim_engine::derive_seed;
use manet::trace::{Fnv64, TraceDigest};
use runner::{
    run_scenario, run_scenario_with, EcgridJobHandler, ProtocolKind, RunOptions, Scenario, SupervisorConfig,
};
use service::proto::{FilterSpec, JobSpec, Request};
use service::{json, Client, ClientConfig, JobState, Server, ServiceConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections of the throughput leg: `min(nproc, 2)` per the load rule.
fn throughput_conns() -> usize {
    manet::host_parallelism().clamp(1, 2)
}

/// One finished job as the client saw it.
#[derive(Clone, Debug)]
struct JobSample {
    seed: u64,
    digest: Option<u64>,
    ok: bool,
    ack_s: f64,
    first_frame_s: Option<f64>,
    done_s: f64,
    delivered: u64,
    dropped: u64,
}

impl JobSample {
    /// A job submitted `ack_s` ago whose outcome is not known yet.
    fn submitted(seed: u64, ack_s: f64) -> JobSample {
        JobSample {
            seed,
            digest: None,
            ok: false,
            ack_s,
            first_frame_s: None,
            done_s: 0.0,
            delivered: 0,
            dropped: 0,
        }
    }
}

#[derive(Default)]
struct LegTotals {
    latency: Vec<JobSample>,
    throughput: Vec<JobSample>,
    latency_wall_s: Vec<f64>,
    throughput_wall_s: Vec<f64>,
}

pub struct ServiceJobs {
    seed: u64,
    hosts: u64,
    sim_secs: f64,
    flows: u64,
    latency_jobs: usize,
    throughput_jobs: usize,
    state_dir: PathBuf,
    server: Option<Server>,
    client: Option<Client>,
    /// Jobs of the last body, checked by `verify`.
    last: Vec<JobSample>,
    /// Samples of every body since construction, for the layer metrics.
    all: LegTotals,
}

impl ServiceJobs {
    pub fn new(seed: u64, smoke: bool, state_dir: PathBuf) -> Self {
        ServiceJobs {
            seed,
            hosts: if smoke { 12 } else { 50 },
            sim_secs: if smoke { 15.0 } else { 120.0 },
            flows: if smoke { 2 } else { 5 },
            latency_jobs: if smoke { 2 } else { 8 },
            throughput_jobs: if smoke { 4 } else { 16 },
            state_dir: state_dir.join("service_jobs"),
            server: None,
            client: None,
            last: Vec::new(),
            all: LegTotals::default(),
        }
    }

    /// Job `i` of a body: distinct seeds, so the journal never answers a
    /// job from an earlier one (the state directory is fresh per body).
    fn job_seed(&self, i: usize) -> u64 {
        derive_seed(self.seed, "service_jobs", i as u64)
    }

    fn job_spec(&self, seed: u64) -> JobSpec {
        JobSpec {
            protocol: "ecgrid".into(),
            n_hosts: self.hosts,
            n_flows: self.flows,
            duration_secs: self.sim_secs,
            seed,
            replicas: 1,
            ..JobSpec::default()
        }
    }

    /// The scenario the handler builds from [`ServiceJobs::job_spec`].
    fn scenario(&self, seed: u64) -> Scenario {
        let d = JobSpec::default();
        Scenario {
            protocol: ProtocolKind::Ecgrid,
            n_hosts: self.hosts as usize,
            max_speed: d.max_speed,
            pause_secs: d.pause_secs,
            n_flows: self.flows as usize,
            flow_rate_pps: d.flow_rate_pps,
            duration_secs: self.sim_secs,
            seed,
            model1_endpoints: d.model1_endpoints as usize,
        }
    }

    fn connect(addr: &str) -> Client {
        let cfg = ClientConfig::default().with_addr(addr).with_backoff(5, 100, 1);
        Client::connect(cfg).expect("loopback connect to the in-process server")
    }

    fn addr(&self) -> String {
        self.server
            .as_ref()
            .expect("setup starts the server")
            .local_addr()
            .to_string()
    }

    /// Submit one job and stream it to its `done` frame.
    fn streamed_job(&self, client: &mut Client, seed: u64, tr: &mut Tracer) -> JobSample {
        let spec = self.job_spec(seed);
        let t0 = Instant::now();
        let submitted = tr.span("service.submit", |_| client.submit_until_accepted(&spec, 0));
        let mut sample = JobSample::submitted(seed, t0.elapsed().as_secs_f64());
        let Ok((job, _)) = submitted else {
            sample.done_s = t0.elapsed().as_secs_f64();
            return sample;
        };
        let mut first: Option<Instant> = None;
        let info = tr.span("service.stream_job", |_| {
            client.stream_job(job, &FilterSpec::default(), |_| {
                first.get_or_insert_with(Instant::now);
            })
        });
        sample.done_s = t0.elapsed().as_secs_f64();
        if let Some(at) = first {
            tr.record("service.first_frame", t0, at);
            sample.first_frame_s = Some(at.duration_since(t0).as_secs_f64());
        }
        if let Ok(info) = info {
            sample.ok =
                info.state == Some(JobState::Done) && info.quarantined == 0 && info.digests.len() == 1;
            sample.digest = info
                .digests
                .first()
                .and_then(|d| TraceDigest::parse(d))
                .map(|d| d.0);
            sample.delivered = info.delivered;
            sample.dropped = info.dropped;
        }
        sample
    }

    /// Submit one job and poll its status until it is terminal.
    fn quiet_job(&self, client: &mut Client, seed: u64) -> JobSample {
        let spec = self.job_spec(seed);
        let t0 = Instant::now();
        let submitted = client.submit_until_accepted(&spec, 0);
        let mut sample = JobSample::submitted(seed, t0.elapsed().as_secs_f64());
        if let Ok((job, _)) = submitted {
            // a job of this size runs for tens of milliseconds; a 1 ms
            // poll keeps the quantisation small without starving the worker
            while t0.elapsed() < Duration::from_secs(60) {
                let Ok(st) = client.request_idempotent(&Request::Status { job: Some(job) }) else {
                    break;
                };
                match json::field(&st, "state") {
                    Some("queued" | "running") => std::thread::sleep(Duration::from_millis(1)),
                    state => {
                        sample.ok = state == Some("done") && json::u64_field(&st, "quarantined") == Some(0);
                        sample.digest = json::field(&st, "digests")
                            .and_then(TraceDigest::parse)
                            .map(|d| d.0);
                        break;
                    }
                }
            }
        }
        sample.done_s = t0.elapsed().as_secs_f64();
        sample
    }
}

fn failed(samples: &[JobSample]) -> u64 {
    samples.iter().filter(|s| !s.ok).count() as u64
}

impl Workload for ServiceJobs {
    fn name(&self) -> &'static str {
        "service_jobs"
    }

    fn hosts(&self) -> usize {
        self.hosts as usize
    }

    fn workers(&self) -> usize {
        1
    }

    fn sizes(&self) -> String {
        format!(
            "job = ECGRID, {} hosts, {} s simulated, {} flows, 1 replica; latency leg {} streamed jobs on 1 connection, throughput leg {} jobs on {} connections; 1 worker, loopback TCP",
            self.hosts,
            self.sim_secs,
            self.flows,
            self.latency_jobs,
            self.throughput_jobs,
            throughput_conns()
        )
    }

    /// Not calibrated: the simulation runs on the server's worker thread,
    /// whose vCPU the harness thread cannot sample, and shares the wall
    /// with fsyncs and socket waits that CPU speed does not scale.  Scaling
    /// it made it less steady (run-to-run spread 15.8 % against 3.8 % raw).
    fn calibration_ns(&self) -> Option<f64> {
        None
    }

    fn fleet(&self) -> Fleet {
        Fleet {
            n: self.hosts as usize,
            field_w: 1000.0,
            field_h: 1000.0,
            max_speed: 1.0,
            sim_secs: self.sim_secs,
            seed: self.seed,
            flows: self.flows as usize,
        }
    }

    fn setup(&mut self, tr: &mut Tracer) {
        let _ = std::fs::remove_dir_all(&self.state_dir);
        let handler = Arc::new(EcgridJobHandler::new(
            RunOptions::default(),
            SupervisorConfig::default(),
        ));
        let cfg = ServiceConfig::default()
            .with_addr("127.0.0.1:0")
            .with_workers(1)
            .with_state_dir(&self.state_dir);
        self.server = Some(Server::start(cfg, handler).expect("bind a loopback port"));
        let addr = self.addr();
        let mut client = tr.span("service.connect", |_| Self::connect(&addr));
        // warm-up: four polled jobs outside the body's seed range.  (One
        // streamed job spends most of its 300 ms in the subscription's
        // timeouts, one polled job is shorter than the accept loop's 50 ms
        // poll: either made the setup time jump between runs.)
        for i in 0..4 {
            let warm = self.quiet_job(&mut client, self.job_seed(usize::MAX - i));
            assert!(warm.ok, "a warm-up job failed: {warm:?}");
        }
        self.client = Some(client);
    }

    fn body(&mut self, tr: &mut Tracer) -> Rep {
        let mut client = self.client.take().expect("setup connects");
        let t = Instant::now();
        let latency: Vec<JobSample> = (0..self.latency_jobs)
            .map(|i| {
                let seed = self.job_seed(i);
                tr.span("service.job", |tr| self.streamed_job(&mut client, seed, tr))
            })
            .collect();
        let latency_wall = t.elapsed().as_secs_f64();
        self.client = Some(client);

        let conns = throughput_conns();
        let seeds: Vec<u64> = (0..self.throughput_jobs)
            .map(|i| self.job_seed(self.latency_jobs + i))
            .collect();
        let addr = self.addr();
        let t = Instant::now();
        let this = &*self;
        let throughput: Vec<JobSample> = tr.span("service.throughput_leg", |_| {
            std::thread::scope(|s| {
                let handles: Vec<_> = seeds
                    .chunks(seeds.len().div_ceil(conns).max(1))
                    .map(|chunk| {
                        let addr = addr.clone();
                        s.spawn(move || {
                            let mut c = Self::connect(&addr);
                            chunk
                                .iter()
                                .map(|&seed| this.quiet_job(&mut c, seed))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("a client thread panicked"))
                    .collect()
            })
        });
        let throughput_wall = t.elapsed().as_secs_f64();

        let mut h = Fnv64::new();
        for s in latency.iter().chain(&throughput) {
            h.write_u64(s.seed);
            h.write_u64(s.digest.unwrap_or(0));
        }
        let rep = Rep {
            fingerprint: h.finish(),
            ops: (latency.len() + throughput.len()) as u64,
            failed: failed(&latency) + failed(&throughput),
        };
        self.last = latency.iter().chain(&throughput).cloned().collect();
        self.all.latency.extend(latency);
        self.all.throughput.extend(throughput);
        self.all.latency_wall_s.push(latency_wall);
        self.all.throughput_wall_s.push(throughput_wall);
        rep
    }

    fn teardown(&mut self) {
        self.client = None;
        if let Some(server) = self.server.take() {
            server.request_shutdown();
            server.wait();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }

    /// Every job of the last body again, directly: the digest the service
    /// reported must be the digest `run_scenario_with` produces.
    fn verify(&mut self, tr: &mut Tracer) -> Verified {
        let mut v = Verified::default();
        let mut h = Fnv64::new();
        for (i, s) in self.last.iter().enumerate() {
            let sc = self.scenario(s.seed);
            let r = tr.span("runner.run_scenario", |_| {
                run_scenario_with(&sc, RunOptions::digest())
            });
            v.counts.add_result(&r);
            let digest = crate::core::digest_of(&r);
            v.ops += 1;
            v.failed += u64::from(s.digest != Some(digest) || r.budget_exceeded.is_some());
            h.write_u64(s.seed);
            h.write_u64(digest);
            if i < 4 {
                v.digests.push((format!("job{i}"), digest));
            }
            if i == 0 {
                v.rep_digest = digest;
            }
        }
        v.fingerprint = h.finish();
        v
    }

    fn rep_run(&mut self, variant: Variant, tr: &mut Tracer) -> RepRun {
        let sc = self.scenario(self.job_seed(0));
        let t = Instant::now();
        let r = tr.span("runner.run_scenario", |_| {
            run_scenario_with(&sc, variant.run_options())
        });
        RepRun::of(&r, t.elapsed().as_secs_f64())
    }

    fn extras(&mut self, _: &mut LayerCtx<'_>, tr: &mut Tracer) -> Vec<Metric> {
        let mut out = Vec::new();

        // loopback round trips on a live server
        self.setup(tr);
        let mut client = self.client.take().expect("setup connects");
        let pings: Vec<f64> = (0..200)
            .map(|_| {
                let t = Instant::now();
                let _ = std::hint::black_box(client.request_idempotent(&Request::Ping));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        self.teardown();
        out.push(Metric::of("service.ping_rtt_us", "us", &pings));

        // the same job run directly, as the base of the overhead figures
        let direct: Vec<f64> = (0..8)
            .map(|i| {
                let sc = self.scenario(self.job_seed(i));
                let t = Instant::now();
                std::hint::black_box(run_scenario(&sc));
                t.elapsed().as_secs_f64()
            })
            .collect();
        let direct_s = median(&direct);

        let lat = &self.all.latency;
        let thr = &self.all.throughput;
        let ms = |xs: &[f64]| xs.iter().map(|x| x * 1e3).collect::<Vec<f64>>();
        let acks: Vec<f64> = lat.iter().chain(thr).map(|s| s.ack_s * 1e6).collect();
        out.push(Metric::of("service.submit_ack_us", "us", &acks));
        let done = ms(&lat.iter().map(|s| s.done_s).collect::<Vec<_>>());
        let first = ms(&lat.iter().filter_map(|s| s.first_frame_s).collect::<Vec<_>>());
        out.push(Metric::one("service.done_ms_p50", "ms", median(&done)));
        out.push(Metric::one("service.first_frame_ms_p50", "ms", median(&first)));
        // the tail is named p80 (n = latency jobs x bodies is 50–99 in a
        // default run); it is only quoted when ten samples lie beyond it
        if supported_tail(done.len()).is_some() {
            out.push(Metric::one("service.done_ms_p80", "ms", percentile(&done, 80.0)));
            out.push(Metric::one(
                "service.first_frame_ms_p80",
                "ms",
                percentile(&first, 80.0),
            ));
        }
        out.push(Metric::one(
            "service.first_frame_share",
            "share",
            median(&first) / median(&done),
        ));

        let delivered: u64 = lat.iter().map(|s| s.delivered).sum();
        let dropped: u64 = lat.iter().map(|s| s.dropped).sum();
        let lat_wall: f64 = self.all.latency_wall_s.iter().sum();
        out.push(Metric::one(
            "service.hub.frames_per_s",
            "1/s",
            delivered as f64 / lat_wall,
        ));
        out.push(Metric::one(
            "service.hub.frame_drop_share",
            "share",
            dropped as f64 / (delivered + dropped).max(1) as f64,
        ));

        // with the worker always busy, one job's service time on the quiet
        // leg is wall ÷ jobs; what a job waits beyond that is queueing
        let per_job: Vec<f64> = self
            .all
            .throughput_wall_s
            .iter()
            .map(|w| w / self.throughput_jobs as f64)
            .collect();
        let quiet_s = median(&per_job);
        out.push(Metric::of(
            "service.jobs_per_s",
            "1/s",
            &per_job.iter().map(|s| 1.0 / s).collect::<Vec<_>>(),
        ));
        let thr_done = thr.iter().map(|s| s.done_s).collect::<Vec<_>>();
        out.push(Metric::one(
            "service.queue_wait_ms_p50",
            "ms",
            (median(&thr_done) - quiet_s) * 1e3,
        ));
        out.push(Metric::one(
            "service.job_overhead_pct.streamed",
            "%",
            (median(&done) / 1e3 / direct_s - 1.0) * 100.0,
        ));
        out.push(Metric::one(
            "service.job_overhead_pct.quiet",
            "%",
            (quiet_s / direct_s - 1.0) * 100.0,
        ));
        out
    }
}
