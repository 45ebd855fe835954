// serve_rpc: open-loop serving over the unix-socket rpc tier.
//
// Independent users make an open loop: one generator thread sends on a
// seeded Poisson schedule over one RpcClient connection regardless of
// completions, so a stall shows up as queueing. Every latency is measured
// from the request's *due* time, and a collector thread timestamps each
// response when its future becomes ready (polled every 100 µs), not when
// the generator gets round to it.
//
// Layout of the machine: one pinned single-thread engine per allowed CPU
// but the first; the first CPU carries the generator, the collector and
// the rpc threads.
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "nets.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

using namespace ondwin;

namespace {

constexpr const char* kModel = "serve2d";
constexpr int kInputs = 16;
constexpr int kMaxBatch = 8;
constexpr double kMaxDelayMs = 2.0;

/// The serving stack, torn down client → rpc server → inference server.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  std::shared_ptr<const Sequential> net;
  std::unique_ptr<serve::InferenceServer> server;
  std::unique_ptr<rpc::RpcServer> rpc;
  std::unique_ptr<rpc::RpcClient> client;
  ~Stack() {
    if (client) client->close();
    client.reset();
    rpc.reset();
    if (server) server->stop(/*drain=*/true);
  }
};

struct Rec {
  double due = 0, sent = 0, arrived = 0;  // seconds (now_s clock)
  int input = 0;
  bool answered = false;
  u64 status = rpc::kTransportError;
  OutputError err;
  int batch = 0;
  double queue_ms = 0, exec_ms = 0;
  double latency_ms() const { return (arrived - due) * 1e3; }
};

/// The seeded request inputs and their reference outputs.
struct Inputs {
  std::vector<AlignedBuffer<float>> x;
  std::vector<AlignedBuffer<float>> ref;
  std::size_t in_floats = 0;
  std::size_t out_floats = 0;

  OutputError check(const std::vector<float>& out, std::size_t idx) const {
    return out.size() == out_floats
               ? compare_output(out.data(), ref[idx].data(),
                                static_cast<i64>(out_floats))
               : failed_output();
  }
};

/// Sends `n` requests at the due times `due` (absolute now_s seconds) and
/// collects every response. Returns one record per request, in send order.
std::vector<Rec> open_loop(Run& run, rpc::RpcClient& client,
                           const Inputs& in, const std::vector<double>& due,
                           const std::vector<int>& which, u64 req_base) {
  const std::size_t n = due.size();
  std::vector<Rec> recs(n);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<rpc::RpcResponse>>> incoming;
  bool gen_done = false;  // guarded by mu
  const double give_up = (n > 0 ? due.back() : now_s()) + 5.0;
  const double log_epoch = now_s() - static_cast<double>(run.log.now_ns()) * 1e-9;
  auto to_ns = [&](double t) {
    return static_cast<u64>(std::max(0.0, (t - log_epoch) * 1e9));
  };

  auto finish = [&] {
    std::lock_guard<std::mutex> lock(mu);
    gen_done = true;
    cv.notify_one();
  };
  std::thread collector([&] {
    std::vector<std::pair<std::size_t, std::future<rpc::RpcResponse>>> out;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (out.empty() && incoming.empty() && !gen_done) {
          cv.wait_for(lock, std::chrono::milliseconds(1));
        }
        while (!incoming.empty()) {
          out.push_back(std::move(incoming.front()));
          incoming.pop_front();
        }
        if (gen_done && out.empty()) break;
      }
      if (out.empty()) continue;
      out.front().second.wait_for(std::chrono::microseconds(100));
      const double t = now_s();
      for (auto it = out.begin(); it != out.end();) {
        if (it->second.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        Rec& r = recs[it->first];
        rpc::RpcResponse resp = it->second.get();
        r.arrived = t;
        r.answered = true;
        r.status = resp.status;
        r.batch = resp.batch_size;
        r.queue_ms = resp.queue_ms;
        r.exec_ms = resp.exec_ms;
        if (resp.ok()) {
          const std::size_t idx = static_cast<std::size_t>(r.input);
          r.err = in.check(resp.output, idx);
        }
        if (run.log.enabled()) {
          const u64 req = req_base + it->first + 1;
          const u64 s = to_ns(r.sent), e = to_ns(t);
          const u64 id = run.log.add("rpc.request", s, e, 0, req,
                                     {{"batch_size", r.batch},
                                      {"due_lag_ms", (r.sent - r.due) * 1e3}});
          // Server-side queue and execution, placed after half the
          // transport time; durations come from the response fields.
          const double transport_ms =
              std::max(0.0, (t - r.sent) * 1e3 - r.queue_ms - r.exec_ms);
          const u64 q0 = s + static_cast<u64>(transport_ms * 0.5e6);
          const u64 q1 = q0 + static_cast<u64>(r.queue_ms * 1e6);
          const u64 x1 = q1 + static_cast<u64>(r.exec_ms * 1e6);
          run.log.add("serve.queue", q0, q1, id, req,
                      {{"derived_from_response", 1}});
          run.log.add("serve.exec", q1, x1, id, req,
                      {{"derived_from_response", 1}});
        }
        it = out.erase(it);
      }
      if (now_s() > give_up) {
        // Unanswered requests stay !answered and count as failures; their
        // futures must not outlive the client, which close() resolves.
        break;
      }
    }
  });

  // Stops and joins the collector if the generator loop throws.
  struct Joiner {
    std::thread& t;
    const std::function<void()>& stop;
    ~Joiner() {
      if (t.joinable()) {
        stop();
        t.join();
      }
    }
  };
  const std::function<void()> stop = finish;
  Joiner joiner{collector, stop};
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(due[i]))));
    Rec& r = recs[i];
    r.due = due[i];
    r.input = which[i];
    r.sent = now_s();
    const std::size_t idx = static_cast<std::size_t>(which[i]);
    std::future<rpc::RpcResponse> f =
        client.submit(kModel, in.x[idx].data(), in.in_floats);
    std::lock_guard<std::mutex> lock(mu);
    incoming.emplace_back(i, std::move(f));
    cv.notify_one();
  }
  finish();
  collector.join();
  return recs;
}

/// Seeded Poisson schedule: due times from `start`, exponential gaps.
void poisson_schedule(Rng& rng, double rate, double start, double duration,
                      std::size_t min_n, std::vector<double>* due,
                      std::vector<int>* which) {
  due->clear();
  which->clear();
  double t = start;
  while (t - start < duration || due->size() < min_n) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    due->push_back(t);
    which->push_back(static_cast<int>(rng.uniform_index(kInputs)));
  }
}

struct Phase {
  std::vector<double> lat_ms;  // from due time, answered ok only
  FailCount fails;
};

/// Scores one load phase. Every answered output is checked against the
/// reference and counts in the run; refusals (rejections, sheds,
/// transport errors, timeouts) count in the run only when
/// `count_refusals` — the ladder overloads the server on purpose.
Phase score(Run& run, const std::vector<Rec>& recs, bool count_refusals) {
  Phase p;
  for (const Rec& r : recs) {
    if (!r.answered || r.status != rpc::kOk) {
      p.fails.fail();
      if (count_refusals) run.fails.fail();
      continue;
    }
    run.check_output(r.err);
    if (r.err.max_rel > run.args.tol) {
      p.fails.mismatch();
    } else {
      p.fails.ok();
      p.lat_ms.push_back(r.latency_ms());
    }
  }
  return p;
}

}  // namespace

void run_serve_workload(Run& run) {
  const NetSpec spec = serve_model_spec();
  const bool trace = run.args.trace;
  Rng rng(run.args.seed);
  const NetParams params = make_params(spec, rng);

  Inputs in;
  in.in_floats = static_cast<std::size_t>(input_layout(spec).total_floats());
  in.out_floats = static_cast<std::size_t>(output_layout(spec).total_floats());
  {
    ScopedSpan s(run.log, "oracle.reference");
    const double t0 = now_s();
    for (int i = 0; i < kInputs; ++i) {
      in.x.push_back(make_input(input_layout(spec), rng));
      in.ref.push_back(reference_forward(spec, params, in.x.back().data()));
    }
    run.envelope.num("oracle_s", now_s() - t0);
  }

  // Engines on every allowed CPU but the first; the first serves the
  // generator, collector and rpc threads (inherited from this thread).
  const std::vector<int>& cpus = run.cpus;
  const int engines = std::max(1, run.threads - 1);
  bool contiguous = run.threads > 1;
  for (std::size_t i = 2; i < cpus.size(); ++i) {
    contiguous = contiguous && cpus[i] == cpus[i - 1] + 1;
  }
  if (contiguous) pin_current_thread({cpus[0]});
  run.envelope.num("engines", engines).boolean("engines_pinned", contiguous);

  auto build = [&](double* build_ms) {
    auto st = std::make_unique<Stack>();
    PlanOptions po;
    po.threads = 1;
    const double t0 = now_s();
    {
      ScopedSpan span(run.log, "net.build");
      st->net = build_sequential(spec, params, po);
    }
    *build_ms = (now_s() - t0) * 1e3;
    serve::ServerOptions so;
    if (contiguous) {
      so.pin_engines = true;
      so.cpu_begin = cpus[1];
      so.cpu_count = engines;
    }
    serve::ModelConfig mc;
    mc.batching.max_batch = kMaxBatch;
    mc.batching.max_delay_ms = kMaxDelayMs;
    mc.engines = engines;
    mc.plan.threads = 1;
    mc.graph_exec = true;
    {
      ScopedSpan span(run.log, "serve.register");
      st->server = std::make_unique<serve::InferenceServer>(so);
      st->server->register_network(kModel, st->net, mc);
    }
    rpc::RpcServerOptions ro;
    ro.unix_path = run.args.sock;
    rpc::RpcClientOptions co;
    co.unix_path = run.args.sock;
    co.connections = 1;
    {
      ScopedSpan span(run.log, "rpc.start");
      st->rpc = std::make_unique<rpc::RpcServer>(*st->server, ro);
      st->rpc->start();
      st->client = std::make_unique<rpc::RpcClient>(co);
    }
    return st;
  };

  // Set-up: description → first verified response, repeated.
  constexpr int kSetups = 5;
  std::vector<double> setup_s, build_ms, first_ms;
  std::unique_ptr<Stack> st;
  for (int r = 0; r < kSetups; ++r) {
    st.reset();
    ScopedSpan s(run.log, "bench.setup");
    double b_ms = 0;
    const double a = now_s();
    st = build(&b_ms);
    const double b = now_s();
    rpc::RpcResponse resp;
    {
      ScopedSpan first(run.log, "rpc.request");
      resp = st->client->infer(kModel, in.x[0].data(), in.in_floats);
    }
    const double c = now_s();
    setup_s.push_back(c - a);
    build_ms.push_back(b_ms);
    first_ms.push_back((c - b) * 1e3);
    if (!resp.ok()) {
      run.fails.fail();
    } else {
      run.check_output(in.check(resp.output, 0));
    }
  }

  // Warm every batch-size bucket's replica on the engines (replicas are
  // built lazily on first use), then a short run at the fixed rate.
  {
    ScopedSpan s(run.log, "bench.warmup");
    for (int k = 0; k < 24; ++k) {
      const int burst = kMaxBatch >> (k % 4);
      std::vector<std::future<rpc::RpcResponse>> fs;
      for (int j = 0; j < burst; ++j) {
        fs.push_back(st->client->submit(kModel, in.x[static_cast<std::size_t>(j)].data(),
                                        in.in_floats));
      }
      for (auto& f : fs) f.get();
    }
    std::vector<double> due;
    std::vector<int> which;
    poisson_schedule(rng, run.args.rate, now_s() + 0.01, 0.5, 0, &due, &which);
    score(run, open_loop(run, *st->client, in, due, which, 1u << 30), false);
  }

  // The one-thread baseline: the served net through graph::Executor at
  // batch 1 in-process — what one request costs without batching or
  // transport. A one-thread plan has no pool workers, so it stays alive
  // beside the idle server and is sampled in chunks between load phases.
  graph::CompileOptions base_opts;
  base_opts.plan.threads = 1;
  double t0 = now_s();
  graph::Executor base(build_graph(spec, params), base_opts);
  const double compile_ms = (now_s() - t0) * 1e3;
  AlignedBuffer<float> base_out(in.out_floats);
  base.execute(in.x[0].data(), base_out.data());
  std::vector<double> base_ms, conv_ms, other_ms, residual, chunk_p50;
  auto baseline_chunk = [&](double budget_s, std::size_t min_new) {
    const std::size_t first = base_ms.size();
    const std::size_t min_samples = first + min_new;
    const double start = now_s();
    for (std::size_t i = 0; (base_ms.size() < min_samples ||
                             now_s() - start < budget_s) &&
                            !run.out_of_time();
         ++i) {
      const std::size_t idx = i % kInputs;
      ScopedSpan span(run.log, "graph.execute", (2u << 30) + base_ms.size());
      const double a = now_s();
      base.execute(in.x[idx].data(), base_out.data());
      const double ms = (now_s() - a) * 1e3;
      base_ms.push_back(ms);
      double c = 0, o = 0;
      for (std::size_t k = 0; k < base.step_count(); ++k) {
        (base.fusion().steps[k].kind == graph::OpKind::kConv ? c : o) +=
            base.step_seconds(k) * 1e3;
      }
      conv_ms.push_back(c);
      other_ms.push_back(o);
      residual.push_back(1.0 - (c + o) / ms);
      run.check_output(compare_output(base_out.data(), in.ref[idx].data(),
                                      static_cast<i64>(in.out_floats)));
    }
    chunk_p50.push_back(median(std::vector<double>(
        base_ms.begin() + static_cast<std::ptrdiff_t>(first), base_ms.end())));
  };

  // Rate ladder (untraced runs only): coarse ×1.48 steps up to the first
  // failure, then the fine ×1.05 steps below it. A coarse step runs for
  // half a second, a fine one for a second; a failing step is run once
  // more and counts as failed only if the retry fails too, so one host
  // stall does not end the ladder.
  std::vector<LadderStep> steps;
  std::string ladder_log;  // every attempt, for the envelope
  auto attempt = [&](int idx, double seconds) {
    const double rate = ladder_rate(idx);
    std::vector<double> d;
    std::vector<int> w;
    poisson_schedule(rng, rate, now_s() + 0.01, seconds, min_samples_for(0.9),
                     &d, &w);
    const std::vector<Rec> rr = open_loop(run, *st->client, in, d, w, 0);
    const Phase ph = score(run, rr, false);
    std::vector<double> lat;  // send order, failures as +inf
    for (const Rec& r : rr) {
      lat.push_back(r.answered && r.status == rpc::kOk ? r.latency_ms()
                                                       : INFINITY);
    }
    LadderStep ls;
    ls.rate = rate;
    ls.samples = rr.size();
    ls.failed = ph.fails.failed;
    ls.p90_ms = quantile(lat, 0.9);
    ls.backlog_grew = backlog_grew(lat, kSloMs);
    ladder_log += (ladder_log.empty() ? "" : ", ") +
                  JsonObject()
                      .num("rate", rate)
                      .num("p90_ms", ls.p90_ms)
                      .num("failed", static_cast<double>(ls.failed))
                      .boolean("backlog_grew", ls.backlog_grew)
                      .dump();
    // Let an overloaded step's backlog drain before the next one starts.
    for (int i = 0; i < 500 && st->client->outstanding() > 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return ls;
  };
  auto step = [&](int idx, double seconds) {
    LadderStep ls = attempt(idx, seconds);
    if (!ladder_step_passes(ls, kSloMs)) ls = attempt(idx, seconds);
    steps.push_back(ls);
    return ladder_step_passes(ls, kSloMs);
  };
  constexpr int kCoarse = 8, kMaxIdx = 128;
  int last_pass = -1, first_fail = -1;
  auto coarse = [&] {
    ScopedSpan span(run.log, "bench.ladder");
    for (int i = 0; i <= kMaxIdx && !run.out_of_time(); i += kCoarse) {
      if (!step(i, 0.5)) {
        first_fail = i;
        return;
      }
      last_pass = i;
    }
  };
  auto fine = [&] {
    ScopedSpan span(run.log, "bench.ladder");
    for (int j = last_pass + 1; first_fail > 0 && j < first_fail; ++j) {
      if (run.out_of_time() || !step(j, 1.0)) break;
    }
  };

  // The host's speed drifts over seconds (co-tenant load), so the
  // fixed-rate phase is cut into segments spread over the run, with the
  // baseline chunks and the ladder passes between them. As for the nets,
  // the one-thread latency is fastest_third_mean of the chunk medians.
  constexpr int kSegments = 10;
  const double s = run.args.seconds;
  std::vector<Rec> recs;
  Usage usage;
  // Per-segment peak RSS, kept only until the ladder first overloads the
  // server: pools grown under overload stay resident, and a peak reset
  // cannot go below the current RSS.
  std::vector<double> peak_mb;
  int threads_seen = 0;
  const rpc::RpcServerStats rs0 = st->rpc->stats();
  for (int seg = 0; seg < kSegments; ++seg) {
    std::vector<double> due;
    std::vector<int> which;
    poisson_schedule(rng, run.args.rate, now_s() + 0.01, 0.6 * s / kSegments,
                     min_samples_for(0.9) / kSegments + 1, &due, &which);
    reset_peak_rss();
    const Usage u0 = read_usage();
    {
      ScopedSpan span(run.log, "bench.fixed_rate");
      // OS threads while serving, read off the loop's own threads.
      std::thread probe;
      if (seg == 0) {
        probe = std::thread([&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          threads_seen = os_threads() - 1;  // minus this probe
        });
      }
      const std::vector<Rec> part =
          open_loop(run, *st->client, in, due, which, recs.size());
      if (probe.joinable()) probe.join();
      recs.insert(recs.end(), part.begin(), part.end());
    }
    const Usage u1 = read_usage();
    usage.cpu_s += u1.cpu_s - u0.cpu_s;
    usage.nivcsw += u1.nivcsw - u0.nivcsw;
    usage.minflt += u1.minflt - u0.minflt;
    if (steps.empty()) peak_mb.push_back(peak_rss_mb());
    baseline_chunk(0.1 * s / kSegments, 20);
    if (!trace && seg == 2) coarse();
    if (!trace && seg == 5) fine();
  }
  std::sort(steps.begin(), steps.end(),
            [](const LadderStep& a, const LadderStep& b) { return a.rate < b.rate; });

  const Phase fixed = score(run, recs, true);
  const serve::ModelStats ms1 = st->server->stats().models.at(kModel);
  const rpc::RpcServerStats rs1 = st->rpc->stats();
  const rpc::RpcClient::Stats cs = st->client->stats();

  std::vector<double> lag, queue, exec, per_sample, transport, client, batch;
  for (const Rec& r : recs) {
    lag.push_back((r.sent - r.due) * 1e3);
    if (!r.answered || r.status != rpc::kOk) continue;
    queue.push_back(r.queue_ms);
    exec.push_back(r.exec_ms);
    per_sample.push_back(r.exec_ms / std::max(1, r.batch));
    client.push_back((r.arrived - r.sent) * 1e3);
    transport.push_back(client.back() - r.queue_ms - r.exec_ms);
    batch.push_back(r.batch);
  }
  const double lag_p90 = quantile(lag, 0.9);
  if (lag_p90 > kLagBoundMs) {
    run.valid = false;
    std::fprintf(stderr,
                 "perfbench: serve_rpc run INVALID: generator lag p90 %.3f ms "
                 "> bound %.3f ms\n",
                 lag_p90, kLagBoundMs);
  }

  const double max_rate = ladder_max_rate(steps, kSloMs);
  const u64 shed = rs1.shed - rs0.shed;
  const double hit_rate = ms1.pool.hit_rate();
  const double pool_mb =
      static_cast<double>(ms1.pool.bytes_live + ms1.pool.bytes_idle) /
      (1024.0 * 1024.0);
  st.reset();

  const double p50 = median(fixed.lat_ms);
  run.require_tail_support(fixed.lat_ms.size(), "fixed-rate");
  run.envelope.num("offered_rate", run.args.rate)
      .num("samples_fixed_rate", static_cast<double>(fixed.lat_ms.size()))
      .num("samples_beyond_p90", static_cast<double>(samples_beyond(fixed.lat_ms.size(), 0.9)))
      .raw("ladder", "[" + ladder_log + "]")
      .num("samples_1_thread", static_cast<double>(base_ms.size()))
      .raw("chunk_p50_1t_ms", json_array(chunk_p50))
      .raw("segment_peak_rss_mb", json_array(peak_mb))
      .num("setup_repeats", kSetups)
      .num("lag_ms_p90", lag_p90)
      .num("winograd_error_bound_sum", winograd_error_bound_sum(spec));

  if (!trace) {
    run.e2e("latency_ms_p50", p50, "ms");
    run.e2e("latency_ms_p90", quantile(fixed.lat_ms, 0.9), "ms");
    run.e2e("latency_1t_ms_p50", fastest_third_mean(chunk_p50), "ms");
    run.e2e("setup_s", median(setup_s), "s");
    run.e2e("peak_rss_mb", median(peak_mb), "MiB");
    run.e2e("max_rps_slo", max_rate, "req/s");
    return;
  }

  ReplayTotals replay;
  {
    ScopedSpan span(run.log, "core.replay");
    PlanOptions po;
    po.threads = 1;
    replay = replay_convs(run, spec, params, po, /*pool_in_epilogue=*/true, 9);
  }
  emit_replay_metrics(run, replay);
  const double ops = static_cast<double>(std::max<std::size_t>(recs.size(), 1));
  run.layer("core.eff_gflops", direct_flops(spec) / (p50 * 1e-3) / 1e9,
            "GFLOP/s");
  run.layer("sched.os_threads", threads_seen, "count");
  run.layer("sched.cpu_ms_per_op", usage.cpu_s * 1e3 / ops, "ms");
  run.layer("sched.nivcsw_per_op", static_cast<double>(usage.nivcsw) / ops,
            "count");
  const double g_conv = median(conv_ms);
  run.layer("graph.conv_ms", g_conv, "ms");
  run.layer("graph.other_ms", median(other_ms), "ms");
  run.layer("graph.residual_frac", median(residual), "1");
  int fused_epilogues = 0;
  for (const graph::Step& st : base.fusion().steps) fused_epilogues += st.has_epilogue();
  run.layer("graph.fused_epilogues", fused_epilogues, "count");
  run.layer("graph.compile_ms", compile_ms, "ms");
  run.layer("net.build_ms", median(build_ms), "ms");
  run.layer("core.first_op_ms", median(first_ms) - median(client), "ms");
  run.layer("mem.workspace_mb",
            pool_mb + static_cast<double>(base.arena_bytes() + replay.workspace_bytes) /
                          (1024.0 * 1024.0),
            "MiB");
  run.layer("mem.minflt_per_op",
            static_cast<double>(usage.minflt) / ops, "count");
  run.layer("mem.pool_hit_rate", hit_rate, "1");
  run.layer("rpc.transport_ms_p50", quantile(transport, 0.5), "ms");
  run.layer("serve.queue_ms_p50", quantile(queue, 0.5), "ms");
  run.layer("serve.queue_ms_p90", quantile(queue, 0.9), "ms");
  run.layer("serve.exec_ms_p50", quantile(exec, 0.5), "ms");
  run.layer("serve.exec_ms_per_sample", quantile(per_sample, 0.5), "ms");
  double bsum = 0;
  for (double b : batch) bsum += b;
  run.layer("serve.batch_mean", batch.empty() ? 0 : bsum / batch.size(), "count");
  run.layer("rpc.shed", static_cast<double>(shed), "count");
  run.layer("rpc.transport_errors", static_cast<double>(cs.transport_errors),
            "count");
  run.layer("load.lag_ms_p90", lag_p90, "ms");
  const double replay_residual = g_conv > 0 ? replay.wall_ms / g_conv - 1 : 0;
  run.layer("core.replay_residual_frac", replay_residual, "1");
  run.step_residual = median(residual);
  run.replay_residual = replay_residual;
}

}  // namespace perfbench
