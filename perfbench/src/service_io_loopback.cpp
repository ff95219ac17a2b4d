// service_io_loopback: an in-process net::pim_server (2 shards, the
// bench_service 2-channel stack) serving two net::remote_client
// connections over loopback sockets, one generator thread each. Every
// iteration writes fresh sources, submits a short dependent bulk-op
// chain, reads the chain's destination back while its compute is still
// in flight (so the shard drains the hazard), and compares it with the
// host-computed bits. The traced run replays the same client script
// over in-process service_clients to price the wire (net.wire_tax).
#include <algorithm>
#include <barrier>
#include <functional>
#include <stdexcept>
#include <thread>

#include "common/digest.h"
#include "net/client.h"
#include "net/server.h"
#include "service/client.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pim;

constexpr int connections = 2;
constexpr bits vector_bits = 4 * 8 * 1024;  // 4 KiB vectors
constexpr int script_length = 64;           // iterations before it repeats
constexpr int batch_iterations = 16;        // per connection, between probes
constexpr int warmup_batches = 2;           // the fingerprint pass

service::service_config service_config() {
  service::service_config cfg;
  cfg.shards = 2;
  cfg.system.org.channels = 2;
  cfg.system.org.ranks = 1;
  cfg.system.org.banks = 8;
  cfg.system.org.subarrays = 8;
  cfg.system.org.rows = 1024;
  cfg.system.org.columns = 128;
  cfg.routing = service::shard_routing::range;
  cfg.sessions_per_shard = 1;  // one connection per shard
  return cfg;
}

/// One iteration of a connection's script: sources a, b and the chain
/// d1 = op1(a, b), d2 = op2(d1, a), d3 = op3(d2, b).
struct iteration {
  bitvector a, b;
  dram::bulk_op ops[3] = {};
  bitvector expected;  // host-computed d3
};

bitvector apply(dram::bulk_op op, const bitvector& x, const bitvector& y) {
  switch (op) {
    case dram::bulk_op::and_op: return x & y;
    case dram::bulk_op::or_op: return x | y;
    case dram::bulk_op::nand_op: return ~(x & y);
    case dram::bulk_op::nor_op: return ~(x | y);
    case dram::bulk_op::xor_op: return x ^ y;
    case dram::bulk_op::xnor_op: return ~(x ^ y);
    case dram::bulk_op::not_op: break;
  }
  throw std::logic_error("chain ops are binary");
}

std::vector<std::vector<iteration>> make_scripts(std::uint64_t seed) {
  const dram::bulk_op binary[] = {
      dram::bulk_op::and_op, dram::bulk_op::or_op,  dram::bulk_op::nand_op,
      dram::bulk_op::nor_op, dram::bulk_op::xor_op, dram::bulk_op::xnor_op};
  rng gen(seed);
  std::vector<std::vector<iteration>> scripts(connections);
  for (auto& script : scripts) {
    for (int i = 0; i < script_length; ++i) {
      iteration it;
      it.a = bitvector::random(vector_bits, gen);
      it.b = bitvector::random(vector_bits, gen);
      for (auto& op : it.ops) op = binary[gen.next_below(6)];
      const bitvector d1 = apply(it.ops[0], it.a, it.b);
      const bitvector d2 = apply(it.ops[1], d1, it.a);
      it.expected = apply(it.ops[2], d2, it.b);
      script.push_back(std::move(it));
    }
  }
  return scripts;
}

/// One connection's state: its client (remote or in-process), the
/// timing decorator over it, and its vectors a b d1 d2 d3.
struct session {
  std::unique_ptr<service::client_api> client;
  std::unique_ptr<timed_client> timed;
  std::vector<dram::bulk_vector> v;
  const std::vector<iteration>* script = nullptr;
  std::uint64_t next = 0;  // script position
  std::uint64_t attempted = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t digest = fnv1a_basis;
};

/// Runs the script's next iteration.
void step(session& s, ledger& l, std::uint64_t request) {
  const iteration& it =
      (*s.script)[static_cast<std::size_t>(s.next++ % script_length)];
  timed_client& c = *s.timed;
  scope span(l, "bench.iteration", 0, request);
  c.context = {&l, span.id(), request};
  c.write(s.v[0], it.a);
  c.write(s.v[1], it.b);
  c.submit_bulk(it.ops[0], s.v[0], &s.v[1], s.v[2]);
  c.submit_bulk(it.ops[1], s.v[2], &s.v[0], s.v[3]);
  c.submit_bulk(it.ops[2], s.v[3], &s.v[1], s.v[4]);
  const bitvector got = c.read(s.v[4]);
  c.wait_all();
  s.attempted += 7;  // 2 writes, 3 submits, 1 read, 1 wait_all
  if (got != it.expected) ++s.mismatched;
  s.digest = fnv1a(s.digest, got);
}

/// Runs every session on its own thread, in batches of
/// `batch_iterations` iterations per session, until `seconds` have
/// passed (or for `batches` batches, when non-zero). Before each batch,
/// while every session is idle, the calling thread probes `speed` (when
/// set) and scales the sessions' samples by it. Each batch's wall, from
/// its release until the last session finishes, and the service's task
/// and simulated-time counters go into `modes`; with `alternate`,
/// batches alternate between `off` (modes[0]) and `on` (modes[1]). The
/// first exception any thread throws ends the run and is rethrown after
/// all threads join.
void drive(std::vector<session>& sessions, service::pim_service& svc,
           ledger& off, ledger& on, bool alternate, double seconds,
           int batches, host_speed* speed, phase (&modes)[2]) {
  const std::size_t n = sessions.size();
  std::barrier sync(static_cast<std::ptrdiff_t>(n + 1));
  bool stop = false;
  std::size_t mode = 0;
  std::vector<std::exception_ptr> errors(n + 1);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      session& s = sessions[i];
      for (;;) {
        sync.arrive_and_wait();  // released, or stopped
        if (stop) return;
        try {
          for (int k = 0; k < batch_iterations && !errors[i]; ++k) {
            step(s, mode == 1 ? on : off, (i << 32) | s.next);
          }
        } catch (...) {
          errors[i] = std::current_exception();
        }
        sync.arrive_and_wait();  // batch done
      }
    });
  }
  try {
    const clock::time_point start = clock::now();
    for (int b = 0; batches > 0 ? b < batches
                                : b == 0 || us_since(start) < seconds * 1e6;
         ++b) {
      if (std::any_of(errors.begin(), errors.end(),
                      [](const std::exception_ptr& e) { return e; })) {
        break;
      }
      mode = alternate ? static_cast<std::size_t>(b % 2) : 0;
      const double scale = speed ? speed->probe() : 1;
      for (session& s : sessions) s.timed->timing.scale = scale;
      const service::service_stats before = svc.stats();
      const clock::time_point t0 = clock::now();
      sync.arrive_and_wait();
      sync.arrive_and_wait();
      const double wall_s = us_since(t0) / 1e6;
      const service::service_stats after = svc.stats();
      modes[mode].add(
          wall_s, scale, after.sched_completed - before.sched_completed,
          static_cast<double>(after.makespan_ps - before.makespan_ps) / 1e6);
    }
  } catch (...) {
    errors[n] = std::current_exception();
  }
  stop = true;
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// A server with its connections, which close first.
struct loopback {
  std::unique_ptr<net::pim_server> server;
  std::vector<session> remote;
};

std::vector<session> open_sessions(
    const std::vector<std::vector<iteration>>& scripts,
    const std::string& layer,
    const std::function<std::unique_ptr<service::client_api>()>& connect) {
  std::vector<session> sessions(connections);
  for (int i = 0; i < connections; ++i) {
    session& s = sessions[static_cast<std::size_t>(i)];
    s.client = connect();
    s.timed = std::make_unique<timed_client>(*s.client, layer);
    s.v = s.client->allocate(vector_bits, 5);
    s.attempted = 1;
    s.script = &scripts[static_cast<std::size_t>(i)];
  }
  return sessions;
}

}  // namespace

outcome run_service_io_loopback(const options& opt) {
  const auto scripts = make_scripts(opt.seed);
  outcome out;
  ledger l(opt.trace), off(false);
  host_speed speed;
  auto tally = [&](std::vector<session>& sessions) {
    for (session& s : sessions) {
      out.attempted += s.attempted;
      out.mismatched += s.mismatched;
      s.attempted = s.mismatched = 0;
    }
  };

  std::vector<double> setup_s, makespan_us;
  std::vector<fingerprint> prints;
  auto timed_set_up = [&] {
    const double scale = speed.probe();
    const clock::time_point start = clock::now();
    loopback lb;
    net::server_config cfg;
    cfg.service = service_config();
    lb.server = std::make_unique<net::pim_server>(cfg);
    lb.server->start();
    const std::uint16_t port = lb.server->port();
    lb.remote = open_sessions(scripts, "net", [port] {
      return std::make_unique<net::remote_client>("127.0.0.1", port);
    });
    const service::service_stats before = lb.server->service().stats();
    phase unused[2];
    drive(lb.remote, lb.server->service(), off, off, false, 0,
          warmup_batches, nullptr, unused);
    setup_s.push_back(us_since(start) / 1e6 * scale);
    const service::service_stats after = lb.server->service().stats();
    tally(lb.remote);
    makespan_us.push_back(
        static_cast<double>(after.makespan_ps - before.makespan_ps) / 1e6);

    std::uint64_t digest = fnv1a_basis;
    for (const session& s : lb.remote) digest = fnv1a(digest, s.digest);
    fingerprint f = service_fingerprint(before, after);
    f.exact.insert(f.exact.begin(),
                   {{"digest", digest},
                    {"iterations", static_cast<std::uint64_t>(
                                       connections * warmup_batches *
                                       batch_iterations)}});
    prints.push_back(f);
    return lb;
  };
  loopback lb;
  for (int rep = 0; rep < setup_repeats; ++rep) {
    lb.remote.clear();
    lb.server.reset();
    lb = timed_set_up();
  }
  finish_setup(out, prints);
  std::vector<session>& remote = lb.remote;
  for (session& s : remote) s.timed->timing = {};
  service::pim_service& svc = lb.server->service();

  // Timed phase. Untraced: both connections loop until the time is up.
  // Traced: half the time alternating untraced/traced batches over
  // loopback, then the same script traced over in-process clients. The
  // spread set-ups cut the loopback part into equal segments.
  const double loop_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  phase modes[2];
  const service::service_stats before = svc.stats();
  const std::uint64_t iter0 = remote[0].next + remote[1].next;
  for (int k = 0; k <= setup_repeats_timed; ++k) {
    if (k > 0) {
      timed_set_up();
      out.mismatched += prints.back().exact != out.print.exact;
    }
    drive(remote, svc, off, l, opt.trace, loop_s / (setup_repeats_timed + 1),
          0, &speed, modes);
  }
  const service::service_stats after = svc.stats();
  const auto iterations =
      static_cast<double>(remote[0].next + remote[1].next - iter0);
  tally(remote);

  if (!opt.trace) {
    call_samples timing;
    for (const session& s : remote) timing.merge(s.timed->timing);
    add_end_to_end(out, setup_s, modes[0], speed, median(makespan_us),
                   timing);
    return out;
  }

  // The same script over in-process clients on the same service.
  std::vector<session> local = open_sessions(scripts, "service", [&svc] {
    return std::make_unique<service::service_client>(svc);
  });
  phase local_modes[2];
  drive(local, svc, l, l, false, opt.seconds / 2, 0, &speed, local_modes);
  tally(local);
  const phase& traced_net = modes[1];
  const phase& traced_local = local_modes[0];

  l.write(opt.out_dir + "/spans-service_io_loopback-seed" +
          std::to_string(opt.seed) + ".jsonl");
  add_layers(out, l,
             {"net.write", "net.read", "net.submit", "net.wait_all",
              "service.write", "service.read", "service.submit",
              "service.wait_all"});
  const service::service_stats st = svc.stats();
  std::size_t peak_queue = 0;
  for (const service::shard_stats& sh : st.shards) {
    peak_queue = std::max(peak_queue, sh.peak_queue_depth);
  }
  add_sim_layers(out);
  out.metrics.insert(
      out.metrics.end(),
      {
          {"net.wire_tax",
           traced_local.tasks_per_s() / traced_net.tasks_per_s(), "ratio"},
          {"service.hazard_drains",
           static_cast<double>(after.hazard_drains - before.hazard_drains) /
               iterations,
           "count"},
          {"service.enqueue_waits", static_cast<double>(st.enqueue_waits),
           "count"},
          {"service.peak_queue_depth", static_cast<double>(peak_queue),
           "count"},
          {"obs.trace_overhead_pct", trace_overhead_pct(modes[0], modes[1]),
           "%"},
      });
  return out;
}

}  // namespace perfbench
