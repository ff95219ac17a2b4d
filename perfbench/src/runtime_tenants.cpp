// runtime_tenants: one core::pim_system driven from a single thread, no
// service. Six tenants shaped like runtime::workload_driver's streams
// (two each of bitmap-scan chains, graph frontier updates, and
// memset/copy plus host/NDP kernels) run one round after another: each
// round rewrites the tenants' source vectors, submits every task
// round-robin across tenants, waits for all of them, and reads every
// output vector back. Each pim_system::write/read, pim_runtime::submit
// and wait_all call is timed on its own; a host-side mirror of every
// vector checks each read-back.
#include <stdexcept>

#include "common/digest.h"
#include "core/pim_system.h"
#include "runtime/workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pim;

constexpr int rows_per_vector = 2;  // 16 KiB vectors on 8 KiB rows
constexpr int tasks_per_tenant = 24;
constexpr int data_variants = 4;  // source contents cycled by round
const runtime::stream_kind tenant_kinds[] = {
    runtime::stream_kind::db_bitmap_scan, runtime::stream_kind::graph_frontier,
    runtime::stream_kind::consumer_bulk, runtime::stream_kind::db_bitmap_scan,
    runtime::stream_kind::graph_frontier, runtime::stream_kind::consumer_bulk};

// The bench_runtime organization: 2 channels x 8 banks, 8 KiB rows.
core::pim_system_config system_config() {
  core::pim_system_config cfg;
  cfg.org.channels = 2;
  cfg.org.ranks = 1;
  cfg.org.banks = 8;
  cfg.org.subarrays = 8;
  cfg.org.rows = 1024;
  cfg.org.columns = 128;
  cfg.runtime.sched.host_slots = 2;
  return cfg;
}

/// One task of a tenant's round, by vector index within the tenant.
struct step {
  runtime::task_kind kind = runtime::task_kind::bulk_bool;
  dram::bulk_op op = dram::bulk_op::not_op;
  int a = 0;
  int b = -1;
  int d = 0;
  int row = 0;        // memset / copy
  bool ones = false;  // memset
  core::kernel_profile profile;
};

/// A tenant's inputs, generated from the seed before set-up.
struct tenant_spec {
  int vectors = 0;
  std::vector<int> sources;  // rewritten at the start of every round
  std::vector<int> outputs;  // read back at the end of every round
  std::vector<step> steps;
  std::vector<bitvector> initial;             // per vector
  std::vector<std::vector<bitvector>> data;   // [variant][source]
};

step bulk(dram::bulk_op op, int a, int b, int d) {
  step s;
  s.op = op;
  s.a = a;
  s.b = b;
  s.d = d;
  return s;
}

/// Each tenant runs every one of its four task shapes equally often;
/// the seed fixes their order, the rows they touch, the data, and the
/// kernel sizes (within 2% of workload_driver's), so every seed does
/// nearly the same work.
std::vector<int> shuffled_cases(rng& gen) {
  std::vector<int> cases;
  for (int i = 0; i < tasks_per_tenant; ++i) cases.push_back(i % 4);
  for (std::size_t i = cases.size() - 1; i > 0; --i) {
    std::swap(cases[i], cases[gen.next_below(i + 1)]);
  }
  return cases;
}

std::uint64_t near(std::uint64_t nominal, rng& gen) {
  return nominal - nominal / 50 + gen.next_below(nominal / 25 + 1);
}

// The workload_driver shapes.
tenant_spec make_tenant(runtime::stream_kind kind, bits size, rng& gen) {
  using dram::bulk_op;
  tenant_spec t;
  const std::vector<int> cases = shuffled_cases(gen);
  switch (kind) {
    case runtime::stream_kind::db_bitmap_scan:  // col0 col1 col2 res0 res1
      t.vectors = 5;
      t.sources = {0, 1, 2};
      t.outputs = {3, 4};
      for (const int c : cases) {
        switch (c) {
          case 0: t.steps.push_back(bulk(bulk_op::and_op, 0, 1, 3)); break;
          case 1: t.steps.push_back(bulk(bulk_op::or_op, 3, 2, 4)); break;
          case 2: t.steps.push_back(bulk(bulk_op::xor_op, 1, 2, 3)); break;
          default: t.steps.push_back(bulk(bulk_op::not_op, 3, -1, 4)); break;
        }
      }
      break;
    case runtime::stream_kind::graph_frontier:
      // frontier visited neighbors next scratch
      t.vectors = 5;
      t.sources = {0, 2};
      t.outputs = {0, 1, 3, 4};
      for (const int c : cases) {
        switch (c) {
          case 0: t.steps.push_back(bulk(bulk_op::or_op, 0, 2, 3)); break;
          case 1: t.steps.push_back(bulk(bulk_op::or_op, 1, 3, 1)); break;
          case 2: t.steps.push_back(bulk(bulk_op::xor_op, 3, 1, 0)); break;
          default: t.steps.push_back(bulk(bulk_op::nand_op, 0, 1, 4)); break;
        }
      }
      break;
    case runtime::stream_kind::consumer_bulk:  // buf0 buf1
      t.vectors = 2;
      t.sources = {0};
      t.outputs = {0, 1};
      for (const int c : cases) {
        step s;
        s.row = static_cast<int>(gen.next_below(rows_per_vector));
        switch (c) {
          case 0:
            s.kind = runtime::task_kind::row_memset;
            s.ones = gen.next_below(2) == 1;
            break;
          case 1:
            s.kind = runtime::task_kind::row_copy;
            s.a = 0;
            s.d = 1;
            break;
          case 2:
            s.kind = runtime::task_kind::host_kernel;
            s.profile.name = "texture_decode";  // streaming, memory-bound
            s.profile.instructions = near(1'000'000, gen);
            s.profile.memory_traffic = near(2 * mib, gen);
            s.profile.host_cache_hit = 0.0;
            break;
          default:
            s.kind = runtime::task_kind::host_kernel;
            s.profile.name = "color_blit";  // compute-bound, cache-friendly
            s.profile.instructions = near(1'000'000, gen);
            s.profile.memory_traffic = near(256 * kib, gen);
            s.profile.host_cache_hit = 0.8;
            break;
        }
        t.steps.push_back(s);
      }
      break;
  }
  for (int v = 0; v < t.vectors; ++v) {
    t.initial.push_back(bitvector::random(size, gen));
  }
  t.data.resize(data_variants);
  for (auto& variant : t.data) {
    for (std::size_t s = 0; s < t.sources.size(); ++s) {
      variant.push_back(bitvector::random(size, gen));
    }
  }
  return t;
}

/// Applies one step to the host mirror of a tenant's vectors.
void apply(const step& s, std::vector<bitvector>& m, bits row_bits) {
  switch (s.kind) {
    case runtime::task_kind::bulk_bool: {
      const bitvector& a = m[static_cast<std::size_t>(s.a)];
      bitvector r;
      switch (s.op) {
        case dram::bulk_op::not_op: r = ~a; break;
        case dram::bulk_op::and_op: r = a & m[static_cast<std::size_t>(s.b)]; break;
        case dram::bulk_op::or_op: r = a | m[static_cast<std::size_t>(s.b)]; break;
        case dram::bulk_op::nand_op: r = ~(a & m[static_cast<std::size_t>(s.b)]); break;
        case dram::bulk_op::nor_op: r = ~(a | m[static_cast<std::size_t>(s.b)]); break;
        case dram::bulk_op::xor_op: r = a ^ m[static_cast<std::size_t>(s.b)]; break;
        case dram::bulk_op::xnor_op: r = ~(a ^ m[static_cast<std::size_t>(s.b)]); break;
      }
      m[static_cast<std::size_t>(s.d)] = std::move(r);
      break;
    }
    case runtime::task_kind::row_memset: {
      bitvector& v = m[static_cast<std::size_t>(s.a)];
      const std::size_t base = static_cast<std::size_t>(s.row) * row_bits;
      for (std::size_t i = 0; i < row_bits; ++i) v.set(base + i, s.ones);
      break;
    }
    case runtime::task_kind::row_copy: {
      const bitvector& src = m[static_cast<std::size_t>(s.a)];
      bitvector& dst = m[static_cast<std::size_t>(s.d)];
      const std::size_t base = static_cast<std::size_t>(s.row) * row_bits;
      for (std::size_t i = 0; i < row_bits; ++i) {
        dst.set(base + i, src.get(base + i));
      }
      break;
    }
    case runtime::task_kind::host_kernel:
      break;
  }
}

runtime::pim_task make_task(const step& s,
                            const std::vector<dram::bulk_vector>& v,
                            int stream) {
  const auto at = [&](int i) -> const dram::bulk_vector& {
    return v[static_cast<std::size_t>(i)];
  };
  runtime::pim_task t;
  switch (s.kind) {
    case runtime::task_kind::bulk_bool:
      t = runtime::make_bulk_task(s.op, at(s.a), s.b < 0 ? nullptr : &at(s.b),
                                  at(s.d), stream);
      break;
    case runtime::task_kind::row_memset:
      t.payload = runtime::row_memset_args{
          at(s.a).rows[static_cast<std::size_t>(s.row)], s.ones};
      break;
    case runtime::task_kind::row_copy:
      t.payload = runtime::row_copy_args{
          at(s.a).rows[static_cast<std::size_t>(s.row)],
          at(s.d).rows[static_cast<std::size_t>(s.row)], true};
      break;
    case runtime::task_kind::host_kernel:
      t.payload = runtime::host_kernel_args{s.profile};
      break;
  }
  t.stream = stream;
  return t;
}

std::uint64_t dram_commands(const core::pim_system& sys) {
  std::uint64_t n = 0;
  const counter_set counters = sys.memory().counters();
  for (const auto& [name, count] : counters.all()) {
    if (name.rfind("dram.", 0) == 0) n += count;
  }
  return n;
}

struct tenants_state {
  std::unique_ptr<core::pim_system> sys;
  std::vector<std::vector<dram::bulk_vector>> vectors;  // per tenant
  std::vector<std::vector<bitvector>> mirror;           // per tenant
  std::uint64_t round = 0;
};

struct counters : call_samples {
  std::uint64_t attempted = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t digest = fnv1a_basis;  // over every read-back, in order
};

/// One closed-loop round: write sources, submit all tasks, wait, read
/// back every output and compare it with the mirror.
void run_round(tenants_state& st, const std::vector<tenant_spec>& specs,
               ledger& l, counters& c) {
  core::pim_system& sys = *st.sys;
  const bits row_bits = sys.org().row_bits();
  const std::uint64_t request = ++st.round;
  scope round_span(l, "bench.round", 0, request);
  const std::uint64_t parent = round_span.id();
  const int variant = static_cast<int>(request % data_variants);

  for (std::size_t t = 0; t < specs.size(); ++t) {
    const tenant_spec& spec = specs[t];
    for (std::size_t s = 0; s < spec.sources.size(); ++s) {
      const auto v = static_cast<std::size_t>(spec.sources[s]);
      const bitvector& data = spec.data[static_cast<std::size_t>(variant)][s];
      ++c.attempted;
      scope w(l, "core.write", parent, request);
      sys.write(st.vectors[t][v], data);
      c.write_us.add(w.end() * c.scale);
      st.mirror[t][v] = data;
    }
  }

  // Submit round-robin across tenants, the arrival order concurrent
  // clients produce. Completion is stamped from the task's own
  // on_complete hook, which the scheduler runs on this thread inside
  // wait_all at the simulated completion instant.
  std::vector<clock::time_point> submitted, completed;
  submitted.reserve(specs.size() * tasks_per_tenant);
  completed.resize(specs.size() * tasks_per_tenant);
  for (int i = 0; i < tasks_per_tenant; ++i) {
    for (std::size_t t = 0; t < specs.size(); ++t) {
      const step& s = specs[t].steps[static_cast<std::size_t>(i)];
      runtime::pim_task task =
          make_task(s, st.vectors[t], static_cast<int>(t));
      const std::size_t slot = submitted.size();
      task.on_complete = [&completed, slot](const runtime::task_report&) {
        completed[slot] = clock::now();
      };
      ++c.attempted;
      submitted.push_back(clock::now());
      scope sub(l, "runtime.submit", parent, request);
      sys.runtime().submit(std::move(task));
    }
  }
  {
    ++c.attempted;
    scope w(l, "runtime.wait_all", parent, request);
    sys.runtime().wait_all();
  }
  for (std::size_t i = 0; i < submitted.size(); ++i) {
    c.op_us.add(
        std::chrono::duration<double, std::micro>(completed[i] - submitted[i])
            .count() *
        c.scale);
  }
  // Tenants touch disjoint vectors, so replaying each tenant's steps in
  // its own program order reproduces what the hazard-ordered run did.
  for (std::size_t t = 0; t < specs.size(); ++t) {
    for (const step& s : specs[t].steps) apply(s, st.mirror[t], row_bits);
  }

  for (std::size_t t = 0; t < specs.size(); ++t) {
    for (const int out : specs[t].outputs) {
      const auto v = static_cast<std::size_t>(out);
      ++c.attempted;
      scope r(l, "core.read", parent, request);
      const bitvector got = sys.read(st.vectors[t][v]);
      c.read_us.add(r.end() * c.scale);
      if (got != st.mirror[t][v]) ++c.mismatched;
      c.digest = fnv1a(c.digest, got);
    }
  }
}


/// Builds one pim_system with every tenant's vectors loaded, then runs
/// the warm-up round: the fingerprint pass, fixed work measured exactly
/// from the simulator's own counters.
tenants_state set_up(const std::vector<tenant_spec>& specs, counters& warm,
                     fingerprint& f) {
  const core::pim_system_config cfg = system_config();
  tenants_state st;
  st.sys = std::make_unique<core::pim_system>(cfg);
  core::pim_system& sys = *st.sys;
  const bits size = cfg.org.row_bits() * rows_per_vector;
  for (const tenant_spec& spec : specs) {
    st.vectors.push_back(sys.allocate(size, spec.vectors));
    st.mirror.push_back(spec.initial);
    for (int v = 0; v < spec.vectors; ++v) {
      sys.write(st.vectors.back()[static_cast<std::size_t>(v)],
                spec.initial[static_cast<std::size_t>(v)]);
    }
  }
  const runtime::scheduler_stats before = sys.runtime().stats().sched;
  const picoseconds t0 = sys.memory().now_ps();
  const cycles c0 = sys.memory().now_cycles();
  const std::uint64_t cmd0 = dram_commands(sys);
  ledger off(false);
  run_round(st, specs, off, warm);
  const runtime::scheduler_stats after = sys.runtime().stats().sched;
  f.exact = {
      {"digest", warm.digest},
      {"tasks", after.completed - before.completed},
      {"makespan_ps", static_cast<std::uint64_t>(sys.memory().now_ps() - t0)},
      {"energy_fj", after.energy_fj - before.energy_fj},
      {"moved_insitu_bytes", after.insitu_bytes - before.insitu_bytes},
      {"moved_offchip_bytes", after.offchip_bytes - before.offchip_bytes},
      {"moved_wire_bytes", after.wire_bytes - before.wire_bytes},
      {"scheduler_ticks", after.ticks - before.ticks},
      {"busy_bank_ticks", after.busy_bank_ticks - before.busy_bank_ticks},
      {"dram_cycles",
       static_cast<std::uint64_t>(sys.memory().now_cycles() - c0)},
      {"dram_commands", dram_commands(sys) - cmd0},
      {"hazard_deferred", after.hazard_deferred - before.hazard_deferred},
      {"wait_admission_ps", after.wait_admission_ps - before.wait_admission_ps},
      {"wait_hazard_ps", after.wait_hazard_ps - before.wait_hazard_ps},
      {"wait_bank_ps", after.wait_bank_ps - before.wait_bank_ps},
      {"exec_ps", after.exec_ps - before.exec_ps},
      {"wire_ps", after.wire_ps - before.wire_ps},
  };
  return st;
}

}  // namespace

outcome run_runtime_tenants(const options& opt) {
  const bits size = system_config().org.row_bits() * rows_per_vector;
  rng gen(opt.seed);
  std::vector<tenant_spec> specs;
  for (const runtime::stream_kind kind : tenant_kinds) {
    specs.push_back(make_tenant(kind, size, gen));
  }

  outcome out;
  host_speed speed;
  std::vector<double> setup_s;
  std::vector<fingerprint> prints;
  auto timed_set_up = [&] {
    const double scale = speed.probe();
    const clock::time_point start = clock::now();
    counters warm;
    fingerprint f;
    tenants_state built = set_up(specs, warm, f);
    setup_s.push_back(us_since(start) / 1e6 * scale);
    out.attempted += warm.attempted;
    out.mismatched += warm.mismatched;
    prints.push_back(f);
    return built;
  };
  tenants_state st;
  for (int rep = 0; rep < setup_repeats; ++rep) st = timed_set_up();
  finish_setup(out, prints);

  // Timed phase: closed-loop rounds until the time is up, each after a
  // host-speed probe. A traced run alternates untraced and traced rounds.
  ledger l(opt.trace), off(false);
  counters base, traced;
  phase p0, p1;
  core::pim_system& sys = *st.sys;
  const clock::time_point start = clock::now();
  int spread = 0;
  for (int i = 0; i == 0 || us_since(start) < opt.seconds * 1e6; ++i) {
    if (setup_due(us_since(start) / 1e6, opt.seconds, spread)) {
      ++spread;
      timed_set_up();
      out.mismatched += prints.back().exact != out.print.exact;
    }
    const bool on = opt.trace && i % 2 == 1;
    counters& c = on ? traced : base;
    c.scale = speed.probe();
    const std::uint64_t tasks0 = sys.runtime().stats().sched.completed;
    const picoseconds sim0 = sys.memory().now_ps();
    const clock::time_point t0 = clock::now();
    run_round(st, specs, on ? l : off, c);
    (on ? p1 : p0)
        .add(us_since(t0) / 1e6, c.scale,
             sys.runtime().stats().sched.completed - tasks0,
             static_cast<double>(sys.memory().now_ps() - sim0) / 1e6);
  }
  for (const counters* c : {&base, &traced}) {
    out.attempted += c->attempted;
    out.mismatched += c->mismatched;
  }

  const auto u = [&](const char* k) {
    return static_cast<double>(out.print.get(k));
  };
  if (!opt.trace) {
    add_end_to_end(out, setup_s, p0, speed, u("makespan_ps") / 1e6, base);
    return out;
  }

  l.write(opt.out_dir + "/spans-runtime_tenants-seed" +
          std::to_string(opt.seed) + ".jsonl");
  add_layers(out, l,
             {"core.write", "core.read", "runtime.submit", "runtime.wait_all"});
  add_sim_layers(out);
  out.metrics.insert(
      out.metrics.end(),
      {
          {"dram.commands", u("dram_commands"), "count"},
          {"dram.cycles", u("dram_cycles"), "count"},
          {"dram.commands_per_kcycle",
           u("dram_commands") * 1000 / u("dram_cycles"), "count"},
          {"obs.trace_overhead_pct", trace_overhead_pct(p0, p1), "%"},
      });
  return out;
}

}  // namespace perfbench
