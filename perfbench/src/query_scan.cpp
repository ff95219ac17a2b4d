// query_scan: the PIM-native query engine over an in-process
// pim_service (2 shards, the bench_query 1-channel stack). One
// pim_table (x 8-bit, y 6-bit) is split over four partition sessions,
// plus a collector session that gathers every selection through
// cross-shard submit_shared plans. The table is loaded during set-up;
// one issuer then runs the query mix — the bench_query scan shapes plus
// count and sum aggregates, with constants drawn from the seed — and
// checks every result against db::evaluate and a scalar reference.
#include <algorithm>
#include <stdexcept>

#include "common/digest.h"
#include "db/bitweaving.h"
#include "query/exec.h"
#include "service/client.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace pim;

constexpr int shards = 2;
constexpr int partitions = 4;
constexpr std::size_t rows = 4 * 65536;  // one 8 KiB row per slice

service::service_config service_config() {
  service::service_config cfg;
  cfg.shards = shards;
  cfg.system.org.channels = 1;
  cfg.system.org.ranks = 1;
  cfg.system.org.banks = 8;
  cfg.system.org.subarrays = 8;
  cfg.system.org.rows = 1024;
  cfg.system.org.columns = 128;
  cfg.routing = service::shard_routing::range;
  cfg.sessions_per_shard = partitions / shards;
  return cfg;
}

/// One query of the mix and its host references.
struct query_case {
  query::query_spec spec;
  bitvector scalar;    // per-row evaluation of the predicate tree
  bitvector bitwise;   // db::evaluate leaves combined on the host
  std::uint64_t sum = 0;
  std::uint64_t gathered = 0;  // expected collector digest
};

struct inputs {
  db::column x, y;
  std::vector<query_case> mix;
};

bool holds(const db::predicate& p, std::uint32_t v) {
  switch (p.op) {
    case db::cmp_op::eq: return v == p.value;
    case db::cmp_op::ne: return v != p.value;
    case db::cmp_op::lt: return v < p.value;
    case db::cmp_op::le: return v <= p.value;
    case db::cmp_op::gt: return v > p.value;
    case db::cmp_op::ge: return v >= p.value;
    case db::cmp_op::between: return v >= p.value && v <= p.value2;
  }
  throw std::logic_error("unknown cmp_op");
}

bool holds(const query::predicate_node& n, std::uint32_t x, std::uint32_t y) {
  using kind = query::predicate_node::node_kind;
  switch (n.kind) {
    case kind::leaf: return holds(n.pred, n.column == "x" ? x : y);
    case kind::logic_and:
      return holds(n.children[0], x, y) && holds(n.children[1], x, y);
    case kind::logic_or:
      return holds(n.children[0], x, y) || holds(n.children[1], x, y);
    case kind::logic_not: return !holds(n.children[0], x, y);
  }
  throw std::logic_error("unknown node kind");
}

bitvector bitwise_eval(const query::predicate_node& n,
                       const db::bitslice_storage& sx,
                       const db::bitslice_storage& sy) {
  using kind = query::predicate_node::node_kind;
  switch (n.kind) {
    case kind::leaf:
      return db::evaluate(n.column == "x" ? sx : sy, n.pred).selection;
    case kind::logic_and:
      return bitwise_eval(n.children[0], sx, sy) &
             bitwise_eval(n.children[1], sx, sy);
    case kind::logic_or:
      return bitwise_eval(n.children[0], sx, sy) |
             bitwise_eval(n.children[1], sx, sy);
    case kind::logic_not: return ~bitwise_eval(n.children[0], sx, sy);
  }
  throw std::logic_error("unknown node kind");
}

/// Partition row ranges as pim_table splits them.
std::size_t partition_base(int p) {
  const std::size_t per = rows / partitions, extra = rows % partitions;
  const auto up = static_cast<std::size_t>(p);
  return up * per + std::min(up, extra);
}

inputs make_inputs(std::uint64_t seed) {
  using query::predicate_node;
  rng gen(seed);
  inputs in;
  in.x = db::random_column(rows, 8, gen);
  in.y = db::random_column(rows, 6, gen);
  auto c = [&](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::uint32_t>(gen.next_in(lo, hi));
  };
  auto leaf = [](const char* col, db::cmp_op op, std::uint32_t v,
                 std::uint32_t v2 = 0) {
    return predicate_node::leaf(col, {op, v, v2});
  };
  std::vector<query::query_spec> specs(8);
  specs[0].where = leaf("x", db::cmp_op::lt, c(16, 48));
  specs[1].where = leaf("x", db::cmp_op::lt, c(112, 144));
  specs[2].where = leaf("x", db::cmp_op::between, c(30, 50), c(190, 210));
  specs[3].where = predicate_node::land(leaf("x", db::cmp_op::lt, c(90, 110)),
                                        leaf("y", db::cmp_op::ge, c(12, 20)));
  specs[4].where = predicate_node::lor(leaf("x", db::cmp_op::eq, c(0, 255)),
                                       leaf("y", db::cmp_op::lt, c(4, 12)));
  specs[5].where = leaf("x", db::cmp_op::ne, c(0, 255));
  specs[6].where = leaf("x", db::cmp_op::le, c(60, 80));  // count
  specs[7].where = leaf("x", db::cmp_op::gt, c(150, 170));
  specs[7].agg = query::agg_kind::sum;
  specs[7].agg_column = "y";

  const db::bitslice_storage sx(in.x), sy(in.y);
  for (query::query_spec& spec : specs) {
    query_case q;
    q.scalar = bitvector(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      if (holds(spec.where, in.x.values[r], in.y.values[r])) {
        q.scalar.set(r, true);
        q.sum += in.y.values[r];
      }
    }
    if (spec.agg != query::agg_kind::sum) q.sum = 0;
    q.bitwise = bitwise_eval(spec.where, sx, sy);
    q.gathered = fnv1a_basis;
    for (int p = 0; p < partitions; ++p) {
      const std::size_t base = partition_base(p);
      bitvector slot(partition_base(p + 1) - base);
      for (std::size_t r = 0; r < slot.size(); ++r) {
        slot.set(r, q.scalar.get(base + r));
      }
      q.gathered = fnv1a(q.gathered, slot);
    }
    q.spec = std::move(spec);
    in.mix.push_back(std::move(q));
  }
  return in;
}

/// A live service with the table loaded. Members are destroyed in
/// reverse order: table users first, the service (which stops its
/// shards) last.
struct stack {
  std::unique_ptr<service::pim_service> svc;
  std::vector<std::unique_ptr<service::service_client>> clients;
  std::vector<std::unique_ptr<timed_client>> timed;  // partitions, collector
  std::unique_ptr<query::pim_table> table;
  std::unique_ptr<query::selection_gatherer> gatherer;
};

struct counters {
  std::uint64_t attempted = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t digest = fnv1a_basis;
  std::uint64_t ops = 0;
  samples query_us;
  double scale = 1;  // host_speed scale of the current query
};

/// Runs query `q` of the mix and checks it against both references.
void run_query(stack& s, const inputs& in, std::size_t q, std::uint64_t request,
               ledger& l, counters& c) {
  const query_case& qc = in.mix[q];
  scope query_span(l, "bench.query", 0, request);
  ++c.attempted;
  const clock::time_point start = clock::now();
  query::query_plan plan;
  {
    scope p(l, "query.plan", query_span.id(), request);
    plan = query::plan_query(s.table->schema(), qc.spec);
  }
  query::exec_options opts;
  opts.gather = s.gatherer.get();
  query::query_result r;
  {
    scope e(l, "query.execute", query_span.id(), request);
    for (auto& t : s.timed) t->context = {&l, e.id(), request};
    r = query::execute(*s.table, plan, opts);
  }
  c.query_us.add(us_since(start) * c.scale);
  c.ops += r.ops_submitted;
  const bool ok = r.selection == qc.scalar && r.selection == qc.bitwise &&
                  r.matches == qc.scalar.popcount() && r.sum == qc.sum &&
                  r.digest == fnv1a(fnv1a_basis, qc.scalar) &&
                  r.gathered_digest == qc.gathered;
  if (!ok) ++c.mismatched;
  c.digest = fnv1a(fnv1a(c.digest, r.digest), r.gathered_digest);
}

std::uint64_t calls(const stack& s) {
  std::uint64_t n = 0;
  for (const auto& t : s.timed) n += t->calls();
  return n;
}

}  // namespace

outcome run_query_scan(const options& opt) {
  const inputs in = make_inputs(opt.seed);
  outcome out;
  ledger l(opt.trace), off(false);
  host_speed speed;

  std::vector<double> setup_s, makespan_us;
  std::vector<fingerprint> prints;
  auto timed_set_up = [&] {
    const double scale = speed.probe();
    const clock::time_point start = clock::now();
    auto s = std::make_unique<stack>();
    s->svc = std::make_unique<service::pim_service>(service_config());
    s->svc->start();
    std::vector<service::client_api*> sessions;
    for (int p = 0; p <= partitions; ++p) {
      s->clients.push_back(std::make_unique<service::service_client>(*s->svc));
      s->timed.push_back(
          std::make_unique<timed_client>(*s->clients.back(), "service"));
      if (p < partitions) sessions.push_back(s->timed.back().get());
    }
    s->table = std::make_unique<query::pim_table>(
        query::table_schema{{{"x", 8}, {"y", 6}}}, rows, sessions,
        /*scratch_vectors=*/16);
    s->gatherer = std::make_unique<query::selection_gatherer>(*s->timed.back());
    for (const auto& [name, column] : {std::pair{"x", &in.x}, {"y", &in.y}}) {
      scope load(l, "query.load");
      for (auto& t : s->timed) t->context = {&l, load.id(), 0};
      s->table->load(name, *column);
    }

    // Warm-up: one pass of the mix is the fingerprint pass.
    const service::service_stats before = s->svc->stats();
    counters warm;
    for (std::size_t q = 0; q < in.mix.size(); ++q) {
      run_query(*s, in, q, 0, off, warm);
    }
    setup_s.push_back(us_since(start) / 1e6 * scale);
    const service::service_stats after = s->svc->stats();
    out.attempted += warm.attempted + calls(*s);
    out.mismatched += warm.mismatched;
    makespan_us.push_back(
        static_cast<double>(after.makespan_ps - before.makespan_ps) / 1e6);

    fingerprint f = service_fingerprint(before, after);
    f.exact.insert(f.exact.begin(), {{"digest", warm.digest},
                                     {"queries", in.mix.size()},
                                     {"ops_submitted", warm.ops}});
    prints.push_back(f);
    return s;
  };
  std::unique_ptr<stack> s;
  for (int rep = 0; rep < setup_repeats; ++rep) {
    s.reset();
    s = timed_set_up();
  }
  finish_setup(out, prints);
  for (auto& t : s->timed) t->timing = {};
  const std::uint64_t calls0 = calls(*s);

  // Timed phase: whole passes of the mix until the time is up, each
  // query after a host-speed probe; a traced run alternates untraced and
  // traced passes.
  counters base, traced;
  phase p0, p1;
  std::uint64_t request = 0;
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
    for (std::size_t q = 0; q < in.mix.size(); ++q) {
      c.scale = speed.probe();
      for (auto& t : s->timed) t->timing.scale = c.scale;
      const service::service_stats before = s->svc->stats();
      const clock::time_point t0 = clock::now();
      run_query(*s, in, q, ++request, on ? l : off, c);
      const double wall_s = us_since(t0) / 1e6;
      const service::service_stats after = s->svc->stats();
      (on ? p1 : p0)
          .add(wall_s, c.scale, after.sched_completed - before.sched_completed,
               static_cast<double>(after.makespan_ps - before.makespan_ps) /
                   1e6);
    }
  }
  out.attempted += base.attempted + traced.attempted + calls(*s) - calls0;
  out.mismatched += base.mismatched + traced.mismatched;
  out.notes.push_back("queries: " + std::to_string(base.query_us.count()) +
                      " untraced, " + std::to_string(traced.query_us.count()) +
                      " traced");

  if (!opt.trace) {
    call_samples timing;
    for (const auto& t : s->timed) timing.merge(t->timing);
    add_end_to_end(out, setup_s, p0, speed, median(makespan_us), timing);
    return out;
  }

  l.write(opt.out_dir + "/spans-query_scan-seed" + std::to_string(opt.seed) +
          ".jsonl");
  add_layers(out, l,
             {"query.load", "query.plan", "query.execute", "service.write",
              "service.read", "service.submit", "service.wait_all"});
  add_percentile(out, "query_p50_ms", base.query_us, 0.50, 1e-3, "ms");
  add_percentile(out, "query_p90_ms", base.query_us, 0.90, 1e-3, "ms");
  const service::service_stats st = s->svc->stats();
  std::size_t peak_queue = 0;
  for (const service::shard_stats& sh : st.shards) {
    peak_queue = std::max(peak_queue, sh.peak_queue_depth);
  }
  const auto u = [&](const char* k) {
    return static_cast<double>(out.print.get(k));
  };
  add_sim_layers(out);
  out.metrics.insert(
      out.metrics.end(),
      {
          {"query.ops_per_query", u("ops_submitted") / u("queries"), "count"},
          {"service.cross_plans", u("cross_plans"), "count"},
          {"service.staged_bytes", u("staged_bytes"), "B"},
          {"service.hazard_drains", u("hazard_drains") / u("queries"), "count"},
          {"service.enqueue_waits", static_cast<double>(st.enqueue_waits),
           "count"},
          {"service.peak_queue_depth", static_cast<double>(peak_queue),
           "count"},
          {"obs.trace_overhead_pct", trace_overhead_pct(p0, p1), "%"},
      });
  return out;
}

}  // namespace perfbench
