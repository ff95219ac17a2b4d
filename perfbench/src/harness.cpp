#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

double us_since(clock::time_point start) {
  return std::chrono::duration<double, std::micro>(clock::now() - start)
      .count();
}

options parse_options(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      o.trace = value == "1";
    } else if (key == "--out") {
      o.out_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

// --- host_speed -------------------------------------------------------------

namespace {

constexpr std::size_t probe_words = 16 * 1024 / 8;

// Out of line, like a library's bit accessors, so every bit costs a call.
[[gnu::noinline]] bool get_bit(const std::vector<std::uint64_t>& w,
                               std::size_t i) {
  return (w[i / 64] >> (i % 64)) & 1u;
}

[[gnu::noinline]] void set_bit(std::vector<std::uint64_t>& w, std::size_t i,
                               bool value) {
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  if (value) {
    w[i / 64] |= mask;
  } else {
    w[i / 64] &= ~mask;
  }
}

}  // namespace

host_speed::host_speed() : source_(probe_words), copy_(probe_words) {
  std::uint64_t x = 99;
  for (std::uint64_t& w : source_) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    w = x ^ (x >> 29);
  }
  // Fill the window before the first unit of work is scaled.
  for (std::size_t i = 0; i < window; ++i) probe();
}

double host_speed::probe() {
  const clock::time_point start = clock::now();
  for (std::size_t i = 0; i < probe_words * 64; ++i) {
    set_bit(copy_, i, get_bit(source_, i));
  }
  probes_us_.push_back(us_since(start));
  if (copy_ != source_) throw std::logic_error("host_speed: copy differs");
  const std::size_t n = std::min(window, probes_us_.size());
  return reference_us /
         median(std::vector<double>(probes_us_.end() - static_cast<long>(n),
                                    probes_us_.end()));
}

double host_speed::median_probe_us() const { return median(probes_us_); }

// --- samples ----------------------------------------------------------------

namespace {

/// Nearest-rank index of quantile q among n values.
std::size_t rank_index(double q, std::size_t n) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}

bool enough(double q, std::size_t n) {
  return n > 0 && n - (rank_index(q, n) + 1) >= samples::min_beyond;
}

}  // namespace

void samples::merge(const samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

std::size_t samples::blocks(double q) const {
  for (std::size_t b = max_blocks; b > 0; --b) {
    if (enough(q, values_.size() / b)) return b;
  }
  return 0;
}

double samples::percentile(double q) const {
  const std::size_t b = blocks(q);
  if (b == 0) {
    throw std::runtime_error("percentile " + format_number(q) + " needs " +
                             std::to_string(min_beyond) +
                             " samples beyond it; have " +
                             std::to_string(values_.size()) + " samples");
  }
  std::vector<sample> ordered = values_;
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const sample& x, const sample& y) { return x.at < y.at; });
  const std::size_t n = ordered.size();
  std::vector<double> per_block;
  for (std::size_t i = 0; i < b; ++i) {
    std::vector<double> block;
    for (std::size_t k = i * n / b; k < (i + 1) * n / b; ++k) {
      block.push_back(ordered[k].us);
    }
    const std::size_t k = rank_index(q, block.size());
    std::nth_element(block.begin(), block.begin() + static_cast<long>(k),
                     block.end());
    per_block.push_back(block[k]);
  }
  return median(per_block);
}

// --- ledger -----------------------------------------------------------------

std::uint64_t ledger::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void ledger::record(const char* name, clock::time_point start,
                    clock::time_point end, std::uint64_t id,
                    std::uint64_t parent, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, id, parent, request});
}

std::map<std::string, ledger::layer_total> ledger::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<const span*>> children;
  for (const span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, layer_total> out;
  std::vector<std::pair<clock::time_point, clock::time_point>> cover;
  for (const span& s : spans_) {
    const double total_ms =
        std::chrono::duration<double, std::milli>(s.end - s.start).count();
    // Union of the children's intervals, clipped to this span.
    cover.clear();
    if (auto it = children.find(s.id); it != children.end()) {
      for (const span* c : it->second) {
        const auto lo = std::max(c->start, s.start);
        const auto hi = std::min(c->end, s.end);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered_ms = 0;
    clock::time_point reach = s.start;
    for (const auto& [lo, hi] : cover) {
      const auto from = std::max(lo, reach);
      if (hi > from) {
        covered_ms +=
            std::chrono::duration<double, std::milli>(hi - from).count();
        reach = hi;
      }
    }
    layer_total& t = out[s.name];
    ++t.calls;
    t.self_ms += total_ms - covered_ms;
  }
  return out;
}

void ledger::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  clock::time_point epoch = spans_.empty() ? clock::now() : spans_[0].start;
  for (const span& s : spans_) epoch = std::min(epoch, s.start);
  auto ns = [&](clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
  };
  for (const span& s : spans_) {
    f << "{\"name\":\"" << s.name << "\",\"start_ns\":" << ns(s.start)
      << ",\"end_ns\":" << ns(s.end) << ",\"id\":" << s.id
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
}

scope::scope(ledger& l, const char* name, std::uint64_t parent,
             std::uint64_t request)
    : ledger_(l), name_(name), parent_(parent), request_(request) {
  if (ledger_.on()) id_ = ledger_.next_id();
  start_ = clock::now();
}

double scope::end() {
  if (elapsed_us_ >= 0) return elapsed_us_;
  const clock::time_point stop = clock::now();
  elapsed_us_ = std::chrono::duration<double, std::micro>(stop - start_).count();
  if (ledger_.on()) {
    ledger_.record(name_, start_, stop, id_, parent_, request_);
  }
  return elapsed_us_;
}

// --- timed_client -------------------------------------------------------------

timed_client::timed_client(pim::service::client_api& inner,
                           const std::string& layer)
    : inner_(inner),
      write_name_(layer + ".write"),
      read_name_(layer + ".read"),
      submit_name_(layer + ".submit"),
      wait_name_(layer + ".wait_all") {}

scope timed_client::begin(const std::string& name) {
  return scope(context.trace ? *context.trace : off_, name.c_str(),
               context.parent, context.request);
}

void timed_client::write(const pim::dram::bulk_vector& v,
                         const pim::bitvector& data) {
  ++calls_;
  scope s = begin(write_name_);
  inner_.write(v, data);
  timing.write_us.add(s.end() * timing.scale);
}

pim::bitvector timed_client::read(const pim::dram::bulk_vector& v) {
  ++calls_;
  scope s = begin(read_name_);
  pim::bitvector out = inner_.read(v);
  timing.read_us.add(s.end() * timing.scale);
  return out;
}

pim::service::request_future timed_client::submit_bulk(
    pim::dram::bulk_op op, const pim::dram::bulk_vector& a,
    const pim::dram::bulk_vector* b, const pim::dram::bulk_vector& d) {
  ++calls_;
  const clock::time_point start = clock::now();
  scope s = begin(submit_name_);
  pim::service::request_future f = inner_.submit_bulk(op, a, b, d);
  pending_.emplace_back(f, start);
  return f;
}

pim::service::request_future timed_client::submit_shared(
    pim::dram::bulk_op op, const pim::service::shared_vector& a,
    const pim::service::shared_vector* b,
    const pim::service::shared_vector& d) {
  ++calls_;
  const clock::time_point start = clock::now();
  scope s = begin(submit_name_);
  pim::service::request_future f = inner_.submit_shared(op, a, b, d);
  pending_.emplace_back(f, start);
  return f;
}

void timed_client::wait_all() {
  ++calls_;
  scope s = begin(wait_name_);
  // Collect in submission order; a failed future still counts its
  // latency, and the inner wait_all rethrows the first failure.
  for (const auto& [future, submitted] : pending_) {
    try {
      future.get();
    } catch (const std::exception&) {
    }
    timing.op_us.add(us_since(submitted) * timing.scale);
  }
  pending_.clear();
  inner_.wait_all();
}

std::uint64_t timed_client::digest() {
  wait_all();
  return inner_.digest();
}

// --- phase ---------------------------------------------------------------------

void phase::add(double wall, double scale, std::uint64_t done, double sim) {
  wall_s += wall;
  scaled_s += wall * scale;
  tasks += done;
  sim_us += sim;
}

// --- fingerprint / results ------------------------------------------------------

std::uint64_t fingerprint::get(const std::string& name) const {
  for (const auto* list : {&exact, &timing_dependent}) {
    for (const auto& [k, v] : *list) {
      if (k == name) return v;
    }
  }
  throw std::out_of_range("fingerprint has no " + name);
}

std::string fingerprint::to_json() const {
  std::ostringstream out;
  auto emit = [&](const char* key,
                  const std::vector<std::pair<std::string, std::uint64_t>>& l) {
    out << "\"" << key << "\":{";
    for (std::size_t i = 0; i < l.size(); ++i) {
      out << (i ? "," : "") << "\"" << l[i].first << "\":" << l[i].second;
    }
    out << "}";
  };
  out << "{";
  emit("exact", exact);
  out << ",";
  emit("timing_dependent", timing_dependent);
  out << "}";
  return out.str();
}

void add_percentile(outcome& out, const std::string& name, const samples& s,
                    double q, double scale, const std::string& unit) {
  const double v = s.percentile(q) * scale;
  out.metrics.push_back({name, v, unit});
  out.notes.push_back(name + " = " + format_number(v) + " " + unit + " (" +
                      std::to_string(s.count()) + " samples, median of " +
                      std::to_string(s.blocks(q)) + " blocks)");
}

void add_end_to_end(outcome& out, const std::vector<double>& setup_s,
                    const phase& timed, const host_speed& speed,
                    double sim_makespan_us, const call_samples& calls) {
  std::string all;
  for (const double v : setup_s) all += " " + format_number(v);
  out.notes.push_back("setup_s = median of" + all + " s");
  out.notes.push_back(
      "host speed: probe median " + format_number(speed.median_probe_us()) +
      " us (reference " + format_number(host_speed::reference_us) +
      " us); timed phase " + format_number(timed.wall_s) + " s measured, " +
      format_number(timed.scaled_s) + " s at reference speed; " +
      format_number(static_cast<double>(timed.tasks) / timed.wall_s) +
      " tasks/s measured");
  out.metrics.insert(
      out.metrics.end(),
      {
          {"setup_s", median(setup_s), "s"},
          {"tasks_per_s", timed.tasks_per_s(), "1/s"},
          {"sim_us_per_wall_s", timed.sim_us_per_wall_s(), "us/s"},
          {"sim_makespan_us", sim_makespan_us, "us"},
          {"sim_energy_uj",
           static_cast<double>(out.print.get("energy_fj")) / 1e9, "uJ"},
      });
  add_percentile(out, "op_p50_us", calls.op_us, 0.50, 1, "us");
  add_percentile(out, "op_p99_us", calls.op_us, 0.99, 1, "us");
  add_percentile(out, "write_p50_us", calls.write_us, 0.50, 1, "us");
  add_percentile(out, "write_p99_us", calls.write_us, 0.99, 1, "us");
  add_percentile(out, "read_p50_us", calls.read_us, 0.50, 1, "us");
  add_percentile(out, "read_p99_us", calls.read_us, 0.99, 1, "us");
}

void finish_setup(outcome& out, const std::vector<fingerprint>& prints) {
  for (const fingerprint& f : prints) {
    if (f.exact != prints.back().exact) ++out.mismatched;
  }
  out.print = prints.back();
  out.peak_rss_mb = peak_rss_mb();
}

void add_sim_layers(outcome& out) {
  const auto u = [&](const char* k) {
    return static_cast<double>(out.print.get(k));
  };
  out.metrics.insert(
      out.metrics.end(),
      {
          {"runtime.ticks", u("scheduler_ticks"), "count"},
          {"runtime.ticks_per_task", u("scheduler_ticks") / u("tasks"), "count"},
          {"runtime.avg_busy_banks",
           u("busy_bank_ticks") / u("scheduler_ticks"), "count"},
          {"runtime.hazard_deferred", u("hazard_deferred"), "count"},
          {"runtime.wait_admission_ps", u("wait_admission_ps"), "ps"},
          {"runtime.wait_hazard_ps", u("wait_hazard_ps"), "ps"},
          {"runtime.wait_bank_ps", u("wait_bank_ps"), "ps"},
          {"runtime.exec_ps", u("exec_ps"), "ps"},
          {"runtime.wire_ps", u("wire_ps"), "ps"},
          {"obs.energy_fj", u("energy_fj"), "fJ"},
          {"obs.moved_insitu_bytes", u("moved_insitu_bytes"), "B"},
          {"obs.moved_offchip_bytes", u("moved_offchip_bytes"), "B"},
          {"obs.moved_wire_bytes", u("moved_wire_bytes"), "B"},
      });
}

fingerprint service_fingerprint(const pim::service::service_stats& before,
                                const pim::service::service_stats& after) {
  fingerprint f;
  f.exact = {
      {"tasks", after.sched_completed - before.sched_completed},
      {"energy_fj", after.energy_fj - before.energy_fj},
      {"moved_insitu_bytes",
       after.moved_insitu_bytes - before.moved_insitu_bytes},
      {"moved_offchip_bytes",
       after.moved_offchip_bytes - before.moved_offchip_bytes},
      {"moved_wire_bytes", after.moved_wire_bytes - before.moved_wire_bytes},
      {"cross_plans", after.cross_plans - before.cross_plans},
      {"staged_bytes", after.staged_bytes - before.staged_bytes},
  };
  f.timing_dependent = {
      {"makespan_ps",
       static_cast<std::uint64_t>(after.makespan_ps - before.makespan_ps)},
      {"scheduler_ticks", after.total_ticks - before.total_ticks},
      {"busy_bank_ticks", after.busy_bank_ticks - before.busy_bank_ticks},
      {"hazard_deferred", after.hazard_deferred - before.hazard_deferred},
      {"hazard_drains", after.hazard_drains - before.hazard_drains},
      {"wait_admission_ps", after.wait_admission_ps - before.wait_admission_ps},
      {"wait_hazard_ps", after.wait_hazard_ps - before.wait_hazard_ps},
      {"wait_bank_ps", after.wait_bank_ps - before.wait_bank_ps},
      {"exec_ps", after.wait_exec_ps - before.wait_exec_ps},
      {"wire_ps", after.wait_wire_ps - before.wait_wire_ps},
  };
  return f;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string format_number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of nothing");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void add_layers(outcome& out, const ledger& l,
                const std::vector<std::string>& layers) {
  const auto totals = l.totals();
  for (const std::string& name : layers) {
    ledger::layer_total t;
    if (auto it = totals.find(name); it != totals.end()) t = it->second;
    out.metrics.push_back(
        {name + ".calls", static_cast<double>(t.calls), "count"});
    out.metrics.push_back({name + ".self_ms", t.self_ms, "ms"});
  }
}

}  // namespace perfbench
