// Shared machinery of the perfbench executable: command-line options, raw
// latency samples, the in-memory span ledger of traced runs, the
// simulated fingerprint, and the one-line JSON result.
//
// Every host-wall number the benchmark reports comes from
// std::chrono::steady_clock readings taken in this directory's code,
// around calls into pimlib's public API; nothing is read back from the
// library's own tracer or its power-of-two latency histograms.
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "service/client_api.h"
#include "service/service.h"

namespace perfbench {

using clock = std::chrono::steady_clock;

/// Microseconds elapsed since `start`.
double us_since(clock::time_point start);

/// Median of a non-empty list.
double median(std::vector<double> values);

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 --out DIR`;
/// throws std::invalid_argument on anything else.
options parse_options(int argc, char** argv);

/// Set-up runs `setup_repeats` times before the timed phase and
/// `setup_repeats_timed` more times spread evenly through it, between
/// units of work and outside their timing. setup_s is the median of
/// all of them, so it covers the run's host states rather than its
/// first second; a set-up's time swings up to 2x within one run.
inline constexpr int setup_repeats = 3;
inline constexpr int setup_repeats_timed = 8;

/// True when a timed phase `elapsed_s` into its `seconds` is due for
/// its next spread set-up, `done` of them having run.
inline bool setup_due(double elapsed_s, double seconds, int done) {
  return done < setup_repeats_timed &&
         elapsed_s >= seconds * (done + 1) / (setup_repeats_timed + 1);
}

/// The host's speed, read from a fixed reference kernel: a bit-at-a-time
/// copy of a 16 KiB array through out-of-line get/set calls with a
/// data-dependent branch per bit, the simulator's hottest kind of loop.
/// It is this directory's own code, so no change to pimlib moves it. A
/// shared 4-vCPU host runs the simulator up to 1.6x slower for seconds
/// to minutes at a time, and the probe slows with it. Workloads probe
/// between units of work, while none of their own threads is busy, and
/// scale the unit's host-wall times by the probe's result: host-wall
/// metrics read as on a host where one probe takes `reference_us`.
class host_speed {
 public:
  static constexpr double reference_us = 500;
  /// Probes whose median sets the scale.
  static constexpr std::size_t window = 9;

  host_speed();
  /// Runs the kernel once and returns the scale for host-wall times
  /// measured until the next probe: reference_us over the median of the
  /// last `window` probes.
  double probe();
  /// Median of every probe so far, in microseconds.
  double median_probe_us() const;

 private:
  std::vector<std::uint64_t> source_, copy_;
  std::vector<double> probes_us_;
};

/// Raw per-call host-wall samples in microseconds, already scaled to the
/// reference host speed, each stamped with the moment it was taken. A
/// percentile is computed by nearest rank within each of up to
/// `max_blocks` consecutive, equally sized blocks of samples (in time
/// order), and the median of the block values is reported, so that a
/// burst of interference from other tenants of the host in a few blocks
/// does not move it. Every block must hold at least `min_beyond` samples
/// above its percentile; the block count shrinks until they do, and a
/// percentile with too few samples even as one block is not reportable.
class samples {
 public:
  static constexpr std::size_t min_beyond = 10;
  static constexpr std::size_t max_blocks = 9;

  void add(double us) { values_.push_back({clock::now(), us}); }
  void merge(const samples& other);
  std::size_t count() const { return values_.size(); }

  /// Blocks the percentile would use; 0 when it is not reportable.
  std::size_t blocks(double q) const;
  /// Throws std::runtime_error when the percentile is not reportable.
  double percentile(double q) const;

 private:
  struct sample {
    clock::time_point at;
    double us;
  };
  std::vector<sample> values_;
};

/// In-memory spans of a traced run. Each span holds its name, start
/// and end, its parent span and the request it belongs to; the ledger
/// folds them into per-name call counts and self time (span time minus
/// the union of its children's intervals, so concurrent children on
/// other threads are not double-subtracted). Thread-safe.
class ledger {
 public:
  struct layer_total {
    std::uint64_t calls = 0;
    double self_ms = 0;
  };

  explicit ledger(bool on) : on_(on) {}

  bool on() const { return on_; }
  std::uint64_t next_id();
  void record(const char* name, clock::time_point start, clock::time_point end,
              std::uint64_t id, std::uint64_t parent, std::uint64_t request);

  std::map<std::string, layer_total> totals() const;
  /// One JSON object per line: name, start_ns, end_ns, id, parent,
  /// request (times relative to the first recorded span).
  void write(const std::string& path) const;

 private:
  struct span {
    const char* name;
    clock::time_point start;
    clock::time_point end;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
  };

  const bool on_;
  mutable std::mutex mu_;  // guards next_id_ and spans_
  std::uint64_t next_id_ = 1;
  std::vector<span> spans_;
};

/// Times one call: always measures its host wall (for samples), and
/// records a span when the ledger is on. The span is recorded when
/// end() is called or the scope is destroyed, whichever comes first.
class scope {
 public:
  scope(ledger& l, const char* name, std::uint64_t parent = 0,
        std::uint64_t request = 0);
  ~scope() { end(); }
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

  /// Span id for children (0 when the ledger is off).
  std::uint64_t id() const { return id_; }
  /// Ends the span; returns its duration in microseconds.
  double end();

 private:
  ledger& ledger_;
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  std::uint64_t request_;
  clock::time_point start_;
  double elapsed_us_ = -1;
};

/// Host-wall samples of a timed phase's calls. Each sample is
/// multiplied by `scale` (the host_speed scale of its unit of work) when
/// it is added.
struct call_samples {
  samples op_us, write_us, read_us;
  double scale = 1;

  void merge(const call_samples& other) {
    op_us.merge(other.op_us);
    write_us.merge(other.write_us);
    read_us.merge(other.read_us);
  }
};

/// Where a timed client's calls are attributed: the ledger that records
/// their spans (none when null), and the parent span and request id they
/// hang under. Set by the issuing thread before the client is driven.
struct call_context {
  ledger* trace = nullptr;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

/// A client_api decorator that times every blocking call and every
/// submission of the client it wraps. Spans are named
/// "<layer>.write", "<layer>.read", "<layer>.submit" and
/// "<layer>.wait_all". Op latency is host wall from the submit call to
/// the moment this client observes the future complete (inside
/// wait_all, futures are collected in submission order). Like the
/// clients it wraps, one instance is driven by one thread at a time.
class timed_client final : public pim::service::client_api {
 public:
  timed_client(pim::service::client_api& inner, const std::string& layer);

  call_context context;
  call_samples timing;

  pim::service::session_id id() const override { return inner_.id(); }
  int shard_index() const override { return inner_.shard_index(); }
  std::vector<pim::dram::bulk_vector> allocate(pim::bits size,
                                               int count) override {
    return inner_.allocate(size, count);
  }
  void write(const pim::dram::bulk_vector& v,
             const pim::bitvector& data) override;
  pim::bitvector read(const pim::dram::bulk_vector& v) override;
  pim::service::request_future submit_bulk(
      pim::dram::bulk_op op, const pim::dram::bulk_vector& a,
      const pim::dram::bulk_vector* b,
      const pim::dram::bulk_vector& d) override;
  pim::service::request_future submit_shared(
      pim::dram::bulk_op op, const pim::service::shared_vector& a,
      const pim::service::shared_vector* b,
      const pim::service::shared_vector& d) override;
  void wait_all() override;
  std::uint64_t digest() override;

  /// Calls made through this client (each write, read, submit and
  /// wait_all counts one).
  std::uint64_t calls() const { return calls_; }

 private:
  /// Starts a span for one call under `context`.
  scope begin(const std::string& name);

  pim::service::client_api& inner_;
  ledger off_{false};
  std::string write_name_, read_name_, submit_name_, wait_name_;
  std::vector<std::pair<pim::service::request_future, clock::time_point>>
      pending_;
  std::uint64_t calls_ = 0;
};

/// Ordered integer facts about the simulated run (digests, energy,
/// moved bytes, ticks, commands). `exact` entries must reproduce bit
/// for bit for a given seed; the rest depend on host thread timing.
struct fingerprint {
  std::vector<std::pair<std::string, std::uint64_t>> exact;
  std::vector<std::pair<std::string, std::uint64_t>> timing_dependent;

  std::uint64_t get(const std::string& name) const;
  std::string to_json() const;
};

/// Work and time of one mode (traced or untraced) of a timed phase,
/// summed over its units of work.
struct phase {
  double wall_s = 0;    // host wall as measured
  double scaled_s = 0;  // host wall at the reference host speed
  std::uint64_t tasks = 0;
  double sim_us = 0;    // simulated time advanced

  /// Adds one unit of work that took `wall_s` at host_speed `scale`.
  void add(double wall_s, double scale, std::uint64_t tasks, double sim_us);
  double tasks_per_s() const { return static_cast<double>(tasks) / scaled_s; }
  double sim_us_per_wall_s() const { return sim_us / scaled_s; }
};

/// How much slower the traced mode completed tasks than the untraced
/// one, in percent. Traced runs alternate the two modes unit by unit
/// (round, pass of the query mix, or batch), so both see the
/// same machine conditions.
inline double trace_overhead_pct(const phase& untraced, const phase& traced) {
  return (untraced.tasks_per_s() / traced.tasks_per_s() - 1) * 100;
}

/// One end-to-end or per-layer metric value.
struct metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main.
struct outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // thrown or failed calls
  std::uint64_t mismatched = 0;  // read-backs or results that differ
                                 // from the host reference
  fingerprint print;
  /// Peak resident set (MiB) once set-up and the warm-up pass are done,
  /// before the timed phase: its per-call sample buffers grow with host
  /// speed and would make the figure depend on it.
  double peak_rss_mb = 0;
  std::vector<metric> metrics;
  /// Human-readable lines (percentiles with their sample counts).
  std::vector<std::string> notes;
};

/// Appends metric `name`, the `q` percentile of `s` times `scale`, with
/// a note carrying its sample and block counts.
void add_percentile(outcome& out, const std::string& name, const samples& s,
                    double q, double scale, const std::string& unit);

/// Appends the end-to-end metrics every workload reports: set-up time
/// (median of the repeats), the timed phase's rates, the warm-up pass's
/// simulated makespan and energy, and the call percentiles. Host-wall
/// values are at the reference host speed; notes give the measured ones.
void add_end_to_end(outcome& out, const std::vector<double>& setup_s,
                    const phase& timed, const host_speed& speed,
                    double sim_makespan_us, const call_samples& calls);

/// Ends a workload's set-up: every repeat must have reproduced the
/// same exact fingerprint (each difference counts as a mismatch); the
/// last one, whose system runs the timed phase, becomes the run's
/// fingerprint, and the peak resident set is read.
void finish_setup(outcome& out, const std::vector<fingerprint>& prints);

/// Appends the per-layer metrics read from the fingerprint's scheduler
/// and energy-meter entries, which every workload records under the
/// same names.
void add_sim_layers(outcome& out);

/// The warm-up pass of a service workload, from the service's stats
/// before and after it. Energy and moved bytes are exact; the scheduler
/// counters still depend on host thread timing.
fingerprint service_fingerprint(const pim::service::service_stats& before,
                                const pim::service::service_stats& after);

/// Peak resident set of this process, in MiB (VmHWM).
double peak_rss_mb();

/// Shortest round-trip decimal for a double.
std::string format_number(double v);

/// Adds `<layer>.calls` and `<layer>.self_ms` for every name in
/// `layers` (zero when the ledger saw no such span).
void add_layers(outcome& out, const ledger& l,
                const std::vector<std::string>& layers);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
