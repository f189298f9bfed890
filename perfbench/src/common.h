// Shared plumbing of the wall-clock benchmark: clocks, resource usage,
// order statistics, the result record every mode prints, and the
// verification bookkeeping.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of this process (all threads) and of its
/// reaped children (the proc backend's worker processes).
double cpu_seconds();

/// Largest peak resident set, in MiB, of this process and of any reaped
/// child.
double peak_rss_mb();

/// Cumulative CPU ticks of the whole machine from /proc/stat: all states,
/// and "steal" (time a virtual CPU was ready but the hypervisor ran
/// another guest). Zero where the file is unavailable.
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};
HostTicks host_ticks();

/// Print the steal share of the machine's CPU time since `begin`: wall
/// times measured under a busy hypervisor read high, and this line says
/// when that happened.
void report_steal(const HostTicks& begin);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// What the sizes of a run are scaled to.
enum class Scale { kFull, kSmoke };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool ledger = false;  // per-layer traced run instead of end-to-end
  Scale scale = Scale::kFull;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One mode's outcome. `attempted`/`failed` count operations: training
/// iterations, served queries and snapshot publishes, and the
/// verification steps run on them.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record one verification step; a mismatch fails its operations and
  /// marks the run incorrect.
  void check(bool ok, std::uint64_t ops, const std::string& what);
};

/// Print the result line: the last line of standard output.
void print_outcome(const Outcome& outcome);

/// Print `text` then a newline on standard output and flush; the human
/// tables that precede the result line.
void say(const std::string& text);

/// One reconciliation row: two quantities that should agree, such as
/// kernel ns x trip count against the stage's measured ms.
struct ReconRow {
  std::string part;
  std::string item;
  std::string left_label;
  double left = 0.0;
  std::string right_label;
  double right = 0.0;
};

/// Print the ledger's reconciliation as a table and as one JSON line.
void print_reconciliation(const std::string& workload,
                          const std::vector<ReconRow>& rows);

std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// The four workloads. Each returns its end-to-end metrics, or with
/// args.ledger its per-layer metrics.
Outcome run_fit_threads(const Args& args);
Outcome run_proc(const Args& args, bool sparse);
Outcome run_serve_refresh(const Args& args);

}  // namespace perfbench
