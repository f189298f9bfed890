// perfbench: one workload per process.
//
//   perfbench --workload <fit_threads|proc_dense|proc_sparse|serve_refresh>
//             --seed <n> --seconds <s> [--ledger] [--smoke]
//
// Without --ledger the run measures the workload's end-to-end metrics
// for about --seconds seconds of timed work; with --ledger it prints the
// workload's per-layer ledger instead. --smoke shrinks every size so the
// whole path, checks included, runs in about a second. The last line of
// standard output is one JSON object: correct, attempted, failed,
// metrics. Exit code 0 means the run completed (its checks may still
// have failed; see "correct"), 2 a usage error, 1 an exception.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace perfbench {

double cpu_seconds() {
  auto total = [](int who) {
    rusage u{};
    getrusage(who, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  };
  return total(RUSAGE_SELF) + total(RUSAGE_CHILDREN);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;  // ru_maxrss is in KiB
}

HostTicks host_ticks() {
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  char label[16] = {};
  double v[8] = {};
  if (std::fscanf(f, "%15s %lf %lf %lf %lf %lf %lf %lf %lf", label, &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 9) {
    for (double x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

void report_steal(const HostTicks& begin) {
  const HostTicks end = host_ticks();
  const double total = end.total - begin.total;
  say(fmt("host steal during timed work: %.1f%% of CPU time",
          total > 0.0 ? 100.0 * (end.steal - begin.steal) / total : 0.0));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void Outcome::check(bool ok, std::uint64_t ops, const std::string& what) {
  if (ok) return;
  correct = false;
  failed += ops;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

std::string fmt(const char* format, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, format);
  std::vsnprintf(buf, sizeof(buf), format, ap);
  va_end(ap);
  return buf;
}

void say(const std::string& text) {
  std::fputs(text.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void print_outcome(const Outcome& outcome) {
  std::string line = fmt("{\"correct\": %s, \"attempted\": %llu, "
                         "\"failed\": %llu, \"metrics\": {",
                         outcome.correct ? "true" : "false",
                         static_cast<unsigned long long>(outcome.attempted),
                         static_cast<unsigned long long>(outcome.failed));
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    // Non-finite values are not JSON; they only arise from a broken run,
    // which the checks already report.
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    line += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  line += "}}";
  say(line);
}

void print_reconciliation(const std::string& workload,
                          const std::vector<ReconRow>& rows) {
  say(fmt("reconciliation (%s)", workload.c_str()));
  say(fmt("| %-18s | %-22s | %-28s | %12s | %-24s | %12s | %9s |", "part",
          "item", "left", "value", "right", "value", "left/right"));
  std::string json = fmt("{\"workload\": \"%s\", \"rows\": [",
                         workload.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ReconRow& r = rows[i];
    const double ratio = r.right != 0.0 ? r.left / r.right : 0.0;
    say(fmt("| %-18s | %-22s | %-28s | %12.5g | %-24s | %12.5g | %9.3f |",
            r.part.c_str(), r.item.c_str(), r.left_label.c_str(), r.left,
            r.right_label.c_str(), r.right, ratio));
    json += fmt("%s{\"part\": \"%s\", \"item\": \"%s\", \"%s\": %.9g, "
                "\"%s\": %.9g}",
                i == 0 ? "" : ", ", r.part.c_str(), r.item.c_str(),
                r.left_label.c_str(), r.left, r.right_label.c_str(),
                r.right);
  }
  say("reconciliation-json " + json + "]}");
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fit_threads|"
               "proc_dense|proc_sparse|serve_refresh> --seed <n> "
               "--seconds <s> [--ledger] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--ledger") {
      args.ledger = true;
    } else if (flag == "--smoke") {
      args.scale = perfbench::Scale::kSmoke;
    } else {
      return usage(("unknown or incomplete argument " + flag).c_str());
    }
  }
  if (!(args.seconds >= 0.0)) return usage("--seconds must be >= 0");
  try {
    perfbench::Outcome outcome;
    if (args.workload == "fit_threads") {
      outcome = perfbench::run_fit_threads(args);
    } else if (args.workload == "proc_dense") {
      outcome = perfbench::run_proc(args, /*sparse=*/false);
    } else if (args.workload == "proc_sparse") {
      outcome = perfbench::run_proc(args, /*sparse=*/true);
    } else if (args.workload == "serve_refresh") {
      outcome = perfbench::run_serve_refresh(args);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
    perfbench::print_outcome(outcome);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
