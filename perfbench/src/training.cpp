// Training workloads: fit_threads (core::ParallelSampler, 2 threads) and
// proc_dense / proc_sparse (core::DistributedSampler on
// proc::ProcCluster, 2 worker processes) on one planted graph.
//
// The three run the same chain: same graph, held-out split, seeds,
// step schedule and evaluation grid. A chain runs a fixed iteration
// budget; time-to-target is the wall time from the first iteration to
// the first evaluation at or after the burn-in whose running held-out
// perplexity is at or below the target. The burn-in exists because the
// chain first rises above its random-init perplexity (kRawEqn3 biases
// beta upward, see core/grads.h) and the rise lasts a seed-dependent
// number of evaluations; an evaluation on the rising side would meet any
// target at once.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>

#include "common.h"
#include "comm/compute_model.h"
#include "comm/network_model.h"
#include "comm/phase_stats.h"
#include "core/distributed_sampler.h"
#include "core/kernels_simd.h"
#include "core/parallel_sampler.h"
#include "core/phi_kernel.h"
#include "core/state.h"
#include "graph/generator.h"
#include "graph/heldout.h"
#include "graph/minibatch.h"
#include "proc/proc_cluster.h"
#include "quant/row_codec.h"
#include "sim/cluster.h"
#include "trace/recorder.h"

namespace perfbench {
namespace {

using scd::comm::Phase;

struct TrainingConfig {
  scd::graph::Vertex vertices = 20'000;
  std::uint32_t communities = 64;
  double degree = 20.0;
  std::size_t heldout = 2'000;
  std::uint32_t neighbors = 16;
  double step_a = 0.02;
  double step_b = 4096.0;
  std::uint64_t eval_every = 300;
  std::uint64_t burn_in = 600;
  std::uint64_t budget = 700;
  double target = 23.0;
  unsigned threads = 2;
  unsigned workers = 2;
  int setup_repeats = 5;
  /// Rows timed per kernel measurement in the ledger.
  std::size_t kernel_rows = 4'000;
};

TrainingConfig training_config(Scale scale) {
  TrainingConfig c;
  if (scale == Scale::kSmoke) {
    c.vertices = 1'000;
    c.communities = 8;
    c.heldout = 200;
    c.eval_every = 20;
    c.burn_in = 60;
    c.budget = 80;
    c.target = 8.0;
    c.setup_repeats = 1;
    c.kernel_rows = 200;
  }
  return c;
}

struct Inputs {
  scd::graph::GeneratedGraph generated;
  std::unique_ptr<scd::graph::HeldOutSplit> split;
  scd::core::Hyper hyper;
  scd::core::SamplerOptions options;

  const scd::graph::Graph& training() const { return split->training(); }
};

/// Planted graph, held-out split and sampler options, all from `seed`.
Inputs make_inputs(const TrainingConfig& c, std::uint64_t seed) {
  Inputs in;
  scd::rng::Xoshiro256 gen_rng(seed);
  in.generated = scd::graph::generate_planted(
      gen_rng, scd::graph::planted_config_for_degree(
                   c.vertices, c.communities, c.degree));
  scd::rng::Xoshiro256 split_rng(seed + 1);
  in.split = std::make_unique<scd::graph::HeldOutSplit>(
      split_rng, in.generated.graph,
      std::min<std::size_t>(c.heldout,
                            in.generated.graph.num_edges() / 5));
  in.hyper.num_communities = c.communities;
  in.hyper.delta = scd::core::suggested_delta(in.generated.graph.density());
  in.options.neighbor_mode = scd::core::NeighborMode::kLinkAware;
  in.options.num_neighbors = c.neighbors;
  in.options.eval_interval = c.eval_every;
  in.options.step.a = c.step_a;
  in.options.step.b = c.step_b;
  in.options.seed = seed;
  return in;
}

/// Running held-out perplexity recomputed in double precision from the
/// rows and beta: per pair Z = sum_k pi_ak (pi_bk bt_k + dt (1 - pi_bk)),
/// with (bt, dt) = (beta, delta) for links and (1 - beta, 1 - delta) for
/// non-links — for unit-mass rows Z_link = sum pi_a pi_b beta +
/// (1 - sum pi_a pi_b) delta. Probabilities average over evaluations
/// before the log, as in Eqn 7.
class ReferencePerplexity {
 public:
  explicit ReferencePerplexity(
      const std::vector<scd::graph::HeldOutPair>& pairs)
      : pairs_(pairs), sums_(pairs.size(), 0.0) {}

  double add_sample(const scd::core::PiMatrix& pi,
                    std::span<const float> beta, double delta) {
    const std::uint32_t k = pi.num_communities();
    ++samples_;
    double log_sum = 0.0;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      const scd::graph::HeldOutPair& p = pairs_[i];
      const double dt = p.link ? delta : 1.0 - delta;
      double z = 0.0;
      for (std::uint32_t j = 0; j < k; ++j) {
        const double pa = pi.pi(p.a, j);
        const double pb = pi.pi(p.b, j);
        const double bt = p.link ? static_cast<double>(beta[j])
                                 : 1.0 - static_cast<double>(beta[j]);
        z += pa * (pb * bt + dt * (1.0 - pb));
      }
      sums_[i] += z;
      log_sum += std::log(
          std::max(sums_[i] / static_cast<double>(samples_), 1e-290));
    }
    return std::exp(-log_sum / static_cast<double>(pairs_.size()));
  }

 private:
  const std::vector<scd::graph::HeldOutPair>& pairs_;
  std::vector<double> sums_;
  std::uint64_t samples_ = 0;
};

bool close_rel(double a, double b, double tol) {
  return std::isfinite(a) && std::isfinite(b) &&
         std::abs(a - b) <= tol * std::max(std::abs(a), std::abs(b));
}

/// Every row finite, non-negative, with mass within `tol(row)` of 1.
template <typename Tol>
bool rows_valid(const scd::core::PiMatrix& pi, Tol&& tol) {
  const std::uint32_t k = pi.num_communities();
  for (std::uint32_t v = 0; v < pi.num_vertices(); ++v) {
    double sum = 0.0;
    for (std::uint32_t j = 0; j < k; ++j) {
      const float x = pi.pi(v, j);
      if (!std::isfinite(x) || x < 0.0f) return false;
      sum += x;
    }
    if (std::abs(sum - 1.0) > tol(pi.row(v))) return false;
  }
  return true;
}

bool beta_valid(std::span<const float> beta) {
  return std::all_of(beta.begin(), beta.end(), [](float b) {
    return std::isfinite(b) && b > 0.0f && b < 1.0f;
  });
}

/// Row-mass tolerance of a final state under `codec`: float rounding for
/// fp32; for the sparse int8 codec the top-R mass tolerance plus half an
/// int8 step on each of at most K/2 kept entries.
double mass_tolerance(scd::quant::RowCodec codec, std::span<const float> row,
                      float sparse_eps) {
  if (!scd::quant::is_sparse(codec)) return 1e-4;
  const auto pis = row.first(row.size() - 1);
  const auto [lo, hi] = std::minmax_element(pis.begin(), pis.end());
  const double step = static_cast<double>(*hi - *lo) / 255.0;
  return static_cast<double>(sparse_eps) +
         0.5 * step * static_cast<double>(pis.size() / 2) + 1e-5;
}

/// Latency unit of the training workloads: two consecutive iterations.
/// A stratified minibatch is either one vertex's links (~20 pairs) or
/// 1/16 of its non-links (~1250 pairs), with probability 1/2 each, so a
/// single iteration's latency is bimodal (0.3-1 ms vs 12-20 ms on
/// proc_dense) and its median flips between the modes from seed to
/// seed. The sum over a pair of iterations is link + non-link half the
/// time, which puts a stable median inside that middle mode.
constexpr std::size_t kIterationsPerSample = 2;

/// Tail percentile of the pair latencies: one 700-iteration chain gives
/// 350 samples, 10.5 of them beyond p97.
constexpr double kTailQuantile = 0.97;

/// A timed run repeats its chain at least this often. Every chain of a
/// run is the same computation (same seed), so the run's figures come
/// from the median chain, position by position; see median_chain().
constexpr std::size_t kMinChains = 3;

/// Latencies of consecutive `kIterationsPerSample`-iteration blocks.
std::vector<double> block_latencies(const std::vector<double>& per_iter) {
  std::vector<double> blocks;
  for (std::size_t i = 0; i + kIterationsPerSample <= per_iter.size();
       i += kIterationsPerSample) {
    double sum = 0.0;
    for (std::size_t j = 0; j < kIterationsPerSample; ++j) {
      sum += per_iter[i + j];
    }
    blocks.push_back(sum);
  }
  return blocks;
}

/// One chain's measurements.
struct Chain {
  bool met = false;
  std::uint64_t target_iteration = 0;  // the evaluation that met the target
  double time_to_target_s = 0.0;
  double final_perplexity = 0.0;
  double span_s = 0.0;  // first iteration to end of budget
  double wall_s = 0.0;  // the whole chain, its set-up and checks included
  double cpu_s = 0.0;
  /// Per iteration, `budget` entries that sum to span_s.
  std::vector<double> latency_us;
  std::vector<scd::core::HistoryPoint> history;
};

/// Per-iteration latencies of the run's median chain: entry i is the
/// median over the run's chains of iteration i's latency. The chains run
/// the identical computation, so they differ only by host noise. A burst
/// of noise inflates a position's median only if it hits most chains at
/// that same position, where a median over whole chains moves as soon as
/// most chains meet some burst anywhere.
std::vector<double> median_chain(const std::vector<Chain>& chains) {
  std::vector<double> typical(chains.front().latency_us.size());
  std::vector<double> column(chains.size());
  for (std::size_t i = 0; i < typical.size(); ++i) {
    for (std::size_t c = 0; c < chains.size(); ++c) {
      column[c] = chains[c].latency_us[i];
    }
    typical[i] = median(column);
  }
  return typical;
}

void add_chain_metrics(Outcome& out, const std::vector<Chain>& chains,
                       double setup_s) {
  const std::vector<double> typical = median_chain(chains);
  double span_us = 0.0;
  for (double us : typical) span_us += us;
  double target_us = 0.0;
  for (std::uint64_t i = 0; i < chains.front().target_iteration; ++i) {
    target_us += typical[i];
  }
  std::vector<double> cpu;
  for (const Chain& c : chains) cpu.push_back(c.cpu_s);
  const std::vector<double> blocks = block_latencies(typical);
  // Every chain of a run has the same history (checked), so the first
  // one's target evaluation and perplexity are every chain's.
  out.add("time_to_target_s", chains.front().met ? target_us * 1e-6 : 0.0,
          "s");
  out.add("ops_per_s", static_cast<double>(typical.size()) / (span_us * 1e-6),
          "1/s");
  out.add("p50_us", percentile(blocks, 0.5), "us");
  out.add("tail_us", percentile(blocks, kTailQuantile), "us");
  out.add("cpu_s", median(cpu), "s");
  out.add("final_perplexity", chains.front().final_perplexity, "ppl");
  out.add("setup_s", setup_s, "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  say(fmt("chains %zu, median chain: %zu %zu-iteration blocks, tail p%g",
          chains.size(), blocks.size(), kIterationsPerSample,
          100.0 * kTailQuantile));
}

/// Every chain of a run must repeat the first one's history exactly.
void check_same_history(Outcome& out, const std::vector<Chain>& chains,
                        std::uint64_t budget) {
  for (const Chain& c : chains) {
    bool same = c.history.size() == chains.front().history.size();
    for (std::size_t i = 0; same && i < c.history.size(); ++i) {
      same = c.history[i].iteration == chains.front().history[i].iteration &&
             c.history[i].perplexity == chains.front().history[i].perplexity;
    }
    out.check(same, budget, "a repeated chain's history differs");
  }
}

/// Whether a timed run starts another chain: always until it has
/// kMinChains, then only while one more chain, as long as the slowest so
/// far, still ends within `seconds` of the run's start. So a run ends
/// close to its --seconds instead of up to one chain past it.
bool another_chain(const std::vector<Chain>& chains, double elapsed_s,
                   double seconds) {
  if (chains.size() < kMinChains) return true;
  double longest = 0.0;
  for (const Chain& c : chains) longest = std::max(longest, c.wall_s);
  return elapsed_s + longest <= seconds;
}

/// Apply the target rule to a finished history; `time_at(iteration)`
/// maps an evaluation to its wall time since the first iteration.
template <typename TimeAt>
void find_target(const TrainingConfig& c, Chain& chain, TimeAt&& time_at) {
  for (const scd::core::HistoryPoint& h : chain.history) {
    if (h.iteration >= c.burn_in && h.perplexity <= c.target) {
      chain.met = true;
      chain.target_iteration = h.iteration;
      chain.time_to_target_s = time_at(h.iteration);
      chain.final_perplexity = h.perplexity;
      return;
    }
  }
}

void print_history(const char* label, const Chain& chain) {
  std::string line = fmt("%s history:", label);
  for (const scd::core::HistoryPoint& h : chain.history) {
    line += fmt(" %llu:%.6f", static_cast<unsigned long long>(h.iteration),
                h.perplexity);
  }
  say(line + (chain.met ? fmt("  target met at %.3f s", chain.time_to_target_s)
                        : std::string("  target missed")));
}

// --------------------------------------------------------------------------
// Kernel timing on a run's final rows (ledger only)
// --------------------------------------------------------------------------

/// Minibatches of the last iterations of the chain, redrawn through
/// graph:: with the sampler's own streams, plus per-iteration counts
/// averaged over the whole budget.
struct Redraw {
  double phi_rows_per_iter = 0.0;
  double pairs_per_iter = 0.0;
  std::vector<std::pair<std::uint64_t, scd::graph::Vertex>> rows;  // (t, a)
  std::vector<scd::graph::MinibatchPair> pairs;
};

Redraw redraw_minibatches(const Inputs& in, const TrainingConfig& c) {
  Redraw r;
  scd::graph::MinibatchSampler sampler(in.training(), in.split.get(),
                                       in.options.minibatch);
  scd::graph::Minibatch mb;
  scd::graph::MinibatchScratch scratch;
  double vertices = 0.0;
  double pairs = 0.0;
  for (std::uint64_t t = c.budget; t-- > 0;) {
    scd::rng::Xoshiro256 rng = scd::core::derive_rng(
        in.options.seed, scd::core::rng_label::kMinibatch, t);
    sampler.draw_into(rng, mb, scratch);
    vertices += static_cast<double>(mb.vertices.size());
    pairs += static_cast<double>(mb.pairs.size());
    for (scd::graph::Vertex a : mb.vertices) {
      if (r.rows.size() < c.kernel_rows) r.rows.emplace_back(t, a);
    }
    for (const scd::graph::MinibatchPair& p : mb.pairs) {
      if (r.pairs.size() < c.kernel_rows) r.pairs.push_back(p);
    }
  }
  r.phi_rows_per_iter = vertices / static_cast<double>(c.budget);
  r.pairs_per_iter = pairs / static_cast<double>(c.budget);
  return r;
}

/// Fastest of five passes of `pass()`, in ns per item: host noise only
/// ever adds time, so the minimum is the steadiest estimate of the
/// kernel's own cost.
template <typename Pass>
double ns_per_item(std::size_t items, Pass&& pass) {
  double best = std::numeric_limits<double>::infinity();
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    sink += pass();
    best = std::min(best, seconds_between(t0, Clock::now()) * 1e9 /
                              static_cast<double>(
                                  std::max<std::size_t>(items, 1)));
  }
  // Keep the computed values observable so the passes are not elided.
  if (sink == 42.4242) std::fputc(' ', stderr);
  return best;
}

/// What the kernels are timed on: the redrawn rows and pairs, their
/// neighbor sets drawn through graph:: with the sampler's streams, and
/// the likelihood terms of the final beta.
struct KernelInputs {
  Redraw redraw;
  std::vector<scd::graph::NeighborSet> sets;
  scd::core::LikelihoodTerms terms;
  double neighbors_ns = 0.0;  // neighbor-set draw per row
};

KernelInputs kernel_inputs(const Inputs& in, const TrainingConfig& c,
                           std::span<const float> beta) {
  KernelInputs ki;
  ki.redraw = redraw_minibatches(in, c);
  ki.terms.refresh(beta, in.hyper.delta);
  const scd::graph::Graph& g = in.training();
  const auto& rows = ki.redraw.rows;
  ki.sets.resize(rows.size());
  scd::graph::NeighborScratch scratch;
  ki.neighbors_ns = ns_per_item(rows.size(), [&] {
    double n = 0.0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto [t, a] = rows[i];
      scd::rng::Xoshiro256 rng = scd::core::derive_rng(
          in.options.seed, scd::core::rng_label::kNeighbors, t, a);
      scd::graph::draw_neighbor_set_into(
          rng, in.options.neighbor_mode, g.num_vertices(), a,
          g.neighbors(a), in.options.num_neighbors, ki.sets[i], scratch);
      n += static_cast<double>(ki.sets[i].samples.size());
    }
    return n;
  });
  return ki;
}

struct KernelTimes {
  double phi_ns = 0.0;
  double theta_ns = 0.0;
  double pair_ns = 0.0;
};

/// Dense float kernels (the fast_* dispatch the threaded sampler runs)
/// on the final rows.
KernelTimes time_float_kernels(const Inputs& in, const KernelInputs& ki,
                               const scd::core::PiMatrix& pi) {
  const std::uint32_t k = in.hyper.num_communities;
  const auto& rows = ki.redraw.rows;
  scd::core::PhiScratch scratch(k);
  std::vector<float> out(pi.row_width());
  std::vector<double> ratio(2 * std::size_t{k}, 0.0);
  KernelTimes kt;
  kt.phi_ns = ns_per_item(rows.size(), [&] {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto [t, a] = rows[i];
      const scd::graph::NeighborSet& set = ki.sets[i];
      scd::core::staged_phi_update(
          in.options.seed, t, a, pi.row(a), set,
          [&](std::size_t j) { return pi.row(set.samples[j].b); }, ki.terms,
          in.options.step.eps(t), in.hyper.normalized_alpha(), out, scratch,
          in.options.noise_factor, in.options.gradient_form);
    }
    return static_cast<double>(out[0]);
  });
  kt.theta_ns = ns_per_item(ki.redraw.pairs.size(), [&] {
    std::span<double> link(ratio.data(), k);
    std::span<double> nonlink(ratio.data() + k, k);
    double z = 0.0;
    for (const scd::graph::MinibatchPair& p : ki.redraw.pairs) {
      z += scd::core::fast_accumulate_theta_ratio(
          pi.row(p.a), pi.row(p.b), ki.terms, p.link,
          p.link ? link : nonlink, scratch.w);
    }
    return z;
  });
  const auto& held = in.split->pairs();
  kt.pair_ns = ns_per_item(held.size(), [&] {
    double z = 0.0;
    for (const scd::graph::HeldOutPair& p : held) {
      z += scd::core::fast_pair_likelihood(pi.row(p.a), pi.row(p.b),
                                           ki.terms, p.link);
    }
    return z;
  });
  return kt;
}

/// The enc kernels the proc workers run, plus the codec's encode and
/// decode, on the final rows encoded under `codec`.
struct EncTimes {
  KernelTimes kernels;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double row_bytes = 0.0;
  double nnz = 0.0;
};

EncTimes time_enc_kernels(const Inputs& in, const KernelInputs& ki,
                          const scd::core::PiMatrix& pi,
                          scd::quant::RowCodec codec) {
  const std::uint32_t k = in.hyper.num_communities;
  const std::uint32_t width = pi.row_width();
  const std::size_t vbytes = scd::quant::encoded_bytes(codec, width);
  const std::uint32_t n = pi.num_vertices();
  std::vector<std::byte> enc(std::size_t{n} * vbytes);
  auto slot = [&](std::uint32_t v) {
    return std::span<std::byte>(enc.data() + std::size_t{v} * vbytes,
                                vbytes);
  };
  auto enc_row = [&](std::uint32_t v) -> std::span<const std::byte> {
    return slot(v);
  };
  EncTimes et;
  et.encode_ns = ns_per_item(n, [&] {
    for (std::uint32_t v = 0; v < n; ++v) {
      scd::quant::encode_row(codec, pi.row(v), slot(v));
    }
    return static_cast<double>(enc[0]);
  });
  std::vector<float> decoded(width);
  et.decode_ns = ns_per_item(n, [&] {
    double s = 0.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      scd::quant::decode_row(codec, enc_row(v), decoded);
      s += decoded[0];
    }
    return s;
  });
  for (std::uint32_t v = 0; v < n; ++v) {
    et.row_bytes +=
        static_cast<double>(scd::quant::row_bytes(codec, width, enc_row(v)));
    et.nnz += scd::quant::row_nnz(codec, width, enc_row(v));
  }
  et.row_bytes /= n;
  et.nnz /= n;

  const auto& rows = ki.redraw.rows;
  scd::core::PhiScratch scratch(k);
  std::vector<float> out(width);
  et.kernels.phi_ns = ns_per_item(rows.size(), [&] {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto [t, a] = rows[i];
      const scd::graph::NeighborSet& set = ki.sets[i];
      scd::core::staged_phi_update_enc(
          codec, in.options.seed, t, a, enc_row(a), set,
          [&](std::size_t j) { return enc_row(set.samples[j].b); }, ki.terms,
          in.options.step.eps(t), in.hyper.normalized_alpha(), out, scratch,
          in.options.noise_factor, in.options.gradient_form);
    }
    return static_cast<double>(out[0]);
  });
  // The same per-pair kernels the worker's update_beta runs.
  std::vector<double> ratio(2 * std::size_t{k}, 0.0);
  const bool sparse = scd::quant::is_sparse(codec);
  et.kernels.theta_ns = ns_per_item(ki.redraw.pairs.size(), [&] {
    std::span<double> link(ratio.data(), k);
    std::span<double> nonlink(ratio.data() + k, k);
    double z = 0.0;
    double eps_link = 0.0;
    double eps_nonlink = 0.0;
    for (const scd::graph::MinibatchPair& p : ki.redraw.pairs) {
      if (sparse) {
        z += scd::core::sparse_accumulate_theta_ratio_enc(
            codec, enc_row(p.a), enc_row(p.b), k, ki.terms, p.link,
            p.link ? link : nonlink, p.link ? eps_link : eps_nonlink);
      } else {
        z += scd::core::fast_accumulate_theta_ratio_enc(
            codec, enc_row(p.a), enc_row(p.b), k, ki.terms, p.link,
            p.link ? link : nonlink, scratch.w);
      }
    }
    if (sparse) {
      scd::core::sparse_theta_epilogue(eps_link, eps_nonlink, ki.terms, link,
                                       nonlink);
    }
    return z;
  });
  const auto& held = in.split->pairs();
  et.kernels.pair_ns = ns_per_item(held.size(), [&] {
    double z = 0.0;
    for (const scd::graph::HeldOutPair& p : held) {
      z += scd::core::fast_pair_likelihood_enc(codec, enc_row(p.a),
                                               enc_row(p.b), k, ki.terms,
                                               p.link);
    }
    return z;
  });
  return et;
}


// --------------------------------------------------------------------------
// fit_threads
// --------------------------------------------------------------------------

/// One ParallelSampler chain, one timed run(1) per iteration. The
/// verification between iterations (the benchmark's own perplexity at
/// every evaluation) is outside the timed iterations.
Chain run_threads_chain(const Inputs& in, const TrainingConfig& c,
                        Outcome& out, scd::trace::TraceRecorder* recorder,
                        std::optional<scd::core::Checkpoint>* final_state) {
  scd::core::ParallelSampler sampler(in.training(), in.split.get(), in.hyper,
                                     in.options, c.threads);
  sampler.set_trace(recorder);
  ReferencePerplexity reference(in.split->pairs());
  Chain chain;
  chain.latency_us.reserve(c.budget);
  std::vector<double> elapsed_at(c.budget + 1, 0.0);
  double elapsed = 0.0;
  std::size_t seen = 0;
  const double cpu0 = cpu_seconds();
  for (std::uint64_t t = 0; t < c.budget; ++t) {
    const Clock::time_point t0 = Clock::now();
    sampler.run(1);
    const double dt = seconds_between(t0, Clock::now());
    elapsed += dt;
    elapsed_at[t + 1] = elapsed;
    chain.latency_us.push_back(dt * 1e6);
    if (sampler.history().size() > seen) {
      seen = sampler.history().size();
      const double mine = reference.add_sample(
          sampler.pi(), sampler.global().beta_all(), in.hyper.delta);
      const double theirs = sampler.history().back().perplexity;
      out.check(close_rel(mine, theirs, 1e-6), 0,
                fmt("fit_threads perplexity at iteration %llu: program %.9g,"
                    " recomputed %.9g",
                    static_cast<unsigned long long>(t + 1), theirs, mine));
    }
  }
  chain.cpu_s = cpu_seconds() - cpu0;
  chain.span_s = elapsed;
  chain.history = sampler.history();
  find_target(c, chain, [&](std::uint64_t it) { return elapsed_at[it]; });
  const bool state_ok =
      rows_valid(sampler.pi(), [](std::span<const float>) { return 1e-4; }) &&
      beta_valid(sampler.global().beta_all());
  out.check(state_ok, c.budget, "fit_threads final rows or beta invalid");
  out.attempted += c.budget;
  if (!chain.met) out.failed += c.budget;
  if (final_state != nullptr) *final_state = sampler.checkpoint();
  return chain;
}

}  // namespace

Outcome run_fit_threads(const Args& args) {
  const TrainingConfig c = training_config(args.scale);
  Outcome out;
  std::vector<double> setups;
  Inputs in;
  for (int r = 0; r < (args.ledger ? 1 : c.setup_repeats); ++r) {
    in = Inputs{};  // free the previous set-up first: peak RSS is a metric
    const Clock::time_point t0 = Clock::now();
    in = make_inputs(c, args.seed);
    scd::core::ParallelSampler probe(in.training(), in.split.get(), in.hyper,
                                     in.options, c.threads);
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  if (!args.ledger) {
    std::vector<Chain> chains;
    const HostTicks ticks = host_ticks();
    const Clock::time_point begin = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      chains.push_back(run_threads_chain(in, c, out, nullptr, nullptr));
      chains.back().wall_s = seconds_between(t0, Clock::now());
      print_history("fit_threads", chains.back());
    } while (another_chain(chains, seconds_between(begin, Clock::now()),
                           args.seconds));
    report_steal(ticks);
    check_same_history(out, chains, c.budget);
    add_chain_metrics(out, chains, median(setups));
    return out;
  }

  // Ledger: one untraced and one traced chain, then kernels on the
  // traced chain's final rows.
  const Chain plain = run_threads_chain(in, c, out, nullptr, nullptr);
  scd::trace::TraceRecorder recorder(1);
  recorder.reserve(c.budget * 5 + 64, 0);
  std::optional<scd::core::Checkpoint> final_state;
  const Chain traced =
      run_threads_chain(in, c, out, &recorder, &final_state);
  print_history("untraced", plain);
  print_history("traced", traced);

  std::array<double, scd::trace::kNumStages> stage_s{};
  std::uint64_t evals = 0;
  for (const scd::trace::SpanEvent& s : recorder.spans(0)) {
    stage_s[static_cast<std::size_t>(s.stage)] += s.end_s - s.begin_s;
    if (s.stage == scd::trace::Stage::kPerplexity) ++evals;
  }
  using scd::trace::Stage;
  auto per_iter_ms = [&](Stage s) {
    return stage_s[static_cast<std::size_t>(s)] * 1e3 /
           static_cast<double>(c.budget);
  };
  double stage_sum_s = 0.0;
  for (double s : stage_s) stage_sum_s += s;
  const double iteration_ms =
      traced.span_s * 1e3 / static_cast<double>(c.budget);
  const double perplexity_ms =
      stage_s[static_cast<std::size_t>(Stage::kPerplexity)] * 1e3 /
      static_cast<double>(std::max<std::uint64_t>(evals, 1));
  const double unattributed_ms =
      (traced.span_s - stage_sum_s) * 1e3 / static_cast<double>(c.budget);

  const KernelInputs ki =
      kernel_inputs(in, c, final_state->global.beta_all());
  const Redraw& redraw = ki.redraw;
  const KernelTimes kt = time_float_kernels(in, ki, final_state->pi);

  out.add("graph.draw_minibatch_ms", per_iter_ms(Stage::kDrawMinibatch),
          "ms");
  out.add("core.update_phi_ms", per_iter_ms(Stage::kUpdatePhi), "ms");
  out.add("core.update_pi_ms", per_iter_ms(Stage::kUpdatePi), "ms");
  out.add("core.update_beta_theta_ms", per_iter_ms(Stage::kUpdateBetaTheta),
          "ms");
  out.add("core.perplexity_ms", perplexity_ms, "ms");
  out.add("core.iteration_ms", iteration_ms, "ms");
  out.add("core.unattributed_ms", unattributed_ms, "ms");
  out.add("graph.sample_neighbors_ns_per_row", ki.neighbors_ns, "ns");
  out.add("core.kernel.phi_ns_per_row", kt.phi_ns, "ns");
  out.add("core.kernel.theta_ratio_ns_per_pair", kt.theta_ns, "ns");
  out.add("core.kernel.pair_likelihood_ns_per_pair", kt.pair_ns, "ns");
  out.add("core.phi_rows_per_iter", redraw.phi_rows_per_iter, "count");
  out.add("core.pairs_per_iter", redraw.pairs_per_iter, "count");
  out.add("trace.overhead_s", traced.time_to_target_s - plain.time_to_target_s,
          "s");

  const double lanes = c.threads;
  const double heldout = static_cast<double>(in.split->pairs().size());
  print_reconciliation(
      "fit_threads",
      {{"kernel_vs_stage", "update_phi", "kernel_ms_per_iter",
        kt.phi_ns * redraw.phi_rows_per_iter / lanes * 1e-6, "stage_ms",
        per_iter_ms(Stage::kUpdatePhi)},
       {"kernel_vs_stage", "update_phi+neighbors", "kernel_ms_per_iter",
        (kt.phi_ns + ki.neighbors_ns) * redraw.phi_rows_per_iter / lanes *
            1e-6,
        "stage_ms", per_iter_ms(Stage::kUpdatePhi)},
       {"kernel_vs_stage", "update_beta_theta", "kernel_ms_per_iter",
        kt.theta_ns * redraw.pairs_per_iter / lanes * 1e-6, "stage_ms",
        per_iter_ms(Stage::kUpdateBetaTheta)},
       {"kernel_vs_stage", "perplexity", "kernel_ms_per_eval",
        kt.pair_ns * heldout / lanes * 1e-6, "stage_ms", perplexity_ms},
       {"stage_vs_iteration", "all_stages", "stage_sum_ms",
        stage_sum_s * 1e3 / static_cast<double>(c.budget), "iteration_ms",
        iteration_ms},
       {"stage_vs_iteration", "unattributed", "residual_ms", unattributed_ms,
        "iteration_ms", iteration_ms},
       {"trace_overhead", "time_to_target", "traced_s",
        traced.time_to_target_s, "untraced_s", plain.time_to_target_s}});
  return out;
}

// --------------------------------------------------------------------------
// proc_dense / proc_sparse
// --------------------------------------------------------------------------

namespace {

struct ProcRun {
  Chain chain;
  std::vector<scd::comm::PhaseStats> stats;  // per rank
  std::unique_ptr<scd::core::PiMatrix> pi;
  std::vector<float> beta;
};

scd::core::DistributedOptions proc_options(const Inputs& in,
                                           scd::quant::RowCodec codec) {
  scd::core::DistributedOptions o;
  o.base = in.options;
  o.pi_codec = codec;
  return o;
}

scd::proc::ProcCluster::Config proc_config(const TrainingConfig& c) {
  scd::proc::ProcCluster::Config config;
  config.num_ranks = c.workers + 1;
  config.recv_timeout_s = 120.0;
  return config;
}

/// One DistributedSampler chain on 2 worker processes; rank 0 runs in
/// this process, so the iteration hook timestamps land here.
ProcRun run_proc_chain(const Inputs& in, const TrainingConfig& c,
                       scd::quant::RowCodec codec, Outcome& out) {
  scd::proc::ProcCluster cluster(proc_config(c));
  scd::core::DistributedOptions options = proc_options(in, codec);
  std::vector<Clock::time_point> hooks(c.budget);
  options.master_iteration_hook = [&hooks](std::uint64_t t) {
    hooks[t] = Clock::now();
  };
  scd::core::DistributedSampler sampler(cluster, in.training(),
                                        in.split.get(), in.hyper, options);
  ProcRun run;
  const double cpu0 = cpu_seconds();
  const scd::core::DistributedResult result = sampler.run(c.budget);
  const Clock::time_point end = Clock::now();
  run.chain.cpu_s = cpu_seconds() - cpu0;
  run.chain.span_s = seconds_between(hooks[0], end);
  run.chain.history = result.history;
  run.chain.latency_us.reserve(c.budget);
  for (std::uint64_t t = 0; t < c.budget; ++t) {
    run.chain.latency_us.push_back(
        seconds_between(hooks[t], t + 1 < c.budget ? hooks[t + 1] : end) *
        1e6);
  }
  find_target(c, run.chain, [&](std::uint64_t it) {
    return seconds_between(hooks[0], it < c.budget ? hooks[it] : end);
  });
  for (unsigned r = 0; r < cluster.num_ranks(); ++r) {
    run.stats.push_back(cluster.stats(r));
  }
  run.pi = std::make_unique<scd::core::PiMatrix>(sampler.snapshot_pi());
  run.beta.assign(sampler.global().beta_all().begin(),
                  sampler.global().beta_all().end());
  const float eps = options.sparse_eps;
  const bool state_ok =
      rows_valid(*run.pi,
                 [&](std::span<const float> row) {
                   return mass_tolerance(codec, row, eps);
                 }) &&
      beta_valid(run.beta) &&
      std::all_of(result.history.begin(), result.history.end(),
                  [](const scd::core::HistoryPoint& h) {
                    return std::isfinite(h.perplexity);
                  });
  out.check(state_ok, c.budget, "proc final rows, beta or history invalid");
  out.attempted += c.budget;
  if (!run.chain.met) out.failed += c.budget;
  return run;
}

/// Untimed sim-backend run of the same configuration up to the first
/// evaluation: its first history point must equal the proc run's
/// (sim == proc), and the benchmark's own perplexity from its rows and
/// beta must match it. Returns the modeled per-phase seconds per
/// iteration, averaged over workers (rank 0's for draw_minibatch).
std::array<double, scd::comm::kNumPhases> verify_against_sim(
    const Inputs& in, const TrainingConfig& c, scd::quant::RowCodec codec,
    const Chain& proc_chain, Outcome& out) {
  scd::sim::SimCluster::Config config;
  config.num_ranks = c.workers + 1;
  config.network = scd::comm::NetworkModel{};
  config.compute = scd::comm::das5_node();
  scd::sim::SimCluster cluster(config);
  scd::core::DistributedSampler sampler(cluster, in.training(),
                                        in.split.get(), in.hyper,
                                        proc_options(in, codec));
  const scd::core::DistributedResult result = sampler.run(c.eval_every);
  const bool same_point =
      result.history.size() == 1 && !proc_chain.history.empty() &&
      result.history[0].iteration == proc_chain.history[0].iteration &&
      result.history[0].perplexity == proc_chain.history[0].perplexity;
  out.check(same_point, c.eval_every,
            fmt("sim and proc first history points differ: sim %.17g, "
                "proc %.17g",
                result.history.empty() ? -1.0 : result.history[0].perplexity,
                proc_chain.history.empty() ? -1.0
                                           : proc_chain.history[0].perplexity));
  if (!result.history.empty()) {
    ReferencePerplexity reference(in.split->pairs());
    const double mine = reference.add_sample(
        sampler.snapshot_pi(), sampler.global().beta_all(), in.hyper.delta);
    out.check(close_rel(mine, result.history[0].perplexity, 1e-6),
              c.eval_every,
              fmt("sim perplexity %.9g vs recomputed %.9g",
                  result.history[0].perplexity, mine));
  }
  out.attempted += c.eval_every;
  std::array<double, scd::comm::kNumPhases> modeled{};
  for (std::size_t p = 0; p < scd::comm::kNumPhases; ++p) {
    double sum = 0.0;
    for (unsigned r = 1; r < cluster.num_ranks(); ++r) {
      sum += cluster.stats(r).get(static_cast<Phase>(p));
    }
    modeled[p] = sum / c.workers / static_cast<double>(c.eval_every);
  }
  modeled[static_cast<std::size_t>(Phase::kDrawMinibatch)] =
      cluster.stats(0).get(Phase::kDrawMinibatch) /
      static_cast<double>(c.eval_every);
  return modeled;
}

}  // namespace

Outcome run_proc(const Args& args, bool sparse) {
  const TrainingConfig c = training_config(args.scale);
  const scd::quant::RowCodec codec =
      sparse ? scd::quant::RowCodec::kSparseTopRInt8
             : scd::quant::RowCodec::kFloat32;
  const char* name = sparse ? "proc_sparse" : "proc_dense";
  Outcome out;
  std::vector<double> setups;
  Inputs in;
  for (int r = 0; r < (args.ledger ? 1 : c.setup_repeats); ++r) {
    in = Inputs{};
    const Clock::time_point t0 = Clock::now();
    in = make_inputs(c, args.seed);
    scd::proc::ProcCluster cluster(proc_config(c));
    scd::core::DistributedSampler probe(cluster, in.training(),
                                        in.split.get(), in.hyper,
                                        proc_options(in, codec));
    setups.push_back(seconds_between(t0, Clock::now()));
  }

  if (!args.ledger) {
    std::vector<Chain> chains;
    const HostTicks ticks = host_ticks();
    const Clock::time_point begin = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      chains.push_back(run_proc_chain(in, c, codec, out).chain);
      chains.back().wall_s = seconds_between(t0, Clock::now());
      print_history(name, chains.back());
    } while (another_chain(chains, seconds_between(begin, Clock::now()),
                           args.seconds));
    report_steal(ticks);
    check_same_history(out, chains, c.budget);
    verify_against_sim(in, c, codec, chains.front(), out);
    add_chain_metrics(out, chains, median(setups));
    return out;
  }

  const ProcRun run = run_proc_chain(in, c, codec, out);
  print_history(name, run.chain);
  const std::array<double, scd::comm::kNumPhases> modeled =
      verify_against_sim(in, c, codec, run.chain, out);

  const double iters = static_cast<double>(c.budget);
  auto worker_ms = [&](Phase p) {
    double sum = 0.0;
    for (unsigned r = 1; r <= c.workers; ++r) sum += run.stats[r].get(p);
    return sum / c.workers * 1e3 / iters;
  };
  double worker_total_ms = 0.0;
  for (std::size_t p = 0; p < scd::comm::kNumPhases; ++p) {
    worker_total_ms += worker_ms(static_cast<Phase>(p));
  }
  const double evals = static_cast<double>(
      std::max<std::size_t>(run.chain.history.size(), 1));
  const double iteration_ms = run.chain.span_s * 1e3 / iters;
  const double perplexity_ms = worker_ms(Phase::kPerplexity) * iters / evals;
  const double draw_ms = run.stats[0].get(Phase::kDrawMinibatch) * 1e3 / iters;

  const KernelInputs ki = kernel_inputs(in, c, run.beta);
  const Redraw& redraw = ki.redraw;
  const EncTimes enc = time_enc_kernels(in, ki, *run.pi, codec);
  // proc_dense workers run the fp32 enc kernels, bit-identical to the
  // float ones; proc_sparse also reports the float kernels on its decoded
  // rows, which is what the same rows cost without the codec.
  const KernelTimes dense = sparse ? time_float_kernels(in, ki, *run.pi)
                                   : enc.kernels;

  out.add("graph.draw_minibatch_ms", draw_ms, "ms");
  out.add("comm.deploy_minibatch_ms", worker_ms(Phase::kDeployMinibatch),
          "ms");
  out.add("graph.sample_neighbors_ms", worker_ms(Phase::kSampleNeighbors),
          "ms");
  out.add("dkv.load_pi_ms", worker_ms(Phase::kLoadPi), "ms");
  out.add("core.update_phi_ms", worker_ms(Phase::kUpdatePhi), "ms");
  out.add("dkv.update_pi_ms", worker_ms(Phase::kUpdatePi), "ms");
  out.add("core.update_beta_theta_ms", worker_ms(Phase::kUpdateBetaTheta),
          "ms");
  out.add("core.perplexity_ms", perplexity_ms, "ms");
  out.add("comm.barrier_wait_ms", worker_ms(Phase::kBarrierWait), "ms");
  out.add("comm.master_wait_ms",
          run.stats[0].get(Phase::kBarrierWait) * 1e3 / iters, "ms");
  out.add("proc.iteration_ms", iteration_ms, "ms");
  out.add("proc.unattributed_ms", iteration_ms - worker_total_ms, "ms");
  out.add("core.kernel.phi_ns_per_row", dense.phi_ns, "ns");
  out.add("core.kernel.theta_ratio_ns_per_pair", dense.theta_ns, "ns");
  out.add("core.kernel.pair_likelihood_ns_per_pair", dense.pair_ns, "ns");
  if (sparse) {
    out.add("core.kernel.phi_ns_per_row_enc", enc.kernels.phi_ns, "ns");
    out.add("core.kernel.theta_ratio_ns_per_pair_enc", enc.kernels.theta_ns,
            "ns");
    out.add("core.kernel.pair_likelihood_ns_per_pair_enc",
            enc.kernels.pair_ns, "ns");
  }
  out.add("core.phi_rows_per_iter", redraw.phi_rows_per_iter, "count");
  out.add("core.pairs_per_iter", redraw.pairs_per_iter, "count");
  out.add("quant.encode_ns_per_row", enc.encode_ns, "ns");
  out.add("quant.decode_ns_per_row", enc.decode_ns, "ns");
  out.add("quant.row_bytes", enc.row_bytes, "bytes");
  out.add("quant.nnz_per_row", enc.nnz, "count");

  // Each worker computes its 1/W share of the rows and pairs on one
  // thread, so kernel ns x count / W predicts its stage time.
  const double lanes = c.workers;
  const double heldout = static_cast<double>(in.split->pairs().size());
  std::vector<ReconRow> rows = {
      {"kernel_vs_stage", "update_phi", "kernel_ms_per_iter",
       enc.kernels.phi_ns * redraw.phi_rows_per_iter / lanes * 1e-6,
       "stage_ms", worker_ms(Phase::kUpdatePhi)},
      {"kernel_vs_stage", "update_beta_theta", "kernel_ms_per_iter",
       enc.kernels.theta_ns * redraw.pairs_per_iter / lanes * 1e-6,
       "stage_ms", worker_ms(Phase::kUpdateBetaTheta)},
      {"kernel_vs_stage", "perplexity", "kernel_ms_per_eval",
       enc.kernels.pair_ns * heldout / lanes * 1e-6, "stage_ms",
       perplexity_ms},
      {"kernel_vs_stage", "update_pi_encode", "encode_ms_per_iter",
       enc.encode_ns * redraw.phi_rows_per_iter / lanes * 1e-6, "stage_ms",
       worker_ms(Phase::kUpdatePi)},
      {"stage_vs_iteration", "all_phases", "worker_phase_sum_ms",
       worker_total_ms, "iteration_ms", iteration_ms},
      {"stage_vs_iteration", "unattributed", "residual_ms",
       iteration_ms - worker_total_ms, "iteration_ms", iteration_ms}};
  for (std::size_t p = 0; p < scd::comm::kNumPhases; ++p) {
    const auto phase = static_cast<Phase>(p);
    const double measured = phase == Phase::kDrawMinibatch
                                ? draw_ms
                                : worker_ms(phase);
    rows.push_back({"modeled_vs_measured", scd::comm::phase_name(phase),
                    "sim_modeled_ms", modeled[p] * 1e3, "proc_measured_ms",
                    measured});
  }
  print_reconciliation(name, rows);
  return out;
}

}  // namespace perfbench
