// serve_refresh: closed-loop membership queries from 2 client threads
// through serve::run_traffic, with 4 fp32 snapshot refreshes published
// mid-load from one build thread.
//
// The served model is generated here, not trained: each row puts ~90% of
// its mass on 1-3 planted communities and spreads the rest thinly, the
// shape trained rows converge to. Serving numbers therefore do not move
// when training numerics change. At 200 000 vertices and K = 256 the
// dense rows alone are ~205 MB, larger than the host's last-level cache,
// so Zipf-skewed lookups exercise the memory hierarchy as a real index
// would.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "common.h"
#include "core/checkpoint.h"
#include "core/state.h"
#include "serve/query_engine.h"
#include "serve/serving_index.h"
#include "serve/traffic.h"
#include "threading/thread_pool.h"

namespace perfbench {
namespace {

using scd::serve::ServingSnapshots;

/// Fewest `run_traffic` rounds in a timed run; its figures are medians
/// over rounds.
constexpr std::size_t kMinRounds = 2;

struct ServeConfig {
  std::uint32_t vertices = 200'000;
  std::uint32_t communities = 256;
  std::uint64_t queries = 10'000'000;  // per round
  unsigned clients = 2;
  unsigned refreshes = 4;  // per round
  std::uint32_t top_r = 32;
  std::size_t pair_set = 20'000;       // held-out pairs for perplexity
  std::size_t check_queries = 2'000;   // per query kind
  std::size_t kind_samples = 200'000;  // ledger: per-kind latency samples
  int setup_repeats = 3;
};

ServeConfig serve_config(Scale scale) {
  ServeConfig c;
  if (scale == Scale::kSmoke) {
    c.vertices = 2'000;
    c.communities = 16;
    c.queries = 20'000;
    c.top_r = 8;
    c.pair_set = 500;
    c.check_queries = 200;
    c.kind_samples = 2'000;
    c.setup_repeats = 1;
  }
  return c;
}

/// Stream labels for core::derive_rng, apart from the training and
/// traffic labels.
constexpr std::uint64_t kModelLabel = 201;
constexpr std::uint64_t kPairLabel = 202;
constexpr std::uint64_t kCheckLabel = 203;
constexpr std::uint64_t kTrafficSeedLabel = 204;

/// Refreshes the ledger times part by part (each copies the whole model
/// twice and rebuilds the index).
constexpr int kTimedRefreshes = 2;

/// The served model, from `seed`: rows with 1 (60%), 2 (30%) or 3 (10%)
/// planted memberships sharing 0.9 of the mass, 0.1 spread over all K;
/// beta_k uniform in [0.02, 0.3].
struct Model {
  scd::core::Checkpoint checkpoint;
  std::vector<std::uint32_t> primary;  // first planted community per vertex
};

Model make_model(const ServeConfig& c, std::uint64_t seed) {
  const std::uint32_t n = c.vertices;
  const std::uint32_t k = c.communities;
  Model m;
  m.checkpoint.hyper.num_communities = k;
  m.checkpoint.hyper.delta = 1e-4;
  m.checkpoint.pi = scd::core::PiMatrix(n, k);
  m.checkpoint.global = scd::core::GlobalState(k);
  m.primary.resize(n);
  scd::rng::Xoshiro256 rng = scd::core::derive_rng(seed, kModelLabel);
  std::vector<double> row(k);
  for (std::uint32_t v = 0; v < n; ++v) {
    double total = 0.0;
    for (double& x : row) {
      x = (0.1 / k) * (0.5 + rng.next_double());
      total += x;
    }
    const double u = rng.next_double();
    const int memberships = u < 0.1 ? 3 : u < 0.4 ? 2 : 1;
    std::uint32_t chosen[3] = {0, 0, 0};
    double weights[3] = {0.0, 0.0, 0.0};
    double weight_sum = 0.0;
    for (int i = 0; i < memberships; ++i) {
      std::uint32_t pick;
      do {
        pick = static_cast<std::uint32_t>(rng.next_below(k));
      } while (std::find(chosen, chosen + i, pick) != chosen + i);
      chosen[i] = pick;
      weights[i] = 1.0 + rng.next_double();
      weight_sum += weights[i];
    }
    for (int i = 0; i < memberships; ++i) {
      row[chosen[i]] += 0.9 * weights[i] / weight_sum;
    }
    total += 0.9;
    std::span<float> out = m.checkpoint.pi.row(v);
    for (std::uint32_t j = 0; j < k; ++j) {
      out[j] = static_cast<float>(row[j] / total);
    }
    out[k] = static_cast<float>(50.0 + 100.0 * rng.next_double());
    m.primary[v] = chosen[0];
  }
  for (std::uint32_t j = 0; j < k; ++j) {
    const double beta = 0.02 + 0.28 * rng.next_double();
    m.checkpoint.global.set_theta(j, 0, (1.0 - beta) * 100.0);
    m.checkpoint.global.set_theta(j, 1, beta * 100.0);
  }
  m.checkpoint.global.update_beta_from_theta();
  return m;
}

struct Pair {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  bool link = false;
};

/// Held-out pairs: half "links" between vertices sharing a primary
/// community, half uniform "non-links".
std::vector<Pair> make_pairs(const ServeConfig& c, const Model& m,
                             std::uint64_t seed) {
  std::vector<std::vector<std::uint32_t>> members(c.communities);
  for (std::uint32_t v = 0; v < c.vertices; ++v) {
    members[m.primary[v]].push_back(v);
  }
  scd::rng::Xoshiro256 rng = scd::core::derive_rng(seed, kPairLabel);
  std::vector<Pair> pairs;
  pairs.reserve(c.pair_set);
  while (pairs.size() < c.pair_set) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(c.vertices));
    if (pairs.size() % 2 == 0) {
      const std::vector<std::uint32_t>& same = members[m.primary[a]];
      const std::uint32_t b = same[rng.next_below(same.size())];
      if (b != a) pairs.push_back({a, b, true});
    } else {
      const auto b = static_cast<std::uint32_t>(rng.next_below(c.vertices));
      if (b != a) pairs.push_back({a, b, false});
    }
  }
  return pairs;
}

scd::serve::TrafficOptions traffic_options(const ServeConfig& c,
                                           std::uint64_t seed) {
  scd::serve::TrafficOptions t;
  t.ops = c.queries;
  t.threads = c.clients;
  t.zipf_s = 0.99;
  t.mix_top = 0.70;
  t.mix_link = 0.25;
  t.mix_members = 0.05;
  t.top_k = 8;
  t.members_k = 16;
  t.seed = scd::core::derive_rng(seed, kTrafficSeedLabel)();
  t.refreshes = c.refreshes;
  t.refresh_codec = scd::quant::RowCodec::kFloat32;
  t.refresh_build_threads = 1;
  return t;
}

bool ranks_before(float wa, std::uint32_t a, float wb, std::uint32_t b) {
  return wa != wb ? wa > wb : a < b;
}

double link_formula(const scd::core::Checkpoint& m, std::uint32_t a,
                    std::uint32_t b) {
  const std::uint32_t k = m.pi.num_communities();
  const double delta = m.hyper.delta;
  double z = 0.0;
  for (std::uint32_t j = 0; j < k; ++j) {
    const double pa = m.pi.pi(a, j);
    const double pb = m.pi.pi(b, j);
    z += pa * (pb * static_cast<double>(m.global.beta(j)) +
               delta * (1.0 - pb));
  }
  return z;
}

/// A fixed sample of each query kind asked of the current snapshot,
/// against brute-force answers from the generated model.
void verify_queries(const ServeConfig& c, const scd::core::Checkpoint& model,
                    ServingSnapshots& snapshots, std::uint64_t seed,
                    Outcome& out) {
  const scd::serve::QueryEngine engine(snapshots);
  const scd::serve::TrafficOptions t = traffic_options(c, seed);
  const std::uint32_t k = c.communities;
  double threshold = 0.0;
  {
    const ServingSnapshots::Ref index = snapshots.acquire();
    threshold = index->membership_threshold();
  }
  // Brute-force member lists: one scan of every row.
  std::vector<std::vector<std::uint32_t>> members_above(k);
  for (std::uint32_t w = 0; w < c.vertices; ++w) {
    for (std::uint32_t j = 0; j < k; ++j) {
      if (model.pi.pi(w, j) >= static_cast<float>(threshold)) {
        members_above[j].push_back(w);
      }
    }
  }
  for (std::uint32_t j = 0; j < k; ++j) {
    std::sort(members_above[j].begin(), members_above[j].end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return ranks_before(model.pi.pi(a, j), a, model.pi.pi(b, j),
                                    b);
              });
  }
  scd::rng::Xoshiro256 rng = scd::core::derive_rng(seed, kCheckLabel);
  std::vector<std::uint32_t> order(k);
  std::uint64_t wrong = 0;
  std::uint64_t thrown = 0;
  for (std::size_t q = 0; q < c.check_queries; ++q) {
    const auto u = static_cast<std::uint32_t>(rng.next_below(c.vertices));
    const auto v = static_cast<std::uint32_t>(rng.next_below(c.vertices));
    const auto comm = static_cast<std::uint32_t>(rng.next_below(k));
    try {
      // top-k: full sort, ties by ascending id.
      const std::span<const float> row = model.pi.row(u);
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(), [&](std::uint32_t a,
                                                std::uint32_t b) {
        return ranks_before(row[a], a, row[b], b);
      });
      const std::vector<scd::serve::TopEntry> top =
          engine.top_communities(u, t.top_k);
      bool ok = top.size() == std::min(t.top_k, k);
      for (std::size_t r = 0; ok && r < top.size(); ++r) {
        ok = top[r].community == order[r] && top[r].weight == row[order[r]];
      }
      wrong += ok ? 0 : 1;

      // link probability: the formula in double.
      const double want = link_formula(model, u, v);
      const double got = engine.link_probability(u, v);
      wrong += std::abs(got - want) <= 1e-6 * std::abs(want) ? 0 : 1;

      // members: every vertex above the index's threshold.
      const std::vector<std::uint32_t>& above = members_above[comm];
      const std::vector<scd::serve::MemberEntry> members =
          engine.community_members(comm, t.members_k);
      ok = members.size() == std::min<std::size_t>(t.members_k, above.size());
      for (std::size_t r = 0; ok && r < members.size(); ++r) {
        ok = members[r].vertex == above[r] &&
             members[r].weight == model.pi.pi(above[r], comm);
      }
      wrong += ok ? 0 : 1;
    } catch (const std::exception&) {
      ++thrown;
    }
  }
  out.attempted += 3 * c.check_queries;
  out.failed += thrown;
  out.check(wrong == 0, wrong,
            fmt("%llu of %zu sampled queries differ from brute force",
                static_cast<unsigned long long>(wrong), 3 * c.check_queries));
}

double served_perplexity(const scd::serve::QueryEngine& engine,
                         const std::vector<Pair>& pairs) {
  double log_sum = 0.0;
  for (const Pair& p : pairs) {
    log_sum +=
        std::log(std::max(engine.pair_likelihood(p.a, p.b, p.link), 1e-290));
  }
  return std::exp(-log_sum / static_cast<double>(pairs.size()));
}

/// Single-thread p50 in ns of one query kind over `samples` Zipf-skewed
/// queries (ledger only).
template <typename Query>
double kind_p50_ns(std::size_t samples, Query&& query) {
  std::vector<double> ns;
  ns.reserve(samples);
  double sink = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const Clock::time_point t0 = Clock::now();
    sink += query(i);
    ns.push_back(seconds_between(t0, Clock::now()) * 1e9);
  }
  if (sink == 42.4242) std::fputc(' ', stderr);
  return percentile(std::move(ns), 0.5);
}

}  // namespace

Outcome run_serve_refresh(const Args& args) {
  const ServeConfig c = serve_config(args.scale);
  Outcome out;
  scd::serve::ServingIndexOptions index_options;
  index_options.top_r = c.top_r;

  // Set-up: generate the model and build + publish the first index.
  std::vector<double> setups;
  std::vector<double> builds;
  std::unique_ptr<ServingSnapshots> snapshots;
  std::vector<Pair> pairs;
  for (int r = 0; r < (args.ledger ? 1 : c.setup_repeats); ++r) {
    snapshots.reset();
    const Clock::time_point t0 = Clock::now();
    Model m = make_model(c, args.seed);
    pairs = make_pairs(c, m, args.seed);
    scd::threading::ThreadPool pool(c.clients);
    const Clock::time_point b0 = Clock::now();
    snapshots = std::make_unique<ServingSnapshots>(
        scd::serve::build_serving_index(std::move(m.checkpoint),
                                        index_options, pool));
    builds.push_back(seconds_between(b0, Clock::now()));
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const scd::serve::TrafficOptions traffic = traffic_options(c, args.seed);
  const scd::serve::QueryEngine engine(*snapshots);

  std::vector<scd::serve::TrafficReport> reports;
  std::vector<double> walls;
  std::vector<double> cpus;
  const HostTicks ticks = host_ticks();
  const Clock::time_point begin = Clock::now();
  do {
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    reports.push_back(scd::serve::run_traffic(*snapshots, traffic));
    walls.push_back(seconds_between(t0, Clock::now()));
    cpus.push_back(cpu_seconds() - cpu0);
    const scd::serve::TrafficReport& r = reports.back();
    say(fmt("serve_refresh round: %llu queries in %.3f s (%.3f s with "
            "refreshes), p50 %.3f us, p95 %.3f us, p99 %.3f us, %llu "
            "refreshes, checksum %.17g",
            static_cast<unsigned long long>(r.ops), r.wall_s, walls.back(),
            r.p50_us, r.p95_us, r.p99_us,
            static_cast<unsigned long long>(r.refreshes), r.checksum));
    out.attempted += r.ops + c.refreshes;
    out.check(r.refreshes == c.refreshes &&
                  r.end_epoch - r.start_epoch == c.refreshes,
              c.refreshes, "a refresh was not published");
    out.check(r.ops_top + r.ops_link + r.ops_members == c.queries, r.ops,
              "query kinds do not add up to the issued queries");
    // fp32 refreshes rebuild a bit-identical index and every round
    // replays the same query stream, so the result digest repeats.
    out.check(r.checksum == reports.front().checksum, r.ops,
              "round checksum changed across identical rounds");
    // A timed run takes at least kMinRounds rounds, then another only
    // while one as long as the slowest so far still ends within
    // --seconds, so the run ends close to --seconds.
  } while (!args.ledger &&
           (walls.size() < kMinRounds ||
            seconds_between(begin, Clock::now()) +
                    *std::max_element(walls.begin(), walls.end()) <=
                args.seconds));
  report_steal(ticks);

  // Verification against the generated model, outside the timed rounds.
  {
    const Model reference = make_model(c, args.seed);
    verify_queries(c, reference.checkpoint, *snapshots, args.seed, out);
  }
  if (!args.ledger) {
    std::vector<double> rate;
    std::vector<double> p50;
    std::vector<double> p99;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      rate.push_back(reports[i].qps);
      p50.push_back(reports[i].p50_us);
      p99.push_back(reports[i].p99_us);
    }
    out.add("time_to_target_s", median(walls), "s");
    out.add("ops_per_s", median(rate), "1/s");
    out.add("p50_us", median(p50), "us");
    out.add("tail_us", median(p99), "us");
    out.add("cpu_s", median(cpus), "s");
    out.add("final_perplexity", served_perplexity(engine, pairs), "ppl");
    out.add("setup_s", median(setups), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    say(fmt("rounds %zu of %llu queries, tail percentile p99",
            reports.size(), static_cast<unsigned long long>(c.queries)));
    return out;
  }

  // Ledger: per-kind single-thread latency, one refresh timed by parts.
  std::vector<std::uint32_t> users(c.kind_samples);
  std::vector<std::uint32_t> others(c.kind_samples);
  std::vector<std::uint32_t> comms(c.kind_samples);
  {
    const scd::serve::ZipfSampler zipf(c.vertices, traffic.zipf_s);
    scd::rng::Xoshiro256 rng = scd::core::derive_rng(args.seed, kCheckLabel, 1);
    for (std::size_t i = 0; i < c.kind_samples; ++i) {
      users[i] = zipf(rng);
      others[i] = zipf(rng);
      comms[i] = static_cast<std::uint32_t>(rng.next_below(c.communities));
    }
  }
  std::vector<scd::serve::TopEntry> top_out(traffic.top_k);
  std::vector<scd::serve::MemberEntry> member_out(traffic.members_k);
  const double top_ns = kind_p50_ns(c.kind_samples, [&](std::size_t i) {
    return engine.top_communities(users[i], top_out);
  });
  const double link_ns = kind_p50_ns(c.kind_samples, [&](std::size_t i) {
    return engine.link_probability(users[i], others[i]);
  });
  const double members_ns = kind_p50_ns(c.kind_samples, [&](std::size_t i) {
    return engine.community_members(comms[i], member_out);
  });

  std::vector<double> to_bytes_ms;
  std::vector<double> from_bytes_ms;
  std::vector<double> rebuild_ms;
  std::vector<double> refresh_ms;
  double index_mb = 0.0;
  {
    scd::threading::ThreadPool build_pool(1);
    for (int r = 0; r < kTimedRefreshes; ++r) {
      const Clock::time_point t0 = Clock::now();
      std::string bytes;
      {
        const ServingSnapshots::Ref index = snapshots->acquire();
        bytes = scd::core::checkpoint_to_bytes(index->checkpoint());
        index_mb = static_cast<double>(index->index_bytes()) / (1 << 20);
      }
      const Clock::time_point t1 = Clock::now();
      scd::core::Checkpoint restored = scd::core::checkpoint_from_bytes(bytes);
      const Clock::time_point t2 = Clock::now();
      auto next = scd::serve::build_serving_index(std::move(restored),
                                                  index_options, build_pool);
      const Clock::time_point t3 = Clock::now();
      snapshots->publish(std::move(next));
      const Clock::time_point t4 = Clock::now();
      to_bytes_ms.push_back(seconds_between(t0, t1) * 1e3);
      from_bytes_ms.push_back(seconds_between(t1, t2) * 1e3);
      rebuild_ms.push_back(seconds_between(t2, t3) * 1e3);
      refresh_ms.push_back(seconds_between(t0, t4) * 1e3);
    }
  }
  const scd::serve::TrafficReport& r = reports.front();
  out.add("serve.top_ns", top_ns, "ns");
  out.add("serve.link_ns", link_ns, "ns");
  out.add("serve.members_ns", members_ns, "ns");
  out.add("serve.refresh_ms", median(refresh_ms), "ms");
  out.add("serve.rebuild_ms", median(rebuild_ms), "ms");
  out.add("core.checkpoint_to_bytes_ms", median(to_bytes_ms), "ms");
  out.add("core.checkpoint_from_bytes_ms", median(from_bytes_ms), "ms");
  out.add("serve.build_ms", median(builds) * 1e3, "ms");
  out.add("serve.index_mb", index_mb, "MB");
  out.add("threading.acquire_retries", static_cast<double>(r.acquire_retries),
          "count");
  out.add("threading.reader_stalls", static_cast<double>(r.reader_stalls),
          "count");

  // A query's mean cost under load against the mix-weighted single-thread
  // kind latencies; the refreshes against the round they run in.
  const double mix_ns = traffic.mix_top * top_ns +
                        traffic.mix_link * link_ns +
                        traffic.mix_members * members_ns;
  print_reconciliation(
      "serve_refresh",
      {{"query_vs_kinds", "mean_query", "mix_weighted_kind_ns", mix_ns,
        "loaded_query_ns",
        r.wall_s * traffic.threads / static_cast<double>(r.ops) * 1e9},
       {"refresh_vs_round", "refreshes", "refreshes_x_refresh_s",
        c.refreshes * median(refresh_ms) * 1e-3, "round_s", walls.front()},
       {"refresh_vs_round", "queries", "query_span_s", r.wall_s, "round_s",
        walls.front()}});
  return out;
}

}  // namespace perfbench
