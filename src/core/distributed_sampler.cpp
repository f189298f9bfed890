#include "core/distributed_sampler.h"

#include "core/phi_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "core/checkpoint.h"
#include "core/deploy_share.h"
#include "core/distributed_workspace.h"
#include "fault/fault_injector.h"
#include "sim/pipeline_cost.h"
#include "threading/thread_pool.h"
#include "util/bytes.h"
#include "util/error.h"

namespace scd::core {

namespace {

constexpr int kTagDeploy = 1;
constexpr unsigned kChannelGlobal = 0;   // master + all workers
constexpr unsigned kChannelWorkers = 1;  // workers only (DKV consistency)

// Heartbeat-round tags: with a fault plan the collectives become
// master-coordinated point-to-point rounds (collectives require static
// membership; these survive a shrinking live set). kTagRatios/kTagEval
// also name the reduction in the master loop's sync.reduce() calls.
constexpr int kTagCtrl = 2;       // master -> worker FtCtrl records
constexpr int kTagHeartbeat = 3;  // worker -> master stage-done beacons
constexpr int kTagRatios = 4;     // worker -> master 2K ratio partials
constexpr int kTagBeta = 5;       // master -> worker fresh beta
constexpr int kTagEval = 6;       // worker -> master perplexity partials

enum FtOp : std::uint32_t {
  kFtDeploy = 1,  // new iteration: share follows (and beta, when flagged)
  kFtPiGo,        // all live workers finished update_phi — write pi
  kFtBetaGo,      // all live workers finished update_pi — compute ratios
  kFtBeta,        // theta stepped; beta payload follows
  kFtRestart,     // membership changed — discard stage, await new deploy
  kFtStop,        // run complete
};

/// One master->worker control record. live_count/member_index tell the
/// worker which slice of the minibatch and held-out set is now its own —
/// reassignment after a death is just these two fields changing.
struct FtCtrl {
  std::uint64_t iteration = 0;
  std::uint32_t op = 0;
  std::uint32_t live_count = 0;
  std::uint32_t member_index = 0;
  std::uint32_t eval = 0;           // this iteration ends with an eval round
  std::uint32_t beta_follows = 0;   // a kTagBeta payload precedes the share
};
static_assert(std::is_trivially_copyable_v<FtCtrl>);

/// One worker iteration as assigned by the master: the minibatch and
/// held-out slices are `member` of `members` equal chunks.
struct Round {
  std::uint64_t t = 0;
  unsigned member = 0;
  unsigned members = 0;
  bool eval = false;
};

using threading::ThreadPool;

/// Expected number of distinct rows in `refs` (approximately) uniform
/// row references over a population of `rows` — what the cost-only mode
/// charges for a deduplicated read stage so it stays in lockstep with
/// the real mode's KeyIndex.
std::uint64_t expected_distinct_rows(double refs, double rows) {
  if (refs <= 0.0 || rows <= 1.0) return 0;
  const double distinct = rows * -std::expm1(refs * std::log1p(-1.0 / rows));
  return static_cast<std::uint64_t>(std::llround(std::max(1.0, distinct)));
}

/// Per-vertex cost of the master's minibatch draw: the alias-anchor path
/// (graph/minibatch.h) trades the Lemire rejection loop for a table
/// lookup, which the compute model prices separately.
double draw_cost_per_vertex(const comm::Context& ctx,
                            const DistributedOptions& options) {
  return options.base.minibatch.alias_anchor
             ? ctx.compute().draw_cost_per_vertex_alias_s
             : ctx.compute().draw_cost_per_vertex_s;
}

}  // namespace

DistributedSampler::DistributedSampler(comm::Cluster& cluster,
                                       const graph::Graph& training,
                                       const graph::HeldOutSplit* heldout,
                                       const Hyper& hyper,
                                       const DistributedOptions& options)
    : cluster_(cluster),
      graph_(&training),
      heldout_(heldout),
      hyper_(hyper),
      options_(options),
      num_workers_(cluster.num_ranks() - 1),
      num_vertices_(training.num_vertices()),
      heldout_size_(heldout != nullptr ? heldout->pairs().size() : 0),
      global_(hyper.num_communities) {
  SCD_REQUIRE(cluster.num_ranks() >= 2,
              "distributed sampler needs a master and >= 1 worker");
  hyper_.validate();
  options_.base.validate();
  SCD_REQUIRE(options_.chunk_vertices >= 1, "chunk_vertices must be >= 1");

  store_ = cluster.make_store(
      {.num_rows = num_vertices_,
       .row_width = pi_row_width(hyper_.num_communities),
       .phantom = false,
       .codec = options_.pi_codec,
       .sparse_eps = options_.sparse_eps,
       .sparse_modeled_nnz = 0});
  if (options_.resume_from != nullptr) {
    // Resuming lossy state under a different codec would silently change
    // what the DKV round-trips — refuse, naming both codecs.
    const Checkpoint& cp = *options_.resume_from;
    SCD_REQUIRE(
        cp.pi_codec == options_.pi_codec,
        std::string("checkpoint pi codec '") + quant::codec_name(cp.pi_codec) +
            "' does not match the run's pi codec '" +
            quant::codec_name(options_.pi_codec) +
            "'; re-encode the checkpoint or match DistributedOptions::"
            "pi_codec to resume");
    SCD_REQUIRE(cp.pi.num_vertices() == num_vertices_ &&
                    cp.hyper.num_communities == hyper_.num_communities,
                "checkpoint shape does not match the run");
    for (std::uint64_t v = 0; v < num_vertices_; ++v) {
      store_->init_row(v, cp.pi.row(static_cast<std::uint32_t>(v)));
    }
    global_ = cp.global;
  } else {
    // Deterministic expanded-mean initialisation, identical to the
    // in-process samplers (setup is untimed, as in the paper).
    std::vector<float> row(store_->row_width());
    for (std::uint64_t v = 0; v < num_vertices_; ++v) {
      init_pi_row(options_.base.seed, v, options_.base.init_shape, row);
      store_->init_row(v, row);
    }
    global_.init_random(options_.base.seed, hyper_);
  }
  minibatch_.emplace(training, heldout, options_.base.minibatch);
}

DistributedSampler::DistributedSampler(comm::Cluster& cluster,
                                       const PhantomWorkload& workload,
                                       const Hyper& hyper,
                                       const DistributedOptions& options)
    : cluster_(cluster),
      phantom_(workload),
      hyper_(hyper),
      options_(options),
      num_workers_(cluster.num_ranks() - 1),
      num_vertices_(workload.num_vertices),
      heldout_size_(workload.heldout_pairs),
      global_(hyper.num_communities) {
  SCD_REQUIRE(cluster.num_ranks() >= 2,
              "distributed sampler needs a master and >= 1 worker");
  SCD_REQUIRE(workload.num_vertices >= 2 &&
                  workload.minibatch_vertices >= 1,
              "phantom workload underspecified");
  hyper_.validate();
  options_.base.validate();
  SCD_REQUIRE(cluster.simulated(),
              "cost-only mode needs the simulated backend");
  store_ = cluster.make_store(
      {.num_rows = num_vertices_,
       .row_width = pi_row_width(hyper_.num_communities),
       .phantom = true,
       .codec = options_.pi_codec,
       .sparse_eps = options_.sparse_eps,
       .sparse_modeled_nnz = options_.sparse_modeled_nnz});
}

// ---------------------------------------------------------------------
// Synchronisation policies
//
// master_loop and worker_loop are written once; the few points where the
// ranks synchronise go through one of two policies, picked per run:
//
//  * Collectives (no fault plan): static membership. Setup beta, the
//    ratio reduce + beta broadcast and the eval reduce are collectives on
//    the global channel, the phi->pi and pi->beta barriers run on the
//    workers' channel, and the master deploys one iteration ahead. Every
//    call forwards straight to the transport: no fault branches, no
//    allocation.
//  * Heartbeats (fault plan set): collectives assume static membership,
//    so the master drives every stage with FtCtrl records, workers answer
//    with per-stage heartbeats, and a missing heartbeat
//    (recv_bytes_or_dead) is the failure detector. Virtual-time parity
//    with the collectives is kept by charging the collective skew once
//    per replaced collective (4 per iteration + 1 per eval). Recovery:
//    the interrupted iteration is redone over the survivors (pi writes
//    that landed before the crash are kept — SG-MCMC tolerates the
//    perturbation), the dead rank's DKV shard is re-homed to the lowest
//    surviving worker, and its minibatch/held-out slices are re-sliced by
//    (member, members). With rollback_interval > 0 the master instead
//    restores the last in-memory core/checkpoint snapshot. Workers
//    fail-stop only at fixed protocol points when their virtual clock
//    passes the plan's crash time, after completing all earlier sends —
//    which makes detection, and therefore the whole faulted trajectory,
//    deterministic.
//
// A worker-side call returns false when the iteration must be abandoned:
// a restart order (await the next deploy) or this rank's own fail-stop
// (after which next() ends the loop). Master-side calls return false
// when a worker died; recover() then names the iteration to run next.
// ---------------------------------------------------------------------

class DistributedSampler::Collectives {
 public:
  static constexpr bool kDeployAhead = true;

  Collectives(DistributedSampler& s, comm::Context& ctx,
              std::uint64_t iterations)
      : s_(s), ctx_(ctx), net_(ctx.transport()), iterations_(iterations) {}

  void setup_beta(std::span<float> beta) {
    const auto sp = ctx_.trace_span(trace::Stage::kSetup);
    net_.broadcast(ctx_.rank(), 0, beta, kChannelGlobal);
  }

  // ---- master ----
  unsigned members() const { return s_.num_workers_; }
  unsigned rank_of(unsigned member) const { return member + 1; }
  void announce(std::uint64_t, unsigned) {}
  void deployed() {}
  bool stage_barriers(std::uint64_t) { return true; }
  bool reduce(std::uint64_t t, int, std::vector<double>& values) {
    const auto sp = ctx_.trace_span(comm::Phase::kBarrierWait, t);
    const double before = ctx_.now();
    net_.reduce_sum(0, 0, values, kChannelGlobal);
    ctx_.measured(comm::Phase::kBarrierWait, before);
    return true;
  }
  void ship_beta(std::uint64_t, std::span<float> beta) {
    const double before = ctx_.now();
    net_.broadcast(0, 0, beta, kChannelGlobal);
    ctx_.measured(comm::Phase::kUpdateBetaTheta, before);
  }
  // Collectives never report a death, so this is never called.
  std::uint64_t recover(bool, std::uint64_t t) { return t; }
  void iteration_done(std::uint64_t) {}
  void finish() {}

  // ---- worker ----
  bool next(Round& r, WorkerWorkspace&) {
    if (t_ == iterations_) return false;
    r = {t_, ctx_.rank() - 1, s_.num_workers_, s_.eval_due(t_)};
    ++t_;
    return true;
  }
  double compute_factor() const { return 1.0; }
  bool stage_done(std::uint64_t t, fault::CrashPoint) {
    const auto sp = ctx_.trace_span(comm::Phase::kBarrierWait, t);
    ctx_.timed_barrier(kChannelWorkers, s_.num_workers_);
    return true;
  }
  template <class Body>
  bool ratio_round(std::uint64_t t, WorkerWorkspace& ws, Body&& body) {
    const auto sp = ctx_.trace_span(comm::Phase::kUpdateBetaTheta, t);
    body();
    const double before = ctx_.now();
    net_.reduce_sum(ctx_.rank(), 0, ws.ratios, kChannelGlobal);
    net_.broadcast(ctx_.rank(), 0, std::span<float>(ws.beta),
                   kChannelGlobal);
    ctx_.measured(comm::Phase::kUpdateBetaTheta, before);
    ws.terms.refresh(ws.beta, s_.hyper_.delta);
    return true;
  }
  void eval_round(std::uint64_t, WorkerWorkspace& ws) {
    net_.reduce_sum(ctx_.rank(), 0, ws.eval_acc, kChannelGlobal);
  }

 private:
  DistributedSampler& s_;
  comm::Context& ctx_;
  comm::Transport& net_;
  std::uint64_t iterations_;
  std::uint64_t t_ = 0;  // worker: next iteration
};

class DistributedSampler::Heartbeats {
 public:
  static constexpr bool kDeployAhead = false;

  Heartbeats(DistributedSampler& s, comm::Context& ctx,
             std::uint64_t iterations)
      : s_(s),
        ctx_(ctx),
        net_(ctx.transport()),
        iterations_(iterations),
        skew_(ctx.network().collective_skew_s) {
    for (unsigned wi = 0; wi < s.num_workers_; ++wi) live_.push_back(wi + 1);
  }

  void setup_beta(std::span<float> beta) {
    beta_ = beta;
    {
      const auto sp = ctx_.trace_span(trace::Stage::kSetup);
      if (!ctx_.is_master()) {
        recv_beta();
        return;
      }
      for (unsigned rank : live_) send_beta(rank);
    }
    if (s_.options_.rollback_interval > 0) take_snapshot(0);
  }

  // ---- master ----
  unsigned members() const { return static_cast<unsigned>(live_.size()); }
  unsigned rank_of(unsigned member) const { return live_[member]; }
  void announce(std::uint64_t t, unsigned member) {
    send_ctrl(live_[member],
              {t, kFtDeploy, members(), member, s_.eval_due(t) ? 1u : 0u,
               beta_follows_ ? 1u : 0u});
    if (beta_follows_) send_beta(live_[member]);
  }
  void deployed() { beta_follows_ = false; }
  bool stage_barriers(std::uint64_t t) {
    return heartbeat_round(t, kFtPiGo) && heartbeat_round(t, kFtBetaGo);
  }
  void ship_beta(std::uint64_t t, std::span<float>) {
    for (unsigned rank : live_) {
      send_ctrl(rank, {t, kFtBeta, members(), 0, 0, 0});
      send_beta(rank);
    }
    ctx_.charge(comm::Phase::kUpdateBetaTheta, skew_);
  }
  /// Sum the workers' double partials into `acc` in rank order. A death
  /// skips the skew charge except at the eval round, whose partial sum
  /// over the survivors is still recorded.
  bool reduce(std::uint64_t t, int tag, std::vector<double>& acc) {
    const auto sp = ctx_.trace_span(comm::Phase::kBarrierWait, t);
    const bool alive = gather(tag, [&acc](const auto& payload) {
      SCD_ASSERT(payload.size() == acc.size() * sizeof(double),
                 "malformed partial");
      for (std::size_t i = 0; i < acc.size(); ++i) {
        double part;
        std::memcpy(&part, payload.data() + i * sizeof(double),
                    sizeof(part));
        acc[i] += part;
      }
    });
    if (alive || tag == kTagEval) {
      ctx_.charge(comm::Phase::kBarrierWait, skew_);
    }
    return alive;
  }

  /// A worker death was detected at iteration `t`: charge the heartbeat
  /// timeout, shrink membership, re-home the dead shards, optionally roll
  /// back, and tell the survivors to restart. `lost` = the iteration was
  /// still in flight (vs. fully applied, eval round aside).
  std::uint64_t recover(bool lost, std::uint64_t t) {
    const auto sp = ctx_.trace_span(trace::Stage::kRecovery, t);
    const double start = ctx_.now();  // wall clocks advance between reads
    double detect = start;
    for (unsigned rank : dead_now_) {
      // Iteration-triggered crashes have no crash *time* (+inf): the
      // detection instant is then just the gather's own now().
      const double ct = s_.injector_->crash_time(rank);
      if (std::isfinite(ct)) {
        detect = std::max(detect, ct + s_.injector_->heartbeat_timeout_s());
      }
    }
    ctx_.book(comm::Phase::kBarrierWait, detect - start);
    ctx_.advance_to(detect);
    for (unsigned rank : dead_now_) {
      s_.crashed_ranks_.push_back(rank);
      live_.erase(std::find(live_.begin(), live_.end(), rank));
    }
    SCD_REQUIRE(!live_.empty(), "all workers failed; run cannot continue");
    for (unsigned rank : dead_now_) {
      ctx_.charge(comm::Phase::kBarrierWait, s_.store_->rehome_cost(rank - 1));
      s_.store_->rehome_shard(rank - 1, live_.front() - 1);
    }
    std::uint64_t next = lost ? t : t + 1;
    if (s_.options_.rollback_interval > 0) {
      const Checkpoint cp = checkpoint_from_bytes(snap_bytes_);
      for (std::uint64_t v = 0; v < s_.num_vertices_; ++v) {
        s_.store_->init_row(v, cp.pi.row(static_cast<std::uint32_t>(v)));
      }
      s_.global_ = cp.global;
      std::copy(s_.global_.beta_all().begin(), s_.global_.beta_all().end(),
                beta_.begin());
      ctx_.charge(comm::Phase::kBarrierWait, snap_wire_s());
      beta_follows_ = true;
      next = cp.iteration;
    }
    s_.redone_iterations_ += (t + 1) - next;
    if (trace::TraceRecorder* rec = ctx_.trace()) {
      rec->metrics().count(trace::Metric::kRecoveries, ctx_.rank(),
                           dead_now_.size());
      rec->metrics().count(trace::Metric::kRedoneIterations, ctx_.rank(),
                           (t + 1) - next);
    }
    for (unsigned li = 0; li < members(); ++li) {
      send_ctrl(live_[li], {next, kFtRestart, members(), li, 0, 0});
    }
    return next;
  }
  void iteration_done(std::uint64_t next) {
    const std::uint64_t every = s_.options_.rollback_interval;
    if (every > 0 && next < iterations_ && next % every == 0) {
      take_snapshot(next);
    }
  }
  void finish() {
    const auto sp = ctx_.trace_span(comm::Phase::kBarrierWait, iterations_);
    for (unsigned rank : live_) {
      send_ctrl(rank, {iterations_, kFtStop, 0, 0, 0, 0});
    }
  }

  // ---- worker ----
  bool next(Round& r, WorkerWorkspace& ws) {
    while (!dead_) {
      const FtCtrl c = recv_ctrl(comm::Phase::kDeployMinibatch);
      if (c.op == kFtStop) return false;
      if (c.op == kFtRestart) continue;  // stale membership; await deploy
      SCD_ASSERT(c.op == kFtDeploy, "unexpected ctrl op at deploy point");
      if (c.beta_follows != 0) {
        // Re-shipped beta after a rollback — part of the recovery.
        const auto sp = ctx_.trace_span(trace::Stage::kRecovery, c.iteration);
        recv_beta();
        ws.terms.refresh(ws.beta, s_.hyper_.delta);
      }
      r = {c.iteration, c.member_index, c.live_count, c.eval != 0};
      return true;
    }
    return false;
  }
  /// The pipeline total bypasses charge(), so the straggler slowdown is
  /// applied by the caller.
  double compute_factor() const {
    return s_.injector_->compute_factor(ctx_.rank(), ctx_.now());
  }
  bool stage_done(std::uint64_t t, fault::CrashPoint point) {
    if (fail_stop(t, point)) return false;
    send_beat(t);
    const FtCtrl go = recv_ctrl(comm::Phase::kBarrierWait);
    if (go.op == kFtRestart) return false;
    SCD_ASSERT(go.op == (point == fault::CrashPoint::kAfterPhi ? kFtPiGo
                                                               : kFtBetaGo) &&
                   go.iteration == t,
               "unexpected ctrl op at a stage barrier");
    return true;
  }
  template <class Body>
  bool ratio_round(std::uint64_t t, WorkerWorkspace& ws, Body&& body) {
    {
      const auto sp = ctx_.trace_span(comm::Phase::kUpdateBetaTheta, t);
      body();
    }
    if (fail_stop(t, fault::CrashPoint::kBeforeRatios)) return false;
    {
      const auto sp = ctx_.trace_span(comm::Phase::kUpdateBetaTheta, t);
      net_.send<double>(ctx_.rank(), 0, kTagRatios,
                        std::span<const double>(ws.ratios));
    }
    const FtCtrl go = recv_ctrl(comm::Phase::kUpdateBetaTheta);
    if (go.op == kFtRestart) return false;
    SCD_ASSERT(go.op == kFtBeta && go.iteration == t,
               "unexpected ctrl op at beta receive point");
    const auto sp = ctx_.trace_span(comm::Phase::kUpdateBetaTheta, t);
    recv_beta();
    ws.terms.refresh(ws.beta, s_.hyper_.delta);
    return true;
  }
  void eval_round(std::uint64_t t, WorkerWorkspace& ws) {
    if (fail_stop(t, fault::CrashPoint::kBeforeEval)) return;
    net_.send<double>(ctx_.rank(), 0, kTagEval,
                      std::span<const double>(ws.eval_acc));
  }

 private:
  void send_beta(unsigned rank) {
    net_.send<float>(0, rank, kTagBeta, std::span<const float>(beta_));
  }
  void recv_beta() {
    const std::vector<float> fresh =
        net_.recv<float>(ctx_.rank(), 0, kTagBeta);
    SCD_ASSERT(fresh.size() == beta_.size(), "malformed beta payload");
    std::copy(fresh.begin(), fresh.end(), beta_.begin());
  }
  void send_ctrl(unsigned rank, const FtCtrl& c) {
    net_.send<FtCtrl>(0, rank, kTagCtrl, std::span<const FtCtrl>(&c, 1));
  }
  FtCtrl recv_ctrl(comm::Phase p) {
    const auto sp = ctx_.trace_span(p);
    const double before = ctx_.now();
    const std::vector<FtCtrl> msg =
        net_.recv<FtCtrl>(ctx_.rank(), 0, kTagCtrl);
    SCD_ASSERT(msg.size() == 1, "malformed ctrl record");
    ctx_.measured(p, before);
    return msg[0];
  }
  void send_beat(std::uint64_t t) {
    const auto sp = ctx_.trace_span(comm::Phase::kBarrierWait, t);
    net_.send<std::uint64_t>(ctx_.rank(), 0, kTagHeartbeat,
                             std::span<const std::uint64_t>(&t, 1));
  }
  /// Fail-stop point: past the plan's crash time — or exactly at a
  /// plan-scheduled (iteration, point) trigger — this rank dies here,
  /// after completing every earlier send, before the upcoming one, which
  /// is what makes the master's detection order deterministic.
  bool fail_stop(std::uint64_t t, fault::CrashPoint point) {
    if (!s_.injector_->crashed(ctx_.rank(), ctx_.now(), t, point)) {
      return false;
    }
    net_.mark_rank_dead(ctx_.rank());
    dead_ = true;
    return true;
  }

  /// Rank-ordered gather from every live worker; consume(payload) runs
  /// per arrival, so reductions fold in rank order (deterministic).
  /// Returns false when at least one worker turned out dead instead.
  template <class Consume>
  bool gather(int tag, Consume&& consume) {
    dead_now_.clear();
    const double before = ctx_.now();
    for (unsigned rank : live_) {
      auto payload = net_.recv_bytes_or_dead(0, rank, tag);
      if (!payload.has_value()) {
        dead_now_.push_back(rank);
        continue;
      }
      consume(*payload);
      net_.recycle_buffer(std::move(*payload));
    }
    ctx_.measured(comm::Phase::kBarrierWait, before);
    return dead_now_.empty();
  }
  /// Heartbeats in, then `go` out to every live worker.
  bool heartbeat_round(std::uint64_t t, FtOp go) {
    const auto sp = ctx_.trace_span(comm::Phase::kBarrierWait, t);
    const bool alive = gather(kTagHeartbeat, [t](const auto& payload) {
      SCD_ASSERT(payload.size() == sizeof(std::uint64_t),
                 "malformed heartbeat");
      std::uint64_t beat;
      std::memcpy(&beat, payload.data(), sizeof(beat));
      SCD_ASSERT(beat == t, "heartbeat from a stale iteration");
    });
    if (!alive) return false;
    ctx_.charge(comm::Phase::kBarrierWait, skew_);
    for (unsigned rank : live_) send_ctrl(rank, {t, go, members(), 0, 0, 0});
    return true;
  }

  /// Rollback snapshot: a full checkpoint serialized to memory. Taking
  /// one costs the master a wire-read of every pi row (workers are
  /// quiescent — blocked on the next deploy — whenever this runs),
  /// evaluated per snapshot since sparse rows' average wire bytes drift
  /// as the model concentrates. Snapshots store pi in the run's wire
  /// codec, so a rollback restore re-encodes through the same codec —
  /// consistent, and exact under fp32.
  double snap_wire_s() const {
    return ctx_.network().transfer_time(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(s_.num_vertices_) *
                     s_.store_->avg_row_wire_bytes())));
  }
  void take_snapshot(std::uint64_t t) {
    const auto sp = ctx_.trace_span(comm::Phase::kBarrierWait, t);
    Checkpoint cp;
    cp.iteration = t;
    cp.hyper = s_.hyper_;
    cp.pi = s_.snapshot_pi();
    cp.global = s_.global_;
    snap_bytes_ = checkpoint_to_bytes(cp, s_.options_.pi_codec,
                                      s_.options_.sparse_eps);
    ctx_.charge(comm::Phase::kBarrierWait, snap_wire_s());
  }

  DistributedSampler& s_;
  comm::Context& ctx_;
  comm::Transport& net_;
  std::uint64_t iterations_;
  double skew_;
  std::span<float> beta_;
  std::vector<unsigned> live_;      // master: live worker ranks, ascending
  std::vector<unsigned> dead_now_;  // master: deaths seen by the last gather
  std::string snap_bytes_;          // master: latest rollback snapshot
  bool beta_follows_ = false;       // master: next deploy re-ships beta
  bool dead_ = false;               // worker: this rank fail-stopped
};

// ---------------------------------------------------------------------
// Master
// ---------------------------------------------------------------------

template <class Sync>
void DistributedSampler::master_loop(comm::Context& ctx,
                                     std::uint64_t iterations) {
  const std::uint32_t k = hyper_.num_communities;
  comm::Transport& net = ctx.transport();
  Sync sync(*this, ctx, iterations);

  MasterWorkspace ws(k, num_workers_);
  if (real()) ws.reserve_real(*graph_, *minibatch_);
  // Initial beta so workers can form likelihood terms.
  std::copy(global_.beta_all().begin(), global_.beta_all().end(),
            ws.beta.begin());
  sync.setup_beta(ws.beta);

  // Draw + scatter one minibatch over the current members; returns its
  // h(E_n) scale.
  auto deploy = [&](std::uint64_t t) -> double {
    const unsigned lw = sync.members();
    {
      const auto sp = ctx.trace_span(comm::Phase::kDrawMinibatch, t);
      if (real()) {
        rng::Xoshiro256 mb_rng =
            derive_rng(options_.base.seed, rng_label::kMinibatch, t);
        minibatch_->draw_into(mb_rng, ws.mb, ws.mb_scratch);
      }
      ctx.charge(comm::Phase::kDrawMinibatch,
                 draw_cost_per_vertex(ctx, options_) *
                     static_cast<double>(real()
                                             ? ws.mb.vertices.size()
                                             : phantom_.minibatch_vertices));
    }
    const graph::Minibatch& mb = ws.mb;
    const auto sp = ctx.trace_span(comm::Phase::kDeployMinibatch, t);
    for (unsigned li = 0; li < lw; ++li) {
      if (!real()) {
        // Cost-only: a phantom share of the right size.
        const auto [vlo, vhi] =
            ThreadPool::chunk_bounds(0, phantom_.minibatch_vertices, li, lw);
        const auto [plo, phi] =
            ThreadPool::chunk_bounds(0, phantom_.minibatch_pairs, li, lw);
        const std::uint64_t vertices = vhi - vlo;
        const auto adjacency = static_cast<std::uint64_t>(
            static_cast<double>(vertices) * phantom_.avg_degree);
        net.send_phantom(0, sync.rank_of(li), kTagDeploy,
                         phantom_share_bytes(vertices, adjacency, phi - plo));
        continue;
      }
      sync.announce(t, li);
      DeployShare& share = ws.shares[li];
      share.clear();
      share.iteration = t;
      const auto [vlo, vhi] =
          ThreadPool::chunk_bounds(0, mb.vertices.size(), li, lw);
      for (std::uint64_t i = vlo; i < vhi; ++i) {
        const graph::Vertex a = mb.vertices[i];
        share.vertices.push_back(a);
        const auto adj = graph_->neighbors(a);
        share.degrees.push_back(static_cast<std::uint32_t>(adj.size()));
        share.adjacency.insert(share.adjacency.end(), adj.begin(), adj.end());
      }
      const auto [plo, phi] =
          ThreadPool::chunk_bounds(0, mb.pairs.size(), li, lw);
      for (std::uint64_t i = plo; i < phi; ++i) {
        share.pair_a.push_back(mb.pairs[i].a);
        share.pair_b.push_back(mb.pairs[i].b);
        share.pair_y.push_back(mb.pairs[i].link ? 1 : 0);
      }
      // Serialize into a pooled payload buffer; the receiving worker
      // recycles it after deserializing.
      std::vector<std::byte> payload = net.acquire_buffer();
      ByteWriter writer(payload);
      serialize_share(share, writer);
      net.send_bytes(0, sync.rank_of(li), kTagDeploy, std::move(payload));
    }
    sync.deployed();
    return real() ? mb.scale : 1.0;
  };

  // Collective rounds deploy one iteration ahead — pipelined, iteration
  // t+1 is drawn while the workers run update_phi of t. Heartbeat rounds
  // deploy each iteration at its top, once membership is settled.
  double scale = Sync::kDeployAhead ? deploy(0) : 0.0;
  double scale_next = 0.0;
  std::uint64_t t = 0;
  while (t < iterations) {
    if (options_.master_iteration_hook) options_.master_iteration_hook(t);
    if (!Sync::kDeployAhead) {
      scale = deploy(t);
    } else if (options_.pipeline && t + 1 < iterations) {
      scale_next = deploy(t + 1);
    }

    // update_beta/theta: collect the workers' ratio partials.
    ws.ratios.assign(std::size_t{k} * 2, 0.0);
    if (!sync.stage_barriers(t) || !sync.reduce(t, kTagRatios, ws.ratios)) {
      t = sync.recover(/*lost=*/true, t);
      continue;
    }
    {
      const auto sp = ctx.trace_span(comm::Phase::kUpdateBetaTheta, t);
      if (real()) {
        ws.grad.assign(std::size_t{k} * 2, 0.0);
        theta_grad_from_ratios(
            std::span<const double>(ws.ratios.data(), k),
            std::span<const double>(ws.ratios.data() + k, k),
            global_.theta_flat(), ws.grad);
        for (double& g : ws.grad) g *= scale;
        update_theta(options_.base.seed, t, global_, ws.grad,
                     options_.base.step.eps(t), hyper_.eta0, hyper_.eta1,
                     options_.base.noise_factor,
                     options_.base.gradient_form);
        std::copy(global_.beta_all().begin(), global_.beta_all().end(),
                  ws.beta.begin());
      } else {
        ws.beta.assign(k, 0.5f);
      }
      ctx.charge_serial(comm::Phase::kUpdateBetaTheta,
                        static_cast<double>(k) * 2.0,
                        ctx.compute().theta_unit_cycles);
      sync.ship_beta(t, ws.beta);
    }

    // Non-pipelined: the next draw serializes after this iteration.
    if (Sync::kDeployAhead && !options_.pipeline && t + 1 < iterations) {
      scale_next = deploy(t + 1);
    }

    if (eval_due(t)) {
      ws.eval_acc.assign(2, 0.0);  // [sum log avg, pair count]
      const bool alive = sync.reduce(t, kTagEval, ws.eval_acc);
      if (ws.eval_acc[1] > 0.0) {
        const double perp = PerplexityEvaluator::perplexity(
            ws.eval_acc[0], static_cast<std::uint64_t>(ws.eval_acc[1]));
        history_.push_back({t + 1, ctx.now(), perp});
      }
      if (!alive) {
        // Theta/beta/pi for t are fully applied — nothing to redo.
        t = sync.recover(/*lost=*/false, t);
        continue;
      }
    }

    scale = scale_next;
    sync.iteration_done(++t);
  }
  sync.finish();
}

// ---------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------

template <class Sync>
void DistributedSampler::worker_loop(comm::Context& ctx,
                                     std::uint64_t iterations) {
  const std::uint32_t k = hyper_.num_communities;
  const std::uint32_t width = pi_row_width(k);
  const unsigned w = num_workers_;
  const unsigned wi = ctx.rank() - 1;  // worker index == DKV shard
  const std::uint32_t n_nbr = options_.base.num_neighbors;
  const bool dedup = options_.dedup_reads;
  const quant::RowCodec codec = store_->codec();
  const bool sparse = quant::is_sparse(codec);
  const std::size_t vbytes = store_->value_bytes();
  comm::Transport& net = ctx.transport();
  Sync sync(*this, ctx, iterations);

  WorkerWorkspace ws(k);
  // Largest neighbor set a vertex can draw (link-aware adds its links).
  const std::size_t set_bound =
      n_nbr + (real() ? graph_->max_degree() : 0);
  if (real()) {
    // Sized for the static-membership slices; after a heartbeat-round
    // death a survivor's slices grow and the buffers grow with them
    // (fault-tolerant runs do not promise an allocation-free steady
    // state).
    const std::size_t share_vertices =
        minibatch_->max_vertices_bound() / w + 1;
    const std::size_t share_adjacency = std::min<std::size_t>(
        share_vertices * graph_->max_degree(), 2 * graph_->num_edges());
    const std::size_t share_pairs = minibatch_->max_pairs_bound() / w + 1;
    const auto [eh_lo, eh_hi] =
        ThreadPool::chunk_bounds(0, heldout_size_, wi, w);
    const std::size_t stage_refs_bound = std::max<std::size_t>(
        {std::size_t{options_.chunk_vertices} * (1 + set_bound),
         2 * share_pairs, 2 * (eh_hi - eh_lo)});
    ws.reserve_real(share_vertices, share_adjacency, share_pairs, width,
                    vbytes, set_bound, stage_refs_bound, n_nbr);
  }

  // Deduplicated stage read: fetch each distinct row of ws.keys once
  // (pi is read-only between the stage barriers, so one copy serves
  // every reference); row_of maps a reference index back to its row.
  // Rows stay in the wire codec — the enc kernels dequantize
  // in-register, so nothing is decoded into a float staging area here.
  auto load_stage_rows = [&]() -> double {
    if (dedup) {
      ws.key_index.build(ws.keys);
      const auto unique = ws.key_index.unique_keys();
      ws.rows_enc.resize(unique.size() * vbytes);
      return store_->get_rows_encoded(wi, unique, ws.rows_enc);
    }
    ws.rows_enc.resize(ws.keys.size() * vbytes);
    return store_->get_rows_encoded(wi, ws.keys, ws.rows_enc);
  };
  auto row_of = [&](std::size_t ref) -> std::span<const std::byte> {
    const std::size_t slot = dedup ? ws.key_index.remap()[ref] : ref;
    return {ws.rows_enc.data() + slot * vbytes, vbytes};
  };
  // Modeled worker-side row cache (cost-only): remote rows are served at
  // the steady-state LRU hit rate — capacity over the remote row
  // population this worker can request (every row not on its own shard).
  // Uniform references make that the stationary occupancy of any
  // capacity-bounded cache, so no replacement policy needs simulating.
  const double cache_population =
      static_cast<double>(num_vertices_) -
      static_cast<double>(num_vertices_) / static_cast<double>(w);
  const double cache_hit_rate =
      options_.dkv_cache_rows == 0 || cache_population <= 0.0
          ? 0.0
          : std::min(1.0, static_cast<double>(options_.dkv_cache_rows) /
                              cache_population);
  // Cost-only twin of load_stage_rows for `refs` uniform references.
  auto phantom_read_cost = [&](double refs) -> double {
    const std::uint64_t rows =
        dedup ? expected_distinct_rows(refs, static_cast<double>(
                                                 num_vertices_))
              : static_cast<std::uint64_t>(std::llround(refs));
    const std::uint64_t local = rows / w;
    const std::uint64_t remote = rows - local;
    if (cache_hit_rate == 0.0) return store_->read_cost(wi, local, remote);
    const auto hits = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(remote) * cache_hit_rate));
    const std::uint64_t misses = remote - hits;
    if (trace::TraceRecorder* rec = ctx.trace()) {
      rec->metrics().count(trace::Metric::kDkvHits, ctx.rank(), hits);
      rec->metrics().count(trace::Metric::kDkvMisses, ctx.rank(), misses);
    }
    // Hits stream the cached rows from local memory; misses pay the
    // remote read plus the cache's insert/evict bookkeeping. Rows are
    // cached encoded, so hits stream the modeled wire bytes per row.
    const double cache_s =
        ctx.compute().local_bytes_time(static_cast<std::uint64_t>(
            std::llround(static_cast<double>(hits) *
                         store_->avg_row_wire_bytes()))) +
        static_cast<double>(misses) * ctx.compute().dkv_cache_insert_s;
    return cache_s + store_->read_cost(wi, local, misses);
  };

  sync.setup_beta(ws.beta);
  ws.terms.refresh(ws.beta, hyper_.delta);

  // This worker's held-out slice and its persistent running averages.
  // When heartbeat rounds shrink the membership the slice is rebuilt:
  // the pairs moved owner, and their history moved off-cluster with the
  // dead rank (documented approximation in DESIGN.md).
  std::unique_ptr<PerplexityEvaluator> evaluator;
  unsigned eval_member = wi;
  unsigned eval_members = w;
  auto slice_evaluator = [&] {
    const auto [lo, hi] =
        ThreadPool::chunk_bounds(0, heldout_size_, eval_member, eval_members);
    evaluator = std::make_unique<PerplexityEvaluator>(
        std::span<const graph::HeldOutPair>(heldout_->pairs().data() + lo,
                                            hi - lo));
  };
  if (real() && heldout_ != nullptr && heldout_size_ > 0) slice_evaluator();
  // Phantom slice size for cost charges.
  const auto [ph_lo, ph_hi] =
      ThreadPool::chunk_bounds(0, heldout_size_, wi, w);
  const std::uint64_t phantom_slice = ph_hi - ph_lo;
  const double phantom_set_size =
      n_nbr + (options_.base.neighbor_mode == NeighborMode::kLinkAware
                   ? phantom_.avg_degree
                   : 0.0);

  Round r;
  while (sync.next(r, ws)) {
    const std::uint64_t t = r.t;
    // ---- receive this iteration's minibatch share ---------------------
    DeployShare& share = ws.share;
    std::uint64_t n_local;
    std::uint64_t p_local;
    {
      const auto sp = ctx.trace_span(comm::Phase::kDeployMinibatch, t);
      const double before = ctx.now();
      if (real()) {
        std::vector<std::byte> payload =
            net.recv_bytes(ctx.rank(), 0, kTagDeploy);
        deserialize_share_into(payload, share);
        net.recycle_buffer(std::move(payload));
        SCD_ASSERT(share.iteration == t, "deploy out of order");
        n_local = share.vertices.size();
        p_local = share.pair_a.size();
      } else {
        net.recv_discard(ctx.rank(), 0, kTagDeploy);
        const auto [vlo, vhi] = ThreadPool::chunk_bounds(
            0, phantom_.minibatch_vertices, r.member, r.members);
        const auto [plo, phi] = ThreadPool::chunk_bounds(
            0, phantom_.minibatch_pairs, r.member, r.members);
        n_local = vhi - vlo;
        p_local = phi - plo;
      }
      ctx.measured(comm::Phase::kDeployMinibatch, before);
    }

    // ---- sample neighbor sets V_n -------------------------------------
    // In link-aware mode the set additionally holds the vertex's links,
    // which arrived with the deploy share.
    double total_samples = static_cast<double>(n_local) * phantom_set_size;
    if (real()) {
      ws.ensure_neighbor_sets(n_local, set_bound);
      total_samples = 0.0;
      std::size_t adj_offset = 0;
      for (std::size_t vi = 0; vi < n_local; ++vi) {
        const graph::Vertex a = share.vertices[vi];
        rng::Xoshiro256 nbr_rng =
            derive_rng(options_.base.seed, rng_label::kNeighbors, t, a);
        graph::draw_neighbor_set_into(
            nbr_rng, options_.base.neighbor_mode,
            static_cast<graph::Vertex>(num_vertices_), a,
            share.adj_of(vi, adj_offset), n_nbr, ws.neighbor_sets[vi],
            ws.nbr_scratch);
        adj_offset += share.degrees[vi];
        total_samples +=
            static_cast<double>(ws.neighbor_sets[vi].samples.size());
      }
    }
    {
      const auto sp = ctx.trace_span(comm::Phase::kSampleNeighbors, t);
      ctx.charge_kernel(comm::Phase::kSampleNeighbors, total_samples,
                        ctx.compute().neighbor_unit_cycles);
    }

    // ---- update_phi: chunked loads double-buffered with compute --------
    ws.staged.resize(n_local * width);
    sim::PipelineCost pipe;
    const std::uint64_t chunk = options_.chunk_vertices;
    for (std::uint64_t lo = 0; lo < n_local; lo += chunk) {
      const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, n_local);
      double load_cost;
      double chunk_samples;
      double load_begin = 0.0;
      double load_end = 0.0;
      if (real()) {
        ws.keys.clear();
        chunk_samples = 0.0;
        for (std::uint64_t vi = lo; vi < hi; ++vi) {
          ws.keys.push_back(share.vertices[vi]);
          for (const graph::NeighborSample& nb :
               ws.neighbor_sets[vi].samples) {
            ws.keys.push_back(nb.b);
          }
          chunk_samples +=
              static_cast<double>(ws.neighbor_sets[vi].samples.size());
        }
        load_begin = ctx.now();
        load_cost = load_stage_rows();
        load_end = ctx.now();
        // Compute phi* for the chunk from the freshly loaded rows. The
        // vertex's own row decodes once into the staging slot; neighbor
        // rows are read straight from the encoded buffer.
        std::size_t ref_idx = 0;
        for (std::uint64_t vi = lo; vi < hi; ++vi) {
          const graph::Vertex a = share.vertices[vi];
          const graph::NeighborSet& set = ws.neighbor_sets[vi];
          std::span<const std::byte> row_a = row_of(ref_idx);
          const std::size_t first_nbr_ref = ref_idx + 1;
          ref_idx += 1 + set.samples.size();
          std::span<float> out(ws.staged.data() + vi * width, width);
          staged_phi_update_enc(
              codec, options_.base.seed, t, a, row_a, set,
              [&](std::size_t i) { return row_of(first_nbr_ref + i); },
              ws.terms, options_.base.step.eps(t),
              hyper_.normalized_alpha(), out, ws.scratch,
              options_.base.noise_factor, options_.base.gradient_form);
        }
      } else {
        // Expected distinct-row count of uniformly random references,
        // split into the expected local/remote mix.
        chunk_samples = static_cast<double>(hi - lo) * phantom_set_size;
        load_cost = phantom_read_cost(
            static_cast<double>(hi - lo) + chunk_samples);
      }
      // Sparse rows: each neighbor costs its O(nnz) support loop, and the
      // per-vertex stage + epilogue + re-sparsify cost O(K) once.
      const double phi_units =
          sparse ? chunk_samples * store_->avg_row_nnz() +
                       static_cast<double>(hi - lo) * k
                 : chunk_samples * k;
      double compute_cost = ctx.compute().kernel_time(
          phi_units, ctx.compute().phi_unit_cycles);
      if (!ctx.simulated()) {
        // Wall backend: replace the modeled split with the measured one —
        // DKV wait vs. phi kernel time of this chunk.
        load_cost = load_end - load_begin;
        compute_cost = ctx.now() - load_end;
      }
      pipe.add_chunk(load_cost, compute_cost);
    }
    // Stats record the sub-stage views of Table III; the clock advances
    // by the (possibly overlapped) critical path. One kUpdatePhi span
    // covers the overlapped load+compute pipeline — the kLoadPi
    // sub-stage view lives only in PhaseStats, since the two interleave
    // within the same virtual interval.
    {
      const auto sp = ctx.trace_span(comm::Phase::kUpdatePhi, t);
      const double factor = sync.compute_factor();
      ctx.book(comm::Phase::kLoadPi, pipe.load_total() * factor);
      ctx.book(comm::Phase::kUpdatePhi, pipe.compute_total() * factor);
      ctx.advance(pipe.total(options_.pipeline) * factor);
    }

    // phi must be fully read cluster-wide before anyone writes pi.
    if (!sync.stage_done(t, fault::CrashPoint::kAfterPhi)) continue;

    // ---- update_pi: normalize (folded in phi*) + DKV write-back --------
    {
      const auto sp = ctx.trace_span(comm::Phase::kUpdatePi, t);
      ctx.charge_kernel(comm::Phase::kUpdatePi,
                        static_cast<double>(n_local) * k,
                        ctx.compute().pi_unit_cycles);
      double write_cost;
      if (real()) {
        // Minibatch vertices are already unique — no dedup needed.
        ws.keys.assign(share.vertices.begin(), share.vertices.end());
        write_cost = store_->put_rows(wi, ws.keys, ws.staged);
      } else {
        const std::uint64_t local = n_local / w;
        write_cost = store_->write_cost(wi, local, n_local - local);
      }
      ctx.charge(comm::Phase::kUpdatePi, write_cost);
    }

    // pi must be visible cluster-wide before update_beta reads it.
    if (!sync.stage_done(t, fault::CrashPoint::kAfterPi)) continue;

    // ---- update_beta: ratio partials over this worker's pair slice -----
    const bool beta_ok = sync.ratio_round(t, ws, [&] {
      std::vector<double>& ratios = ws.ratios;
      ratios.assign(std::size_t{k} * 2, 0.0);
      double load_cost;
      if (real()) {
        ws.keys.clear();
        for (std::uint64_t i = 0; i < p_local; ++i) {
          ws.keys.push_back(share.pair_a[i]);
          ws.keys.push_back(share.pair_b[i]);
        }
        load_cost = load_stage_rows();
        std::span<double> link(ratios.data(), k);
        std::span<double> nonlink(ratios.data() + k, k);
        if (sparse) {
          // Support-driven scatters per pair; the dense
          // eps_a*eps_b*bt_j/Z term folds once per stratum.
          double eps_link = 0.0;
          double eps_nonlink = 0.0;
          for (std::uint64_t i = 0; i < p_local; ++i) {
            const bool y = share.pair_y[i] != 0;
            sparse_accumulate_theta_ratio_enc(
                codec, row_of(2 * i), row_of(2 * i + 1), k, ws.terms, y,
                y ? link : nonlink, y ? eps_link : eps_nonlink);
          }
          sparse_theta_epilogue(eps_link, eps_nonlink, ws.terms, link,
                                nonlink);
        } else {
          for (std::uint64_t i = 0; i < p_local; ++i) {
            fast_accumulate_theta_ratio_enc(
                codec, row_of(2 * i), row_of(2 * i + 1), k, ws.terms,
                share.pair_y[i] != 0,
                share.pair_y[i] != 0 ? link : nonlink, ws.scratch.w);
          }
        }
      } else {
        load_cost = phantom_read_cost(static_cast<double>(2 * p_local));
      }
      ctx.charge(comm::Phase::kUpdateBetaTheta, load_cost);
      // Sparse pairs cost their two supports (capped at K: a fallback
      // side degrades to the dense pass) plus the 2K epilogue fold.
      const double beta_units =
          sparse ? static_cast<double>(p_local) *
                           std::min<double>(k, 2.0 * store_->avg_row_nnz()) +
                       2.0 * k
                 : static_cast<double>(p_local) * k;
      ctx.charge_kernel(comm::Phase::kUpdateBetaTheta, beta_units,
                        ctx.compute().beta_unit_cycles);
    });
    if (!beta_ok || !r.eval) continue;

    // ---- perplexity ----------------------------------------------------
    const auto sp = ctx.trace_span(comm::Phase::kPerplexity, t);
    std::vector<double>& acc = ws.eval_acc;
    acc.assign(2, 0.0);
    if (real()) {
      if (eval_member != r.member || eval_members != r.members) {
        eval_member = r.member;
        eval_members = r.members;
        slice_evaluator();
      }
      const auto slice = evaluator->slice();
      ws.keys.clear();
      for (const graph::HeldOutPair& p : slice) {
        ws.keys.push_back(p.a);
        ws.keys.push_back(p.b);
      }
      ctx.charge(comm::Phase::kPerplexity, load_stage_rows());
      for (std::size_t i = 0; i < slice.size(); ++i) {
        evaluator->add_sample_prob(
            i, fast_pair_likelihood_enc(codec, row_of(2 * i),
                                        row_of(2 * i + 1), k, ws.terms,
                                        slice[i].link));
      }
      evaluator->finish_sample();
      acc[0] = evaluator->sum_log_avg();
      acc[1] = static_cast<double>(slice.size());
    } else {
      ctx.charge(comm::Phase::kPerplexity,
                 phantom_read_cost(static_cast<double>(2 * phantom_slice)));
    }
    const double perp_pair_units =
        sparse ? std::min<double>(k, 2.0 * store_->avg_row_nnz())
               : static_cast<double>(k);
    ctx.charge_kernel(
        comm::Phase::kPerplexity,
        static_cast<double>(real() ? evaluator->size() : phantom_slice) *
            perp_pair_units,
        ctx.compute().perplexity_unit_cycles);
    sync.eval_round(t, ws);
  }
}


DistributedResult DistributedSampler::run(std::uint64_t iterations) {
  SCD_REQUIRE(!ran_, "a DistributedSampler instance runs exactly once");
  ran_ = true;
  if (!cluster_.simulated()) {
    // The wall-clock backend replays only what needs no virtual clock:
    // tracing samples virtual time, and every fault except an
    // (iteration, point)-anchored crash is priced in it.
    SCD_REQUIRE(options_.trace == nullptr,
                "tracing needs the simulated backend");
    if (options_.fault_plan != nullptr) {
      const fault::FaultPlan& plan = *options_.fault_plan;
      SCD_REQUIRE(plan.links.empty() && plan.stragglers.empty() &&
                      plan.dkv_stalls.empty(),
                  "the process backend replays crash-only fault plans");
      for (const fault::CrashEvent& c : plan.crashes) {
        SCD_REQUIRE(c.iteration_triggered(),
                    "process-backend crashes must be iteration-triggered "
                    "(at_iteration/at_point), not virtual-time");
      }
      SCD_REQUIRE(plan.crashes.empty() || options_.rollback_interval > 0,
                  "process-backend crash runs need rollback_interval > 0 "
                  "(redo-in-place would keep the dead worker's partial pi "
                  "writes, which the restart does not replay)");
    }
  }
  history_.clear();
  if (options_.base.eval_interval > 0) {
    history_.reserve(iterations / options_.base.eval_interval + 1);
  }
  if (real()) {
    // Pre-warm the transport's payload pool: with pipelining, up to two
    // deploy shares per worker are in flight while the master serializes
    // a third batch.
    const std::size_t max_vertices = minibatch_->max_vertices_bound();
    const std::size_t share_vertices = max_vertices / num_workers_ + 1;
    const std::size_t share_adjacency = std::min<std::size_t>(
        share_vertices * graph_->max_degree(), 2 * graph_->num_edges());
    const std::size_t share_pairs =
        minibatch_->max_pairs_bound() / num_workers_ + 1;
    cluster_.transport().reserve_buffers(
        2 * num_workers_ + 2,
        phantom_share_bytes(share_vertices, share_adjacency, share_pairs));
  }
  // Pre-warm the collective slot pool and deploy mailboxes past their
  // worst-case in-flight depth: each rank can hold one undeparted slot
  // and each channel one partially-arrived slot, and the pipelined
  // master stays at most a couple of deploys ahead of any worker.
  cluster_.transport().reserve_collectives(
      num_workers_ + 4, 2 * std::size_t{hyper_.num_communities} + 2,
      std::size_t{hyper_.num_communities} * sizeof(float));
  for (unsigned wi = 0; wi < num_workers_; ++wi) {
    cluster_.transport().reserve_mailbox(0, wi + 1, kTagDeploy, 8);
  }

  if (options_.fault_plan != nullptr) {
    SCD_REQUIRE(real(), "fault-tolerant mode needs a real-mode sampler");
    injector_ = std::make_unique<fault::FaultInjector>(*options_.fault_plan,
                                                       cluster_.num_ranks());
    cluster_.install_fault_hooks(injector_.get());
    store_->install_fault(injector_.get(), cluster_.rank_clocks());
  }

  if (options_.trace != nullptr) {
    trace::TraceRecorder& rec = *options_.trace;
    cluster_.install_trace(&rec);  // REQUIREs a lane per rank
    store_->install_trace(&rec);
    rec.set_lane_name(0, "rank 0 (master)");
    for (unsigned wi = 0; wi < num_workers_; ++wi) {
      rec.set_lane_name(wi + 1, "rank " + std::to_string(wi + 1) +
                                    " (worker " + std::to_string(wi) + ")");
    }
    // Worst case per rank-iteration: ~12 spans (workers touch every
    // stage) and ~8 message/collective edges. Reserving up front keeps
    // recording allocation-free for the whole run.
    rec.reserve(iterations * 12 + 16, iterations * 8 + 16);
  }

  cluster_.run([this, iterations](comm::Context& ctx) {
    const bool ft = injector_ != nullptr;
    if (ctx.is_master()) {
      ft ? master_loop<Heartbeats>(ctx, iterations)
         : master_loop<Collectives>(ctx, iterations);
    } else {
      ft ? worker_loop<Heartbeats>(ctx, iterations)
         : worker_loop<Collectives>(ctx, iterations);
    }
  });

  if (injector_ != nullptr) {
    // The injector dies with this sampler; leave no dangling hooks behind.
    cluster_.install_fault_hooks(nullptr);
    store_->install_fault(nullptr, nullptr);
  }
  if (options_.trace != nullptr) {
    cluster_.install_trace(nullptr);
    store_->install_trace(nullptr);
  }

  DistributedResult result;
  result.iterations = iterations;
  result.virtual_seconds = cluster_.max_clock();
  result.avg_iteration_seconds =
      iterations > 0 ? result.virtual_seconds /
                           static_cast<double>(iterations)
                     : 0.0;
  result.critical_path = cluster_.max_stats();
  result.history = history_;
  result.crashed_ranks = crashed_ranks_;
  result.redone_iterations = redone_iterations_;
  return result;
}

DistributedSampler::~DistributedSampler() = default;

PiMatrix DistributedSampler::snapshot_pi() const {
  SCD_REQUIRE(real(), "no pi state in cost-only mode");
  PiMatrix pi(static_cast<std::uint32_t>(num_vertices_),
              hyper_.num_communities);
  for (std::uint64_t v = 0; v < num_vertices_; ++v) {
    store_->read_row(v, pi.row(static_cast<std::uint32_t>(v)));
  }
  return pi;
}

}  // namespace scd::core
