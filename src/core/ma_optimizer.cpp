#include "core/ma_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <span>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "core/elite_set.hpp"

namespace maopt::core {

MaOptConfig MaOptConfig::dnn_opt() {
  MaOptConfig c;
  c.name = "DNN-Opt";
  c.num_actors = 1;
  c.shared_elite_set = true;  // single actor: shared vs individual identical
  c.use_near_sampling = false;
  return c;
}

MaOptConfig MaOptConfig::ma_opt1() {
  MaOptConfig c;
  c.name = "MA-Opt1";
  c.num_actors = 3;
  c.shared_elite_set = false;
  c.use_near_sampling = false;
  return c;
}

MaOptConfig MaOptConfig::ma_opt2() {
  MaOptConfig c;
  c.name = "MA-Opt2";
  c.num_actors = 3;
  c.shared_elite_set = true;
  c.use_near_sampling = false;
  return c;
}

MaOptConfig MaOptConfig::ma_opt() {
  MaOptConfig c;
  c.name = "MA-Opt";
  c.num_actors = 3;
  c.shared_elite_set = true;
  c.use_near_sampling = true;
  return c;
}

RunHistory MaOptimizer::do_run(const SizingProblem& problem,
                               const std::vector<SimRecord>& initial, const FomEvaluator& fom,
                               const RunOptions& options, obs::RunTelemetry& telemetry) {
  return run_impl(problem, initial, {}, fom, options.seed, options.simulation_budget,
                  /*checkpoint_timers=*/nullptr, options.control, telemetry);
}

RunHistory MaOptimizer::resume(const SizingProblem& problem, const RunCheckpoint& checkpoint,
                               const FomEvaluator& fom, const RunOptions& options) {
  const RunHistory& h = checkpoint.history;
  MAOPT_CHECK(h.num_initial <= h.records.size(),
              "MaOptimizer::resume: corrupt checkpoint (num_initial > records)");
  const auto split = h.records.begin() + static_cast<std::ptrdiff_t>(h.num_initial);
  std::vector<SimRecord> initial(h.records.begin(), split);
  std::vector<SimRecord> replay(split, h.records.end());

  // Same telemetry bracketing as Optimizer::run — a resumed run is a run.
  obs::RunTelemetry telemetry(options.observer);
  RunOptions effective = options;
  effective.seed = checkpoint.seed;
  emit_run_started(telemetry, name(), problem, initial.size(), effective);
  RunHistory history = run_impl(problem, std::move(initial), std::move(replay), fom,
                                checkpoint.seed, options.simulation_budget, &h, options.control,
                                telemetry);
  emit_run_finished(telemetry, history);
  return history;
}

RunHistory MaOptimizer::resume(const SizingProblem& problem, const RunCheckpoint& checkpoint,
                               const FomEvaluator& fom, std::size_t simulation_budget) {
  RunOptions options;
  options.simulation_budget = simulation_budget;
  return resume(problem, checkpoint, fom, options);
}

RunHistory MaOptimizer::run_impl(const SizingProblem& problem, std::vector<SimRecord> initial,
                                 std::vector<SimRecord> replay, const FomEvaluator& fom,
                                 std::uint64_t seed, std::size_t simulation_budget,
                                 const RunHistory* checkpoint_timers, RunControl* control,
                                 obs::RunTelemetry& telemetry) {
  RunHistory history;
  history.algorithm = config_.name;
  history.records = std::move(initial);
  history.num_initial = history.records.size();
  annotate_foms(history.records, problem, fom);
  if (checkpoint_timers != nullptr) {
    // Replayed iterations retrain but do not simulate; carry the original
    // run's cost accounting and add only post-resume work on top.
    history.sim_seconds = checkpoint_timers->sim_seconds;
    history.train_seconds = checkpoint_timers->train_seconds;
    history.ns_seconds = checkpoint_timers->ns_seconds;
    history.wall_seconds = checkpoint_timers->wall_seconds;
  }

  const std::size_t d = problem.dim();
  const std::size_t m1 = problem.num_metrics();
  const nn::RangeScaler scaler(problem.lower_bounds(), problem.upper_bounds());
  const auto n_act = static_cast<std::size_t>(std::max(1, config_.num_actors));

  Rng critic_rng(derive_seed(seed, 0xC0));
  CriticEnsemble critic(static_cast<std::size_t>(std::max(1, config_.num_critics)), d, m1,
                        config_.critic, critic_rng);

  std::vector<Actor> actors;
  actors.reserve(n_act);
  for (std::size_t i = 0; i < n_act; ++i) {
    Rng actor_rng(derive_seed(seed, 0xA0 + i));
    actors.emplace_back(d, config_.actor, actor_rng);
  }
  ActorRound actor_round(d, n_act, config_.actor);
  std::vector<ActorTask> tasks(n_act);

  // Elite sets: one shared, or one per actor (Fig. 2a vs 2b). Only clean
  // simulations may enter: a failed record's penalty FoM would anchor the
  // elite bounding box to a garbage design.
  const std::size_t n_sets = config_.shared_elite_set ? 1 : n_act;
  std::deque<EliteSet> elites;  // deque: EliteSet holds a mutex (immovable)
  for (std::size_t i = 0; i < n_sets; ++i) elites.emplace_back(config_.elite_size);
  for (const auto& r : history.records)
    if (r.simulation_ok)
      for (auto& es : elites) es.try_insert(r.x, r.fom);

  bool specs_met = false;
  for (const auto& r : history.records) specs_met = specs_met || r.feasible;

  // Surrogate training set: clean records only (failed simulations would
  // teach the critic penalty plateaus instead of circuit behaviour). The
  // scrubbed full history is the fallback for the all-failed degenerate case
  // so batching stays well-posed.
  std::vector<SimRecord> ok_records;
  ok_records.reserve(history.records.size() + simulation_budget);
  for (const auto& r : history.records)
    if (r.simulation_ok) ok_records.push_back(r);

  // Finite stand-in used by the trajectory until a clean design exists.
  const double penalty_fom = fom(problem.failure_metrics());

  ThreadPool pool(config_.num_threads == 0 ? n_act : config_.num_threads);
  Rng ns_rng(derive_seed(seed, 0x45));

  Stopwatch total;
  std::size_t sims = 0;
  bool critic_trained = false;
  int consecutive_failures = 0;
  double running_best = penalty_fom;
  bool have_best = false;
  for (const auto& r : history.records)
    if (r.simulation_ok) {
      running_best = have_best ? std::min(running_best, r.fom) : r.fom;
      have_best = true;
    }

  std::size_t replay_pos = 0;
  const std::size_t replay_count = replay.size();
  bool replay_diverged = false;
  const bool checkpointing = config_.checkpoint_every > 0 && !config_.checkpoint_path.empty();

  // Telemetry plumbing: spans collected per iteration (actor i reports into
  // lane i); each record's provenance fields say how its
  // simulation was produced. With no observer every emit below is a single
  // branch on null.
  obs::SpanCollector spans(telemetry.enabled());
  int current_iter = 0;

  auto emit_checkpoint = [&](std::uint64_t bytes, int iteration) {
    ++telemetry.counters().checkpoints;
    telemetry.counters().checkpoint_bytes += bytes;
    if (telemetry.enabled()) {
      obs::CheckpointWritten event;
      event.path = config_.checkpoint_path;
      event.iteration = static_cast<std::uint64_t>(iteration);
      event.simulations_done = sims;
      event.bytes = bytes;
      telemetry.emit(event);
    }
  };

  auto append_record = [&](SimRecord rec, std::ptrdiff_t actor_set, int lane) {
    const bool ok = annotate_record(rec, problem, fom);
    specs_met = specs_met || rec.feasible;
    if (ok) {
      consecutive_failures = 0;
      const obs::ScopedSpan elite_span(spans, obs::Phase::EliteUpdate);
      if (config_.shared_elite_set) {
        elites[0].try_insert(rec.x, rec.fom);
      } else if (actor_set >= 0) {
        // Individual sets: actor i's result refreshes only its own set.
        elites[static_cast<std::size_t>(actor_set)].try_insert(rec.x, rec.fom);
      } else {
        // Near-sampling results are not tied to one actor; refresh every set.
        for (auto& es : elites) es.try_insert(rec.x, rec.fom);
      }
      ok_records.push_back(rec);
      running_best = have_best ? std::min(running_best, rec.fom) : rec.fom;
      have_best = true;
    } else {
      ++consecutive_failures;
    }
    history.records.push_back(std::move(rec));
    // Failed records never improve the trajectory: their penalty FoM is
    // budget bookkeeping, not a design the run could return.
    history.best_fom_after.push_back(running_best);
    emit_simulation(telemetry, history.records.back(), sims,
                    static_cast<std::uint64_t>(current_iter), lane);
    ++sims;
  };

  for (int t = 1; sims < simulation_budget; ++t) {
    // Cooperative yield point: records are consistent at iteration
    // boundaries, so this is the one place a pause checkpoint may be taken.
    // Pause is deferred while a resume replay is still in progress — the
    // on-disk snapshot already covers the replayed prefix.
    if (control != nullptr) {
      const RunControl::Signal signal = control->poll();
      if (signal == RunControl::Signal::Kill) {
        history.aborted = true;
        history.abort_reason = "killed";
        break;
      }
      if (signal == RunControl::Signal::Pause && replay_pos >= replay_count) {
        if (!config_.checkpoint_path.empty())
          emit_checkpoint(save_checkpoint(config_.checkpoint_path, history, seed), t - 1);
        break;
      }
    }

    if (config_.max_consecutive_failures > 0 &&
        consecutive_failures >= config_.max_consecutive_failures) {
      history.aborted = true;
      history.abort_reason = std::to_string(consecutive_failures) +
                             " consecutive failed simulations (circuit breaker)";
      log_warn() << config_.name << ": aborting run after " << history.abort_reason;
      break;
    }

    current_iter = t;
    Stopwatch iter_clock;
    double critic_loss = std::numeric_limits<double>::quiet_NaN();
    const bool replaying = replay_pos < replay_count;
    const bool ns_turn = specs_met && config_.use_near_sampling && critic_trained &&
                         (t % std::max(1, config_.t_ns) == 0);
    const SimRecord* anchor = ns_turn ? history.best() : nullptr;
    const bool ns_iteration = ns_turn && anchor != nullptr;
    if (ns_iteration) {
      // --- Algorithm 2: near-sampling, one simulation, no training ---
      Stopwatch ns_clock;
      Vec candidate;
      {
        const obs::ScopedSpan ns_span(spans, obs::Phase::NearSample);
        candidate = near_sampling_candidate(problem, fom, critic, scaler, anchor->x,
                                            config_.near_sampling, ns_rng);
      }
      if (!replaying) history.ns_seconds += ns_clock.elapsed_seconds();

      SimRecord rec;
      if (replaying) {
        rec = std::move(replay[replay_pos++]);
        replay_diverged = replay_diverged || rec.x != candidate;
      } else {
        {
          const obs::ScopedSpan sim_span(spans, obs::Phase::Simulate);
          rec = evaluate_record(problem, candidate);
        }
        history.sim_seconds += rec.seconds;
      }
      append_record(std::move(rec), /*actor_set=*/-1, /*lane=*/-1);
      ++telemetry.counters().ns_iterations;
    } else {
      // --- Algorithm 1: critic training, then the lockstep actor round ---
      Stopwatch train_clock;
      const std::vector<SimRecord>& training_set =
          ok_records.empty() ? history.records : ok_records;
      // The batcher's unit-space design matrix also feeds the actor rounds.
      obs::ScopedSpan critic_span(spans, obs::Phase::CriticTrain);
      const PseudoSampleBatcher batcher(training_set, scaler);
      critic.fit_normalizer(training_set, &pool);
      critic_loss = critic.train_round(batcher, critic_rng, &pool);
      critic_span.stop();
      critic_trained = true;
      if (!replaying) history.train_seconds += train_clock.elapsed_seconds();

      // The actors only propose, in one lockstep round against the frozen
      // critic; the proposals are simulated below as one batch.
      const std::size_t workers = std::min(n_act, simulation_budget - sims);
      Stopwatch round_clock;
      for (std::size_t i = 0; i < workers; ++i) {
        ActorTask& task = tasks[i];
        task.rng = Rng(derive_seed(seed, 0x1000 + static_cast<std::uint64_t>(t) * 64 + i));
        const EliteSet& elite = config_.shared_elite_set ? elites[0] : elites[i];
        Vec lb_raw, ub_raw;
        elite.bounds(lb_raw, ub_raw);
        // Map the elite box to unit space (degenerate boxes stay degenerate:
        // the violation term then pins proposals to the elite's column values).
        task.lb_unit = scaler.to_unit(lb_raw);
        task.ub_unit = scaler.to_unit(ub_raw);
        const std::vector<EliteSet::Entry> entries = elite.snapshot();
        task.elites_unit.ensure_shape(entries.size(), d);
        for (std::size_t k = 0; k < entries.size(); ++k) {
          const Vec u = scaler.to_unit(entries[k].x);
          std::copy(u.begin(), u.end(), task.elites_unit.row(k).begin());
        }
      }
      actor_round.run(std::span<Actor>(actors).first(workers),
                      std::span<ActorTask>(tasks).first(workers), critic, fom,
                      batcher.unit_designs(), &pool);
      // Every actor's span carries the round's wall time: the actors train
      // together, so the round is each one's critical path.
      const double round_s = round_clock.elapsed_seconds();
      std::vector<Vec> proposals(workers);
      for (std::size_t i = 0; i < workers; ++i) {
        spans.add(obs::Phase::ActorTrain, static_cast<int>(i), round_s);  // maopt-lint: allow(observer-bracketing)
        const std::span<const double> proposal_unit = actor_round.proposal(i);
        Vec candidate(d);
        for (std::size_t c = 0; c < d; ++c) candidate[c] = std::clamp(proposal_unit[c], -1.0, 1.0);
        proposals[i] = problem.clip(scaler.from_unit(candidate));
      }

      // A resume replays the checkpointed simulations of the first
      // `replayed` proposals; the rest are one evaluate_batch over the pool
      // (an EvalService uses its own pool and coalesces duplicates).
      const std::size_t replayed = std::min(workers, replay_count - replay_pos);
      if (replayed < workers) history.train_seconds += round_s;
      std::vector<ckt::EvalResult> evals = problem.evaluate_batch(
          std::span<const Vec>(proposals).subspan(replayed), &pool);
      for (std::size_t i = 0; i < workers; ++i) {
        SimRecord rec;
        if (i < replayed) {
          rec = std::move(replay[replay_pos + i]);
          replay_diverged = replay_diverged || rec.x != proposals[i];
        } else {
          rec = to_record(std::move(proposals[i]), std::move(evals[i - replayed]));
          history.sim_seconds += rec.seconds;
          // Not a ScopedSpan: the simulation may have run on another pool.
          spans.add(obs::Phase::Simulate, static_cast<int>(i), rec.seconds);  // maopt-lint: allow(observer-bracketing)
        }
        append_record(std::move(rec), config_.shared_elite_set ? 0 : static_cast<std::ptrdiff_t>(i),
                      static_cast<int>(i));
      }
      replay_pos += replayed;
    }

    emit_iteration(telemetry, static_cast<std::uint64_t>(t), sims, running_best, specs_met,
                   iter_clock.elapsed_seconds(), spans.take(), ns_iteration, critic_loss);

    // Snapshot at iteration boundaries only (records are consistent there);
    // replayed iterations are skipped — the on-disk state already covers them.
    if (checkpointing && replay_pos >= replay_count && t % config_.checkpoint_every == 0)
      emit_checkpoint(save_checkpoint(config_.checkpoint_path, history, seed), t);
  }

  if (replay_diverged)
    log_warn() << config_.name
               << ": resume replay diverged from the checkpointed trajectory (different "
                  "problem/config/budget?); the recorded simulations were kept";
  // A final snapshot on abort lets the operator inspect (or resume) the
  // partial run the circuit breaker saved.
  if (history.aborted && checkpointing)
    emit_checkpoint(save_checkpoint(config_.checkpoint_path, history, seed), current_iter);
  history.wall_seconds += total.elapsed_seconds();
  return history;
}

}  // namespace maopt::core
