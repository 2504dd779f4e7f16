#include "sim/churn.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "util/ensure.h"

namespace bgpolicy::sim {

ChurnSimulator::ChurnSimulator(const topo::AsGraph& graph, PolicySet policies,
                               std::vector<Origination> originations,
                               GroundTruth truth, std::vector<AsNumber> watch,
                               ChurnParams params)
    : graph_(&graph),
      policies_(std::make_unique<PolicySet>(std::move(policies))),
      originations_(std::move(originations)),
      truth_(std::move(truth)),
      watch_(std::move(watch)),
      rng_(params.seed),
      params_(params),
      delta_(std::make_unique<DeltaEngine>(graph, *policies_,
                                           params.propagation)) {
  for (const auto& origination : originations_) {
    by_prefix_.emplace(origination.prefix, origination);
  }
  for (std::size_t i = 0; i < truth_.origin_units.size(); ++i) {
    if (!truth_.origin_units[i].via_community) toggleable_.push_back(i);
  }
  for (const std::size_t i : toggleable_) {
    auto& bits = units_of_[truth_.origin_units[i].prefix];
    util::ensure(bits.size() < 64,
                 "churn: too many toggleable units for one prefix");
    bits.push_back(i);
  }
  for (const AsNumber as : watch_) watched_[as];
}

std::uint64_t ChurnSimulator::world_of(const bgp::Prefix& prefix) const {
  const auto it = units_of_.find(prefix);
  if (it == units_of_.end()) return 0;
  std::uint64_t world = 0;
  for (std::size_t b = 0; b < it->second.size(); ++b) {
    if (truth_.origin_units[it->second[b]].withheld) world |= 1ull << b;
  }
  return world;
}

std::vector<std::optional<bgp::Route>> ChurnSimulator::watch_rows(
    const FlatSimContext& context, const Origination& origination,
    const FlatRoutingState& state) const {
  std::vector<std::optional<bgp::Route>> rows;
  rows.reserve(watch_.size());
  for (const AsNumber as : watch_) {
    rows.push_back(flat_route_at(context, origination, state, as));
  }
  return rows;
}

util::ThreadPool* ChurnSimulator::pool(std::size_t work) {
  // The executor is either shared by the caller (set_executor) or created
  // once here and reused across steps.
  if (executor_ == nullptr) {
    const std::size_t threads =
        util::resolve_threads(params_.propagation.threads);
    if (threads > 1 && work > 1 && owned_executor_ == nullptr) {
      // Sized to the knob, not this call's prefix count: later steps may
      // carry more prefixes than the call that first triggers creation.
      owned_executor_ = std::make_unique<util::Executor>(threads);
    }
  }
  const util::Executor* executor =
      executor_ != nullptr ? executor_ : owned_executor_.get();
  return executor == nullptr ? nullptr : executor->pool();
}

void ChurnSimulator::apply_rows(
    const bgp::Prefix& prefix,
    const std::vector<std::optional<bgp::Route>>& rows) {
  for (std::size_t w = 0; w < watch_.size(); ++w) {
    auto& table = watched_.at(watch_[w]);
    if (!rows[w].has_value()) {
      table.erase(prefix);
    } else {
      table.insert_or_assign(prefix, *rows[w]);
    }
  }
}

void ChurnSimulator::repropagate(std::span<const bgp::Prefix> prefixes) {
  // util::shard_and_merge computes the fixpoints on the executor and applies
  // watched-table updates sequentially in `prefixes` order — deterministic
  // for every thread count (propagation.h "Concurrency model").
  util::ThreadPool* workers = pool(prefixes.size());

  // Non-incremental mode is the faithful pre-delta baseline (what
  // bench_delta_propagation measures against) and the reference that
  // checks refresh_policies, so it rebuilds the context from the mutated
  // policies on every call.  Incremental mode reads the delta engine's
  // patched context.
  std::optional<FlatSimContext> rebuilt;
  if (!params_.incremental) rebuilt.emplace(*graph_, *policies_);
  const FlatSimContext& context = rebuilt ? *rebuilt : delta_->context();

  // One job per prefix, built here on the calling thread (no shared map is
  // touched inside the parallel region): a memo hit carries its rows, a
  // warm job owns exactly one prefix's state for the duration of its task,
  // and the reference mode's jobs are exact cold runs in the leased
  // scratch.  A warm job's perturbation is the world drift between the
  // state's baked flags and the current flags, not this step's flip list:
  // a memo hit leaves the state unsynced on purpose, so the next miss
  // replays every toggled pair at once.
  using Rows = std::vector<std::optional<bgp::Route>>;
  struct Job {
    const Origination* origination = nullptr;
    const Rows* cached = nullptr;  // memo hit
    DeltaState* state = nullptr;   // warm: converge when new, else apply
    Perturbation perturbation;
    std::uint64_t world = 0;
  };
  std::vector<Job> jobs(prefixes.size());
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    const bgp::Prefix& prefix = prefixes[i];
    const auto it = by_prefix_.find(prefix);
    util::ensure(it != by_prefix_.end(), "churn: unknown prefix");
    Job& job = jobs[i];
    job.origination = &it->second;
    if (!params_.incremental) continue;
    job.world = world_of(prefix);
    const auto& worlds = memo_[prefix];
    if (const auto hit = worlds.find(job.world); hit != worlds.end()) {
      ++memo_hits_;
      job.cached = &hit->second;
      continue;
    }
    auto& slot = warm_[prefix];
    if (slot == nullptr) {
      // Cold-converges against the already-mutated policies, baking the
      // current world in.
      slot = std::make_unique<DeltaState>();
    } else {
      const std::uint64_t baked = state_world_.at(prefix);
      const auto& bits = units_of_.at(prefix);
      for (std::size_t b = 0; b < bits.size(); ++b) {
        if (((baked ^ job.world) >> b) & 1) {
          const SelectiveUnit& unit = truth_.origin_units[bits[b]];
          job.perturbation.export_changed.emplace_back(unit.origin,
                                                       unit.provider);
        }
      }
    }
    state_world_[prefix] = job.world;
    job.state = slot.get();
  }

  util::shard_and_merge(
      workers, jobs.size(),
      [&](std::size_t i) {
        const Job& job = jobs[i];
        if (job.cached != nullptr) return *job.cached;
        const auto lease = scratches_->acquire();
        FlatScratch& scratch = *lease;
        if (job.state == nullptr) {
          // The reference mode replays the exact trajectory, so the
          // equivalence tests check the oracle's order rather than assume it.
          (void)converge_exact(context, *job.origination, nullptr,
                               params_.propagation, scratch, scratch.state());
          return watch_rows(context, *job.origination, scratch.state());
        }
        if (!job.state->initialized()) {
          delta_->converge(*job.origination, nullptr, *job.state, scratch);
        } else {
          (void)delta_->apply(*job.state, job.perturbation, scratch);
        }
        return watch_rows(context, *job.origination, job.state->routing());
      },
      [&](std::size_t i, const Rows& rows) {
        if (jobs[i].state != nullptr) memo_[prefixes[i]][jobs[i].world] = rows;
        apply_rows(prefixes[i], rows);
      });
}

void ChurnSimulator::run_initial() {
  util::ensure_state(!initialized_, "churn: run_initial called twice");
  initialized_ = true;
  if (!params_.incremental) {
    std::vector<bgp::Prefix> all;
    all.reserve(originations_.size());
    for (const auto& origination : originations_) {
      all.push_back(origination.prefix);
    }
    repropagate(all);
    return;
  }
  // Every prefix in list order, converged for the origination that owns
  // it (by_prefix_), through the batch runner; warm states are created
  // lazily for the churned population only, so memory scales with what
  // actually flips.  The seed lists are built here and dropped with the
  // call, before any step mutates a policy.
  std::vector<Origination> batch;
  batch.reserve(originations_.size());
  for (const auto& origination : originations_) {
    batch.push_back(by_prefix_.at(origination.prefix));
  }
  const FlatSimContext& context = delta_->context();
  using Rows = std::vector<std::optional<bgp::Route>>;
  std::size_t next = 0;
  converge_batch(
      context, PrefixSeeds(context), batch, params_.propagation,
      pool(batch.size()), *scratches_, [] { return std::vector<Rows>(); },
      [&](std::vector<Rows>& rows, std::size_t i, const FixpointStats&,
          FlatRoutingState& state) {
        rows.push_back(watch_rows(context, batch[i], state));
      },
      [&](const std::vector<Rows>& rows) {
        for (const Rows& row : rows) apply_rows(batch[next++].prefix, row);
      });
}

std::vector<bgp::Prefix> ChurnSimulator::step() {
  util::ensure_state(initialized_, "churn: step before run_initial");
  std::unordered_set<bgp::Prefix> changed;
  std::vector<AsNumber> dirty_origins;
  if (!toggleable_.empty()) {
    const auto flips = std::max<std::size_t>(
        1, static_cast<std::size_t>(params_.flip_fraction *
                                    static_cast<double>(toggleable_.size())));
    for (std::size_t f = 0; f < flips; ++f) {
      SelectiveUnit& unit =
          truth_.origin_units[toggleable_[rng_.index(toggleable_.size())]];
      AsPolicy& policy = policies_->at_mut(unit.origin);
      if (unit.withheld) {
        policy.export_.remove_prefix_rules(unit.provider, unit.prefix);
        unit.withheld = false;
      } else {
        ExportRule rule;
        rule.prefix = unit.prefix;
        rule.action = ExportAction::kDeny;
        policy.export_.add_rule_for(unit.provider, rule);
        unit.withheld = true;
      }
      changed.insert(unit.prefix);
      dirty_origins.push_back(unit.origin);
    }
  }
  // Patch the delta engine's context in place: the CSR view never changes,
  // so rebuilding it per step would be pure waste.
  delta_->refresh_policies(dirty_origins);
  std::vector<bgp::Prefix> out(changed.begin(), changed.end());
  repropagate(out);
  return out;
}

const std::unordered_map<bgp::Prefix, bgp::Route>& ChurnSimulator::watched(
    AsNumber as) const {
  const auto it = watched_.find(as);
  util::ensure(it != watched_.end(), "churn: AS not watched");
  return it->second;
}

}  // namespace bgpolicy::sim
