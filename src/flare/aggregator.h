// Server-side aggregation of client contributions.
//
// Mirrors NVFlare's DXOAggregator/InTimeAccumulateWeightedAggregator:
// contributions arrive one at a time during a round, are validated and
// buffered per site, and `aggregate()` closes the round by producing the
// new global weights. Both full-weight (kWeights) and delta (kWeightDiff)
// contributions are supported; kinds cannot be mixed within a round.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flare/dxo.h"
#include "flare/fl_context.h"

namespace cppflare::flare {

/// Aggregated per-round client metrics (sample-weighted means) plus the
/// round's fault-tolerance telemetry, filled in by the server when the
/// round closes and exposed through round observers.
///
/// Deprecation note (observability PR; duplicated accessors deleted in the
/// multi-job coordinator PR): this struct is now a *view* rebuilt from the
/// server's MetricRegistry when a round closes — the registry
/// (FederatedServer::metrics_registry(), names in flare/observability.h
/// metric_names, per-job over the admin `metrics <job>` command) is the
/// source of truth, and new telemetry should be added there rather than as
/// fields here. The fields below stay only because CPK3 checkpoints
/// persist the per-round history.
struct RoundMetrics {
  std::int64_t round = 0;
  std::int64_t num_contributions = 0;
  std::int64_t total_samples = 0;
  double train_loss = 0.0;
  double valid_acc = 0.0;
  double valid_loss = 0.0;
  /// Contributions that arrived after their round had already closed.
  std::int64_t late_contributions = 0;
  /// Sites evicted (unseen past the liveness timeout) when the round closed.
  std::int64_t evicted_sites = 0;
  /// True when the round closed on its deadline with a reduced quorum.
  bool deadline_fired = false;
  /// Contributions refused by the update validator this round (immediate
  /// verdicts plus round-close norm-outlier revocations).
  std::int64_t rejected_updates = 0;
  /// Sites quarantined by the reputation tracker when the round closed.
  std::int64_t quarantined_sites = 0;
  /// Rejections this round keyed by reject_reason_name(); quarantined
  /// sites' discarded-but-scored uploads count under "quarantined".
  std::map<std::string, std::int64_t> rejections_by_reason;
};

class Aggregator {
 public:
  virtual ~Aggregator() = default;

  /// Starts a round with the current global model (needed to apply diffs).
  virtual void reset(const nn::StateDict& global, std::int64_t round) = 0;

  /// Validates and accumulates one contribution. Returns false (and ignores
  /// the data) for duplicates or incongruent payloads.
  virtual bool accept(const std::string& site, const Dxo& contribution) = 0;

  /// Withdraws a previously accepted contribution before aggregation — the
  /// hook the update validator uses to strip round-close norm outliers.
  /// Returns false when the site has no buffered contribution.
  virtual bool revoke(const std::string& site) = 0;

  /// Closes the round: returns the new global model. Throws if no
  /// contribution was accepted.
  virtual nn::StateDict aggregate() = 0;

  virtual std::int64_t accepted_count() const = 0;
  virtual RoundMetrics metrics() const = 0;
  virtual std::string name() const = 0;
};

/// Side-interface an aggregator implements when its buffered contributions
/// carry pairwise masks that need dropout recovery (secure aggregation,
/// DESIGN.md §14). The server discovers it by dynamic_cast — server code
/// never names the masking machinery itself (lint R12), it only drives this
/// protocol: compute the dropped set, collect one summed mask share per
/// surviving contributor, then aggregate.
class MaskRecoveryCapable {
 public:
  virtual ~MaskRecoveryCapable() = default;

  /// Sites whose contribution is currently buffered — the survivors whose
  /// masks against any dropped site must be recovered before aggregate().
  virtual std::vector<std::string> accepted_sites() const = 0;

  /// Records `survivor`'s revealed sum-of-masks against the dropped set.
  /// Returns false (share ignored) when it is incongruent with the model
  /// skeleton or the survivor has no buffered contribution.
  virtual bool set_unmask_share(const std::string& survivor, const Dxo& share) = 0;

  /// Discards all recorded shares — called when a survivor is demoted
  /// mid-recovery and the remaining ones must answer again against the
  /// enlarged dropped set.
  virtual void clear_unmask_shares() = 0;

  /// Shares recorded so far this wave.
  virtual std::int64_t unmask_share_count() const = 0;
};

/// The contribution buffer behind every aggregator here: FedAvg and the
/// robust rules differ only in reduce().
///
/// Contributions are buffered per site and reduced in site-name order when
/// the round closes — the model and the RoundMetrics means alike — so the
/// result is independent of arrival order and of contributions revoked
/// before it: a fault-injected run (retries, reconnects, delays) aggregates
/// bit-for-bit identically to a clean one. Costs one buffered model per
/// contributor, which is the price of reproducibility over NVFlare's
/// in-time accumulate.
class BufferingAggregator : public Aggregator {
 public:
  void reset(const nn::StateDict& global, std::int64_t round) override;
  bool accept(const std::string& site, const Dxo& contribution) override;
  bool revoke(const std::string& site) override;
  nn::StateDict aggregate() override;
  std::int64_t accepted_count() const override;
  RoundMetrics metrics() const override;

 protected:
  /// With `weighted` a contribution's weight is its num_samples meta (a
  /// non-positive claim is refused); otherwise every weight is 1. Weights
  /// scale the metric means and whatever reduce() does with them.
  explicit BufferingAggregator(bool weighted) : weighted_(weighted) {}

  struct Pending {
    Dxo dxo;
    double weight = 0.0;
  };

  /// Reduces pending_ (never empty) to the round's result in the
  /// contributions' own kind; aggregate() adds a kWeightDiff result to the
  /// global model.
  virtual nn::StateDict reduce() const = 0;

  bool weighted_;
  nn::StateDict global_;
  std::optional<DxoKind> round_kind_;
  std::map<std::string, Pending> pending_;  // site -> buffered contribution
  RoundMetrics metrics_{};
};

/// Federated averaging. With `weighted` the average is weighted by each
/// contribution's num_samples meta (plain FedAvg); otherwise uniform —
/// the ablation knob for the imbalanced-split experiment.
///
/// The weighted sum is computed as a *canonical pairwise tree* over the
/// site-name-sorted contributions (flare/hierarchy.h): a fixed
/// count-determined split shape, not a left fold. This is what lets the
/// hierarchical tree-of-aggregators mode reproduce flat results bitwise —
/// each leaf shard is an aligned subtree of the same canonical tree.
class FedAvgAggregator : public BufferingAggregator {
 public:
  explicit FedAvgAggregator(bool weighted = true) : BufferingAggregator(weighted) {}

  std::string name() const override {
    return weighted_ ? "FedAvg(weighted)" : "FedAvg(uniform)";
  }
  bool weighted() const { return weighted_; }

 protected:
  /// reduce_pending() scaled by 1/weight_sum, the weight sum a sequential
  /// double sum in site-name order in every reduction mode.
  nn::StateDict reduce() const final;

  /// Returns the weighted *sum* of pending_ (unscaled). The base
  /// implementation is one canonical pairwise tree over all contributions
  /// in site-name order; HierarchicalFedAvgAggregator overrides it with a
  /// leaf/root split that reduces to the same bits.
  virtual nn::StateDict reduce_pending() const;
};

}  // namespace cppflare::flare
