#include "flare/aggregator.h"

#include <vector>

#include "core/error.h"
#include "core/logging.h"
#include "flare/hierarchy.h"

#define CPPFLARE_LOG_COMPONENT "DXOAggregator"

namespace cppflare::flare {

void BufferingAggregator::reset(const nn::StateDict& global, std::int64_t round) {
  global_ = global;
  round_kind_.reset();
  pending_.clear();
  metrics_ = RoundMetrics{};
  metrics_.round = round;
}

bool BufferingAggregator::accept(const std::string& site, const Dxo& contribution) {
  if (contribution.kind() == DxoKind::kMetrics) {
    LOG(warn).msg("Rejecting metrics-only contribution from " + site);
    return false;
  }
  if (pending_.count(site) != 0) {
    LOG(warn).msg("Duplicate contribution from " + site + " ignored");
    return false;
  }
  if (round_kind_.has_value() && *round_kind_ != contribution.kind()) {
    LOG(warn).msg("Mixed DXO kinds in one round; rejecting " + site);
    return false;
  }
  if (!contribution.data().congruent_with(global_)) {
    LOG(warn).msg("Incongruent model from " + site + " rejected");
    return false;
  }

  const auto samples = contribution.meta_int(Dxo::kMetaNumSamples, 1);
  const double w = weighted_ ? static_cast<double>(samples) : 1.0;
  if (w <= 0.0) {
    LOG(warn).msg("Non-positive weight from " + site + " rejected");
    return false;
  }

  round_kind_ = contribution.kind();
  pending_.emplace(site, Pending{contribution, w});

  metrics_.num_contributions += 1;
  metrics_.total_samples += samples;
  LOG(info).msg("Contribution from " + site + " ACCEPTED by the aggregator at round " +
                std::to_string(metrics_.round) + ".");
  return true;
}

bool BufferingAggregator::revoke(const std::string& site) {
  auto it = pending_.find(site);
  if (it == pending_.end()) return false;
  metrics_.num_contributions -= 1;
  metrics_.total_samples -= it->second.dxo.meta_int(Dxo::kMetaNumSamples, 1);
  pending_.erase(it);
  if (pending_.empty()) round_kind_.reset();
  LOG(info).msg("Contribution from " + site + " REVOKED at round " +
                std::to_string(metrics_.round) + ".");
  return true;
}

nn::StateDict BufferingAggregator::aggregate() {
  if (pending_.empty()) {
    throw Error(name() + ": no contributions to aggregate");
  }
  LOG(info).msg("aggregating " + std::to_string(pending_.size()) +
                " update(s) at round " + std::to_string(metrics_.round));
  nn::StateDict out = reduce();
  // The metric means are sequential double sums in site-name order, so
  // neither arrival order nor a revoked contribution can move their bits.
  double train_loss = 0.0, valid_acc = 0.0, valid_loss = 0.0;
  double loss_weight_sum = 0.0;
  for (const auto& [site, p] : pending_) {
    if (!p.dxo.has_meta(Dxo::kMetaTrainLoss)) continue;
    train_loss += p.weight * p.dxo.meta_double(Dxo::kMetaTrainLoss);
    valid_acc += p.weight * p.dxo.meta_double(Dxo::kMetaValidAcc);
    valid_loss += p.weight * p.dxo.meta_double(Dxo::kMetaValidLoss);
    loss_weight_sum += p.weight;
  }
  if (loss_weight_sum > 0.0) {
    metrics_.train_loss = train_loss / loss_weight_sum;
    metrics_.valid_acc = valid_acc / loss_weight_sum;
    metrics_.valid_loss = valid_loss / loss_weight_sum;
  }
  if (*round_kind_ == DxoKind::kWeightDiff) {
    nn::StateDict next = global_;
    next.axpy(1.0f, out);
    return next;
  }
  return out;
}

std::int64_t BufferingAggregator::accepted_count() const {
  return metrics_.num_contributions;
}

RoundMetrics BufferingAggregator::metrics() const { return metrics_; }

nn::StateDict FedAvgAggregator::reduce() const {
  nn::StateDict accum = reduce_pending();
  // Sequential (doubles, site-name order) in every reduction mode, so the
  // 1/weight_sum scale matches bitwise between flat and hierarchical
  // aggregation.
  double weight_sum = 0.0;
  for (const auto& [site, p] : pending_) weight_sum += p.weight;
  accum.scale(static_cast<float>(1.0 / weight_sum));
  return accum;
}

nn::StateDict FedAvgAggregator::reduce_pending() const {
  // Reduce in site-name order (std::map iteration), never arrival order:
  // floating-point sums then come out bit-for-bit identical no matter how
  // retries or stragglers shuffled the submissions.
  std::vector<WeightedRef> refs;
  refs.reserve(pending_.size());
  for (const auto& [site, p] : pending_) {
    refs.push_back(WeightedRef{static_cast<float>(p.weight), &p.dxo.data()});
  }
  return weighted_tree_sum(refs.data(), refs.size());
}

}  // namespace cppflare::flare
