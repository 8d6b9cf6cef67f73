// Privacy-preserving federation: NVFlare-style filters on client updates.
//
// Demonstrates the three stock filters (Gaussian DP noise, norm clipping,
// variable exclusion) and sweeps the noise scale to show the
// privacy/utility trade-off on the ADR task.
//
//   ./examples/privacy_filters [patients=500] [rounds=4]
#include <cstdio>

#include "core/config.h"
#include "core/logging.h"
#include "train/experiment.h"

int main(int argc, char** argv) {
  using namespace cppflare;

  core::Config config = core::Config::from_args(
      std::vector<std::string>(argv + 1, argv + argc));
  train::ExperimentScale scale = train::ExperimentScale::from_env();
  scale.num_patients = config.get_int("patients", 500);
  scale.fl_rounds = config.get_int("rounds", 4);

  core::LogConfig::instance().set_threshold(core::LogLevel::kWarn);
  const train::ClassificationData data = train::prepare_classification_data(scale);

  std::printf("privacy/utility sweep on the synthetic ADR cohort (lstm, %lld "
              "rounds, 8 sites):\n\n",
              static_cast<long long>(scale.fl_rounds));
  std::printf("%-22s | %s\n", "client-side filter", "global top-1 accuracy");
  std::printf("-----------------------+----------------------\n");

  {
    train::FederatedOptions clean;
    const auto r = train::run_federated("lstm", data, scale, clean);
    std::printf("%-22s | %.1f%%\n", "none", 100.0 * r.accuracy);
  }
  for (double sigma : {0.001, 0.005, 0.02, 0.1}) {
    train::FederatedOptions opts;
    opts.dp_sigma = sigma;
    const auto r = train::run_federated("lstm", data, scale, opts);
    char label[64];
    std::snprintf(label, sizeof(label), "gaussian sigma=%g", sigma);
    std::printf("%-22s | %.1f%%\n", label, 100.0 * r.accuracy);
  }

  std::printf(
      "\nlarger sigma -> stronger per-update privacy but lower utility.\n"
      "NormClipFilter and ExcludeVarsFilter compose the same way through\n"
      "SiteSession::outbound_filters() (see flare/filters.h).\n");
  return 0;
}
