//===- noise/ModelMisTune.cpp - Systematic model mis-tuning ---------------===//
///
/// \file
/// The paper's transfer experiment as a composable source: the records
/// keep the costs traced under the *training* model -- that is the
/// mis-tuning -- while the run's ModelName and fixed-policy reports are
/// recomputed under the serve model, so downstream evaluation
/// (runThreshold recompiles each run under its own ModelName) prices
/// every schedule on the machine the filter actually serves.  Train on
/// ppc7410, serve on ppc970.  Draws no randomness.
///
//===----------------------------------------------------------------------===//

#include "noise/NoiseSource.h"

#include "target/MachineModel.h"

#include <cassert>

using namespace schedfilter;

namespace {

class ModelMisTune final : public NoiseSource {
public:
  explicit ModelMisTune(std::string ServeModel)
      : ServeModel(std::move(ServeModel)) {
    assert(MachineModel::byName(this->ServeModel) &&
           "parseNoiseStack validates the model name");
  }

  const char *name() const override { return "mistune"; }
  uint32_t version() const override { return 1; }
  std::string describe() const override { return "mistune:" + ServeModel; }

  void perturb(BenchmarkRun &Run, const Rng &) const override {
    if (Run.ModelName == ServeModel)
      return;
    MachineModel Model = *MachineModel::byName(ServeModel);
    Run.ModelName = ServeModel;
    Run.NeverReport =
        compileProgram(Run.Prog, Model, SchedulingPolicy::Never);
    Run.AlwaysReport =
        compileProgram(Run.Prog, Model, SchedulingPolicy::Always);
  }

private:
  std::string ServeModel;
};

} // namespace

std::unique_ptr<NoiseSource> schedfilter::makeModelMisTune(std::string ServeModel) {
  return std::make_unique<ModelMisTune>(std::move(ServeModel));
}
