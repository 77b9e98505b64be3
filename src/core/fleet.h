// Fleet names for the one experiment harness (core/experiment.h), which
// runs one vehicle or N of them. perfbench/driver.cc is this header's only
// includer; the benchmark change that points perfbench at the scenario
// catalogue (ROADMAP item 6) deletes it.
#pragma once

#include "core/experiment.h"

namespace spider::core {

using FleetConfig = ExperimentConfig;
using FleetExperiment = Experiment;
using FleetResults = ExperimentResults;

}  // namespace spider::core
