/**
 * @file
 * Umbrella header: the whole public API of bimode-bp in one include.
 *
 * Downstream users who do not care about fine-grained includes can
 *
 *   #include "bpsim.hh"
 *
 * and reach every predictor, the workload generator, the simulator
 * and the analysis layer. Library code itself always includes the
 * specific headers.
 */

#ifndef BPSIM_BPSIM_HH
#define BPSIM_BPSIM_HH

// Utility substrate.
#include "util/args.hh"
#include "util/bits.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"

// Trace substrate.
#include "trace/binary_io.hh"
#include "trace/branch_record.hh"
#include "trace/memory_trace.hh"
#include "trace/text_io.hh"
#include "trace/trace_source.hh"
#include "trace/trace_stats.hh"

// Synthetic workloads.
#include "workload/behavior.hh"
#include "workload/benchmarks.hh"
#include "workload/generator.hh"
#include "workload/program.hh"
#include "workload/program_builder.hh"
#include "workload/spec_io.hh"
#include "workload/workload_spec.hh"

// Predictors.
#include "predictors/agree.hh"
#include "predictors/bimodal.hh"
#include "predictors/filter.hh"
#include "predictors/gshare.hh"
#include "predictors/gskew.hh"
#include "predictors/perceptron.hh"
#include "predictors/predictor.hh"
#include "predictors/static_predictors.hh"
#include "predictors/tournament.hh"
#include "predictors/twolevel.hh"
#include "predictors/yags.hh"

// The paper's contribution and the factory.
#include "core/bimode.hh"
#include "core/factory.hh"

// Simulation engine.
#include "sim/gshare_sweep.hh"
#include "sim/simulator.hh"
#include "sim/size_ladder.hh"
#include "sim/trace_cache.hh"

// Experiment campaigns (parallel grid execution).
#include "campaign/campaign.hh"
#include "campaign/emitters.hh"

// Section 4 analyses.
#include "analysis/bias_analysis.hh"
#include "analysis/bias_class.hh"
#include "analysis/counter_profile.hh"
#include "analysis/interference.hh"
#include "analysis/stream_tracker.hh"

#endif // BPSIM_BPSIM_HH
