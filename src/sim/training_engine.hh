/**
 * @file
 * Training-iteration simulation (paper §4.1: "the proposed
 * methodology can be applied to the training stage where gradient and
 * embedding propagation follow graph structure as well").
 *
 * One training iteration = the forward inference pass (reusing the
 * inference engine unchanged) + a backward sweep + a weight-gradient
 * all-reduce + the optimizer update:
 *
 *  - backward compute re-runs every forward product twice (gradient
 *    w.r.t. inputs and w.r.t. weights) on the same tile mapping, so
 *    its critical path is twice the forward compute;
 *  - backward spatial communication is the forward gather transposed
 *    — identical volume along the same links;
 *  - weight gradients are ring-all-reduced across the active tiles
 *    (reduce-scatter + all-gather, 2(N-1) neighbor steps), replayed
 *    on the NoC model;
 *  - the optimizer update streams every parameter once through the
 *    MAC arrays.
 */

#ifndef DITILE_SIM_TRAINING_ENGINE_HH
#define DITILE_SIM_TRAINING_ENGINE_HH

#include "model/training.hh"
#include "sim/execution_plan.hh"

namespace ditile::sim {

/**
 * Outcome of one simulated training iteration.
 */
struct TrainingResult
{
    /** The embedded forward (inference) pass. */
    RunResult forward;

    Cycle backwardComputeCycles = 0;
    Cycle backwardCommCycles = 0;
    Cycle allReduceCycles = 0;
    Cycle weightUpdateCycles = 0;

    /** End-to-end iteration time (forward + overlapped backward +
     *  all-reduce + update). */
    Cycle iterationCycles = 0;

    /** Whole-iteration operation counts (model-level). */
    model::TrainingOps ops;

    /** Whole-iteration energy. */
    energy::EnergyBreakdown energy;
};

/**
 * Simulate one training iteration over the dynamic graph: the plan's
 * inference as the forward pass, then the backward sweep, all-reduce
 * and update on the plan's hardware and mapping.
 */
TrainingResult runTrainingIteration(const graph::DynamicGraph &dg,
                                    const ExecutionPlan &plan);

} // namespace ditile::sim

#endif // DITILE_SIM_TRAINING_ENGINE_HH
