/**
 * @file
 * Abstract accelerator interface: plan construction and plan replay.
 */

#ifndef DITILE_SIM_ACCELERATOR_HH
#define DITILE_SIM_ACCELERATOR_HH

#include <memory>
#include <string>

#include "graph/dynamic_graph.hh"
#include "model/dgnn_config.hh"
#include "sim/execution_plan.hh"
#include "sim/run_result.hh"

namespace ditile::sim {

class PlanCache;

/**
 * One accelerator model: plans a DGNN inference over a dynamic graph
 * (the Figure-5 front end), executes the plan, and reports timing,
 * traffic and energy.
 *
 * The two halves are separable: plan() is pure analysis whose output
 * serializes, caches, and replays; execute() is a deterministic replay
 * of a plan at any thread count. run() is the one-shot convenience
 * combining both — `run(dg, m)` and `execute(dg, plan(dg, m))` return
 * bit-identical results (asserted by plan_test.cc).
 *
 * An accelerator is a stateless plan builder: plan() is `const` and a
 * function of its arguments and the accelerator's configuration alone,
 * so one instance plans for any number of threads at once.
 */
class Accelerator
{
  public:
    virtual ~Accelerator() = default;

    /** Display name, e.g. "ReaDy" or "DiTile-DGNN". */
    virtual std::string name() const = 0;

    /**
     * Build the complete execution plan for one inference. When a
     * PlanCache is supplied, the expensive per-snapshot planning is
     * fetched from (or published to) the cache.
     */
    virtual ExecutionPlan plan(const graph::DynamicGraph &dg,
                               const model::DgnnConfig &model_config,
                               PlanCache *cache = nullptr) const = 0;

    /** Replay a previously built plan. */
    RunResult
    execute(const graph::DynamicGraph &dg,
            const ExecutionPlan &execution_plan) const
    {
        return executePlan(dg, execution_plan);
    }

    /** Simulate one full inference (plan + execute). */
    RunResult
    run(const graph::DynamicGraph &dg,
        const model::DgnnConfig &model_config) const
    {
        return execute(dg, plan(dg, model_config));
    }
};

} // namespace ditile::sim

#endif // DITILE_SIM_ACCELERATOR_HH
