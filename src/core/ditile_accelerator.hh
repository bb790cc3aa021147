/**
 * @file
 * DiTile-DGNN: the paper's accelerator (public façade).
 *
 * Composes the Figure-5 pipeline: workload computation ->
 * parallelization strategy adjustment (Algorithm 1) -> balanced and
 * dynamic workload generation (Algorithm 2) -> redundant-free
 * execution planning -> NoC reconfiguration -> execution on the
 * reconfigurable distributed tile array. The three contribution
 * toggles drive the Figure-11(b) ablation variants. Build
 * accelerators by name through core/catalog.hh.
 */

#ifndef DITILE_CORE_DITILE_ACCELERATOR_HH
#define DITILE_CORE_DITILE_ACCELERATOR_HH

#include <string>

#include "sim/accelerator.hh"

namespace ditile::core {

class SharedFrontEnd;

/**
 * Contribution toggles (all on == the full DiTile-DGNN).
 */
struct DiTileOptions
{
    bool parallelismStrategy = true;  ///< Algorithm 1 (Ps in Fig. 11b).
    bool workloadBalance = true;      ///< Algorithm 2 (Wos in Fig. 11b).
    bool reconfigurableNoc = true;    ///< Re-Link array (Ra in Fig. 11b).

    /** Time compute with the PE-level tile model (slower, finer). */
    bool detailedTileTiming = false;

    /** The six ablation variants plus the full design, by name. */
    static DiTileOptions fromVariant(const std::string &variant);
};

/**
 * The DiTile-DGNN accelerator model. It holds only its hardware and
 * options: plan() is a pure function of (graph, model config, plan
 * cache, this configuration), and every front-end output it derives
 * (Algorithm 1's parallel plan, Algorithm 2's mapping and groups)
 * travels in the returned ExecutionPlan. One instance serves any
 * number of threads.
 */
class DiTileAccelerator : public sim::Accelerator
{
  public:
    explicit DiTileAccelerator(
        sim::AcceleratorConfig hw = sim::AcceleratorConfig::defaults(),
        DiTileOptions options = {});

    std::string name() const override;

    /**
     * Runs the full Figure-5 front end (workload computation,
     * Algorithm 1, Algorithm 2, execution planning, NoC mode) and
     * packages its outputs as one ExecutionPlan; run() (inherited)
     * replays it.
     */
    sim::ExecutionPlan plan(const graph::DynamicGraph &dg,
                            const model::DgnnConfig &model_config,
                            sim::PlanCache *cache = nullptr) const override;

    /**
     * Same plan, drawing the graph-determined front-end prefix
     * (workload loads + Algorithm 1) from a SharedFrontEnd so a
     * batch of runs over one graph builds it once. Bit-identical to
     * plan(dg, model_config, cache); shared may be null.
     */
    sim::ExecutionPlan plan(const graph::DynamicGraph &dg,
                            const model::DgnnConfig &model_config,
                            sim::PlanCache *cache,
                            SharedFrontEnd *shared) const;

    const DiTileOptions &options() const { return options_; }
    const sim::AcceleratorConfig &hardware() const { return hw_; }

  private:
    sim::AcceleratorConfig hw_;
    DiTileOptions options_;
};

} // namespace ditile::core

#endif // DITILE_CORE_DITILE_ACCELERATOR_HH
