/**
 * @file
 * Registry of the paper's six evaluation datasets (Table 1).
 *
 * Each entry records the published vertex/edge/feature counts plus the
 * defaults the reproduction uses: a scale factor that keeps the largest
 * graphs tractable on one machine, the snapshot count, and a per-dataset
 * dissimilarity rate inside the paper's observed 4.1-13.3% band.
 * makeDataset() synthesizes a matched dynamic graph (see generator.hh
 * for the substitution rationale).
 */

#ifndef DITILE_GRAPH_DATASETS_HH
#define DITILE_GRAPH_DATASETS_HH

#include <string>
#include <vector>

#include "graph/generator.hh"

namespace ditile::graph {

/**
 * Published metadata plus reproduction defaults for one dataset.
 */
struct DatasetSpec
{
    std::string name;         ///< Full name, e.g. "PubMed".
    std::string abbrev;       ///< Paper abbreviation, e.g. "PM".
    std::string description;  ///< Table-1 category.
    VertexId vertices;        ///< Published vertex count.
    EdgeId edges;             ///< Published edge count.
    int features;             ///< Published input feature width.
    double defaultScale;      ///< Reproduction default scale factor.
    double dissimilarity;     ///< Default inter-snapshot dissimilarity.
};

/** All six Table-1 datasets in paper order (PM, RD, MB, TW, WD, FK). */
const std::vector<DatasetSpec> &datasetRegistry();

/** Look up a dataset by name or abbreviation (case-insensitive). */
const DatasetSpec &findDataset(const std::string &name_or_abbrev);

/**
 * Options controlling dataset synthesis.
 */
struct DatasetOptions
{
    double scale = 0.0;        ///< 0 => use the spec's defaultScale.
    SnapshotId numSnapshots = 8;
    double dissimilarity = 0.0; ///< 0 => use the spec's default.
    std::uint64_t seed = 0;     ///< 0 => derived from the dataset name.
};

/** The generator inputs makeDataset() uses for a spec and options. */
EvolutionConfig datasetConfig(const DatasetSpec &spec,
                              const DatasetOptions &options = {});

/**
 * Synthesize the dynamic graph for a dataset spec.
 *
 * Vertex and edge counts are multiplied by the scale factor (minimum 64
 * vertices); feature width is kept at the published value because it
 * determines per-vertex traffic, not graph size.
 */
DynamicGraph makeDataset(const DatasetSpec &spec,
                         const DatasetOptions &options = {});

/** Convenience overload: by name/abbreviation. */
DynamicGraph makeDataset(const std::string &name_or_abbrev,
                         const DatasetOptions &options = {});

} // namespace ditile::graph

#endif // DITILE_GRAPH_DATASETS_HH
