#ifndef ARMBENCH_SCORE_MODEL_H_
#define ARMBENCH_SCORE_MODEL_H_

// The vocabulary and model of the `score` workload, shared with the
// calibration tool (calibrate.cc) that measured the model's embedding scale.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/arm_net.h"
#include "data/dataset.h"
#include "data/feature_space.h"

namespace armbench {

using Cells = std::vector<std::string>;

// The score workload's Criteo layout multiplies the CriteoColumns base
// cardinalities by this: 240,829 embedding rows, a 9.6 MB float32 table.
inline constexpr double kScoreCardinalityScale = 0.5;

// Standard deviation of the embedding rows that scoring looks up, in a
// Table 3 ARM-Net trained with armor::Fit on this layout until early
// stopping (0.0155; the initial table's is 0.0099). `armbench_calibrate`
// measures it; README.md records the run.
inline constexpr double kScoreEmbeddingStd = 0.0155;

// Writes "label,<columns...>" to `path`: first one row per category index
// of the widest column, row r holding category r mod cardinality in every
// categorical column (so every category occurs; numericals and labels are
// drawn from `gen`), then `extra_rows` rows drawn from `gen`. Returns the
// number of vocabulary rows written before the extra ones.
int64_t WriteVocabCsv(TableGen& gen, int64_t extra_rows,
                      const std::string& path);

// Which columns of `columns` are numerical, for LoadCsvWithVocab.
std::vector<bool> NumericalMask(const std::vector<Column>& columns);

// The score model: ArmNet at the Table 3 configuration, initialised from a
// fixed seed, so it is the same for every workload seed.
std::unique_ptr<armnet::core::ArmNet> MakeScoreModel(int64_t num_features,
                                                     int num_fields);

// The model's embedding table [num_features, n_e].
armnet::Variable EmbeddingTable(const armnet::core::ArmNet& model,
                                int64_t num_features);

// `count` draws from N(0, std^2) with the benchmark's own generator.
std::vector<float> DrawNormal(int64_t count, double std, uint64_t seed);

// Maps cell rows through `space` (the serving-time mapping) into a dataset
// for reference forwards, with label 0.
armnet::data::Dataset MapRows(const armnet::data::FeatureSpace& space,
                              const std::vector<Cells>& rows);

}  // namespace armbench

#endif  // ARMBENCH_SCORE_MODEL_H_
