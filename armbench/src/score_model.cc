#include "score_model.h"

#include <algorithm>
#include <fstream>

#include "util/check.h"
#include "util/rng.h"

namespace armbench {

int64_t WriteVocabCsv(TableGen& gen, int64_t extra_rows,
                      const std::string& path) {
  const std::vector<Column>& columns = gen.columns();
  int64_t widest = 0;
  for (const Column& c : columns) widest = std::max(widest, c.cardinality);
  std::ofstream out(path, std::ios::trunc);
  std::string line = "label";
  for (const Column& c : columns) {
    line += ',';
    line += c.name;
  }
  out << line << '\n';
  Cells cells;
  for (int64_t r = 0; r < widest + extra_rows; ++r) {
    const int label = gen.Row(&cells);
    line.assign(1, label ? '1' : '0');
    for (size_t f = 0; f < columns.size(); ++f) {
      line += ',';
      line += columns[f].numerical || r >= widest
                  ? cells[f]
                  : gen.Token(static_cast<int>(f), r % columns[f].cardinality);
    }
    out << line << '\n';
  }
  ARMNET_CHECK(out.good());
  return widest;
}

std::vector<bool> NumericalMask(const std::vector<Column>& columns) {
  std::vector<bool> numerical;
  for (const Column& c : columns) numerical.push_back(c.numerical);
  return numerical;
}

std::unique_ptr<armnet::core::ArmNet> MakeScoreModel(int64_t num_features,
                                                     int num_fields) {
  armnet::Rng rng(7);
  return std::make_unique<armnet::core::ArmNet>(num_features, num_fields,
                                                Table3Config(), rng);
}

armnet::Variable EmbeddingTable(const armnet::core::ArmNet& model,
                                int64_t num_features) {
  armnet::Variable table;
  for (const armnet::Variable& p : model.Parameters()) {
    if (p.shape().rank() == 2 && p.shape().dim(0) == num_features) table = p;
  }
  ARMNET_CHECK(table.defined()) << "cannot identify the embedding table";
  return table;
}

std::vector<float> DrawNormal(int64_t count, double std, uint64_t seed) {
  BenchRng draw(seed);
  std::vector<float> out(static_cast<size_t>(count));
  for (float& w : out) w = static_cast<float>(std * draw.Normal());
  return out;
}

armnet::data::Dataset MapRows(const armnet::data::FeatureSpace& space,
                              const std::vector<Cells>& rows) {
  armnet::data::Dataset dataset(space.schema());
  armnet::data::MappedRow mapped;
  for (const Cells& cells : rows) {
    const armnet::Status status = space.MapRow(cells, &mapped);
    ARMNET_CHECK(status.ok()) << status.message();
    dataset.Append(mapped.ids, mapped.values, 0.0f);
  }
  return dataset;
}

}  // namespace armbench
