#include "data/feature_space.h"

#include <algorithm>
#include <utility>

#include "nn/serialize.h"
#include "util/check.h"
#include "util/string_util.h"

namespace armnet::data {

FeatureSpace::FeatureSpace(std::vector<FieldVocab> fields,
                           double positive_rate)
    : fields_(std::move(fields)), positive_rate_(positive_rate) {
  std::vector<FieldSpec> specs;
  specs.reserve(fields_.size());
  lookup_.resize(fields_.size());
  for (size_t f = 0; f < fields_.size(); ++f) {
    const FieldVocab& fv = fields_[f];
    FieldSpec spec;
    spec.name = fv.name;
    spec.type = fv.type;
    if (fv.type == FieldType::kCategorical) {
      spec.cardinality = static_cast<int64_t>(fv.tokens.size()) + 1;
      auto& map = lookup_[f];
      map.reserve(fv.tokens.size());
      for (size_t i = 0; i < fv.tokens.size(); ++i) {
        map.emplace(fv.tokens[i], static_cast<int64_t>(i) + 1);
      }
    } else {
      spec.cardinality = 1;
    }
    specs.push_back(std::move(spec));
  }
  schema_ = Schema(std::move(specs));
}

void FeatureSpace::set_drift_reference(DriftReference ref) {
  if (ref.valid()) {
    ARMNET_CHECK_EQ(static_cast<int>(ref.score_histogram.size()),
                    kDriftScoreBins);
    if (ref.baseline_oov_rate.empty()) {
      ref.baseline_oov_rate.assign(static_cast<size_t>(num_fields()), 0.0);
    }
    if (ref.baseline_clamp_rate.empty()) {
      ref.baseline_clamp_rate.assign(static_cast<size_t>(num_fields()), 0.0);
    }
    ARMNET_CHECK_EQ(static_cast<int>(ref.baseline_oov_rate.size()),
                    num_fields());
    ARMNET_CHECK_EQ(static_cast<int>(ref.baseline_clamp_rate.size()),
                    num_fields());
  }
  drift_reference_ = std::move(ref);
}

Status FeatureSpace::MapRow(const std::vector<std::string>& cells,
                            MappedRow* out) const {
  const int m = num_fields();
  if (static_cast<int>(cells.size()) != m) {
    return Status::Error(StrFormat("expected %d field cells, got %zu", m,
                                   cells.size()));
  }
  out->ids.resize(static_cast<size_t>(m));
  out->values.resize(static_cast<size_t>(m));
  out->oov_fields = 0;
  out->clamped_fields = 0;
  out->oov_field_indices.clear();
  out->clamped_field_indices.clear();
  for (int f = 0; f < m; ++f) {
    const size_t uf = static_cast<size_t>(f);
    const FieldVocab& fv = fields_[uf];
    const std::string& cell = cells[uf];
    if (fv.type == FieldType::kCategorical) {
      const auto& map = lookup_[uf];
      const auto it = map.find(cell);
      int64_t local = kUnkLocalId;
      if (it != map.end()) {
        local = it->second;
      } else {
        ++out->oov_fields;
        out->oov_field_indices.push_back(f);
      }
      out->ids[uf] = schema_.GlobalId(f, local);
      out->values[uf] = 1.0f;
    } else {
      float v = 0;
      if (!ParseFloat(cell, &v)) {
        return Status::Error(StrFormat("field '%s': not a number: '%s'",
                                       fv.name.c_str(), cell.c_str()));
      }
      out->ids[uf] = schema_.GlobalId(f, 0);
      if (fv.hi < fv.lo) {
        // No training data observed for this field: constant mapping.
        out->values[uf] = 1.0f;
        continue;
      }
      if (v < fv.lo || v > fv.hi) {
        v = std::min(std::max(v, fv.lo), fv.hi);
        ++out->clamped_fields;
        out->clamped_field_indices.push_back(f);
      }
      // Identical to the loader's min-max rescale into (0, 1].
      const float range = fv.hi - fv.lo;
      out->values[uf] =
          range > 0 ? (v - fv.lo) / range * 0.999f + 0.001f : 1.0f;
    }
  }
  return Status::Ok();
}

Status SaveFeatureSpace(const FeatureSpace& space, const std::string& path) {
  nn::StateWriter writer(nn::kStateKindServingArtifact);
  writer.WriteU64(static_cast<uint64_t>(space.num_fields()));
  for (const FieldVocab& fv : space.fields()) {
    writer.WriteString(fv.name);
    writer.WriteU32(static_cast<uint32_t>(fv.type));
    if (fv.type == FieldType::kCategorical) {
      writer.WriteU64(fv.tokens.size());
      for (const std::string& token : fv.tokens) writer.WriteString(token);
    } else {
      writer.WriteDouble(fv.lo);
      writer.WriteDouble(fv.hi);
    }
  }
  writer.WriteDouble(space.train_positive_rate());
  // Optional drift-reference block (DESIGN.md §15). Appended after the v1
  // payload so readers predating it still validate: they stop at
  // positive_rate and see AtEnd() only when the block is absent, which is
  // exactly the set of artifacts they can interpret. Newer readers treat
  // an absent block as "drift monitoring disabled".
  if (space.has_drift_reference()) {
    const DriftReference& ref = space.drift_reference();
    writer.WriteU32(1);  // drift block version
    writer.WriteU64(ref.score_histogram.size());
    for (int64_t count : ref.score_histogram) {
      writer.WriteU64(static_cast<uint64_t>(count));
    }
    for (double rate : ref.baseline_oov_rate) writer.WriteDouble(rate);
    for (double rate : ref.baseline_clamp_rate) writer.WriteDouble(rate);
  }
  return writer.Commit(path);
}

StatusOr<FeatureSpace> LoadFeatureSpace(const std::string& path) {
  StatusOr<nn::StateReader> opened =
      nn::StateReader::Open(path, nn::kStateKindServingArtifact);
  if (!opened.ok()) return opened.status();
  nn::StateReader reader = std::move(opened).value();

  uint64_t num_fields = 0;
  Status status = reader.ReadU64(&num_fields);
  if (!status.ok()) return status;
  // Each field record is at least name-length + type bytes; a count beyond
  // the remaining payload is corruption, not data.
  if (num_fields > (uint64_t{1} << 20)) {
    return Status::Error(
        StrFormat("corrupt field count in %s", path.c_str()));
  }
  std::vector<FieldVocab> fields;
  fields.reserve(num_fields);
  for (uint64_t f = 0; f < num_fields; ++f) {
    FieldVocab fv;
    status = reader.ReadString(&fv.name);
    if (!status.ok()) return status;
    uint32_t type = 0;
    status = reader.ReadU32(&type);
    if (!status.ok()) return status;
    if (type > static_cast<uint32_t>(FieldType::kNumerical)) {
      return Status::Error(StrFormat("corrupt field type %u in %s", type,
                                     path.c_str()));
    }
    fv.type = static_cast<FieldType>(type);
    if (fv.type == FieldType::kCategorical) {
      uint64_t token_count = 0;
      status = reader.ReadU64(&token_count);
      if (!status.ok()) return status;
      if (token_count > (uint64_t{1} << 32)) {
        return Status::Error(
            StrFormat("corrupt token count in %s", path.c_str()));
      }
      fv.tokens.reserve(token_count);
      for (uint64_t t = 0; t < token_count; ++t) {
        std::string token;
        status = reader.ReadString(&token);
        if (!status.ok()) return status;
        fv.tokens.push_back(std::move(token));
      }
    } else {
      double lo = 0;
      double hi = 0;
      status = reader.ReadDouble(&lo);
      if (status.ok()) status = reader.ReadDouble(&hi);
      if (!status.ok()) return status;
      fv.lo = static_cast<float>(lo);
      fv.hi = static_cast<float>(hi);
    }
    fields.push_back(std::move(fv));
  }
  double positive_rate = 0;
  status = reader.ReadDouble(&positive_rate);
  if (!status.ok()) return status;
  // Optional trailing drift-reference block: pre-§15 artifacts end here,
  // and load with drift monitoring disabled.
  DriftReference ref;
  if (!reader.AtEnd()) {
    uint32_t block_version = 0;
    status = reader.ReadU32(&block_version);
    if (!status.ok()) return status;
    if (block_version != 1) {
      return Status::Error(StrFormat("unknown drift block version %u in %s",
                                     block_version, path.c_str()));
    }
    uint64_t bins = 0;
    status = reader.ReadU64(&bins);
    if (!status.ok()) return status;
    if (bins != static_cast<uint64_t>(kDriftScoreBins)) {
      return Status::Error(StrFormat("corrupt drift histogram (%zu bins) in %s",
                                     static_cast<size_t>(bins), path.c_str()));
    }
    ref.score_histogram.resize(static_cast<size_t>(bins));
    for (uint64_t b = 0; b < bins; ++b) {
      uint64_t count = 0;
      status = reader.ReadU64(&count);
      if (!status.ok()) return status;
      ref.score_histogram[static_cast<size_t>(b)] =
          static_cast<int64_t>(count);
    }
    ref.baseline_oov_rate.resize(num_fields);
    ref.baseline_clamp_rate.resize(num_fields);
    for (uint64_t f = 0; f < num_fields; ++f) {
      status = reader.ReadDouble(&ref.baseline_oov_rate[f]);
      if (!status.ok()) return status;
    }
    for (uint64_t f = 0; f < num_fields; ++f) {
      status = reader.ReadDouble(&ref.baseline_clamp_rate[f]);
      if (!status.ok()) return status;
    }
  }
  if (!reader.AtEnd()) {
    return Status::Error("trailing bytes in serving artifact: " + path);
  }
  FeatureSpace space(std::move(fields), positive_rate);
  if (ref.valid()) space.set_drift_reference(std::move(ref));
  return space;
}

}  // namespace armnet::data
