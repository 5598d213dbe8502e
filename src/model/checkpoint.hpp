#pragma once
// Parameter checkpointing: save/restore named parameters to a compact
// binary format. Enables the paper's fine-tuning scenario (§5.5: "users
// seek to adjust the released public model weights") — pre-train with one
// parallel configuration, reload with another: the name-addressed format is
// partition-independent.

#include <map>
#include <string>
#include <vector>

#include "model/layers.hpp"

namespace hanayo::model {

/// Writes (name, shape, fp32 data) records for every parameter. The file
/// is written as `path + ".tmp"` and renamed over `path` only after it is
/// complete, so a failed save leaves the previous checkpoint in place.
/// Throws std::runtime_error on I/O failure.
void save_checkpoint(const std::string& path,
                     const std::vector<Param*>& params);

/// Loads parameters by name into `params`. Parameters present in `params`
/// but absent from the file throw; extra records in the file are ignored
/// (a worker owning one pipeline stage loads just its slice). Shape
/// mismatches throw. Every reader throws std::runtime_error on a
/// truncated or corrupt file (header lengths are checked against the file
/// size before use) and on two records of one name.
void load_checkpoint(const std::string& path,
                     const std::vector<Param*>& params);

/// Names stored in a checkpoint, in file order.
std::vector<std::string> checkpoint_names(const std::string& path);

/// A named tensor record for non-parameter state (optimizer slots, step
/// counters). The tensor is borrowed for the duration of the call.
struct NamedTensor {
  std::string name;
  const tensor::Tensor* tensor = nullptr;
};

/// Writes a checkpoint from explicit (name, tensor) records — the generic
/// form used for full training-state checkpoints.
void save_checkpoint(const std::string& path,
                     const std::vector<NamedTensor>& records);

/// Loads every record in the file. For selective loads prefer
/// `load_checkpoint(path, params)`.
std::map<std::string, tensor::Tensor> load_all(const std::string& path);

}  // namespace hanayo::model
