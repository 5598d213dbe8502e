#include "model/checkpoint.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

namespace hanayo::model {

namespace {

constexpr char kMagic[8] = {'H', 'A', 'N', 'A', 'Y', 'O', '0', '1'};

void write_u64(std::ostream& os, uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

uint64_t read_u64(std::istream& is) {
  uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("checkpoint: truncated file");
  return v;
}

// Highest tensor rank a checkpoint holds; save and scan both enforce it.
constexpr uint64_t kMaxDims = 8;

struct Record {
  std::string name;
  tensor::Shape shape;
  std::streampos data_pos;
};

struct Index {
  std::vector<Record> records;             // file order
  std::map<std::string, size_t> by_name;   // name -> position in records
};

/// Scans the file's headers. Every length a header declares is bounded by
/// the bytes left in the file before anything is sized by it, so a corrupt
/// or truncated file throws std::runtime_error, never std::bad_alloc.
Index scan(std::istream& is) {
  is.seekg(0, std::ios::end);
  const auto size = static_cast<uint64_t>(is.tellg());
  is.seekg(0);
  const auto left = [&] { return size - static_cast<uint64_t>(is.tellg()); };
  char magic[8];
  is.read(magic, 8);
  if (!is || std::memcmp(magic, kMagic, 8) != 0) {
    throw std::runtime_error("checkpoint: bad magic");
  }
  const uint64_t count = read_u64(is);
  Index out;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t name_len = read_u64(is);
    if (name_len > left()) throw std::runtime_error("checkpoint: truncated header");
    std::string name(name_len, '\0');
    is.read(name.data(), static_cast<std::streamsize>(name_len));
    const uint64_t ndims = read_u64(is);
    if (ndims > kMaxDims) {
      throw std::runtime_error("checkpoint: bad rank for " + name);
    }
    const uint64_t max_numel = left() / sizeof(float);
    tensor::Shape shape;
    uint64_t numel = 1;
    for (uint64_t d = 0; d < ndims; ++d) {
      const uint64_t dim = read_u64(is);
      // numel * dim <= max_numel without overflowing; the first test also
      // bounds a dim that a zero elsewhere would hide.
      if (dim > max_numel || (dim != 0 && numel > max_numel / dim)) {
        throw std::runtime_error("checkpoint: bad shape for " + name);
      }
      numel *= dim;
      shape.push_back(static_cast<int64_t>(dim));
    }
    if (numel * sizeof(float) > left()) {
      throw std::runtime_error("checkpoint: truncated data for " + name);
    }
    if (!out.by_name.emplace(name, out.records.size()).second) {
      throw std::runtime_error("checkpoint: duplicate record " + name);
    }
    out.records.push_back({std::move(name), std::move(shape), is.tellg()});
    is.seekg(static_cast<std::streamoff>(numel * sizeof(float)), std::ios::cur);
  }
  return out;
}

}  // namespace

void save_checkpoint(const std::string& path,
                     const std::vector<NamedTensor>& records) {
  // Write a sibling temporary and rename it over `path` only once it is
  // complete, so a failed save leaves the previous checkpoint intact.
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) throw std::runtime_error("checkpoint: cannot open " + path);
    os.write(kMagic, 8);
    write_u64(os, records.size());
    for (const NamedTensor& r : records) {
      if (r.tensor == nullptr ||
          static_cast<uint64_t>(r.tensor->dim()) > kMaxDims) {
        throw std::invalid_argument("checkpoint: null or rank > 8 tensor for " +
                                    r.name);
      }
      write_u64(os, r.name.size());
      os.write(r.name.data(), static_cast<std::streamsize>(r.name.size()));
      write_u64(os, r.tensor->shape().size());
      for (int64_t d : r.tensor->shape()) write_u64(os, static_cast<uint64_t>(d));
      os.write(reinterpret_cast<const char*>(r.tensor->data()),
               static_cast<std::streamsize>(r.tensor->bytes()));
    }
    os.close();
    if (!os) throw std::runtime_error("checkpoint: write failed for " + path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: cannot replace " + path);
  }
}

void save_checkpoint(const std::string& path,
                     const std::vector<Param*>& params) {
  std::vector<NamedTensor> records;
  records.reserve(params.size());
  for (const Param* p : params) records.push_back({p->name, &p->value});
  save_checkpoint(path, records);
}

std::map<std::string, tensor::Tensor> load_all(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  const Index index = scan(is);
  is.clear();
  std::map<std::string, tensor::Tensor> out;
  for (const Record& rec : index.records) {
    tensor::Tensor t(rec.shape);
    is.seekg(rec.data_pos);
    is.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.bytes()));
    if (!is) throw std::runtime_error("checkpoint: truncated data for " + rec.name);
    out.emplace(rec.name, std::move(t));
  }
  return out;
}

void load_checkpoint(const std::string& path,
                     const std::vector<Param*>& params) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  const Index index = scan(is);
  is.clear();
  for (Param* p : params) {
    const auto it = index.by_name.find(p->name);
    if (it == index.by_name.end()) {
      throw std::runtime_error("checkpoint: missing parameter " + p->name);
    }
    const Record& rec = index.records[it->second];
    if (rec.shape != p->value.shape()) {
      throw std::runtime_error("checkpoint: shape mismatch for " + p->name);
    }
    is.seekg(rec.data_pos);
    is.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.bytes()));
    if (!is) throw std::runtime_error("checkpoint: truncated data for " + p->name);
  }
}

std::vector<std::string> checkpoint_names(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  std::vector<std::string> names;
  for (Record& rec : scan(is).records) names.push_back(std::move(rec.name));
  return names;
}

}  // namespace hanayo::model
