#include "storage/column.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "util/assert.hpp"

namespace eidb::storage {

namespace {

/// Overlap of [lo, hi] with [min, max] as a fraction of the value domain.
double uniform_overlap(double lo, double hi, double min, double max) {
  if (hi < lo || hi < min || lo > max) return 0.0;
  const double width = max - min;
  if (width <= 0) return 1.0;  // single-valued column: full overlap
  return std::min(1.0, (std::min(hi, max) - std::max(lo, min)) / width);
}

/// Distinct estimate from an evenly-strided sample: exact when the sample
/// covers the column, linearly extrapolated when repeats have not yet
/// saturated the sample. Coarse by design — it feeds cost estimates, not
/// results.
template <typename T>
std::uint64_t estimate_distinct(std::span<const T> values) {
  constexpr std::size_t kSampleLimit = 1 << 16;
  const std::size_t n = values.size();
  if (n == 0) return 0;
  const std::size_t stride = std::max<std::size_t>(1, n / kSampleLimit);
  std::unordered_set<std::int64_t> seen;
  std::size_t sampled = 0;
  for (std::size_t i = 0; i < n; i += stride) {
    std::int64_t key;
    if constexpr (std::is_same_v<T, double>) {
      std::memcpy(&key, &values[i], sizeof key);  // distinct bit patterns
    } else {
      key = static_cast<std::int64_t>(values[i]);
    }
    seen.insert(key);
    ++sampled;
  }
  if (stride == 1) return seen.size();
  // Repeats in the sample indicate saturation; otherwise scale up.
  const double ratio =
      static_cast<double>(seen.size()) / static_cast<double>(sampled);
  if (ratio < 0.9) return seen.size();
  return static_cast<std::uint64_t>(ratio * static_cast<double>(n));
}

}  // namespace

std::string encoding_name(Encoding e) {
  switch (e) {
    case Encoding::kPlain:
      return "plain";
    case Encoding::kBitPacked:
      return "bitpacked";
    case Encoding::kForBitPacked:
      return "for-bitpacked";
  }
  return "?";
}

unsigned packed_width(const ColumnStats& stats, TypeId type,
                      Encoding encoding) {
  // Widths from the cached statistics; unsigned arithmetic survives
  // hash-like int64 spreads that overflow the signed domain() helper.
  switch (encoding) {
    case Encoding::kPlain:
      return static_cast<unsigned>(physical_size(type)) * 8;
    case Encoding::kBitPacked:
      return stats.rows == 0
                 ? 0
                 : bits_for_width(static_cast<std::uint64_t>(stats.max));
    case Encoding::kForBitPacked:
      return stats.rows == 0
                 ? 0
                 : bits_for_width(static_cast<std::uint64_t>(stats.max) -
                                  static_cast<std::uint64_t>(stats.min));
  }
  return 0;
}

Encoding choose_encoding(const ColumnStats& stats, TypeId type,
                         unsigned* bits_out) {
  if (type == TypeId::kDouble) return Encoding::kPlain;
  if (stats.rows == 0) return Encoding::kPlain;  // nothing to save
  const unsigned plain_bits = packed_width(stats, type, Encoding::kPlain);
  const unsigned for_bits =
      packed_width(stats, type, Encoding::kForBitPacked);
  const unsigned raw_bits =
      stats.min >= 0 ? packed_width(stats, type, Encoding::kBitPacked)
                     : plain_bits;  // negative domain: inapplicable
  // Prefer the reference-free layout when FOR saves nothing on top of it
  // (covers the all-zero column: raw_bits == for_bits == 0).
  Encoding chosen;
  unsigned bits;
  if (stats.min >= 0 && raw_bits <= for_bits) {
    chosen = Encoding::kBitPacked;
    bits = raw_bits;
  } else {
    chosen = Encoding::kForBitPacked;
    bits = for_bits;
  }
  // Compare materialized byte sizes, not per-value widths: the packed
  // image rounds up to whole 64-bit words, which can exceed the plain
  // array for tiny columns at near-full widths — and the dram(packed) <=
  // dram(plain) ledger invariant must hold for every encoded column.
  if (bits >= plain_bits ||
      packed_word_count(stats.rows, bits) * sizeof(std::uint64_t) >=
          stats.rows * physical_size(type))
    return Encoding::kPlain;  // no traffic saving
  if (bits_out != nullptr) *bits_out = bits;
  return chosen;
}

double ColumnStats::range_selectivity(std::int64_t lo, std::int64_t hi) const {
  if (rows == 0) return 0.0;
  if (hi < lo || hi < min || lo > max) return 0.0;
  // Inclusive integer widths: a point predicate on an N-value domain is
  // 1/N, not 0 (the continuous formula under-counts discrete domains).
  const double overlap = static_cast<double>(std::min(hi, max)) -
                         static_cast<double>(std::max(lo, min)) + 1.0;
  const double width =
      static_cast<double>(max) - static_cast<double>(min) + 1.0;
  return std::min(1.0, overlap / width);
}

double ColumnStats::range_selectivity(double lo, double hi) const {
  if (rows == 0) return 0.0;
  return uniform_overlap(lo, hi, dmin, dmax);
}

Column::Column(std::string name, TypeId type)
    : name_(std::move(name)), type_(type) {}

void Column::reserve(std::size_t rows) {
  ensure_capacity(rows);
}

void Column::ensure_capacity(std::size_t rows) {
  const std::size_t need = rows * physical_size(type_);
  if (need > data_.size())
    data_.grow(std::max(need, data_.size() == 0 ? std::size_t{4096}
                                                : data_.size() * 2));
}

template <typename T>
void Column::append_raw(T v) {
  ensure_capacity(count_ + 1);
  data_.as_span<T>()[count_] = v;
  ++count_;
  stats_.reset();  // appended data invalidates cached statistics
  segment_.reset();  // ... and any packed image built from them
  ddict_.reset();
  dcodes_.reset();
}

void Column::append_int32(std::int32_t v) {
  EIDB_EXPECTS(type_ == TypeId::kInt32 || type_ == TypeId::kString);
  append_raw(v);
}

void Column::append_int64(std::int64_t v) {
  EIDB_EXPECTS(type_ == TypeId::kInt64);
  append_raw(v);
}

void Column::append_double(double v) {
  EIDB_EXPECTS(type_ == TypeId::kDouble);
  append_raw(v);
}

Column Column::from_int32(std::string name, std::span<const std::int32_t> v) {
  Column c(std::move(name), TypeId::kInt32);
  c.ensure_capacity(v.size());
  if (!v.empty()) std::memcpy(c.data_.data(), v.data(), v.size_bytes());
  c.count_ = v.size();
  return c;
}

Column Column::from_int64(std::string name, std::span<const std::int64_t> v) {
  Column c(std::move(name), TypeId::kInt64);
  c.ensure_capacity(v.size());
  if (!v.empty()) std::memcpy(c.data_.data(), v.data(), v.size_bytes());
  c.count_ = v.size();
  return c;
}

Column Column::from_double(std::string name, std::span<const double> v) {
  Column c(std::move(name), TypeId::kDouble);
  c.ensure_capacity(v.size());
  if (!v.empty()) std::memcpy(c.data_.data(), v.data(), v.size_bytes());
  c.count_ = v.size();
  return c;
}

Column Column::from_strings(std::string name,
                            const std::vector<std::string>& values) {
  Column c(std::move(name), TypeId::kString);
  auto dict = std::make_shared<Dictionary>(Dictionary::build(values));
  c.ensure_capacity(values.size());
  auto out = c.data_.as_span<std::int32_t>();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto code = dict->code_of(values[i]);
    EIDB_ASSERT(code.has_value());
    out[i] = *code;
  }
  c.count_ = values.size();
  c.dict_ = std::move(dict);
  return c;
}

std::span<const std::int32_t> Column::int32_data() const {
  EIDB_EXPECTS(type_ == TypeId::kInt32 || type_ == TypeId::kString);
  return data_.as_span<const std::int32_t>().subspan(0, count_);
}

std::span<const std::int64_t> Column::int64_data() const {
  EIDB_EXPECTS(type_ == TypeId::kInt64);
  return data_.as_span<const std::int64_t>().subspan(0, count_);
}

std::span<const double> Column::double_data() const {
  EIDB_EXPECTS(type_ == TypeId::kDouble);
  return data_.as_span<const double>().subspan(0, count_);
}

std::span<const std::int32_t> Column::codes() const {
  EIDB_EXPECTS(type_ == TypeId::kString);
  return data_.as_span<const std::int32_t>().subspan(0, count_);
}

const Dictionary& Column::dictionary() const {
  EIDB_EXPECTS(dict_ != nullptr);
  return *dict_;
}

void Column::build_double_dictionary() {
  EIDB_EXPECTS(type_ == TypeId::kDouble);
  const auto data = double_data();
  auto dict = std::make_shared<DoubleDictionary>(
      DoubleDictionary::build({data.begin(), data.end()}));
  if (dict->empty() && count_ > 0) return;  // NaN present: no code domain
  auto codes = std::make_shared<std::vector<std::int32_t>>(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    const auto code = dict->code_of(data[i]);
    EIDB_ASSERT(code.has_value());
    (*codes)[i] = *code;
  }
  ddict_ = std::move(dict);
  dcodes_ = std::move(codes);
}

const DoubleDictionary& Column::double_dictionary() const {
  EIDB_EXPECTS(ddict_ != nullptr);
  return *ddict_;
}

std::span<const std::int32_t> Column::double_codes() const {
  EIDB_EXPECTS(dcodes_ != nullptr);
  return *dcodes_;
}

Value Column::value_at(std::size_t i) const {
  EIDB_EXPECTS(i < count_);
  switch (type_) {
    case TypeId::kInt32:
      return Value{std::int64_t{int32_data()[i]}};
    case TypeId::kInt64:
      return Value{int64_data()[i]};
    case TypeId::kDouble:
      return Value{double_data()[i]};
    case TypeId::kString:
      return Value{dictionary().at(codes()[i])};
  }
  EIDB_ASSERT(false);
  return {};
}

std::int64_t Column::int_at(std::size_t i) const {
  EIDB_EXPECTS(type_ != TypeId::kDouble);
  EIDB_EXPECTS(i < count_);
  if (type_ == TypeId::kInt64)
    return data_.as_span<const std::int64_t>()[i];
  return data_.as_span<const std::int32_t>()[i];  // int32 or string codes
}

std::span<std::int32_t> Column::mutable_int32() {
  EIDB_EXPECTS(type_ == TypeId::kInt32 || type_ == TypeId::kString);
  stats_.reset();
  segment_.reset();
  return data_.as_span<std::int32_t>().subspan(0, count_);
}

std::span<std::int64_t> Column::mutable_int64() {
  EIDB_EXPECTS(type_ == TypeId::kInt64);
  stats_.reset();
  segment_.reset();
  return data_.as_span<std::int64_t>().subspan(0, count_);
}

std::span<double> Column::mutable_double() {
  EIDB_EXPECTS(type_ == TypeId::kDouble);
  stats_.reset();
  segment_.reset();
  ddict_.reset();
  dcodes_.reset();
  return data_.as_span<double>().subspan(0, count_);
}

const ColumnStats& Column::stats() const {
  if (stats_ == nullptr) {
    auto s = std::make_shared<ColumnStats>();
    s->rows = count_;
    if (count_ > 0) {
      switch (type_) {
        case TypeId::kInt64: {
          const auto data = int64_data();
          const auto [mn, mx] = std::minmax_element(data.begin(), data.end());
          s->min = *mn;
          s->max = *mx;
          s->distinct = estimate_distinct(data);
          break;
        }
        case TypeId::kInt32: {
          const auto data = int32_data();
          const auto [mn, mx] = std::minmax_element(data.begin(), data.end());
          s->min = *mn;
          s->max = *mx;
          s->distinct = estimate_distinct(data);
          break;
        }
        case TypeId::kString: {
          const auto data = codes();
          const auto [mn, mx] = std::minmax_element(data.begin(), data.end());
          s->min = *mn;
          s->max = *mx;
          s->distinct = dictionary().size();  // exact by construction
          break;
        }
        case TypeId::kDouble: {
          const auto data = double_data();
          const auto [mn, mx] = std::minmax_element(data.begin(), data.end());
          s->dmin = *mn;
          s->dmax = *mx;
          s->distinct = estimate_distinct(data);
          break;
        }
      }
    }
    stats_ = std::move(s);
  }
  return *stats_;
}

PackedView Column::packed_view() const {
  EIDB_EXPECTS(segment_ != nullptr);
  return segment_->view();
}

Encoding Column::choose_encoding() const {
  return eidb::storage::choose_encoding(stats(), type_);
}

void Column::build_segment(Encoding e) {
  if (e == Encoding::kPlain) {
    segment_.reset();
    return;
  }
  if (type_ == TypeId::kDouble)
    throw Error("cannot encode double column " + name_);
  const ColumnStats& s = stats();
  auto seg = std::make_shared<EncodedSegment>();
  seg->encoding = e;
  seg->count = count_;
  if (e == Encoding::kBitPacked) {
    if (s.rows > 0 && s.min < 0)
      throw Error("bitpacked encoding requires a non-negative domain: " +
                  name_);
    seg->reference = 0;
  } else {
    seg->reference = s.rows == 0 ? 0 : s.min;
  }
  seg->bits = packed_width(s, type_, e);
  // Shift into the packed domain and pack. Unsigned subtraction is exact
  // modulo 2^64, so even spreads beyond int64 round-trip correctly.
  std::vector<std::uint64_t> shifted(count_);
  const auto ref = static_cast<std::uint64_t>(seg->reference);
  if (type_ == TypeId::kInt64) {
    const auto data = int64_data();
    for (std::size_t i = 0; i < count_; ++i)
      shifted[i] = static_cast<std::uint64_t>(data[i]) - ref;
  } else {
    const auto data = data_.as_span<const std::int32_t>().subspan(0, count_);
    for (std::size_t i = 0; i < count_; ++i)
      shifted[i] = static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(data[i])) -
                   ref;
  }
  seg->words = bitpack(shifted, seg->bits);
  segment_ = std::move(seg);
}

void Column::set_encoding(Encoding e) {
  forced_encoding_ = e;
  build_segment(e);
}

void Column::auto_encode() {
  const Encoding want =
      forced_encoding_ ? *forced_encoding_ : choose_encoding();
  if (segment_ == nullptr ? want == Encoding::kPlain
                          : segment_->encoding == want &&
                                segment_->count == count_)
    return;
  build_segment(want);
}

}  // namespace eidb::storage
