#include "query/shared_scan.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "exec/shared_scan.hpp"
#include "hw/accelerator.hpp"
#include "opt/cost_model.hpp"
#include "query/ops/op_context.hpp"
#include "query/ops/pipeline.hpp"
#include "query/ops/scan_filter.hpp"
#include "util/assert.hpp"
#include "util/clock.hpp"

namespace eidb::query {

using storage::Column;
using storage::Table;
using storage::TypeId;

namespace {

/// Streamed representation tag of one predicate column under `options` —
/// two plans only share a pass when every conjunct streams the same bytes
/// (the "encoding-visible column set" of the grouping rule).
std::string column_tag(const Column& col, const ExecOptions& options) {
  const bool packed =
      col.type() != TypeId::kDouble && ops::use_packed(col, options);
  if (packed)
    return col.name() + ":p" + std::to_string(col.encoded()->bits);
  switch (col.type()) {
    case TypeId::kDouble: return col.name() + ":f64";
    case TypeId::kInt64: return col.name() + ":i64";
    case TypeId::kInt32:
    case TypeId::kString: return col.name() + ":i32";
  }
  return col.name();
}

/// Bytes one fused pass streams for `col` (packed image or plain array —
/// for string columns the plain array IS the int32 code array, which is
/// what byte_size() reports).
double streamed_bytes(const Column& col, const ExecOptions& options) {
  const bool packed =
      col.type() != TypeId::kDouble && ops::use_packed(col, options);
  return static_cast<double>(packed ? col.scan_byte_size() : col.byte_size());
}

/// Replicates scan_filter's stats-based pruning: kAll (selection
/// untouched, conjunct dropped), kNone (selection cleared, member done),
/// kScan (evaluate it).
enum class Prune : std::uint8_t { kScan, kAll, kNone };

Prune prune_with_stats(const Column& col, const ops::BoundRange& r) {
  const storage::ColumnStats& s = col.stats();
  if (s.rows == 0) return Prune::kScan;
  const bool all = r.is_double ? (r.dlo <= s.dmin && r.dhi >= s.dmax)
                               : (r.lo <= s.min && r.hi >= s.max);
  if (all) return Prune::kAll;
  const bool none = r.is_double ? (r.dhi < s.dmin || r.dlo > s.dmax)
                                : (r.hi < s.min || r.lo > s.max);
  return none ? Prune::kNone : Prune::kScan;
}

/// One member's fused-pass preparation: bound conjuncts, the columns they
/// stream, and the selection bitmap the pass fills.
struct MemberPrep {
  BitVector selection;
  std::vector<exec::SharedConjunct> conjuncts;
  /// (column, packed) per conjunct, for the group's single scan charge.
  std::vector<std::pair<const Column*, bool>> scanned;
  std::size_t fused_index = SIZE_MAX;  ///< Index into the fused query set.
};

/// Binds and prunes one member's predicates into fused-pass conjuncts,
/// ordered most-selective-first like evaluate_predicates. On a resolved
/// empty result the selection is cleared and no conjunct remains.
MemberPrep prepare_member(const Table& table, const PhysicalPlan& phys,
                          const ExecOptions& options) {
  MemberPrep prep;
  const std::size_t rows = table.row_count();
  prep.selection = BitVector(rows);
  prep.selection.set_all();

  std::vector<const Predicate*> ordered;
  ordered.reserve(phys.logical.predicates.size());
  for (const Predicate& p : phys.logical.predicates) ordered.push_back(&p);
  if (options.order_predicates && ordered.size() > 1) {
    std::vector<double> sel(ordered.size());
    const Predicate* base = phys.logical.predicates.data();
    for (std::size_t i = 0; i < ordered.size(); ++i)
      sel[i] = ops::estimate_predicate_selectivity(
          table.column(ordered[i]->column), *ordered[i]);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [&](const Predicate* a, const Predicate* b) {
                       return sel[static_cast<std::size_t>(a - base)] <
                              sel[static_cast<std::size_t>(b - base)];
                     });
  }

  for (const Predicate* p : ordered) {
    const Column& col = table.column(p->column);
    const ops::BoundRange r = ops::bind_predicate(col, *p);
    if (r.empty) {
      prep.selection.clear_all();
      prep.conjuncts.clear();
      prep.scanned.clear();
      return prep;
    }
    switch (prune_with_stats(col, r)) {
      case Prune::kAll:
        continue;  // every row matches: nothing scanned or charged
      case Prune::kNone:
        prep.selection.clear_all();
        prep.conjuncts.clear();
        prep.scanned.clear();
        return prep;
      case Prune::kScan:
        break;
    }
    if (col.size() == 0) continue;

    exec::SharedConjunct c;
    const bool packed = !r.is_double && ops::use_packed(col, options);
    if (packed) {
      const storage::EncodedSegment& seg = *col.encoded();
      c.kind = exec::SharedConjunct::Kind::kPacked;
      c.packed = seg.words;
      c.packed_bits = seg.bits;
      // Reference-shift into the image's unsigned domain (same
      // precondition as scan_filter: pruning resolved disjoint ranges,
      // so hi >= reference and the shift is exact).
      const auto ref = static_cast<std::uint64_t>(seg.reference);
      c.ulo = r.lo <= seg.reference
                  ? 0
                  : static_cast<std::uint64_t>(r.lo) - ref;
      c.uhi = static_cast<std::uint64_t>(r.hi) - ref;
    } else if (r.is_double) {
      c.kind = exec::SharedConjunct::Kind::kDouble;
      c.f64 = col.double_data();
      c.dlo = r.dlo;
      c.dhi = r.dhi;
    } else if (col.type() == TypeId::kInt64) {
      c.kind = exec::SharedConjunct::Kind::kInt64;
      c.i64 = col.int64_data();
      c.lo = r.lo;
      c.hi = r.hi;
    } else {
      // kInt32 and kString both stream the int32 array (codes for
      // strings; bind_predicate already produced the code range).
      c.kind = exec::SharedConjunct::Kind::kInt32;
      c.i32 = col.int32_data();
      c.lo = r.lo;
      c.hi = r.hi;
    }
    prep.conjuncts.push_back(c);
    prep.scanned.emplace_back(&col, packed);
  }
  return prep;
}

}  // namespace

std::string scan_sharing_key(const storage::Catalog& catalog,
                             const PhysicalPlan& phys,
                             const ExecOptions& options) {
  if (phys.logical.predicates.empty()) return "";
  if (phys.dist.active() || options.shard_count > 0) return "";
  if (options.use_zone_maps || options.tiers != nullptr) return "";
  const Table& table = catalog.get(phys.logical.table);
  std::vector<std::string> tags;
  tags.reserve(phys.logical.predicates.size());
  for (const Predicate& p : phys.logical.predicates)
    tags.push_back(column_tag(table.column(p.column), options));
  std::sort(tags.begin(), tags.end());
  std::string key = phys.logical.table;
  for (const std::string& t : tags) key += "|" + t;
  return key;
}

std::string scan_sharing_prekey(const LogicalPlan& plan) {
  if (plan.predicates.empty()) return "";
  std::vector<std::string> cols;
  cols.reserve(plan.predicates.size());
  for (const Predicate& p : plan.predicates) cols.push_back(p.column);
  std::sort(cols.begin(), cols.end());
  std::string key = plan.table;
  for (const std::string& c : cols) key += "|" + c;
  return key;
}

std::vector<ScanShareGroup> analyze_scan_sharing(
    const storage::Catalog& catalog, const hw::MachineSpec& machine,
    std::span<const SharedBatchMember> batch) {
  std::vector<ScanShareGroup> groups;
  std::map<std::string, std::size_t> by_key;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    std::string key;
    if (batch[i].phys != nullptr && batch[i].options != nullptr)
      key = scan_sharing_key(catalog, *batch[i].phys, *batch[i].options);
    if (key.empty()) {
      ScanShareGroup g;
      g.members.push_back(i);
      groups.push_back(std::move(g));
      continue;
    }
    const auto [it, fresh] = by_key.try_emplace(key, groups.size());
    if (fresh) {
      ScanShareGroup g;
      g.key = key;
      groups.push_back(std::move(g));
    }
    groups[it->second].members.push_back(i);
  }

  // Price each candidate group: share vs run independent.
  static const opt::CostModel default_model = opt::CostModel::defaults();
  static const hw::AcceleratorSpec near_memory = hw::AcceleratorSpec::pim();
  for (ScanShareGroup& g : groups) {
    if (g.key.empty() || g.members.size() < 2) continue;
    const SharedBatchMember& first = batch[g.members.front()];
    const Table& table = catalog.get(first.phys->logical.table);
    const opt::CostModel& cm = first.options->cost_model != nullptr
                                   ? *first.options->cost_model
                                   : default_model;
    // Distinct predicate columns, at the bytes the pass streams (members
    // share the conjunct structure, so the first member's set is the
    // group's set).
    double bytes = 0;
    std::vector<std::string> seen;
    for (const Predicate& p : first.phys->logical.predicates) {
      if (std::find(seen.begin(), seen.end(), p.column) != seen.end())
        continue;
      seen.push_back(p.column);
      bytes += streamed_bytes(table.column(p.column), *first.options);
    }
    const double member_cycles =
        ops::kScanCyclesPerTuple * static_cast<double>(table.row_count()) *
        static_cast<double>(first.phys->logical.predicates.size());
    const opt::ScanSharingChoice choice = cm.pick_scan_sharing(
        machine, g.members.size(), bytes, member_cycles, near_memory);
    g.share = choice.share;
    g.est_scan_bytes = bytes;
    g.est_independent_j = choice.independent_j;
    g.est_shared_j = choice.shared_j;
  }
  return groups;
}

void execute_shared_group(const storage::Catalog& catalog,
                          std::span<const SharedBatchMember> members,
                          std::span<SharedMemberOut> outs) {
  EIDB_EXPECTS(!members.empty() && outs.size() == members.size());
  const ExecOptions& lead_options = *members.front().options;
  const Table& table = catalog.get(members.front().phys->logical.table);
  if (!table.complete())
    throw Error("table not fully loaded: " + table.name());
  const std::size_t rows = table.row_count();

  // Phase 1: bind + prune every member, collect the fused query set.
  std::vector<MemberPrep> preps(members.size());
  std::vector<exec::SharedQuery> fused;
  std::vector<std::size_t> fused_members;  // fused index -> member index
  for (std::size_t i = 0; i < members.size(); ++i) {
    preps[i] = prepare_member(table, *members[i].phys, *members[i].options);
    if (!preps[i].conjuncts.empty()) {
      preps[i].fused_index = fused.size();
      fused.push_back({preps[i].conjuncts, &preps[i].selection});
      fused_members.push_back(i);
    }
  }

  // Fan-out cap: the widest member core grant (0 = whole pool) — one
  // query's worth of workers, not one per member; the group occupies a
  // single dispatch slot.
  std::size_t width = 0;
  for (const SharedBatchMember& m : members)
    if (m.phys->governor.enabled)
      width = std::max(width, static_cast<std::size_t>(
                                  std::max(1, m.phys->governor.cores)));

  exec::SharedScanStats fstats;
  Stopwatch fused_sw;
  if (!fused.empty())
    exec::shared_scan(rows, fused, lead_options.pool, width, fstats);
  const double fused_s = fused_sw.elapsed_seconds();

  // Phase 2: each member's pipeline over its preset selection (the preset
  // path charges nothing for the scan — the group charge lands below).
  std::vector<double> pipeline_s(members.size(), 0);
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::vector<std::int64_t> key_scratch;
    ops::OpContext ctx{catalog, *members[i].options, outs[i].stats,
                       key_scratch, {}};
    Stopwatch sw;
    try {
      outs[i].result = ops::execute_pipeline(ctx, *members[i].phys, table,
                                             &preps[i].selection);
    } catch (const std::exception& e) {
      outs[i].error = e.what();
    }
    pipeline_s[i] = sw.elapsed_seconds();
    outs[i].stats.elapsed_s = pipeline_s[i];
  }

  // Phase 3: the group's single scan charge, attributed by per-member
  // work. The pass streamed each distinct column once — that is the whole
  // group's scan DRAM traffic.
  double group_bytes = 0;
  double group_saved = 0;
  {
    std::vector<std::string> charged;
    for (const std::size_t i : fused_members) {
      for (const auto& [col, packed] : preps[i].scanned) {
        if (std::find(charged.begin(), charged.end(), col->name()) !=
            charged.end())
          continue;
        charged.push_back(col->name());
        if (packed) {
          group_bytes += static_cast<double>(col->scan_byte_size());
          group_saved += static_cast<double>(col->byte_size()) -
                         static_cast<double>(col->scan_byte_size());
        } else {
          group_bytes += static_cast<double>(col->byte_size());
        }
      }
    }
  }

  // Weights: sink bytes (the pipeline's DRAM traffic past the scan) plus
  // selected rows — a member that used more of the pass pays more of it.
  // Residuals go to the last participant so the shares sum byte-exactly.
  std::vector<std::size_t> participants;
  for (const std::size_t i : fused_members)
    if (outs[i].error.empty()) participants.push_back(i);
  if (participants.empty() || group_bytes <= 0) return;

  double weight_sum = 0;
  std::vector<double> weight(members.size(), 0);
  for (const std::size_t i : participants) {
    weight[i] = outs[i].stats.work.dram_bytes +
                8.0 * static_cast<double>(outs[i].stats.tuples_selected) + 1.0;
    weight_sum += weight[i];
  }

  double bytes_assigned = 0;
  double saved_assigned = 0;
  double seconds_assigned = 0;
  for (std::size_t k = 0; k < participants.size(); ++k) {
    const std::size_t i = participants[k];
    const bool last = k + 1 == participants.size();
    const double frac = weight[i] / weight_sum;
    const double bytes_share =
        last ? group_bytes - bytes_assigned : group_bytes * frac;
    const double saved_share =
        last ? group_saved - saved_assigned : group_saved * frac;
    const double sec_share =
        last ? fused_s - seconds_assigned : fused_s * frac;
    bytes_assigned += bytes_share;
    saved_assigned += saved_share;
    seconds_assigned += sec_share;

    ExecStats& st = outs[i].stats;
    const std::uint64_t evaluated =
        fstats.evaluated.empty() ? 0
                                 : fstats.evaluated[preps[i].fused_index];
    const double cycles =
        ops::kScanCyclesPerTuple * static_cast<double>(evaluated);
    st.work.dram_bytes += bytes_share;
    st.work.cpu_cycles += cycles;
    st.dram_bytes_saved += saved_share;
    st.tuples_scanned += evaluated;
    for (const auto& [col, packed] : preps[i].scanned)
      if (packed) ++st.packed_column_reads;
    st.elapsed_s += sec_share;
    // Fold the share into the scan operator's attribution entry so the
    // per-operator work deltas still sum to the query totals byte-exactly.
    if (!st.operators.empty() &&
        st.operators.front().name.rfind("scan+filter", 0) == 0) {
      st.operators.front().work.dram_bytes += bytes_share;
      st.operators.front().work.cpu_cycles += cycles;
      st.operators.front().seconds += sec_share;
    }
  }
}

}  // namespace eidb::query
