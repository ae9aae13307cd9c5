#include "query/ops/join_op.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/join.hpp"
#include "exec/parallel.hpp"
#include "exec/radix_join.hpp"
#include "exec/sort.hpp"
#include "exec/vector_agg.hpp"
#include "opt/cost_model.hpp"
#include "query/ops/aggregate_op.hpp"
#include "query/ops/project_op.hpp"
#include "query/ops/scan_filter.hpp"
#include "util/assert.hpp"

namespace eidb::query::ops {

using storage::Column;
using storage::Table;
using storage::TypeId;

namespace {

/// One executed join step: the filtered build side, its physical table
/// (dense or hash), and the typed view of the probe key it is probed
/// with (a column on `source_side` of the running match tuple).
struct StepExec {
  const PhysicalJoinStep* phys = nullptr;
  const JoinSpec* spec = nullptr;
  const Table* build_table = nullptr;
  BitVector build_sel;
  std::uint64_t build_rows = 0;
  exec::JoinKeys build_keys;
  exec::JoinKeys source_keys;
  /// The FROM-table probe key as the aggregate kernels read it (a gather
  /// step's lookup key), in the representation `source_keys` streams.
  exec::AggInput source_view;
  /// Side of the running match tuple carrying the probe key, counted over
  /// the steps that run in the chain.
  std::size_t source_side = 0;
  /// String/double keys: build-code -> probe-code translation table
  /// (owns the storage the kRemapped build_keys view reads; -1 = the
  /// probe dictionary lacks the value, never matches).
  std::vector<std::int32_t> build_remap;
  /// String/double keys: probe-side dictionary size — remapped keys live
  /// in [-1, code_domain), which sizes the dense arm's address space.
  std::int64_t code_domain = 0;
  /// Key views resolved (and their columns charged) — by the step's
  /// semi-join filter pass when it has one, else by the join operator.
  bool keys_ready = false;
  /// The pass found no two selected build rows with the same key.
  bool keys_unique = false;
  std::optional<exec::JoinHashTable> hash;
  std::optional<exec::DenseJoinTable> dense;

  template <typename Fn>
  void probe(std::int64_t key, Fn&& fn) const {
    if (dense.has_value())
      dense->probe(key, fn);
    else
      hash->probe(key, fn);
  }
};

/// Drives the probe stream through every chained step, block-at-a-time.
/// The running match is a tuple of row ids (side 0 = probe table, side s
/// = step s-1's build table); each step appends one side. Matches reach
/// the sink in (probe asc, build₁ asc, build₂ asc, ...) order — the
/// nested-loop oracle's order under the executed step sequence.
class ChainDriver {
 public:
  using Sink =
      std::function<void(const std::uint32_t* const*, std::size_t)>;

  explicit ChainDriver(const std::vector<const StepExec*>& steps)
      : steps_(steps) {
    bufs_.resize(steps.size());
    ptrs_.resize(steps.size());
    for (std::size_t s = 1; s < steps.size(); ++s) {
      bufs_[s].resize(s + 2);  // sides 0..s+1
      ptrs_[s].resize(s + 2);
      for (std::size_t side = 0; side <= s + 1; ++side)
        ptrs_[s][side] = bufs_[s][side].data();
    }
    produced_.assign(steps.size(), 0);
  }

  /// Probes selection words [word_begin, word_end) through the chain.
  /// `limit_pairs` (0 = unlimited) stops after that many final matches.
  /// Returns the number of final matches emitted.
  std::uint64_t run(const BitVector& probe_sel, std::size_t word_begin,
                    std::size_t word_end, const Sink& sink,
                    std::uint64_t limit_pairs) {
    sink_ = &sink;
    limit_ = limit_pairs;
    pairs_ = 0;
    stop_ = false;
    const StepExec& first = *steps_.front();
    const auto first_sink = [&](const std::uint32_t* b, const std::uint32_t* p,
                                std::size_t k) {
      if (stop_) return;
      produced_[0] += k;
      const std::uint32_t* rows[2] = {p, b};
      next(1, rows, k);
    };
    // Single-step chains early-exit inside the probe driver itself; a
    // longer chain cannot bound step-0 matches from a final-match limit,
    // so emit() raises stop_ and the remaining blocks become no-ops.
    const std::uint64_t probe_limit =
        steps_.size() == 1 ? limit_pairs : 0;
    const auto drive = [&](const auto& table) {
      (void)exec::probe_join_blocks(table, first.source_keys, probe_sel,
                                    word_begin, word_end, first_sink,
                                    probe_limit);
    };
    if (first.dense.has_value())
      drive(*first.dense);
    else
      drive(*first.hash);
    return pairs_;
  }

  /// Feeds pre-matched first-step blocks (the radix arm's partition-pair
  /// output) into the chain tail.
  void feed_first(const std::uint32_t* build_rows,
                  const std::uint32_t* probe_rows, std::size_t count,
                  const Sink& sink) {
    sink_ = &sink;
    if (stop_) return;
    produced_[0] += count;
    const std::uint32_t* rows[2] = {probe_rows, build_rows};
    next(1, rows, count);
  }

  [[nodiscard]] std::uint64_t pairs() const { return pairs_; }
  /// Tuples produced by step s (probe calls into step s+1).
  [[nodiscard]] const std::vector<std::uint64_t>& produced() const {
    return produced_;
  }

 private:
  void next(std::size_t s, const std::uint32_t* const* rows, std::size_t n) {
    if (s == steps_.size()) {
      emit(rows, n);
      return;
    }
    const StepExec& st = *steps_[s];
    auto& out = bufs_[s];
    std::size_t k = 0;
    const auto flush = [&] {
      if (k == 0) return;
      produced_[s] += k;
      next(s + 1, ptrs_[s].data(), k);
      k = 0;
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (stop_) break;
      const std::uint32_t src = rows[st.source_side][i];
      st.probe(st.source_keys.at(src), [&](std::uint32_t build_row) {
        if (stop_) return;
        for (std::size_t side = 0; side <= s; ++side)
          out[side][k] = rows[side][i];
        out[s + 1][k] = build_row;
        if (++k == exec::kJoinBlockRows) flush();
      });
    }
    flush();
  }

  void emit(const std::uint32_t* const* rows, std::size_t n) {
    if (limit_ != 0 && pairs_ + n >= limit_) {
      n = static_cast<std::size_t>(limit_ - pairs_);
      stop_ = true;
    }
    pairs_ += n;
    if (n != 0) (*sink_)(rows, n);
  }

  const std::vector<const StepExec*>& steps_;
  /// Per-step output blocks: bufs_[s][side] holds side `side`'s row ids;
  /// ptrs_[s] is the stable pointer table handed downstream.
  std::vector<std::vector<std::array<std::uint32_t, exec::kJoinBlockRows>>>
      bufs_;
  std::vector<std::vector<const std::uint32_t*>> ptrs_;
  std::vector<std::uint64_t> produced_;
  const Sink* sink_ = nullptr;
  std::uint64_t limit_ = 0;
  std::uint64_t pairs_ = 0;
  bool stop_ = false;
};

/// A column reference resolved against the probe table (side 0) or one of
/// the executed build sides (side s = step s-1's build table).
struct Ref {
  const Table* tbl;
  const Column* col;
  std::size_t side;
};

/// 64-aligned chunking of the probe selection for per-chunk ChainDrivers
/// and filter passes: exec::chunk_grain, cut from the selection's size
/// alone, so the chunks — and the chunk-ordered merges of double sums —
/// are the same at every pool width and governor grant, and equal the
/// grouped aggregate kernels' chunks. Chunk ids address per-chunk result
/// slots, so downstream merges run in CHUNK order, never completion
/// order.
struct MorselChunks {
  std::size_t grain = 0;
  std::size_t count = 0;
  explicit MorselChunks(std::size_t n)
      : grain(exec::chunk_grain(n)), count((n + grain - 1) / grain) {}
};

}  // namespace

QueryResult run_join(OpContext& ctx, const PhysicalPlan& phys,
                     const Table& table, const BitVector& probe_selection) {
  const LogicalPlan& plan = phys.logical;
  const ExecOptions& options = ctx.options;
  ExecStats& stats = ctx.stats;

  // ---- Build-side scans: one filtered selection per step, each its own
  // attributed operator. ----
  const std::size_t n_steps = phys.joins.size();
  std::vector<StepExec> steps(n_steps);
  for (std::size_t s = 0; s < n_steps; ++s) {
    StepExec& st = steps[s];
    st.phys = &phys.joins[s];
    st.spec = &plan.joins[st.phys->logical_index];
    st.build_table = &ctx.catalog.get(st.spec->table);
    if (!st.build_table->complete())
      throw Error("table not fully loaded: " + st.spec->table);
    OperatorScope scope(stats, "scan+filter(" + st.spec->table + ")");
    st.build_sel =
        evaluate_predicates(ctx, *st.build_table, st.spec->predicates);
    st.build_rows = st.build_sel.count();
    st.source_side = st.phys->source_side;
  }

  // ---- Column resolution: compile_plan bound each name to its side
  // (PhysicalPlan::bindings). Side 0 is the table this run probes — a
  // shard table, in a sharded plan, whatever its name. ----
  const auto resolve = [&](const std::string& name) -> Ref {
    const auto it = phys.bindings.find(name);
    if (it == phys.bindings.end()) throw Error("unknown column: " + name);
    const ColumnBinding& b = it->second;
    const Table& t = b.side == 0 ? table : *steps[b.side - 1].build_table;
    return {&t, &t.column(b.column), b.side};
  };

  // ---- Ledger: charge each (table, column) once for the representation
  // this join actually streams — the packed image for packed-probed key
  // columns, the plain width for every gathered payload/group column.
  // One representation per column per query (the base aggregation path's
  // rule): a key column that any plain consumer also needs is read plain
  // by the key path too, so the once-per-query charge matches the bytes
  // the pipeline touches. The chain gathers its aggregate inputs, group
  // keys, projections and projection sort key plain, by row id. A
  // chainless plan reads what the base operators read: aggregate_op's
  // kernels stream packed inputs and a single FROM-table key, a composite
  // key's FROM-table columns are plain, and a lookup build reads its
  // dimension group-key column plain (which may be that side's join key).
  // The set is fixed before any pass resolves a key, and a step the
  // passes send back to the chain reads its columns by the same set. ----
  const bool chainless = phys.chainless();
  std::set<std::string> plain_required;
  const auto require_plain = [&](const Ref& r) {
    plain_required.insert(OpContext::charge_key(*r.tbl, *r.col));
  };
  if (plan.is_aggregate()) {
    if (!chainless) {
      for (const AggSpec& a : plan.aggregates)
        if (a.op != AggOp::kCount) require_plain(resolve(a.column));
    }
    for (const std::string& name : plan.group_by) {
      const Ref r = resolve(name);
      // Double group keys are consumed as dictionary codes end to end
      // (grouped on int32 codes, decoded from the double dictionary at
      // emit) — they never force a plain read.
      if (r.col->type() == TypeId::kDouble && r.col->has_double_dictionary())
        continue;
      if (!chainless || r.side != 0 || plan.group_by.size() > 1)
        require_plain(r);
    }
  } else {
    for (const std::string& name : plan.projection)
      require_plain(resolve(name));
    if (plan.order_by.has_value() && !chainless)
      require_plain(resolve(plan.order_by->column));
  }

  // ---- Join keys, consumed without widening: int64/int32 spans read in
  // place, bit-packed images decoded per probed row. ----
  const auto packed_read = [&](const Table& t, const Column& c) {
    return use_packed(c, options) &&
           plain_required.count(OpContext::charge_key(t, c)) == 0;
  };
  const auto keys_of = [&](const Table& t, const Column& c) {
    const bool packed = packed_read(t, c);
    ctx.charge_column(t, c, packed);
    if (packed) return exec::JoinKeys::from(c.packed_view());
    return c.type() == TypeId::kInt64 ? exec::JoinKeys::from(c.int64_data())
                                      : exec::JoinKeys::from(c.int32_data());
  };
  // Code-domain key columns (double codes, string build codes read for
  // the remap) stream the 4-byte code array; the charge is that byte
  // count unless a plain consumer already forces the full width.
  const auto charge_codes = [&](const Table& t, const Column& c) {
    if (plain_required.count(OpContext::charge_key(t, c)) != 0)
      ctx.charge_column(t, c, false);
    else
      ctx.charge_column_bytes(t, c, 4.0 * static_cast<double>(c.size()));
  };
  const auto resolve_keys = [&](StepExec& st) {
    if (st.keys_ready) return;
    st.keys_ready = true;
    const Table& src_tbl = st.phys->source_side == 0
                               ? table
                               : *steps[st.phys->source_side - 1].build_table;
    const Column& src_col = src_tbl.column(st.phys->source_key);
    const Column& bld_col = st.build_table->column(st.spec->right_key);
    switch (st.phys->key_type) {
      case JoinKeyType::kInt:
      case JoinKeyType::kString:
        // A string key's probe side streams its own codes unchanged
        // (packed image is fine — codes are plain int32s to the kernels).
        st.source_keys = keys_of(src_tbl, src_col);
        st.source_view = packed_read(src_tbl, src_col)
                             ? exec::AggInput::from(src_col.packed_view())
                             : agg_input_of(src_col);
        if (st.phys->key_type == JoinKeyType::kInt) {
          st.build_keys = keys_of(*st.build_table, bld_col);
          break;
        }
        // The build side's codes are translated into the probe's code
        // domain once, so the probe never touches a string.
        ctx.charge_column(*st.build_table, bld_col, false);
        st.build_remap = bld_col.dictionary().remap_to(src_col.dictionary());
        st.build_keys =
            exec::JoinKeys::remapped(bld_col.codes(), st.build_remap);
        st.code_domain =
            static_cast<std::int64_t>(src_col.dictionary().size());
        break;
      case JoinKeyType::kDouble:
        charge_codes(src_tbl, src_col);
        st.source_keys = exec::JoinKeys::from(src_col.double_codes());
        st.source_view = exec::AggInput::from(src_col.double_codes());
        charge_codes(*st.build_table, bld_col);
        st.build_remap = bld_col.double_dictionary().remap_to(
            src_col.double_dictionary());
        st.build_keys =
            exec::JoinKeys::remapped(bld_col.double_codes(), st.build_remap);
        st.code_domain =
            static_cast<std::int64_t>(src_col.double_dictionary().size());
        break;
    }
    stats.work.cpu_cycles +=
        kDictRemapCyclesPerEntry * static_cast<double>(st.build_remap.size());
  };
  // Direct-address key range {min, domain} of a dense step. Remapped
  // (string/double) keys live in the probe's code domain
  // [-1, code_domain), not the build column's value range: -1 holds the
  // never-matching slot for values absent from the probe side.
  const auto dense_range = [](const StepExec& st) {
    if (st.phys->key_type != JoinKeyType::kInt)
      return std::pair<std::int64_t, std::int64_t>{-1, st.code_domain + 1};
    const storage::ColumnStats& ks =
        st.build_table->column(st.spec->right_key).stats();
    return std::pair<std::int64_t, std::int64_t>{
        ks.rows == 0 ? 0 : ks.min, std::max<std::int64_t>(1, ks.domain())};
  };

  // ---- Semi-join filters, in the compiled order (most selective first):
  // each filtered step tests the FROM table's keys against a bitmap of its
  // surviving build keys, 64 rows per selection word, before any probe
  // runs — every sink below then probes only the rows all filtered
  // dimensions keep. Each pass is its own attributed operator and
  // resolves its step's key views, so the key columns are charged there,
  // once, in the representation the probe reads again later. Building the
  // bitmap also tells whether the selected build keys are unique. ----
  BitVector filtered;
  std::uint64_t live_rows = probe_selection.count();
  bool any_filter = false;
  for (const std::size_t s : phys.filter_order) {
    StepExec& st = steps[s];
    if (!st.phys->join_filter.filter) continue;
    OperatorScope scope(stats, "join-filter(" + st.spec->table + ")");
    resolve_keys(st);
    const auto [min_key, domain] = dense_range(st);
    // Remapped keys put every value the probe dictionary lacks at -1,
    // which no probe key carries.
    const exec::JoinFilter filter(
        st.build_keys, st.build_sel, min_key, domain,
        st.phys->key_type == JoinKeyType::kInt ? min_key : 0);
    st.keys_unique = filter.keys_unique();
    if (!any_filter) filtered = probe_selection;
    any_filter = true;
    stats.work.cpu_cycles += kJoinFilterCyclesPerTuple *
                             static_cast<double>(st.build_rows + live_rows);
    if (options.pool == nullptr ||
        live_rows < options.parallel_join_min_rows) {
      live_rows = filter.apply(st.source_keys, filtered, 0,
                               filtered.word_count());
      continue;
    }
    // Morsel-parallel over 64-aligned word ranges: workers write
    // disjoint selection words; kept counts land in chunk slots.
    const MorselChunks chunking(filtered.size());
    const std::size_t grain_words = chunking.grain / 64;
    std::vector<std::uint64_t> kept(chunking.count, 0);
    options.pool->parallel_for(
        filtered.word_count(), grain_words,
        [&](std::size_t wb, std::size_t we) {
          kept[wb / grain_words] =
              filter.apply(st.source_keys, filtered, wb, we);
        });
    live_rows = std::accumulate(kept.begin(), kept.end(), std::uint64_t{0});
  }
  const BitVector& selection = any_filter ? filtered : probe_selection;

  // ---- Run-time roles. A filter or gather step whose selected build keys
  // repeat runs in the chain (its pass has run, and the selection it left
  // is still right); settled as compile_plan settles them, so a chain step
  // takes every gather step back in. ----
  std::vector<JoinRole> roles(n_steps);
  for (std::size_t s = 0; s < n_steps; ++s)
    roles[s] = steps[s].keys_unique ? phys.joins[s].role : JoinRole::kChain;
  if (!settle_join_roles(roles)) {
    // Every surviving row joins once; a projection without ORDER BY stops
    // at its LIMIT, as the chain's early exit does.
    stats.join_pairs = live_rows;
    if (!plan.is_aggregate()) {
      if (!plan.order_by.has_value() && plan.limit != 0)
        stats.join_pairs = std::min<std::uint64_t>(live_rows, plan.limit);
      return run_projection(ctx, phys, table, selection);
    }

    // ==== Groupjoin: each gather step builds a dense key -> group-value
    // lookup per group-key part on its side; the FROM table's filtered
    // selection then runs through the base aggregation kernels, which
    // read those parts through the lookups on the fact foreign keys. ====
    std::vector<GroupKeyPart> parts;
    std::vector<std::size_t> part_side;
    for (const std::string& name : plan.group_by) {
      const Ref r = resolve(name);
      parts.push_back(group_key_part(*r.tbl, *r.col));
      part_side.push_back(r.side);
    }
    for (std::size_t s = 0; s < n_steps; ++s) {
      if (roles[s] != JoinRole::kGather) continue;
      const StepExec& st = steps[s];
      OperatorScope scope(stats, "join-gather(" + st.spec->table + ")");
      const auto [min_key, domain] = dense_range(st);
      for (std::size_t p = 0; p < parts.size(); ++p) {
        if (part_side[p] != s + 1) continue;
        GroupKeyPart& part = parts[p];
        const Column& col = *part.col;
        if (part.double_codes)
          charge_codes(*st.build_table, col);
        else
          ctx.charge_column(*st.build_table, col, false);
        part.lookup = true;
        part.fk = st.source_view;
        part.lut_min = min_key;
        part.lut.assign(static_cast<std::size_t>(domain), 0);
        // Each entry holds the value (or dictionary code) at the one
        // selected build row with that key. Remapped keys of values the
        // probe lacks all land on the -1 slot, which no fact key reads.
        st.build_sel.for_each_set([&](std::size_t i) {
          part.lut[static_cast<std::size_t>(st.build_keys.at(i) - min_key)] =
              part.double_codes ? col.double_codes()[i] : col.int_at(i);
        });
      }
      stats.work.cpu_cycles +=
          kJoinBuildCyclesPerTuple * static_cast<double>(st.build_rows);
    }
    OperatorScope scope(stats,
                        plan.has_group_by() ? "group-aggregate" : "aggregate");
    return aggregate_rows(
        ctx, plan, table, selection,
        [&](const std::string& name) -> const Column& {
          const Ref r = resolve(name);
          EIDB_ASSERT(r.side == 0);  // a step whose side feeds one chains
          return *r.col;
        },
        std::move(parts), plain_required);
  }

  // ---- The chain: the steps that probe per row, in execution order.
  // Filter steps never enter it; a match tuple holds the FROM row and one
  // row per chain step, so `chain_side` maps a side (0 = the FROM table,
  // s + 1 = step s) to its place in the tuple. ----
  std::vector<const StepExec*> chain;
  constexpr std::size_t kNoSide = ~std::size_t{0};
  std::vector<std::size_t> chain_side(n_steps + 1, kNoSide);
  chain_side[0] = 0;
  for (std::size_t s = 0; s < n_steps; ++s) {
    if (roles[s] != JoinRole::kChain) continue;
    chain.push_back(&steps[s]);
    chain_side[s + 1] = chain.size();
  }
  const std::size_t n_chain = chain.size();
  const auto tuple_side = [&](std::size_t side) {
    EIDB_ASSERT(chain_side[side] != kNoSide);  // only chain sides are read
    return chain_side[side];
  };
  for (StepExec& st : steps)
    if (chain_side[st.phys->source_side] != kNoSide)
      st.source_side = chain_side[st.phys->source_side];

  // ---- One operator scope covers the rest of the join pipeline — key-view
  // resolution, build-table construction, and the probe — so its charges
  // land in one attributed operator. Projections without ORDER BY
  // materialize inside the probe sink, hence the merged name. ----
  std::string op_name;
  for (const StepExec* st : chain) {
    if (!op_name.empty()) op_name += " ";
    op_name += std::string(opt::join_arm_name(st->phys->arm)) + "(" +
               st->build_table->name() + ")";
  }
  const bool stream_materialize =
      !plan.is_aggregate() && !plan.order_by.has_value();
  OperatorScope join_scope(
      stats, stream_materialize ? op_name + "+materialize" : op_name);
  for (std::size_t s = 0; s < n_steps; ++s)
    if (roles[s] == JoinRole::kChain) resolve_keys(steps[s]);

  const std::uint64_t probe_rows = live_rows;

  // ---- Physical join tables, per the compiled arm. ----
  static const opt::CostModel default_model = opt::CostModel::defaults();
  const opt::CostModel& cm =
      options.cost_model != nullptr ? *options.cost_model : default_model;
  const bool radix_first =
      chain.front()->phys->arm == opt::JoinArm::kRadixJoin;
  for (std::size_t s = 0; s < n_steps; ++s) {
    if (roles[s] != JoinRole::kChain) continue;
    StepExec& st = steps[s];
    stats.work.cpu_cycles +=
        kJoinBuildCyclesPerTuple * static_cast<double>(st.build_rows);
    // The radix arm partitions instead.
    if (&st == chain.front() && radix_first) continue;
    if (st.phys->arm == opt::JoinArm::kDenseJoin) {
      const auto [min_key, domain] = dense_range(st);
      st.dense.emplace(exec::build_dense_join_table(
          st.build_keys, st.build_sel, min_key, domain));
    } else {
      st.hash.emplace(exec::build_join_table(st.build_keys, st.build_sel));
    }
  }

  const bool parallel = options.pool != nullptr &&
                        probe_rows >= options.parallel_join_min_rows;
  const std::size_t sides = n_chain + 1;

  // ==== Aggregate sink: exec::JoinAggregator over multi-side row-id
  // tuples (probe- and build-side inputs, composite cross-table keys). ====
  if (plan.is_aggregate()) {
    // A column is gathered in the representation the ledger set names.
    const auto gather_view = [&](const Ref& r) {
      const bool packed = packed_read(*r.tbl, *r.col);
      ctx.charge_column(*r.tbl, *r.col, packed);
      return packed ? exec::AggInput::from(r.col->packed_view())
                    : agg_input_of(*r.col);
    };
    std::vector<exec::JoinAggregator::Input> inputs;
    std::map<std::string, std::size_t> input_index;
    std::vector<int> spec_input(plan.aggregates.size(), -1);  // -1 = COUNT
    for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
      const AggSpec& a = plan.aggregates[ai];
      if (a.op == AggOp::kCount) continue;
      const auto it = input_index.find(a.column);
      if (it != input_index.end()) {
        spec_input[ai] = static_cast<int>(it->second);
        continue;
      }
      const Ref r = resolve(a.column);
      input_index[a.column] = inputs.size();
      spec_input[ai] = static_cast<int>(inputs.size());
      inputs.push_back({gather_view(r), tuple_side(r.side)});
      inputs.back().column.ops = 0;
    }
    // Each input accumulates only the state its AggSpecs read.
    for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai)
      if (spec_input[ai] >= 0)
        inputs[static_cast<std::size_t>(spec_input[ai])].column.ops |=
            agg_state_of(plan.aggregates[ai].op);

    // Group keys: any mix of probe- and build-side columns; composite
    // keys use the stride layout of the base aggregation path, with
    // ranges from the cached column statistics.
    std::vector<GroupKeyPart> parts;
    std::vector<exec::AggInput> key_views;
    std::vector<std::size_t> key_sides;
    for (const std::string& name : plan.group_by) {
      const Ref r = resolve(name);
      parts.push_back(group_key_part(*r.tbl, *r.col));
      if (parts.back().double_codes) {
        charge_codes(*r.tbl, *r.col);
        key_views.push_back(exec::AggInput::from(r.col->double_codes()));
      } else {
        key_views.push_back(gather_view(r));
      }
      key_sides.push_back(tuple_side(r.side));
    }
    exec::KeyRange range;
    std::vector<exec::JoinAggregator::KeyPart> kparts;
    if (parts.size() == 1) {
      const GroupKeyPart& part = parts.front();
      range = {true, part.min, part.max, part.distinct};
      kparts.push_back({key_views.front(), key_sides.front(), 0, 1});
    } else if (!parts.empty()) {
      const std::int64_t total = assign_strides(parts);
      for (std::size_t p = 0; p < parts.size(); ++p)
        kparts.push_back(
            {key_views[p], key_sides[p], parts[p].min, parts[p].stride});
      range = {true, 0, total - 1};
    }
    const auto make_agg = [&] {
      return plan.has_group_by() ? exec::JoinAggregator(inputs, kparts, range)
                                 : exec::JoinAggregator(inputs);
    };
    exec::JoinAggregator master = make_agg();
    std::vector<std::uint64_t> produced(n_chain, 0);

    if (radix_first) {
      // Radix arm on the first step: partition both sides, join the
      // partition pairs, feed the chain tail (if any) with each block.
      const StepExec& first = *chain.front();
      const unsigned bits = cm.pick_radix_bits(first.build_rows);
      const exec::RadixPartitions bparts =
          exec::radix_partition(first.build_keys, first.build_sel, bits);
      const exec::RadixPartitions pparts =
          exec::radix_partition(first.source_keys, selection, bits);
      const std::size_t n_parts = bparts.parts.size();
      stats.work.cpu_cycles +=
          kRadixPartitionCyclesPerTuple *
          static_cast<double>(first.build_rows + probe_rows);
      const auto run_parts = [&](std::size_t begin, std::size_t stride,
                                 exec::JoinAggregator& agg,
                                 std::vector<std::uint64_t>& prod) {
        ChainDriver driver(chain);
        const ChainDriver::Sink sink =
            [&agg](const std::uint32_t* const* rows, std::size_t k) {
              agg.add_block(rows, k);
            };
        for (std::size_t part = begin; part < n_parts; part += stride)
          (void)exec::join_partition_blocks(
              bparts.parts[part], pparts.parts[part],
              [&](const std::uint32_t* b, const std::uint32_t* p,
                  std::size_t k) { driver.feed_first(b, p, k, sink); });
        for (std::size_t c = 0; c < n_chain; ++c)
          prod[c] += driver.produced()[c];
      };
      if (parallel) {
        // Partition-range tasks with private aggregators, merged serially
        // in task order (task t owns partitions t, t + n_tasks, ...). The
        // task count follows the partition count alone, so the merged
        // result depends neither on completion order nor on the pool
        // width.
        const std::size_t n_tasks = std::min(n_parts, exec::kMaxChunks);
        std::vector<exec::JoinAggregator> locals;
        std::vector<std::vector<std::uint64_t>> prods(
            n_tasks, std::vector<std::uint64_t>(n_chain, 0));
        locals.reserve(n_tasks);
        for (std::size_t t = 0; t < n_tasks; ++t) locals.push_back(make_agg());
        options.pool->parallel_for(
            n_tasks, 1, [&](std::size_t tb, std::size_t te) {
              for (std::size_t t = tb; t < te; ++t)
                run_parts(t, n_tasks, locals[t], prods[t]);
            });
        for (std::size_t t = 0; t < n_tasks; ++t) {
          master.merge_from(locals[t]);
          for (std::size_t c = 0; c < n_chain; ++c)
            produced[c] += prods[t][c];
        }
      } else {
        run_parts(0, 1, master, produced);
      }
    } else if (parallel) {
      // Morsel-parallel probe over 64-aligned ranges of the selection:
      // per-chunk private aggregators (and chain drivers), stored in
      // chunk-indexed slots and merged IN CHUNK ORDER afterwards. A
      // completion-order merge would let thread scheduling regroup float
      // partials between runs; chunk order makes the merged sums a pure
      // function of the chunking.
      const std::size_t total_words = selection.word_count();
      const MorselChunks chunking(selection.size());
      std::vector<std::unique_ptr<exec::JoinAggregator>> locals(
          chunking.count);
      std::vector<std::vector<std::uint64_t>> prods(
          chunking.count, std::vector<std::uint64_t>(n_chain, 0));
      options.pool->parallel_for(
          selection.size(), chunking.grain,
          [&](std::size_t begin, std::size_t end) {
            const std::size_t chunk = begin / chunking.grain;
            const std::size_t wb = begin / 64;
            const std::size_t we = std::min(total_words, (end + 63) / 64);
            auto local = std::make_unique<exec::JoinAggregator>(make_agg());
            ChainDriver driver(chain);
            const ChainDriver::Sink sink =
                [&local](const std::uint32_t* const* rows, std::size_t k) {
                  local->add_block(rows, k);
                };
            (void)driver.run(selection, wb, we, sink, 0);
            prods[chunk] = driver.produced();
            locals[chunk] = std::move(local);
          });
      for (std::size_t chunk = 0; chunk < chunking.count; ++chunk) {
        master.merge_from(*locals[chunk]);
        for (std::size_t c = 0; c < n_chain; ++c)
          produced[c] += prods[chunk][c];
      }
    } else {
      ChainDriver driver(chain);
      const ChainDriver::Sink sink =
          [&master](const std::uint32_t* const* rows, std::size_t k) {
            master.add_block(rows, k);
          };
      (void)driver.run(selection, 0, selection.word_count(), sink, 0);
      for (std::size_t c = 0; c < n_chain; ++c)
        produced[c] = driver.produced()[c];
    }

    const std::uint64_t pairs = master.pair_count();
    stats.join_pairs = pairs;
    stats.work.cpu_cycles +=
        kJoinProbeCyclesPerTuple * static_cast<double>(probe_rows);
    for (std::size_t c = 0; c + 1 < n_chain; ++c)
      stats.work.cpu_cycles +=
          kJoinProbeCyclesPerTuple * static_cast<double>(produced[c]);
    join_scope.close();

    // ---- Emit: the base grouped path's emit. ----
    OperatorScope emit_scope(stats, "aggregate(join)");
    const exec::GroupedAggs grouped = master.finish();
    stats.work.cpu_cycles +=
        kAggCyclesPerTuple * static_cast<double>(pairs) *
        static_cast<double>(std::max<std::size_t>(1, inputs.size()));
    if (plan.has_group_by())
      stats.work.cpu_cycles +=
          kGroupCyclesPerTuple * static_cast<double>(pairs);
    stats.groups = plan.has_group_by() ? grouped.group_count() : 1;
    std::vector<exec::AggInput> columns;
    columns.reserve(inputs.size());
    for (const exec::JoinAggregator::Input& in : inputs)
      columns.push_back(in.column);
    return emit_groups(ctx, plan, parts, grouped, spec_input, columns);
  }

  // ==== Projection sink: chain traversal in deterministic (probe asc,
  // build asc per step) order. Without ORDER BY, rows stream straight
  // into the result with LIMIT early-exit; with ORDER BY, the match
  // tuples are collected as row ids, the sort key is gathered once per
  // match, and the heap top-k permutation picks the emitted rows — only
  // those are materialized (and charged). Both sinks go morsel-parallel
  // over 64-aligned selection chunks when a pool is available: chunks
  // collect privately and concatenate in chunk order, which reproduces
  // the serial emit order exactly (an unlimited LIMIT keeps the serial
  // early-exit path). ====
  std::vector<std::string> proj = plan.projection;
  struct ProjCol {
    const Column* col;
    const Table* tbl;
    std::size_t side;
  };
  std::vector<ProjCol> cols;
  cols.reserve(proj.size());
  for (const std::string& name : proj) {
    const Ref r = resolve(name);
    cols.push_back({r.col, r.tbl, tuple_side(r.side)});
  }

  QueryResult result(proj);
  ChainDriver driver(chain);
  std::uint64_t pairs = 0;
  const auto charge_probe_cycles =
      [&](const std::vector<std::uint64_t>& step_produced) {
        stats.work.cpu_cycles +=
            kJoinProbeCyclesPerTuple * static_cast<double>(probe_rows);
        for (std::size_t c = 0; c + 1 < n_chain; ++c)
          stats.work.cpu_cycles +=
              kJoinProbeCyclesPerTuple *
              static_cast<double>(step_produced[c]);
      };
  // Drives one private ChainDriver per 64-aligned chunk and hands each
  // chunk's sink output to `collect(chunk)`; returns total pairs after
  // accumulating per-step produced counts (charged like the serial walk).
  const auto run_chunked = [&](const auto& collect) {
    const std::size_t total_words = selection.word_count();
    const MorselChunks chunking(selection.size());
    std::vector<std::vector<std::uint64_t>> prods(
        chunking.count, std::vector<std::uint64_t>(n_chain, 0));
    std::vector<std::uint64_t> chunk_pairs(chunking.count, 0);
    options.pool->parallel_for(
        selection.size(), chunking.grain,
        [&](std::size_t begin, std::size_t end) {
          const std::size_t chunk = begin / chunking.grain;
          const std::size_t wb = begin / 64;
          const std::size_t we = std::min(total_words, (end + 63) / 64);
          ChainDriver local(chain);
          chunk_pairs[chunk] =
              local.run(selection, wb, we, collect(chunk), 0);
          prods[chunk] = local.produced();
        });
    std::vector<std::uint64_t> step_produced(n_chain, 0);
    std::uint64_t total_pairs = 0;
    for (std::size_t chunk = 0; chunk < chunking.count; ++chunk) {
      total_pairs += chunk_pairs[chunk];
      for (std::size_t c = 0; c < n_chain; ++c)
        step_produced[c] += prods[chunk][c];
    }
    charge_probe_cycles(step_produced);
    return total_pairs;
  };

  if (!plan.order_by.has_value()) {
    const auto gather_row = [&cols](const std::uint32_t* const* rows,
                                    std::size_t e) {
      std::vector<storage::Value> row;
      row.reserve(cols.size());
      for (const ProjCol& c : cols)
        row.push_back(c.col->value_at(rows[c.side][e]));
      return row;
    };
    if (parallel && plan.limit == 0) {
      const MorselChunks chunking(selection.size());
      std::vector<std::vector<std::vector<storage::Value>>> chunk_rows(
          chunking.count);
      pairs = run_chunked([&](std::size_t chunk) {
        return ChainDriver::Sink(
            [&chunk_rows, chunk, &gather_row](
                const std::uint32_t* const* rows, std::size_t k) {
              for (std::size_t e = 0; e < k; ++e)
                chunk_rows[chunk].push_back(gather_row(rows, e));
            });
      });
      for (auto& chunk : chunk_rows)
        for (auto& row : chunk) result.add_row(std::move(row));
    } else {
      const ChainDriver::Sink sink = [&](const std::uint32_t* const* rows,
                                         std::size_t k) {
        for (std::size_t e = 0; e < k; ++e)
          result.add_row(gather_row(rows, e));
      };
      pairs = driver.run(selection, 0, selection.word_count(), sink,
                         plan.limit);
      charge_probe_cycles(driver.produced());
    }
    for (const ProjCol& c : cols) {
      ctx.charge_gather(*c.tbl, *c.col, static_cast<std::size_t>(pairs));
      if (c.col->type() == TypeId::kString)
        ctx.charge_dict_gather(*c.tbl, *c.col,
                               static_cast<std::size_t>(pairs));
    }
    stats.work.cpu_cycles += kMaterializeCyclesPerValue *
                             static_cast<double>(pairs) *
                             static_cast<double>(cols.size());
  } else {
    // Collect the match tuples (row ids only — late materialization).
    std::vector<std::vector<std::uint32_t>> tuples(sides);
    if (parallel) {
      const MorselChunks chunking(selection.size());
      std::vector<std::vector<std::vector<std::uint32_t>>> chunk_tuples(
          chunking.count, std::vector<std::vector<std::uint32_t>>(sides));
      pairs = run_chunked([&](std::size_t chunk) {
        return ChainDriver::Sink(
            [&chunk_tuples, chunk, sides](const std::uint32_t* const* rows,
                                          std::size_t k) {
              for (std::size_t side = 0; side < sides; ++side)
                chunk_tuples[chunk][side].insert(
                    chunk_tuples[chunk][side].end(), rows[side],
                    rows[side] + k);
            });
      });
      for (std::size_t side = 0; side < sides; ++side) {
        tuples[side].reserve(static_cast<std::size_t>(pairs));
        for (const auto& chunk : chunk_tuples)
          tuples[side].insert(tuples[side].end(), chunk[side].begin(),
                              chunk[side].end());
      }
    } else {
      const ChainDriver::Sink sink = [&](const std::uint32_t* const* rows,
                                         std::size_t k) {
        for (std::size_t side = 0; side < sides; ++side)
          tuples[side].insert(tuples[side].end(), rows[side],
                              rows[side] + k);
      };
      pairs = driver.run(selection, 0, selection.word_count(), sink, 0);
      charge_probe_cycles(driver.produced());
    }
    join_scope.close();

    OperatorScope sort_scope(
        stats, (plan.limit != 0 ? "top-k(" : "sort(") + plan.order_by->column +
                   ")");
    const Ref key = resolve(plan.order_by->column);
    // One gathered key read per match; the ledger charge is that bounded
    // gather, not the full column.
    ctx.charge_gather(*key.tbl, *key.col, static_cast<std::size_t>(pairs));
    std::vector<std::uint32_t> perm;
    const std::vector<std::uint32_t>& key_rows = tuples[tuple_side(key.side)];
    sched::ThreadPool* sort_pool =
        key_rows.size() >= options.parallel_sort_min_rows ? options.pool
                                                          : nullptr;
    const auto gather_keys = [&](auto& keys, const auto& key_at) {
      keys.resize(key_rows.size());
      if (sort_pool != nullptr) {
        sort_pool->parallel_for(key_rows.size(), exec::kDefaultMorselRows,
                                [&](std::size_t begin, std::size_t end) {
                                  for (std::size_t i = begin; i < end; ++i)
                                    keys[i] = key_at(key_rows[i]);
                                });
      } else {
        for (std::size_t i = 0; i < key_rows.size(); ++i)
          keys[i] = key_at(key_rows[i]);
      }
    };
    if (key.col->type() == TypeId::kDouble) {
      std::vector<double> keys;
      const auto data = key.col->double_data();
      gather_keys(keys, [&](std::uint32_t r) { return data[r]; });
      perm = plan.limit != 0
                 ? exec::top_n_permutation_double(keys, plan.limit,
                                                  plan.order_by->ascending,
                                                  sort_pool)
                 : exec::sort_permutation_double(
                       keys, plan.order_by->ascending, sort_pool);
    } else {
      std::vector<std::int64_t> keys;
      gather_keys(keys,
                  [&](std::uint32_t r) { return column_int_at(*key.col, r); });
      perm = plan.limit != 0
                 ? exec::top_n_permutation(keys, plan.limit,
                                           plan.order_by->ascending,
                                           sort_pool)
                 : exec::sort_permutation(keys, plan.order_by->ascending,
                                          sort_pool);
    }
    if (plan.limit != 0 && perm.size() > plan.limit) perm.resize(plan.limit);
    sort_scope.close();

    OperatorScope mat_scope(stats, "materialize(join)");
    for (const ProjCol& c : cols) {
      ctx.charge_gather(*c.tbl, *c.col, perm.size());
      if (c.col->type() == TypeId::kString)
        ctx.charge_dict_gather(*c.tbl, *c.col, perm.size());
    }
    if (options.pool != nullptr &&
        perm.size() >= options.parallel_project_min_rows) {
      std::vector<std::vector<storage::Value>> rows(perm.size());
      options.pool->parallel_for(perm.size(), exec::kDefaultMorselRows,
                                 [&](std::size_t begin, std::size_t end) {
                                   for (std::size_t i = begin; i < end; ++i) {
                                     const std::uint32_t m = perm[i];
                                     std::vector<storage::Value> row;
                                     row.reserve(cols.size());
                                     for (const ProjCol& c : cols)
                                       row.push_back(c.col->value_at(
                                           tuples[c.side][m]));
                                     rows[i] = std::move(row);
                                   }
                                 });
      for (auto& row : rows) result.add_row(std::move(row));
    } else {
      for (const std::uint32_t m : perm) {
        std::vector<storage::Value> row;
        row.reserve(cols.size());
        for (const ProjCol& c : cols)
          row.push_back(c.col->value_at(tuples[c.side][m]));
        result.add_row(std::move(row));
      }
    }
    stats.work.cpu_cycles += kMaterializeCyclesPerValue *
                             static_cast<double>(perm.size()) *
                             static_cast<double>(cols.size());
  }

  stats.join_pairs = pairs;
  return result;
}

}  // namespace eidb::query::ops
