#include "core/mingen.h"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "base/budget.h"
#include "chase/chase.h"
#include "chase/trigger_finder.h"
#include "obs/budget_obs.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "relational/homomorphism.h"

namespace qimap {
namespace {

// Mirrors one run's totals into the process-wide metrics registry.
void FlushMinGenMetrics(const MinGenStats& st) {
  static const obs::MetricId kRuns = obs::RegisterCounter("mingen.runs");
  static const obs::MetricId kCandidates =
      obs::RegisterCounter("mingen.candidates");
  static const obs::MetricId kDedup =
      obs::RegisterCounter("mingen.dedup_pruned");
  static const obs::MetricId kDominated =
      obs::RegisterCounter("mingen.dominated_pruned");
  static const obs::MetricId kTests =
      obs::RegisterCounter("mingen.generator_tests");
  static const obs::MetricId kGenerators =
      obs::RegisterCounter("mingen.generators");
  static const obs::MetricId kDeltaSkipped =
      obs::RegisterCounter("mingen.delta_skipped");
  static const obs::MetricId kParentChases =
      obs::RegisterCounter("mingen.parent_chases");
  obs::CounterAdd(kRuns);
  obs::CounterAdd(kCandidates, st.candidates);
  obs::CounterAdd(kDedup, st.dedup_pruned);
  obs::CounterAdd(kDominated, st.dominated_pruned);
  obs::CounterAdd(kTests, st.generator_tests);
  obs::CounterAdd(kGenerators, st.generators);
  obs::CounterAdd(kDeltaSkipped, st.delta_skipped);
  obs::CounterAdd(kParentChases, st.parent_chases);
}

// Fresh generator variables #z1, #z2, ... ('#' cannot appear in parsed
// dependencies, so they never collide with user variables).
Value FreshZ(size_t index) {
  return Value::MakeVariable("#z" + std::to_string(index + 1));
}

constexpr uint64_t kVariableKind = static_cast<uint64_t>(ValueKind::kVariable);

// The shared variables x as a sorted code table: membership and the slot
// of a distinct x value are one binary search on the integer code.
class XTable {
 public:
  explicit XTable(const std::vector<Value>& x) {
    for (const Value& v : x) codes_.push_back(ValueCode(v));
    std::sort(codes_.begin(), codes_.end());
    codes_.erase(std::unique(codes_.begin(), codes_.end()), codes_.end());
  }

  // Slot of `code` among the distinct x values, or -1.
  ptrdiff_t Slot(uint64_t code) const {
    auto it = std::lower_bound(codes_.begin(), codes_.end(), code);
    if (it == codes_.end() || *it != code) return -1;
    return it - codes_.begin();
  }
  bool Contains(uint64_t code) const { return Slot(code) >= 0; }
  // A fresh (renamable) value: a variable that is not in x.
  bool IsFresh(uint64_t code) const {
    return (code >> 32) == kVariableKind && !Contains(code);
  }
  bool IsFresh(const Value& v) const { return IsFresh(ValueCode(v)); }
  size_t size() const { return codes_.size(); }

 private:
  std::vector<uint64_t> codes_;
};

// Backtracking embedding of `small`'s atoms into `big`'s atoms where the
// `x` variables are fixed and the other variables map injectively to
// non-x variables of `big`.
bool Embed(const Conjunction& small, const Conjunction& big,
           const XTable& x_table, size_t index,
           std::map<Value, Value>* mapping, std::set<Value>* used) {
  if (index == small.size()) return true;
  const Atom& atom = small[index];
  for (const Atom& candidate : big) {
    if (candidate.relation != atom.relation) continue;
    std::vector<Value> bound;
    bool ok = true;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const Value& from = atom.args[i];
      const Value& to = candidate.args[i];
      if (!x_table.IsFresh(from)) {
        if (from != to) {
          ok = false;
          break;
        }
        continue;
      }
      // A fresh variable: must map to a non-x variable, injectively.
      auto it = mapping->find(from);
      if (it != mapping->end()) {
        if (it->second != to) {
          ok = false;
          break;
        }
        continue;
      }
      if (!x_table.IsFresh(to) || used->count(to) > 0) {
        ok = false;
        break;
      }
      mapping->emplace(from, to);
      used->insert(to);
      bound.push_back(from);
    }
    if (ok && Embed(small, big, x_table, index + 1, mapping, used)) {
      return true;
    }
    for (const Value& v : bound) {
      used->erase(mapping->at(v));
      mapping->erase(v);
    }
  }
  return false;
}

bool IsSubConjunction(const Conjunction& small, const Conjunction& big,
                      const XTable& x_table) {
  if (small.size() > big.size()) return false;
  std::map<Value, Value> mapping;
  std::set<Value> used;
  return Embed(small, big, x_table, 0, &mapping, &used);
}

// The search's integer view of candidates. Every candidate value is an x
// variable or one of the fresh variables #z1..#zK, which are interned once
// per run. A value's *rank* is 1 + its position in the sorted universe
// x ∪ {#z1..#zK}, so ranks order exactly like Value's (kind, id)
// comparison. An atom is a row of `stride` cells [relation, rank(arg 1),
// ..., rank(arg k), 0, ...]; rows of one relation share an arity, so rows
// compare exactly like the atoms they encode.
class CandidateCodec {
 public:
  CandidateCodec(const Schema& source, const std::vector<Value>& x,
                 size_t num_z)
      : x_table_(x) {
    uint32_t max_arity = 0;
    for (RelationId r = 0; r < source.size(); ++r) {
      max_arity = std::max(max_arity, source.relation(r).arity);
    }
    stride_ = 1 + max_arity;
    for (const Value& v : x) universe_.push_back(ValueCode(v));
    for (size_t i = 0; i < num_z; ++i) {
      z_.push_back(FreshZ(i));
      universe_.push_back(ValueCode(z_.back()));
    }
    std::sort(universe_.begin(), universe_.end());
    universe_.erase(std::unique(universe_.begin(), universe_.end()),
                    universe_.end());
    // Rank 0 is the padding cell past an atom's arity: no value.
    fresh_.push_back(false);
    x_slot_.push_back(-1);
    for (uint64_t code : universe_) {
      fresh_.push_back(x_table_.IsFresh(code));
      x_slot_.push_back(static_cast<int32_t>(x_table_.Slot(code)));
    }
    for (const Value& v : x) x_rank_.push_back(Rank(v));
    for (const Value& v : z_) z_rank_.push_back(Rank(v));
    cell_bits_ = std::max<uint32_t>(
        1, std::bit_width(std::max<uint64_t>(universe_.size(),
                                              source.size())));
    x_stamps_.assign(x_table_.size(), 0);
    rank_stamps_.assign(universe_.size() + 1, 0);
    rename_to_.assign(universe_.size() + 1, 0);
  }

  const XTable& x_table() const { return x_table_; }
  size_t stride() const { return stride_; }
  const Value& z(size_t index) const { return z_[index]; }
  uint32_t z_rank(size_t index) const { return z_rank_[index]; }
  uint32_t x_rank(size_t index) const { return x_rank_[index]; }

  // Appends the rows of `conj` to `rows`.
  void Encode(const Conjunction& conj, std::vector<uint32_t>* rows) const {
    for (const Atom& atom : conj) {
      rows->push_back(atom.relation);
      for (const Value& v : atom.args) rows->push_back(Rank(v));
      rows->resize(rows->size() + stride_ - 1 - atom.args.size(), 0);
    }
  }

  // True iff `row` is one of `rows`.
  bool HasRow(const std::vector<uint32_t>& rows, const uint32_t* row) const {
    for (size_t i = 0; i < rows.size(); i += stride_) {
      if (std::equal(row, row + stride_, rows.begin() + i)) return true;
    }
    return false;
  }

  // Marks the x values occurring in `rows` (see Marked) and returns how
  // many distinct ones there are.
  size_t MarkX(const std::vector<uint32_t>& rows) {
    ++x_generation_;
    size_t covered = 0;
    for (size_t i = 0; i < rows.size(); i += stride_) {
      for (size_t j = 1; j < stride_; ++j) {
        int32_t slot = x_slot_[rows[i + j]];
        if (slot >= 0 && x_stamps_[slot] != x_generation_) {
          x_stamps_[slot] = x_generation_;
          ++covered;
        }
      }
    }
    return covered;
  }
  // True iff the x value in `slot` occurred in the last MarkX argument.
  bool Marked(size_t slot) const { return x_stamps_[slot] == x_generation_; }
  size_t num_x() const { return x_table_.size(); }
  // True iff `row` mentions the x value in `slot`.
  bool RowHasX(const uint32_t* row, size_t slot) const {
    for (size_t j = 1; j < stride_; ++j) {
      if (x_slot_[row[j]] == static_cast<int32_t>(slot)) return true;
    }
    return false;
  }

  // Number of distinct fresh variables in `rows`.
  size_t CountFresh(const std::vector<uint32_t>& rows) {
    ++rank_generation_;
    size_t count = 0;
    for (size_t i = 0; i < rows.size(); i += stride_) {
      for (size_t j = 1; j < stride_; ++j) {
        uint32_t rank = rows[i + j];
        if (fresh_[rank] && rank_stamps_[rank] != rank_generation_) {
          rank_stamps_[rank] = rank_generation_;
          ++count;
        }
      }
    }
    return count;
  }

  // Near-canonical key of the candidate `parent_rows` + `row`, up to
  // renaming of the fresh variables: sort, rename by first occurrence,
  // sort, rename, sort, then pack the cells into words after a leading
  // row count. Sorting rows is sorting the conjunction, so two candidates
  // share a key iff their renamed, sorted conjunctions are equal.
  // Imperfect canonicalization only costs duplicated search work; the
  // final minimization deduplicates exactly.
  const std::vector<uint64_t>& Key(const std::vector<uint32_t>& parent_rows,
                                   const uint32_t* row) {
    const size_t n = parent_rows.size() / stride_ + 1;
    rows_.assign(parent_rows.begin(), parent_rows.end());
    rows_.insert(rows_.end(), row, row + stride_);
    renamed_.resize(rows_.size());
    for (int round = 0; round < 2; ++round) {
      SortRows(n);
      ++rank_generation_;
      size_t next = 0;
      for (size_t k = 0; k < n; ++k) {
        const uint32_t* from = &rows_[order_[k] * stride_];
        uint32_t* to = &renamed_[k * stride_];
        to[0] = from[0];
        for (size_t j = 1; j < stride_; ++j) {
          uint32_t rank = from[j];
          if (fresh_[rank]) {
            if (rank_stamps_[rank] != rank_generation_) {
              rank_stamps_[rank] = rank_generation_;
              rename_to_[rank] = z_rank_[next++];
            }
            rank = rename_to_[rank];
          }
          to[j] = rank;
        }
      }
      rows_.swap(renamed_);
    }
    SortRows(n);
    key_.assign(1, n);
    uint64_t word = 0;
    uint32_t used = 0;
    for (size_t k = 0; k < n; ++k) {
      const uint32_t* cells = &rows_[order_[k] * stride_];
      for (size_t j = 0; j < stride_; ++j) {
        if (used + cell_bits_ > 64) {
          key_.push_back(word);
          word = 0;
          used = 0;
        }
        word |= static_cast<uint64_t>(cells[j]) << used;
        used += cell_bits_;
      }
    }
    key_.push_back(word);
    return key_;
  }

 private:
  uint32_t Rank(const Value& v) const {
    return 1 + static_cast<uint32_t>(std::lower_bound(universe_.begin(),
                                                      universe_.end(),
                                                      ValueCode(v)) -
                                     universe_.begin());
  }

  // Orders the first `n` rows of `rows_` lexicographically into `order_`
  // (insertion sort: candidates have a handful of atoms).
  void SortRows(size_t n) {
    order_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      size_t k = i;
      const uint32_t* row = &rows_[i * stride_];
      while (k > 0 && std::lexicographical_compare(
                          row, row + stride_,
                          &rows_[order_[k - 1] * stride_],
                          &rows_[order_[k - 1] * stride_] + stride_)) {
        order_[k] = order_[k - 1];
        --k;
      }
      order_[k] = i;
    }
  }

  XTable x_table_;
  size_t stride_ = 1;
  uint32_t cell_bits_ = 1;
  std::vector<Value> z_;
  std::vector<uint64_t> universe_;  // sorted value codes (rank - 1)
  std::vector<bool> fresh_;         // per rank
  std::vector<int32_t> x_slot_;     // per rank: x slot or -1
  std::vector<uint32_t> x_rank_;
  std::vector<uint32_t> z_rank_;
  std::vector<uint64_t> x_stamps_;
  uint64_t x_generation_ = 0;
  std::vector<uint64_t> rank_stamps_;
  uint64_t rank_generation_ = 0;
  std::vector<uint32_t> rename_to_;
  std::vector<uint32_t> rows_;
  std::vector<uint32_t> renamed_;
  std::vector<size_t> order_;
  std::vector<uint64_t> key_;
};

// An insert-only set of packed keys, stored back to back in one arena (no
// allocation per key) and found by open addressing on their hashes.
class PackedKeySet {
 public:
  // Inserts `key`; false when it was already present.
  bool Insert(const std::vector<uint64_t>& key) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    uint64_t hash = Hash(key);
    const size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.offset == kEmpty) {
        slot = {hash, arena_.size()};
        arena_.push_back(key.size());
        arena_.insert(arena_.end(), key.begin(), key.end());
        ++size_;
        return true;
      }
      if (slot.hash == hash && arena_[slot.offset] == key.size() &&
          std::equal(key.begin(), key.end(),
                     arena_.begin() + slot.offset + 1)) {
        return false;
      }
    }
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    size_t offset = kEmpty;  // arena position of [length, words...]
  };
  static constexpr size_t kEmpty = ~size_t{0};

  // Multiply-xorshift per word (splitmix64's finalizer): the low bits
  // that pick a slot depend on every bit of every word.
  static uint64_t Hash(const std::vector<uint64_t>& key) {
    uint64_t h = 0;
    for (uint64_t word : key) {
      h = (h ^ word) * 0xBF58476D1CE4E5B9ULL;
      h = (h ^ (h >> 31)) * 0x94D049BB133111EBULL;
      h ^= h >> 29;
    }
    return h;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, 2 * old.size()), Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.offset == kEmpty) continue;
      size_t i = slot.hash & mask;
      while (slots_[i].offset != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  std::vector<uint64_t> arena_;
  std::vector<Slot> slots_;
  size_t size_ = 0;
};

// Enumerates every atom that may extend a candidate that currently uses
// `used_z` fresh variables: arguments come from `x`, the used fresh
// variables, or new fresh variables introduced left-to-right in index
// order. Each atom's row (CandidateCodec) is appended to `rows`.
void EnumerateAtoms(const Schema& schema, const std::vector<Value>& x,
                    const CandidateCodec& codec, size_t used_z,
                    std::vector<Atom>* out, std::vector<uint32_t>* rows) {
  for (RelationId r = 0; r < schema.size(); ++r) {
    uint32_t arity = schema.relation(r).arity;
    // Recursive position filling.
    struct Filler {
      const std::vector<Value>& x;
      const CandidateCodec& codec;
      uint32_t arity;
      RelationId relation;
      std::vector<Atom>* out;
      std::vector<uint32_t>* rows;
      std::vector<Value> args;
      std::vector<uint32_t> ranks;

      void Push(const Value& v, uint32_t rank, size_t pos, size_t z_avail) {
        args.push_back(v);
        ranks.push_back(rank);
        Fill(pos + 1, z_avail);
        args.pop_back();
        ranks.pop_back();
      }

      void Fill(size_t pos, size_t z_avail) {
        if (pos == arity) {
          out->push_back(Atom{relation, args});
          rows->push_back(relation);
          rows->insert(rows->end(), ranks.begin(), ranks.end());
          rows->resize(rows->size() + codec.stride() - 1 - arity, 0);
          return;
        }
        for (size_t i = 0; i < x.size(); ++i) {
          Push(x[i], codec.x_rank(i), pos, z_avail);
        }
        for (size_t i = 0; i < z_avail; ++i) {
          Push(codec.z(i), codec.z_rank(i), pos, z_avail);
        }
        // Introduce the next fresh variable (exactly one new choice keeps
        // the enumeration canonical up to renaming).
        Push(codec.z(z_avail), codec.z_rank(z_avail), pos, z_avail + 1);
      }
    };
    Filler filler{x, codec, arity, r, out, rows, {}, {}};
    filler.Fill(0, used_z);
  }
}

}  // namespace

void MinGenStats::Accumulate(const MinGenStats& run) {
  candidates += run.candidates;
  dedup_pruned += run.dedup_pruned;
  dominated_pruned += run.dominated_pruned;
  generator_tests += run.generator_tests;
  generators += run.generators;
  delta_skipped += run.delta_skipped;
  parent_chases += run.parent_chases;
  generator_event_ids.insert(generator_event_ids.end(),
                             run.generator_event_ids.begin(),
                             run.generator_event_ids.end());
  partial = partial || run.partial;
}

Result<bool> IsGenerator(const SchemaMapping& m, const Conjunction& beta,
                         const Conjunction& psi,
                         const std::vector<Value>& x, Budget* budget) {
  Instance canonical = CanonicalInstance(beta, m.source);
  ChaseOptions chase_options;
  chase_options.budget = budget;
  QIMAP_ASSIGN_OR_RETURN(Instance chased,
                         Chase(canonical, m, chase_options));
  // The shared variables are frozen: psi must embed into the chase with
  // each x mapped to itself; the existential y map anywhere.
  Assignment partial;
  for (const Value& v : x) partial.emplace(v, v);
  HomSearchOptions options;
  return FindHomomorphism(psi, chased, partial, options).has_value();
}

bool IsSubConjunctionUpToRenaming(const Conjunction& small,
                                  const Conjunction& big,
                                  const std::vector<Value>& x) {
  return IsSubConjunction(small, big, XTable(x));
}

Result<std::vector<Conjunction>> MinGen(const SchemaMapping& m,
                                        const Conjunction& psi,
                                        const std::vector<Value>& x,
                                        const MinGenOptions& options) {
  static const obs::MetricId kLatency =
      obs::RegisterHistogram("mingen.latency_us");
  obs::ScopedLatency latency(kLatency);
  QIMAP_TRACE_SPAN("mingen/search");

  // Profiling: one entry per search unit (the conjunction being
  // inverted). The delta-trigger and frozen-x psi-embedding searches of
  // the generator tests attribute per-atom to this entry; each parent
  // chase registers and attributes its own dependencies on top, so
  // hot-spot data aggregates across all of MinGen's chases.
  uint32_t prof_dep = obs::kProfileNoDep;
  if (obs::Profiler::Enabled()) {
    prof_dep = obs::Profiler::RegisterDep(
        "mingen", ConjunctionToString(psi, *m.target),
        static_cast<uint32_t>(psi.size()));
  }
  obs::ProfiledDepScope prof_scope(prof_dep, obs::ProfilePhase::kCollect);

  // Lemma 4.4: minimal generators have at most s1*s2 conjuncts.
  size_t s1 = 0;
  for (const Tgd& tgd : m.tgds) s1 = std::max(s1, tgd.lhs.size());
  size_t max_atoms =
      options.max_atoms != 0 ? options.max_atoms : s1 * psi.size();
  // A candidate of n atoms holds at most n * (max arity) fresh variables,
  // and a level is only enumerated once every level above it examined a
  // candidate, so at most max_candidates + 1 levels are; intern them all
  // up front so the loop below never touches the interner.
  uint32_t max_arity = 0;
  for (RelationId r = 0; r < m.source->size(); ++r) {
    max_arity = std::max(max_arity, m.source->relation(r).arity);
  }
  size_t depth = max_atoms;
  if (options.max_candidates != 0) {
    depth = std::min(depth, options.max_candidates + 1);
  }
  CandidateCodec codec(*m.source, x, depth * max_arity);
  const XTable& x_table = codec.x_table();
  const size_t stride = codec.stride();

  MinGenStats local_stats;
  MinGenStats& st = options.stats != nullptr ? *options.stats : local_stats;
  st = MinGenStats{};
  // Flush whatever was counted on every exit path, including errors. The
  // profiler entry reuses the same stats: candidates examined land in
  // triggers_found, minimal generators in fired, pruned candidates in
  // skipped.
  struct Flusher {
    MinGenStats* st;
    uint32_t prof_dep;
    ~Flusher() {
      FlushMinGenMetrics(*st);
      obs::ProfileRecordOutcomes(prof_dep, st->candidates, st->generators,
                                 st->dedup_pruned + st->dominated_pruned);
    }
  } flusher{&st, prof_dep};

  std::vector<Conjunction> generators;
  std::vector<Conjunction> frontier = {Conjunction{}};
  PackedKeySet seen;

  // The candidate valve doubles as the run's local step limit; the shared
  // budget adds deadline/memory/null/cancellation governance on top.
  RunBudget guard("MinGen", options.max_candidates, options.budget,
                  "(raise MinGenOptions::max_candidates)");
  // Heartbeats over the candidate enumeration; the candidate valve is
  // the natural total (the run cannot outlast it).
  obs::ProgressRun progress(
      "mingen",
      [&st]() {
        obs::ProgressSample sample;
        sample.facts = st.generator_tests;
        sample.fired = st.generators;
        sample.skipped = st.dedup_pruned + st.dominated_pruned;
        return sample;
      },
      options.budget);
  progress.SetTotalEstimate(options.max_candidates);
  // Ends the search on a budget trip: journal + budget.* metrics, then
  // the generators found so far (unminimized) as the partial result. The
  // rule events of a tripped run are never emitted, so the ad-hoc journal
  // run only ever carries this budget event.
  auto trip = [&](Status status) -> Status {
    st.partial = true;
    obs::JournalRun trip_journal("mingen");
    obs::ReportBudgetTrip(trip_journal, guard, status,
                          options.partial_out != nullptr);
    if (options.partial_out != nullptr) {
      *options.partial_out = std::move(generators);
    }
    return status;
  };

  // Generator tests, shared across siblings. Every child is its parent
  // plus one atom `a`, so I_c = I_p + {a} and the triggers of I_c are the
  // triggers of I_p plus the *delta* triggers — the lhs matches that use
  // the new row (FindDeltaTriggers against the epoch of I_p). Then:
  //
  //  * No delta trigger: chase(I_c) = chase(I_p) fact for fact, so the
  //    child's frozen-x psi test is the parent's. A frontier parent that
  //    was itself tested failed it (generators never enter the frontier),
  //    and a parent missing an x of psi fails it trivially (the chase
  //    never invents a variable), so those children are decided without
  //    chasing or searching; any other parent runs its own test once.
  //  * Otherwise: chase I_p once per parent, then fire only the delta
  //    triggers on top. J = chase(I_p) + the fired delta facts (fresh
  //    nulls above every label of chase(I_p)) is a universal solution for
  //    I_c: every trigger of I_p is satisfied in chase(I_p) ⊆ J, every
  //    delta trigger is satisfied by its own firing, and each fired fact
  //    has a witness in any solution for I_c. So J and chase(I_c) are
  //    homomorphically equivalent by maps that move only the nulls, and
  //    psi embeds into one with x frozen iff it embeds into the other —
  //    the decision IsGenerator reaches by re-chasing I_c from scratch.
  const std::vector<Tgd>& tgds = m.tgds;
  const HomSearchOptions hom_options;
  // Delta triggers arrive as Assignments from FindDeltaTriggers; each is
  // encoded into its tgd's trigger row and fired through the chase's
  // FireProgram.
  std::vector<std::vector<Value>> slots;
  std::vector<FireProgram> fire_programs;
  std::vector<bool> lhs_relation(m.source->size(), false);
  slots.reserve(tgds.size());
  fire_programs.reserve(tgds.size());
  for (const Tgd& tgd : tgds) {
    slots.push_back(TriggerSlots(tgd.lhs, hom_options));
    fire_programs.emplace_back(tgd, slots.back());
    for (const Atom& atom : tgd.lhs) lhs_relation[atom.relation] = true;
  }
  std::vector<Value> trigger_row;
  // Slots of the x values psi mentions: a parent missing one of them
  // cannot embed psi with x frozen.
  std::vector<size_t> psi_x_slots;
  for (const Value& v : VariableSetOf(psi)) {
    ptrdiff_t slot = x_table.Slot(ValueCode(v));
    if (slot >= 0) psi_x_slots.push_back(static_cast<size_t>(slot));
  }
  Assignment frozen_x;
  for (const Value& v : x) frozen_x.emplace(v, v);
  auto embeds_psi = [&](const Instance& solution) {
    return FindHomomorphism(psi, solution, frozen_x, hom_options)
        .has_value();
  };
  ChaseOptions chase_options;
  chase_options.budget = options.budget;
  // An error from a chase or a firing: a budget trip hands back the
  // partial generator list (an inner chase also journals its own trip).
  auto fail = [&](Status status) -> Status {
    if (guard.exhausted()) return trip(std::move(status));
    return status;
  };

  std::vector<uint32_t> parent_rows;
  std::vector<Atom> extensions;
  std::vector<uint32_t> extension_rows;
  std::vector<size_t> missing_x;
  for (size_t size = 1; size <= max_atoms && !frontier.empty(); ++size) {
    std::vector<Conjunction> next_frontier;
    for (const Conjunction& current : frontier) {
      parent_rows.clear();
      codec.Encode(current, &parent_rows);
      extensions.clear();
      extension_rows.clear();
      EnumerateAtoms(*m.source, x, codec, codec.CountFresh(parent_rows),
                     &extensions, &extension_rows);
      // The x values the parent lacks: a child contains every x iff its
      // new atom supplies all of them.
      missing_x.clear();
      const size_t covered = codec.MarkX(parent_rows);
      for (size_t slot = 0; slot < codec.num_x(); ++slot) {
        if (!codec.Marked(slot)) missing_x.push_back(slot);
      }
      // The parent's shared generator-test state: I_p and its epoch now,
      // chase(I_p) and its own psi test on first need.
      const Instance parent_source = CanonicalInstance(current, m.source);
      const std::vector<uint32_t> epoch = parent_source.RowCounts();
      std::optional<Instance> parent_solution;
      uint32_t first_delta_null = 0;
      std::optional<bool> parent_embeds;
      if (size > 1 && covered == codec.num_x()) parent_embeds = false;
      for (size_t slot : psi_x_slots) {
        if (!codec.Marked(slot)) parent_embeds = false;
      }
      auto chase_parent = [&]() -> Status {
        if (parent_solution.has_value()) return Status::OK();
        ++st.parent_chases;
        QIMAP_ASSIGN_OR_RETURN(Instance solution,
                               Chase(parent_source, m, chase_options));
        first_delta_null = std::max(solution.MaxNullLabel(),
                                    parent_source.MaxNullLabel()) +
                           1;
        parent_solution.emplace(std::move(solution));
        return Status::OK();
      };

      for (size_t e = 0; e < extensions.size(); ++e) {
        const Atom& atom = extensions[e];
        const uint32_t* row = &extension_rows[e * stride];
        if (codec.HasRow(parent_rows, row)) continue;  // already in current
        if (options.dedup_candidates &&
            !seen.Insert(codec.Key(parent_rows, row))) {
          ++st.dedup_pruned;
          continue;
        }
        Conjunction child;
        child.reserve(current.size() + 1);
        child = current;
        child.push_back(atom);
        // Strict supersets of a found generator are never minimal.
        bool dominated = false;
        for (const Conjunction& g : generators) {
          if (IsSubConjunction(g, child, x_table)) {
            dominated = true;
            break;
          }
        }
        if (dominated) {
          ++st.dominated_pruned;
          continue;
        }
        {
          Status tick = guard.Tick();
          if (!tick.ok()) return trip(std::move(tick));
        }
        progress.Step();
        ++st.candidates;
        bool is_generator = false;
        if (std::all_of(missing_x.begin(), missing_x.end(),
                        [&](size_t slot) { return codec.RowHasX(row, slot); })) {
          ++st.generator_tests;
          std::vector<std::vector<Assignment>> delta(tgds.size());
          bool any_delta = false;
          if (lhs_relation[atom.relation]) {
            Instance child_source = parent_source;
            Status added = child_source.AddFact(atom.relation, atom.args);
            if (!added.ok()) return added;
            for (size_t d = 0; d < tgds.size(); ++d) {
              delta[d] = FindDeltaTriggers(tgds[d].lhs, child_source, epoch,
                                           hom_options);
              any_delta = any_delta || !delta[d].empty();
            }
          }
          if (!any_delta) {
            ++st.delta_skipped;
            if (!parent_embeds.has_value()) {
              Status chased = chase_parent();
              if (!chased.ok()) return fail(std::move(chased));
              parent_embeds = embeds_psi(*parent_solution);
            }
            is_generator = *parent_embeds;
          } else {
            Status chased = chase_parent();
            if (!chased.ok()) return fail(std::move(chased));
            Instance solution = *parent_solution;
            uint32_t next_null = first_delta_null;
            for (size_t d = 0; d < tgds.size(); ++d) {
              trigger_row.resize(slots[d].size());
              for (const Assignment& h : delta[d]) {
                EncodeTriggerRow(slots[d], h, trigger_row.data());
                Status fired = fire_programs[d].Fire(
                    trigger_row.data(), &solution, &next_null, &guard);
                if (!fired.ok()) return fail(std::move(fired));
              }
            }
            is_generator = embeds_psi(solution);
          }
        }
        if (is_generator) {
          generators.push_back(std::move(child));
        } else if (size < max_atoms) {
          next_frontier.push_back(std::move(child));
        }
      }
    }
    frontier = std::move(next_frontier);
  }

  // Paper's Step 3 (minimize): drop duplicates up to renaming, then any
  // member containing another as a sub-conjunction. Level-order search
  // makes strict supersets rare, but near-canonical dedup can leave
  // renaming-equal twins.
  std::vector<Conjunction> minimal;
  for (const Conjunction& g : generators) {
    bool drop = false;
    for (const Conjunction& kept : minimal) {
      if (IsSubConjunction(kept, g, x_table)) {
        drop = true;
        break;
      }
    }
    if (!drop) minimal.push_back(g);
  }
  st.generators = minimal.size();
  // Provenance: one rule event per minimal generator, attributing it to
  // the conjunction it generates; ids flow back through the stats so
  // QuasiInverse can parent its emitted rules on them.
  obs::JournalRun journal("mingen");
  if (journal.active()) {
    std::string psi_text = ConjunctionToString(psi, *m.target);
    std::string x_text;
    for (const Value& v : x) {
      if (!x_text.empty()) x_text += ", ";
      x_text += v.ToString();
    }
    for (const Conjunction& g : minimal) {
      st.generator_event_ids.push_back(journal.RecordRule(
          ConjunctionToString(g, *m.source), psi_text, -1, x_text, {}));
    }
  }
  return minimal;
}

}  // namespace qimap
